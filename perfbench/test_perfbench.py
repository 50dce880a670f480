"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bootstrap
import hostspeed

bootstrap.use_checkout_src()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from delaybandit import cli, core, harness  # noqa: E402
from workloads import Unit  # noqa: E402

HERE = Path(__file__).resolve().parent


def _small_units(tmp: Path) -> list:
    """One unit of each kind, small enough to run in a second or two."""
    spec = dict(harness.preset_fig2().instance, d=[4, 3, 3, 6, 4, 3, 4])
    inst = workloads.write_instance(spec, tmp / "draw.json")
    exact = {"k": 3, "mu": ["1", "4/5", "1/2"], "d": [2, 1, 2],
             "discount": {"kind": "geometric", "gamma": "9/10"}}
    exact_inst = workloads.write_instance(exact, tmp / "exact.json")
    return [
        Unit("fig2", "experiment", ["experiment", "--preset", "fig2", "-T", "3000", "--seeds", "0,1",
                                    "--out", str(tmp / "fig2")], tmp / "fig2"),
        Unit("step", "experiment", ["experiment", "--instance", str(tmp / "draw.json"),
                                    "--algos", "greedy,ghost", "-T", "500", "--seeds", "3",
                                    "--out", str(tmp / "step")], tmp / "step", inst),
        Unit("rank", "rank", ["rank", "--instance", str(tmp / "draw.json"), "--seed", "3"], None, inst),
        Unit("oracle", "oracle", ["oracle", "--instance", str(tmp / "exact.json")], None, exact_inst),
        Unit("pmsp", "pmsp", ["pmsp", "--intervals", "2,4,4", "--check-reduction"], None, (2, 4, 4)),
    ]


def _session(units, reference=None):
    return workloads.Session(units, reference or {})


def test_traced_and_untraced_digests_match(tmp_path):
    units = _small_units(tmp_path)
    session = _session(units)
    plain = session.run_pass()
    tracer = tracing.Tracer()
    main = cli.main
    traced = session.run_pass(tracer)
    assert cli.main is main, "patches must be undone"
    assert session.failed == 0
    assert None not in plain.digests
    assert plain.digests == traced.digests
    table = tracer.span_table()
    for name in ("cli.main", "core.pull", "core.pull_cycles.scalar", "ucb.run", "oracle.solve",
                 "harness.run_experiment", "ranker.sample_round", "policies.greedy_arm"):
        assert table[name][0] > 0, name
    assert tracer.counts["ucb.ucb_index.calls"] > 0
    assert tracer.peaks["core.log_bytes"] > 0


def test_output_checks_record_no_layer_spans(tmp_path):
    # the oracle check calls policies.ghost_summary and oracle.alternation_value;
    # neither may show up as program time
    units = [u for u in _small_units(tmp_path) if u.kind in ("oracle", "pmsp")]
    tracer = tracing.Tracer()
    _session(units).run_pass(tracer)
    names = [tracer.names[i] for i in tracer.name]
    verify = {i for i, name in enumerate(names) if name == "bench.verify"}
    assert len(verify) == len(units)
    assert not any(parent in verify for parent in tracer.parent)
    assert "policies.ghost_summary" not in names
    assert names.count("oracle.solve") == len(units)


@pytest.mark.parametrize("extra", [0, 1])
def test_scalar_vector_split_matches_core(extra):
    # core's scalar loop draws one uniform per pull; its vector path draws a block
    inst = harness.load_instance(dict(harness.preset_fig2().instance, d=[4, 3, 3, 6, 4, 3, 4]))
    env = core.Environment(inst, np.random.default_rng(0), capacity=4096)
    draws = []
    uniform = env._uniform
    env._uniform = lambda: draws.append(1) or uniform()
    prefix = (0, 1, 2)
    n = len(prefix) + tracing.SCALAR_SLACK + extra
    env.pull_cycles(prefix, n)
    scalar = len(draws) == n
    assert scalar == (extra == 0)
    expected = "core.pull_cycles.scalar" if scalar else "core.pull_cycles.vector"
    assert tracing._pull_cycles_name((env, prefix, n), {}) == expected


def test_self_times_on_synthetic_tree():
    # a [0,10] has children b [1,4], c [3,6] (overlapping b) and d [8,9];
    # b has child e [2,3]; d has child f [8.5,9.5], which runs past d's end.
    spans = [  # name, start, end, parent index; deliberately not in start order
        ("d", 8.0, 9.0, 5),
        ("f", 8.5, 9.5, 0),
        ("c", 3.0, 6.0, 5),
        ("e", 2.0, 3.0, 4),
        ("b", 1.0, 4.0, 5),
        ("a", 0.0, 10.0, -1),
    ]
    names = sorted({s[0] for s in spans})
    table = tracing.self_times(names, [names.index(s[0]) for s in spans], [s[1] for s in spans],
                               [s[2] for s in spans], [s[3] for s in spans])
    expected_self = {"a": 10 - 6, "b": 3 - 1, "c": 3, "d": 1 - 0.5, "e": 1, "f": 1}
    for name, own in expected_self.items():
        assert table[name][2] == pytest.approx(own), name
    assert table["a"][1] == pytest.approx(10)
    assert all(table[name][0] == 1 for name in names)


def test_self_times_leave_wrapper_cost_out():
    # p's inner call is [1, 9]; its child c has outer [2, 5] and inner [3, 4],
    # and p made two Count calls; each direct child call costs p 0.25 s, each count 0.5 s
    table = tracing.self_times(["p", "c"], [0, 1], [0.0, 2.0], [10.0, 5.0], [-1, 0],
                               inner=([1.0, 3.0], [9.0, 4.0]), hits=[2, 0],
                               span_cost=0.25, count_cost=0.5)
    assert table["p"] == pytest.approx([1, 8.0, 8 - 3 - 0.25 - 2 * 0.5])
    assert table["c"] == pytest.approx([1, 1.0, 1.0])


def test_calibrated_wrapper_costs_are_small():
    tracer = tracing.Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    assert 0 <= tracer.span_cost < 20e-6
    assert 0 <= tracer.count_cost < 20e-6


def test_self_times_aggregates_by_name():
    table = tracing.self_times(["p", "c"], [0, 1, 1], [0.0, 1.0, 3.0], [5.0, 2.0, 4.0], [-1, 0, 0])
    assert table["c"] == pytest.approx([2, 2.0, 2.0])
    assert table["p"] == pytest.approx([1, 5.0, 3.0])


def test_corrupted_reference_counts_as_failed(tmp_path):
    unit = _small_units(tmp_path)[0]
    session = _session([unit])
    outcome = workloads.run_unit(unit)
    good = workloads.observe(unit, outcome)
    assert workloads.check_unit(unit, outcome, good) == []
    bad = json.loads(json.dumps(good))
    bad["csv"]["low_seed0.csv"] = "0" * 64
    bad["metadata"]["runs"]["ucb/seed1"]["switches"] += 1
    session.reference = {unit.label: bad}
    session.run_pass()
    assert (session.attempted, session.failed) == (1, 1)


def test_raising_or_failing_unit_counts_as_failed(tmp_path):
    (tmp_path / "no_mu.json").write_text('{"d": [1, 2], "discount": {"kind": "constant", "c": 0.5}}')
    units = [
        Unit("raises", "experiment", ["experiment", "--instance", str(tmp_path / "no_mu.json"),
                                      "--algos", "ghost", "--out", str(tmp_path / "o")], tmp_path / "o"),
        Unit("exit-2", "oracle", ["oracle", "--instance", str(tmp_path / "missing.json")]),
        Unit("bad-argv", "pmsp", ["pmsp"]),
        _small_units(tmp_path)[-1],
    ]
    session = _session(units)
    record = session.run_pass()
    assert (session.attempted, session.failed) == (4, 3)
    assert [d is None for d in record.digests] == [True, False, True, False]


def test_reference_seconds_use_the_probes_around_each_interval():
    ref = hostspeed.REFERENCE_S
    clock = hostspeed.Clock()
    clock.probes = [ref, ref, 2 * ref, ref / 2]   # before, then after each of three intervals
    assert clock.reference_s([1.0, 3.0, 5.0]) == pytest.approx(1.0 + 3.0 / 1.5 + 5.0 / 1.25)
    assert clock.reference_s([5.0]) == pytest.approx(4.0)
    assert clock.speed() == pytest.approx(1.0)


def test_work_between_units_is_not_timed(tmp_path):
    pmsp = _small_units(tmp_path)[-1]
    calls = []
    record = _session([pmsp, pmsp]).run_pass(after_unit=lambda: calls.append(time.sleep(0.2)))
    assert len(calls) == len(record.unit_s) == 2
    assert record.wall_s == pytest.approx(sum(record.unit_s), abs=0.05)


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_default_unit(tmp_path):
    for workload in workloads.WORKLOADS:
        plan = workloads.make_plan(workload, workloads.DEFAULT_SEED, tmp_path / workload)
        labels = {unit.label for unit in plan}
        assert labels == set(workloads.load_reference(workload, workloads.DEFAULT_SEED)), workload


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fig2", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
