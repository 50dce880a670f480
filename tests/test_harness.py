import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaybandit
from delaybandit import (
    Discount,
    Environment,
    PolicyTrace,
    dump_instance,
    g_value,
    ghost_reference,
    instance_hash,
    load_instance,
    make_instance,
    materialize_instance,
    preset_fig2,
    preset_fig3,
    regret_vs_ghost,
    run_experiment,
)
from delaybandit.cli import main
from delaybandit.harness import CSV_CHUNK_ROWS, CSV_HEADER, _write_csv, run_algorithm
from helpers import fig3_instance, write_csv_by_row


class TestInstanceIO:
    def test_round_trip_exact(self, tmp_path):
        inst = fig3_instance()
        doc = dump_instance(inst, label="fig3")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        loaded = load_instance(str(path))
        assert loaded.mus == inst.mus
        assert loaded.ds == inst.ds
        assert loaded.discount == inst.discount
        assert instance_hash(loaded) == instance_hash(inst)

    def test_round_trip_all_kinds(self):
        for disc in (Discount.geometric(0.99), Discount.constant(F(1, 3)),
                     Discount.table([0.5, 0.25])):
            inst = make_instance([0.9, 0.3], [1, 2], disc)
            assert load_instance(dump_instance(inst)).discount == disc

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            load_instance({"k": 3, "mu": [0.9, 0.1], "d": [1, 1],
                           "discount": {"kind": "constant", "c": 0.5}})

    def test_bad_discount_kind(self):
        with pytest.raises(ValueError):
            load_instance({"mu": [0.9], "d": [1], "discount": {"kind": "welp"}})


class TestMaterialize:
    def test_fig2_delays_per_seed(self):
        spec = preset_fig2().instance
        a = materialize_instance(spec, 0)
        b = materialize_instance(spec, 0)
        c = materialize_instance(spec, 1)
        assert a.ds == b.ds
        assert a.ds != c.ds or a.mus == c.mus  # same seed deterministic; new seed redraws
        assert all(1 <= d <= 6 for d in a.ds)
        assert a.mus == (F(1), F(14, 15), F(13, 15), F(4, 5), F(2, 3), F(1, 3), F(0))

    def test_fig3_values(self):
        inst = materialize_instance(preset_fig3().instance, 0)
        assert g_value(inst, 1) == F(7, 10)
        assert g_value(inst, 2) == F(7, 10)
        f = inst.discount
        assert f(1) >= f(2) == f(5)


class TestPresets:
    def test_fig2_fields(self):
        cfg = preset_fig2()
        assert cfg.switch_cost == 1.0
        assert len(cfg.seeds) == 5
        assert set(cfg.algorithms) == {"low", "ucb"}
        assert cfg.instance["d"] == {"draw": [1, 6]}

    def test_fig3_cost_flag(self):
        assert preset_fig3(cost=True).switch_cost == 1.0
        assert preset_fig3(cost=False).switch_cost == 0.0
        assert len(preset_fig3().seeds) == 10

    def test_config_validation(self):
        cfg = preset_fig3()
        with pytest.raises(ValueError):
            replace(cfg, seeds=())
        with pytest.raises(ValueError):
            replace(cfg, switch_cost=-1.0)
        with pytest.raises(ValueError):
            replace(cfg, algorithms=("nope",))
        with pytest.raises(ValueError, match="at least one algorithm"):
            replace(cfg, algorithms=())

    def test_repeat_check_is_one_pass(self):
        # the repeat check is linear in the seed count, and it names the first value that
        # repeats an earlier one
        start = time.perf_counter()
        replace(preset_fig3(), seeds=tuple(range(50_000)), horizon=50)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError, match="seed 5 is repeated"):
            replace(preset_fig3(), seeds=(0, 5, 1, 5))

    @pytest.mark.parametrize("cost", [10**400, -(10**400)])
    def test_switch_cost_past_the_float_range_is_a_value_error(self, cost):
        # math.isfinite raises OverflowError on such an int; the config rejects it itself
        with pytest.raises(ValueError, match="switch cost .* past the float range"):
            replace(preset_fig3(), switch_cost=cost)

    def test_non_integer_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="horizon T must be an integer, got 1000.5"):
            replace(preset_fig3(), horizon=1000.5)
        assert replace(preset_fig3(), horizon=1000.0).horizon == 1000


class TestGhostReference:
    def test_fig3_series(self):
        series = ghost_reference(fig3_instance(), 6)
        assert np.allclose(series, [1.0, 1.7, 2.4, 3.1, 3.8, 4.5], atol=1e-12)

    def test_empty(self):
        assert len(ghost_reference(fig3_instance(), 0)) == 0

    def test_slope_converges_to_g(self):
        inst = fig3_instance()
        series = ghost_reference(inst, 5000)
        slope = (series[-1] - series[1000]) / (4999 - 1000)
        assert slope == pytest.approx(0.7, abs=1e-12)


class TestRegret:
    def test_ghost_vs_itself_is_zero(self):
        inst = fig3_instance()
        run, _ = run_algorithm("ghost", inst, 500, 0.1, 0)
        curve = regret_vs_ghost(run, inst, 0.0)
        assert np.allclose(curve.regret, 0.0, atol=1e-9)

    def test_switch_cost_charged_once_per_switch(self):
        # hand-built trace alternating policies every pull
        T = 8
        trace = PolicyTrace(
            arms=np.zeros(T, np.int32),
            taus=np.zeros(T, np.int32),
            gaps=np.full(T, -1, np.int64),
            expected=np.full(T, 0.5),
            realized=np.zeros(T, np.int8),
            policy=np.array([1, 2, 1, 2, 1, 2, 1, 2], np.int32),
            retained=np.ones(T, bool),
        )
        ghost_cum = np.cumsum(np.full(T, 0.7))
        c0 = regret_vs_ghost(trace, fig3_instance(), 0.0, ghost_cum=ghost_cum)
        c1 = regret_vs_ghost(trace, fig3_instance(), 1.0, ghost_cum=ghost_cum)
        switches = np.arange(T)  # one switch at every pull after the first
        assert np.array_equal(trace.cum_switches, switches)
        assert np.allclose(c1.regret - c0.regret, switches)

    def test_length_mismatch(self):
        inst = fig3_instance()
        run, _ = run_algorithm("ghost", inst, 10, 0.1, 0)
        with pytest.raises(ValueError):
            regret_vs_ghost(run, inst, 0.0, ghost_cum=np.zeros(5))


def peak_growth_to_eight_seeds(cfg):
    """tracemalloc peak of `run_experiment` at seeds 0-7 minus its peak at seed 0."""
    def peak(seeds):
        tracemalloc.start()
        try:
            run_experiment(replace(cfg, seeds=seeds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak((0,))   # warm-up: first-call caches are not part of a run's cost
    return peak(tuple(range(8))) - peak((0,))


class TestRunExperiment:
    def make_config(self, tmp_path, name="a"):
        return replace(preset_fig3(cost=True), horizon=2000, seeds=(0, 1, 2),
                       outdir=str(tmp_path / name))

    def test_file_inventory(self, tmp_path):
        res = run_experiment(self.make_config(tmp_path))
        names = sorted(os.path.basename(f) for f in res.files)
        assert names == [
            "low_agg.csv", "low_seed0.csv", "low_seed1.csv", "low_seed2.csv",
            "metadata.json",
            "ucb_agg.csv", "ucb_seed0.csv", "ucb_seed1.csv", "ucb_seed2.csv",
        ]

    def test_byte_identical_rerun(self, tmp_path):
        a = self.make_config(tmp_path, "a")
        b = self.make_config(tmp_path, "b")
        run_experiment(a)
        run_experiment(b)
        for name in os.listdir(a.outdir):
            assert filecmp.cmp(os.path.join(a.outdir, name),
                               os.path.join(b.outdir, name), shallow=False), name

    def test_csv_schema_and_sizes(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run_experiment(cfg)
        with open(os.path.join(cfg.outdir, "low_seed0.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "algo", "seed", "cum_expected", "cum_realized",
                           "switches", "regret"]
        assert len(rows) - 1 <= 2000
        assert rows[-1][0] == "2000"
        with open(os.path.join(cfg.outdir, "low_agg.csv")) as fh:
            arows = list(csv.reader(fh))
        assert arows[0] == ["t", "algo", "mean_regret", "std_regret", "n_runs"]
        assert arows[1][4] == "3"

    def test_aggregate_is_mean_of_runs(self, tmp_path):
        cfg = self.make_config(tmp_path)
        res = run_experiment(cfg)
        per = np.stack([res.curves[("ucb", s)].regret for s in cfg.seeds])
        with open(os.path.join(cfg.outdir, "ucb_agg.csv")) as fh:
            agg = np.array([float(r["mean_regret"]) for r in csv.DictReader(fh)])
        assert np.array_equal(per.mean(axis=0), agg)

    def test_reward_never_exceeds_best_baseline(self, tmp_path):
        cfg = self.make_config(tmp_path)
        res = run_experiment(cfg)
        for algo, seed in res.curves:
            with open(os.path.join(cfg.outdir, f"{algo}_seed{seed}.csv")) as fh:
                *_, last = csv.DictReader(fh)
            assert float(last["cum_expected"]) <= cfg.horizon * 1.0 + 1e-9

    def test_metadata_contents(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run_experiment(cfg)
        with open(os.path.join(cfg.outdir, "metadata.json")) as fh:
            meta = json.load(fh)
        assert meta["schedule"]["S"] == len(meta["schedule"]["T_s"])
        assert meta["per_seed"]["0"]["ghost"]["r_star"] == 1
        assert meta["per_seed"]["0"]["ghost"]["g"] == [0.7, 0.7]
        assert "low/seed0" in meta["runs"]

    def test_full_curves_flag(self, tmp_path):
        cfg = replace(preset_fig3(cost=True), horizon=2500, seeds=(0,),
                      outdir=str(tmp_path / "full"), full_curves=True)
        run_experiment(cfg)
        with open(os.path.join(cfg.outdir, "low_seed0.csv")) as fh:
            assert len(list(csv.reader(fh))) == 2501

    def test_memory_does_not_grow_with_seed_count(self):
        # one cell's log and one seed's reference at the grid are alive at a time
        cfg = replace(preset_fig3(), algorithms=("ghost", "greedy"), horizon=50_000)
        assert peak_growth_to_eight_seeds(cfg) < 2 * 2**20

    def test_full_curves_memory_grows_by_the_regret_rows(self):
        # a cell's cumulative columns die with it: seven more seeds add their regret rows,
        # 8 B per algorithm and pull each, and nothing else that grows with the seeds
        cfg = replace(preset_fig3(), algorithms=("ghost", "greedy"), horizon=50_000,
                      full_curves=True)
        rows = 7 * len(cfg.algorithms) * cfg.horizon * 8
        assert peak_growth_to_eight_seeds(cfg) < rows + 2 * 2**20

    def test_memory_follows_the_grid_not_the_horizon(self, tmp_path):
        # ghost, greedy, low and ucb on one seed at T = 2e6, in a fresh interpreter: a cell
        # holds its 16 MB of uniforms and its blocks, and its curve is read off them a window
        # at a time (whole-log columns and cumulative sums took this command to 201 MB)
        path = tmp_path / "fig2-draw0.json"
        path.write_text(json.dumps(dump_instance(materialize_instance(preset_fig2().instance, 0))))
        src = str(Path(delaybandit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # the command runs in a fork of the child: an exec'd process keeps its parent's max RSS
        # (here the test runner's), while a forked one starts its own count
        code = ("import os, resource, sys\n"
                "if os.fork() == 0:\n"
                "    from delaybandit.cli import main\n"
                "    status = main(sys.argv[1:])\n"
                "    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "    print(status, rss, flush=True)\n"
                "    os._exit(0)\n"
                "os.wait()\n")
        argv = ["experiment", "--instance", str(path), "--algos", "ghost,greedy,low,ucb",
                "-T", "2000000", "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        status, max_rss_kib = map(int, done.stdout.splitlines()[-1].split())
        assert status == 0 and len(list((tmp_path / "out").iterdir())) == 9
        assert max_rss_kib < 110 * 1024


# cell values whose text is easy to get wrong: signed zeros, NaNs of other bit patterns
# (all written "nan"), infinities, subnormals, and ints past 2**53
FLOAT_BITS = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                       2.2e-308, 0.1, 1.5, 2.0**53 + 2, -7.25], np.float64).view(np.int64)
FLOAT_BITS = np.append(FLOAT_BITS, 0x7FF8000000000001)      # a NaN with a payload
INTS = np.array([0, 1, -1, 7, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)], np.int64)
LENGTHS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 5]


@st.composite
def run_columns(draw, n):
    """A float64 or int64 column of n values laid out in runs, some longer than a chunk."""
    pool = draw(st.sampled_from([FLOAT_BITS, INTS]))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                   st.integers(1, 2 * CSV_CHUNK_ROWS)), min_size=1, max_size=8))
    idx, lengths = zip(*runs)
    column = np.resize(np.repeat(pool[list(idx)], lengths), n)
    return column.view(np.float64) if pool is FLOAT_BITS else column


@st.composite
def tables(draw):
    n = draw(st.sampled_from(LENGTHS))
    scalars = st.one_of(st.sampled_from(["low", "ucb"]), st.integers(-(2**70), 2**70),
                        st.floats(allow_nan=True, allow_infinity=True))
    columns = draw(st.lists(st.one_of(run_columns(n), scalars), min_size=1, max_size=6))
    return columns + [draw(run_columns(n))]


def write_both(directory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(str(directory / "chunked.csv"), header, columns)
    write_csv_by_row(str(directory / "by_row.csv"), header, columns)
    return (directory / "chunked.csv").read_bytes(), (directory / "by_row.csv").read_bytes()


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(columns=tables())
    def test_bytes_equal_the_row_by_row_writer(self, columns, tmp_path_factory):
        got, want = write_both(tmp_path_factory.mktemp("csv"), columns)
        assert got == want

    def test_signed_zeros_and_nans_keep_their_text(self, tmp_path):
        # bit-pattern runs: -0.0 is not merged into 0.0's run, NaNs of any pattern read "nan"
        column = np.repeat(FLOAT_BITS[[0, 1, 0, 2, 3, 12]].view(np.float64), CSV_CHUNK_ROWS // 2)
        got, want = write_both(tmp_path, [column, "low"])
        assert got == want
        assert got.split()[CSV_CHUNK_ROWS // 2 + 1] == b"-0.0,low"

    @pytest.mark.parametrize("rows", [20_000, 200_000])
    def test_memory_is_one_chunk_whatever_the_row_count(self, tmp_path, rows):
        # a fig3-cost --full-curves -T 20000 cell's columns, tiled to the row count
        inst = fig3_instance()
        run, _ = run_algorithm("ucb", inst, 20_000, 0.1, 0)
        c = regret_vs_ghost(run, inst, 1.0)
        reps = rows // len(c.t)
        columns = [np.arange(1, rows + 1), "ucb", 0] + [
            np.tile(x, reps) for x in (c.cum_expected, c.cum_realized, c.cum_switches, c.regret)]
        path = str(tmp_path / "cell.csv")
        _write_csv(path, CSV_HEADER, columns)   # warm-up: first-call caches are not the write's
        tracemalloc.start()
        try:
            _write_csv(path, CSV_HEADER, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCli:
    def write_fig3(self, tmp_path):
        path = tmp_path / "fig3.json"
        path.write_text(json.dumps(dump_instance(fig3_instance(), label="fig3")))
        return str(path)

    def test_ghost(self, tmp_path, capsys):
        assert main(["ghost", "--instance", self.write_fig3(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "r_star = 1" in out and "r_zero = 2" in out

    def test_oracle(self, tmp_path, capsys):
        assert main(["oracle", "--instance", self.write_fig3(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "optimal_average: 0.7933333333333333" in out

    def test_oracle_reports_reachable_states(self, tmp_path, capsys):
        assert main(["oracle", "--instance", self.write_fig3(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("cycle_length: ")
        assert lines[2] == "reachable_states: 5"

    def test_pmsp(self, capsys):
        assert main(["pmsp", "--intervals", "2,4,4", "--check-reduction"]) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "schedule: 1 2 1 3" in out
        assert "reduced_optimal_average: 1.0" in out
        assert main(["pmsp", "--intervals", "2,3,6"]) == 0
        assert "feasible: False" in capsys.readouterr().out

    def test_learn_and_rank(self, tmp_path, capsys):
        path = self.write_fig3(tmp_path)
        assert main(["learn", "--instance", path, "-T", "1500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "switches:" in out and "survivors:" in out
        assert main(["rank", "--instance", path, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "permutation: 0 1" in out

    def test_experiment(self, tmp_path, capsys):
        out_dir = str(tmp_path / "exp")
        rc = main(["experiment", "--preset", "fig3-cost", "-T", "800",
                   "--seeds", "0,1", "--out", out_dir])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "metadata.json"))

    @pytest.mark.parametrize("args, message", [
        (["--preset", "fig3-cost", "-T", "0"], "horizon must be >= 1"),
        (["--instance", "FIG3", "-T", "0"], "horizon must be >= 1"),
        (["--preset", "fig3-cost", "-T", "50", "--seeds", "1,0,1"], "seed 1 is repeated"),
        (["--instance", "FIG3", "--algos", "greedy,ghost,greedy", "-T", "50"],
         "algorithm 'greedy' is repeated"),
        (["--instance", "FIG3", "--switch-cost", "nan", "-T", "50"], "switch cost"),
        (["--instance", "FIG3", "--switch-cost", "inf", "-T", "50"], "switch cost"),
        (["--instance", "FIG3", "--algos", "ucb", "--delta", "7", "-T", "50"], "delta"),
        (["--instance", "FIG3", "--algos", "ghost", "--delta", "nan", "-T", "50"], "delta"),
        (["--preset", "fig3-cost", "--algos", "greedy", "-T", "50"],
         "--algos cannot be combined with --preset"),
        (["--preset", "fig3-cost", "--instance", "/nonexistent.json", "-T", "50"],
         "--instance cannot be combined with --preset"),
        (["-T", "50"], "either --preset or --instance is required"),
        (["--preset", "fig3-cost", "-T", "50", "--seeds", ""], "--seeds needs at least one seed"),
        (["--instance", "FIG3", "-T", "50", "--seeds", ""], "--seeds needs at least one seed"),
        (["--preset", "fig3-cost", "-T", "1"], "got T=1, k=2"),
        (["--instance", "FIG3", "--algos", "ucb,low", "-T", "1"], "got T=1, k=2"),
        (["--instance", "/nonexistent.json", "-T", "50"], "/nonexistent.json"),
        (["--instance", "FIG3", "--algos", "", "-T", "50"], "at least one algorithm"),
        (["--instance", "FIG3", "-T", "100", "--seeds", f"0,{2**64}"],
         f"seed must lie in [0, 2**64), got {2**64}"),
        (["--preset", "fig3-cost", "--switch-cost", "1e308", "-T", "50"],
         "switch cost 1e+308 can overflow the regret at T=50 over 10 seeds"),
    ])
    def test_bad_experiment_is_one_error_line(self, tmp_path, capsys, args, message):
        fig3 = self.write_fig3(tmp_path)
        out_dir = tmp_path / "exp"
        argv = ["experiment", *(fig3 if a == "FIG3" else a for a in args), "--out", str(out_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and message in err
        assert not out_dir.exists()

    def test_largest_accepted_switch_cost_runs_clean(self, tmp_path, capsys):
        # fig3-cost runs 10 seeds; at T = 50 the seeds' regret spread, squared and summed,
        # stays finite up to a cost near sqrt(max float / 10) / 50, about 8.5e151
        def accepted(cost):
            try:
                replace(preset_fig3(), horizon=50, switch_cost=cost)
            except ValueError:
                return False
            return True

        cost, rejected = 0.0, 1e308         # bisect down to two adjacent floats
        assert accepted(cost) and not accepted(rejected)
        while math.nextafter(cost, rejected) < rejected:
            mid = max(cost / 2 + rejected / 2, math.nextafter(cost, rejected))
            cost, rejected = (mid, rejected) if accepted(mid) else (cost, mid)
        assert cost > 1e151
        argv = ["experiment", "--preset", "fig3-cost", "-T", "50", "--switch-cost"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + [repr(cost), "--out", str(tmp_path / "ok")]) == 0
            assert main(argv + [repr(rejected), "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "can overflow the regret" in err
        assert not (tmp_path / "bad").exists()
        for path in (tmp_path / "ok").glob("*.csv"):
            assert b"inf" not in path.read_bytes() and b"nan" not in path.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["experiment", "--preset", "fig2", "-T", "11.5"],
        ["learn", "--instance", "DRAW0", "-T", "1e5"],
        ["pmsp"],
        ["experiment", "--preset", "nope"],
        ["oracle", "--instance", "DRAW0", "--cap", "1e6"],
        ["ghost", "--instance", "DRAW0", "--bogus"],
    ])
    def test_argparse_rejection_is_one_error_line(self, tmp_path, capsys, argv):
        # a bad option or value ends as a bad input does: no usage block, no SystemExit
        draw0 = self.write_fig2_draw0(tmp_path)
        assert main([draw0 if a == "DRAW0" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_closed_stdout_is_status_141_and_silent(self):
        # period 65,536: the schedule line outlasts the pipe buffer, so the reader's
        # close lands while the command is still writing
        intervals = ",".join(str(2**i) for i in range(1, 17)) + ",65536"
        src = str(Path(delaybandit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
                [sys.executable, "-m", "delaybandit.cli", "pmsp", "--cap", "100000",
                 "--intervals", intervals],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(100).startswith(b"feasible: True")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        assert "--preset" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_rank_rejects_pull_cap_below_one(self, tmp_path, capsys, cap):
        assert main(["rank", "--instance", self.write_fig3(tmp_path), "--pull-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "pull cap" in captured.err

    @pytest.mark.parametrize("command, seed", [(["rank"], -1), (["learn", "-T", "100"], 2**64)])
    def test_seed_outside_64_bits_is_one_error_line(self, tmp_path, capsys, command, seed):
        # masked to 64 bits, -1 would run as 2**64 - 1 and 2**64 as 0
        argv = [*command, "--instance", self.write_fig3(tmp_path), "--seed", str(seed)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    def write_fig2_draw0(self, tmp_path):
        # d = 4, 3, 3, 6, 4, 3, 4, so rank's default d0 is 7
        path = tmp_path / "fig2-draw0.json"
        path.write_text(json.dumps(dump_instance(materialize_instance(preset_fig2().instance, 0))))
        return str(path)

    @pytest.mark.parametrize("seed, pulls", [(0, 154238), (4, 190442)])
    def test_rank_sizes_its_buffer_once(self, tmp_path, capsys, monkeypatch, seed, pulls):
        # sized at twice a baseline run's 147,882 pulls, the buffer holds the pulls on fig2
        # draw 0 without growing, so its size does not hang on the seed (from 1,024 slots it
        # doubled 8 times; a quarter above the baseline, seed 4 grew it once)
        grown, reserve = [], Environment._reserve

        def counted(env, upto):
            have = len(env._u)
            reserve(env, upto)
            grown.append(len(env._u) > have)

        monkeypatch.setattr(Environment, "_reserve", counted)
        assert main(["rank", "--instance", self.write_fig2_draw0(tmp_path),
                     "--seed", str(seed)]) == 0
        assert f"pulls: {pulls}" in capsys.readouterr().out.splitlines()
        assert grown and not any(grown)

    @pytest.mark.parametrize("delays, args", [
        (None, ["--d0", "100000", "--pull-cap", "100"]),
        (None, ["--d0", "1000000000000"]),
        ([10**12, 1], []),
    ])
    def test_rank_rejects_d0_not_below_pull_cap(self, tmp_path, capsys, delays, args):
        # a round pulls at least d0 + 1 times: on fig2 draw 0 the first made 700,007 pulls
        # under a cap of 100 and the second ran until killed; the third takes the default
        # d0 = max d + 1 from an instance file, far above the default cap of 10**7
        path = self.write_fig2_draw0(tmp_path)
        if delays:
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"mu": [0.9, 0.5], "d": delays,
                                        "discount": {"kind": "constant", "c": 0.5}}))
        assert main(["rank", "--instance", str(path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: d0 must be below the pull cap")

    def test_rank_runs_with_d0_just_under_pull_cap(self, tmp_path, capsys):
        # one serialized round: each of the 7 arms after 99 fillers, then the cap stops it
        argv = ["rank", "--instance", self.write_fig2_draw0(tmp_path), "--d0", "99",
                "--pull-cap", "100"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == ["rounds: 1", "pulls: 700", "complete: False"]

    @pytest.mark.parametrize("command, horizon", [
        (["experiment", "--algos", "ghost"], 10**18), (["learn"], 10**18),
        (["experiment", "--algos", "ghost"], 2**64), (["learn"], 2**64),
    ], ids=["command0", "command1", "command0-2**64", "command1-2**64"])
    def test_unallocatable_horizon_is_one_error_line(self, tmp_path, capsys, command, horizon):
        # 10**18 pulls exceed the address space, so the first buffer fails to allocate;
        # 2**64 fits no int64, so the horizon rule rejects it before any array is made
        argv = [*command, "--instance", self.write_fig3(tmp_path), "-T", str(horizon)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

    def test_delay_past_int32_runs_as_a_delay_past_the_horizon(self, tmp_path, capsys):
        # a tau never exceeds the clock, so d = 3e9 pulls as d = 101 does at T = 100
        written = {}
        for d in (3_000_000_000, 101):
            path = tmp_path / f"d{d}.json"
            path.write_text(json.dumps({"k": 2, "mu": [1, 0.5], "d": [2, d],
                                        "discount": {"kind": "constant", "c": 0.5}}))
            assert main(["learn", "--instance", str(path), "-T", "100"]) == 0
            out = tmp_path / f"out{d}"
            assert main(["experiment", "--instance", str(path), "--algos", "greedy,ghost,low,ucb",
                         "-T", "100", "--out", str(out)]) == 0
            written[d] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert len(written[101]) == 8 and written[3_000_000_000] == written[101]

    def test_failed_first_cell_leaves_no_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        argv = ["experiment", "--instance", self.write_fig3(tmp_path), "--algos", "ghost",
                "-T", str(10**18), "--out", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_oracle_rejects_cap_below_one(self, tmp_path, capsys, cap):
        assert main(["oracle", "--instance", self.write_fig3(tmp_path), "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap must be >= 1\n"

    @pytest.mark.parametrize("delays", [[10**19], [2, 10**19], [2, 3 * 10**9]])
    def test_oversized_delays_end_the_oracle_at_once(self, tmp_path, capsys, delays):
        # one arm reaches two states whatever its delay; with more, 1 + sum(d_i) states
        # are reachable, so the cap is known to be exceeded before the graph is built
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"mu": [1, 0.5][:len(delays)], "d": delays,
                                    "discount": {"kind": "constant", "c": 0.5}}))
        start = time.perf_counter()
        code = main(["oracle", "--instance", str(path)])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        if len(delays) == 1:
            assert code == 0 and "reachable_states: 2\n" in captured.out
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == ("error: more than 1000000 reachable states; "
                                    "raise the cap to go on\n")

    def test_invalid_instance_fails(self, tmp_path):
        assert main(["ghost", "--instance", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("field, doc", [
        ("mu", {"d": [1], "discount": {"kind": "constant", "c": 0.5}}),
        ("d", {"mu": [0.9], "discount": {"kind": "constant", "c": 0.5}}),
        ("discount", {"mu": [0.9], "d": [1]}),
        ("gamma", {"mu": [0.9], "d": [1], "discount": {"kind": "geometric"}}),
        ("c", {"mu": [0.9], "d": [1], "discount": {"kind": "constant"}}),
        ("values", {"mu": [0.9], "d": [1], "discount": {"kind": "table"}}),
    ])
    def test_missing_field_is_one_error_line(self, tmp_path, capsys, field, doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["ghost", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert repr(field) in err

    @pytest.mark.parametrize("field, doc", [
        ("mu", {"mu": [None], "d": [1], "discount": {"kind": "constant", "c": 0.5}}),
        ("mu", {"mu": [True], "d": [1], "discount": {"kind": "constant", "c": 0.5}}),
        ("d", {"mu": [0.9], "d": [None], "discount": {"kind": "constant", "c": 0.5}}),
        ("d", {"mu": [0.9], "d": 5, "discount": {"kind": "constant", "c": 0.5}}),
        ("c", {"mu": [0.9], "d": [1], "discount": {"kind": "constant", "c": [0.5]}}),
        ("mu", {"mu": ["1/0"], "d": [1], "discount": {"kind": "constant", "c": 0.5}}),
        ("d", {"mu": [0.9], "d": ["1/0"], "discount": {"kind": "constant", "c": 0.5}}),
        ("gamma", {"mu": [0.9], "d": [1], "discount": {"kind": "geometric", "gamma": "1/0"}}),
        ("c", {"mu": [0.9], "d": [1], "discount": {"kind": "constant", "c": "1/0"}}),
        ("values", {"mu": [0.9], "d": [1], "discount": {"kind": "table", "values": ["1/0"]}}),
        ("mu", {"mu": ["abc"], "d": [1], "discount": {"kind": "constant", "c": 0.5}}),
    ])
    def test_non_numeric_field_is_one_error_line(self, tmp_path, capsys, field, doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert repr(field) in err

    def test_fractional_delay_rejected(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"mu": [0.9, 0.5], "d": [2, 1.5],
                                    "discount": {"kind": "constant", "c": 0.5}}))
        assert main(["ghost", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1.5" in err

    def test_infinite_delay_rejected(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"mu": [0.9, 0.5], "d": [2, float("inf")],
                                    "discount": {"kind": "constant", "c": 0.5}}))
        assert main(["oracle", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "inf" in err

    def test_invalid_intervals_fail(self):
        assert main(["pmsp", "--intervals", "1,2"]) == 2

    def test_rejected_reduction_prints_no_results(self, capsys):
        assert main(["pmsp", "--intervals", "1", "--check-reduction"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: reduction needs every interval >= 2")


def test_every_name_the_benchmark_patches_exists():
    # perfbench/tracer.py wraps each name in its patch table where the caller looks it up; a
    # change to src/ that drops one breaks every traced benchmark run. The check runs as the
    # benchmark does: from the repository root, importing delaybandit from the checkout's src/
    code = ("import sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import bootstrap\n"
            "bootstrap.use_checkout_src()\n"
            "import tracer\n"
            "missing = [f'{getattr(owner, \"__name__\", owner)}.{attr}'\n"
            "           for owner, attr, _ in tracer.patch_table() if attr not in owner.__dict__]\n"
            "sys.exit(f'not found: {missing}' if missing else 0)\n")
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
