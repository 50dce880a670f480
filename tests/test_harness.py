import csv
import filecmp
import hashlib
import json
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
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


def fig3_instance():
    return make_instance([F(1), F(13, 15)], [2, 2], Discount.table([F(3, 10), F(1, 4)]))


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
        from delaybandit.harness import run_algorithm

        trace, _ = run_algorithm("ghost", inst, 500, 0.1, 0)
        curve = regret_vs_ghost(trace, inst, 0.0)
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
        from delaybandit.harness import run_algorithm

        trace, _ = run_algorithm("ghost", inst, 10, 0.1, 0)
        with pytest.raises(ValueError):
            regret_vs_ghost(trace, inst, 0.0, ghost_cum=np.zeros(5))


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
        for (algo, seed), curve in res.curves.items():
            assert curve.cum_expected[-1] <= cfg.horizon * 1.0 + 1e-9

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
        # one cell's full-length arrays and one seed's reference are alive at a time
        cfg = replace(preset_fig3(), algorithms=("ghost", "greedy"), horizon=50_000)

        def peak(seeds):
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, seeds=seeds))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((0,))   # warm-up: first-call caches are not part of a run's cost
        assert peak(tuple(range(8))) - peak((0,)) < 2 * 2**20


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
    ])
    def test_bad_experiment_is_one_error_line(self, tmp_path, capsys, args, message):
        fig3 = self.write_fig3(tmp_path)
        out_dir = tmp_path / "exp"
        argv = ["experiment", *(fig3 if a == "FIG3" else a for a in args), "--out", str(out_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and message in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("command", [["experiment", "--algos", "ghost"], ["learn"]])
    def test_unallocatable_horizon_is_one_error_line(self, tmp_path, capsys, command):
        # 10**18 pulls exceed the address space, so the first buffer fails to allocate
        argv = [*command, "--instance", self.write_fig3(tmp_path), "-T", str(10**18)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

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

    # sha256 of every CSV the two runs below write; any change to a cell's text shows here
    GOLDEN_CSV = {
        "fig3/low_agg.csv": "5fb58866bef1175c95db79956616c82b8267a930a0c59e6ff1f40ef0800ec6d0",
        "fig3/low_seed0.csv": "63d00cb72105baea3d0e3e285d592346b44491d14894c78e0e01a3c782861c6b",
        "fig3/low_seed1.csv": "8e4b92435a18f253af2f0f1fb779b3e3617db78da7029d510e244dd87ecd12ba",
        "fig3/ucb_agg.csv": "c982343674ed9423a2a84f795ec70bb9b6c3a5a17ce62e1c1d87c9df41449dea",
        "fig3/ucb_seed0.csv": "05bbea9b1915e0e11c265c4883ef47d5702eee504de3b38f53d156148b2d8025",
        "fig3/ucb_seed1.csv": "841530f7d6907c015770e8c4d5360621b76135c29ec27964bb4f27e552ed5ff5",
        "fig2/ghost_agg.csv": "73d6bd6e33ebe89ae675083313e6bd8f6344e4536f70c48bd0e550468c8594cd",
        "fig2/ghost_seed0.csv": "7fe1fe168490b2ab5b3c679af423518144007dc860634bb88ab6760026d3589c",
        "fig2/greedy_agg.csv": "e46219bb40dfb893f0a73659018b1768f29d50e5badd3355b9d9383e4b0c7dab",
        "fig2/greedy_seed0.csv": "a8648a40c533aeb905c09892975fecbcfd7c19fd2e32a0f39c1f9c72b6a8d8fd",
        "fig2/low_agg.csv": "45e0ee9285293e7341dd4b20dbdd12745cf84ea7efcf0f2be73aaf88a0de6cb0",
        "fig2/low_seed0.csv": "155483d7327fbfff7a0b5fdc0ac745da039f054ba6dfa33a78f60df4686c4fb1",
        "fig2/ucb_agg.csv": "1c9ed5d7bf1897f81bf04459a7178d1df824826033d3e2fa99889d564dff32e5",
        "fig2/ucb_seed0.csv": "72113ff27fc2a91ca563b508aec8a6513c4cce05d4532f4ee5a6ca1efe0791cf",
    }

    # sha256 of each run's metadata.json without its "versions" key, re-dumped with sorted keys
    GOLDEN_METADATA = {
        "fig3": "76fea431f20504bcc6889161d3520e1922aee8d5f08d7ed1cb7c282b8900195e",
        "fig2": "36feeea400c38d56d9e910fc6257787bb1b83529e73655bf5bd2b108e8723ec1",
    }

    def test_csv_bytes_are_pinned(self, tmp_path, capsys):
        draw = tmp_path / "fig2-draw1.json"
        draw.write_text(json.dumps(dump_instance(materialize_instance(preset_fig2().instance, 1))))
        runs = {
            "fig3": ["--preset", "fig3-cost", "-T", "300", "--seeds", "0,1", "--full-curves"],
            "fig2": ["--instance", str(draw), "--algos", "greedy,ghost,low,ucb", "-T", "300"],
        }
        got = {}
        metadata = {}
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["experiment", *args, "--out", str(out)]) == 0
            for path in sorted(out.glob("*.csv")):
                got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            meta = json.loads((out / "metadata.json").read_text())
            del meta["versions"]
            metadata[name] = hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()
        assert got == self.GOLDEN_CSV
        assert metadata == self.GOLDEN_METADATA

    # (fig2 draw, argv) -> (exit code, sha256 of stdout); draws 0 and 1 share rank's
    # output because every kept sample is taken past every delay (d0 = 7 on both)
    GOLDEN_STDOUT = {
        (0, ("rank",)): (0, "e3cca16d2a43220da59f50687be0223ff7efa878eba0ff6e0357c7fc2c239c2a"),
        (0, ("rank", "--d0", "9")):
            (0, "f31fabaa56706c5cd678295b2dba0025acd03db1d8f6bc835671b750dd218644"),
        (0, ("rank", "--pull-cap", "5000")):
            (1, "5a2de3633f8c0f538229084336108dc03d0726bc9aec60b86ac3b118c6ce3e18"),
        (1, ("rank",)): (0, "e3cca16d2a43220da59f50687be0223ff7efa878eba0ff6e0357c7fc2c239c2a"),
        (0, ("learn", "-T", "5000")):
            (0, "7634b8b82d26606a4cb0c08caba01956b55f7b02007aaad3c3e57b7c8c119a28"),
    }

    def test_rank_and_learn_stdout_is_pinned(self, tmp_path, capsys):
        got = {}
        for seed, args in self.GOLDEN_STDOUT:
            draw = tmp_path / f"fig2-draw{seed}.json"
            draw.write_text(
                json.dumps(dump_instance(materialize_instance(preset_fig2().instance, seed))))
            code = main([*args, "--instance", str(draw)])
            got[seed, args] = (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert got == self.GOLDEN_STDOUT
