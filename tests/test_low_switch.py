import math
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
    Environment,
    g_value,
    load_instance,
    make_instance,
    plays_per_policy,
    preset_fig2,
    run_pi_low,
    stage_schedule,
)
from helpers import fig3_instance, random_exact_instance


class TestStageSchedule:
    def test_reference_values(self):
        s = stage_schedule(3, 10**4, 0.1)
        assert s.sizes == (100, 1000, 3163, 5624, 7499)
        assert s.num_stages == 5
        assert s.radii[0] == pytest.approx(math.sqrt(0.015 * math.log(300)), abs=1e-12)

    def test_minimal_horizon_single_stage(self):
        s = stage_schedule(4, 4, 0.5)
        assert s.num_stages == 1

    def test_sizes_increase(self):
        s = stage_schedule(5, 10**6, 0.05)
        assert all(a < b for a, b in zip(s.sizes, s.sizes[1:]))
        assert s.sizes[0] == math.isqrt(10**6)

    def test_stopping_rule(self):
        for k, T in ((2, 50), (3, 10**4), (7, 200_000)):
            s = stage_schedule(k, T, 0.1)
            total = sum(k + ts for ts in s.sizes)
            assert total >= T
            assert sum(k + ts for ts in s.sizes[:-1]) < T

    def test_sizes_are_exact_ceilings(self):
        # T_s = ceil(T^(1 - 2^-s)) at horizons where a float power of T is one too low
        assert stage_schedule(7, 12_753, 0.1).sizes == (113, 1201, 3913, 7064, 9492)
        assert stage_schedule(7, 900_000_001, 0.1).sizes[0] == 30_001
        assert stage_schedule(3, 10**4, 0.1) == stage_schedule(3, 1e4, 0.1)

    def test_degenerate_params(self):
        with pytest.raises(ValueError):
            stage_schedule(3, 2, 0.1)
        with pytest.raises(ValueError):
            stage_schedule(3, 2.5, 0.1)
        for T in (1000.5, F(20001, 2)):
            with pytest.raises(ValueError, match="integer"):
                stage_schedule(3, T, 0.1)
        with pytest.raises(ValueError):
            stage_schedule(0, 5, 0.1)
        with pytest.raises(ValueError):
            stage_schedule(2, 10, 1.5)


class TestPlaysPerPolicy:
    def test_examples(self):
        assert plays_per_policy(100, 2, 5) == 11
        assert plays_per_policy(1, 1, 1) == 2
        assert plays_per_policy(7, 3, 2) == 3

    def test_positive_args(self):
        with pytest.raises(ValueError):
            plays_per_policy(0, 1, 1)


class TestRunPiLow:
    def test_single_arm(self):
        inst = make_instance([F(3, 4)], [1], Discount.constant(F(1, 2)))
        run = run_pi_low(inst, 500, 0.1, seed=0)
        assert len(run.trace) == 500
        assert run.total_switches == 0
        assert run.survivors == (1,)
        assert all(rec.eliminated == () for rec in run.stages)

    def test_budget_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst = random_exact_instance(rng, kmax=4)
            T = int(rng.integers(inst.k, 3000))
            run = run_pi_low(inst, T, 0.1, seed=1)
            assert len(run.trace) == T

    def test_switch_bound_and_monotone_sets(self):
        rng = np.random.default_rng(32)
        for trial in range(15):
            inst = random_exact_instance(rng, kmax=5)
            run = run_pi_low(inst, 4000, 0.1, seed=trial)
            assert run.total_switches <= inst.k * run.schedule.num_stages
            actives = [set(rec.active) for rec in run.stages]
            for a, b in zip(actives, actives[1:]):
                assert b <= a

    def test_fig3_keeps_both_optimal_policies(self):
        inst = fig3_instance()
        both = 0
        for seed in range(20):
            run = run_pi_low(inst, 10**5, 0.1, seed=seed)
            both += run.survivors == (1, 2)
        assert both >= 18

    def test_gap_elimination_stage(self):
        # g = (0.8, 0.5): the suboptimal policy must fall at the first stage
        # whose radius satisfies 4 C_s < 0.3, with failure prob at most delta
        inst = make_instance([F(1), F(1, 4)], [2, 2], Discount.constant(F(1, 5)))
        assert (float(g_value(inst, 1)), float(g_value(inst, 2))) == (0.8, 0.5)
        sched = stage_schedule(2, 10**5, 0.1)
        s_star = next(s for s in range(1, sched.num_stages + 1)
                      if 4 * sched.radii[s - 1] < 0.3)
        on_time = 0
        keeps_best = 0
        for seed in range(50):
            run = run_pi_low(inst, 10**5, 0.1, seed=seed)
            elim = next((rec.stage for rec in run.stages if 2 in rec.eliminated), None)
            on_time += elim is not None and elim <= s_star
            keeps_best += 1 in run.survivors
        assert on_time >= 45
        assert keeps_best >= 45

    def test_zero_variance_survivor_sets(self):
        # deterministic 0/1 payoffs: estimates equal the true g exactly, so the
        # surviving set after stage s is exactly {m : g(m) >= max g - 2 C_s}
        inst = make_instance([1, 1, 1, 0], [1, 3, 3, 1], Discount.constant(1), relaxed=True)
        gs = [g_value(inst, m) for m in (1, 2, 3, 4)]
        gmax = max(gs)
        run = run_pi_low(inst, 10**4, 0.1, seed=3)
        for rec in run.stages:
            if rec.truncated:
                continue
            cs = run.schedule.radii[rec.stage - 1]
            expected = tuple(m for m in rec.active if float(gs[m - 1]) >= float(gmax) - 2 * cs)
            survived = tuple(m for m in rec.active if m not in rec.eliminated)
            assert survived == expected
            for m in rec.active:
                assert rec.estimates[m] == pytest.approx(float(gs[m - 1]), abs=1e-12)

    def test_calibration_realigns_delays(self):
        # every retained pull of the cutoff-m policy happens exactly m rounds
        # after that arm's previous pull: the discarded play realigned it
        run = run_pi_low(fig3_instance(), 5000, 0.1, seed=1)
        tr = run.trace
        mask = tr.retained
        assert mask.sum() > 0
        assert np.array_equal(tr.gaps[mask], tr.policy[mask])

    def test_no_log_walk_for_pulls_their_block_fixes(self, monkeypatch):
        # every retained pull sits at gap m inside its own cutoff-m block, so no block of the
        # run reads the log before it (fig2 draw 0 runs 17 blocks)
        inst = load_instance(dict(preset_fig2().instance, d=[4, 3, 3, 6, 4, 3, 4]))
        walks = []
        last_pulls = Environment._last_pulls

        def counted(env, since=0):
            walks.append(since)
            return last_pulls(env, since)

        monkeypatch.setattr(Environment, "_last_pulls", counted)
        run = run_pi_low(inst, 200000, 0.1, seed=0)
        assert len(run.trace) == 200000
        assert walks == []

    def test_exploitation_tail(self):
        # the four scheduled stages finish two pulls short of T = 9,061: the
        # leftover replays the last stage's best cutoff and is never retained
        inst = make_instance([1, 0], [1, 1], Discount.constant(0), relaxed=True)
        run = run_pi_low(inst, 9061, 0.1, seed=0)
        assert len(run.trace) == 9061
        assert run.tail_pulls == 2
        assert [rec.truncated for rec in run.stages] == [False] * 4
        assert run.stages[0].eliminated == (2,) and run.stages[-1].best == 1
        tail = slice(-run.tail_pulls, None)
        assert (run.trace.policy[tail] == 1).all() and (run.trace.arms[tail] == 0).all()
        assert not run.trace.retained[tail].any()
