import math
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
    make_instance,
    materialize_instance,
    preset_fig2,
    run_pi_low,
    run_ucb_rankings,
    ucb_index,
)


def fig3_instance():
    return make_instance([F(1), F(13, 15)], [2, 2], Discount.table([F(3, 10), F(1, 4)]))


class TestUcbIndex:
    def test_reference_value(self):
        # at n = e^2 selections the bonus for a once-played policy is exactly 2
        assert ucb_index(0.5, 1, math.e**2) == pytest.approx(2.5, abs=1e-12)
        assert ucb_index(0.5, 1, 100) == 0.5 + math.sqrt(2 * math.log(100))

    def test_unplayed_is_infinite(self):
        assert ucb_index(0.0, 0, 10) == math.inf

    def test_bonus_vanishes(self):
        n = 10**9
        assert ucb_index(0.0, n, n) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ucb_index(0.5, 1, 0)


class TestRunUcb:
    def test_single_policy(self):
        inst = make_instance([F(3, 4)], [1], Discount.constant(F(1, 2)))
        run = run_ucb_rankings(inst, 400, seed=0)
        assert len(run.trace) == 400
        assert run.total_switches == 0
        assert run.selections == 200

    def test_rollout_pair_structure(self):
        # every selection is 2m pulls of the cutoff cycle; only a truncated
        # final pair may break the pattern
        inst = fig3_instance()
        run = run_ucb_rankings(inst, 1001, seed=1)
        pol = run.trace.policy
        t = 0
        while t < len(pol):
            m = int(pol[t])
            block = min(2 * m, len(pol) - t)
            assert (pol[t:t + block] == m).all()
            expect_arms = np.array([i % m for i in range(block)])
            assert np.array_equal(run.trace.arms[t:t + block], expect_arms)
            t += block

    def test_estimates_use_only_second_rollouts(self):
        # retained pulls sit on the steady cycle: gap equals the cutoff
        inst = fig3_instance()
        run = run_ucb_rankings(inst, 2000, seed=2)
        tr = run.trace
        mask = tr.retained
        assert mask.sum() > 0
        assert np.array_equal(tr.gaps[mask], tr.policy[mask])

    def test_zero_variance_log_selection_bound(self):
        # deterministic per-pull payoffs: g = (0, 1/2); the suboptimal policy
        # is selected only O(log n) times (classical UCB1 count, slack 2x)
        inst = make_instance([1, 0], [1, 1], Discount.constant(1), relaxed=True)
        run = run_ucb_rankings(inst, 10**4, seed=3)
        n1 = run.selection_counts[1]
        gap = 0.5
        bound = 2 * (8 * math.log(run.selections) / gap**2) + 8
        assert 1 <= n1 <= bound
        assert run.means[1] == 0.0
        assert run.means[2] == 0.5

    def test_switches_exceed_low_switch_learner_on_tied_instance(self):
        inst = fig3_instance()
        ucb = run_ucb_rankings(inst, 50_000, seed=4)
        low = run_pi_low(inst, 50_000, 0.1, seed=4)
        assert ucb.total_switches > low.total_switches

    def test_deterministic(self):
        inst = fig3_instance()
        a = run_ucb_rankings(inst, 3000, seed=5)
        b = run_ucb_rankings(inst, 3000, seed=5)
        assert np.array_equal(a.trace.realized, b.trace.realized)
        assert a.selection_counts == b.selection_counts

    def test_warm_up_plays_every_cutoff_once_in_order(self):
        # unplayed cutoffs all index +inf; the strict tie rule takes the lowest first
        inst = materialize_instance(preset_fig2().instance, 2)
        run = run_ucb_rankings(inst, 1000, seed=6)
        starts = [c * (c - 1) for c in range(1, inst.k + 1)]   # selection c follows 2(1 + ... + c-1) pulls
        assert [int(run.trace.policy[t]) for t in starts] == list(range(1, inst.k + 1))
