import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
    GreedyPolicy,
    RankingPolicy,
    expected_payoff,
    g_value,
    ghost_summary,
    greedy_arm,
    make_instance,
    orbit,
    rollout,
    substream,
)
from helpers import assert_same_columns, fig3_instance, random_exact_instance, step_rollout


def section3_example(eps=F(1, 10)):
    return make_instance([F(1), F(1, 2) - eps], [1, 1], Discount.constant(F(1, 2)))


class TestRankingArm:
    def test_policy_with_order(self):
        state = (0, 0, 0, 0)
        assert RankingPolicy(3)(state) == (0, 1, 2)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            RankingPolicy(0)


class TestGreedyArm:
    def test_all_zero_state_picks_best(self):
        inst = fig3_instance()
        assert greedy_arm(inst, (0, 0)) == 0

    def test_sticks_to_discounted_best(self):
        # best arm keeps winning even while discounted
        inst = section3_example()
        assert greedy_arm(inst, (1, 0)) == 0  # 0.5 > 0.4

    def test_tie_breaks_low(self):
        inst = make_instance([F(1), F(1, 2)], [1, 1], Discount.constant(F(1, 2)))
        assert greedy_arm(inst, (1, 0)) == 0  # exact tie at 1/2


class TestGValue:
    def test_fig3_equal_values(self):
        inst = fig3_instance()
        assert g_value(inst, 1) == F(7, 10)
        assert g_value(inst, 2) == F(7, 10)

    def test_full_cycle_beyond_delays(self):
        inst = make_instance([F(9, 10), F(1, 2), F(1, 10)], [2, 2, 1], Discount.constant(F(1, 2)))
        assert g_value(inst, 3) == (F(9, 10) + F(1, 2) + F(1, 10)) / 3

    def test_known_three_arm_profile(self):
        # direct evaluation; the g curve is increasing here
        inst = make_instance([F(1), F(2, 3), F(1, 2)], [2, 2, 2], Discount.geometric(F(1, 2)))
        assert g_value(inst, 1) == F(1, 2)
        assert g_value(inst, 2) == F(5, 8)
        assert g_value(inst, 3) == F(13, 18)

    def test_range_check(self):
        inst = fig3_instance()
        with pytest.raises(ValueError):
            g_value(inst, 0)
        with pytest.raises(ValueError):
            g_value(inst, 3)


class TestOrbit:
    def test_ranking_first_and_steady_cycle(self):
        prefix, cycle = orbit(fig3_instance(), lambda state: range(2))
        assert prefix == [1, F(13, 15)]          # baselines from the all-zero state
        assert cycle == [F(3, 4), F(13, 20)]     # every gap is 2 from then on
        assert sum(cycle) / len(cycle) == g_value(fig3_instance(), 2)

    def test_stationary_policy(self):
        inst = section3_example()
        prefix, cycle = orbit(inst, lambda state: (greedy_arm(inst, state),))
        assert prefix == [1] and cycle == [F(1, 2)]

    def test_limit_stops_at_a_block_boundary(self):
        # blocks of two: play stops at the first boundary at or past the limit, no cycle
        inst = make_instance([0.9, 0.6], [2, 3], Discount.geometric(0.7))
        assert orbit(inst, lambda state: (0, 1), arms=True, limit=3) == ([0, 1, 0, 1], [])
        assert orbit(inst, lambda state: (0, 1), arms=True, limit=5) == ([0, 1], [0, 1])

    def test_float_instance(self):
        inst = make_instance([0.9, 0.6], [2, 3], Discount.geometric(0.7))
        prefix, cycle = orbit(inst, lambda state: (0, 1))
        assert prefix == [0.9, 0.6]
        assert cycle == [(1 - 0.7**2) * 0.9, (1 - 0.7**2) * 0.6]


class TestGhostSummary:
    def test_single_arm(self):
        inst = make_instance([F(1, 2)], [1], Discount.constant(F(1, 2)))
        gs = ghost_summary(inst)
        assert gs.r_star == 1 and gs.r_zero == 1

    def test_section3_r_zero(self):
        gs = ghost_summary(section3_example())
        assert gs.r_zero == 1  # 0.4 <= mu_1(1) = 0.5

    def test_no_discount_collapses_r_zero(self):
        inst = make_instance([F(9, 10), F(1, 2)], [2, 2], Discount.constant(0))
        gs = ghost_summary(inst)
        assert gs.r_zero == 1 and gs.r_star == 1

    def test_fig3(self):
        gs = ghost_summary(fig3_instance())
        assert gs.r_star == 1  # lowest-index tie break on g(1) = g(2)
        assert gs.r_zero == 2

    def test_best_value(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_exact_instance(rng, kmax=4)
            gs = ghost_summary(inst)
            best = gs.g_values[gs.r_star - 1]
            assert all(best >= g for g in gs.g_values)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            inst = random_exact_instance(rng, kmax=4)
            lam = F(int(rng.integers(1, 10)), 10)
            scaled = make_instance([lam * m for m in inst.mus], inst.ds, inst.discount)
            assert ghost_summary(scaled).r_star == ghost_summary(inst).r_star
            state = tuple(int(rng.integers(0, d + 1)) for d in inst.ds)
            assert greedy_arm(scaled, state) == greedy_arm(inst, state)


class TestRollout:
    def test_zero_horizon(self):
        trace = rollout(fig3_instance(), RankingPolicy(1), 0, substream(0, "r"))
        assert len(trace) == 0

    def test_non_integer_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="horizon T must be an integer, got 11.5"):
            rollout(fig3_instance(), RankingPolicy(1), 11.5, substream(0, "r"))

    def test_deterministic(self):
        inst = fig3_instance()
        t1 = rollout(inst, RankingPolicy(2), 500, substream(5, "r"))
        t2 = rollout(inst, RankingPolicy(2), 500, substream(5, "r"))
        assert np.array_equal(t1.realized, t2.realized)
        assert np.array_equal(t1.expected, t2.expected)

    def test_greedy_section3_cumulative(self):
        # greedy locks onto the top arm: 1 followed by (T-1) halves
        inst = section3_example()
        T = 101
        trace = rollout(inst, GreedyPolicy(inst), T, substream(0, "r"))
        assert trace.cum_expected[-1] == pytest.approx(1 + (T - 1) / 2, abs=1e-9)

    def test_ranking_closed_form(self):
        # first cycle undiscounted, then steady cycles at g(r)
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_exact_instance(rng, kmax=4)
            gs = ghost_summary(inst)
            r = gs.r_star
            c = 6
            trace = rollout(inst, RankingPolicy(r), c * r, substream(1, "r"))
            first = sum(expected_payoff(inst, j, 0) for j in range(r))
            expect = first + (c - 1) * r * g_value(inst, r)
            assert trace.cum_expected[-1] == pytest.approx(float(expect), abs=1e-9)

    def test_switch_series(self):
        inst = fig3_instance()
        trace = rollout(inst, RankingPolicy(1), 10, substream(0, "r"), policy_id=1)
        assert trace.total_switches == 0
        assert trace.cum_switches[-1] == 0

    def test_cost_stops_at_the_horizon(self):
        # greedy alternates arms 1 and 2 for 10^6 rounds before its state repeats; 1,000
        # pulls walk 1,000 states of that orbit, not all of them
        inst = make_instance([1, 0.5, 0.49], [1_000_000, 1, 1], Discount.constant(0.9))
        tracemalloc.start()
        try:
            trace = rollout(inst, GreedyPolicy(inst), 1000, substream(0, "r"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = step_rollout(inst, lambda s: greedy_arm(inst, s), 1000, substream(0, "r"))
        assert_same_columns(vars(trace), vars(want))
        assert peak < 5 * 2**20
