from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
    PmspInstance,
    advance_state,
    alternation_value,
    build_state_graph,
    expected_payoff,
    g_value,
    greedy_arm,
    initial_state,
    long_run_average,
    make_instance,
    max_mean_cycle,
    optimal_average,
    oracle,
    pmsp_feasible,
    pmsp_threshold,
    pmsp_to_bandit,
    steady_state_average,
)
from helpers import (
    brute_force_max_mean,
    make_equal_optima,
    random_exact_instance,
    random_float_instance,
    verify_maintenance_schedule,
)


def fig3_instance():
    return make_instance([F(1), F(13, 15)], [2, 2], Discount.table([F(3, 10), F(1, 4)]))


class TestStateGraph:
    def test_single_arm_two_states(self):
        inst = make_instance([F(1, 2)], [1], Discount.constant(F(1, 2)))
        g = build_state_graph(inst)
        assert g.n_nodes == 2
        assert all(len(row) == 1 for row in g.succ)

    def test_two_arm_counts(self):
        inst = make_instance([F(1), F(1, 2)], [1, 1], Discount.constant(F(1, 2)))
        g = build_state_graph(inst)
        assert g.n_nodes == 3
        assert sum(len(row) for row in g.succ) == 6

    def test_product_counts(self):
        inst = make_instance([F(3, 4), F(1, 2), F(1, 4)], [2, 2, 2], Discount.constant(F(1, 2)))
        g = build_state_graph(inst)
        assert g.n_nodes == 10
        assert sum(len(row) for row in g.succ) == 30

    def test_nodes_are_the_closure_of_the_start(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            inst = random_exact_instance(rng, kmax=4, dmax=4)
            closure, frontier = {initial_state(inst)}, [initial_state(inst)]
            while frontier:
                state = frontier.pop()
                for arm in range(inst.k):
                    nxt = advance_state(state, arm, inst)
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            g = build_state_graph(inst)
            assert set(g.nodes) == closure and g.n_nodes == len(closure)
            assert g.nodes[g.start] == initial_state(inst)
            for u, state in enumerate(g.nodes):
                assert g.index[state] == u
                for arm, (v, w) in enumerate(g.succ[u]):
                    assert g.nodes[v] == advance_state(state, arm, inst)
                    assert w == expected_payoff(inst, arm, state[arm])

    def test_cap(self):
        inst = make_instance([F(3, 4), F(1, 2)], [3, 3], Discount.constant(F(1, 2)))
        assert build_state_graph(inst, cap=7).n_nodes == 7
        with pytest.raises(ValueError):
            build_state_graph(inst, cap=6)

    def test_cap_bounds_the_payoff_table(self, monkeypatch):
        # one arm, huge delay: two reachable states, and no payoff past tau = cap is computed
        taus = []
        payoff = oracle.expected_payoff
        monkeypatch.setattr(oracle, "expected_payoff",
                            lambda inst, arm, tau: taus.append(tau) or payoff(inst, arm, tau))
        inst = make_instance([F(1, 2)], [10**5], Discount.constant(F(1, 2)))
        g = build_state_graph(inst, cap=10)
        assert g.nodes == [(0,), (1,)]
        assert g.succ == [[(1, F(1, 2))], [(1, F(1, 4))]]
        assert max(taus) <= 10

    def test_capped_table_builds_the_same_graph(self):
        rng = np.random.default_rng(22)
        for i in range(60):
            inst = (random_exact_instance if i % 2 else random_float_instance)(rng, kmax=4, dmax=9)
            full = build_state_graph(inst)
            tight = build_state_graph(inst, cap=full.n_nodes)
            assert tight.nodes == full.nodes and tight.succ == full.succ


class TestMaxMeanCycle:
    def test_forced_self_loop(self):
        # single arm, full discount: after the first pull everything pays zero
        inst = make_instance([F(4, 5)], [1], Discount.constant(1))
        rho, cycle = optimal_average(inst)
        assert rho == 0
        assert len(cycle) >= 1

    def test_two_state_alternation(self):
        inst = make_instance([F(1), F(2, 5)], [1, 1], Discount.constant(F(1, 2)))
        rho, cycle = optimal_average(inst)
        assert rho == F(7, 10)
        assert sorted(cycle.arms) == [0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            inst = random_exact_instance(rng, kmax=3, dmax=2)  # <= 27 states
            rho, cycle = optimal_average(inst)
            assert rho == brute_force_max_mean(inst)
            # witness sanity: mean is the arithmetic mean of its own edges
            graph = build_state_graph(inst)
            total = 0
            for state, arm in zip(cycle.states, cycle.arms):
                total += graph.succ[graph.index[state]][arm][1]
            assert F(total, len(cycle)) == rho
            assert len(cycle) <= graph.n_nodes

    def test_float_path_matches_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            inst = random_exact_instance(rng, kmax=3, dmax=3)
            g = build_state_graph(inst)
            exact = max_mean_cycle(g)
            g.exact = False
            approx = max_mean_cycle(g)
            assert approx.mean == pytest.approx(exact.mean, abs=1e-12)

    def test_float_cycles_of_one_mean_still_compare_biases(self):
        # two policy cycles of this instance have means one bit apart in floats; the
        # search stopped there at 0.630 while cutoff 3 alone earns g(3) = 0.696
        inst = random_float_instance(np.random.default_rng(19281), kmax=5)
        exact = make_instance([F(m) for m in inst.mus], inst.ds,
                              Discount.table([F(v) for v in inst.discount.values]))
        rho, _ = optimal_average(inst)
        assert rho == pytest.approx(float(optimal_average(exact)[0]), abs=1e-12)
        assert rho >= max(g_value(inst, m) for m in range(1, inst.k + 1))

    def test_dominates_every_ranking_policy(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_exact_instance(rng, kmax=3, dmax=3)
            rho, _ = optimal_average(inst)
            for m in range(1, inst.k + 1):
                assert rho >= g_value(inst, m)

    def test_fig3_beats_alternation(self):
        rho, _ = optimal_average(fig3_instance())
        assert rho >= F(139, 180) - F(1, 10**12)


class TestSteadyStateAverage:
    def test_ranking_pattern_recovers_g(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            inst = random_exact_instance(rng, kmax=4)
            m = int(rng.integers(1, inst.k + 1))
            assert steady_state_average(inst, range(m)) == g_value(inst, m)

    def test_greedy_long_run_section3(self):
        inst = make_instance([F(1), F(2, 5)], [1, 1], Discount.constant(F(1, 2)))
        assert long_run_average(inst, lambda s: greedy_arm(inst, s)) == F(1, 2)


class TestAlternation:
    def test_degenerate_equals_g(self):
        inst = fig3_instance()
        assert alternation_value(inst, 1, 1) == g_value(inst, 1)
        assert alternation_value(inst, 2, 2) == g_value(inst, 2)

    def test_fig3_value(self):
        assert alternation_value(fig3_instance(), 1, 2) == F(139, 180)

    def test_closed_form(self):
        # steady switching: top-m arms seen at delays n and m, the rest at m+n
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_exact_instance(rng, kmax=4)
            if inst.k < 2:
                continue
            m = int(rng.integers(1, inst.k))
            n = int(rng.integers(m + 1, inst.k + 1))
            closed = (
                sum(expected_payoff(inst, j, n) + expected_payoff(inst, j, m) for j in range(m))
                + sum(expected_payoff(inst, j, m + n) for j in range(m, n))
            ) / F(m + n)
            assert alternation_value(inst, m, n) == closed

    def test_equal_optima_gain(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            inst, m, n = make_equal_optima(rng)
            g = g_value(inst, m)
            assert alternation_value(inst, m, n) >= g

    def test_validation(self):
        with pytest.raises(ValueError):
            alternation_value(fig3_instance(), 2, 1)
        with pytest.raises(ValueError):
            alternation_value(fig3_instance(), 1, 3)


class TestPmsp:
    def test_instance_validation(self):
        with pytest.raises(ValueError):
            PmspInstance((1, 2))  # 1/1 + 1/2 > 1
        with pytest.raises(ValueError):
            PmspInstance(())
        PmspInstance((2, 2))  # sum exactly 1 is allowed

    def test_reduction_mapping(self):
        inst = pmsp_to_bandit(PmspInstance((2, 4, 4)))
        assert inst.mus == (1, 1, 1, 0)
        assert inst.ds == (1, 3, 3, 1)
        assert inst.discount(1) == 1 and inst.discount(9) == 1

    def test_reduction_single_machine(self):
        inst = pmsp_to_bandit(PmspInstance((2,)))
        assert inst.mus == (1, 0)
        assert inst.ds == (1, 1)

    def test_reduction_rejects_unit_interval(self):
        with pytest.raises(ValueError):
            pmsp_to_bandit(PmspInstance((1,)))

    def test_feasible_example(self):
        verdict = pmsp_feasible(PmspInstance((2, 4, 4)))
        assert verdict.feasible
        assert verdict.slots == (1, 2, 1, 3)
        assert verify_maintenance_schedule((2, 4, 4), verdict.slots)

    def test_infeasible_example(self):
        assert not pmsp_feasible(PmspInstance((2, 3, 6))).feasible

    def test_single_machine(self):
        verdict = pmsp_feasible(PmspInstance((3,)))
        assert verdict.feasible
        assert verify_maintenance_schedule((3,), verdict.slots)

    def test_cap(self):
        with pytest.raises(ValueError):
            pmsp_feasible(PmspInstance((101, 103)), cap=100)

    def test_threshold(self):
        assert pmsp_threshold(PmspInstance((2, 4, 4))) == 1
        assert pmsp_threshold(PmspInstance((2, 3, 6))) == 1
        assert pmsp_threshold(PmspInstance((3, 3))) == F(2, 3)

    def test_reduction_soundness_small(self):
        # feasibility of the scheduling instance <=> the reduced bandit
        # achieves the threshold exactly (checked exhaustively, exact arithmetic)
        import itertools
        import math

        checked = 0
        for n in (1, 2, 3):
            for ivs in itertools.combinations_with_replacement(range(2, 7), n):
                if sum(F(1, v) for v in ivs) > 1 or math.lcm(*ivs) > 60:
                    continue
                pmsp = PmspInstance(ivs)
                feasible = pmsp_feasible(pmsp).feasible
                rho, _ = optimal_average(pmsp_to_bandit(pmsp))
                meets = rho >= pmsp_threshold(pmsp)
                assert feasible == meets, (ivs, feasible, rho)
                checked += 1
        assert checked > 20
