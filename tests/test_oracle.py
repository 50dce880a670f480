import inspect
import itertools
import math
import random
import sys
import time
import tracemalloc
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
    substream,
)
from delaybandit.harness import load_instance, materialize_instance, preset_fig2
from helpers import (
    _certify_by_fractions,
    brute_force_max_mean,
    build_state_graph_by_queue,
    evaluate_policy_by_fractions,
    fig3_instance,
    make_equal_optima,
    max_mean_cycle_by_fractions,
    pmsp_feasible_by_gcd,
    random_exact_instance,
    random_float_instance,
    verify_maintenance_schedule,
)


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
            index = {state: u for u, state in enumerate(g.nodes)}
            assert len(index) == g.n_nodes  # no state appears twice
            for u, state in enumerate(g.nodes):
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

    def test_codes_past_int64_fall_back_to_python_ints(self):
        # prod(d_i + 1) = 2^65, but only 66 states are reachable; in wrapping int64 the last
        # arm's place value 2^64 would be 0, and its state would read as the start
        inst = make_instance([1 - F(i, 66) for i in range(65)], [1] * 65,
                             Discount.constant(F(1, 2)))
        assert math.prod(d + 1 for d in inst.ds) >= 2**63
        graph, want = build_state_graph(inst, cap=66), build_state_graph_by_queue(inst)
        assert graph.n_nodes == 66      # 1 + sum(d_i): the early cap check's bound is met
        assert graph.nodes == want.nodes and graph.succ == want.succ
        _same_cycle(optimal_average(inst)[1], max_mean_cycle_by_fractions(want))

    def test_build_memory_on_the_seven_machine_reduction(self):
        # a queue over state tuples with a dict index and (v, w) rows peaks at 26.9 MiB
        inst = pmsp_to_bandit(PmspInstance((7,) * 7))
        tracemalloc.start()
        try:
            graph = build_state_graph(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n_nodes == 37634
        assert peak <= 20 * 2**20

    def test_solve_memory_on_the_seven_machine_reduction(self):
        # a second pass over every edge, checking the conditions the exact leg's tol-0 stop
        # has just checked, peaked at 30.2 MiB on its object temporaries
        graph = build_state_graph(pmsp_to_bandit(PmspInstance((7,) * 7)))
        tracemalloc.start()
        try:
            cycle = max_mean_cycle(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cycle.mean == 1
        assert peak <= 20 * 2**20


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
            index = {state: u for u, state in enumerate(graph.nodes)}
            total = 0
            for state, arm in zip(cycle.states, cycle.arms):
                total += graph.succ[index[state]][arm][1]
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
                              Discount.table([F(v) for v in inst.discount.param]))
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


def _same_cycle(got, want):
    assert type(got.mean) is type(want.mean)
    assert (got.mean, got.states, got.arms, got.reachable_states) == \
        (want.mean, want.states, want.arms, want.reachable_states)


def _tied_instances(seed, count):
    """Exact instances on a grid of quarters with constant or table discounts: ties are common."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 5))
        mus = sorted((F(int(v), 8) for v in rng.choice(np.arange(1, 9), k, replace=False)),
                     reverse=True)
        ds = rng.integers(1, 5, k).tolist()
        if i % 2:
            disc = Discount.constant(F(int(rng.integers(0, 5)), 4))
        else:
            vals = sorted((F(int(v), 4) for v in rng.integers(0, 5, 3)), reverse=True)
            disc = Discount.table(vals)
        yield make_instance(mus, ds, disc)


class TestExactLeg:
    """The exact leg runs on ints over one common denominator; the parent's Fraction
    leg (`helpers.max_mean_cycle_by_fractions`) is the reference."""

    def test_fig2_draws_equal_the_fraction_leg(self):
        for draw in range(5):
            graph = build_state_graph(materialize_instance(preset_fig2().instance, draw))
            _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))

    def test_oracle_benchmark_instances_equal_the_fraction_leg(self):
        # the oracle benchmark's two exact delay sets, permuted as its seeds 0-2 permute them
        spec = preset_fig2().instance
        for seed in range(3):
            for j, ds in enumerate([(1, 2, 3, 3, 4), (2, 3, 3, 3, 4)]):
                ds = substream(seed, "perfbench", f"exact{j}").permutation(list(ds)).tolist()
                inst = load_instance({"k": 5, "mu": spec["mu"][:5], "d": ds,
                                      "discount": spec["discount"]})
                graph = build_state_graph(inst)
                _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))

    def test_pmsp_reductions_equal_the_fraction_leg(self):
        for ivs in [(2, 4, 4), (2, 4, 8, 8), (2, 3, 12), (6,) * 6]:
            graph = build_state_graph(pmsp_to_bandit(PmspInstance(ivs)))
            _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))

    def test_tied_instances_equal_the_fraction_leg(self):
        for inst in _tied_instances(27, 300):
            graph = build_state_graph(inst)
            _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))

    def test_float_graphs_equal_the_float_leg_bit_for_bit(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            graph = build_state_graph(random_float_instance(rng, kmax=4, dmax=4))
            _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))
        spec = preset_fig2().instance
        doc = dict(spec, mu=[float(F(m)) for m in spec["mu"]], d=[1, 3, 2, 4, 1, 2, 3],
                   discount={"kind": "geometric", "gamma": 0.999})
        graph = build_state_graph(load_instance(doc))
        _same_cycle(max_mean_cycle(graph), max_mean_cycle_by_fractions(graph))

    def test_poor_start_matches_the_fraction_evaluation_round_by_round(self):
        # arm 0 everywhere: several rounds, and the scale grows once biases are kept; every
        # integer gain and bias is the Fraction leg's times D and the scale, round by round
        rescaled = 0
        for draw in (0, 2, 4):
            graph = build_state_graph(materialize_instance(preset_fig2().instance, draw))
            n, nxt = graph.n_nodes, graph.nxt
            fracs = np.array([[F(w) for _, w in row] for row in graph.succ], object)
            _, ints, denom = oracle._weight_tables(graph)
            policy = np.zeros(n, np.int64)
            h, h_ref, scale, rounds = [0] * n, [F(0)] * n, 1, 0
            while True:
                eta, h, grown = oracle._evaluate_policy(nxt, ints, policy, h, scale)
                eta_ref, h_ref = evaluate_policy_by_fractions(nxt, fracs, policy, h_ref)
                assert [F(e, denom * grown) for e in eta] == eta_ref.tolist()
                assert [F(b, denom * grown) for b in h] == h_ref.tolist()
                rescaled += rounds > 0 and grown != scale
                scale, rounds = grown, rounds + 1
                if not oracle._improve_policy(nxt, ints * scale, policy, eta, h, 0):
                    break
            _certify_by_fractions(nxt, fracs, eta_ref, h_ref)
            assert F(eta[graph.start], denom * scale) == max_mean_cycle_by_fractions(graph).mean
            assert rounds >= 3
        assert rescaled > 0

    def test_exact_leg_makes_no_fraction_per_edge(self, monkeypatch):
        # each distinct payoff is converted once: the parent made a Fraction per edge and
        # ran Howard and the certificate on Fractions, hundreds of thousands in all here
        graph = build_state_graph(pmsp_to_bandit(PmspInstance((7,) * 7)))
        assert graph.n_nodes == 37634
        made = []
        new = F.__new__

        def counted_new(cls, *args, **kwargs):
            made.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted_new)
        if hasattr(F, "_from_coprime_ints"):  # arithmetic results skip __new__ from Python 3.12
            coprime = F._from_coprime_ints
            monkeypatch.setattr(F, "_from_coprime_ints",
                                classmethod(lambda cls, n, d: made.append(1) or coprime(n, d)))
        cycle = max_mean_cycle(graph)
        monkeypatch.undo()
        assert cycle.mean == 1
        assert len(made) < graph.n_nodes // 100


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

    def test_non_integer_interval_rejected(self):
        # truncating (2.5, 4) to (2, 4) would answer for a different, feasible instance
        for intervals in [(2.5, 4), (4, 4, 2.5), (True,)]:
            with pytest.raises(ValueError, match="positive integers"):
                PmspInstance(intervals)
        assert PmspInstance((2, 4.0)).intervals == (2, 4)

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

    def test_many_machines_need_no_recursion(self):
        # the offset search is a loop: 120 machines fit under a stack of 60 frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            verdict = pmsp_feasible(PmspInstance((120,) * 120))
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.feasible and verdict.offsets == tuple(range(120))

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

    @staticmethod
    def _equivalence_instances():
        """The soundness grid above, (l,) * l for l = 2..60, and 2,000 seeded draws."""
        for n in (1, 2, 3):
            for ivs in itertools.combinations_with_replacement(range(2, 7), n):
                if sum(F(1, v) for v in ivs) <= 1 and math.lcm(*ivs) <= 60:
                    yield ivs
        for li in range(2, 61):
            yield (li,) * li
        rng, pool = random.Random(0), (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24)
        for _ in range(2000):
            ivs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            if sum(F(1, v) for v in ivs) <= 1 and math.lcm(*ivs) <= 10**4:
                yield ivs
        # repeated intervals given in shuffled order: the search starts each machine of an
        # interval past the previous one's offset
        for _ in range(600):
            ivs = [rng.choice(pool) for _ in range(rng.randint(1, 3))] * rng.randint(2, 4)
            rng.shuffle(ivs)
            if sum(F(1, v) for v in ivs) <= 1 and math.lcm(*ivs) <= 10**4:
                yield tuple(ivs)

    def test_occupancy_search_equals_gcd_search(self):
        # the occupancy table decides each offset as the pairwise gcd rule does, so the
        # search visits the same offsets; every witness is checked independently
        checked = feasible = 0
        for ivs in self._equivalence_instances():
            pmsp = PmspInstance(ivs)
            verdict = pmsp_feasible(pmsp)
            assert verdict == pmsp_feasible_by_gcd(pmsp), ivs
            if verdict.feasible:
                assert verify_maintenance_schedule(ivs, verdict.slots), ivs
                feasible += 1
            checked += 1
        assert checked > 1000 and 0 < feasible < checked

    def test_interchangeable_machines_are_not_reordered(self):
        # infeasible: the search tried every order of the four 24s and of the two 10s, 4 s
        t0 = time.monotonic()
        verdict = pmsp_feasible(PmspInstance((24, 10, 42, 24, 35, 10, 24, 24)))
        assert time.monotonic() - t0 < 1
        assert not verdict.feasible and verdict.period == 840

    def test_many_machines_of_one_interval_are_fast(self):
        # 1,100 machines of interval 1,100: the pairwise gcd search made O(n^3) checks here
        t0 = time.monotonic()
        verdict = pmsp_feasible(PmspInstance((1100,) * 1100))
        assert time.monotonic() - t0 < 5
        assert verdict.feasible and verdict.offsets == tuple(range(1100))
