"""Property tests: batching never changes a trace; the ghost reference is the ghost run;
the oracle's optimum bounds every ranking and alternation value and matches cycle
enumeration; the low-switch schedule covers T in O(ln ln T) stages."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaybandit import (
    Discount,
    Environment,
    alternation_value,
    build_state_graph,
    ghost_reference,
    ghost_summary,
    load_instance,
    make_instance,
    optimal_average,
    preset_fig2,
    stage_schedule,
    substream,
)
from delaybandit.harness import run_algorithm
from delaybandit.oracle import _certify, _evaluate_policy
from helpers import brute_force_max_mean, random_exact_instance, random_float_instance

SLACK = 64  # pull_cycles runs blocks of at most len(prefix) + SLACK pulls one by one

FIG2 = preset_fig2().instance
fig2_delays = st.lists(st.integers(1, 6), min_size=7, max_size=7)


def fig2_instance(ds):
    return load_instance(dict(FIG2, d=ds))


@st.composite
def blocks(draw, k):
    """(prefix, n, retain_from) with a distinct prefix and n up to three vector-sized blocks."""
    prefix = tuple(draw(st.permutations(range(k)))[:draw(st.integers(1, k))])
    n = draw(st.integers(0, 3 * (len(prefix) + SLACK)))
    return prefix, n, draw(st.integers(0, n + 1))


@settings(max_examples=60, deadline=None)
@given(ds=fig2_delays, block_list=st.lists(blocks(7), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_batching_never_changes_a_trace(ds, block_list, seed):
    inst = fig2_instance(ds)
    batched = Environment(inst, substream(seed, "env"))
    stepped = Environment(inst, substream(seed, "env"))
    for policy, (prefix, n, retain_from) in enumerate(block_list):
        got = batched.pull_cycles(prefix, n, policy=policy, retain_from=retain_from)
        total, count = 0, 0
        for i in range(n):
            retained = i >= retain_from
            sample = stepped.pull(prefix[i % len(prefix)], policy=policy, retained=retained)
            total += sample.realized if retained else 0
            count += retained
        assert got == (float(total), count)
    a, b = batched.columns(), stepped.columns()
    for key in a:
        assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key


def _assert_ghost_reference_is_ghost_run(inst, T):
    trace, _ = run_algorithm("ghost", inst, T, 0.1, 0)
    ref = ghost_reference(inst, T)
    assert ref.tobytes() == np.cumsum(trace.expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(ds=fig2_delays, T=st.integers(0, 600))
def test_ghost_reference_matches_ghost_run_on_fig2_draws(ds, T):
    _assert_ghost_reference_is_ghost_run(fig2_instance(ds), T)


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), exact=st.booleans(), T=st.integers(0, 400))
def test_ghost_reference_matches_ghost_run(instance_seed, exact, T):
    rng = np.random.default_rng(instance_seed)
    inst = random_exact_instance(rng, kmax=5, dmax=4) if exact else random_float_instance(rng, kmax=5)
    _assert_ghost_reference_is_ghost_run(inst, T)


def _assert_optimum_bounds_ranking_and_alternation(inst, tol):
    rho, _ = optimal_average(inst)
    assert max(ghost_summary(inst).g_values) <= rho + tol
    for m in range(1, inst.k + 1):
        for n in range(m, inst.k + 1):
            assert alternation_value(inst, m, n) <= rho + tol


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), exact=st.booleans())
def test_optimum_bounds_every_ranking_and_alternation_value(instance_seed, exact):
    rng = np.random.default_rng(instance_seed)
    if exact:
        _assert_optimum_bounds_ranking_and_alternation(random_exact_instance(rng, kmax=5, dmax=4), 0)
    else:
        _assert_optimum_bounds_ranking_and_alternation(random_float_instance(rng, kmax=5), 1e-12)


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), constant=st.none() | st.integers(0, 10))
def test_optimum_equals_cycle_enumeration(instance_seed, constant):
    # a constant discount gives many cycles of equal mean
    inst = random_exact_instance(np.random.default_rng(instance_seed), kmax=3, dmax=3)
    assume(sum(inst.ds) < 9)  # d = (3, 3, 3) alone takes seconds to enumerate
    if constant is not None:
        inst = make_instance(inst.mus, inst.ds, Discount.constant(F(constant, 10)))
    rho, cycle = optimal_average(inst)
    assert rho == brute_force_max_mean(inst) == cycle.mean_exact


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_certificate_rejects_a_suboptimal_policy(instance_seed, data):
    inst = random_exact_instance(np.random.default_rng(instance_seed), kmax=4, dmax=3)
    graph = build_state_graph(inst)
    nxt = np.array([[v for v, _ in row] for row in graph.succ])
    wts = np.array([[F(w) for _, w in row] for row in graph.succ], object)
    policy = np.array(data.draw(st.lists(st.integers(0, inst.k - 1), min_size=graph.n_nodes,
                                         max_size=graph.n_nodes)))
    eta, h = _evaluate_policy(nxt, wts, policy, [F(0)] * graph.n_nodes)
    rho, _ = optimal_average(inst)
    assume(eta[graph.start] < rho)
    with pytest.raises(RuntimeError):
        _certify(nxt, wts, eta, h)


def test_seven_arms_at_delay_five_solve_under_the_default_cap():
    doc = dict(FIG2, mu=[float(F(m)) for m in FIG2["mu"]], d=[5] * 7,
               discount={"kind": "geometric", "gamma": 0.999})
    inst = load_instance(doc)
    assert build_state_graph(inst).n_nodes == 7316
    _assert_optimum_bounds_ranking_and_alternation(inst, 1e-12)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 20), data=st.data())
def test_stage_schedule_covers_T_in_doubly_logarithmic_stages(k, data):
    T = data.draw(st.integers(k, 10**15))
    schedule = stage_schedule(k, T, 0.1)
    assert sum(k + ts for ts in schedule.sizes) >= T
    assert schedule.num_stages <= math.ceil(math.log2(max(2, math.log2(T)))) + 1
