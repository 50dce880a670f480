"""Property tests: batching never changes a trace; the ghost reference is the ghost run."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybandit import Environment, ghost_reference, load_instance, preset_fig2, substream
from delaybandit.harness import run_algorithm
from helpers import random_exact_instance, random_float_instance

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
