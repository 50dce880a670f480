"""Property tests: batching never changes a trace; the derived pull log equals a per-pull
loop; the greedy rollout's block path, the block calibrated rounds, and the neighbour
separation test and chunked rounds in `rank_arms` match their one-at-a-time references; the
ghost reference is the ghost run; running sums and switch counts read a window at a time
equal whole-array sums of the per-pull log; the oracle's layered state graph equals a breadth-first
queue's; the oracle's optimum bounds every ranking and alternation value and matches cycle
enumeration; the low-switch schedule covers T in O(ln ln T) stages."""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaybandit import (
    Discount,
    Environment,
    GreedyPolicy,
    PmspInstance,
    RankingPolicy,
    alternation_value,
    build_state_graph,
    calibrated_sample_round,
    calibrated_sampler,
    ghost_reference,
    ghost_summary,
    greedy_arm,
    iid_bernoulli_sampler,
    load_instance,
    make_instance,
    optimal_average,
    orbit,
    pmsp_to_bandit,
    preset_fig2,
    rank_arms,
    rollout,
    stage_schedule,
    substream,
)
from delaybandit import core
from delaybandit.core import _SCALAR_SLACK, _WINDOW_PULLS
from delaybandit.harness import run_algorithm
from delaybandit.policies import Run, running_totals
from delaybandit.oracle import _certify, _evaluate_policy, _weight_tables
from helpers import (assert_same_columns, bernoulli_rounds, brute_force_max_mean,
                     build_state_graph_by_queue, by_round, log_blocks_by_block,
                     random_exact_instance, random_float_instance, rank_arms_by_round,
                     rank_arms_by_scan, step_columns, step_rollout)

FIG2 = preset_fig2().instance
fig2_delays = st.lists(st.integers(1, 6), min_size=7, max_size=7)


def fig2_instance(ds):
    return load_instance(dict(FIG2, d=ds))


@st.composite
def blocks(draw, k):
    """(prefix, n, retain_from): a distinct prefix or one with repeated arms, and n up to
    three vector-sized blocks."""
    distinct = st.permutations(range(k)).flatmap(
        lambda arms: st.integers(1, k).map(lambda m: tuple(arms[:m])))
    repeated = st.lists(st.integers(0, k - 1), min_size=2, max_size=2 * k).map(tuple)
    prefix = draw(distinct | repeated)
    n = draw(st.integers(0, 3 * (len(prefix) + _SCALAR_SLACK)))
    return prefix, n, draw(st.integers(0, n + 1))


@settings(max_examples=60, deadline=None)
@given(ds=fig2_delays, block_list=st.lists(blocks(7), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_batching_never_changes_a_trace(ds, block_list, seed):
    inst = fig2_instance(ds)
    env = Environment(inst, substream(seed, "env"))
    block_list = [(prefix, n, policy, rf) for policy, (prefix, n, rf) in enumerate(block_list)]
    returns = [env.pull_cycles(*block) for block in block_list]
    want = step_columns(inst, block_list, substream(seed, "env").random(env.t))
    start = 0
    for (_, n, _, rf), got in zip(block_list, returns):
        kept = slice(start + min(rf, n), start + n)
        assert got == (float(want["realized"][kept].sum()), n - min(rf, n))
        start += n
    assert_same_columns(env.columns(), want)


@settings(max_examples=100, deadline=None)
@given(ds=fig2_delays, pool=st.lists(blocks(7), min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20)), min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_logging_blocks_equals_pulling_them(ds, pool, picks, seed):
    # a few prefixes, each reused at sizes that cut it short or run past it; the same log,
    # clock and last pulls, so a further pull reads the same gaps
    inst = fig2_instance(ds)
    pulled, logged = (Environment(inst, substream(seed, "env")) for _ in range(2))
    block_list = [(pool[i % len(pool)][0], n, i, pool[i % len(pool)][2]) for i, n in picks]
    for block in block_list:
        pulled.pull_cycles(*block)
    logged.log_blocks(block_list)
    assert_same_columns(logged.columns(), pulled.columns())
    assert (logged.t, logged._last_pulls()) == (pulled.t, pulled._last_pulls())
    assert logged.pull_cycles(tuple(range(7)), 7) == pulled.pull_cycles(tuple(range(7)), 7)


@settings(max_examples=100, deadline=None)
@given(ds=fig2_delays, pool=st.lists(blocks(7), min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20)), max_size=8),
       repeat=st.integers(1, 3), seed=st.integers(0, 2**16), back=st.integers(0, 30))
def test_last_pulls_are_read_off_the_log(ds, pool, picks, repeat, seed, back):
    # blocks cut short of their prefix, tails that stop mid-cycle and repeated lists: each
    # arm's last pull is its last index in the arms column, None if it was never pulled,
    # and with `since` also None if that index is before it
    env = Environment(fig2_instance(ds), substream(seed, "env"))
    env.log_blocks([(pool[i % len(pool)][0], n, i, 0) for i, n in picks], repeat=repeat)
    arms = env.columns()["arms"].tolist()
    want = [len(arms) - 1 - arms[::-1].index(a) if a in arms else None for a in range(7)]
    assert env._last_pulls() == want
    since = env.t - back
    assert env._last_pulls(since) == [t if t is not None and t >= since else None for t in want]


@st.composite
def logged_blocks(draw, k):
    """(prefix, n, policy, retain_from) blocks for `log_blocks`: prefixes from a small pool,
    one in twenty a bad one (empty or an arm out of range); n from -2 to 80; retain_from
    from below 0 to above n."""
    out = []
    pool = [(0,), (1, 2), (3, 3, 1), tuple(range(k))]
    for _ in range(draw(st.integers(0, 12))):
        bad = draw(st.integers(0, 19)) == 0
        prefix = draw(st.sampled_from([(), (k,), (0, -1)] if bad else pool))
        n = draw(st.integers(-2, 80))
        out.append((prefix, n, draw(st.integers(-1, k)), draw(st.integers(-3, max(n, 0) + 3))))
    return out


@settings(max_examples=150, deadline=None)
@given(block_list=logged_blocks(7), before=st.integers(0, 20), repeat=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_lean_logging_equals_logging_block_by_block(block_list, before, repeat, seed):
    # from a capacity of 16 the buffer grows mid-list; the same rows, prefix numbers, clock,
    # buffer and exception as the block-by-block reference, a bad prefix at any position
    inst = fig2_instance([4, 3, 3, 6, 4, 3, 4])
    lean, ref = (Environment(inst, substream(seed, "log"), capacity=16) for _ in range(2))
    for env in (lean, ref):
        env.pull_cycles((4,), before)
    raised = []
    for log in (lean.log_blocks, lambda blocks, repeat: log_blocks_by_block(ref, blocks, repeat)):
        try:
            log(block_list, repeat=repeat)
            raised.append(None)
        except (ValueError, IndexError) as exc:
            raised.append(type(exc))
    assert raised[0] == raised[1]
    assert lean._blocks == ref._blocks and lean._cycle_ids == ref._cycle_ids
    assert (lean.t, len(lean._u)) == (ref.t, len(ref._u))
    assert np.array_equal(lean._u, ref._u)


@st.composite
def block_mixes(draw, k):
    """(prefix, n, policy, retain_from) blocks: distinct or repeated arms, single pulls,
    scalar- and vector-sized runs, sometimes one long enough to pass 8,192 pulls; retain_from
    at 0, n, n + 1 or in between."""
    out = []
    for prefix, n, _ in draw(st.lists(blocks(k), min_size=1, max_size=6)):
        n = draw(st.sampled_from([n, 1, n + 8192]) if draw(st.booleans()) else st.just(n))
        rf = draw(st.sampled_from([0, n, n + 1]) | st.integers(0, n + 1))
        out.append((prefix, n, draw(st.integers(-1, 7)), rf))
    return out


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["fig2", "exact", "float"]),
       seed=st.integers(0, 2**16), data=st.data())
def test_derived_columns_equal_per_pull_log(instance_seed, kind, seed, data):
    rng = np.random.default_rng(instance_seed)
    if kind == "fig2":
        inst = fig2_instance([int(v) for v in rng.integers(1, 7, size=7)])
    elif kind == "exact":
        inst = random_exact_instance(rng, kmax=5, dmax=4)
    else:
        inst = random_float_instance(rng, kmax=5)
    block_list = data.draw(block_mixes(inst.k))
    env = Environment(inst, substream(seed, "env"))
    returns = [env.pull_cycles(*block) for block in block_list]
    total = sum(n for _, n, _, _ in block_list)
    want = step_columns(inst, block_list, substream(seed, "env").random(total))
    assert_same_columns(env.columns(), want)
    start = 0
    for (_, n, _, rf), ret in zip(block_list, returns):
        kept = slice(start + min(rf, n), start + n)
        assert ret == (float(want["realized"][kept].sum()), n - min(rf, n))
        start += n


def _greedy_horizon(inst):
    """A horizon long enough for the greedy rollout's tiled second block."""
    head, cycle = orbit(inst, GreedyPolicy(inst), arms=True)
    return len(head) + 3 * (len(cycle) + _SCALAR_SLACK)


def _greedy_rollout_equals_step_loop(inst, T, seed):
    fast = rollout(inst, GreedyPolicy(inst), T, substream(seed, "env"), policy_id=2).trace
    loop = step_rollout(inst, lambda s: greedy_arm(inst, s), T, substream(seed, "env"), policy_id=2)
    assert_same_columns(vars(fast), vars(loop))
    return fast


def _assert_greedy_blocks_equal_step_loop(inst, data):
    T = data.draw(st.integers(0, _greedy_horizon(inst)))
    _greedy_rollout_equals_step_loop(inst, T, data.draw(st.integers(0, 2**16)))


@settings(max_examples=40, deadline=None)
@given(ds=fig2_delays, data=st.data())
def test_greedy_blocks_equal_step_loop_on_fig2_draws(ds, data):
    _assert_greedy_blocks_equal_step_loop(fig2_instance(ds), data)


def test_greedy_blocks_equal_step_loop_inside_delay_windows():
    # on the derandomized fig2 draws greedy never replays an arm within its delay; at d = 6
    # for every arm it does, so discounted payoffs reach the comparison
    inst = fig2_instance((6,) * 7)
    T = _greedy_horizon(inst)
    assert T == 294
    taus = _greedy_rollout_equals_step_loop(inst, T, 0).taus
    assert np.count_nonzero(taus) > 0 and taus.max() == 6


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), exact=st.booleans(), data=st.data())
def test_greedy_blocks_equal_step_loop(instance_seed, exact, data):
    rng = np.random.default_rng(instance_seed)
    inst = random_exact_instance(rng, kmax=5, dmax=4) if exact else random_float_instance(rng, kmax=5)
    _assert_greedy_blocks_equal_step_loop(inst, data)


def _calibrated_round_by_pulls(k, active, d0):
    """Per-pull reference for `calibrated_sample_round`: the round's pulls as (arm, kept),
    with one kept pull per active arm."""
    removed = [a for a in range(k) if a not in active]
    pulls = []
    groups = [active[i:i + d0] for i in range(0, len(active), d0)]
    for gi, group in enumerate(groups):
        pool = removed + [a for g in groups[:gi] for a in g]
        if len(group) < d0 and not pool:
            for x in active:
                others = [a for a in range(k) if a != x]
                pulls += [(others[j % len(others)], False) for j in range(d0)] + [(x, True)]
            return pulls
        cycle = group + [pool[j % len(pool)] for j in range(d0 - len(group))]
        pulls += [(arm, False) for arm in cycle]
        pulls += [(arm, slot < len(group)) for slot, arm in enumerate(cycle)]
    return pulls


@settings(max_examples=80, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_calibrated_rounds_equal_per_pull_rounds(instance_seed, data):
    rng = np.random.default_rng(instance_seed)
    inst = random_exact_instance(rng, kmax=7, dmax=4) if rng.random() < 0.5 else \
        random_float_instance(rng, kmax=7, dmax=4)
    assume(inst.k >= 2)
    d0 = max(inst.ds) + data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**16))
    env = Environment(inst, substream(seed, "rank"))
    arm_sets = st.permutations(range(inst.k)).flatmap(
        lambda arms: st.integers(1, inst.k).map(lambda m: list(arms[:m])))
    pulls = []
    for active in data.draw(st.lists(arm_sets, min_size=1, max_size=4)):
        got = calibrated_sample_round(env, active, d0)
        t0 = len(pulls)
        pulls += _calibrated_round_by_pulls(inst.k, active, d0)
        want = step_columns(inst, [((arm,), 1, -1, 0 if kept else 1) for arm, kept in pulls],
                            substream(seed, "rank").random(len(pulls)))
        samples = {arm: float(want["realized"][t])
                   for t, (arm, kept) in enumerate(pulls[t0:], t0) if kept}
        assert got == (samples, len(pulls) - t0)
        assert list(got[0]) == active
    assert_same_columns(env.columns(), want)


def _bernoulli_stream(mus, seed):
    return bernoulli_rounds(mus, np.random.default_rng(seed))


tie_heavy_means = st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=2, max_size=7)


@settings(max_examples=150, deadline=None)
@given(mus=tie_heavy_means, delta=st.sampled_from([0.1, 0.5, 0.99]), seed=st.integers(0, 2**16))
def test_neighbour_separation_matches_full_scan(mus, delta, seed):
    # 0/1 samples and equal baselines tie empirical means all the time
    k = len(mus)
    got = rank_arms(by_round(_bernoulli_stream(mus, seed)), k, delta, pull_cap=400 * k)
    assert got == rank_arms_by_scan(_bernoulli_stream(mus, seed), k, delta, pull_cap=400 * k)


@settings(max_examples=150, deadline=None)
@given(mus=tie_heavy_means, delta=st.sampled_from([0.1, 0.5, 0.99]), seed=st.integers(0, 2**16),
       pull_cap=st.integers(50, 20_000))
def test_chunked_iid_ranking_equals_rounds_by_round(mus, delta, seed, pull_cap):
    # the iid sampler's chunks read the per-round stream, the draws of rounds not taken
    # included; the chunk's candidate rounds hold every round the scalar pass eliminates in
    k = len(mus)
    got = rank_arms(iid_bernoulli_sampler(mus, np.random.default_rng(seed)), k, delta, pull_cap)
    assert got == rank_arms_by_round(_bernoulli_stream(mus, seed), k, delta, pull_cap)


@settings(max_examples=80, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_chunked_calibrated_ranking_equals_rounds_by_round(instance_seed, data):
    # d0 up to max d + 4 reaches the serialized rounds of k < d0 with nothing removed
    rng = np.random.default_rng(instance_seed)
    inst = random_exact_instance(rng, kmax=7, dmax=4) if rng.random() < 0.5 else \
        random_float_instance(rng, kmax=7, dmax=4)
    assume(inst.k >= 2)
    d0 = max(inst.ds) + data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**16))
    delta = data.draw(st.sampled_from([0.1, 0.5, 0.99]))
    pull_cap = data.draw(st.integers(1, 20_000))
    chunked, stepped = (Environment(inst, substream(seed, "rank")) for _ in range(2))
    got = rank_arms(calibrated_sampler(chunked, d0), inst.k, delta, pull_cap)
    want = rank_arms_by_round(lambda active: calibrated_sample_round(stepped, active, d0),
                              inst.k, delta, pull_cap)
    assert got == want
    assert chunked.t == stepped.t == got.pulls and chunked._last_pulls() == stepped._last_pulls()
    assert_same_columns(chunked.columns(), stepped.columns())


def _assert_ghost_reference_is_ghost_run(inst, T):
    run, _ = run_algorithm("ghost", inst, T, 0.1, 0)
    ref = ghost_reference(inst, T)
    assert ref.tobytes() == np.cumsum(run.trace.expected).tobytes()


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


def _logged_run(source, inst, T, seed):
    """A Run of T pulls (at least k for low) from one of the experiment's algorithms, or
    `rank` on the calibrated sampler with its pull cap at T."""
    if source != "rank":
        return run_algorithm(source, inst, max(T, inst.k) if source == "low" else T, 0.1, seed)[0]
    env = Environment(inst, substream(seed, "rank"))
    rank_arms(calibrated_sampler(env, max(inst.ds) + 1), inst.k, 0.1, max(T, 1))
    return Run(env)


def _assert_windowed_totals_equal_whole_arrays(inst, run, ts):
    """`running_totals`, the switch count off the blocks and the ghost reference at ts equal
    np.cumsum over the per-pull reference log, bit for bit."""
    env = run.env
    prefixes = list(env._cycle_ids)
    rows = np.frombuffer(env._blocks, np.int64).reshape(-1, 4).tolist()
    want = step_columns(inst, [(prefixes[c], n, p, rf) for n, c, p, rf in rows], env._u)
    flags = want["policy"][1:] != want["policy"][:-1]
    switches = np.concatenate((np.zeros(min(env.t, 1), np.int64), np.cumsum(flags)))
    first, steady = (np.array(part, float) for part in
                     orbit(inst, RankingPolicy(ghost_summary(inst).r_star)))
    ghost = np.concatenate([first, np.tile(steady, env.t // len(steady) + 1)])[:env.t]
    idx = ts - 1
    got = [*running_totals(run, ts), ghost_reference(inst, env.t, ts)]
    wants = [np.cumsum(want["expected"]), np.cumsum(want["realized"].astype(np.int64)), switches,
             np.cumsum(ghost)]
    for name, g, w in zip(("expected", "realized", "switches", "ghost"), got, wants):
        assert g.dtype == w.dtype and g.tobytes() == w[idx].tobytes(), name
    assert run.total_switches == (int(switches[-1]) if env.t else 0)


@settings(max_examples=50, deadline=None)
@given(ds=fig2_delays, source=st.sampled_from(["ghost", "greedy", "low", "ucb", "rank"]),
       window=st.sampled_from([1, 7, _WINDOW_PULLS]), T=st.integers(0, 600),
       seed=st.integers(0, 2**16), data=st.data())
def test_windowed_totals_equal_the_whole_array_reference(ds, source, window, T, seed, data):
    # the run too is made at the drawn window, which low's long tail blocks count hits by
    inst = fig2_instance(ds)
    with mock.patch.object(core, "_WINDOW_PULLS", window):
        run = _logged_run(source, inst, T, seed)
        n = run.env.t
        ts = sorted(data.draw(st.sets(st.integers(1, n), max_size=40)) | {n}) if n else []
        _assert_windowed_totals_equal_whole_arrays(inst, run, np.array(ts, np.int64))


@pytest.mark.parametrize("source", ["ghost", "greedy", "low", "ucb", "rank"])
def test_default_windows_join_bit_for_bit(source):
    # past two default windows, at every pull; float payoffs keep the per-pull reference quick
    inst = load_instance(dict(FIG2, mu=[float(F(m)) for m in FIG2["mu"]], d=[4, 3, 3, 6, 4, 3, 4],
                              discount={"kind": "geometric", "gamma": 0.999}))
    run = _logged_run(source, inst, 2 * _WINDOW_PULLS + 123, 3)
    _assert_windowed_totals_equal_whole_arrays(inst, run, np.arange(1, run.env.t + 1))


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


@st.composite
def small_instances(draw):
    """Up to four arms of delay up to five with a constant or table discount, in Fractions or
    in floats, or the relaxed reduction of a pmsp instance."""
    kind = draw(st.sampled_from(["constant", "table", "pmsp"]))
    if kind == "pmsp":
        intervals = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4))
        assume(sum(F(1, v) for v in intervals) <= 1)
        return pmsp_to_bandit(PmspInstance(intervals))
    k = draw(st.integers(1, 4))
    num = draw(st.sampled_from([F, float]))
    mus = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k, unique=True))
    mus = [num(F(m, 20)) for m in sorted(mus, reverse=True)]
    ds = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    vals = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4 if kind == "table" else 1))
    vals = [num(F(v, 10)) for v in sorted(vals, reverse=True)]
    disc = Discount.table(vals) if kind == "table" else Discount.constant(vals[0])
    return make_instance(mus, ds, disc)


@settings(max_examples=150, deadline=None)
@given(inst=small_instances())
def test_layered_build_equals_the_queue(inst):
    want = build_state_graph_by_queue(inst)
    got = build_state_graph(inst)
    n = want.n_nodes
    assert got.nodes == want.nodes
    assert got.nxt.tolist() == [[v for v, _ in row] for row in want.succ]
    assert repr(got.succ) == repr(want.succ)  # equal weights of equal types
    with pytest.raises(ValueError) as queue_error:
        build_state_graph_by_queue(inst, cap=n - 1)
    with pytest.raises(ValueError) as layered_error:
        build_state_graph(inst, cap=n - 1)
    assert str(layered_error.value) == str(queue_error.value)
    assert build_state_graph(inst, cap=n).nodes == want.nodes


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), constant=st.none() | st.integers(0, 10))
def test_optimum_equals_cycle_enumeration(instance_seed, constant):
    # a constant discount gives many cycles of equal mean
    inst = random_exact_instance(np.random.default_rng(instance_seed), kmax=3, dmax=3)
    assume(sum(inst.ds) < 9)  # d = (3, 3, 3) alone takes seconds to enumerate
    if constant is not None:
        inst = make_instance(inst.mus, inst.ds, Discount.constant(F(constant, 10)))
    rho, cycle = optimal_average(inst)
    assert rho == brute_force_max_mean(inst) == cycle.mean


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_certificate_rejects_a_suboptimal_policy(instance_seed, data):
    inst = random_exact_instance(np.random.default_rng(instance_seed), kmax=4, dmax=3)
    graph = build_state_graph(inst)
    nxt = np.array([[v for v, _ in row] for row in graph.succ])
    _, wts, denom = _weight_tables(graph)
    policy = np.array(data.draw(st.lists(st.integers(0, inst.k - 1), min_size=graph.n_nodes,
                                         max_size=graph.n_nodes)))
    eta, h, scale = _evaluate_policy(nxt, wts, policy, [0] * graph.n_nodes, 1)
    rho, _ = optimal_average(inst)
    assume(F(eta[graph.start], denom * scale) < rho)
    with pytest.raises(RuntimeError):
        _certify(nxt, wts * scale, eta, h)


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


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 20), data=st.data())
def test_stage_sizes_are_exact_ceilings(k, data):
    # T_s = ceil(T^(1 - 2^-s)) is the least integer ts with ts^(2^s) >= T^(2^s - 1)
    T = data.draw(st.integers(k, 10**15))
    for s, ts in enumerate(stage_schedule(k, T, 0.1).sizes, 1):
        p = 2**s
        assert ts**p >= T ** (p - 1) > (ts - 1) ** p
