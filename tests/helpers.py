"""Shared generators and independent oracles for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction as F

import networkx as nx
import numpy as np

from delaybandit import (
    Discount,
    Environment,
    PolicyTrace,
    advance_state,
    build_state_graph,
    epsilon_r,
    expected_payoff,
    ghost_summary,
    initial_state,
    make_instance,
    substream,
    ucb_index,
)
from delaybandit.ranker import RankingOutcome


def random_exact_instance(rng, kmax=3, dmax=3, denom=20):
    """Random instance with strictly decreasing rational baselines."""
    k = int(rng.integers(1, kmax + 1))
    mus = set()
    while len(mus) < k:
        mus.add(F(int(rng.integers(1, denom + 1)), denom))
    mus = sorted(mus, reverse=True)
    ds = [int(rng.integers(1, dmax + 1)) for _ in range(k)]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        disc = Discount.geometric(F(int(rng.integers(1, 10)), 10))
    elif kind == 1:
        disc = Discount.constant(F(int(rng.integers(0, 11)), 10))
    else:
        n = int(rng.integers(1, 4))
        vals = sorted((F(int(rng.integers(0, 11)), 10) for _ in range(n)), reverse=True)
        disc = Discount.table(vals)
    return make_instance(mus, ds, disc)


def random_float_instance(rng, kmax=4, dmax=3):
    """Random instance with float parameters (forces the double-precision oracle path)."""
    k = int(rng.integers(1, kmax + 1))
    mus = np.sort(rng.uniform(0.02, 1.0, size=k))[::-1]
    while len(set(mus.tolist())) < k:
        mus = np.sort(rng.uniform(0.02, 1.0, size=k))[::-1]
    ds = [int(rng.integers(1, dmax + 1)) for _ in range(k)]
    if rng.random() < 0.5:
        disc = Discount.geometric(float(rng.uniform(0.05, 0.99)))
    else:
        n = int(rng.integers(1, 5))
        disc = Discount.table(sorted(rng.uniform(0.0, 1.0, size=n).tolist(), reverse=True))
    return make_instance(mus.tolist(), ds, disc)


def step_rollout(inst, arm_of_state, T, rng, policy_id=-1):
    """Reference rollout: T pulls, each arm read off the delay state that `advance_state`
    tracks, logged by `step_columns`; pull t reads uniform t of rng."""
    state, arms = initial_state(inst), []
    for _ in range(T):
        arms.append(arm_of_state(state))
        state = advance_state(state, arms[-1], inst)
    return PolicyTrace(**step_columns(inst, [(tuple(arms), T, policy_id, 0)], rng.random(T)))


def step_columns(inst, blocks, u):
    """Reference log: the seven columns of `blocks`, each (prefix, n, policy, retain_from),
    pulled one at a time from the all-zero start; pull t reads u[t]."""
    last, rows = {}, []
    for prefix, n, policy, retain_from in blocks:
        for i in range(n):
            t = len(rows)
            arm = prefix[i % len(prefix)]
            gap = t - last[arm] if arm in last else -1
            tau = gap if 0 < gap <= inst.ds[arm] else 0
            p = float(expected_payoff(inst, arm, tau))
            rows.append((arm, tau, gap, p, int(u[t] < p), policy, i >= retain_from))
            last[arm] = t
    cols = zip(*rows) if rows else [()] * 7
    dtypes = {"arms": np.int32, "taus": np.int32, "gaps": np.int64, "expected": np.float64,
              "realized": np.int8, "policy": np.int32, "retained": bool}
    return {name: np.array(col, dtype) for (name, dtype), col in zip(dtypes.items(), cols)}


def ucb_reference(inst, T, seed):
    """Reference UCB1 over the cutoffs: each pick scored by `ucb_index` per cutoff and
    pulled as one `pull_cycles` pair, its estimate read off that call's retained reward.
    Returns (selections, selection counts, means, the seven log columns)."""
    k = inst.k
    env = Environment(inst, substream(seed, "ucb"), capacity=max(T, 1))
    counts, means = [0] * (k + 1), [0.0] * (k + 1)
    n = 0
    while env.t < T:
        best = -math.inf
        for c in range(1, k + 1):
            val = ucb_index(means[c], counts[c], n)
            if val > best:
                best, m = val, c
        pulls = min(2 * m, T - env.t)
        ret_sum, _ = env.pull_cycles(tuple(range(m)), pulls, policy=m, retain_from=m)
        n += 1
        if pulls == 2 * m:
            means[m] = (means[m] * counts[m] + ret_sum / m) / (counts[m] + 1)
            counts[m] += 1
    return n, dict(enumerate(counts[1:], 1)), dict(enumerate(means[1:], 1)), env.columns()


def delay_vector(inst, arms, t):
    """Capped delay vector at time t off a log's arms column: rounds since each arm's last
    pull before t, 0 if it has none within its delay."""
    state = []
    for a, d in enumerate(inst.ds):
        recent = [int(x) for x in arms[max(t - d, 0):t]][::-1]
        state.append(recent.index(a) + 1 if a in recent else 0)
    return tuple(state)


def assert_same_columns(got, want):
    """Equal pull logs: the same columns, each with the same dtype and values."""
    assert list(got) == list(want)
    for key, col in want.items():
        assert got[key].dtype == col.dtype and np.array_equal(got[key], col), key


def brute_force_max_mean(instance):
    """Independent oracle: enumerate every simple cycle reachable from the start."""
    g = build_state_graph(instance)
    reach = set()
    stack = [g.start]
    while stack:
        u = stack.pop()
        if u in reach:
            continue
        reach.add(u)
        for v, _ in g.succ[u]:
            stack.append(v)
    G = nx.DiGraph()
    for u in reach:
        for v, w in g.succ[u]:
            G.add_edge(u, v, weight=F(w))
    best = None
    for cyc in nx.simple_cycles(G):
        wsum = sum(G[u][v]["weight"] for u, v in zip(cyc, cyc[1:] + cyc[:1]))
        mean = F(wsum, len(cyc))
        if best is None or mean > best:
            best = mean
    return best


def _payoff(mu, d, disc, tau):
    if 0 < tau <= d:
        return (1 - disc(tau)) * mu
    return mu


def make_equal_optima(rng, kmax=4, dmax=3):
    """Instance whose cutoffs m < n share the maximal ranking-policy value.

    Draw everything but the last baseline, then solve the last one so that
    g(n) equals g(m) exactly (rational arithmetic); reject draws where the
    shared value is not the global maximum.
    """
    for _ in range(2000):
        k = int(rng.integers(2, kmax + 1))
        n = k
        m = int(rng.integers(1, n))
        ds = [int(rng.integers(1, dmax + 1)) for _ in range(k)]
        vals = set()
        while len(vals) < k - 1:
            vals.add(F(int(rng.integers(4, 41)), 40))
        head = sorted(vals, reverse=True)
        if rng.random() < 0.5:
            nvals = int(rng.integers(1, 4))
            disc = Discount.table(sorted((F(int(rng.integers(1, 10)), 10) for _ in range(nvals)),
                                         reverse=True))
        else:
            disc = Discount.constant(F(int(rng.integers(1, 10)), 10))
        g_m = sum(_payoff(head[j], ds[j], disc, m) for j in range(m)) / F(m)
        s_head = sum(_payoff(head[j], ds[j], disc, n) for j in range(n - 1))
        c_n = (1 - disc(n)) if n <= ds[n - 1] else F(1)
        if c_n == 0:
            continue
        mu_n = (n * g_m - s_head) / c_n
        if not 0 < mu_n < head[-1]:
            continue
        inst = make_instance(head + [mu_n], ds, disc)
        gs = ghost_summary(inst)
        if gs.g_values[m - 1] != gs.g_values[n - 1]:
            continue
        if max(gs.g_values) != gs.g_values[m - 1]:
            continue
        return inst, m, n
    raise RuntimeError("failed to construct an equal-optima instance")


def verify_maintenance_schedule(intervals, slots):
    """Check a witness: every machine serviced exactly every l_i slots."""
    period = len(slots)
    for machine, li in enumerate(intervals, start=1):
        times = [t for t in range(period) if slots[t] == machine]
        if len(times) != period // li:
            return False
        doubled = times + [t + period for t in times]
        for a, b in zip(doubled, doubled[1:]):
            if b - a != li:
                return False
    return True


@dataclass
class _RankLeaf:
    """Not-yet-eliminated arms sharing the same slot between eliminated ones."""

    arms: list


@dataclass
class _RankNode:
    """Eliminated arm; bigger/smaller hold the sides it split its leaf into."""

    arm: int
    bigger: "_RankNode | _RankLeaf"
    smaller: "_RankNode | _RankLeaf"


def _in_order(node, leaf_key) -> list:
    if isinstance(node, _RankLeaf):
        return sorted(node.arms, key=leaf_key)
    return _in_order(node.bigger, leaf_key) + [node.arm] + _in_order(node.smaller, leaf_key)


def bernoulli_rounds(mus, rng):
    """Per-round iid Bernoulli sampler: `sampler(active) -> (samples, pulls)`, one uniform
    per active arm and round, in order."""
    mus = [float(m) for m in mus]

    def sampler(active):
        us = rng.random(len(active))
        return {a: float(us[j] < mus[a]) for j, a in enumerate(active)}, len(active)

    return sampler


def by_round(sampler):
    """A per-round sampler `sampler(active) -> (samples by arm, pulls)` in `rank_arms`'
    protocol: each call hands out one round, drawn when handed out."""

    def chunked(active, rounds):
        samples, pulls = sampler(active)
        return np.array([[samples[a] for a in active]], float), pulls, lambda n: None

    return chunked


def rank_arms_by_round(sampler, k, delta, pull_cap=10**7):
    """Reference elimination, one round at a time: `sampler(active) -> (samples by arm,
    pulls)` is called once per round, and each round is sorted and scanned with
    `epsilon_r`."""
    if k < 2:
        raise ValueError("need at least two arms")
    if pull_cap < 1:
        raise ValueError(f"pull cap must be >= 1, got {pull_cap}")
    active = list(range(k))
    sums = [0.0] * k
    key = [()] * k                        # 0 above, 1 at, 2 below each elimination
    elim_round: dict = {i: None for i in range(k)}
    pulls = 0
    r = 0
    while len(active) > 1 and pulls < pull_cap:
        samples, used = sampler(list(active))
        pulls += used
        r += 1
        for i in active:
            sums[i] += samples[i]
        means = {i: sums[i] / r for i in active}
        eps = epsilon_r(k, r, delta)
        order = sorted(active, key=lambda i: (-means[i], i))
        prev = None                       # nearest arm above i that is still active
        for pos, i in enumerate(order):
            if len(active) <= 1:
                break
            mi = means[i]
            nxt = order[pos + 1] if pos + 1 < len(order) else None
            sep_above = prev is None or means[prev] > mi + 2 * eps
            sep_below = nxt is None or means[nxt] < mi - 2 * eps
            if sep_above and sep_below:
                active.remove(i)
                elim_round[i] = r
                for j in active:
                    if key[j] == key[i]:
                        key[j] += (0,) if means[j] > mi else (2,)
                key[i] += (1,)
            else:
                prev = i
    complete = len(active) <= 1
    final_means = {i: sums[i] / (elim_round[i] or r) for i in range(k)}
    perm = tuple(sorted(range(k), key=lambda a: (key[a], -final_means[a], a)))
    return RankingOutcome(perm, r, pulls, elim_round, complete, final_means)


def rank_arms_by_scan(sampler, k, delta, pull_cap=10**7):
    """Reference elimination: each arm compared against every other active arm's mean;
    eliminated arms grow a binary tree whose in-order walk, with each leaf sorted by
    final mean, is the permutation."""
    active = list(range(k))
    sums = [0.0] * k
    root = _RankLeaf(list(range(k)))
    leaf_of = {i: root for i in range(k)}
    parent = {}
    elim_round = {i: None for i in range(k)}
    pulls = 0
    r = 0
    while len(active) > 1 and pulls < pull_cap:
        samples, used = sampler(list(active))
        pulls += used
        r += 1
        for i in active:
            sums[i] += samples[i]
        means = {i: sums[i] / r for i in active}
        eps = epsilon_r(k, r, delta)
        for i in sorted(active, key=lambda i: (-means[i], i)):
            if len(active) <= 1:
                break
            mi = means[i]
            above = [means[j] for j in active if j != i and means[j] >= mi]
            below = [means[j] for j in active if j != i and means[j] <= mi]
            sep_above = not above or min(above) > mi + 2 * eps
            sep_below = not below or max(below) < mi - 2 * eps
            if not (sep_above and sep_below):
                continue
            active.remove(i)
            elim_round[i] = r
            leaf = leaf_of.pop(i)
            bigger = [j for j in leaf.arms if j != i and means.get(j, -1.0) > mi]
            smaller = [j for j in leaf.arms if j != i and j in leaf_of and j not in bigger]
            node = _RankNode(i, _RankLeaf(bigger), _RankLeaf(smaller))
            par = parent.get(id(leaf))
            if par is None:
                root = node
            else:
                pnode, side = par
                setattr(pnode, side, node)
            parent[id(node.bigger)] = (node, "bigger")
            parent[id(node.smaller)] = (node, "smaller")
            for j in bigger:
                leaf_of[j] = node.bigger
            for j in smaller:
                leaf_of[j] = node.smaller
    final_means = {i: sums[i] / (elim_round[i] or r) for i in range(k)} if r else {}
    perm = tuple(_in_order(root, lambda a: (-final_means.get(a, 0.0), a)))
    return RankingOutcome(perm, r, pulls, elim_round, len(active) <= 1, final_means)
