"""Shared generators and independent oracles for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import repeat

import networkx as nx
import numpy as np

from delaybandit import (
    Discount,
    Environment,
    PmspSchedule,
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
from delaybandit.core import _aged
from delaybandit.oracle import FLOAT_TOL, MAX_POLICY_ITERATIONS, OptimalCycle
from delaybandit.policies import _cycle_mean
from delaybandit.ranker import RankingOutcome


def fig3_instance():
    """The fig3 presets' two arms, exact: both ranking policies are optimal, g(1) = g(2) = 0.7."""
    return make_instance([F(1), F(13, 15)], [2, 2], Discount.table([F(3, 10), F(1, 4)]))


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


def log_blocks_by_block(env, blocks) -> None:
    """Reference for `Environment.log_blocks`: block by block, a new prefix checked and
    numbered, the buffer reserved up to the block's end, the row appended with retain_from
    clipped to [0, n] and the clock moved (int() truncates a fractional n or retain_from)."""
    ids, log = env._cycle_ids, env._blocks
    for prefix, n, policy, retain_from in blocks:
        cycle = ids.get(prefix)
        if cycle is None:
            if not prefix:
                raise ValueError("prefix must be nonempty")
            if not all(0 <= a < env.k for a in prefix):
                raise IndexError(f"prefix {prefix} has an arm out of range for k={env.k}")
            cycle = ids[prefix] = len(ids)
        n = int(n)
        if n <= 0:
            continue
        env._reserve(env.t + n)
        log.extend((n, cycle, policy, min(max(int(retain_from), 0), n)))
        env.t += n


def ucb_reference(inst, T, seed):
    """Reference UCB1 over the cutoffs: each pick scored by `ucb_index` per cutoff and
    pulled as one `pull_cycles` pair, its estimate read off that call's retained reward.
    Returns (selections, selection counts, means, the Environment it logged, one block a
    pick)."""
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
    return n, dict(enumerate(counts[1:], 1)), dict(enumerate(means[1:], 1)), env


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


def pmsp_feasible_by_gcd(pmsp, cap=10**4):
    """Reference for `pmsp_feasible`: the same search order, decided pairwise, with its
    slots rebuilt and re-checked. Machine i occupies all t = o_i mod l_i.

    Two machines collide iff their offsets agree modulo gcd(l_i, l_j), so the
    search prunes pairwise. Period is lcm of the intervals, capped.
    """
    ivs = pmsp.intervals
    period = math.lcm(*ivs)
    if period > cap:
        raise ValueError(f"lcm of intervals ({period}) exceeds cap ({cap})")
    order = sorted(range(len(ivs)), key=lambda i: ivs[i])
    # depth-first over machines by interval, offsets ascending; chosen[j] is
    # the offset of machine order[j], and a dead end moves the previous
    # machine on to its next offset
    chosen: list = []
    o = 0
    while len(chosen) < len(order):
        pos = len(chosen)
        li = ivs[order[pos]]
        while o < li:
            for j in range(pos):
                if (o - chosen[j]) % math.gcd(li, ivs[order[j]]) == 0:
                    break
            else:
                break
            o += 1
        if o < li:
            chosen.append(o)
            o = 0
        elif chosen:
            o = chosen.pop() + 1
        else:
            return PmspSchedule(False, period)
    offsets = [0] * len(ivs)
    for pos, machine in enumerate(order):
        offsets[machine] = chosen[pos]
    slots = [0] * period
    for machine, (li, o) in enumerate(zip(ivs, offsets)):
        for t in range(o, period, li):
            if slots[t] != 0:
                raise RuntimeError("offset search produced a colliding schedule")
            slots[t] = machine + 1
    return PmspSchedule(True, period, tuple(offsets), tuple(slots))


@dataclass
class QueueGraph:
    """`build_state_graph_by_queue`'s graph: node tuples and (next_node, weight) rows."""

    nodes: list
    succ: list
    start: int
    exact: bool

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_state_graph_by_queue(instance, cap=10**6):
    """Reference for `build_state_graph`: a breadth-first queue over state tuples with a
    dict index; more than `cap` reachable states is an error."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    # a reachable state's tau never exceeds the reachable-state count, so cap bounds the table
    payoff = [[expected_payoff(instance, arm, tau) for tau in range(min(d, cap) + 1)]
              for arm, d in enumerate(instance.ds)]
    start = initial_state(instance)
    nodes = [start]
    index = {start: 0}
    succ = []
    for state in nodes:  # nodes grows behind the loop: a breadth-first queue
        # advance_state for every arm at once: age all taus, then reset the pulled one
        aged = _aged(state, instance.ds)
        row = []
        for arm in range(instance.k):
            nxt = aged[:arm] + (1,) + aged[arm + 1:]
            v = index.get(nxt)
            if v is None:
                if len(nodes) >= cap:
                    raise ValueError(f"more than {cap} reachable states; raise the cap to go on")
                v = index[nxt] = len(nodes)
                nodes.append(nxt)
            row.append((v, payoff[arm][state[arm]]))
        succ.append(row)
    return QueueGraph(nodes, succ, 0, instance.is_exact)


def evaluate_policy_by_fractions(nxt, wts, policy, h_prev):
    """Cycle mean eta and bias h of every node under a policy (one arm per node).

    Each policy cycle's root, its smallest node, keeps its bias from h_prev;
    every other node satisfies h(u) = w - eta(u) + h(v) on its policy edge.
    """
    n = len(nxt)
    succ = nxt[np.arange(n), policy].tolist()
    gain = wts[np.arange(n), policy].tolist()
    eta, h, visit = [None] * n, [None] * n, [-1] * n
    for s in range(n):
        path, u = [], s
        while eta[u] is None and visit[u] != s:
            visit[u] = s
            path.append(u)
            u = succ[u]
        if eta[u] is None:  # the walk closed a new cycle at u
            i = path.index(u)
            cycle = path[i:]
            root = min(cycle)
            r = cycle.index(root)
            eta[root] = _cycle_mean([gain[x] for x in cycle])
            h[root] = h_prev[root]
            path = path[:i] + cycle[r + 1:] + cycle[:r]
        for x in reversed(path):  # each node after its successor
            v = succ[x]
            eta[x] = eta[v]
            h[x] = gain[x] - eta[v] + h[v]
    return np.array(eta), np.array(h)


def _improve_by_fractions(nxt, wts, policy, eta, h, tol) -> bool:
    """Switch, in place, every arm that gains more than tol; False when none does."""
    reach = eta[nxt]
    switch = reach.max(axis=1) > eta + tol
    if not switch.any():
        means, bias = reach, wts + h[nxt]
        reach = np.where(means == eta[:, None], bias, -np.inf)
        switch = reach.max(axis=1) > eta + h + tol
        if tol and not switch.any():
            reach = np.where(abs(means - eta[:, None]) <= tol, bias, -np.inf)
            switch = reach.max(axis=1) > eta + h + tol
    policy[switch] = reach.argmax(axis=1)[switch]
    return bool(switch.any())


def _howard_by_fractions(nxt, wts, policy, h, tol):
    for _ in range(MAX_POLICY_ITERATIONS):
        eta, h = evaluate_policy_by_fractions(nxt, wts, policy, h)
        if not _improve_by_fractions(nxt, wts, policy, eta, h, tol):
            return eta, h
    raise RuntimeError(f"policy iteration did not settle in {MAX_POLICY_ITERATIONS} rounds")


def _certify_by_fractions(nxt, wts, eta, h) -> None:
    for u, (row, ws) in enumerate(zip(nxt.tolist(), wts.tolist())):
        for v, w in zip(row, ws):
            if eta[v] > eta[u] or (eta[v] == eta[u] and w - eta[u] + h[v] > h[u]):
                raise RuntimeError(f"optimality certificate fails on edge {u} -> {v}")


def max_mean_cycle_by_fractions(graph):
    """Reference for `max_mean_cycle`: Howard policy iteration in floats from the greedy
    policy, continued in `Fraction`s on exact graphs, with per-edge weight conversions
    and a per-edge certificate."""
    n = graph.n_nodes
    nxt = np.array([[v for v, _ in row] for row in graph.succ], np.int64)
    wts = np.array([[float(w) for _, w in row] for row in graph.succ])
    policy = wts.argmax(axis=1)
    eta, h = _howard_by_fractions(nxt, wts, policy, np.zeros(n), max(FLOAT_TOL, 4.0 * n * 1e-16))
    if graph.exact:
        wts = np.array([[F(w) for _, w in row] for row in graph.succ], object)
        eta, h = _howard_by_fractions(nxt, wts, policy, [F(0)] * n, 0)
        _certify_by_fractions(nxt, wts, eta, h)
    policy = policy.tolist()
    seen, u = {}, graph.start
    while u not in seen:
        seen[u] = len(seen)
        u = graph.succ[u][policy[u]][0]
    cyc_nodes = list(seen)[seen[u]:]
    cyc_arms = [policy[x] for x in cyc_nodes]
    weights = [graph.succ[x][policy[x]][1] for x in cyc_nodes]
    mean = _cycle_mean(weights if graph.exact else [float(w) for w in weights])
    if graph.exact and mean != eta[graph.start]:
        raise RuntimeError("witness cycle mean disagrees with the certified optimum")
    states = [graph.nodes[x] for x in cyc_nodes]
    return OptimalCycle(mean, states, cyc_arms, n)


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


def write_csv_by_row(path: str, header, columns):
    """Reference CSV writer: `str` of every cell, one row at a time. `harness._write_csv`
    must write the same bytes."""
    cells = [map(str, c.tolist()) if isinstance(c, np.ndarray) else repeat(str(c))
             for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
