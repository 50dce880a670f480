"""Exact ground truth for small instances.

The delay vector is a finite sufficient state and pulls are deterministic
transitions, so the optimal long-run average reward is the maximum mean cycle
of the state graph. The graph holds only the states reachable from the
all-zero start, found by breadth-first search one layer at a time in numpy:
each state is coded as one integer, a layer's children are coded straight
from their parents' aged delay vectors and looked up among the sorted codes
seen so far, and only new states get rows. The graph is n x k arrays of
delay vectors and successors plus one payoff table per arm; its size is
capped. Howard policy iteration (Cochet-Terrasson et al. 1998, multichain
form) solves it on those arrays in O(nk) memory, in double precision with a
1e-12 switching tolerance. When the instance is exact, the iteration
continues from the float policy in Python ints: every weight is scaled by
D, the lcm of the distinct payoffs' denominators, and every gain and bias by
D and the lcm of the policy-cycle lengths seen so far. The exact leg's own
stopping test certifies the optimum: at tolerance 0 it stops only when every
edge meets the multichain optimality conditions, so no second pass checks
them. The witness cycle's mean must equal the optimum.

Also here: long-run values of fixed periodic arm patterns (used for the
two-policy alternation bonus) and of delay-feedback policies, each the mean of
one `policies.orbit` cycle, and the periodic-maintenance reduction with an
exhaustive feasibility search on one occupancy table of the period's slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import BanditInstance, Discount, _is_count, expected_payoff
from .policies import _cycle_mean, g_value, orbit

__all__ = [
    "OptimalCycle",
    "PmspInstance",
    "PmspSchedule",
    "StateGraph",
    "alternation_value",
    "build_state_graph",
    "long_run_average",
    "max_mean_cycle",
    "optimal_average",
    "pmsp_feasible",
    "pmsp_threshold",
    "pmsp_to_bandit",
    "steady_state_average",
]

FLOAT_TOL = 1e-12
MAX_POLICY_ITERATIONS = 500


@dataclass
class StateGraph:
    """Transition graph over the delay vectors reachable from the all-zero start.

    Node 0 is the start and nodes are numbered in breadth-first order: each
    layer's new states in the order (parent, arm) first reaches them. Row u of
    the n x k array `taus` is node u's delay vector, and nxt[u, arm] is the node
    that pulling arm from u leads to. payoffs[arm][tau] is the expected payoff of
    pulling arm at tau, for every tau up to the largest any node has, so the
    edge's weight is payoffs[arm][taus[u, arm]]. `exact` marks rational payoffs.
    `nodes` and `succ` give the same graph as tuples and (next_node, weight) rows.
    """

    taus: np.ndarray
    nxt: np.ndarray
    payoffs: list
    start: int
    exact: bool

    @property
    def n_nodes(self) -> int:
        return len(self.taus)

    @cached_property
    def nodes(self) -> list:
        """Each node's delay vector as a tuple, built on first read."""
        return list(map(tuple, self.taus.tolist()))

    @cached_property
    def succ(self) -> list:
        """One (next_node, weight) entry per arm for each node, built on first read."""
        return [[(v, row[tau]) for v, row, tau in zip(vs, self.payoffs, taus)]
                for vs, taus in zip(self.nxt.tolist(), self.taus.tolist())]


def build_state_graph(instance: BanditInstance, cap: int = 10**6) -> StateGraph:
    """Breadth-first search from the all-zero state, one layer at a time; more than `cap`
    reachable states is an error.

    A state is coded as sum tau_i * prod_{j<i} (d_j + 1): in int64 when every code
    fits, else in Python ints. Pulling arm a from a state whose aged vector is aged
    leads to code(aged) + (1 - aged[a]) * radix[a], so a layer's children are coded
    without building their rows, looked up among the sorted codes seen so far, and
    only the new ones get rows, numbered in order of first discovery.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    too_many = f"more than {cap} reachable states; raise the cap to go on"
    k = instance.k
    # a reachable tau is below the state count, so a delay past the cap reads as the cap
    ds = [min(d, cap) for d in instance.ds]
    # with two arms or more, pulling arm i once and then another arm s - 1 times reaches a
    # state of its own for each s in 1..d_i, so 1 + sum(d_i) states are reachable
    if k > 1 and 1 + sum(ds) > cap:
        raise ValueError(too_many)
    radix = [1]
    for d in ds:
        radix.append(radix[-1] * (d + 1))
    # numpy's int64 wraps silently, so the product is taken in Python ints
    radix = np.array(radix[:-1], np.int64 if radix[-1] < 2**63 else object)
    ds = np.array(ds, np.int64)
    frontier = np.zeros((1, k), np.int64)
    taus, nxt = [frontier], []
    # the codes seen so far, sorted, and the node of each
    codes, ids = np.zeros(1, radix.dtype), np.zeros(1, np.int64)
    n = 1
    while len(frontier):
        # advance_state for every (node, arm) at once: age all taus by core._aged's rule,
        # then reset the pulled one
        aged = np.where((frontier == 0) | (frontier >= ds), 0, frontier + 1)
        child = ((aged @ radix)[:, None] + (1 - aged) * radix).ravel()
        pos = np.searchsorted(codes, child).clip(max=len(codes) - 1)
        old = codes[pos] == child
        succ = np.empty(len(child), np.int64)
        succ[old] = ids[pos[old]]
        fresh = np.flatnonzero(~old)
        new, first, inverse = np.unique(child[fresh], return_index=True, return_inverse=True)
        if n + len(new) > cap:
            raise ValueError(too_many)
        # number the new codes in order of first discovery
        discovered = np.zeros(len(fresh), bool)
        discovered[first] = True
        new_ids = (n - 1 + np.cumsum(discovered))[first]
        succ[fresh] = new_ids[inverse]
        nxt.append(succ.reshape(-1, k))
        at = np.searchsorted(codes, new)
        codes, ids = np.insert(codes, at, new), np.insert(ids, at, new_ids)
        parent, arm = np.divmod(fresh[discovered], k)
        frontier = aged[parent]
        frontier[np.arange(len(new)), arm] = 1
        taus.append(frontier)
        n += len(new)
    taus = np.concatenate(taus)
    # every tau from 0 to an arm's largest is some node's (each is its predecessor's plus
    # one), and the largest is below both d + 1 and the node count, so cap bounds the table
    payoffs = [[expected_payoff(instance, arm, tau) for tau in range(top + 1)]
               for arm, top in enumerate(taus.max(axis=0).tolist())]
    return StateGraph(taus, np.concatenate(nxt), payoffs, 0, instance.is_exact)


@dataclass
class OptimalCycle:
    """Witness cycle achieving the optimal long-run average.

    mean is the arithmetic mean of the cycle's edge weights by `_cycle_mean`'s
    rule: a Fraction when the graph was exact, else a float.
    reachable_states counts the states of the graph that was searched.
    """

    mean: float | Fraction
    states: list
    arms: list
    reachable_states: int

    def __len__(self):
        return len(self.arms)


def _policy_walk(succ):
    """The cycles of a policy's successor list and an order that fills every other node.

    Each cycle is listed from the node where the walk first met it; order
    holds the remaining nodes, each after its successor.
    """
    n = len(succ)
    cycles, order, done, visit = [], [], [False] * n, [-1] * n
    for s in range(n):
        path, u = [], s
        while not done[u] and visit[u] != s:
            visit[u] = s
            path.append(u)
            u = succ[u]
        closed = not done[u]  # the walk closed a new cycle at u
        for x in path:
            done[x] = True
        if closed:
            i = path.index(u)
            cycle = path[i:]
            cycles.append(cycle)
            r = cycle.index(min(cycle))
            path = path[:i] + cycle[r + 1:] + cycle[:r]
        order.extend(reversed(path))  # each node after its successor
    return cycles, order


def _evaluate_policy(nxt, wts, policy, h_prev, scale=0):
    """Gain eta and bias h of every node under a policy (one arm per node), and their scale.

    Each policy cycle's root, its smallest node, keeps its bias from h_prev;
    every other node satisfies h(u) = w - eta(u) + h(v) on its policy edge.
    With scale 0 the weights are floats and eta is each cycle's mean. Integer
    weights W run at a scale m > 0: eta and h are integers, the true values
    times m and W's common denominator. The scale grows to m' = lcm(m, every
    cycle length), the kept root biases with it, so a cycle of weight sum S
    and length L has eta = S * m' / L and the edge weights are W * m'.
    """
    rows = np.arange(len(nxt))
    succ = nxt[rows, policy].tolist()
    cycles, order = _policy_walk(succ)
    if scale:
        grown = math.lcm(scale, *map(len, cycles))
        gain = (wts[rows, policy] * grown).tolist()
        mean, keep, scale = (lambda c: sum(c) // len(c)), grown // scale, grown
    else:
        gain, mean, keep = wts[rows, policy].tolist(), _cycle_mean, 1
    eta, h = [None] * len(succ), [None] * len(succ)
    for cycle in cycles:
        root = min(cycle)
        eta[root] = mean([gain[x] for x in cycle])
        h[root] = h_prev[root] * keep
    for x in order:
        v = succ[x]
        eta[x] = eta[v]
        h[x] = gain[x] - eta[v] + h[v]
    dtype = object if scale else float
    return np.array(eta, dtype), np.array(h, dtype), scale


def _improve_policy(nxt, wts, policy, eta, h, tol) -> bool:
    """Switch, in place, every arm that gains more than tol; False when none does.

    Moves toward a larger cycle mean come first; only when there are none
    does a node switch to an edge of equal mean with a larger bias, and only
    when there is none of those either are means within tol taken as equal:
    two float cycles of one mean can differ in the last bit, and exact
    equality alone would hide the edges between them and stop short.
    At tol 0, False is the multichain optimality condition on every edge: eta
    never rises along an edge, and between nodes of equal eta
    h(u) >= w - eta(u) + h(v). Summed around any cycle, these bound its mean
    by the eta of its nodes, so no cycle reachable from a node beats its eta.
    """
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


def _howard(nxt, wts, policy, tol, scale=0):
    """Multichain Howard policy iteration (Cochet-Terrasson et al. 1998) from `policy`.

    nxt and wts are n x k arrays of successors and weights: float weights in
    float64 (scale 0), or integer weights in object arrays from scale 1, the
    exact leg. Returns eta, h and their scale. The exact leg stops at tol 0, so
    its stop certifies eta as the optimum (see `_improve_policy`).
    """
    h = [0] * len(nxt)
    scaled = wts
    for _ in range(MAX_POLICY_ITERATIONS):
        eta, h, grown = _evaluate_policy(nxt, wts, policy, h, scale)
        if grown != scale:
            scaled, scale = wts * grown, grown
        if not _improve_policy(nxt, scaled, policy, eta, h, tol):
            return eta, h, scale
    raise RuntimeError(f"policy iteration did not settle in {MAX_POLICY_ITERATIONS} rounds")


def _weight_tables(graph: StateGraph):
    """Float weights and, for an exact graph, integer weights over one common denominator.

    An edge's weight is fixed by its arm and its source state's tau for that
    arm, so each payoff of the graph's table is converted once and gathered by tau.
    Returns the n x k float array, the n x k object array of ints W (None
    for a float graph) and the denominator D with W = weight * D.
    """
    payoffs, taus = graph.payoffs, graph.taus.T
    floats = np.column_stack([np.array([float(w) for w in row])[col]
                              for row, col in zip(payoffs, taus)])
    if not graph.exact:
        return floats, None, 1
    denom = math.lcm(*(w.denominator for row in payoffs for w in row))
    ints = np.column_stack([np.array([w.numerator * (denom // w.denominator) for w in row],
                                     object)[col] for row, col in zip(payoffs, taus)])
    return floats, ints, denom


def max_mean_cycle(graph: StateGraph) -> OptimalCycle:
    """Maximum mean over all cycles reachable from the start state, with a witness.

    Howard policy iteration in floats from the greedy policy. For an exact
    graph it continues from the float policy in Python ints, every weight
    scaled by one common denominator, until its tol-0 stopping test certifies
    the result exactly; the witness is the policy cycle the start state runs
    into, and its mean must equal the optimum.
    """
    n, nxt = graph.n_nodes, graph.nxt
    wts, ints, denom = _weight_tables(graph)
    policy = wts.argmax(axis=1)
    _howard(nxt, wts, policy, max(FLOAT_TOL, 4.0 * n * 1e-16))
    if graph.exact:
        eta, _, scale = _howard(nxt, ints, policy, 0, 1)
    policy = policy.tolist()
    seen, u = {}, graph.start
    while u not in seen:
        seen[u] = len(seen)
        u = int(nxt[u, policy[u]])
    cyc_nodes = list(seen)[seen[u]:]
    cyc_arms = [policy[x] for x in cyc_nodes]
    states = list(map(tuple, graph.taus[cyc_nodes].tolist()))
    weights = [graph.payoffs[a][state[a]] for a, state in zip(cyc_arms, states)]
    mean = _cycle_mean(weights if graph.exact else [float(w) for w in weights])
    if graph.exact and mean != Fraction(eta[graph.start], denom * scale):
        raise RuntimeError("witness cycle mean disagrees with the certified optimum")
    return OptimalCycle(mean, states, cyc_arms, n)


def optimal_average(instance: BanditInstance, cap: int = 10**6):
    """Optimal long-run average reward and a witness periodic schedule."""
    graph = build_state_graph(instance, cap=cap)
    cycle = max_mean_cycle(graph)
    return cycle.mean, cycle


def steady_state_average(instance: BanditInstance, pattern):
    """Long-run per-pull expected reward of repeating a fixed arm pattern.

    The mean of the pattern's orbit cycle, so the value is exact for exact
    instances and correct even when the orbit spans several repetitions.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    return _cycle_mean(orbit(instance, lambda state: pattern)[1])


def alternation_value(instance: BanditInstance, m: int, n: int):
    """Long-run average of alternating one play of the cutoff-m policy with one of cutoff-n.

    Computed by direct steady-state evaluation of the periodic arm sequence
    (1..m, 1..n); m = n degenerates to g(m).
    """
    if not 1 <= m <= n <= instance.k:
        raise ValueError(f"cutoffs must satisfy 1 <= m <= n <= k, got ({m}, {n})")
    if m == n:
        return g_value(instance, m)
    pattern = list(range(m)) + list(range(n))
    return steady_state_average(instance, pattern)


def long_run_average(instance: BanditInstance, policy):
    """Exact long-run average of a deterministic delay-feedback policy(state) -> arm."""
    return _cycle_mean(orbit(instance, lambda state: (policy(state),))[1])


# -- periodic maintenance scheduling ---------------------------------------


@dataclass(frozen=True)
class PmspInstance:
    """Service intervals l_1..l_n with sum(1/l_i) <= 1."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs:
            raise ValueError("need at least one service interval")
        if not all(map(_is_count, ivs)):
            raise ValueError("service intervals must be positive integers")
        object.__setattr__(self, "intervals", tuple(map(int, ivs)))
        if pmsp_threshold(self) > 1:
            raise ValueError("sum of 1/l_i must be at most 1")

    @property
    def n(self) -> int:
        return len(self.intervals)


def pmsp_threshold(pmsp: PmspInstance) -> Fraction:
    """sum mu_i / (d_i + 1) of the reduced instance, i.e. sum 1/l_i."""
    return sum(Fraction(1, v) for v in pmsp.intervals)


def pmsp_to_bandit(pmsp: PmspInstance) -> BanditInstance:
    """Reduction: machine i becomes an arm with mu = 1, d = l_i - 1, full discount.

    A dummy zero-baseline arm absorbs idle slots; its delay is irrelevant and
    set to 1. Intervals of 1 would need d = 0 and are rejected.
    """
    if any(v < 2 for v in pmsp.intervals):
        raise ValueError("reduction needs every interval >= 2 (d = l - 1 must be >= 1)")
    ds = [v - 1 for v in pmsp.intervals] + [1]
    return BanditInstance([1] * pmsp.n + [0], ds, Discount.constant(1), relaxed=True)


@dataclass(frozen=True)
class PmspSchedule:
    """Feasibility verdict; on success, per-machine offsets and one period of slots.

    Slots hold 1-based machine ids with 0 for idle rounds.
    """

    feasible: bool
    period: int
    offsets: tuple | None = None
    slots: tuple | None = None


def pmsp_feasible(pmsp: PmspInstance, cap: int = 10**4) -> PmspSchedule:
    """Exhaustive offset search on one occupancy table of the period lcm(l_i).

    Machine i at offset o_i holds slots o_i, o_i + l_i, ...; an offset is free
    when none of its slots is held. The cap bounds the period, and with it the
    table, but not the time of the search.
    """
    ivs = pmsp.intervals
    period = math.lcm(*ivs)
    if period > cap:
        raise ValueError(f"lcm of intervals ({period}) exceeds cap ({cap})")
    order = sorted(range(len(ivs)), key=lambda i: ivs[i])
    # depth-first over machines by interval, offsets ascending; chosen[j] is
    # the offset of machine order[j], whose slots are set in `busy`, and a dead
    # end clears the previous machine's slots and moves it on to its next offset.
    # Machines of one interval are interchangeable and sit next to each other in
    # the order, so each starts past the previous one's offset: the first
    # feasible offsets have them increasing, and no other order of them is tried.
    busy = bytearray(period)
    chosen: list = []
    o = 0
    while len(chosen) < len(order):
        li = ivs[order[len(chosen)]]
        while o < li and 1 in busy[o::li]:
            o += 1
        if o < li:
            busy[o::li] = b"\1" * (period // li)
            chosen.append(o)
            same = len(chosen) < len(order) and ivs[order[len(chosen)]] == li
            o = o + 1 if same else 0
        elif chosen:
            li = ivs[order[len(chosen) - 1]]
            o = chosen.pop()
            busy[o::li] = bytes(period // li)
            o += 1
        else:
            return PmspSchedule(False, period)
    offsets, slots = [0] * len(ivs), [0] * period
    for machine, o in zip(order, chosen):
        offsets[machine] = o
        slots[o::ivs[machine]] = [machine + 1] * (period // ivs[machine])
    return PmspSchedule(True, period, tuple(offsets), tuple(slots))
