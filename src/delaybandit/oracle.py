"""Exact ground truth for small instances.

The delay vector is a finite sufficient state and pulls are deterministic
transitions, so the optimal long-run average reward is the maximum mean cycle
of the state graph. The graph holds only the states reachable from the
all-zero start, found by breadth-first search; its size is capped. Howard
policy iteration (Cochet-Terrasson et al. 1998, multichain form) solves it
in O(nk) memory, in double precision with a 1e-12 switching tolerance. When
the instance is exact, the iteration continues in rationals from the float
policy and the optimum is certified exactly: the optimality conditions are
checked on every edge, and the witness cycle's mean must equal it.

Also here: long-run values of fixed periodic arm patterns (used for the
two-policy alternation bonus) and of delay-feedback policies, each the mean of
one `policies.orbit` cycle, and the periodic-maintenance reduction with a
brute-force feasibility checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Arm, BanditInstance, Discount, expected_payoff, initial_state
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

    Node 0 is the start and nodes are numbered in breadth-first order.
    succ[i] has one (next_node, weight) entry per arm; weight is the expected
    payoff of that pull from state i. `exact` marks rational weights.
    """

    nodes: list
    index: dict
    succ: list
    start: int
    exact: bool

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_state_graph(instance: BanditInstance, cap: int = 10**6) -> StateGraph:
    """Breadth-first search from the all-zero state; more than `cap` reachable states is an error."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ds = instance.ds
    # a reachable state's tau never exceeds the reachable-state count, so cap bounds the table
    payoff = [[expected_payoff(instance, arm, tau) for tau in range(min(d, cap) + 1)]
              for arm, d in enumerate(ds)]
    start = initial_state(instance)
    nodes = [start]
    index = {start: 0}
    succ = []
    for state in nodes:  # nodes grows behind the loop: a breadth-first queue
        # advance_state for every arm at once: age all taus, then reset the pulled one
        aged = tuple(0 if tau == 0 or tau >= d else tau + 1 for tau, d in zip(state, ds))
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
    return StateGraph(nodes, index, succ, 0, instance.is_exact)


@dataclass
class OptimalCycle:
    """Witness cycle achieving the optimal long-run average.

    mean is always the arithmetic mean of the cycle's edge weights; mean_exact
    carries the same value as a Fraction when the graph was exact.
    reachable_states counts the states of the graph that was searched.
    """

    mean: float
    mean_exact: Fraction | None
    states: list
    arms: list
    reachable_states: int

    def __len__(self):
        return len(self.arms)


def _evaluate_policy(nxt, wts, policy, h_prev):
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
            eta[root] = sum(gain[x] for x in cycle) / len(cycle)
            h[root] = h_prev[root]
            path = path[:i] + cycle[r + 1:] + cycle[:r]
        for x in reversed(path):  # each node after its successor
            v = succ[x]
            eta[x] = eta[v]
            h[x] = gain[x] - eta[v] + h[v]
    return np.array(eta), np.array(h)


def _improve_policy(nxt, wts, policy, eta, h, tol) -> bool:
    """Switch, in place, every arm that gains more than tol; False when none does.

    Moves toward a larger cycle mean come first; only when there are none
    does a node switch to an edge of equal mean with a larger bias, and only
    when there is none of those either are means within tol taken as equal:
    two float cycles of one mean can differ in the last bit, and exact
    equality alone would hide the edges between them and stop short.
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


def _howard(nxt, wts, policy, h, tol):
    """Multichain Howard policy iteration (Cochet-Terrasson et al. 1998) from `policy`.

    nxt and wts are n x k arrays of successors and weights; float weights
    run in float64, Fraction weights in object arrays, through the same code.
    """
    for _ in range(MAX_POLICY_ITERATIONS):
        eta, h = _evaluate_policy(nxt, wts, policy, h)
        if not _improve_policy(nxt, wts, policy, eta, h, tol):
            return eta, h
    raise RuntimeError(f"policy iteration did not settle in {MAX_POLICY_ITERATIONS} rounds")


def _certify(nxt, wts, eta, h) -> None:
    """Raise unless (eta, h) meet the multichain optimality conditions on every edge.

    eta never rises along an edge, and between nodes of equal eta
    h(u) >= w - eta(u) + h(v). Summed around any cycle, these bound its mean
    by the eta of its nodes, so no cycle reachable from a node beats its eta.
    """
    for u, (row, ws) in enumerate(zip(nxt.tolist(), wts.tolist())):
        for v, w in zip(row, ws):
            if eta[v] > eta[u] or (eta[v] == eta[u] and w - eta[u] + h[v] > h[u]):
                raise RuntimeError(f"optimality certificate fails on edge {u} -> {v}")


def max_mean_cycle(graph: StateGraph) -> OptimalCycle:
    """Maximum mean over all cycles reachable from the start state, with a witness.

    Howard policy iteration in floats from the greedy policy. For an exact
    graph it continues in Fractions from the float policy and certifies the
    result exactly; the witness is the policy cycle the start state runs into.
    """
    n = graph.n_nodes
    nxt = np.array([[v for v, _ in row] for row in graph.succ], np.int64)
    wts = np.array([[float(w) for _, w in row] for row in graph.succ])
    policy = wts.argmax(axis=1)
    eta, h = _howard(nxt, wts, policy, np.zeros(n), max(FLOAT_TOL, 4.0 * n * 1e-16))
    if graph.exact:
        wts = np.array([[Fraction(w) for _, w in row] for row in graph.succ], object)
        eta, h = _howard(nxt, wts, policy, [Fraction(0)] * n, 0)
        _certify(nxt, wts, eta, h)
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
    return OptimalCycle(float(mean), mean if graph.exact else None, states, cyc_arms, n)


def optimal_average(instance: BanditInstance, cap: int = 10**6):
    """Optimal long-run average reward and a witness periodic schedule."""
    graph = build_state_graph(instance, cap=cap)
    cycle = max_mean_cycle(graph)
    rho = cycle.mean_exact if cycle.mean_exact is not None else cycle.mean
    return rho, cycle


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
        ivs = tuple(int(v) for v in self.intervals)
        if not ivs:
            raise ValueError("need at least one service interval")
        if any(v < 1 for v in ivs):
            raise ValueError("service intervals must be positive integers")
        if sum(Fraction(1, v) for v in ivs) > 1:
            raise ValueError("sum of 1/l_i must be at most 1")
        object.__setattr__(self, "intervals", ivs)

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
    arms = [Arm(1, v - 1) for v in pmsp.intervals] + [Arm(0, 1)]
    return BanditInstance(arms, Discount.constant(1), relaxed=True)


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
    """Exhaustive offset search: machine i occupies all t = o_i mod l_i.

    Two machines collide iff their offsets agree modulo gcd(l_i, l_j), so the
    search prunes pairwise. Period is lcm of the intervals, capped.
    """
    ivs = pmsp.intervals
    period = math.lcm(*ivs)
    if period > cap:
        raise ValueError(f"lcm of intervals ({period}) exceeds cap ({cap})")
    order = sorted(range(len(ivs)), key=lambda i: ivs[i])
    chosen: list = []

    def search(pos: int) -> bool:
        if pos == len(order):
            return True
        li = ivs[order[pos]]
        for o in range(li):
            ok = True
            for j in range(pos):
                lj = ivs[order[j]]
                if (o - chosen[j]) % math.gcd(li, lj) == 0:
                    ok = False
                    break
            if ok:
                chosen.append(o)
                if search(pos + 1):
                    return True
                chosen.pop()
        return False

    if not search(0):
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
