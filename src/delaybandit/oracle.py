"""Exact ground truth for small instances.

The delay vector is a finite sufficient state and pulls are deterministic
transitions, so the optimal long-run average reward is the maximum mean cycle
of the state graph (Karp's recurrence, restricted to states reachable from the
all-zero start). Weights stay exact rationals whenever the instance is exact;
otherwise double precision with a 1e-12 comparison tolerance.

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

from .core import Arm, BanditInstance, Discount, advance_state, expected_payoff, initial_state
from .policies import g_value, orbit

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


@dataclass
class StateGraph:
    """Complete transition graph over delay vectors.

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
    """Enumerate all prod(d_i + 1) states with their deterministic transitions."""
    size = 1
    for a in instance.arms:
        size *= a.d + 1
        if size > cap:
            raise ValueError(f"state space exceeds cap ({cap}); refusing to enumerate")
    ranges = [range(a.d + 1) for a in instance.arms]
    nodes = [()]
    for r in ranges:
        nodes = [s + (tau,) for s in nodes for tau in r]
    index = {s: i for i, s in enumerate(nodes)}
    succ = []
    for s in nodes:
        row = []
        for arm in range(instance.k):
            nxt = advance_state(s, arm, instance)
            row.append((index[nxt], expected_payoff(instance, arm, s[arm])))
        succ.append(row)
    return StateGraph(nodes, index, succ, index[initial_state(instance)], instance.is_exact)


@dataclass
class OptimalCycle:
    """Witness cycle achieving the optimal long-run average.

    mean is always the arithmetic mean of the cycle's edge weights; mean_exact
    carries the same value as a Fraction when the graph was exact.
    """

    mean: float
    mean_exact: Fraction | None
    states: list
    arms: list

    def __len__(self):
        return len(self.arms)


def _reachable(graph: StateGraph) -> list:
    seen = {graph.start}
    frontier = [graph.start]
    while frontier:
        u = frontier.pop()
        for v, _ in graph.succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return sorted(seen)


def _karp_exact(n, in_edges):
    """Max cycle mean via Karp's recurrence with free starts, exact Fractions."""
    zero = Fraction(0)
    D = [[zero] * n]
    for j in range(1, n + 1):
        prev = D[-1]
        row = [None] * n
        for v in range(n):
            best = None
            for u, w in in_edges[v]:
                if prev[u] is not None:
                    cand = prev[u] + w
                    if best is None or cand > best:
                        best = cand
            row[v] = best
        D.append(row)
    lam = None
    final = D[n]
    for v in range(n):
        if final[v] is None:
            continue
        inner = None
        for j in range(n):
            if D[j][v] is None:
                continue
            val = Fraction(final[v] - D[j][v], n - j)
            if inner is None or val < inner:
                inner = val
        if lam is None or inner > lam:
            lam = inner
    return lam


def _karp_float(n, src, dst, w):
    """Same recurrence vectorized over the edge arrays."""
    neg = -np.inf
    D = np.full((n + 1, n), neg)
    D[0] = 0.0
    for j in range(1, n + 1):
        row = np.full(n, neg)
        cand = D[j - 1][src] + w
        np.maximum.at(row, dst, cand)
        D[j] = row
    with np.errstate(invalid="ignore"):
        numer = D[n][None, :] - D[:n, :]
        denom = (n - np.arange(n)).astype(float)[:, None]
        ratios = numer / denom
    ratios[np.isnan(ratios)] = np.inf     # -inf minus -inf: no walk of either length
    ratios[D[:n, :] == neg] = np.inf      # skip lengths that cannot reach v
    inner = ratios.min(axis=0)
    inner[D[n] == neg] = -np.inf          # v unreachable in exactly n steps
    return float(inner.max())


def _find_tight_cycle(n, out_edges, lam, tol):
    """Witness extraction: longest-path potentials under weights w - lam.

    With the maximum shifted cycle mean equal to zero, potentials converge and
    every critical cycle consists of tight edges, so any cycle inside the
    tight subgraph telescopes to mean lam.
    """
    zero = lam * 0  # keeps Fraction vs float arithmetic uniform
    p = [zero] * n
    for _ in range(n + 1):
        changed = False
        for u in range(n):
            base = p[u]
            for v, w, _arm in out_edges[u]:
                cand = base + (w - lam)
                if cand > p[v] + tol:
                    p[v] = cand
                    changed = True
        if not changed:
            break
    tight = [[] for _ in range(n)]
    for u in range(n):
        for v, w, arm in out_edges[u]:
            if p[u] + (w - lam) >= p[v] - tol:
                tight[u].append((v, arm))
    color = [0] * n
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(tight[root]))]
        color[root] = 1
        path = [root]
        arms_path = []
        while stack:
            u, it = stack[-1]
            advanced = False
            for v, arm in it:
                if color[v] == 1:
                    i = path.index(v)
                    return path[i:], arms_path[i:] + [arm]
                if color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    arms_path.append(arm)
                    stack.append((v, iter(tight[v])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                stack.pop()
                path.pop()
                if arms_path:
                    arms_path.pop()
    return None


def max_mean_cycle(graph: StateGraph) -> OptimalCycle:
    """Maximum mean over all cycles reachable from the all-zero start state."""
    reach = _reachable(graph)
    n = len(reach)
    local = {g: i for i, g in enumerate(reach)}
    out_edges = [[] for _ in range(n)]
    in_edges = [[] for _ in range(n)]
    for gi in reach:
        u = local[gi]
        for arm, (gv, w) in enumerate(graph.succ[gi]):
            if gv in local:
                v = local[gv]
                out_edges[u].append((v, w, arm))
                in_edges[v].append((u, w))
    if graph.exact:
        lam = _karp_exact(n, [[(u, Fraction(w)) for u, w in ie] for ie in in_edges])
        lam = Fraction(lam)
        tol = Fraction(0)
    else:
        src = np.array([u for u in range(n) for _ in out_edges[u]], np.int64)
        dst = np.array([v for u in range(n) for v, _, _ in out_edges[u]], np.int64)
        w = np.array([float(wt) for u in range(n) for _, wt, _ in out_edges[u]])
        lam = _karp_float(n, src, dst, w)
        tol = max(FLOAT_TOL, 4.0 * n * 1e-16)
    found = None
    for widen in range(4):
        found = _find_tight_cycle(n, out_edges, lam, tol * (10**widen) if not graph.exact else tol)
        if found is not None:
            break
    if found is None:
        raise RuntimeError("no witness cycle found; graph or tolerance is broken")
    cyc_nodes, cyc_arms = found
    weights = []
    for i, u in enumerate(cyc_nodes):
        arm = cyc_arms[i]
        weights.append(graph.succ[reach[u]][arm][1])
    if graph.exact:
        mean_exact = Fraction(sum(Fraction(x) for x in weights), len(weights))
        if mean_exact != lam:
            raise RuntimeError("witness cycle mean disagrees with Karp value")
        mean = float(mean_exact)
    else:
        mean_exact = None
        mean = float(sum(float(x) for x in weights) / len(weights))
        if abs(mean - lam) > 100 * tol:
            raise RuntimeError("witness cycle mean disagrees with Karp value")
    states = [graph.nodes[reach[u]] for u in cyc_nodes]
    return OptimalCycle(mean, mean_exact, states, cyc_arms)


def optimal_average(instance: BanditInstance, cap: int = 10**6):
    """Optimal long-run average reward and a witness periodic schedule."""
    graph = build_state_graph(instance, cap=cap)
    cycle = max_mean_cycle(graph)
    rho = cycle.mean_exact if cycle.mean_exact is not None else cycle.mean
    return rho, cycle


def _cycle_mean(cycle):
    total = sum(cycle)
    if isinstance(total, (int, Fraction)):
        return Fraction(total, len(cycle))
    return total / len(cycle)


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
