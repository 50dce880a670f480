"""Ranking policies, the greedy rule, per-cutoff values g(m), orbits, and rollouts.

The ranking policy with cutoff m cycles deterministically over the m best
arms (baseline order). g(m) is its steady per-pull expected reward; the best
cutoff r_star defines the reference ("ghost") policy used for regret. Both
shipped policies are block rules policy(state) -> arms. `orbit` plays any
such rule from the all-zero state until its delay state repeats; rollouts,
the ghost reference and the oracle's periodic values are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .core import (BanditInstance, Environment, _check_horizon, advance_state, expected_payoff,
                   initial_state)

__all__ = [
    "GhostSummary",
    "GreedyPolicy",
    "PolicyTrace",
    "RankingPolicy",
    "g_value",
    "ghost_summary",
    "greedy_arm",
    "orbit",
    "rollout",
]


@dataclass(frozen=True)
class RankingPolicy:
    """Block rule of the cutoff-m ranking policy: arms 0..m-1, whatever the state."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("cutoff must be >= 1")

    def __call__(self, state) -> tuple:
        return tuple(range(self.m))


def greedy_arm(instance: BanditInstance, state) -> int:
    """Arm with the highest expected payoff at the current delays, lowest index on ties."""
    best = 0
    best_val = expected_payoff(instance, 0, state[0])
    for i in range(1, instance.k):
        val = expected_payoff(instance, i, state[i])
        if val > best_val:
            best = i
            best_val = val
    return best


class GreedyPolicy:
    """Delay-vector feedback rule as a block of one: the currently best-looking arm."""

    def __init__(self, instance: BanditInstance):
        self.instance = instance

    def __call__(self, state) -> tuple:
        return (greedy_arm(self.instance, state),)


def g_value(instance: BanditInstance, m: int):
    """Steady per-pull expected reward of the cutoff-m ranking policy.

    In steady state every arm in the cycle is pulled exactly m rounds after
    its previous pull, so g(m) = (1/m) * sum_{j<m} payoff(j, m). Exact when
    the instance is exact.
    """
    if not 1 <= m <= instance.k:
        raise ValueError(f"cutoff {m} out of range for k={instance.k}")
    return _cycle_mean([expected_payoff(instance, j, m) for j in range(m)])


def _cycle_mean(values):
    # mean of a cycle's payoffs: a Fraction when the sum is exact, else a float
    total = sum(values)
    if isinstance(total, Rational):
        return Fraction(total, len(values))
    return total / len(values)


def orbit(instance: BanditInstance, block, *, arms: bool = False,
          limit: float = float("inf")) -> tuple[list, list]:
    """Expected payoffs of playing block(state) -> arms from the all-zero state.

    Blocks are played until a delay state at a block boundary repeats; from
    then on the play is periodic. Returns (prefix, cycle): the payoffs
    before the periodic part and those of one period, exact for exact
    instances. With arms=True both lists hold the arms played instead. Play
    also stops at the first block boundary at or past `limit` pulls; then
    the prefix is all that was played and the cycle is empty.
    """
    state = initial_state(instance)
    seen = {}
    played = []
    while state not in seen:
        seen[state] = len(played)
        for arm in block(state):
            played.append(arm if arms else expected_payoff(instance, arm, state[arm]))
            state = advance_state(state, arm, instance)
        if len(played) >= limit:
            return played, []
    start = seen[state]
    return played[:start], played[start:]


@dataclass(frozen=True)
class GhostSummary:
    """All g(m) values plus the best cutoff and the approximation index r_zero."""

    g_values: tuple
    r_star: int
    r_zero: int

    def to_dict(self) -> dict:
        return {
            "g": [float(g) for g in self.g_values],
            "r_star": self.r_star,
            "r_zero": self.r_zero,
        }


def ghost_summary(instance: BanditInstance) -> GhostSummary:
    """Compute every g(m), the lowest maximizer r_star, and r_zero.

    r_zero is the largest r such that for every i = 2..r the i-th baseline
    beats every discounted replay of an earlier arm at distance i-j; it is 1
    as soon as the i = 2 condition fails (and for k = 1).
    """
    k = instance.k
    gs = tuple(g_value(instance, m) for m in range(1, k + 1))
    r_star = 1
    for m in range(2, k + 1):
        if gs[m - 1] > gs[r_star - 1]:
            r_star = m
    r_zero = 1
    for i in range(2, k + 1):
        best_replay = max(expected_payoff(instance, j - 1, i - j) for j in range(1, i))
        if instance.mus[i - 1] > best_replay:
            r_zero = i
        else:
            break
    return GhostSummary(gs, r_star, r_zero)


@dataclass
class PolicyTrace:
    """Columnar pull log: expectation and realized channels plus policy ids.

    `policy` holds the ranking-policy cutoff executing each pull (-1 when not
    applicable); `retained` marks pulls that fed a learner's estimates.
    """

    arms: np.ndarray
    taus: np.ndarray
    gaps: np.ndarray
    expected: np.ndarray
    realized: np.ndarray
    policy: np.ndarray
    retained: np.ndarray

    @classmethod
    def from_env(cls, env: Environment) -> "PolicyTrace":
        return cls(**env.columns())

    def __len__(self) -> int:
        return len(self.arms)

    @cached_property
    def cum_expected(self) -> np.ndarray:
        return np.cumsum(self.expected)

    @cached_property
    def cum_realized(self) -> np.ndarray:
        return np.cumsum(self.realized.astype(np.int64))

    @cached_property
    def cum_switches(self) -> np.ndarray:
        """Policy-id changes up to each pull (the first pull never counts)."""
        flags = np.zeros(len(self), np.int64)
        flags[1:] = self.policy[1:] != self.policy[:-1]
        return np.cumsum(flags)

    @property
    def total_switches(self) -> int:
        return int(self.cum_switches[-1]) if len(self) else 0


def rollout(instance: BanditInstance, policy, horizon: int, rng: np.random.Generator,
            policy_id: int = -1) -> PolicyTrace:
    """Play the block rule policy(state) -> arms for `horizon` pulls from the all-zero state.

    The rule sees the delay state alone, so its whole play is decided up front:
    its orbit, played no further than the horizon, as the prefix and then the
    cycle tiled, logged by one `log_blocks` call. Deterministic given (instance,
    policy, horizon, stream state); the trace records both channels at every
    pull and equals pulling the same arms one at a time, bit for bit.
    """
    horizon = _check_horizon(horizon)
    head, cycle = orbit(instance, policy, arms=True, limit=horizon)
    blocks = [(tuple(head), min(len(head), horizon), policy_id, 0)]
    if cycle:
        blocks.append((tuple(cycle), horizon - len(head), policy_id, 0))
    env = Environment(instance, rng, capacity=max(horizon, 1))
    env.log_blocks(blocks)
    return PolicyTrace.from_env(env)
