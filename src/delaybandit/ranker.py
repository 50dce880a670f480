"""Learn the descending-baseline order of the arms by action elimination.

Every round samples each still-active arm once. An arm leaves the active set
as soon as its empirical mean is separated by more than twice the confidence
radius from every other active arm's mean, on the correct side. The learned
order is one sort of per-arm elimination keys.

For delay-dependent environments the per-round samples come from a calibrated
wrapper: arms are grouped into cycles of length d0 > max_i d_i and each cycle
is pulled twice, keeping only the second pass, so every kept sample is an
unbiased draw of the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Environment

__all__ = [
    "GapProfile",
    "RankingOutcome",
    "calibrated_sample_round",
    "calibrated_sampler",
    "epsilon_r",
    "gap_profile",
    "iid_bernoulli_sampler",
    "predicted_pull_budget",
    "rank_arms",
]


def epsilon_r(k: int, r: int, delta: float) -> float:
    """Confidence radius after r sampling rounds: sqrt(ln(2 k r (r+1) / delta) / (2r))."""
    if k < 2:
        raise ValueError("need at least two arms")
    if r < 1:
        raise ValueError("round index must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 * k * r * (r + 1) / delta) / (2.0 * r))


@dataclass
class RankingOutcome:
    """Permutation (best arm first) and elimination bookkeeping."""

    permutation: tuple
    rounds: int
    pulls: int
    elimination_round: dict
    complete: bool
    means: dict = field(default_factory=dict)


def rank_arms(sampler, k: int, delta: float, pull_cap: int = 10**7) -> RankingOutcome:
    """Run the elimination until at most one arm stays active (or the cap hits).

    `sampler(active) -> (samples, pulls_used)` must return one unbiased [0, 1]
    sample per active arm. An arm is separated when its neighbours in the
    mean order of the still-active arms lie more than 2 eps away on each
    side; a missing neighbour counts as separated, so the extreme arms are
    removable too. Sorting ties break on the original arm index.
    The permutation is one sort of elimination keys. A key starts empty; an
    elimination appends 1 to the eliminated arm's key, and 0 (mean above) or
    2 (otherwise) to every still-active arm that shared it, so arms sort as
    the eliminations split them, then by final mean and index. A capped run
    (complete=False) orders its still-active arms by their current means.
    """
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
    final_means = {i: sums[i] / r for i in range(k)}
    perm = tuple(sorted(range(k), key=lambda a: (key[a], -final_means[a], a)))
    return RankingOutcome(perm, r, pulls, elim_round, complete, final_means)


def iid_bernoulli_sampler(mus, rng: np.random.Generator):
    """Plain stochastic-bandit sampler: one Bernoulli(mu_i) draw per active arm."""
    mus = [float(m) for m in mus]

    def sampler(active):
        us = rng.random(len(active))
        samples = {a: float(us[j] < mus[a]) for j, a in enumerate(active)}
        return samples, len(active)

    return sampler


def calibrated_sample_round(env: Environment, active_arms, d0: int):
    """One unbiased baseline sample per active arm from a delay environment.

    The round is a list of (calibration cycle, kept arms, padding) entries,
    pulled in one loop: the calibration cycle once, discarded, then one kept
    pull per kept arm, then the padding, discarded. Active arms are split into
    groups of exactly d0 slots, so every kept sample is taken d0 > max_i d_i
    rounds after the arm's previous pull. Deficient groups are padded with
    removed arms first (repeats are fine, their samples are dropped), then
    with actives from earlier groups. If no padding pool exists at all (fewer
    arms than d0, nothing removed yet), each arm is its own entry after d0
    filler pulls of other arms, which keeps the sample unbiased at a gap > d0.
    """
    active = list(active_arms)
    if not active:
        raise ValueError("need at least one active arm")
    if d0 <= max(env.instance.ds):
        raise ValueError("d0 must exceed every delay parameter")
    removed = sorted(set(range(env.k)) - set(active))
    entries = []
    if len(active) < d0 and not removed:
        for x in active:
            others = [a for a in range(env.k) if a != x]
            entries.append(([others[j % len(others)] for j in range(d0)], [x], []))
    else:
        for start in range(0, len(active), d0):
            group = active[start:start + d0]
            pool = removed + active[:start]   # only the last group can fall short
            padding = [pool[j % len(pool)] for j in range(d0 - len(group))]
            entries.append((group + padding, group, padding))
    t0 = env.t
    samples: dict = {}
    for cycle, kept, padding in entries:
        env.pull_cycles(cycle, d0, retain_from=d0)
        for arm in kept:
            samples[arm] = env.pull_cycles((arm,), 1)[0]
        if padding:
            env.pull_cycles(padding, len(padding), retain_from=len(padding))
    return samples, env.t - t0


def calibrated_sampler(env: Environment, d0: int):
    """Adapter so rank_arms can run against a delay environment."""

    def sampler(active):
        return calibrated_sample_round(env, active, d0)

    return sampler


@dataclass(frozen=True)
class GapProfile:
    """Pairwise baseline gaps and the adjacent-gap vector driving sample cost."""

    mus: tuple
    adjacent: tuple

    def pairwise(self, i: int, j: int):
        return self.mus[i] - self.mus[j]


def gap_profile(mus) -> GapProfile:
    """Adjacent gaps: each arm's distance to its closest ordered neighbor."""
    mus = tuple(mus)
    k = len(mus)
    if k < 2:
        raise ValueError("need at least two arms")
    for a, b in zip(mus, mus[1:]):
        if not a > b:
            raise ValueError("baselines must be strictly decreasing")
    adj = []
    for i in range(k):
        if i == 0:
            adj.append(mus[0] - mus[1])
        elif i == k - 1:
            adj.append(mus[k - 2] - mus[k - 1])
        else:
            adj.append(min(mus[i - 1] - mus[i], mus[i] - mus[i + 1]))
    return GapProfile(mus, tuple(adj))


def predicted_pull_budget(profile: GapProfile, delta: float) -> float:
    """Order-of-magnitude pull estimate: sum_i (1/gap_i^2) ln(1/(delta gap_i)).

    Diagnostic only; acceptance checks use it for scaling, never control flow.
    """
    return float(sum((1.0 / g**2) * math.log(1.0 / (delta * g)) for g in profile.adjacent))
