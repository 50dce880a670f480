"""UCB1 over the ranking-policy class, with double roll-outs for calibration.

Each selection of cutoff m costs 2m pulls: the first cycle only realigns the
delay vector, the second one feeds the policy's mean estimate. The index is
the classic mean + sqrt(2 ln n / n_m) with n counting selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BanditInstance, Environment, substream
from .policies import PolicyTrace

__all__ = ["UcbRun", "run_ucb_rankings", "ucb_index"]


def ucb_index(mean: float, n_m: int, n: int) -> float:
    """UCB1 index; unplayed policies get +inf so every policy is tried once."""
    if n_m == 0:
        return math.inf
    if n < 1:
        raise ValueError("selection count must be >= 1")
    return mean + math.sqrt(2.0 * math.log(n) / n_m)


@dataclass
class UcbRun:
    """Trace plus selection bookkeeping for one UCB-over-rankings run."""

    trace: PolicyTrace
    selections: int
    selection_counts: dict
    means: dict

    @property
    def total_switches(self) -> int:
        return self.trace.total_switches


def run_ucb_rankings(instance: BanditInstance, T: int, seed: int = 0, rng=None) -> UcbRun:
    """Run UCB1 over the cutoff policies for exactly T pulls; cutoff m plays arms 0..m-1.

    Estimation uses only second roll-outs (per-pull mean of the roll-out, a
    [0, 1] value); a truncated final pair still collects reward but never
    updates the estimate. Every pick is the index's: ties break toward the
    lower cutoff, so the unplayed cutoffs (index +inf) go first, in order.
    """
    k = instance.k
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if rng is None:
        rng = substream(seed, "ucb")
    env = Environment(instance, rng, capacity=max(T, 1))
    arms = tuple(range(k))   # a slice per selection costs less than tuple(range(m))
    counts = [0] * (k + 1)   # 1-based cutoffs
    means = [0.0] * (k + 1)
    n = 0
    while env.t < T:
        best_val = -math.inf
        for c in range(1, k + 1):
            val = ucb_index(means[c], counts[c], n)
            if val > best_val:
                best_val = val
                m = c
        target = 2 * m
        pulls = min(target, T - env.t)
        ret_sum, ret_n = env.pull_cycles(arms[:m], pulls, policy=m, retain_from=m)
        n += 1
        if pulls == target:
            value = ret_sum / m
            means[m] = (means[m] * counts[m] + value) / (counts[m] + 1)
            counts[m] += 1
    trace = PolicyTrace.from_env(env)
    return UcbRun(
        trace,
        n,
        {m: counts[m] for m in range(1, k + 1)},
        {m: means[m] for m in range(1, k + 1)},
    )
