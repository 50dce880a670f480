"""UCB1 over the ranking-policy class, with double roll-outs for calibration.

Each selection of cutoff m costs 2m pulls: the first cycle only realigns the
delay vector, the second one feeds the policy's mean estimate. The index is
the classic mean + sqrt(2 ln n / n_m) with n counting selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BanditInstance, Environment, _check_horizon, substream
from .policies import Run

__all__ = ["UcbRun", "run_ucb_rankings", "ucb_index"]


def ucb_index(mean: float, n_m: int, n: int) -> float:
    """UCB1 index; unplayed policies get +inf so every policy is tried once."""
    if n_m == 0:
        return math.inf
    if n < 1:
        raise ValueError("selection count must be >= 1")
    return mean + math.sqrt(2.0 * math.log(n) / n_m)


@dataclass
class UcbRun(Run):
    """Pull log (`env`, with `trace` built on first read) plus selection bookkeeping for one
    UCB-over-rankings run."""

    selections: int
    selection_counts: dict
    means: dict


def run_ucb_rankings(instance: BanditInstance, T: int, seed: int = 0, rng=None) -> UcbRun:
    """Run UCB1 over the cutoff policies for exactly T pulls; cutoff m plays arms 0..m-1.

    Estimation uses only second roll-outs (per-pull mean of the roll-out, a
    [0, 1] value); a truncated final pair still collects reward but never
    updates the estimate. Every pick is the index's: ties break toward the
    lower cutoff, so the unplayed cutoffs (index +inf) go first, in order.

    Every gap in cutoff m's second roll-out is m, whatever came before, so arm j pays
    expected_payoff(instance, j, m) there, read once from the environment's payoff cache: a
    pick counts the hits of its own uniforms against those payoffs and is yielded to the
    run's one `log_blocks` call as it is decided, as if pulled: the uniforms are reserved up
    to T, so logging moves only the clock.
    """
    k = instance.k
    T = _check_horizon(T)
    if rng is None:
        rng = substream(seed, "ucb")
    env = Environment(instance, rng, capacity=max(T, 1))
    u = memoryview(env._u)      # the run's uniforms, reserved up to T
    prefixes, pays = [()], [[]]     # per 1-based cutoff, built at its first pick
    counts, means = [0] * (k + 1), [0.0] * (k + 1)
    n = 0

    def picks():
        nonlocal n
        t = 0
        while t < T:
            # ucb_index(means[c], counts[c], n) for every cutoff, with the log hoisted
            two_ln = 2.0 * math.log(n) if n else 0.0
            best_val = -math.inf
            for c in range(1, k + 1):
                if not counts[c]:
                    m = c       # index +inf: no later cutoff beats it under the strict >
                    break
                val = means[c] + math.sqrt(two_ln / counts[c])
                if val > best_val:
                    best_val = val
                    m = c
            n += 1
            if m == len(pays):      # unplayed cutoffs are picked in order
                prefixes.append(tuple(range(m)))
                pays.append([env._payoff(j, m) for j in range(m)])
            pulls = 2 * m
            if t + pulls <= T:
                hits, i = 0, t + m      # the second roll-out's first pull
                for p in pays[m]:
                    if u[i] < p:
                        hits += 1
                    i += 1
                means[m] = (means[m] * counts[m] + hits / m) / (counts[m] + 1)
                counts[m] += 1
            else:
                pulls = T - t
            yield prefixes[m], pulls, m, m
            t += pulls

    env.log_blocks(picks())
    return UcbRun(
        env,
        n,
        dict(enumerate(counts[1:], 1)),
        dict(enumerate(means[1:], 1)),
    )
