"""UCB1 over the ranking-policy class, with double roll-outs for calibration.

Each selection of cutoff m costs 2m pulls: the first cycle only realigns the
delay vector, the second one feeds the policy's mean estimate. The index is
the classic mean + sqrt(2 ln n / n_m) with n counting selections.

A selection scores only the cutoffs that can still win. An unpicked cutoff's
index only grows with n, so its index at n + 64 bounds it for the next 64
selections; cutoffs whose bound falls short of the runner-up's index are set
aside until a full scan of every cutoff rebuilds the bounds. The picks are
exactly those of scoring every cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BanditInstance, Environment, _check_horizon, substream
from .policies import Run

__all__ = ["UcbRun", "run_ucb_rankings", "ucb_index"]

_BOUND_SELECTIONS = 64      # selections a full scan's index bounds hold for


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

    A full scan scores every cutoff, as `ucb_index` does, and takes each cutoff's index at
    lim = n + _BOUND_SELECTIONS as its bound. The "near" cutoffs are those whose bound
    reaches the runner-up's index; `far` is the largest bound of the rest. Until n passes
    lim, a selection scores only the near cutoffs and keeps their best if its index beats
    `far` strictly; otherwise it makes a full scan. This is exact. A cutoff's count and mean
    change only when it is picked, and until then its index at n <= lim is at most its
    bound: log(n) < log(lim) by far more than log's rounding error, and division, sqrt and
    addition round correctly, so they keep that order. A full scan's pick and runner-up are
    near, so a far cutoff is picked only by a full scan, which rebuilds the bounds. A strict
    win over `far` leaves every tie among the near cutoffs, scored in order under the same
    strict >.
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
        lim, near, far = 0, (), -math.inf     # no bounds yet: the first scored pick is a full scan
        while t < T:
            if len(pays) <= k:      # warm-up: the unplayed cutoffs (index +inf) go first, in order
                m = len(pays)
            else:
                # ucb_index(means[c], counts[c], n), with the log hoisted, for the near cutoffs
                two_ln = 2.0 * math.log(n)
                best_val = -math.inf
                if n <= lim:
                    for c in near:
                        val = means[c] + math.sqrt(two_ln / counts[c])
                        if val > best_val:
                            best_val = val
                            m = c
                if best_val <= far:     # a far cutoff may tie or win, or the bounds ran out
                    vals = [means[c] + math.sqrt(two_ln / counts[c]) for c in range(1, k + 1)]
                    m = vals.index(max(vals)) + 1
                    vals[m - 1] = -math.inf
                    runner_up = max(vals)
                    lim = n + _BOUND_SELECTIONS
                    two_ln_lim = 2.0 * math.log(lim)
                    near, far = [], -math.inf
                    for c in range(1, k + 1):
                        bound = means[c] + math.sqrt(two_ln_lim / counts[c])
                        if bound >= runner_up:
                            near.append(c)
                        elif bound > far:
                            far = bound
            n += 1
            if m == len(pays):
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
