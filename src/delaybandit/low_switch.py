"""Staged action elimination over the ranking-policy class with few switches.

Stage s plays every surviving cutoff m for ceil(T_s / (m * |A_s|)) + 1 plays
of m pulls each, discards the first play of each visit (it only realigns the
delay vector), estimates g(m) from the rest, and drops every cutoff whose
estimate falls more than 2 C_s below the best. Stage sizes grow doubly
exponentially, so the number of stages -- and hence policy switches -- stays
O(k ln ln T) no matter the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BanditInstance, Environment, _check_delta, _check_horizon, substream
from .policies import Run

__all__ = [
    "LowSwitchRun",
    "StageRecord",
    "StageSchedule",
    "plays_per_policy",
    "run_pi_low",
    "stage_schedule",
]


@dataclass(frozen=True)
class StageSchedule:
    """Precomputed stage sizes T_s and confidence radii C_s for a horizon."""

    horizon: int
    k: int
    delta: float
    sizes: tuple
    radii: tuple

    @property
    def num_stages(self) -> int:
        return len(self.sizes)

    def to_dict(self) -> dict:
        return {
            "T": self.horizon,
            "k": self.k,
            "delta": self.delta,
            "T_s": list(self.sizes),
            "C_s": list(self.radii),
            "S": self.num_stages,
        }


def stage_schedule(k: int, T: int, delta: float) -> StageSchedule:
    """Sizes T_s = ceil(T^(1 - 2^-s)); stop at the first S with sum(k + T_s) >= T.

    T_s is the least integer x with x^(2^s) >= T^(2^s - 1): s nested integer
    ceiling square roots of T^(2^s - 1), exact at every horizon. The stage
    count uses k as the active-set size (its upper bound), so the whole
    schedule, including the radii C_s = sqrt(k/(2 T_s) ln(2kS/delta)), is
    fixed before any data is seen.
    """
    if k < 1 or T < k:
        raise ValueError(f"need horizon T >= k >= 1 arms, got T={T}, k={k}")
    T = _check_horizon(T)
    _check_delta(delta)
    sizes = []
    total = 0
    while total < T:
        s = len(sizes) + 1
        ts = T ** (2**s - 1)
        for _ in range(s):
            ts = math.isqrt(ts - 1) + 1  # ceil(sqrt(ts))
        sizes.append(ts)
        total += k + ts
    S = len(sizes)
    radii = tuple(math.sqrt(k / (2.0 * ts) * math.log(2.0 * k * S / delta)) for ts in sizes)
    return StageSchedule(T, k, delta, tuple(sizes), radii)


def plays_per_policy(stage_size: int, m: int, active_count: int) -> int:
    """ceil(T_s / (m |A_s|)) + 1; the extra play is the calibration play."""
    if stage_size < 1 or m < 1 or active_count < 1:
        raise ValueError("all arguments must be positive")
    return -(-stage_size // (m * active_count)) + 1


@dataclass
class StageRecord:
    """What one stage saw: plays per cutoff, estimates, and the elimination."""

    stage: int
    active: tuple
    plays: dict
    pulls: dict
    estimates: dict
    best: int | None
    eliminated: tuple
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "active": list(self.active),
            "plays": {str(m): v for m, v in self.plays.items()},
            "pulls": {str(m): v for m, v in self.pulls.items()},
            "estimates": {str(m): float(v) for m, v in self.estimates.items()},
            "best": self.best,
            "eliminated": list(self.eliminated),
            "truncated": self.truncated,
        }


@dataclass
class LowSwitchRun(Run):
    """Full run output: pull log (`env`, with `trace` built on first read), per-stage
    records, survivors and the exploitation tail's length."""

    schedule: StageSchedule
    stages: list
    survivors: tuple
    tail_pulls: int


def run_pi_low(instance: BanditInstance, T: int, delta: float, seed: int = 0,
               rng=None) -> LowSwitchRun:
    """Run the low-switch learner for exactly T pulls on a fresh environment.

    Cutoff m plays arms 0..m-1. Budget accounting counts every pull
    including calibration; the in-progress stage is truncated when T is hit,
    and any budget left after the last scheduled stage replays the final
    empirical best (the exploitation tail, excluded from estimates).
    """
    k = instance.k
    sched = stage_schedule(k, T, delta)
    if rng is None:
        rng = substream(seed, "pi_low")
    env = Environment(instance, rng, capacity=T)
    active = list(range(1, k + 1))
    records: list[StageRecord] = []
    for s, (ts, cs) in enumerate(zip(sched.sizes, sched.radii), 1):
        if env.t >= T:
            break
        plays = {m: plays_per_policy(ts, m, len(active)) for m in active}
        pulls: dict = {}
        estimates: dict = {}
        for m in active:
            n = min(plays[m] * m, T - env.t)
            if n == 0:
                break
            ret_sum, ret_n = env.pull_cycles(range(m), n, policy=m, retain_from=m)
            pulls[m] = n
            if ret_n > 0:
                estimates[m] = ret_sum / ret_n
        truncated = any(pulls.get(m, 0) < plays[m] * m for m in active)
        best, eliminated = None, ()
        if not truncated:
            best = min(estimates, key=lambda m: (-estimates[m], m))
            eliminated = tuple(m for m in active if estimates[m] < estimates[best] - 2 * cs)
        records.append(StageRecord(s, tuple(active), plays, pulls, estimates, best,
                                   eliminated, truncated))
        active = [m for m in active if m not in eliminated]
    tail = 0
    if env.t < T:
        # budget left after the final scheduled stage, which finished: exploit its best
        best = records[-1].best
        tail = T - env.t
        env.pull_cycles(range(best), tail, policy=best, retain_from=tail)
    return LowSwitchRun(env, sched, records, tuple(active), tail)
