"""Learn the descending-baseline order of the arms by action elimination.

Every round samples each still-active arm once. An arm leaves the active set
as soon as its empirical mean is separated by more than twice the confidence
radius from every other active arm's mean, on the correct side. The learned
order is one sort of per-arm elimination keys.

The rounds run in epochs between eliminations. A sampler hands out a chunk of
rounds over the current active set at once, one row of samples per round.
`rank_arms` builds the chunk's running means in numpy, finds the rounds where
some arm could leave with a slightly smaller radius, confirms the first one
that really eliminates with the scalar rule, and tells the sampler how many
rounds it used. Rounds handed out but not used are never consumed.

Both samplers read their rounds straight off a generator: a round is a list of
blocks, as `Environment.log_blocks` takes them, its samples are the retained
pulls, and pull t reads uniform t of the stream. For delay-dependent
environments the rounds are calibrated: arms are grouped into cycles of length
d0 > max_i d_i and each cycle is pulled twice, keeping only the second pass, so
every kept sample is an unbiased draw of the baseline. A plain stochastic
bandit's round is one block that pulls each active arm once, all retained.
Either way, until an arm leaves every round pulls the same arm sequence and
each kept sample is u[t] < mu, so a chunk's samples are read off its uniforms
at the kept offsets, and no pull is logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BanditInstance, _check_delta

__all__ = [
    "RankingOutcome",
    "calibrated_sample_round",
    "calibrated_sampler",
    "epsilon_r",
    "iid_bernoulli_sampler",
    "rank_arms",
]

# a sampler hands out about this many pulls' worth of rounds at once; chunks of 2^13 pulls
# were about 8% faster but left the stepwise benchmark's peak RSS 2.7 MB higher in some
# checkouts
_CHUNK_PULLS = 1 << 11
_EPS_SLACK = 1 - 1e-9      # numpy's log may exceed math.log by an ulp; the slack covers it


def epsilon_r(k: int, r: int, delta: float) -> float:
    """Confidence radius after r sampling rounds: sqrt(ln(2 k r (r+1) / delta) / (2r))."""
    if k < 2:
        raise ValueError("need at least two arms")
    if r < 1:
        raise ValueError("round index must be >= 1")
    _check_delta(delta)
    return math.sqrt(math.log(2.0 * k * r * (r + 1) / delta) / (2.0 * r))


def _slack_radii(k: int, r: np.ndarray, delta: float) -> np.ndarray:
    """`epsilon_r` at each round in r (floats) in numpy, shrunk to lie at or below it."""
    return np.sqrt(np.log(2.0 * k * r * (r + 1) / delta) / (2.0 * r)) * _EPS_SLACK


def _separable_rows(means: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Rows (rounds) of `means` in which some arm's neighbours in sorted order lie more than
    2 eps away on each side (a missing neighbour counts as separated)."""
    a = np.sort(means, axis=1)
    two = 2 * eps[:, None]
    edge = np.ones((len(a), 1), bool)
    above = np.hstack([a[:, 1:] > a[:, :-1] + two, edge])
    below = np.hstack([edge, a[:, :-1] < a[:, 1:] - two])
    return np.flatnonzero((above & below).any(axis=1))


@dataclass
class RankingOutcome:
    """Permutation (best arm first) and elimination bookkeeping."""

    permutation: tuple
    rounds: int
    pulls: int
    elimination_round: dict
    complete: bool
    means: dict = field(default_factory=dict)


def _eliminate(active: list, means: dict, eps: float, r: int, key: list, elim_round: dict):
    """Round r's scalar elimination pass over `active`, in descending mean order.

    An arm leaves when its neighbours among the still-active arms lie more than 2 eps away
    on each side; a missing neighbour counts as separated, so the extreme arms are
    removable too. Sorting ties break on the original arm index. An elimination extends
    the keys as `rank_arms` describes.
    """
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


def rank_arms(sampler, k: int, delta: float, pull_cap: int = 10**7) -> RankingOutcome:
    """Run the elimination until at most one arm stays active (or the cap hits).

    `sampler(active, rounds) -> (samples, pulls_per_round, take)` hands out up to `rounds`
    rounds over the active arms: `samples` has one row per round (at least one), each an
    unbiased [0, 1] sample per active arm in the order of `active`; a round costs
    `pulls_per_round` pulls; `take(n)` consumes the first n rows and no others.

    The rounds run in epochs. Before an arm leaves in a round, `_eliminate`'s test is the
    plain neighbour check on the round's sorted means, so a chunk's rounds are screened at
    once in numpy with radii shrunk by a relative 1e-9, at or below `epsilon_r`, so no
    eliminating round is missed. The candidate rounds then run the scalar pass with
    `epsilon_r`, in order; the first that eliminates ends the epoch, and only the rounds up
    to it are taken.
    The permutation is one sort of elimination keys. A key starts empty; an
    elimination appends 1 to the eliminated arm's key, and 0 (mean above) or
    2 (otherwise) to every still-active arm that shared it, so arms sort as
    the eliminations split them, then by final mean and index. A capped run
    (complete=False) orders its still-active arms by their current means.
    The cap is checked before each round, so a run can end up to one round
    past it; `pulls` is the true count. An eliminated arm's mean covers the
    rounds up to its elimination. k, delta and the cap are checked before any pull.
    """
    if k < 2:
        raise ValueError("need at least two arms")
    if pull_cap < 1:
        raise ValueError(f"pull cap must be >= 1, got {pull_cap}")
    _check_delta(delta)
    active = list(range(k))
    sums = [0.0] * k
    key = [()] * k                        # 0 above, 1 at, 2 below each elimination
    elim_round: dict = {i: None for i in range(k)}
    pulls = 0
    r = 0
    while len(active) > 1 and pulls < pull_cap:
        arms, left = list(active), pull_cap - pulls
        samples, per_round, take = sampler(arms, -(-left // len(arms)))
        n = min(len(samples), -(-left // max(per_round, 1)))   # the rounds the cap allows
        cum = np.cumsum(np.vstack([[sums[i] for i in arms], samples[:n]]), axis=0)[1:]
        rs = np.arange(r + 1, r + n + 1, dtype=float)
        means = cum / rs[:, None]
        for j in _separable_rows(means, _slack_radii(k, rs, delta)).tolist():
            row = dict(zip(arms, means[j].tolist()))
            _eliminate(active, row, epsilon_r(k, r + j + 1, delta), r + j + 1, key, elim_round)
            if len(active) < len(arms):
                n = j + 1
                break
        for i, s in zip(arms, cum[n - 1].tolist()):
            sums[i] = s
        take(n)
        r += n
        pulls += n * per_round
    complete = len(active) <= 1
    final_means = {i: sums[i] / (elim_round[i] or r) for i in range(k)}
    perm = tuple(sorted(range(k), key=lambda a: (key[a], -final_means[a], a)))
    return RankingOutcome(perm, r, pulls, elim_round, complete, final_means)


def _sampler(rng: np.random.Generator, mus, round_blocks):
    """A sampler whose round over `active` is the blocks `round_blocks(active)`, each
    (prefix, n, policy, retain_from) as `Environment.log_blocks` takes them; block by block,
    pulls retain_from to n - 1 are the round's retained pulls, which must take each active
    arm once, in the order of `active`.

    A call plans the round (once per active set) and reads up to `rounds` rounds' samples
    off the uniforms of `rng`: a retained pull pays its arm's baseline, so its sample is
    u[t] < mu. It holds only the uniforms drawn ahead and not yet taken, and draws just the
    rest of the chunk; `take(n)` drops n rounds of them. `Generator.random` gives the same
    doubles however the calls are split, so pull t reads uniform t of the stream however
    the rounds are chunked.
    """
    plan = None     # the last active set, its round's length, kept offsets and payoffs
    ahead = np.empty(0)

    def take(n):
        nonlocal ahead
        ahead = ahead[n * plan[1]:]

    def sampler(active, rounds):
        nonlocal plan, ahead
        if plan is None or plan[0] != active:
            offsets, kept, t = [], [], 0
            for prefix, n, _, retain_from in round_blocks(active):
                offsets += range(t + retain_from, t + n)
                kept += (prefix[i % len(prefix)] for i in range(retain_from, n))
                t += n
            if kept != list(active):
                raise RuntimeError(f"a round over {list(active)} retains pulls of {kept}")
            plan = list(active), t, offsets, np.array([float(mus[a]) for a in active])
        _, length, offsets, pay = plan
        need = max(1, min(rounds, _CHUNK_PULLS // length)) * length
        if need > len(ahead):
            more = rng.random(need - len(ahead))
            ahead = np.concatenate((ahead, more)) if len(ahead) else more
        u = ahead[:need].reshape(-1, length)[:, offsets]
        return (u < pay).astype(float), length, take

    return sampler


def iid_bernoulli_sampler(mus, rng: np.random.Generator):
    """Plain stochastic-bandit sampler: one Bernoulli(mu_i) draw per active arm and round.

    `_sampler` with a round of one block that pulls each active arm once, all retained.
    Pull t reads uniform t, so rounds are drawn row-major and the stream is the same however
    rounds are chunked. A mu outside [0, 1] raises before any draw."""
    mus = tuple(mus)
    for mu in mus:
        if not 0 <= mu <= 1:
            raise ValueError(f"baseline mean must lie in [0, 1], got {mu}")
    return _sampler(rng, mus, lambda active: [(tuple(active), len(active), -1, 0)])


def _round_plan(instance: BanditInstance, active: list, d0: int) -> list:
    """One calibrated round over `active`, as `log_blocks` blocks.

    Active arms are split into groups of exactly d0 slots; a group's block pulls its cycle
    (the group, then padding) once, discarded, then the group again, retained, so every kept
    sample is taken d0 > max_i d_i rounds after the arm's previous pull; a second block then
    pulls the padding, discarded. Deficient groups are padded with removed arms first
    (repeats are fine, their samples are dropped), then with actives from earlier groups.
    If no padding pool exists at all (fewer arms than d0, nothing removed yet), each arm gets
    a block of d0 filler pulls cycling over the other arms, discarded, then a block of the
    arm alone, retained, which keeps the sample unbiased at a gap > d0.
    """
    if not active:
        raise ValueError("need at least one active arm")
    if instance.k < 2:      # a round needs another arm to fill a calibration gap with
        raise ValueError("need at least two arms")
    if d0 <= max(instance.ds):
        raise ValueError("d0 must exceed every delay parameter")
    removed = sorted(set(range(instance.k)) - set(active))
    blocks = []
    if len(active) < d0 and not removed:
        for x in active:
            others = tuple(a for a in range(instance.k) if a != x)
            blocks += [(others, d0, -1, d0), ((x,), 1, -1, 0)]
        return blocks
    for start in range(0, len(active), d0):
        group = tuple(active[start:start + d0])
        pool = removed + active[:start]   # only the last group can fall short
        padding = tuple(pool[j % len(pool)] for j in range(d0 - len(group)))
        blocks.append((group + padding + group, d0 + len(group), -1, d0))
        if padding:
            blocks.append((padding, len(padding), -1, len(padding)))
    return blocks


def calibrated_sampler(instance: BanditInstance, rng: np.random.Generator, d0: int):
    """Adapter so rank_arms can run against a delay environment: `_sampler` over the
    instance's baselines and the uniforms of `rng`, each round planned by `_round_plan`."""
    return _sampler(rng, instance.mus, lambda active: _round_plan(instance, active, d0))


def calibrated_sample_round(instance: BanditInstance, rng: np.random.Generator, active_arms,
                            d0: int):
    """One unbiased baseline sample per active arm from a delay environment, pulled.

    The one-round case of `calibrated_sampler` (see `_round_plan`): it reads the round's
    uniforms off `rng`, no more, and returns the samples by arm, in the order of
    `active_arms`, and the round's pull count.
    """
    active = list(active_arms)
    samples, pulls, take = calibrated_sampler(instance, rng, d0)(active, 1)
    take(1)
    return dict(zip(active, samples[0].tolist())), pulls
