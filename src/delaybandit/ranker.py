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

Both samplers read their rounds off an `Environment`: a round is a list of
blocks, its samples are the retained pulls. A plain stochastic bandit is a
delay bandit whose discount is 0, with one all-retained block per round. For
delay-dependent environments the rounds are calibrated: arms are grouped into
cycles of length d0 > max_i d_i and each cycle is pulled twice, keeping only
the second pass, so every kept sample is an unbiased draw of the baseline.
Either way, until an arm leaves every round pulls the same arm sequence and
each kept sample is u[t] < mu, so a chunk reads its samples off the uniform
buffer and logs its rounds as one round's blocks repeated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BanditInstance, Discount, Environment, _check_delta

__all__ = [
    "RankingOutcome",
    "baseline_pulls",
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
        # free the chunk before its rounds are logged, so the log can grow in place rather
        # than move past the chunk's arrays and leave a hole in the heap
        del samples, cum, rs, means
        take(n)
        r += n
        pulls += n * per_round
    complete = len(active) <= 1
    final_means = {i: sums[i] / (elim_round[i] or r) for i in range(k)}
    perm = tuple(sorted(range(k), key=lambda a: (key[a], -final_means[a], a)))
    return RankingOutcome(perm, r, pulls, elim_round, complete, final_means)


def _sampler(env: Environment, round_blocks):
    """A sampler over `env` whose round over `active` is the `log_blocks` blocks
    `round_blocks(active)`; block by block, pulls retain_from to n - 1 are the round's
    retained pulls, which must take each active arm once, in the order of `active`.

    A call plans the round (once per active set), reads up to `rounds` rounds' samples
    straight off the uniform buffer, and logs nothing; `take(n)` logs the round's blocks n
    times over. A retained pull pays its arm's baseline, so its sample is u[t] < mu. A chunk
    stays within the reserved buffer when a round fits there, so the buffer grows when, and
    as far as, pulling round by round grows it.
    """
    plan = None     # the last active set, its blocks, length, kept offsets and their payoffs

    def sampler(active, rounds):
        nonlocal plan
        if plan is None or plan[0] != active:
            blocks, offsets, kept, t = round_blocks(active), [], [], 0
            for prefix, n, _, retain_from in blocks:
                offsets += range(t + retain_from, t + n)
                kept += (prefix[i % len(prefix)] for i in range(retain_from, n))
                t += n
            if kept != list(active):
                raise RuntimeError(f"a round over {list(active)} retains pulls of {kept}")
            pay = np.array([float(env.instance.mus[a]) for a in active])
            plan = list(active), blocks, t, offsets, pay
        _, blocks, length, offsets, pay = plan
        t = env.t
        rounds = max(1, min(rounds, _CHUNK_PULLS // length, (len(env._u) - t) // length))
        env._reserve(t + rounds * length)
        u = env._u[t:t + rounds * length].reshape(rounds, length)[:, offsets]
        return (u < pay).astype(float), length, lambda n: env.log_blocks(blocks, repeat=n)

    return sampler


def iid_bernoulli_sampler(mus, rng: np.random.Generator):
    """Plain stochastic-bandit sampler: one Bernoulli(mu_i) draw per active arm and round.

    A plain bandit is a delay bandit whose discount is 0, so this is the calibrated
    sampler's path over such an environment, with a round of one block that pulls each
    active arm once, all retained. Pull t reads uniform t, so rounds are drawn row-major
    and the stream is the same however rounds are chunked. A mu outside [0, 1] raises
    before any draw."""
    mus = tuple(mus)
    inst = BanditInstance(mus, (1,) * len(mus), Discount.constant(0), relaxed=True)
    return _sampler(Environment(inst, rng), lambda active: [(tuple(active), len(active), -1, 0)])


def _round_plan(instance: BanditInstance, active: list, d0: int) -> list:
    """One calibrated round over `active`, as `log_blocks` blocks.

    Active arms are split into groups of exactly d0 slots; a group's block pulls its cycle
    (the group, then padding) once, discarded, then the group again, retained, so every kept
    sample is taken d0 > max_i d_i rounds after the arm's previous pull; a second block then
    pulls the padding, discarded. Deficient groups are padded with removed arms first
    (repeats are fine, their samples are dropped), then with actives from earlier groups.
    If no padding pool exists at all (fewer arms than d0, nothing removed yet), each arm's
    block is d0 filler pulls of other arms, then the arm, retained, which keeps the sample
    unbiased at a gap > d0.
    """
    if not active:
        raise ValueError("need at least one active arm")
    if d0 <= max(instance.ds):
        raise ValueError("d0 must exceed every delay parameter")
    removed = sorted(set(range(instance.k)) - set(active))
    blocks = []
    if len(active) < d0 and not removed:
        for x in active:
            others = [a for a in range(instance.k) if a != x]
            fillers = tuple(others[j % len(others)] for j in range(d0))
            blocks.append((fillers + (x,), d0 + 1, -1, d0))
        return blocks
    for start in range(0, len(active), d0):
        group = tuple(active[start:start + d0])
        pool = removed + active[:start]   # only the last group can fall short
        padding = tuple(pool[j % len(pool)] for j in range(d0 - len(group)))
        blocks.append((group + padding + group, d0 + len(group), -1, d0))
        if padding:
            blocks.append((padding, len(padding), -1, len(padding)))
    return blocks


def calibrated_sampler(env: Environment, d0: int):
    """Adapter so rank_arms can run against a delay environment: `_sampler` over `env`,
    each round planned by `_round_plan`."""
    return _sampler(env, lambda active: _round_plan(env.instance, active, d0))


def baseline_pulls(instance: BanditInstance, d0: int, delta: float, pull_cap: int) -> int:
    """The pulls `rank_arms` over `calibrated_sampler(env, d0)` makes on `instance` if every
    running mean sits on its arm's baseline, at most `pull_cap`: an arm leaves at the first
    round r at which 2 `epsilon_r` falls below its gap to each active neighbour, and until
    then every round costs its `_round_plan`'s pulls. `rank` sizes its uniform buffer by
    it, so the buffer follows the pulls a call makes rather than doubling its way there.
    Inputs `rank_arms` or the sampler reject give 0."""
    if not 0 < delta < 1 or d0 <= max(instance.ds):
        return 0
    k, mus = instance.k, instance.mus
    active = sorted(range(k), key=lambda a: (-mus[a], a))
    r = pulls = 0
    while len(active) > 1 and pulls < pull_cap:
        gaps = [min(mus[active[j - 1]] - mus[a] if j else math.inf,
                    mus[a] - mus[active[j + 1]] if j + 1 < len(active) else math.inf)
                for j, a in enumerate(active)]
        widest = float(max(gaps))
        if widest <= 0:
            return pull_cap
        lo, hi = r, max(2 * r, 1)   # the least round past r with 2 eps below the widest gap
        while 2 * epsilon_r(k, hi, delta) >= widest:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if 2 * epsilon_r(k, mid, delta) < widest else (mid, hi)
        pulls += (hi - r) * sum(block[1] for block in _round_plan(instance, sorted(active), d0))
        r, eps = hi, epsilon_r(k, hi, delta)
        active = [a for a, gap in zip(active, gaps) if gap <= 2 * eps]
    return min(pulls, pull_cap)


def calibrated_sample_round(env: Environment, active_arms, d0: int):
    """One unbiased baseline sample per active arm from a delay environment, pulled.

    The one-round case of `calibrated_sampler` (see `_round_plan`): returns the samples by
    arm, in the order of `active_arms`, and the round's pull count.
    """
    active = list(active_arms)
    samples, pulls, take = calibrated_sampler(env, d0)(active, 1)
    take(1)
    return dict(zip(active, samples[0].tolist())), pulls
