"""Environment for bandits whose arm payoffs depend on time since the last pull.

Each arm i has a baseline mean mu_i in [0, 1] and a delay parameter d_i >= 1.
Pulling the arm again within d_i rounds discounts its mean by a nonincreasing
factor f(tau), where tau counts rounds since the last pull. tau = 0 encodes
"never pulled, or pulled more than d_i rounds ago" and pays the baseline.

All arithmetic preserves the numeric type of the instance parameters: build an
instance from ints/Fractions and payoffs stay exact rationals, which the
oracle module relies on for exact threshold comparisons.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from numbers import Rational
from operator import index

import numpy as np

__all__ = [
    "BanditInstance",
    "Discount",
    "Environment",
    "advance_state",
    "expected_payoff",
    "initial_state",
    "make_instance",
    "substream",
]

# pull_cycles runs a block of at most len(prefix) + _SCALAR_SLACK pulls one by one
_SCALAR_SLACK = 64
# pulls per window wherever a derivation runs over the whole log (`Environment.windows`,
# `pull_cycles`' long tail, the ghost reference), so its memory does not grow with T
_WINDOW_PULLS = 1 << 14


def substream(seed: int, *keys) -> np.random.Generator:
    """Independent generator for (seed, *keys); string keys are hashed stably.

    Results depend only on the values passed, never on call order, so parallel
    replicates stay reproducible.
    """
    entropy = [_check_seed(seed)]
    for key in keys:
        if isinstance(key, str):
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            entropy.append(int.from_bytes(digest, "big"))
        else:
            entropy.append(int(key) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check_seed(seed) -> int:
    """The seed as an int; a seed outside [0, 2**64) would alias another, so it raises."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


# each discount kind and the name of its parameter in `params()` and instance files
_DISCOUNT_PARAMS = {"geometric": "gamma", "constant": "c", "table": "values"}


def _param_name(kind) -> str:
    if not isinstance(kind, str) or kind not in _DISCOUNT_PARAMS:
        raise ValueError(f"unknown discount kind {kind!r}")
    return _DISCOUNT_PARAMS[kind]


def _is_count(x) -> bool:
    # an integer >= 1, possibly as a float or Fraction, but not a bool
    return not isinstance(x, bool) and x >= 1 and x % 1 == 0


def _check_delta(delta) -> None:
    """A confidence level delta must lie in (0, 1); nan fails too."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_horizon(T) -> int:
    """The horizon as an int in [0, 2**63); a negative or fractional one would be coerced and
    a larger one indexes no array, so each raises."""
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if T and not _is_count(T):
        raise ValueError(f"horizon T must be an integer, got {T}")
    if T >= 2**63:
        raise ValueError(f"horizon T must be below 2**63, got {T}")
    return int(T)


@dataclass(frozen=True)
class Discount:
    """Nonincreasing discount factor f(tau) in [0, 1], queried at integer tau >= 1.

    Kinds: geometric(gamma) evaluates gamma**tau lazily; constant(c) is flat;
    table(values) stores f(1), ..., f(n) and extends with f(tau) = f(n) beyond.
    `param` holds gamma, c or the tuple of values.
    """

    kind: str
    param: object

    def __post_init__(self):
        _param_name(self.kind)
        p = self.param
        if self.kind == "geometric" and not 0 < p < 1:
            raise ValueError("geometric discount needs gamma in (0, 1)")
        if self.kind == "constant" and not 0 <= p <= 1:
            raise ValueError("constant discount needs c in [0, 1]")
        if self.kind == "table":
            p = tuple(p)
            object.__setattr__(self, "param", p)
            if not p:
                raise ValueError("table discount needs at least one value")
            if not all(0 <= v <= 1 for v in p):
                raise ValueError("table discount values must lie in [0, 1]")
            if any(b > a for a, b in zip(p, p[1:])):
                raise ValueError("table discount values must be nonincreasing")

    @classmethod
    def geometric(cls, gamma):
        return cls("geometric", gamma)

    @classmethod
    def constant(cls, c):
        return cls("constant", c)

    @classmethod
    def table(cls, values):
        return cls("table", values)

    def __call__(self, tau: int):
        if tau < 1:
            raise ValueError("discount is defined for tau >= 1")
        if self.kind == "geometric":
            return self.param**tau
        if self.kind == "constant":
            return self.param
        return self.param[min(tau, len(self.param)) - 1]

    @property
    def is_exact(self) -> bool:
        values = self.param if self.kind == "table" else (self.param,)
        return all(isinstance(v, Rational) for v in values)

    def params(self) -> dict:
        param = list(self.param) if self.kind == "table" else self.param
        return {"kind": self.kind, _param_name(self.kind): param}


class BanditInstance:
    """Baseline means `mus`, delay parameters `ds` and the shared discount.

    The constructor enforces strictly decreasing baselines. Pass relaxed=True
    to skip that check (ties, zero baselines); the scheduling reduction needs
    it, nothing else should.
    """

    __slots__ = ("mus", "ds", "discount")

    def __init__(self, mus, ds, discount: Discount, *, relaxed: bool = False):
        mus, ds = tuple(mus), tuple(ds)
        if len(mus) != len(ds):
            raise ValueError("mu and d sequences must have equal length")
        if not mus:
            raise ValueError("instance needs at least one arm")
        for mu, d in zip(mus, ds):
            if not 0 <= mu <= 1:
                raise ValueError(f"baseline mean must lie in [0, 1], got {mu}")
            if not _is_count(d):
                raise ValueError(f"delay parameter must be an integer >= 1, got {d}")
        if not relaxed and not all(a > b for a, b in zip(mus, mus[1:])):
            raise ValueError("baselines must be strictly decreasing; "
                             "use relaxed=True only for the scheduling reduction")
        self.mus = mus
        self.ds = tuple(int(d) for d in ds)
        self.discount = discount

    @property
    def k(self) -> int:
        return len(self.mus)

    @property
    def is_exact(self) -> bool:
        return self.discount.is_exact and all(isinstance(mu, Rational) for mu in self.mus)

    def __repr__(self):
        return f"BanditInstance(mus={self.mus!r}, ds={self.ds!r}, discount={self.discount!r})"


make_instance = BanditInstance


def expected_payoff(instance: BanditInstance, arm: int, tau: int):
    """Mean payoff of `arm` pulled `tau` rounds after its previous pull.

    tau = 0 (never pulled / pulled long ago) and tau > d both pay the baseline.
    """
    if not 0 <= arm < instance.k:
        raise IndexError(f"arm index {arm} out of range for k={instance.k}")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if 0 < tau <= instance.ds[arm]:
        return (1 - instance.discount(tau)) * instance.mus[arm]
    return instance.mus[arm]


def initial_state(instance: BanditInstance) -> tuple:
    return (0,) * instance.k


def advance_state(state, pulled: int, instance: BanditInstance) -> tuple:
    """One-round delay-vector update after pulling `pulled`.

    The pulled arm resets to tau = 1; any arm sitting at tau = d wraps to 0
    (its payoff is back at baseline either way); idle arms at 0 stay 0.
    """
    if len(state) != instance.k:
        raise ValueError("state length does not match instance")
    if not 0 <= pulled < instance.k:
        raise IndexError(f"arm index {pulled} out of range")
    for j, (tau, d) in enumerate(zip(state, instance.ds)):
        if not 0 <= tau <= d:
            raise ValueError(f"state component {j} out of range: {tau}")
    aged = _aged(state, instance.ds)
    return aged[:pulled] + (1,) + aged[pulled + 1:]


def _aged(state, ds) -> tuple:
    """The delay vector one round on, before any pull: each running delay grows by one and
    wraps to 0 past d; idle arms at 0 stay 0. The oracle's state graph ages a whole layer
    of delay vectors by this rule in numpy."""
    return tuple(0 if tau == 0 or tau >= d else tau + 1 for tau, d in zip(state, ds))


def _spans(t: int, size: int = 0):
    """[lo, hi) of each window of `size` pulls (default _WINDOW_PULLS) over t pulls, in
    order; one empty window when t = 0."""
    size = size or _WINDOW_PULLS
    return ((lo, min(lo + size, t)) for lo in range(0, max(t, 1), size))


def _running_sums(windows, ts, starts) -> list:
    """Each series' running sum at the 1-based times `ts` (ascending, at most the series'
    length), read window by window: `windows` yields one tuple of equal-length arrays per
    window, a slice of each series, and `starts` holds each sum's start, which also sets its
    dtype. A window's sums continue from the last one's carry, which adds in the same
    sequential order as one `np.cumsum` over the whole series, so the sums are bit-identical
    to it; a float sum starts at -0.0, which leaves every first term as it is, -0.0 too.
    Memory holds one window and the grid.
    """
    idx = np.asarray(ts, np.int64) - 1
    if len(idx) and (idx[0] < 0 or np.any(idx[1:] < idx[:-1])):
        raise ValueError("times must be ascending and at least 1")
    carry = [np.array(s) for s in starts]
    sums = [np.empty(len(idx), c.dtype) for c in carry]
    lo = j = 0
    for series in windows:
        hi = lo + len(series[0])
        stop = int(np.searchsorted(idx, hi))
        at = idx[j:stop] - lo
        for c, (x, out) in enumerate(zip(series, sums)):
            if len(x):
                run = np.cumsum(np.concatenate((carry[c].reshape(1), x)), dtype=out.dtype)[1:]
                out[j:stop] = run[at]
                carry[c] = run[-1]
        lo, j = hi, stop
    if j < len(idx):
        raise ValueError(f"time {idx[j] + 1} is past the series' end at {lo}")
    return sums


class Environment:
    """Sequential sampler over an instance; owns its RNG stream and pull log.

    The log is the block sequence plus the uniforms it consumed: pull t reads uniform t of
    the stream, and from the all-zero start the arms fix every other column, which
    `columns` derives on demand. Every block is logged by `log_blocks`: `pull_cycles` logs
    its block there and then reads the block's reward, and a caller that decides its
    blocks itself logs them in one call (UCB its run, yielded pick by pick). A logged
    block costs a prefix lookup, a row append and the clock move, under 1 us, one rule for
    one block or thousands; the uniform buffer grows as reserving block by block would, and
    a block size or retain_from that is not an integer raises. The log is the only pull
    state: only a retained pull in a block's first cycle reads each arm's last pull off it,
    from its end and no further back than the largest delay (an older pull pays the
    baseline), and no lab path retains one. The realized channel depends only on the
    stream and the pull sequence, not on how pulls are batched.
    """

    def __init__(self, instance: BanditInstance, rng: np.random.Generator,
                 capacity: int = 1024):
        self.instance = instance
        self.k = instance.k
        self._rng = rng
        self._ds, self._dmax = instance.ds, max(instance.ds)
        self.t = 0
        self._u = rng.random(max(int(capacity), 16))   # uniform t is pull t's
        # per arm, tau -> float payoff for each (arm, tau) pair read so far: the pull loop,
        # `windows` and UCB read payoffs only through `_payoff`, so a run costs one
        # `expected_payoff` call per pair it reads, however large d is
        self._pay = [{} for _ in range(self.k)]
        self._cycle_ids: dict = {}     # each distinct prefix, numbered by first use
        self._blocks = array("q")      # per block: n, cycle id, policy, retain_from

    # -- uniform variate stream -------------------------------------------

    def _reserve(self, upto: int):
        have = len(self._u)
        if upto > have:
            grown = np.empty(max(upto, 2 * have))
            grown[:have] = self._u
            self._rng.random(out=grown[have:])
            self._u = grown

    def _payoff(self, arm: int, tau: int) -> float:
        # the arm's expected payoff at delay tau as a float, computed at the pair's first read
        pay = self._pay[arm]
        p = pay.get(tau)
        if p is None:
            p = pay[tau] = float(expected_payoff(self.instance, arm, tau))
        return p

    def _uniform(self) -> float:
        # the next pull's uniform (reserved by the caller); the clock moves on
        u = self._u[self.t]
        self.t += 1
        return u

    # -- state views -------------------------------------------------------

    def delay_state(self) -> tuple:
        """Capped delay vector: rounds since each arm's last pull, 0 past its delay. Nothing
        in the lab calls it; it stays only because perfbench/tracer.py patches it (ROADMAP
        item 1)."""
        last = self._last_pulls(self.t - self._dmax)
        return tuple(self._row(arm, self.t, at)[0] for arm, at in enumerate(last))

    def _last_pulls(self, since: int = 0) -> list:
        # each arm's latest pull at or after `since` (None if none), read off the log from its
        # end: a block's last min(n, len(prefix)) pulls hold its last pull of each arm it pulls
        found, prefixes, log, end = {}, list(self._cycle_ids), self._blocks, self.t
        for b in range(len(log) - 4, -1, -4):
            if len(found) == self.k or end <= since:
                break
            n, prefix = log[b], prefixes[log[b + 1]]
            end -= n
            for i in range(n - 1, max(n - len(prefix), since - end, 0) - 1, -1):
                found.setdefault(prefix[i % len(prefix)], end + i)
        return list(map(found.get, range(self.k)))

    def _row(self, arm: int, t: int, last) -> tuple:
        # capped tau at time t since the arm's last pull at `last` (None if none), and its
        # expected payoff from the cache
        tau = t - last if last is not None and t - last <= self._ds[arm] else 0
        return tau, self._payoff(arm, tau)

    # -- pulling -----------------------------------------------------------

    def pull(self, arm: int, policy: int = -1, retained: bool = True) -> tuple[float, int]:
        """A block of one through `pull_cycles`. Nothing in the lab calls it; it stays
        only because perfbench/tracer.py patches it (ROADMAP item 1)."""
        return self.pull_cycles((arm,), 1, policy, retain_from=0 if retained else 1)

    def log_blocks(self, blocks) -> None:
        """Log decided blocks, each (prefix, n, policy, retain_from) with a tuple prefix, in
        order and exactly as `pull_cycles` logs its own block, but compute no reward:
        `columns` derives the realized channel from the uniforms. `blocks` is any iterable,
        consumed one block at a time, so a generator may decide each block once the blocks
        before it are logged (UCB's run is one).

        Per block: a new prefix is checked and numbered, the block is appended (none for
        n <= 0 pulls; retain_from clipped to [0, n]) and the clock moves to the block's end;
        the uniform buffer grows only when the clock passes its end, to the size reserving
        block by block would give. A logged block costs one prefix lookup, one row append
        and the clock move, under 1 us. A bad prefix, or an n or retain_from that is not an
        integer (2.7 pulls is an error, not 2), raises before its block is logged, as does
        an error raised by the iterable itself; the blocks before it stay logged and the
        clock stands at their end.
        """
        ids, log, k = self._cycle_ids, self._blocks, self.k
        extend, t, have = log.extend, self.t, len(self._u)
        try:
            for prefix, n, policy, retain_from in blocks:
                cycle = ids.get(prefix)
                if cycle is None:
                    if not prefix:
                        raise ValueError("prefix must be nonempty")
                    if not all(0 <= a < k for a in prefix):
                        raise IndexError(f"prefix {prefix} has an arm out of range for k={k}")
                    cycle = ids[prefix] = len(ids)
                if n > 0:
                    # the array rejects a non-integer field; a clipped one is checked first
                    extend((n, cycle, policy, retain_from if 0 <= retain_from <= n
                            else n if index(retain_from) > n else 0))
                    t += n
                    if t > have:
                        self._reserve(t)
                        have = len(self._u)
                else:   # skipped, but its sizes must be integers all the same
                    index(n), index(retain_from)
        except BaseException:
            del log[len(log) - len(log) % 4:]   # a row cut short by a non-integer field
            raise
        finally:
            self.t = int(t)     # a Python int, whatever integer type the sizes had

    def pull_cycles(self, prefix, n_pulls: int, policy: int = -1,
                    retain_from: int = 0) -> tuple[float, int]:
        """Pull n_pulls rounds cycling over `prefix`, in order.

        The call is logged as one block by `log_blocks`; pulls with index >= retain_from
        are flagged retained, and the return is the realized-reward sum and count over
        them. Any cycle works, repeated arms included. One loop runs the block pull by pull:
        all of it if it has at most len(prefix) + 64 pulls, else at most its first two
        cycles. A payoff depends only on the gap since the arm's last pull, so every later
        position pays what it pays in the second cycle, which the tail tiles. Only a retained
        first-cycle pull reads the log before the block (`_last_pulls`): each later gap lies
        inside it, and a pull that is not retained reads no payoff unless the tail tiles it.
        In the loop and the tail alike, pull t reads uniform t of the stream.
        """
        prefix = tuple(prefix)
        m, t0 = len(prefix), self.t
        last = self._last_pulls(t0 - self._dmax) if retain_from < m else [None] * self.k
        self.log_blocks(((prefix, n_pulls, policy, retain_from),))
        n = self.t - t0
        rf = self._blocks[-1] if n else 0
        if rf == n:     # nothing retained, so no reward to read
            return 0.0, 0
        loop = n if n <= m + _SCALAR_SLACK else min(n, 2 * m)
        read = min(rf, m) if loop < n else rf   # the tiled tail needs the second cycle's payoffs
        self.t = t0     # the reward pass replays the logged block; `_uniform` moves the clock on
        ret_sum, pay = 0, []
        for i in range(loop):
            arm = prefix[i % m]
            u = self._uniform()
            if i >= read:
                pay.append(self._row(arm, t0 + i, last[arm])[1])
                if i >= rf and u < pay[-1]:
                    ret_sum += 1
            last[arm] = t0 + i
        if loop < n:
            # position i >= 2m pays the second cycle's pay[i % m]; the retained tail is counted a
            # window at a time against one window's worth of tiled payoffs
            lo, us = max(rf, loop), self._u[t0:t0 + n]
            pay = np.resize(pay[-m:], min(n - lo, _WINDOW_PULLS) + m)
            for a, b in _spans(n - lo):
                a, b = a + lo, b + lo
                ret_sum += int(np.count_nonzero(us[a:b] < pay[a % m:a % m + b - a]))
            self.t = t0 + n
        return float(ret_sum), n - rf

    def switches(self) -> int:
        """Policy-id changes between consecutive pulls, counted off the blocks: a block holds
        one policy id and `log_blocks` logs no empty block, so a switch is a change between
        consecutive blocks."""
        policy = np.frombuffer(self._blocks, np.int64)[2::4]
        return int(np.count_nonzero(policy[1:] != policy[:-1]))

    def columns(self) -> dict:
        """The seven pull-log columns of the whole log: `windows` with one window."""
        return next(self.windows(max(self.t, 1)))

    def windows(self, size: int = 0):
        """The seven pull-log columns, derived from the blocks and uniforms one window of
        `size` pulls (default _WINDOW_PULLS) at a time, as dicts in pull order.

        A window expands the blocks it meets (found by a binary search over their ends)
        into arms, policy ids and retained flags; gap is t minus the arm's previous
        position (-1 at its first pull), carried across windows as each arm's last pull;
        tau is the gap capped at d (0 past it or at a first pull); expected is a gather
        from a lookup of the arm's distinct taus in the window, filled from the payoff cache
        the pull loop reads; realized is u[t] < expected[t]. Memory holds one window, an
        arm's lookup up to its largest tau there, and the blocks' ends (8 B a block) besides
        the cache's pairs. The windows cover the log as it stands when the first one is made.
        """
        t, k = self.t, self.k
        ends = np.cumsum(np.frombuffer(self._blocks, np.int64)[::4])
        cycles = list(self._cycle_ids)
        sizes = np.array([len(c) for c in cycles], np.int64)
        offsets = np.cumsum(sizes) - sizes
        flat = np.array([a for c in cycles for a in c], np.int32)
        last = [-1] * k             # each arm's last pull before the window
        for lo, hi in _spans(t, size):
            b0 = int(np.searchsorted(ends, lo, "right"))
            b1 = int(np.searchsorted(ends, hi - 1, "right")) + 1 if hi > lo else b0
            rows = np.frombuffer(self._blocks[4 * b0:4 * b1], np.int64).reshape(-1, 4)
            n, cycle, policy, rf = rows.T
            start = ends[b0:b1] - n
            seg = np.minimum(ends[b0:b1], hi) - np.maximum(start, lo)   # its pulls in the window
            i = np.arange(lo, hi) - np.repeat(start, seg)   # index within the block
            retained = i >= np.repeat(rf, seg)
            i %= np.repeat(sizes[cycle], seg)
            i += np.repeat(offsets[cycle], seg)
            arms = flat[i]
            del i
            gaps = np.empty(hi - lo, np.int64)
            taus = np.empty(hi - lo, np.int32)
            expected = np.empty(hi - lo)
            for a in range(k):
                pos = np.flatnonzero(arms == a)
                if not len(pos):
                    continue
                gap = np.empty(len(pos), np.int64)
                gap[1:] = np.diff(pos)
                gap[0] = lo + pos[0] - last[a] if last[a] >= 0 else -1
                last[a] = lo + int(pos[-1])
                gaps[pos] = gap
                gap[(gap < 0) | (gap > self._ds[a])] = 0     # now the capped tau
                taus[pos] = gap
                seen = np.flatnonzero(np.bincount(gap))   # the window's distinct taus
                pay = np.empty(seen[-1] + 1)
                pay[seen] = [self._payoff(a, tau) for tau in seen.tolist()]
                expected[pos] = pay[gap]
            yield {
                "arms": arms,
                "taus": taus,
                "gaps": gaps,
                "expected": expected,
                "realized": (self._u[lo:hi] < expected).astype(np.int8),
                "policy": np.repeat(policy.astype(np.int32), seg),
                "retained": retained,
            }
