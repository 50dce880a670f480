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


def _check_horizon(T) -> int:
    """The horizon as an int, 0 allowed; a negative or fractional one would be coerced, so it
    raises."""
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if T and not _is_count(T):
        raise ValueError(f"horizon T must be an integer, got {T}")
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
    wraps to 0 past d; idle arms at 0 stay 0."""
    return tuple(0 if tau == 0 or tau >= d else tau + 1 for tau, d in zip(state, ds))


class Environment:
    """Sequential sampler over an instance; owns its RNG stream and pull log.

    The log is the block sequence plus the uniforms it consumed: pull t reads
    uniform t of the stream, and from the all-zero start the arms fix every
    other column, which `columns` derives on demand. Every block is logged by
    `log_blocks`: `pull_cycles` logs its block there and then reads the block's
    reward, and a caller that decided its blocks already logs them all in one
    call (UCB its run, the ranker a chunk of equal rounds as one round's blocks
    repeated). Per-arm last-pull times make a pull cost O(1) regardless of k.
    The realized channel depends only on the stream and the pull sequence, not
    on how pulls are batched.
    """

    def __init__(self, instance: BanditInstance, rng: np.random.Generator,
                 capacity: int = 1024):
        self.instance = instance
        self.k = instance.k
        self._rng = rng
        self._ds = instance.ds
        self.t = 0
        self._last: list = [None] * self.k
        self._u = rng.random(max(int(capacity), 16))   # uniform t is pull t's
        # payoff lookup per arm over capped tau = 0..min(d, len(_u)), plain lists for
        # the scalar path; a gap never exceeds the pulls made, so _reserve extends the
        # rows as the buffer grows
        self._ptable: list = [[] for _ in range(self.k)]
        self._extend_ptable()
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
            self._extend_ptable()

    def _extend_ptable(self):
        for i, row in enumerate(self._ptable):
            top = min(self._ds[i], len(self._u))
            row.extend(float(expected_payoff(self.instance, i, tau))
                       for tau in range(len(row), top + 1))

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
        return tuple(self._row(arm, self.t, self._last[arm])[0] for arm in range(self.k))

    def _row(self, arm: int, t: int, last) -> tuple:
        # capped tau at time t since the arm's last pull at `last` (None if none), and its
        # expected payoff
        tau = t - last if last is not None and t - last <= self._ds[arm] else 0
        return tau, self._ptable[arm][tau]

    # -- pulling -----------------------------------------------------------

    def pull(self, arm: int, policy: int = -1, retained: bool = True) -> tuple[float, int]:
        """A block of one through `pull_cycles`. Nothing in the lab calls it; it stays
        only because perfbench/tracer.py patches it (ROADMAP item 1)."""
        return self.pull_cycles((arm,), 1, policy, retain_from=0 if retained else 1)

    def log_blocks(self, blocks, repeat: int = 1) -> None:
        """Log decided blocks, each (prefix, n, policy, retain_from) with a tuple prefix, in
        order and exactly as `pull_cycles` logs its own block, but compute no reward:
        `columns` derives the realized channel from the uniforms.

        Per block: a new prefix is checked and numbered, the buffer is reserved, the block
        is appended (none for n <= 0 pulls; retain_from clipped to [0, n]), and the clock
        and each pulled arm's last-pull time move to the block's end; a block shorter than
        its prefix sets only the arms it pulls. A bad prefix raises before its block is
        logged, as it would in `pull_cycles`.

        `repeat` logs the whole list that many times, as `blocks * repeat` would: the first
        copy as above, each further copy as the same rows, L pulls later, where L is the
        copy's length. So the clock and the last pulls of the arms the copy pulls move on
        by (repeat - 1) L.
        """
        ids, log, last = self._cycle_ids, self._blocks, self._last
        t0, start = self.t, len(log)
        for prefix, n, policy, retain_from in blocks:
            cycle = ids.get(prefix)
            if cycle is None:
                if not prefix:
                    raise ValueError("prefix must be nonempty")
                if not all(0 <= a < self.k for a in prefix):
                    raise IndexError(f"prefix {prefix} has an arm out of range for k={self.k}")
                cycle = ids[prefix] = len(ids)
            n = int(n)
            if n <= 0:
                continue
            t = self.t
            self._reserve(t + n)
            rf = int(retain_from)
            log.extend((n, cycle, policy, 0 if rf < 0 else n if rf > n else rf))
            m = len(prefix)
            if n < m:
                prefix = prefix[:n]
            elif n % m:     # the last m pulls hold every arm's final pull: the prefix rotated
                prefix = prefix[n % m:] + prefix[:n % m]
            for i, arm in enumerate(prefix, t + n - len(prefix)):
                last[arm] = i
            self.t = t + n
        if repeat > 1:
            rows, shift = log[start:], (repeat - 1) * (self.t - t0)
            self._reserve(self.t + shift)
            for _ in range(repeat - 1):
                log.extend(rows)
            for arm, i in enumerate(last):
                if i is not None and i >= t0:
                    last[arm] = i + shift
            self.t += shift

    def pull_cycles(self, prefix, n_pulls: int, policy: int = -1,
                    retain_from: int = 0) -> tuple[float, int]:
        """Pull n_pulls rounds cycling over `prefix`, in order.

        The call is logged as one block by `log_blocks`; pulls with index >= retain_from
        are flagged retained, and the return is the realized-reward sum and count over
        them. Any cycle works, repeated arms included. Short blocks (at most
        len(prefix) + 64 pulls) run pull by pull. A longer block runs its first cycle pull
        by pull too; a payoff depends only on the gap since the arm's last pull, so from
        the second cycle on every position pays what it pays in the second cycle, whose
        payoffs `_row` computes and the tail tiles. Either way pull t reads uniform t of
        the stream.
        """
        prefix = tuple(prefix)
        t0, last = self.t, self._last[:]    # the block's gaps count from the pulls before it
        self.log_blocks(((prefix, n_pulls, policy, retain_from),))
        n = self.t - t0
        rf = self._blocks[-1] if n else 0
        if rf == n:     # nothing retained, so no reward to read
            return 0.0, 0
        m = len(prefix)
        head = n if n <= m + _SCALAR_SLACK else m
        self.t = t0     # the reward pass replays the logged block; `_uniform` moves the clock on
        ret_sum = 0
        for i in range(head):
            arm = prefix[i % m]
            u = self._uniform()
            if i >= rf and u < self._row(arm, t0 + i, last[arm])[1]:
                ret_sum += 1
            last[arm] = t0 + i
        if head < n:
            pay = []
            for i in range(m, 2 * m):      # the second cycle, possibly past the block's end
                arm = prefix[i - m]
                pay.append(self._row(arm, t0 + i, last[arm])[1])
                last[arm] = t0 + i
            lo = max(rf, m)
            pay = np.resize(np.roll(pay, -lo), n - lo)
            ret_sum += int(np.count_nonzero(self._u[t0 + lo:t0 + n] < pay))
            self.t = t0 + n
        return float(ret_sum), n - rf

    def steady_hits(self, prefixes, n: int) -> list:
        """Retained hits of each prefix's pulled pair of cycles, by start time, without pulling.

        One row per prefix, of length n: entry t counts the pulls of the second of two
        cycles over the prefix started at t (pulls t + m to t + 2m - 1, m = len(prefix))
        whose uniform falls below its payoff, which is the retained reward sum of
        `pull_cycles(prefix, 2 * m, retain_from=m)` at t. Entries whose pair would end past
        pull n - 1 hold 0. Valid for a cycle of distinct arms: every gap in the second cycle
        is then m, whatever came before t, so arm prefix[j] pays what `_row` gives at gap m,
        and the count is fixed by the uniforms.
        """
        self._reserve(n)
        # a row per prefix, not one 2-D table: in fig2 runs the single table left glibc's
        # heap about 1 MB larger at peak than separate rows did
        hits = [np.zeros(n, np.min_scalar_type(len(prefix))) for prefix in prefixes]
        hit = np.empty(n, bool)     # one comparison row, reused
        for row, prefix in zip(hits, prefixes):
            m = len(prefix)
            size = n - 2 * m + 1
            if size <= 0:
                continue
            for j, arm in enumerate(prefix):
                np.less(self._u[m + j:m + j + size], self._row(arm, m, 0)[1], out=hit[:size])
                row[:size] += hit[:size]
        return hits

    def columns(self) -> dict:
        """The seven pull-log columns, derived from the blocks and uniforms in one pass.

        Arms, policy ids and retained flags expand the blocks; gap is t minus
        the arm's previous position (-1 at its first pull); tau is the gap
        capped at d (0 past it or at a first pull); expected is a payoff-table
        gather; realized is u[t] < expected[t].
        """
        t = self.t
        n, cycle, policy, rf = np.array(self._blocks, np.int64).reshape(-1, 4).T
        cycles = list(self._cycle_ids)
        size = np.array([len(c) for c in cycles], np.int32)
        flat = np.array([a for c in cycles for a in c], np.int32)
        block = np.repeat(np.arange(len(n), dtype=np.int32), n)
        i = np.arange(t, dtype=np.int32)    # pull time, then index within the block
        i -= (np.cumsum(n) - n).astype(np.int32)[block]
        retained = i >= rf.astype(np.int32)[block]
        i %= size[cycle][block]
        i += (np.cumsum(size) - size).astype(np.int32)[cycle][block]
        arms = flat[i]
        del i, block
        gaps = np.full(t, -1, np.int64)
        for a in range(self.k):
            pos = np.flatnonzero(arms == a)
            gaps[pos[1:]] = np.diff(pos)
        taus = gaps.astype(np.int32)
        taus[taus > np.array(self._ds, np.int32)[arms]] = 0
        np.maximum(taus, 0, out=taus)
        table = np.zeros((self.k, max(map(len, self._ptable))))
        for a, row in enumerate(self._ptable):
            table[a, :len(row)] = row
        expected = table[arms, taus]
        return {
            "arms": arms,
            "taus": taus,
            "gaps": gaps,
            "expected": expected,
            "realized": (self._u[:t] < expected).astype(np.int8),
            "policy": np.repeat(policy.astype(np.int32), n),
            "retained": retained,
        }
