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
from fractions import Fraction
from numbers import Rational

import numpy as np

__all__ = [
    "Arm",
    "BanditInstance",
    "Discount",
    "Environment",
    "advance_state",
    "expected_payoff",
    "initial_state",
    "make_instance",
    "substream",
]

Number = int | float | Fraction

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


class Discount:
    """Nonincreasing discount factor f(tau) in [0, 1], queried at integer tau >= 1.

    Kinds: geometric(gamma) evaluates gamma**tau lazily; constant(c) is flat;
    table(values) stores f(1), ..., f(n) and extends with f(tau) = f(n) beyond.
    """

    __slots__ = ("kind", "gamma", "c", "values")

    def __init__(self, kind, *, gamma=None, c=None, values=None):
        self.kind = kind
        self.gamma = gamma
        self.c = c
        self.values = tuple(values) if values is not None else None
        if kind == "geometric":
            if gamma is None or not 0 < gamma < 1:
                raise ValueError("geometric discount needs gamma in (0, 1)")
        elif kind == "constant":
            if c is None or not 0 <= c <= 1:
                raise ValueError("constant discount needs c in [0, 1]")
        elif kind == "table":
            if not self.values:
                raise ValueError("table discount needs at least one value")
            for v in self.values:
                if not 0 <= v <= 1:
                    raise ValueError("table discount values must lie in [0, 1]")
            for a, b in zip(self.values, self.values[1:]):
                if b > a:
                    raise ValueError("table discount values must be nonincreasing")
        else:
            raise ValueError(f"unknown discount kind {kind!r}")

    @classmethod
    def geometric(cls, gamma):
        return cls("geometric", gamma=gamma)

    @classmethod
    def constant(cls, c):
        return cls("constant", c=c)

    @classmethod
    def table(cls, values):
        return cls("table", values=values)

    def __call__(self, tau: int):
        if tau < 1:
            raise ValueError("discount is defined for tau >= 1")
        if self.kind == "geometric":
            return self.gamma**tau
        if self.kind == "constant":
            return self.c
        return self.values[min(tau, len(self.values)) - 1]

    @property
    def is_exact(self) -> bool:
        if self.kind == "geometric":
            return isinstance(self.gamma, Rational)
        if self.kind == "constant":
            return isinstance(self.c, Rational)
        return all(isinstance(v, Rational) for v in self.values)

    def params(self) -> dict:
        if self.kind == "geometric":
            return {"kind": "geometric", "gamma": self.gamma}
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        return {"kind": "table", "values": list(self.values)}

    def __eq__(self, other):
        return isinstance(other, Discount) and self.params() == other.params()

    def __repr__(self):
        return f"Discount({self.params()!r})"


@dataclass(frozen=True)
class Arm:
    """Baseline mean and delay parameter of one arm."""

    mu: Number
    d: int

    def __post_init__(self):
        if not 0 <= self.mu <= 1:
            raise ValueError(f"baseline mean must lie in [0, 1], got {self.mu}")
        if isinstance(self.d, bool) or not (self.d >= 1 and self.d % 1 == 0):
            raise ValueError(f"delay parameter must be an integer >= 1, got {self.d}")
        object.__setattr__(self, "d", int(self.d))


class BanditInstance:
    """Ordered arm list plus the shared discount function.

    The ordinary constructor enforces strictly decreasing baselines. Pass
    relaxed=True to skip that check (ties, zero baselines); the scheduling
    reduction needs it, nothing else should.
    """

    __slots__ = ("arms", "discount", "relaxed")

    def __init__(self, arms, discount: Discount, *, relaxed: bool = False):
        arms = tuple(arms)
        if not arms:
            raise ValueError("instance needs at least one arm")
        for arm in arms:
            if not isinstance(arm, Arm):
                raise TypeError("arms must be Arm values")
        if not relaxed:
            for a, b in zip(arms, arms[1:]):
                if not a.mu > b.mu:
                    raise ValueError(
                        "baselines must be strictly decreasing; "
                        "use relaxed=True only for the scheduling reduction"
                    )
        self.arms = arms
        self.discount = discount
        self.relaxed = relaxed

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def mus(self) -> tuple:
        return tuple(a.mu for a in self.arms)

    @property
    def ds(self) -> tuple:
        return tuple(a.d for a in self.arms)

    @property
    def is_exact(self) -> bool:
        return self.discount.is_exact and all(isinstance(a.mu, Rational) for a in self.arms)

    def __repr__(self):
        return f"BanditInstance(mus={self.mus!r}, ds={self.ds!r}, discount={self.discount!r})"


def make_instance(mus, ds, discount: Discount, *, relaxed: bool = False) -> BanditInstance:
    """Build an instance from parallel mu/d sequences."""
    mus = list(mus)
    ds = list(ds)
    if len(mus) != len(ds):
        raise ValueError("mu and d sequences must have equal length")
    return BanditInstance([Arm(m, d) for m, d in zip(mus, ds)], discount, relaxed=relaxed)


def expected_payoff(instance: BanditInstance, arm: int, tau: int):
    """Mean payoff of `arm` pulled `tau` rounds after its previous pull.

    tau = 0 (never pulled / pulled long ago) and tau > d both pay the baseline.
    """
    if not 0 <= arm < instance.k:
        raise IndexError(f"arm index {arm} out of range for k={instance.k}")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    a = instance.arms[arm]
    if 0 < tau <= a.d:
        return (1 - instance.discount(tau)) * a.mu
    return a.mu


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
    nxt = []
    for j, (tau, arm) in enumerate(zip(state, instance.arms)):
        if not 0 <= tau <= arm.d:
            raise ValueError(f"state component {j} out of range: {tau}")
        if j == pulled:
            nxt.append(1)
        elif tau == 0 or tau >= arm.d:
            nxt.append(0)
        else:
            nxt.append(tau + 1)
    return tuple(nxt)


class Environment:
    """Sequential sampler over an instance; owns its RNG stream and pull log.

    The log is the block sequence plus the uniforms it consumed: pull t reads
    uniform t of the stream, and from the all-zero start the arms fix every
    other column, which `columns` derives on demand. Every pull runs through
    `pull_cycles`. Per-arm last-pull times make a pull cost O(1) regardless of
    k. The realized channel depends only on the stream and the pull sequence,
    not on how pulls are batched.
    """

    def __init__(self, instance: BanditInstance, rng: np.random.Generator,
                 capacity: int = 1024):
        self.instance = instance
        self.k = instance.k
        self._rng = rng
        self._ds = [a.d for a in instance.arms]
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
        return tuple(self._row(arm, self.t)[0] for arm in range(self.k))

    def _row(self, arm: int, t: int) -> tuple:
        # capped tau at time t since the arm's last pull (0 if none), and its expected payoff
        last = self._last[arm]
        tau = t - last if last is not None and t - last <= self._ds[arm] else 0
        return tau, self._ptable[arm][tau]

    # -- pulling -----------------------------------------------------------

    def pull(self, arm: int, policy: int = -1, retained: bool = True) -> tuple[float, int]:
        """A block of one through `pull_cycles`. Nothing in the lab calls it; it stays
        only because perfbench/tracer.py patches it (ROADMAP item 1)."""
        return self.pull_cycles((arm,), 1, policy, retain_from=0 if retained else 1)

    def pull_cycles(self, prefix, n_pulls: int, policy: int = -1,
                    retain_from: int = 0) -> tuple[float, int]:
        """Pull n_pulls rounds cycling over `prefix`, in order.

        The call is logged as one block; pulls with index >= retain_from are
        flagged retained, and the return is the realized-reward sum and count
        over them. Any cycle works, repeated arms included. Short blocks (at
        most len(prefix) + 64 pulls) run pull by pull. A longer block runs its
        first cycle pull by pull too; a payoff depends only on the gap since
        the arm's last pull, so from the second cycle on every position pays
        what it pays in the second cycle, whose payoffs `_row` computes and
        the tail tiles. Either way pull t reads uniform t of the stream.
        """
        prefix = tuple(prefix)
        cycle = self._cycle_ids.get(prefix)
        if cycle is None:
            if not prefix:
                raise ValueError("prefix must be nonempty")
            if not all(0 <= a < self.k for a in prefix):
                raise IndexError(f"prefix {prefix} has an arm out of range for k={self.k}")
            cycle = self._cycle_ids[prefix] = len(self._cycle_ids)
        m = len(prefix)
        n = int(n_pulls)
        if n <= 0:
            return 0.0, 0
        t0 = self.t
        self._reserve(t0 + n)
        rf = min(max(int(retain_from), 0), n)
        self._blocks.extend((n, cycle, policy, rf))
        head = n if n <= m + _SCALAR_SLACK else m
        last = self._last
        ret_sum = 0
        for i in range(head):
            arm = prefix[i % m]
            u = self._uniform()
            if i >= rf and u < self._row(arm, t0 + i)[1]:
                ret_sum += 1
            last[arm] = t0 + i
        if head < n:
            pay = []
            for i in range(m, 2 * m):      # the second cycle, possibly past the block's end
                arm = prefix[i - m]
                pay.append(self._row(arm, t0 + i)[1])
                last[arm] = t0 + i
            lo = max(rf, m)
            pay = np.resize(np.roll(pay, -lo), n - lo)
            ret_sum += int(np.count_nonzero(self._u[t0 + lo:t0 + n] < pay))
            for i in range(n - m, n):      # the last m pulls hold every arm's final pull
                last[prefix[i % m]] = t0 + i
            self.t = t0 + n
        return float(ret_sum), n - rf

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
