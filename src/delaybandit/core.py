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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

__all__ = [
    "Arm",
    "BanditInstance",
    "Discount",
    "Environment",
    "RewardSample",
    "advance_state",
    "expected_payoff",
    "initial_state",
    "make_instance",
    "sample_reward",
    "segment_sum",
    "substream",
]

Number = int | float | Fraction

_UNIFORM_CHUNK = 8192


def substream(seed: int, *keys) -> np.random.Generator:
    """Independent generator for (seed, *keys); string keys are hashed stably.

    Results depend only on the values passed, never on call order, so parallel
    replicates stay reproducible.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            entropy.append(int.from_bytes(digest, "big"))
        else:
            entropy.append(int(key) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
        if isinstance(self.d, bool) or int(self.d) != self.d or self.d < 1:
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


def sample_reward(instance: BanditInstance, arm: int, tau: int, rng: np.random.Generator) -> int:
    """Bernoulli draw with success probability expected_payoff(instance, arm, tau)."""
    p = float(expected_payoff(instance, arm, tau))
    return int(rng.random() < p)


def segment_sum(instance: BanditInstance, start: int, stop: int, d: int):
    """Sum of expected payoffs at common delay d over arms start..stop-1."""
    if not 0 <= start <= stop <= instance.k:
        raise ValueError(f"invalid arm range [{start}, {stop}) for k={instance.k}")
    total = 0
    for j in range(start, stop):
        total = total + expected_payoff(instance, j, d)
    return total


@dataclass(frozen=True)
class RewardSample:
    """One pull: capped tau, raw gap since previous pull (-1 if first), both channels."""

    arm: int
    tau: int
    gap: int
    expected: float
    realized: int


class Environment:
    """Sequential sampler over an instance; owns its RNG stream and pull log.

    Every pull runs through `pull_cycles`; `pull` is a block of one. State is
    kept as per-arm last-pull times so a pull costs O(1) regardless of k; the
    capped delay vector is materialized on demand. Every environment starts
    from the all-zero state. Uniform variates are drawn in buffered blocks, so
    the realized channel depends only on the stream and the pull sequence,
    not on how pulls are batched.
    """

    def __init__(self, instance: BanditInstance, rng: np.random.Generator,
                 capacity: int = 1024):
        self.instance = instance
        self.k = instance.k
        self._rng = rng
        self._ds = [a.d for a in instance.arms]
        # payoff lookup per arm over capped tau = 0..d; plain lists for the scalar path
        self._ptable = [
            [float(expected_payoff(instance, i, tau)) for tau in range(a.d + 1)]
            for i, a in enumerate(instance.arms)
        ]
        self.t = 0
        self._last: list = [None] * self.k
        self._buf = np.empty(0)
        self._bi = 0
        self._steady_cache: dict = {}
        cap = max(int(capacity), 16)
        self._arm = np.zeros(cap, np.int32)
        self._tau = np.zeros(cap, np.int32)
        self._gap = np.zeros(cap, np.int64)
        self._exp = np.zeros(cap, np.float64)
        self._real = np.zeros(cap, np.int8)
        self._pol = np.zeros(cap, np.int32)
        self._ret = np.zeros(cap, bool)

    # -- uniform variate stream -------------------------------------------

    def _uniform(self) -> float:
        if self._bi >= len(self._buf):
            self._buf = self._rng.random(_UNIFORM_CHUNK)
            self._bi = 0
        u = self._buf[self._bi]
        self._bi += 1
        return u

    def _uniform_block(self, n: int) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            if self._bi >= len(self._buf):
                self._buf = self._rng.random(_UNIFORM_CHUNK)
                self._bi = 0
            take = min(n - filled, len(self._buf) - self._bi)
            out[filled:filled + take] = self._buf[self._bi:self._bi + take]
            self._bi += take
            filled += take
        return out

    # -- state views -------------------------------------------------------

    def delay_state(self) -> tuple:
        """Capped delay vector: rounds since each arm's last pull, 0 past its delay."""
        t = self.t
        return tuple(0 if last is None or t - last > d else t - last
                     for last, d in zip(self._last, self._ds))

    # -- pulling -----------------------------------------------------------

    def _ensure(self, upto: int):
        cap = len(self._arm)
        if upto <= cap:
            return
        new = max(upto, 2 * cap)
        for name in ("_arm", "_tau", "_gap", "_exp", "_real", "_pol", "_ret"):
            old = getattr(self, name)
            grown = np.zeros(new, old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def pull(self, arm: int, policy: int = -1, retained: bool = True) -> RewardSample:
        """Pull one arm as a block of one through `pull_cycles`; returns the logged row."""
        if not 0 <= arm < self.k:
            raise IndexError(f"arm index {arm} out of range")
        self.pull_cycles((arm,), 1, policy, retain_from=0 if retained else 1)
        t = self.t - 1
        return RewardSample(arm, int(self._tau[t]), int(self._gap[t]), float(self._exp[t]),
                            int(self._real[t]))

    def _steady(self, prefix: tuple):
        # per position: the gap back to the same arm's previous slot in the cycle
        cached = self._steady_cache.get(prefix)
        if cached is None:
            m = len(prefix)
            last = {a: j - m for j, a in enumerate(prefix)}   # final slots of the cycle before
            gaps = []
            for j, a in enumerate(prefix):
                gaps.append(j - last[a])
                last[a] = j
            taus = [g if g <= self._ds[a] else 0 for a, g in zip(prefix, gaps)]
            cached = (np.array(prefix, np.int32), np.array(taus, np.int32),
                      np.array(gaps, np.int64),
                      np.array([self._ptable[a][tau] for a, tau in zip(prefix, taus)]))
            self._steady_cache[prefix] = cached
        return cached

    def pull_cycles(self, prefix, n_pulls: int, policy: int = -1,
                    retain_from: int = 0) -> tuple[float, int]:
        """Pull n_pulls rounds cycling over `prefix`, in order.

        Pulls with index >= retain_from are flagged retained; returns the
        realized-reward sum and count over that portion. Any cycle works,
        repeated arms included. Short blocks (at most len(prefix) + 64 pulls)
        run pull by pull. A longer block runs its first cycle pull by pull
        too; after it every position's gap is the cyclic distance back to the
        same arm's previous position (len(prefix) for an arm that occurs
        once), so the rest is tiled from that steady cycle. Both paths draw
        the same uniforms in the same order.
        """
        prefix = tuple(prefix)
        m = len(prefix)
        n = int(n_pulls)
        if m < 1:
            raise ValueError("prefix must be nonempty")
        if n <= 0:
            return 0.0, 0
        self._ensure(self.t + n)
        head = n if n <= m + 64 else m
        t0 = self.t
        ret_sum = 0
        ret_n = 0
        for i in range(head):
            arm = prefix[i % m]
            t = t0 + i
            last = self._last[arm]
            gap = -1 if last is None else t - last
            tau = gap if 0 < gap <= self._ds[arm] else 0
            p = self._ptable[arm][tau]
            r = 1 if self._uniform() < p else 0
            self._arm[t] = arm
            self._tau[t] = tau
            self._gap[t] = gap
            self._exp[t] = p
            self._real[t] = r
            self._pol[t] = policy
            self._ret[t] = i >= retain_from
            self._last[arm] = t
            if i >= retain_from:
                ret_sum += r
                ret_n += 1
        self.t = t0 + n
        if head == n:
            return float(ret_sum), ret_n
        arms_s, taus_s, gaps_s, exps_s = self._steady(prefix)
        tail = n - m
        reps = (tail + m - 1) // m
        exp_a = np.tile(exps_s, reps)[:tail]
        real_a = (self._uniform_block(tail) < exp_a).astype(np.int8)
        t1 = t0 + m
        sl = slice(t1, t0 + n)
        self._arm[sl] = np.tile(arms_s, reps)[:tail]
        self._tau[sl] = np.tile(taus_s, reps)[:tail]
        self._gap[sl] = np.tile(gaps_s, reps)[:tail]
        self._exp[sl] = exp_a
        self._real[sl] = real_a
        self._pol[sl] = policy
        rf = max(m, min(retain_from, n))
        self._ret[t1:t0 + rf] = False
        self._ret[t0 + rf:t0 + n] = True
        for i in range(n - m, n):          # the last m pulls hold every arm's final pull
            self._last[prefix[i % m]] = t0 + i
        retained = real_a[rf - m:]
        return float(ret_sum + int(retained.sum())), ret_n + int(retained.size)

    def realized(self, start: int, stop: int) -> list:
        """Realized rewards (0 or 1) of pulls start..stop-1."""
        if not 0 <= start <= stop <= self.t:
            raise ValueError(f"pull range [{start}, {stop}) outside the log of {self.t} pulls")
        return self._real[start:stop].tolist()

    def columns(self) -> dict:
        """Trimmed copies of the pull log columns."""
        t = self.t
        return {
            "arms": self._arm[:t].copy(),
            "taus": self._tau[:t].copy(),
            "gaps": self._gap[:t].copy(),
            "expected": self._exp[:t].copy(),
            "realized": self._real[:t].copy(),
            "policy": self._pol[:t].copy(),
            "retained": self._ret[:t].copy(),
        }
