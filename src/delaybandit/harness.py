"""Experiment presets, regret-vs-reference accounting, instance I/O, CSV output.

Regret is charged on the expectation channel (learners still consume realized
rewards): regret(t) = ghost_cum(t) - (alg_cum_expected(t) - cost * switches(t)).
The reference is the best ranking policy rolled out deterministically.

Instance files are JSON with fields k, mu, d, discount {kind, gamma|c|values}
and an optional label; rational values may be written as "p/q" strings and
stay exact through a round trip.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from numbers import Real

import numpy as np

from . import __version__
from .core import (BanditInstance, Discount, _check_delta, _check_horizon, _check_seed,
                   _param_name, _running_sums, _spans, make_instance, substream)
from .low_switch import run_pi_low, stage_schedule
from .policies import GreedyPolicy, RankingPolicy, ghost_summary, orbit, rollout, running_totals
from .ucb import run_ucb_rankings

__all__ = [
    "ExperimentConfig",
    "RegretCurve",
    "dump_instance",
    "ghost_reference",
    "instance_hash",
    "load_instance",
    "materialize_instance",
    "preset_fig2",
    "preset_fig3",
    "regret_vs_ghost",
    "run_algorithm",
    "run_experiment",
]

ALGORITHMS = ("low", "ucb", "greedy", "ghost")

CSV_HEADER = ["t", "algo", "seed", "cum_expected", "cum_realized", "switches", "regret"]
AGG_HEADER = ["t", "algo", "mean_regret", "std_regret", "n_runs"]

MAX_CURVE_POINTS = 2000
CSV_CHUNK_ROWS = 1024


# -- instance (de)serialization ---------------------------------------------


def _num_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _num_from_json(v, name: str):
    if isinstance(v, bool) or not isinstance(v, (Real, str)):
        raise ValueError(f"instance field {name!r} must hold numbers, got {v!r}")
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"instance field {name!r} must hold numbers, got {v!r}") from None
    return v


def _nums_from_json(doc, name: str) -> list:
    values = _field(doc, name)
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"instance field {name!r} must be a list, got {values!r}")
    return [_num_from_json(v, name) for v in values]


def dump_instance(instance: BanditInstance, label: str = "") -> dict:
    doc = {
        "k": instance.k,
        "mu": [_num_to_json(m) for m in instance.mus],
        "d": list(instance.ds),
        "discount": {key: ([_num_to_json(v) for v in val] if isinstance(val, list) else _num_to_json(val))
                     for key, val in instance.discount.params().items()},
    }
    if label:
        doc["label"] = label
    return doc


def _field(doc, name: str):
    if not isinstance(doc, dict) or name not in doc:
        raise ValueError(f"instance field {name!r} is missing")
    return doc[name]


def _discount_from_doc(doc: dict) -> Discount:
    kind = _field(doc, "kind")
    name = _param_name(kind)
    param = _nums_from_json(doc, name) if kind == "table" else _num_from_json(_field(doc, name), name)
    return Discount(kind, param)


def load_instance(source) -> BanditInstance:
    """Build an instance from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = dict(source)
    mus = _nums_from_json(doc, "mu")
    if "k" in doc and _num_from_json(doc["k"], "k") != len(mus):
        raise ValueError("field k disagrees with mu length")
    return make_instance(mus, _nums_from_json(doc, "d"), _discount_from_doc(_field(doc, "discount")))


def instance_hash(instance: BanditInstance) -> str:
    blob = json.dumps(dump_instance(instance), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: instance spec, algorithms, horizon, cost, seeds.

    `instance` is an inline instance document, optionally with a per-seed
    delay draw ("d": {"draw": [lo, hi]}), or {"file": path}.
    """

    instance: dict
    algorithms: tuple
    horizon: int
    delta: float
    switch_cost: float
    seeds: tuple
    outdir: str | None = None
    full_curves: bool = False
    label: str = ""

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "horizon", _check_horizon(self.horizon))
        for kind, values in (("algorithm", self.algorithms), ("seed", self.seeds)):
            if not values:
                raise ValueError(f"need at least one {kind}")
        try:
            finite = math.isfinite(self.switch_cost)
        except OverflowError:
            raise ValueError("switch cost must be a finite number >= 0, got an int past the "
                             "float range") from None
        if not finite or self.switch_cost < 0:
            raise ValueError(f"switch cost must be a finite number >= 0, got {self.switch_cost}")
        # a regret lies in [-T, T (1 + cost)]; the seeds' spread, squared and summed, must be
        # a finite float (float products reach inf where int ones would not)
        spread = self.horizon * (2.0 + self.switch_cost)
        if not math.isfinite(len(self.seeds) * spread * spread):
            raise ValueError(f"switch cost {self.switch_cost} can overflow the regret at "
                             f"T={self.horizon} over {len(self.seeds)} seeds")
        _check_delta(self.delta)
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for seed in self.seeds:
            _check_seed(seed)
        for kind, values in (("algorithm", self.algorithms), ("seed", self.seeds)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{kind} {value!r} is repeated")


def materialize_instance(spec: dict, seed: int) -> BanditInstance:
    """Resolve an instance document; per-seed delay draws use the seed's substream."""
    if "file" in spec:
        return load_instance(spec["file"])
    doc = dict(spec)
    d = doc.get("d")
    if isinstance(d, dict):
        lo, hi = int(d["draw"][0]), int(d["draw"][1])
        rng = substream(seed, "delays")
        doc["d"] = [int(v) for v in rng.integers(lo, hi + 1, size=len(doc["mu"]))]
    return load_instance(doc)


# -- reference and regret ----------------------------------------------------


def ghost_reference(instance: BanditInstance, T: int, ts=None) -> np.ndarray:
    """Cumulative expected reward of the best ranking policy over T pulls, at the 1-based
    times `ts` (ascending; default every t = 1..T).

    Deterministic: the policy's orbit (a first cycle from the all-zero state
    at the raw baselines, then the steady cycle) tiled to T pulls, summed a window at a
    time with the carry rule a log's running sums use, so memory follows the window and
    `ts`, not T.
    """
    T = _check_horizon(T)
    r = ghost_summary(instance).r_star
    first, steady = orbit(instance, RankingPolicy(r))
    pay, head, period = np.array(first + steady, float), len(first), len(steady)
    windows = ((pay[np.where(p < head, p, head + (p - head) % period)],)
               for p in (np.arange(lo, hi) for lo, hi in _spans(T)))
    return _running_sums(windows, np.arange(1, T + 1) if ts is None else ts, (-0.0,))[0]


@dataclass
class RegretCurve:
    """Per-time-step regret with its ingredients, possibly downsampled."""

    t: np.ndarray
    cum_expected: np.ndarray
    cum_realized: np.ndarray
    cum_switches: np.ndarray
    regret: np.ndarray


def _downsample_grid(T: int, full: bool) -> np.ndarray:
    if full or T <= MAX_CURVE_POINTS:
        return np.arange(1, T + 1)
    return np.unique(np.linspace(1, T, MAX_CURVE_POINTS).round().astype(np.int64))


def regret_vs_ghost(log, instance: BanditInstance, switch_cost: float,
                    ts=None, ghost_cum=None) -> RegretCurve:
    """Expectation-channel regret against the ghost rollout at the 1-based times `ts`
    (ascending; default every pull).

    `log` is a PolicyTrace or a Run, read by `running_totals`, so a Run's curve costs a
    window and the grid, not its length. `ghost_cum` holds the ghost reference at each
    time in `ts` (default `ghost_reference` at them).
    """
    T = len(log)
    ts = np.arange(1, T + 1) if ts is None else np.asarray(ts, np.int64)
    if ghost_cum is None:
        ghost_cum = ghost_reference(instance, T, ts)
    if len(ghost_cum) != len(ts):
        raise ValueError("ghost reference and grid lengths differ")
    ce, cr, cs = running_totals(log, ts)
    regret = ghost_cum - (ce - switch_cost * cs)
    return RegretCurve(ts, ce, cr, cs, regret)


# -- presets -----------------------------------------------------------------


def preset_fig2() -> ExperimentConfig:
    """Seven arms with spread baselines, near-total geometric discount, random delays.

    Delays are redrawn per seed from {1..6} (same draw for every algorithm of
    a seed), a unit cost is charged per policy switch.
    """
    spec = {
        "label": "fig2",
        "k": 7,
        "mu": ["1", "14/15", "13/15", "4/5", "2/3", "1/3", "0"],
        "d": {"draw": [1, 6]},
        "discount": {"kind": "geometric", "gamma": "999/1000"},
    }
    return ExperimentConfig(
        instance=spec,
        algorithms=("low", "ucb"),
        horizon=200_000,
        delta=0.1,
        switch_cost=1.0,
        seeds=tuple(range(5)),
        label="fig2",
    )


def preset_fig3(cost: bool = True) -> ExperimentConfig:
    """Two arms tuned so both ranking policies are exactly optimal.

    mu_2 solves (1 - f(1)) mu_1 = (1 - f(2)) (mu_1 + mu_2) / 2 with f = (0.3,
    0.25) and d = (2, 2), giving mu_2 = 13/15 and g(1) = g(2) = 0.7. The flag
    picks unit or free switching.
    """
    spec = {
        "label": "fig3",
        "k": 2,
        "mu": ["1", "13/15"],
        "d": [2, 2],
        "discount": {"kind": "table", "values": ["3/10", "1/4"]},
    }
    return ExperimentConfig(
        instance=spec,
        algorithms=("low", "ucb"),
        horizon=200_000,
        delta=0.1,
        switch_cost=1.0 if cost else 0.0,
        seeds=tuple(range(10)),
        label="fig3-cost" if cost else "fig3-free",
    )


# -- execution ---------------------------------------------------------------


def run_algorithm(name: str, instance: BanditInstance, T: int, delta: float, seed: int):
    """Run one cell; returns (run, info dict for metadata). The run holds its pull log,
    `run.env`, and builds its full trace only when `run.trace` is read."""
    if name == "low":
        run = run_pi_low(instance, T, delta, rng=substream(seed, "env"))
        info = {
            "switches": run.total_switches,
            "survivors": list(run.survivors),
            "tail_pulls": run.tail_pulls,
            "stages": [rec.to_dict() for rec in run.stages],
        }
        return run, info
    if name == "ucb":
        run = run_ucb_rankings(instance, T, rng=substream(seed, "env"))
        info = {"switches": run.total_switches, "selections": run.selections}
        return run, info
    if name == "greedy":
        return rollout(instance, GreedyPolicy(instance), T, substream(seed, "env")), {}
    if name == "ghost":
        r = ghost_summary(instance).r_star
        return rollout(instance, RankingPolicy(r), T, substream(seed, "env"), policy_id=r), {}
    raise ValueError(f"unknown algorithm {name!r}")


def _run_cells(column: np.ndarray) -> np.ndarray:
    """`str` of each value of a numeric column, called once per run of equal values.

    Floats compare by bit pattern, so 0.0 and -0.0 stay apart and a NaN never
    splits a run.
    """
    keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    cells = np.array(list(map(str, column[starts].tolist())), dtype=object)
    return np.repeat(cells, np.diff(starts, append=len(column)))


def _write_csv(path: str, header, columns):
    """One row per element of the array columns; any other column repeats its value.

    A cell is `str` of a Python value: ints without a decimal point, floats as
    their shortest round-trip repr. Rows are rendered CSV_CHUNK_ROWS at a
    time, and `str` runs once per run of equal values down a column within a
    chunk, so the cost follows the distinct values written and memory holds
    one chunk of rows, whatever the row count.
    """
    n = min(len(c) for c in columns if isinstance(c, np.ndarray))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            cells = [_run_cells(c[lo:lo + CSV_CHUNK_ROWS]) if isinstance(c, np.ndarray)
                     else repeat(str(c)) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@dataclass
class ExperimentResult:
    """In-memory mirror of what run_experiment wrote to disk."""

    config: ExperimentConfig
    curves: dict            # (algo, seed) -> RegretCurve
    mean_final_regret: dict  # algo -> float
    files: list = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (algorithm, seed) cell, write per-run and aggregate CSVs.

    One pass over the seeds: a seed's ghost reference, at the grid's points, is
    computed once, after that seed's first run, and each cell's pull log (its uniforms,
    8 B a pull, and its blocks) lives until its curve is read off it a window at
    a time, so memory holds one cell's log and the curves, not one set per seed.
    Identical configs produce byte-identical outputs: all randomness flows
    through per-(seed, purpose) substreams and floats are written with repr.
    """
    T = config.horizon
    grid = _downsample_grid(T, config.full_curves)
    instances = {seed: materialize_instance(config.instance, seed) for seed in config.seeds}
    schedule = None
    if "low" in config.algorithms:
        schedule = stage_schedule(instances[config.seeds[0]].k, T, config.delta)
    outdir = config.outdir
    files = []

    def output(name: str) -> str:
        # the directory appears with its first file: a run that fails before leaves none
        os.makedirs(outdir, exist_ok=True)
        files.append(os.path.join(outdir, name))
        return files[-1]

    curves = {}
    run_infos = {}
    for seed, inst in instances.items():
        ghost_cum = None
        for algo in config.algorithms:
            run, run_infos[(algo, seed)] = run_algorithm(algo, inst, T, config.delta, seed)
            if ghost_cum is None:   # after a run, whose T uniforms fail at once if T is too large
                ghost_cum = ghost_reference(inst, T, grid)
            curve = regret_vs_ghost(run, inst, config.switch_cost, ts=grid, ghost_cum=ghost_cum)
            del run     # only the curve outlives its cell
            curves[(algo, seed)] = curve
            if outdir:
                _write_csv(output(f"{algo}_seed{seed}.csv"), CSV_HEADER,
                           [curve.t, algo, seed, curve.cum_expected, curve.cum_realized,
                            curve.cum_switches, curve.regret])
    mean_final = {}
    for algo in config.algorithms:
        stack = np.stack([curves[(algo, seed)].regret for seed in config.seeds])
        mean = stack.mean(axis=0)
        std = stack.std(axis=0)
        mean_final[algo] = float(mean[-1])
        if outdir:
            _write_csv(output(f"{algo}_agg.csv"), AGG_HEADER,
                       [grid, algo, mean, std, len(config.seeds)])
    if outdir:
        meta = {
            "label": config.label,
            "algorithms": list(config.algorithms),
            "horizon": T,
            "delta": config.delta,
            "switch_cost": config.switch_cost,
            "seeds": list(config.seeds),
            "versions": {"delaybandit": __version__, "numpy": np.__version__},
            "per_seed": {
                str(seed): {
                    "instance": dump_instance(inst),
                    "hash": instance_hash(inst),
                    "ghost": ghost_summary(inst).to_dict(),
                }
                for seed, inst in instances.items()
            },
            "runs": {
                f"{algo}/seed{seed}": run_infos[(algo, seed)]
                for algo in config.algorithms
                for seed in config.seeds
                if run_infos[(algo, seed)]
            },
        }
        if schedule is not None:
            meta["schedule"] = schedule.to_dict()
        with open(output("metadata.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(config, curves, mean_final, files)
