"""Per-layer tracing of delaybandit from outside the package.

`Tracer.installed()` replaces public functions and methods of each module with
wrappers that record a span per call, then puts the originals back. A name is
patched where its caller looks it up, e.g. `delaybandit.harness.run_pi_low`
rather than `delaybandit.low_switch.run_pi_low`. Spans stay in memory as flat
arrays; `self_times` turns them into per-name call counts and self times.
Counts read off arguments and results (pulls, selections, states) are taken in
the same wrappers.

Attribution of the tracer's own cost. Each span has an outer interval, from the
wrapper's first statement to its last, and an inner one around the wrapped call
alone. A span's self time is its inner duration minus the union of its
children's outer intervals, so neither the span nor its caller is charged with
the wrappers' bookkeeping or the count hooks. What is left in the caller is the
cost of calling the wrapper instead of the function itself; `calibrate()`
measures it per Span and per Count wrapper, and `span_table()` subtracts it once
per direct child call.

`LAYER_METRICS` is the single list of per-layer metrics. Each entry names the
end-to-end metric and workload it is expected to move, so later changes can
quote the pairing.
"""

from __future__ import annotations

import gc
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from delaybandit import cli, core, harness, oracle, policies, ranker, ucb


@dataclass(frozen=True)
class Span:
    """Record a span per call; `name` may be a function of (args, kwargs)."""

    name: str | Callable
    after: Callable | None = None   # after(tracer, name, args, result): counts


@dataclass(frozen=True)
class Count:
    """Only count calls: for functions too small and hot for a span."""

    key: str


class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")         # outer interval: the whole wrapper
        self.end = array("d")
        self.inner_start = array("d")   # inner interval: the wrapped call alone
        self.inner_end = array("d")
        self.hits = array("l")          # Count-wrapper calls made directly inside each span
        self._open: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.peaks: defaultdict = defaultdict(int)
        self.span_cost = 0.0            # caller-side cost of one Span wrapper, see calibrate()
        self.count_cost = 0.0           # caller-side cost of one Count wrapper

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int, outer: float) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(outer)
        self.end.append(0.0)
        self.inner_end.append(0.0)
        self.hits.append(0)
        self._open.append(i)
        self.inner_start.append(perf_counter())
        return i

    def _exit(self, i: int):
        self.inner_end[i] = perf_counter()
        self._open.pop()
        self.end[i] = self.inner_end[i]

    @contextmanager
    def span(self, name: str):
        i = self._enter(self._id(name), perf_counter())
        try:
            yield
        finally:
            self._exit(i)

    def add(self, key: str, amount):
        self.counts[key] += amount

    def peak(self, key: str, value):
        self.peaks[key] = max(self.peaks[key], value)

    def wrap(self, fn, spec):
        if isinstance(spec, Count):
            counts, key, opened, hits = self.counts, spec.key, self._open, self.hits

            def counted(*args, **kwargs):
                counts[key] += 1
                if opened:
                    hits[opened[-1]] += 1
                return fn(*args, **kwargs)

            return counted
        name, after = spec.name, spec.after
        dynamic = callable(name)
        fixed = None if dynamic else self._id(name)

        def traced(*args, **kwargs):
            outer = perf_counter()
            label = name(args, kwargs) if dynamic else name
            i = self._enter(self._id(label) if dynamic else fixed, outer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if after is not None:
                after(self, label, args, result)
            self.end[i] = perf_counter()
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry of `patch_table()` for the duration of the block."""
        saved = []
        try:
            for owner, attr, spec in patch_table():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, spec))
                else:
                    replacement = self.wrap(raw, spec)
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def calibrate(self, calls: int = 20_000, repeats: int = 7):
        """Measure what one Span and one Count wrapper add to the caller's self time.

        Times a loop of plain calls to an empty function against the same loop
        through each wrapper, inside a span, and keeps the least difference per
        call over `repeats` tries.
        """
        def noop():
            pass

        loop = range(calls)
        plain, spans, counts = [], [], []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in loop:
                noop()
            plain.append(perf_counter() - t0)
            probe = Tracer()
            traced, counted = probe.wrap(noop, Span("child")), probe.wrap(noop, Count("child"))
            with probe.span("spans"):
                for _ in loop:
                    traced()
            with probe.span("counts"):
                for _ in loop:
                    counted()
            table = probe.span_table()
            spans.append(table["spans"][2])
            counts.append(table["counts"][2])
        base = min(plain)
        self.span_cost = max(0.0, (min(spans) - base) / calls)
        self.count_cost = max(0.0, (min(counts) - base) / calls)

    def span_table(self) -> dict:
        return self_times(self.names, self.name, self.start, self.end, self.parent,
                          inner=(self.inner_start, self.inner_end), hits=self.hits,
                          span_cost=self.span_cost, count_cost=self.count_cost)


def self_times(names, name_ids, starts, ends, parents, *, inner=None, hits=None,
               span_cost: float = 0.0, count_cost: float = 0.0) -> dict:
    """Per span name: [calls, total seconds, self seconds].

    Spans are parallel sequences; `parents` holds the index of the enclosing
    span or -1. `starts`/`ends` bound each whole wrapper, `inner` = (starts,
    ends) the wrapped call alone (default: the same). Total time is the inner
    duration. Self time is the inner duration minus the union of the
    children's outer intervals, clipped to it, so overlapping children are not
    subtracted twice; minus `span_cost` per direct child span and `count_cost`
    per direct Count call (`hits`), and never below 0.
    """
    name_ids = np.asarray(name_ids, np.int64)
    starts = np.asarray(starts, np.float64)
    ends = np.asarray(ends, np.float64)
    parents = np.asarray(parents, np.int64)
    inner_starts, inner_ends = (starts, ends) if inner is None else (
        np.asarray(inner[0], np.float64), np.asarray(inner[1], np.float64))
    n = len(starts)
    order = np.argsort(starts, kind="stable")
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    s = starts[order].tolist()
    e = ends[order].tolist()
    ie = inner_ends[order].tolist()
    sorted_parents = parents[order]
    par = np.where(sorted_parents >= 0, rank[np.maximum(sorted_parents, 0)], -1).tolist()
    covered = [0.0] * n
    reach = inner_starts[order].tolist()   # per span: end of the union of its children seen so far
    for i in range(n):
        p = par[i]
        if p < 0:
            continue
        lo = max(s[i], reach[p])
        hi = min(e[i], ie[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    dur = np.asarray(ie) - inner_starts[order]
    par_a = np.asarray(par, np.int64)
    children = np.bincount(par_a[par_a >= 0], minlength=n)
    direct_hits = np.zeros(n) if hits is None else np.asarray(hits, np.float64)[order]
    own = np.maximum(dur - np.asarray(covered) - children * span_cost - direct_hits * count_cost, 0.0)
    ids = name_ids[order]
    width = len(names)
    calls = np.bincount(ids, minlength=width)
    total = np.bincount(ids, weights=dur, minlength=width)
    selfs = np.bincount(ids, weights=own, minlength=width)
    return {nm: [int(calls[j]), float(total[j]), float(selfs[j])] for j, nm in enumerate(names)}


# -- what gets patched ------------------------------------------------------

# Environment.pull_cycles takes its scalar loop when n <= len(prefix) + SCALAR_SLACK;
# test_perfbench checks this against core's behaviour.
SCALAR_SLACK = 64


def _pull_cycles_name(args, kwargs):
    env, prefix, n = args[:3]   # every caller passes these positionally
    return "core.pull_cycles.scalar" if n <= len(prefix) + SCALAR_SLACK else "core.pull_cycles.vector"


def _after_pull_cycles(tr, name, args, result):
    tr.add(name + ".pulls", max(int(args[2]), 0))


def _after_env_init(tr, name, args, result):
    # gc.get_referents, not vars(): building the instance __dict__ would slow
    # every later attribute lookup on the environment
    env = args[0]
    tr.peak("core.log_bytes", sum(v.nbytes for v in gc.get_referents(env) if isinstance(v, np.ndarray)))


def _after_ucb(tr, name, args, run):
    tr.add("ucb.selections", run.selections)
    tr.add("ucb.switches", run.total_switches)
    tr.add("ucb.retained", int(run.trace.retained.sum()))
    tr.add("ucb.pulls", len(run.trace))


def _after_low(tr, name, args, run):
    tr.add("low_switch.stages", len(run.stages))
    tr.add("low_switch.switches", run.total_switches)
    tr.add("low_switch.retained", int(run.trace.retained.sum()))
    tr.add("low_switch.pulls", len(run.trace))


def _after_rank(tr, name, args, outcome):
    tr.add("ranker.rounds", outcome.rounds)
    tr.add("ranker.pulls", outcome.pulls)


def _after_round(tr, name, args, result):
    samples, used = result
    tr.add("ranker.samples", len(samples))
    tr.add("ranker.round_pulls", used)


def _after_build(tr, name, args, graph):
    tr.add("oracle.states_enumerated", graph.n_nodes)


def _reachable_count(graph) -> int:
    seen = {graph.start}
    frontier = [graph.start]
    while frontier:
        for v, _ in graph.succ[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen)


def _after_solve(tr, name, args, cycle):
    n = _reachable_count(args[0])
    tr.add("oracle.states_reachable", n)
    tr.add("oracle.witness_len", len(cycle))
    tr.peak("oracle.karp_table_bytes", 8 * (n + 1) * n)   # Karp's D table in float64 cells


def _after_experiment(tr, name, args, result):
    if not result.config.outdir:
        return
    grid = len(next(iter(result.curves.values())).t)
    tr.add("harness.csv.rows", sum(len(c.t) for c in result.curves.values())
           + grid * len(result.config.algorithms))
    tr.add("harness.csv.bytes", sum(os.path.getsize(f) for f in result.files if f.endswith(".csv")))


def patch_table():
    """(owner, attribute, Span|Count) for every patched name."""
    env = core.Environment
    ghost = Span("policies.ghost_summary")
    low = Span("low_switch.run", _after_low)
    materialize = Span("harness.materialize")
    return [
        (cli, "main", Span("cli.main")),
        (env, "__init__", Span("core.env_init", _after_env_init)),
        (env, "pull", Span("core.pull")),
        (env, "pull_cycles", Span(_pull_cycles_name, _after_pull_cycles)),
        (env, "delay_state", Span("core.delay_state")),
        (policies.PolicyTrace, "from_env", Span("policies.trace_from_env")),
        (policies, "greedy_arm", Span("policies.greedy_arm")),
        (policies, "ghost_summary", ghost),
        (harness, "ghost_summary", ghost),
        (cli, "ghost_summary", ghost),
        (harness, "rollout", Span("policies.rollout")),
        (harness, "run_ucb_rankings", Span("ucb.run", _after_ucb)),
        (ucb, "ucb_index", Count("ucb.ucb_index.calls")),
        (harness, "run_pi_low", low),
        (cli, "run_pi_low", low),
        (cli, "rank_arms", Span("ranker.rank_arms", _after_rank)),
        (ranker, "calibrated_sample_round", Span("ranker.sample_round", _after_round)),
        (oracle, "build_state_graph", Span("oracle.build", _after_build)),
        (oracle, "max_mean_cycle", Span("oracle.solve", _after_solve)),
        (cli, "pmsp_feasible", Span("oracle.pmsp")),
        (cli, "run_experiment", Span("harness.run_experiment", _after_experiment)),
        (harness, "regret_vs_ghost", Span("harness.regret")),
        (harness, "ghost_reference", Span("harness.ghost_reference")),
        (harness, "materialize_instance", materialize),
        (cli, "load_instance", materialize),
    ]


# -- per-layer metrics ------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One per-layer metric and the (end-to-end metric, workload) it should move."""

    name: str
    unit: str
    better: str
    value: Callable   # value(LayerData) -> float
    target: str


@dataclass
class LayerData:
    spans: dict        # name -> [calls, total_s, self_s], summed over traced passes
    counts: dict
    peaks: dict
    passes: int
    traced_wall_s: float
    overhead_s: float


def _self(span):
    return lambda d: d.spans.get(span, [0, 0.0, 0.0])[2] / d.passes


def _calls(span):
    return lambda d: d.spans.get(span, [0, 0.0, 0.0])[0] / d.passes


def _per_pass(key):
    return lambda d: d.counts.get(key, 0) / d.passes


def _peak(key):
    return lambda d: d.peaks.get(key, 0)


def _ratio(num, den):
    return lambda d: d.counts.get(num, 0) / d.counts[den] if d.counts.get(den) else 0.0


UCB = "wall_s on fig2 (majority), fig3-full (minority)"
VEC = "wall_s on fig2, fig3-full"
STEP = "wall_s on stepwise only"
ORACLE = "wall_s on oracle only"
STATES = "peak_rss_mb on oracle"
HARNESS = "wall_s on fig3-full (majority), fig2 (small)"
MEMORY = "peak_rss_mb on fig2, fig3-full"
ALL = "setup_s and wall_s on all workloads"

# Counts and self times are per workload pass (totals over the traced passes
# divided by their number); ratios are ratios of totals; *_bytes are maxima.
LAYER_METRICS = [
    Layer("core.pull_cycles.scalar.calls", "count", "lower", _calls("core.pull_cycles.scalar"), UCB),
    Layer("core.pull_cycles.scalar.pulls", "count", "lower", _per_pass("core.pull_cycles.scalar.pulls"), UCB),
    Layer("core.pull_cycles.scalar.self_s", "s", "lower", _self("core.pull_cycles.scalar"), UCB),
    Layer("ucb.run.self_s", "s", "lower", _self("ucb.run"), UCB),
    Layer("ucb.selections", "count", "lower", _per_pass("ucb.selections"), UCB),
    Layer("ucb.ucb_index.calls", "count", "lower", _per_pass("ucb.ucb_index.calls"), UCB),
    Layer("ucb.switches", "count", "lower", _per_pass("ucb.switches"), UCB),
    Layer("ucb.useful_ratio", "ratio", "higher", _ratio("ucb.retained", "ucb.pulls"), VEC),
    Layer("low_switch.useful_ratio", "ratio", "higher",
          _ratio("low_switch.retained", "low_switch.pulls"), VEC),
    Layer("low_switch.run.self_s", "s", "lower", _self("low_switch.run"), VEC),
    Layer("low_switch.stages", "count", "lower", _per_pass("low_switch.stages"), VEC),
    Layer("low_switch.switches", "count", "lower", _per_pass("low_switch.switches"), VEC),
    Layer("core.pull_cycles.vector.calls", "count", "lower", _calls("core.pull_cycles.vector"), VEC),
    Layer("core.pull_cycles.vector.pulls", "count", "lower", _per_pass("core.pull_cycles.vector.pulls"), VEC),
    Layer("core.pull_cycles.vector.self_s", "s", "lower", _self("core.pull_cycles.vector"), VEC),
    Layer("core.pull.calls", "count", "lower", _calls("core.pull"), STEP),
    Layer("core.pull.self_s", "s", "lower", _self("core.pull"), STEP),
    Layer("core.delay_state.calls", "count", "lower", _calls("core.delay_state"), STEP),
    Layer("core.delay_state.self_s", "s", "lower", _self("core.delay_state"), STEP),
    Layer("policies.greedy_arm.calls", "count", "lower", _calls("policies.greedy_arm"), STEP),
    Layer("policies.greedy_arm.self_s", "s", "lower", _self("policies.greedy_arm"), STEP),
    Layer("policies.rollout.self_s", "s", "lower", _self("policies.rollout"), STEP),
    Layer("ranker.rank_arms.self_s", "s", "lower", _self("ranker.rank_arms"), STEP),
    Layer("ranker.sample_round.calls", "count", "lower", _calls("ranker.sample_round"), STEP),
    Layer("ranker.sample_round.self_s", "s", "lower", _self("ranker.sample_round"), STEP),
    Layer("ranker.rounds", "count", "lower", _per_pass("ranker.rounds"), STEP),
    Layer("ranker.pulls", "count", "lower", _per_pass("ranker.pulls"), STEP),
    Layer("ranker.useful_ratio", "ratio", "higher", _ratio("ranker.samples", "ranker.round_pulls"), STEP),
    Layer("oracle.build.self_s", "s", "lower", _self("oracle.build"), ORACLE),
    Layer("oracle.solve.self_s", "s", "lower", _self("oracle.solve"), ORACLE),
    Layer("oracle.pmsp.self_s", "s", "lower", _self("oracle.pmsp"), ORACLE),
    Layer("oracle.witness_len", "count", "lower", _per_pass("oracle.witness_len"), ORACLE),
    Layer("oracle.states_enumerated", "count", "lower", _per_pass("oracle.states_enumerated"), STATES),
    Layer("oracle.states_reachable", "count", "lower", _per_pass("oracle.states_reachable"), STATES),
    Layer("oracle.reachable_ratio", "ratio", "higher",
          _ratio("oracle.states_reachable", "oracle.states_enumerated"), STATES),
    Layer("oracle.karp_table_bytes", "bytes", "lower", _peak("oracle.karp_table_bytes"), STATES),
    Layer("harness.run_experiment.self_s", "s", "lower", _self("harness.run_experiment"), HARNESS),
    Layer("harness.csv.rows", "count", "lower", _per_pass("harness.csv.rows"), HARNESS),
    Layer("harness.csv.bytes", "bytes", "lower", _per_pass("harness.csv.bytes"), HARNESS),
    Layer("harness.regret.self_s", "s", "lower", _self("harness.regret"), HARNESS),
    Layer("harness.ghost_reference.self_s", "s", "lower", _self("harness.ghost_reference"), HARNESS),
    Layer("core.env_init.calls", "count", "lower", _calls("core.env_init"), MEMORY),
    Layer("core.env_init.self_s", "s", "lower", _self("core.env_init"), MEMORY),
    Layer("core.log_bytes", "bytes", "lower", _peak("core.log_bytes"), MEMORY),
    Layer("policies.trace_from_env.self_s", "s", "lower", _self("policies.trace_from_env"), MEMORY),
    Layer("harness.materialize.self_s", "s", "lower", _self("harness.materialize"), ALL),
    Layer("policies.ghost_summary.self_s", "s", "lower", _self("policies.ghost_summary"), ALL),
    Layer("cli.main.self_s", "s", "lower", _self("cli.main"), ALL),
    Layer("bench.verify.self_s", "s", "lower", _self("bench.verify"),
          "wall_s on all workloads: the benchmark's own output checks"),
    Layer("trace.wall_s", "s", "lower", lambda d: d.traced_wall_s,
          "base for layer shares: median traced pass"),
    Layer("trace.overhead_s", "s", "lower", lambda d: d.overhead_s,
          "median traced minus untraced pass, same inputs"),
]


def layer_metrics(data: LayerData) -> dict:
    return {layer.name: float(layer.value(data)) for layer in LAYER_METRICS}
