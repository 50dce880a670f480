"""Benchmark workloads: generated inputs, units of work, and output checks.

A unit is one `delaybandit.cli.main(argv)` call, the entry point researchers
use, followed by a check of everything it printed and wrote. A pass runs the
list of units that make one workload; a run repeats passes in a closed loop.

Inputs come from the workload seed only:

- fig2: `experiment --preset fig2` exactly as shipped (low + ucb, T = 2e5,
  experiment seeds 0..4) at every workload seed. Each experiment seed draws
  its own delays, and the cost of a five-seed set follows its draws (UCB
  selections over the sets 5s..5s+4, s = 0..9, spread by 21% of their median
  between quartiles), so varying the set with the workload seed would time
  different work at each seed. Seed-varied fig2 draws are in stepwise.
- fig3-full: `experiment --preset fig3-cost --full-curves` at FIG3_HORIZON
  with ten experiment seeds.
- stepwise: per fig2 delay draw, `experiment --algos greedy,ghost` (one pull
  at a time through the greedy rollout; ghost is the vectorized control) and
  `rank` (calibrated one-pull sampling rounds). Each draw gets its own run
  seed: the pulls `rank` needs depend on that seed and the means alone
  (146k-190k a call over seeds 0-9), so four independent draws keep the
  pass cost close to its average.
- oracle: `oracle --instance` on float fig2 draws and on exact five-arm
  instances, plus `pmsp --check-reduction` on one feasible and one
  infeasible interval set.

stepwise and oracle instances permute a fixed delay multiset with the seed.
A permutation relabels arms in the delay-state graph, so the number of states
and the cost per pull stay the same from seed to seed while payoffs, optima
and learner paths change.

Checks that need no reference run on every seed. At the default seed, and at
every seed of a SEED_FREE workload, the outputs are also compared with
`reference.json`, recorded from this code by `record_reference.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from delaybandit import cli, harness, oracle, policies
from delaybandit.core import advance_state, expected_payoff, substream

WORKLOADS = ("fig2", "fig3-full", "stepwise", "oracle")
SEED_FREE = ("fig2",)             # workloads whose inputs do not depend on the seed
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIG3_HORIZON = 20_000
STEPWISE_DRAWS = (0, 1, 2, 3)      # fig2 draws whose delay multisets are permuted
STEPWISE_HORIZON = 10_000
ORACLE_FLOAT_DRAWS = (4, 2)        # 8,400 and 28,350 enumerated states
ORACLE_EXACT_DELAYS = ((1, 2, 3, 3, 4), (2, 3, 3, 3, 4))   # 480 and 960 states
PMSP_INTERVALS = ("2,4,8,8", "2,3,12")
FLOAT_TOL = 1e-9


@dataclass
class Unit:
    label: str                 # names the unit's inputs; keys the reference
    kind: str                  # experiment | rank | oracle | pmsp
    argv: list
    outdir: Path | None = None
    subject: object = None     # instance (or PMSP intervals) the invariants need


@dataclass
class Outcome:
    rc: int
    stdout: str
    files: dict = field(default_factory=dict)   # output file name -> sha256

    @property
    def digest(self) -> str:
        blob = json.dumps([self.rc, self.stdout, self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# -- inputs -------------------------------------------------------------------


def make_plan(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's inputs under `workdir`; return the units of one pass."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    builders = {"fig2": _fig2, "fig3-full": _fig3_full, "stepwise": _stepwise, "oracle": _oracle}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](seed, workdir)


def _seeds(values) -> str:
    return ",".join(str(v) for v in values)


def _fig2(seed, workdir):
    out = workdir / "fig2"
    return [Unit("experiment", "experiment", ["experiment", "--preset", "fig2", "--out", str(out)],
                 out)]


def _fig3_full(seed, workdir):
    out = workdir / "fig3"
    argv = ["experiment", "--preset", "fig3-cost", "--full-curves", "-T", str(FIG3_HORIZON),
            "--seeds", _seeds(10 * seed + j for j in range(10)), "--out", str(out)]
    return [Unit("experiment", "experiment", argv, out)]


def _permuted_delays(draw_ds, seed, key) -> list:
    return [int(v) for v in substream(seed, "perfbench", key).permutation(list(draw_ds))]


def write_instance(doc: dict, path: Path):
    """Write an instance file and return the instance as the CLI will load it."""
    inst = harness.load_instance(doc)
    path.write_text(json.dumps(harness.dump_instance(inst, doc.get("label", ""))) + "\n")
    return harness.load_instance(path)


def _fig2_draw(index: int) -> tuple:
    return harness.materialize_instance(harness.preset_fig2().instance, index).ds


def _stepwise(seed, workdir):
    spec = harness.preset_fig2().instance
    units = []
    for j, draw in enumerate(STEPWISE_DRAWS):
        doc = dict(spec, d=_permuted_delays(_fig2_draw(draw), seed, f"stepwise{j}"))
        path = workdir / f"stepwise{j}.json"
        inst = write_instance(doc, path)
        out = workdir / f"stepwise{j}"
        run_seed = str(len(STEPWISE_DRAWS) * seed + j)
        units.append(Unit(f"experiment[d{j}]", "experiment",
                          ["experiment", "--instance", str(path), "--algos", "greedy,ghost",
                           "-T", str(STEPWISE_HORIZON), "--seeds", run_seed, "--out", str(out)],
                          out, inst))
        units.append(Unit(f"rank[d{j}]", "rank",
                          ["rank", "--instance", str(path), "--seed", run_seed], None, inst))
    return units


def _oracle(seed, workdir):
    spec = harness.preset_fig2().instance
    units = []
    float_spec = dict(spec, mu=[float(Fraction(m)) for m in spec["mu"]],
                      discount={"kind": "geometric", "gamma": 0.999})
    for j, draw in enumerate(ORACLE_FLOAT_DRAWS):
        doc = dict(float_spec, d=_permuted_delays(_fig2_draw(draw), seed, f"float{j}"))
        path = workdir / f"float{j}.json"
        units.append(Unit(f"oracle[float{j}]", "oracle", ["oracle", "--instance", str(path)],
                          None, write_instance(doc, path)))
    for j, ds in enumerate(ORACLE_EXACT_DELAYS):
        doc = {"k": len(ds), "mu": spec["mu"][:len(ds)], "discount": spec["discount"],
               "d": _permuted_delays(ds, seed, f"exact{j}")}
        path = workdir / f"exact{j}.json"
        units.append(Unit(f"oracle[exact{j}]", "oracle", ["oracle", "--instance", str(path)],
                          None, write_instance(doc, path)))
    for intervals in PMSP_INTERVALS:
        units.append(Unit(f"pmsp[{intervals}]", "pmsp",
                          ["pmsp", "--intervals", intervals, "--check-reduction"], None,
                          tuple(int(v) for v in intervals.split(","))))
    return units


# -- running and checking -------------------------------------------------------


def run_unit(unit: Unit) -> Outcome:
    """Call the CLI in-process, capturing stdout and hashing every output file."""
    if unit.outdir is not None:
        shutil.rmtree(unit.outdir, ignore_errors=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(unit.argv)
    files = {}
    if unit.outdir is not None and unit.outdir.is_dir():
        for path in sorted(unit.outdir.iterdir()):
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return Outcome(rc, buf.getvalue(), files)


def check_unit(unit: Unit, outcome: Outcome, reference: dict | None) -> list:
    """Problems found in a unit's output; empty when it is correct."""
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"]
    problems = INVARIANTS[unit.kind](unit, outcome)
    if reference is not None:
        tol = FLOAT_TOL if unit.kind == "oracle" and not unit.subject.is_exact else 0.0
        problems += compare(reference, observe(unit, outcome), tol)
    return problems


@dataclass
class PassRecord:
    wall_s: float
    unit_s: list               # wall time of each unit, its check included
    digests: list              # per unit, None where the unit raised


class Session:
    """Runs passes over the same units; counts attempted and failed units.

    With a tracer, each unit is a "bench.unit" span. The tracer's patches are
    installed only while the CLI call runs, so the check, a "bench.verify"
    span, records no layer spans or counts even where it calls the library.
    """

    def __init__(self, units: list, reference: dict):
        self.units = units
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, after_unit=None) -> PassRecord:
        """Run every unit once; `after_unit()` is called, untimed, after each."""
        span = tracer.span if tracer is not None else _no_span
        patched = tracer.installed if tracer is not None else contextlib.nullcontext
        digests, unit_s, untimed = [], [], 0.0
        t0 = perf_counter()
        for unit in self.units:
            t1 = perf_counter()
            with span("bench.unit"):
                digests.append(self._run_unit(unit, span, patched))
            t2 = perf_counter()
            unit_s.append(t2 - t1)
            if after_unit is not None:
                after_unit()
                untimed += perf_counter() - t2
        return PassRecord(perf_counter() - t0 - untimed, unit_s, digests)

    def _run_unit(self, unit, span, patched):
        self.attempted += 1
        outcome = None
        try:
            with patched():
                outcome = run_unit(unit)
            with span("bench.verify"):
                problems = check_unit(unit, outcome, self.reference.get(unit.label))
        except (Exception, SystemExit):   # argparse exits; any unit failure is counted, not fatal
            problems = [traceback.format_exc()]
        if problems:
            self.fail(unit.label, problems)
        return outcome.digest if outcome is not None else None

    def fail(self, label, problems):
        self.failed += 1
        for problem in problems:
            print(f"FAIL {label}: {problem}", file=sys.stderr)


@contextlib.contextmanager
def _no_span(name):
    yield


def parse_stdout(text: str) -> dict:
    """'key: value' and 'key = value' lines as a dict."""
    fields = {}
    for line in text.splitlines():
        for sep in (": ", " = "):
            if sep in line:
                key, value = line.split(sep, 1)
                fields[key] = value
                break
    return fields


def observe(unit: Unit, outcome: Outcome) -> dict:
    """The part of a unit's output that the reference pins down."""
    fields = parse_stdout(outcome.stdout)
    if unit.kind == "experiment":
        meta = json.loads((unit.outdir / "metadata.json").read_text())
        meta.pop("versions", None)   # library versions are host facts, not results
        return {
            "csv": {name: sha for name, sha in outcome.files.items() if name.endswith(".csv")},
            "metadata": meta,
            "stdout": {k: v for k, v in fields.items() if k.startswith("mean_final_regret")},
        }
    if unit.kind == "rank":
        return {key: fields.get(key) for key in ("permutation", "rounds", "pulls", "complete")}
    if unit.kind == "oracle":
        return {"optimal_average": float(fields["optimal_average"])}
    keys = ("feasible", "period", "threshold", "reduced_optimal_average", "meets_threshold")
    return {key: fields.get(key) for key in keys}


def compare(ref, actual, tol: float = 0.0, path: str = "") -> list:
    """Mismatches between `actual` and every field present in `ref`."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return [f"{path or '/'}: expected an object, got {actual!r}"]
        problems = []
        for key, value in ref.items():
            if key not in actual:
                problems.append(f"{path}/{key}: missing")
            else:
                problems += compare(value, actual[key], tol, f"{path}/{key}")
        return problems
    if isinstance(ref, float) and isinstance(actual, float):
        same = abs(ref - actual) <= tol
    else:
        same = ref == actual
    return [] if same else [f"{path}: expected {ref!r}, got {actual!r}"]


def _csv_column(path: Path, column: str, last_only: bool = False) -> list:
    text = path.read_text()
    header, _, body = text.partition("\n")
    j = header.split(",").index(column)
    rows = [body.rstrip("\n").rpartition("\n")[2]] if last_only else body.splitlines()
    return [row.split(",")[j] for row in rows]


def _experiment_invariants(unit, outcome) -> list:
    problems = []
    meta = json.loads((unit.outdir / "metadata.json").read_text())
    for algo in meta["algorithms"]:
        for seed in meta["seeds"]:
            name = f"{algo}_seed{seed}.csv"
            if name not in outcome.files:
                problems.append(f"{name} not written")
                continue
            info = meta["runs"].get(f"{algo}/seed{seed}", {})
            if "switches" in info:
                traced = int(_csv_column(unit.outdir / name, "switches", last_only=True)[0])
                if traced != info["switches"]:
                    problems.append(f"{algo}/seed{seed}: learner counts {info['switches']} "
                                    f"switches, its trace {traced}")
            if algo == "ghost":
                if any(float(v) != 0.0 for v in _csv_column(unit.outdir / name, "regret")):
                    problems.append(f"ghost/seed{seed}: regret is not identically 0")
    return problems


def _rank_invariants(unit, outcome) -> list:
    fields = parse_stdout(outcome.stdout)
    problems = []
    perm = [int(v) for v in fields.get("permutation", "").split()]
    if sorted(perm) != list(range(unit.subject.k)):
        problems.append(f"permutation {perm} is not a permutation of the arms")
    if fields.get("complete") != "True":
        problems.append("ranking did not complete")
    if int(fields.get("rounds", 0)) < 1 or int(fields.get("pulls", 0)) < 1:
        problems.append("no rounds or pulls reported")
    return problems


def _oracle_invariants(unit, outcome) -> list:
    inst = unit.subject
    fields = parse_stdout(outcome.stdout)
    rho_printed = float(fields["optimal_average"])
    arms = [int(a) for a in fields["arms"].split()]
    states = [tuple(int(t) for t in s.split("/")) for s in fields["states"].split()]
    if not arms or len(arms) != len(states) or len(arms) != int(fields["cycle_length"]):
        return ["witness cycle is empty or its arms, states and length disagree"]
    tol = 0 if inst.is_exact else FLOAT_TOL
    state, total = states[0], 0
    for i, arm in enumerate(arms):
        if state != states[i]:
            return [f"witness state {i} does not follow from the previous pull"]
        total = total + expected_payoff(inst, arm, state[arm])
        state = advance_state(state, arm, inst)
    if state != states[0]:
        return ["witness cycle is not closed"]
    rho = Fraction(total, len(arms)) if inst.is_exact else total / len(arms)
    problems = []
    if abs(float(rho) - rho_printed) > tol:
        problems.append(f"witness mean {float(rho)!r} differs from printed rho* {rho_printed!r}")
    ghost = policies.ghost_summary(inst)
    if max(ghost.g_values) > rho + tol:
        problems.append("rho* is below max g(m)")
    if ghost.g_values[ghost.r_star - 1] < (1 - inst.discount(ghost.r_zero)) * rho - tol:
        problems.append("g(r*) is below (1 - f(r_zero)) rho*")
    for m in range(1, inst.k):
        for n in range(m + 1, inst.k + 1):
            if oracle.alternation_value(inst, m, n) > rho + tol:
                problems.append(f"rho* is below the ({m}, {n}) alternation value")
    return problems


def _pmsp_invariants(unit, outcome) -> list:
    fields = parse_stdout(outcome.stdout)
    problems = []
    if fields.get("meets_threshold") != fields.get("feasible"):
        problems.append("reduced optimum disagrees with the feasibility verdict")
    if fields.get("feasible") == "True":
        intervals = unit.subject
        period = int(fields["period"])
        offsets = [int(v) for v in fields["offsets"].split()]
        slots = [int(v) for v in fields["schedule"].split()]
        expected = [0] * period
        for machine, (interval, offset) in enumerate(zip(intervals, offsets)):
            for t in range(offset, period, interval):
                expected[t] = machine + 1
        if len(offsets) != len(intervals) or slots != expected:
            problems.append("schedule does not serve each machine at exactly its interval")
    return problems


INVARIANTS = {
    "experiment": _experiment_invariants,
    "rank": _rank_invariants,
    "oracle": _oracle_invariants,
    "pmsp": _pmsp_invariants,
}


def load_reference(workload: str, seed: int) -> dict:
    """Reference outputs by unit label; empty where the seed changes the inputs."""
    if seed != DEFAULT_SEED and workload not in SEED_FREE:
        return {}
    return json.loads(REFERENCE_PATH.read_text())[workload]
