"""delaybandit benchmark runner.

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --profile stepwise

Runs one workload (see workloads.py) in this process, single-threaded, as a
closed loop: a pass starts when the previous one has been verified, until
--seconds have elapsed. Every unit's output is checked; a unit that raises,
exits non-zero or fails a check counts as failed.

--trace 0 prints the end-to-end metrics: median pass wall time, peak RSS, and
set-up time (median of SETUP_REPEATS fresh interpreters that import
delaybandit and write the workload's inputs). Both times are in reference
seconds (see hostspeed.py): each unit of a pass, and each set-up, is scaled
by the time of a fixed kernel run right before and after it, which takes the
shared host's speed drift out of the figures. The medians in wall seconds,
and the host speed, go to stderr.
--trace 1 alternates an untraced and a traced pass on the same inputs and
prints the per-layer metrics from tracer.py, including the tracing overhead;
the traced outputs must hash the same as the untraced ones.
--profile prints a cProfile top-10 of one pass and no result.

The last stdout line is the result JSON; the line before it gives host facts.
"""

import bootstrap  # noqa: I001  (sets the thread-count variables before numpy loads)

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

PROBE = Path(__file__).with_name("probe.py")
SETUP_REPEATS = 7
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def measure_setup(workload, seed, workdir) -> tuple:
    """Wall and reference seconds of fresh interpreters doing the workload's set-up."""
    clock, wall, ref = hostspeed.Clock(), [], []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(PROBE), workload, str(seed), str(workdir / f"setup{i}")],
                       check=True)
        wall.append(perf_counter() - t0)
        clock.probe()
        ref.append(clock.reference_s(wall[-1:]))
    return wall, ref, clock


def run_plain(session, seconds) -> tuple:
    """Wall and reference seconds of passes, until `seconds` have elapsed."""
    clock, wall, ref = hostspeed.Clock(), [], []
    t0 = perf_counter()
    while not wall or perf_counter() - t0 < seconds:
        record = session.run_pass(after_unit=clock.probe)
        wall.append(record.wall_s)
        ref.append(clock.reference_s(record.unit_s))
    return wall, ref, clock


def end_to_end(passes, setups) -> dict:
    for name, (wall, ref, clock) in (("pass", passes), ("set-up", setups)):
        print(f"{name}: {len(wall)} timed, median {statistics.median(wall):.4f} wall s, "
              f"{statistics.median(ref):.4f} reference s; host speed {clock.speed():.3f}",
              file=sys.stderr)
    return {
        "wall_s": statistics.median(passes[1]),
        "setup_s": statistics.median(setups[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(session, seconds, tracing) -> dict:
    tracer = tracing.Tracer()
    tracer.calibrate()
    plain, traced = [], []
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        plain.append(session.run_pass())
        traced.append(session.run_pass(tracer))
        for unit, a, b in zip(session.units, plain[-1].digests, traced[-1].digests):
            if a != b:
                session.fail(unit.label, ["traced output differs from untraced output"])
    table = tracer.span_table()
    data = tracing.LayerData(
        spans=table, counts=dict(tracer.counts), peaks=dict(tracer.peaks), passes=len(traced),
        traced_wall_s=statistics.median(t.wall_s for t in traced),
        overhead_s=statistics.median(t.wall_s - u.wall_s for t, u in zip(traced, plain)),
    )
    _print_span_table(tracer, table, sum(t.wall_s for t in traced), len(traced))
    return tracing.layer_metrics(data)


def _print_span_table(tracer, table, traced_total_s, passes):
    print(f"per traced pass (mean of {passes}); share of the traced wall time; wrapper cost "
          f"left in callers: {tracer.span_cost * 1e9:.0f} ns per span, "
          f"{tracer.count_cost * 1e9:.0f} ns per count (subtracted)", file=sys.stderr)
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:32s} calls {calls / passes:12.1f}  self {own / passes:9.4f} s"
              f"  {own / traced_total_s:6.1%}", file=sys.stderr)


def profile(session):
    prof = cProfile.Profile()
    prof.enable()
    session.run_pass()
    prof.disable()
    pstats.Stats(prof, stream=sys.stdout).sort_stats("cumulative").print_stats(10)


def host_facts(seed) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
            "workload_seed": seed}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="WORKLOAD",
                        help="print a cProfile top-10 of one pass of WORKLOAD, no result")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.profile is None):
        parser.error("give exactly one of --workload and --profile")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = args.workload or args.profile
    try:
        bootstrap.use_checkout_src()
    except bootstrap.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = bootstrap.ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    try:
        session = workloads.Session(workloads.make_plan(workload, args.seed, workdir / "inputs"),
                                    workloads.load_reference(workload, args.seed))
        if args.profile:
            profile(session)
            return 0
        if args.trace:
            import tracer as tracing

            metrics = run_traced(session, args.seconds, tracing)
            units = {layer.name: layer.unit for layer in tracing.LAYER_METRICS}
        else:
            setups = measure_setup(workload, args.seed, workdir)
            metrics = end_to_end(run_plain(session, args.seconds), setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("host " + json.dumps(host_facts(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
