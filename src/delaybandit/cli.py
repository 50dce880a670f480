"""Command-line harness: oracles, learners, schedulers, and experiment presets."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from .core import Environment, substream
from .harness import (
    ExperimentConfig,
    load_instance,
    preset_fig2,
    preset_fig3,
    run_experiment,
)
from .low_switch import run_pi_low
from .oracle import PmspInstance, optimal_average, pmsp_feasible, pmsp_threshold, pmsp_to_bandit
from .policies import ghost_summary
from .ranker import calibrated_sampler, rank_arms


def _add_instance_arg(p):
    p.add_argument("--instance", required=True, help="path to a JSON instance file")


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    rho, cycle = optimal_average(instance, cap=args.cap)
    print(f"optimal_average: {float(rho)!r}")
    print(f"cycle_length: {len(cycle)}")
    print(f"reachable_states: {cycle.reachable_states}")
    print("arms: " + " ".join(str(a) for a in cycle.arms))
    print("states: " + " ".join("/".join(map(str, s)) for s in cycle.states))
    return 0


def _cmd_ghost(args) -> int:
    instance = load_instance(args.instance)
    summary = ghost_summary(instance)
    for m, g in enumerate(summary.g_values, start=1):
        print(f"g({m}) = {float(g)!r}")
    print(f"r_star = {summary.r_star}")
    print(f"r_zero = {summary.r_zero}")
    return 0


def _cmd_rank(args) -> int:
    instance = load_instance(args.instance)
    d0 = args.d0 if args.d0 is not None else max(instance.ds) + 1
    if d0 >= args.pull_cap >= 1:    # a cap below 1 is rank_arms' own error
        raise ValueError(f"d0 must be below the pull cap, got d0={d0} and pull cap "
                         f"{args.pull_cap}: a round pulls at least d0 + 1 times")
    env = Environment(instance, substream(args.seed, "rank"))
    outcome = rank_arms(calibrated_sampler(env, d0), instance.k, args.delta,
                        pull_cap=args.pull_cap)
    print(f"permutation: {' '.join(map(str, outcome.permutation))}")
    print(f"rounds: {outcome.rounds}")
    print(f"pulls: {outcome.pulls}")
    print(f"complete: {outcome.complete}")
    for arm in range(instance.k):
        print(f"arm {arm}: eliminated_round={outcome.elimination_round[arm]}")
    return 0 if outcome.complete else 1


def _cmd_learn(args) -> int:
    instance = load_instance(args.instance)
    run = run_pi_low(instance, args.horizon, args.delta, seed=args.seed)
    sched = run.schedule
    print(f"stages: {sched.num_stages}")
    print("T_s: " + " ".join(map(str, sched.sizes)))
    print("C_s: " + " ".join(repr(c) for c in sched.radii))
    for rec in run.stages:
        est = " ".join(f"{m}:{rec.estimates[m]:.4f}" for m in sorted(rec.estimates))
        print(f"stage {rec.stage}: active={list(rec.active)} best={rec.best} "
              f"eliminated={list(rec.eliminated)} estimates[{est}]")
    print(f"survivors: {list(run.survivors)}")
    print(f"switches: {run.total_switches}")
    print(f"tail_pulls: {run.tail_pulls}")
    return 0


def _cmd_pmsp(args) -> int:
    intervals = tuple(int(v) for v in args.intervals.split(","))
    pmsp = PmspInstance(intervals)
    verdict = pmsp_feasible(pmsp, cap=args.cap)
    threshold = pmsp_threshold(pmsp)
    rho = optimal_average(pmsp_to_bandit(pmsp))[0] if args.check_reduction else None
    print(f"feasible: {verdict.feasible}")
    print(f"period: {verdict.period}")
    if verdict.feasible:
        print("offsets: " + " ".join(map(str, verdict.offsets)))
        print("schedule: " + " ".join(map(str, verdict.slots)))
    print(f"threshold: {threshold} ({float(threshold)!r})")
    if rho is not None:
        print(f"reduced_optimal_average: {float(rho)!r}")
        print(f"meets_threshold: {rho >= threshold}")
    return 0


PRESETS = {config.label: config
           for config in (preset_fig2(), preset_fig3(cost=True), preset_fig3(cost=False))}


def _cmd_experiment(args) -> int:
    if args.preset:
        for flag, value in (("--algos", args.algos), ("--instance", args.instance)):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --preset")
        base = PRESETS[args.preset]
    elif args.instance:
        base = ExperimentConfig(instance={"file": args.instance}, algorithms=("low", "ucb"),
                                horizon=10_000, delta=0.1, switch_cost=0.0, seeds=(0,),
                                label="custom")
    else:
        raise ValueError("either --preset or --instance is required")
    if args.seeds == "":
        raise ValueError("--seeds needs at least one seed")
    given = dict(algorithms=_split(args.algos), horizon=args.horizon, delta=args.delta,
                 switch_cost=args.switch_cost, seeds=_split(args.seeds, int))
    config = replace(base, outdir=args.out, full_curves=args.full_curves,
                     **{name: value for name, value in given.items() if value is not None})
    result = run_experiment(config)
    for algo in config.algorithms:
        print(f"mean_final_regret[{algo}] = {result.mean_final_regret[algo]!r}")
    if args.out:
        print(f"wrote {len(result.files)} files to {args.out}")
    return 0


def _split(text, convert=str):
    # a comma-separated option: None when not given, () when given empty
    if text is None:
        return None
    return tuple(map(convert, text.split(","))) if text else ()


class _Parser(argparse.ArgumentParser):
    """argparse whose rejections raise ValueError, so `main` reports them as one line."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at its first use and reused by every later `main` call.

    Reuse is safe: `parse_args` fills a fresh namespace per call, and each command's
    `func` looks its library calls up in this module's globals when it runs."""
    parser = _Parser(
        prog="delaybandit",
        description="Delay-dependent bandit laboratory: oracles, learners, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="optimal long-run average and witness cycle")
    _add_instance_arg(p)
    p.add_argument("--cap", type=int, default=10**6,
                   help="most delay states reachable from all-zero to search; "
                        "memory grows as states x arms")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ghost", help="ranking-policy values g(m), r_star, r_zero")
    _add_instance_arg(p)
    p.set_defaults(func=_cmd_ghost)

    p = sub.add_parser("rank", help="learn the arm ordering on the environment")
    _add_instance_arg(p)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--d0", type=int, default=None, help="delay upper bound (> max d_i)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pull-cap", type=int, default=10**7)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("learn", help="run the low-switch learner")
    _add_instance_arg(p)
    p.add_argument("-T", "--horizon", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("pmsp", help="periodic maintenance feasibility and reduction")
    p.add_argument("--intervals", required=True, help="comma-separated service intervals")
    p.add_argument("--cap", type=int, default=10**4)
    p.add_argument("--check-reduction", action="store_true",
                   help="also solve the reduced bandit instance")
    p.set_defaults(func=_cmd_pmsp)

    p = sub.add_parser("experiment", help="run a preset or custom experiment")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--instance", help="custom instance file (with --algos)")
    p.add_argument("--algos", help="comma-separated algorithms, custom runs only "
                                    "(default low,ucb)")
    p.add_argument("-T", "--horizon", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--switch-cost", type=float, default=None)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--out", help="output directory for CSV + metadata")
    p.add_argument("--full-curves", action="store_true",
                   help="write full-resolution curves instead of 2000 points")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit status: 0 on success, 1 for a `rank` stopped
    by its pull cap, 2 for a rejected option or input (one `error:` line on stderr), 141
    (128 + SIGPIPE) for a closed stdout, with nothing on stderr. `--help` exits 0 through
    argparse. The parser is built once per process."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the exit flush would fail again on what is still buffered: send it to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
