"""Record reference.json: every unit's checked outputs at the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good; later runs of
run.py at the default seed must then reproduce these outputs exactly (oracle
values on float instances within workloads.FLOAT_TOL).
"""

import bootstrap  # noqa: I001  (sets the thread-count variables before numpy loads)

import json
import shutil
import sys


def record(workloads) -> dict:
    reference = {}
    workdir = bootstrap.ROOT / ".perfbench" / "record"
    try:
        for workload in workloads.WORKLOADS:
            plan = workloads.make_plan(workload, workloads.DEFAULT_SEED, workdir / workload)
            entries = reference[workload] = {}
            for unit in plan:
                outcome = workloads.run_unit(unit)
                problems = workloads.check_unit(unit, outcome, None)
                if problems:
                    raise SystemExit(f"{workload} {unit.label}: {problems}")
                entries[unit.label] = workloads.observe(unit, outcome)
                print(f"{workload} {unit.label}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return reference


if __name__ == "__main__":
    bootstrap.use_checkout_src()
    import workloads

    workloads.REFERENCE_PATH.write_text(json.dumps(record(workloads), sort_keys=True) + "\n")
