"""Set-up probe: import delaybandit and write one workload's inputs, then exit.

    python3 perfbench/probe.py <workload> <seed> <directory>

run.py times fresh runs of this script from the outside as `setup_s`, the cost
a user pays on every CLI call before any work starts.
"""

import bootstrap  # noqa: I001  (sets the thread-count variables before numpy loads)

import sys
from pathlib import Path

if __name__ == "__main__":
    bootstrap.use_checkout_src()
    import workloads

    workload, seed, directory = sys.argv[1:4]
    workloads.make_plan(workload, int(seed), Path(directory))
