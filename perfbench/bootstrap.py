"""Make the benchmark import delaybandit from this checkout's `src/`, single-threaded.

Imported first by every benchmark entry point, before numpy is loaded, so the
thread-count variables take effect.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class MissingSource(RuntimeError):
    """The checkout holds no delaybandit sources to benchmark."""


def use_checkout_src():
    """Put `src/` first on sys.path and check that delaybandit resolves there."""
    if not (SRC / "delaybandit" / "__init__.py").is_file():
        raise MissingSource(f"no delaybandit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import delaybandit

    if SRC not in Path(delaybandit.__file__).resolve().parents:
        raise MissingSource(f"delaybandit imported from {delaybandit.__file__}, not {SRC}")
