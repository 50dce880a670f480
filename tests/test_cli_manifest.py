"""Pinned CLI outputs: each command's pin is the sha256 of its (exit code, stdout, stderr).

This is the oracle's slice of the manifest: `oracle` on the five exact fig2 delay draws and
their float copies, `oracle`'s `--cap` error, and `pmsp --check-reduction` on small
reductions. Instance files are written from the fixed documents below. A pin changes only
with a change that means to change that output.

SLOW holds larger reductions kept out of the suite; check them by hand with
`PYTHONPATH=src python tests/test_cli_manifest.py`.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from delaybandit import cli

FIG2_MU = ["1", "14/15", "13/15", "4/5", "2/3", "1/3", "0"]
# the fig2 preset's delay draws for seeds 0-4
FIG2_DRAWS = [(4, 3, 3, 6, 4, 3, 4), (4, 6, 3, 6, 5, 4, 1), (4, 6, 2, 4, 2, 5, 2),
              (4, 4, 4, 2, 5, 6, 2), (1, 6, 4, 4, 1, 5, 1)]
INSTANCES = {}
for _j, _ds in enumerate(FIG2_DRAWS):
    INSTANCES[f"exact{_j}"] = {"k": 7, "mu": FIG2_MU, "d": list(_ds),
                               "discount": {"kind": "geometric", "gamma": "999/1000"}}
    INSTANCES[f"float{_j}"] = {"k": 7, "mu": [float(F(m)) for m in FIG2_MU], "d": list(_ds),
                               "discount": {"kind": "geometric", "gamma": 0.999}}

MANIFEST = [
    (("oracle", "--instance", "exact0"),
     "1e9f15b007d7d56a502c70e0fb23373287932e84044dfe17001e64b4c7510ffa"),
    (("oracle", "--instance", "exact1"),
     "985f97ea310fbb3df306a8a667c42816719bc99ed37425b998190c06ecf5f05e"),
    (("oracle", "--instance", "exact2"),
     "74114a189c09422092d687b0c09be8d69885126d31d90a5912aab562fe4d64a9"),
    (("oracle", "--instance", "exact3"),
     "f7647b2786153f4f3b25aca1a3ba6a13381bbe1d76439b3e7f560695a2fa517b"),
    (("oracle", "--instance", "exact4"),
     "23943c2955eda9867711e61811ce03aa8f248e8866638c803071d56b19f81d08"),
    (("oracle", "--instance", "float0"),
     "5ba71655aba6d32294a5e41da32c40a137ebe5d5afb21ade9fc53a46a7d8a3ca"),
    (("oracle", "--instance", "float1"),
     "eba5d626525161d9e748968cc20f4f57ab9f71cc3a2eaec03d606376971f599a"),
    (("oracle", "--instance", "float2"),  # prints what exact2 prints
     "74114a189c09422092d687b0c09be8d69885126d31d90a5912aab562fe4d64a9"),
    (("oracle", "--instance", "float3"),
     "648f1b3fc4fc5ada59afef81235068e135118848ef1682e43107cb56dd5d7440"),
    (("oracle", "--instance", "float4"),
     "ee19d5d523d48b758626d1c2e8746aad444c1429945ff8ca5bd529ac50f57024"),
    # 3,750 reachable states: one error line and exit code 2
    (("oracle", "--instance", "exact1", "--cap", "1000"),
     "b061d8b37951180838487723a61ee9eaee192af67743c33fac05b8c9a94f1d3e"),
    (("pmsp", "--intervals", "2,4,4", "--check-reduction"),
     "a7ee89e2f9f63385a55ed0ec220dcb56e39791372109361113a8c9d3ceb7abf2"),
    (("pmsp", "--intervals", "2,4,8,8", "--check-reduction"),
     "02282b768e9666b3a15b037469878e6578b47fc92020333bbcbba7ea86b5ffea"),
    (("pmsp", "--intervals", "2,3,12", "--check-reduction"),
     "9f8facfcb6ae1791f0454a62942564780b46f3bd75f58ebf5baaf35ee73232fc"),
    (("pmsp", "--intervals", "6,6,6,6,6,6", "--check-reduction"),
     "cea84f031a927d639a7d35605b41cc77f3997fa72da81b0cf42ce61428582e12"),
]

SLOW = [
    (("pmsp", "--intervals", "7,7,7,7,7,7,7", "--check-reduction"),
     "3b7d844c4c9292c2b9fcd407c9a6d86a1041a16c798ecb07fcbe1f0c5354fef5"),
    (("pmsp", "--intervals", "8,8,8,8,8,8,8,8", "--check-reduction"),
     "3417076a6b35206fa97239bc480de4efc3d2a2d6f98dbd2d7fef28343dd56f1d"),
]


def digest(argv) -> str:
    """sha256 of repr((exit code, stdout, stderr)) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def resolve(argv, directory) -> list:
    """argv with each `--instance` name replaced by its file in directory."""
    argv = list(argv)
    for i in range(1, len(argv)):
        if argv[i - 1] == "--instance":
            argv[i] = str(directory / f"{argv[i]}.json")
    return argv


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("instances")
    for name, doc in INSTANCES.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return directory


@pytest.mark.parametrize("argv, pin", MANIFEST, ids=[" ".join(argv) for argv, _ in MANIFEST])
def test_cli_output_is_pinned(argv, pin, instance_dir):
    assert digest(resolve(argv, instance_dir)) == pin


if __name__ == "__main__":
    failed = [argv for argv, pin in SLOW if digest(argv) != pin]
    for argv in failed:
        print("changed: " + " ".join(argv))
    sys.exit(bool(failed))
