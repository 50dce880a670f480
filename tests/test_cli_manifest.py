"""Pinned CLI outputs: each command's pin is the sha256 of its (exit code, stdout, stderr).

This is the one place a CLI byte is pinned. It covers `oracle` on the five exact fig2 delay
draws, their float copies and the oracle benchmark workload's instances at seeds 0-2;
`oracle`'s `--cap` error; `pmsp --check-reduction` on small reductions and `pmsp` on four
repeated-interval sets; `ghost`, `learn` and `rank` on fig2 draws 0 and 1, exact and float;
`experiment` on each preset, at the fig2 preset's own horizon, and on custom runs, one of
them at T = 2e6; and the `error:` paths that exit 2. An `experiment` run writes into a
relative `--out`, and every file it writes is pinned too. Instance files are written from
the fixed documents below. A pin changes only with a change that means to change that
output. The cases run in order in one process, on the one parser `cli.main` keeps, so an
option one call leaves behind shows in a later pin: `rank --pull-cap 5000` follows
`rank --d0 9` on the same instance.

SLOW holds larger reductions kept out of the suite. Run them, as CI does after the suite,
with `PYTHONPATH=src timeout 120 python tests/test_cli_manifest.py`: it prints each command
whose pin changed and exits 1 if any did.
"""

import argparse
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
INSTANCES["nomu"] = {"k": 7, "d": list(FIG2_DRAWS[0]),
                     "discount": {"kind": "geometric", "gamma": "999/1000"}}
# the oracle benchmark workload's instances at its seeds 0-2: fig2 draws 4 and 2 with float
# payoffs (floatJ) and the five-arm exact delays (1,2,3,3,4) and (2,3,3,3,4) (exactJ), each
# permuted by substream(seed, "perfbench", "floatJ" or "exactJ"); seeds 1 and 2 draw the same
# exact1 order
BENCH_DELAYS = {
    "s0-float0": [1, 1, 4, 4, 5, 1, 6], "s0-float1": [2, 2, 4, 6, 2, 5, 4],
    "s0-exact0": [2, 3, 4, 1, 3], "s0-exact1": [4, 2, 3, 3, 3],
    "s1-float0": [5, 1, 1, 4, 1, 4, 6], "s1-float1": [5, 4, 2, 4, 2, 6, 2],
    "s1-exact0": [4, 1, 3, 2, 3], "s1-exact1": [2, 4, 3, 3, 3],
    "s2-float0": [6, 1, 1, 4, 1, 4, 5], "s2-float1": [4, 5, 2, 4, 6, 2, 2],
    "s2-exact0": [3, 4, 1, 2, 3], "s2-exact1": [2, 4, 3, 3, 3],
}
for _name, _ds in BENCH_DELAYS.items():
    _like = INSTANCES["float0" if "float" in _name else "exact0"]
    INSTANCES[_name] = dict(_like, k=len(_ds), mu=_like["mu"][:len(_ds)], d=_ds)

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
    # the learners' slice; rank prints the same on both draws, every kept sample being
    # taken past every delay
    (("ghost", "--instance", "exact0"),
     "68661e7a9bbbaaa556977dba328f9be4157f7f93f174c4d4fb82f28d6e70669c"),
    (("ghost", "--instance", "exact1"),
     "e13677472ae60c02e9c286e67d70cbc4b76aa528af696045f1674db2702b007f"),
    (("learn", "--instance", "exact0", "-T", "5000"),
     "477b74f46b2349dbbc4be795d8645c6925f9dcd1760d492a46da0929832046c5"),
    (("learn", "--instance", "exact1", "-T", "5000"),
     "2957c1c29e68b3a9104f3888cff645293212d1f0b62aa5dd8f24916d920b1ece"),
    (("rank", "--instance", "exact0"),
     "0b2048249541f7d929ee496af3aedb3606d5636b1d9abf3dd142cc581643ba2d"),
    (("rank", "--instance", "exact1"),
     "0b2048249541f7d929ee496af3aedb3606d5636b1d9abf3dd142cc581643ba2d"),
    (("rank", "--instance", "exact0", "--d0", "9"),
     "84bbbda38133f2b59c66701b350874ea00cc9ca9e5acb9a53286d91aaf2c6de7"),
    # the pull cap stops the ranker before its order is complete: exit code 1; run
    # after --d0 9 on the same parser, it also shows a --d0 left behind
    (("rank", "--instance", "exact0", "--pull-cap", "5000"),
     "7bcc8bfe1e078dc0f5d5bd269b237622909efa2a7c7d477fef3c7fc8cffadeb7"),
    # T_5 = 9,492 at this horizon needs the stage sizes in exact integers
    (("learn", "--instance", "exact0", "-T", "12753"),
     "5a485b7995d0d80c76125e904e257b0b8990ddbf65ffd9acafb3f8d6ababbc07"),
    (("ghost", "--instance", "float0"),
     "89d44b4b12f4f1f751440aa5cd63af0f6d5ea9f71a08f11edde3ea549e9c5463"),
    (("ghost", "--instance", "float1"),
     "36cf90b070e83dd06954366acb0a33c2b166c638203ff0862b4c0e0db0112c44"),
    (("learn", "--instance", "float0", "-T", "5000"),
     "477b74f46b2349dbbc4be795d8645c6925f9dcd1760d492a46da0929832046c5"),
    (("learn", "--instance", "float1", "-T", "5000"),
     "2957c1c29e68b3a9104f3888cff645293212d1f0b62aa5dd8f24916d920b1ece"),
    (("rank", "--instance", "float0"),
     "0b2048249541f7d929ee496af3aedb3606d5636b1d9abf3dd142cc581643ba2d"),
    (("rank", "--instance", "float1"),
     "0b2048249541f7d929ee496af3aedb3606d5636b1d9abf3dd142cc581643ba2d"),
    # the oracle benchmark workload's instances
    (("oracle", "--instance", "s0-float0"),
     "b87de9b37b37d6b3e2b9ee52073278bd0768b05f2204a097208f3e20697e1f95"),
    (("oracle", "--instance", "s0-float1"),
     "1ed24fc2a09d3df896fd054606b8b0d0cc5b770067a2080c59bac2ee5dff1590"),
    (("oracle", "--instance", "s0-exact0"),
     "59e94af572a210a8581064ddd2ba037740ee1e68b15b091e740975bd5baa6412"),
    (("oracle", "--instance", "s0-exact1"),
     "4f49d306125bf71275b854c66ffa76be71afbba347ae1d950c0fbd1d915f7c66"),
    (("oracle", "--instance", "s1-float0"),
     "6c8869ab398c8d72e646d8fe20c9f078ebeedf5367e8a3e871667c32d18b4944"),
    (("oracle", "--instance", "s1-float1"),
     "97d6b571aa84aba282042fb46372c819b79933d8da7466a56ac8a3a35edeb806"),
    (("oracle", "--instance", "s1-exact0"),
     "6b3bfa0acf0dcb110898cc01c56669bc7640a00748d543878b2249358f54f466"),
    (("oracle", "--instance", "s1-exact1"),
     "15262cadc573780916205bdaead5bccce457806e6a65f170781fdaf983934795"),
    (("oracle", "--instance", "s2-float0"),
     "db8535781e6ec9abeb1b9295e740d9e751d111c171c9377e09efac4a72155758"),
    (("oracle", "--instance", "s2-float1"),
     "20ffb1a6fb6c921f0f049e1992aa125abaf4e361cde37199ff5abe1e1d2a6867"),
    (("oracle", "--instance", "s2-exact0"),
     "7afa193f7717978d274bee56601d361c799a705c29033f2c85c2fbee7d2a4b23"),
    (("oracle", "--instance", "s2-exact1"),
     "15262cadc573780916205bdaead5bccce457806e6a65f170781fdaf983934795"),
    # repeated intervals: three infeasible, the last feasible
    (("pmsp", "--intervals", "10,10,24,24,24,24,35,42"),
     "848147229f8052cc720796b36f2b83048e7f96c13edd740b0edc7654552fccd1"),
    (("pmsp", "--intervals", "12,12,12,21,21,21,21,35,35,35,36,36,36"),
     "0a080d9e1dafa041df137c8d4b7023e9df776683a647d4a37dc3f71508a4ca83"),
    (("pmsp", "--intervals", "12,12,12,12,12,28,28,28,35,35,35,35"),
     "97e57ea108ad94c7ba1cf5a5b52afea8bea9e1e22a0c5114c67111c9e75a29da"),
    (("pmsp", "--intervals", "14,14,14,28,28,28,28,40,40"),
     "e2c1f11e07b6b2b671451e246dc342247a03a2da6606fc1a06621bda37bdfe17"),
    # one error line and exit code 2 each, argparse's rejection of a fractional horizon too
    (("learn", "--instance", "exact0", "-T", "100", "--seed", str(2**64)),
     "4408389eb5786f8b45c1c6ded9d5657fc9e081532f64ebc8930d8948839ba1c6"),
    (("learn", "--instance", "exact0", "-T", "100", "--delta", "1"),
     "8baea9c9ac50b03546f20a5ebc89ff25089f6d092394f3891514e687990b2099"),
    (("experiment", "--preset", "fig2", "-T", "11.5"),
     "e50d12d1f52ee02e7473d91687a53c3ef938b1a69fadc1c101756fa1963b5a2b"),
    (("ghost", "--instance", "nomu"),
     "a976480c6e421eca4c0e8489ab03db74f7118dde3ab6d2ef0edd564ade65569d"),
]

# experiment runs that write files: the pin of (exit code, stdout, stderr) under "stdout",
# then each file's sha256, metadata.json's without its "versions" key (it names the numpy
# version), re-dumped with sorted keys
WRITES = [
    (("experiment", "--preset", "fig2", "-T", "2000", "--out", "out"), {
        "stdout": "ff4aa4b15616e15cbbb72a21206bc04505822e1cd8d8bc0e302c5d97c97ae0cd",
        "low_agg.csv": "fb8687a9b5574b0e20c3f4343adb71fe52f5870eb2b5f15d3f5861650ed658fb",
        "low_seed0.csv": "1e8576906357f2ce2a3a0352291d4c96326579f78b865dd9f80a345610b8588e",
        "low_seed1.csv": "f883c7c909c712da56cd13597e071707ace4d44d224e36fea340b83bd0b814d7",
        "low_seed2.csv": "36bd0cff0249a4059a0243afb1d911f52a7546d864d6ffe09e90cd158cec4d0f",
        "low_seed3.csv": "9a80761b20f06ede47cded99b4d612387946bf0150f60c15b87879679d9c2d95",
        "low_seed4.csv": "6bda5bac846254e9e7cb9853fa65917269c7ce095ea0a856f39023c9a926d953",
        "metadata.json": "d39402f15d191a320fc6effa5c51593f1ac02ad7ca3ce1688b47520d6e2e1cd2",
        "ucb_agg.csv": "d77ef0ac9d8c9a007c93567d24f154f8919cb4e218d5f1e1b45b5d8c5ee10b5c",
        "ucb_seed0.csv": "46c5b983e04e4aad65df312102e58e52853b1694017e0f257f715331ac0cddf8",
        "ucb_seed1.csv": "9edfbe8b04d3b8eb19f42dfaf4f11e2730c2443170475e5c4f11a80bc7a34cb6",
        "ucb_seed2.csv": "a8c9fe0ccca391e3af06fb42ae6316b333f5b2effb64c8018a45a90d47232a4b",
        "ucb_seed3.csv": "8f798682c241ca3edfb81dba63c46fe938859c705cf5dcad872695d3aa581295",
        "ucb_seed4.csv": "a688b4bd69795e5bdd25871de555cfa2d0e84037aa703531060e7dc945900972",
    }),
    (("experiment", "--preset", "fig3-cost", "-T", "2000", "--out", "out"), {
        "stdout": "269a2dbbda0486d385962087b3b59570bf3f8d35b62dbff06c71cb01ee52fcc2",
        "low_agg.csv": "f62405e1e75568e22571f74ba39935da55936700eeb1a62091db041130974b73",
        "low_seed0.csv": "1305020a172b8eafa79d933ec545b9ee15b2cd81658315b6fcabe87bd63d2cac",
        "low_seed1.csv": "807edcd9b3bb1f93280ebcff4f24a9b2a5eac248e84de7ea07eee36ed67c04f6",
        "low_seed2.csv": "cd2f5fd46d9015496fcb315cdf90a34983857df9c53cc49ccd459249f5ec6f03",
        "low_seed3.csv": "6c86ef667d52fabaca46f645f4bd0b2c25591c48f61a4182b0c97ae8a5b764a2",
        "low_seed4.csv": "88ca73392f982775103b6d5e71ae761d623a6ba299c76198783ac695965a6ef4",
        "low_seed5.csv": "4e83f414625422aedc8067b8c7d573c1e9607234c500c961619a4cb25c7155c0",
        "low_seed6.csv": "507c66d0c703c8d76c2d50c65e38b328bcaf2b01de60f3bfced023673fd292aa",
        "low_seed7.csv": "a22008f2d9ddf0eb27a3c45d5f6c83153bb75501e26fad8d8a56a7d8815fab12",
        "low_seed8.csv": "373bf00dfe97d4b6f8b32e013128c8a3fe35bd3cc6fe8c0c3378212f195ca783",
        "low_seed9.csv": "69267358a2e6979018c3400d5a17e9581b3820cad6fe9536aef9278e722ee288",
        "metadata.json": "d85dd1fef5dfa991526b908e32f1530921aa2b495dc17e4e61ef8b23426f9a8d",
        "ucb_agg.csv": "5b354d63b932469d1e5049d27f33b43ba81715786b93e291f877bf111e762531",
        "ucb_seed0.csv": "6a1b66b0246e63be17282a3bd2ac57bc576d1d3ddef1b8835d2668a40a06bd1d",
        "ucb_seed1.csv": "49443275d10c89233d49075cb5558dadfef8a073687f055c68c132b0a4383056",
        "ucb_seed2.csv": "aced9a18bab1c0db56eeb9b2647c44ec34cd8548bee13704d75681bbe51e1619",
        "ucb_seed3.csv": "bbd324ee8233355f7ce5db9a45d04a37a015103c45b636d17558dae4666de509",
        "ucb_seed4.csv": "d788e39b6864a18ea68450c36aa0046c3a47c4c56c3171680e080b35af6c9d1a",
        "ucb_seed5.csv": "03010006322d69b54df11585694e5f59b192529ffacacfb821c11050872a846e",
        "ucb_seed6.csv": "78461954de2d1dadcc81f3b1912d28aab12952999693dbe432cd7164aabec9ce",
        "ucb_seed7.csv": "b18bc674f47643d8de2f311b978d681dd5f3d63a0ed094337a7768750e01b6fc",
        "ucb_seed8.csv": "fda41daad52e0f87050819c70758087fbcac0cbdf173198c070390d95bf0a309",
        "ucb_seed9.csv": "cbc00b5f447b7da7e1807b52901111bdd35662e8c25ca5de0d3967a730b666a9",
    }),
    (("experiment", "--preset", "fig3-free", "-T", "2000", "--out", "out"), {
        "stdout": "9d44ba37af2a03174d38feba0041ca861416fd810be50229ada7856319a53c0c",
        "low_agg.csv": "c6c5df5241583116686fe163aa8b30fa3d7d74aa2f34161cd5fe17edefc2df9e",
        "low_seed0.csv": "0dc8bdb9938d4e3b0da7d836ec4081a07a64943f346b4fa7aad0b008172c04f0",
        "low_seed1.csv": "c2358b7c2337523a3c85f7f978eef3e4d4fc2343796800a0af471c569eec3c76",
        "low_seed2.csv": "388055cbef5f099a2d68716d20050d65b8006e20bb19830d6bb48719f76c7682",
        "low_seed3.csv": "6c50e812ea7353db0c8de62041087194270f5b145768ccff16acaab1259c16b1",
        "low_seed4.csv": "6606bc23985aa04517663b4ef2484808935fef35113e287021ea05b87cead436",
        "low_seed5.csv": "72c7e7878a2df2acaa79977d2eabc66bf5d0ddd59decf7adfe9cfc8191c90ea7",
        "low_seed6.csv": "b08933bcf2d52e49b9cb6b8a4ab9c0bd4b1fece1fa1f74a2f7c0fabbc8ee2f6c",
        "low_seed7.csv": "b7363c286a9d0db54d31f1eaaf2dfc589e57e24e7e77ae4dff639fd43080e78e",
        "low_seed8.csv": "15cfae4fa5d001b4db6bc25d332d7d6d0b5f9530a4dda2696f047acbe2799d9b",
        "low_seed9.csv": "6e9f9202776cbbda4e6e54379ceffbb3139bf48957922b38fa2bef1a3fdd4f7d",
        "metadata.json": "671a16356b83e4c652ebf255402876dd577b8ade037855f588357595fd53475b",
        "ucb_agg.csv": "9597b0847db991d74bd2d2438509fc93d760407bd8bc23c05eb9302f6a708d9e",
        "ucb_seed0.csv": "d4e25f6ec0e1f97e646a72761b1ceafbbde7b982af83832e2175662248fb30ad",
        "ucb_seed1.csv": "a869a44475b97fff4b51fb7f7680b84594f5b75a2fa9e71b3a03f16cfc5f72d4",
        "ucb_seed2.csv": "4ca16e1716713dbe8a264177c0ee61958b32816ebaedcaada0cbd1cfd0eb316c",
        "ucb_seed3.csv": "ffa7a0543a14343904e3670ad07d3f222e6770387fe219f5d4e4079bf08a69d1",
        "ucb_seed4.csv": "6ffe6317c7b8ebc47dc8bf4296dc55f3473fc73be6de1b6bc1a8bfcbc11a4140",
        "ucb_seed5.csv": "f876bb04ddb897535e2e018c816fff85bd006906ebe19159e1b73103920be059",
        "ucb_seed6.csv": "457137f2418468c22c296ebdbdcf72ee296ee95f6122fa07a02b35601cb65f63",
        "ucb_seed7.csv": "6b72292c769265495a031a85cd935fbee0cbfe4dcf0ac3240f75d059395f5eb9",
        "ucb_seed8.csv": "528a9b7162eda9ab35ba14b2b6d29026ad0ab61f4927dcc28910711ee62d3fc7",
        "ucb_seed9.csv": "47b960a3d85b32e86c873d042c597881f4c468171d3edbaab2fa2375cca05157",
    }),
    (("experiment", "--instance", "exact0", "--algos", "greedy,ghost", "-T", "2000",
      "--out", "out"), {
        "stdout": "511f48be260e123e86393110bffc5ca7b6e8aaabf569f9bc5327074ccbcda97f",
        "ghost_agg.csv": "efbcf249c5ef8fa1c159dad5619bfdbb8f0e364356630b7f162bf014d7d935a3",
        "ghost_seed0.csv": "9e98951738bc98afd824563a3aa1056aa153100c0ed50f20d6879b1fb31a8afd",
        "greedy_agg.csv": "def0401ca968dc04c095dcbdf5ea232d0a3c0665c9263502d43b03cce0ab7c16",
        "greedy_seed0.csv": "da5cd5b41c43e732d1e693d94365f5f393b83910f1683741927fa56368b1c884",
        "metadata.json": "58c6e348e30f0eb29226997f553f91f32308b5643ff9cfb869e26b27f7d2e021",
    }),
    (("experiment", "--preset", "fig3-cost", "-T", "300", "--seeds", "0,1", "--full-curves",
      "--out", "out"), {
        "stdout": "2d9bfbd17292536e07edee957eaee74caca0a72c082c7a7017f6a41f13fe258d",
        "low_agg.csv": "5fb58866bef1175c95db79956616c82b8267a930a0c59e6ff1f40ef0800ec6d0",
        "low_seed0.csv": "63d00cb72105baea3d0e3e285d592346b44491d14894c78e0e01a3c782861c6b",
        "low_seed1.csv": "8e4b92435a18f253af2f0f1fb779b3e3617db78da7029d510e244dd87ecd12ba",
        "metadata.json": "76fea431f20504bcc6889161d3520e1922aee8d5f08d7ed1cb7c282b8900195e",
        "ucb_agg.csv": "c982343674ed9423a2a84f795ec70bb9b6c3a5a17ce62e1c1d87c9df41449dea",
        "ucb_seed0.csv": "05bbea9b1915e0e11c265c4883ef47d5702eee504de3b38f53d156148b2d8025",
        "ucb_seed1.csv": "841530f7d6907c015770e8c4d5360621b76135c29ec27964bb4f27e552ed5ff5",
    }),
    # the fig3-full benchmark workload's shape: 20,000 rows a file, many chunks of the writer
    (("experiment", "--preset", "fig3-cost", "--full-curves", "-T", "20000", "--seeds", "0,1",
      "--out", "out"), {
        "stdout": "b8d58ddf696ab8bc3ef0c854c9e230e02b212f7f3e8dbb552ca24f9edaca968e",
        "low_agg.csv": "5dc6e230dd99c0cf8b2835f40d67164d280ee5896e45e91d9b8d803cedec54a1",
        "low_seed0.csv": "010dacc2074bf224829fb5e384389c63ade983f485a9393ea69655c0020036f4",
        "low_seed1.csv": "a6ff5e8ac98bcd6fe68c3fc3146b9c20ac699efa580917967af2d9b0209f3f90",
        "metadata.json": "9d64f0390798fecf75e609ce230cabb1325a6d46a1b0ae55193e0ac47d09dca6",
        "ucb_agg.csv": "6ade8eaa6d75a6af3748dc11a59c741fe3e2a0e99f586c4995258dbd543879c1",
        "ucb_seed0.csv": "0f16cf62ae637083182d7e1f6081d5c0684295fe04bd9d4ad6604502dafbb220",
        "ucb_seed1.csv": "5301c5781474d04e8574cc61d690709fd28877a3c669d1a434a7e1a30d3d44a9",
    }),
    (("experiment", "--instance", "exact1", "--algos", "greedy,ghost,low,ucb", "-T", "300",
      "--out", "out"), {
        "stdout": "0e50c55ca4b764890f5972647bf80d57a8ac02cc396db84f2976ea5d118b92cc",
        "ghost_agg.csv": "73d6bd6e33ebe89ae675083313e6bd8f6344e4536f70c48bd0e550468c8594cd",
        "ghost_seed0.csv": "7fe1fe168490b2ab5b3c679af423518144007dc860634bb88ab6760026d3589c",
        "greedy_agg.csv": "e46219bb40dfb893f0a73659018b1768f29d50e5badd3355b9d9383e4b0c7dab",
        "greedy_seed0.csv": "a8648a40c533aeb905c09892975fecbcfd7c19fd2e32a0f39c1f9c72b6a8d8fd",
        "low_agg.csv": "45e0ee9285293e7341dd4b20dbdd12745cf84ea7efcf0f2be73aaf88a0de6cb0",
        "low_seed0.csv": "155483d7327fbfff7a0b5fdc0ac745da039f054ba6dfa33a78f60df4686c4fb1",
        "metadata.json": "36feeea400c38d56d9e910fc6257787bb1b83529e73655bf5bd2b108e8723ec1",
        "ucb_agg.csv": "1c9ed5d7bf1897f81bf04459a7178d1df824826033d3e2fa99889d564dff32e5",
        "ucb_seed0.csv": "72113ff27fc2a91ca563b508aec8a6513c4cce05d4532f4ee5a6ca1efe0791cf",
    }),
    # the fig2 preset's own horizon, T = 2e5: 14,520 UCB selections
    (("experiment", "--preset", "fig2", "--seeds", "1", "--out", "out"), {
        "stdout": "1b6b1b09e476be99ef59937bc590ca1ed45a31d576a094bbdffb7e7edae48be9",
        "low_agg.csv": "a79db63d19a11e96599c2666ce57560f394a19d38988a85d7e5a0644cb98cc23",
        "low_seed1.csv": "e2dfcd8c690f78a143ae2aa167982f2fc766a5d542341df090d3a2c284790303",
        "metadata.json": "df9d88679dab1e842a35b4eaa0638e8290acbad1c71aabe1865b2fd3eaf36cff",
        "ucb_agg.csv": "13b9aad3951eb0600c977abf3648185c0eb4fcf3cb73480596745941e6663a4b",
        "ucb_seed1.csv": "6ff3f0993ba7a9c9dabea7a6cd2d819d172c324c8d3874afcf1041689d75a054",
    }),
    # T = 2e6, one seed of each algorithm: each curve is read off its log a window at a time
    (("experiment", "--instance", "exact0", "--algos", "greedy,ghost,low,ucb", "-T", "2000000",
      "--out", "out"), {
        "stdout": "cebefa3d89f5e2d827be07eadd60bd5177b6715abcc7eaf47749e07a10b047c0",
        "ghost_agg.csv": "e566102a3aa519b6e6f2ae2ce46553b8f710d1af682fa7168bc5e193b0fa33c0",
        "ghost_seed0.csv": "5fac0b2fb61a17da6272dba7ca61347bc55d7df6aaeb455dcd0aeb7741df99d1",
        "greedy_agg.csv": "0d8c3bbc58d0217f9c52ce2bfbf4c9f08d589b4993b06180c29d20b0e0395da8",
        "greedy_seed0.csv": "74fc67e958ea680254292334d8b192d4784671963b11263dae805b19129efc12",
        "low_agg.csv": "d76c6697be0f55d0eb1332167759c3ac0d7b16feaa4c81032ac7f502f44e5ac0",
        "low_seed0.csv": "43bb3565191dba82823e5167652d7a496fd0c3ffe7e15e61c67889948a77b16e",
        "metadata.json": "d03c24cdafb06aaecb77b3f3aff5484e4f170f069dbbc85a8b7470a5c18d33cd",
        "ucb_agg.csv": "e2fa091cccbd674ae08a3a5b61f38e6922558ef61a38b3913d92e6586206a5d7",
        "ucb_seed0.csv": "570ada8fe2ad12881ad9a8344ea436fc54608f5c6146522d10a0093f0a72d3a3",
    }),
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


def file_digests(directory) -> dict:
    """sha256 of each file in directory by name; metadata.json's without its "versions"."""
    got = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "metadata.json":
            meta = json.loads(data)
            del meta["versions"]
            data = json.dumps(meta, sort_keys=True).encode()
        got[path.name] = hashlib.sha256(data).hexdigest()
    return got


def resolve(argv, directory) -> list:
    """argv with each `--instance` name replaced by its file in directory."""
    argv = list(argv)
    for i in range(1, len(argv)):
        if argv[i - 1] == "--instance":
            argv[i] = str(directory / f"{argv[i]}.json")
    return argv


PINS = dict(MANIFEST)


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("instances")
    for name, doc in INSTANCES.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return directory


@pytest.mark.parametrize("argv, pin", MANIFEST, ids=[" ".join(argv) for argv, _ in MANIFEST])
def test_cli_output_is_pinned(argv, pin, instance_dir):
    assert digest(resolve(argv, instance_dir)) == pin


@pytest.mark.parametrize("argv, pins", WRITES, ids=[" ".join(argv) for argv, _ in WRITES])
def test_cli_files_are_pinned(argv, pins, instance_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # a relative --out, so stdout names no temporary path
    got = {"stdout": digest(resolve(argv, instance_dir))}
    got.update(file_digests(tmp_path / argv[argv.index("--out") + 1]))
    assert got == pins


def test_parser_is_built_once(instance_dir, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    ghost = ("ghost", "--instance", "exact0")
    digest(resolve(ghost, instance_dir))     # builds the parser unless an earlier call did
    first = len(added)
    assert digest(resolve(ghost, instance_dir)) == PINS[ghost]
    assert len(added) == first


if __name__ == "__main__":
    failed = [argv for argv, pin in SLOW if digest(argv) != pin]
    for argv in failed:
        print("changed: " + " ".join(argv))
    sys.exit(bool(failed))
