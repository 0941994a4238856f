"""Pinned motion traces: sha256 digests of the event traces on a fixed grid.

The digests were recorded before the motion kernel moved from Fraction to
integer polynomials.  Any change to root isolation, interval separation or
event classification has to keep every byte of these traces, or of the
reported degeneracy, the same.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest

from arrlevels.config import gen_cocyclic, gen_cyclic, gen_random, new_config
from arrlevels.errors import GenericityError
from arrlevels.motion import detect_mutations, events_to_json, mutation_rich_path, perturb

# (n, r) -> kinds of pair: random plain, random pointed, and a random target
# nudged by perturb, as motion callers retry with
_SHAPES = {
    (4, 2): ("plain",),
    (5, 3): ("plain", "pointed"),
    (6, 3): ("plain", "pointed", "perturbed"),
    (7, 4): ("plain", "pointed"),
    (3, 3): ("plain",),
    (4, 4): ("plain",),
    (5, 1): ("plain",),
    (6, 1): ("plain",),
}


@lru_cache(maxsize=None)
def _pairs() -> dict:
    out = {}
    for (n, r), kinds in _SHAPES.items():
        for kind in kinds:
            for seed in range(3):
                s = 10 * n + r + 1000 * seed
                v = gen_random(n, r, s, pointed=kind == "pointed")
                if kind == "perturbed":
                    w = perturb(gen_random(n, r, s + 100), seed=1)
                else:
                    w = gen_random(n, r, s + 100, pointed=kind == "pointed")
                out[f"{kind}-{n}-{r}-{s}"] = (v, w)
    # two degenerate motions: a multiple root, and a root shared by two subsets
    out["co53-c53"] = (gen_cocyclic(5, 3), gen_cyclic(5, 3))
    out["shared-root"] = (
        new_config(2, 3, [(1, 0), (0, 1), (-1, -1)]),
        new_config(2, 3, [(1, 0), (0, 1), (1, 1)]),
    )
    path = mutation_rich_path(6, 3, 0)
    for i, (a, b) in enumerate(zip(path, path[1:])):
        out[f"rich-6-3-0-{i}"] = (a, b)
    return out


def _trace(v, w) -> str:
    try:
        return json.dumps(events_to_json(detect_mutations(v, w)), sort_keys=True)
    except GenericityError as exc:
        return f"{type(exc).__name__} {exc.subsets} {exc}"


GOLDEN = {
    "co53-c53": "0f8727dfa2b387086e0f11fc43bdcf888eab7a7162d70499ee05f95329f94376",
    "perturbed-6-3-1063": "3aab3bc5b10d3cc75e466c3217d3689b164c755b47fc4bf0acc6d1152bd46673",
    "perturbed-6-3-2063": "1149b40f4e0a41d8c98f89e8d1ae75ee1af942b5ba66020c07ea0222be84520a",
    "perturbed-6-3-63": "7c775bafbd03e814be5a151e507e9719c427fe1281e17ab724cc49aded4fcac3",
    "plain-3-3-1033": "1ca03532a67f9b9cfe6506f2e93a8c40f4fdde333eb5f410f04492141efb0e8b",
    "plain-3-3-2033": "1ca03532a67f9b9cfe6506f2e93a8c40f4fdde333eb5f410f04492141efb0e8b",
    "plain-3-3-33": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "plain-4-2-1042": "56df17f3871edc089cf61e00fc3249a13590123420a8d5fae2e4499113804c2d",
    "plain-4-2-2042": "a53d235924cdf2b6fc47ca908d2caa27aa98a00096b97996cc5f420d8189dc0f",
    "plain-4-2-42": "13c7479871143c1abe1b72421e864a31c7107fd72c06811335e5720d3935337c",
    "plain-4-4-1044": "d1310dd8a06a1c6f849e9f911915df384d66706e3cdbfbf4d1b8c9a94125b9ab",
    "plain-4-4-2044": "d1310dd8a06a1c6f849e9f911915df384d66706e3cdbfbf4d1b8c9a94125b9ab",
    "plain-4-4-44": "d1310dd8a06a1c6f849e9f911915df384d66706e3cdbfbf4d1b8c9a94125b9ab",
    "plain-5-1-1051": "d95bb7911b010f2495c124300a7ac075502b0e0e5c904059ce46a99b0ea54920",
    "plain-5-1-2051": "e0238b6997be2efad8d782aeacae3c524ed874d40190fc45995a10dc969475c9",
    "plain-5-1-51": "a0647dd7999e3ceadc9ff1e99c8ae115a8be2134219cdcfbb99db3da8664950a",
    "plain-5-3-1053": "327d457672977821aa3f95bb3b2980e53783ff0b43ba7c6a24ef8aae4c27af6e",
    "plain-5-3-2053": "61f7ba1ed6843303b73176f545070ac275a5857d781c4f7e9e877649876b3936",
    "plain-5-3-53": "bf828e021e1a65cbc2a25fdf711cb85de373dcdc0e00f204c8e634e98b62e01c",
    "plain-6-1-1061": "afcf8e4771e1176d8dbcc8f83c16a9b02e6b49abaf399bd27d28cd433bc4bf1e",
    "plain-6-1-2061": "3912966c933f37bde5ee3c91ada33bdbb847a50a9618fc463a4e98fbe384a682",
    "plain-6-1-61": "0bda06dfe4437f3ed95e2495b47414f8c8d000d36e93153562ad1e4dddb9807c",
    "plain-6-3-1063": "3aab3bc5b10d3cc75e466c3217d3689b164c755b47fc4bf0acc6d1152bd46673",
    "plain-6-3-2063": "1149b40f4e0a41d8c98f89e8d1ae75ee1af942b5ba66020c07ea0222be84520a",
    "plain-6-3-63": "7c775bafbd03e814be5a151e507e9719c427fe1281e17ab724cc49aded4fcac3",
    "plain-7-4-1074": "87b01ac4642ccdef390526a11aea43e44f5837c5a96371a84c33c9052d4fe210",
    "plain-7-4-2074": "ea96fd0f4d07f040f5bbc4e8b6260d861eae569f1aafe0c30f2d39fd96e373e2",
    "plain-7-4-74": "f53b53f37471bc5cdfb94753251919b7e83f1fcc12c562eeac06f004fffac8cc",
    "pointed-5-3-1053": "165f5f07028e97ee9f7584e126213f68444b416f4f1198362ac806c5d80a1b3e",
    "pointed-5-3-2053": "4ced59ec4333498eeed2c71abd3944d0db901597f5f72a153b8c83c078a80691",
    "pointed-5-3-53": "4862ca9de914b0e8f4eae2616a4d49b9d33df603c3ce50242872cb2c4e305ac0",
    "pointed-6-3-1063": "bcdd39194da48ffc91ea471abf5c1623a26d278ba76b03aa39bbf88a15dcffc6",
    "pointed-6-3-2063": "6b4e1e230dc9f4da5cbbf56d633532ef37ab8731e63c5ed5f09a3d722147121a",
    "pointed-6-3-63": "e26a162e64e33f729266774e93cfe1d581d69b7bf940d27e877b74ce1f82398d",
    "pointed-7-4-1074": "571d424901ae9b5d72b078079f5567b7ba734cd490f17c9cddaf6e84cb13a5de",
    "pointed-7-4-2074": "eb37e3318c60a0ca54767523be4735ef881e024b94caa72e5c9e259750c1b1a4",
    "pointed-7-4-74": "cfdf4d4bf7040e35020feeff5c97ac94a3d300e70d117f9ad3f38635a8f19acb",
    "rich-6-3-0-0": "a0ab5cd2a465699fe86836cf3ffc7421a09a24668b3f62827128455ff2d26d61",
    "rich-6-3-0-1": "bf59c5d3ee4cfe3045649de38800da56b0a844695686d5d50b2ad00375b86ce3",
    "rich-6-3-0-2": "83bc2a16ca973cce5e96dc57f945f9f563e6bcaf3816fd5291ceb25d4b14a8db",
    "rich-6-3-0-3": "d62fe214ca38f512182bd3cff702ec67ebb5e76a7679701d29d87e4893517f63",
    "rich-6-3-0-4": "87f18002ab862feccae8207825a71a51d43fad85f205817ca8e5d00696772855",
    "rich-6-3-0-5": "87ee8a6881e10bf54cf2e62c67efaeddb3b6c5be3f4545d3c745595b9444f3c6",
    "rich-6-3-0-6": "350e75e8f3df264a70811c6b7af16ab2722f98f6f409093cd59be8969480203f",
    "rich-6-3-0-7": "c2ac14534df76367bce86132609374176f79851cf696bb14bfd00c35a29c0a86",
    "rich-6-3-0-8": "cf20bcfec54d49b94e3782d698c8934454965fcbec882e294ae2870f51a9ea51",
    "shared-root": "80e06dea7b08f8e591107cc66f5742228e50f3ad06ec0cfd9c5c5423ecb0a27d",
}


def test_grid_is_the_pinned_one():
    assert sorted(_pairs()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_motion_trace_matches_golden_digest(name):
    v, w = _pairs()[name]
    assert hashlib.sha256(_trace(v, w).encode()).hexdigest() == GOLDEN[name]
