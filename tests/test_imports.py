"""What the package and each CLI subcommand load.

The package resolves its public names lazily, and a subcommand imports
only the library modules it runs, so a CLI process does not compile the
whole library to print a configuration.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrlevels
from arrlevels import cli

# The public API of the package, by the module that defines each name.
PUBLIC = {
    "config": [
        "VectorConfig", "config_from_json", "config_to_json", "contract",
        "coneighborliness_degree", "delete", "gale_dual", "gen_cocyclic",
        "gen_cyclic", "gen_random", "is_coneighborly", "is_extremal",
        "is_neighborly", "is_pointed", "neighborliness_degree", "new_config",
        "scale_column", "transform",
    ],
    "errors": [
        "ArrlevelsError", "BoundaryRootError", "BudgetExhaustedError",
        "DegeneratePolynomialError", "DimensionError", "FileFormatError",
        "GeneralPositionError", "GenericityError", "InconsistentInputError",
    ],
    "exactnum": ["Mat", "Rat", "det", "isolate_roots", "kernel_basis", "rank", "rat"],
    "faces": [
        "FMatrix", "FStarMatrix", "dependency_patterns", "dissection_patterns",
        "f_matrix", "f_polynomial", "farkas_complement_oracle", "fstar_matrix",
        "fstar_polynomial", "pattern_to_string",
    ],
    "gmatrix": [
        "GMatrix", "SmallGMatrix", "check_contraction_deletion", "delta_f_from_g",
        "delta_fstar_from_g", "full_from_small", "g_closed_form_neighborly",
        "g_from_fmatrices", "g_of_pair", "satisfies_skew", "small_from_full",
    ],
    "motion": [
        "MotionPath", "MutationEvent", "classify_event", "detect_mutations",
        "events_to_json", "g_from_motion", "gap_samples", "interpolated_config",
        "mutation_rich_path", "perturb",
    ],
    "poly2": ["BiPoly"],
    "relations": [
        "RelationReport", "check_antipodal", "check_dehn_sommerville",
        "check_totals", "f_fstar_transform", "total_face_count",
    ],
    "span": [
        "SpanReport", "exact_rank", "f_affine_span_rank", "g_span_rank",
        "greedy_basis", "theoretical_dim",
    ],
}


def test_all_lists_the_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 78
    assert sorted(arrlevels.__all__) == sorted(names)
    assert arrlevels.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_home_module(module):
    home = importlib.import_module(f"arrlevels.{module}")
    for name in PUBLIC[module]:
        assert getattr(arrlevels, name) is getattr(home, name), name


def test_exactnum_resolves_the_names_moved_to_unipoly():
    # root isolation moved to unipoly; exactnum still resolves the names
    # that callers look up there, and no other
    from arrlevels import exactnum, unipoly

    moved = ("isolate_roots", "count_distinct_roots", "bisect_root_interval", "squarefree_part", "poly_gcd")
    for name in moved:
        assert getattr(exactnum, name) is getattr(unipoly, name), name
        assert name not in vars(exactnum), name
    with pytest.raises(AttributeError, match="no attribute 'UniPoly'"):
        exactnum.UniPoly  # noqa: B018


def test_dir_lists_the_public_names():
    assert set(arrlevels.__all__) <= set(dir(arrlevels))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arrlevels.no_such_name  # noqa: B018
    assert not hasattr(arrlevels, "cli_main")


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from arrlevels import *", scope)
    for name in arrlevels.__all__:
        assert scope[name] is getattr(arrlevels, name), name


def _fresh_python(code, *argv, cwd=None):
    src = str(Path(arrlevels.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_submodule_until_one_is_used():
    before, after = _fresh_python(
        "import json, sys, arrlevels\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('arrlevels.'))\n"
        "before = loaded()\n"
        "assert arrlevels.motion.perturb is arrlevels.perturb\n"
        "print(json.dumps([before, loaded()]))"
    )
    assert before == []
    assert after == [f"arrlevels.{m}" for m in ("config", "errors", "exactnum", "motion", "unipoly")]


# -- what a CLI process loads -----------------------------------------------

BASE = {"config", "errors", "exactnum"}
FACES = BASE | {"faces"}
RELATIONS = FACES | {"relations"}
# motion and the root isolation that only it uses
MOTION = {"motion", "unipoly"}
# every module but poly2, which only the polynomial f <-> f* route loads
LIBRARY = RELATIONS | MOTION | {"gmatrix", "span"}

# every command of perfbench's cli-session cycle, and its warm-up command
LOADS = [
    (["gen", "--kind", "random", "--n", "9", "--r", "4", "--seed", "5"], BASE),
    (["faces", "c53.json"], FACES),
    (["faces", "r94.json", "--patterns", "--format", "csv"], FACES),
    (["fstar", "r94.json"], RELATIONS),
    (["fstar", "c53.json", "--oracle", "both"], FACES),
    (["g", "--from", "co53.json", "--to", "cy53.json", "--via", "both"], LIBRARY - {"span"}),
    (["motion", "--from", "co53.json", "--to", "cy53.json", "--trace"], BASE | MOTION),
    (["verify", "--relation", "ds", "c53.json"], RELATIONS),
    (["verify", "--relation", "duality", "c53.json"], RELATIONS),
    (["verify", "--relation", "totals", "c53.json"], RELATIONS),
    (["verify", "--relation", "closed-form", "--n", "7", "--r", "3"], LIBRARY - MOTION - {"span"}),
    (["span", "--n", "7", "--r", "3", "--samples", "10", "--seed", "0"], LIBRARY - MOTION),
]

# Runs one command in this interpreter and prints its exit code, the
# arrlevels modules it loaded, and which of dataclasses and inspect it
# loaded: start-up cost that the plain record classes do not need.
_PROBE = """
import contextlib, io, json, sys
from arrlevels import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("arrlevels."))
heavy = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps([code, loaded, heavy]))
"""


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli-loads")
    gens = {
        "c53.json": ["--kind", "cyclic", "--n", "5", "--r", "3"],
        "co53.json": ["--kind", "cocyclic", "--n", "5", "--r", "3"],
        "cy53.json": ["--kind", "cyclic", "--n", "5", "--r", "3", "--params", "1,2,4,8,16"],
        "r94.json": ["--kind", "random", "--n", "9", "--r", "4", "--seed", "5"],
    }
    for name, argv in gens.items():
        assert cli.main(["gen", *argv, "-o", str(workdir / name)]) == 0
    return workdir


@pytest.mark.parametrize("argv, modules", LOADS, ids=[" ".join(a[:3]) for a, _ in LOADS])
def test_subcommand_loads_only_what_it_runs(cli_workdir, argv, modules):
    code, loaded, heavy = _fresh_python(_PROBE, *argv, cwd=cli_workdir)
    assert code == 0
    assert set(loaded) == {"arrlevels.cli"} | {f"arrlevels.{m}" for m in modules}
    # the records are plain classes: no subcommand imports dataclasses or inspect
    assert heavy == []
