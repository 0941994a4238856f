"""Exact combinatorics of sphere arrangements of rational vector configurations.

The package enumerates dissection and dependency patterns, counts them
into f- and f*-matrices, verifies the linear identities those counts
satisfy, and follows straight-line motions between configurations to
classify mutation events and accumulate their g-matrix.

Every public name below is importable from the package itself, but a name
loads its submodule only on first use (PEP 562), so ``import arrlevels``
and the CLI pay for no module they do not run.
"""

from __future__ import annotations

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "config": (
        "VectorConfig",
        "config_from_json",
        "config_to_json",
        "contract",
        "coneighborliness_degree",
        "delete",
        "gale_dual",
        "gen_cocyclic",
        "gen_cyclic",
        "gen_random",
        "is_coneighborly",
        "is_extremal",
        "is_neighborly",
        "is_pointed",
        "neighborliness_degree",
        "new_config",
        "scale_column",
        "transform",
    ),
    "errors": (
        "ArrlevelsError",
        "BoundaryRootError",
        "BudgetExhaustedError",
        "DegeneratePolynomialError",
        "DimensionError",
        "FileFormatError",
        "GeneralPositionError",
        "GenericityError",
        "InconsistentInputError",
    ),
    "exactnum": ("Mat", "Rat", "det", "isolate_roots", "kernel_basis", "rank", "rat"),
    "faces": (
        "FMatrix",
        "FStarMatrix",
        "dependency_patterns",
        "dissection_patterns",
        "f_matrix",
        "f_polynomial",
        "farkas_complement_oracle",
        "fstar_matrix",
        "fstar_polynomial",
        "pattern_to_string",
    ),
    "gmatrix": (
        "GMatrix",
        "SmallGMatrix",
        "check_contraction_deletion",
        "delta_f_from_g",
        "delta_fstar_from_g",
        "full_from_small",
        "g_closed_form_neighborly",
        "g_from_fmatrices",
        "g_of_pair",
        "satisfies_skew",
        "small_from_full",
    ),
    "motion": (
        "MotionPath",
        "MutationEvent",
        "classify_event",
        "detect_mutations",
        "events_to_json",
        "g_from_motion",
        "gap_samples",
        "interpolated_config",
        "mutation_rich_path",
        "perturb",
    ),
    "poly2": ("BiPoly",),
    "relations": (
        "RelationReport",
        "check_antipodal",
        "check_dehn_sommerville",
        "check_totals",
        "f_fstar_transform",
        "total_face_count",
    ),
    "span": (
        "SpanReport",
        "exact_rank",
        "f_affine_span_rank",
        "g_span_rank",
        "greedy_basis",
        "theoretical_dim",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        if name in _EXPORTS:  # a submodule reached as an attribute
            return importlib.import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so a name always is its home module's current binding
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
