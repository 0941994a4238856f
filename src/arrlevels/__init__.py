"""Exact combinatorics of sphere arrangements of rational vector configurations.

The package enumerates dissection and dependency patterns, counts them
into f- and f*-matrices, verifies the linear identities those counts
satisfy, and follows straight-line motions between configurations to
classify mutation events and accumulate their g-matrix.
"""

from __future__ import annotations

from .config import (
    VectorConfig,
    config_from_json,
    config_to_json,
    contract,
    coneighborliness_degree,
    delete,
    gale_dual,
    gen_cocyclic,
    gen_cyclic,
    gen_random,
    is_coneighborly,
    is_extremal,
    is_neighborly,
    is_pointed,
    neighborliness_degree,
    new_config,
    scale_column,
    transform,
)
from .errors import (
    ArrlevelsError,
    BoundaryRootError,
    BudgetExhaustedError,
    DegeneratePolynomialError,
    DimensionError,
    FileFormatError,
    GeneralPositionError,
    GenericityError,
    InconsistentInputError,
)
from .exactnum import Mat, Rat, det, isolate_roots, kernel_basis, rank, rat
from .faces import (
    FMatrix,
    FStarMatrix,
    dependency_patterns,
    dissection_patterns,
    f_matrix,
    f_polynomial,
    farkas_complement_oracle,
    fstar_matrix,
    fstar_polynomial,
    pattern_from_string,
    pattern_to_string,
)
from .gmatrix import (
    GMatrix,
    SmallGMatrix,
    check_contraction_deletion,
    delta_f_from_g,
    delta_fstar_from_g,
    full_from_small,
    g_closed_form_neighborly,
    g_from_fmatrices,
    g_of_pair,
    satisfies_skew,
    small_from_full,
    small_g_is_nonnegative,
)
from .motion import (
    MotionPath,
    MutationEvent,
    classify_event,
    detect_mutations,
    events_to_json,
    g_from_motion,
    gap_samples,
    interpolated_config,
    mutation_rich_path,
    perturb,
)
from .poly2 import BiPoly
from .relations import (
    RelationReport,
    check_antipodal,
    check_dehn_sommerville,
    check_totals,
    f_fstar_transform,
    total_face_count,
)
from .span import (
    SpanReport,
    exact_rank,
    f_affine_span_rank,
    g_span_rank,
    greedy_basis,
    theoretical_dim,
)

__version__ = "0.1.0"
