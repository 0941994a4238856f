"""Input validation: every guard raises its typed error with its message."""

from __future__ import annotations

import pytest

from arrlevels import cli
from arrlevels.config import (
    config_from_json,
    contract,
    delete,
    gen_cyclic,
    gen_random,
    is_extremal,
    new_config,
    scale_column,
    transform,
)
from arrlevels.errors import (
    BoundaryRootError,
    DegeneratePolynomialError,
    DimensionError,
    FileFormatError,
    InconsistentInputError,
)
from arrlevels.exactnum import Mat
from arrlevels.faces import FMatrix
from arrlevels.gmatrix import (
    GMatrix,
    check_contraction_deletion,
    delta_f_from_g,
    delta_fstar_from_g,
    g_closed_form_neighborly,
    g_from_fmatrices,
    g_of_pair,
)
from arrlevels.motion import (
    classify_event,
    detect_mutations,
    interpolated_config,
    mutation_rich_path,
    perturb,
)
from arrlevels.poly2 import BiPoly
from arrlevels.relations import total_face_count
from arrlevels.span import f_affine_span_rank
from arrlevels.unipoly import UniPoly, count_distinct_roots, isolate_roots, squarefree_part

V21 = new_config(1, 2, [(1,), (-1,)])
V22 = new_config(2, 2, [(1, 0), (0, 1)])
V23 = new_config(2, 3, [(1, 0), (0, 1), (-1, -1)])
W23 = new_config(2, 3, [(1, 0), (0, 1), (1, 1)])
V34 = gen_cyclic(4, 3)
# a non-skew g: the single entry g_00 = 1 of a rank-1 pair on 2 vectors
NOT_SKEW = GMatrix(1, 2, ((1, 0), (0, 0)))


def _f(d: int, n: int) -> FMatrix:
    return FMatrix(d, n, tuple((0,) * (n + 1) for _ in range(d + 1)))


CASES = {
    # config
    "new_config-column-count": (
        lambda: new_config(2, 3, [(1, 0), (0, 1)]),
        DimensionError,
        "expected 3 columns, got 2",
    ),
    "new_config-column-length": (
        lambda: new_config(2, 2, [(1, 0), (1,)]),
        DimensionError,
        "column 2 has length 1, expected 2",
    ),
    "gen_cyclic-param-count": (
        lambda: gen_cyclic(4, 2, [0, 1, 2]),
        DimensionError,
        "expected 4 parameters, got 3",
    ),
    "gen_random-n-below-r": (
        lambda: gen_random(2, 3, seed=0),
        DimensionError,
        "need n >= r >= 1, got r=3, n=2",
    ),
    "delete-below-full-rank": (
        lambda: delete(V22, 1),
        DimensionError,
        "deletion would drop below full rank size",
    ),
    "contract-rank-one": (
        lambda: contract(V21, 1),
        DimensionError,
        "contraction requires rank >= 2",
    ),
    "scale_column-zero": (
        lambda: scale_column(V23, 1, 0),
        DimensionError,
        "column scale must be nonzero",
    ),
    "transform-not-square": (
        lambda: transform(V23, Mat(2, 3, ((1, 0, 0), (0, 1, 0)))),
        DimensionError,
        "transform matrix must be r x r",
    ),
    "is_extremal-index": (
        lambda: is_extremal(V23, (0,)),
        DimensionError,
        "subset indices must lie in 1..n",
    ),
    "config_from_json-not-object": (
        lambda: config_from_json([]),
        FileFormatError,
        "configuration must be a JSON object",
    ),
    "config_from_json-vectors-count": (
        lambda: config_from_json({"r": 1, "n": 2, "vectors": [["1"]]}),
        FileFormatError,
        "field 'vectors' must list 2 columns",
    ),
    "config_from_json-column-length": (
        lambda: config_from_json({"r": 2, "n": 1, "vectors": [["1"]]}),
        FileFormatError,
        "column 1 must list 2 rational strings",
    ),
    "config_from_json-entry-type": (
        lambda: config_from_json({"r": 1, "n": 1, "vectors": [[1]]}),
        FileFormatError,
        "column 1 entry 1 must be a string",
    ),
    # gmatrix
    "GMatrix.add-shapes": (
        lambda: NOT_SKEW.add(GMatrix(1, 3, ((0, 0, 0), (0, 0, 0)))),
        DimensionError,
        "g-matrix shapes differ",
    ),
    "delta_f_from_g-not-skew": (
        lambda: delta_f_from_g(NOT_SKEW),
        InconsistentInputError,
        "delta-f has entries at zero-set size r; g is not skew-symmetric",
    ),
    "delta_fstar_from_g-not-skew": (
        lambda: delta_fstar_from_g(NOT_SKEW),
        InconsistentInputError,
        "delta-fstar has entries at support size r; g is not skew-symmetric",
    ),
    "g_from_fmatrices-shapes": (
        lambda: g_from_fmatrices(_f(1, 3), _f(1, 4)),
        DimensionError,
        "f-matrices have different (d, n)",
    ),
    "g_of_pair-shapes": (
        lambda: g_of_pair(V22, V23),
        DimensionError,
        "pair must share rank and size",
    ),
    "g_closed_form_neighborly-n-not-above-r": (
        lambda: g_closed_form_neighborly(3, 3),
        DimensionError,
        "need n > r >= 1, got n=3, r=3",
    ),
    "check_contraction_deletion-shapes": (
        lambda: check_contraction_deletion(V22, V23, "delete"),
        DimensionError,
        "pair must share rank and size",
    ),
    "check_contraction_deletion-contract-rank-one": (
        lambda: check_contraction_deletion(V21, V21, "contract"),
        DimensionError,
        "contract mode needs r >= 2",
    ),
    "check_contraction_deletion-delete-n-equals-r": (
        lambda: check_contraction_deletion(V22, V22, "delete"),
        DimensionError,
        "delete mode needs n >= r+1",
    ),
    "check_contraction_deletion-mode": (
        lambda: check_contraction_deletion(V23, W23, "swap"),
        DimensionError,
        "unknown mode 'swap'",
    ),
    # motion
    "interpolated_config-shapes": (
        lambda: interpolated_config(V22, V23, 0),
        DimensionError,
        "interpolation requires equal shapes",
    ),
    "detect_mutations-shapes": (
        lambda: detect_mutations(V22, V23),
        DimensionError,
        "motion endpoints must have equal shapes",
    ),
    "classify_event-index": (
        lambda: classify_event(detect_mutations(V23, V23), 0),
        DimensionError,
        "event index 0 out of range",
    ),
    "perturb-negative-magnitude": (
        lambda: perturb(V23, seed=0, magnitude=-1),
        DimensionError,
        "perturbation magnitude must be nonnegative",
    ),
    "mutation_rich_path-n-below-r": (
        lambda: mutation_rich_path(2, 3, seed=0),
        DimensionError,
        "need n >= r >= 1, got r=3, n=2",
    ),
    # span
    "f_affine_span_rank-n-not-above-r": (
        lambda: f_affine_span_rank(3, 3, "general", 4, 0),
        DimensionError,
        "need n > r >= 1, got r=3, n=3",
    ),
    "f_affine_span_rank-samples": (
        lambda: f_affine_span_rank(7, 3, "general", 1, 0),
        DimensionError,
        "need at least 4 samples for shape (7,3), got 1",
    ),
    # relations, unipoly, poly2, exactnum
    "total_face_count-n-below-d-plus-one": (
        lambda: total_face_count(2, 3, 0),
        DimensionError,
        "need n >= d+1, got n=2, d=3",
    ),
    "squarefree_part-zero": (
        lambda: squarefree_part(UniPoly.zero()),
        DegeneratePolynomialError,
        "squarefree part of the zero polynomial",
    ),
    "count_distinct_roots-zero": (
        lambda: count_distinct_roots(UniPoly.zero(), 0, 1),
        DegeneratePolynomialError,
        "root count of the zero polynomial",
    ),
    "count_distinct_roots-endpoint-root": (
        lambda: count_distinct_roots(UniPoly.make([0, 1]), 0, 1),
        BoundaryRootError,
        "root at interval endpoint of (0, 1)",
    ),
    "isolate_roots-empty-interval": (
        lambda: isolate_roots(UniPoly.make([1, 1]), 1, 0),
        DimensionError,
        "isolate_roots requires lo < hi",
    ),
    "BiPoly.monomial-negative-exponent": (
        lambda: BiPoly.monomial(-1, 0),
        DimensionError,
        "negative exponent",
    ),
    "BiPoly.pow-negative-power": (
        lambda: BiPoly.monomial(1, 0).pow(-1),
        DimensionError,
        "negative power",
    ),
    "Mat.mul-shapes": (
        lambda: Mat(2, 2, ((1, 0), (0, 1))).mul(Mat(3, 1, ((1,), (2,), (3,)))),
        DimensionError,
        "matrix product shape mismatch",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_validation_raises_typed_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_gen_pointed_applies_only_to_random(capsys):
    code = cli.main(["gen", "--kind", "cyclic", "--n", "5", "--r", "3", "--pointed"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --pointed only applies to --kind random\n"
