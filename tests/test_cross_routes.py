"""Independent routes to the same counts, held to each other on random inputs."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels.config import gen_cocyclic, gen_random, is_extremal, is_pointed, neighborliness_degree
from arrlevels.errors import GenericityError
from arrlevels.faces import dependency_patterns, fstar_from_patterns, fstar_matrix
from arrlevels.gmatrix import g_of_pair
from arrlevels.motion import g_from_motion
from arrlevels.relations import check_antipodal, check_dehn_sommerville, check_totals


def _neighborliness_by_subsets(v) -> int:
    """The definition: the largest j with every subset of size <= j extremal."""
    if not is_pointed(v):
        return -1
    degree = 0
    for j in range(1, v.r):
        if not all(is_extremal(v, s) for s in combinations(range(1, v.n + 1), j)):
            break
        degree = j
    return degree


# every shape with n <= 8, r <= 4, drawn uniformly rather than smallest first
SHAPES = [(n, r) for r in range(1, 5) for n in range(r, 9)]


@settings(max_examples=80)
@given(
    shape=st.sampled_from(SHAPES),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    pointed=st.booleans(),
)
def test_routes_agree_on_random_configurations(shape, seeds, pointed):
    n, r = shape
    v, w = (gen_random(n, r, seed, pointed=pointed) for seed in seeds)
    for check in (check_totals, check_antipodal, check_dehn_sommerville):
        assert check(v).holds, check(v).witness
    # the f -> f* transform against the histogram of the Gale dual's faces
    assert fstar_matrix(v).rows == fstar_from_patterns(dependency_patterns(v), r, n).rows
    # neighborliness read from f against the extremal subsets themselves
    assert neighborliness_degree(v) == _neighborliness_by_subsets(v)
    # the motion's events against the enumerated face counts
    try:
        traced = g_from_motion(v, w)
    except GenericityError:
        return
    assert traced.rows == g_of_pair(v, w).rows


# three fixed seeds for every shape with r < n <= 8, r <= 4
FOLD_CASES = [(n, r, 1000 * n + 100 * r + i) for r in range(1, 5) for n in range(r + 1, 9) for i in range(3)]


def test_motion_fold_agrees_on_pairs_with_nonzero_g():
    # random pairs at these shapes mostly have g = 0, which cannot show a
    # wrong fold into the small g-matrix; the cocyclic start differs from
    # a random end in most cases
    nonzero = 0
    for n, r, seed in FOLD_CASES:
        v, w = gen_cocyclic(n, r), gen_random(n, r, seed)
        g = g_of_pair(v, w)
        assert g_from_motion(v, w).rows == g.rows, (n, r, seed)
        nonzero += not g.is_zero()
    assert 3 * nonzero >= 2 * len(FOLD_CASES)
