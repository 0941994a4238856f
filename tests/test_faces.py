"""Pattern enumeration and the f/f* histograms."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels import faces
from arrlevels.config import gale_dual, gen_cocyclic, gen_cyclic, gen_random, neighborliness_degree, new_config
from arrlevels.errors import BudgetExhaustedError, InconsistentInputError
from arrlevels.gmatrix import check_contraction_deletion
from arrlevels.faces import (
    FMatrix,
    dependency_patterns,
    dissection_patterns,
    f_matrix,
    f_polynomial,
    farkas_complement_oracle,
    fstar_from_patterns,
    fstar_matrix,
    fstar_polynomial,
    pattern_to_string,
    patterns_to_json,
)
from arrlevels.relations import check_antipodal, check_dehn_sommerville, check_totals, f_fstar_transform


TRIANGLE = new_config(2, 3, [(1, 0), (0, 1), (1, 1)])


def test_pattern_string_round_trip():
    assert pattern_to_string((1, -1, 0, 1)) == "+-0+"


def test_triangle_pattern_count():
    pats = set(dissection_patterns(TRIANGLE))
    assert len(pats) == 12
    assert (1, 1, 1) in pats
    assert (-1, 1, 1) in pats
    vertices = [p for p in pats if sum(1 for s in p if s == 0) == 1]
    arcs = [p for p in pats if all(s != 0 for s in p)]
    assert len(vertices) == 6 and len(arcs) == 6


def test_orthogonal_pair_all_nonzero_sign_vectors():
    v = new_config(2, 2, [(1, 0), (0, 1)])
    assert len(set(dissection_patterns(v))) == 8


def test_rank_one_patterns():
    v = new_config(1, 1, [(2,)])
    assert set(dissection_patterns(v)) == {(1,), (-1,)}


def test_patterns_sorted_canonically():
    pats = dissection_patterns(TRIANGLE)
    assert list(pats) == sorted(pats)


def test_antipodal_closure():
    for v in (TRIANGLE, gen_cyclic(5, 3), gen_cocyclic(5, 3)):
        pats = set(dissection_patterns(v))
        assert all(tuple(-s for s in p) in pats for p in pats)


def test_zero_support_bounded_by_d():
    v = gen_cyclic(6, 3)
    d = v.r - 1
    assert all(sum(1 for s in p if s == 0) <= d for p in dissection_patterns(v))


def test_triangle_dependencies():
    deps = set(dependency_patterns(TRIANGLE))
    assert deps == {(1, 1, -1), (-1, -1, 1)}


def test_cyclic42_dependency_count():
    assert len(dependency_patterns(gen_cyclic(4, 2))) == 16


def test_square_configuration_has_no_dependencies():
    assert dependency_patterns(gen_cyclic(3, 3)) == ()


def test_dependency_support_at_least_r_plus_one():
    v = gen_cyclic(6, 3)
    for p in dependency_patterns(v):
        assert sum(1 for s in p if s != 0) >= v.r + 1


def test_triangle_f_matrix_rows():
    fm = f_matrix(TRIANGLE)
    assert fm.rows[0] == (1, 2, 2, 1)
    assert fm.rows[1] == (2, 2, 2, 0)


def test_cyclic63_row_sums():
    fm = f_matrix(gen_cyclic(6, 3))
    assert [fm.row_sum(s) for s in range(3)] == [32, 60, 30]


def test_triangle_fstar_entries():
    fs = fstar_matrix(TRIANGLE)
    assert fs.entry(3, 1) == 1
    assert fs.entry(3, 2) == 1
    assert fs.total() == 2


def test_fstar_antipodal_symmetry():
    fs = fstar_matrix(gen_cyclic(6, 3))
    for s in range(7):
        for t in range(7):
            assert fs.entry(s, t) == fs.entry(s, s - t)


def test_farkas_agrees_with_dual_enumeration():
    for v in (TRIANGLE, gen_cyclic(5, 3), gen_cocyclic(5, 3)):
        assert set(farkas_complement_oracle(v)) == set(dependency_patterns(v))


def _gale_histogram(v):
    return fstar_from_patterns(dependency_patterns(v), v.r, v.n)


@settings(max_examples=100)
@given(
    shape=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    seed=st.integers(0, 2**31 - 1),
    pointed=st.booleans(),
)
def test_fstar_counts_match_both_enumerations(shape, seed, pointed):
    # the counted f*-matrix against the two independent enumerations
    n, r = shape
    v = gen_random(n, r, seed, pointed=pointed)
    counted = fstar_matrix(v).rows
    assert counted == _gale_histogram(v).rows
    assert counted == fstar_from_patterns(farkas_complement_oracle(v), r, n).rows


def test_fstar_counts_match_gale_enumeration_at_n10():
    for r, seed in ((4, 10), (6, 11)):
        v = gen_random(10, r, seed)
        assert fstar_matrix(v).rows == _gale_histogram(v).rows


def test_fstar_rejects_counts_no_configuration_has(monkeypatch):
    v = new_config(2, 3, [(1, 0), (0, 1), (5, 7)])
    fm = f_matrix(v)
    rows = [list(row) for row in fm.rows]
    rows[0][0] += 1
    bad = FMatrix(fm.d, fm.n, tuple(tuple(row) for row in rows))
    monkeypatch.setattr(faces, "f_matrix", lambda w: bad)
    with pytest.raises(InconsistentInputError, match=r"f\*\[3\]\[0\] = -1"):
        fstar_matrix(v)


def test_farkas_never_contains_zero():
    zero = (0,) * TRIANGLE.n
    assert zero not in farkas_complement_oracle(TRIANGLE)


def test_farkas_budget_guard():
    with pytest.raises(BudgetExhaustedError):
        farkas_complement_oracle(gen_cyclic(10, 2))


def test_pattern_total_matches_f_total():
    v = gen_cyclic(5, 3)
    assert len(dissection_patterns(v)) == f_matrix(v).total()


def test_count_caches_stay_bounded():
    configs = {gen_random(4, 2, seed) for seed in range(70)}
    assert len(configs) == 70
    for v in configs:
        fstar_matrix(v)
    for cache in (f_matrix, fstar_matrix):
        assert cache.cache_info().currsize <= 64
    # face lists only for the pair a comparison reads
    assert faces._pattern_tuple.cache_info().currsize <= 2


def _identity_checks(v, w):
    # the per-pair sequence of perfbench's identity-check op, without the span
    held = []
    for c in (v, w):
        held += [check_totals(c).holds, check_antipodal(c).holds, check_dehn_sommerville(c).holds]
        p = f_polynomial(f_matrix(c))
        fwd = f_fstar_transform(p, c.n, c.r, "f_to_fstar")
        held += [fwd == fstar_polynomial(fstar_matrix(c)), f_fstar_transform(fwd, c.n, c.r, "fstar_to_f") == p]
    held += [check_contraction_deletion(v, w, mode).holds for mode in ("contract", "delete")]
    assert all(held)


@pytest.mark.parametrize(
    "calls, enumerations, groupings",
    [
        (_identity_checks, 2, 2),
        (lambda v, w: (f_matrix(v), dissection_patterns(v), neighborliness_degree(v)), 1, 0),
        (lambda v, w: (fstar_matrix(v), dependency_patterns(v), farkas_complement_oracle(v)), 2, 0),
    ],
    ids=["identity-checks", "f-then-patterns", "fstar-dual-farkas"],
)
def test_each_configuration_is_enumerated_once(calls, enumerations, groupings):
    # a computed enumeration is a miss of the face-list cache, and grouping
    # a configuration's faces for its minors a miss of the count cache that
    # the contraction and deletion checks share
    v, w = gen_random(7, 3, 2101), gen_random(7, 3, 2102)
    for cache in (f_matrix, fstar_matrix, faces._pattern_tuple, faces._coordinate_counts):
        cache.cache_clear()
    calls(v, w)
    assert faces._pattern_tuple.cache_info().misses == enumerations
    assert faces._coordinate_counts.cache_info().misses == groupings


def test_vertex_count_is_two_binom():
    v = gen_random(6, 3, seed=2)
    d = v.r - 1
    fm = f_matrix(v)
    assert fm.row_sum(d) == 2 * math.comb(v.n, d)


def test_sampled_direction_signature_is_enumerated():
    v = gen_cyclic(5, 3)
    pats = set(dissection_patterns(v))
    rng = random.Random(8)
    for _ in range(40):
        u = [Fraction(rng.randint(-50, 50), 7) for _ in range(v.r)]
        sig = []
        for i in range(1, v.n + 1):
            val = sum(a * b for a, b in zip(u, v.column(i)))
            sig.append(0 if val == 0 else (1 if val > 0 else -1))
        if all(s == 0 for s in sig):
            continue
        assert tuple(sig) in pats


def test_f_polynomial_matches_matrix():
    fm = f_matrix(TRIANGLE)
    p = f_polynomial(fm)
    assert p.coeff(0, 0) == 1
    assert p.coeff(1, 2) == 2


def test_fstar_polynomial_convention():
    # exponent of x is n - s, so the triangle's support-3 patterns land at x^0
    fs = fstar_matrix(TRIANGLE)
    p = fstar_polynomial(fs)
    assert set(p.terms) == {(0, 1), (0, 2)}


def test_fmatrix_json_and_csv():
    fm = f_matrix(TRIANGLE)
    assert fm.to_json() == {"d": 1, "n": 3, "rows": [[1, 2, 2, 1], [2, 2, 2, 0]]}
    assert fm.to_csv() == "1,2,2,1\n2,2,2,0\n"


def test_patterns_to_json_strings():
    out = patterns_to_json(dissection_patterns(TRIANGLE))
    assert "+++" in out
    assert all(set(s) <= {"+", "-", "0"} for s in out)
