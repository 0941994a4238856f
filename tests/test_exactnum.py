"""Rational scalars, matrices, and univariate root isolation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels import unipoly
from arrlevels.errors import BoundaryRootError, DegeneratePolynomialError, DimensionError
from arrlevels.exactnum import Mat, _int_det, cross_product, det, kernel_basis, rank, rat, rat_str
from arrlevels.unipoly import (
    UniPoly,
    bisect_root_interval,
    count_distinct_roots,
    isolate_roots,
    poly_gcd,
    squarefree_part,
)


def test_rat_serialization_round_trip():
    assert rat_str(rat("3/6")) == "1/2"
    assert rat_str(rat(-4)) == "-4"
    assert rat(rat_str(Fraction(-7, 3))) == Fraction(-7, 3)


def test_rat_rejects_negative_denominator_text():
    with pytest.raises(ValueError):
        rat("3/-2")


def test_det_identity():
    assert det(Mat.identity(2)) == 1


def test_det_rank_deficient():
    assert det(Mat.from_rows([[1, 1], [0, 0]])) == 0


def test_det_half_entries():
    m = Mat.from_rows([[1, 0], [Fraction(1, 2), Fraction(-1, 2)]])
    assert det(m) == Fraction(-1, 2)


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(Mat.from_rows([[1, 2, 3]]))


def test_det_equal_columns_vanishes():
    m = Mat.from_rows([[1, 2, 1], [3, 5, 3], [0, 7, 0]])
    assert det(m) == 0


def _cofactor_det(m: Mat) -> Fraction:
    if m.nrows == 1:
        return m.entries[0][0]
    total = Fraction(0)
    for j in range(m.ncols):
        minor = Mat.from_rows(
            [[m.entries[i][c] for c in range(m.ncols) if c != j] for i in range(1, m.nrows)]
        )
        total += (-1) ** j * m.entries[0][j] * _cofactor_det(minor)
    return total


def test_det_matches_cofactor_expansion():
    import random

    rng = random.Random(99)
    for _ in range(12):
        m = Mat.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)]
        )
        assert det(m) == _cofactor_det(m)


@st.composite
def _rows_and_vector(draw):
    k = draw(st.integers(1, 7))
    entry = st.integers(-30, 30)
    rows = draw(st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1), min_size=k, max_size=k))
    return rows, draw(st.lists(entry, min_size=k + 1, max_size=k + 1))


@settings(max_examples=150)
@given(_rows_and_vector())
def test_cross_product_matches_bareiss_minors(case):
    rows, a = case
    k = len(rows)
    u = cross_product(rows)
    minors = [_int_det([row[:c] + row[c + 1 :] for row in rows]) for c in range(k + 1)]
    assert u == [(-1) ** c * m for c, m in enumerate(minors)]
    assert all(sum(x * y for x, y in zip(row, u)) == 0 for row in rows)
    assert _int_det([a] + rows) == sum(x * y for x, y in zip(a, u))


@pytest.mark.parametrize("rows", [[], [[1, 2, 3]], [[1, 2, 3], [4, 5]]])
def test_cross_product_rejects_bad_shapes(rows):
    with pytest.raises(DimensionError):
        cross_product(rows)


def test_kernel_basis_single_vector():
    m = Mat.from_rows([[1, 0, 1], [0, 1, 1]])
    k = kernel_basis(m)
    assert k.ncols == 1
    col = [k.entries[i][0] for i in range(3)]
    scale = col[2]
    assert scale != 0
    assert [c / scale for c in col] == [-1, -1, 1]
    assert m.mul(k).is_zero()


def test_kernel_basis_trivial():
    assert kernel_basis(Mat.identity(3)).ncols == 0


def test_kernel_basis_full():
    k = kernel_basis(Mat.zeros(1, 2))
    assert k.ncols == 2
    assert rank(k) == 2


def test_rank_examples():
    assert rank(Mat.identity(2)) == 2
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Mat.zeros(0, 0)) == 0


def test_isolate_roots_accepts_integer_endpoints():
    found = isolate_roots(UniPoly.make([1, -5, 6]), 0, 1)  # (2t - 1)(3t - 1)
    assert [simple for _, simple in found] == [True, True]
    (a1, b1), (a2, b2) = (interval for interval, _ in found)
    assert a1 < Fraction(1, 3) < b1 <= a2 < Fraction(1, 2) < b2
    assert all(type(x) is Fraction for x in (a1, b1, a2, b2))


def test_bisect_root_interval_accepts_integer_endpoints():
    a, b = bisect_root_interval(UniPoly.make([-1, 2]), (0, 1))
    assert a < Fraction(1, 2) < b < 1
    assert type(a) is Fraction and type(b) is Fraction


def test_poly_gcd_and_squarefree():
    # (t-1)^2 (t+2) against (t-1)(t+3)
    a = UniPoly.make([1, -1]).mul(UniPoly.make([1, -1])).mul(UniPoly.make([2, 1]))
    b = UniPoly.make([1, -1]).mul(UniPoly.make([3, 1]))
    g = poly_gcd(a, b)
    assert g.degree == 1 and g(Fraction(1)) == 0
    sf = squarefree_part(a)
    assert sf.degree == 2
    assert sf(Fraction(1)) == 0 and sf(Fraction(-2)) == 0


def test_isolate_linear_root():
    p = UniPoly.make([1, -2])  # 1 - 2t
    out = isolate_roots(p, Fraction(0), Fraction(1))
    assert len(out) == 1
    (a, b), simple = out[0]
    assert simple
    assert a < Fraction(1, 2) < b


def test_isolate_two_simple_roots():
    third = UniPoly.make([Fraction(-1, 3), 1])
    two_thirds = UniPoly.make([Fraction(-2, 3), 1])
    p = third.mul(two_thirds)
    out = isolate_roots(p, Fraction(0), Fraction(1))
    assert len(out) == 2
    (a1, b1), s1 = out[0]
    (a2, b2), s2 = out[1]
    assert s1 and s2
    assert a1 < Fraction(1, 3) < b1 < Fraction(2, 3) or b1 <= a2
    assert a2 < Fraction(2, 3) < b2


def test_isolate_constant_no_roots():
    assert isolate_roots(UniPoly.make([3]), Fraction(0), Fraction(1)) == []


def test_isolate_flags_multiple_root():
    p = UniPoly.make([Fraction(-1, 2), 1])
    out = isolate_roots(p.mul(p), Fraction(0), Fraction(1))
    assert len(out) == 1
    assert out[0][1] is False


def test_isolate_zero_polynomial_rejected():
    with pytest.raises(DegeneratePolynomialError):
        isolate_roots(UniPoly.zero(), Fraction(0), Fraction(1))


def test_isolate_boundary_root_rejected():
    p = UniPoly.make([0, 1])  # root at t=0
    with pytest.raises(BoundaryRootError):
        isolate_roots(p, Fraction(0), Fraction(1))


def test_count_distinct_roots_matches_isolation():
    p = UniPoly.make([Fraction(-1, 4), 0, 1])  # t^2 - 1/4, roots +-1/2
    assert count_distinct_roots(p, Fraction(-1), Fraction(1)) == 2
    assert count_distinct_roots(p, Fraction(0), Fraction(1)) == 1


def test_bisect_keeps_sign_change():
    p = UniPoly.make([1, -2])
    interval = (Fraction(0), Fraction(1))
    for _ in range(6):
        interval = bisect_root_interval(p, interval)
    a, b = interval
    assert a < Fraction(1, 2) < b
    assert b - a <= Fraction(1, 32)


def test_count_distinct_roots_rejects_reversed_interval():
    p = UniPoly.make([1, -2])
    with pytest.raises(DimensionError):
        count_distinct_roots(p, Fraction(1), Fraction(0))
    with pytest.raises(DimensionError):
        count_distinct_roots(p, Fraction(1, 3), Fraction(1, 3))


def test_sturm_count_across_a_degree_gap():
    # t^4 + 4t - 1: its Sturm chain drops from degree 3 to the remainder
    # 1 - 3t, whose negative leading coefficient enters three
    # pseudo-division steps; real roots near -1.49 and 0.25
    p = UniPoly.make([-1, 4, 0, 0, 1])
    cases = {(-10, 10): 2, (-2, 0): 1, (0, 1): 1, (1, 10): 0, (-10, -2): 0}
    for (lo, hi), want in cases.items():
        assert count_distinct_roots(p, Fraction(lo), Fraction(hi)) == want
    found = isolate_roots(p, Fraction(-2), Fraction(1))
    assert [p.sign_at(a) * p.sign_at(b) for (a, b), _ in found] == [-1, -1]


def test_rational_input_is_stored_as_a_positive_integer_multiple():
    p = UniPoly.make([Fraction(-1, 4), 0, Fraction(1, 6)])
    assert p.coeffs == (-3, 0, 2)
    assert UniPoly.make([6, -4]).coeffs == (6, -4)
    assert UniPoly.make([0, 0]).is_zero()


def test_gcd_and_squarefree_part_are_primitive_with_positive_lead():
    # -6(t - 1)^2 (2t + 3) against 4(t - 1)(5t - 2)
    lin = UniPoly.make([-1, 1])
    a = UniPoly.make([-6]).mul(lin).mul(lin).mul(UniPoly.make([3, 2]))
    b = UniPoly.make([4]).mul(lin).mul(UniPoly.make([-2, 5]))
    assert poly_gcd(a, b).coeffs == (-1, 1)
    assert poly_gcd(a.neg(), b).coeffs == (-1, 1)
    assert squarefree_part(a).coeffs == lin.mul(UniPoly.make([3, 2])).coeffs
    assert poly_gcd(UniPoly.make([3, 2]), lin).coeffs == (1,)
    assert poly_gcd(UniPoly.zero(), UniPoly.make([-4, -6])).coeffs == (2, 3)
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero()


def test_sign_at_matches_exact_value():
    p = UniPoly.make([5, -7, 0, 3])
    for x in (Fraction(-9, 4), Fraction(0), Fraction(1, 3), Fraction(7, 5), Fraction(-1)):
        value = p(x)
        assert p.sign_at(x) == (value > 0) - (value < 0)
        assert p.homogeneous(x.numerator, x.denominator, 5) == value * x.denominator**5
    with pytest.raises(DimensionError):
        p.homogeneous(1, 2, 2)
    assert UniPoly.make([0, 3, -6]).sign_at(Fraction(1, 2)) == 0


_ROOT = st.tuples(st.integers(-40, 40), st.integers(1, 30)).map(lambda pq: Fraction(*pq))


@settings(max_examples=150)
@given(
    roots=st.lists(_ROOT, min_size=1, max_size=6, unique=True),
    mults=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    lead=st.integers(-5, 5).filter(bool),
)
def test_isolation_finds_each_rational_root(roots, mults, lead):
    # lead times the product of (q t - p)^m over the distinct roots p/q,
    # root i taken with multiplicity m = mults[i]
    p = UniPoly.make([lead])
    for x, m in zip(roots, mults):
        for _ in range(m):
            p = p.mul(UniPoly.make([-x.numerator, x.denominator]))
    if any(x in (0, 1) for x in roots):
        with pytest.raises(BoundaryRootError):
            isolate_roots(p, Fraction(0), Fraction(1))
        return
    inside = sorted((x, m) for x, m in zip(roots, mults) if 0 < x < 1)
    found = isolate_roots(p, Fraction(0), Fraction(1))
    assert len(found) == len(inside)
    for ((a, b), simple), (x, m) in zip(found, inside):
        assert simple == (m == 1) and 0 <= a < x < b <= 1
    assert all(b1 <= a2 for ((_, b1), _), ((a2, _), _) in zip(found, found[1:]))
    assert count_distinct_roots(p, Fraction(0), Fraction(1)) == len(inside)
    assert count_distinct_roots(p, Fraction(-41), Fraction(41)) == len(roots)
    # the same intervals and flags as isolating the squarefree part, with a
    # root simple where gcd(p, p') has no root
    g = poly_gcd(p, p.derivative())
    want = [
        ((a, b), g.degree <= 0 or count_distinct_roots(g, a, b) == 0)
        for (a, b), _ in isolate_roots(squarefree_part(p), Fraction(0), Fraction(1))
    ]
    assert found == want


def test_isolation_builds_one_chain_for_p_and_one_for_its_gcd(monkeypatch):
    # the product of (7t - k)^2 over k = 1..6: six double roots in (0, 1)
    p = UniPoly.make([1])
    for k in range(1, 7):
        p = p.mul(UniPoly.make([-k, 7])).mul(UniPoly.make([-k, 7]))
    built = []
    sturm_chain = unipoly._sturm_chain
    monkeypatch.setattr(unipoly, "_sturm_chain", lambda q: built.append(q) or sturm_chain(q))
    found = isolate_roots(p, Fraction(0), Fraction(1))
    assert [simple for _, simple in found] == [False] * 6
    assert all(a < Fraction(k, 7) < b for ((a, b), _), k in zip(found, range(1, 7)))
    assert len(built) == 2


@pytest.mark.parametrize("text, value", [("7", 7), ("-3/6", Fraction(-1, 2)), ("+4/1", 4), ("0/5", 0)])
def test_rat_reads_signed_integers_and_quotients(text, value):
    assert rat(text) == value


@pytest.mark.parametrize(
    "text",
    ["1e99999999", "0.5", "1.", "-.5", " 1", "1 ", "1_000", "1/2/3", "/2", "2/", "", "+", "١", "inf", "nan"],
)
def test_rat_rejects_other_text(text):
    with pytest.raises(ValueError):
        rat(text)


def test_rat_zero_denominator_text():
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
