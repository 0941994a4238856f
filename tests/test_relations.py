"""Linear and polynomial identities on the counting matrices."""

from __future__ import annotations

import random

import pytest

from arrlevels.config import gen_cocyclic, gen_cyclic, gen_random, new_config
from arrlevels.errors import DimensionError, InconsistentInputError
from arrlevels.faces import (
    FMatrix,
    dependency_patterns,
    f_matrix,
    f_polynomial,
    fstar_from_patterns,
    fstar_polynomial,
)
from arrlevels.poly2 import BiPoly, substitute
from arrlevels.relations import (
    RelationReport,
    binom,
    check_antipodal,
    check_dehn_sommerville,
    check_totals,
    f_fstar_transform,
    scatter,
    total_face_count,
)


TRIANGLE = new_config(2, 3, [(1, 0), (0, 1), (1, 1)])


def _total_by_parity_sum(n: int, d: int, s: int) -> int:
    """Oracle for total_face_count: the second closed form
    sum_{i=0}^{d} (1 + (-1)^i) C(n, d-i) C(d-i, s)."""
    return sum((1 + (-1) ** i) * binom(n, d - i) * binom(d - i, s) for i in range(d + 1))


def _ds_by_substitution(fm: FMatrix) -> tuple[int, int, int] | None:
    """Oracle for check_dehn_sommerville: substitute x -> -(x+y+1) into the
    f-polynomial and compare with (-1)^d times the original.  Returns None
    when they agree, else the first differing (s, t) in row-major order
    and the reflected coefficient there."""
    p = f_polynomial(fm)
    x, y = BiPoly.var_x(), BiPoly.var_y()
    q = substitute(p, x.add(y).add(BiPoly.const(1)).neg(), y)
    if fm.d % 2 == 1:
        q = q.neg()
    for s in range(fm.d + 1):
        for t in range(fm.n + fm.d + 1):
            if q.coeff(s, t) != p.coeff(s, t):
                return s, t, int(q.coeff(s, t))
    return None


def _ds_witness(fm: FMatrix) -> str | None:
    """The witness check_dehn_sommerville must give, from the oracle."""
    diff = _ds_by_substitution(fm)
    if diff is None:
        return None
    s, t, reflected = diff
    return f"f[{s}][{t}]={fm.entry(s, t)} != reflected sum {reflected}"


def _transform_by_expansion(p: BiPoly, n: int, r: int, direction: str) -> BiPoly:
    """Oracle for f_fstar_transform: expand
    (x+y+1)^n - sign x^n - sum p_{a,b} (-x)^a (x+y)^b (x+1)^(n-a-b)
    with polynomial arithmetic."""
    sign = (-1) ** r if direction == "f_to_fstar" else (-1) ** (n - r)
    x, y = BiPoly.var_x(), BiPoly.var_y()
    x_plus_1 = x.add(BiPoly.const(1))
    core = BiPoly.zero()
    for (a, b), c in p.terms.items():
        core = core.add(x.neg().pow(a).mul(x.add(y).pow(b)).mul(x_plus_1.pow(n - a - b)).scale(c))
    return x.add(y).add(BiPoly.const(1)).pow(n).sub(x.pow(n).scale(sign)).sub(core)


def _gale_fstar_polynomial(v) -> BiPoly:
    """f*-polynomial of the dependency patterns enumerated on the Gale dual."""
    return fstar_polynomial(fstar_from_patterns(dependency_patterns(v), v.r, v.n))


def test_total_face_count_values():
    assert total_face_count(6, 2, 0) == 32
    assert total_face_count(3, 1, 0) == 6
    assert total_face_count(3, 1, 1) == 6
    assert total_face_count(2, 1, 1) == 4


def test_total_face_count_range_check():
    with pytest.raises(DimensionError):
        total_face_count(6, 2, 3)
    with pytest.raises(DimensionError):
        total_face_count(6, 2, -1)


def test_total_face_count_closed_forms_agree_on_grid():
    # the library evaluates one closed form; the other is the oracle
    for d in range(0, 7):
        for n in range(d + 1, 13):
            for s in range(d + 1):
                assert total_face_count(n, d, s) == _total_by_parity_sum(n, d, s) > 0


def test_triangle_satisfies_all_three():
    assert check_antipodal(TRIANGLE).holds
    assert check_totals(TRIANGLE).holds
    assert check_dehn_sommerville(TRIANGLE).holds


def test_cyclic74_reflection():
    assert check_dehn_sommerville(gen_cyclic(7, 4)).holds


def test_corrupted_corner_breaks_antipodal():
    fm = f_matrix(TRIANGLE)
    rows = [list(r) for r in fm.rows]
    rows[0][0] += 1
    bad = FMatrix(fm.d, fm.n, tuple(tuple(r) for r in rows))
    report = check_antipodal(bad)
    assert not report.holds
    assert report.witness is not None and "f[0][0]" in report.witness


def test_report_forbids_witness_on_success():
    with pytest.raises(InconsistentInputError):
        RelationReport("x", True, "spurious")


def test_report_json_shape():
    rep = check_totals(TRIANGLE)
    assert rep.to_json() == {"relation": "totals", "holds": True, "witness": None}


def test_checks_accept_raw_matrices():
    fm = f_matrix(gen_cyclic(5, 3))
    assert check_antipodal(fm).holds
    assert check_totals(fm).holds
    assert check_dehn_sommerville(fm).holds


def test_reflection_routes_agree_on_arbitrary_input():
    # both routes express one linear condition, so they must return the
    # same verdict even on matrices that are not counts of anything
    rng = random.Random(13)
    for _ in range(25):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        rows = tuple(
            tuple(rng.randint(0, 9) for _ in range(n + 1)) for _ in range(d + 1)
        )
        fm = FMatrix(d, n, rows)
        report = check_dehn_sommerville(fm)
        assert report.holds == (report.witness is None)
        assert report.witness == _ds_witness(fm)


def test_reflection_routes_agree_on_level_grid_and_corruptions():
    # the configurations of acceptance criterion 2, then every single-entry
    # corruption of the criterion 10 matrix
    matrices = []
    for r in (2, 3, 4, 5):
        for n in range(r, r + 5):
            for s in range(5):
                matrices.append(f_matrix(gen_random(n, r, seed=1000 + 97 * r + 13 * n + s)))
    assert all(_ds_by_substitution(fm) is None for fm in matrices)
    base = f_matrix(gen_cyclic(4, 2))
    corrupted = []
    for s in range(base.d + 1):
        for t in range(base.n + 1):
            rows = [list(row) for row in base.rows]
            rows[s][t] += 1
            corrupted.append(FMatrix(base.d, base.n, tuple(tuple(row) for row in rows)))
    assert any(_ds_by_substitution(fm) is not None for fm in corrupted)
    for fm in matrices + corrupted:
        assert check_dehn_sommerville(fm).witness == _ds_witness(fm)


def test_reflection_reports_every_corruption_of_top_row():
    # the row s = d is not evaluated, since it can never fail; corruptions
    # there still break the lower rows
    base = f_matrix(gen_cyclic(4, 2))
    d = base.d
    for t in range(base.n + 1):
        for step in (1, -1):
            rows = [list(row) for row in base.rows]
            rows[d][t] += step
            report = check_dehn_sommerville(FMatrix(base.d, base.n, tuple(tuple(row) for row in rows)))
            assert not report.holds and report.witness, (t, step)


def test_scatter_matches_polynomial_expansion():
    # the kernel of every count transform against polynomial arithmetic:
    # each term (c, a, b, p, q) is c x^a y^b (x+y)^p (1+x)^q, added onto
    # whatever the grid already holds; p and q run over 0..10
    rng = random.Random(23)
    x_plus_y = BiPoly.var_x().add(BiPoly.var_y())
    x_plus_1 = BiPoly.var_x().add(BiPoly.const(1))
    for _ in range(60):
        start = [[rng.randint(-5, 5) for _ in range(14)] for _ in range(24)]
        want = BiPoly({(i, j): c for i, row in enumerate(start) for j, c in enumerate(row)})
        terms = [
            (rng.randint(-9, 9), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 10), rng.randint(0, 10))
            for _ in range(rng.randint(1, 4))
        ]
        for c, a, b, p, q in terms:
            want = want.add(BiPoly.monomial(a, b, c).mul(x_plus_y.pow(p)).mul(x_plus_1.pow(q)))
        grid = scatter(start, terms)
        assert grid is start
        assert BiPoly({(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row)}) == want


def test_transform_triangle_forward():
    p = f_polynomial(f_matrix(TRIANGLE))
    out = f_fstar_transform(p, 3, 2, "f_to_fstar")
    assert out == _gale_fstar_polynomial(TRIANGLE)
    assert set(out.terms) == {(0, 1), (0, 2)}


def test_transform_round_trip_on_samples():
    for v in (TRIANGLE, gen_cyclic(5, 3), gen_cocyclic(6, 3), gen_random(6, 4, seed=4)):
        p = f_polynomial(f_matrix(v))
        q = f_fstar_transform(p, v.n, v.r, "f_to_fstar")
        assert f_fstar_transform(q, v.n, v.r, "fstar_to_f") == p


def test_transform_forward_matches_enumeration():
    for v in (gen_cyclic(5, 3), gen_cocyclic(5, 3), gen_random(6, 3, seed=9)):
        p = f_polynomial(f_matrix(v))
        assert f_fstar_transform(p, v.n, v.r, "f_to_fstar") == _gale_fstar_polynomial(v)


def test_transform_matches_polynomial_expansion():
    # both directions on the acceptance criterion 3 grid
    for r in (2, 3, 4):
        for n in range(r, 8):
            for s in (0, 1):
                v = gen_random(n, r, seed=3000 + 31 * r + 7 * n + s)
                p = f_polynomial(f_matrix(v))
                fwd = f_fstar_transform(p, n, r, "f_to_fstar")
                assert fwd == _transform_by_expansion(p, n, r, "f_to_fstar")
                assert f_fstar_transform(fwd, n, r, "fstar_to_f") == _transform_by_expansion(
                    fwd, n, r, "fstar_to_f"
                )


def test_transform_matches_expansion_on_arbitrary_polynomials():
    # the transform is affine, so it must agree with the expansion on any
    # integer polynomial inside the window, not only on face counts
    rng = random.Random(19)
    for _ in range(30):
        r = rng.randint(1, 5)
        n = rng.randint(r, 8)
        for direction, max_x in (("f_to_fstar", r - 1), ("fstar_to_f", n - r - 1)):
            terms = {(a, b): rng.randint(-9, 9) for a in range(max_x + 1) for b in range(n - a + 1)}
            p = BiPoly(terms)
            assert f_fstar_transform(p, n, r, direction) == _transform_by_expansion(p, n, r, direction)


def test_transform_rejects_fractional_coefficient():
    with pytest.raises(InconsistentInputError, match="x\\^0 y\\^1"):
        f_fstar_transform(BiPoly.monomial(0, 1, "1/2"), 4, 2, "f_to_fstar")


def test_transform_square_case_from_zero():
    # n = r has no dependencies; transforming the zero polynomial back
    # reproduces the unique f-polynomial of an independent configuration
    out = f_fstar_transform(BiPoly.zero(), 3, 3, "fstar_to_f")
    assert out == f_polynomial(f_matrix(gen_cyclic(3, 3)))


def test_transform_rejects_out_of_window():
    with pytest.raises(DimensionError):
        f_fstar_transform(BiPoly.monomial(5, 0), 4, 2, "f_to_fstar")
    with pytest.raises(DimensionError):
        f_fstar_transform(BiPoly.monomial(0, 1), 4, 2, "sideways")
