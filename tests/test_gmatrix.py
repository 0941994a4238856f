"""The pair invariant: skew shape, transforms, closed form, minors."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels import gmatrix
from arrlevels.config import gale_dual, gen_cocyclic, gen_cyclic, gen_random
from arrlevels.errors import InconsistentInputError
from arrlevels.faces import FMatrix, dependency_patterns, f_matrix, fstar_from_patterns
from arrlevels.gmatrix import (
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
)
from arrlevels.poly2 import BiPoly
from arrlevels.relations import binom


def _add_grid(fm: FMatrix, delta) -> FMatrix:
    rows = tuple(
        tuple(fm.entry(s, t) + delta[s][t] for t in range(fm.n + 1))
        for s in range(fm.d + 1)
    )
    return FMatrix(fm.d, fm.n, rows)


def _random_skew(rng: random.Random, r: int, n: int) -> GMatrix:
    small = [
        [rng.randint(-4, 4) for _ in range((n - r - 1) // 2 + 1)]
        for _ in range((r - 1) // 2 + 1)
    ]
    return full_from_small(SmallGMatrix(r, n, tuple(tuple(row) for row in small)))


def _delta_f_by_expansion(g: GMatrix) -> list[list[int]]:
    """Oracle for delta_f_from_g: expand sum g_{j,k} (x+y)^j (1+x)^(r-j) y^k
    as a polynomial and read off all r+1 rows of coefficients."""
    x, y = BiPoly.var_x(), BiPoly.var_y()
    xy, x1 = x.add(y), x.add(BiPoly.const(1))
    total = BiPoly.zero()
    for j in range(g.r + 1):
        for k in range(g.n - g.r + 1):
            if g.entry(j, k):
                total = total.add(xy.pow(j).mul(x1.pow(g.r - j)).mul(y.pow(k)).scale(g.entry(j, k)))
    grid = [[0] * (g.n + 1) for _ in range(g.r + 1)]
    for (dx, dy), c in total.terms.items():
        assert c.denominator == 1 and dx <= g.r and dy <= g.n
        grid[dx][dy] = int(c)
    return grid


def _delta_fstar_by_expansion(g: GMatrix) -> list[list[int]]:
    """Oracle for delta_fstar_from_g: expand
    sum -g_{j,k} (x+y)^k (x+1)^(n-r-k) y^j as a polynomial and put the
    coefficient of x^(n-s) y^t at (s,t)."""
    x, y = BiPoly.var_x(), BiPoly.var_y()
    xy, x1 = x.add(y), x.add(BiPoly.const(1))
    nr = g.n - g.r
    total = BiPoly.zero()
    for j in range(g.r + 1):
        for k in range(nr + 1):
            if g.entry(j, k):
                total = total.add(xy.pow(k).mul(x1.pow(nr - k)).mul(y.pow(j)).scale(-g.entry(j, k)))
    grid = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for (dx, dy), c in total.terms.items():
        assert c.denominator == 1 and dx <= g.n and dy <= g.n
        grid[g.n - dx][dy] = int(c)
    return grid


def _closed_form_identities_hold(n: int, r: int) -> bool:
    """Oracle for g_closed_form_neighborly: every entry is positive, the
    partial sums over j of each column collapse to one binomial product,
    and the top row is C(k+r-1, r-1)."""
    sm = g_closed_form_neighborly(n, r)
    cols = range((n - r - 1) // 2 + 1)
    for j in range((r - 1) // 2 + 1):
        for k in cols:
            if sm.rows[j][k] <= 0:
                return False
            cumulative = sum(sm.rows[jj][k] for jj in range(j + 1))
            if cumulative != binom(n - k - r + j, j) * binom(k + r - 1 - j, k):
                return False
    return all(sm.rows[0][k] == binom(k + r - 1, r - 1) for k in cols)


MOTION_G = GMatrix(2, 3, ((1, -1), (0, 0), (-1, 1)))


def test_motion_example_is_skew():
    assert satisfies_skew(MOTION_G)


def test_small_full_round_trip():
    sm = small_from_full(MOTION_G)
    assert sm.rows == ((1,),)
    assert full_from_small(sm).rows == MOTION_G.rows


def test_forced_zero_middle_row_and_column():
    g = g_of_pair(gen_cocyclic(6, 4), gen_cyclic(6, 4))  # r even
    assert all(x == 0 for x in g.rows[2])
    h = g_of_pair(gen_cocyclic(5, 3), gen_cyclic(5, 3))  # n - r even
    assert all(row[1] == 0 for row in h.rows)


def test_delta_f_zero_g():
    zero = GMatrix(2, 3, ((0, 0), (0, 0), (0, 0)))
    assert all(all(x == 0 for x in row) for row in delta_f_from_g(zero))


def test_delta_f_example_values():
    delta = delta_f_from_g(MOTION_G)
    assert delta[0][0] == 1
    assert delta[1][0] == 2
    assert all(sum(row) == 0 for row in delta)


def test_delta_f_row_sums_always_vanish():
    rng = random.Random(21)
    for _ in range(10):
        g = _random_skew(rng, 3, 6)
        assert all(sum(row) == 0 for row in delta_f_from_g(g))


def test_delta_f_matches_polynomial_expansion():
    rng = random.Random(23)
    gs = [MOTION_G] + [_random_skew(rng, r, n) for r, n in ((2, 5), (3, 6), (4, 7), (5, 8))]
    for n, r, seed in ((5, 3, 71), (6, 3, 73), (6, 4, 75), (7, 4, 77), (7, 3, 79)):
        gs.append(g_of_pair(gen_random(n, r, seed=seed), gen_random(n, r, seed=seed + 1)))
    assert sum(not g.is_zero() for g in gs) >= 8
    for g in gs:
        expanded = _delta_f_by_expansion(g)
        assert all(x == 0 for x in expanded[g.r])
        assert [list(row) for row in delta_f_from_g(g)] == expanded[: g.r]


def test_g_from_equal_matrices_is_zero():
    fm = f_matrix(gen_cyclic(5, 3))
    assert g_from_fmatrices(fm, fm).is_zero()


def test_closed_form_small_values():
    sm = g_closed_form_neighborly(5, 3)
    assert sm.rows == ((1,), (2,))
    assert g_closed_form_neighborly(7, 3).rows[0][1] == 3


def test_closed_form_positive():
    for n, r in ((5, 3), (6, 3), (7, 4), (8, 5), (6, 2)):
        sm = g_closed_form_neighborly(n, r)
        assert all(x > 0 for row in sm.rows for x in row)


def test_closed_form_partial_sums_and_top_row():
    for n, r in ((5, 3), (6, 3), (7, 3), (7, 4), (8, 5), (6, 2), (9, 4), (10, 5)):
        assert _closed_form_identities_hold(n, r), (n, r)


def test_algebraic_route_matches_closed_form():
    for n, r in ((5, 3), (6, 3), (7, 3), (7, 4)):
        g = g_of_pair(gen_cocyclic(n, r), gen_cyclic(n, r))
        assert small_from_full(g).rows == g_closed_form_neighborly(n, r).rows


def test_inversion_round_trip_random_skew():
    rng = random.Random(17)
    base = f_matrix(gen_cyclic(6, 3))
    for _ in range(8):
        g = _random_skew(rng, 3, 6)
        shifted = _add_grid(base, delta_f_from_g(g))
        assert g_from_fmatrices(base, shifted).rows == g.rows
        # delta_f_from_g and the inversion share relations.scatter, so a
        # fault there can cancel; the polynomial expansion shares nothing
        independent = _add_grid(base, _delta_f_by_expansion(g))
        assert g_from_fmatrices(base, independent).rows == g.rows


@st.composite
def _skew_and_base(draw):
    """A skew g of a random shape 1 <= r < n <= 10 and an integer grid of
    f-matrix shape; the inversion reads only differences, so any grid
    serves as the base."""
    n = draw(st.integers(2, 10))
    r = draw(st.integers(1, n - 1))
    entries = st.integers(-20, 20)
    small = tuple(
        tuple(draw(entries) for _ in range((n - r - 1) // 2 + 1)) for _ in range((r - 1) // 2 + 1)
    )
    base = tuple(tuple(draw(st.integers(0, 999)) for _ in range(n + 1)) for _ in range(r))
    return full_from_small(SmallGMatrix(r, n, small)), FMatrix(r - 1, n, base)


@settings(max_examples=200)
@given(_skew_and_base())
def test_inversion_round_trip_random_skew_every_shape(case):
    g, base = case
    delta = delta_f_from_g(g)
    assert g_from_fmatrices(base, _add_grid(base, delta)).rows == g.rows
    # the round trip alone cannot see a wrong term that both directions
    # share above the y-degree being solved, so the forward transform is
    # held to the polynomial expansion as well
    assert [list(row) for row in delta] == _delta_f_by_expansion(g)[: g.r]


def test_delta_fstar_matches_polynomial_expansion():
    rng = random.Random(29)
    gs = [MOTION_G] + [_random_skew(rng, r, n) for r, n in ((2, 5), (3, 6), (4, 7))]
    for n, r, seed in ((5, 3, 81), (6, 3, 83), (6, 4, 85), (7, 4, 87), (7, 3, 89), (8, 5, 91)):
        gs.append(g_of_pair(gen_random(n, r, seed=seed), gen_random(n, r, seed=seed + 1)))
    assert sum(not g.is_zero() for g in gs) >= 8
    for g in gs:
        assert [list(row) for row in delta_fstar_from_g(g)] == _delta_fstar_by_expansion(g)


def test_delta_fstar_matches_enumeration():
    v, w = gen_cocyclic(5, 3), gen_cyclic(5, 3)
    g = g_of_pair(v, w)
    delta = delta_fstar_from_g(g)
    fsv, fsw = (fstar_from_patterns(dependency_patterns(c), 3, 5) for c in (v, w))
    for s in range(6):
        for t in range(6):
            assert delta[s][t] == fsw.entry(s, t) - fsv.entry(s, t)


def test_gale_antisymmetry():
    v = gen_random(5, 3, seed=31)
    w = gen_random(5, 3, seed=32)
    g = g_of_pair(v, w)
    gd = g_of_pair(gale_dual(v), gale_dual(w))
    for j in range(4):
        for k in range(3):
            assert g.entry(j, k) == -gd.entry(k, j)


def test_path_additivity():
    v = gen_random(5, 3, seed=41)
    w = gen_random(5, 3, seed=42)
    x = gen_random(5, 3, seed=43)
    total = g_of_pair(v, w).add(g_of_pair(w, x))
    assert total.rows == g_of_pair(v, x).rows


def test_reversal_negates():
    v = gen_random(6, 3, seed=44)
    w = gen_random(6, 3, seed=45)
    assert g_of_pair(w, v).rows == g_of_pair(v, w).neg().rows


def test_neighborly_rigidity_zero_g():
    v = gen_cyclic(6, 3)
    w = gen_cyclic(6, 3, (0, 2, 3, 7, 10, 15))
    assert g_of_pair(v, w).is_zero()
    assert f_matrix(v).rows == f_matrix(w).rows


def test_pointed_pair_zero_top_row():
    v = gen_random(6, 3, seed=51, pointed=True)
    w = gen_random(6, 3, seed=52, pointed=True)
    g = g_of_pair(v, w)
    assert all(x == 0 for x in g.rows[0])


def test_inversion_rejects_fake_counts():
    fm = f_matrix(gen_cyclic(5, 3))
    rows = [list(r) for r in fm.rows]
    rows[0][0] += 1
    bad = FMatrix(fm.d, fm.n, tuple(tuple(r) for r in rows))
    with pytest.raises(InconsistentInputError):
        g_from_fmatrices(fm, bad)
    # reproduced exactly by a g with zero column sums that is not skew
    not_skew = GMatrix(3, 5, ((1, 0, 0), (-1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(InconsistentInputError, match="skew"):
        g_from_fmatrices(fm, _add_grid(fm, delta_f_from_g(not_skew)))


def test_inversion_rejects_every_unit_corruption():
    # a skew g maps to a difference with zero row sums, so no single-entry
    # change of either input is the image of any g.  A corruption in a
    # column t <= n-r enters the solved columns and breaks skew-symmetry;
    # one further right is only seen by the reproduce check
    rejected = 0
    for n, r in ((4, 2), (5, 3), (6, 3), (7, 4), (8, 5)):
        fv, fw = f_matrix(gen_cocyclic(n, r)), f_matrix(gen_cyclic(n, r))
        for s in range(fv.d + 1):
            for t in range(fv.n + 1):
                for step in (1, -1):
                    delta = [[0] * (n + 1) for _ in range(r)]
                    delta[s][t] = step
                    want = "skew" if t <= n - r else "reproduce"
                    for a, b in ((_add_grid(fv, delta), fw), (fv, _add_grid(fw, delta))):
                        with pytest.raises(InconsistentInputError, match=want):
                            g_from_fmatrices(a, b)
                        rejected += 1
    assert rejected == 504


def test_contraction_identity_holds():
    v = gen_random(6, 3, seed=61, pointed=True)
    w = gen_random(6, 3, seed=62, pointed=True)
    assert check_contraction_deletion(v, w, "contract").holds


def test_deletion_identity_holds():
    assert check_contraction_deletion(gen_cocyclic(6, 3), gen_cyclic(6, 3), "delete").holds


def test_minor_identities_trivial_pair():
    v = gen_cyclic(6, 3)
    assert check_contraction_deletion(v, v, "contract").holds
    assert check_contraction_deletion(v, v, "delete").holds


@pytest.mark.parametrize(
    "mode, pair, witness",
    [
        ("contract", ((7, 3, 10, False), (7, 3, 20, False)), "(j=0,k=1): minors sum 7 != 0"),
        ("delete", ((7, 3, 15, False), (7, 3, 25, False)), "(j=0,k=1): minors sum -7 != -9"),
        ("delete", ((7, 3, 5, True), (7, 3, 6, True)), "(j=1,k=0): minors sum 7 != 0"),
    ],
)
def test_minor_identity_failure_names_the_first_differing_entry(monkeypatch, mode, pair, witness):
    # every minor taken at column 1 breaks the sums; the report names the
    # first entry (j, k), in row-major order, where they differ
    minors = gmatrix.minor_f_matrices
    monkeypatch.setattr(gmatrix, "minor_f_matrices", lambda v, mode: [minors(v, mode)[0]] * v.n)
    v, w = (gen_random(n, r, seed, pointed=pointed) for n, r, seed, pointed in pair)
    rep = check_contraction_deletion(v, w, mode)
    assert (rep.holds, rep.witness) == (False, witness)


@pytest.mark.parametrize(
    "mode, witness",
    [("contract", "(j=2,k=3): minors sum 12 != 6"), ("delete", "(j=3,k=2): minors sum 12 != 6")],
)
def test_minor_identity_checks_the_last_entry(monkeypatch, mode, witness):
    # only the bottom-right entry of each minor's g-matrix is off by one
    g_of_minor = gmatrix.g_from_fmatrices

    def bumped(fv, fw):
        g = g_of_minor(fv, fw)
        if (g.r, g.n) == (3, 6):
            return g
        rows = [list(row) for row in g.rows]
        rows[-1][-1] += 1
        return GMatrix(g.r, g.n, tuple(tuple(row) for row in rows))

    monkeypatch.setattr(gmatrix, "g_from_fmatrices", bumped)
    rep = check_contraction_deletion(gen_cocyclic(6, 3), gen_cyclic(6, 3), mode)
    assert (rep.holds, rep.witness) == (False, witness)
