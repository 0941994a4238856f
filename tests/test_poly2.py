"""Bivariate polynomial arithmetic and substitution."""

from __future__ import annotations

import random

from arrlevels.poly2 import BiPoly, from_matrix, substitute


X = BiPoly.var_x()
Y = BiPoly.var_y()
ONE = BiPoly.const(1)


def _random_poly(rng: random.Random, max_deg: int = 3) -> BiPoly:
    p = BiPoly.zero()
    for _ in range(rng.randint(1, 6)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg)
        c = rng.randint(-5, 5)
        p = p.add(BiPoly.monomial(a, b, c))
    return p


def test_substitute_xy_shift():
    p = X.mul(Y)
    out = substitute(p, X.add(Y).add(ONE), Y)
    assert out == X.mul(Y).add(Y.mul(Y)).add(Y)


def test_substitute_identity():
    p = X.pow(2)
    assert substitute(p, X, Y) == p


def test_substitute_ds_argument():
    p = X.add(ONE)
    out = substitute(p, X.add(Y).add(ONE).neg(), Y)
    assert out == X.neg().sub(Y)


def test_substitute_identity_random():
    rng = random.Random(5)
    for _ in range(10):
        p = _random_poly(rng)
        assert substitute(p, X, Y) == p


def test_substitute_ring_homomorphism():
    rng = random.Random(6)
    sx = X.add(Y).add(ONE)
    sy = Y.sub(X)
    for _ in range(8):
        p = _random_poly(rng, 2)
        q = _random_poly(rng, 2)
        left = substitute(p.mul(q), sx, sy)
        right = substitute(p, sx, sy).mul(substitute(q, sx, sy))
        assert left == right


def test_ds_substitution_is_involution():
    rng = random.Random(7)
    sx = X.add(Y).add(ONE).neg()
    for _ in range(8):
        p = _random_poly(rng)
        assert substitute(substitute(p, sx, Y), sx, Y) == p


def test_from_matrix_triangle_example():
    rows = [[1, 2, 2, 1], [2, 2, 2, 0]]
    p = from_matrix(rows)
    want = (
        ONE
        .add(Y.scale(2))
        .add(Y.pow(2).scale(2))
        .add(Y.pow(3))
        .add(X.mul(ONE.add(Y).add(Y.pow(2))).scale(2))
    )
    assert p == want


def test_from_matrix_zero_and_single():
    assert from_matrix([[0, 0], [0, 0]]).is_zero()
    assert from_matrix([[1]]) == ONE


def test_no_zero_coefficients_stored():
    p = X.sub(X)
    assert p.terms == {}
    q = X.add(Y).mul(X.sub(Y))  # x^2 - y^2, no xy term
    assert (1, 1) not in q.terms

