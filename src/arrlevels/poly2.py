"""Bivariate polynomials with exact coefficients.

A BiPoly is a sparse term map (deg_x, deg_y) -> coefficient, an int or a
Fraction; equal values compare and hash alike, so the two mix freely.
Count polynomials (faces.f_polynomial, faces.fstar_polynomial and the
output of relations.f_fstar_transform) carry the grids' ints.  No count
path uses this module: the library computes on integer grids with
relations.scatter, whose unit expansions are cached.  The ring operations
and full substitution p(sx, sy) expand identities polynomially, which the
tests use as a second route; from_matrix is reached only from the tests
and the benchmark's tracer.  Total degrees stay small (around n <= 12),
so naive expansion is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionError
from .exactnum import Rat, _Record, rat

Term = tuple[int, int]

_ZERO = Fraction(0)


class BiPoly(_Record):
    """Sparse bivariate polynomial; no zero coefficients are stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Term, Rat] | None = None) -> None:
        clean = {k: v for k, v in terms.items() if v != 0} if terms else {}
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> BiPoly:
        return BiPoly({})

    @staticmethod
    def const(c: int | str | Fraction) -> BiPoly:
        return BiPoly({(0, 0): rat(c)})

    @staticmethod
    def monomial(deg_x: int, deg_y: int, c: int | str | Fraction = 1) -> BiPoly:
        if deg_x < 0 or deg_y < 0:
            raise DimensionError("negative exponent")
        return BiPoly({(deg_x, deg_y): rat(c)})

    @staticmethod
    def var_x() -> BiPoly:
        return BiPoly.monomial(1, 0)

    @staticmethod
    def var_y() -> BiPoly:
        return BiPoly.monomial(0, 1)

    # -- ring operations ---------------------------------------------------

    def add(self, other: BiPoly) -> BiPoly:
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, _ZERO) + v
        return BiPoly(out)

    def neg(self) -> BiPoly:
        return BiPoly({k: -v for k, v in self.terms.items()})

    def sub(self, other: BiPoly) -> BiPoly:
        return self.add(other.neg())

    def mul(self, other: BiPoly) -> BiPoly:
        out: dict[Term, Rat] = {}
        for (ax, ay), av in self.terms.items():
            for (bx, by), bv in other.terms.items():
                k = (ax + bx, ay + by)
                out[k] = out.get(k, _ZERO) + av * bv
        return BiPoly(out)

    def scale(self, c: int | str | Fraction) -> BiPoly:
        c = rat(c)
        return BiPoly({k: v * c for k, v in self.terms.items()})

    def pow(self, e: int) -> BiPoly:
        if e < 0:
            raise DimensionError("negative power")
        result = BiPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, deg_x: int, deg_y: int) -> Rat:
        return self.terms.get((deg_x, deg_y), _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def substitute(p: BiPoly, sx: BiPoly, sy: BiPoly) -> BiPoly:
    """Expand p(sx, sy) exactly.

    Powers of the substituted arguments are cached incrementally, so the
    cost is one polynomial product per distinct exponent.
    """
    px: list[BiPoly] = [BiPoly.const(1)]
    py: list[BiPoly] = [BiPoly.const(1)]

    def power(cache: list[BiPoly], base: BiPoly, e: int) -> BiPoly:
        while len(cache) <= e:
            cache.append(cache[-1].mul(base))
        return cache[e]

    total = BiPoly.zero()
    for (dx, dy), c in sorted(p.terms.items()):
        term = power(px, sx, dx).mul(power(py, sy, dy)).scale(c)
        total = total.add(term)
    return total


def from_matrix(m: Sequence[Sequence[int | Fraction]]) -> BiPoly:
    """Polynomial with coefficient m[s][t] on x^s * y^t."""
    return BiPoly({(s, t): rat(v) for s, row in enumerate(m) for t, v in enumerate(row)})
