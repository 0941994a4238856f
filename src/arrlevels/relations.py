"""Exact identities tying together face counts, dependency counts, totals.

The checks here are linear or polynomial identities over the integers and
are verified with zero tolerance:

* antipodal symmetry  f_{s,t} = f_{s,n-s-t};
* row totals: the number of faces with s zeros is independent of the
  configuration and equals the closed form
      2*C(n,s) * sum_{i=0}^{d-s} C(n-s-1, i);
* the Dehn-Sommerville style reflection f(x,y) = (-1)^d f(-(x+y+1), y),
  checked coefficient-wise through the equivalent binomial sums, which
  name the first violated coefficient;
* the exchange between f- and f*-polynomials, the substitution
  (x, y) -> (-x/(x+1), (x+y)/(x+1)) with denominators cleared, evaluated
  coefficient by coefficient as integer binomial sums rather than by
  expanding polynomials.  faces.fstar_matrix counts dependencies with it.

Checks accept either a configuration or a raw FMatrix, so corrupted
matrices can be fed in deliberately as negative controls.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import poly2
from .config import VectorConfig
from .errors import DimensionError, InconsistentInputError
from .exactnum import _Record
from .faces import FMatrix, f_matrix


class RelationReport(_Record):
    __slots__ = ("relation", "holds", "witness")

    def __init__(self, relation: str, holds: bool, witness: str | None = None) -> None:
        if holds and witness is not None:
            raise InconsistentInputError("holding report cannot carry a witness")
        super().__init__(relation, holds, witness)

    def to_json(self) -> dict:
        return {"relation": self.relation, "holds": self.holds, "witness": self.witness}


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the combinatorial convention C(a,b)=0
    outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def total_face_count(n: int, d: int, s: int) -> int:
    """Number of faces with exactly s zeros, independent of the configuration."""
    if not 0 <= s <= d:
        raise DimensionError(f"level-count index s={s} out of range 0..{d}")
    if n < d + 1:
        raise DimensionError(f"need n >= d+1, got n={n}, d={d}")
    return 2 * binom(n, s) * sum(binom(n - s - 1, i) for i in range(d - s + 1))


def _as_fmatrix(v: VectorConfig | FMatrix) -> FMatrix:
    if isinstance(v, FMatrix):
        return v
    return f_matrix(v)


def check_antipodal(v: VectorConfig | FMatrix) -> RelationReport:
    """f_{s,t} = f_{s,n-s-t}, entries outside the stored window read as 0."""
    fm = _as_fmatrix(v)
    for s in range(fm.d + 1):
        for t in range(fm.n + 1):
            mirror = fm.n - s - t
            if fm.entry(s, t) != fm.entry(s, mirror):
                w = f"f[{s}][{t}]={fm.entry(s, t)} != f[{s}][{mirror}]={fm.entry(s, mirror)}"
                return RelationReport("antipodal", False, w)
    return RelationReport("antipodal", True)


def check_totals(v: VectorConfig | FMatrix) -> RelationReport:
    """Row sums of the f-matrix match the configuration-free closed form."""
    fm = _as_fmatrix(v)
    for s in range(fm.d + 1):
        expect = total_face_count(fm.n, fm.d, s)
        got = fm.row_sum(s)
        if got != expect:
            return RelationReport("totals", False, f"row {s} sums to {got}, expected {expect}")
    return RelationReport("totals", True)


def check_dehn_sommerville(v: VectorConfig | FMatrix) -> RelationReport:
    """Reflection identity, compared coefficient by coefficient through
    the equivalent binomial sums; the witness names the first coefficient
    that differs.

    The row s = d is skipped: there C(j, d) leaves only j = d, and
    C(0, t - l) only l = t, so its reflected sum is f[d][t] itself and
    that row can never fail.
    """
    fm = _as_fmatrix(v)
    d, n = fm.d, fm.n
    for s in range(d):
        for t in range(n + d + 1):
            rhs = 0
            for j in range(d + 1):
                for ell in range(n + 1):
                    c = fm.entry(j, ell)
                    if c:
                        rhs += (-1) ** (d - j) * binom(j, s) * binom(j - s, t - ell) * c
            if fm.entry(s, t) != rhs:
                w = f"f[{s}][{t}]={fm.entry(s, t)} != reflected sum {rhs}"
                return RelationReport("dehn-sommerville", False, w)
    return RelationReport("dehn-sommerville", True)


def f_fstar_transform(p: poly2.BiPoly, n: int, r: int, direction: str) -> poly2.BiPoly:
    """Exchange f- and f*-polynomials of a rank-r size-n configuration.

    direction "f_to_fstar" maps the f-polynomial to the f*-polynomial;
    "fstar_to_f" is the inverse.  Both compute
        (x+y+1)^n - sign * x^n - sum_{a,b} p_{a,b} (-x)^a (x+y)^b (x+1)^(n-a-b)
    with sign = (-1)^r, resp. (-1)^(n-r), one coefficient at a time: the
    coefficient of x^i y^j is
        C(n,j) C(n-j,i) - sign [i=n, j=0]
            - sum_{a,b} p_{a,b} (-1)^a C(b,j) C(n-a-b, i-a-b+j).
    Every total degree is at most n.  The input coefficients must be
    integers, and so are the output's.
    """
    if direction == "f_to_fstar":
        sign = (-1) ** r
        max_x = r - 1
    elif direction == "fstar_to_f":
        sign = (-1) ** (n - r)
        max_x = n - r - 1
    else:
        raise DimensionError(f"unknown direction {direction!r}")
    terms = []
    for (a, b), c in p.terms.items():
        if a > max_x or b > n or a + b > n:
            raise DimensionError(f"monomial x^{a} y^{b} outside the window for n={n}, r={r}")
        if c.denominator != 1:
            raise InconsistentInputError(f"coefficient {c} of x^{a} y^{b} is not an integer")
        terms.append((a, b, (-1) ** a * int(c)))
    out = {}
    for j in range(n + 1):
        # the terms with C(b,j) != 0, as (a+b-j, n-a-b, coefficient * C(b,j))
        row = [(a + b - j, n - a - b, c * binom(b, j)) for a, b, c in terms if b >= j]
        for i in range(n - j + 1):
            out[(i, j)] = Fraction(
                binom(n, j) * binom(n - j, i) - sum(c * binom(m, i - lo) for lo, m, c in row)
            )
    out[(n, 0)] -= sign
    return poly2.BiPoly(out)
