"""Exact identities tying together face counts, dependency counts, totals.

The checks here are linear or polynomial identities over the integers and
are verified with zero tolerance:

* antipodal symmetry  f_{s,t} = f_{s,n-s-t};
* row totals: the number of faces with s zeros is independent of the
  configuration and equals the closed form
      2*C(n,s) * sum_{i=0}^{d-s} C(n-s-1, i);
* the Dehn-Sommerville style reflection f(x,y) = (-1)^d f(-(x+y+1), y),
  checked coefficient-wise, naming the first violated coefficient;
* the exchange between f- and f*-polynomials, the substitution
  (x, y) -> (-x/(x+1), (x+y)/(x+1)) with denominators cleared.
  faces.fstar_matrix counts dependencies with it.

Both substitutions, and gmatrix's transforms between g and count
differences, expand sums of c x^a y^b (x+y)^p (1+x)^q onto a plain
integer grid with one kernel, scatter.

Checks accept either a configuration or a raw FMatrix, so corrupted
matrices can be fed in deliberately as negative controls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .config import VectorConfig
from .errors import DimensionError, InconsistentInputError
from .exactnum import _Record
from .faces import FMatrix, f_matrix

if TYPE_CHECKING:
    from . import poly2


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
    """Reflection identity, compared coefficient by coefficient; the
    witness names the first coefficient that differs.

    (-1)^d f(-(x+y+1), y) takes two scatters: h = (-1)^d f(-(1+x), y),
    then x -> x+y in h.  The row s = d is skipped: only the x^d term of h
    reaches it, and that term is f[d][t] y^t, so the row can never fail.
    """
    fm = _as_fmatrix(v)
    d, n = fm.d, fm.n
    h = scatter([[0] * (n + 1) for _ in range(d + 1)],
                [((-1) ** (d - j) * c, 0, ell, 0, j)
                 for j, row in enumerate(fm.rows) for ell, c in enumerate(row) if c])
    grid = scatter([[0] * (n + d + 1) for _ in range(d + 1)],
                   [(c, 0, ell, p, 0) for p, row in enumerate(h) for ell, c in enumerate(row) if c])
    for s in range(d):
        for t, rhs in enumerate(grid[s]):
            if fm.entry(s, t) != rhs:
                w = f"f[{s}][{t}]={fm.entry(s, t)} != reflected sum {rhs}"
                return RelationReport("dehn-sommerville", False, w)
    return RelationReport("dehn-sommerville", True)


def scatter(grid: list[list[int]], terms: Iterable[tuple[int, int, int, int, int]]) -> list[list[int]]:
    """Add sum c x^a y^b (x+y)^p (1+x)^q over the terms (c, a, b, p, q) to
    the integer grid indexed [x-degree][y-degree], in place, and return it.

    Each term adds c times the unit expansion of (x+y)^p (1+x)^q, shifted
    by (a, b); the expansion is built once per (p, q) and cached.  Every
    count transform of the library is such a sum: f <-> f*, the
    reflection, g -> delta f and delta f*, and the running expansion of
    the g inversion.  Coefficients stay ints.
    """
    for c, a, b, p, q in terms:
        for dx, dy, k in _unit_expansion(p, q):
            grid[a + dx][b + dy] += c * k
    return grid


@lru_cache(maxsize=256)
def _unit_expansion(p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """The terms (x-degree, y-degree, coefficient) of (x+y)^p (1+x)^q:
    x^(p-i) y^i from (x+y)^p and x^m from (1+x)^q give C(p,i) C(q,m) at
    (p-i+m, i).  Each is nonzero and each degree pair occurs once.  The
    transforms of a size-n configuration use p, q <= n, so the 256 entries
    hold every pair that shapes with n <= 15 need.
    """
    return tuple(
        (p - i + m, i, math.comb(p, i) * math.comb(q, m)) for i in range(p + 1) for m in range(q + 1)
    )


def exchange(rows: Sequence[Sequence[int]], n: int, sign: int) -> list[list[int]]:
    """The f <-> f* transform on integer grids indexed [x-degree][y-degree]:
    (x+y+1)^n - sign x^n - sum_{a,b} rows[a][b] (-x)^a (x+y)^b (x+1)^(n-a-b),
    an (n+1) x (n+1) grid.  Every input entry needs a + b <= n.
    """
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    scatter(grid, [(math.comb(n, b), 0, 0, b, 0) for b in range(n + 1)])  # (x+y+1)^n
    scatter(grid, [(c if a % 2 else -c, a, 0, b, n - a - b)
                   for a, row in enumerate(rows) for b, c in enumerate(row) if c])
    grid[n][0] -= sign
    return grid


def f_fstar_transform(p: poly2.BiPoly, n: int, r: int, direction: str) -> poly2.BiPoly:
    """Exchange f- and f*-polynomials of a rank-r size-n configuration.

    direction "f_to_fstar" maps the f-polynomial to the f*-polynomial;
    "fstar_to_f" is the inverse.  Both compute exchange(p, n, sign) with
    sign = (-1)^r, resp. (-1)^(n-r).  The input coefficients must be
    integral (ints, or Fractions with denominator 1); the output's are ints.
    """
    from . import poly2

    if direction == "f_to_fstar":
        sign = (-1) ** r
        max_x = r - 1
    elif direction == "fstar_to_f":
        sign = (-1) ** (n - r)
        max_x = n - r - 1
    else:
        raise DimensionError(f"unknown direction {direction!r}")
    rows = [[0] * (n + 1) for _ in range(max_x + 1)]
    for (a, b), c in p.terms.items():
        if a > max_x or b > n or a + b > n:
            raise DimensionError(f"monomial x^{a} y^{b} outside the window for n={n}, r={r}")
        if c.denominator != 1:
            raise InconsistentInputError(f"coefficient {c} of x^{a} y^{b} is not an integer")
        rows[a][b] = int(c)
    grid = exchange(rows, n, sign)
    return poly2.BiPoly({(i, j): grid[i][j] for j in range(n + 1) for i in range(n - j + 1)})
