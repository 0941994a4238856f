"""The g-matrix of a configuration pair and its transforms.

For two configurations V, W with the same rank r and size n, the change
in face counts f(W) - f(V) is encoded by an integer (r+1) x (n-r+1)
matrix g via

    f_W(x,y) - f_V(x,y) = sum_{j,k} g_{j,k} (x+y)^j (1+x)^(r-j) y^k

and the change in dependency counts by the companion transform

    f*_W(x,y) - f*_V(x,y) = sum_{j,k} -g_{j,k} (x+y)^k (x+1)^(n-r-k) y^j.

g satisfies the skew-symmetries g_{j,k} = -g_{r-j,k} = -g_{j,n-r-k}, so it
is determined by its upper-left quadrant (the small g-matrix).  Both
transforms are sums that relations.scatter expands term by term.  This
module applies them, computes g from a pair of f-matrices by inverting the
first one column by column, provides the closed form for a
coneighborly to neighborly pair, and checks the summation identities tying
g to the g's of contracted and deleted subpairs.  Those minors' f-matrices
are restrictions of the pair's own faces (faces.minor_f_matrices), so the
identity checks enumerate only V and W.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .config import VectorConfig
from .errors import DimensionError, InconsistentInputError
from .exactnum import _Record
from .faces import FMatrix, f_matrix, minor_f_matrices
from .relations import RelationReport, binom, scatter

IntGrid = tuple[tuple[int, ...], ...]


class GMatrix(_Record):
    """Full (r+1) x (n-r+1) integer matrix; entry (j,k) = g_{j,k}."""

    __slots__ = ("r", "n", "rows")

    def __init__(self, r: int, n: int, rows: IntGrid) -> None:
        if len(rows) != r + 1 or any(len(row) != n - r + 1 for row in rows):
            raise DimensionError("g-matrix must be (r+1) x (n-r+1)")
        super().__init__(r, n, rows)

    def entry(self, j: int, k: int) -> int:
        return self.rows[j][k]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def neg(self) -> GMatrix:
        return GMatrix(self.r, self.n, tuple(tuple(-x for x in row) for row in self.rows))

    def add(self, other: GMatrix) -> GMatrix:
        if (self.r, self.n) != (other.r, other.n):
            raise DimensionError("g-matrix shapes differ")
        return GMatrix(
            self.r,
            self.n,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "g": [list(row) for row in self.rows]}


class SmallGMatrix(_Record):
    """Rows j = 0..floor((r-1)/2), cols k = 0..floor((n-r-1)/2)."""

    __slots__ = ("r", "n", "rows")

    def __init__(self, r: int, n: int, rows: IntGrid) -> None:
        want_rows = (r - 1) // 2 + 1
        want_cols = (n - r - 1) // 2 + 1
        if len(rows) != want_rows or any(len(row) != want_cols for row in rows):
            raise DimensionError("small g-matrix has wrong shape")
        super().__init__(r, n, rows)

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "small_g": [list(row) for row in self.rows]}


def satisfies_skew(g: GMatrix) -> bool:
    """g_{j,k} = -g_{r-j,k} = -g_{j,n-r-k}: each row is the negation of
    row r-j and of its own reverse."""
    negated = [tuple(-x for x in row) for row in g.rows]
    return all(
        tuple(row) == mirror and tuple(row) == own[::-1]
        for row, mirror, own in zip(g.rows, reversed(negated), negated)
    )


def small_from_full(g: GMatrix) -> SmallGMatrix:
    rows = tuple(
        tuple(g.entry(j, k) for k in range((g.n - g.r - 1) // 2 + 1))
        for j in range((g.r - 1) // 2 + 1)
    )
    return SmallGMatrix(g.r, g.n, rows)


def full_from_small(sm: SmallGMatrix) -> GMatrix:
    r, nr = sm.r, sm.n - sm.r
    rows = []
    for j in range(r + 1):
        row = []
        for k in range(nr + 1):
            if 2 * j == r or 2 * k == nr:
                row.append(0)
                continue
            jj, kk = min(j, r - j), min(k, nr - k)
            sign = (-1 if jj != j else 1) * (-1 if kk != k else 1)
            row.append(sign * sm.rows[jj][kk])
        rows.append(tuple(row))
    return GMatrix(sm.r, sm.n, tuple(rows))


# ---------------------------------------------------------------------------
# The two transforms


def delta_f_from_g(g: GMatrix) -> IntGrid:
    """Face-count difference determined by g, shaped like an f-matrix.

    Entry (s,t) is the coefficient of x^s y^t in
    sum_{j,k} g_{j,k} (x+y)^j (1+x)^(r-j) y^k, scattered term by term
    (relations.scatter).  The row s = r of the expansion must vanish (it
    does for every skew-symmetric g); otherwise the input is rejected.
    """
    r = g.r
    grid = [[0] * (g.n + 1) for _ in range(r + 1)]
    scatter(grid, ((c, 0, k, j, r - j) for j, row in enumerate(g.rows) for k, c in enumerate(row) if c))
    if any(x != 0 for x in grid[r]):
        raise InconsistentInputError("delta-f has entries at zero-set size r; g is not skew-symmetric")
    return tuple(tuple(row) for row in grid[:r])


def delta_fstar_from_g(g: GMatrix) -> IntGrid:
    """Dependency-count difference determined by g, shaped like an f*-matrix.

    Entry (s,t) is the coefficient of x^(n-s) y^t in
    sum_{j,k} -g_{j,k} (x+y)^k (x+1)^(n-r-k) y^j, scattered term by term
    (relations.scatter).  The row s = r must vanish (it does for every
    skew-symmetric g); otherwise the input is rejected.
    """
    n, nr = g.n, g.n - g.r
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    scatter(grid, ((-c, 0, j, k, nr - k) for j, row in enumerate(g.rows) for k, c in enumerate(row) if c))
    if any(x != 0 for x in grid[nr]):
        raise InconsistentInputError("delta-fstar has entries at support size r; g is not skew-symmetric")
    return tuple(tuple(row) for row in reversed(grid))


def g_from_fmatrices(fv: FMatrix, fw: FMatrix) -> GMatrix:
    """The unique g with delta_f_from_g(g) = fw - fv.

    Solved column-by-column in k.  Collecting the y^t coefficient of the
    defining identity gives

        sum_s (fw-fv)_{s,t} x^s = sum_j sum_{k<=t} g_{j,k} C(j, t-k)
                                  x^(j+k-t) (1+x)^(r-j),

    every exponent nonnegative since C(j, t-k) = 0 unless t-k <= j.  The
    k < t part is the running expansion of the columns already solved:
    each solved column is scattered into it (relations.scatter).  With
    that part moved to the left, the unknown column g_{.,t} is the
    coordinate vector of the remainder in the basis x^j (1+x)^(r-j),
    extracted through the substitution x -> z/(1-z):

        g_{j,t} = sum_m rho_m (-1)^(j-m) C(r-m, j-m),

    rho being the remainder's coefficients.  Those signed binomials depend
    on r alone, so they are tabled once per rank (_inversion_table), and
    each solved column is scattered as one list.  The result must be
    skew-symmetric (compared row by row), and once every column is
    scattered the running expansion is delta_f_from_g(g), which must
    reproduce fw - fv; anything else means the inputs were not genuine
    f-matrices of configurations.  These two checks are the whole input
    validation: the image of a skew g has zero row sums, so changing any
    single entry of either input breaks one of them.
    """
    if (fv.d, fv.n) != (fw.d, fw.n):
        raise DimensionError("f-matrices have different (d, n)")
    r, n = fv.d + 1, fv.n
    delta = [[b - a for a, b in zip(row_v, row_w)] for row_v, row_w in zip(fv.rows, fw.rows)]
    delta.append([0] * (n + 1))
    expansion = [[0] * (n + 1) for _ in range(r + 1)]
    columns = []
    for t in range(n - r + 1):
        rho = [row[t] - done[t] for row, done in zip(delta, expansion)]
        column = [sum(map(operator.mul, rho, coefficients)) for coefficients in _inversion_table(r)]
        scatter(expansion, [(c, 0, t, j, r - j) for j, c in enumerate(column) if c])
        columns.append(column)
    g = GMatrix(r, n, tuple(zip(*columns)))
    if not satisfies_skew(g):
        raise InconsistentInputError("inverted g violates skew-symmetry; inputs inconsistent")
    if expansion != delta:
        raise InconsistentInputError("g does not reproduce the f-matrix difference; inputs inconsistent")
    return g


@lru_cache(maxsize=16)
def _inversion_table(r: int) -> IntGrid:
    """Row j holds (-1)^(j-m) C(r-m, j-m) for m = 0..j, the coefficients
    of g_{j,t} in the remainder rho_0..rho_j."""
    return tuple(tuple((-1) ** (j - m) * math.comb(r - m, j - m) for m in range(j + 1)) for j in range(r + 1))


def g_of_pair(v: VectorConfig, w: VectorConfig) -> GMatrix:
    """g of a configuration pair via enumeration of both f-matrices."""
    if (v.r, v.n) != (w.r, w.n):
        raise DimensionError("pair must share rank and size")
    return g_from_fmatrices(f_matrix(v), f_matrix(w))


def g_closed_form_neighborly(n: int, r: int) -> SmallGMatrix:
    """Small g of any coneighborly -> neighborly pair with parameters (n, r).

    Entry (j,k) is C(n-k-r+j, j) C(k+r-1-j, k) - C(n-k-r+j-1, j-1) C(k+r-j, k).
    Every entry is positive, and the partial column sums over j collapse to
    the product C(n-k-r+j, j) C(k+r-1-j, k).
    """
    if not (n > r >= 1):
        raise DimensionError(f"need n > r >= 1, got n={n}, r={r}")
    rows = tuple(
        tuple(
            binom(n - k - r + j, j) * binom(k + r - 1 - j, k)
            - binom(n - k - r + j - 1, j - 1) * binom(k + r - j, k)
            for k in range((n - r - 1) // 2 + 1)
        )
        for j in range((r - 1) // 2 + 1)
    )
    return SmallGMatrix(r, n, rows)


def check_contraction_deletion(v: VectorConfig, w: VectorConfig, mode: str) -> RelationReport:
    """Summation identities between g of a pair and g of its minor pairs.

    contract mode:  sum_i g_{j,k}(V/v_i -> W/w_i) = (r-j) g_{j,k} + (j+1) g_{j+1,k}
    delete mode:    sum_i g_{j,k}(V\\v_i -> W\\w_i) = (n-r-k) g_{j,k} + (k+1) g_{j,k+1}

    The minors' f-matrices are restrictions of V's and W's own faces
    (faces.minor_f_matrices); no minor configuration is built.
    """
    if (v.r, v.n) != (w.r, w.n):
        raise DimensionError("pair must share rank and size")
    r, n = v.r, v.n
    g = g_of_pair(v, w)
    if mode == "contract":
        if r < 2:
            raise DimensionError("contract mode needs r >= 2")
        relation = "contraction"

        def right(j: int, k: int) -> int:
            return (r - j) * g.entry(j, k) + (j + 1) * g.entry(j + 1, k)

    elif mode == "delete":
        if n < r + 1:
            raise DimensionError("delete mode needs n >= r+1")
        relation = "deletion"

        def right(j: int, k: int) -> int:
            return (n - r - k) * g.entry(j, k) + (k + 1) * g.entry(j, k + 1)

    else:
        raise DimensionError(f"unknown mode {mode!r}")
    pairs = zip(minor_f_matrices(v, mode), minor_f_matrices(w, mode))
    minors = [g_from_fmatrices(fv, fw) for fv, fw in pairs]
    for j, row in enumerate(minors[0].rows):
        for k in range(len(row)):
            left, want = sum(m.entry(j, k) for m in minors), right(j, k)
            if left != want:
                return RelationReport(relation, False, f"(j={j},k={k}): minors sum {left} != {want}")
    return RelationReport(relation, True)
