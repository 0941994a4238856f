"""Sign-pattern enumeration and the face-count matrices built from it.

For a rank-r configuration V of n vectors the unit sphere is dissected by
the n hemisphere boundaries v_i^perp.  Each face of the dissection is
identified with its signature, the vector of signs sgn(<v_i, x>) at any
relative-interior point x.  This module enumerates:

* dissection patterns: all signatures of faces (the zero set F_0 has size
  at most d = r-1 because the configuration is in general position);
* dependency patterns: the signs of the nontrivial linear dependencies
  among the columns, computed on the Gale dual, where they appear as the
  dual's dissection patterns.

Enumeration is vertex-local expansion: every (r-1)-subset R of columns
spans a hyperplane intersection that meets the sphere in an antipodal
vertex pair +-u.  The signature of each vertex is zero exactly on R, and
because the arrangement is simple, replacing the zeros on R by any of the
3^(r-1) sign assignments yields the signature of a face incident to that
vertex.  Every face's closure contains a vertex, so expanding around all
2*C(n, r-1) vertices and deduplicating yields the complete pattern set.
All arithmetic is integer (columns are pre-scaled), so signatures are exact.

One histogram, counting patterns by (|F_0|, |F_-|), gives both count
matrices: its first d+1 rows over dissection patterns are the f-matrix,
and over dependency patterns, whose support is n - |F_0|, its rows
reversed are the f*-matrix.  fstar_matrix does not enumerate: by Gale
duality the face counts fix the dependency counts, so it transforms the
f-matrix rows exactly on integer grids (relations.exchange).  Dependency
patterns are still enumerated on the Gale dual for callers that want the
patterns, and with the certificate oracle they cross-check the counts.

The f-matrices of the minors V/i and V\\i need no enumeration of their
own: their faces are V's faces with X_i = 0, and V's faces with X_i
dropped.  minor_f_matrices counts all n of them in one pass over V's
signatures.

Memory is bounded by caches of two sizes.  Face lists (2.2 MiB for
n = 12, r = 5), and the per-coordinate counts that minor_f_matrices
groups them into, are kept for the last 2 configurations: the two a
comparison reads.  Count matrices, at most (n+1) x (n+1) integers, are
kept for the last 64.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BudgetExhaustedError, DimensionError, InconsistentInputError
from .exactnum import _Record, cross_product
from .config import VectorConfig, gale_dual, integer_columns

SignVector = tuple[int, ...]

# Configurations cached: count matrices are small, so the last 64; face
# lists run to megabytes, so they and their per-coordinate counts are kept
# only for the last 2, the two a comparison reads
_CACHE_SIZE = 64
_PATTERN_CACHE_SIZE = 2


def pattern_to_string(p: SignVector) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in p)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern_tuple(v: VectorConfig) -> tuple[SignVector, ...]:
    icols = integer_columns(v)
    n, d = v.n, v.d
    found: set[SignVector] = set()
    local = list(itertools.product((-1, 0, 1), repeat=d))
    for subset in itertools.combinations(range(n), d):
        # the vertex normal; with r = 1 there are no rows and it is 1
        u = cross_product([icols[j] for j in subset]) if d else [1]
        for uu in (u, tuple(-x for x in u)):
            base = [_sign(sum(a * b for a, b in zip(icols[m], uu))) for m in range(n)]
            for assign in local:
                sig = base.copy()
                for pos, s in zip(subset, assign):
                    sig[pos] = s
                found.add(tuple(sig))
    return tuple(sorted(found))


def dissection_patterns(v: VectorConfig) -> tuple[SignVector, ...]:
    """All face signatures, sorted lexicographically with -1 < 0 < +1."""
    return _pattern_tuple(v)


def dependency_patterns(v: VectorConfig) -> tuple[SignVector, ...]:
    """Signs of nontrivial linear dependencies, via the Gale dual."""
    if v.n == v.r:
        return ()
    return dissection_patterns(gale_dual(v))


def farkas_complement_oracle(v: VectorConfig) -> tuple[SignVector, ...]:
    """Dependency patterns the slow way, for cross-checking.

    A nonzero sign vector F is a dependency pattern iff it is conformally
    contained in no dissection pattern.  Only the full-support patterns
    (cells) need checking, since every pattern extends to a cell.
    Guarded to n <= 9 because of the 3^n sweep.
    """
    if v.n > 9:
        raise BudgetExhaustedError("farkas oracle limited to n <= 9")
    cells = []
    for g in dissection_patterns(v):
        if 0 in g:
            continue
        gp = sum(1 << i for i, s in enumerate(g) if s > 0)
        cells.append((gp, ((1 << v.n) - 1) ^ gp))
    out = []
    for cand in itertools.product((-1, 0, 1), repeat=v.n):
        fp = sum(1 << i for i, s in enumerate(cand) if s > 0)
        fm = sum(1 << i for i, s in enumerate(cand) if s < 0)
        if fp == 0 and fm == 0:
            continue
        if not any(fp & gp == fp and fm & gm == fm for gp, gm in cells):
            out.append(cand)
    return tuple(out)


# ---------------------------------------------------------------------------
# Count matrices


class FMatrix(_Record):
    """Face counts: entry (s,t) counts faces with s zeros at level t."""

    __slots__ = ("d", "n", "rows")

    def __init__(self, d: int, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) != d + 1 or any(len(r) != n + 1 for r in rows):
            raise DimensionError("f-matrix must be (d+1) x (n+1)")
        super().__init__(d, n, rows)

    def entry(self, s: int, t: int) -> int:
        if 0 <= s <= self.d and 0 <= t <= self.n:
            return self.rows[s][t]
        return 0

    def row_sum(self, s: int) -> int:
        return sum(self.rows[s])

    def total(self) -> int:
        return sum(self.row_sum(s) for s in range(self.d + 1))

    def to_json(self) -> dict:
        return {"d": self.d, "n": self.n, "rows": [list(r) for r in self.rows]}

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.rows) + "\n"


class FStarMatrix(_Record):
    """Dependency counts: entry (s,t) counts dependencies of support size s
    with t negative coefficients; nonzero only for r+1 <= s <= n, 0 <= t <= s."""

    __slots__ = ("r", "n", "rows")

    def __init__(self, r: int, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
            raise DimensionError("f*-matrix must be (n+1) x (n+1)")
        super().__init__(r, n, rows)

    def entry(self, s: int, t: int) -> int:
        if 0 <= s <= self.n and 0 <= t <= self.n:
            return self.rows[s][t]
        return 0

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def to_json(self) -> dict:
        return {"r": self.r, "n": self.n, "rows": [list(r) for r in self.rows]}

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.rows) + "\n"


def _histogram(patterns: tuple[SignVector, ...], n: int) -> list[list[int]]:
    """The (n+1) x (n+1) grid counting patterns by (zeros, negatives)."""
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for p in patterns:
        grid[p.count(0)][p.count(-1)] += 1
    return grid


@lru_cache(maxsize=_CACHE_SIZE)
def f_matrix(v: VectorConfig) -> FMatrix:
    grid = _histogram(dissection_patterns(v), v.n)
    return FMatrix(v.d, v.n, tuple(tuple(row) for row in grid[: v.r]))


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _coordinate_counts(v: VectorConfig):
    """V's faces counted by (s, t) in total (full) and, per coordinate i,
    with X_i = 0 (zero[i]) and X_i < 0 (neg[i]); row d+1 stays zero.
    Cached for the 2 configurations of a pair, whose contraction and
    deletion checks both read them.  Callers must not modify the lists.
    """
    n, d = v.n, v.d
    full = [[0] * (n + 1) for _ in range(d + 2)]
    zero = [[[0] * (n + 1) for _ in range(d + 2)] for _ in range(n)]
    neg = [[[0] * (n + 1) for _ in range(d + 2)] for _ in range(n)]
    cells: dict[tuple[int, int], list[SignVector]] = {}
    for p in dissection_patterns(v):
        cells.setdefault((p.count(0), p.count(-1)), []).append(p)
    for (s, t), cell in cells.items():
        full[s][t] = len(cell)
        for i, signs in enumerate(zip(*cell)):
            zero[i][s][t] = signs.count(0)
            neg[i][s][t] = signs.count(-1)
    return full, zero, neg


def minor_f_matrices(v: VectorConfig, mode: str) -> list[FMatrix]:
    """f(V/i) ("contract") or f(V\\i) ("delete") for i = 1..n, from V's faces.

    With A0_i, A-_i and A+_i[s][t] counting V's faces at (s, t) by the sign
    of X_i, the faces of V/i are those with X_i = 0, so
    f(V/i)[s][t] = A0_i[s+1][t].  The faces of V\\i are V's with X_i
    dropped: one that hyperplane i misses has one preimage, one it cuts has
    three (X_i = +, 0, -), so
    f(V\\i)[s][t] = A+_i[s][t] + A-_i[s][t+1] - A0_i[s+1][t].
    Contraction needs r >= 2 and deletion n > r; the caller checks.
    """
    n, d = v.n, v.d
    full, zero, neg = _coordinate_counts(v)
    if mode == "contract":
        return [FMatrix(d - 1, n - 1, tuple(tuple(row[:n]) for row in z[1 : d + 1])) for z in zero]
    out = []
    for z, m in zip(zero, neg):
        rows = tuple(
            # A+ = full - A0 - A-
            tuple(full[s][t] - z[s][t] - m[s][t] + m[s][t + 1] - z[s + 1][t] for t in range(n))
            for s in range(d + 1)
        )
        out.append(FMatrix(d, n - 1, rows))
    return out


def fstar_from_patterns(patterns: tuple[SignVector, ...], r: int, n: int) -> FStarMatrix:
    """Dependency counts of the given patterns: a pattern with z zeros has
    support n - z, so the histogram's rows reversed."""
    grid = _histogram(patterns, n)
    return FStarMatrix(r, n, tuple(tuple(row) for row in reversed(grid)))


@lru_cache(maxsize=_CACHE_SIZE)
def fstar_matrix(v: VectorConfig) -> FStarMatrix:
    """Dependency counts from the face counts: entry (s,t) is the
    coefficient of x^(n-s) y^t in the f -> f* transform of the f-matrix."""
    from .relations import exchange

    n = v.n
    grid = exchange(f_matrix(v).rows, n, (-1) ** v.r)
    for t in range(n + 1):
        for i in range(n - t + 1):
            c, s = grid[i][t], n - i
            if c and (c < 0 or not (v.r + 1 <= s <= n and 0 <= t <= s)):
                raise InconsistentInputError(f"transform gives f*[{s}][{t}] = {c}, not a dependency count")
    return FStarMatrix(v.r, n, tuple(tuple(row) for row in reversed(grid)))


def f_polynomial(fm: FMatrix):
    """f(x,y) = sum f_{s,t} x^s y^t as a BiPoly with the grid's int
    coefficients."""
    from .poly2 import BiPoly

    return BiPoly({(s, t): c for s, row in enumerate(fm.rows) for t, c in enumerate(row) if c})


def fstar_polynomial(fsm: FStarMatrix):
    """f*(x,y) = sum f*_{s,t} x^(n-s) y^t as a BiPoly with the grid's int
    coefficients."""
    from .poly2 import BiPoly

    n = fsm.n
    return BiPoly({(n - s, t): c for s, row in enumerate(fsm.rows) for t, c in enumerate(row) if c})


def patterns_to_json(patterns: tuple[SignVector, ...]) -> list[str]:
    return [pattern_to_string(p) for p in patterns]
