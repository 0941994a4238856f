"""Exact rational scalars and dense rational matrices.

Everything downstream computes with these building blocks:

* ``Rat`` is an alias for :class:`fractions.Fraction` (canonical reduced
  form, exact arithmetic, positive denominator).
* ``_Record`` is the base of the library's immutable records (``Mat``,
  ``UniPoly``, ``VectorConfig`` and the count matrices and reports built
  on them): plain classes whose fields are their ``__slots__``, equal and
  hashed by their field tuple, refusing assignment.
* ``Mat`` is a small immutable dense matrix over ``Rat`` with exact
  determinant, rank, and right-kernel computations.  Determinants go
  through fraction-free (Bareiss) elimination on an integer rescaling of
  the rows, which keeps intermediate values small at the sizes used here
  (up to roughly 10x10).  ``_int_echelon`` is the same elimination for the
  pivot columns of a rectangular integer matrix (``span.greedy_basis``);
  rank and kernels stay on the ``Fraction`` row echelon form, which the
  tests keep as the integer pivots' oracle.
* ``cross_product`` gives signed maximal minors using only + - *, so it
  serves integer rows (vertex normals) and ``UniPoly`` rows (moving columns).

The integer univariate polynomials (``UniPoly``, pseudo-remainders, Sturm
chains, root isolation) live in ``unipoly``, which only ``motion`` imports.

Floating point is forbidden in every code path here; all results are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The text forms of a rational: "p" or "p/q" in decimal digits, p optionally
# signed.  Fraction alone also reads decimals and exponents, and parsing
# "1e99999999" builds a hundred-million-digit integer.
_RAT_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rat(value: int | str | Fraction) -> Rat:
    """Coerce an int, a "p" / "p/q" string, or a Fraction to Rat.

    Any other string raises ValueError; q = 0 raises ZeroDivisionError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RAT_TEXT.fullmatch(value) is None:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Rat) -> str:
    """Serialize to the canonical decimal string "p" or "p/q" (q > 0)."""
    return str(value)


# ---------------------------------------------------------------------------
# Immutable records


class _Record:
    """Base of an immutable record whose fields are its __slots__.

    The constructor takes the fields in __slots__ order, positionally or
    by keyword; a subclass with checks or defaults runs them first and then
    calls it.  Records of one class are equal when their fields are, hash
    by the field tuple, show their fields in repr, and refuse assignment
    and deletion.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
                raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(names)}")
            args += tuple(kwargs[name] for name in names[len(args):])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild a record through its __init__
        return self.__class__, self._fields()


# ---------------------------------------------------------------------------
# Matrices


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def cross_product(rows: Sequence[Sequence]) -> list:
    """Signed maximal minors u_c = (-1)^c det(rows without column c) of k >= 1
    rows of length k+1: u is orthogonal to each row and det([a] + rows) = a.u.
    Laplace expansion builds the minors of each row prefix from those of the
    prefix one row shorter, using only + - *, so entries may be ints or UniPolys.
    """
    k = len(rows)
    if k < 1 or any(len(row) != k + 1 for row in rows):
        raise DimensionError("cross product needs k >= 1 rows of length k+1")
    minors = {1 << c: x for c, x in enumerate(rows[0])}  # column-set bitmask -> minor
    for i in range(1, k):
        nxt = {}
        for mask, m in minors.items():
            for c in range(k + 1):
                if not mask >> c & 1:
                    # cofactor sign of rows[i][c]: -1 per column of mask right of c
                    term = -rows[i][c] * m if (mask >> c).bit_count() % 2 else rows[i][c] * m
                    key = mask | 1 << c
                    nxt[key] = nxt[key] + term if key in nxt else term
        minors = nxt
    full = (1 << k + 1) - 1
    return [-minors[full ^ 1 << c] if c % 2 else minors[full ^ 1 << c] for c in range(k + 1)]


class Mat(_Record):
    """Immutable dense rational matrix (row-major)."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: tuple[tuple[Rat, ...], ...]) -> None:
        if nrows < 0 or ncols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(entries) != nrows:
            raise DimensionError("row count does not match entries")
        for row in entries:
            if len(row) != ncols:
                raise DimensionError("ragged matrix rows")
        super().__init__(nrows, ncols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> Mat:
        data = tuple(tuple(rat(v) for v in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        return Mat(nrows, ncols, data)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> Mat:
        return Mat(nrows, ncols, tuple(tuple(_ZERO for _ in range(ncols)) for _ in range(nrows)))

    @staticmethod
    def identity(n: int) -> Mat:
        return Mat(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Rat, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> Mat:
        return Mat(self.ncols, self.nrows, tuple(self.col(j) for j in range(self.ncols)))

    def select_cols(self, cols: Iterable[int]) -> Mat:
        idx = tuple(cols)
        return Mat(self.nrows, len(idx), tuple(tuple(row[j] for j in idx) for row in self.entries))

    def mul(self, other: Mat) -> Mat:
        if self.ncols != other.nrows:
            raise DimensionError("matrix product shape mismatch")
        ot = other.transpose()
        data = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), _ZERO) for col in ot.entries)
            for row in self.entries
        )
        return Mat(self.nrows, other.ncols, data)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


def integer_rescaling(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """The least common denominator c of values and the integers c*v.

    Rescaling by the positive c keeps every sign and multiplies a
    determinant row by c, so integer-only code can work on the result.
    """
    lcm = math.lcm(*(v.denominator for v in values))
    return lcm, [v.numerator * (lcm // v.denominator) for v in values]


def det(m: Mat) -> Rat:
    """Exact determinant via integer rescaling + Bareiss elimination."""
    if m.nrows != m.ncols:
        raise DimensionError("determinant of a non-square matrix")
    if m.nrows == 0:
        return _ONE
    scale = 1
    int_rows: list[list[int]] = []
    for row in m.entries:
        lcm, ints = integer_rescaling(row)
        scale *= lcm
        int_rows.append(ints)
    return Fraction(_int_det(int_rows), scale)


def _row_echelon(m: Mat) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(pr, m.nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = 1 / rows[pr][c]
        rows[pr] = [v * inv for v in rows[pr]]
        for i in range(m.nrows):
            if i != pr and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(c)
        pr += 1
        if pr == m.nrows:
            break
    return rows, pivots


def _int_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix;
    returns (rows, pivot column indices).

    After k pivots, each entry below them is the minor of the input on the
    pivot rows and columns plus its own row and column (Sylvester's
    identity), so every division by the previous pivot is exact and an
    entry is zero exactly when that minor is.  The pivot columns are
    therefore those of the rational row echelon form.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        pr = len(pivots)
        if pr == len(a):
            break
        for i in range(pr, len(a)):
            if a[i][c]:
                break
        else:
            continue
        a[pr], a[i] = a[i], a[pr]
        top = a[pr]
        pivot = top[c]
        for i in range(pr + 1, len(a)):
            x = a[i][c]
            a[i] = [(pivot * y - x * t) // prev for y, t in zip(a[i], top)]
        prev = pivot
        pivots.append(c)
    return a, pivots


def rank(m: Mat) -> int:
    """Exact rank over the rationals."""
    return len(_row_echelon(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Basis of the right kernel of m, returned as columns of a matrix.

    The result has cols(m) - rank(m) columns and satisfies m * K = 0 exactly.
    Free variables are taken in ascending column order, so the basis is
    deterministic for a given input.
    """
    rows, pivots = _row_echelon(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis_cols: list[list[Rat]] = []
    for fc in free:
        vec = [_ZERO] * m.ncols
        vec[fc] = _ONE
        for pr, pc in enumerate(pivots):
            vec[pc] = -rows[pr][fc]
        basis_cols.append(vec)
    data = tuple(tuple(col[i] for col in basis_cols) for i in range(m.ncols))
    return Mat(m.ncols, len(basis_cols), data)


# The polynomial half lives in unipoly, which only motion imports.  These
# names of it still resolve here (PEP 562), loading it on first use.
_UNIPOLY_NAMES = frozenset(
    {"isolate_roots", "count_distinct_roots", "bisect_root_interval", "squarefree_part", "poly_gcd"}
)


def __getattr__(name: str):
    if name in _UNIPOLY_NAMES:
        from . import unipoly

        return getattr(unipoly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
