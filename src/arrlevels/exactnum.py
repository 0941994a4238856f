"""Exact rational scalars, dense rational matrices, integer univariate polynomials.

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
  (up to roughly 10x10).
* ``cross_product`` gives signed maximal minors using only + - *, so it
  serves integer rows (vertex normals) and ``UniPoly`` rows (moving columns).
* ``UniPoly`` is a univariate polynomial with integer coefficients; a
  rational one is stored as a positive multiple, which has the same roots
  and signs.  Its gcd and squarefree part are primitive with a positive
  leading coefficient (not monic), Sturm chains are built from
  pseudo-remainders divided by their positive content, and the sign at a
  rational a/b is the sign of the integer sum c_i a^i b^(deg-i).  Real-root
  isolation on an open interval bisects on the Sturm chain of p itself and
  returns disjoint rational intervals with certified root-free endpoints;
  downstream code only ever needs sample points strictly between roots,
  never the roots themselves.

Floating point is forbidden in every code path here; all results are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BoundaryRootError, DegeneratePolynomialError, DimensionError

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


# ---------------------------------------------------------------------------
# Univariate polynomials


class UniPoly(_Record):
    """Univariate polynomial with integer coefficients; coeffs[i] is the
    coefficient of t^i, and the last one is nonzero.

    ``make`` accepts rational coefficients and stores them times the
    positive lcm of their denominators, which keeps every root and sign.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Sequence[int | str | Fraction]) -> UniPoly:
        vals = [rat(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return UniPoly(tuple(integer_rescaling(vals)[1]))

    @staticmethod
    def zero() -> UniPoly:
        return UniPoly(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t: Rat | int) -> Rat | int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def homogeneous(self, a: int, b: int, degree: int | None = None) -> int:
        """The integer sum of c_i a^i b^(degree-i), which is b^degree * p(a/b);
        degree defaults to the degree of p and must not be below it."""
        acc, pw = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * pw
            pw *= b
        if degree is not None and self.coeffs:
            if degree < self.degree:
                raise DimensionError("homogenising degree below the polynomial degree")
            acc *= b ** (degree - self.degree)
        return acc

    def sign_at(self, x: Rat | int) -> int:
        """Sign of p at the rational x, by integer homogeneous Horner."""
        v = self.homogeneous(x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def add(self, other: UniPoly) -> UniPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return UniPoly(tuple(out))

    def neg(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def sub(self, other: UniPoly) -> UniPoly:
        return self.add(other.neg())

    def mul(self, other: UniPoly) -> UniPoly:
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))  # Z is a domain: the top coefficient is nonzero

    # operator spellings for ring-generic code such as cross_product
    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def derivative(self) -> UniPoly:
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])


def _div_content(p: UniPoly) -> UniPoly:
    """p divided by the positive gcd of its coefficients; signs are kept."""
    c = math.gcd(*p.coeffs)
    return p if c <= 1 else UniPoly(tuple(x // c for x in p.coeffs))


def _primitive(p: UniPoly) -> UniPoly:
    """The primitive part of p with a positive leading coefficient."""
    p = _div_content(p)
    return p.neg() if p.coeffs and p.coeffs[-1] < 0 else p


def _prem(a: UniPoly, b: UniPoly) -> UniPoly:
    """A positive multiple of the remainder of a divided by nonzero b.

    Pseudo-division in Z[t]: each step scales the running remainder by
    |lc(b)| before it cancels the top term, so no fraction arises and the
    factor picked up is positive.
    """
    bc = b.coeffs if b.coeffs[-1] > 0 else tuple(-c for c in b.coeffs)
    lead, m = bc[-1], len(bc) - 1
    rem = list(a.coeffs)
    while len(rem) > m:
        f = rem.pop()
        k = len(rem) - m
        if lead != 1:
            rem = [lead * x for x in rem]
        for i in range(m):
            rem[k + i] -= f * bc[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(tuple(rem))


def _exact_quotient(a: UniPoly, b: UniPoly) -> UniPoly:
    """a / b where the primitive b divides a: by Gauss's lemma the quotient
    has integer coefficients, so every coefficient division is exact."""
    rem = list(a.coeffs)
    bc = b.coeffs
    lead, m = bc[-1], len(bc) - 1
    q = [0] * (len(rem) - m)
    for k in range(len(q) - 1, -1, -1):
        f = rem[k + m] // lead
        q[k] = f
        for i in range(m + 1):
            rem[k + i] -= f * bc[i]
    return UniPoly(tuple(q))


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Greatest common divisor, primitive with a positive leading coefficient.

    That is 1 when a and b are coprime and zero only when both are zero.
    The primitive pseudo-remainder sequence keeps every step in Z[t].
    """
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        a, b = b, _primitive(_prem(a, b))
    return a


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): the same distinct roots, each simple.
    Primitive with a positive leading coefficient."""
    if p.is_zero():
        raise DegeneratePolynomialError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    return _primitive(p if g.degree <= 0 else _exact_quotient(p, g))


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of p: p, p', then the negated remainders.  Each
    remainder is a pseudo-remainder divided by its positive content, a
    positive multiple of the Euclidean one, so every sign is the same."""
    chain = [p, _div_content(p.derivative())]
    while not chain[-1].is_zero():
        chain.append(_div_content(_prem(chain[-2], chain[-1]).neg()))
    chain.pop()
    return chain


def _variations(chain: list[UniPoly], x: Rat) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(p: UniPoly, lo: Rat, hi: Rat) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires lo < hi, p nonzero and p(lo) != 0 != p(hi).
    """
    if lo >= hi:
        raise DimensionError("count_distinct_roots requires lo < hi")
    if p.is_zero():
        raise DegeneratePolynomialError("root count of the zero polynomial")
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise BoundaryRootError(f"root at interval endpoint of ({lo}, {hi})")
    if p.degree <= 0:
        return 0
    # Sturm's theorem holds for p itself: every element of its chain is a
    # multiple of g = gcd(p, p'), divided by g the chain is a Sturm sequence
    # of p/g, and g has no root where p has none, such as lo and hi.
    chain = _sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate_on_chain(p: UniPoly, chain: list[UniPoly], lo: Rat, hi: Rat) -> list[tuple[Rat, Rat]]:
    total = _variations(chain, lo) - _variations(chain, hi)
    if total == 0:
        return []
    if total == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    if p.sign_at(mid) == 0:
        # mid is itself a root; fence it off with a window free of the others
        w = (hi - lo) / 4
        while True:
            a, b = mid - w, mid + w
            if a > lo and b < hi and p.sign_at(a) != 0 and p.sign_at(b) != 0:
                inner = _variations(chain, a) - _variations(chain, b)
                if inner == 1:
                    break
            w /= 2
        return (
            _isolate_on_chain(p, chain, lo, a)
            + [(a, b)]
            + _isolate_on_chain(p, chain, b, hi)
        )
    return _isolate_on_chain(p, chain, lo, mid) + _isolate_on_chain(p, chain, mid, hi)


def isolate_roots(p: UniPoly, lo: Rat, hi: Rat) -> list[tuple[tuple[Rat, Rat], bool]]:
    """Isolate the distinct real roots of p inside the open interval (lo, hi).

    Returns sorted pairwise-disjoint rational intervals, one per root,
    each tagged True when the root is simple (multiplicity 1 in p).
    Interval endpoints are certified non-roots.
    """
    lo, hi = rat(lo), rat(hi)
    if lo >= hi:
        raise DimensionError("isolate_roots requires lo < hi")
    if p.is_zero():
        raise DegeneratePolynomialError("cannot isolate roots of the zero polynomial")
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise BoundaryRootError(f"polynomial vanishes at interval endpoint ({lo} or {hi})")
    if p.degree <= 0:
        return []
    chain = _sturm_chain(p)
    intervals = _isolate_on_chain(p, chain, lo, hi)
    # The chain ends in gcd(p, p') times a constant, and a root of p is
    # multiple exactly when that gcd vanishes there too.
    g = chain[-1]
    if g.degree <= 0:
        return [(iv, True) for iv in intervals]
    g_chain = _sturm_chain(g)
    return [((a, b), _variations(g_chain, a) == _variations(g_chain, b)) for a, b in intervals]


def bisect_root_interval(q: UniPoly, interval: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    """Halve an interval holding exactly one root of q, a simple one (as an
    isolating interval flagged simple by isolate_roots does).

    The sign of q changes across the root, so one midpoint sign test picks
    the half containing it.  When the midpoint happens to be the root, a
    small window around it is returned instead.
    """
    a, b = rat(interval[0]), rat(interval[1])
    mid = (a + b) / 2
    sm = q.sign_at(mid)
    if sm == 0:
        w = (b - a) / 8
        return (mid - w, mid + w)
    if q.sign_at(a) * sm < 0:
        return (a, mid)
    return (mid, b)
