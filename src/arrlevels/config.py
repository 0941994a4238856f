"""Vector configurations and their structural operations.

A configuration is an r x n rational matrix whose columns are in general
position: every r-subset of columns is linearly independent.  Columns are
indexed 1..n in the public API.  Provided here:

* validated construction and the moment-curve generators (cyclic and its
  alternating-sign cocyclic variant), plus seeded random sampling;
* Gale duality (a rank n-r configuration orthogonal to V, unique up to
  linear isomorphism, which is invisible to every count we compute);
* contraction of a column (the other columns in the quotient of R^r by
  its span, in the coordinates of one pivot step) and deletion of a column;
* extremality and (co)neighborliness predicates, which delegate the sign
  pattern enumeration to the faces module.

General position is checked once, in ``new_config``, where a configuration
comes in from outside.  The derived configurations (Gale dual, contraction,
deletion, rescaled column, linear image) are built directly: each is again
in general position whenever its input is, so checking them would only
repeat the input's check.

Every count works on integer columns (``integer_columns``), so each
configuration is reduced to them at most once: ``new_config`` keeps the
list it checked, and a derived configuration computes it on first use.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    ArrlevelsError,
    BudgetExhaustedError,
    DimensionError,
    FileFormatError,
    GeneralPositionError,
)
from .exactnum import Mat, Rat, _Record, det, integer_rescaling, kernel_basis, rat, rat_str


class _HashedOnce(_Record):
    """A record that keeps values derived from its fields in slots that are
    not fields: its hash, stored on first use, and its integer columns
    (integer_columns).  Equality, repr, pickle and copy see only the
    fields, so a rebuilt record computes them again when asked."""

    __slots__ = ("_hash", "_icols")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields())
            object.__setattr__(self, "_hash", h)
            return h


class VectorConfig(_HashedOnce):
    """Immutable rank-r configuration of n column vectors in general position;
    mat is r x n, its columns are the vectors.  It keys the face caches,
    so it hashes its Fraction entries once, and it keeps its integer
    columns."""

    __slots__ = ("r", "n", "mat")

    @property
    def d(self) -> int:
        return self.r - 1

    def column(self, i: int) -> tuple[Rat, ...]:
        """Column i, 1-based."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"column index {i} out of range 1..{self.n}")
        return self.mat.col(i - 1)

    def columns(self) -> list[tuple[Rat, ...]]:
        return [self.mat.col(j) for j in range(self.n)]


def integer_columns(v: VectorConfig) -> list[tuple[int, ...]]:
    """Columns rescaled by positive integers to integer vectors.

    Positive rescaling never changes a sign pattern, so enumeration code
    can work in pure integer arithmetic.  The columns are computed at most
    once per configuration: new_config stores them while validating, and
    a derived configuration stores them on first use.
    """
    try:
        icols = v._icols
    except AttributeError:
        icols = tuple(tuple(integer_rescaling(v.mat.col(j))[1]) for j in range(v.n))
        object.__setattr__(v, "_icols", icols)
    return list(icols)


def _first_dependent(rows: list[list[int]], cols: list[int], pivot: int) -> list[int] | None:
    """The first dependent subset, in combinations order, of len(rows)
    columns from cols, or None.

    rows is the fraction-free (Bareiss) Schur complement left by the
    columns already taken, with pivot the last pivot; its entries are
    minors of the input, so each is zero exactly when that minor is.
    Column c joins the subset independently iff it has a nonzero entry, and
    eliminating it leaves the complement of every subset extending it.
    """
    need = len(rows)
    for at in range(len(cols) - need + 1):
        for top in rows:
            if top[at]:
                break
        else:
            # every subset extending this prefix is dependent; the next columns give the first
            return cols[at : at + need]
        if need == 1:
            continue
        lead = top[at]
        if need == 2:
            # the last remaining row, read for its zeros before any division
            row = rows[1] if top is rows[0] else rows[0]
            a = row[at]
            for m in range(at + 1, len(cols)):
                if lead * row[m] == a * top[m]:
                    return [cols[at], cols[m]]
            continue
        rest = [
            [(lead * x - row[at] * y) // pivot for x, y in zip(row[at + 1 :], top[at + 1 :])]
            for row in rows
            if row is not top
        ]
        found = _first_dependent(rest, cols[at + 1 :], lead)
        if found is not None:
            return [cols[at], *found]
    return None


def _check_general_position(r: int, n: int, icols: list[tuple[int, ...]]) -> None:
    """Raise with the first dependent r-subset in combinations order.

    The sorted column prefixes are walked depth-first, so subsets sharing
    a prefix share its elimination, where one determinant per subset would
    repeat it.
    """
    rows = [[col[i] for col in icols] for i in range(r)]
    found = _first_dependent(rows, list(range(n)), 1)
    if found is not None:
        raise GeneralPositionError(tuple(j + 1 for j in found))


def new_config(r: int, n: int, entries: Sequence[Sequence[int | str | Fraction]]) -> VectorConfig:
    """Build and validate a configuration from n columns of length r.

    An all-int column is its own integer column; any other is rescaled
    once.  The integer columns are checked for general position and kept
    with the configuration.
    """
    if r < 1 or n < r:
        raise DimensionError(f"need n >= r >= 1, got r={r}, n={n}")
    if len(entries) != n:
        raise DimensionError(f"expected {n} columns, got {len(entries)}")
    cols = []
    icols = []
    for idx, col in enumerate(entries, start=1):
        if len(col) != r:
            raise DimensionError(f"column {idx} has length {len(col)}, expected {r}")
        # type, not isinstance: a bool entry goes through rat, which rejects it
        if all(type(x) is int for x in col):
            icols.append(tuple(col))
            cols.append(tuple(map(Fraction, col)))
        else:
            cols.append(tuple(rat(x) for x in col))
            icols.append(tuple(integer_rescaling(cols[-1])[1]))
    _check_general_position(r, n, icols)
    v = VectorConfig(r, n, Mat(r, n, tuple(zip(*cols))))
    object.__setattr__(v, "_icols", tuple(icols))
    return v


def moment_point(t: int | Rat, d: int) -> tuple[Rat, ...]:
    """The point (t, t^2, ..., t^d) of the moment curve in R^d."""
    return tuple(Fraction(t) ** e for e in range(1, d + 1))


def _moment_columns(r: int, params: Sequence[Rat]) -> list[list[Rat]]:
    return [[t**k for k in range(r)] for t in params]


def _validated_params(n: int, params: Sequence[int | str | Fraction] | None) -> list[Rat]:
    if params is None:
        return [Fraction(i) for i in range(n)]
    vals = [rat(t) for t in params]
    if len(vals) != n:
        raise DimensionError(f"expected {n} parameters, got {len(vals)}")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("parameters must be strictly increasing")
    return vals


def gen_cyclic(n: int, r: int, params: Sequence[int | str | Fraction] | None = None) -> VectorConfig:
    """Moment-curve configuration: v_i = (1, t_i, ..., t_i^(r-1))."""
    ts = _validated_params(n, params)
    return new_config(r, n, _moment_columns(r, ts))


def gen_cocyclic(n: int, r: int, params: Sequence[int | str | Fraction] | None = None) -> VectorConfig:
    """Alternating moment-curve configuration: column i scaled by (-1)^i."""
    ts = _validated_params(n, params)
    cols = _moment_columns(r, ts)
    signed = [[(-1) ** i * x for x in col] for i, col in enumerate(cols, start=1)]
    return new_config(r, n, signed)


def _sample_config(
    r: int, n: int, draw: Callable[[], Sequence[Sequence]], attempts: int, what: str
) -> VectorConfig:
    """new_config of the first draw() whose columns are in general position.

    The one retry loop of the library: when every draw is dependent, the
    error names the attempts made and the last dependent subset.
    """
    for _ in range(attempts):
        try:
            return new_config(r, n, draw())
        except GeneralPositionError as exc:
            last = exc
    raise BudgetExhaustedError(
        f"could not {what} in {attempts} attempts;"
        f" in the last, columns {list(last.subset)} were linearly dependent"
    )


def gen_random(n: int, r: int, seed: int, pointed: bool = False) -> VectorConfig:
    """Seed-deterministic random configuration with small integer entries.

    Pointed mode samples integer points in a box and lifts them with a
    leading 1, so the result is the homogenization of a point set.
    """
    if r < 1 or n < r:
        raise DimensionError(f"need n >= r >= 1, got r={r}, n={n}")
    rng = random.Random(seed)
    box = 100 * n

    def draw() -> list[list[int]]:
        if pointed:
            return [[1] + [rng.randint(-box, box) for _ in range(r - 1)] for _ in range(n)]
        return [[rng.randint(-box, box) for _ in range(r)] for _ in range(n)]

    return _sample_config(r, n, draw, 1000, "sample a general-position configuration")


def gale_dual(v: VectorConfig) -> VectorConfig:
    """A rank n-r configuration W with V W^T = 0 (columns paired by index)."""
    if v.n == v.r:
        raise DimensionError("Gale dual of a full-rank square configuration is empty")
    return VectorConfig(v.n - v.r, v.n, kernel_basis(v.mat).transpose())


def delete(v: VectorConfig, i: int) -> VectorConfig:
    """Remove column i (1-based); rank stays r."""
    if not 1 <= i <= v.n:
        raise DimensionError(f"column index {i} out of range 1..{v.n}")
    if v.n - 1 < v.r:
        raise DimensionError("deletion would drop below full rank size")
    keep = [j for j in range(v.n) if j != i - 1]
    return VectorConfig(v.r, v.n - 1, v.mat.select_cols(keep))


def contract(v: VectorConfig, i: int) -> VectorConfig:
    """The other columns in the quotient of R^r by the span of v_i.

    With p the first nonzero coordinate of v_i, one pivot step maps each
    column x to v_i[p] x - x_p v_i, whose coordinate p is zero; the map's
    kernel is span(v_i), so dropping coordinate p gives coordinates on the
    quotient.  Any other choice of coordinates differs by a linear
    isomorphism, which no count downstream can see.
    """
    if v.r < 2:
        raise DimensionError("contraction requires rank >= 2")
    vi = v.column(i)
    p = next(k for k, x in enumerate(vi) if x != 0)
    others = [x for j, x in enumerate(v.columns()) if j != i - 1]
    rows = tuple(
        tuple(vi[p] * x[k] - x[p] * vi[k] for x in others) for k in range(v.r) if k != p
    )
    return VectorConfig(v.r - 1, v.n - 1, Mat(v.r - 1, v.n - 1, rows))


def scale_column(v: VectorConfig, i: int, c: int | str | Fraction) -> VectorConfig:
    """Rescale column i by a nonzero rational (positive scaling is invisible
    to all sign-pattern counts)."""
    if not 1 <= i <= v.n:
        raise DimensionError(f"column index {i} out of range 1..{v.n}")
    c = rat(c)
    if c == 0:
        raise DimensionError("column scale must be nonzero")
    rows = tuple(
        tuple(c * x if j == i - 1 else x for j, x in enumerate(row)) for row in v.mat.entries
    )
    return VectorConfig(v.r, v.n, Mat(v.r, v.n, rows))


def transform(v: VectorConfig, a: Mat) -> VectorConfig:
    """Apply an invertible linear map A to every column."""
    if a.nrows != v.r or a.ncols != v.r:
        raise DimensionError("transform matrix must be r x r")
    if det(a) == 0:
        raise DimensionError("matrix is singular")
    return VectorConfig(v.r, v.n, a.mul(v.mat))


def is_extremal(v: VectorConfig, subset: Iterable[int]) -> bool:
    """True iff zeroing the subset and keeping all others strictly positive
    is a realizable sign pattern of the arrangement."""
    from . import faces

    w = sorted(set(subset))
    if any(not 1 <= i <= v.n for i in w):
        raise DimensionError("subset indices must lie in 1..n")
    if len(w) >= v.r:
        return False
    pattern = tuple(0 if (i + 1) in set(w) else 1 for i in range(v.n))
    patterns = faces.dissection_patterns(v)  # sorted
    at = bisect.bisect_left(patterns, pattern)
    return at < len(patterns) and patterns[at] == pattern


def is_pointed(v: VectorConfig) -> bool:
    """All columns strictly inside some open halfspace."""
    return is_extremal(v, ())


def neighborliness_degree(v: VectorConfig) -> int:
    """Largest j with every subset of size <= j extremal; -1 when not pointed.

    A j-subset is extremal iff it is the zero set of a level-0 face, so
    this is the largest j with f[s][0] = C(n, s) for every s <= j.
    """
    from . import faces

    f = faces.f_matrix(v)
    degree = -1
    for s in range(v.r):
        if f.entry(s, 0) != math.comb(v.n, s):
            break
        degree = s
    return degree


def coneighborliness_degree(v: VectorConfig) -> int:
    """Largest k with no face at any level t <= k; -1 when pointed."""
    from . import faces

    f = faces.f_matrix(v)
    degree = -1
    for t in range(v.n + 1):
        if any(f.entry(s, t) != 0 for s in range(v.d + 1)):
            break
        degree = t
    return degree


def is_neighborly(v: VectorConfig) -> bool:
    """Pointed, with every subset of size <= (r-1)//2 extremal.  Library
    API: the rigidity acceptance criterion (criterion 8) rests on it."""
    return neighborliness_degree(v) >= (v.r - 1) // 2


def is_coneighborly(v: VectorConfig) -> bool:
    """No face at any level t <= (n-r-1)//2.  Library API: the rigidity
    acceptance criterion (criterion 8) rests on it."""
    return coneighborliness_degree(v) >= (v.n - v.r - 1) // 2


# ---------------------------------------------------------------------------
# Serialization


def config_to_json(v: VectorConfig) -> dict:
    return {
        "r": v.r,
        "n": v.n,
        "vectors": [[rat_str(x) for x in v.mat.col(j)] for j in range(v.n)],
    }


def config_from_json(obj: object) -> VectorConfig:
    if not isinstance(obj, dict):
        raise FileFormatError("configuration must be a JSON object")
    for key in ("r", "n", "vectors"):
        if key not in obj:
            raise FileFormatError(f"configuration missing field '{key}'")
    r, n, vectors = obj["r"], obj["n"], obj["vectors"]
    # JSON true/false load as bool, a subclass of int, so compare types
    if type(r) is not int or type(n) is not int:
        raise FileFormatError("fields 'r' and 'n' must be integers")
    if not isinstance(vectors, list) or len(vectors) != n:
        raise FileFormatError(f"field 'vectors' must list {n} columns")
    cols = []
    for ci, col in enumerate(vectors, start=1):
        if not isinstance(col, list) or len(col) != r:
            raise FileFormatError(f"column {ci} must list {r} rational strings")
        parsed = []
        for fi, entry in enumerate(col):
            if not isinstance(entry, str):
                raise FileFormatError(f"column {ci} entry {fi + 1} must be a string")
            try:
                parsed.append(rat(entry))
            except (ValueError, ZeroDivisionError) as exc:
                raise FileFormatError(f"column {ci} entry {fi + 1}: bad rational {entry!r}") from exc
        cols.append(parsed)
    try:
        return new_config(r, n, cols)
    except ArrlevelsError as exc:
        raise FileFormatError(f"invalid configuration: {exc}") from exc
