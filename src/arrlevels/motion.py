"""Straight-line motion between configurations and its mutation events.

Interpolating two same-shape configurations column by column moves every
vector along a segment.  Along a generic such motion only finitely many
times t make some r-subset of columns dependent, one subset at a time;
at each such event one simplicial cell of the sphere arrangement is
exchanged for a complementary one and the face counts jump by a fixed
increment determined by an event type (j, k).  This module isolates the
events with exact rational arithmetic, classifies their types, sums the
increments into the pairwise invariant matrix, and constructs seed paths
of pointed configurations realizing every nontrivial type.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .config import VectorConfig, _sample_config, gen_cyclic, moment_point, new_config
from .errors import (
    BudgetExhaustedError,
    DimensionError,
    GeneralPositionError,
    GenericityError,
)
from .exactnum import Mat, Rat, _Record, _row_echelon, cross_product, integer_rescaling, kernel_basis, rat
from .unipoly import (
    UniPoly,
    _sturm_chain,
    _variations,
    bisect_root_interval,
    count_distinct_roots,
    isolate_roots,
    poly_gcd,
)

if TYPE_CHECKING:
    from .gmatrix import GMatrix


class MutationEvent(_Record):
    """One detected degeneracy along a motion.

    subset holds the 1-based labels of the columns that become dependent,
    interval is a rational interval isolating the single simple root of
    their determinant polynomial, type_jk is the canonical representative
    of the event type, and sign_flip records the determinant sign before
    and after the root.
    """

    __slots__ = ("subset", "interval", "type_jk", "sign_flip")


class MotionPath(_Record):
    __slots__ = ("start", "end", "events")


def _column_at(v: VectorConfig, w: VectorConfig, j: int, t: Rat) -> list[Rat]:
    va = v.mat.col(j)
    vb = w.mat.col(j)
    return [(1 - t) * a + t * b for a, b in zip(va, vb)]


def interpolated_config(v: VectorConfig, w: VectorConfig, t: Rat | int | str) -> VectorConfig:
    """The configuration (1-t)V + tW, validated for general position."""
    if (v.r, v.n) != (w.r, w.n):
        raise DimensionError("interpolation requires equal shapes")
    tt = rat(t)
    return new_config(v.r, v.n, [_column_at(v, w, j, tt) for j in range(v.n)])


def _moving_columns(v: VectorConfig, w: VectorConfig) -> list[tuple[int, list[UniPoly]]]:
    """Each column of (1-t)V + tW times a positive scale L, the lcm of the
    denominators of its two endpoint columns: the pairs (L, the r entries
    L(a + t(b-a)) as integer polynomials).  The factor keeps every sign and
    root of the determinants and cross products built from the columns."""
    r = v.r
    out = []
    for j in range(v.n):
        scale, ints = integer_rescaling(v.mat.col(j) + w.mat.col(j))
        out.append((scale, [UniPoly.make([a, b - a]) for a, b in zip(ints[:r], ints[r:])]))
    return out


def _cross_polys(cols: list[tuple[int, list[UniPoly]]], idxs: tuple[int, ...]) -> list[UniPoly]:
    """exactnum.cross_product of r-1 moving columns: orthogonal to each of
    them at every t, with coordinates of degree at most r-1.  It is the
    product of the columns' scales times the cross product of the unscaled
    columns.  With r = 1 there is nothing to cross and the vector is the
    constant 1."""
    if not idxs:
        return [UniPoly.make([1])]
    return cross_product([cols[j][1] for j in idxs])


def _det_poly(cols: list[tuple[int, list[UniPoly]]], subset: tuple[int, ...]) -> UniPoly:
    """Determinant of the moving columns in subset, of degree at most r in t:
    the first column dotted with the cross product of the others.  It is the
    product of the columns' scales times the determinant of the unscaled
    columns, so it has the same roots and signs."""
    pairs = zip(cols[subset[0]][1], _cross_polys(cols, subset[1:]))
    return sum((a * u for a, u in pairs), UniPoly.zero())


def _sign_at_root(
    q: UniPoly, det: UniPoly, interval: tuple[Rat, Rat], subset: tuple[int, ...]
) -> int:
    """Sign of q at the simple root of det isolated by interval.

    Bisects the interval until q is root-free on it, so the sign at an
    endpoint equals the sign at the root.  Different signs at the two ends
    prove a root of q inside; only equal signs need q's Sturm chain, built
    once on q itself (at endpoints where q is nonzero its variations count
    distinct roots, as in count_distinct_roots).  Nontermination would mean
    q vanishes at the root itself, which the genericity checks exclude.
    """
    a, b = interval
    chain = None
    for _ in range(4000):
        sa = q.sign_at(a)
        if sa != 0 and sa == q.sign_at(b):
            if chain is None:
                chain = _sturm_chain(q)
            if _variations(chain, a) == _variations(chain, b):
                return sa
        a, b = bisect_root_interval(det, (a, b))
    raise GenericityError(
        (tuple(i + 1 for i in subset),),
        "alignment sign undecidable; vertex direction degenerates at the event",
    )


def _classify(
    cols: list[tuple[int, list[UniPoly]]],
    subset: tuple[int, ...],
    interval: tuple[Rat, Rat],
    det: UniPoly,
    t_plus: Rat,
    antipodal: bool,
) -> tuple[int, int]:
    """Type (j, k) of the cell appearing after the event at 0-based subset.

    Vertex directions are the cross products of the subset minus one
    column; their signs are aligned at the root (where all vertices merge)
    and remain the vertex choice throughout the following gap, so the cell
    can be sampled at t_plus.  j counts subset columns on the negative
    side of an interior point of the cell, k counts the others.

    Vertex i is weighted by the scale of column i, so every vertex carries
    the product of the subset's scales, and the point is evaluated
    homogeneously at t_plus = a/b: it is a positive multiple of the sum of
    the unscaled vertices, and every sign test is on integers.
    """
    r = len(subset)
    wpolys = {i: _cross_polys(cols, tuple(m for m in subset if m != i)) for i in subset}
    ref = wpolys[subset[0]]
    eps = {subset[0]: 1}
    for i in subset[1:]:
        q = sum((a * b for a, b in zip(wpolys[i], ref)), UniPoly.zero())
        eps[i] = _sign_at_root(q, det, interval, subset)
    if antipodal:
        eps = {i: -e for i, e in eps.items()}
    ta, tb = t_plus.numerator, t_plus.denominator
    point = [0] * r
    for i in subset:
        weight = eps[i] * cols[i][0]
        for c, x in enumerate(wpolys[i]):
            point[c] += weight * x.homogeneous(ta, tb, r - 1)
    members = set(subset)
    j = k = 0
    for m, (_, col) in enumerate(cols):
        val = sum(x.homogeneous(ta, tb, 1) * y for x, y in zip(col, point))
        if val == 0:
            raise GenericityError(
                (tuple(i + 1 for i in subset),),
                f"interior sample point of the cell after columns {[i + 1 for i in subset]}"
                f" lies on the hyperplane of column {m + 1}",
            )
        if val < 0:
            if m in members:
                j += 1
            else:
                k += 1
    return (j, k)


def _canonical_type(jk: tuple[int, int], r: int, n: int) -> tuple[int, int]:
    j, k = jk
    return min((j, k), (r - j, n - r - k))


class _RootItem:
    __slots__ = ("subset", "poly", "interval")

    def __init__(self, subset, poly, interval):
        self.subset = subset
        self.poly = poly
        self.interval = interval


def gap_samples(intervals: list[tuple[Rat, Rat]]) -> list[Rat]:
    """One rational time strictly after each event and before the next.

    intervals are the disjoint, sorted isolating intervals of the events
    on (0, 1), for instance [ev.interval for ev in path.events].
    """
    ends = [b for _, b in intervals]
    starts = [a for a, _ in intervals[1:]] + [rat(1)]
    return [(b + a) / 2 for b, a in zip(ends, starts)]


def _validate_small_subsets(cols: list[tuple[int, list[UniPoly]]], r: int) -> None:
    """For n = r, require every (r-1)-subset to stay independent on (0, 1).

    With no spare columns around, a degenerating (r-1)-subset would not be
    caught by the shared-root test, yet it breaks vertex classification.
    """
    if r < 2:
        return
    for small in combinations(range(len(cols)), r - 1):
        polys = _cross_polys(cols, small)
        g = UniPoly.zero()
        for q in polys:
            g = poly_gcd(g, q)
        if g.degree >= 1 and count_distinct_roots(g, rat(0), rat(1)) > 0:
            raise GenericityError(
                (tuple(i + 1 for i in small),),
                f"columns {[i + 1 for i in small]} become dependent during the motion",
            )


def _separate(items: list[_RootItem], rounds: int) -> bool:
    """Sort the items by interval and bisect overlapping neighbours until
    the intervals are disjoint.  False when the rounds do not suffice, as
    always happens when two subsets share a root; a later call resumes."""
    for _ in range(rounds):
        items.sort(key=lambda it: it.interval[0])
        overlapping = False
        for fst, snd in zip(items, items[1:]):
            if snd.interval[0] < fst.interval[1]:
                fst.interval = bisect_root_interval(fst.poly, fst.interval)
                snd.interval = bisect_root_interval(snd.poly, snd.interval)
                overlapping = True
        if not overlapping:
            return True
    return False


def detect_mutations(v: VectorConfig, w: VectorConfig) -> MotionPath:
    """Isolate, validate, and classify all events of the straight-line motion.

    Raises GenericityError naming the offending column subsets when a root
    is not simple, two subsets degenerate at a shared time, or an
    intermediate dependency would make classification ambiguous.

    A root two subsets share lies inside an isolating interval of each, so
    once the intervals are separated no pair can share one.  Only when 64
    rounds of separation do not suffice are the pairs with overlapping
    intervals tested by a gcd, in subset order; separation then goes on for
    up to 448 more rounds.

    Intervals are bisected on the determinant polynomial itself.  Its roots
    in [0, 1] are all simple once validated, so it is its squarefree part
    times a factor of constant sign there, and every midpoint sign test
    picks the half the squarefree part would.
    """
    if (v.r, v.n) != (w.r, w.n):
        raise DimensionError("motion endpoints must have equal shapes")
    r, n = v.r, v.n
    cols = _moving_columns(v, w)
    zero, one = rat(0), rat(1)
    items: list[_RootItem] = []
    with_roots: list[tuple[tuple[int, ...], UniPoly, list[_RootItem]]] = []
    for subset in combinations(range(n), r):
        poly = _det_poly(cols, subset)
        found = isolate_roots(poly, zero, one)
        if not found:
            continue
        if any(not simple for _, simple in found):
            raise GenericityError(
                (tuple(i + 1 for i in subset),),
                f"columns {[i + 1 for i in subset]} have a multiple degeneracy time",
            )
        own = [_RootItem(subset, poly, interval) for interval, _ in found]
        with_roots.append((subset, poly, own))
        items.extend(own)
    separated = _separate(items, 64)
    if not separated:
        for (s1, p1, own1), (s2, p2, own2) in combinations(with_roots, 2):
            if not any(
                x.interval[0] < y.interval[1] and y.interval[0] < x.interval[1]
                for x in own1
                for y in own2
            ):
                continue
            shared = poly_gcd(p1, p2)
            if shared.degree >= 1 and count_distinct_roots(shared, zero, one) > 0:
                raise GenericityError(
                    (tuple(i + 1 for i in s1), tuple(i + 1 for i in s2)),
                    f"columns {[i + 1 for i in s1]} and {[i + 1 for i in s2]}"
                    " degenerate at a shared time",
                )
    if n == r:
        _validate_small_subsets(cols, r)
    if not separated and not _separate(items, 448):
        raise GenericityError(
            tuple(tuple(i + 1 for i in it.subset) for it in items),
            "event intervals failed to separate",
        )
    samples = gap_samples([item.interval for item in items])
    events = []
    for item, t_plus in zip(items, samples):
        raw = _classify(cols, item.subset, item.interval, item.poly, t_plus, False)
        # a simple root isolated between certified non-roots: the sign flips
        before = item.poly.sign_at(item.interval[0])
        events.append(
            MutationEvent(
                subset=tuple(i + 1 for i in item.subset),
                interval=item.interval,
                type_jk=_canonical_type(raw, r, n),
                sign_flip=(before, -before),
            )
        )
    return MotionPath(start=v, end=w, events=tuple(events))


def classify_event(path: MotionPath, index: int, antipodal: bool = False) -> tuple[int, int]:
    """Re-derive the raw (j, k) of one event of a detected path.

    The antipodal flag picks the complementary cell; the result is then
    (r-j, n-r-k) of the default run.  Both choices canonicalize to the
    stored event type.
    """
    if not 0 <= index < len(path.events):
        raise DimensionError(f"event index {index} out of range")
    ev = path.events[index]
    subset = tuple(i - 1 for i in ev.subset)
    cols = _moving_columns(path.start, path.end)
    t_plus = gap_samples([e.interval for e in path.events])[index]
    return _classify(cols, subset, ev.interval, _det_poly(cols, subset), t_plus, antipodal)


def g_from_motion(v: VectorConfig, w: VectorConfig) -> GMatrix:
    """Sum of per-event increments along the straight-line motion.

    An event of type (j, k) adds the skew-symmetric matrix with +1 at
    (j, k), which the small g-matrix holds as one entry: +-1 at
    (j, min(k, n-r-k)), negated for a mirrored k, and nothing on the
    middle row or column.  No j is mirrored: event types are canonical
    (_canonical_type), so j <= r/2 already.  The sum is expanded by
    gmatrix.full_from_small.

    Independent of the algebraic route (g_of_pair), so comparing the two
    is a real check; genericity errors propagate to the caller, which may
    perturb the endpoint and retry.
    """
    from .gmatrix import SmallGMatrix, full_from_small  # only this route needs gmatrix's imports

    path = detect_mutations(v, w)
    r, nr = v.r, v.n - v.r
    small = [[0] * ((nr - 1) // 2 + 1) for _ in range((r - 1) // 2 + 1)]
    for j, k in (ev.type_jk for ev in path.events):
        if 2 * j != r and 2 * k != nr:
            small[j][min(k, nr - k)] += -1 if 2 * k > nr else 1
    return full_from_small(SmallGMatrix(r, v.n, tuple(tuple(row) for row in small)))


def events_to_json(path: MotionPath) -> list[dict]:
    """Events in the stable trace shape used by the command line."""
    out = []
    for ev in path.events:
        a, b = ev.interval
        out.append(
            {
                "R": list(ev.subset),
                "interval": [str(a), str(b)],
                "type": list(ev.type_jk),
                "flip": "+-" if ev.sign_flip[0] > 0 else "-+",
            }
        )
    return out


def perturb(
    w: VectorConfig, seed: int, magnitude: Rat | int | str = Fraction(1, 10**6)
) -> VectorConfig:
    """Nudge every entry by a seeded rational of absolute value <= magnitude.

    Deterministic in (seed, magnitude).  Face counts of the result are not
    guaranteed to match the input; callers needing them preserved must
    re-enumerate and compare.
    """
    mag = rat(magnitude)
    if mag < 0:
        raise DimensionError("perturbation magnitude must be nonnegative")
    if mag == 0:
        return w
    rng = random.Random(seed)
    denom = 10**6

    def draw() -> list[list[Rat]]:
        return [
            [x + mag * Fraction(rng.randint(-denom, denom), denom) for x in w.mat.col(j)]
            for j in range(w.n)
        ]

    return _sample_config(w.r, w.n, draw, 1000, "restore general position while perturbing")


def _affine_coords(points: list[tuple[Rat, ...]], target: list[Rat]) -> list[Rat] | None:
    """Coefficients writing target as an affine combination of d points in R^(d-?).

    Returns None when the system is inconsistent or the points are affinely
    dependent.  Solved in homogeneous coordinates, where affine combinations
    become linear ones.
    """
    d = len(points)
    lifted = [(rat(1),) + tuple(p) for p in points]
    rhs = [rat(1)] + list(target)
    nrows = len(rhs)
    aug = tuple(tuple(col[i] for col in lifted) + (rhs[i],) for i in range(nrows))
    rows, pivots = _row_echelon(Mat(nrows, d + 1, aug))
    if pivots != list(range(d)):
        return None
    return [rows[i][d] for i in range(d)]


def _hyperplane_normal(points: list[tuple[Rat, ...]]) -> list[Rat] | None:
    """A nonzero vector orthogonal to the affine hull of d points in R^d."""
    d = len(points)
    base = points[0]
    rows = tuple(
        tuple(points[i][c] - base[c] for c in range(d)) for i in range(1, d)
    )
    ker = kernel_basis(Mat(d - 1, d, rows))
    if ker.ncols != 1:
        return None
    return list(ker.col(0))


def _lift(points: list[tuple[Rat, ...]]) -> list[list[Rat]]:
    return [[rat(1)] + list(p) for p in points]


def mutation_rich_path(n: int, r: int, seed: int) -> list[VectorConfig]:
    """Pointed configurations whose consecutive pairs step through single
    mutations covering every type (j, k), 1 <= j <= (r-1)//2,
    0 <= k <= (n-r-1)//2.

    A sweep construction: d-1 stationary points sit on the moment curve,
    n-d more cluster in a small ball around the next curve point, and one
    moving point crosses the cluster hyperplanes along lines perpendicular
    to the stationary hull, one line per required j.  Each crossing is an
    event with the predicted j, and a full sweep makes k take every value.
    The cluster radius is validated a posteriori and halved on failure.
    All output first coordinates equal 1, so every configuration is pointed.
    Library API: the mutation-coverage acceptance criterion (criterion 9)
    walks its output.  When no attempt covers every type, the error names
    the attempts made and why the last one failed.
    """
    if r < 1 or n < r:
        raise DimensionError(f"need n >= r >= 1, got r={r}, n={n}")
    required = {
        (j, k)
        for j in range(1, (r - 1) // 2 + 1)
        for k in range(0, (n - r - 1) // 2 + 1)
    }
    if not required:
        return [gen_cyclic(n, r)]
    d = r - 1
    anchors = [moment_point(i, d) for i in range(1, d + 1)]
    normal = _hyperplane_normal(anchors)
    if normal is None:
        raise BudgetExhaustedError("stationary anchor points are degenerate")
    sigmas = [tuple(range(1, d - j + 2)) for j in range(1, (r - 1) // 2 + 1)]
    line_feet = []
    for sigma in sigmas:
        size = len(sigma)
        beta = Fraction(1 + d - size, size)
        foot = [rat(0)] * d
        for lab in range(1, d + 1):
            coef = beta if lab in sigma else rat(-1)
            for c in range(d):
                foot[c] += coef * anchors[lab - 1][c]
        line_feet.append(foot)
    rng = random.Random(seed)
    eps = Fraction(1, 4)
    jitter_denom = 10**9
    attempts = 0
    for _ in range(12):
        for _ in range(25):
            attempts += 1
            cluster = []
            for _ in range(n - d):
                delta = [Fraction(rng.randint(-999, 999), 1000) for _ in range(d)]
                cluster.append(tuple(anchors[d - 1][c] + eps * delta[c] for c in range(d)))
            stationary = anchors[: d - 1] + cluster
            try:
                new_config(r, n - 1, _lift(stationary))
            except GeneralPositionError as exc:
                last = f"stationary columns {list(exc.subset)} were linearly dependent"
                continue
            plan = _plan_sweeps(sigmas, line_feet, anchors, cluster, normal)
            if plan is None:
                last = "a sweep line crossed a cluster hyperplane outside its region"
                break
            waypoints = []
            ok = True
            for travel in plan:
                for s_val in travel:
                    jit = [
                        Fraction(rng.randint(-999, 999), jitter_denom) for _ in range(d)
                    ]
                    waypoints.append(
                        tuple(s_val[c] + jit[c] for c in range(d))
                    )
            configs = []
            for pt in waypoints:
                try:
                    configs.append(new_config(r, n, _lift(stationary + [pt])))
                except GeneralPositionError as exc:
                    last = f"waypoint columns {list(exc.subset)} were linearly dependent"
                    ok = False
                    break
            if not ok:
                continue
            try:
                outputs, seen = _run_segments(configs)
            except GenericityError as exc:
                last = f"motion was not generic: {exc}"
                continue
            if required <= seen:
                return outputs
            last = f"types {sorted(required - seen)} were still missing"
            break
        eps /= 2
    raise BudgetExhaustedError(
        f"sweep construction failed to cover all types in {attempts} attempts; in the last, {last}"
    )


def _plan_sweeps(
    sigmas: list[tuple[int, ...]],
    line_feet: list[list[Rat]],
    anchors: list[tuple[Rat, ...]],
    cluster: list[tuple[Rat, ...]],
    normal: list[Rat],
) -> list[list[list[Rat]]] | None:
    """Endpoints of each sweep line, validated against every cluster choice.

    For each line the crossing with the hyperplane through the first d-1
    anchors and one cluster point must carry affine coefficients that are
    positive exactly on the line's label set.  Returns None (caller shrinks
    the cluster) as soon as one crossing lands outside its region.
    """
    d = len(anchors)
    plans = []
    for sigma, foot in zip(sigmas, line_feet):
        span = rat(1)
        for q in cluster:
            pts = list(anchors[: d - 1]) + [q]
            nu = _hyperplane_normal(pts)
            if nu is None:
                return None
            denom = sum(a * b for a, b in zip(nu, normal))
            if denom == 0:
                return None
            s_c = sum(a * (b - c) for a, b, c in zip(nu, pts[0], foot)) / denom
            crossing = [foot[c] + s_c * normal[c] for c in range(d)]
            coords = _affine_coords(pts, crossing)
            if coords is None:
                return None
            for lab in range(1, d + 1):
                val = coords[lab - 1]
                if lab in sigma and val <= 0:
                    return None
                if lab not in sigma and val >= 0:
                    return None
            span = max(span, abs(s_c))
        reach = 2 * span + 1
        lo = [foot[c] - reach * normal[c] for c in range(d)]
        hi = [foot[c] + reach * normal[c] for c in range(d)]
        plans.append([lo, hi])
    return plans


def _run_segments(configs: list[VectorConfig]) -> tuple[list[VectorConfig], set[tuple[int, int]]]:
    """Detect along consecutive waypoint configs; emit one config per event."""
    outputs = [configs[0]]
    seen: set[tuple[int, int]] = set()
    for a, b in zip(configs, configs[1:]):
        path = detect_mutations(a, b)
        samples = gap_samples([ev.interval for ev in path.events])
        for ev, t_plus in zip(path.events, samples):
            seen.add(ev.type_jk)
            outputs.append(interpolated_config(a, b, t_plus))
    return outputs, seen
