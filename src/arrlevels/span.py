"""Exact ranks of the spaces spanned by pairwise invariants and face counts.

The flattened independent coordinates of an increment matrix (its small
quadrant) number floor((r+1)/2) * floor((n-r+1)/2); for pointed pairs the
top row vanishes as well.  Sampling pairs and computing exact ranks
therefore certifies the span dimensions from below while the coordinate
count bounds them from above.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .config import VectorConfig, _sample_config, gen_cocyclic, gen_cyclic, gen_random, moment_point
from .errors import DimensionError, InconsistentInputError
from .exactnum import Rat, _Record, _int_echelon, integer_rescaling, rat
from .faces import f_matrix
from .gmatrix import g_of_pair, small_from_full


class SpanReport(_Record):
    __slots__ = ("n", "r", "mode", "samples_used", "achieved_rank", "theoretical_dim", "basis_seeds")

    def __init__(
        self,
        n: int,
        r: int,
        mode: str,
        samples_used: int,
        achieved_rank: int,
        theoretical_dim: int,
        basis_seeds: tuple[str, ...],
    ) -> None:
        if achieved_rank > theoretical_dim:
            raise InconsistentInputError(
                f"rank {achieved_rank} exceeds the span dimension {theoretical_dim}"
                f" for shape ({n},{r}), mode {mode!r}"
            )
        super().__init__(n, r, mode, samples_used, achieved_rank, theoretical_dim, basis_seeds)

    @property
    def full_rank(self) -> bool:
        return self.achieved_rank == self.theoretical_dim

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "mode": self.mode,
            "samples_used": self.samples_used,
            "achieved_rank": self.achieved_rank,
            "theoretical_dim": self.theoretical_dim,
            "full_rank": self.full_rank,
            "basis_seeds": list(self.basis_seeds),
        }


def theoretical_dim(n: int, r: int, mode: str) -> int:
    """Predicted span dimension for the given mode."""
    if mode == "general":
        return ((r + 1) // 2) * ((n - r + 1) // 2)
    if mode == "pointed":
        return ((r - 1) // 2) * ((n - r + 1) // 2)
    raise ValueError(f"mode must be 'general' or 'pointed', got {mode!r}")


def greedy_basis(vectors: Sequence[Sequence[Rat | int | str]]) -> list[int]:
    """Indices of a maximal independent subfamily, greedy in input order:
    the pivot columns of the matrix with the vectors as its columns.

    Each vector is rescaled to integers by a positive factor, which moves
    no pivot, and the pivots come from fraction-free elimination."""
    cols = [integer_rescaling([rat(x) for x in vec])[1] for vec in vectors]
    if not cols:
        return []
    width = len(cols[0])
    if any(len(col) != width for col in cols):
        raise DimensionError("input vectors differ in length")
    return _int_echelon(list(zip(*cols)))[1]


def exact_rank(vectors: Sequence[Sequence[Rat | int | str]]) -> int:
    """Rank over the rationals of a family of equal-length vectors: the
    size of its greedy basis, from the same integer elimination."""
    return len(greedy_basis(vectors))


def _report(n: int, r: int, mode: str, dim: int, vectors: list, labels: list[str]) -> SpanReport:
    """One elimination per report: the rank is the size of the greedy basis."""
    basis = greedy_basis(vectors)
    return SpanReport(n, r, mode, len(vectors), len(basis), dim, tuple(labels[i] for i in basis))


def _flatten_small(g, mode: str) -> tuple[Rat, ...]:
    small = small_from_full(g)
    rows = small.rows[1:] if mode == "pointed" else small.rows
    if mode == "pointed" and any(x != 0 for x in small.rows[0]):
        raise InconsistentInputError("pointed pair has a nonzero top increment row")
    return tuple(rat(x) for row in rows for x in row)


def _mix(points, weights, d: int) -> tuple[Fraction, ...]:
    total = sum(weights)
    return tuple(
        sum(w * p[i] for w, p in zip(weights, points)) / total for i in range(d)
    )


def _nudged_lift(n: int, r: int, fixed, loose, seed: int) -> VectorConfig:
    """Homogenize fixed points plus loose ones nudged into general position."""
    rng = random.Random(seed)

    def draw() -> list[tuple]:
        nudged = [tuple(x + Fraction(rng.randint(-9999, 9999), 10**6) for x in q) for q in loose]
        return [(1, *p) for p in list(fixed) + nudged]

    return _sample_config(r, n, draw, 500, "nudge the loose points into general position")


def _pointed_anchors(n: int, r: int):
    # random point sets in a box almost never have non-extreme points, so
    # deterministic families with interior points at different depths
    # contribute directions the random pool would miss
    d = r - 1
    outer = [moment_point(t, d) for t in range(n - 1)]
    cen = _mix(outer, [1] * len(outer), d)
    anchors = [(_nudged_lift(n, r, outer, [cen], 1), "interior(deep)")]
    if len(outer) >= 2:
        shallow = _mix([outer[0], outer[1], cen], [10, 10, 1], d)
        anchors.append((_nudged_lift(n, r, outer, [shallow], 2), "interior(edge)"))
    if n - r >= 2:
        inner2 = outer[:-1]
        cen2 = _mix(inner2, [1] * len(inner2), d)
        mid2 = _mix([inner2[0], inner2[1], cen2], [10, 10, 1], d)
        anchors.append(
            (_nudged_lift(n, r, inner2, [cen2, mid2], 3), "interior(two)")
        )
    return anchors


@lru_cache(maxsize=16)
def _anchor_pair(n: int, r: int) -> tuple[VectorConfig, VectorConfig]:
    """The general-mode anchor pair, built once per shape."""
    return gen_cocyclic(n, r), gen_cyclic(n, r)


def _pair_pool(n: int, r: int, mode: str, samples: int, seed: int):
    """The first `samples` pairs of the sampling pool, with labels."""
    rng = random.Random(seed)
    out = []
    if mode == "general":
        out.append((*_anchor_pair(n, r), f"cocyclic({n},{r}) -> cyclic({n},{r})"))
        while len(out) < samples:
            s1 = rng.randrange(2**31)
            s2 = rng.randrange(2**31)
            out.append(
                (gen_random(n, r, s1), gen_random(n, r, s2), f"random(seed={s1}) -> random(seed={s2})")
            )
    else:
        for cfg, label in _pointed_anchors(n, r):
            out.append((gen_cyclic(n, r), cfg, f"cyclic({n},{r}) -> {label}"))
        s0 = rng.randrange(2**31)
        out.append(
            (gen_cyclic(n, r), gen_random(n, r, s0, pointed=True), f"cyclic({n},{r}) -> pointed(seed={s0})")
        )
        while len(out) < samples:
            s1 = rng.randrange(2**31)
            s2 = rng.randrange(2**31)
            out.append(
                (
                    gen_random(n, r, s1, pointed=True),
                    gen_random(n, r, s2, pointed=True),
                    f"pointed(seed={s1}) -> pointed(seed={s2})",
                )
            )
    return out[:samples]


def g_span_rank(n: int, r: int, mode: str, samples: int, seed: int) -> SpanReport:
    """Exact rank of the flattened increment matrices of sampled pairs.

    The pool starts with deterministic extreme pairs (the alternating vs
    plain moment-curve pair in general mode, the moment-curve point set
    against its interior-point variants in pointed mode) and is filled with
    seeded random pairs, pointed ones in pointed mode.  Falling short of
    the predicted dimension is reported, not raised.
    """
    dim = theoretical_dim(n, r, mode)
    if r < 1 or n <= r:
        raise DimensionError(f"need n > r >= 1, got r={r}, n={n}")
    if samples < dim:
        raise DimensionError(f"need at least {dim} samples for shape ({n},{r}), got {samples}")
    pool = _pair_pool(n, r, mode, samples, seed)
    vectors = [_flatten_small(g_of_pair(va, vb), mode) for va, vb, _ in pool]
    return _report(n, r, mode, dim, vectors, [label for _, _, label in pool])


def f_affine_span_rank(n: int, r: int, mode: str, samples: int, seed: int) -> SpanReport:
    """Exact rank of the face-count differences f(W) - f(V) over the pairs
    that g_span_rank samples.

    The increment-to-face-count transform is injective, so the rank and
    the basis labels equal g_span_rank's on the same arguments.  It is
    library API: a second route to the paper's span dimension, which the
    span-dimension acceptance criterion (criterion 7) checks.
    """
    dim = theoretical_dim(n, r, mode)
    if r < 1 or n <= r:
        raise DimensionError(f"need n > r >= 1, got r={r}, n={n}")
    if samples < max(dim, 1):
        raise DimensionError(f"need at least {max(dim, 1)} samples for shape ({n},{r}), got {samples}")
    pool = _pair_pool(n, r, mode, samples, seed)
    vectors = [
        tuple(rat(y - x) for rv, rw in zip(f_matrix(va).rows, f_matrix(vb).rows) for x, y in zip(rv, rw))
        for va, vb, _ in pool
    ]
    return _report(n, r, mode, dim, vectors, [label for _, _, label in pool])
