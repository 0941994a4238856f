"""Span dimensions of sampled pair invariants and count differences."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels import config, span
from arrlevels.config import gen_cocyclic, gen_cyclic, gen_random, moment_point
from arrlevels.errors import BudgetExhaustedError, DimensionError, InconsistentInputError
from arrlevels.exactnum import Mat, rank
from arrlevels.faces import f_matrix, fstar_matrix
from arrlevels.gmatrix import SmallGMatrix, full_from_small, g_of_pair, small_from_full
from arrlevels.span import (
    SpanReport,
    exact_rank,
    f_affine_span_rank,
    g_span_rank,
    greedy_basis,
    theoretical_dim,
)


def test_report_rejects_rank_above_dimension():
    with pytest.raises(InconsistentInputError, match="rank 5 exceeds the span dimension 4"):
        SpanReport(7, 3, "general", 10, 5, 4, ())


def test_theoretical_dims():
    assert theoretical_dim(7, 3, "general") == 4
    assert theoretical_dim(7, 3, "pointed") == 2
    assert theoretical_dim(6, 3, "general") == 4
    assert theoretical_dim(6, 3, "pointed") == 2
    assert theoretical_dim(8, 5, "general") == 6
    assert theoretical_dim(8, 5, "pointed") == 4


def test_theoretical_dim_collapsed_column_range():
    for r in (2, 3, 4, 5):
        assert theoretical_dim(r + 1, r, "general") == (r + 1) // 2
        assert theoretical_dim(r + 1, r, "pointed") == (r - 1) // 2


def test_theoretical_dim_rejects_unknown_mode():
    with pytest.raises(ValueError):
        theoretical_dim(6, 3, "diagonal")


def test_greedy_basis_examples():
    assert greedy_basis([(1, 0), (0, 1), (1, 1)]) == [0, 1]
    assert greedy_basis([(0, 0), (0, 0)]) == []


def test_greedy_basis_rejects_ragged_input():
    with pytest.raises(DimensionError):
        greedy_basis([(1, 0), (1,)])


_RATS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# integers up to 10**6 push the fraction-free minors past 64 bits
_ENTRIES = st.one_of(_RATS, st.integers(-(10**6), 10**6).map(Fraction))


@settings(max_examples=150)
@given(data=st.data(), width=st.integers(1, 5), size=st.integers(1, 8))
def test_greedy_basis_is_the_rank_increasing_prefix(data, width, size):
    # a family with dependent members: each new vector is either drawn
    # freely, zero, or a random combination of the ones before it
    vs: list[tuple[Fraction, ...]] = []
    for _ in range(size):
        if vs and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(_RATS, min_size=len(vs), max_size=len(vs)))
            vs.append(tuple(sum(c * v[k] for c, v in zip(coeffs, vs)) for k in range(width)))
        elif data.draw(st.integers(0, 5)) == 0:
            vs.append((Fraction(0),) * width)
        else:
            vs.append(tuple(data.draw(st.lists(_ENTRIES, min_size=width, max_size=width))))
    basis = greedy_basis(vs)
    assert len(basis) == exact_rank(vs) == rank(Mat.from_rows(vs))
    assert basis == [i for i in range(size) if rank(Mat.from_rows(vs[: i + 1])) > rank(Mat.from_rows(vs[:i]))]


def test_exact_rank_small():
    assert exact_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([(Fraction(1, 2), Fraction(1, 3))]) == 1


def test_g_span_reaches_dimension():
    for n, r in ((6, 3), (7, 3)):
        for mode in ("general", "pointed"):
            dim = theoretical_dim(n, r, mode)
            rep = g_span_rank(n, r, mode, samples=dim + 4, seed=0)
            assert rep.achieved_rank == rep.theoretical_dim == dim
            assert rep.full_rank


def test_g_span_requires_enough_samples():
    with pytest.raises(DimensionError):
        g_span_rank(7, 3, "general", samples=3, seed=0)


def test_span_report_serialization():
    rep = g_span_rank(6, 3, "pointed", samples=6, seed=2)
    obj = rep.to_json()
    assert obj["mode"] == "pointed"
    assert obj["full_rank"] is True
    assert obj["achieved_rank"] == obj["theoretical_dim"] == 2
    assert len(obj["basis_seeds"]) == 2
    assert all(isinstance(s, str) and "->" in s for s in obj["basis_seeds"])


def test_pointed_anchor_names_its_attempts_and_the_last_dependent_subset(monkeypatch):
    # every nudged point set gets its first column twice, so every attempt fails
    real = config.new_config
    monkeypatch.setattr(config, "new_config", lambda r, n, cols: real(r, n, [cols[0], *cols[:-1]]))
    outer = [moment_point(t, 2) for t in range(4)]
    with pytest.raises(BudgetExhaustedError) as info:
        span._nudged_lift(5, 3, outer, [(Fraction(3, 2), Fraction(7, 2))], seed=1)
    assert str(info.value) == (
        "could not nudge the loose points into general position in 500 attempts;"
        " in the last, columns [1, 2, 3] were linearly dependent"
    )


def test_f_affine_span_reaches_dimension():
    # both ranks come from the same sampled pairs, and the transform from
    # g to face counts is injective, so they pick the same basis
    for mode, want in (("general", 4), ("pointed", 2)):
        rep = f_affine_span_rank(6, 3, mode, samples=want + 4, seed=1)
        assert rep.achieved_rank == want
        assert rep.full_rank
        rg = g_span_rank(6, 3, mode, samples=want + 4, seed=1)
        assert rep.achieved_rank == rg.achieved_rank
        assert rep.basis_seeds == rg.basis_seeds


def test_f_affine_single_sample():
    rep = f_affine_span_rank(3, 2, "general", samples=1, seed=0)
    assert rep.achieved_rank in (0, 1)


def test_f_rank_equals_g_rank_on_shared_samples():
    base = gen_cyclic(6, 3)
    others = [gen_cocyclic(6, 3)] + [gen_random(6, 3, seed=s) for s in (5, 6, 7, 8)]
    fbase = f_matrix(base)
    g_rows = []
    f_rows = []
    for v in others:
        g = g_of_pair(base, v)
        g_rows.append([x for row in small_from_full(g).rows for x in row])
        fv = f_matrix(v)
        f_rows.append(
            [fv.entry(s, t) - fbase.entry(s, t) for s in range(3) for t in range(7)]
        )
    assert exact_rank(g_rows) == exact_rank(f_rows)


def test_fstar_pointed_span_dimension():
    # differences of dependency counts over pointed samples span the same
    # dimension as the pointed g-space
    n, r = 6, 3
    base = gen_cyclic(n, r)
    fsbase = fstar_matrix(base)
    rows = []
    for seed in range(10):
        v = gen_random(n, r, seed=200 + seed, pointed=True)
        fs = fstar_matrix(v)
        rows.append(
            [fs.entry(s, t) - fsbase.entry(s, t) for s in range(n + 1) for t in range(n + 1)]
        )
    assert exact_rank(rows) == theoretical_dim(n, r, "pointed")


def test_structural_upper_bound_synthetic_sweep():
    # the flattened coordinates are exactly the free quadrant, so no batch
    # of skew matrices can exceed the dimension; sweep 10_000 random draws
    rng = random.Random(77)
    n, r = 7, 3
    dim = theoretical_dim(n, r, "general")
    trials = 0
    while trials < 10_000:
        batch = []
        for _ in range(dim + 2):
            small = SmallGMatrix(
                r,
                n,
                tuple(
                    tuple(rng.randint(-9, 9) for _ in range((n - r - 1) // 2 + 1))
                    for _ in range((r - 1) // 2 + 1)
                ),
            )
            full = full_from_small(small)
            batch.append([x for row in small_from_full(full).rows for x in row])
            trials += 1
        assert exact_rank(batch) <= dim
