"""Configuration construction, generators, duality, minors, predicates."""

from __future__ import annotations

import copy
import itertools
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlevels import config
from arrlevels.config import (
    config_from_json,
    config_to_json,
    contract,
    coneighborliness_degree,
    delete,
    gale_dual,
    gen_cocyclic,
    gen_cyclic,
    gen_random,
    integer_columns,
    is_extremal,
    is_neighborly,
    is_coneighborly,
    is_pointed,
    neighborliness_degree,
    new_config,
    scale_column,
    transform,
)
from arrlevels.errors import (
    BudgetExhaustedError,
    DimensionError,
    FileFormatError,
    GeneralPositionError,
)
from arrlevels.exactnum import Mat, det, integer_rescaling
from arrlevels.faces import f_matrix, fstar_matrix, minor_f_matrices


TRIANGLE = new_config(2, 3, [(1, 0), (0, 1), (1, 1)])


def test_new_config_valid_triangle():
    assert TRIANGLE.r == 2 and TRIANGLE.n == 3


def test_new_config_collinear_pair_rejected():
    with pytest.raises(GeneralPositionError) as info:
        new_config(2, 2, [(1, 0), (2, 0)])
    assert info.value.subset == (1, 2)


# (r, n, columns) with entries in [-1, 1], so dependent subsets are common
_SMALL_ENTRIES = st.integers(1, 7).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.just(n),
            st.lists(st.lists(st.integers(-1, 1), min_size=r, max_size=r), min_size=n, max_size=n),
        )
    )
)


@settings(max_examples=200)
@given(case=_SMALL_ENTRIES)
def test_general_position_names_the_first_dependent_subset(case):
    # the oracle: one determinant per r-subset, in combinations order
    r, n, cols = case
    want = next(
        (
            tuple(j + 1 for j in subset)
            for subset in itertools.combinations(range(n), r)
            if det(Mat.from_rows([[cols[j][i] for j in subset] for i in range(r)])) == 0
        ),
        None,
    )
    try:
        new_config(r, n, cols)
        got = None
    except GeneralPositionError as exc:
        got = exc.subset
    assert got == want


# every shape with n <= 9, r <= 5
_SHAPES = [(n, r) for r in range(1, 6) for n in range(r, 10)]
_SEEDS = st.integers(0, 2**31 - 1)


def _rescaled_columns(v) -> list[tuple[int, ...]]:
    return [tuple(integer_rescaling(v.mat.col(j))[1]) for j in range(v.n)]


@settings(max_examples=60)
@given(shape=st.sampled_from(_SHAPES), seed=_SEEDS, pointed=st.booleans(), data=st.data())
def test_integer_columns_are_the_rescaled_columns(shape, seed, pointed, data):
    n, r = shape
    v = gen_random(n, r, seed, pointed=pointed)
    i = data.draw(st.integers(1, n))
    c = Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.integers(1, 9)))
    # unit upper triangular times a rational diagonal: invertible, with fractional entries
    diag = [Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 7))) for _ in range(r)]
    upper = [[Fraction(data.draw(st.integers(-5, 5)), 3) for _ in range(r)] for _ in range(r)]
    a = Mat.from_rows([[diag[k] if k == m else upper[k][m] if m > k else 0 for m in range(r)] for k in range(r)])
    image = transform(v, a)
    made = [v, scale_column(v, i, c), image, config_from_json(config_to_json(image))]
    if n > r:
        made += [gale_dual(v), delete(v, i)]
    if r >= 2:
        made.append(contract(v, i))
    for u in made:
        assert integer_columns(u) == _rescaled_columns(u)
        for back in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
            assert back == u and hash(back) == hash(u)
            assert integer_columns(back) == integer_columns(u)


@settings(max_examples=100)
@given(shape=st.sampled_from(_SHAPES), seed=_SEEDS, repeat=st.booleans(), data=st.data())
def test_planted_dependency_names_the_first_singular_subset(shape, seed, repeat, data):
    n, r = shape
    cols: list = integer_columns(gen_random(n, r, seed))
    at = data.draw(st.integers(0, n - 1))
    others = [j for j in range(n) if j != at]
    if repeat and r >= 2:
        cols[at] = cols[data.draw(st.sampled_from(others))]
    else:
        picked = data.draw(st.permutations(others))[: r - 1]
        coeffs = [data.draw(st.integers(-3, 3).filter(bool)) for _ in picked]
        cols[at] = tuple(sum(k * cols[j][m] for k, j in zip(coeffs, picked)) for m in range(r))
    # a fractional multiple of the planted column takes the rescaling path
    q = data.draw(st.integers(1, 4))
    if q > 1:
        cols[at] = tuple(Fraction(x, q) for x in cols[at])
    want = next(
        tuple(j + 1 for j in subset)
        for subset in itertools.combinations(range(n), r)
        if det(Mat.from_rows([[cols[j][m] for j in subset] for m in range(r)])) == 0
    )
    with pytest.raises(GeneralPositionError) as info:
        new_config(r, n, cols)
    assert info.value.subset == want


def test_new_config_rank_one():
    v = new_config(1, 2, [(1,), (-3,)])
    assert integer_columns(v) == [(1,), (-3,)]


def test_new_config_needs_enough_columns():
    with pytest.raises(DimensionError):
        new_config(3, 2, [(1, 0, 0), (0, 1, 0)])


def test_gen_cyclic_moment_columns():
    v = gen_cyclic(3, 2, (0, 1, 2))
    assert integer_columns(v) == [(1, 0), (1, 1), (1, 2)]


def test_gen_cocyclic_alternates_signs():
    v = gen_cocyclic(3, 2, (0, 1, 2))
    assert integer_columns(v) == [(-1, 0), (1, 1), (-1, -2)]


def test_gen_cyclic_square_case():
    v = gen_cyclic(2, 2, (0, 1))
    assert integer_columns(v) == [(1, 0), (1, 1)]


def test_gen_cyclic_rejects_unsorted_params():
    with pytest.raises(ValueError):
        gen_cyclic(3, 2, (1, 1, 2))


def test_gen_random_deterministic():
    a = gen_random(4, 2, seed=7)
    b = gen_random(4, 2, seed=7)
    assert a.mat.entries == b.mat.entries


def test_gen_random_names_its_attempts_and_the_last_dependent_subset(monkeypatch):
    # every sample gets its first column twice, so every attempt fails
    real = config.new_config
    monkeypatch.setattr(config, "new_config", lambda r, n, cols: real(r, n, [cols[0], *cols[:-1]]))
    with pytest.raises(BudgetExhaustedError) as info:
        gen_random(5, 3, seed=1)
    assert str(info.value) == (
        "could not sample a general-position configuration in 1000 attempts;"
        " in the last, columns [1, 2, 3] were linearly dependent"
    )


def test_gen_random_pointed_lift():
    v = gen_random(5, 3, seed=1, pointed=True)
    assert all(v.mat.entries[0][j] == 1 for j in range(5))
    assert is_pointed(v)


def test_gale_dual_orthogonality():
    dual = gale_dual(TRIANGLE)
    assert dual.r == 1 and dual.n == 3
    assert TRIANGLE.mat.mul(dual.mat.transpose()).is_zero()


def test_gale_dual_of_cyclic42():
    v = gen_cyclic(4, 2)
    dual = gale_dual(v)
    assert (dual.r, dual.n) == (2, 4)
    assert v.mat.mul(dual.mat.transpose()).is_zero()


def test_gale_dual_square_rejected():
    with pytest.raises(DimensionError):
        gale_dual(gen_cyclic(3, 3))


def test_double_dual_f_matrix_fixed_point():
    v = gen_cyclic(5, 3)
    assert f_matrix(gale_dual(gale_dual(v))).rows == f_matrix(v).rows


def test_delete_cyclic_column():
    left = delete(gen_cyclic(4, 2, (0, 1, 2, 3)), 4)
    right = gen_cyclic(3, 2, (0, 1, 2))
    assert left.mat.entries == right.mat.entries


def test_contract_commutes_with_duality():
    v = gen_cyclic(5, 3)
    for i in (1, 3, 5):
        lhs = f_matrix(gale_dual(contract(v, i)))
        rhs = f_matrix(delete(gale_dual(v), i))
        assert lhs.rows == rhs.rows


def test_contract_rank_two_gives_scalars():
    w = contract(TRIANGLE, 1)
    assert w.r == 1 and w.n == 2
    assert all(col != (0,) for col in (w.mat.col(0), w.mat.col(1)))


def test_neighborliness_of_cyclic():
    v = gen_cyclic(6, 3)
    assert neighborliness_degree(v) >= 1
    assert is_neighborly(v)


def test_coneighborliness_of_cocyclic():
    v = gen_cocyclic(6, 3)
    assert coneighborliness_degree(v) >= 1
    assert is_coneighborly(v)


def test_unpointed_neighborliness_is_minus_one():
    v = new_config(2, 3, [(1, 0), (0, 1), (-1, -1)])
    assert not is_pointed(v)
    assert neighborliness_degree(v) == -1


def test_empty_set_extremal_iff_pointed():
    assert is_extremal(TRIANGLE, ()) == is_pointed(TRIANGLE)
    spread = new_config(2, 3, [(1, 0), (0, 1), (-1, -1)])
    assert is_extremal(spread, ()) == is_pointed(spread) == False


def test_singletons_extremal_in_cyclic53():
    v = gen_cyclic(5, 3)
    assert all(is_extremal(v, (i,)) for i in range(1, 6))


def test_singletons_not_extremal_in_cocyclic73():
    v = gen_cocyclic(7, 3)
    assert not any(is_extremal(v, (i,)) for i in range(1, 8))


def test_fstar_equals_dual_f():
    v = gen_cyclic(5, 3)
    dual = gale_dual(v)
    fs = fstar_matrix(v)
    fd = f_matrix(dual)
    for s in range(v.n + 1):
        for t in range(v.n + 1):
            assert fs.entry(s, t) == fd.entry(v.n - s, t)


def test_pointedness_duality():
    for v in (gen_cyclic(5, 3), gen_cocyclic(5, 3), gen_random(6, 3, seed=3)):
        pointed = f_matrix(v).entry(0, 0) == 1
        assert pointed == (fstar_matrix(v).entry(v.n, 0) == 0)


def test_positive_scaling_preserves_f():
    v = gen_cyclic(4, 2)
    w = scale_column(v, 2, Fraction(7, 3))
    assert f_matrix(w).rows == f_matrix(v).rows
    assert fstar_matrix(w).rows == fstar_matrix(v).rows


@pytest.mark.parametrize("i", [0, 5])
def test_column_index_out_of_range(i):
    v = gen_cyclic(4, 2)
    for op in (delete, contract, lambda v, i: scale_column(v, i, 2)):
        with pytest.raises(DimensionError):
            op(v, i)


def test_invertible_transform_preserves_f():
    v = gen_cyclic(5, 3)
    a = Mat.from_rows([[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    assert f_matrix(transform(v, a)).rows == f_matrix(v).rows


def test_transform_rejects_singular():
    v = gen_cyclic(4, 2)
    with pytest.raises(Exception):
        transform(v, Mat.from_rows([[1, 2], [2, 4]]))


def test_json_round_trip():
    v = gen_random(5, 3, seed=11)
    text = json.dumps(config_to_json(v))
    w = config_from_json(json.loads(text))
    assert w.mat.entries == v.mat.entries


def test_json_rejects_bad_fields():
    with pytest.raises(FileFormatError):
        config_from_json({"r": 2, "n": 3})
    with pytest.raises(FileFormatError):
        config_from_json({"r": 2, "n": 1, "vectors": [["1", "0"]]})


# (n, r, seed, pointed) of a random configuration with n <= 8
_SHAPES = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 2**31 - 1), st.booleans())
)


@settings(max_examples=100)
@given(
    shape=_SHAPES,
    index=st.integers(1, 8),
    c=st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(lambda c: c != 0),
)
def test_derived_configurations_pass_validation(shape, index, c):
    # derived configurations are built without a general-position check;
    # new_config performs it on their columns
    n, r, seed, pointed = shape
    v = gen_random(n, r, seed, pointed=pointed)
    i = 1 + (index - 1) % n
    derived = [scale_column(v, i, c)]
    assert derived[0].columns() == [
        tuple(c * x for x in col) if j == i else col for j, col in enumerate(v.columns(), start=1)
    ]
    if r >= 2:
        derived.append(contract(v, i))
    if n > r:
        derived.append(gale_dual(v))
    for w in derived:
        assert new_config(w.r, w.n, w.columns()) == w


# (n, r, seed, pointed) with r = 1 (deletion only), r = n - 1 and r = n
# (contraction only) drawn as often as the shapes between them
_MINOR_SHAPES = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from(sorted({1, max(n - 1, 1), n})) | st.integers(1, n),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
)


@settings(max_examples=100)
@given(shape=_MINOR_SHAPES)
def test_minor_face_counts_from_the_parent_patterns(shape):
    # minor_f_matrices restricts V's own faces; the minors' own enumerations
    # are the oracle, for every column i
    n, r, seed, pointed = shape
    v = gen_random(n, r, seed, pointed=pointed)
    if r >= 2:
        assert minor_f_matrices(v, "contract") == [f_matrix(contract(v, i)) for i in range(1, n + 1)]
    if n > r:
        assert minor_f_matrices(v, "delete") == [f_matrix(delete(v, i)) for i in range(1, n + 1)]
