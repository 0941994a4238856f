"""Straight-line motion: event detection, classification, the traced g."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from arrlevels import config, motion
from arrlevels.config import gen_cyclic, gen_random, integer_columns, is_pointed, new_config
from arrlevels.errors import BudgetExhaustedError, GeneralPositionError, GenericityError
from arrlevels.faces import f_matrix
from arrlevels.exactnum import Mat, det
from arrlevels.gmatrix import g_from_fmatrices, g_of_pair
from arrlevels.motion import (
    _canonical_type,
    _cross_polys,
    _det_poly,
    _moving_columns,
    classify_event,
    detect_mutations,
    events_to_json,
    g_from_motion,
    gap_samples,
    interpolated_config,
    mutation_rich_path,
    perturb,
)
from arrlevels.poly2 import BiPoly


V2 = new_config(2, 2, [(1, 0), (0, 1)])
W2 = new_config(2, 2, [(1, 0), (1, -1)])

V3 = new_config(2, 3, [(1, 0), (0, 1), (-1, -1)])
W3_BAD = new_config(2, 3, [(1, 0), (0, 1), (1, 1)])
W3 = new_config(2, 3, [(1, 0), (0, 1), (1, Fraction(9, 10))])


def test_single_rotation_event():
    path = detect_mutations(V2, W2)
    assert len(path.events) == 1
    ev = path.events[0]
    assert ev.subset == (1, 2)
    a, b = ev.interval
    assert a < Fraction(1, 2) < b
    assert ev.type_jk == (1, 0)
    assert ev.sign_flip == (1, -1)
    assert g_from_motion(V2, W2).is_zero()


def test_shared_root_is_rejected():
    with pytest.raises(GenericityError) as info:
        detect_mutations(V3, W3_BAD)
    assert set(info.value.subsets) == {(1, 3), (2, 3)}


def test_two_event_trace():
    path = detect_mutations(V3, W3)
    assert [ev.subset for ev in path.events] == [(2, 3), (1, 3)]
    first, second = path.events
    assert first.interval[0] < Fraction(1, 2) < first.interval[1]
    assert second.interval[0] < Fraction(10, 19) < second.interval[1]
    assert first.type_jk == (0, 0)
    assert second.type_jk == (1, 0)
    assert first.sign_flip == (1, -1)
    assert second.sign_flip == (-1, 1)


def test_traced_g_matches_algebraic():
    g = g_from_motion(V3, W3)
    assert g.rows == ((1, -1), (0, 0), (-1, 1))
    assert g.rows == g_of_pair(V3, W3).rows


def test_classification_antipodal_symmetry():
    path = detect_mutations(V3, W3)
    r, n = path.start.r, path.start.n
    for idx, ev in enumerate(path.events):
        jk = classify_event(path, idx)
        anti = classify_event(path, idx, antipodal=True)
        assert anti == (r - jk[0], n - r - jk[1])
        assert ev.type_jk == min(jk, anti)


def test_intervals_disjoint_and_sorted():
    path = detect_mutations(V3, W3)
    for prev, nxt in zip(path.events, path.events[1:]):
        assert prev.interval[1] <= nxt.interval[0]


def test_gap_samples_bracket_events():
    path = detect_mutations(V3, W3)
    samples = gap_samples([ev.interval for ev in path.events])
    assert len(samples) == len(path.events)
    assert path.events[0].interval[1] < samples[0] < path.events[1].interval[0]
    assert path.events[-1].interval[1] < samples[-1] < Fraction(1)


def test_f_constant_between_events():
    path = detect_mutations(V3, W3)
    samples = gap_samples([ev.interval for ev in path.events])
    # interval endpoints are certified non-roots, so they sit inside gaps
    first_gap = path.events[0].interval[0]
    assert f_matrix(interpolated_config(V3, W3, first_gap)).rows == f_matrix(V3).rows
    assert f_matrix(interpolated_config(V3, W3, samples[-1])).rows == f_matrix(W3).rows
    middle_a = path.events[0].interval[1]
    middle_b = samples[0]
    assert (
        f_matrix(interpolated_config(V3, W3, middle_a)).rows
        == f_matrix(interpolated_config(V3, W3, middle_b)).rows
    )


def _single_event_delta(j: int, k: int, r: int, n: int) -> BiPoly:
    x, y = BiPoly.var_x(), BiPoly.var_y()
    xp1 = x.add(BiPoly.const(1))
    xpy = x.add(y)
    bracket = xp1.pow(r - j).mul(xpy.pow(j)).sub(xp1.pow(j).mul(xpy.pow(r - j)))
    return y.pow(k).sub(y.pow(n - r - k)).mul(bracket)


def test_per_event_f_jump_matches_type():
    path = detect_mutations(V3, W3)
    samples = gap_samples([ev.interval for ev in path.events])
    befores = [path.events[0].interval[0]] + samples[:-1]
    r, n = 2, 3
    for idx in range(len(path.events)):
        before = f_matrix(interpolated_config(V3, W3, befores[idx]))
        after = f_matrix(interpolated_config(V3, W3, samples[idx]))
        j, k = classify_event(path, idx)
        want = _single_event_delta(j, k, r, n)
        got = BiPoly.zero()
        for s in range(r):
            for t in range(n + 1):
                got = got.add(BiPoly.monomial(s, t, after.entry(s, t) - before.entry(s, t)))
        assert got == want


def test_canonical_type_never_mirrors_j():
    # g_from_motion adds each event at row j with no sign for a mirrored j;
    # that is sound only while every canonical type has j <= r/2
    for r in range(1, 9):
        for n in range(r, 15):
            for j in range(r + 1):
                for k in range(n - r + 1):
                    cj, ck = _canonical_type((j, k), r, n)
                    assert 2 * cj <= r, (r, n, j, k)
                    assert (cj, ck) in ((j, k), (r - j, n - r - k))


def test_flip_sign_at_interval_ends():
    path = detect_mutations(V3, W3)
    for ev in path.events:
        assert ev.sign_flip in ((1, -1), (-1, 1))


def test_identity_motion_has_no_events():
    path = detect_mutations(V3, V3)
    assert path.events == ()
    assert g_from_motion(V3, V3).is_zero()


def test_interpolation_endpoints_and_degenerate_point():
    assert interpolated_config(V3, W3, 0).mat.entries == V3.mat.entries
    assert interpolated_config(V3, W3, 1).mat.entries == W3.mat.entries
    with pytest.raises(GeneralPositionError):
        interpolated_config(V3, W3, Fraction(1, 2))


def test_vanishing_column_is_caught_in_square_case():
    v = new_config(2, 2, [(1, 0), (0, 1)])
    w = new_config(2, 2, [(-1, 0), (0, 1)])
    with pytest.raises(GenericityError) as info:
        detect_mutations(v, w)
    assert (1,) in info.value.subsets


def test_perturb_identity_and_determinism():
    same = perturb(W3_BAD, seed=5, magnitude=Fraction(0))
    assert same.mat.entries == W3_BAD.mat.entries
    a = perturb(W3_BAD, seed=5)
    b = perturb(W3_BAD, seed=5)
    assert a.mat.entries == b.mat.entries
    bound = Fraction(1, 10**6)
    for i in range(2):
        for jj in range(3):
            assert abs(a.mat.entries[i][jj] - W3_BAD.mat.entries[i][jj]) <= bound


def test_perturb_names_its_attempts_and_the_last_dependent_subset(monkeypatch):
    # every perturbed configuration gets its first column twice
    real = config.new_config
    monkeypatch.setattr(config, "new_config", lambda r, n, cols: real(r, n, [cols[0], *cols[:-1]]))
    with pytest.raises(BudgetExhaustedError) as info:
        perturb(W3, seed=1)
    assert str(info.value) == (
        "could not restore general position while perturbing in 1000 attempts;"
        " in the last, columns [1, 2] were linearly dependent"
    )


def test_perturb_restores_genericity():
    w = perturb(W3_BAD, seed=1)
    path = detect_mutations(V3, w)
    assert len(path.events) == 2
    assert g_from_motion(V3, w).rows == g_of_pair(V3, w).rows


def test_trace_json_shape():
    out = events_to_json(detect_mutations(V3, W3))
    assert [e["R"] for e in out] == [[2, 3], [1, 3]]
    for e in out:
        assert e["flip"] in ("+-", "-+")
        assert len(e["interval"]) == 2
        assert all(isinstance(x, str) for x in e["interval"])
        j, k = e["type"]
        assert 0 <= j <= 2 and 0 <= k <= 1


def test_rich_path_names_its_attempts_and_the_types_still_missing(monkeypatch):
    # segments that realise no event leave every required type missing
    monkeypatch.setattr(motion, "_run_segments", lambda configs: (configs, set()))
    with pytest.raises(BudgetExhaustedError) as info:
        mutation_rich_path(6, 3, seed=0)
    assert str(info.value) == (
        "sweep construction failed to cover all types in 12 attempts;"
        " in the last, types [(1, 0), (1, 1)] were still missing"
    )


def test_rich_path_small_case():
    configs = mutation_rich_path(5, 3, seed=42)
    assert len(configs) >= 2
    assert all(is_pointed(c) for c in configs)
    seen = set()
    for a, b in zip(configs, configs[1:]):
        path = detect_mutations(a, b)
        assert len(path.events) == 1
        seen.add(path.events[0].type_jk)
    assert (1, 0) in seen


def test_rich_path_trivial_for_low_rank():
    only, = mutation_rich_path(4, 2, seed=3)
    assert integer_columns(only) == integer_columns(gen_cyclic(4, 2))
    assert len(mutation_rich_path(3, 3, seed=3)) == 1


def test_random_pairs_motion_equals_algebra():
    for seed in (11, 12):
        v = gen_random(5, 3, seed=seed)
        w = gen_random(5, 3, seed=seed + 100)
        try:
            g = g_from_motion(v, w)
        except GenericityError:
            w = perturb(w, seed=seed)
            g = g_from_motion(v, w)
        assert g.rows == g_of_pair(v, w).rows


def _scalar_cross(cols: list[tuple[Fraction, ...]], r: int) -> list[Fraction]:
    # u_c = (-1)^c det(columns without coordinate c), by Bareiss over Mat
    out = []
    for c in range(r):
        rows = tuple(tuple(col[i] for col in cols) for i in range(r) if i != c)
        out.append((-1) ** c * det(Mat(r - 1, r - 1, rows)))
    return out


def _scales(v, w, idxs) -> int:
    # a moving column is scaled by the lcm of its endpoint denominators
    out = 1
    for j in idxs:
        out *= math.lcm(*(x.denominator for x in v.mat.col(j) + w.mat.col(j)))
    return out


@pytest.mark.parametrize("n,r", [(1, 1), (3, 1), (4, 2), (5, 3), (6, 4), (8, 5)])
@pytest.mark.parametrize("kind", ["plain", "pointed", "perturbed"])
def test_motion_polynomials_match_pointwise_determinants(n, r, kind):
    pointed = kind == "pointed"
    v = gen_random(n, r, seed=n + r, pointed=pointed)
    if kind == "perturbed":
        w = perturb(v, seed=3, magnitude=1)
    else:
        w = gen_random(n, r, seed=n + r + 100, pointed=pointed)
    # r+2 points fix a polynomial of degree <= r+1, so agreement is equality
    times = [Fraction(2 * i - 1, 3) for i in range(r + 2)]
    configs = [interpolated_config(v, w, t) for t in times]
    cols = _moving_columns(v, w)
    for subset in combinations(range(n), r):
        poly = _det_poly(cols, subset)
        assert poly.degree <= r
        for t, cfg in zip(times, configs):
            assert poly(t) == _scales(v, w, subset) * det(cfg.mat.select_cols(subset))
    for small in combinations(range(n), r - 1):
        polys = _cross_polys(cols, small)
        assert len(polys) == r and all(q.degree <= r - 1 for q in polys)
        for t, cfg in zip(times, configs):
            want = _scalar_cross([cfg.mat.col(j) for j in small], r) if small else [1]
            assert [q(t) for q in polys] == [_scales(v, w, small) * x for x in want]


@settings(max_examples=150)
@given(
    shape=st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 4)))),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(0, 99)),
    pointed=st.booleans(),
)
def test_motion_route_equals_algebra_after_perturb(shape, seeds, pointed):
    # the traced route against the f-matrix route on a perturbed target
    n, r = shape
    sv, sw, sp = seeds
    v = gen_random(n, r, sv, pointed=pointed)
    w = perturb(gen_random(n, r, sw, pointed=pointed), seed=sp)
    try:
        g = g_from_motion(v, w)
    except GenericityError:
        reject()
    assert g == g_from_fmatrices(f_matrix(v), f_matrix(w))
