"""Acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run with ``pytest -s`` to see them) including elapsed time.
All comparisons are exact; no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from arrlevels.config import (
    gen_cocyclic,
    gen_cyclic,
    gen_random,
    is_coneighborly,
    is_neighborly,
    is_pointed,
    new_config,
)
from arrlevels.errors import GenericityError
from arrlevels.faces import (
    FMatrix,
    dependency_patterns,
    f_matrix,
    f_polynomial,
    farkas_complement_oracle,
    fstar_from_patterns,
    fstar_matrix,
    fstar_polynomial,
)
from arrlevels.gmatrix import (
    check_contraction_deletion,
    g_closed_form_neighborly,
    g_from_fmatrices,
    small_from_full,
)
from arrlevels.motion import detect_mutations, g_from_motion, mutation_rich_path, perturb
from arrlevels.relations import (
    check_antipodal,
    check_dehn_sommerville,
    check_totals,
    f_fstar_transform,
)
from arrlevels.span import f_affine_span_rank, g_span_rank, theoretical_dim


@contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"criterion {num:2d} {label}: FAIL")
        raise
    print(f"criterion {num:2d} {label}: PASS ({elapsed:.2f}s)")


def test_01_face_totals():
    with criterion(1, "face totals", 1.0):
        fm = f_matrix(gen_cyclic(6, 3))
        assert [sum(row) for row in fm.rows] == [32, 60, 30]


def test_02_level_count_symmetry():
    with criterion(2, "level count symmetry", 60.0):
        checked = 0
        for r in (2, 3, 4, 5):
            for n in range(r, r + 5):
                for s in range(5):
                    v = gen_random(n, r, seed=1000 + 97 * r + 13 * n + s)
                    assert check_dehn_sommerville(v).holds
                    checked += 1
        assert checked == 100


def test_03_duality():
    with criterion(3, "duality", 120.0):
        checked = 0
        for r in (2, 3, 4):
            for n in range(r, 8):
                for s in (0, 1):
                    v = gen_random(n, r, seed=3000 + 31 * r + 7 * n + s)
                    assert dependency_patterns(v) == farkas_complement_oracle(v)
                    p = f_polynomial(f_matrix(v))
                    fwd = f_fstar_transform(p, n, r, "f_to_fstar")
                    gale = fstar_from_patterns(dependency_patterns(v), r, n)
                    assert fwd == fstar_polynomial(gale)
                    assert fstar_matrix(v).rows == gale.rows
                    assert f_fstar_transform(fwd, n, r, "fstar_to_f") == p
                    checked += 1
        assert checked == 30


def test_04_count_differences_path_independent():
    with criterion(4, "count differences match traced motion", 300.0):
        checked = 0
        for n, r in ((4, 2), (5, 3), (6, 3), (6, 4)):
            for i in range(5):
                v = gen_random(n, r, seed=4000 + 100 * n + 2 * i)
                w = gen_random(n, r, seed=4001 + 100 * n + 2 * i)
                traced = None
                for pseed in (0, 1, 2, 3):
                    target = w if pseed == 0 else perturb(w, seed=pseed)
                    try:
                        traced = g_from_motion(v, target)
                    except GenericityError:
                        continue
                    w = target
                    break
                assert traced is not None
                assert traced.rows == g_from_fmatrices(f_matrix(v), f_matrix(w)).rows
                checked += 1
        assert checked == 20


def test_05_closed_form():
    with criterion(5, "closed form", 60.0):
        for n, r in ((5, 3), (6, 3), (7, 3), (7, 4)):
            g = g_from_fmatrices(
                f_matrix(gen_cocyclic(n, r)), f_matrix(gen_cyclic(n, r))
            )
            assert small_from_full(g).rows == g_closed_form_neighborly(n, r).rows
        g53 = g_from_fmatrices(f_matrix(gen_cocyclic(5, 3)), f_matrix(gen_cyclic(5, 3)))
        assert small_from_full(g53).rows == ((1,), (2,))


def test_06_contraction_deletion():
    with criterion(6, "contraction and deletion sums", 120.0):
        for i in range(10):
            v = gen_random(6, 3, seed=6000 + 2 * i)
            w = gen_random(6, 3, seed=6001 + 2 * i)
            assert check_contraction_deletion(v, w, "contract").holds
            assert check_contraction_deletion(v, w, "delete").holds


def test_07_span_dimensions():
    with criterion(7, "span dimensions", 300.0):
        for n, r in ((6, 3), (7, 3), (7, 4), (8, 5)):
            for mode in ("general", "pointed"):
                dim = theoretical_dim(n, r, mode)
                rg = g_span_rank(n, r, mode, samples=dim + 6, seed=0)
                rf = f_affine_span_rank(n, r, mode, samples=dim + 6, seed=0)
                assert rg.achieved_rank == dim, (n, r, mode, "g")
                assert rf.achieved_rank == dim, (n, r, mode, "f")
        assert theoretical_dim(7, 3, "general") == 4
        assert theoretical_dim(7, 3, "pointed") == 2


def _circle_hexagon(seed: int):
    # six rational points on the unit circle via the tangent half-angle map,
    # lifted to homogeneous coordinates
    rng = random.Random(seed)
    ts = sorted(Fraction(x, 100) for x in rng.sample(range(-99, 100), 6))
    cols = []
    for t in ts:
        x = (1 - t * t) / (1 + t * t)
        y = 2 * t / (1 + t * t)
        cols.append((1, x, y))
    return new_config(3, 6, cols)


def test_08_rigidity():
    with criterion(8, "rigidity of extreme counts", 60.0):
        base = f_matrix(gen_cyclic(6, 3)).rows
        rng = random.Random(88)
        samples = []
        for _ in range(5):
            xs = sorted(rng.sample(range(-60, 60), 6))
            samples.append(gen_cyclic(6, 3, params=xs))
        for i in range(5):
            samples.append(_circle_hexagon(800 + i))
        assert len(samples) == 10
        for v in samples:
            assert is_pointed(v) and is_neighborly(v)
            assert f_matrix(v).rows == base
        cobase = f_matrix(gen_cocyclic(6, 3)).rows
        for i in range(5):
            xs = sorted(rng.sample(range(-60, 60), 6))
            w = gen_cocyclic(6, 3, params=xs)
            assert is_coneighborly(w)
            assert f_matrix(w).rows == cobase


def test_09_mutation_coverage():
    with criterion(9, "mutation type coverage", 300.0):
        path = mutation_rich_path(8, 5, seed=42)
        assert len(path) >= 2
        for v in path:
            assert all(v.column(i)[0] == 1 for i in range(1, v.n + 1))
        assert is_pointed(path[0]) and is_pointed(path[-1])
        seen = set()
        for a, b in zip(path, path[1:]):
            for ev in detect_mutations(a, b).events:
                seen.add(ev.type_jk)
        assert {(1, 0), (1, 1), (2, 0), (2, 1)} <= seen


def test_10_negative_control():
    with criterion(10, "negative control", 1.0):
        fm = f_matrix(gen_cyclic(4, 2))
        for s in range(fm.d + 1):
            for t in range(fm.n + 1):
                rows = [list(row) for row in fm.rows]
                rows[s][t] += 1
                bad = FMatrix(fm.d, fm.n, tuple(tuple(row) for row in rows))
                reports = [
                    check_antipodal(bad),
                    check_totals(bad),
                    check_dehn_sommerville(bad),
                ]
                failed = [rep for rep in reports if not rep.holds]
                assert failed, (s, t)
                assert all(rep.witness for rep in failed)
