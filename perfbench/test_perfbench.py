"""Tests of the benchmark itself: its output checks catch corrupted results
(negative controls), its tracer's self-time arithmetic, and its refusal to
report without the library.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from worker import check_all, run_op  # noqa: E402
from arrlevels import exactnum, faces, motion  # noqa: E402
from arrlevels.gmatrix import GMatrix  # noqa: E402


def _one(wl):
    inp = wl.inputs(1)[0]
    return inp, wl.op(inp)


def _failures(wl, inp, out):
    return check_all(wl, [(inp, out, 0.0)])


def test_dual_count_corrupted_result_fails(tmp_path):
    wl = workloads.DualCount(1, tmp_path)
    inp, (fm, fsm) = _one(wl)
    assert _failures(wl, inp, (fm, fsm)) == []
    rows = [list(r) for r in fsm.rows]
    rows[-1][0] += 1
    bad = faces.FStarMatrix(fsm.r, fsm.n, tuple(map(tuple, rows)))
    assert len(_failures(wl, inp, (fm, bad))) == 1


def test_motion_trace_corrupted_result_fails(tmp_path):
    wl = workloads.MotionTrace(1, tmp_path)
    inp, (target, g) = _one(wl)
    assert _failures(wl, inp, (target, g)) == []
    assert len(_failures(wl, inp, (target, g.neg()))) == 1
    assert len(_failures(wl, inp, (target, GMatrix(g.r, g.n, g.rows[::-1])))) == 1


def test_identity_check_report_not_holding_fails(tmp_path):
    wl = workloads.IdentityCheck(1, tmp_path)
    inp, held = _one(wl)
    assert _failures(wl, inp, held) == []
    assert len(_failures(wl, inp, dict(held, contract=False))) == 1


def test_cli_session_corrupted_output_fails(tmp_path):
    wl = workloads.CliSession(1, tmp_path / "work")
    faces_cmd = ("faces", ["c53.json"])
    g_cmd = ("g", ["--from", "co53.json", "--to", "cy53.json", "--via", "both"])
    assert _failures(wl, faces_cmd, (0, workloads.README_FACES_C53)) == []
    assert _failures(wl, g_cmd, (0, workloads.README_G_BOTH)) == []
    reformatted = json.dumps(json.loads(workloads.README_FACES_C53)) + "\n"
    assert len(_failures(wl, faces_cmd, (0, reformatted))) == 1
    assert len(_failures(wl, g_cmd, (1, workloads.README_G_BOTH))) == 1
    verify = ("verify", ["--relation", "ds", "c53.json"])
    assert len(_failures(wl, verify, (0, '{"reports": [], "all_hold": false}\n'))) == 1
    assert len(_failures(wl, verify, (0, "not json"))) == 1
    motion_cmd = ("motion", ["--from", "co53.json", "--to", "cy53.json", "--trace"])
    assert len(_failures(wl, motion_cmd, (0, "[]\n"))) == 1


def test_raising_op_counts_as_failure(tmp_path):
    wl = workloads.DualCount(1, tmp_path)

    def boom(_):
        raise ValueError("corrupted")

    out = run_op(boom, None)
    assert _failures(wl, None, out) == ["op 0: ValueError: corrupted"]


def test_self_time_subtracts_child_spans():
    tr = tracer_mod.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    by_name = {}
    for _, sid, parent, name, start, end in tr.spans:
        by_name.setdefault(name, []).append((sid, parent, end - start))
    (outer_id, outer_parent, outer_dur), = by_name["outer"]
    assert outer_parent is None
    assert [p for _, p, _ in by_name["inner"]] == [outer_id] * 3
    child = sum(d for _, _, d in by_name["inner"])
    assert tr.self_s["outer"] == pytest.approx(outer_dur - child, abs=1e-9)
    assert tr.self_s["inner"] == pytest.approx(child, abs=1e-9)
    assert (tr.calls["outer"], tr.calls["inner"]) == (1, 3)


def test_install_rebinds_every_importer_and_uninstall_restores():
    orig = exactnum.isolate_roots
    assert motion.isolate_roots is orig
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert exactnum.isolate_roots is not orig
        assert motion.isolate_roots is exactnum.isolate_roots
    finally:
        tr.uninstall()
    assert exactnum.isolate_roots is orig and motion.isolate_roots is orig


def test_run_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dual-count", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
