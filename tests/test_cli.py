"""End-to-end checks of the command line front end."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from arrlevels import cli, motion, relations
from arrlevels.config import config_from_json
from arrlevels.faces import FStarMatrix, f_matrix
from arrlevels.gmatrix import GMatrix
from arrlevels.relations import RelationReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(capsys, tmp_path, name, argv_tail):
    path = tmp_path / name
    code, out, err = run(capsys, ["gen", *argv_tail, "-o", str(path)])
    assert code == 0, err
    return str(path)


@pytest.fixture
def cyclic63(capsys, tmp_path):
    return write_config(
        capsys, tmp_path, "c63.json", ["--kind", "cyclic", "--n", "6", "--r", "3"]
    )


@pytest.fixture
def pair53(capsys, tmp_path):
    src = write_config(
        capsys, tmp_path, "co53.json", ["--kind", "cocyclic", "--n", "5", "--r", "3"]
    )
    dst = write_config(
        capsys,
        tmp_path,
        "cy53.json",
        ["--kind", "cyclic", "--n", "5", "--r", "3", "--params", "1,2,4,8,16"],
    )
    return src, dst


def test_gen_then_faces_row_sums(capsys, cyclic63):
    code, out, err = run(capsys, ["faces", cyclic63])
    assert code == 0
    obj = json.loads(out)
    sums = [sum(row) for row in obj["rows"]]
    assert sums == [32, 60, 30]


def test_gen_writes_loadable_file(capsys, cyclic63):
    v = config_from_json(json.load(open(cyclic63)))
    assert (v.n, v.r) == (6, 3)


def test_g_via_both_agreement(capsys, pair53):
    src, dst = pair53
    code, out, err = run(capsys, ["g", "--from", src, "--to", dst, "--via", "both"])
    assert code == 0, err
    obj = json.loads(out)
    assert obj["small_g"] == [[1], [2]]
    assert obj["agreement"] is True
    assert obj["via"] == "both"


def test_g_via_both_reports_disagreement(capsys, monkeypatch, pair53):
    src, dst = pair53
    detect = motion.detect_mutations

    def every_event_twice(v, w):
        path = detect(v, w)
        return motion.MotionPath(start=path.start, end=path.end, events=path.events * 2)

    monkeypatch.setattr(motion, "detect_mutations", every_event_twice)
    code, out, err = run(capsys, ["g", "--from", src, "--to", dst, "--via", "both"])
    assert code == 1
    assert '"agreement": false' in out
    assert json.loads(out)["small_g"] == [[1], [2]]
    assert "g: route disagreement" in err


def test_g_via_motion_nongeneric_path_is_input_error(capsys, tmp_path):
    src = write_config(
        capsys, tmp_path, "a.json", ["--kind", "cocyclic", "--n", "5", "--r", "3"]
    )
    dst = write_config(
        capsys, tmp_path, "b.json", ["--kind", "cyclic", "--n", "5", "--r", "3"]
    )
    code, out, err = run(capsys, ["g", "--from", src, "--to", dst, "--via", "motion"])
    assert code == 2
    assert "degenera" in err


def test_verify_ds_passes(capsys, cyclic63):
    code, out, err = run(capsys, ["verify", "--relation", "ds", cyclic63])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert obj["reports"][0]["holds"] is True


def test_verify_duality_passes(capsys, cyclic63):
    code, out, err = run(capsys, ["verify", "--relation", "duality", cyclic63])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert len(obj["reports"]) == 3


def test_verify_failure_sets_exit_one(capsys, monkeypatch, cyclic63):
    monkeypatch.setattr(
        relations,
        "check_antipodal",
        lambda v: RelationReport("antipodal", False, "forced failure"),
    )
    code, out, err = run(capsys, ["verify", "--relation", "antipodal", cyclic63])
    assert code == 1
    obj = json.loads(out)
    assert obj["all_hold"] is False
    assert obj["reports"][0]["witness"] == "forced failure"


def test_verify_span_dim_defaults(capsys):
    code, out, err = run(
        capsys, ["verify", "--relation", "span-dim", "--n", "6", "--r", "3"]
    )
    assert code == 0
    assert json.loads(out)["all_hold"] is True


def test_fstar_both_oracles_agree(capsys, cyclic63):
    code, out, err = run(capsys, ["fstar", cyclic63, "--oracle", "both"])
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_fstar_counted_and_enumerated_print_same_bytes(capsys, cyclic63):
    counted = run(capsys, ["fstar", cyclic63])
    assert counted[0] == 0
    assert run(capsys, ["fstar", cyclic63, "--oracle", "gale"]) == counted
    assert run(capsys, ["fstar", cyclic63, "--oracle", "farkas"]) == counted


def test_faces_csv_with_patterns(capsys, cyclic63):
    code, out, err = run(
        capsys, ["faces", cyclic63, "--format", "csv", "--patterns"]
    )
    assert code == 0
    expected_csv = f_matrix(config_from_json(json.load(open(cyclic63)))).to_csv()
    assert out.startswith(expected_csv + "\n")
    tail = out[len(expected_csv) + 1 :].splitlines()
    assert tail and all(re.fullmatch(r"[+\-0]{6}", line) for line in tail)


def test_motion_trace(capsys, pair53):
    src, dst = pair53
    code, out, err = run(capsys, ["motion", "--from", src, "--to", dst, "--trace"])
    assert code == 0
    events = json.loads(out)
    assert len(events) == 16
    for ev in events:
        assert set(ev) == {"R", "interval", "type", "flip"}
        assert ev["flip"] in ("+-", "-+")


def test_motion_perturb_seed_recovers(capsys, tmp_path):
    src = write_config(
        capsys, tmp_path, "a.json", ["--kind", "cocyclic", "--n", "5", "--r", "3"]
    )
    dst = write_config(
        capsys, tmp_path, "b.json", ["--kind", "cyclic", "--n", "5", "--r", "3"]
    )
    code, out, err = run(
        capsys,
        ["motion", "--from", src, "--to", dst, "--trace", "--perturb-seed", "1"],
    )
    assert code == 0
    assert len(json.loads(out)) > 0


def test_motion_requires_trace(capsys, pair53):
    src, dst = pair53
    with pytest.raises(SystemExit) as info:
        cli.main(["motion", "--from", src, "--to", dst])
    assert info.value.code == 2


def test_span_command(capsys):
    code, out, err = run(
        capsys, ["span", "--n", "6", "--r", "3", "--samples", "8", "--seed", "0"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["full_rank"] is True
    assert obj["achieved_rank"] == 4


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, ["faces", "/nonexistent/path.json"])
    assert code == 2
    assert err.startswith("error:")


def test_bad_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    code, out, err = run(capsys, ["faces", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_boolean_rank_is_input_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"r": true, "n": 2, "vectors": [["1"], ["2"]]}')
    code, out, err = run(capsys, ["faces", str(path)])
    assert code == 2
    assert out == ""
    assert "must be integers" in err


def test_random_gen_requires_seed(capsys):
    code, out, err = run(capsys, ["gen", "--kind", "random", "--n", "5", "--r", "3"])
    assert code == 2
    assert "--seed" in err


def test_params_rejected_for_random(capsys):
    code, out, err = run(
        capsys,
        ["gen", "--kind", "random", "--n", "5", "--r", "3", "--seed", "1",
         "--params", "1,2,3,4,5"],
    )
    assert code == 2


def test_output_is_byte_stable(capsys, cyclic63, pair53):
    src, dst = pair53
    first = run(capsys, ["faces", cyclic63])
    second = run(capsys, ["faces", cyclic63])
    assert first == second
    g1 = run(capsys, ["g", "--from", src, "--to", dst])
    g2 = run(capsys, ["g", "--from", src, "--to", dst])
    assert g1 == g2


# -- exit-code contract over every subcommand and every verify relation -----

_README_CONFIGS = {
    "c53.json": ["--kind", "cyclic", "--n", "5", "--r", "3"],
    "co53.json": ["--kind", "cocyclic", "--n", "5", "--r", "3"],
    "cy53.json": ["--kind", "cyclic", "--n", "5", "--r", "3", "--params", "1,2,4,8,16"],
}
_PAIR = ["--from", "co53.json", "--to", "cy53.json"]


@pytest.fixture
def readme_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in _README_CONFIGS.items():
        assert cli.main(["gen", *argv, "-o", name]) == 0
    capsys.readouterr()
    return tmp_path


def _failing(relation):
    return lambda *args: RelationReport(relation, False, "forced failure")


# name -> (argv, exit code with the library as it is, patches forcing exit 1
# as (module, attribute, replacement), argv of a usage or input error)
CONTRACT = {
    "gen": (["gen", "--kind", "cocyclic", "--n", "5", "--r", "3"], None,
            ["gen", "--kind", "cyclic", "--n", "5", "--r", "3", "--seed", "1"]),
    "faces": (["faces", "c53.json", "--patterns"], None, ["faces", "missing.json"]),
    "fstar": (["fstar", "c53.json"], None, ["fstar", "missing.json"]),
    "fstar-both": (["fstar", "c53.json", "--oracle", "both"],
                   ("faces", "farkas_complement_oracle", lambda v: []),
                   ["fstar", "missing.json", "--oracle", "both"]),
    "g": (["g", *_PAIR], None, ["g", "--from", "co53.json", "--to", "missing.json"]),
    "g-both": (["g", *_PAIR, "--via", "both"],
               ("motion", "g_from_motion", lambda v, w: SimpleNamespace(rows=())),
               ["g", "--from", "co53.json", "--to", "c53.json", "--via", "motion"]),
    "motion": (["motion", *_PAIR, "--trace"], None,
               ["motion", "--from", "missing.json", "--to", "c53.json", "--trace"]),
    "span": (["span", "--n", "6", "--r", "3", "--samples", "6", "--seed", "0"], None,
             ["span", "--n", "3", "--r", "5", "--samples", "2", "--seed", "0"]),
    "ds": (["verify", "--relation", "ds", "c53.json"],
           ("relations", "check_dehn_sommerville", _failing("dehn-sommerville")),
           ["verify", "--relation", "ds", "c53.json", "co53.json"]),
    "antipodal": (["verify", "--relation", "antipodal", "c53.json"],
                  ("relations", "check_antipodal", _failing("antipodal")),
                  ["verify", "--relation", "antipodal", *_PAIR]),
    "totals": (["verify", "--relation", "totals", "c53.json"],
               ("relations", "check_totals", _failing("totals")),
               ["verify", "--relation", "totals"]),
    "duality": (["verify", "--relation", "duality", "c53.json"],
                ("faces", "farkas_complement_oracle", lambda v: []),
                ["verify", "--relation", "duality", "missing.json"]),
    "skew": (["verify", "--relation", "skew", *_PAIR],
             ("gmatrix", "g_of_pair", lambda v, w: GMatrix(3, 5, ((1, 0, 0),) + ((0, 0, 0),) * 3)),
             ["verify", "--relation", "skew", "c53.json"]),
    "contraction": (["verify", "--relation", "contraction", *_PAIR],
                    ("gmatrix", "check_contraction_deletion", _failing("contraction")),
                    ["verify", "--relation", "contraction", "--from", "co53.json"]),
    "deletion": (["verify", "--relation", "deletion", *_PAIR],
                 ("gmatrix", "check_contraction_deletion", _failing("deletion")),
                 ["verify", "--relation", "deletion", "--to", "cy53.json"]),
    "closed-form": (["verify", "--relation", "closed-form", "--n", "6", "--r", "3"],
                    ("gmatrix", "g_closed_form_neighborly", lambda n, r: SimpleNamespace(rows=((0,),))),
                    ["verify", "--relation", "closed-form", "--n", "6"]),
    "span-dim": (["verify", "--relation", "span-dim", "--n", "6", "--r", "3"],
                 ("span", "g_span_rank",
                  lambda *a: SimpleNamespace(full_rank=False, achieved_rank=0, theoretical_dim=4)),
                 ["verify", "--relation", "span-dim", "--r", "3"]),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_exit_zero_on_every_branch(capsys, readme_dir, name):
    code, out, err = run(capsys, CONTRACT[name][0])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("name", sorted(k for k, v in CONTRACT.items() if v[1]))
def test_exit_one_on_every_check(capsys, monkeypatch, readme_dir, name):
    argv, (module, attr, replacement), _ = CONTRACT[name]
    monkeypatch.setattr(importlib.import_module(f"arrlevels.{module}"), attr, replacement)
    code, out, err = run(capsys, argv)
    assert code == 1
    obj = json.loads(out)
    assert obj.get("all_hold", obj.get("agreement")) is False


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_exit_two_on_every_branch(capsys, readme_dir, name):
    code, out, err = run(capsys, CONTRACT[name][2])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# -- hostile rationals are rejected before any arithmetic ---------------------


def _run_cli_process(cwd, *argv):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "arrlevels.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_exponent_entry_in_config_file_is_input_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"r": 2, "n": 3, "vectors": [["1", "0"], ["1e99999999", "1"], ["1", "2"]]}')
    proc = _run_cli_process(tmp_path, "faces", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "column 2 entry 1: bad rational '1e99999999'" in proc.stderr


def test_exponent_in_params_is_usage_error(tmp_path):
    proc = _run_cli_process(
        tmp_path, "gen", "--kind", "cyclic", "--n", "3", "--r", "2", "--params", "0,1,1e99999999"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: bad --params value: ")
    assert "'1e99999999'" in proc.stderr


# -- the reports of a failing verify, byte for byte ----------------------------


_EXCHANGE = relations.exchange


def _exchange_without_inverse(rows, n, sign):
    # c53 has r = 3: both directions get the f -> f* sign (-1)^3
    return _EXCHANGE(rows, n, -1)


def _report(relation, witness):
    return {"relation": relation, "holds": witness is None, "witness": witness}


def _duality(oracle, match, trip):
    return [
        _report("dependency-oracle-agreement", oracle),
        _report("transform-matches-dual-count", match),
        _report("transform-round-trip", trip),
    ]


# name -> (argv, patch as (module, attribute, replacement), the reports printed)
FAILING_REPORTS = {
    "skew": (
        ["verify", "--relation", "skew", *_PAIR],
        ("gmatrix", "g_of_pair", lambda v, w: GMatrix(3, 5, ((1, 0, 0),) + ((0, 0, 0),) * 3)),
        [_report("skew-symmetry", "negation symmetry violated")],
    ),
    "closed-form": (
        ["verify", "--relation", "closed-form", "--n", "6", "--r", "3"],
        ("gmatrix", "g_closed_form_neighborly", lambda n, r: SimpleNamespace(rows=((0,),))),
        [_report("closed-form", "small g ((1, 3), (3, 3)) differs from ((0,),)")],
    ),
    "span-dim": (
        ["verify", "--relation", "span-dim", "--n", "6", "--r", "3"],
        ("span", "g_span_rank",
         lambda *a: SimpleNamespace(full_rank=False, achieved_rank=3, theoretical_dim=4)),
        [_report("span-dim", "rank 3 below dimension 4")],
    ),
    "duality-oracle": (
        ["verify", "--relation", "duality", "c53.json"],
        ("faces", "farkas_complement_oracle", lambda v: []),
        _duality("pattern ++-+- found by one oracle only", None, None),
    ),
    "duality-match": (
        ["verify", "--relation", "duality", "c53.json"],
        ("faces", "fstar_from_patterns", lambda ps, r, n: FStarMatrix(r, n, ((0,) * (n + 1),) * (n + 1))),
        _duality(None, "transformed polynomial differs from enumerated one", None),
    ),
    "duality-round-trip": (
        ["verify", "--relation", "duality", "c53.json"],
        ("relations", "exchange", _exchange_without_inverse),
        _duality(None, None, "f -> f* -> f is not the identity"),
    ),
}


@pytest.mark.parametrize("name", sorted(FAILING_REPORTS))
def test_failing_verify_prints_pinned_reports(capsys, monkeypatch, readme_dir, name):
    argv, (module, attr, replacement), reports = FAILING_REPORTS[name]
    monkeypatch.setattr(importlib.import_module(f"arrlevels.{module}"), attr, replacement)
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    assert out == json.dumps({"reports": reports, "all_hold": False}, indent=2) + "\n"
