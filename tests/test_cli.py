"""End-to-end checks of the command line front end."""

from __future__ import annotations

import json
import re

import pytest

from arrlevels import cli, motion
from arrlevels.config import config_from_json
from arrlevels.faces import f_matrix
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
    increment = motion._increment_rows
    monkeypatch.setattr(
        motion,
        "_increment_rows",
        lambda r, n, jk: [[-x for x in row] for row in increment(r, n, jk)],
    )
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
        cli,
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
