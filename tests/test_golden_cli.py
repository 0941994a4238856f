"""Pinned CLI runs: sha256 digests of stdout, stderr and exit code.

The commands exercise contraction, deletion, Gale duality and span ranks
through the command line, so a change to how minors, duals or ranks are
computed has to keep every byte those commands print.
"""

from __future__ import annotations

import hashlib

import pytest

from arrlevels import cli

# file name -> gen arguments; random pairs at (8,4) and a pointed pair at (7,3)
_CONFIGS = {
    "c53.json": ["--kind", "cyclic", "--n", "5", "--r", "3"],
    "a84.json": ["--kind", "random", "--n", "8", "--r", "4", "--seed", "801"],
    "b84.json": ["--kind", "random", "--n", "8", "--r", "4", "--seed", "802"],
    "c84.json": ["--kind", "random", "--n", "8", "--r", "4", "--seed", "803"],
    "d84.json": ["--kind", "random", "--n", "8", "--r", "4", "--seed", "804"],
    "p73.json": ["--kind", "random", "--n", "7", "--r", "3", "--seed", "701", "--pointed"],
    "q73.json": ["--kind", "random", "--n", "7", "--r", "3", "--seed", "702", "--pointed"],
}

_PAIRS = (("a84.json", "b84.json"), ("c84.json", "d84.json"), ("p73.json", "q73.json"))

COMMANDS = {
    **{
        f"{rel}-{src[:3]}-{dst[:3]}": ["verify", "--relation", rel, "--from", src, "--to", dst]
        for rel in ("contraction", "deletion")
        for src, dst in _PAIRS
    },
    "duality-c53": ["verify", "--relation", "duality", "c53.json"],
    "duality-a84": ["verify", "--relation", "duality", "a84.json"],
    "fstar-gale-c53": ["fstar", "c53.json", "--oracle", "gale"],
    "fstar-gale-a84": ["fstar", "a84.json", "--oracle", "gale"],
    "fstar-both-a84": ["fstar", "a84.json", "--oracle", "both"],
    "span-7-3": ["span", "--n", "7", "--r", "3", "--samples", "10", "--seed", "0"],
    "span-7-3-pointed": ["span", "--n", "7", "--r", "3", "--samples", "6", "--seed", "3", "--pointed"],
    "span-dim-7-3": ["verify", "--relation", "span-dim", "--n", "7", "--r", "3"],
    "span-dim-7-3-pointed": ["verify", "--relation", "span-dim", "--n", "7", "--r", "3", "--pointed"],
}

GOLDEN = {
    "contraction-a84-b84": "0b6a300f4130a6f472a48e58742f2acbd18ddbbd6cf439cb4bfae2d631a8e8a5",
    "contraction-c84-d84": "0b6a300f4130a6f472a48e58742f2acbd18ddbbd6cf439cb4bfae2d631a8e8a5",
    "contraction-p73-q73": "0b6a300f4130a6f472a48e58742f2acbd18ddbbd6cf439cb4bfae2d631a8e8a5",
    "deletion-a84-b84": "fb94808d33875868584e198b3d47479066e78576373f5a12ba1fbe214a848564",
    "deletion-c84-d84": "fb94808d33875868584e198b3d47479066e78576373f5a12ba1fbe214a848564",
    "deletion-p73-q73": "fb94808d33875868584e198b3d47479066e78576373f5a12ba1fbe214a848564",
    "duality-a84": "67ee0ca39804361a39798d7d5c05f73bb4958d3d088338676d3187672eac533c",
    "duality-c53": "67ee0ca39804361a39798d7d5c05f73bb4958d3d088338676d3187672eac533c",
    "fstar-both-a84": "1396d63037a99449db7644a163bb6fa0a4524bc9caba013a5464b1a5e55775da",
    "fstar-gale-a84": "f3e34392e9a33befacbc9aa3ade778f8d1508475b60d02596edc3e4b617f1b90",
    "fstar-gale-c53": "6e2b90af796ba35d1c654411e7b2e260428d8ce219547ec286cb76d605059e70",
    "span-7-3": "e6dc1540792ee246c4105b3481e6c7fb32c925d0451af9c0eb187e097114a23d",
    "span-7-3-pointed": "cd4048f2ff794d2cf3e36ff9ca5ce62ed48d32523c05bd1caa439091995e05ae",
    "span-dim-7-3": "7faae62d6cd6eba63fb497b03aa323c9f9fe0aa8b37b034a1a105c02cca9e275",
    "span-dim-7-3-pointed": "7faae62d6cd6eba63fb497b03aa323c9f9fe0aa8b37b034a1a105c02cca9e275",
}


@pytest.fixture
def workdir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in _CONFIGS.items():
        assert cli.main(["gen", *argv, "-o", name]) == 0
    capsys.readouterr()
    return tmp_path


def test_commands_are_the_pinned_ones():
    assert sorted(COMMANDS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_digest(capsys, workdir, name):
    code = cli.main(COMMANDS[name])
    captured = capsys.readouterr()
    blob = f"{code}\n{captured.out}\0{captured.err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[name]
