"""The command line reproduces a recorded fixture byte for byte.

``cli_fixture.json`` holds the exit code and the exact stdout of about thirty
commands: symbolic and numeric invariants of every family and of generic
quartics (with ``--decompose`` and ``--golden`` where they apply), bitangents
of every family including members that fail, and determinantal
representations including a failing and an overflowing member.  Any change
to the exact arithmetic, the numeric path or the JSON layout that moves a
single byte shows up here.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_cli_fixture.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartics
from quartics.cli import main

FIXTURE = Path(__file__).with_name("cli_fixture.json")

GENERIC = [str(k + 1) for k in range(15)]
GENERIC_MIXED = "--params=-3,1/2,0,7,-5/3,2,0,0,11/4,-1,4,0,-2/7,1,9"

COMMANDS = (
    ["invariants", "--family", "X4", "--symbolic", "--decompose", "--golden"],
    ["invariants", "--family", "X16", "--symbolic", "--golden"],
    ["invariants", "--family", "X24", "--symbolic", "--golden"],
    ["invariants", "--family", "X96", "--symbolic", "--golden"],
    ["invariants", "--family", "X96"],
    ["invariants", "--family", "X4", "--params", "1", "3", "5"],
    ["invariants", "--family", "X4", "--params=-7/2,4,1/3"],
    ["invariants", "--family", "X16", "--params", "1", "3"],
    ["invariants", "--family", "X16", "--params=-7/2,1/3"],
    ["invariants", "--family", "X24", "--params", "1"],
    ["invariants", "--family", "X24", "--params=-1/3"],
    ["invariants", "--family", "generic", "--params", *GENERIC],
    ["invariants", "--family", "generic", GENERIC_MIXED],
    ["invariants", "--family", "X16", "--symbolic", "--decompose"],
    ["invariants", "--family", "X4", "--params", "1", "2", "3", "--golden"],
    ["bitangents", "--family", "X4", "--params", "1", "3", "5"],
    ["bitangents", "--family", "X4", "--params=-7/2,4,1/3"],
    ["bitangents", "--family", "X16", "--params", "1", "3"],
    ["bitangents", "--family", "X16", "--params", "7000000000001/1000000000000", "3"],
    ["bitangents", "--family", "X24", "--params", "1"],
    ["bitangents", "--family", "X96"],
    ["bitangents", "--family", "X4", "--params", "222633", "30/7", "30/7"],
    ["bitangents", "--family", "X24", "--params", "1e100"],
    ["bitangents", "--family", "X24", "--params", "2"],
    ["detrep", "--params", "1", "2", "3"],
    ["detrep", "--params=-7/2,1,3"],
    ["detrep", "--params", "0", "0", "0"],
    ["detrep", "--params=54321,-12345/7,23456"],
    ["detrep", "--params", "3", "1e200", "1"],
    ["detrep", "--params", "2", "0", "0"],
)

#: commands also replayed as fresh processes under two hash seeds
SUBPROCESS_COMMANDS = (COMMANDS[1], COMMANDS[15])


def _key(argv) -> str:
    return " ".join(argv)


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of ``quartics`` *argv*, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def records() -> dict:
    return {_key(argv): {"exit": code, "stdout": stdout}
            for argv in COMMANDS for code, stdout in [run(argv)]}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_commands(recorded):
    assert list(recorded) == [_key(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_command_reproduces_fixture(recorded, argv):
    code, stdout = run(argv)
    want = recorded[_key(argv)]
    assert code == want["exit"]
    assert stdout == want["stdout"]


@pytest.mark.parametrize("argv", SUBPROCESS_COMMANDS, ids=_key)
def test_subprocess_bytes_independent_of_hash_seed(recorded, argv):
    src = str(Path(quartics.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "quartics.cli", *argv],
                              capture_output=True, env=env)
        assert proc.returncode == recorded[_key(argv)]["exit"]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == recorded[_key(argv)]["stdout"].encode()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), indent=1) + "\n")
