"""CLI goldens: replayed commands must reproduce stdout, exit codes and files byte for byte.

The goldens under ``golden/`` come from the benchmark's ``cli`` script at
seed 1; ``golden/regenerate.py`` says how they were made.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from padic_kas.cli import SEED_ENV_VAR, cli_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def test_goldens_cover_the_script():
    assert len(COMMANDS) == 22
    assert {c["argv"][0] for c in COMMANDS} == {
        "encode", "decode", "phi", "psi", "interleave", "deinterleave",
        "superpose", "build-g", "build-h", "emit-cantor", "verify",
    }


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for table in (GOLDEN / "tables").iterdir():
        shutil.copyfile(table, tmp_path / table.name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    return tmp_path


@pytest.mark.parametrize(
    "record", COMMANDS, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(COMMANDS)]
)
def test_command_matches_golden(record, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_dispatch(record["argv"])
    assert code == record["exit"]
    assert out.getvalue() == record["stdout"]
    for name in record["files"]:
        assert (workdir / name).read_bytes() == (GOLDEN / "out" / name).read_bytes(), name
