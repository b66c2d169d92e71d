"""Rewrite the CLI goldens from the library in ``src/``.

The goldens are the 22 passing commands of the benchmark's ``cli`` script
(``perfbench/cliscript.py``) at seed 1: their exit codes and stdout in
``commands.json``, the files they write in ``out/`` and the tables they
read in ``tables/``.  The two malformed-table commands are left out: their
output is a known fault and is meant to change.  All paths are relative to
the working directory, so no temporary path reaches the output.

Only regenerate when an output change is intended, and say why in the
commit.  Run from the checkout root::

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 1
TABLES = ("real_table.json", "padic_table.json")


def main():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cliscript
    from padic_kas.cli import cli_dispatch

    records = []
    written = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            script = cliscript.build_script(SEED, "")
            for cmd in script:
                if cmd.known_fault is not None:
                    continue
                before = set(os.listdir())
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli_dispatch(cmd.argv)
                files = sorted(set(os.listdir()) - before)
                records.append(
                    {"argv": cmd.argv, "exit": code, "stdout": out.getvalue(), "files": files}
                )
                written += files
            for sub in ("tables", "out"):
                shutil.rmtree(HERE / sub, ignore_errors=True)
                (HERE / sub).mkdir()
            for name in TABLES:
                shutil.copyfile(name, HERE / "tables" / name)
            for name in written:
                shutil.copyfile(name, HERE / "out" / name)
        finally:
            os.chdir(home)
    with open(HERE / "commands.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} commands and {len(written)} files to {HERE}")


if __name__ == "__main__":
    main()
