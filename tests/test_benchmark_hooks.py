"""The source lines that perfbench/selftest.py patches are still in the library.

The self-test breaks a copy of ``src/`` by replacing exact source strings;
if a refactor removes one, the self-test stops at that breakage instead of
showing that the benchmark notices it.  This reads the self-test's
``BREAKAGES`` table without importing or running it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST = ROOT / "perfbench" / "selftest.py"
LIBRARY = ROOT / "src" / "padic_kas"


def breakages():
    """(name, file under src/padic_kas, old string) for every patch the self-test makes."""
    tree = ast.parse(SELFTEST.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BREAKAGES"]:
            table = ast.literal_eval(node.value)
            return [
                (name, filename, old)
                for name, (filename, edits, _) in table.items()
                for old, _ in edits
            ]
    raise AssertionError(f"{SELFTEST} defines no BREAKAGES")


HOOKS = breakages()


def test_the_self_test_patches_something():
    assert len({name for name, _, _ in HOOKS}) >= 4


@pytest.mark.parametrize(
    "name,filename,old", HOOKS, ids=[f"{f}:{i}" for i, (_, f, _) in enumerate(HOOKS)]
)
def test_each_patched_line_is_present(name, filename, old):
    assert old in (LIBRARY / filename).read_text(encoding="utf-8"), name
