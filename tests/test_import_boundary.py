"""The runtime's import boundary, read from the source with ast: nothing here imports it.

The package takes no dependency outside the standard library, and the
benchmark imports nothing from the tests, so that either can change alone.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "padic_kas").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").rglob("*.py"))


def absolute_imports(path):
    """The top-level names of every absolute import in a file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    outside = absolute_imports(path) - set(sys.stdlib_module_names) - {"padic_kas"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_package_declares_no_dependency():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    start = lines.index("[project]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    assert "dependencies = []" in lines[start:end]


@pytest.mark.parametrize("path", BENCH_SOURCES, ids=lambda path: path.name)
def test_the_benchmark_imports_nothing_from_the_tests(path):
    assert not absolute_imports(path) & {"tests", "helpers", "conftest"}


def test_every_source_is_read():
    assert len(SOURCES) > 1 and len(BENCH_SOURCES) > 1
