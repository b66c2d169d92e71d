"""The runtime's import boundary and its class idiom, read from the source with ast.

Nothing here imports the package.  It takes no dependency outside the
standard library, and the benchmark imports nothing from the tests, so that
either can change alone.  Every record is a ``core.named_tuple``.
"""

import ast
import builtins
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


# The hand-written classes besides the exceptions: the one callable, whose
# values from_table fills once, and the lazy seeded draw, which needs a
# cached_property.
CLASSES = {"superposition.py": {"CylinderFunction"}, "verify.py": {"_Draws"}}


def is_named_tuple(node):
    """Whether a class statement is decorated with ``named_tuple(...)``."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "named_tuple"
        for d in node.decorator_list
    )


def is_exception(node, defined):
    """Whether every base of a class is a builtin exception or a class in ``defined``."""
    names = [base.id for base in node.bases if isinstance(base, ast.Name)]
    return len(names) == len(node.bases) > 0 and all(
        name in defined or issubclass(getattr(builtins, name, type), BaseException)
        for name in names
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_record_is_a_named_tuple(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in classes}
    other = [
        node.name
        for node in classes
        if not is_named_tuple(node)
        and node.name not in CLASSES.get(path.name, ())
        and not (path.name == "errors.py" and is_exception(node, defined))
    ]
    assert not other, f"{path.name} hand-writes {other}"


def test_every_source_is_read():
    assert len(SOURCES) > 1 and len(BENCH_SOURCES) > 1
