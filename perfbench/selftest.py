"""Self-test: each workload's checks catch a broken library.

Each test copies ``src/`` and this directory into a scratch directory under
``.perfbench/`` at the checkout root, breaks the copied library in one
place, runs one round of a workload against the copy and asserts that the
workload reports failed operations.  The repository's own ``src/`` is never
touched.  Run from the checkout root::

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

# Failed commands per round of the cli script at the parent library: the two
# malformed-table commands.
CLI_KNOWN_FAILURES = 2

# name -> (file under src/padic_kas, [(old, new)], workloads that must fail)
BREAKAGES = {
    "interleave emits the coordinates in swapped order": (
        "interleave.py",
        [("[k * K + i for i in range(K) for k in range(n)]",
          "[(n - 1 - k) * K + i for i in range(K) for k in range(n)]")],
        ("codec", "padic"),
    ),
    "eval_g returns the left neighbour's value inside a gap": (
        "superposition.py",
        [("return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * theta)", "return va")],
        ("real",),
    ),
    "build_h shifts its keys by one digit": (
        "superposition.py",
        [("key = (0,) + zdig if weights == WEIGHTS_PAPER else zdig",
          "zdig = zdig[1:] + zdig[:1]\n        "
          "key = (0,) + zdig if weights == WEIGHTS_PAPER else zdig")],
        ("padic",),
    ),
    "superpose prints match: yes on a mismatch": (
        "cli.py",
        [("superpose2(H, X)", "superpose2(H, make_point(coords[::-1]))"),
         ("superpose1(G, X)", "superpose1(G, make_point(coords[::-1]))"),
         ("match = got == direct", "match = True")],
        ("cli",),
    ),
}


def run_copy(workload, patch=None):
    """Run one round of a workload against a copy of src/, patched if asked."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
    try:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, tmp / HERE.name, ignore=ignore)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        if patch is not None:
            filename, edits = patch
            path = tmp / "src" / "padic_kas" / filename
            text = path.read_text(encoding="utf-8")
            for old, new in edits:
                if old not in text:
                    raise AssertionError(f"{filename} no longer holds {old!r}")
                text = text.replace(old, new)
            path.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(tmp / HERE.name / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise AssertionError(f"{workload} printed no result:\n{proc.stderr}")
        return proc.returncode, json.loads(lines[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class IntactLibrary(unittest.TestCase):
    def test_only_the_known_faults_fail(self):
        for workload in ("codec", "real", "padic", "cli"):
            with self.subTest(workload=workload):
                code, row = run_copy(workload)
                expected = CLI_KNOWN_FAILURES if workload == "cli" else 0
                self.assertEqual(code, 0)
                self.assertTrue(row["correct"])
                self.assertEqual(row["failed"], expected)
                self.assertGreater(row["attempted"], expected)


class MetricNames(unittest.TestCase):
    def test_rows_carry_the_metrics_that_benchmark_json_names(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", "padic",
                     "--seed", "1", "--seconds", "0", "--trace", trace],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                )
                row = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    {name: m["unit"] for name, m in row["metrics"].items()},
                    {m["name"]: m["unit"] for m in bench[key]},
                )


class BrokenLibrary(unittest.TestCase):
    def test_each_breakage_makes_its_workloads_fail(self):
        for name, (filename, edits, workloads) in BREAKAGES.items():
            for workload in workloads:
                with self.subTest(breakage=name, workload=workload):
                    code, row = run_copy(workload, (filename, edits))
                    known = CLI_KNOWN_FAILURES if workload == "cli" else 0
                    self.assertEqual(code, 1)
                    self.assertFalse(row["correct"])
                    self.assertGreater(row["failed"], known)


if __name__ == "__main__":
    unittest.main()
