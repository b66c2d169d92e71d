"""The ``cli`` workload: a fixed script of ``padic-kas`` commands.

Each command runs in a fresh ``python -S -m padic_kas.cli`` process, one at
a time, and is timed from process start to exit.  ``-S`` skips the ``site``
module: the library needs nothing from site-packages, and the ``.pth`` hooks
installed there (one imports ``certifi``, 15-40 ms) would time the host's
packages, not the library.  Arguments and table files
come from the seed; every printed value, written file and report is checked
against :mod:`oracle`.

Two commands feed malformed table files that should exit 2 with a one-line
``error:``.  The library fails both every time, whatever the seed: a table
whose ``"p"`` is the string ``"2"`` raises an uncaught ``TypeError`` (exit
1 with a traceback), and a table whose ``"n"`` is ``true`` is accepted as
n=1 (exit 0).  They stay in the script and are counted as failed.
"""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

import oracle
from workloads import Round

# Seconds after which a command counts as hung; it is killed and fails.
COMMAND_TIMEOUT = 60

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def _padic(p, digits):
    return f"{p}:{len(digits)}:" + ",".join(map(str, digits))


def _cantor(q, digits):
    return f"{q}:{len(digits)}:" + ",".join(map(str, digits))


def _ratio(fr):
    return f"{fr.numerator}/{fr.denominator}"


def _digits(rng, p, K):
    return tuple(rng.randrange(p) for _ in range(K))


def _distinct_pair(rng, p, K):
    a = _digits(rng, p, K)
    b = _digits(rng, p, K)
    while b == a:
        b = _digits(rng, p, K)
    return a, b


def _one_line_error(code, out, err):
    lines = err.strip().splitlines()
    return code == 2 and len(lines) == 1 and lines[0].startswith("error:")


class Command:
    """One command line and the check its result must pass.

    ``check(code, out_lines, err_text)`` returns whether the command did
    what it should; ``known_fault`` names the library fault that makes it
    fail today, if any.
    """

    __slots__ = ("argv", "check", "known_fault")

    def __init__(self, argv, check, known_fault=None):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.known_fault = known_fault


def _prints(expected_lines):
    return lambda code, out, err: code == 0 and out == expected_lines


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report_check(path, suite, cases, also=None):
    """A verify run: exit 0, the case count computed here, passed, no failures.

    ``also``, if given, is one more check with no arguments.
    """

    def check(code, out, err):
        if code != 0 or not out:
            return False
        report = _read_json(path)
        return (
            out[0] == f"suite={suite} cases={cases} failures=0 passed=True"
            and report["suite"] == suite
            and report["cases"] == cases
            and sum(report["breakdown"].values()) == cases
            and report["passed"] is True
            and report["failures"] == []
            and (also is None or also())
        )

    return check


def _same_bytes(a, b):
    def check():
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()

    return check


def build_script(seed, workdir):
    """The script's commands and the table files they read, written to workdir."""
    rng = random.Random(seed)
    path = lambda name: os.path.join(workdir, name)
    script = []

    # Codec commands: base-q encode/decode, the spread map and its inverse.
    p, n, K = 3, 2, 5
    q = oracle.q_of(p, n)
    x = _digits(rng, p, K)
    cx = tuple(n * d for d in x)
    script.append(Command(
        ["encode", "--p", p, "--n", n, "--x", _padic(p, x)],
        _prints([_cantor(q, cx), _ratio(Fraction(oracle.horner(cx, q), q**K))]),
    ))
    script.append(Command(
        ["decode", "--p", p, "--n", n, "--cantor", _cantor(q, cx)],
        _prints([_padic(p, x)]),
    ))
    p, n, K = 2, 3, 4
    q = oracle.q_of(p, n)
    x = _digits(rng, p, K)
    spread = [0] * (n * (K - 1) + 1)
    spread[::n] = [n * d for d in x]
    script.append(Command(
        ["phi", "--p", p, "--n", n, "--x", _padic(p, x)],
        _prints([_cantor(q, spread), _ratio(Fraction(oracle.horner(spread, q), q ** len(spread)))]),
    ))
    script.append(Command(
        ["psi", "--p", p, "--n", n, "--cantor", _cantor(q, spread)],
        _prints([_padic(p, x)]),
    ))

    # Interleave commands.
    p, n, K = 3, 2, 3
    a, b = _distinct_pair(rng, p, K)
    z = oracle.to_digits(oracle.morton((a, b), p), p, n * K)
    script.append(Command(
        ["interleave", "--p", p, "--coord", _padic(p, a), "--coord", _padic(p, b)],
        _prints([_padic(p, z)]),
    ))
    script.append(Command(
        ["deinterleave", "--p", p, "--n", n, "--z", _padic(p, z)],
        _prints([_padic(p, a), _padic(p, b)]),
    ))

    # Table files: a real table at (2, 2, 2) and a p-adic table at (3, 2, 2).
    real_values = {key: rng.random() for key in product(oracle.digit_space(2, 2), repeat=2)}
    padic_values = {
        key: _digits(rng, 3, 2) for key in product(oracle.digit_space(3, 2), repeat=2)
    }
    _write_table(path("real_table.json"), 2, 2, 2, "real", real_values, lambda v: v)
    _write_table(
        path("padic_table.json"), 3, 2, 2, "padic", padic_values, lambda v: _padic(3, v)
    )
    # The two malformed tables are the same on every seed.
    _write_raw(path("bad_p.json"), {"p": "2", "n": 1, "K": 1, "codomain": "real",
               "entries": [{"x": [[0]], "value": 0.5}, {"x": [[1]], "value": 1.5}]})
    _write_raw(path("bad_n.json"), {"p": 2, "n": True, "K": 1, "codomain": "real",
               "entries": [{"x": [[0]], "value": 0.5}, {"x": [[1]], "value": 1.5}]})

    # Superpose through each representative, builtin and table.
    def superpose(p, n, K, source, own, coords, fmt):
        want = fmt(own(coords))
        args = ["superpose", "--p", p, "--n", n, "--K", K, *source]
        for c in coords:
            args += ["--coord", _padic(p, c)]
        return Command(args, _prints([f"result: {want}", f"direct: {want}", "match: yes"]))

    pad = lambda v: _padic(3, v)
    script.append(superpose(3, 2, 2, ["--function", "padic-sum"],
                            lambda c: oracle.padic_sum(c, 3, 2), _distinct_pair(rng, 3, 2), pad))
    script.append(superpose(3, 2, 2, ["--table", path("padic_table.json")],
                            padic_values.__getitem__, _distinct_pair(rng, 3, 2), pad))
    script.append(superpose(2, 2, 3, ["--function", "norm-product"],
                            lambda c: oracle.norm_product(c, 2), _distinct_pair(rng, 2, 3), repr))
    script.append(superpose(2, 2, 2, ["--table", path("real_table.json")],
                            real_values.__getitem__, _distinct_pair(rng, 2, 2), repr))

    # Representatives written to files.
    script.append(Command(
        ["build-g", "--p", 2, "--n", 2, "--K", 3, "--function", "norm-product",
         "--out", path("g.json")],
        _g_file_check(path("g.json"), 2, 2, 3, lambda c: oracle.norm_product(c, 2)),
    ))
    script.append(Command(
        ["build-h", "--p", 3, "--n", 2, "--K", 2, "--function", "padic-sum",
         "--weights", "paper", "--out", path("h_paper.json")],
        _h_file_check(path("h_paper.json"), 3, 2, 2, "paper", lambda c: oracle.padic_sum(c, 3, 2)),
    ))
    script.append(Command(
        ["build-h", "--p", 3, "--n", 2, "--K", 2, "--table", path("padic_table.json"),
         "--out", path("h_table.json")],
        _h_file_check(path("h_table.json"), 3, 2, 2, "proof", padic_values.__getitem__),
    ))
    script.append(Command(
        ["emit-cantor", "--p", 3, "--n", 2, "--L", 4, "--out", path("cantor.csv")],
        _csv_check(path("cantor.csv"), 3, 2, 4),
    ))

    # Verification suites with reports; case counts are computed here.  The
    # four heaviest commands (two roundtrips, theorem1 and extension at
    # p**(nK) >= 2**10) make up a sixth of the script, so item_ms.p90 falls
    # among them instead of on interpreter start-up jitter.
    def verify(p, n, K, suite, cases, out, extra=(), also=None):
        args = ["verify", "--p", p, "--n", n, "--K", K, "--suite", suite,
                *extra, "--out", path(out)]
        return Command(args, _report_check(path(out), suite, cases, also))

    roundtrip = 2**6 + 3 * 2**12
    script.append(verify(2, 2, 6, "roundtrip", roundtrip, "roundtrip_a.json"))
    script.append(verify(2, 2, 6, "roundtrip", roundtrip, "roundtrip_b.json",
                         also=_same_bytes(path("roundtrip_a.json"), path("roundtrip_b.json"))))
    script.append(verify(2, 2, 6, "theorem1", 2**12, "theorem1_builtin.json",
                         ["--function", "norm-product"]))
    script.append(verify(2, 2, 5, "extension", 2**10 - 1, "extension.json",
                         ["--function", "digit0-1"]))
    script.append(verify(2, 2, 2, "theorem1", 2**4, "theorem1_table.json",
                         ["--table", path("real_table.json")]))
    script.append(verify(3, 2, 2, "theorem2", 3**4, "theorem2_table.json",
                         ["--table", path("padic_table.json"), "--weights", "paper"]))
    script.append(verify(2, 2, 2, "lemma2", (2**4) ** 2, "lemma2.json"))
    script.append(verify(3, 2, 2, "holder", (3**2) ** 2 + (3**4) ** 2, "holder.json"))

    # Malformed tables: should exit 2 with a one-line error.
    script.append(Command(
        ["superpose", "--p", 2, "--n", 1, "--K", 1, "--table", path("bad_p.json"),
         "--coord", "2:1:0"],
        _one_line_error,
        known_fault='a table with "p": "2" raises an uncaught TypeError (exit 1)',
    ))
    script.append(Command(
        ["build-g", "--p", 2, "--n", 1, "--K", 1, "--table", path("bad_n.json"),
         "--out", path("bad_n_g.json")],
        _one_line_error,
        known_fault='a table with "n": true is accepted as n=1 (exit 0)',
    ))
    return script


def _write_raw(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _write_table(path, p, n, K, codomain, values, fmt):
    entries = [{"x": [list(c) for c in key], "value": fmt(v)} for key, v in values.items()]
    _write_raw(path, {"p": p, "n": n, "K": K, "codomain": codomain, "entries": entries})


def _g_file_check(path, p, n, K, own):
    def check(code, out, err):
        if code != 0:
            return False
        g = _read_json(path)
        size = p ** (n * K)
        if out != [f"wrote {size} interval values and {size - 1} gaps to {path}"]:
            return False
        if len(g["entries"]) != size or len({tuple(e["digits"]) for e in g["entries"]}) != size:
            return False
        for e in g["entries"]:
            key = e["digits"]
            coords = tuple(tuple(key[n * i + k] // n for i in range(K)) for k in range(n))
            if any(d % n for d in key) or e["value"] != own(coords):
                return False
        return True

    return check


def _h_file_check(path, p, n, K, weights, own):
    lead = 1 if weights == "paper" else 0

    def check(code, out, err):
        if code != 0:
            return False
        h = _read_json(path)
        size = p ** (n * K)
        if out != [f"wrote {size} entries to {path}"] or h["weights"] != weights:
            return False
        if len(h["entries"]) != size or len({tuple(e["z"]) for e in h["entries"]}) != size:
            return False
        for e in h["entries"]:
            z = e["z"]
            if len(z) != n * K + lead or (lead and z[0] != 0):
                return False
            zdig = z[lead:]
            coords = tuple(tuple(zdig[n * i + k] for i in range(K)) for k in range(n))
            if e["value"] != _padic(p, own(coords)):
                return False
        return True

    return check


def _csv_check(path, p, n, L):
    q = oracle.q_of(p, n)

    def check(code, out, err):
        rows = p**L
        if code != 0 or out != [f"wrote {rows} rows to {path}"]:
            return False
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        if table[0] != ["index", "rational", "decimal"] or len(table) != rows + 1:
            return False
        for i, row in enumerate(table[1:]):
            numeral = oracle.to_digits(i, p, L)[::-1]
            left = Fraction(oracle.horner([n * d for d in numeral], q), q**L)
            if row != [str(i), _ratio(left), repr(float(left))]:
                return False
        return True

    return check


class Cli:
    """The command script, each command in a fresh interpreter, one at a time.

    The commands are started by ``launcher.py`` (see there why): ``start``
    starts it, ``close`` stops it and waits for it to end.
    """

    def __init__(self, src):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.launcher = None

    def setup(self, lib, seed, workdir):
        return build_script(seed, workdir)

    def start(self):
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, "-S", str(LAUNCHER), str(COMMAND_TIMEOUT)],
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

    def close(self):
        launcher, self.launcher = self.launcher, None
        if launcher is None:
            return
        try:
            launcher.stdin.close()
            launcher.wait(timeout=COMMAND_TIMEOUT + 10)
        except (OSError, subprocess.TimeoutExpired):
            launcher.kill()
            launcher.wait()
        finally:
            launcher.stdout.close()

    def _ask(self, request):
        self.start()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the cli launcher ended before it answered")
        return json.loads(line)

    def run_command(self, cmd):
        """(exit code, stdout lines, stderr, seconds) of one child process."""
        code, out, err, seconds = self._ask(cmd.argv)
        return code, out.splitlines(), err, seconds

    def peak_rss_mb(self):
        """Peak resident size of the largest command so far, in MB."""
        return self._ask(None)

    def run_round(self, lib, script):
        return _tally(script, self.run_command)

    @staticmethod
    def dispatch_round(lib, script):
        """Replay the script in this process through ``cli_dispatch``."""

        def run(cmd):
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = lib.cli.cli_dispatch(cmd.argv)
                except Exception:
                    traceback.print_exc()
                    code = 1
            return code, out.getvalue().splitlines(), err.getvalue(), perf_counter() - t0

        return _tally(script, run)


def _tally(script, run):
    tally = Round()
    for cmd in script:
        code, out, err, seconds = run(cmd)
        tally.items.append(seconds)
        tally.cases += 1
        try:
            ok = code is not None and cmd.check(code, out, err)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            tally.failed += 1
            tally.unexpected += cmd.known_fault is None
    return tally
