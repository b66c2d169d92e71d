"""Command-line dispatch: output formats and exit codes."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

from padic_kas.cli import WEIGHTS, cli_dispatch
from padic_kas.superposition import WEIGHTS_PAPER, WEIGHTS_PROOF

from helpers import table_keys


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def write_table(path, p, n, K, codomain):
    """Write a total table file at (p, n, K): real values count up from 0, p-adic ones are 0."""
    value = float if codomain == "real" else lambda i: f"{p}:{K}:" + ",".join(["0"] * K)
    entries = [
        {"x": [list(c) for c in key], "value": value(i)}
        for i, key in enumerate(table_keys(p, n, K))
    ]
    path.write_text(
        json.dumps({"p": p, "n": n, "K": K, "codomain": codomain, "entries": entries})
    )
    return str(path)


class TestCodecCommands:
    def test_encode(self, capsys):
        code, out, _ = run(capsys, "encode", "--p", "2", "--n", "2", "--x", "2:3:1,0,0")
        assert code == 0
        assert out == ["3:3:2,0,0", "2/3"]

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "decode", "--p", "2", "--n", "2", "--cantor", "3:3:2,0,0")
        assert code == 0
        assert out == ["2:3:1,0,0"]

    def test_decode_rejects_off_set_digit(self, capsys):
        code, _, err = run(capsys, "decode", "--p", "2", "--n", "2", "--cantor", "3:1:1")
        assert code == 2
        assert "multiple of 2" in err

    def test_phi_spreads_digits(self, capsys):
        code, out, _ = run(capsys, "phi", "--p", "2", "--n", "2", "--x", "2:3:1,0,0")
        assert code == 0
        assert out == ["3:5:2,0,0,0,0", "2/3"]

    def test_psi_inverts_phi(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--p", "2", "--n", "2", "--cantor", "3:5:2,0,0,0,0"
        )
        assert code == 0
        assert out == ["2:3:1,0,0"]

    def test_psi_rejects_off_stride_digits(self, capsys):
        code, _, err = run(capsys, "psi", "--p", "2", "--n", "2", "--cantor", "3:2:2,2")
        assert code == 2
        assert "spread" in err

    @pytest.mark.parametrize("command", ["decode", "psi"])
    def test_cantor_literal_without_digits_is_refused(self, capsys, command):
        code, out, err = run(capsys, command, "--p", "2", "--n", "2", "--cantor", "3:0:")
        assert code == 2
        assert out == []
        assert err == "error: level must be >= 1, got 0\n"


class TestInterleaveCommands:
    def test_interleave(self, capsys):
        code, out, _ = run(
            capsys,
            "interleave",
            "--p", "2",
            "--coord", "2:2:1,0",
            "--coord", "2:2:1,1",
        )
        assert code == 0
        assert out == ["2:4:1,1,0,1"]

    def test_deinterleave(self, capsys):
        code, out, _ = run(
            capsys, "deinterleave", "--p", "2", "--n", "2", "--z", "2:4:1,1,0,1"
        )
        assert code == 0
        assert out == ["2:2:1,0", "2:2:1,1"]

    def test_deinterleave_rejects_bad_precision(self, capsys):
        code, _, err = run(
            capsys, "deinterleave", "--p", "2", "--n", "2", "--z", "2:3:1,1,0"
        )
        assert code == 2
        assert "divisible" in err


class TestBuildCommands:
    def test_build_g_writes_table(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, out, _ = run(
            capsys,
            "build-g",
            "--p", "2", "--n", "2", "--K", "1",
            "--function", "norm-1",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "g"
        assert len(payload["entries"]) == 4
        values = {tuple(e["digits"]): e["value"] for e in payload["entries"]}
        assert values == {(0, 0): 0.0, (0, 2): 0.0, (2, 0): 1.0, (2, 2): 1.0}

    @pytest.mark.parametrize(
        "n, K, intervals, gaps", [(2, 2, 16, 15), (3, 1, 8, 7), (1, 3, 8, 0)]
    )
    def test_build_g_counts_intervals_and_gaps(self, capsys, tmp_path, n, K, intervals, gaps):
        out_path = tmp_path / "g.json"
        code, out, _ = run(
            capsys,
            "build-g",
            "--p", "2", "--n", str(n), "--K", str(K),
            "--function", "norm-1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == [f"wrote {intervals} interval values and {gaps} gaps to {out_path}"]

    def test_build_h_writes_table(self, capsys, tmp_path):
        out_path = tmp_path / "h.json"
        code, out, _ = run(
            capsys,
            "build-h",
            "--p", "2", "--n", "2", "--K", "2",
            "--function", "padic-sum",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "h"
        assert len(payload["entries"]) == 16
        values = {tuple(e["z"]): e["value"] for e in payload["entries"]}
        assert values[(1, 1, 0, 0)] == "2:2:0,1"

    def test_build_g_rejects_padic_function(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "build-g",
            "--p", "2", "--n", "2", "--K", "1",
            "--function", "padic-sum",
            "--out", str(tmp_path / "g.json"),
        )
        assert code == 2
        assert "codomain" in err

    def test_build_g_refuses_a_padic_table(self, capsys, tmp_path):
        table = write_table(tmp_path / "f.json", 2, 2, 1, "padic")
        out_path = tmp_path / "g.json"
        code, out, err = run(
            capsys,
            "build-g",
            "--p", "2", "--n", "2", "--K", "1",
            "--table", table,
            "--out", str(out_path),
        )
        assert code == 2
        assert out == []
        assert err == "error: table file has codomain 'padic', expected 'real'\n"
        assert not out_path.exists()

    def test_build_g_refuses_a_table_at_other_parameters(self, capsys, tmp_path):
        table = write_table(tmp_path / "f.json", 2, 2, 1, "real")
        out_path = tmp_path / "g.json"
        code, out, err = run(
            capsys,
            "build-g",
            "--p", "2", "--n", "2", "--K", "2",
            "--table", table,
            "--out", str(out_path),
        )
        assert code == 2
        assert out == []
        assert err == "error: table file has (p=2, n=2, K=1), expected (p=2, n=2, K=2)\n"
        assert not out_path.exists()


class TestSuperposeCommand:
    def test_padic_sum(self, capsys):
        code, out, _ = run(
            capsys,
            "superpose",
            "--p", "2", "--n", "2", "--K", "2",
            "--function", "padic-sum",
            "--coord", "2:2:1,0",
            "--coord", "2:2:1,0",
        )
        assert code == 0
        assert out == ["result: 2:2:0,1", "direct: 2:2:0,1", "match: yes"]

    def test_real_function(self, capsys):
        code, out, _ = run(
            capsys,
            "superpose",
            "--p", "2", "--n", "2", "--K", "1",
            "--function", "norm-1",
            "--coord", "2:1:1",
            "--coord", "2:1:0",
        )
        assert code == 0
        assert out == ["result: 1.0", "direct: 1.0", "match: yes"]

    def test_with_table_file(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": float(i)}
            for i, key in enumerate(table_keys(2, 2, 1))
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        code, out, _ = run(
            capsys,
            "superpose",
            "--p", "2", "--n", "2", "--K", "1",
            "--table", str(path),
            "--coord", "2:1:1",
            "--coord", "2:1:1",
        )
        assert code == 0
        assert out[-1] == "match: yes"


class TestVerifyCommand:
    def test_roundtrip_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "3",
            "--suite", "roundtrip",
        )
        assert code == 0
        assert out[0] == "suite=roundtrip cases=200 failures=0 passed=True"

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "theorem2",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert payload["params"]["seed"] == 0

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PADIC_KAS_SEED", "17")
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "roundtrip",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["params"]["seed"] == 17

    def test_seed_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PADIC_KAS_SEED", "17")
        out_path = tmp_path / "report.json"
        run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "roundtrip",
            "--seed", "5",
            "--out", str(out_path),
        )
        assert json.loads(out_path.read_text())["params"]["seed"] == 5

    def test_bad_seed_variable_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_KAS_SEED", "abc")
        code, out, err = run(
            capsys, "verify", "--p", "2", "--n", "1", "--K", "1", "--suite", "roundtrip"
        )
        assert code == 2
        assert out == []
        assert err == "error: PADIC_KAS_SEED must be an integer, got 'abc'\n"

    def test_lemma1_reports_failures_with_exit_one(self, capsys):
        # the stated pair-distance constant is violated by real counterexamples
        code, out, _ = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "lemma1",
            "--samples", "10000",
        )
        assert code == 1
        assert "passed=False" in out[0]

    def test_nonprime_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "4", "--n", "2", "--K", "2", "--suite", "roundtrip"
        )
        assert code == 2
        assert "prime" in err


    def test_huge_modulus_is_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "verify", "--p", "1000000000000000000000000000057",
            "--n", "2", "--K", "1", "--suite", "roundtrip",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err.startswith("error:") and err.count("\n") == 1

    def test_table_flag_always_reads_a_file(self, capsys, tmp_path, monkeypatch):
        # Neither a .json suffix nor a path separator: still a table file.
        monkeypatch.chdir(tmp_path)
        entries = [
            {"x": [list(c) for c in key], "value": float(i)}
            for i, key in enumerate(table_keys(2, 2, 2))
        ]
        (tmp_path / "realtab").write_text(
            json.dumps({"p": 2, "n": 2, "K": 2, "codomain": "real", "entries": entries})
        )
        code, out, _ = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "theorem1",
            "--table", "realtab",
            "--out", "report.json",
        )
        assert code == 0
        assert out[0] == "suite=theorem1 cases=16 failures=0 passed=True"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["params"]["function"] == "realtab"

    def test_function_flag_never_reads_a_file(self, capsys, tmp_path):
        table = write_table(tmp_path / "f.json", 2, 2, 2, "real")
        code, out, err = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "theorem1",
            "--function", table,
        )
        assert code == 2
        assert out == []
        assert err == f"error: unknown builtin function {table!r}\n"

    def test_table_flag_never_names_a_builtin(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--suite", "theorem1",
            "--table", "norm-product",
        )
        assert code == 2
        assert out == []
        assert err.startswith("error:") and err.count("\n") == 1
        assert "norm-product" in err and "builtin" not in err


# A 20-digit coordinate, for the commands whose level is K = 20.
COORD_K20 = "2:20:" + ",".join(["1"] * 20)


class TestSizeLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build-g", "--p", "2", "--n", "2", "--K", "20", "--function", "norm-product",
             "--out", "g.json"],
            ["build-h", "--p", "2", "--n", "2", "--K", "20", "--function", "padic-sum",
             "--out", "h.json"],
            ["superpose", "--p", "2", "--n", "2", "--K", "20", "--function", "padic-sum",
             "--coord", COORD_K20, "--coord", COORD_K20],
            ["superpose", "--p", "2", "--n", "2", "--K", "20", "--function", "norm-product",
             "--coord", COORD_K20, "--coord", COORD_K20],
        ],
    )
    def test_too_large_table_is_refused_at_once(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds the table limit" in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("suite", ["roundtrip", "holder", "lemma2"])
    def test_oversized_sampled_verify_is_refused_at_once(self, capsys, suite):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "100000000",
            "--samples", "10",
            "--suite", suite,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceed the sampling limit of 10000000 digits" in err

    def test_oversized_lemma1_is_refused_at_once(self, capsys):
        # lemma1 draws 4 * LEMMA1_LEVEL = 32 digits per sample, whatever K is.
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "verify",
            "--p", "2", "--n", "2", "--K", "2",
            "--samples", "100000000",
            "--suite", "lemma1",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err == (
            "error: 100000000 samples of 32 digits exceed the sampling limit "
            "of 10000000 digits\n"
        )


class TestMalformedTableFiles:
    ENTRIES = [{"x": [[0]], "value": 0.5}, {"x": [[1]], "value": 1.5}]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5", "{path}: top level must be a JSON object"),
            ("null", "{path}: top level must be a JSON object"),
            ('[{"p": 2}]', "{path}: top level must be a JSON object"),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real",
                            "entries": [{"x": [0], "value": 0.5}]}),
                "{path}: entry 0 field 'x' has a coordinate that is not a list",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real",
                            "entries": [{"x": ["1"], "value": 0.5}]}),
                "{path}: entry 0 field 'x' has a coordinate that is not a list",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real",
                            "entries": [{"x": [["a"]], "value": 0.5}]}),
                "{path}: entry 0 field 'x' has non-integer digits",
            ),
            *(
                (
                    json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real",
                                "entries": [{"x": [[0]], "value": 0.5},
                                            {"x": [[digit]], "value": 1.5}]}),
                    "{path}: entry 1 field 'x' has non-integer digits",
                )
                for digit in (1.5, True, "1")
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real",
                            "entries": [{"x": [[0]], "value": 0.5},
                                        {"x": [[1]], "value": 10**400}]}),
                "{path}: real table value is too large for a float",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real", "entries": ENTRIES})
                .replace("1.5", "1" * 5000),
                "{path}: an integer literal has too many digits",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "complex", "entries": ENTRIES}),
                "{path}: codomain must be 'real' or 'padic', got 'complex'",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": 1, "codomain": "real", "entries": {}}),
                "{path}: 'entries' must be a list",
            ),
            (
                json.dumps({"p": 2, "n": 1, "K": -1, "codomain": "real", "entries": ENTRIES}),
                "level must be >= 1, got -1",
            ),
            (
                json.dumps({"p": 4, "n": 1, "K": 1, "codomain": "real", "entries": []}),
                "modulus 4 is not prime",
            ),
            (
                json.dumps({"p": 2, "n": 0, "K": 1, "codomain": "real", "entries": []}),
                "arity must be >= 1, got 0",
            ),
        ],
    )
    def test_one_line_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "superpose", "--p", "2", "--n", "1", "--K", "1", "--table", str(path),
            "--coord", "2:1:0",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"[" * 100000 + b"]" * 100000, "{path}: JSON nests too deeply"),
            (
                b"\xff\xfe",
                "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["nested-too-deeply", "not-utf-8"],
    )
    def test_unreadable_file_is_named(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(
            capsys, "superpose", "--p", "2", "--n", "1", "--K", "1", "--table", str(path),
            "--coord", "2:1:0",
        )
        assert code == 2
        assert out == []
        assert err == f"error: {message.format(path=path)}\n"


class TestEmitCantorCommand:
    def test_writes_rows(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, out, _ = run(
            capsys,
            "emit-cantor",
            "--p", "2", "--n", "2", "--L", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == [f"wrote 4 rows to {out_path}"]

    def test_huge_level_is_refused_at_once(self, capsys, tmp_path, monkeypatch):
        # 3**3000000 has over a million decimal digits; the check never builds it.
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "emit-cantor", "--p", "3", "--n", "2", "--L", "3000000", "--out", "c.csv"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert err == "error: p**L = 3**3000000 exceeds the table limit 1000000\n"
        assert list(tmp_path.iterdir()) == []


class TestModulusFlagMustMatchLiterals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["interleave", "--p", "3", "--coord", "2:2:1,0", "--coord", "2:2:1,1"],
            ["encode", "--p", "3", "--n", "2", "--x", "2:2:1,0"],
            ["phi", "--p", "5", "--n", "2", "--x", "2:2:1,0"],
            ["deinterleave", "--p", "3", "--n", "2", "--z", "2:4:1,0,1,1"],
        ],
    )
    def test_disagreeing_p_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == []
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--p is" in err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == 2

    def test_unknown_command(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_dispatch(["encode", "--p", "2"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["superpose", "--table", "{missing}", "--coord", "2:1:0"],
            ["build-g", "--function", "zero", "--out", "{missing}"],
        ],
        ids=["table-file-missing", "out-dir-missing"],
    )
    def test_os_error_is_one_line(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "no-such-dir" / "f.json")
        argv = [arg.format(missing=missing) for arg in argv]
        code, out, err = run(capsys, *argv, "--p", "2", "--n", "1", "--K", "1")
        assert code == 2
        assert out == []
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {missing!r}\n"


# Every name the package exports.  Its modules' __all__ and _LAZY decide them,
# so this list is what catches a dropped name.
PACKAGE_NAMES = (
    "CantorValue", "cantor_decode", "cantor_encode", "cantor_to_rational", "combine",
    "extract", "format_cantor", "gap_intervals", "gap_numerators", "interval_left_endpoints",
    "interval_numerators", "make_cantor", "parse_cantor", "phi_full", "spread",
    "PadicPoint", "PadicScalar", "TruncatedPadicInt", "format_padic", "is_prime",
    "make_padic", "make_point", "padic_add", "padic_from_int", "padic_norm", "padic_shift",
    "padic_sub", "parse_padic", "point_distance",
    "ArityMismatch", "CodomainMismatch", "ConfigError", "DigitOutOfRange",
    "DimensionMismatch", "DomainViolation", "IndexOutOfRange", "InvalidCantorDigit",
    "NonPrimeModulus", "PadicKasError", "PrecisionMismatch", "SizeLimitExceeded",
    "TableFormatError",
    "InterleavedPadic", "deinterleave", "deinterleave_k", "interleave", "make_interleaved",
    "omega",
    "BUILTIN_NAMES", "PADIC", "REAL", "WEIGHTS_PAPER", "WEIGHTS_PROOF", "CylinderFunction",
    "GFunction", "HFunction", "build_g", "build_h", "eval_g", "eval_g_ratio", "h_value",
    "superpose1", "superpose2", "table_fits",
    "EXHAUSTIVE_LIMIT", "SUITES", "RunConfig", "VerificationReport", "emit_cantor_csv",
    "load_table_json", "run_verify",
    "cantor", "core", "errors", "superposition", "verify", "__version__",
)

# Run in a fresh interpreter without site: what importing the CLI loads, then
# whether the package's names all resolve and show in dir().
STARTUP_PROBE = """
import json, sys
import padic_kas.cli
loaded = sorted(
    m for m in ("padic_kas.verify", "padic_kas.superposition", "typing", "dataclasses", "inspect")
    if m in sys.modules
)
import padic_kas
print(json.dumps({
    "loaded": loaded,
    "interleave": type(padic_kas.interleave).__name__,
    "missing": [name for name in sys.argv[1:] if not hasattr(padic_kas, name)],
    "unlisted": sorted(set(sys.argv[1:]) - set(dir(padic_kas))),
}))
"""


# Run one command in a fresh interpreter without site, then report whether
# it loaded the verification suites.
COMMAND_PROBE = """
import json, sys
import padic_kas.cli
code = padic_kas.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "verify": "padic_kas.verify" in sys.modules}))
"""


class TestStartup:
    def test_cli_import_loads_only_what_codec_commands_use(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", STARTUP_PROBE, *PACKAGE_NAMES],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        result = json.loads(proc.stdout)
        assert result["loaded"] == []
        assert result["interleave"] == "function"
        assert result["missing"] == []
        assert result["unlisted"] == []

    @pytest.mark.parametrize(
        "argv, codomain",
        [
            (["superpose", "--coord", "3:1:1", "--coord", "3:1:2"], "padic"),
            (["superpose", "--coord", "3:1:1", "--coord", "3:1:2"], "real"),
            (["build-h", "--out", "h.json"], "padic"),
            (["build-g", "--out", "g.json"], "real"),
        ],
    )
    def test_table_commands_do_not_load_verify(self, tmp_path, argv, codomain):
        table = write_table(tmp_path / "f.json", 3, 2, 1, codomain)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", COMMAND_PROBE, *argv,
             "--p", "3", "--n", "2", "--K", "1", "--table", table],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True, timeout=60,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"code": 0, "verify": False}

    def test_weights_flag_choices_match_the_library(self):
        assert WEIGHTS == (WEIGHTS_PROOF, WEIGHTS_PAPER)


# Run in a fresh interpreter without site: which of the given names a star
# import of the package leaves unbound.
STAR_PROBE = """
import json, sys
from padic_kas import *
print(json.dumps([name for name in sys.argv[1:] if name not in globals()]))
"""


def test_star_import_binds_every_name_but_the_modules():
    import padic_kas

    names = [
        name
        for name in PACKAGE_NAMES
        if not name.startswith("_") and not isinstance(getattr(padic_kas, name), ModuleType)
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STAR_PROBE, *names],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert "RunConfig" in names and "build_g" in names
    assert json.loads(proc.stdout) == []
