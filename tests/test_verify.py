"""Verification harness: suites, reports, table ingestion, CSV emission."""

import csv
import inspect
import json
import random
import time
from fractions import Fraction

import pytest

from padic_kas import (
    CantorValue,
    ConfigError,
    RunConfig,
    SizeLimitExceeded,
    TableFormatError,
    cantor_to_rational,
    combine,
    emit_cantor_csv,
    load_table_json,
    parse_cantor,
    run_verify,
)
from padic_kas import superposition, verify
from padic_kas.verify import resolve_function

from helpers import random_padic_table, table_keys


class TestRunConfig:
    def test_rejects_nonprime(self):
        with pytest.raises(ConfigError):
            RunConfig(p=4, n=2, K=2)

    def test_rejects_bad_suite(self):
        with pytest.raises(ConfigError):
            RunConfig(p=2, n=2, K=2, suite="everything")

    def test_rejects_negative_samples(self):
        with pytest.raises(ConfigError):
            RunConfig(p=2, n=2, K=2, samples=-1)

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            RunConfig(p=2, n=2, K=2, weights="midway")

    def test_all_expands_to_every_suite(self):
        cfg = RunConfig(p=2, n=2, K=1)
        assert len(cfg.selected_suites()) == 7


class TestRoundtripSuite:
    def test_counts_and_pass(self):
        report = run_verify(RunConfig(p=2, n=2, K=3, suite="roundtrip"))
        assert report.passed
        assert report.breakdown == {
            "roundtrip.cantor": 8,
            "roundtrip.chain": 64,
            "roundtrip.interleave_forward": 64,
            "roundtrip.interleave_backward": 64,
        }
        assert report.cases == 200

    def test_deterministic_serialization(self):
        cfg = RunConfig(p=2, n=2, K=2, suite="roundtrip", seed=3)
        a = run_verify(cfg).to_json()
        b = run_verify(cfg).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["passed"] is True
        assert "wall_time" not in payload

    def test_sampled_mode_beyond_limit(self):
        # 5**(3*4) digit tuples exceed the exhaustive limit, so every check
        # falls back to the configured number of seeded samples
        cfg = RunConfig(p=5, n=3, K=4, suite="roundtrip", samples=40, seed=2)
        report = run_verify(cfg)
        assert report.passed
        assert report.breakdown == {
            "roundtrip.cantor": 5**4,
            "roundtrip.chain": 40,
            "roundtrip.interleave_forward": 40,
            "roundtrip.interleave_backward": 40,
        }
        assert run_verify(cfg).to_json() == report.to_json()


class TestTheoremSuites:
    def test_theorem2_padic_sum_exhaustive(self):
        report = run_verify(
            RunConfig(p=2, n=2, K=2, suite="theorem2", function="padic-sum")
        )
        assert report.passed
        assert report.cases == 16

    def test_theorem2_default_function(self):
        report = run_verify(RunConfig(p=3, n=2, K=1, suite="theorem2"))
        assert report.passed
        assert report.cases == 9

    def test_theorem1_norm_product(self):
        report = run_verify(
            RunConfig(p=2, n=2, K=2, suite="theorem1", function="norm-product")
        )
        assert report.passed
        assert report.cases == 16

    def test_theorem1_with_table_file(self, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": float(i)}
            for i, key in enumerate(table_keys(2, 2, 1))
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        report = run_verify(
            RunConfig(p=2, n=2, K=1, suite="theorem1", function=str(path))
        )
        assert report.passed

    def test_table_field_is_always_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        entries = [
            {"x": [list(c) for c in key], "value": float(i)}
            for i, key in enumerate(table_keys(2, 2, 1))
        ]
        (tmp_path / "norm-product").write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        report = run_verify(RunConfig(p=2, n=2, K=1, suite="theorem1", table="norm-product"))
        assert report.passed
        assert report.params["function"] == "norm-product"
        # The same name as a function is the builtin, which reads no file.
        (tmp_path / "norm-product").unlink()
        assert run_verify(
            RunConfig(p=2, n=2, K=1, suite="theorem1", function="norm-product")
        ).passed

    def test_function_and_table_are_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig(p=2, n=2, K=1, function="norm-product", table="f.json")

    def test_table_parameter_mismatch(self, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": 0.0} for key in table_keys(2, 2, 1)
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        with pytest.raises(ConfigError):
            run_verify(RunConfig(p=2, n=2, K=2, suite="theorem1", function=str(path)))

    def test_codomain_mismatch_for_suite(self, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": 0.0} for key in table_keys(2, 2, 1)
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        with pytest.raises(ConfigError):
            run_verify(RunConfig(p=2, n=2, K=1, suite="theorem2", function=str(path)))


class TestBoundSuites:
    def test_lemma2_exhaustive_pass(self):
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="lemma2"))
        assert report.passed
        assert report.cases == (2**4) ** 2

    def test_lemma1_detects_violations_of_stated_constant(self):
        # the constant ((2p-1)**2 - 1) / (2 (p-1)**2) admits counterexamples;
        # the suite reports them honestly and each one replays exactly
        cfg = RunConfig(p=2, n=2, K=2, suite="lemma1", samples=10000, seed=0)
        report = run_verify(cfg)
        assert not report.passed
        assert 0 < len(report.failures) < cfg.samples
        bound = Fraction((2 * 2 - 1) ** 2 - 1, 2 * (2 - 1) ** 2)
        for failure in report.failures:
            xa, ya, xb, yb = (
                parse_cantor(text, 2, 2) for text in failure["input"].split(";")
            )
            d2 = (cantor_to_rational(xa) - cantor_to_rational(xb)) ** 2 + (
                cantor_to_rational(ya) - cantor_to_rational(yb)
            ) ** 2
            lhs = abs(
                cantor_to_rational(combine([xa, ya]))
                - cantor_to_rational(combine([xb, yb]))
            )
            assert lhs > bound * d2

    def test_lemma1_is_deterministic(self):
        cfg = RunConfig(p=2, n=2, K=2, suite="lemma1", samples=500, seed=1)
        assert run_verify(cfg).to_json() == run_verify(cfg).to_json()

    def test_holder_suite(self):
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="holder"))
        assert report.passed
        assert report.breakdown["holder.encode_prefix"] == (2**2) ** 2
        assert report.breakdown["holder.extract_prefix"] == (2**4) ** 2

    def test_extension_suite(self):
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="extension"))
        assert report.passed
        assert report.breakdown["extension.gaps"] == 2**4 - 1

    def test_extension_suite_catches_a_blend_that_keeps_the_left_value(self, monkeypatch):
        # The gap blend of eval_g patched to return the left neighbour's value.
        blend = "return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * theta)"
        source = inspect.getsource(superposition._eval_g_ratio)
        assert blend in source
        namespace = dict(vars(superposition))
        exec(source.replace(blend, "return va"), namespace)
        monkeypatch.setattr(superposition, "_eval_g_ratio", namespace["_eval_g_ratio"])
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="extension"))
        assert not report.passed
        assert report.cases == 2**4 - 1
        assert {f["check"] for f in report.failures} == {"gap_midpoint", "gap_linearity"}
        assert report.failures[0] == {
            "check": "gap_midpoint",
            "input": "gap (7/81, 8/81)",
            "lhs": "0.0",
            "rhs": "0.125",
        }

    def test_extension_suite_has_no_gaps_at_arity_one(self):
        report = run_verify(RunConfig(p=3, n=1, K=2, suite="extension"))
        assert report.passed
        assert report.breakdown == {"extension.gaps": 0}


class TestSampledWorkIsBounded:
    def test_exhaustive_up_to_the_table_limit(self):
        rng = random.Random(0)
        assert verify._digit_tuples(2, 19, 10, rng)[1] == 2**19
        assert verify._digit_tuples(2, 20, 10, rng)[1] == 10
        assert verify._pairs(2, 9, 10, rng)[1] == 2**18
        assert verify._pairs(2, 10, 10, rng)[1] == 10

    def test_sampled_digits_are_bounded(self):
        rng = random.Random(0)
        limit = verify.SAMPLE_DIGIT_LIMIT
        assert verify._digit_tuples(2, 1000, limit // 1000, rng)[1] == limit // 1000
        with pytest.raises(SizeLimitExceeded):
            verify._digit_tuples(2, 1000, limit // 1000 + 1, rng)
        assert verify._pairs(2, 1000, limit // 2000, rng)[1] == limit // 2000
        with pytest.raises(SizeLimitExceeded):
            verify._pairs(2, 1000, limit // 2000 + 1, rng)

    def test_huge_length_never_computes_the_power(self):
        # 3**(10**8) has about 48 million decimal digits.
        rng = random.Random(0)
        start = time.perf_counter()
        assert verify._digit_tuples(3, 10**8, 0, rng)[1] == 0
        assert verify._pairs(3, 10**8, 0, rng)[1] == 0
        with pytest.raises(SizeLimitExceeded):
            verify._digit_tuples(3, 10**8, 1, rng)
        assert time.perf_counter() - start < 1.0


class TestResolveFunction:
    def test_builtin(self):
        cfg = RunConfig(p=2, n=2, K=1)
        f = resolve_function("digit0-1", cfg, "real")
        assert f.codomain == "real"

    def test_builtin_codomain_conflict(self):
        cfg = RunConfig(p=2, n=2, K=1)
        with pytest.raises(Exception):
            resolve_function("padic-sum", cfg, "real")


class TestTableLoading:
    def _write(self, tmp_path, payload):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    def test_loads_padic_table(self, tmp_path):
        entries = [
            {"x": [list(c) for c in key], "value": f"2:1:{key[0][0] ^ key[1][0]}"}
            for key in table_keys(2, 2, 1)
        ]
        path = self._write(
            tmp_path, {"p": 2, "n": 2, "K": 1, "codomain": "padic", "entries": entries}
        )
        f = load_table_json(path)
        assert f.codomain == "padic"
        assert len(f.table) == 4

    def test_invalid_json(self, tmp_path):
        path = self._write(tmp_path, "{nope")
        with pytest.raises(TableFormatError):
            load_table_json(path)

    def test_missing_field(self, tmp_path):
        path = self._write(tmp_path, {"p": 2, "n": 2, "K": 1, "entries": []})
        with pytest.raises(TableFormatError, match="codomain"):
            load_table_json(path)

    def test_wrong_coordinate_count(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "p": 2,
                "n": 2,
                "K": 1,
                "codomain": "real",
                "entries": [{"x": [[0]], "value": 0.0}],
            },
        )
        with pytest.raises(TableFormatError, match="entry 0"):
            load_table_json(path)

    def test_duplicate_key(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "p": 2,
                "n": 1,
                "K": 1,
                "codomain": "real",
                "entries": [
                    {"x": [[0]], "value": 0.0},
                    {"x": [[0]], "value": 1.0},
                ],
            },
        )
        with pytest.raises(TableFormatError, match="duplicates"):
            load_table_json(path)

    def test_not_total(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "p": 2,
                "n": 1,
                "K": 1,
                "codomain": "real",
                "entries": [{"x": [[0]], "value": 0.0}],
            },
        )
        with pytest.raises(TableFormatError, match="expected 2"):
            load_table_json(path)

    def test_bad_padic_value(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "p": 2,
                "n": 1,
                "K": 1,
                "codomain": "padic",
                "entries": [
                    {"x": [[0]], "value": "2:1:0"},
                    {"x": [[1]], "value": "not-a-literal"},
                ],
            },
        )
        with pytest.raises(TableFormatError, match="entry 1"):
            load_table_json(path)


class TestEmitCantorCsv:
    def _rows(self, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["index", "rational", "decimal"]
            return list(reader)

    def test_level_one(self, tmp_path):
        path = str(tmp_path / "c.csv")
        assert emit_cantor_csv(2, 2, 1, path) == 2
        rows = self._rows(path)
        assert [r[1] for r in rows] == ["0/1", "2/3"]

    def test_level_two(self, tmp_path):
        path = str(tmp_path / "c.csv")
        assert emit_cantor_csv(2, 2, 2, path) == 4
        rows = self._rows(path)
        assert [r[1] for r in rows] == ["0/1", "2/9", "2/3", "8/9"]
        assert [r[2] for r in rows] == [
            repr(0.0),
            repr(2 / 9),
            repr(2 / 3),
            repr(8 / 9),
        ]

    def test_arity_one_uniform_grid(self, tmp_path):
        path = str(tmp_path / "c.csv")
        assert emit_cantor_csv(3, 1, 1, path) == 3
        rows = self._rows(path)
        assert [r[1] for r in rows] == ["0/1", "1/3", "2/3"]

    def test_size_limit(self, tmp_path):
        with pytest.raises(SizeLimitExceeded):
            emit_cantor_csv(2, 2, 21, str(tmp_path / "c.csv"))
