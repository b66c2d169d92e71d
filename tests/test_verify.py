"""Verification harness: suites, reports, table ingestion, CSV emission."""

import csv
import hashlib
import inspect
import json
import math
import random
import struct
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from padic_kas import (
    CantorValue,
    ConfigError,
    PadicPoint,
    RunConfig,
    SizeLimitExceeded,
    TableFormatError,
    TruncatedPadicInt,
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

# sha256 of run_verify(cfg).to_json(), recorded before the suites evaluated each
# point and each pair member once; the reports must not change.
REPORT_DIGESTS = {
    ("roundtrip", 2, 2, 2): "4d8019ef4be5ebe9679691fe7be6b5f9826e01466efd25b9bf1a95a4fd38ea48",
    ("roundtrip", 3, 2, 2): "d4d4c54b36053b66c24dcb0754e880141a48549ad1c830392477930cca12ebd1",
    ("roundtrip", 2, 3, 2): "72319ed92496fddf2eac49ffe150ed7dcce68efefbdf051c8989007d3012c768",
    ("roundtrip", 5, 1, 3): "56973dc9762030e7cf8cf68b79cdc789e5ca8d9f43c3c237214e80bc362c8140",
    ("roundtrip", 2, 1, 12): "bbbadb3c5cb1cd9c10575447b9a889babc63ee82ca7e40f228c3d2e6f9cd81ff",
    ("theorem1", 2, 2, 2): "b6d506a04161fe42a36021e1bc66baa4f148203d4b0d2768e05c4aca6c165c79",
    ("theorem1", 3, 2, 2): "3850047e9e164f08d06f08437bc4c0941603b29ae5d9d8cdee6817282d14c8ad",
    ("theorem1", 2, 3, 2): "3389ef6aa6b0d7ece80925a21ec12687a90b0a42ffdd4a4ddb25d189e18c0b38",
    ("theorem1", 5, 1, 3): "e20c1e1cc3e265539c337e8edabec3654c69462bd5abe00d4c8ee23c89a55404",
    ("theorem1", 2, 1, 12): "3f236fa1f0bc080990257aa1ae05d1439ee748a62f20af1c4facceec65bbc2fa",
    ("theorem2", 2, 2, 2): "728ce46b0d9439fd6f299f4a2b0f82c5b3e7d092a2362d9573f7bcb0362e7eb8",
    ("theorem2", 3, 2, 2): "e8e0b9f31221880d06820592bd54fcd8932108781a08aee13007b6920d1c8d2d",
    ("theorem2", 2, 3, 2): "fed2bc09f07ebd1a473701fad69907844f039f26111dd9bcd5e1b9b6fdfb5c4f",
    ("theorem2", 5, 1, 3): "08c3b6fd3c11dcc867acaee1e1cac9388cd36b3bc80a37b606c1ddc2bee2b74f",
    ("theorem2", 2, 1, 12): "8d9b20e90adf2f2a8127801f6be1ce5a3ec39e005569ec899782430e9d67bbb4",
    ("lemma1", 2, 2, 2): "de2734643286d2678d3e5dbb1943bd349261492e0fe3fe18269dc5c3710e1d09",
    ("lemma1", 3, 2, 2): "eaee2cdf0278d319b75afb961e913a3c16f4ffcf48533377441e8d85d2fac773",
    ("lemma1", 2, 3, 2): "21aef82a3049d9e68a52d3ab21607dbd7c50b6bb2a971e48b383b296029bca5a",
    ("lemma1", 5, 1, 3): "67eaaafded215089e9634548c223e8afc781a178d56371402a9664b6c7eb6848",
    ("lemma1", 2, 1, 12): "ff9216105b14a9ad2a471887c8d7dddfc4acc25fc53582713e86494ea29ee3a0",
    ("lemma2", 2, 2, 2): "438a9a37d1e3fc2cf4ab8771113d0ef26cf2153fa3f11a2eeea787e4bf9438bb",
    ("lemma2", 3, 2, 2): "041faaf574e939abf05d4e9e11e3b2a8d4971b6eb0481fe147576cbe8f0b314c",
    ("lemma2", 2, 3, 2): "b1e040e46c1380e9b63a3698f0ba02702f9eee673eae82f24068c79aabac26a3",
    ("lemma2", 5, 1, 3): "d26ce0636e0cdfa125d70a0abc2c0004a3190545a08442d036d49b103cae36a9",
    ("lemma2", 2, 1, 12): "080377944f295d74984bfe64ddf2038b2ad05616f5585abaa96165ad3d6d7195",
    ("holder", 2, 2, 2): "be2001b310109605f4d6ef4c73eb1415513ffc265f961da7e0520ac9e9e6a232",
    ("holder", 3, 2, 2): "4a3bf88906906784728c215355f5094dc4ff7c8fe918f47f3b1d90aa3a0d6331",
    ("holder", 2, 3, 2): "6f0fd0644164db8476da3c0f8b7a3146ce48c7a02cd0ee3b1ce5ef11d939b1d2",
    ("holder", 5, 1, 3): "b1291d5009afcd81cf7b49b56e7306fda06aa7b70a985591350ffa30a7a42a25",
    ("holder", 2, 1, 12): "a107bf8bc310771de3fd8130f403c9bd98550b933fdcb2e2797b1ff7ca2bc9e7",
    ("extension", 2, 2, 2): "f1e20c74a2f15875c19eb9f85ac9491ac6629fae1cf6650a91acb402b9971440",
    ("extension", 3, 2, 2): "1ebd8f3c39a3f4a41f699561092eb18762b5f2dd4232e96a87ec362a6c160d0b",
    ("extension", 2, 3, 2): "03ffba59ab096516b70c8a58517b1be4e3b19b30db118e4f0dab66450f0d135a",
    ("extension", 5, 1, 3): "6065574b89a780140d49c5b1caca72f5e282de33089266113c360ef0ec5237bf",
    ("extension", 2, 1, 12): "fd9ee9a9d93b82b33c65057dfde8dcb5dfd77c8f311d755b384a306147af62f1",
}
# Sampled runs at (2, 2, 10), samples=200, seed=3.  theorem1, theorem2 and
# extension have no sampled mode: their tables refuse p**(n*K) over the limit.
SAMPLED_REPORT_DIGESTS = {
    "roundtrip": "a03dac6d1bfd32251fda60f21ea5090c0c646648511278d39d9c8bd91704d1b5",
    "lemma1": "6d0e30eee60fad86b8f964d2e560b0abe4d0fabac4b0415584b2c84303a959d9",
    "lemma2": "8089d58beb5d74b80dc0d57a6d093ae19de31c7371e5341b2f385006e719145a",
    "holder": "7f726f42fb508feedbf0210a9ae6d4514f8650e5463d5277ed9c8838e5e3ca8a",
}


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


class TestReportsAreUnchanged:
    @pytest.mark.parametrize("suite,p,n,K", sorted(REPORT_DIGESTS))
    def test_exhaustive_and_default_sampled_reports(self, suite, p, n, K):
        report = run_verify(RunConfig(p=p, n=n, K=K, suite=suite))
        assert _digest(report) == REPORT_DIGESTS[suite, p, n, K]

    @pytest.mark.parametrize("suite", sorted(SAMPLED_REPORT_DIGESTS))
    def test_sampled_reports(self, suite):
        report = run_verify(RunConfig(p=2, n=2, K=10, suite=suite, samples=200, seed=3))
        assert report.breakdown and report.cases >= 200
        assert _digest(report) == SAMPLED_REPORT_DIGESTS[suite]


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _corrupt_first_digit(value):
    return CantorValue(value.p, value.n, (2,) + value.digits[1:])


class TestSuitesCatchACorruptedValue:
    # Each pair suite evaluates a value once and pairs it with every other;
    # one corrupted library result must still fail every pair it meets.

    def test_holder_catches_a_corrupted_extract(self, monkeypatch):
        real = verify.extract

        def extract(z, k):
            out = real(z, k)
            return _corrupt_first_digit(out) if z.digits == (0, 0, 0, 0) and k == 0 else out

        monkeypatch.setattr(verify, "extract", extract)
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="holder"))
        assert report.cases == 4**2 + 16**2
        assert len(report.failures) == 14
        assert report.failures[0] == {
            "check": "extract_prefix",
            "input": "3:4:0,0,0,0|3:4:0,0,0,2|k=0",
            "lhs": "3:2:2,0",
            "rhs": "3:2:0,0",
        }

    def test_holder_catches_a_corrupted_cantor_encode(self, monkeypatch):
        real = verify.cantor_encode

        def cantor_encode(x, n):
            out = real(x, n)
            return _corrupt_first_digit(out) if x.digits == (0, 1) else out

        monkeypatch.setattr(verify, "cantor_encode", cantor_encode)
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="holder"))
        assert len(report.failures) == 2
        assert report.failures[0] == {
            "check": "encode_prefix",
            "input": "2:2:0,0|2:2:0,1",
            "lhs": "3:2:0,0",
            "rhs": "3:2:2,2",
        }

    def test_roundtrip_catches_a_corrupted_combine(self, monkeypatch):
        real = verify.combine

        def combine(parts):
            out = real(parts)
            return CantorValue(out.p, out.n, (2, 0, 0, 0)) if out.digits == (0, 0, 0, 2) else out

        monkeypatch.setattr(verify, "combine", combine)
        report = run_verify(RunConfig(p=2, n=2, K=2, suite="roundtrip"))
        assert report.failures == [
            {
                "check": "chain",
                "input": "2:2:0,0;2:2:0,1",
                "lhs": "2:2:1,0;2:2:0,0",
                "rhs": "2:2:0,0;2:2:0,1",
            }
        ]


class TestPointEnumeration:
    def test_exhaustive_points_share_one_object_per_coordinate_value(self):
        p, n, K = 3, 2, 3
        it, count = verify._points(p, n, K, 0, random.Random(0))
        points = list(it)
        assert count == len(points) == p ** (n * K)
        assert len({id(c) for X in points for c in X.coords}) == p**K
        # Block layout, in digit-tuple order: coordinate k is digs[k*K:(k+1)*K].
        assert points == [
            PadicPoint(n, tuple(TruncatedPadicInt(p, K, d[k * K : (k + 1) * K]) for k in range(n)))
            for d in product(range(p), repeat=n * K)
        ]

    def test_arity_one_streams_without_a_list(self):
        tracemalloc.start()
        try:
            it, count = verify._points(2, 1, 19, 0, random.Random(0))
            first = next(it)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2**19
        assert iter(it) is it and not isinstance(it, (list, tuple))
        assert first == PadicPoint(1, (TruncatedPadicInt(2, 19, (0,) * 19),))
        # 2**19 coordinate values would take tens of megabytes.
        assert peak < 2**20

    def test_sampled_points_draw_as_digit_tuples_do(self):
        it, count = verify._points(2, 2, 10, 5, random.Random(4))
        digits, _ = verify._digit_tuples(2, 20, 5, random.Random(4))
        assert count == 5
        assert [sum((c.digits for c in X.coords), ()) for X in it] == list(digits)


class TestQuarterPointOracle:
    @staticmethod
    def _reference(va, vb):
        return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * Fraction(1, 4))

    def _check(self, va, vb):
        got, want = verify._quarter_point(va, vb), self._reference(va, vb)
        assert repr(got) == repr(want), (va, vb)
        assert math.copysign(1.0, got) == math.copysign(1.0, want), (va, vb)

    def test_edge_values(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1, 1 / 3, -1 / 3]
        for va in edges:
            for vb in edges:
                self._check(va, vb)

    def test_seeded_random_pairs(self):
        rng = random.Random(11)

        def draw():
            if rng.random() < 0.5:
                return rng.uniform(-1.0, 1.0)
            # Any finite double, subnormals included.
            bits = rng.getrandbits(64) & ~(0x7FF << 52) | rng.randrange(0x7FF) << 52
            return struct.unpack("<d", struct.pack("<Q", bits))[0]

        for _ in range(1000):
            self._check(draw(), draw())


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
