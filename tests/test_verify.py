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
    ConfigError,
    PadicPoint,
    RunConfig,
    SizeLimitExceeded,
    TableFormatError,
    TruncatedPadicInt,
    cantor_to_rational,
    combine,
    emit_cantor_csv,
    format_cantor,
    format_padic,
    gap_numerators,
    load_table_json,
    make_interleaved,
    padic_norm,
    padic_sub,
    parse_cantor,
    parse_padic,
    point_distance,
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
# Sampled runs at n = 3 and n = 1, samples=100, seed=7: values drawn one by
# one at other arities.  holder at (3, 3, 5) mixes an exhaustive check
# (encode_prefix over 3**10 pairs) with a sampled one (extract_prefix).
SAMPLED_ARITY_DIGESTS = {
    ("roundtrip", 3, 3, 5): "276796b8cdb5464251f5db9897f3c25ebb16b25bc6a17b70fd8b30ec754c60c8",
    ("lemma2", 3, 3, 5): "cf04e2fd061353c56434126f9dde6303c9cf5d206c5c84d5149a1f4db7565735",
    ("holder", 3, 3, 5): "d33fadbe53bc221a665243e0fe1ca5db219f1300c0d4f0dbfbecb609bdfc6a6b",
    ("roundtrip", 2, 1, 25): "11aea0c34fbc802e3d2156701a091ccf176294e2d27f52add649bde82152228f",
    ("lemma2", 2, 1, 25): "3cb3b69ba2f3180c14aa1d29311c5cfc70edb7d3f11f1d34f3206921ef2a4d11",
    ("holder", 2, 1, 25): "2155dc321e5ccbb394691195370ab02db18385c59eb0281ddea69b8837a1a2fe",
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

    @pytest.mark.parametrize(
        "n,K,message",
        [(0, 2, "arity must be >= 1, got 0"), (2, 0, "level must be >= 1, got 0")],
    )
    def test_rejects_nonpositive_arity_and_level(self, n, K, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig(p=2, n=n, K=K)
        assert exc.type is ConfigError
        assert str(exc.value) == message

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
        report = run_verify(RunConfig(p=2, n=2, K=1, suite="theorem1", table=str(path)))
        assert report.passed

    def test_function_names_only_a_builtin(self, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": 0.0} for key in table_keys(2, 2, 1)
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        with pytest.raises(ConfigError, match="^unknown builtin function '.*f.json'$"):
            run_verify(RunConfig(p=2, n=2, K=1, suite="theorem1", function=str(path)))

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
            run_verify(RunConfig(p=2, n=2, K=2, suite="theorem1", table=str(path)))

    def test_codomain_mismatch_for_suite(self, tmp_path):
        path = tmp_path / "f.json"
        entries = [
            {"x": [list(c) for c in key], "value": 0.0} for key in table_keys(2, 2, 1)
        ]
        path.write_text(
            json.dumps({"p": 2, "n": 2, "K": 1, "codomain": "real", "entries": entries})
        )
        with pytest.raises(ConfigError):
            run_verify(RunConfig(p=2, n=2, K=1, suite="theorem2", table=str(path)))


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
        assert verify._cases(2, 19, 10, rng)[1] == 2**19
        assert verify._cases(2, 20, 10, rng)[1] == 10
        assert verify._cases(2, 9, 10, rng, repeat=2)[1] == 2**18
        assert verify._cases(2, 10, 10, rng, repeat=2)[1] == 10

    def test_sampled_digits_are_bounded(self):
        rng = random.Random(0)
        limit = verify.SAMPLE_DIGIT_LIMIT
        assert verify._cases(2, 1000, limit // 1000, rng)[1] == limit // 1000
        with pytest.raises(SizeLimitExceeded):
            verify._cases(2, 1000, limit // 1000 + 1, rng)
        assert verify._cases(2, 1000, limit // 2000, rng, repeat=2)[1] == limit // 2000
        with pytest.raises(SizeLimitExceeded):
            verify._cases(2, 1000, limit // 2000 + 1, rng, repeat=2)

    def test_huge_length_never_computes_the_power(self):
        # 3**(10**8) has about 48 million decimal digits.
        rng = random.Random(0)
        start = time.perf_counter()
        assert verify._cases(3, 10**8, 0, rng)[1] == 0
        assert verify._cases(3, 10**8, 0, rng, repeat=2)[1] == 0
        with pytest.raises(SizeLimitExceeded):
            verify._cases(3, 10**8, 1, rng)
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

    @pytest.mark.parametrize("suite,p,n,K", sorted(SAMPLED_ARITY_DIGESTS))
    def test_sampled_reports_at_other_arities(self, suite, p, n, K):
        report = run_verify(RunConfig(p=p, n=n, K=K, suite=suite, samples=100, seed=7))
        assert _digest(report) == SAMPLED_ARITY_DIGESTS[suite, p, n, K]


# (config, library call, calls): each value a pair suite reads is built once,
# however many pairs it meets; a sampled pair builds each member once.
VALUE_CALLS = [
    (RunConfig(p=2, n=2, K=2, suite="lemma2"), "interleave", 16),
    (RunConfig(p=3, n=2, K=2, suite="holder"), "cantor_encode", 90),
    (RunConfig(p=3, n=2, K=2, suite="holder"), "extract", 162),
    (RunConfig(p=2, n=2, K=10, suite="lemma2", samples=50), "interleave", 100),
    (RunConfig(p=2, n=2, K=10, suite="holder", samples=50), "cantor_encode", 200),
]


@pytest.mark.parametrize("cfg,name,calls", VALUE_CALLS)
def test_pair_suites_build_each_value_once(monkeypatch, cfg, name, calls):
    # verify calls the library through its module globals; count the named one.
    real = getattr(verify, name)
    seen = []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, counted)
    assert run_verify(cfg).passed
    assert len(seen) == calls


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _corrupt_first_digit(value):
    return value._replace(digits=(2,) + value.digits[1:])


def _drop_top_digit(value):
    return value._replace(digits=value.digits[:-1] + (0,))


def _point(text):
    coords = tuple(map(parse_padic, text.split(";")))
    return PadicPoint(len(coords), coords)


def _format_coords(coords):
    return ";".join(map(format_padic, coords))


def _replay_cantor(cfg, text):
    x = parse_padic(text)
    return format_padic(verify.cantor_decode(verify.cantor_encode(x, cfg.n))), text


def _replay_chain(cfg, text):
    X = _point(text)
    z = verify.combine([verify.cantor_encode(c, cfg.n) for c in X.coords])
    back = [verify.cantor_decode(verify.extract(z, k)) for k in range(cfg.n)]
    return _format_coords(back), text


def _replay_interleave_forward(cfg, text):
    return _format_coords(verify.deinterleave(verify.interleave(_point(text))).coords), text


def _replay_interleave_backward(cfg, text):
    z = make_interleaved(parse_padic(text), cfg.n)
    return format_padic(verify.interleave(verify.deinterleave(z)).value), text


def _replay_theorem1(cfg, text):
    f = resolve_function(cfg.p, cfg.n, cfg.K, "real", cfg.function)
    X = _point(text)
    return repr(verify.superpose1(verify.build_g(f), X)), repr(f(X))


def _replay_theorem2(cfg, text):
    f = resolve_function(cfg.p, cfg.n, cfg.K, "padic", cfg.function)
    X = _point(text)
    got = verify.superpose2(verify.build_h(f, cfg.weights), X)
    return format_padic(got.to_padic_int(cfg.K)), format_padic(f(X))


def _replay_lemma2(cfg, text):
    A, B = map(_point, text.split("|"))
    image = padic_sub(verify.interleave(A).value, verify.interleave(B).value)
    return str(padic_norm(image)), f"{point_distance(A, B)}**{cfg.n}"


def _replay_encode_prefix(cfg, text):
    x, y = map(parse_padic, text.split("|"))
    return tuple(format_cantor(verify.cantor_encode(v, cfg.n)) for v in (x, y))


def _replay_extract_prefix(cfg, text):
    z, w, k = text.split("|")
    k = int(k.removeprefix("k="))
    return tuple(
        format_cantor(verify.extract(parse_cantor(v, cfg.p, cfg.n), k)) for v in (z, w)
    )


def _replay_gap_endpoint(side):
    """Replay a gap endpoint record: g at the gap's ``side`` end (0 left, 1 right)."""

    def replay(cfg, text):
        G = verify.build_g(resolve_function(cfg.p, cfg.n, cfg.K, "real", cfg.function))
        den = G.q**G.L
        gap = tuple(int(Fraction(end) * den) for end in text[len("gap (") : -1].split(", "))
        i = gap_numerators(cfg.p, cfg.n, G.L).index(gap)
        return repr(verify.eval_g_ratio(G, gap[side], den)), repr(G.values[i + side])

    return replay


# On an exhaustive space a deinterleave that fails the backward check also
# fails the forward one: a left inverse on a finite set is a two-sided one.
# Sampled runs draw the two checks' values independently, so the backward row
# runs at (2, 2, 10), samples=1, seed=0 and corrupts its one draw.
BACKWARD_DRAW = "2:20:0,0,0,1,0,0,1,1,0,1,1,0,1,0,1,1,0,1,1,0"

# (config, name of the library call that verify makes, corruption of its
# result given the call's arguments, failure count, first failure, replay).
# Every check name but lemma1 (which fails on the paper's constant) and the
# gap midpoint and linearity checks (which the blend breakage above fails)
# has a row.
CORRUPTIONS = [
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="roundtrip"),
        "cantor_decode",
        lambda out, c: _drop_top_digit(out),
        14,
        {"check": "cantor", "input": "2:2:0,1", "lhs": "2:2:0,0", "rhs": "2:2:0,1"},
        _replay_cantor,
        id="cantor",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="roundtrip"),
        "combine",
        lambda out, parts: out._replace(digits=(2, 0, 0, 0))
        if out.digits == (0, 0, 0, 2)
        else out,
        1,
        {
            "check": "chain",
            "input": "2:2:0,0;2:2:0,1",
            "lhs": "2:2:1,0;2:2:0,0",
            "rhs": "2:2:0,0;2:2:0,1",
        },
        _replay_chain,
        id="chain",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="roundtrip"),
        "interleave",
        lambda out, X: out._replace(value=_drop_top_digit(out.value)),
        16,
        {
            "check": "interleave_forward",
            "input": "2:2:0,0;2:2:0,1",
            "lhs": "2:2:0,0;2:2:0,0",
            "rhs": "2:2:0,0;2:2:0,1",
        },
        _replay_interleave_forward,
        id="interleave_forward",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=10, suite="roundtrip", samples=1, seed=0),
        "deinterleave",
        lambda out, z: out._replace(coords=out.coords[::-1])
        if format_padic(z.value) == BACKWARD_DRAW
        else out,
        1,
        {
            "check": "interleave_backward",
            "input": BACKWARD_DRAW,
            "lhs": "2:20:0,0,1,0,0,0,1,1,1,0,0,1,0,1,1,1,1,0,0,1",
            "rhs": BACKWARD_DRAW,
        },
        _replay_interleave_backward,
        id="interleave_backward",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="theorem1"),
        "superpose1",
        lambda out, G, X: math.nextafter(out, math.inf),
        16,
        {"check": "theorem1", "input": "2:2:0,0;2:2:0,0", "lhs": "5e-324", "rhs": "0.0"},
        _replay_theorem1,
        id="theorem1.identity",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="theorem2", function="proj-1"),
        "superpose2",
        lambda out, H, X: superposition.superpose2(H, X._replace(coords=X.coords[::-1])),
        12,
        {"check": "theorem2", "input": "2:2:0,0;2:2:0,1", "lhs": "2:2:0,1", "rhs": "2:2:0,0"},
        _replay_theorem2,
        id="theorem2.identity",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="lemma2"),
        "interleave",
        lambda out, X: out._replace(value=out.value._replace(digits=out.value.digits[::-1])),
        48,
        {
            "check": "lemma2",
            "input": "2:2:0,0;2:2:0,0|2:2:0,0;2:2:0,1",
            "lhs": "1",
            "rhs": "1/2**2",
        },
        _replay_lemma2,
        id="lemma2",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="holder"),
        "cantor_encode",
        lambda out, x, n: _corrupt_first_digit(out) if x.digits == (0, 1) else out,
        2,
        {
            "check": "encode_prefix",
            "input": "2:2:0,0|2:2:0,1",
            "lhs": "3:2:0,0",
            "rhs": "3:2:2,2",
        },
        _replay_encode_prefix,
        id="encode_prefix",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="holder"),
        "extract",
        lambda out, z, k: _corrupt_first_digit(out)
        if z.digits == (0, 0, 0, 0) and k == 0
        else out,
        14,
        {
            "check": "extract_prefix",
            "input": "3:4:0,0,0,0|3:4:0,0,0,2|k=0",
            "lhs": "3:2:2,0",
            "rhs": "3:2:0,0",
        },
        _replay_extract_prefix,
        id="extract_prefix",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="extension"),
        "eval_g_ratio",
        lambda out, G, num, den: superposition.eval_g_ratio(G, num + 1, den)
        if den == G.q**G.L
        else out,
        8,
        {"check": "gap_left_endpoint", "input": "gap (7/81, 8/81)", "lhs": "0.25", "rhs": "0.0"},
        _replay_gap_endpoint(0),
        id="gap_left_endpoint",
    ),
    pytest.param(
        RunConfig(p=2, n=2, K=2, suite="extension"),
        "eval_g_ratio",
        lambda out, G, num, den: superposition.eval_g_ratio(G, num - 1, den)
        if den == G.q**G.L
        else out,
        8,
        {"check": "gap_right_endpoint", "input": "gap (7/81, 8/81)", "lhs": "0.0", "rhs": "0.25"},
        _replay_gap_endpoint(1),
        id="gap_right_endpoint",
    ),
]


@pytest.mark.parametrize("cfg,name,corrupt,count,first,replay", CORRUPTIONS)
def test_each_check_fails_on_a_corrupted_library_call(
    monkeypatch, cfg, name, corrupt, count, first, replay
):
    # verify calls the library through its module globals; wrap the named one.
    # The pair suites evaluate a value once and pair it with every other, so
    # one corrupted result must still fail every pair it meets.
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: corrupt(real(*args), *args))
    report = run_verify(cfg)
    assert len(report.failures) == count
    assert report.failures[0] == first
    # The record replays through the corrupted call, and not through the real one.
    assert replay(cfg, first["input"]) == (first["lhs"], first["rhs"])
    monkeypatch.undo()
    assert replay(cfg, first["input"]) != (first["lhs"], first["rhs"])


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
        digits, _ = verify._cases(2, 20, 5, random.Random(4))
        assert count == 5
        assert [sum((c.digits for c in X.coords), ()) for X in it] == [d for (d,) in digits]


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
        f = resolve_function(2, 2, 1, "real", "digit0-1")
        assert f.codomain == "real"

    def test_builtin_codomain_conflict(self):
        with pytest.raises(Exception):
            resolve_function(2, 2, 1, "real", "padic-sum")

    def test_verify_reexports_the_table_reader_and_resolver(self):
        assert verify.load_table_json is superposition.load_table_json
        assert verify.resolve_function is superposition.resolve_function


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
