"""Verification suites and data emission for the CLI.

Each suite drives the library's own operations against independent digit-level
oracles and yields its checks; :func:`run_verify` names, counts and records
them.  A suite is exhaustive whenever its case space fits under
EXHAUSTIVE_LIMIT and falls back to seeded sampling otherwise, so a report is a
pure function of its configuration.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product, repeat

from .cantor import (
    CantorValue,
    cantor_decode,
    cantor_encode,
    cantor_to_rational,
    combine,
    extract,
    format_cantor,
    gap_numerators,
    interval_left_endpoints,
)
from .core import (
    PadicPoint,
    PadicScalar,
    TruncatedPadicInt,
    _check_params,
    _new,
    format_padic,
    padic_norm,
    padic_sub,
    point_distance,
)
from .errors import ConfigError, SizeLimitExceeded
from .interleave import InterleavedPadic, deinterleave, interleave
from .superposition import (
    EXHAUSTIVE_LIMIT,
    PADIC,
    REAL,
    WEIGHTS_PAPER,
    WEIGHTS_PROOF,
    _require_table_size,
    build_g,
    build_h,
    eval_g_ratio,
    load_table_json,
    resolve_function,
    superpose1,
    superpose2,
    table_fits,
)

__all__ = [
    "SUITES",
    "EXHAUSTIVE_LIMIT",
    "RunConfig",
    "VerificationReport",
    "run_verify",
    "emit_cantor_csv",
    "load_table_json",
    "resolve_function",
]

# Fixed digit count for the sampled pair-distance bound check.
LEMMA1_LEVEL = 8

# The most digits one sampled check may draw.  An exhaustive check reads at
# most EXHAUSTIVE_LIMIT tuples of up to 19 digits, so a sampled one does
# work of the same order.
SAMPLE_DIGIT_LIMIT = 10**7


class RunConfig:
    """Parameters of one verification run."""

    __slots__ = (
        "p", "n", "K", "suite", "function", "samples", "seed", "weights", "table",
    )

    def __init__(
        self,
        p: int,
        n: int,
        K: int,
        suite: str = "all",
        function: str | None = None,
        samples: int = 10000,
        seed: int = 0,
        weights: str = WEIGHTS_PROOF,
        table: str | None = None,
    ):
        try:
            _check_params(p, n, K)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if samples < 0:
            raise ConfigError(f"sample count must be >= 0, got {samples}")
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
        if weights not in (WEIGHTS_PROOF, WEIGHTS_PAPER):
            raise ConfigError(f"weights must be 'proof' or 'paper', got {weights!r}")
        if function is not None and table is not None:
            raise ConfigError("give a function or a table, not both")
        self.p = p
        self.n = n
        self.K = K
        self.suite = suite
        self.function = function
        self.samples = samples
        self.seed = seed
        self.weights = weights
        self.table = table

    def selected_suites(self):
        return SUITES if self.suite == "all" else (self.suite,)


class VerificationReport:
    """Outcome of a verification run.

    ``failures`` holds one dict per counterexample with the textual inputs
    and both sides of the violated relation, so every entry replays through
    the corresponding library call.  The serialized form excludes wall time:
    identical configurations must serialize byte-identically.
    """

    __slots__ = ("suite", "params", "breakdown", "failures", "wall_time")

    def __init__(self, suite, params, breakdown, failures, wall_time):
        self.suite = suite
        self.params = params
        self.breakdown = breakdown
        self.failures = failures
        self.wall_time = wall_time

    @property
    def cases(self) -> int:
        return sum(self.breakdown.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "params": self.params,
            "cases": self.cases,
            "breakdown": self.breakdown,
            "failures": self.failures,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True)


def run_verify(config: RunConfig) -> VerificationReport:
    """Execute the selected suites and assemble one report.

    A suite yields ``(check, count, failures)`` per check, and ``failures``
    lazily yields ``(check, input, lhs, rhs)`` per counterexample.  This is
    the one place that names, counts and records checks.  It consumes each
    check before the suite draws the next, so seeded draws keep their order.
    """
    t0 = time.perf_counter()
    breakdown = {}
    failures = []
    for name in config.selected_suites():
        rng = random.Random(config.seed)
        for check, count, check_failures in _SUITE_FNS[name](config, rng):
            breakdown[f"{name}.{check}"] = count
            for failed_check, case, lhs, rhs in check_failures:
                failures.append({"check": failed_check, "input": case, "lhs": lhs, "rhs": rhs})
    return VerificationReport(
        suite=config.suite,
        params={
            "p": config.p,
            "n": config.n,
            "K": config.K,
            "function": config.function if config.table is None else config.table,
            "samples": config.samples,
            "seed": config.seed,
            "weights": config.weights,
        },
        breakdown=breakdown,
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )


def _cases(p, length, samples, rng, value=tuple, repeat=1):
    """(iterator, count) of ``repeat``-tuples of ``value(digit tuple)``.

    All p**(repeat*length) cases if they fit under EXHAUSTIVE_LIMIT, each value
    built once (and streamed at ``repeat == 1``); else ``samples`` seeded
    cases, drawn value by value.
    """
    digits = repeat * length
    if table_fits(p, digits):
        space = map(value, product(range(p), repeat=length))
        if repeat == 1:
            return zip(space), p**length
        return product(space, repeat=repeat), p**digits
    if samples * digits > SAMPLE_DIGIT_LIMIT:
        raise SizeLimitExceeded(
            f"{samples} samples of {digits} digits exceed the sampling limit "
            f"of {SAMPLE_DIGIT_LIMIT} digits"
        )
    draws = (tuple(value(_draw(rng, p, length)) for _ in range(repeat)) for _ in range(samples))
    return draws, samples


def _draw(rng, p, length):
    """One seeded digit tuple: ``length`` calls of ``rng.randrange(p)``, in order."""
    return tuple(map(rng.randrange, repeat(p, length)))


def _block_point(p, n, K, digs):
    """The point of an n*K-digit tuple in block layout: coordinate k is digs[k*K:(k+1)*K]."""
    coords = tuple(_new(TruncatedPadicInt, (p, K, digs[k * K : (k + 1) * K])) for k in range(n))
    return _new(PadicPoint, (n, coords))


def _points(p, n, K, samples, rng):
    """(iterator of points, count): :func:`_cases` of n coordinates of K digits each."""

    def coordinate(digs):
        return _new(TruncatedPadicInt, (p, K, digs))

    it, count = _cases(p, K, samples, rng, coordinate, n)
    return (_new(PadicPoint, (n, coords)) for coords in it), count


def _format_coords(coords):
    return ";".join(map(format_padic, coords))


def _suite_roundtrip(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K

    def cantor(it):
        for (digs,) in it:
            x = _new(TruncatedPadicInt, (p, K, digs))
            back = cantor_decode(cantor_encode(x, n))
            if back != x:
                case = format_padic(x)
                yield "cantor", case, format_padic(back), case

    def chain(it):
        for X in it:
            coords = X.coords
            z = combine([cantor_encode(c, n) for c in coords])
            back = tuple([cantor_decode(extract(z, k)) for k in range(n)])
            if back != coords:
                case = _format_coords(coords)
                yield "chain", case, _format_coords(back), case

    def forward(it):
        for X in it:
            back = deinterleave(interleave(X))
            if back != X:
                case = _format_coords(X.coords)
                yield "interleave_forward", case, _format_coords(back.coords), case

    def backward(it):
        for (digs,) in it:
            z = _new(InterleavedPadic, (_new(TruncatedPadicInt, (p, n * K, digs)), n))
            back = interleave(deinterleave(z))
            if back != z:
                case = format_padic(z.value)
                yield "interleave_backward", case, format_padic(back.value), case

    it, count = _cases(p, K, cfg.samples, rng)
    yield "cantor", count, cantor(it)
    it, count = _points(p, n, K, cfg.samples, rng)
    yield "chain", count, chain(it)
    it, count = _points(p, n, K, cfg.samples, rng)
    yield "interleave_forward", count, forward(it)
    it, count = _cases(p, n * K, cfg.samples, rng)
    yield "interleave_backward", count, backward(it)


def _suite_theorem1(cfg, rng):
    f = resolve_function(cfg.p, cfg.n, cfg.K, REAL, cfg.function, cfg.table)
    G = build_g(f)

    def identity(it):
        for X in it:
            expected = f(X)
            got = superpose1(G, X)
            if got != expected:
                yield "theorem1", _format_coords(X.coords), repr(got), repr(expected)

    it, count = _points(cfg.p, cfg.n, cfg.K, cfg.samples, rng)
    yield "identity", count, identity(it)


def _suite_theorem2(cfg, rng):
    f = resolve_function(cfg.p, cfg.n, cfg.K, PADIC, cfg.function, cfg.table)
    H = build_h(f, cfg.weights)
    K = cfg.K

    def identity(it):
        for X in it:
            expected = PadicScalar.from_padic_int(f(X))
            got = superpose2(H, X)
            if got != expected:
                yield (
                    "theorem2",
                    _format_coords(X.coords),
                    format_padic(got.to_padic_int(K)),
                    format_padic(expected.to_padic_int(K)),
                )

    it, count = _points(cfg.p, cfg.n, K, cfg.samples, rng)
    yield "identity", count, identity(it)


def _suite_lemma1(cfg, rng):
    # The stated pair-distance bound is specific to arity 2; the check runs
    # at arity 2 regardless of the configured n.
    p = cfg.p
    n = 2
    L = LEMMA1_LEVEL
    bound = Fraction((2 * p - 1) ** 2 - 1, 2 * (p - 1) ** 2)

    def part(digs):
        return CantorValue(p, n, tuple(n * d for d in digs))

    def pairs(it):
        for parts in it:
            xa, ya, xb, yb = parts
            d2 = (cantor_to_rational(xa) - cantor_to_rational(xb)) ** 2 + (
                cantor_to_rational(ya) - cantor_to_rational(yb)
            ) ** 2
            lhs = abs(
                cantor_to_rational(combine([xa, ya])) - cantor_to_rational(combine([xb, yb]))
            )
            if lhs > bound * d2:
                case = ";".join(map(format_cantor, parts))
                yield "lemma1", case, str(lhs), str(bound * d2)

    # 4 * L digits never fit under the limit: the parts are always sampled.
    it, count = _cases(p, L, cfg.samples, rng, part, 4)
    yield "pairs", count, pairs(it)


def _suite_lemma2(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K

    def value(digs):
        X = _block_point(p, n, K, digs)
        return X, interleave(X).value

    def pairs(it):
        for (A, za), (B, zb) in it:
            dist = point_distance(A, B)
            img = padic_norm(padic_sub(za, zb))
            if img > dist**n:
                case = f"{_format_coords(A.coords)}|{_format_coords(B.coords)}"
                yield "lemma2", case, str(img), f"{dist}**{n}"

    it, count = _cases(p, n * K, cfg.samples, rng, value, 2)
    yield "pairs", count, pairs(it)


def _shared_prefix(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return len(a)


def _suite_holder(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K

    def encoded(digs):
        x = _new(TruncatedPadicInt, (p, K, digs))
        return x, cantor_encode(x, n)

    def encode_prefix(it):
        for (x, cx), (y, cy) in it:
            N = _shared_prefix(x.digits, y.digits)
            if cx.digits[:N] != cy.digits[:N]:
                case = f"{format_padic(x)}|{format_padic(y)}"
                yield "encode_prefix", case, format_cantor(cx), format_cantor(cy)

    def extracted(digs):
        z = cantor_encode(_new(TruncatedPadicInt, (p, n * K, digs)), n)
        return z, [extract(z, k) for k in range(n)]

    def extract_prefix(it):
        for (z, ez), (w, ew) in it:
            N = _shared_prefix(z.digits, w.digits)
            for k in range(n):
                keep = (N - k + n - 1) // n if N >= k else 0
                if ez[k].digits[:keep] != ew[k].digits[:keep]:
                    case = f"{format_cantor(z)}|{format_cantor(w)}|k={k}"
                    yield "extract_prefix", case, format_cantor(ez[k]), format_cantor(ew[k])

    it, count = _cases(p, K, cfg.samples, rng, encoded, 2)
    yield "encode_prefix", count, encode_prefix(it)
    it, count = _cases(p, n * K, cfg.samples, rng, extracted, 2)
    yield "extract_prefix", count, extract_prefix(it)


def _quarter_point(va, vb):
    """float(va + (vb - va) / 4) in exact integers: int / int rounds once, correctly."""
    (an, ad), (bn, bd) = va.as_integer_ratio(), vb.as_integer_ratio()
    return (3 * an * bd + bn * ad) / (4 * ad * bd)


def _suite_extension(cfg, rng):
    f = resolve_function(cfg.p, cfg.n, cfg.K, REAL, cfg.function, cfg.table)
    G = build_g(f)
    values = G.values
    # A gap's midpoint and quarter point are exact over 4 * q**L.
    den = G.q**G.L
    gaps = gap_numerators(G.p, G.n, G.L)

    def failures():
        for (a, b), va, vb in zip(gaps, values, values[1:]):
            checks = (
                ("gap_left_endpoint", eval_g_ratio(G, a, den), va),
                ("gap_right_endpoint", eval_g_ratio(G, b, den), vb),
                ("gap_midpoint", eval_g_ratio(G, 2 * (a + b), 4 * den), (va + vb) / 2),
                ("gap_linearity", eval_g_ratio(G, 3 * a + b, 4 * den), _quarter_point(va, vb)),
            )
            for check, got, expected in checks:
                if got != expected:
                    case = f"gap ({Fraction(a, den)}, {Fraction(b, den)})"
                    yield check, case, repr(got), repr(expected)

    yield "gaps", len(gaps), failures()


_SUITE_FNS = {
    "roundtrip": _suite_roundtrip,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "holder": _suite_holder,
    "extension": _suite_extension,
}
SUITES = tuple(_SUITE_FNS)


def emit_cantor_csv(p: int, n: int, L: int, path: str) -> int:
    """Write ``index,rational,decimal`` rows for all level-L interval left endpoints.

    Returns the number of data rows.  Refuses enumerations beyond the size
    limit.
    """
    _require_table_size(p, L, "L")
    import csv

    lefts = interval_left_endpoints(p, n, L)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "rational", "decimal"])
        for i, left in enumerate(lefts):
            writer.writerow([i, f"{left.numerator}/{left.denominator}", repr(float(left))])
    return len(lefts)
