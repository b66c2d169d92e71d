"""Verification suites, table ingestion, and data emission for the CLI.

Each suite drives the library's own operations against independent digit-level
oracles and collects counterexamples.  A suite is exhaustive whenever its case
space fits under EXHAUSTIVE_LIMIT and falls back to seeded sampling otherwise,
so a report is a pure function of its configuration.
"""

from __future__ import annotations

import json
import math
import os
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
    format_padic,
    is_prime,
    padic_norm,
    padic_sub,
    parse_padic,
    point_distance,
)
from .errors import ConfigError, NonPrimeModulus, SizeLimitExceeded, TableFormatError
from .interleave import InterleavedPadic, deinterleave, interleave
from .superposition import (
    EXHAUSTIVE_LIMIT,
    PADIC,
    REAL,
    WEIGHTS_PAPER,
    WEIGHTS_PROOF,
    CylinderFunction,
    _require_table_size,
    build_g,
    build_h,
    eval_g,
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

SUITES = ("roundtrip", "theorem1", "theorem2", "lemma1", "lemma2", "holder", "extension")

# Fixed digit count for the sampled pair-distance bound check.
LEMMA1_LEVEL = 8

# The most digits one sampled check may draw.  An exhaustive check reads at
# most EXHAUSTIVE_LIMIT tuples of up to 19 digits, so a sampled one does
# work of the same order.
SAMPLE_DIGIT_LIMIT = 10**7

# The raw constructor behind a named tuple's __new__, as the library uses it.
_new = tuple.__new__


class RunConfig:
    """Parameters of one verification run."""

    __slots__ = (
        "p", "n", "K", "suite", "function", "samples", "seed", "output", "weights", "table",
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
        output: str | None = None,
        weights: str = WEIGHTS_PROOF,
        table: str | None = None,
    ):
        if not is_prime(p):
            raise ConfigError(f"p must be prime, got {p}")
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if K < 1:
            raise ConfigError(f"K must be >= 1, got {K}")
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
        self.output = output
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

    __slots__ = ("suite", "params", "cases", "breakdown", "failures", "wall_time")

    def __init__(self, suite, params, cases, breakdown=None, failures=None, wall_time=0.0):
        self.suite = suite
        self.params = params
        self.cases = cases
        self.breakdown = {} if breakdown is None else breakdown
        self.failures = [] if failures is None else failures
        self.wall_time = wall_time

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
    """Execute the selected suites and assemble one report."""
    t0 = time.perf_counter()
    cases = 0
    breakdown = {}
    failures = []
    for name in config.selected_suites():
        rng = random.Random(config.seed)
        suite_cases, suite_breakdown, suite_failures = _SUITE_FNS[name](config, rng)
        cases += suite_cases
        for check, count in suite_breakdown.items():
            breakdown[f"{name}.{check}"] = count
        failures.extend(suite_failures)
    report = VerificationReport(
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
        cases=cases,
        breakdown=breakdown,
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )
    return report


def _digit_tuples(p, length, samples, rng):
    """(iterator, count): all digit tuples if affordable, else a seeded sample."""
    if table_fits(p, length):
        return product(range(p), repeat=length), p**length
    _require_sample_size(samples, length)
    return (_draw(rng, p, length) for _ in range(samples)), samples


def _draw(rng, p, length):
    """One seeded digit tuple: ``length`` calls of ``rng.randrange(p)``, in order."""
    return tuple(map(rng.randrange, repeat(p, length)))


def _require_sample_size(samples, digits):
    """Raise unless ``samples`` draws of ``digits`` digits stay within SAMPLE_DIGIT_LIMIT."""
    if samples * digits > SAMPLE_DIGIT_LIMIT:
        raise SizeLimitExceeded(
            f"{samples} samples of {digits} digits exceed the sampling limit "
            f"of {SAMPLE_DIGIT_LIMIT} digits"
        )


def _block_point(p, n, K, digs):
    """The point of an n*K-digit tuple in block layout: coordinate k is digs[k*K:(k+1)*K]."""
    coords = tuple(_new(TruncatedPadicInt, (p, K, digs[k * K : (k + 1) * K])) for k in range(n))
    return _new(PadicPoint, (n, coords))


def _points(p, n, K, samples, rng):
    """(iterator of points, count) in the order of :func:`_digit_tuples` over n*K digits.

    An exhaustive run at n >= 2 builds each of the p**K (at most 1,000)
    coordinate values once; otherwise the points stream from digit tuples.
    """
    if n > 1 and table_fits(p, n * K):
        space = [_new(TruncatedPadicInt, (p, K, d)) for d in product(range(p), repeat=K)]
        return (_new(PadicPoint, (n, c)) for c in product(space, repeat=n)), p ** (n * K)
    it, count = _digit_tuples(p, n * K, samples, rng)
    return (_block_point(p, n, K, digs) for digs in it), count


def _format_coords(coords):
    return ";".join(map(format_padic, coords))


def _fail(failures, check, case, lhs, rhs):
    failures.append({"check": check, "input": case, "lhs": str(lhs), "rhs": str(rhs)})


def _suite_roundtrip(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K
    failures = []
    breakdown = {}

    it, count = _digit_tuples(p, K, cfg.samples, rng)
    breakdown["cantor"] = count
    for digs in it:
        x = _new(TruncatedPadicInt, (p, K, digs))
        back = cantor_decode(cantor_encode(x, n))
        if back != x:
            _fail(failures, "cantor", format_padic(x), format_padic(back), format_padic(x))

    it, count = _points(p, n, K, cfg.samples, rng)
    breakdown["chain"] = count
    for X in it:
        coords = X.coords
        z = combine([cantor_encode(c, n) for c in coords])
        back = tuple([cantor_decode(extract(z, k)) for k in range(n)])
        if back != coords:
            _fail(
                failures, "chain", _format_coords(coords), _format_coords(back),
                _format_coords(coords),
            )

    it, count = _points(p, n, K, cfg.samples, rng)
    breakdown["interleave_forward"] = count
    for X in it:
        back = deinterleave(interleave(X))
        if back != X:
            _fail(
                failures, "interleave_forward", _format_coords(X.coords),
                _format_coords(back.coords), _format_coords(X.coords),
            )

    it, count = _digit_tuples(p, n * K, cfg.samples, rng)
    breakdown["interleave_backward"] = count
    for digs in it:
        z = _new(InterleavedPadic, (_new(TruncatedPadicInt, (p, n * K, digs)), n))
        back = interleave(deinterleave(z))
        if back != z:
            _fail(
                failures,
                "interleave_backward",
                format_padic(z.value),
                format_padic(back.value),
                format_padic(z.value),
            )

    return sum(breakdown.values()), breakdown, failures


def _suite_theorem1(cfg, rng):
    f = _suite_function(cfg, "norm-product", REAL)
    G = build_g(f)
    failures = []
    it, count = _points(cfg.p, cfg.n, cfg.K, cfg.samples, rng)
    for X in it:
        expected = f(X)
        got = superpose1(G, X)
        if got != expected:
            _fail(failures, "theorem1", _format_coords(X.coords), repr(got), repr(expected))
    return count, {"identity": count}, failures


def _suite_theorem2(cfg, rng):
    f = _suite_function(cfg, "padic-sum", PADIC)
    H = build_h(f, cfg.weights)
    K = cfg.K
    failures = []
    it, count = _points(cfg.p, cfg.n, K, cfg.samples, rng)
    for X in it:
        expected = PadicScalar.from_padic_int(f(X))
        got = superpose2(H, X)
        if got != expected:
            _fail(
                failures,
                "theorem2",
                _format_coords(X.coords),
                format_padic(got.to_padic_int(K)),
                format_padic(expected.to_padic_int(K)),
            )
    return count, {"identity": count}, failures


def _suite_lemma1(cfg, rng):
    # The stated pair-distance bound is specific to arity 2; the check runs
    # at arity 2 regardless of the configured n.
    p = cfg.p
    n = 2
    L = LEMMA1_LEVEL
    bound = Fraction((2 * p - 1) ** 2 - 1, 2 * (p - 1) ** 2)
    _require_sample_size(cfg.samples, 4 * L)
    failures = []
    for _ in range(cfg.samples):
        parts = []
        for _ in range(4):
            digs = tuple(n * rng.randrange(p) for _ in range(L))
            parts.append(CantorValue(p, n, digs))
        xa, ya, xb, yb = parts
        d2 = (cantor_to_rational(xa) - cantor_to_rational(xb)) ** 2 + (
            cantor_to_rational(ya) - cantor_to_rational(yb)
        ) ** 2
        lhs = abs(
            cantor_to_rational(combine([xa, ya])) - cantor_to_rational(combine([xb, yb]))
        )
        if lhs > bound * d2:
            _fail(
                failures,
                "lemma1",
                ";".join(format_cantor(c) for c in (xa, ya, xb, yb)),
                str(lhs),
                str(bound * d2),
            )
    return cfg.samples, {"pairs": cfg.samples}, failures


def _pairs(p, length, samples, rng, value=tuple):
    """(iterator of pairs of ``value(digit tuple)``, count), exhaustive under the limit.

    Exhaustive runs call ``value`` once per tuple; sampled ones once per draw.
    """
    if table_fits(p, 2 * length):
        space = list(map(value, product(range(p), repeat=length)))
        return product(space, space), len(space) ** 2
    _require_sample_size(samples, 2 * length)
    it = (
        (value(_draw(rng, p, length)), value(_draw(rng, p, length))) for _ in range(samples)
    )
    return it, samples


def _suite_lemma2(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K
    failures = []

    def value(digs):
        X = _block_point(p, n, K, digs)
        return X, interleave(X).value

    it, count = _pairs(p, n * K, cfg.samples, rng, value)
    for (A, za), (B, zb) in it:
        dist = point_distance(A, B)
        img = padic_norm(padic_sub(za, zb))
        if img > dist**n:
            case = f"{_format_coords(A.coords)}|{_format_coords(B.coords)}"
            _fail(failures, "lemma2", case, str(img), f"{dist}**{n}")
    return count, {"pairs": count}, failures


def _shared_prefix(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return len(a)


def _suite_holder(cfg, rng):
    p, n, K = cfg.p, cfg.n, cfg.K
    failures = []
    breakdown = {}

    def encoded(digs):
        x = _new(TruncatedPadicInt, (p, K, digs))
        return x, cantor_encode(x, n)

    it, count = _pairs(p, K, cfg.samples, rng, encoded)
    breakdown["encode_prefix"] = count
    for (x, cx), (y, cy) in it:
        N = _shared_prefix(x.digits, y.digits)
        if cx.digits[:N] != cy.digits[:N]:
            case = f"{format_padic(x)}|{format_padic(y)}"
            _fail(failures, "encode_prefix", case, format_cantor(cx), format_cantor(cy))

    def extracted(digs):
        z = CantorValue(p, n, tuple(n * d for d in digs))
        return z, [extract(z, k) for k in range(n)]

    it, count = _pairs(p, n * K, cfg.samples, rng, extracted)
    breakdown["extract_prefix"] = count
    for (z, ez), (w, ew) in it:
        N = _shared_prefix(z.digits, w.digits)
        for k in range(n):
            keep = (N - k + n - 1) // n if N >= k else 0
            if ez[k].digits[:keep] != ew[k].digits[:keep]:
                case = f"{format_cantor(z)}|{format_cantor(w)}|k={k}"
                _fail(failures, "extract_prefix", case, format_cantor(ez[k]), format_cantor(ew[k]))
    return sum(breakdown.values()), breakdown, failures


def _gap_case(a, b, den):
    return f"gap ({Fraction(a, den)}, {Fraction(b, den)})"


def _quarter_point(va, vb):
    """float(va + (vb - va) / 4) in exact integers: int / int rounds once, correctly."""
    (an, ad), (bn, bd) = va.as_integer_ratio(), vb.as_integer_ratio()
    return (3 * an * bd + bn * ad) / (4 * ad * bd)


def _suite_extension(cfg, rng):
    f = _suite_function(cfg, "norm-product", REAL)
    G = build_g(f)
    values = G.values
    failures = []
    # A gap's midpoint and quarter point are exact over 4 * q**L.
    den = G.q**G.L
    gaps = gap_numerators(G.p, G.n, G.L)
    for (a, b), va, vb in zip(gaps, values, values[1:]):
        got = eval_g(G, Fraction(a, den))
        if got != va:
            _fail(failures, "gap_left_endpoint", _gap_case(a, b, den), repr(got), repr(va))
        got = eval_g(G, Fraction(b, den))
        if got != vb:
            _fail(failures, "gap_right_endpoint", _gap_case(a, b, den), repr(got), repr(vb))
        mid = eval_g(G, Fraction(2 * (a + b), 4 * den))
        mean = (va + vb) / 2
        if mid != mean:
            _fail(failures, "gap_midpoint", _gap_case(a, b, den), repr(mid), repr(mean))
        at_quarter = eval_g(G, Fraction(3 * a + b, 4 * den))
        expected = _quarter_point(va, vb)
        if at_quarter != expected:
            _fail(
                failures, "gap_linearity", _gap_case(a, b, den), repr(at_quarter), repr(expected)
            )
    count = len(gaps)
    return count, {"gaps": count}, failures


_SUITE_FNS = {
    "roundtrip": _suite_roundtrip,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "holder": _suite_holder,
    "extension": _suite_extension,
}


def _suite_function(cfg, default, codomain):
    """The function a table suite checks: ``cfg.table``, else ``cfg.function`` or default."""
    if cfg.table is not None:
        return resolve_function(cfg.table, cfg, codomain, table=True)
    return resolve_function(cfg.function or default, cfg, codomain)


def resolve_function(
    spec: str, cfg: RunConfig, codomain: str, table: bool = False
) -> CylinderFunction:
    """Turn a builtin name or a JSON table path into a CylinderFunction.

    With ``table`` set, spec is always a path.  Otherwise it is one when it
    ends in ``.json`` or holds a path separator, and a builtin name if not.
    """
    if table or spec.endswith(".json") or os.path.sep in spec:
        f = load_table_json(spec)
        if (f.p, f.n, f.K) != (cfg.p, cfg.n, cfg.K):
            raise ConfigError(
                f"table file has (p={f.p}, n={f.n}, K={f.K}), "
                f"run is configured for (p={cfg.p}, n={cfg.n}, K={cfg.K})"
            )
        if f.codomain != codomain:
            raise ConfigError(
                f"table codomain {f.codomain!r} does not fit a {codomain!r} suite"
            )
        return f
    return CylinderFunction.from_builtin(spec, cfg.p, cfg.n, cfg.K, codomain=codomain)


def load_table_json(path: str) -> CylinderFunction:
    """Read a cylinder-function table file.

    Expected shape::

        {"p": 2, "n": 2, "K": 1, "codomain": "real",
         "entries": [{"x": [[0], [0]], "value": 0.0}, ...]}

    Digit lists are little-endian; p-adic values use the textual form
    ``p:K:d0,...``.  The table must be total over all p**(n*K) keys.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None

    if not isinstance(raw, dict):
        raise TableFormatError(f"{path}: top level must be a JSON object")
    for fld in ("p", "n", "K", "codomain", "entries"):
        if fld not in raw:
            raise TableFormatError(f"{path}: missing field {fld!r}")
    p, n, K, codomain = raw["p"], raw["n"], raw["K"], raw["codomain"]
    if codomain not in (REAL, PADIC):
        raise TableFormatError(f"{path}: codomain must be 'real' or 'padic', got {codomain!r}")
    if not isinstance(raw["entries"], list):
        raise TableFormatError(f"{path}: 'entries' must be a list")

    entries = {}
    for idx, entry in enumerate(raw["entries"]):
        if not isinstance(entry, dict) or "x" not in entry or "value" not in entry:
            raise TableFormatError(f"{path}: entry {idx} needs fields 'x' and 'value'")
        x = entry["x"]
        if not isinstance(x, list) or len(x) != n:
            raise TableFormatError(f"{path}: entry {idx} field 'x' must list {n} coordinates")
        if not all(isinstance(coord, list) for coord in x):
            raise TableFormatError(
                f"{path}: entry {idx} field 'x' has a coordinate that is not a list"
            )
        try:
            key = tuple(tuple(int(d) for d in coord) for coord in x)
        except (TypeError, ValueError):
            raise TableFormatError(f"{path}: entry {idx} field 'x' has non-integer digits") from None
        if key in entries:
            raise TableFormatError(f"{path}: entry {idx} duplicates key {x}")
        value = entry["value"]
        if codomain == REAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TableFormatError(f"{path}: entry {idx} field 'value' must be a number")
            if not math.isfinite(float(value)):
                raise TableFormatError(f"{path}: entry {idx} field 'value' is not finite")
            entries[key] = float(value)
        else:
            if not isinstance(value, str):
                raise TableFormatError(
                    f"{path}: entry {idx} field 'value' must be a p-adic literal string"
                )
            try:
                entries[key] = parse_padic(value)
            except ValueError as exc:
                raise TableFormatError(f"{path}: entry {idx} field 'value': {exc}") from None

    try:
        return CylinderFunction.from_table(
            p, n, K, codomain, entries, name=os.path.basename(path)
        )
    except TableFormatError as exc:
        raise TableFormatError(f"{path}: {exc}") from None


def emit_cantor_csv(p: int, n: int, L: int, path: str) -> int:
    """Write ``index,rational,decimal`` rows for all level-L interval left endpoints.

    Returns the number of data rows.  Refuses enumerations beyond the size
    limit.
    """
    if not is_prime(p):
        raise NonPrimeModulus(f"modulus {p} is not prime")
    _require_table_size(p, L, "L")
    import csv

    lefts = interval_left_endpoints(p, n, L)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "rational", "decimal"])
        for i, left in enumerate(lefts):
            writer.writerow([i, f"{left.numerator}/{left.denominator}", repr(float(left))])
    return len(lefts)
