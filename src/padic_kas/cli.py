"""Command-line front end.

Exit codes: 0 success, 1 verification failure (or superposition mismatch),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

from .cantor import (
    cantor_decode,
    cantor_encode,
    cantor_to_rational,
    extract,
    format_cantor,
    interval_left_endpoints,
    parse_cantor,
    spread,
)
from .core import format_padic, make_point, parse_padic
from .errors import ConfigError, InvalidCantorDigit, PadicKasError, SizeLimitExceeded
from .interleave import deinterleave, interleave, make_interleaved

# Each command runs in a fresh process and imports what it needs itself, so
# that the codec commands start without the representatives (superposition)
# or the verification suites (verify).

SEED_ENV_VAR = "PADIC_KAS_SEED"

# superposition.WEIGHTS_PROOF and WEIGHTS_PAPER, spelled out so that building
# the parser imports nothing.
WEIGHTS = ("proof", "paper")


def _rational(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _parse_padic_at(text, p):
    """Parse a p-adic literal whose modulus must be the --p flag's."""
    x = parse_padic(text)
    if x.p != p:
        raise ConfigError(f"literal {text!r} has p={x.p}, but --p is {p}")
    return x


def _add_pn(sub, K=False):
    sub.add_argument("--p", type=int, required=True, help="prime modulus")
    sub.add_argument("--n", type=int, required=True, help="arity")
    if K:
        sub.add_argument("--K", type=int, required=True, help="digit precision per coordinate")


def _add_function(sub, required=False):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--function", help="builtin name (zero, proj-K, padic-sum, norm-K, norm-product, digit0-K)")
    group.add_argument("--table", help="path to a JSON function-table file")


def _build_parser() -> argparse.ArgumentParser:
    # Each add_argument builds a help formatter to check the argument, and the
    # default formatter measures the terminal, which imports shutil.  Build at
    # a fixed width, then hand back the default, so that only help and usage
    # errors measure the terminal.
    fixed = partial(argparse.HelpFormatter, width=80)
    parser = argparse.ArgumentParser(
        prog="padic-kas",
        description=(
            "Digit codecs between Z_p^n, a Cantor-like subset of [0,1], and Z_p, "
            "and single-variable representatives of multivariate cylinder functions."
        ),
        formatter_class=fixed,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=fixed),
    )

    s = sub.add_parser("encode", help="base-q encode of a p-adic integer (stride-1 digits)")
    _add_pn(s)
    s.add_argument("--x", required=True, help="p-adic value as p:K:d0,d1,...")

    s = sub.add_parser("decode", help="invert the base-q encode")
    _add_pn(s)
    s.add_argument("--cantor", required=True, help="Cantor value as q:L:d0,d1,...")

    s = sub.add_parser("phi", help="spread base-q encode (digit i at position n*i)")
    _add_pn(s)
    s.add_argument("--x", required=True, help="p-adic value as p:K:d0,d1,...")

    s = sub.add_parser("psi", help="invert the spread encode")
    _add_pn(s)
    s.add_argument("--cantor", required=True, help="Cantor value as q:L:d0,d1,...")

    s = sub.add_parser("interleave", help="merge n coordinates into one p-adic value")
    s.add_argument("--p", type=int, required=True)
    s.add_argument(
        "--coord",
        action="append",
        required=True,
        help="coordinate as p:K:d0,d1,... (repeat n times)",
    )

    s = sub.add_parser("deinterleave", help="split one p-adic value into n coordinates")
    _add_pn(s)
    s.add_argument("--z", required=True, help="interleaved value as p:nK:d0,d1,...")

    s = sub.add_parser("build-g", help="tabulate the real-valued representative")
    _add_pn(s, K=True)
    _add_function(s, required=True)
    s.add_argument("--out", required=True, help="output JSON path")

    s = sub.add_parser("build-h", help="tabulate the p-adic-valued representative")
    _add_pn(s, K=True)
    _add_function(s, required=True)
    s.add_argument("--out", required=True, help="output JSON path")
    s.add_argument("--weights", choices=WEIGHTS, default=WEIGHTS[0])

    s = sub.add_parser("superpose", help="evaluate f through its univariate representative")
    _add_pn(s, K=True)
    _add_function(s, required=True)
    s.add_argument("--coord", action="append", required=True, help="coordinate (repeat n times)")
    s.add_argument("--weights", choices=WEIGHTS, default=WEIGHTS[0])

    s = sub.add_parser("verify", help="run verification suites")
    _add_pn(s, K=True)
    s.add_argument("--suite", default="all", help="suite name or 'all'")
    _add_function(s)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=int, default=None, help=f"overrides ${SEED_ENV_VAR}; default 0")
    s.add_argument("--out", help="write the JSON report here")
    s.add_argument("--weights", choices=WEIGHTS, default=WEIGHTS[0])

    s = sub.add_parser("emit-cantor", help="CSV of level-L interval left endpoints")
    _add_pn(s)
    s.add_argument("--L", type=int, required=True, help="level (digit count)")
    s.add_argument("--out", required=True, help="output CSV path")

    for built in (parser, *sub.choices.values()):
        built.formatter_class = argparse.HelpFormatter
    return parser


def _cmd_encode(args):
    """encode and phi: the stride-1 or the spread base-q encode."""
    x = _parse_padic_at(args.x, args.p)
    c = cantor_encode(x, args.n)
    L = c.L if args.command == "encode" else args.n * (c.L - 1) + 1
    # The rational's denominator before reduction, q**L, has floor(L*log10(q)) + 1
    # digits; Python prints no int longer than its limit.  No limit (0) is read as
    # 4300, so that no literal makes the command spread or print without end.
    limit = sys.get_int_max_str_digits() or 4300
    if L * math.log10(c.q) >= limit:
        raise SizeLimitExceeded(
            f"{args.command} of {args.x!r} has {L} base-{c.q} digits; its rational "
            f"would exceed the limit of {limit} digits on a printed integer"
        )
    if args.command == "phi":
        c = spread(c)
    print(format_cantor(c))
    print(_rational(cantor_to_rational(c)))
    return 0


def _cmd_decode(args):
    """decode and psi: invert the stride-1 or the spread base-q encode."""
    c = parse_cantor(args.cantor, args.p, args.n)
    if args.command == "psi":
        n = args.n
        k = min((i % n for i, d in enumerate(c.digits) if d and i % n), default=0)
        if k:
            raise InvalidCantorDigit(
                f"digits at positions n*i+{k} are nonzero; not a spread-encoded value"
            )
        c = extract(c, 0)
    print(format_padic(cantor_decode(c)))
    return 0


def _cmd_interleave(args):
    coords = [_parse_padic_at(text, args.p) for text in args.coord]
    X = make_point(coords)
    z = interleave(X)
    print(format_padic(z.value))
    return 0


def _cmd_deinterleave(args):
    value = _parse_padic_at(args.z, args.p)
    z = make_interleaved(value, args.n)
    X = deinterleave(z)
    for c in X.coords:
        print(format_padic(c))
    return 0


def _write_json(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def _cmd_build_g(args):
    from .superposition import REAL, build_g, resolve_function

    f = resolve_function(args.p, args.n, args.K, REAL, args.function, args.table)
    G = build_g(f)
    payload = {
        "kind": "g",
        "p": G.p,
        "n": G.n,
        "K": G.K,
        "q": G.q,
        "function": f.name,
        "entries": [
            {"digits": list(key), "value": value} for key, value in G.table.items()
        ],
    }
    _write_json(args.out, payload)
    # Gap i lies between intervals i and i+1; for n = 1 the intervals touch.
    intervals = len(G.values)
    gaps = 0 if G.n == 1 else intervals - 1
    print(f"wrote {intervals} interval values and {gaps} gaps to {args.out}")
    return 0


def _cmd_build_h(args):
    from .superposition import PADIC, build_h, resolve_function

    f = resolve_function(args.p, args.n, args.K, PADIC, args.function, args.table)
    H = build_h(f, args.weights)
    payload = {
        "kind": "h",
        "p": H.p,
        "n": H.n,
        "K": H.K,
        "weights": H.weights,
        "function": f.name,
        "entries": [
            {"z": list(key), "value": format_padic(scalar.to_padic_int(H.K))}
            for key, scalar in H.table.items()
        ],
    }
    _write_json(args.out, payload)
    print(f"wrote {len(H.table)} entries to {args.out}")
    return 0


def _cmd_superpose(args):
    from .superposition import PADIC, build_g, build_h, resolve_function, superpose1, superpose2

    f = resolve_function(args.p, args.n, args.K, function=args.function, table=args.table)
    coords = [parse_padic(text) for text in args.coord]
    X = make_point(coords)
    direct = f(X)
    if f.codomain == PADIC:
        H = build_h(f, args.weights)
        got = superpose2(H, X).to_padic_int(f.K)
        show = format_padic
    else:
        G = build_g(f)
        got = superpose1(G, X)
        show = repr
    print(f"result: {show(got)}")
    print(f"direct: {show(direct)}")
    match = got == direct
    print(f"match: {'yes' if match else 'no'}")
    return 0 if match else 1


def _cmd_verify(args):
    from .verify import RunConfig, run_verify

    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(text)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
    config = RunConfig(
        p=args.p,
        n=args.n,
        K=args.K,
        suite=args.suite,
        function=args.function,
        samples=args.samples,
        seed=seed,
        weights=args.weights,
        table=args.table,
    )
    report = run_verify(config)
    print(
        f"suite={report.suite} cases={report.cases} "
        f"failures={len(report.failures)} passed={report.passed}"
    )
    for check, count in report.breakdown.items():
        print(f"  {check}: {count} cases")
    shown = report.failures[:10]
    for failure in shown:
        print(
            f"  FAIL {failure['check']}: input={failure['input']} "
            f"lhs={failure['lhs']} rhs={failure['rhs']}"
        )
    if len(report.failures) > len(shown):
        print(f"  ... and {len(report.failures) - len(shown)} more failures")
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0 if report.passed else 1


def _cmd_emit_cantor(args):
    import csv

    lefts = interval_left_endpoints(args.p, args.n, args.L)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "rational", "decimal"])
        for i, left in enumerate(lefts):
            writer.writerow([i, _rational(left), repr(float(left))])
    print(f"wrote {len(lefts)} rows to {args.out}")
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "phi": _cmd_encode,
    "psi": _cmd_decode,
    "interleave": _cmd_interleave,
    "deinterleave": _cmd_deinterleave,
    "build-g": _cmd_build_g,
    "build-h": _cmd_build_h,
    "superpose": _cmd_superpose,
    "verify": _cmd_verify,
    "emit-cantor": _cmd_emit_cantor,
}


def cli_dispatch(argv=None) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (PadicKasError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
