"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criterion 4 checks the pair-distance bound of the two-coordinate interleave
with the constant that holds, (2p-1)**2; its docstring carries the proof.
The constant ((2p-1)**2 - 1) / (2 (p-1)**2) = 2p/(p-1) attributed to the
paper is false for this map.  The same test pins two exact counterexamples
to it at L=8: x_a = (2,0,...,0), x_b = (0,2,...,2) for p=2 and
x_a = (4,0,...,0), x_b = (2,4,...,4) for p=3, both with y_a = y_b = 0.
"""

import multiprocessing as mp
import random
import time
from fractions import Fraction
from itertools import product

from padic_kas import (
    CantorValue,
    CylinderFunction,
    InterleavedPadic,
    PadicPoint,
    PadicScalar,
    TruncatedPadicInt,
    build_g,
    build_h,
    cantor_decode,
    cantor_encode,
    cantor_to_rational,
    combine,
    deinterleave,
    eval_g,
    gap_intervals,
    interleave,
    padic_norm,
    padic_sub,
    point_distance,
    superpose1,
    superpose2,
)

from helpers import all_points, all_values, random_padic_table, random_real_table


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _interleave_roundtrip_chunk(args):
    """Both roundtrip directions over one digit-prefix slice of Z/p^(nK)."""
    p, n, K, prefix = args
    nK = n * K
    bad = 0
    coord_of = {t: TruncatedPadicInt(p, K, t) for t in product(range(p), repeat=K)}
    bounds = [(k * K, (k + 1) * K) for k in range(n)]
    for tail in product(range(p), repeat=nK - len(prefix)):
        digs = prefix + tail
        z = InterleavedPadic(TruncatedPadicInt(p, nK, digs), n)
        if interleave(deinterleave(z)) != z:
            bad += 1
        X = PadicPoint(n, tuple([coord_of[digs[a:b]] for a, b in bounds]))
        if deinterleave(interleave(X)) != X:
            bad += 1
    return bad


def test_criterion_1_codec_roundtrips():
    t0 = time.perf_counter()
    failures = 0
    cases = 0

    for p, n in product((2, 3, 5), (2, 3)):
        K = 6
        for digs in product(range(p), repeat=K):
            x = TruncatedPadicInt(p, K, digs)
            if cantor_decode(cantor_encode(x, n)) != x:
                failures += 1
            cases += 1

    tasks = []
    for p, n in product((2, 3), (2, 3)):
        K = 4
        for prefix in product(range(p), repeat=2):
            tasks.append((p, n, K, prefix))
        cases += 2 * p ** (n * K)
    tasks.sort(key=lambda t: t[0] ** (t[1] * t[2]), reverse=True)
    with mp.get_context("fork").Pool(2) as pool:
        failures += sum(pool.map(_interleave_roundtrip_chunk, tasks, chunksize=1))

    elapsed = time.perf_counter() - t0
    _report(
        1,
        "codec round-trips",
        failures == 0 and elapsed < 5.0,
        f"cases={cases}, failures={failures}, {elapsed:.2f}s",
    )


def _theorem2_functions(p, n, K):
    yield CylinderFunction.from_builtin("padic-sum", p, n, K)
    yield CylinderFunction.from_builtin("proj-1", p, n, K)
    yield CylinderFunction.from_builtin("proj-2", p, n, K)
    rng = random.Random(0)
    for i in range(100):
        yield random_padic_table(p, n, K, rng, name=f"random-padic-{i}")


def test_criterion_2_padic_valued_identity():
    t0 = time.perf_counter()
    failures = 0
    cases = 0
    for p, n, K in ((2, 2, 5), (3, 2, 3)):
        points = all_points(p, n, K)
        for f in _theorem2_functions(p, n, K):
            H = build_h(f)
            for X in points:
                cases += 1
                if superpose2(H, X) != PadicScalar.from_padic_int(f(X)):
                    failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "p-adic-valued superposition identity",
        failures == 0 and elapsed < 10.0,
        f"cases={cases}, failures={failures}, {elapsed:.2f}s",
    )


def _theorem1_functions(p, n, K):
    yield CylinderFunction.from_builtin("norm-product", p, n, K)
    yield CylinderFunction.from_builtin("digit0-1", p, n, K)
    rng = random.Random(0)
    for i in range(100):
        yield random_real_table(p, n, K, rng, name=f"random-real-{i}")


def test_criterion_3_real_valued_identity():
    t0 = time.perf_counter()
    failures = 0
    cases = 0
    for p, n, K in ((2, 2, 5), (3, 2, 3)):
        points = all_points(p, n, K)
        for f in _theorem1_functions(p, n, K):
            G = build_g(f)
            for X in points:
                cases += 1
                if superpose1(G, X) != f(X):
                    failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "real-valued superposition identity",
        failures == 0 and elapsed < 10.0,
        f"cases={cases}, failures={failures}, {elapsed:.2f}s",
    )


def _pair_image_terms(xa, ya, xb, yb):
    """(|Phi2(a) - Phi2(b)|, d(a, b)**2) for a = (xa, ya), b = (xb, yb)."""
    d2 = (cantor_to_rational(xa) - cantor_to_rational(xb)) ** 2 + (
        cantor_to_rational(ya) - cantor_to_rational(yb)
    ) ** 2
    lhs = abs(
        cantor_to_rational(combine([xa, ya])) - cantor_to_rational(combine([xb, yb]))
    )
    return lhs, d2


# (p, x_a digits, x_b digits, |Phi2(a) - Phi2(b)|, d**2) at L=8, y_a = y_b = 0.
# For p=2 the image distance tends to 7/12 as L grows.
_STATED_CONSTANT_COUNTEREXAMPLES = (
    (
        2,
        (2,) + (0,) * 7,
        (0,) + (2,) * 7,
        Fraction(8370196, 14348907),
        Fraction(4787344, 43046721),
    ),
    (
        3,
        (4,) + (0,) * 7,
        (2,) + (4,) * 7,
        Fraction(11189778646, 30517578125),
        Fraction(6103671876, 152587890625),
    ),
)


def test_criterion_4_pair_image_distance_bound():
    """|Phi2(a) - Phi2(b)| <= (2p-1)**2 * d(a, b)**2 for Phi2 = combine.

    Here a = (x_a, y_a) and b = (x_b, y_b) are pairs of stride-1 Cantor-set
    values, d is the Euclidean distance and q = 2p-1.  Let m be the first
    combined digit where Phi2(a) and Phi2(b) differ (if none, both sides
    are 0).

    1. Allowed digits are 0, 2, ..., q-1, so the images differ by at most
       (q-1) * q**-(m+1) at position m and by less than q**-(m+1) over the
       digits after it: |Phi2(a) - Phi2(b)| < q**-m.
    2. Write m = 2i or m = 2i+1.  The coordinate read at position m first
       differs at its digit i, by at least 2 there, and its tail after digit
       i is below q**-(i+1).  So that coordinate moves by more than
       q**-(i+1), and d**2 > q**-(2i+2).
    3. Since m >= 2i, q**-m <= q**2 * q**-(2i+2) < q**2 * d**2, hence
       |Phi2(a) - Phi2(b)| < q**2 * d**2.

    The stated constant 2p/(p-1) fails on the exact inputs pinned in
    _STATED_CONSTANT_COUNTEREXAMPLES, which stay within q**2.
    """
    for p, xa, xb, lhs_exact, d2_exact in _STATED_CONSTANT_COUNTEREXAMPLES:
        zero = CantorValue(p, 2, (0,) * len(xa))
        lhs, d2 = _pair_image_terms(
            CantorValue(p, 2, xa), zero, CantorValue(p, 2, xb), zero
        )
        assert (lhs, d2) == (lhs_exact, d2_exact)
        assert Fraction(2 * p, p - 1) * d2 < lhs <= (2 * p - 1) ** 2 * d2

    samples = 10**4
    L = 8
    counts = {}
    first_example = None
    for p in (2, 3):
        bound = (2 * p - 1) ** 2
        rng = random.Random(0)
        violations = 0
        for _ in range(samples):
            xa, ya, xb, yb = (
                CantorValue(p, 2, tuple(2 * rng.randrange(p) for _ in range(L)))
                for _ in range(4)
            )
            lhs, d2 = _pair_image_terms(xa, ya, xb, yb)
            if lhs > bound * d2:
                violations += 1
                if first_example is None:
                    first_example = (p, xa.digits, ya.digits, xb.digits, yb.digits)
        counts[p] = violations
    detail = (
        f"violations of constant (2p-1)**2: p=2: {counts[2]}/{samples}, "
        f"p=3: {counts[3]}/{samples}; first counterexample: {first_example}"
    )
    _report(4, "pair image distance bound", counts[2] == 0 and counts[3] == 0, detail)


def test_criterion_5_interleave_contraction_bound():
    t0 = time.perf_counter()
    p, n, K = 2, 2, 4
    points = all_points(p, n, K)
    images = [interleave(X).value for X in points]
    failures = 0
    cases = 0
    for i, A in enumerate(points):
        for j, B in enumerate(points):
            cases += 1
            d = point_distance(A, B)
            if padic_norm(padic_sub(images[i], images[j])) > d * d:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "interleave contraction bound",
        failures == 0 and elapsed < 5.0,
        f"cases={cases}, failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_6_digit_prefix_continuity():
    p = 2
    failures = 0
    cases = 0
    for K in range(1, 6):
        vals = all_values(p, K)
        for n in (1, 2, 3):
            q = n * (p - 1) + 1
            for x in vals:
                for y in vals:
                    cases += 1
                    N = next(
                        (i for i, (a, b) in enumerate(zip(x.digits, y.digits)) if a != b),
                        K,
                    )
                    cx, cy = cantor_encode(x, n), cantor_encode(y, n)
                    if cx.digits[:N] != cy.digits[:N]:
                        failures += 1
                    if abs(cantor_to_rational(cx) - cantor_to_rational(cy)) > Fraction(
                        1, q**N
                    ):
                        failures += 1
        for n in (2, 3):
            space = [
                CantorValue(p, n, tuple(n * d for d in digs))
                for digs in product(range(p), repeat=K)
            ]
            for z in space:
                for w in space:
                    cases += 1
                    N = next(
                        (i for i, (a, b) in enumerate(zip(z.digits, w.digits)) if a != b),
                        K,
                    )
                    for k in range(n):
                        keep = (N - k + n - 1) // n if N >= k else 0
                        az = z.digits[k::n]
                        aw = w.digits[k::n]
                        if az[:keep] != aw[:keep]:
                            failures += 1
    _report(
        6,
        "digit-prefix continuity of encode and extract",
        failures == 0,
        f"cases={cases}, failures={failures}",
    )


def _extension_functions(p, n, K):
    for name in ("zero", "norm-1", "norm-2", "norm-product", "digit0-1", "digit0-2"):
        yield CylinderFunction.from_builtin(name, p, n, K)
    rng = random.Random(0)
    for i in range(3):
        yield random_real_table(p, n, K, rng, name=f"random-real-{i}")


def test_criterion_7_extension_continuity():
    p, n = 2, 2
    failures = 0
    gaps_checked = 0
    for K in (1, 2, 3):
        for f in _extension_functions(p, n, K):
            G = build_g(f)
            for (a, b), va, vb in zip(gap_intervals(p, n, G.L), G.values, G.values[1:]):
                gaps_checked += 1
                # interval side vs the interpolation rule at both endpoints,
                # compared in exact rational arithmetic
                interp_at_a = Fraction(va) + (Fraction(vb) - Fraction(va)) * Fraction(0)
                interp_at_b = Fraction(va) + (Fraction(vb) - Fraction(va)) * Fraction(1)
                if Fraction(eval_g(G, a)) != interp_at_a:
                    failures += 1
                if Fraction(eval_g(G, b)) != interp_at_b:
                    failures += 1
                if eval_g(G, (a + b) / 2) != (va + vb) / 2:
                    failures += 1
    _report(
        7,
        "gap extension continuity",
        failures == 0,
        f"gaps={gaps_checked}, failures={failures}",
    )


def test_criterion_8_refinement_coherence():
    p, n, K = 2, 2, 2
    rng = random.Random(0)
    functions = [
        CylinderFunction.from_builtin("norm-product", p, n, K),
        CylinderFunction.from_builtin("digit0-1", p, n, K),
        random_real_table(p, n, K, rng),
    ]
    failures = 0
    cases = 0
    allowed = tuple(range(0, n * (p - 1) + 1, n))
    for f in functions:
        G_coarse = build_g(f)
        G_fine = build_g(f.lift(K + 1))
        fine = G_fine.table
        for key, value in G_coarse.table.items():
            for ext in product(allowed, repeat=n):
                cases += 1
                if fine[key + ext] != value:
                    failures += 1
            cases += 1
            if eval_g(G_fine, cantor_to_rational(CantorValue(p, n, key))) != value:
                failures += 1
    _report(
        8,
        "refinement coherence",
        failures == 0,
        f"cases={cases}, failures={failures}",
    )
