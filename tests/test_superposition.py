"""Representative construction and the exact superposition identities."""

import random
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import pytest

from padic_kas import (
    ArityMismatch,
    CantorValue,
    CodomainMismatch,
    ConfigError,
    CylinderFunction,
    DimensionMismatch,
    DomainViolation,
    EXHAUSTIVE_LIMIT,
    GFunction,
    InterleavedPadic,
    NonPrimeModulus,
    PadicPoint,
    PadicScalar,
    PrecisionMismatch,
    SizeLimitExceeded,
    TableFormatError,
    TruncatedPadicInt,
    WEIGHTS_PAPER,
    WEIGHTS_PROOF,
    build_g,
    build_h,
    cantor_decode,
    cantor_encode,
    cantor_to_rational,
    combine,
    deinterleave,
    eval_g,
    eval_g_ratio,
    extract,
    gap_intervals,
    h_value,
    interleave,
    interval_left_endpoints,
    interval_numerators,
    make_padic,
    make_point,
    padic_add,
    padic_from_int,
    padic_norm,
    padic_sub,
    superpose1,
    superpose2,
)

from padic_kas import superposition, verify

from helpers import (
    all_points,
    all_values,
    random_padic_table,
    random_real_table,
    table_keys,
)


def pt(p, K, *ints):
    return make_point([padic_from_int(v, p, K) for v in ints])


class TestBuiltins:
    def test_zero_defaults_to_real(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 1)
        assert f.codomain == "real"
        assert f(pt(2, 1, 1, 0)) == 0.0

    def test_zero_padic(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 2, codomain="padic")
        assert f(pt(2, 2, 3, 1)) == make_padic([], 2, 2)

    def test_proj(self):
        f = CylinderFunction.from_builtin("proj-2", 2, 2, 2)
        assert f(pt(2, 2, 1, 3)) == padic_from_int(3, 2, 2)

    def test_padic_sum(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 3, 2)
        X = pt(2, 2, 1, 1, 3)
        assert f(X) == padic_from_int(5 % 4, 2, 2)

    def test_norm_k(self):
        f = CylinderFunction.from_builtin("norm-1", 3, 2, 2)
        assert f(pt(3, 2, 3, 1)) == float(Fraction(1, 3))

    def test_norm_product(self):
        f = CylinderFunction.from_builtin("norm-product", 2, 2, 3)
        assert f(pt(2, 3, 2, 4)) == float(Fraction(1, 2) * Fraction(1, 4))

    @pytest.mark.parametrize("p, n, K", [(2, 2, 3), (3, 2, 2), (7, 3, 1), (5, 1, 4)])
    def test_norms_match_the_fraction_reference(self, p, n, K):
        # Every point, zero coordinates included: the float norms are the
        # floats of the exact Fraction norms, bit for bit.
        product_fn = CylinderFunction.from_builtin("norm-product", p, n, K)
        first_fn = CylinderFunction.from_builtin("norm-1", p, n, K)
        for X in all_points(p, n, K):
            exact = Fraction(1)
            for c in X.coords:
                exact *= padic_norm(c)
            assert repr(product_fn(X)) == repr(float(exact))
            assert repr(first_fn(X)) == repr(float(padic_norm(X.coords[0])))

    @pytest.mark.parametrize("p, K, v1, v2", [(7, 12, 9, 10), (3, 20, 17, 18)])
    def test_norm_product_of_deep_valuations_rounds_like_fraction(self, p, K, v1, v2):
        # 1/p**(v1+v2) is not dyadic, and at these exponents the float power
        # 1/float(p)**v rounds twice and misses: the quotient must round once.
        f = CylinderFunction.from_builtin("norm-product", p, 2, K)
        X = make_point([padic_from_int(p**v1, p, K), padic_from_int(2 * p**v2, p, K)])
        assert repr(f(X)) == repr(float(Fraction(1, p ** (v1 + v2))))
        Y = make_point([padic_from_int(0, p, K), padic_from_int(1, p, K)])
        assert f(Y) == 0.0

    def test_digit0(self):
        f = CylinderFunction.from_builtin("digit0-1", 3, 2, 1)
        assert f(pt(3, 1, 2, 0)) == 2.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            CylinderFunction.from_builtin("cube", 2, 2, 1)

    def test_bad_coordinate_index(self):
        with pytest.raises(ConfigError):
            CylinderFunction.from_builtin("proj-3", 2, 2, 1)
        with pytest.raises(ConfigError):
            CylinderFunction.from_builtin("proj-0", 2, 2, 1)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("cube", "unknown builtin function 'cube'"),
            ("proj", "unknown builtin function 'proj'"),
            ("zero-1", "unknown builtin function 'zero-1'"),
            ("digits0-1", "unknown builtin function 'digits0-1'"),
            ("proj-", "bad coordinate index in builtin 'proj-'"),
            ("norm-x", "bad coordinate index in builtin 'norm-x'"),
            ("digit0-1-2", "bad coordinate index in builtin 'digit0-1-2'"),
            ("proj-3", "builtin 'proj-3' indexes coordinate 3, arity is 2"),
            ("norm-0", "builtin 'norm-0' indexes coordinate 0, arity is 2"),
            ("digit0--1", "builtin 'digit0--1' indexes coordinate -1, arity is 2"),
        ],
    )
    def test_bad_names_are_named(self, name, message):
        with pytest.raises(ConfigError) as err:
            CylinderFunction.from_builtin(name, 2, 2, 1)
        assert str(err.value) == message

    def test_codomain_conflict(self):
        with pytest.raises(CodomainMismatch):
            CylinderFunction.from_builtin("padic-sum", 2, 2, 1, codomain="real")

    @pytest.mark.parametrize(
        "build,args,error,message",
        [
            (CylinderFunction.from_builtin, ("zero", 2, 0, 1), ArityMismatch,
             "arity must be >= 1, got 0"),
            (CylinderFunction.from_builtin, ("zero", 2, 1, 0), ValueError,
             "level must be >= 1, got 0"),
            (CylinderFunction.from_table, (4, 1, 1, "real", {}), NonPrimeModulus,
             "modulus 4 is not prime"),
            (CylinderFunction, (2, 1, 1, "complex", lambda X: 0, "c"), CodomainMismatch,
             "unknown codomain 'complex'"),
            (CylinderFunction.from_table, (2, 1, 1, "complex", {((0,),): 0.5, ((1,),): 1.5}),
             CodomainMismatch, "unknown codomain 'complex'"),
        ],
    )
    def test_bad_header_is_named(self, build, args, error, message):
        with pytest.raises(error) as exc:
            build(*args)
        assert exc.type is error
        assert str(exc.value) == message

    def test_argument_shape_checks(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 1)
        with pytest.raises(DimensionMismatch):
            f(pt(2, 1, 1))
        with pytest.raises(PrecisionMismatch):
            f(pt(2, 2, 1, 0))


class TestTables:
    def test_table_function_evaluates(self):
        rng = random.Random(5)
        entries = {key: rng.random() for key in table_keys(2, 2, 1)}
        f = CylinderFunction.from_table(2, 2, 1, "real", entries)
        for key, value in entries.items():
            X = make_point([TruncatedPadicInt(2, 1, c) for c in key])
            assert f(X) == value

    def test_table_must_be_total(self):
        keys = table_keys(2, 2, 1)
        entries = {k: 0.0 for k in keys[:-1]}
        with pytest.raises(TableFormatError):
            CylinderFunction.from_table(2, 2, 1, "real", entries)

    def test_real_values_must_be_finite(self):
        entries = {k: 0.0 for k in table_keys(2, 1, 1)}
        entries[((1,),)] = float("inf")
        with pytest.raises(TableFormatError):
            CylinderFunction.from_table(2, 1, 1, "real", entries)

    def test_padic_values_must_match_parameters(self):
        entries = {k: make_padic([], 2, 1) for k in table_keys(2, 1, 1)}
        entries[((1,),)] = make_padic([], 3, 1)
        with pytest.raises(TableFormatError):
            CylinderFunction.from_table(2, 1, 1, "padic", entries)

    def test_padic_value_must_be_a_truncated_padic_int(self):
        # Equal to TruncatedPadicInt(2, 1, (0,)) as a tuple, but not one.
        entries = {k: (2, 1, (0,)) for k in table_keys(2, 1, 1)}
        with pytest.raises(TableFormatError) as exc:
            CylinderFunction.from_table(2, 1, 1, "padic", entries)
        assert exc.type is TableFormatError
        assert str(exc.value) == "p-adic table value (2, 1, (0,)) is not a TruncatedPadicInt"

    def test_key_shape_validation(self):
        entries = {((0, 0),): 0.0}
        with pytest.raises(TableFormatError):
            CylinderFunction.from_table(2, 1, 1, "real", entries)

    def test_lift_ignores_new_digits(self):
        rng = random.Random(6)
        f = random_real_table(2, 2, 1, rng)
        g = f.lift(3)
        assert g.K == 3
        for a in all_values(2, 3):
            for b in all_values(2, 3):
                X = make_point([a, b])
                cut = pt(2, 1, a.digits[0], b.digits[0])
                assert g(X) == f(cut)

    def test_lift_rejects_coarser_level(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 2)
        with pytest.raises(ValueError):
            f.lift(1)

    def test_lift_to_the_same_level_is_the_function_itself(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 2)
        assert f.lift(f.K) is f

    def test_reprs(self):
        f = CylinderFunction.from_builtin("norm-product", 2, 2, 3)
        h = CylinderFunction.from_builtin("padic-sum", 3, 2, 2)
        assert repr(f) == "CylinderFunction('norm-product', p=2, n=2, K=3, codomain='real')"
        assert repr(build_g(f)) == "GFunction(p=2, n=2, K=3, intervals=64)"
        assert repr(build_h(h)) == "HFunction(p=3, n=2, K=2, weights='proof', entries=81)"


class TestBuildG:
    def test_constant_function(self):
        f = CylinderFunction.from_callable(2, 2, 1, "real", lambda X: 7.5, name="const")
        G = build_g(f)
        assert set(G.table.values()) == {7.5}
        for t in (0, Fraction(1, 2), Fraction(1, 3), 1):
            assert eval_g(G, t) == 7.5

    def test_norm_of_first_coordinate(self):
        f = CylinderFunction.from_builtin("norm-1", 2, 2, 1)
        G = build_g(f)
        assert G.table == {(0, 0): 0.0, (0, 2): 0.0, (2, 0): 1.0, (2, 2): 1.0}
        assert eval_g(G, 0) == 0.0
        assert eval_g(G, Fraction(2, 9)) == 0.0
        assert eval_g(G, Fraction(2, 3)) == 1.0
        assert eval_g(G, Fraction(8, 9)) == 1.0
        # 1/2 sits in the middle-third gap between table cells 2/9 and 2/3
        assert eval_g(G, Fraction(1, 2)) == 0.5

    def test_units_digit_of_second_coordinate(self):
        f = CylinderFunction.from_builtin("digit0-2", 2, 2, 1)
        G = build_g(f)
        assert G.table == {(0, 0): 0.0, (0, 2): 1.0, (2, 0): 0.0, (2, 2): 1.0}

    def test_rejects_padic_codomain(self):
        with pytest.raises(CodomainMismatch):
            build_g(CylinderFunction.from_builtin("padic-sum", 2, 2, 1))

    def test_table_keys_are_all_level_prefixes(self):
        G = build_g(CylinderFunction.from_builtin("norm-product", 2, 2, 2))
        assert len(G.table) == 2**4
        assert all(len(k) == 4 and all(d in (0, 2) for d in k) for k in G.table)


class TestEvalG:
    def test_exact_table_key_is_bit_identical(self):
        rng = random.Random(7)
        f = random_real_table(2, 2, 1, rng)
        G = build_g(f)
        for key, value in G.table.items():
            t = cantor_to_rational(CantorValue(2, 2, key))
            assert eval_g(G, t) == value

    def test_gap_midpoint_is_mean(self):
        rng = random.Random(8)
        f = random_real_table(2, 2, 1, rng)
        G = build_g(f)
        for (a, b), va, vb in zip(gap_intervals(2, 2, G.L), G.values, G.values[1:]):
            assert eval_g(G, (a + b) / 2) == (va + vb) / 2

    def test_gap_is_monotone_linear(self):
        f = CylinderFunction.from_builtin("norm-1", 2, 2, 1)
        G = build_g(f)
        a, b = Fraction(1, 3), Fraction(2, 3)
        samples = [a + (b - a) * Fraction(i, 8) for i in range(9)]
        values = [eval_g(G, t) for t in samples]
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_domain_violation(self):
        G = build_g(CylinderFunction.from_builtin("zero", 2, 2, 1))
        with pytest.raises(DomainViolation):
            eval_g(G, Fraction(-1, 10))
        with pytest.raises(DomainViolation):
            eval_g(G, Fraction(11, 10))


class TestSuperpose1:
    def test_constant(self):
        f = CylinderFunction.from_callable(2, 2, 2, "real", lambda X: 2.25, name="const")
        G = build_g(f)
        for X in all_points(2, 2, 2):
            assert superpose1(G, X) == 2.25

    def test_norm_examples(self):
        f = CylinderFunction.from_builtin("norm-1", 2, 2, 1)
        G = build_g(f)
        assert superpose1(G, pt(2, 1, 1, 0)) == 1.0
        assert superpose1(G, pt(2, 1, 0, 1)) == 0.0

    def test_packed_argument_lands_on_table_key(self):
        G = build_g(CylinderFunction.from_builtin("norm-1", 2, 2, 1))
        X = pt(2, 1, 1, 0)
        # packing (1, 0) interleaves the encodings: digits (2, 0), value 2/3
        z = combine([cantor_encode(c, 2) for c in X.coords])
        assert z.digits == (2, 0)
        assert cantor_to_rational(z) == Fraction(2, 3)
        assert superpose1(G, X) == eval_g(G, Fraction(2, 3))

    @pytest.mark.parametrize("p,n,K", [(2, 1, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1)])
    def test_identity_for_builtins(self, p, n, K):
        for name in ("norm-product", "digit0-1", "norm-1"):
            f = CylinderFunction.from_builtin(name, p, n, K)
            G = build_g(f)
            for X in all_points(p, n, K):
                assert superpose1(G, X) == f(X)

    def test_identity_for_random_tables(self):
        rng = random.Random(9)
        for p, n, K in ((2, 2, 2), (2, 3, 1), (3, 2, 1)):
            for _ in range(5):
                f = random_real_table(p, n, K, rng)
                G = build_g(f)
                for X in all_points(p, n, K):
                    assert superpose1(G, X) == f(X)

    def test_dimension_check(self):
        G = build_g(CylinderFunction.from_builtin("zero", 2, 2, 1))
        with pytest.raises(DimensionMismatch):
            superpose1(G, pt(2, 1, 1))


def _small_configs():
    """Every (p, n, K) with p in {2, 3, 5}, n in {1, 2, 3} and p**(n*K) <= 729."""
    return [
        (p, n, K)
        for p in (2, 3, 5)
        for n in (1, 2, 3)
        for K in range(1, 10)
        if p ** (n * K) <= 729
    ]


def _interval_values(f, lefts):
    """f on each interval, read from the base-q digits of its left endpoint."""
    p, n, K = f.p, f.n, f.K
    q = n * (p - 1) + 1
    values = []
    for left in lefts:
        m = left * q ** (n * K)
        digits = []
        for _ in range(n * K):
            m, d = divmod(int(m), q)
            digits.append(d // n)
        digits.reverse()
        coords = [TruncatedPadicInt(p, K, tuple(digits[k::n])) for k in range(n)]
        values.append(f(make_point(coords)))
    return values


def _search_eval_g(lefts, width, gaps, values, t):
    """The gap rule by binary search over the Fraction endpoints of the codec."""
    gi = bisect_right([a for a, _ in gaps], t) - 1
    if gi >= 0:
        a, b = gaps[gi]
        if a < t < b:
            va, vb = Fraction(values[gi]), Fraction(values[gi + 1])
            return float(va + (vb - va) * ((t - a) / (b - a)))
    j = bisect_right(lefts, t) - 1
    assert lefts[j] <= t <= lefts[j] + width
    return values[j]


class TestEvalGIndexing:
    @pytest.mark.parametrize("p,n,K", _small_configs())
    def test_matches_search_over_endpoints(self, p, n, K):
        rng = random.Random(100 * p + 10 * n + K)
        f = random_real_table(p, n, K, rng)
        G = build_g(f)
        L = n * K
        lefts = interval_left_endpoints(p, n, L)
        gaps = gap_intervals(p, n, L)
        width = Fraction(1, (n * (p - 1) + 1) ** L)
        values = _interval_values(f, lefts)
        points = [t for left in lefts for t in (left, left + width)]
        for a, b in gaps:
            points += [a, b, a + (b - a) * Fraction(rng.randrange(1, 97), 97)]
        for t in points:
            assert eval_g(G, t) == _search_eval_g(lefts, width, gaps, values, t), t

    @pytest.mark.parametrize("p,n,K", [(2, 2, 2), (3, 2, 1), (2, 3, 1), (5, 3, 1)])
    def test_right_end_of_interval_keeps_its_value(self, p, n, K):
        G = build_g(random_real_table(p, n, K, random.Random(1)))
        width = Fraction(1, G.q**G.L)
        for i, left in enumerate(interval_left_endpoints(p, n, G.L)):
            assert eval_g(G, left + width) == G.values[i]

    def test_shared_endpoint_takes_the_right_interval_for_arity_one(self):
        G = build_g(random_real_table(3, 1, 2, random.Random(2)))
        lefts = interval_left_endpoints(3, 1, 2)
        for i in range(len(lefts) - 1):
            assert lefts[i] + Fraction(1, G.q**G.L) == lefts[i + 1]
            assert eval_g(G, lefts[i + 1]) == G.values[i + 1]
            assert eval_g(G, lefts[i + 1]) != G.values[i]

    @pytest.mark.parametrize("p,n,K", [(2, 1, 2), (2, 2, 2), (3, 3, 1)])
    def test_ends_of_the_unit_interval(self, p, n, K):
        G = build_g(random_real_table(p, n, K, random.Random(3)))
        for zero in (0, Fraction(0)):
            assert eval_g(G, zero) == G.values[0]
        for one in (1, Fraction(1)):
            assert eval_g(G, one) == G.values[-1]

    @pytest.mark.parametrize("t", [Fraction(-1, 10**9), -1, Fraction(10**9 + 1, 10**9), 2])
    def test_outside_the_unit_interval_raises(self, t):
        G = build_g(random_real_table(2, 2, 2, random.Random(4)))
        with pytest.raises(DomainViolation):
            eval_g(G, t)


def _digit_walk_eval_g(G, t):
    """eval_g by reading the base-q digits of t * q**L from the top.

    The reference for the bisect steps, one digit at a time: the first
    digit that is not a multiple of n puts t in a gap.
    """
    t = Fraction(t)
    p, n, q, L, values = G.p, G.n, G.q, G.L, G.values
    scale = q**L
    m, r = divmod(t.numerator * scale, t.denominator)
    if m == scale:
        return values[-1]
    i = 0
    for rest in range(L - 1, -1, -1):
        scale //= q
        d, m = divmod(m, scale)
        j, off = divmod(d, n)
        if off:
            gi = (i * p + j + 1) * p**rest - 1
            offset = (off - 1) * scale + m
            if not offset and not r:
                return values[gi]
            va, vb = values[gi], values[gi + 1]
            theta = Fraction(offset * t.denominator + r, (n - 1) * scale * t.denominator)
            return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * theta)
        i = i * p + j
    return values[i]


EXTREME_VALUES = (-0.0, 0.0, 1e300, -1e300, 5e-324, 1.7976931348623157e308, 0.1, -2.5)


class _TaggedFraction(Fraction):
    """A Fraction whose str differs from Fraction's."""

    def __str__(self):
        return "tagged"


class TestEvalGBisect:
    # One bisect step, then several: (2, 2, 6) and (3, 2, 4) take a short
    # last step, (11, 1, 3) a one-digit range, and (37, 2, 1) only ranges.
    @pytest.mark.parametrize(
        "p,n,K",
        [(2, 1, 4), (3, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 3, 1), (5, 3, 1),
         (2, 2, 6), (3, 2, 4), (11, 1, 3), (37, 2, 1)],
    )
    def test_repr_identical_to_the_digit_walk(self, p, n, K):
        rng = random.Random(1000 + 100 * p + 10 * n + K)
        L = n * K
        den = (n * (p - 1) + 1) ** L
        G = GFunction(p, n, K, [rng.choice(EXTREME_VALUES) for _ in range(p**L)])
        nums = interval_numerators(p, n, L)
        points = [Fraction(a + e, den) for a in nums for e in (0, 1)]
        for _ in range(200):
            # A point of interval i or of the gap to its right.
            i = rng.randrange(len(nums))
            span = (nums[i + 1] if i + 1 < len(nums) else den) - nums[i]
            m = rng.randrange(2, 10**6)
            points.append(Fraction(nums[i], den) + Fraction(rng.randrange(1, m) * span, m * den))
        for t in points:
            assert repr(eval_g(G, t)) == repr(_digit_walk_eval_g(G, t)), t

    @pytest.mark.parametrize("p,n,K", [(2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 3, 1)])
    def test_unreduced_ratio_equals_the_reduced_fraction(self, p, n, K):
        rng = random.Random(200 + 100 * p + 10 * n + K)
        G = build_g(random_real_table(p, n, K, rng))
        den = G.q**G.L
        for _ in range(300):
            d = rng.choice((4 * den, rng.randrange(1, 10**6)))
            t = Fraction(rng.randrange(d + 1), d)
            c = rng.randrange(2, 50)
            got = eval_g_ratio(G, c * t.numerator, c * t.denominator)
            assert repr(got) == repr(eval_g(G, t)), (t, c)

    def test_public_ratio_entry_point_matches_eval_g(self):
        G = build_g(random_real_table(2, 2, 2, random.Random(14)))
        den = 4 * G.q**G.L
        for num in range(den + 1):
            assert repr(eval_g_ratio(G, 3 * num, 3 * den)) == repr(eval_g(G, Fraction(num, den)))

    @pytest.mark.parametrize(
        "num,den,message",
        [
            (-1, 2, "-1/2 is outside [0, 1]"),
            (5, 4, "5/4 is outside [0, 1]"),
            (6, 4, "3/2 is outside [0, 1]"),
            (0, 0, "denominator 0 is not positive"),
            (-1, -2, "denominator -2 is not positive"),
        ],
    )
    def test_ratio_entry_point_checks_its_domain(self, num, den, message):
        G = build_g(random_real_table(2, 2, 1, random.Random(15)))
        with pytest.raises(DomainViolation) as excinfo:
            eval_g_ratio(G, num, den)
        assert str(excinfo.value) == message

    def test_inputs_convert_as_fraction_converts_them(self):
        G = build_g(random_real_table(2, 2, 2, random.Random(11)))
        cases = [
            (0, Fraction(0)), (1, Fraction(1)), (True, Fraction(1)), (False, Fraction(0)),
            (0.5, Fraction(1, 2)), (0.1, Fraction(0.1)), ("1/3", Fraction(1, 3)),
            ("0.125", Fraction(1, 8)), (_TaggedFraction(4, 9), Fraction(4, 9)),
            (_TaggedFraction(1, 2), Fraction(1, 2)),
        ]
        for t, same in cases:
            assert repr(eval_g(G, t)) == repr(eval_g(G, same)), t
            assert repr(eval_g(G, t)) == repr(_digit_walk_eval_g(G, same)), t
        assert eval_g(G, True) == G.values[-1]
        assert eval_g(G, False) == G.values[0]

    @pytest.mark.parametrize(
        "t,message",
        [
            (-1, "-1 is outside [0, 1]"),
            (2, "2 is outside [0, 1]"),
            (1.5, "3/2 is outside [0, 1]"),
            (-0.25, "-1/4 is outside [0, 1]"),
            ("-1/3", "-1/3 is outside [0, 1]"),
            ("5/4", "5/4 is outside [0, 1]"),
            (_TaggedFraction(5, 4), "5/4 is outside [0, 1]"),
            (_TaggedFraction(-1, 2), "-1/2 is outside [0, 1]"),
        ],
    )
    def test_domain_violation_names_the_fraction(self, t, message):
        G = build_g(random_real_table(2, 2, 2, random.Random(12)))
        with pytest.raises(DomainViolation) as excinfo:
            eval_g(G, t)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "t,error",
        [("x", ValueError), (None, TypeError), (float("nan"), ValueError),
         (float("inf"), OverflowError)],
    )
    def test_unconvertible_input_raises_as_fraction_does(self, t, error):
        G = build_g(random_real_table(2, 2, 1, random.Random(13)))
        with pytest.raises(error):
            eval_g(G, t)

    @pytest.mark.parametrize(
        "p,n,L", [(2, 2, 20), (3, 2, 12), (11, 1, 5), (37, 2, 2), (1000003, 1, 1)]
    )
    def test_step_numerators_are_small_and_bounded(self, p, n, L):
        maxsize = superposition._steps.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 8
        steps = superposition._steps(p, n, L)
        q, rest = n * (p - 1) + 1, L
        for nums, scale, width, below in steps:
            assert len(nums) == width <= max(p, superposition._STEP_INTERVALS)
            assert isinstance(nums, range) or len(nums) <= superposition._STEP_INTERVALS
            size = next(s for s in range(1, L + 1) if p**s == width)
            # The level-1 numerators are range(0, q, n), also where p alone
            # exceeds the limit that interval_numerators enforces.
            oracle = list(range(0, q, n)) if size == 1 else interval_numerators(p, n, size)
            assert list(nums) == oracle
            rest -= size
            assert (scale, below) == (q**rest, p**rest)
        assert rest == 0


class TestSuperpose1ReadsTheIndex:
    @pytest.mark.parametrize("p,n,K", [(2, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 2, 1)])
    def test_agrees_with_eval_g_at_the_packed_value(self, p, n, K):
        G = build_g(random_real_table(p, n, K, random.Random(7)))
        for X in all_points(p, n, K):
            s = combine([cantor_encode(c, n) for c in X.coords])
            assert superpose1(G, X) == eval_g(G, cantor_to_rational(s))


class TestBuildH:
    def test_zero_function(self):
        H = build_h(CylinderFunction.from_builtin("zero", 2, 2, 2, codomain="padic"))
        assert all(s.is_zero for s in H.table.values())

    def test_padic_sum_at_three(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 2, 2)
        H = build_h(f)
        got = h_value(H, padic_from_int(3, 2, 4))
        assert got.to_padic_int(2) == padic_from_int(2, 2, 2)

    def test_projection_at_eleven(self):
        f = CylinderFunction.from_builtin("proj-1", 2, 2, 2)
        H = build_h(f)
        got = h_value(H, padic_from_int(11, 2, 4))
        assert got.to_padic_int(2) == padic_from_int(1, 2, 2)

    def test_total_over_all_prefixes(self):
        H = build_h(CylinderFunction.from_builtin("padic-sum", 3, 2, 2))
        assert len(H.table) == 3**4

    def test_rejects_real_codomain(self):
        with pytest.raises(CodomainMismatch):
            build_h(CylinderFunction.from_builtin("norm-1", 2, 2, 1))

    def test_rejects_unknown_weights(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 2, 1)
        with pytest.raises(ConfigError):
            build_h(f, weights="midway")

    def test_h_value_checks_precision(self):
        H = build_h(CylinderFunction.from_builtin("padic-sum", 2, 2, 2))
        with pytest.raises(PrecisionMismatch):
            h_value(H, padic_from_int(3, 2, 2))


class TestSuperpose2:
    def test_zero(self):
        f = CylinderFunction.from_builtin("zero", 2, 2, 2, codomain="padic")
        H = build_h(f)
        for X in all_points(2, 2, 2):
            assert superpose2(H, X).is_zero

    def test_padic_sum_example(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 2, 2)
        H = build_h(f)
        got = superpose2(H, pt(2, 2, 1, 1))
        assert got.to_padic_int(2) == padic_from_int(2, 2, 2)

    def test_projection_example(self):
        f = CylinderFunction.from_builtin("proj-1", 2, 2, 2)
        H = build_h(f)
        got = superpose2(H, pt(2, 2, 1, 3))
        assert got.to_padic_int(2) == padic_from_int(1, 2, 2)

    @pytest.mark.parametrize(
        "p,n,K", [(2, 1, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 1)]
    )
    def test_identity_for_builtins(self, p, n, K):
        for name in ("padic-sum", "proj-1", f"proj-{n}"):
            f = CylinderFunction.from_builtin(name, p, n, K)
            H = build_h(f)
            for X in all_points(p, n, K):
                assert superpose2(H, X) == PadicScalar.from_padic_int(f(X))

    def test_identity_for_random_tables(self):
        rng = random.Random(10)
        for p, n, K in ((2, 2, 2), (2, 3, 2), (3, 2, 1)):
            for _ in range(5):
                f = random_padic_table(p, n, K, rng)
                H = build_h(f)
                for X in all_points(p, n, K):
                    assert superpose2(H, X) == PadicScalar.from_padic_int(f(X))

    def test_dimension_check(self):
        H = build_h(CylinderFunction.from_builtin("padic-sum", 2, 2, 1))
        with pytest.raises(DimensionMismatch):
            superpose2(H, pt(2, 1, 1))

    @pytest.mark.parametrize("weights", [WEIGHTS_PROOF, WEIGHTS_PAPER])
    @pytest.mark.parametrize("p,n,K", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2)])
    def test_key_is_the_interleaved_digits(self, p, n, K, weights):
        H = build_h(random_padic_table(p, n, K, random.Random(100 * p + 10 * n + K)), weights)
        lead = (0,) if weights == WEIGHTS_PAPER else ()
        for X in all_points(p, n, K):
            assert superpose2(H, X) is H.table[lead + interleave(X).value.digits]

    @pytest.mark.parametrize("weights", [WEIGHTS_PROOF, WEIGHTS_PAPER])
    def test_malformed_points_raise_the_interleave_errors(self, weights):
        H = build_h(CylinderFunction.from_builtin("padic-sum", 2, 2, 2), weights)
        a = padic_from_int(1, 2, 2)
        cases = [
            (PadicPoint(3, (a, a, a)), DimensionMismatch),
            (PadicPoint(2, (a, a, a)), DimensionMismatch),
            (PadicPoint(2, (a,)), DimensionMismatch),
            (PadicPoint(2, (a, padic_from_int(1, 3, 2))), PrecisionMismatch),
            (PadicPoint(2, (a, padic_from_int(1, 2, 3))), PrecisionMismatch),
            (PadicPoint(2, (a, TruncatedPadicInt(2, 2, (1,)))), PrecisionMismatch),
            (PadicPoint(2, (a, TruncatedPadicInt(2, 2, (1, 0, 1)))), PrecisionMismatch),
        ]
        for X, error in cases:
            with pytest.raises(error):
                superpose2(H, X)


class TestPointArity:
    def test_every_evaluator_refuses_a_point_with_the_wrong_coordinate_count(self):
        a = padic_from_int(1, 2, 2)
        f = CylinderFunction.from_builtin("norm-product", 2, 2, 2)
        G = build_g(f)
        H = build_h(CylinderFunction.from_builtin("padic-sum", 2, 2, 2))
        for X in (PadicPoint(2, (a, a, a)), PadicPoint(2, (a,))):
            for call in (f, lambda X: superpose1(G, X), lambda X: superpose2(H, X)):
                with pytest.raises(DimensionMismatch, match="declares n=2 but has"):
                    call(X)


class TestWeightConventions:
    def test_shifted_keys_cover_multiples_of_p(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 2, 1)
        H = build_h(f, weights=WEIGHTS_PAPER)
        assert H.key_length == 3
        assert all(key[0] == 0 for key in H.table)

    def test_identity_still_exact(self):
        rng = random.Random(11)
        f = random_padic_table(2, 2, 2, rng)
        H = build_h(f, weights=WEIGHTS_PAPER)
        for X in all_points(2, 2, 2):
            assert superpose2(H, X) == PadicScalar.from_padic_int(f(X))

    def test_off_domain_evaluation_rejected(self):
        f = CylinderFunction.from_builtin("padic-sum", 2, 2, 1)
        H = build_h(f, weights=WEIGHTS_PAPER)
        with pytest.raises(DomainViolation):
            h_value(H, padic_from_int(1, 2, 3))
        assert h_value(H, padic_from_int(2 * 3, 2, 3)) is not None


class TestChainConsistency:
    @pytest.mark.parametrize("p,n,K", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
    def test_roundtrip_through_packed_value(self, p, n, K):
        for X in all_points(p, n, K):
            packed = combine([cantor_encode(c, n) for c in X.coords])
            back = tuple(cantor_decode(extract(packed, k)) for k in range(n))
            assert back == X.coords


class TestRefinementCoherence:
    def test_finer_level_agrees_on_coarse_prefixes(self):
        p, n, K = 2, 2, 2
        rng = random.Random(12)
        for f in (
            CylinderFunction.from_builtin("norm-product", p, n, K),
            random_real_table(p, n, K, rng),
        ):
            G_coarse = build_g(f)
            G_fine = build_g(f.lift(K + 1))
            fine = G_fine.table
            allowed = (0, 2)
            for key, value in G_coarse.table.items():
                for ext in product(allowed, repeat=n):
                    assert fine[key + ext] == value
                t = cantor_to_rational(CantorValue(p, n, key))
                assert eval_g(G_fine, t) == value


# Every (p, n, K) with p in {2, 3, 5}, n in {1, 2, 3} and p**(n*K) <= 729.
SMALL_SPACES = [
    (p, n, K)
    for p in (2, 3, 5)
    for n in (1, 2, 3)
    for K in range(1, 10)
    if p ** (n * K) <= 729
]


def reference_points(p, n, K):
    """(zdig, X) in product order of zdig, with X the de-interleave of zdig."""
    for zdig in product(range(p), repeat=n * K):
        yield zdig, deinterleave(InterleavedPadic(TruncatedPadicInt(p, n * K, zdig), n))


def padic_functions(p, n, K, rng):
    fs = [CylinderFunction.from_builtin("zero", p, n, K, codomain="padic")]
    fs.append(CylinderFunction.from_builtin("padic-sum", p, n, K))
    fs += [CylinderFunction.from_builtin(f"proj-{k}", p, n, K) for k in range(1, n + 1)]
    fs.append(random_padic_table(p, n, K, rng))
    # A fresh but equal value at every call.
    fs.append(CylinderFunction.from_callable(
        p, n, K, "padic", lambda X: padic_sub(X.coords[0], X.coords[-1])
    ))
    if K > 1:
        fs.append(CylinderFunction.from_builtin("padic-sum", p, n, K - 1).lift(K))
        fs.append(random_padic_table(p, n, K - 1, rng).lift(K))
    return fs


def real_functions(p, n, K, rng):
    fs = [CylinderFunction.from_builtin("zero", p, n, K)]
    fs.append(CylinderFunction.from_builtin("norm-product", p, n, K))
    fs += [CylinderFunction.from_builtin(f"norm-{k}", p, n, K) for k in range(1, n + 1)]
    fs += [CylinderFunction.from_builtin(f"digit0-{k}", p, n, K) for k in range(1, n + 1)]
    fs.append(random_real_table(p, n, K, rng))
    fs.append(CylinderFunction.from_callable(
        p, n, K, "real", lambda X: sum(c.to_int() for c in X.coords)
    ))
    if K > 1:
        fs.append(CylinderFunction.from_builtin("norm-product", p, n, K - 1).lift(K))
        fs.append(random_real_table(p, n, K - 1, rng).lift(K))
    return fs


class TestTabulationMatchesPointwiseEvaluation:
    """build_g and build_h against f(X) evaluated at every point, checks and all."""

    @pytest.mark.parametrize("p,n,K", SMALL_SPACES)
    def test_build_h(self, p, n, K):
        rng = random.Random(p * 100 + n * 10 + K)
        for f in padic_functions(p, n, K, rng):
            for weights in (WEIGHTS_PROOF, WEIGHTS_PAPER):
                expected = [
                    ((0,) + zdig if weights == WEIGHTS_PAPER else zdig,
                     PadicScalar.from_padic_int(f(X)))
                    for zdig, X in reference_points(p, n, K)
                ]
                assert list(build_h(f, weights).table.items()) == expected, (f, weights)

    @pytest.mark.parametrize("p,n,K", SMALL_SPACES)
    def test_build_g(self, p, n, K):
        rng = random.Random(p * 100 + n * 10 + K)
        for f in real_functions(p, n, K, rng):
            expected = [float(f(X)) for _, X in reference_points(p, n, K)]
            assert build_g(f).values == expected, f

    def test_equal_values_share_one_scalar(self):
        f = CylinderFunction.from_builtin("proj-1", 3, 2, 2)
        scalars = list(build_h(f).table.values())
        assert len({id(s) for s in scalars}) == len(set(scalars)) == 9

    @pytest.mark.parametrize("first", [True, False])
    def test_plain_tuple_value_is_rejected(self, first):
        # The tuple equals a value build_h has already seen; it must still
        # fail the type check rather than hit that value's scalar.
        zero = TruncatedPadicInt(2, 2, (0, 0))
        assert tuple(zero) == zero
        calls = []

        def fn(X):
            calls.append(X)
            return tuple(zero) if first or len(calls) > 1 else zero

        f = CylinderFunction.from_callable(2, 1, 2, "padic", fn)
        with pytest.raises(CodomainMismatch):
            build_h(f)
        assert len(calls) == (1 if first else 2)


def key_of(X):
    """The table key of a point: its coordinates' digit tuples."""
    return tuple(c.digits for c in X.coords)


def superpose1_per_digit(G, X):
    """superpose1 as one base-p Horner step per interleaved digit."""
    i = 0
    for column in zip(*(c.digits for c in X.coords)):
        for d in column:
            i = i * G.p + d
    return G.values[i]


def normalise_first_index(key, p, n, K):
    """The index of a table key, every digit passed through int() first.

    Raises what from_table raised for the key when it read every key this
    way: the reference for the keys it now looks up as given.
    """
    key = tuple(tuple(map(int, coord)) for coord in key)
    if len(key) != n:
        raise TableFormatError(f"key {key} has {len(key)} coordinates, expected {n}")
    for coord in key:
        if len(coord) != K:
            raise TableFormatError(f"key {key} has a {len(coord)}-digit coordinate, expected {K}")
        for d in coord:
            if d < 0 or d >= p:
                raise TableFormatError(f"key {key} digit {d} not in [0, {p - 1}]")
    i = 0
    for column in zip(*key):
        for d in column:
            i = i * p + d
    return i


class TestIndexOrderedTables:
    """from_table stores values in the order build_g and build_h emit them."""

    @pytest.mark.parametrize("p,n,K", SMALL_SPACES)
    def test_values_follow_the_interleaved_digit_order(self, p, n, K):
        rng = random.Random(p * 100 + n * 10 + K)
        real = {key: rng.random() for key in table_keys(p, n, K)}
        padic = {
            key: TruncatedPadicInt(p, K, tuple(rng.randrange(p) for _ in range(K)))
            for key in table_keys(p, n, K)
        }
        for codomain, entries in (("real", real), ("padic", padic)):
            f = CylinderFunction.from_table(p, n, K, codomain, entries)
            points = [X for _, X in reference_points(p, n, K)]
            assert f.values == [entries[key_of(X)] for X in points]
            assert f.values == [f(X) for X in points]
            # The library's own point order is the reference order too.
            ordered = [key_of(X) for _, X in superposition._points_in_order(p, n, K)]
            assert ordered == [key_of(X) for X in points]
            assert dict(zip(ordered, f.values)) == entries

    def test_functions_without_a_table_have_none(self):
        f = CylinderFunction.from_builtin("norm-product", 2, 2, 2)
        assert f.values is None
        assert random_real_table(2, 2, 2, random.Random(1)).lift(3).values is None

    def test_build_g_copies_the_values(self):
        f = random_real_table(3, 2, 2, random.Random(2))
        before = list(f.values)
        X = next(reference_points(3, 2, 2))[1]
        G = build_g(f)
        assert G.values == before and G.values is not f.values
        G.values[0] = -1.0
        G.values.append(2.0)
        assert f.values == before
        assert f(X) == before[0]
        assert build_g(f).values == before

    def test_build_h_does_not_alias_the_table(self):
        f = random_padic_table(2, 2, 2, random.Random(3))
        before = list(f.values)
        H = build_h(f)
        H.table.clear()
        assert f.values == before
        assert len(build_h(f).table) == 16

    @pytest.mark.parametrize("p,n,K", SMALL_SPACES)
    def test_superpose1_matches_the_per_digit_index(self, p, n, K):
        # Distinct values, so any wrong index shows.
        G = GFunction(p, n, K, [float(i) for i in range(p ** (n * K))])
        G_table = build_g(random_real_table(p, n, K, random.Random(p + n + K)))
        for _, X in reference_points(p, n, K):
            assert superpose1(G, X) == superpose1_per_digit(G, X)
            assert superpose1(G_table, X) == superpose1_per_digit(G_table, X)

    def test_missing_key(self):
        entries = {k: 0.0 for k in table_keys(2, 2, 2)}
        del entries[((1, 0), (0, 1))]
        with pytest.raises(TableFormatError, match="has 15 entries, expected 16"):
            CylinderFunction.from_table(2, 2, 2, "real", entries)

    def test_wrong_length_coordinate(self):
        entries = {k: 0.0 for k in table_keys(2, 2, 2)}
        entries[((1, 0, 0), (0, 1))] = 1.0
        with pytest.raises(TableFormatError, match="3-digit coordinate"):
            CylinderFunction.from_table(2, 2, 2, "real", entries)

    def test_wrong_number_of_coordinates(self):
        entries = {k + ((0,),): 0.0 for k in table_keys(2, 2, 1)}
        with pytest.raises(TableFormatError, match="3 coordinates, expected 2"):
            CylinderFunction.from_table(2, 2, 1, "real", entries)

    def test_out_of_range_digit(self):
        entries = {k: 0.0 for k in table_keys(3, 2, 1)}
        entries[((3,), (0,))] = 1.0
        with pytest.raises(TableFormatError, match="digit 3 not in"):
            CylinderFunction.from_table(3, 2, 1, "real", entries)

    def test_an_entry_fault_keeps_its_message_and_carries_its_position(self):
        entries = {k: 0.0 for k in table_keys(3, 2, 1)}
        entries[((3,), (0,))] = 1.0
        with pytest.raises(TableFormatError) as exc:
            CylinderFunction.from_table(3, 2, 1, "real", entries)
        assert str(exc.value) == "key ((3,), (0,)) digit 3 not in [0, 2]"
        assert exc.value.entry == 9

    def test_keys_that_collapse_leave_a_gap(self):
        # ("0",) and (0.0,) are the key (0,) once the digits go through int().
        entries = {(("0",),): 0.0, ((0.0,),): 1.0}
        with pytest.raises(TableFormatError, match="has 1 entries, expected 2"):
            CylinderFunction.from_table(2, 1, 1, "real", entries)

    def test_keys_that_collapse_keep_the_last_value(self):
        entries = {((0,),): 0.0, ((1,),): 1.0, (("1",),): 2.0}
        f = CylinderFunction.from_table(2, 1, 1, "real", entries)
        assert f.values == [0.0, 2.0]

    def test_exact_keys_skip_int(self):
        # Digits that equal 0 and 1 and hash like them are looked up as given.
        class Digit(int):
            def __int__(self):
                raise AssertionError("an exact digit went through int()")

        entries = {((Digit(0),),): 0.5, ((Digit(1),),): 1.5}
        f = CylinderFunction.from_table(2, 1, 1, "real", entries)
        assert f.values == [0.5, 1.5]

    @pytest.mark.parametrize("one", [True, 1.0, "1", Fraction(1), 1.9])
    def test_inexact_digits_read_as_their_int(self, one):
        entries = {key: 2.0 for key in table_keys(2, 2, 2) if key != ((0, 1), (0, 0))}
        entries[((0, one), (0, 0))] = 1.0
        f = CylinderFunction.from_table(2, 2, 2, "real", entries)
        assert f.values[normalise_first_index(((0, 1), (0, 0)), 2, 2, 2)] == 1.0
        assert f.values.count(2.0) == 15

    @pytest.mark.parametrize(
        "make_key",
        [
            lambda: ((0, 1), (2, 0)),
            lambda: ((True, 0), (2, 1.0)),
            lambda: (("1", "0"), (b"\x02", 0)),
            lambda: (range(2), (2, 0)),
            lambda: ((Fraction(2), 2.9), (0, 0)),
            lambda: (c for c in ((0, 1), (2, 0))),
            lambda: ((0, 1, 0), (0, 0)),
            lambda: ((0,), (0, 0)),
            lambda: ((0, 3), (0, 0)),
            lambda: ((0, 3.0), (0, 0)),
            lambda: ((-1, 0), (0, 0)),
            lambda: ((0, 10**30), (0, 0)),
            lambda: ((0, 0),),
            lambda: ((0, 0), (0, 0), (0, 0)),
            lambda: (),
            lambda: ((), ()),
            lambda: "ab",
            lambda: "a",
            lambda: 5,
            lambda: None,
            lambda: ((None, 0), (0, 0)),
            lambda: ((0, "x"), (0, 0)),
            lambda: (((0,), 0), (0, 0)),
        ],
    )
    def test_keys_fare_as_when_every_digit_went_through_int(self, make_key):
        # from_table looks exact keys up as given; the reference reads every
        # key through int() first.  Both must accept the same keys at the
        # same index and reject the rest with the same error.
        p, n, K = 3, 2, 2
        try:
            expected = "index", normalise_first_index(make_key(), p, n, K)
        except Exception as exc:
            expected = type(exc), str(exc)
        entries = {}
        if expected[0] == "index":
            entries = {
                key: 0.0
                for key in table_keys(p, n, K)
                if normalise_first_index(key, p, n, K) != expected[1]
            }
        entries[make_key()] = 1.0
        try:
            got = "index", CylinderFunction.from_table(p, n, K, "real", entries).values.index(1.0)
        except Exception as exc:
            got = type(exc), str(exc)
        assert got == expected

    def test_oversized_table_is_refused_before_any_key(self):
        # 2**20 inputs, just over the limit; the bad key is never read.
        with pytest.raises(SizeLimitExceeded):
            CylinderFunction.from_table(2, 20, 1, "real", {"not a key": 0.0})


class TestTableSizeLimit:
    def test_limit_is_one_constant(self):
        assert verify.EXHAUSTIVE_LIMIT is superposition.EXHAUSTIVE_LIMIT is EXHAUSTIVE_LIMIT

    @pytest.mark.parametrize("p,L", [(2, 19), (3, 12), (999983, 1)])
    def test_tables_up_to_the_limit_pass(self, p, L):
        superposition._require_table_size(p, L)

    @pytest.mark.parametrize("p,L", [(2, 20), (3, 13), (1000003, 1)])
    def test_larger_tables_are_refused(self, p, L):
        with pytest.raises(SizeLimitExceeded):
            superposition._require_table_size(p, L)

    def test_a_huge_exponent_is_refused_at_once(self):
        # 3**(2 * 10**7) has about 32 million bits; the check never builds it.
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded):
            superposition._require_table_size(3, 2 * 10**7)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("build,codomain", [(build_g, "real"), (build_h, "padic")])
    def test_builders_refuse_before_any_work(self, build, codomain):
        # 2**20 entries, just over the limit, from 20 one-digit coordinates.
        calls = []
        f = CylinderFunction.from_callable(2, 20, 1, codomain, calls.append)
        with pytest.raises(SizeLimitExceeded):
            build(f)
        assert calls == []
