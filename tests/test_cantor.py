"""Codec, digit homeomorphisms, gap structure, and continuity witnesses."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from padic_kas import (
    ArityMismatch,
    CantorValue,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidCantorDigit,
    NonPrimeModulus,
    PrecisionMismatch,
    SizeLimitExceeded,
    TruncatedPadicInt,
    cantor_decode,
    cantor_encode,
    cantor_to_rational,
    combine,
    extract,
    format_cantor,
    gap_intervals,
    gap_numerators,
    interleave,
    interval_left_endpoints,
    interval_numerators,
    make_cantor,
    make_padic,
    padic_from_int,
    parse_cantor,
    phi_full,
    spread,
)

from helpers import all_points, all_values, base_q_value, first_difference

primes = st.sampled_from([2, 3, 5])


@st.composite
def encoded_values(draw):
    p = draw(primes)
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=K, max_size=K))
    return make_padic(digits, p, K), n


class TestEncode:
    def test_zero(self):
        c = cantor_encode(make_padic([], 2, 3), 2)
        assert c.digits == (0, 0, 0)
        assert cantor_to_rational(c) == 0

    def test_single_digit(self):
        c = cantor_encode(make_padic([1], 2, 3), 2)
        assert c.digits == (2, 0, 0)
        assert c.q == 3
        assert cantor_to_rational(c) == Fraction(2, 3)

    def test_all_ones_geometric_sum(self):
        c = cantor_encode(make_padic([1, 1, 1], 2, 3), 2)
        assert c.digits == (2, 2, 2)
        # independent oracle: finite geometric sum of 2 * 3**(-i-1)
        expected = sum((Fraction(2, 3**i) for i in range(1, 4)), Fraction(0))
        assert expected == Fraction(26, 27)
        assert cantor_to_rational(c) == expected

    def test_base_five(self):
        c = cantor_encode(make_padic([2], 3, 1), 2)
        assert c.q == 5
        assert c.digits == (4,)
        assert cantor_to_rational(c) == Fraction(4, 5)

    def test_rejects_bad_arity(self):
        with pytest.raises(ArityMismatch):
            cantor_encode(make_padic([1], 2, 1), 0)


class TestDecode:
    def test_zero(self):
        assert cantor_decode(make_cantor([0, 0], 2, 2)) == make_padic([], 2, 2)

    def test_inverse_of_encode_example(self):
        c = make_cantor([2, 0, 0], 2, 2)
        assert cantor_decode(c) == make_padic([1], 2, 3)

    def test_rejects_digit_off_the_set(self):
        with pytest.raises(InvalidCantorDigit):
            cantor_decode(make_cantor([1, 0, 0], 2, 2))

    def test_roundtrip_exhaustive_small(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for K in (1, 2, 3):
                    for x in all_values(p, K):
                        assert cantor_decode(cantor_encode(x, n)) == x

    @given(encoded_values())
    def test_roundtrip(self, xn):
        x, n = xn
        assert cantor_decode(cantor_encode(x, n)) == x


class TestSpread:
    def test_zero(self):
        c = spread(make_cantor([0, 0], 2, 2))
        assert cantor_to_rational(c) == 0

    def test_moves_digits_to_stride_positions(self):
        c = spread(make_cantor([2, 2], 2, 2))
        assert c.digits == (2, 0, 2)
        assert cantor_to_rational(c) == Fraction(2, 3) + Fraction(2, 27) == Fraction(20, 27)

    def test_arity_one_is_identity(self):
        c = make_cantor([1, 2], 3, 1)
        assert spread(c) == c

    def test_output_length(self):
        for L in range(1, 5):
            for n in (2, 3):
                c = make_cantor([0] * L, 2, n)
                assert spread(c).L == n * (L - 1) + 1


class TestCombineExtract:
    def test_combine_zeros(self):
        z = combine([make_cantor([0], 2, 2), make_cantor([0], 2, 2)])
        assert cantor_to_rational(z) == 0

    def test_combine_interleaves(self):
        z = combine([make_cantor([2], 2, 2), make_cantor([2], 2, 2)])
        assert z.digits == (2, 2)
        # independent oracle: 2/3 + (1/3) * (2/3)
        assert cantor_to_rational(z) == Fraction(2, 3) + Fraction(1, 3) * Fraction(2, 3)
        assert cantor_to_rational(z) == Fraction(8, 9)

    def test_combine_with_zero_part(self):
        x = cantor_encode(make_padic([1], 2, 1), 2)
        y = cantor_encode(make_padic([], 2, 1), 2)
        z = combine([x, y])
        assert z.digits == (2, 0)
        assert cantor_to_rational(z) == Fraction(2, 3)

    def test_combine_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            combine([make_cantor([2], 2, 2)])
        with pytest.raises(ArityMismatch):
            combine([make_cantor([2], 2, 2)] * 3)

    def test_extract_zero(self):
        z = make_cantor([0, 0], 2, 2)
        assert cantor_to_rational(extract(z, 0)) == 0

    def test_extract_streams(self):
        z = make_cantor([2, 2], 2, 2)
        assert cantor_to_rational(extract(z, 0)) == Fraction(2, 3)
        assert cantor_to_rational(extract(z, 1)) == Fraction(2, 3)

    def test_extract_deinterleaves(self):
        z = make_cantor([2, 0, 2, 0], 2, 2)
        assert extract(z, 0).digits == (2, 2)
        assert cantor_to_rational(extract(z, 0)) == Fraction(8, 9)
        assert extract(z, 1).digits == (0, 0)
        assert cantor_to_rational(extract(z, 1)) == 0

    def test_extract_index_range(self):
        z = make_cantor([2, 0], 2, 2)
        with pytest.raises(IndexOutOfRange):
            extract(z, 2)
        with pytest.raises(IndexOutOfRange):
            extract(z, -1)

    def test_extract_combine_inverse_exhaustive(self):
        for p, n, L in ((2, 2, 2), (2, 3, 2), (3, 2, 1)):
            allowed = range(0, n * (p - 1) + 1, n)
            parts_space = [
                CantorValue(p, n, digs) for digs in product(allowed, repeat=L)
            ]
            for parts in product(parts_space, repeat=n):
                z = combine(parts)
                for k in range(n):
                    assert extract(z, k) == parts[k]
                assert combine([extract(z, k) for k in range(n)]) == z


class TestPhiFull:
    def test_zero(self):
        assert cantor_to_rational(phi_full(make_padic([], 2, 2), 2)) == 0

    def test_three_at_two_digits(self):
        c = phi_full(padic_from_int(3, 2, 2), 2)
        assert c.digits == (2, 0, 2)
        assert cantor_to_rational(c) == Fraction(20, 27)

    def test_single_digit(self):
        c = phi_full(make_padic([1], 2, 1), 2)
        assert cantor_to_rational(c) == Fraction(2, 3)

    def test_matches_spread_of_encode(self):
        for x in all_values(3, 3):
            for n in (1, 2, 3):
                assert phi_full(x, n) == spread(cantor_encode(x, n))


class TestRational:
    def test_zero_is_reduced(self):
        fr = cantor_to_rational(make_cantor([0], 2, 2))
        assert (fr.numerator, fr.denominator) == (0, 1)

    def test_matches_horner_oracle(self):
        for digs in product((0, 2), repeat=4):
            c = CantorValue(2, 2, digs)
            assert cantor_to_rational(c) == base_q_value(digs, 3)

    def test_base_five_digit(self):
        assert cantor_to_rational(make_cantor([4], 3, 2)) == Fraction(4, 5)


class TestGaps:
    def test_level_one_middle_third(self):
        assert gap_intervals(2, 2, 1) == [(Fraction(1, 3), Fraction(2, 3))]

    def test_level_two_middle_thirds(self):
        assert gap_intervals(2, 2, 2) == [
            (Fraction(1, 9), Fraction(2, 9)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(7, 9), Fraction(8, 9)),
        ]
        assert gap_numerators(2, 2, 2) == [(1, 2), (3, 6), (7, 8)]

    def test_arity_one_has_no_gaps(self):
        assert gap_intervals(3, 1, 2) == []
        assert gap_numerators(3, 1, 2) == []

    def test_gaps_complement_intervals(self):
        # membership via digit extraction agrees with the gap list
        p, n, L = 2, 2, 3
        q = n * (p - 1) + 1
        gaps = gap_intervals(p, n, L)
        lefts = interval_left_endpoints(p, n, L)
        width = Fraction(1, q**L)
        for k in range(q**L + 1):
            t = Fraction(k, q**L)
            in_gap = any(a < t < b for a, b in gaps)
            in_interval = any(left <= t <= left + width for left in lefts)
            assert in_gap != in_interval
        for a, b in gaps:
            mid = (a + b) / 2
            assert not any(left <= mid <= left + width for left in lefts)

    def test_endpoint_count(self):
        assert len(interval_left_endpoints(2, 2, 4)) == 2**4
        assert len(gap_intervals(2, 2, 4)) == 2**4 - 1

    def test_rejects_nonprime(self):
        with pytest.raises(NonPrimeModulus):
            gap_intervals(4, 2, 1)
        with pytest.raises(NonPrimeModulus):
            gap_intervals(4, 1, 1)
        with pytest.raises(NonPrimeModulus):
            gap_numerators(4, 1, 1)

    @pytest.mark.parametrize("p,n,L", [(2, 1, 4), (2, 2, 4), (3, 2, 3), (5, 3, 2)])
    def test_numerators_are_the_allowed_numerals_in_order(self, p, n, L):
        q = n * (p - 1) + 1
        allowed = range(0, n * (p - 1) + 1, n)
        numerals = sorted(base_q_value(key, q) * q**L for key in product(allowed, repeat=L))
        assert interval_numerators(p, n, L) == numerals
        assert interval_left_endpoints(p, n, L) == [m / q**L for m in numerals]

    @pytest.mark.parametrize(
        "n,L,error,message",
        [
            (0, 3, ArityMismatch, "arity must be >= 1, got 0"),
            (2, 0, ValueError, "level must be >= 1, got 0"),
        ],
    )
    def test_numerators_reject_bad_arity_or_level(self, n, L, error, message):
        with pytest.raises(error) as exc:
            interval_numerators(2, n, L)
        assert exc.type is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("enumerate_level", [interval_numerators, gap_intervals])
    def test_more_intervals_than_the_table_limit_are_refused_at_once(self, enumerate_level):
        # 2**40 intervals; the list is never started.
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded) as exc:
            enumerate_level(2, 2, 40)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == "p**L = 2**40 exceeds the table limit 1000000"


class TestContinuityWitnesses:
    def test_encode_preserves_digit_prefixes_exhaustive(self):
        p, K = 2, 4
        vals = all_values(p, K)
        for n in (1, 2, 3):
            q = n * (p - 1) + 1
            for x in vals:
                for y in vals:
                    N = first_difference(x.digits, y.digits)
                    cx, cy = cantor_encode(x, n), cantor_encode(y, n)
                    assert cx.digits[:N] == cy.digits[:N]
                    gap = abs(cantor_to_rational(cx) - cantor_to_rational(cy))
                    assert gap <= Fraction(1, q**N)

    def test_extract_prefix_rule_exhaustive(self):
        p, n, L = 2, 2, 4
        allowed = range(0, n * (p - 1) + 1, n)
        space = [CantorValue(p, n, digs) for digs in product(allowed, repeat=L)]
        for z in space:
            for w in space:
                N = first_difference(z.digits, w.digits)
                for k in range(n):
                    keep = (N - k + n - 1) // n if N >= k else 0
                    assert extract(z, k).digits[:keep] == extract(w, k).digits[:keep]

    def test_encode_monotone_in_reverse_lex_order(self):
        p, K, n = 2, 3, 2
        vals = sorted(all_values(p, K), key=lambda x: x.digits)
        images = [cantor_to_rational(cantor_encode(x, n)) for x in vals]
        assert images == sorted(images)
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_pair_image_distance_square_bound(self):
        # two-coordinate interleave against Euclidean distance: the image
        # gap is at most q**2 times the squared distance (q = 2p-1)
        for p in (2, 3):
            rng = random.Random(7)
            q = 2 * p - 1
            for _ in range(2000):
                xa, ya, xb, yb = (
                    CantorValue(p, 2, tuple(2 * rng.randrange(p) for _ in range(8)))
                    for _ in range(4)
                )
                d2 = (cantor_to_rational(xa) - cantor_to_rational(xb)) ** 2 + (
                    cantor_to_rational(ya) - cantor_to_rational(yb)
                ) ** 2
                lhs = abs(
                    cantor_to_rational(combine([xa, ya]))
                    - cantor_to_rational(combine([xb, yb]))
                )
                assert lhs <= q**2 * d2


class TestTextFormat:
    def test_format(self):
        assert format_cantor(make_cantor([2, 0, 0], 2, 2)) == "3:3:2,0,0"

    def test_parse(self):
        assert parse_cantor("3:3:2,0,0", 2, 2) == make_cantor([2, 0, 0], 2, 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4:1:0", "Cantor literal base 4 does not match q=3 for p=2, n=2"),
            # A wrong base and a wrong digit count: the base is named.
            ("4:2:0", "Cantor literal base 4 does not match q=3 for p=2, n=2"),
        ],
    )
    def test_parse_checks_base(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_cantor(text, 2, 2)
        assert exc.type is ValueError
        assert str(exc.value) == message

    def test_parse_checks_digit_count(self):
        with pytest.raises(ValueError) as exc:
            parse_cantor("3:2:2", 2, 2)
        assert exc.type is ValueError
        assert str(exc.value) == "Cantor literal '3:2:2' carries 1 digits, expected L=2"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5:5", "malformed Cantor literal '5:5'; expected q:L:d0,d1,..."),
            ("5:x:0",
             "malformed Cantor literal '5:x:0': invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_malformed_literal_is_named(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_cantor(text, 3, 2)
        assert exc.type is ValueError
        assert str(exc.value) == message

    def test_make_cantor_validates_range(self):
        with pytest.raises(InvalidCantorDigit):
            make_cantor([3], 2, 2)
        with pytest.raises(InvalidCantorDigit):
            make_cantor([-1], 2, 2)

    @pytest.mark.parametrize(
        "digits,p,n,error,message",
        [
            ([0], 4, 2, NonPrimeModulus, "modulus 4 is not prime"),
            ([0], 2, 0, ArityMismatch, "arity must be >= 1, got 0"),
            ([], 2, 2, ValueError, "level must be >= 1, got 0"),
        ],
    )
    def test_make_cantor_rejects_bad_header(self, digits, p, n, error, message):
        with pytest.raises(error) as exc:
            make_cantor(digits, p, n)
        assert exc.type is error
        assert str(exc.value) == message


# ------------------------------------------------ the chain against references
#
# The chain maps build their values with tuple.__new__ and map their digits
# in C.  These are the straightforward implementations they replaced, kept
# as references: every result must equal theirs in value and exact type,
# and every error must carry the same type and message.


def _ref_cantor_encode(x, n):
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    return CantorValue(x.p, n, tuple(n * d for d in x.digits))


def _ref_cantor_decode(c):
    n = c.n
    for i, d in enumerate(c.digits):
        if d % n:
            raise InvalidCantorDigit(
                f"digit {d} at index {i} is not a multiple of {n}"
            )
    return TruncatedPadicInt(c.p, c.L, tuple(d // n for d in c.digits))


def _ref_spread(c):
    n = c.n
    if n == 1 or c.L == 0:
        return c
    out = [0] * (n * (c.L - 1) + 1)
    out[::n] = c.digits
    return CantorValue(c.p, n, tuple(out))


def _ref_combine(parts):
    parts = tuple(parts)
    if not parts:
        raise ArityMismatch("combine needs at least one part")
    first = parts[0]
    n = first.n
    if len(parts) != n:
        raise ArityMismatch(f"expected {n} parts, got {len(parts)}")
    for c in parts[1:]:
        if c.p != first.p or c.n != n:
            raise DimensionMismatch(
                f"part ({c.p}, n={c.n}) differs from ({first.p}, n={n})"
            )
        if c.L != first.L:
            raise PrecisionMismatch(f"part lengths differ: {c.L} vs {first.L}")
    merged = tuple(d for group in zip(*(c.digits for c in parts)) for d in group)
    return CantorValue(first.p, n, merged)


def _ref_extract(z, k):
    if k < 0 or k >= z.n:
        raise IndexOutOfRange(f"stream index {k} not in [0, {z.n - 1}]")
    return CantorValue(z.p, z.n, z.digits[k :: z.n])


def _ref_cantor_to_rational(c):
    q = c.q
    acc = 0
    for d in c.digits:
        acc = acc * q + d
    return Fraction(acc, q**c.L)


def _outcome(fn, *args):
    """What a call gives: its value with the exact types inside, or its error."""
    try:
        value = fn(*args)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(value, tuple):
        return ("returns", type(value), value, [type(field) for field in value])
    return ("returns", type(value), value, (value.numerator, value.denominator))


# Every (p, n, K) with p in {2, 3, 5}, n in {1, 2, 3} and p**(n*K) <= 4096.
CHAIN_SPACES = [
    (p, n, K)
    for p in (2, 3, 5)
    for n in (1, 2, 3)
    for K in range(1, 13)
    if p ** (n * K) <= 4096
]


class TestChainMatchesReference:
    @pytest.mark.parametrize("p,n,K", CHAIN_SPACES)
    def test_every_point(self, p, n, K):
        for X in all_points(p, n, K):
            parts = []
            for x in X.coords:
                assert _outcome(cantor_encode, x, n) == _outcome(_ref_cantor_encode, x, n)
                c = cantor_encode(x, n)
                assert _outcome(spread, c) == _outcome(_ref_spread, c)
                parts.append(c)
            z = combine(parts)
            assert _outcome(combine, parts) == _outcome(_ref_combine, parts)
            assert _outcome(cantor_to_rational, z) == _outcome(_ref_cantor_to_rational, z)
            for k in range(-1, n + 1):
                assert _outcome(extract, z, k) == _outcome(_ref_extract, z, k)
            for k in range(n):
                c = extract(z, k)
                assert _outcome(cantor_decode, c) == _outcome(_ref_cantor_decode, c)

    @pytest.mark.parametrize("p,n,K", CHAIN_SPACES)
    def test_combine_uses_the_interleave_order(self, p, n, K):
        # Theorem 1's s and Theorem 2's z place the digits in one order.
        for X in all_points(p, n, K):
            s = combine([cantor_encode(c, n) for c in X.coords])
            assert s.digits == tuple(n * d for d in interleave(X).value.digits)

    @pytest.mark.parametrize("p,n,L", [(2, 2, 4), (3, 2, 2), (2, 3, 3), (5, 3, 1)])
    def test_decode_every_base_q_tuple(self, p, n, L):
        # Off-set digits raise with the first offending index.
        q = n * (p - 1) + 1
        for digits in product(range(q), repeat=L):
            c = CantorValue(p, n, digits)
            assert _outcome(cantor_decode, c) == _outcome(_ref_cantor_decode, c)

    def test_decode_arity_zero(self):
        for c in (CantorValue(2, 0, (1, 0)), CantorValue(2, 0, ())):
            assert _outcome(cantor_decode, c) == _outcome(_ref_cantor_decode, c)

    @pytest.mark.parametrize("n", [0, -1])
    def test_encode_rejects_bad_arity(self, n):
        x = make_padic([1], 2, 2)
        assert _outcome(cantor_encode, x, n) == _outcome(_ref_cantor_encode, x, n)

    def test_combine_every_short_list_of_parts(self):
        # Empty input, arity, p/n mismatch and length mismatch, in every
        # position, including zero-digit parts.
        pool = [
            CantorValue(2, 2, (2, 0)),
            CantorValue(2, 2, (0, 2, 2)),
            CantorValue(2, 2, ()),
            CantorValue(3, 2, (4, 2)),
            CantorValue(2, 3, (3, 0)),
            CantorValue(2, 1, (1, 1)),
            CantorValue(2, 1, ()),
        ]
        for size in range(4):
            for parts in product(pool, repeat=size):
                assert _outcome(combine, parts) == _outcome(_ref_combine, parts), parts

    def test_combine_takes_an_iterator(self):
        parts = [CantorValue(3, 2, (2, 4)), CantorValue(3, 2, (0, 2))]
        expected = _ref_combine(parts)
        assert combine(iter(parts)) == expected
        assert combine(c for c in parts) == expected
        assert combine(iter(parts)).digits == (2, 0, 4, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_combine_zero_digit_parts(self, n):
        parts = [CantorValue(2, n, ())] * n
        expected = ("returns", CantorValue, CantorValue(2, n, ()), [int, int, tuple])
        assert _outcome(combine, parts) == expected
        assert _outcome(combine, parts) == _outcome(_ref_combine, parts)
        z = combine(parts)
        assert _outcome(cantor_to_rational, z) == _outcome(_ref_cantor_to_rational, z)
        assert _outcome(spread, z) == _outcome(_ref_spread, z)
        assert _outcome(cantor_decode, z) == _outcome(_ref_cantor_decode, z)
