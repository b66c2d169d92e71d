"""Construction, norm, digit arithmetic, and the ultrametric on points."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from padic_kas import (
    DigitOutOfRange,
    DimensionMismatch,
    NonPrimeModulus,
    PadicScalar,
    PrecisionMismatch,
    TruncatedPadicInt,
    format_padic,
    is_prime,
    make_padic,
    make_point,
    padic_add,
    padic_from_int,
    padic_norm,
    padic_shift,
    padic_sub,
    parse_padic,
    point_distance,
)

from helpers import all_values, padic_of_int

primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def padic_values(draw, p=None, K=None):
    p = p if p is not None else draw(primes)
    K = K if K is not None else draw(st.integers(1, 6))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=K, max_size=K))
    return make_padic(digits, p, K)


@st.composite
def padic_same_shape(draw, count=2):
    p = draw(primes)
    K = draw(st.integers(1, 6))
    return tuple(draw(padic_values(p=p, K=K)) for _ in range(count))


class TestIsPrime:
    def test_matches_trial_division(self):
        def by_division(m):
            return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

        assert [m for m in range(-3, 5000) if is_prime(m)] == [
            m for m in range(-3, 5000) if by_division(m)
        ]

    @pytest.mark.parametrize("m", [561, 41041, 3215031751, 2**61 + 1])
    def test_rejects_carmichael_numbers_and_strong_pseudoprimes(self, m):
        assert not is_prime(m)
        with pytest.raises(NonPrimeModulus):
            make_padic([], m, 1)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**80 - 65)

    def test_rejects_moduli_beyond_the_exact_range(self):
        for m in (3317044064679887385961981, 10**27 + 57):
            with pytest.raises(NonPrimeModulus):
                is_prime(m)

    def test_cache_is_bounded(self):
        # Checking many moduli must not keep one cache entry per modulus.
        for m in range(1000):
            is_prime(m)
        info = is_prime.cache_info()
        assert info.maxsize is not None and info.maxsize <= 32
        assert info.currsize <= info.maxsize


class TestMakePadic:
    def test_empty_digits_zero_pad(self):
        assert make_padic([], 2, 3).digits == (0, 0, 0)

    def test_places_digits_little_endian(self):
        x = make_padic([1, 1], 2, 3)
        assert x.digits == (1, 1, 0)
        assert x.to_int() == 3

    def test_rejects_digit_at_p(self):
        with pytest.raises(DigitOutOfRange):
            make_padic([2], 2, 3)

    def test_rejects_negative_digit(self):
        with pytest.raises(DigitOutOfRange):
            make_padic([-1], 3, 2)

    def test_rejects_nonprime_modulus(self):
        for p in (1, 4, 6, 9):
            with pytest.raises(NonPrimeModulus):
                make_padic([0], p, 1)

    def test_rejects_too_many_digits(self):
        with pytest.raises(PrecisionMismatch):
            make_padic([1, 0, 1, 0], 2, 3)

    @pytest.mark.parametrize(
        "build,args,error,message",
        [
            (make_padic, ([], 2, 0), ValueError, "level must be >= 1, got 0"),
            (padic_from_int, (5, 4, 2), NonPrimeModulus, "modulus 4 is not prime"),
            (padic_from_int, (5, 2, 0), ValueError, "level must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_modulus_or_precision(self, build, args, error, message):
        with pytest.raises(error) as exc:
            build(*args)
        assert exc.type is error
        assert str(exc.value) == message

    def test_equality_is_structural(self):
        assert make_padic([1, 1], 2, 3) == make_padic([1, 1, 0], 2, 3)
        assert make_padic([1], 2, 2) != make_padic([1], 2, 3)


class TestNorm:
    def test_twelve_base_three(self):
        x = padic_from_int(12, 3, 3)
        assert x.digits == (0, 1, 1)
        assert padic_norm(x) == Fraction(1, 3)

    def test_unit(self):
        assert padic_norm(make_padic([1], 5, 1)) == 1

    def test_zero_convention(self):
        assert padic_norm(make_padic([], 2, 4)) == 0

    def test_value_set_exhaustive(self):
        # norms live in {0} union {p**-j : 0 <= j <= K-1}
        allowed = {Fraction(0)} | {Fraction(1, 2**j) for j in range(4)}
        for x in all_values(2, 4):
            assert padic_norm(x) in allowed


class TestDigitArithmetic:
    def test_add_identity(self):
        y = make_padic([1, 0, 1], 2, 3)
        assert padic_add(make_padic([], 2, 3), y) == y

    def test_add_carries_mod_eight(self):
        x = padic_from_int(3, 2, 3)
        y = padic_from_int(1, 2, 3)
        assert padic_add(x, y).digits == (0, 0, 1)

    def test_add_wraps_mod_nine(self):
        x = padic_from_int(5, 3, 2)
        assert padic_add(x, x).to_int() == 1

    def test_add_requires_same_shape(self):
        with pytest.raises(PrecisionMismatch):
            padic_add(make_padic([1], 2, 2), make_padic([1], 2, 3))
        with pytest.raises(PrecisionMismatch):
            padic_add(make_padic([1], 2, 2), make_padic([1], 3, 2))

    @given(padic_same_shape())
    def test_add_matches_integer_oracle(self, pair):
        x, y = pair
        expected = (x.to_int() + y.to_int()) % x.p**x.K
        assert padic_add(x, y).to_int() == expected

    @given(padic_same_shape())
    def test_sub_matches_integer_oracle(self, pair):
        x, y = pair
        expected = (x.to_int() - y.to_int()) % x.p**x.K
        assert padic_sub(x, y).to_int() == expected

    def test_add_commutative_associative_exhaustive(self):
        vals = all_values(2, 4)
        for x in vals:
            for y in vals:
                assert padic_add(x, y) == padic_add(y, x)
        for x in vals[:8]:
            for y in vals:
                for z in vals:
                    assert padic_add(padic_add(x, y), z) == padic_add(x, padic_add(y, z))

    @given(padic_values(), st.integers(0, 8))
    def test_shift_multiplies_by_power(self, x, k):
        expected = (x.to_int() * x.p**k) % x.p**x.K
        assert padic_shift(x, k).to_int() == expected

    def test_negative_shift_is_refused(self):
        with pytest.raises(ValueError) as exc:
            padic_shift(make_padic([1], 2, 2), -1)
        assert exc.type is ValueError
        assert str(exc.value) == "shift must be nonnegative"


class TestUltrametric:
    def test_strong_triangle_exhaustive(self):
        vals = all_values(2, 4)
        norms = {x: padic_norm(x) for x in vals}
        diff = {(x, y): norms[padic_sub(x, y)] for x in vals for y in vals}
        for x in vals:
            for y in vals:
                for z in vals:
                    assert diff[(x, z)] <= max(diff[(x, y)], diff[(y, z)])

    def test_identical_points(self):
        X = make_point([make_padic([1], 2, 1), make_padic([1], 2, 1)])
        assert point_distance(X, X) == 0

    def test_max_of_component_norms(self):
        X = make_point([padic_from_int(0, 2, 3), padic_from_int(0, 2, 3)])
        Y = make_point([padic_from_int(2, 2, 3), padic_from_int(1, 2, 3)])
        assert padic_norm(padic_sub(X.coords[0], Y.coords[0])) == Fraction(1, 2)
        assert padic_norm(padic_sub(X.coords[1], Y.coords[1])) == 1
        assert point_distance(X, Y) == 1

    def test_component_difference_via_subtraction(self):
        # 3 - 1 = 2 has its first nonzero digit at index 1
        X = make_point([padic_from_int(3, 2, 3), padic_from_int(2, 2, 3)])
        Y = make_point([padic_from_int(1, 2, 3), padic_from_int(2, 2, 3)])
        assert padic_sub(X.coords[0], Y.coords[0]) == padic_of_int(3 - 1, 2, 3)
        assert point_distance(X, Y) == Fraction(1, 2)

    def test_metric_properties_exhaustive(self):
        from padic_kas import PadicPoint

        vals = all_values(2, 2)
        points = [PadicPoint(2, (a, b)) for a in vals for b in vals]
        for A in points:
            for B in points:
                d = point_distance(A, B)
                assert d == point_distance(B, A)
                assert (d == 0) == (A == B)
        for A in points[:4]:
            for B in points:
                for C in points:
                    assert point_distance(A, C) <= max(
                        point_distance(A, B), point_distance(B, C)
                    )

    def test_dimension_mismatch(self):
        X = make_point([make_padic([1], 2, 1)])
        Y = make_point([make_padic([1], 2, 1), make_padic([0], 2, 1)])
        with pytest.raises(DimensionMismatch):
            point_distance(X, Y)

    def test_precision_mismatch(self):
        X = make_point([make_padic([1], 2, 1)])
        Y = make_point([make_padic([1], 2, 2)])
        with pytest.raises(PrecisionMismatch):
            point_distance(X, Y)

    def test_make_point_validates(self):
        with pytest.raises(DimensionMismatch):
            make_point([])
        with pytest.raises(PrecisionMismatch):
            make_point([make_padic([1], 2, 1), make_padic([1], 3, 1)])


class TestScalar:
    def test_factors_out_valuation(self):
        s = PadicScalar.from_padic_int(padic_from_int(12, 3, 3))
        assert s.valuation == 1
        assert s.unit == TruncatedPadicInt(3, 2, (1, 1))
        assert s.norm() == Fraction(1, 3)

    def test_zero_is_canonical(self):
        s = PadicScalar.from_padic_int(make_padic([], 2, 4))
        assert s.is_zero
        assert s == PadicScalar.zero(2)
        assert s.norm() == 0

    def test_negative_valuation_norm(self):
        s = PadicScalar(2, -2, TruncatedPadicInt(2, 1, (1,)))
        assert s.norm() == 4

    def test_roundtrip_through_digits(self):
        x = padic_from_int(12, 3, 3)
        assert PadicScalar.from_padic_int(x).to_padic_int(3) == x

    def test_to_padic_int_rejects_negative_valuation(self):
        s = PadicScalar(2, -1, TruncatedPadicInt(2, 1, (1,)))
        with pytest.raises(ValueError):
            s.to_padic_int(3)

    @given(padic_values())
    def test_from_padic_int_consistent(self, x):
        s = PadicScalar.from_padic_int(x)
        assert s.norm() == padic_norm(x)
        assert s.to_padic_int(x.K) == x


class TestTextFormat:
    def test_format_example(self):
        assert format_padic(make_padic([1, 1], 2, 3)) == "2:3:1,1,0"

    def test_parse_example(self):
        assert parse_padic("2:3:1,1,0") == make_padic([1, 1], 2, 3)

    @given(padic_values())
    def test_roundtrip(self, x):
        assert parse_padic(format_padic(x)) == x

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "malformed p-adic literal ''; expected p:K:d0,d1,..."),
            ("2:3", "malformed p-adic literal '2:3'; expected p:K:d0,d1,..."),
            ("2:3:1,1", "p-adic literal '2:3:1,1' carries 2 digits, expected K=3"),
            ("2:3:1,1,0,0", "p-adic literal '2:3:1,1,0,0' carries 4 digits, expected K=3"),
            ("a:3:1,1,0",
             "malformed p-adic literal 'a:3:1,1,0': invalid literal for int() with base 10: 'a'"),
            ("2:3:x,y,z",
             "malformed p-adic literal '2:3:x,y,z': invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_malformed_literals(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_padic(text)
        assert exc.type is ValueError
        assert str(exc.value) == message

    def test_parse_validates_digits(self):
        with pytest.raises(DigitOutOfRange):
            parse_padic("2:3:2,0,0")
        with pytest.raises(NonPrimeModulus):
            parse_padic("4:1:1")
