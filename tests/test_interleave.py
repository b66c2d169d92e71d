"""Digit interleaving: bijectivity, contraction bound, no-carry cross-check."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from padic_kas import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InterleavedPadic,
    PadicPoint,
    PrecisionMismatch,
    TruncatedPadicInt,
    deinterleave,
    deinterleave_k,
    interleave,
    make_interleaved,
    make_padic,
    make_point,
    omega,
    padic_add,
    padic_from_int,
    padic_norm,
    padic_shift,
    padic_sub,
    point_distance,
)

from padic_kas.interleave import merge_order

from helpers import all_points, all_values


@st.composite
def points(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 4))
    coords = [
        make_padic(draw(st.lists(st.integers(0, p - 1), min_size=K, max_size=K)), p, K)
        for _ in range(n)
    ]
    return make_point(coords)


class TestOmega:
    def test_zero(self):
        assert omega(make_padic([], 2, 2), 2).to_int() == 0

    def test_spreads_digits(self):
        x = padic_from_int(3, 2, 2)
        out = omega(x, 2)
        assert out.digits == (1, 0, 1, 0)
        assert out.to_int() == 5

    def test_single_digit(self):
        out = omega(make_padic([2], 3, 1), 3)
        assert out.K == 3
        assert out.to_int() == 2

    def test_rejects_bad_arity(self):
        with pytest.raises(ArityMismatch):
            omega(make_padic([1], 2, 1), 0)


class TestInterleave:
    def test_zero_point(self):
        X = make_point([make_padic([], 2, 2), make_padic([], 2, 2)])
        assert interleave(X).value.to_int() == 0

    def test_pair_of_units(self):
        X = make_point([padic_from_int(1, 2, 1), padic_from_int(1, 2, 1)])
        assert interleave(X).value.to_int() == 3

    def test_one_and_three(self):
        X = make_point([padic_from_int(1, 2, 2), padic_from_int(3, 2, 2)])
        z = interleave(X)
        assert z.value.digits == (1, 1, 0, 1)
        assert z.value.to_int() == 11

    def test_precision_check(self):
        X = PadicPoint(2, (make_padic([1], 2, 1), make_padic([1], 2, 2)))
        with pytest.raises(PrecisionMismatch):
            interleave(X)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: make_interleaved(make_padic([1], 2, 2), 0), ArityMismatch,
             "arity must be >= 1, got 0"),
            (lambda: interleave(PadicPoint(2, (make_padic([1], 2, 1),))), DimensionMismatch,
             "point declares n=2 but has 1 coords"),
        ],
        ids=["make-interleaved-arity-0", "point-short-of-its-arity"],
    )
    def test_malformed_input_is_named(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_digit_coordinates(self, n):
        X = PadicPoint(n, (TruncatedPadicInt(2, 0, ()),) * n)
        z = interleave(X)
        assert z == InterleavedPadic(TruncatedPadicInt(2, 0, ()), n)
        assert deinterleave(z) == X

    def test_merge_order_cache_is_bounded(self):
        # Callers choose (n, K), and combine keys it by its parts' length too.
        maxsize = merge_order.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64


class TestDeinterleave:
    def test_zero(self):
        z = make_interleaved(make_padic([], 2, 4), 2)
        assert all(c.to_int() == 0 for c in deinterleave(z).coords)

    def test_three_splits_to_units(self):
        z = make_interleaved(padic_from_int(3, 2, 2), 2)
        assert deinterleave_k(z, 0).to_int() == 1
        assert deinterleave_k(z, 1).to_int() == 1

    def test_eleven(self):
        z = make_interleaved(padic_from_int(11, 2, 4), 2)
        assert deinterleave_k(z, 0) == padic_from_int(1, 2, 2)
        assert deinterleave_k(z, 1) == padic_from_int(3, 2, 2)

    def test_base_three(self):
        z = make_interleaved(padic_from_int(5, 3, 2), 2)
        X = deinterleave(z)
        assert [c.to_int() for c in X.coords] == [2, 1]
        assert interleave(X).value.to_int() == 5

    def test_stream_index_range(self):
        z = make_interleaved(make_padic([], 2, 4), 2)
        with pytest.raises(IndexOutOfRange):
            deinterleave_k(z, 2)
        with pytest.raises(IndexOutOfRange):
            deinterleave_k(z, -1)

    def test_make_interleaved_checks_divisibility(self):
        with pytest.raises(PrecisionMismatch):
            make_interleaved(make_padic([], 2, 3), 2)


class TestBijectivity:
    def test_roundtrip_exhaustive_small(self):
        for p, n, K in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 1)):
            for X in all_points(p, n, K):
                assert deinterleave(interleave(X)) == X
            for v in all_values(p, n * K):
                z = InterleavedPadic(v, n)
                assert interleave(deinterleave(z)) == z

    @given(points())
    def test_roundtrip(self, X):
        assert deinterleave(interleave(X)) == X

    def test_image_is_all_of_target(self):
        p, n, K = 2, 2, 3
        images = {interleave(X).value for X in all_points(p, n, K)}
        assert len(images) == p ** (n * K)


class TestDistanceBounds:
    def test_pair_contraction_exhaustive(self):
        # distance between images is at most the point distance squared
        p, n, K = 2, 2, 3
        pts = all_points(p, n, K)
        imgs = {X: interleave(X).value for X in pts}
        for A in pts:
            for B in pts:
                d = point_distance(A, B)
                di = padic_norm(padic_sub(imgs[A], imgs[B]))
                assert di <= d * d

    def test_general_arity_contraction(self):
        p, n, K = 2, 3, 2
        pts = all_points(p, n, K)
        imgs = {X: interleave(X).value for X in pts}
        for A in pts:
            for B in pts:
                assert padic_norm(padic_sub(imgs[A], imgs[B])) <= point_distance(A, B) ** n

    def test_first_difference_doubles(self):
        # differing first at digit N in one coordinate moves the image
        # difference to digit 2N (or 2N+1 for the second coordinate)
        A = make_point([padic_from_int(0, 2, 4), padic_from_int(0, 2, 4)])
        B = make_point([padic_from_int(4, 2, 4), padic_from_int(0, 2, 4)])
        assert point_distance(A, B) == Fraction(1, 4)
        d = padic_norm(padic_sub(interleave(A).value, interleave(B).value))
        assert d == Fraction(1, 16)

    def test_inverse_prefix_rule_exhaustive(self):
        p, n = 2, 2
        vals = all_values(p, 4)
        for zv in vals:
            for wv in vals:
                N = next(
                    (i for i, (a, b) in enumerate(zip(zv.digits, wv.digits)) if a != b),
                    4,
                )
                z = InterleavedPadic(zv, n)
                w = InterleavedPadic(wv, n)
                for k in range(n):
                    keep = (N - k + n - 1) // n if N >= k else 0
                    assert (
                        deinterleave_k(z, k).digits[:keep]
                        == deinterleave_k(w, k).digits[:keep]
                    )


class TestNoCarryCrossCheck:
    @pytest.mark.parametrize("p,n,K", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
    def test_interleave_equals_weighted_omega_sum(self, p, n, K):
        zero = TruncatedPadicInt(p, n * K, (0,) * (n * K))
        for X in all_points(p, n, K):
            acc = zero
            for k, c in enumerate(X.coords):
                acc = padic_add(acc, padic_shift(omega(c, n), k))
            assert acc == interleave(X).value
