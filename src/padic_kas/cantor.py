"""Codec between Z_p and a Cantor-like subset of [0,1], plus digit homeomorphisms.

A truncated p-adic integer with digits x_0..x_{K-1} maps to the base-q number
0.(n*x_0)(n*x_1)... with q = n*(p-1)+1.  Allowed digits are the multiples of n
in [0, n*(p-1)], so distinct inputs land in disjoint closed intervals and the
image is a level-K approximation of a Cantor-like set (for p=2, n=2 it is the
classical middle-thirds set).  ``spread``, ``combine`` and ``extract`` are the
digit-spreading, interleaving and de-interleaving maps used to fold n
coordinates into a single value of the same set.

All digit vectors are exact; rationals appear only at output boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import floordiv, mod, mul

from .core import (
    TruncatedPadicInt,
    _check_params,
    _new,
    _require_table_size,
    _split_literal,
    named_tuple,
)
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidCantorDigit,
    PrecisionMismatch,
)
from .interleave import merge_order

__all__ = [
    "CantorValue",
    "make_cantor",
    "cantor_encode",
    "cantor_decode",
    "spread",
    "combine",
    "extract",
    "phi_full",
    "cantor_to_rational",
    "interval_numerators",
    "interval_left_endpoints",
    "gap_numerators",
    "gap_intervals",
    "format_cantor",
    "parse_cantor",
]


@named_tuple("p n digits")
class CantorValue:
    """A number in [0,1] as base-q digits, most significant first.

    ``digits[i]`` is the coefficient of q**(-i-1), q = n*(p-1)+1.  Values
    produced by the codec carry only digits that are multiples of n; the raw
    constructor trusts its arguments and :func:`make_cantor` validates range.
    """

    @property
    def q(self) -> int:
        return self.n * (self.p - 1) + 1

    @property
    def L(self) -> int:
        return len(self.digits)


def make_cantor(digits, p: int, n: int) -> CantorValue:
    """Build a validated base-q digit vector of at least one digit.

    Membership in the Cantor-like set also requires every digit to be a
    multiple of n; that stronger condition is enforced where it matters
    (:func:`cantor_decode`), so that off-set inputs can be represented and
    rejected with a precise error.

    Raises:
        NonPrimeModulus: p is not prime.
        ArityMismatch: n < 1.
        ValueError: no digits are supplied.
        InvalidCantorDigit: a digit is outside [0, n*(p-1)].
    """
    digs = tuple(int(d) for d in digits)
    _check_params(p, n, len(digs))
    top = n * (p - 1)
    for i, d in enumerate(digs):
        if d < 0 or d > top:
            raise InvalidCantorDigit(f"digit {d} at index {i} not in [0, {top}]")
    return CantorValue(p, n, digs)


def cantor_encode(x: TruncatedPadicInt, n: int) -> CantorValue:
    """Map digits x_i to base-q digits n*x_i (stride-1 layout, L = K)."""
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    p, _, digits = x
    return _new(CantorValue, (p, n, tuple(map(mul, repeat(n), digits))))


def cantor_decode(c: CantorValue) -> TruncatedPadicInt:
    """Inverse of :func:`cantor_encode`: digit i of the result is digits[i]/n.

    Raises:
        InvalidCantorDigit: some digit is not a multiple of n, i.e. the value
            is not in the codec image.
    """
    p, n, digits = c
    if any(map(mod, digits, repeat(n))):
        for i, d in enumerate(digits):
            if d % n:
                raise InvalidCantorDigit(
                    f"digit {d} at index {i} is not a multiple of {n}"
                )
    x = tuple(map(floordiv, digits, repeat(n)))
    return _new(TruncatedPadicInt, (p, len(x), x))


def spread(c: CantorValue) -> CantorValue:
    """Move digit i of a stride-1 value to position n*i, zeros elsewhere.

    The output keeps exactly the digits determined by the input:
    L_out = n*(L_in - 1) + 1.
    """
    p, n, digits = c
    if n == 1 or not digits:
        return c
    out = [0] * (n * (len(digits) - 1) + 1)
    out[::n] = digits
    return _new(CantorValue, (p, n, tuple(out)))


def combine(parts) -> CantorValue:
    """Interleave n stride-1 values: output digit n*i+k is parts[k].digits[i].

    Digitwise this equals sum_k q**(-k) * spread(parts[k]); no carries occur
    because every digit is at most q-1.  The digit order is interleave's, so
    Theorem 1's map s and Theorem 2's map z share one permutation.
    """
    parts = tuple(parts)
    if not parts:
        raise ArityMismatch("combine needs at least one part")
    p, n, first = parts[0]
    if len(parts) != n:
        raise ArityMismatch(f"expected {n} parts, got {len(parts)}")
    L = len(first)
    cat = ()
    for cp, cn, digits in parts:
        if cp != p or cn != n:
            raise DimensionMismatch(f"part ({cp}, n={cn}) differs from ({p}, n={n})")
        if len(digits) != L:
            raise PrecisionMismatch(f"part lengths differ: {len(digits)} vs {L}")
        cat += digits
    return _new(CantorValue, (p, n, merge_order(n, L)(cat)))


def extract(z: CantorValue, k: int) -> CantorValue:
    """Take the digits at positions n*i+k; inverse of :func:`combine`."""
    p, n, digits = z
    if k < 0 or k >= n:
        raise IndexOutOfRange(f"stream index {k} not in [0, {n - 1}]")
    return _new(CantorValue, (p, n, digits[k::n]))


def phi_full(x: TruncatedPadicInt, n: int) -> CantorValue:
    """Spread-encoded form of x: digit at position n*i is n*x_i."""
    return spread(cantor_encode(x, n))


def cantor_to_rational(c: CantorValue) -> Fraction:
    """Exact value sum_i digits[i] * q**(-i-1) as a reduced fraction."""
    p, n, digits = c
    q = n * (p - 1) + 1
    acc = 0
    for d in digits:
        acc = acc * q + d
    return Fraction(acc, q ** len(digits))


def interval_numerators(p: int, n: int, L: int) -> list:
    """Numerators over q**L of the level-L interval left endpoints, increasing.

    There are p**L intervals, each of width q**(-L); the numerators are the
    base-q numerals of L digits that are all multiples of n, and their
    lexicographic order is their numeric order.  More than EXHAUSTIVE_LIMIT
    intervals are refused before any is built.
    """
    _require_table_size(p, L, "L")
    _check_params(p, n, L)
    q = n * (p - 1) + 1
    nums = [0]
    for _ in range(L):
        nums = [m * q + d for m in nums for d in range(0, q, n)]
    return nums


def interval_left_endpoints(p: int, n: int, L: int) -> list:
    """Left endpoints of all level-L codec intervals, in increasing order."""
    nums = interval_numerators(p, n, L)
    denom = (n * (p - 1) + 1) ** L
    return [Fraction(m, denom) for m in nums]


def gap_numerators(p: int, n: int, L: int) -> list:
    """Numerators (a, b) over q**L of the level-L gaps (a/q**L, b/q**L).

    Returned in increasing order; gap i lies between intervals i and i+1, so
    a is one past the left numerator of interval i and b is that of
    interval i+1.  For n=1 every base-q digit is allowed and the intervals
    tile [0,1], so there are no gaps.
    """
    if n == 1:
        _check_params(p, n, L)
        return []
    nums = interval_numerators(p, n, L)
    return [(a + 1, b) for a, b in zip(nums, nums[1:])]


def gap_intervals(p: int, n: int, L: int) -> list:
    """Complementary open intervals of the level-L codec image inside [0,1].

    These are the :func:`gap_numerators` over q**L, in increasing order.
    """
    denom = (n * (p - 1) + 1) ** L
    return [(Fraction(a, denom), Fraction(b, denom)) for a, b in gap_numerators(p, n, L)]


def format_cantor(c: CantorValue) -> str:
    """Textual form ``q:L:d0,d1,...``, most significant digit first."""
    return f"{c.q}:{c.L}:" + ",".join(map(str, c.digits))


def parse_cantor(text: str, p: int, n: int) -> CantorValue:
    """Parse the textual form produced by :func:`format_cantor`.

    p and n supply the context the base-q form cannot carry on its own; the
    literal's base must equal n*(p-1)+1.
    """
    q, L, digits = _split_literal(text, "Cantor", "q:L")
    expected_q = n * (p - 1) + 1
    if q != expected_q:
        raise ValueError(
            f"Cantor literal base {q} does not match q={expected_q} for p={p}, n={n}"
        )
    if len(digits) != L:
        raise ValueError(
            f"Cantor literal {text!r} carries {len(digits)} digits, expected L={L}"
        )
    return make_cantor(digits, p, n)
