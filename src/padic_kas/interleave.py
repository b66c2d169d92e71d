"""Digit interleaving between Z_p^n and Z_p (a base-p Morton/Z-order code).

``interleave`` sends an n-tuple of K-digit values to a single nK-digit value
whose digit at index n*i+k is coordinate k's digit i; ``deinterleave`` inverts
it by slicing.  Both are pure digit rearrangements, so they are exact
bijections between (Z/p^K)^n and Z/p^(nK).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .core import PadicPoint, TruncatedPadicInt, _new, named_tuple
from .errors import ArityMismatch, DimensionMismatch, IndexOutOfRange, PrecisionMismatch

__all__ = [
    "InterleavedPadic",
    "make_interleaved",
    "omega",
    "interleave",
    "deinterleave_k",
    "deinterleave",
]


@named_tuple("value n")
class InterleavedPadic:
    """A truncated p-adic integer of precision n*K tagged with its arity."""


def make_interleaved(value: TruncatedPadicInt, n: int) -> InterleavedPadic:
    """Validated constructor; precision must be divisible by the arity."""
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    if value.K % n:
        raise PrecisionMismatch(f"precision {value.K} is not divisible by n={n}")
    return InterleavedPadic(value, n)


def omega(x: TruncatedPadicInt, n: int) -> TruncatedPadicInt:
    """Place digit i of x at index n*i; precision grows to n*K."""
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    out = [0] * (n * x.K)
    out[::n] = x.digits
    return TruncatedPadicInt(x.p, n * x.K, tuple(out))


@lru_cache(maxsize=32)
def merge_order(n: int, K: int):
    """Picks digits out of n concatenated K-digit streams in interleaved order.

    Output digit n*i+k is stream k's digit i.  interleave (Theorem 2's z) and
    cantor.combine (Theorem 1's s) both use it, so the two maps share one
    digit order.  Exhaustive verification calls them millions of times; a
    cached index permutation keeps the per-call cost at one C-level getter.
    """
    if n * K < 2:
        # itemgetter needs an index and returns a bare item for one; the
        # concatenation of 0 or 1 digits is already in order.
        return tuple
    return itemgetter(*[k * K + i for i in range(K) for k in range(n)])


def interleave(X: PadicPoint) -> InterleavedPadic:
    """Merge the coordinates digit by digit: output digit n*i+k is X_k's digit i.

    Equals sum_k p**k * omega(X_k); the digit supports are disjoint, so the
    sum never carries and plain placement is exact.  Coordinate coherence
    (shared p and K) is the point type's invariant, enforced by make_point.
    """
    n, coords = X
    if n < 1 or len(coords) != n:
        raise DimensionMismatch(f"point declares n={n} but has {len(coords)} coords")
    first = coords[0]
    p, K = first.p, first.K
    cat = ()
    for c in coords:
        cat += c.digits
    if len(cat) != n * K:
        raise PrecisionMismatch(f"coordinates carry {len(cat)} digits, expected {n * K}")
    merged = _new(TruncatedPadicInt, (p, n * K, merge_order(n, K)(cat)))
    return _new(InterleavedPadic, (merged, n))


def deinterleave_k(z: InterleavedPadic, k: int) -> TruncatedPadicInt:
    """Stream k of the interleaved digits: digit i of the result is z's digit n*i+k."""
    v, n = z
    if k < 0 or k >= n:
        raise IndexOutOfRange(f"stream index {k} not in [0, {n - 1}]")
    return TruncatedPadicInt(v.p, v.K // n, v.digits[k::n])


def deinterleave(z: InterleavedPadic) -> PadicPoint:
    """All n streams at once; the full inverse of :func:`interleave`."""
    (p, nK, digits), n = z
    K = nK // n
    coords = []
    for k in range(n):
        coords.append(_new(TruncatedPadicInt, (p, K, digits[k::n])))
    return _new(PadicPoint, (n, tuple(coords)))
