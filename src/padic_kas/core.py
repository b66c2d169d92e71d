"""Exact truncated p-adic integers, scalars, points, and the max-norm ultrametric.

Every value is a level-K cylinder: a residue mod p**K carried as an explicit
digit vector.  All operations are pure and all types immutable, so values may
be shared freely across threads or processes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ArityMismatch,
    DigitOutOfRange,
    DimensionMismatch,
    NonPrimeModulus,
    PrecisionMismatch,
)

__all__ = [
    "TruncatedPadicInt",
    "PadicPoint",
    "PadicScalar",
    "is_prime",
    "make_padic",
    "padic_from_int",
    "make_point",
    "padic_norm",
    "padic_add",
    "padic_sub",
    "padic_shift",
    "point_distance",
    "format_padic",
    "parse_padic",
]


# A named tuple's __new__ is a Python-level wrapper around this call.  The
# digit maps and tabulations call it directly, which saves one interpreter
# frame per value built; exhaustive verification builds millions of them.
_new = tuple.__new__


def _check_params(p, n, K):
    """Raise unless p is prime and the arity n and the level K are >= 1."""
    if not is_prime(p):
        raise NonPrimeModulus(f"modulus {p} is not prime")
    if n < 1:
        raise ArityMismatch(f"arity must be >= 1, got {n}")
    if K < 1:
        raise ValueError(f"level must be >= 1, got {K}")


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every p below PRIME_BOUND (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=16)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test.

    Raises:
        NonPrimeModulus: p >= PRIME_BOUND, where the test is not exact.
    """
    if p >= PRIME_BOUND:
        raise NonPrimeModulus(f"modulus {p} is too large: primality is decided below {PRIME_BOUND}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def named_tuple(fields, defaults=()):
    """Class decorator: a ``collections.namedtuple`` with the class's docstring and methods.

    This builds what ``typing.NamedTuple`` builds, without importing
    ``typing``.  ``fields`` is a space-separated string; ``defaults`` apply
    to the last fields.
    """

    def build(body):
        cls = namedtuple(body.__name__, fields, defaults=defaults, module=body.__module__)
        for attr, value in vars(body).items():
            if attr not in ("__dict__", "__weakref__", "__module__"):
                setattr(cls, attr, value)
        return cls

    return build


@named_tuple("p K digits")
class TruncatedPadicInt:
    """A p-adic integer known to K base-p digits (a residue mod p**K).

    ``digits`` is little-endian: ``digits[0]`` is the units digit.  The raw
    constructor trusts its arguments so that digit-shuffling maps stay cheap;
    :func:`make_padic` is the validating entry point.
    """

    def to_int(self) -> int:
        """The representative integer in [0, p**K)."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.p + d
        return acc


@named_tuple("n coords")
class PadicPoint:
    """An n-tuple of truncated p-adic integers sharing p and K."""


@named_tuple("p valuation unit", defaults=(None,))
class PadicScalar:
    """An element of Q_p split as p**valuation times a unit.

    ``unit`` is a truncated p-adic integer with nonzero units digit, or None
    for the distinguished zero.  Only nonnegative valuations arise from the
    codecs in this package; negative valuations are supported for norm
    computation only.
    """

    @classmethod
    def zero(cls, p: int) -> "PadicScalar":
        return cls(p, 0, None)

    @classmethod
    def from_padic_int(cls, x: TruncatedPadicInt) -> "PadicScalar":
        """Factor x as p**v * unit.  An all-zero x maps to the canonical zero."""
        for v, d in enumerate(x.digits):
            if d:
                return cls(x.p, v, TruncatedPadicInt(x.p, x.K - v, x.digits[v:]))
        return cls(x.p, 0, None)

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def norm(self) -> Fraction:
        """p**(-valuation), or 0 for the zero scalar."""
        if self.unit is None:
            return Fraction(0)
        return Fraction(self.p) ** (-self.valuation)

    def to_padic_int(self, K: int) -> TruncatedPadicInt:
        """Digits of the scalar at precision K; requires valuation >= 0."""
        if self.unit is None:
            return TruncatedPadicInt(self.p, K, (0,) * K)
        if self.valuation < 0:
            raise ValueError("negative valuation does not fit in Z_p")
        digits = (0,) * self.valuation + self.unit.digits
        digits = digits[:K] + (0,) * (K - len(digits))
        return TruncatedPadicInt(self.p, K, digits)


def make_padic(digits, p: int, K: int) -> TruncatedPadicInt:
    """Build a validated value from little-endian digits, zero-padded to K.

    Raises:
        NonPrimeModulus: p is not prime.
        ValueError: K < 1.
        DigitOutOfRange: a digit is outside [0, p-1].
        PrecisionMismatch: more than K digits supplied.
    """
    _check_params(p, 1, K)
    digs = tuple(int(d) for d in digits)
    if len(digs) > K:
        raise PrecisionMismatch(f"{len(digs)} digits exceed precision K={K}")
    for i, d in enumerate(digs):
        if d < 0 or d >= p:
            raise DigitOutOfRange(f"digit {d} at index {i} not in [0, {p - 1}]")
    return TruncatedPadicInt(p, K, digs + (0,) * (K - len(digs)))


def padic_from_int(value: int, p: int, K: int) -> TruncatedPadicInt:
    """The residue of an integer mod p**K as a digit vector."""
    _check_params(p, 1, K)
    value %= p**K
    digs = []
    for _ in range(K):
        value, d = divmod(value, p)
        digs.append(d)
    return TruncatedPadicInt(p, K, tuple(digs))


def make_point(coords) -> PadicPoint:
    """Build a validated point; all coordinates must share p and K."""
    coords = tuple(coords)
    if not coords:
        raise DimensionMismatch("a point needs at least one coordinate")
    first = coords[0]
    for c in coords[1:]:
        if c.p != first.p or c.K != first.K:
            raise PrecisionMismatch(
                f"coordinate ({c.p}, K={c.K}) differs from ({first.p}, K={first.K})"
            )
    return PadicPoint(len(coords), coords)


def _check_same(x: TruncatedPadicInt, y: TruncatedPadicInt) -> None:
    if x.p != y.p or x.K != y.K:
        raise PrecisionMismatch(
            f"operands disagree: ({x.p}, K={x.K}) vs ({y.p}, K={y.K})"
        )


def padic_norm(x: TruncatedPadicInt) -> Fraction:
    """p**(-N) for the first nonzero digit index N; 0 if all K digits vanish.

    The all-zero vector means |x|_p <= p**(-K); at this precision it is
    reported as 0 so that the norm stays a total function.
    """
    for i, d in enumerate(x.digits):
        if d:
            return Fraction(1, x.p**i)
    return Fraction(0)


def padic_add(x: TruncatedPadicInt, y: TruncatedPadicInt) -> TruncatedPadicInt:
    """Digitwise addition with carry, truncated to K digits (mod p**K)."""
    _check_same(x, y)
    p = x.p
    out = []
    carry = 0
    for a, b in zip(x.digits, y.digits):
        s = a + b + carry
        if s >= p:
            out.append(s - p)
            carry = 1
        else:
            out.append(s)
            carry = 0
    return TruncatedPadicInt(p, x.K, tuple(out))


def padic_sub(x: TruncatedPadicInt, y: TruncatedPadicInt) -> TruncatedPadicInt:
    """Digitwise subtraction with borrow, truncated to K digits (mod p**K)."""
    _check_same(x, y)
    p = x.p
    out = []
    borrow = 0
    for a, b in zip(x.digits, y.digits):
        s = a - b - borrow
        if s < 0:
            out.append(s + p)
            borrow = 1
        else:
            out.append(s)
            borrow = 0
    return TruncatedPadicInt(p, x.K, tuple(out))


def padic_shift(x: TruncatedPadicInt, k: int) -> TruncatedPadicInt:
    """Multiply by p**k within precision K (digits shift up, top digits drop)."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if k >= x.K:
        return TruncatedPadicInt(x.p, x.K, (0,) * x.K)
    return TruncatedPadicInt(x.p, x.K, (0,) * k + x.digits[: x.K - k])


def point_distance(X: PadicPoint, Y: PadicPoint) -> Fraction:
    """Max over coordinates of |x_i - y_i|_p (the ultrametric on Z_p^n)."""
    if X.n != Y.n:
        raise DimensionMismatch(f"dimensions differ: {X.n} vs {Y.n}")
    best = Fraction(0)
    for a, b in zip(X.coords, Y.coords):
        d = padic_norm(padic_sub(a, b))
        if d > best:
            best = d
    return best


def format_padic(x: TruncatedPadicInt) -> str:
    """Textual form ``p:K:d0,d1,...,d(K-1)``, units digit first."""
    return f"{x.p}:{x.K}:" + ",".join(map(str, x.digits))


def parse_padic(text: str) -> TruncatedPadicInt:
    """Parse the textual form produced by :func:`format_padic`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"malformed p-adic literal {text!r}; expected p:K:d0,d1,...")
    try:
        p = int(parts[0])
        K = int(parts[1])
        digits = [int(d) for d in parts[2].split(",")] if parts[2] else []
    except ValueError as exc:
        raise ValueError(f"malformed p-adic literal {text!r}: {exc}") from None
    if len(digits) != K:
        raise ValueError(
            f"p-adic literal {text!r} carries {len(digits)} digits, expected K={K}"
        )
    return make_padic(digits, p, K)
