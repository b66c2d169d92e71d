"""Expected values computed apart from the library, with plain integers.

Nothing here imports ``padic_kas``: every check in the benchmark compares a
library result against one of these functions, never against saved output.
Digit tuples are little-endian for p-adic values (units digit first) and
most-significant-first for base-q Cantor values, as in the library's text
formats.
"""

from fractions import Fraction
from itertools import product


def digit_space(p, K):
    """All little-endian K-digit tuples, in the order ``itertools.product`` gives."""
    return list(product(range(p), repeat=K))


def to_digits(value, p, K):
    """Little-endian base-p digits of ``value mod p**K``."""
    value %= p**K
    out = []
    for _ in range(K):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def from_digits(digits, p):
    """The integer whose little-endian base-p digits are ``digits``."""
    acc = 0
    for d in reversed(digits):
        acc = acc * p + d
    return acc


def horner(digits, q):
    """Numerator of ``sum digits[i] * q**(-i-1)`` over the denominator q**len."""
    acc = 0
    for d in digits:
        acc = acc * q + d
    return acc


def morton(coords, p):
    """The Morton integer ``sum_k sum_i d_{k,i} * p**(n*i + k)``."""
    n = len(coords)
    acc = 0
    for k, digits in enumerate(coords):
        for i, d in enumerate(digits):
            acc += d * p ** (n * i + k)
    return acc


def q_of(p, n):
    return n * (p - 1) + 1


def packed_numerator(coords, p):
    """Horner numerator of the packed Cantor value of a point.

    Base-q digit ``n*i + k`` (most significant first) is ``n * coords[k][i]``;
    the value is this numerator over ``q**(n*K)``.
    """
    n = len(coords)
    q = q_of(p, n)
    acc = 0
    for i in range(len(coords[0])):
        for k in range(n):
            acc = acc * q + n * coords[k][i]
    return acc


def valuation(digits):
    """Index of the first nonzero digit, or None when every digit is 0."""
    for i, d in enumerate(digits):
        if d:
            return i
    return None


def norm_product(coords, p):
    """``prod_k |x_k|_p`` as a float, rounded once from the exact value."""
    total = 0
    for digits in coords:
        v = valuation(digits)
        if v is None:
            return 0.0
        total += v
    return float(Fraction(1, p**total))


def padic_sum(coords, p, K):
    """Digits of ``sum_k x_k mod p**K``."""
    return to_digits(sum(from_digits(c, p) for c in coords), p, K)


def scalar_parts(digits):
    """``(valuation, unit digits)`` of a p-adic integer; ``(0, None)`` for zero."""
    v = valuation(digits)
    if v is None:
        return 0, None
    return v, tuple(digits[v:])


def interval_point(index, p, n, K):
    """The point whose packed value is the left end of level-nK interval ``index``.

    Intervals in increasing order are the base-p numerals of length nK read
    most-significant-first; numeral digit ``n*i + k`` is coordinate k's
    digit i.
    """
    L = n * K
    numeral = [0] * L
    for j in range(L - 1, -1, -1):
        index, numeral[j] = divmod(index, p)
    return tuple(tuple(numeral[n * i + k] for i in range(K)) for k in range(n))


def interval_left(index, p, n, K):
    """Horner numerator (over q**(nK)) of the left end of interval ``index``."""
    return packed_numerator(interval_point(index, p, n, K), p)


def gap(index, p, n, K):
    """The open gap between intervals ``index`` and ``index + 1``, as Fractions."""
    denom = q_of(p, n) ** (n * K)
    a = Fraction(interval_left(index, p, n, K) + 1, denom)
    b = Fraction(interval_left(index + 1, p, n, K), denom)
    return a, b


def blend(va, vb, theta):
    """The exact linear blend ``va + (vb - va) * theta``, rounded to float once."""
    return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * theta)
