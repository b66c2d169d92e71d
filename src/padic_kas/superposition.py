"""Univariate representatives for cylinder functions of several p-adic variables.

A level-K cylinder function f on Z_p^n (real- or p-adic-valued) factors
through a single function of one variable:

* real codomain: f(X) = g(s(X)) where s packs the coordinates into one value
  of the Cantor-like set via digit interleaving of the base-q encodings, and
  g is a function on [0,1] given by an exact table on the level-nK codec
  intervals plus linear interpolation across the complementary gaps (an
  explicit, testable extension of the table off the codec image);
* p-adic codomain: f(X) = h(z(X)) where z is the base-p digit interleave and
  h is a table over all nK-digit prefixes.

Both identities are exact at precision K for every input, never approximate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product
from operator import attrgetter, getitem

from .cantor import interval_numerators
from .core import (
    EXHAUSTIVE_LIMIT,
    PadicPoint,
    PadicScalar,
    TruncatedPadicInt,
    _check_params,
    _new,
    _require_table_size,
    named_tuple,
    padic_add,
    table_fits,
)
from .errors import (
    CodomainMismatch,
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    PrecisionMismatch,
    TableFormatError,
)
from .interleave import merge_order

# Unlisted since tracing __all__ would nest spans: eval_g_ratio, resolve_function, load_table_json.
__all__ = [
    "REAL",
    "PADIC",
    "BUILTIN_NAMES",
    "EXHAUSTIVE_LIMIT",
    "table_fits",
    "CylinderFunction",
    "GFunction",
    "HFunction",
    "WEIGHTS_PROOF",
    "WEIGHTS_PAPER",
    "build_g",
    "eval_g",
    "superpose1",
    "build_h",
    "h_value",
    "superpose2",
]

REAL = "real"
PADIC = "padic"

WEIGHTS_PROOF = "proof"
WEIGHTS_PAPER = "paper"

# Builtin selector names; K stands for a 1-based coordinate index.
BUILTIN_NAMES = ("zero", "proj-K", "padic-sum", "norm-K", "norm-product", "digit0-K")

_digits = attrgetter("digits")


class CylinderFunction:
    """A level-K locally constant function on n-tuples of p-adic integers.

    The body is either a total table over all p**(n*K) digit-tuples or a
    callable; builtins cover the common test functions.  Calling the object
    with a :class:`PadicPoint` evaluates it.  A table is stored as
    ``values``, in index order: ``values[i]`` is the value at the point
    whose interleaved digits read i in base p (see :func:`_dilations`).
    """

    __slots__ = ("p", "n", "K", "codomain", "name", "values", "_fn")

    def __init__(self, p, n, K, codomain, fn, name):
        _check_params(p, n, K)
        if codomain not in (REAL, PADIC):
            raise CodomainMismatch(f"unknown codomain {codomain!r}")
        self.p = p
        self.n = n
        self.K = K
        self.codomain = codomain
        self.name = name
        self.values = None
        self._fn = fn

    def __repr__(self):
        return (
            f"CylinderFunction({self.name!r}, p={self.p}, n={self.n}, "
            f"K={self.K}, codomain={self.codomain!r})"
        )

    def __call__(self, X: PadicPoint):
        _check_point(X, self.p, self.n, self.K)
        return self._fn(X)

    @classmethod
    def from_builtin(cls, name, p, n, K, codomain=None):
        """Resolve a builtin by name.

        ``zero`` adapts to the requested codomain (real by default); the
        others have a fixed codomain and reject a conflicting request.
        """
        fixed, fn = _resolve_builtin(name, p, n, K, codomain)
        if codomain is not None and codomain != fixed:
            raise CodomainMismatch(
                f"builtin {name!r} has codomain {fixed!r}, not {codomain!r}"
            )
        return cls(p, n, K, fixed, fn, name)

    @classmethod
    def from_table(cls, p, n, K, codomain, entries, name="table"):
        """Build from a total mapping digit-tuple -> value.

        Keys are n-tuples of little-endian K-digit tuples.  The mapping must
        cover all p**(n*K) inputs; real values must be finite, p-adic values
        must share p and K.  A table over more than EXHAUSTIVE_LIMIT inputs
        is refused before any key is read.  A TableFormatError raised at an
        entry carries that entry's position in ``entries`` as ``.entry``.
        """
        f = cls(p, n, K, codomain, None, name)
        _require_table_size(p, n * K)
        dil = _dilations(p, n, K)
        size = p ** (n * K)
        values = [None] * size
        check = _real_value if codomain == REAL else partial(_padic_value, p, K)
        try:
            for key, value in entries.items():
                value = check(value)
                # A key of n valid digit tuples is looked up as given; any other
                # has its digits read through int(), or its fault named, by _check_key.
                try:
                    if len(key) == n:
                        values[sum(map(getitem, dil, key))] = value
                        continue
                except (KeyError, TypeError):
                    pass
                values[_check_key(key, p, n, K, dil)] = value
        except TableFormatError as exc:
            exc.entry = list(entries).index(key)
            raise
        missing = values.count(None)
        if missing:
            raise TableFormatError(f"table has {size - missing} entries, expected {size}")

        def fn(X, _values=values):
            return _values[sum(map(getitem, dil, map(_digits, X.coords)))]

        f.values = values
        f._fn = fn
        return f

    @classmethod
    def from_callable(cls, p, n, K, codomain, fn, name="<callable>"):
        """Wrap an arbitrary evaluator; the caller vouches for cylinder-ness."""
        return cls(p, n, K, codomain, fn, name)

    def lift(self, K_new: int) -> "CylinderFunction":
        """The same function viewed at a finer level: new digits are ignored."""
        if K_new < self.K:
            raise ValueError(f"lift target {K_new} is below current level {self.K}")
        if K_new == self.K:
            return self
        K, fn = self.K, self._fn

        def cut(X):
            coords = tuple(TruncatedPadicInt(c.p, K, c.digits[:K]) for c in X.coords)
            return fn(PadicPoint(X.n, coords))

        return CylinderFunction(self.p, self.n, K_new, self.codomain, cut, f"{self.name}@K{K_new}")


def _check_point(X, p, n, K):
    """Raise unless X has arity n and n coordinates, each at p and K."""
    arity, coords = X
    if arity != n:
        raise DimensionMismatch(f"point has n={arity}, expected {n}")
    if len(coords) != n:
        raise DimensionMismatch(f"point declares n={n} but has {len(coords)} coords")
    for c in coords:
        if c.p != p or c.K != K:
            raise PrecisionMismatch(f"coordinate ({c.p}, K={c.K}) does not match ({p}, K={K})")


def _check_key(key, p, n, K, dil):
    """Raise unless key is n coordinates of K digits in [0, p); return its index.

    The dilation dicts hold exactly the valid coordinates, so a key that
    they all accept is valid; the digit checks only name the fault.
    """
    key = tuple(tuple(map(int, coord)) for coord in key)
    if len(key) != n:
        raise TableFormatError(f"key {key} has {len(key)} coordinates, expected {n}")
    try:
        return sum(map(getitem, dil, key))
    except KeyError:
        pass
    for coord in key:
        if len(coord) != K:
            raise TableFormatError(f"key {key} has a {len(coord)}-digit coordinate, expected {K}")
        for d in coord:
            if d < 0 or d >= p:
                raise TableFormatError(f"key {key} digit {d} not in [0, {p - 1}]")


def _real_value(value):
    try:
        v = float(value)
    except OverflowError:
        raise TableFormatError("real table value is too large for a float") from None
    if not math.isfinite(v):
        raise TableFormatError(f"real table value {value!r} is not finite")
    return v


def _padic_value(p, K, value):
    if not isinstance(value, TruncatedPadicInt):
        raise TableFormatError(f"p-adic table value {value!r} is not a TruncatedPadicInt")
    if value.p != p or value.K != K:
        raise TableFormatError(
            f"p-adic table value has (p={value.p}, K={value.K}), expected (p={p}, K={K})"
        )
    return value


def _norm(p, coords):
    """The product of the p-adic norms of coords, as a float.

    Each norm is p**-v, v the index of the first nonzero digit, so the
    product is 1 / p**(sum of the v), or 0.0 if a coordinate is all zeros.
    Integer true division rounds once and correctly, so this is the float of
    the product of the exact :func:`.core.padic_norm` values, bit for bit.
    """
    v = 0
    for c in coords:
        for i, d in enumerate(c.digits):
            if d:
                v += i
                break
        else:
            return 0.0
    return 1 / p**v


def _resolve_builtin(name, p, n, K, codomain):
    if name == "zero":
        cod = codomain or REAL
        if cod == REAL:
            return REAL, lambda X: 0.0
        zero = TruncatedPadicInt(p, K, (0,) * K)
        return PADIC, lambda X: zero
    if name == "padic-sum":
        return PADIC, lambda X: reduce(padic_add, X.coords)
    if name == "norm-product":
        return REAL, lambda X: _norm(p, X.coords)
    kind, dash, k = name.partition("-")
    if not dash or kind not in ("proj", "norm", "digit0"):
        raise ConfigError(f"unknown builtin function {name!r}")
    try:
        k = int(k)
    except ValueError:
        raise ConfigError(f"bad coordinate index in builtin {name!r}") from None
    if not 1 <= k <= n:
        raise ConfigError(f"builtin {name!r} indexes coordinate {k}, arity is {n}")
    k -= 1
    if kind == "proj":
        return PADIC, lambda X: X.coords[k]
    if kind == "norm":
        return REAL, lambda X: _norm(p, (X.coords[k],))
    return REAL, lambda X: float(X.coords[k].digits[0])


def resolve_function(p, n, K, codomain=None, function=None, table=None):
    """The cylinder function at (p, n, K) that a command or a suite runs on.

    ``table`` is the path of a table file (:func:`load_table_json`), which
    must be at (p, n, K) and, with ``codomain`` given, at that codomain.
    Otherwise ``function`` names a builtin, by default ``padic-sum`` for a
    p-adic codomain and ``norm-product`` else.
    """
    if table is None:
        name = function or ("padic-sum" if codomain == PADIC else "norm-product")
        return CylinderFunction.from_builtin(name, p, n, K, codomain=codomain)
    f = load_table_json(table)
    if (f.p, f.n, f.K) != (p, n, K):
        raise ConfigError(
            f"table file has (p={f.p}, n={f.n}, K={f.K}), expected (p={p}, n={n}, K={K})"
        )
    if codomain is not None and f.codomain != codomain:
        raise ConfigError(f"table file has codomain {f.codomain!r}, expected {codomain!r}")
    return f


def load_table_json(path: str) -> CylinderFunction:
    """Read a cylinder-function table file: :func:`.tablefile.read_table`."""
    from .tablefile import read_table

    return read_table(path)


@named_tuple("p n K values")
class GFunction:
    """The univariate representative of a real-valued cylinder function.

    ``values[i]`` is f on the i-th level-L codec interval (L = n*K) from the
    left.  Write i with L base-p digits, most significant first: the
    interval's base-q digits are n times these, and coordinate k of its point
    takes the digits at positions k, k+n, ...  Gap i lies between intervals i
    and i+1 and blends their values linearly.
    """

    def __repr__(self):
        return f"GFunction(p={self.p}, n={self.n}, K={self.K}, intervals={len(self.values)})"

    @property
    def q(self) -> int:
        return self.n * (self.p - 1) + 1

    @property
    def L(self) -> int:
        return self.n * self.K

    @property
    def table(self) -> dict:
        """Interval values keyed by their base-q digits, in index order; built on each access."""
        return dict(zip(product(range(0, self.q, self.n), repeat=self.L), self.values))


@lru_cache(maxsize=16)
def _dilations(p, n, K):
    """One dict per coordinate: its K-digit tuple -> its share of the index.

    The index of a point reads its interleaved digits zdig in base p, most
    significant first.  Digit m of coordinate k sits at zdig[m*n + k], so
    the coordinate adds d_m * p**(n*K - 1 - m*n - k) for each m: its digits
    "dilated" n-fold, shifted by n - 1 - k.  The index of X is
    ``sum(map(getitem, dil, map(_digits, X.coords)))``.  The cached dicts
    are shared by every caller, which only reads them.
    """
    pn = p**n
    shares = [0]
    for _ in range(K):
        shares = [s * pn + d for s in shares for d in range(p)]
    keys = list(product(range(p), repeat=K))
    return tuple(
        dict(zip(keys, [s * p ** (n - 1 - k) for s in shares])) for k in range(n)
    )


def _points_in_order(p, n, K):
    """(zdig, X) for every point of (Z/p^K)^n; coordinate k is ``zdig[k::n]``.

    Each of the p**K coordinate values is built once and shared by every
    point that has it.
    """
    _require_table_size(p, n * K)
    coord = {d: _new(TruncatedPadicInt, (p, K, d)) for d in product(range(p), repeat=K)}
    shared = coord.__getitem__
    streams = [slice(k, None, n) for k in range(n)]
    for zdig in product(range(p), repeat=n * K):
        yield zdig, _new(PadicPoint, (n, tuple(map(shared, map(zdig.__getitem__, streams)))))


def build_g(f: CylinderFunction) -> GFunction:
    """Tabulate f on every level-nK codec interval, in increasing order.

    A table-backed f is already in this order, so its values are copied.
    Otherwise the points are the library's own, at f's p, n and K, so f's
    body is called on them without the point check.
    """
    if f.codomain != REAL:
        raise CodomainMismatch(f"build_g needs a real-valued function, got {f.codomain!r}")
    if f.values is not None:
        return GFunction(f.p, f.n, f.K, f.values.copy())
    fn = f._fn
    values = [float(fn(X)) for _, X in _points_in_order(f.p, f.n, f.K)]
    return GFunction(f.p, f.n, f.K, values)


def eval_g(G: GFunction, t) -> float:
    """Evaluate the extended function at a rational t in [0,1].

    t lies in the closed interval or the gap that :func:`eval_g_ratio`
    finds.  An interval's value is returned unchanged (the right interval's
    where two meet, n = 1); a gap's left end keeps the left interval's
    value, and inside it the neighbours are blended linearly in exact
    rational arithmetic, rounded to float once.
    """
    if type(t) is not Fraction:
        t = Fraction(t)
    return eval_g_ratio(G, t.numerator, t.denominator)


# The most intervals one bisect step of eval_g_ratio searches, so that every
# cached numerator list stays small whatever the level.
_STEP_INTERVALS = 1024


@lru_cache(maxsize=8)
def _steps(p, n, L):
    """How :func:`eval_g_ratio` reads the L base-q digits of t * q**L.

    From the top, one tuple per step of ``size`` digits with ``rest`` digits
    below it: (numerators of level size, q**rest, p**size, p**rest).  Steps
    are as long as _STEP_INTERVALS allows and share their numerators; a
    one-digit step's are a range, so no list holds more than
    _STEP_INTERVALS ints.
    """
    q = n * (p - 1) + 1
    size = 1
    while p ** (size + 1) <= _STEP_INTERVALS:
        size += 1
    steps = []
    nums = ()
    while L:
        step = min(size, L)
        L -= step
        if len(nums) != p**step:
            nums = range(0, q, n) if step == 1 else interval_numerators(p, n, step)
        steps.append((nums, q**L, p**step, p**L))
    return tuple(steps)


def eval_g_ratio(G: GFunction, num: int, den: int) -> float:
    """:func:`eval_g` at t = num/den, for ints 0 <= num <= den; need not be reduced.

    With t * q**L = m + r/den, the base-q digits of m are read from the top,
    a step of digits at a time.  Bisecting a step's digits d over the
    numerators of its level finds the interval j at or left of them; while
    d is j's numerator, t lies in j.  Otherwise t lies in the gap right of
    j: its left end keeps the left interval's value, and inside it the
    neighbours are blended.
    """
    if den < 1:
        raise DomainViolation(f"denominator {den} is not positive")
    if num < 0 or num > den:
        raise DomainViolation(f"{Fraction(num, den)} is outside [0, 1]")
    p, n, K, values = G
    L = n * K
    scale = (n * (p - 1) + 1) ** L
    m, r = divmod(num * scale, den)
    if m == scale:
        return values[-1]
    i = 0
    for nums, scale, width, below in _steps(p, n, L):
        d, m = divmod(m, scale)
        j = bisect_right(nums, d) - 1
        off = d - nums[j]
        if off:
            # In units of q**-L, gap gi is (nums[j + 1] - nums[j] - 1)*scale
            # wide and t lies offset + r/den above its left end.
            gi = (i * width + j + 1) * below - 1
            offset = (off - 1) * scale + m
            if not offset and not r:
                return values[gi]
            va, vb = values[gi], values[gi + 1]
            theta = Fraction(offset * den + r, (nums[j + 1] - nums[j] - 1) * scale * den)
            return float(Fraction(va) + (Fraction(vb) - Fraction(va)) * theta)
        i = i * width + j
    return values[i]


def superpose1(G: GFunction, X: PadicPoint) -> float:
    """The representative at the packed value of X, which reproduces f(X) exactly.

    The packed value places n * (x_{k+1})_j at base-q position n*j+k, so it
    lies in the interval whose index has base-p digit (x_{k+1})_j there.
    """
    p, n, K, values = G
    _check_point(X, p, n, K)
    return values[sum(map(getitem, _dilations(p, n, K), map(_digits, X.coords)))]


@named_tuple("p n K weights table")
class HFunction:
    """The univariate representative of a p-adic-valued cylinder function.

    A total table from digit prefixes of the interleaved variable to scalar
    values.  With the ``proof`` weight convention keys have n*K digits and
    the domain is all of Z/p^(nK); with ``paper`` the variable is shifted by
    one digit and the domain is the multiples of p.
    """

    def __repr__(self):
        return (
            f"HFunction(p={self.p}, n={self.n}, K={self.K}, "
            f"weights={self.weights!r}, entries={len(self.table)})"
        )

    @property
    def key_length(self) -> int:
        return self.n * self.K + (1 if self.weights == WEIGHTS_PAPER else 0)


def build_h(f: CylinderFunction, weights: str = WEIGHTS_PROOF) -> HFunction:
    """Tabulate f against the digit de-interleave of every nK-digit prefix.

    A table-backed f's values are read in their index order, which is the
    product order of the prefixes; otherwise f's body is called on the
    library's own points without the point check.  Each distinct value
    becomes one :class:`PadicScalar`, which every entry holding that value
    shares.
    """
    if f.codomain != PADIC:
        raise CodomainMismatch(f"build_h needs a p-adic-valued function, got {f.codomain!r}")
    if weights not in (WEIGHTS_PROOF, WEIGHTS_PAPER):
        raise ConfigError(f"unknown weight convention {weights!r}")
    p, n, K = f.p, f.n, f.K
    if f.values is not None:
        pairs = zip(product(range(p), repeat=n * K), f.values)
    else:
        fn = f._fn
        pairs = ((zdig, fn(X)) for zdig, X in _points_in_order(p, n, K))
    table = {}
    scalars = {}
    for zdig, value in pairs:
        # Checked before the lookup: a plain tuple equal to a cached value
        # would otherwise pass.
        if not isinstance(value, TruncatedPadicInt):
            raise CodomainMismatch(
                f"p-adic function returned {type(value).__name__}, expected TruncatedPadicInt"
            )
        scalar = scalars.get(value)
        if scalar is None:
            scalar = scalars[value] = PadicScalar.from_padic_int(value)
        key = (0,) + zdig if weights == WEIGHTS_PAPER else zdig
        table[key] = scalar
    return HFunction(p, n, K, weights, table)


def h_value(H: HFunction, z: TruncatedPadicInt) -> PadicScalar:
    """Evaluate h at a digit prefix of its interleaved variable."""
    if z.p != H.p or z.K != H.key_length:
        raise PrecisionMismatch(
            f"argument has (p={z.p}, K={z.K}), expected (p={H.p}, K={H.key_length})"
        )
    try:
        return H.table[z.digits]
    except KeyError:
        raise DomainViolation(
            f"{','.join(map(str, z.digits))} is outside the representative's domain"
        ) from None


def superpose2(H: HFunction, X: PadicPoint) -> PadicScalar:
    """Look h up at z(X)'s digits, exact at level K, without building z.

    The key permutes the coordinates' joined digits by the :func:`.interleave.merge_order`
    that ``interleave`` and ``cantor.combine`` share.
    """
    p, n, K, weights, table = H
    _check_point(X, p, n, K)
    cat = ()
    for c in X.coords:
        cat += c.digits
    if len(cat) != n * K:
        raise PrecisionMismatch(f"coordinates carry {len(cat)} digits, expected {n * K}")
    key = merge_order(n, K)(cat)
    if weights == WEIGHTS_PAPER:
        key = (0,) + key
    return table[key]
