"""Exact rational plumbing: the engine's Fraction, interval arithmetic with
Fraction endpoints, outward-rounded enclosures of ln, exp and sqrt from
integer fixed-point kernels, zeta(p) by Euler-Maclaurin summation on the
same integers, and exact integer roots and power indices.

The engine's Fraction is a subclass of fractions.Fraction: every value it
makes is equal, hash-equal and printed alike to a plain Fraction, and it
mixes with plain ones and ints. Its arithmetic and comparisons take
integer fast paths, with CPython's own gcd-splitting formulas, and leave
every other operand to the base class. Every engine module takes Fraction
from here.

Everything downstream treats a RatInterval as a certificate: the true real
value lies inside [lo, hi]. Endpoints are exact Fractions, so interval
combinations never lose containment.
"""

from __future__ import annotations

import decimal
import fractions
import functools
import math
import operator
import re
from typing import Optional, Union

from ._value import frozen
from .errors import TooLarge, ValidationError

_Base = fractions.Fraction
_new = object.__new__
_gcd = math.gcd


def _q(n: int, d: int) -> "Fraction":
    """The engine Fraction n/d for coprime ints n and d > 0, unchecked."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    q._hash = None
    return q


# The four operations on (numerator, denominator) pairs of normalized
# operands, by the formulas of fractions.Fraction (Knuth, TAOCP 4.5.1):
# each gcd is taken of the smaller terms, and the result needs no other.

def _add(na, da, nb, db):
    g = _gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, db * da)


def _div(na, da, nb, db):  # nb != 0
    g1 = _gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = _gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    return _q(-n, -d) if d < 0 else _q(n, d)


def _arithmetic(core, name):
    """The forward and reflected dunders of one operation: core on the
    terms of an int or a Fraction operand, the base class otherwise. A
    zero divisor goes to the base class too, for its error text."""
    base, rbase = getattr(_Base, f"__{name}__"), getattr(_Base, f"__r{name}__")
    divides = core is _div

    def forward(a, b):
        tb = type(b)
        if tb is int:
            nb, db = b, 1
        elif tb is Fraction or tb is _Base:
            nb, db = b._numerator, b._denominator
        else:
            return base(a, b)
        if divides and not nb:
            return base(a, b)
        return core(a._numerator, a._denominator, nb, db)

    def reverse(a, b):  # b op a
        tb = type(b)
        if tb is int:
            nb, db = b, 1
        elif tb is Fraction or tb is _Base:
            nb, db = b._numerator, b._denominator
        else:
            return rbase(a, b)
        if divides and not a._numerator:
            return rbase(a, b)
        return core(nb, db, a._numerator, a._denominator)

    forward.__name__, reverse.__name__ = f"__{name}__", f"__r{name}__"
    return forward, reverse


def _comparison(op):
    """a op b for an order comparison, by cross products of the terms."""
    base = getattr(_Base, f"__{op.__name__}__")

    def compare(a, b):
        tb = type(b)
        if tb is int:
            return op(a._numerator, b * a._denominator)
        if tb is Fraction or tb is _Base:
            return op(a._numerator * b._denominator,
                      a._denominator * b._numerator)
        return base(a, b)

    compare.__name__ = f"__{op.__name__}__"
    return compare


class Fraction(fractions.Fraction):
    """A fractions.Fraction whose exact operations dispatch on the operand
    type: an int, an engine Fraction or a plain one takes an integer fast
    path and gives an engine Fraction; a float, a bool or another Rational
    takes the base class's code. The hash is kept once computed, in a
    slot that every way of building one sets to None first."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            t = type(numerator)
            if t is int:
                return _q(numerator, 1)
            if t is Fraction:
                return numerator
            if t is _Base:
                return _q(numerator._numerator, numerator._denominator)
        elif type(numerator) is int is type(denominator) and denominator:
            g = _gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            return _q(numerator // g, denominator // g)
        q = super().__new__(cls, numerator, denominator)
        q._hash = None
        return q

    # the base class builds from_float and from_decimal with this from
    # Python 3.12 on
    _from_coprime_ints = staticmethod(_q)

    __add__, __radd__ = _arithmetic(_add, "add")
    __sub__, __rsub__ = _arithmetic(_sub, "sub")
    __mul__, __rmul__ = _arithmetic(_mul, "mul")
    __truediv__, __rtruediv__ = _arithmetic(_div, "truediv")

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __eq__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator == b and a._denominator == 1
        if tb is Fraction or tb is _Base:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return _Base.__eq__(a, b)

    def __ne__(a, b):
        tb = type(b)
        if tb is int:
            return a._numerator != b or a._denominator != 1
        if tb is Fraction or tb is _Base:
            return a._numerator != b._numerator or a._denominator != b._denominator
        return _Base.__ne__(a, b)

    def __hash__(self):
        if self._denominator == 1:  # an integer's hash, with nothing to keep
            return hash(self._numerator)
        h = self._hash
        if h is None:
            h = self._hash = _Base.__hash__(self)
        return h

    def __pow__(a, b):
        tb = type(b)
        if (tb is Fraction or tb is _Base) and b._denominator == 1:
            b, tb = b._numerator, int
        if tb is int:
            n, d = a._numerator, a._denominator
            if b >= 0:
                return _q(n ** b, d ** b)
            if n > 0:
                return _q(d ** -b, n ** -b)
            if n < 0:
                return _q((-d) ** -b, (-n) ** -b)
        return _Base.__pow__(a, b)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)

    def __float__(a):
        return a._numerator / a._denominator


Rational = Union[int, Fraction]

# the most steps of an index search, indices listed from one sequence,
# normalize pops or ternary digits: past it they raise TooLarge
_ITER_GUARD = 100_000

# \s is the whitespace that str.strip() drops
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


@frozen
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValidationError(f"interval endpoints out of order: {lo} > {hi}")
        fields = self.__dict__
        fields["lo"], fields["hi"] = lo, hi

    @staticmethod
    def point(x: Rational) -> "RatInterval":
        x = Fraction(x)
        return RatInterval(x, x)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Rational) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __mul__(self, other):
        other = _as_interval(other)
        products = [self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self):
        return RatInterval(max(Fraction(0), self.lo, -self.hi),
                           max(-self.lo, self.hi))

    def sign(self):
        """-1, 0 or 1 when decided; None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


def _frac(x: Rational) -> Fraction:
    if type(x) is Fraction:  # no abc check on the common case
        return x
    return x if isinstance(x, _Base) else Fraction(x)


def _trimmed(xs) -> tuple[Fraction, ...]:
    """The values as Fractions, trailing zeros dropped: the normal form of
    a coefficient list, whose missing terms read as zero."""
    out = [x if type(x) is Fraction else _frac(x) for x in xs]
    while out and not out[-1]._numerator:
        out.pop()
    return tuple(out)


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def _round_out(lo: int, hi: int, e: int, prec: int) -> RatInterval:
    """[lo * 2**e, hi * 2**e] widened to endpoints of prec significant bits."""
    ends = []
    for m in (lo, -hi):  # floor both, the upper end through its negative
        drop = max(0, abs(m).bit_length() - prec)
        m, k = m >> drop, e + drop
        ends.append(Fraction(m << k) if k >= 0 else Fraction(m, 1 << -k))
    return RatInterval(ends[0], -ends[1])


_GUARD = 64  # kernel bits past prec: their errors stay far below an endpoint unit


def _atanh_fixed(num: int, den: int, w: int) -> tuple[int, int, int]:
    """atanh(t) for t = num/den, |t| <= 1/3, as (m, err, e): the value lies
    within err * 2**e of m * 2**e, and |m| is about 2**w however small t is.
    Floored products of nonnegative terms make the sum fall short only, by
    at most 6 units a term (t**2 <= 1/9 keeps the carried error below 13)."""
    if not num:
        return 0, 0, -2 * w
    s = den.bit_length() - abs(num).bit_length()  # 2**(-s-1) < |t| < 2**(1-s)
    t = (abs(num) << (w + s)) // den
    t2 = t * t >> (w + 2 * s)  # t**2 * 2**w
    acc = term = t
    j = 1
    while term:
        term = term * t2 >> w
        acc += term // (2 * j + 1)
        j += 1
    return (acc if num > 0 else -acc), 6 * j, -(w + s)


@functools.lru_cache(maxsize=64)
def _ln2_fixed(w: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) as (m, err) in units of 2**-w."""
    return _atanh_fixed(1, 3, w)[:2]


def _ln_fixed(n: int, d: int, w: int) -> tuple[int, int, int]:
    """ln(n/d) for n, d >= 1 as (m, err, e) with e <= -w, like _atanh_fixed,
    with a relative error below 2**(20-w) at any magnitude. n/d = 2**k * y
    for y in [2/3, 4/3); square roots z = y**(2**-roots) bring t = (z-1)/(z+1)
    below 2**-r, and ln y = 2**(roots+1) atanh(t). A y that starts that near
    1 keeps its exact t, so no digits cancel."""
    k = n.bit_length() - d.bit_length()
    n, d = (n, d << k) if k >= 0 else (n << -k, d)
    if 3 * n >= 4 * d:
        d, k = d << 1, k + 1
    elif 3 * n < 2 * d:
        n, k = n << 1, k - 1
    num, den, roots, slack, r = n - d, n + d, 0, 0, w.bit_length()
    if abs(num) << r >= den:
        # each floor root scales the error of z by 1/(2 sqrt(z)) < 0.62 and
        # adds one, so z stays within 3 units, and atanh within 2 (z > 0.8)
        one, z = 1 << w, (n << w) // d
        while abs(z - one) << r >= z + one:
            z = math.isqrt(z << w)
            roots += 1
        num, den, slack = z - one, z + one, 2
    m, err, e = _atanh_fixed(num, den, w)
    err += slack << (-w - e)
    e += roots + 1
    if not k:
        return m, err, e
    # |ln x| > 0.28 |k| now, so units of 2**-w keep the relative error
    l2, err2 = _ln2_fixed(w)
    shift = -w - e
    return k * l2 + (m >> shift), abs(k) * err2 + (err >> shift) + 2, -w


def _exp_fixed(x: int, err: int, w: int) -> tuple[int, int, int]:
    """exp(v) for v within err * 2**-w of x * 2**-w, as (lo, hi, e) with
    lo * 2**e <= exp(v) <= hi * 2**e; err * 2**-w must stay below 1.
    v = k ln 2 + u with u in [0, ln 2). The Taylor sum of exp(u * 2**-h) falls
    short only, by at most 4 units a term; h squarings carry that exactly."""
    l2, err2 = _ln2_fixed(w)
    k, u = divmod(x, l2)
    err += abs(k) * err2
    h = w.bit_length() + 4
    acc = term = 1 << w
    j = 1
    while term:
        term = (term * u >> (w + h)) // j
        acc += term
        j += 1
    slack = 4 * j
    for _ in range(h):
        slack = ((2 * acc + slack) * slack >> w) + 2
        acc = acc * acc >> w
    # exp(+-rho) for rho = err * 2**-w lies in [1 - rho, 1 + 2 rho]
    lo = acc - (acc * err >> w) - 1
    hi = acc + slack + ((acc + slack) * 2 * err >> w) + 1
    return lo, hi, k - w


# log_interval, pow_interval and zeta_interval are cached per (argument,
# prec): the results are frozen, a raised error is not cached, and a new
# prec is a new entry. sqrt_interval is not: only planar lengths call it,
# and no check suite or benchmark workload reaches them.
@functools.lru_cache(maxsize=1024)
def log_interval(x: Rational, prec: int) -> RatInterval:
    """Enclosure of ln(x) for rational x > 0; a point only at x = 1."""
    x = Fraction(x)
    if x <= 0:
        raise ValidationError("log_interval needs a positive argument")
    m, err, e = _ln_fixed(x.numerator, x.denominator, prec + _GUARD)
    return _round_out(m - err, m + err, e, prec)


@functools.lru_cache(maxsize=1024)
def pow_interval(base: Rational, exponent: RatInterval, prec: int) -> RatInterval:
    """Enclosure of base**e for rational base > 0 and e inside exponent."""
    base = Fraction(base)
    if base <= 0:
        raise ValidationError("pow_interval needs a positive base")
    if base == 1:
        return RatInterval.point(1)
    n, d = base.numerator, base.denominator
    # |e ln base| < 2**bits: w keeps prec + _GUARD bits of exp(e ln base)
    top = math.ceil(max(abs(exponent.lo), abs(exponent.hi)))
    w = prec + _GUARD + (top * (abs(n.bit_length() - d.bit_length()) + 1)).bit_length()
    m, err, e = _ln_fixed(n, d, w)
    ends = []
    for c in {exponent.lo, exponent.hi}:
        if not c:
            ends.append(RatInterval.point(1))
            continue
        # c ln base in units of 2**-w: floor, and a radius rounded up
        p, q, shift = c.numerator, c.denominator, -w - e
        x, x_err = (p * m >> shift) // q, (abs(p) * err >> shift) // q + 2
        ends.append(_round_out(*_exp_fixed(x, x_err, w), prec))
    # base**e is monotone in e, so the endpoint images bracket the range
    return RatInterval(min(i.lo for i in ends), max(i.hi for i in ends))


def sqrt_interval(x: Rational, prec: int) -> RatInterval:
    """Enclosure of sqrt(x) for rational x >= 0: a point when x is the
    square of a dyadic rational and has at most prec significant bits."""
    x = Fraction(x)
    if x < 0:
        raise ValidationError("sqrt_interval needs a nonnegative argument")
    n, d = x.numerator, x.denominator
    s = prec + _GUARD - (n.bit_length() - d.bit_length()) // 2
    num, den = (n << 2 * s, d) if s >= 0 else (n, d << -2 * s)
    r = math.isqrt(num // den)  # floor(sqrt(x) * 2**s)
    # exact, and x has at most prec significant bits
    exact = r * r * den == num and n.bit_length() - (n & -n).bit_length() < prec
    return _round_out(r, r if exact else r + 1, -s, prec)


_BERNOULLI = [Fraction(1)]  # B_0, B_2, B_4, ...; grown on first use


def _bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 0, exactly.

    From the recurrence sum_{k <= n} C(n+1, k) B_k = 0, in which every odd
    B_k vanishes except B_1 = -1/2.
    """
    while len(_BERNOULLI) <= n // 2:
        m = 2 * len(_BERNOULLI)
        acc = Fraction(-(m + 1), 2)
        for j, b in enumerate(_BERNOULLI):
            acc += math.comb(m + 1, 2 * j) * b
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n // 2]


@functools.lru_cache(maxsize=256)
def zeta_interval(p: Rational, prec: int) -> RatInterval:
    """Enclosure of zeta(p) for rational p > 1, about 2**-prec * zeta(p) wide.
    A process computes it once per (p, prec) and keeps it in a bounded
    cache, so a higher prec is a new, narrower sum.

    A head 1..n-1, then Euler-Maclaurin for f(x) = x**-p from n on:
    sum_{k >= n} f(k) = n**-p * (n/(p-1) + 1/2 + t_1 + ... + t_m + r),
    t_j = B_2j/(2j)! * (p)_(2j-1) * n**(1-2j) with (p)_k rising, so the t_j
    alternate in sign from t_1 > 0. f is completely monotone, so r lies
    between 0 and t_(m+1) for every m. The terms shrink to about
    exp(-2 pi n) before they grow again, which sets n; m stops at the first
    |t_j| below 2**-prec * n**e, where n**-p <= n**-e for e = min(floor(p),
    prec). The bracket is then met with the integral test's,
    sum_{k >= n} f(k) in n**-p * [1, 1 + n/(p-1)], which is the narrower
    for a large p: there n**-p is below 2**-w, and its enclosure's upper
    end, one unit, no longer shrinks a wide bracket. Every quantity is a
    pair of integers in units of 2**-w, the low end floored and the high
    end ceiled."""
    p = Fraction(p)
    if p <= 1:
        raise ValidationError("zeta_interval needs a power above 1")
    a, b = p.numerator, p.denominator
    w = prec + _GUARD
    one = 1 << w
    n = math.ceil(prec * math.log(2) / (2 * math.pi)) + 2
    power = [None, (one, one)]  # power[k] encloses k**-p
    for k in range(2, n + 1):
        if a * (k.bit_length() - 1) >= w * b:
            power.append((0, 1))  # k**p >= 2**w, and no such power is built
        elif b == 1:
            q, r = divmod(one, k ** a)
            power.append((q, q + (r > 0)))
        elif (d := next((f for f in range(2, math.isqrt(k) + 1) if k % f == 0), k)) < k:
            # a composite: the product of its factors' pairs
            (lo1, hi1), (lo2, hi2) = power[d], power[k // d]
            power.append((lo1 * lo2 >> w, -(-hi1 * hi2 >> w)))
        else:
            # -p ln k in units of 2**-w: floor, and a radius rounded up
            m, err, e = _ln_fixed(k, 1, w)
            shift = -w - e
            x, x_err = (-a * m >> shift) // b, (a * err >> shift) // b + 2
            lo, hi, e = _exp_fixed(x, x_err, w)
            shift = -w - e  # x < 0, so exp(x) has a scale below 2**-w
            power.append((lo >> shift, -(-hi >> shift)))
    # the bracket of n/(p-1) + 1/2 + t_1 + ... and |t_j|
    lo, hi = (n * b << w) // (a - b), -((-n * b << w) // (a - b))
    lo, hi = lo + (one >> 1), hi + (one >> 1)
    t_lo, t_hi = (a << w) // (12 * n * b), -((-a << w) // (12 * n * b))
    limit = n ** min(a // b, prec) << _GUARD
    j = 1
    while t_hi > limit:
        # |t_(j+1)| / |t_j| = |B_(2j+2) / B_2j| (p+2j-1)(p+2j) / ((2j+1)(2j+2) n**2)
        b0, b1 = _bernoulli(2 * j), _bernoulli(2 * j + 2)
        num = abs(b1.numerator) * b0.denominator * (a + (2 * j - 1) * b) * (a + 2 * j * b)
        den = abs(b0.numerator) * b1.denominator * (b * n) ** 2 * (2 * j + 1) * (2 * j + 2)
        next_lo, next_hi = t_lo * num // den, -(-t_hi * num // den)
        if next_hi >= t_hi:
            break  # the asymptotic series has stopped shrinking
        lo, hi = (lo + t_lo, hi + t_hi) if j % 2 else (lo - t_hi, hi - t_lo)
        t_lo, t_hi, j = next_lo, next_hi, j + 1
    lo, hi = (lo, hi + t_hi) if j % 2 else (lo - t_hi, hi)
    # meet with the integral test's [1, 1 + n/(p-1)]: the narrower for a
    # large p, where power[n] encloses n**-p no tighter than one unit
    lo, hi = max(lo, one), min(hi, one - ((-n * b << w) // (a - b)))
    # lo stays near 1/2 or above, as each negative term follows a larger
    # positive one, so the floored product below is of nonnegative ends
    n_lo, n_hi = power[n]
    lo = (lo * n_lo >> w) + sum(pair[0] for pair in power[1:n])
    hi = -(-hi * n_hi >> w) + sum(pair[1] for pair in power[1:n])
    return RatInterval(Fraction(lo, one), Fraction(hi, one))


def exact_pow(x: Rational, r: Fraction) -> Optional[Fraction]:
    """x**r as an exact Fraction for x >= 0, or None when it is irrational:
    x**(u/v) is rational exactly when both terms of x are v-th powers."""
    x = _frac(x)
    num = exact_root(x.numerator, r.denominator)
    den = exact_root(x.denominator, r.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** r.numerator


# ---------------------------------------------------------------------------
# exact integer roots and power indices


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by Newton iteration on integers."""
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_root(n: int, k: int) -> Optional[int]:
    """The integer k-th root of n >= 0, or None when n is not a k-th power."""
    r = iroot(n, k)
    return r if r ** k == n else None


def power_base(n: int) -> tuple[int, int]:
    """Write n >= 1 as base**exp with the smallest possible base; 1 is
    (1, 0), so that its exponent drops out of a gcd. Taking each prime
    p-th root as often as it exists, from p = 2 until one falls below 2,
    leaves the base. A root under 2**32 is the rounded float root, as
    log2(base) / p is off by a few ulps."""
    if n == 1:
        return 1, 0
    base, exp = n, 1
    composite = bytearray(n.bit_length())
    for p in range(2, len(composite)):
        if composite[p]:
            continue
        if p * p < len(composite):
            composite[p * p::p] = b"\1" * len(range(p * p, len(composite), p))
        while base >> p:  # base >= 2**p: its p-th root may reach 2
            root = (round(2 ** (math.log2(base) / p))
                    if base.bit_length() <= 32 * p else iroot(base, p))
            if root ** p != base:
                break
            base, exp = root, exp * p
        else:
            break
    return base, exp


def power_index(x: Rational, base: Rational) -> Optional[int]:
    """The integer z with x == base**z, or None; base > 0 and base != 1.

    For base u/v in lowest terms, base**z with z > 0 is the reduced
    fraction u**z / v**z. So the bit length of x's larger term gives z,
    and one exact check of each term confirms it."""
    x, base = Fraction(x), Fraction(base)
    num, den = x.numerator, x.denominator
    u, v = base.numerator, base.denominator
    if num <= 0:
        return None
    if num == den:
        return 0
    sign = 1
    if u > v:  # x == (1/base)**-z
        u, v, sign = v, u, -sign
    if num > den:  # 1/x == base**-z
        num, den, sign = den, num, -sign
    # now u < v and num < den, so z > 0 and the denominators carry it
    z = round(math.log(den) / math.log(v))
    if z >= 1 and den == v ** z and num == u ** z:
        return sign * z
    return None


def coprime_base(nums) -> list[int]:
    """A coprime base of nums >= 1 (D. J. Bernstein's term): pairwise
    coprime integers > 1 whose powers multiply to each of nums. Two
    members a, b with a common factor g split into g, a/g and b/g; each
    split lowers the product of all members, so the loop ends."""
    base, todo = set(), [n for n in nums if n > 1]
    while todo:
        n = todo.pop()
        if n in base:
            continue
        for b in base:
            g = math.gcd(b, n)
            if g > 1:
                base.remove(b)
                todo += [k for k in (g, b // g, n // g) if k > 1]
                break
        else:
            base.add(n)
    return sorted(base)


def _ln(num: int, den: int) -> tuple[float, int, float]:
    """ln(num/den) for num, den >= 1 as m * 2**k, with a bound on the
    relative error of m. Near 1 the log is t * (log1p(t) / t) for
    t = num/den - 1, and t keeps its binary exponent in k, so no value
    underflows. math.log and log1p are good to about one ulp, also on
    big integers; the bounds leave a factor of 8 to spare."""
    tn = num - den
    if 2 * abs(tn) <= den:
        k = tn.bit_length() - den.bit_length()
        m = (tn << -k) / den if k < 0 else tn / (den << k)
        t = math.ldexp(m, k)
        return (m * math.log1p(t) / t if t else m), k, 2.0 ** -47
    ln_num, ln_den = math.log(num), math.log(den)
    y = ln_num - ln_den
    return y, 0, (ln_num + ln_den + 2) * 2.0 ** -49 / abs(y)


def geo_steps(q: Fraction, r: Fraction, strict: bool = True) -> int:
    """The least n >= 0 with q**n < r, or with q**n <= r when strict is
    false, for Fractions 0 < q < 1 and r > 0. Raises TooLarge when that
    n exceeds _ITER_GUARD.

    Since ln q < 0, q**n < r exactly when n > rho = ln r / ln q. Float
    logarithms give rho with an error bound; only an n within that bound
    of rho is decided by exact integer comparison."""
    u, v = q.numerator, q.denominator
    rn, rd = r.numerator, r.denominator
    mq, kq, eq = _ln(u, v)
    mr, kr, er = _ln(rn, rd)
    # |mr / mq| lies within 2**40 of 1 for integers below 2**(2**30), so
    # past 2**80 the scale only has to keep rho far above _ITER_GUARD or
    # far below 1
    rho = mr / mq * 2.0 ** max(-80, min(80, kr - kq))
    err = abs(rho) * (eq + er + 2.0 ** -50) + 2.0 ** -40
    n = max(0, math.ceil(rho - err))
    while n <= rho + err and n <= _ITER_GUARD:
        lhs, rhs = u ** n * rd, v ** n * rn
        if lhs < rhs or (lhs == rhs and not strict):
            return n
        n += 1
    if n > _ITER_GUARD:
        raise TooLarge("geometric index search exceeded the iteration guard")
    return n


def parse_rational(text) -> Fraction:
    """Accept ints and 'p/q' / 'p' strings. Floats are rejected on purpose.
    The Fraction is built from its integer terms, with one gcd at most."""
    if isinstance(text, str):
        # digits and one slash only: no decimals, exponents or underscores,
        # so no short string can stand for a huge number
        match = _RATIONAL.fullmatch(text)
        if match is not None:
            p, q = match.groups()
            try:
                n, d = int(p), int(q) if q else 1
            except ValueError:
                pass  # more digits than int() takes
            else:
                if d == 1:  # an integer needs no gcd
                    return _q(n, 1)
                if d:  # else a zero denominator
                    g = _gcd(n, d)
                    return _q(n // g, d // g)
    elif isinstance(text, bool):
        raise ValidationError("booleans are not rationals")
    elif isinstance(text, int):
        return _q(int(text), 1)
    elif isinstance(text, _Base):
        return text
    elif isinstance(text, float):
        raise ValidationError(f"floats are not accepted, write a rational string: {text!r}")
    raise ValidationError(f"not a rational: {text!r}")


def render_rational(x: Fraction) -> str:
    """n or n/d: a Decimal prints every digit, where str() of an int
    refuses past the interpreter's digit limit."""
    x = Fraction(x)
    n, d = (str(decimal.Decimal(k)) for k in (x.numerator, x.denominator))
    return n if d == "1" else f"{n}/{d}"


def render_float(x: Fraction) -> str:
    """repr(float(x)). Where float() overflows or flushes a nonzero x to
    0.0, the same e-notation with 17 significant digits, the quotient of
    x's integers rounded half to even."""
    try:
        if (f := float(x)) or not x:
            return repr(f)
    except OverflowError:
        pass
    ctx = decimal.Context(prec=17, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(x.numerator, x.denominator):.16e}"
