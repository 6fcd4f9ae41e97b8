"""Exact rational plumbing: interval arithmetic with Fraction endpoints,
outward-rounded transcendental evaluations borrowed from mpmath, and exact
integer roots and power indices.

Everything downstream treats a RatInterval as a certificate: the true real
value lies inside [lo, hi]. Endpoints are exact Fractions, so interval
combinations never lose containment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from contextlib import contextmanager

from mpmath import iv
from mpmath.libmp import to_rational

from .errors import TooLarge, ValidationError

Rational = Union[int, Fraction]

# the most steps of an index search, indices listed from one sequence,
# normalize pops or ternary digits: past it they raise TooLarge
_ITER_GUARD = 100_000

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@contextmanager
def _iv_prec(prec: int):
    saved = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = saved


def _mpf_tuple_to_fraction(t) -> Fraction:
    p, q = to_rational(t)
    return Fraction(int(p), int(q))


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(x: Rational) -> "RatInterval":
        x = Fraction(x)
        return RatInterval(x, x)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

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

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        products = [self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def sign(self):
        """-1, 0 or 1 when decided; None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def _to_iv(x: Rational, prec: int):
    x = Fraction(x)
    with _iv_prec(prec):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _from_iv(value) -> RatInterval:
    a, b = value._mpi_
    return RatInterval(_mpf_tuple_to_fraction(a), _mpf_tuple_to_fraction(b))


def log_interval(x: Rational, prec: int) -> RatInterval:
    """Enclosure of ln(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValidationError("log_interval needs a positive argument")
    with _iv_prec(prec):
        return _from_iv(iv.log(_to_iv(x, prec)))


def pow_interval(base: Rational, exponent: RatInterval, prec: int) -> RatInterval:
    """Enclosure of base**e for rational base > 0 and e inside exponent."""
    base = Fraction(base)
    if base <= 0:
        raise ValidationError("pow_interval needs a positive base")
    if base == 1:
        return RatInterval.point(1)
    with _iv_prec(prec):
        log_base = iv.log(_to_iv(base, prec))
        low = _from_iv(iv.exp(_to_iv(exponent.lo, prec) * log_base))
        if exponent.is_point():
            return low
        # base**e is monotone in e, so the endpoint images bracket the range
        high = _from_iv(iv.exp(_to_iv(exponent.hi, prec) * log_base))
        return RatInterval(min(low.lo, high.lo), max(low.hi, high.hi))


def sqrt_interval(x: Rational, prec: int) -> RatInterval:
    """Enclosure of sqrt(x) for rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValidationError("sqrt_interval needs a nonnegative argument")
    if x == 0:
        return RatInterval.point(0)
    with _iv_prec(prec):
        return _from_iv(iv.sqrt(_to_iv(x, prec)))


def exact_sqrt(x: Rational):
    """Fraction square root when x is a perfect square of rationals, else None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = exact_root(x.numerator, 2)
    rd = exact_root(x.denominator, 2)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


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
    (1, 0), so that its exponent drops out of a gcd."""
    if n == 1:
        return 1, 0
    for k in range(n.bit_length(), 1, -1):
        root = iroot(n, k)
        if root >= 2 and root ** k == n:
            return root, k
    return n, 1


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
    """Accept ints and 'p/q' / 'p' strings. Floats are rejected on purpose."""
    if isinstance(text, bool):
        raise ValidationError("booleans are not rationals")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, float):
        raise ValidationError(f"floats are not accepted, write a rational string: {text!r}")
    if isinstance(text, str):
        # digits and one slash only: no decimals, exponents or underscores,
        # so no short string can stand for a huge number
        match = _RATIONAL.fullmatch(text.strip())
        if match is not None:
            try:
                return Fraction(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or more digits than int() takes
    raise ValidationError(f"not a rational: {text!r}")


def render_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
