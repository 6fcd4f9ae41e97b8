"""Exact rational plumbing: interval arithmetic with Fraction endpoints and
outward-rounded transcendental evaluations borrowed from mpmath.

Everything downstream treats a RatInterval as a certificate: the true real
value lies inside [lo, hi]. Endpoints are exact Fractions, so interval
combinations never lose containment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from contextlib import contextmanager

from mpmath import iv
from mpmath.libmp import to_rational

from .errors import ValidationError

Rational = Union[int, Fraction]

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
    if x == 0:
        return Fraction(0)
    rn = _isqrt_exact(x.numerator)
    rd = _isqrt_exact(x.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    import math
    r = math.isqrt(n)
    return r if r * r == n else None


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
