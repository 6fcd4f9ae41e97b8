"""Dimension-measure pairs and their order, algebra and limit theory.

The value space is [0, 2] x [-inf, +inf] under the lexicographic order.
Addition takes the maximum of the first coordinates and sums the second
coordinates of the summands that attain it; the pair (0, 0) is the
identity. `top_sum` is that rule, written once: every such sum in the
package (of pairs, series, set atoms, integrand pieces) is a call to it.
It picks the summands through `top_terms` and adds only theirs, so a
measure below the top dimension is never evaluated or added and cannot
raise. Dimensions are kept symbolically (rational plus log-ratio terms)
so equality is decided by canonical form and comparisons fall back to
interval arithmetic with doubling precision.
"""

from __future__ import annotations

import functools
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from ._numeric import (Fraction, RatInterval, Rational, _frac, _trimmed,
                       log_interval, power_base, render_float,
                       render_rational, zeta_interval)
from ._value import frozen
from .config import get_config
from .errors import (DoesNotConverge, IncomparableDimensions, NotSupported,
                     UndefinedSum, ValidationError)

_START_PREC = 64
_POW_BIT_GUARD = 1 << 20  # largest big-int comparison we will attempt


# ---------------------------------------------------------------------------
# dimensions


@frozen
class Dimension:
    """Value rat + sum(coef * log(P)/log(Q)) in canonical form.

    Keys (P, Q) use minimal bases (neither P nor Q is a perfect power,
    P != Q), so identities like log(4)/log(9) = log(2)/log(3) hold
    syntactically. Coefficients are nonzero rationals.
    """

    rat: Fraction = Fraction(0)
    logs: tuple[tuple[tuple[int, int], Fraction], ...] = ()

    def __init__(self, rat: Fraction = rat, logs: tuple = logs):
        # pair algebra builds many: no generic constructor, and the
        # defaults are the class attributes above
        fields = self.__dict__
        fields["rat"], fields["logs"] = rat, logs

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x: Rational) -> "Dimension":
        x = _frac(x)
        if not 0 <= x <= 2:
            raise ValidationError(f"dimension {x} outside [0, 2]")
        return Dimension(rat=x)

    @staticmethod
    def log_ratio(p: int, q: int) -> "Dimension":
        """The number log(p)/log(q) for integers p, q >= 2, p < q."""
        if not (isinstance(p, int) and isinstance(q, int)):
            raise ValidationError("log_ratio arguments must be integers")
        if p < 2 or q < 2:
            raise ValidationError("log_ratio arguments must be at least 2")
        base_p, u = power_base(p)
        base_q, v = power_base(q)
        if base_p == base_q:
            return Dimension.rational(Fraction(u, v))
        if p >= q:
            raise ValidationError(
                f"log({p})/log({q}) is not in (0, 1); the pair must satisfy p < q")
        return Dimension(logs=(((base_p, base_q), Fraction(u, v)),))

    # -- helpers -------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.logs

    def as_fraction(self) -> Fraction:
        if self.logs:
            raise NotSupported(f"{self.render()} is irrational")
        return self.rat

    def __sub__(self, other: "Dimension") -> "Dimension":
        terms = dict(self.logs)
        for key, coef in other.logs:
            acc = terms.get(key, Fraction(0)) - coef
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return Dimension(rat=self.rat - other.rat,
                         logs=tuple(sorted(terms.items())))

    def scale(self, c: Rational) -> "Dimension":
        return Dimension(rat=self.rat * c,
                         logs=tuple((k, v * c) for k, v in self.logs))

    def enclosure(self, prec: Optional[int] = None) -> RatInterval:
        prec = prec or get_config().precision_bits
        return _dim_enclosure(self, prec)

    # -- comparison ----------------------------------------------------

    def cmp(self, other: "Dimension") -> int:
        if self.logs == other.logs:
            return (self.rat > other.rat) - (self.rat < other.rat)
        if len(self.logs) + len(other.logs) == 1:
            # a rational against one log term: their difference is that term
            (key, coef), = self.logs or other.logs
            sign = _sign_single_log(self.rat - other.rat, key,
                                    coef if self.logs else -coef)
            if sign is not None:
                return sign
        return _diff_sign(self - other, self, other)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self.logs:
            return render_rational(self.rat)
        parts = []
        if self.rat:
            parts.append(render_rational(self.rat))
        for (base_p, base_q), coef in self.logs:
            parts.append(_render_log_term(base_p, base_q, coef))
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Dimension({self.render()})"


def _render_log_term(base_p: int, base_q: int, coef: Fraction) -> str:
    sign = "-" if coef < 0 else ""
    coef = abs(coef)
    p = base_p ** coef.numerator
    q = base_q ** coef.denominator
    return f"{sign}log({p})/log({q})"


def _sign_single_log(rat: Fraction, key: tuple[int, int], coef: Fraction):
    """Exact sign of rat + coef*log(P)/log(Q) via integer power comparison."""
    base_p, base_q = key
    # compare coef*log(P)/log(Q) with -rat, i.e. log(P)/log(Q) with -rat/coef
    target = -rat / coef
    if target <= 0:
        value_sign = 1  # log(P)/log(Q) > 0 >= target
    else:
        a, b = target.numerator, target.denominator
        if (b * base_p.bit_length() > _POW_BIT_GUARD
                or a * base_q.bit_length() > _POW_BIT_GUARD):
            return None
        lhs, rhs = base_p ** b, base_q ** a
        value_sign = (lhs > rhs) - (lhs < rhs)
    return value_sign if coef > 0 else -value_sign


def _diff_sign(diff: Dimension, a: Dimension, b: Dimension) -> int:
    """The sign of diff = a - b, which has log terms: exact for one term,
    else by interval separation with doubling precision."""
    if len(diff.logs) == 1:
        sign = _sign_single_log(diff.rat, *diff.logs[0])
        if sign is not None:
            return sign
    prec = _START_PREC
    cap = get_config().precision_bits
    while True:
        sign = _dim_enclosure(diff, prec).sign()
        if sign is not None:
            return sign
        if prec >= cap:
            raise IncomparableDimensions(
                f"cannot separate {a.render()} and {b.render()} "
                f"within {cap} bits")
        prec = min(2 * prec, cap)


@functools.lru_cache(maxsize=4096)
def _dim_enclosure(dim: Dimension, prec: int) -> RatInterval:
    acc = RatInterval.point(dim.rat)
    for (base_p, base_q), coef in dim.logs:
        lp = log_interval(base_p, prec)
        lq = log_interval(base_q, prec)
        # both logs are positive, so the quotient bounds are monotone
        quotient = RatInterval(lp.lo / lq.hi, lp.hi / lq.lo)
        acc = acc + quotient * coef
    return acc


DIM_ZERO = Dimension()
DIM_ONE = Dimension(rat=Fraction(1))
DIM_TWO = Dimension(rat=Fraction(2))
DIM_CANTOR = Dimension.log_ratio(2, 3)


# ---------------------------------------------------------------------------
# extended reals


_NEG, _FIN, _IVL, _POS = "-inf", "finite", "interval", "+inf"
_RANK = {_NEG: 0, _FIN: 1, _IVL: 1, _POS: 2}  # ExtReal.cmp's coarse order


@frozen
class ExtReal:
    """A point of [-inf, +inf]: exact rational, certified enclosure, or
    one of the two infinities."""

    kind: str
    value: Union[Fraction, RatInterval, None] = None

    def __init__(self, kind: str, value=None):
        fields = self.__dict__
        fields["kind"], fields["value"] = kind, value

    @staticmethod
    def of(x: Rational) -> "ExtReal":
        return ExtReal(_FIN, _frac(x))

    @staticmethod
    def interval(enc: RatInterval) -> "ExtReal":
        if enc.is_point():
            return ExtReal(_FIN, enc.lo)
        return ExtReal(_IVL, enc)

    def is_finite(self) -> bool:
        return self.kind in (_FIN, _IVL)

    def is_exact(self) -> bool:
        return self.kind == _FIN

    def as_fraction(self) -> Fraction:
        if self.kind != _FIN:
            raise NotSupported(f"{self.render()} has no exact rational value")
        return self.value

    def enclosure(self) -> RatInterval:
        if self.kind == _FIN:
            return RatInterval.point(self.value)
        if self.kind == _IVL:
            return self.value
        raise NotSupported("infinite value has no finite enclosure")

    def __add__(self, other: "ExtReal") -> "ExtReal":
        a, b = self, other
        if _POS in (a.kind, b.kind) and _NEG in (a.kind, b.kind):
            raise UndefinedSum("(+inf) + (-inf) is undefined")
        if a.kind == _POS or b.kind == _POS:
            return POS_INF
        if a.kind == _NEG or b.kind == _NEG:
            return NEG_INF
        if a.kind == _FIN and b.kind == _FIN:
            return ExtReal(_FIN, a.value + b.value)
        return ExtReal.interval(a.enclosure() + b.enclosure())

    def __neg__(self) -> "ExtReal":
        if self.kind == _POS:
            return NEG_INF
        if self.kind == _NEG:
            return POS_INF
        if self.kind == _FIN:
            return ExtReal(_FIN, -self.value)
        return ExtReal(_IVL, -self.value)

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        return self + (-other)

    def scale(self, c: Rational) -> "ExtReal":
        c = _frac(c)
        if self.kind in (_POS, _NEG):
            if c == 0:
                raise ValidationError("0 * inf is undefined here")
            flip = (self.kind == _POS) == (c > 0)
            return POS_INF if flip else NEG_INF
        if self.kind == _FIN:
            return ExtReal(_FIN, self.value * c)
        return ExtReal.interval(self.value * c)

    def __abs__(self) -> "ExtReal":
        if self.kind in (_POS, _NEG):
            return POS_INF
        if self.kind == _FIN:
            return ExtReal(_FIN, abs(self.value))
        return ExtReal.interval(abs(self.value))

    def cmp(self, other: "ExtReal") -> int:
        """Trichotomy; overlapping enclosures compare as equal."""
        if self.kind == other.kind == _FIN:
            return (self.value > other.value) - (self.value < other.value)
        ra, rb = _RANK[self.kind], _RANK[other.kind]
        if ra != rb:
            return (ra > rb) - (ra < rb)
        if ra != 1:
            return 0
        ia, ib = self.enclosure(), other.enclosure()
        if ia.hi < ib.lo:
            return -1
        if ia.lo > ib.hi:
            return 1
        return 0

    def sign(self) -> int:
        if self.kind == _POS:
            return 1
        if self.kind == _NEG:
            return -1
        if self.kind == _FIN:
            n = self.value.numerator
            return (n > 0) - (n < 0)
        enc = self.enclosure()
        s = enc.sign()
        return 0 if s is None else s

    def render(self) -> str:
        if self.kind == _POS:
            return "inf"
        if self.kind == _NEG:
            return "-inf"
        if self.kind == _FIN:
            return render_rational(self.value)
        return render_float(self.value.mid)

    def __repr__(self):
        return f"ExtReal({self.render()})"


POS_INF = ExtReal(_POS)
NEG_INF = ExtReal(_NEG)
EXT_ZERO = ExtReal.of(0)


def ext_sum(values: Iterable[ExtReal]) -> ExtReal:
    return functools.reduce(ExtReal.__add__, values, EXT_ZERO)


# ---------------------------------------------------------------------------
# pairs


@frozen
class HPair:
    """A dimension-measure pair, ordered lexicographically."""

    d: Dimension
    m: ExtReal

    def __init__(self, d: Dimension, m: ExtReal):
        fields = self.__dict__
        fields["d"], fields["m"] = d, m

    @staticmethod
    def of(d, m) -> "HPair":
        if not isinstance(d, Dimension):
            d = Dimension.rational(d)
        if not isinstance(m, ExtReal):
            m = ExtReal.of(m)
        return HPair(d, m)

    def cmp(self, other: "HPair") -> int:
        c = self.d.cmp(other.d)
        if c:
            return c
        return self.m.cmp(other.m)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def render(self) -> str:
        return f"({self.d.render()}, {self.m.render()})"

    def __repr__(self):
        return f"HPair{self.render()}"


ZERO_PAIR = HPair(DIM_ZERO, EXT_ZERO)


def hpair_eq(a: HPair, b: HPair) -> bool:
    return a.cmp(b) == 0


def hpair_add(a: HPair, b: HPair) -> HPair:
    c = a.d.cmp(b.d)
    if c > 0:
        return a
    if c < 0:
        return b
    return HPair(a.d, a.m + b.m)


_T = TypeVar("_T")


def top_terms(items: Iterable[_T], dim: Callable[[_T], Dimension]
              ) -> tuple[Optional[Dimension], list[_T]]:
    """The max-dimension rule: the largest dimension among the items and
    the items of that dimension in input order, or (None, []) for no
    items. One pass and one comparison per item after the first: a larger
    dimension restarts the kept list, a tie joins it. Callers sum the
    measures of the kept items only, so nothing below the top is ever
    evaluated."""
    top, kept = None, []
    for item in items:
        d = dim(item)
        c = -1 if top is None else top.cmp(d)
        if c < 0:
            top, kept = d, [item]
        elif c == 0:
            kept.append(item)
    return top, kept


def top_sum(items: Iterable[_T], dim: Callable[[_T], Dimension],
            mass: Callable[[_T], ExtReal]) -> HPair:
    """The max-dimension sum: the top dimension of the items, with the
    measures of the items that attain it summed; (0, 0) for no items."""
    top, kept = top_terms(items, dim)
    if top is None:
        return ZERO_PAIR
    return HPair(top, ext_sum(map(mass, kept)))


def hpair_sum(items: Iterable[HPair]) -> HPair:
    """Sum with the max-dimension rule; the empty sum is (0, 0)."""
    return top_sum(items, attrgetter("d"), attrgetter("m"))


def hpair_inf(items: Sequence[HPair]) -> HPair:
    # the empty infimum is the top of the lattice [0, 1] x [0, inf]
    return min(items, default=HPair(DIM_ONE, POS_INF))


def hpair_sup(items: Sequence[HPair]) -> HPair:
    return max(items, default=ZERO_PAIR)


# ---------------------------------------------------------------------------
# coefficient series


class CoefficientSeries:
    """A summable description of countably many rational coefficients.

    Subclasses provide term(i), abs_converges(), sum(), scale(c),
    abs_series() and sign(): 1 if every term >= 0, -1 if every term <= 0,
    0 if all zero, None when signs are mixed."""

    def partial_sum(self, n: int) -> Fraction:
        return sum((self.term(i) for i in range(n)), Fraction(0))


@frozen
class FiniteList(CoefficientSeries):
    """Finitely many terms, zero after the last. Trailing zeros are
    dropped, so equal series have one spelling."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[Rational]):
        self.__dict__["values"] = _trimmed(values)

    def term(self, i: int) -> Fraction:
        return self.values[i] if 0 <= i < len(self.values) else Fraction(0)

    def abs_converges(self) -> bool:
        return True

    def sum(self) -> ExtReal:
        return ExtReal.of(sum(self.values, Fraction(0)))

    def scale(self, c):
        c = _frac(c)
        return FiniteList(v * c for v in self.values)

    def abs_series(self):
        return FiniteList(abs(v) for v in self.values)

    def sign(self):
        if all(v == 0 for v in self.values):
            return 0
        if all(v >= 0 for v in self.values):
            return 1
        if all(v <= 0 for v in self.values):
            return -1
        return None


@frozen
class Geometric(CoefficientSeries):
    """Terms a * r**i for i = 0, 1, 2, ... with |r| < 1."""

    a: Fraction
    r: Fraction

    def __init__(self, a: Rational, r: Rational):
        a, r = _frac(a), _frac(r)
        if not abs(r) < 1:
            raise ValidationError(f"geometric ratio must satisfy |r| < 1, got {r}")
        fields = self.__dict__
        fields["a"], fields["r"] = a, r

    def term(self, i: int) -> Fraction:
        return self.a * self.r ** i

    def abs_converges(self) -> bool:
        return True

    def sum(self) -> ExtReal:
        return ExtReal.of(self.a / (1 - self.r))

    def partial_sum(self, n: int) -> Fraction:
        return self.a * (1 - self.r ** n) / (1 - self.r)

    def scale(self, c):
        return Geometric(self.a * _frac(c), self.r)

    def abs_series(self):
        return Geometric(abs(self.a), abs(self.r))

    def sign(self):
        if self.a == 0:
            return 0
        if self.r >= 0:
            return 1 if self.a > 0 else -1
        return None

    def remainders(self) -> "Geometric":
        """The series whose i-th term sums the terms after index i."""
        return Geometric(self.a * self.r / (1 - self.r), self.r)


@frozen
class PSeries(CoefficientSeries):
    """Terms c / (i+1)**p for i = 0, 1, 2, ... with rational p > 0.

    Summable exactly when p > 1; for p <= 1 the sum is a signed infinity,
    which lets the same catalog describe vanishing but non-summable
    measure sequences such as -1/n.

    The sum c * zeta(p) is c times `zeta_interval`: Euler-Maclaurin
    summation with a rigorous remainder bracket, on integers in units of
    2**-(precision_bits + 64). A head term is one integer division for
    integer p, and for fractional p one fixed-point exp per prime (a
    composite is the product of its factors); a power k**-p below one unit
    is enclosed by [0, 1 unit]. The enclosure is about 2**-precision_bits *
    max(1, |c * zeta(p)|) wide, so a larger `precision_bits` tightens it.
    """

    c: Fraction
    p: Fraction

    def __init__(self, c: Rational, p: Rational):
        c, p = _frac(c), _frac(p)
        if p <= 0:
            raise ValidationError(f"power must be positive, got {p}")
        fields = self.__dict__
        fields["c"], fields["p"] = c, p

    def term(self, i: int) -> Fraction:
        if self.p.denominator != 1:
            raise NotSupported("terms of a fractional-power series are irrational")
        return self.c / Fraction(i + 1) ** self.p

    def abs_converges(self) -> bool:
        return self.c == 0 or self.p > 1

    def sum(self) -> ExtReal:
        """c times the cached `zeta_interval(p, precision_bits)`: zeta(p) is
        summed once per p and precision, and a higher precision sums again."""
        if self.c == 0:
            return EXT_ZERO
        if self.p <= 1:
            return POS_INF if self.c > 0 else NEG_INF
        return ExtReal.interval(zeta_interval(self.p, get_config().precision_bits) * self.c)

    def scale(self, k):
        return PSeries(self.c * _frac(k), self.p)

    def abs_series(self):
        return PSeries(abs(self.c), self.p)

    def sign(self):
        if self.c == 0:
            return 0
        return 1 if self.c > 0 else -1


def series_add(a: CoefficientSeries, b: CoefficientSeries):
    """Termwise sum when it stays in the catalog, else None."""
    if isinstance(a, FiniteList) and isinstance(b, FiniteList):
        n = max(len(a.values), len(b.values))
        return FiniteList(a.term(i) + b.term(i) for i in range(n))
    if isinstance(a, Geometric) and isinstance(b, Geometric) and a.r == b.r:
        return Geometric(a.a + b.a, a.r)
    if isinstance(a, PSeries) and isinstance(b, PSeries) and a.p == b.p:
        return PSeries(a.c + b.c, a.p)
    return None


# ---------------------------------------------------------------------------
# sequences


class SeqTail:
    """Rule for the terms of a sequence after its explicit prefix.
    Index k counts from 0 at the first tail position. Subclasses provide
    term(k), liminf() and limsup()."""


@frozen
class ConstantTail(SeqTail):
    value: HPair

    def term(self, k):
        return self.value

    def liminf(self):
        return self.value

    limsup = liminf


@frozen
class MeasureTail(SeqTail):
    """Terms (d, base + coeffs[k]); the coefficients vanish, so the tail
    converges to (d, base)."""

    d: Dimension
    coeffs: CoefficientSeries
    base: ExtReal = EXT_ZERO

    def term(self, k):
        return HPair(self.d, self.base + ExtReal.of(self.coeffs.term(k)))

    def liminf(self):
        return HPair(self.d, self.base)

    limsup = liminf


@frozen
class ClimbTail(SeqTail):
    """Terms (d_k, m_k) with d_k strictly below the limit dimension and
    d_k -> limit. Any bounded measure rule is allowed; the order-topology
    limit is (limit, 0) regardless."""

    limit_dim: Dimension
    measures: Optional[CoefficientSeries] = None

    def __post_init__(self):
        if self.limit_dim.cmp(DIM_ZERO) <= 0:
            raise ValidationError("a climb needs a positive limit dimension")

    def term(self, k):
        d = self.limit_dim.scale(1 - Fraction(1, 2 ** (k + 1)))
        m = self.measures.term(k) if self.measures is not None else Fraction(0)
        return HPair(d, ExtReal.of(m))

    def liminf(self):
        return HPair(self.limit_dim, EXT_ZERO)

    limsup = liminf


@frozen
class GrowthTail(SeqTail):
    """Terms (d, slope * (k+1)): measures drift monotonically to a signed
    infinity."""

    d: Dimension
    slope: Fraction

    def __post_init__(self):
        if self.slope == 0:
            raise ValidationError("growth slope must be nonzero")

    def term(self, k):
        return HPair(self.d, ExtReal.of(self.slope * (k + 1)))

    def liminf(self):
        return HPair(self.d, POS_INF if self.slope > 0 else NEG_INF)

    limsup = liminf


@frozen
class InterleaveTail(SeqTail):
    """Round-robin interleaving of component tails."""

    tails: tuple[SeqTail, ...]

    def __post_init__(self):
        if len(self.tails) < 2:
            raise ValidationError("interleave needs at least two rules")

    def term(self, k):
        n = len(self.tails)
        return self.tails[k % n].term(k // n)

    def liminf(self):
        return hpair_inf([t.liminf() for t in self.tails])

    def limsup(self):
        return hpair_sup([t.limsup() for t in self.tails])


@frozen
class HSeq:
    """A sequence of pairs: explicit prefix followed by a tail rule."""

    prefix: tuple[HPair, ...] = ()
    tail: SeqTail = ConstantTail(ZERO_PAIR)

    def term(self, n: int) -> HPair:
        """1-based term access."""
        if n < 1:
            raise ValidationError("sequence indices start at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail.term(n - len(self.prefix) - 1)


def hseq_liminf(seq: HSeq) -> HPair:
    return seq.tail.liminf()


def hseq_limit(seq: HSeq) -> HPair:
    lo, hi = seq.tail.liminf(), seq.tail.limsup()
    if not hpair_eq(lo, hi):
        raise DoesNotConverge(
            f"liminf {lo.render()} differs from limsup {hi.render()}")
    return lo


# ---------------------------------------------------------------------------
# series of pairs


def hpair_series(dims: Sequence[Dimension],
                 coeffs: Sequence[CoefficientSeries]) -> HPair:
    """Sum of the pair series with terms (dims[i], coeffs[i][k]).

    The value is (sup of dims, sum of the coefficient series attached to
    that top dimension): terms of lower dimension are absorbed. Requires
    absolute convergence or nonnegativity so the sum is order independent.
    """
    if len(dims) != len(coeffs):
        raise ValidationError("dims and coefficient series must pair up")
    if not dims:
        return ZERO_PAIR
    for i, a in enumerate(dims):
        for b in dims[i + 1:]:
            if a.cmp(b) == 0:
                raise ValidationError("dimensions must be distinct")
    ok = (all(s.abs_converges() for s in coeffs)
          or all(s.sign() is not None and s.sign() >= 0 for s in coeffs))
    if not ok:
        raise DoesNotConverge(
            "series must be absolutely convergent or have nonnegative terms")
    return top_sum(zip(dims, coeffs), itemgetter(0), lambda t: t[1].sum())
