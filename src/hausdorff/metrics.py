"""Distances between pairs, sets and functions, and the induced
convergence notions.

Each distance is a pair whose measure coordinate is nonnegative. The
triangle axiom compares against the coordinatewise sum of two distances
(dimension gaps add as reals, so a sum may leave [0, 2]; such values
exist only inside comparisons). Completeness is checked on generators
that present their terms and exact error masses, not for arbitrary
Cauchy sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ._numeric import _ITER_GUARD, Fraction, Rational
from .errors import DoesNotConverge, NotInLH, TooLarge, ValidationError
from .hintegral import (FunctionSeq, PiecewiseFunction, SeriesValues,
                        _certified_nonneg, _signed_part, abs_integral, add,
                        h_integral, indicator, scalar_mul)
from .hvalue import (DIM_ZERO, EXT_ZERO, ZERO_PAIR, ConstantTail, ExtReal,
                     HPair, HSeq, InterleaveTail, hpair_eq, top_terms)
from .setalg import (CountableSeq, FinitePoints, Interval, RepSet, hmeasure,
                     symdiff)


@dataclass(frozen=True)
class HDistance:
    """A distance value: a pair with nonnegative measure coordinate.

    For the true metrics below, (0, 0) means the two arguments agree;
    the projection onto the first coordinate alone is a pseudo-metric.
    """

    value: HPair

    def __init__(self, value: HPair):
        if value.m.sign() < 0:
            raise ValidationError(
                f"a distance cannot be negative: {value.render()}")
        object.__setattr__(self, "value", value)

    def is_zero(self) -> bool:
        return hpair_eq(self.value, ZERO_PAIR)

    def plus(self, other: "HDistance") -> "HDistance":
        """Coordinatewise sum, the addition the metric axioms use."""
        d = self.value.d - other.value.d.scale(-1)
        return HDistance(HPair(d, self.value.m + other.value.m))

    def render(self) -> str:
        return self.value.render()


def triangle_ok(ac: HDistance, ab: HDistance, bc: HDistance) -> bool:
    """Whether ac <= ab + bc in the lexicographic order."""
    return ac.value <= ab.plus(bc).value


# ---------------------------------------------------------------------------
# the three metrics


def dH_pairs(a: HPair, b: HPair) -> HDistance:
    """The dimension gap when the dimensions differ, the measure gap at
    dimension zero when they coincide. Wants nonnegative measures."""
    if a.m.sign() < 0 or b.m.sign() < 0:
        raise ValidationError("dH_pairs compares pairs with m >= 0")
    c = a.d.cmp(b.d)
    if c:
        gap = a.d - b.d
        return HDistance(HPair(gap if c > 0 else gap.scale(-1), EXT_ZERO))
    if a.m.cmp(b.m) == 0:
        return HDistance(ZERO_PAIR)
    return HDistance(HPair(DIM_ZERO, abs(a.m - b.m)))


def d_s(a: RepSet, b: RepSet) -> HDistance:
    """The measure of the symmetric difference."""
    return HDistance(hmeasure(symdiff(a, b)))


def absolutely_integrable(f: PiecewiseFunction) -> bool:
    """Whether the integral of |f| is finite, read off the sign split of
    f without integrating: it is infinite exactly when a piece of the top
    dimension carries infinite mass. It refuses exactly where
    abs_integral does, with the same error."""
    _, kept = top_terms(_signed_part(f), lambda t: t[0].dim())
    return not any(_infinite_mass(a, e) for a, e, _ in kept)


def _infinite_mass(atom, expr) -> bool:
    """Whether a nonzero term of constant sign has an infinite integral
    at the dimension of its atom: a polynomial or a constant on an
    unbounded interval, a constant on a sequence, or p-series values
    with p <= 1. No series is summed."""
    if isinstance(expr, SeriesValues):
        return not expr.series.abs_converges()
    if isinstance(atom, Interval):
        return not atom.is_bounded()
    return isinstance(atom, CountableSeq)


def d_H(f: PiecewiseFunction, g: PiecewiseFunction) -> HDistance:
    """The integral of |f - g|. Both arguments must be absolutely
    integrable; the difference must stay in the catalog. Only the terms
    that differ are subtracted (see _distance): a term both share is
    zero in f - g, so it cannot change the integral, nor refuse."""
    _require_lh(f, "left")
    _require_lh(g, "right")
    return _distance(f, g)


def _require_lh(f: PiecewiseFunction, name: str) -> None:
    if not absolutely_integrable(f):
        raise NotInLH(f"the {name} argument has an infinite |f| integral")


def _distance(f: PiecewiseFunction, g: PiecewiseFunction) -> HDistance:
    """d_H for arguments already checked to be absolutely integrable.

    The (atom, expression) terms that f and g share are dropped before
    the subtraction. The terms of each function are pairwise disjoint, so
    a shared atom meets no other term of either side, and there f - g is
    exactly 0: the difference keeps no term there anyway, and no other
    point changes. The trimmed functions are built and checked again."""
    shared = set(f.terms) & set(g.terms)
    if shared:
        f = PiecewiseFunction([t for t in f.terms if t not in shared])
        g = PiecewiseFunction([t for t in g.terms if t not in shared])
    return HDistance(abs_integral(add(f, scalar_mul(-1, g))))


# ---------------------------------------------------------------------------
# sequences with decidable distances

DEFAULT_SCHEDULE = tuple(Fraction(1, 10 ** k) for k in range(7))


def _least(pred: Callable[[int], bool]) -> int:
    """The least n >= 1 with pred(n), for a pred that is false up to some
    index and true from there on: gallop, then bisect. Raises TooLarge
    when that n exceeds _ITER_GUARD."""
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= _ITER_GUARD:
            raise TooLarge("perturbation index past the iteration guard")
        lo, hi = hi, min(2 * hi, _ITER_GUARD)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


class PerturbationSeq(FunctionSeq):
    """Base + coeff * ratio^n on a finite point set; subclasses provide
    _points(n), that set, and _mass(n), the exact perturbation mass. The
    masses rise strictly up to a peak and never after, so tail_mass is
    nonincreasing and each index is one galloping search (see _least)."""

    def _set_fields(self, base, coeff, ratio, **where):
        """Check and store base, coeff, ratio and the fields in where."""
        coeff, ratio = Fraction(coeff), Fraction(ratio)
        if coeff == 0:
            raise ValidationError("the perturbation coefficient is zero")
        if not 0 < ratio < 1:
            raise ValidationError("need 0 < ratio < 1")
        if not absolutely_integrable(base):
            raise NotInLH("the base function has an infinite |f| integral")
        for name, v in dict(where, base=base, coeff=coeff,
                            ratio=ratio).items():
            object.__setattr__(self, name, v)

    def term(self, n):
        bump = indicator(RepSet.of(FinitePoints(self._points(n))),
                         self.coeff * self.ratio ** n)
        return add(self.base, bump)

    def limit(self):
        return self.base

    def _peak(self) -> int:
        """The first index whose successor's mass does not exceed it."""
        return _least(lambda k: self._mass(k + 1) <= self._mass(k))

    def tail_mass(self, n: int) -> Fraction:
        """max of _mass on [n, inf)."""
        return self._mass(max(n, self._peak()))

    def limit_index(self, eps):
        eps, peak = Fraction(eps), self._peak()
        return _least(lambda n: self._mass(max(n, peak)) < eps)


@dataclass(frozen=True)
class PointPerturbation(PerturbationSeq):
    """x_n = base + coeff * ratio^n at one point."""

    base: PiecewiseFunction
    site: Fraction
    coeff: Fraction
    ratio: Fraction

    def __init__(self, base, site, coeff=1, ratio=Fraction(1, 2)):
        self._set_fields(base, coeff, ratio, site=Fraction(site))

    def _points(self, n):
        return [self.site]

    def _mass(self, n):
        return abs(self.coeff) * self.ratio ** n


@dataclass(frozen=True)
class PrefixPerturbation(PerturbationSeq):
    """x_n = base + coeff * ratio^n on the first n points of a sequence
    atom; the added mass n |coeff| ratio^n is summable and dies out."""

    base: PiecewiseFunction
    atom: CountableSeq
    coeff: Fraction
    ratio: Fraction

    def __init__(self, base, atom, coeff=1, ratio=Fraction(1, 2)):
        if atom.deletions:
            raise ValidationError("prefix perturbation wants a full sequence")
        self._set_fields(base, coeff, ratio, atom=atom)

    def _points(self, n):
        return [self.atom.point(i) for i in range(1, n + 1)]

    def _mass(self, n):
        return n * abs(self.coeff) * self.ratio ** n


@dataclass(frozen=True)
class Alternating(FunctionSeq):
    """Terms alternating between two functions; no limit unless they
    coincide."""

    first: PiecewiseFunction
    second: PiecewiseFunction

    def term(self, n):
        return self.first if n % 2 == 1 else self.second

    def integral_seq(self):
        return HSeq((), InterleaveTail((
            ConstantTail(h_integral(self.first)),
            ConstantTail(h_integral(self.second)))))

    def _settles(self) -> bool:
        # equal functions may be spelled with different pieces
        return add(self.first, scalar_mul(-1, self.second)).is_zero()

    def limit(self):
        if self._settles():
            return self.first
        raise DoesNotConverge("the terms alternate without settling")

    def limit_index(self, eps):
        self.limit()
        return 1

    def cauchy_index(self, eps):
        bound = HPair(DIM_ZERO, ExtReal.of(Fraction(eps)))
        return 1 if d_H(self.first, self.second).value < bound else None

    def nonneg(self):
        return _certified_nonneg(self.first, self.second)

    def nondecreasing(self):
        return self._settles()


def _check_schedule(schedule) -> list[Fraction]:
    out = []
    for eps in schedule:
        eps = Fraction(eps)
        if eps <= 0:
            raise ValidationError("tolerances must be positive")
        out.append(eps)
    if not out:
        raise ValidationError("the tolerance schedule is empty")
    return out


def is_cauchy(seq: FunctionSeq,
              schedule: Sequence[Rational] = DEFAULT_SCHEDULE) -> bool:
    """Whether the generator certifies an index for every tolerance.

    Each certified index is spot-checked with exact pairwise distances;
    a failing certificate is a library bug, not a domain answer, so it
    raises instead of returning False. Only the first term built is
    checked to lie in L_H; the generator certifies the rest (see
    hintegral.FunctionSeq).
    """
    for k, eps in enumerate(_check_schedule(schedule)):
        n = seq.cauchy_index(eps)
        if n is None:
            return False
        bound = HPair(DIM_ZERO, ExtReal.of(eps))
        x_n = seq.term(n)
        if k == 0:
            _require_lh(x_n, "left")
        for m in (n + 1, n + 5):
            got = _distance(x_n, seq.term(m))
            if not got.value < bound:
                raise ValidationError(
                    f"certified index {n} fails against term {m}")
    return True


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Per-tolerance indices: past entry (eps, n) the distance to the
    limit stays below (0, eps)."""

    entries: tuple[tuple[Fraction, int], ...]


def riesz_fischer_check(seq: FunctionSeq,
                        schedule: Sequence[Rational] = DEFAULT_SCHEDULE
                        ) -> tuple[PiecewiseFunction, ConvergenceCertificate]:
    """The limit of a perturbation-style generator plus a certificate.

    The certificate lists, for each tolerance in the schedule, an index
    past which the distance to the limit is below (0, eps); the first
    and one later index are re-verified with exact distances. The terms
    lie in L_H with the limit (see hintegral.FunctionSeq).
    """
    limit = seq.limit()
    if not absolutely_integrable(limit):
        raise NotInLH("the limit has an infinite |f| integral")
    entries = []
    for eps in _check_schedule(schedule):
        n = seq.limit_index(eps)
        bound = HPair(DIM_ZERO, ExtReal.of(eps))
        for k in (n, n + 3):
            got = _distance(seq.term(k), limit)
            if not got.value < bound:
                raise ValidationError(
                    f"certified index {n} fails at term {k}")
        entries.append((eps, n))
    return limit, ConvergenceCertificate(tuple(entries))
