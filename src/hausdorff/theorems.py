"""The certificates: the measure and integral laws the paper proves,
checked on given sets and functions, and the generated sequences of
functions that the convergence theorems run on.

Monotonicity and subadditivity of the measure, the indicator bridge,
finite and countable additivity, the monotone comparison, monotone
convergence (Beppo-Levi) and Fatou's lemma. The check suites and the
metrics read them; no other command runs them, so the modules every
command loads do not import this one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from ._numeric import Fraction
from ._roots import _signed_term
from ._value import frozen
from .errors import (DisjointnessViolated, DoesNotConverge,
                     MonotonicityViolated, NotRepresentable, OrderNotVerified,
                     ValidationError)
from .hintegral import (ALL_REALS, Const, PiecewiseFunction, Region,
                        SeriesValues, _shift_series, add, h_integral,
                        indicator, scalar_mul, support, zero_function)
from .hvalue import (DIM_ONE, DIM_ZERO, CoefficientSeries, ConstantTail,
                     ExtReal, FiniteList, GrowthTail, HPair, HSeq,
                     MeasureTail, PSeries, hpair_add, hpair_eq, hpair_sum,
                     hseq_liminf, hseq_limit)
from .setalg import (EMPTY_SET, CountableSeq, FinitePoints, Interval, RepSet,
                     _term_range, diff, hmeasure, intersect, union)


# ---------------------------------------------------------------------------
# the measure and the integral against it

def verify_monotone(a: RepSet, b: RepSet) -> tuple[HPair, HPair, bool]:
    """Confirm a is a subset of b, then compare the measures."""
    leftover = diff(a, b)
    if not leftover.is_empty():
        raise ValidationError("first set is not contained in the second")
    ma, mb = hmeasure(a), hmeasure(b)
    return ma, mb, ma.cmp(mb) <= 0


def verify_subadditive(a: RepSet, b: RepSet):
    u = union(a, b)
    mu_u, ma, mb = hmeasure(u), hmeasure(a), hmeasure(b)
    bound = hpair_add(ma, mb)
    return mu_u, ma, mb, mu_u.cmp(bound) <= 0


def restrict_to_support(f: PiecewiseFunction,
                        region: Region = ALL_REALS) -> tuple[HPair, HPair]:
    """Integral over the region and over the support inside it.

    The two agree: integrating where f vanishes adds nothing.
    """
    base = h_integral(f, region)
    dom = support(f)
    if isinstance(region, RepSet):
        dom = intersect(dom, region)
    return base, h_integral(f, dom)


def indicator_bridge(s: RepSet) -> HPair:
    """Integral of the indicator of s, checked against the measure of s."""
    got = h_integral(indicator(s))
    want = hmeasure(s)
    if not hpair_eq(got, want):
        raise ValidationError(
            f"indicator integral {got.render()} disagrees with "
            f"the measure {want.render()}")
    return got


# ---------------------------------------------------------------------------
# additivity

def additivity_over_region(f: PiecewiseFunction, region_a: RepSet,
                           region_b: RepSet) -> tuple[HPair, HPair, HPair]:
    """(integral over the union, over A, over B) for disjoint A and B.
    The first is the pair sum of the other two whenever all exist."""
    if not intersect(region_a, region_b).is_empty():
        raise DisjointnessViolated("the regions overlap")
    return (h_integral(f, union(region_a, region_b)),
            h_integral(f, region_a),
            h_integral(f, region_b))


@frozen
class SingletonTail:
    """The tail of a countable partition: one singleton per sequence point
    with index at or above start."""

    atom: CountableSeq
    start: int = 1

    def __init__(self, atom: CountableSeq, start: int = 1):
        if start < 1:
            raise ValidationError("indices start at 1")
        if atom.deletions:
            raise ValidationError(
                "a partition tail enumerates a full sequence; delete "
                "points from the head sets instead")
        fields = self.__dict__
        fields["atom"], fields["start"] = atom, start

    def as_set(self) -> RepSet:
        skipped = list(map(self.atom.point, _term_range(1, self.start)))
        return RepSet.of(self.atom.with_deletions(skipped))


def _tail_value_series(f: PiecewiseFunction,
                       tail: SingletonTail) -> CoefficientSeries:
    """f's values at the tail's points, as a catalog series indexed from
    the tail's start."""
    for atom, expr in f.terms:
        if (not isinstance(atom, CountableSeq)
                or atom.base_key != tail.atom.base_key):
            continue
        for d in atom.deletions:
            if atom.index_of(d) >= tail.start:
                raise NotRepresentable(
                    "a deletion inside the tail breaks the value series")
        if not isinstance(expr, SeriesValues):
            raise NotRepresentable(
                "constant tail values are outside the series catalog")
        return _shift_series(expr.series, tail.start - 1)
    tail_set = tail.as_set()
    for atom, _ in f.terms:
        if not intersect(RepSet.of(atom), tail_set).is_empty():
            raise NotRepresentable(
                "tail values straddle several terms of the function")
    return FiniteList([])


def countable_additivity(f: PiecewiseFunction, head: Sequence[RepSet],
                         tail: Optional[SingletonTail] = None
                         ) -> tuple[HPair, HPair]:
    """Integral over the union of the parts against the sum of the pair
    series of per-part integrals. Returns both; they must agree.

    The partition is finitely presented: explicit head sets plus an
    optional singleton tail running down a sequence atom.
    """
    parts = [p for p in head]
    if tail is not None:
        parts.append(tail.as_set())
    # intersect meets only the atoms whose hulls meet (cross_pairs)
    for i, j in combinations(range(len(parts)), 2):
        if not intersect(parts[i], parts[j]).is_empty():
            raise DisjointnessViolated(f"partition parts {i} and {j} overlap")
    whole = EMPTY_SET
    for p in parts:
        whole = union(whole, p)
    lhs = h_integral(f, whole)

    pairs = [h_integral(f, p) for p in head]
    if tail is not None:
        tail_series = _tail_value_series(f, tail)
        if not (tail_series.abs_converges()
                or (tail_series.sign() or 0) >= 0):
            raise DoesNotConverge(
                "the tail of per-part integrals has no order-independent "
                "sum")
        pairs.append(HPair(DIM_ZERO, tail_series.sum()))
    rhs = hpair_sum(pairs)
    if not hpair_eq(lhs, rhs):
        raise ValidationError(
            f"partition sum {rhs.render()} disagrees with the whole "
            f"integral {lhs.render()}")
    return lhs, rhs


# ---------------------------------------------------------------------------
# order

def verify_nonneg(f: PiecewiseFunction, label: str = "f") -> None:
    """Certify f >= 0 everywhere or raise OrderNotVerified.

    It reads the sign split term by term (see _signed_part): no piece
    may be negative, and a sign change the split cannot cut refuses too.
    """
    for atom, expr in f.terms:
        try:
            pieces = _signed_term(atom, expr)
        except NotRepresentable:
            # an odd-order irrational root is still a sign change
            raise OrderNotVerified(f"{label} changes sign inside {atom!r}")
        for piece, _, sgn in pieces:
            if sgn < 0:
                raise OrderNotVerified(f"{label} is negative on {piece!r}")


def _certified_nonneg(*fs: PiecewiseFunction) -> bool:
    """Whether verify_nonneg certifies every one of fs."""
    try:
        for f in fs:
            verify_nonneg(f)
    except OrderNotVerified:
        return False
    return True


def monotone_compare(f: PiecewiseFunction, g: PiecewiseFunction,
                     region: Region = ALL_REALS) -> bool:
    """For 0 <= f <= g (verified exactly), whether the integral of f is
    at most the integral of g. The theorem says always; the return value
    lets the caller see it happen."""
    verify_nonneg(f, "f")
    try:
        gap = add(g, scalar_mul(-1, f))
    except NotRepresentable as exc:
        raise OrderNotVerified(
            f"cannot refine g against f to compare them: {exc}") from exc
    verify_nonneg(gap, "g - f")
    return h_integral(f, region) <= h_integral(g, region)


# ---------------------------------------------------------------------------
# generated sequences of functions

class FunctionSeq:
    """A generated sequence of piecewise functions, indexed from 1.

    Generators know their terms and limit exactly, which makes the
    convergence theorems checkable at the desk. Each provides term(n)
    and limit(). Monotone convergence and Fatou's lemma read
    integral_seq(), nonneg() and nondecreasing(). Completeness reads
    limit_index(eps), an index N with d_H(f_n, limit) < (0, eps)
    certified for all n >= N, and cauchy_index(eps), the same for
    d_H(f_n, f_m), or None when no index will do.

    Every term lies in L_H when one does: the generator certifies its
    terms, and the metrics checks certify one term only. A
    PerturbationSeq certifies its base, and each bump adds finitely many
    finite values; an Alternating's d_H certifies both of its functions;
    a ConstantSeq's terms are its limit.
    """

    def cauchy_index(self, eps):
        # d(f_n, f_m) <= d(f_n, limit) + d(limit, f_m)
        return self.limit_index(Fraction(eps) / 2)

    def check_step(self, n: int) -> None:
        """Certify term(n) <= term(n+1) pointwise, or raise
        OrderNotVerified. The default subtracts and checks the sign;
        generators whose monotonicity is structural override it."""
        step = add(self.term(n + 1), scalar_mul(-1, self.term(n)))
        verify_nonneg(step, f"f_{n + 1} - f_{n}")


@frozen
class SupportGrowth(FunctionSeq):
    """f_n = value on [lo, hi - gap/n]: the support climbs to [lo, hi)."""

    lo: Fraction
    hi: Fraction
    value: Fraction
    gap: Fraction

    def __init__(self, lo, hi, value, gap):
        lo, hi = Fraction(lo), Fraction(hi)
        value, gap = Fraction(value), Fraction(gap)
        if not 0 < gap < hi - lo:
            raise ValidationError("need 0 < gap < hi - lo")
        if value == 0:
            raise ValidationError("the plateau value must be nonzero")
        self.__dict__.update(lo=lo, hi=hi, value=value, gap=gap)

    def term(self, n):
        return PiecewiseFunction(
            [(Interval(self.lo, self.hi - self.gap / n), Const(self.value))])

    def integral_seq(self):
        base = ExtReal.of(self.value * (self.hi - self.lo))
        return HSeq((), MeasureTail(DIM_ONE,
                                    PSeries(-self.value * self.gap, 1), base))

    def limit(self):
        return PiecewiseFunction(
            [(Interval(self.lo, self.hi, (self.hi,)), Const(self.value))])

    def nonneg(self):
        return self.value > 0

    def nondecreasing(self):
        return self.value > 0


@frozen
class ShrinkingPlateau(FunctionSeq):
    """f_n = value on [base, base + width/n]: the mass dies, one point
    survives. With a negative value this is the classic signed chain
    whose limit of integrals (d, 0) misses the integral of the limit."""

    base: Fraction
    width: Fraction
    value: Fraction

    def __init__(self, base, width, value):
        base, width, value = Fraction(base), Fraction(width), Fraction(value)
        if width <= 0:
            raise ValidationError("the plateau width must be positive")
        if value == 0:
            raise ValidationError("the plateau value must be nonzero")
        self.__dict__.update(base=base, width=width, value=value)

    def term(self, n):
        return PiecewiseFunction(
            [(Interval(self.base, self.base + self.width / n),
              Const(self.value))])

    def integral_seq(self):
        return HSeq((), MeasureTail(DIM_ONE,
                                    PSeries(self.value * self.width, 1)))

    def limit(self):
        return PiecewiseFunction(
            [(FinitePoints([self.base]), Const(self.value))])

    def nonneg(self):
        return self.value > 0

    def nondecreasing(self):
        return self.value < 0


@frozen
class PrefixGrowth(FunctionSeq):
    """f_n = value on the first n points of a sequence atom."""

    atom: CountableSeq
    value: Fraction

    def __init__(self, atom, value):
        value = Fraction(value)
        if atom.deletions:
            raise ValidationError("prefix growth wants a full sequence")
        if value == 0:
            raise ValidationError("the value must be nonzero")
        fields = self.__dict__
        fields["atom"], fields["value"] = atom, value

    def term(self, n):
        pts = [self.atom.point(i) for i in range(1, n + 1)]
        return PiecewiseFunction([(FinitePoints(pts), Const(self.value))])

    def integral_seq(self):
        return HSeq((), GrowthTail(DIM_ZERO, self.value))

    def limit(self):
        return PiecewiseFunction([(self.atom, Const(self.value))])

    def nonneg(self):
        return self.value > 0

    def nondecreasing(self):
        return self.value > 0


@frozen
class SlidingBump(FunctionSeq):
    """f_n = value on [n, n+1]: constant mass escaping to infinity; the
    pointwise limit is zero."""

    value: Fraction

    def __init__(self, value):
        value = Fraction(value)
        if value == 0:
            raise ValidationError("the value must be nonzero")
        self.__dict__["value"] = value

    def term(self, n):
        return PiecewiseFunction(
            [(Interval(Fraction(n), Fraction(n + 1)), Const(self.value))])

    def integral_seq(self):
        return HSeq((), ConstantTail(HPair(DIM_ONE, ExtReal.of(self.value))))

    def limit(self):
        return zero_function()

    def nonneg(self):
        return self.value > 0

    def nondecreasing(self):
        return False


@frozen
class StageClimb(FunctionSeq):
    """f_n = value on the n-th of finitely many nested stages, constant
    after the last. Stages with strictly growing dimension exercise the
    dimension-climb branch of monotone convergence."""

    stages: tuple[RepSet, ...]
    value: Fraction

    def __init__(self, stages, value):
        stages = tuple(stages)
        value = Fraction(value)
        if not stages:
            raise ValidationError("need at least one stage")
        if value <= 0:
            raise ValidationError("the value must be positive")
        for cur, nxt in zip(stages, stages[1:]):
            if not diff(cur, nxt).is_empty():
                raise ValidationError("stages must be nested increasingly")
        fields = self.__dict__
        fields["stages"], fields["value"] = stages, value

    def term(self, n):
        stage = self.stages[min(n, len(self.stages)) - 1]
        return indicator(stage, self.value)

    def integral_seq(self):
        pairs = [h_integral(indicator(s, self.value)) for s in self.stages]
        return HSeq(tuple(pairs[:-1]), ConstantTail(pairs[-1]))

    def limit(self):
        return indicator(self.stages[-1], self.value)

    def nonneg(self):
        return True

    def nondecreasing(self):
        return True

    def check_step(self, n):
        """Containment of stages is the pointwise order for indicators,
        and the constructor verified it; the subtraction form may leave
        the catalog (interval minus a Cantor copy)."""


@frozen
class ConstantSeq(FunctionSeq):
    """f_n = fn for every n: every term is at distance 0 from fn, so the
    limit index is 1 for every tolerance."""

    fn: PiecewiseFunction

    def term(self, n):
        return self.fn

    def integral_seq(self):
        return HSeq((), ConstantTail(h_integral(self.fn)))

    def limit(self):
        return self.fn

    def limit_index(self, eps):
        return 1

    def nonneg(self):
        return _certified_nonneg(self.fn)

    def nondecreasing(self):
        return True


# ---------------------------------------------------------------------------
# convergence theorems

@frozen
class MonotoneLimitReport:
    """What monotone convergence produced on one chain."""

    integrals: HSeq
    limit_of_integrals: HPair
    integral_of_limit: HPair
    agrees: bool
    signed: bool


# the convergence checks compare the first terms directly
_VERIFY_TERMS = 4


def _checked_integrals(seq: FunctionSeq) -> HSeq:
    """seq's declared integral sequence, its first terms checked against
    direct integration."""
    ints = seq.integral_seq()
    for n in range(1, _VERIFY_TERMS + 1):
        if not hpair_eq(ints.term(n), h_integral(seq.term(n))):
            raise ValidationError(
                "the declared integral sequence clashes with direct "
                f"integration at n = {n}")
    return ints


def beppo_levi_limit(seq: FunctionSeq) -> MonotoneLimitReport:
    """Monotone-convergence data for a generated nondecreasing chain.

    For nonnegative chains the limit of the integrals equals the
    integral of the limit in the lexicographic order topology. A signed
    chain is admitted but reported with signed=True and no equality
    claim: the nonnegativity hypothesis is sharp.
    """
    if not seq.nondecreasing():
        raise MonotonicityViolated("the chain must be pointwise nondecreasing")
    for n in range(1, _VERIFY_TERMS):
        try:
            seq.check_step(n)
        except OrderNotVerified as exc:
            raise MonotonicityViolated(str(exc)) from exc
    ints = _checked_integrals(seq)
    lim = hseq_limit(ints)
    il = h_integral(seq.limit())
    return MonotoneLimitReport(ints, lim, il, hpair_eq(lim, il),
                               not seq.nonneg())


def fatou_check(seq: FunctionSeq) -> bool:
    """For a nonnegative generated sequence with a pointwise limit:
    integral of the limit <= liminf of the integrals."""
    if not seq.nonneg():
        raise ValidationError("fatou wants a nonnegative sequence")
    for n in range(1, _VERIFY_TERMS + 1):
        verify_nonneg(seq.term(n), f"f_{n}")
    limit = seq.limit()
    return h_integral(limit) <= hseq_liminf(_checked_integrals(seq))
