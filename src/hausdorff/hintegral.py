"""Piecewise functions over representable sets and their pair-valued integral.

A function is a finite list of (atom, expression) terms and vanishes off
their union. Its integral over a region is the pair (d, m): d is the
dimension of the support inside the region, m the d-dimensional measure
integral there. Terms of lower dimension are invisible in m, which is what
makes the examples of the pair calculus (sums of integrals exceeding the
integral of a sum, and so on) come out the way they do.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, zip_longest
from typing import Iterable, Optional, Sequence, Union

from ._numeric import Fraction, Rational, _frac, _trimmed
from ._value import frozen
from .errors import (DisjointnessViolated, DoesNotConverge,
                     MonotonicityViolated, NotRepresentable, OrderNotVerified,
                     ValidationError)
from .hvalue import (DIM_ONE, DIM_ZERO, NEG_INF, POS_INF, CoefficientSeries,
                     ConstantTail, ExtReal, FiniteList, Geometric, GrowthTail,
                     HPair, HSeq, MeasureTail, PSeries, hpair_eq, hpair_sum,
                     hseq_liminf, hseq_limit, series_add, top_sum)
from .setalg import (EMPTY_SET, GEOMETRIC, HARMONIC, Atom, CountableSeq,
                     FinitePoints, Interval, RepSet, _atom_meet, _hulls_meet,
                     _tail_start, _term_range, cross_pairs, diff, hmeasure,
                     intersect, meeting_pairs, normalize, union)


# ---------------------------------------------------------------------------
# expressions


class Expression:
    """Value rule attached to one atom. Subclasses provide is_zero() and
    scale(c)."""


@frozen
class Poly(Expression):
    """Polynomial in the ambient variable, coefficients by ascending power.
    A constant is the polynomial of degree 0 and is admitted on every
    atom; higher degrees live on interval atoms only."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational]):
        self.__dict__["coeffs"] = _trimmed(coeffs)  # as setalg's atoms do

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value_at(self, x: Rational) -> Fraction:
        """p(x), by Horner's rule on integers and one Fraction at the end;
        a constant is its own value."""
        if len(self.coeffs) < 2:
            return self.coeffs[0] if self.coeffs else Fraction(0)
        x = Fraction(x)
        den = math.lcm(*(c._denominator for c in self.coeffs))
        cs = [c._numerator * (den // c._denominator) for c in self.coeffs]
        return Fraction(_value(cs, x), den * x._denominator ** self.degree())

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)]
                    + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def is_zero(self):
        return not self.coeffs

    def scale(self, c):
        k = _frac(c)
        return Poly(v * k for v in self.coeffs)


def Const(value: Rational) -> Poly:
    """The constant expression: the polynomial of degree 0."""
    return Poly((value,))


@frozen
class SeriesValues(Expression):
    """Values bound to the indices of a CountableSeq atom: the point with
    index n carries the series term of rank n - 1."""

    series: CoefficientSeries

    def __init__(self, series: CoefficientSeries):
        if isinstance(series, PSeries) and series.p.denominator != 1:
            raise ValidationError(
                "fractional-power series values are irrational")
        self.__dict__["series"] = series

    def is_zero(self):
        return self.series.sign() == 0

    def scale(self, c):
        return SeriesValues(self.series.scale(Fraction(c)))


# ---------------------------------------------------------------------------
# functions


@frozen
class AllReals:
    """Sentinel region: the whole line."""


ALL_REALS = AllReals()
Region = Union[RepSet, AllReals]


def _expr_fits(atom: Atom, expr: Expression) -> None:
    if isinstance(expr, Poly):
        if len(expr.coeffs) > 1 and not isinstance(atom, Interval):
            raise ValidationError(
                "polynomial terms live on interval atoms only")
    elif isinstance(expr, SeriesValues) and not isinstance(atom, CountableSeq):
        raise ValidationError("series values bind to sequence atoms only")


@frozen
class PiecewiseFunction:
    """Finitely many (atom, expression) terms, zero off their union.

    Term atoms must be pairwise disjoint, since the integral sums over
    the pieces that carry the function; every instance is checked. Only
    pairs whose closed hulls overlap are intersected: an atom lies inside
    its closed hull, so atoms with disjoint hulls are disjoint. A sweep
    over the float hulls (meeting_pairs) finds those pairs in (i, j)
    order, so the first overlap reported is the one an all-pairs loop
    reports, and _hulls_meet decides each of them exactly. Identically
    zero terms are dropped on construction, so the zero function is the
    one with no terms at all.
    """

    terms: tuple[tuple[Atom, Expression], ...]

    def __init__(self, terms):
        kept = []
        for atom, expr in terms:
            if atom.is_empty() or expr.is_zero():
                continue
            _expr_fits(atom, expr)
            kept.append((atom, expr))
        self.__dict__["terms"] = kept = tuple(kept)
        for i, j in meeting_pairs([atom.float_hull() for atom, _ in kept]):
            x, y = kept[i][0], kept[j][0]
            if _hulls_meet(x, y) and _atom_meet(x, y):
                raise ValidationError(f"term atoms overlap: {x!r} and {y!r}")

    def value_at(self, x: Rational) -> Fraction:
        x = Fraction(x)
        for atom, expr in self.terms:
            if atom.member(x):
                return _value_on(atom, expr, x)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.terms


def _value_on(origin: Atom, expr: Expression, x: Fraction) -> Fraction:
    """The value of a term with atom origin at its point x."""
    if isinstance(expr, Poly):
        return expr.value_at(x)
    n = origin.index_of(x)
    if n is None:
        raise ValidationError(f"{x} is not a point of the value sequence")
    return expr.series.term(n - 1)


def indicator(s: RepSet, value: Rational = 1) -> PiecewiseFunction:
    v = Fraction(value)
    return PiecewiseFunction([(a, Const(v)) for a in s.atoms])


def zero_function() -> PiecewiseFunction:
    return PiecewiseFunction(())


# ---------------------------------------------------------------------------
# polynomial root bookkeeping

# Polynomials are worked on as primitive integer coefficient lists
# (ascending powers). The sign of such a list at a rational u/v is the sign
# of its homogeneous value sum c_i u^i v^(n-i), so every step is integer
# arithmetic: Sturm chains kept as Fractions grow far faster with degree.


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by the gcd of its entries."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _int_coeffs(p: Poly) -> list[int]:
    den = math.lcm(*(c._denominator for c in p.coeffs))
    return _primitive([c._numerator * (den // c._denominator)
                       for c in p.coeffs])


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _value(cs: list[int], x: Fraction) -> int:
    """cs at x, times the positive factor x.denominator ** degree."""
    # the slots of a Fraction, not its properties
    n, d = (x, 1) if type(x) is int else (x._numerator, x._denominator)
    acc, w = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * w
        w *= d
    return acc


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, both times one positive integer."""
    a, db, lb = list(a), len(b) - 1, b[-1]
    scale, sb = abs(lb), _sign(lb)
    quot = [0] * max(len(a) - db, 0)
    while len(a) > db:
        shift, la = len(a) - 1 - db, a[-1] * sb
        quot = [scale * c for c in quot]
        quot[shift] += la
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= la * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _gcd(a: list[int], b: list[int]) -> list[int]:
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return a


def _order_at(cs: list[int], x: Fraction) -> tuple[int, int]:
    """(k, s): x is a root of cs of order k, and s is the sign of the k-th
    derivative at x, which is the sign of cs just right of x."""
    k = 0
    while True:
        s = _sign(_value(cs, x))
        if s:
            return k, s
        cs, k = _derivative(cs), k + 1


def _sturm_chain(q: list[int]) -> list[list[int]]:
    chain = [q, _derivative(q)]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in
                                 _pdivmod(chain[-2], chain[-1])[1]]))
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    count, last = 0, 0
    for cs in chain:
        s = _sign(_value(cs, x))
        if s:
            count += last == -s
            last = s
    return count


def _roots_within(ps: list[int], lo: Optional[Fraction],
                  hi: Optional[Fraction]) -> list:
    """Distinct real roots of ps in the closed range, increasing, as
    (root if rational else None, odd multiplicity) pairs.

    The roots of the square-free part q are isolated by Sturm counts
    (which count the roots in a half-open (a, b]) and bisection. A
    rational root of the primitive integer q has a denominator dividing
    lead = |lc(q)|, so it is the one point k/lead of an isolating
    interval narrower than 1/lead; no integer needs factoring.
    """
    if len(ps) < 2:
        return []
    g = _gcd(ps, _derivative(ps))
    q = _primitive(_pdivmod(ps, g)[0]) if len(g) > 1 else ps
    out = []
    if lo is not None and _value(q, lo) == 0:
        out.append((lo, _order_at(ps, lo)[0] % 2 == 1))
    # Cauchy: every root lies strictly inside (-bound, bound)
    bound = Fraction(2 + max(abs(c) for c in q[:-1]) // abs(q[-1]))
    a = -bound if lo is None else max(lo, -bound)
    b = bound if hi is None else min(hi, bound)
    if a >= b:
        return out
    chain = _sturm_chain(q)
    todo = [(a, b, _variations(chain, a), _variations(chain, b))]
    isolated = []
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            isolated.append((a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = _variations(chain, m)
            todo += [(a, m, va, vm), (m, b, vm, vb)]
    for a, b in sorted(isolated):
        out.append(_isolated_root(ps, q, a, b))
    return out


def _isolated_root(ps: list[int], q: list[int], a: Fraction,
                   b: Fraction) -> tuple:
    """The root of p (coefficients ps) that is the only root of its
    square-free part q in (a, b]."""
    lead = abs(q[-1])
    side = _order_at(q, a)[1]
    # q has a simple root here, so it changes sign there
    while (b - a) * lead >= 1:
        m = (a + b) / 2
        s = _sign(_value(q, m))
        if s == 0:
            return m, _order_at(ps, m)[0] % 2 == 1
        if s == side:
            a = m
        else:
            b = m
    x = Fraction(math.floor(a * lead) + 1, lead)
    if x <= b and _value(q, x) == 0:
        return x, _order_at(ps, x)[0] % 2 == 1
    # irrational; its order is odd exactly when p changes sign across
    # (a, b], where it is the only root of p and b is none
    return None, _order_at(ps, a)[1] != _sign(_value(ps, b))


# d_H, is_cauchy and riesz_fischer_check split the same polynomial on the
# same interval many times in one call (every |f_n - f_m| repeats the
# terms the sequence keeps). Nothing in the key or the isolation reads the
# config, so a cached answer holds under any precision.
@functools.lru_cache(maxsize=128)
def _sign_regions(p: Poly, lo: Optional[Fraction], hi: Optional[Fraction]):
    """Cut [lo, hi] at the sign changes of p: a tuple of (a, b, sign) with
    constant sign on each open piece. Sign changes at irrational points
    cannot be cut exactly and raise NotRepresentable. The signs come from
    the isolation: the first piece has p's sign just right of lo (or at
    -infinity), and each odd rational root inside flips it. Cached per
    (p, lo, hi) for the 128 most recent triples; a refusal is not cached,
    so it is raised again on every call."""
    ps = _int_coeffs(p)
    if not ps:
        raise ValidationError("the zero polynomial has no sign regions")
    sgn = (_sign(ps[-1]) * (-1) ** (len(ps) - 1) if lo is None
           else _order_at(ps, lo)[1])
    out, a = [], lo
    for root, odd in _roots_within(ps, lo, hi):
        if not odd:
            continue
        if root is None:
            raise NotRepresentable(
                "the sign of the polynomial changes at an irrational point")
        if (lo is None or root > lo) and (hi is None or root < hi):
            out.append((a, root, sgn))
            a, sgn = root, -sgn
    out.append((a, hi, sgn))
    return tuple(out)


# ---------------------------------------------------------------------------
# support

def support(f: PiecewiseFunction) -> RepSet:
    """The exact set where f is nonzero.

    Rational polynomial roots are removed via deletions. An irrational
    root is left in place: a single point carries no length and no
    dimension, and naming it exactly would leave the rational endpoint
    algebra.
    """
    pieces = []
    for atom, expr in f.terms:
        pieces.extend(_support_pieces(atom, expr))
    return normalize(pieces)


def _support_pieces(atom: Atom, expr: Expression) -> list[Atom]:
    if isinstance(expr, SeriesValues):
        return _series_support(atom, expr.series)
    if expr.degree() == 0:
        return [atom]
    lo, hi = atom.hull()
    roots = [r for r, _ in _roots_within(_int_coeffs(expr), lo, hi)
             if r is not None and atom.member(r)]
    return [atom.with_deletions(roots)]


def _series_support(atom: CountableSeq, s: CoefficientSeries) -> list[Atom]:
    if isinstance(s, FiniteList):
        pts = [atom.point(i + 1) for i, v in enumerate(s.values)
               if v != 0 and atom.member(atom.point(i + 1))]
        return [FinitePoints(pts)] if pts else []
    if isinstance(s, Geometric) and s.r == 0:
        first = atom.point(1)
        return [FinitePoints([first])] if atom.member(first) else []
    # geometric and p-series terms never vanish
    return [atom]


# ---------------------------------------------------------------------------
# the integral

def _piece_measure(piece: Atom, expr: Expression) -> ExtReal:
    # a constant weighs the piece, point by point included, in one step
    if isinstance(expr, Poly) and expr.degree() == 0:
        return piece.mu().scale(expr.coeffs[0])
    if isinstance(expr, SeriesValues):
        # exactly 0 on a piece whose nonzero values are all deleted
        removed = sum((_value_on(piece, expr, x) for x in piece.deletions),
                      Fraction(0))
        return expr.series.sum() - ExtReal.of(removed)
    anti = expr.antiderivative()
    lo, hi = piece.hull()
    return _anti_at(anti, hi, +1) - _anti_at(anti, lo, -1)


def _anti_at(anti: Poly, bound: Optional[Fraction], side: int) -> ExtReal:
    if bound is not None:
        return ExtReal.of(anti.value_at(bound))
    lead = anti.coeffs[-1]
    if side < 0 and anti.degree() % 2 == 1:
        lead = -lead
    return POS_INF if lead > 0 else NEG_INF


def h_integral(f: PiecewiseFunction, region: Region = ALL_REALS) -> HPair:
    """The pair (dimension of the support inside the region, integral of f
    against the measure of that dimension).

    Lower-dimensional terms contribute nothing to the second coordinate.
    Signed infinite masses of the top dimension raise UndefinedSum; a
    single signed infinity is a legitimate value. On the whole line the
    terms are f's own; a region re-reads each term on its pieces there
    (_terms_on), which may refuse.
    """
    terms = f.terms
    if not isinstance(region, AllReals):
        terms = [t for atom, expr in f.terms
                 for t in _terms_on(intersect(RepSet.of(atom), region).atoms,
                                    atom, expr)]
    return top_sum(terms, lambda t: t[0].dim(), lambda t: _piece_measure(*t))


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
# linear structure

def scalar_mul(c: Rational, f: PiecewiseFunction) -> PiecewiseFunction:
    """The function c*f on the same terms. The integral scales in the
    second coordinate only; the support does not move."""
    c = Fraction(c)
    if c == 0:
        raise ValidationError(
            "scaling by zero collapses the support; build the zero "
            "function directly")
    return PiecewiseFunction([(a, e.scale(c)) for a, e in f.terms])


def _localize(piece: Atom, origin: Atom, expr: Expression) -> Expression:
    """Re-express a term on a sub-piece of its atom."""
    if isinstance(expr, Poly):
        if isinstance(piece, Interval) or expr.degree() == 0:
            return expr
        raise NotRepresentable(
            "a polynomial is only constant enough for a fractal or "
            "sequence piece when it has degree zero")
    if isinstance(piece, CountableSeq):
        if piece.base_key == origin.base_key:
            return expr
        # a tail of origin from index j reads origin's values from j on
        if (j := _tail_start(origin, piece)) is not None:
            return SeriesValues(_shift_series(expr.series, j - 1))
        raise NotRepresentable(
            "series values cannot be rebased onto a different sequence")
    raise NotRepresentable("series values survive only on their sequence")


def _pointwise_terms(piece: FinitePoints, sources) -> list:
    """Constant terms for a finite piece, one per distinct nonzero value,
    on the points that take it. Constant sources are added once for the
    whole piece."""
    if all(isinstance(e, Poly) and e.degree() == 0 for _, e in sources):
        v = sum((e.coeffs[0] for _, e in sources), Fraction(0))
        return [(piece, Const(v))] if v else []
    by_value = {}
    for x in piece.points:
        v = sum((_value_on(origin, expr, x) for origin, expr in sources),
                Fraction(0))
        by_value.setdefault(v, []).append(x)
    return [(FinitePoints(xs), Const(v)) for v, xs in by_value.items() if v]


def _combined_terms(piece: Atom, sources) -> list:
    """Terms valuing a refinement piece as the sum of its sources."""
    if isinstance(piece, FinitePoints):
        return _pointwise_terms(piece, sources)
    local = [_localize(piece, origin, expr) for origin, expr in sources]
    total = local[0]
    for nxt in local[1:]:
        total = _expr_add(total, nxt)
        if total is None:
            raise NotRepresentable(
                "the pointwise sum leaves the expression catalog "
                f"on {piece!r}")
    return [(piece, total)]


def _terms_on(pieces, atom: Atom, expr: Expression) -> list:
    """The term (atom, expr) on sub-pieces of its atom, as (piece,
    expression) pairs whose values read on the piece alone."""
    return [t for piece in pieces
            for t in _combined_terms(piece, [(atom, expr)])]


def _expr_add(a: Expression, b: Expression) -> Optional[Expression]:
    if isinstance(a, Poly) and isinstance(b, Poly):
        return Poly(x + y for x, y in zip_longest(a.coeffs, b.coeffs,
                                                  fillvalue=0))
    if isinstance(a, SeriesValues) and isinstance(b, SeriesValues):
        s = series_add(a.series, b.series)
        return SeriesValues(s) if s is not None else None
    # series values plus a nonzero constant leave the catalog
    return None


def add(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """Pointwise sum on the common refinement of the term atoms.

    For nonnegative f and g the integral of the sum is the pair sum of
    the integrals; for signed summands no identity holds (a positive
    length and a negative length of equal size annihilate to dimension
    zero) and the sum is simply the pointwise function.

    cross_pairs finds the f x g pairs whose hulls meet. Each term is cut
    only by the normalized union of the other side's terms in those
    pairs, and each pair carries the sum on its intersection. A term in
    no pair passes through whole: its atom less nothing is itself, and
    re-reading an expression on its own atom gives it back (the
    constructor admits only terms that read so), so diff, normalize and
    _terms_on are skipped and the output order is unchanged.
    """
    terms, n = f.terms + g.terms, len(f.terms)
    pairs = [(i, n + j) for i, j in cross_pairs([a for a, _ in f.terms],
                                                [b for b, _ in g.terms])]
    cuts = [[] for _ in terms]
    for i, j in pairs:
        cuts[i].append(terms[j][0])
        cuts[j].append(terms[i][0])
    out = []
    for (a, ea), cut in zip(terms, cuts):
        if not cut:
            out.append((a, ea))
            continue
        rest = diff(RepSet.of(a), RepSet.of(*cut))
        out.extend(_terms_on(rest.atoms, a, ea))
    for i, j in pairs:
        (a, ea), (b, eb) = terms[i], terms[j]
        for piece in normalize(_atom_meet(a, b)).atoms:
            out.extend(_combined_terms(piece, [(a, ea), (b, eb)]))
    return PiecewiseFunction(out)


# ---------------------------------------------------------------------------
# positive and negative parts

def pos_part(f: PiecewiseFunction) -> PiecewiseFunction:
    """max(f, 0). Together with neg_part this splits f additively:
    f = pos_part(f) + neg_part(f) pointwise."""
    return PiecewiseFunction(
        [(a, e) for a, e, sign in _signed_part(f) if sign > 0])


def neg_part(f: PiecewiseFunction) -> PiecewiseFunction:
    """min(f, 0), the signed lower part (not its absolute value)."""
    return PiecewiseFunction(
        [(a, e) for a, e, sign in _signed_part(f) if sign < 0])


def _signed_part(f: PiecewiseFunction) -> list:
    """The sign split of f: (piece, expression, sign) triples, term by
    term, on disjoint pieces where f keeps the sign +1 or -1. The pieces
    cover the support of f but for the sign changes of polynomials, where
    f vanishes. pos_part and neg_part filter the split, and the integral
    of |f| flips its negative pieces.

    An irrational sign change of a polynomial, and alternating values on
    a harmonic sequence, raise NotRepresentable.
    """
    out = []
    for atom, expr in f.terms:
        out.extend(_signed_term(atom, expr))
    return out


def abs_integral(f: PiecewiseFunction) -> HPair:
    """Integral of |f|: the negative pieces of one sign split of f flip
    sign, and the result is integrated once."""
    return h_integral(PiecewiseFunction(
        [(a, e if sign > 0 else e.scale(-1))
         for a, e, sign in _signed_part(f)]))


def _signed_term(atom: Atom, expr: Expression) -> list:
    if isinstance(expr, SeriesValues):
        return _signed_series(atom, expr.series)
    if expr.degree() == 0:
        return [(atom, expr, _sign(expr.coeffs[0]))]
    return _signed_poly(atom, expr)


def _signed_poly(atom: Interval, p: Poly) -> list:
    lo, hi = atom.hull()
    out = []
    for a, b, sgn in _sign_regions(p, lo, hi):
        dels = {d for d in atom.deletions
                if (a is None or d >= a) and (b is None or d <= b)}
        # region boundaries at sign changes carry the value zero
        if a is not None and (lo is None or a != lo):
            dels.add(a)
        if b is not None and (hi is None or b != hi):
            dels.add(b)
        out.append((Interval(a, b, dels), p, sgn))
    return out


def _signed_series(atom: CountableSeq, s: CoefficientSeries) -> list:
    sg = s.sign()
    if sg is not None:
        return [(atom, SeriesValues(s), sg)]
    if isinstance(s, FiniteList):
        out = []
        for i, v in enumerate(s.values):
            x = atom.point(i + 1)
            if v != 0 and atom.member(x):
                out.append((FinitePoints([x]), Const(v), _sign(v)))
        return out
    # alternating geometric values: the even and odd index subsequences
    # have constant sign, and each is a sequence atom again
    assert isinstance(s, Geometric) and s.r < 0
    return [(sub_atom, SeriesValues(sub_series), sub_series.sign())
            for sub_atom, sub_series in _split_parity(atom, s)]


def _split_parity(atom: CountableSeq, s: Geometric):
    """Split a sequence atom and its value series by index parity."""
    if atom.family == HARMONIC:
        # points a + b/(2k-1) are not a harmonic sequence
        raise NotRepresentable(
            "odd-index points of a harmonic sequence are not a "
            "catalog sequence")
    # each keeps the deletions in its own base set: those of its parity
    odd = CountableSeq(GEOMETRIC, atom.a, atom.b / atom.q,
                       atom.q ** 2).with_deletions(atom.deletions)
    even = CountableSeq(GEOMETRIC, atom.a, atom.b,
                        atom.q ** 2).with_deletions(atom.deletions)
    # original index n = 2k-1 reads series rank 2k-2, n = 2k reads 2k-1
    return ((odd, Geometric(s.a, s.r ** 2)),
            (even, Geometric(s.a * s.r, s.r ** 2)))


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


def _shift_series(s: CoefficientSeries, k: int) -> CoefficientSeries:
    if k == 0:
        return s
    if isinstance(s, FiniteList):
        return FiniteList(s.values[k:])
    if isinstance(s, Geometric):
        return Geometric(s.a * s.r ** k, s.r)
    raise NotRepresentable("a shifted p-series leaves the catalog")


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
