"""Piecewise functions over representable sets and their pair-valued integral.

A function is a finite list of (atom, expression) terms and vanishes off
their union. Its integral over a region is the pair (d, m): d is the
dimension of the support inside the region, m the d-dimensional measure
integral there. Terms of lower dimension are invisible in m, which is what
makes the examples of the pair calculus (sums of integrals exceeding the
integral of a sum, and so on) come out the way they do.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, Optional, Union

from ._numeric import Fraction, Rational, _frac, _trimmed
from ._value import frozen
from .errors import NotRepresentable, ValidationError
from .hvalue import (NEG_INF, POS_INF, CoefficientSeries, ExtReal, FiniteList,
                     Geometric, HPair, PSeries, series_add, top_sum)
from .setalg import (Atom, CountableSeq, FinitePoints, Interval, RepSet,
                     _atom_meet, _hulls_meet, cross_pairs, diff, intersect,
                     meeting_pairs, normalize)


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


def _value(cs: list[int], x: Fraction) -> int:
    """cs at x, times the positive factor x.denominator ** degree."""
    # the slots of a Fraction, not its properties
    n, d = (x, 1) if type(x) is int else (x._numerator, x._denominator)
    acc, w = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * w
        w *= d
    return acc


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
    from ._roots import _int_coeffs, _roots_within
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
        from ._seqmeet import _tail_start
        if (j := _tail_start(origin, piece)) is not None:
            return SeriesValues(_shift_series(expr.series, j - 1))
        raise NotRepresentable(
            "series values cannot be rebased onto a different sequence")
    raise NotRepresentable("series values survive only on their sequence")


def _shift_series(s: CoefficientSeries, k: int) -> CoefficientSeries:
    if k == 0:
        return s
    if isinstance(s, FiniteList):
        return FiniteList(s.values[k:])
    if isinstance(s, Geometric):
        return Geometric(s.a * s.r ** k, s.r)
    raise NotRepresentable("a shifted p-series leaves the catalog")


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
    from ._roots import _signed_term
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
