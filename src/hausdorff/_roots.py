"""Real roots and sign regions of polynomials, and the sign split of a
piecewise function's terms.

Only the sign split (hintegral._signed_part, behind pos_part, neg_part
and |f|), a support with a polynomial term, and the order checks of
theorems run this code, so the modules every command loads import it
inside the functions that need it.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from ._numeric import Fraction
from .errors import NotRepresentable, ValidationError
from .hintegral import Const, Expression, Poly, SeriesValues, _value
from .hvalue import CoefficientSeries, FiniteList, Geometric
from .setalg import (GEOMETRIC, HARMONIC, Atom, CountableSeq, FinitePoints,
                     Interval)


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
# the sign split


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
