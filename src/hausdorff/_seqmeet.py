"""Where two sequences meet, and where a sequence meets a Cantor copy.

setalg._relation reads these for a pair of atoms with a sequence among
them, setalg._minus_of for a sequence less its own tail, and
hintegral._localize to read series values on such a tail. Set
normalization and the integral of an unrebased term never call them, so
those modules import this one inside the branches that do.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Optional

from ._numeric import (Fraction, Rational, _frac, coprime_base, geo_steps,
                       power_base, power_index)
from .errors import NotRepresentable, ValidationError
from .setalg import (GEOMETRIC, HARMONIC, CantorAffine, CountableSeq,
                     _ternary_walk, in_cantor)


def _tail_start(x: CountableSeq, y: CountableSeq) -> Optional[int]:
    """The index j of x where y starts when y is x's tail, else None. Only
    a geometric y with x's a and q, and y.b == x.b * q**(j-1), is a tail."""
    if x.family == y.family == GEOMETRIC and (x.a, x.q) == (y.a, y.q):
        m = power_index(y.b / x.b, x.q)
        return m + 1 if m is not None and m >= 0 else None
    return None


# -- sequence vs sequence -----------------------------------------------------


def _primitive_ratio(q: Fraction) -> tuple[Fraction, int]:
    """Write q = rho**e with maximal e >= 1; rho is the primitive ratio.
    With u**a and v**b the numerator and denominator over their least
    bases, e is gcd(a, b)."""
    u, a = power_base(q.numerator)
    v, b = power_base(q.denominator)
    e = math.gcd(a, b)
    return Fraction(u ** (a // e), v ** (b // e)), e


def _exponents(x: Fraction, base: list) -> list:
    """The exponent in x of each member of a coprime base whose powers
    make up x. For a member p of it, gcd(n, p**k) is the power of p in n
    once k bounds that exponent, and log2(n) / log2(p) does."""
    def expo(n, p):
        k = n.bit_length() // (p.bit_length() - 1)
        return power_index(math.gcd(n, p ** k), p)
    return [expo(x.numerator, p) - expo(x.denominator, p) for p in base]


def _solve_two_unknowns(rows):
    """Integer solution (n, m) of the system a*n + b*m = c, or None; the
    columns (a) and (b) are independent, so two rows fix n and m."""
    (a1, b1, c1), (a2, b2, c2) = next(
        (r, s) for r, s in itertools.combinations(rows, 2)
        if r[0] * s[1] != s[0] * r[1])
    det = a1 * b2 - a2 * b1
    n = Fraction(c1 * b2 - c2 * b1, det)
    m = Fraction(a1 * c2 - a2 * c1, det)
    if n.denominator != 1 or m.denominator != 1:
        return None
    n, m = int(n), int(m)
    for (a, b, c) in rows:
        if a * n + b * m != c:
            return None
    return (n, m)


def _common_points_finite(x: CountableSeq, y: CountableSeq) -> list:
    """Common base points of sequences with distinct accumulation points:
    always finitely many. A common point is at least half the accumulation
    gap away from one of the two limits, so listing both heads down to
    that offset is exhaustive; a head of more than _ITER_GUARD terms
    raises TooLarge before it is listed."""
    half = abs(y.a - x.a) / 2
    commons = set()
    for seq, other in ((x, y), (y, x)):
        _, head = (seq.indices_within(seq.a + half, None) if seq.b > 0
                   else seq.indices_within(None, seq.a - half))
        commons.update(p for p in map(seq.point, head) if other.in_base(p))
    return sorted(commons)


def _geo_geo_commons(x: CountableSeq, y: CountableSeq):
    """Intersection structure of geometric sequences with the same
    accumulation point and side: "disjoint", ("finite", pts), ("tail",
    (seq, start)) as _seq_seq_commons says, or None when the intersection
    is infinite and interleaved."""
    rho, e = _primitive_ratio(x.q)
    sigma, f = _primitive_ratio(y.q)
    target = y.b / x.b  # common points need x.q**n / y.q**m == target
    if rho != sigma:
        # multiplicatively independent ratios: at most one common point,
        # found from the exponents over a coprime base of the six terms
        terms = (x.q, y.q, target)
        base = coprime_base([k for t in terms
                             for k in (t.numerator, t.denominator)])
        ex, ey, et = (_exponents(t, base) for t in terms)
        sol = _solve_two_unknowns([(a, -b, c) for a, b, c in zip(ex, ey, et)])
        if sol is None:
            return "disjoint"
        n, m = sol
        if n >= 1 and m >= 1 and x.b * x.q ** n == y.b * y.q ** m:
            return ("finite", [x.point(n)])
        return "disjoint"
    # common index pairs solve e*n - f*m == z: none unless gcd(e, f)
    # divides z. Once f divides e, each n >= (z + f) / e has its m >= 1,
    # so x's tail lies in y; once e divides f, each m >= (e - z) / f has
    # its n, and y's tail lies in x. Otherwise both are interleaved. With
    # e == f both hold, and x from index 1 lies in y exactly when z <= 0.
    z = power_index(target, rho)
    g = math.gcd(e, f)
    if z is None or z % g != 0:
        return "disjoint"
    if f == g and (e != f or z <= 0):
        return ("tail", (x, max(1, -((-z - f) // e))))
    if e == g:
        return ("tail", (y, max(1, -((z - e) // f))))
    return None


def _harm_geo_commons(h: CountableSeq, g: CountableSeq):
    """Intersection structure of a harmonic and a geometric sequence with
    the same accumulation point and side: "disjoint", ("finite", pts), or
    ("tail", (g, start)) when exactly the terms of g from index start
    onward are common."""
    # h.b/n == g.b * q^m  =>  n = (alpha/beta) * (v/u)^m, an integer
    # exactly when beta divides v^m and u^m divides alpha
    ratio = h.b / g.b  # positive: same side of the accumulation point
    alpha, beta = ratio.numerator, ratio.denominator
    u, v = g.q.numerator, g.q.denominator
    # no exponent of beta reaches its bit length, so if beta divides some
    # v^m it divides v^top, and the m that work are those from m_lo on
    top = beta.bit_length()
    if pow(v, top, beta) != 0:
        return "disjoint"
    m_lo = max(1, bisect.bisect_left(range(top), True,
                                     key=lambda m: pow(v, m, beta) == 0))
    if u == 1:
        # every m from m_lo on, once n = ratio * v^m >= 1
        return ("tail", (g, max(m_lo, geo_steps(g.q, ratio, strict=False))))
    # u >= 2: u^m divides alpha for m up to m_hi only
    m_hi = bisect.bisect_left(range(alpha.bit_length() + 1), True,
                              key=lambda m: alpha % u ** m != 0) - 1
    pts = [g.point(m) for m in range(m_lo, m_hi + 1)]
    return ("finite", pts) if pts else "disjoint"


def _seq_seq_commons(x: CountableSeq, y: CountableSeq):
    """How two sequences meet: "disjoint", ("finite", candidate common
    points), ("tail", (seq, start)) when the terms of seq from index start
    onward lie in the other's base set, or None when the common points are
    infinite and interleaved."""
    if x.a != y.a:
        return ("finite", _common_points_finite(x, y))
    if (x.b > 0) != (y.b > 0):
        return "disjoint"  # opposite sides of the shared accumulation point
    if x.family != y.family:
        return (_harm_geo_commons(x, y) if x.family == HARMONIC
                else _harm_geo_commons(y, x))
    if x.family == GEOMETRIC:
        return _geo_geo_commons(x, y)
    # x.b/n == y.b/m needs m = n * r: all of x lies in y when r is an
    # integer, all of y in x when 1/r is; otherwise the common indices
    # fill the lattice n = den*k, m = num*k, infinite and interleaved
    r = y.b / x.b
    if r.denominator == 1:
        return ("tail", (x, 1))
    if r.numerator == 1:
        return ("tail", (y, 1))
    return None


# -- sequence vs Cantor copy ----------------------------------------------------


def cantor_gap(y: Rational) -> tuple[Fraction, Fraction]:
    """For a rational y in [0,1] outside the Cantor set, an open interval
    around y containing no Cantor point: the removed third it enters at
    depth k, ((3P+1)/3^(k+1), (3P+2)/3^(k+1)) with P = floor(3^k y)."""
    y = _frac(y)
    if y < 0 or y > 1:
        raise ValidationError("point not inside the unit interval")
    k = _ternary_walk(y)
    if k is None:
        raise ValidationError("point is in the Cantor set, no gap exists")
    p, scale = math.floor(y * 3 ** k), 3 ** (k + 1)
    return Fraction(3 * p + 1, scale), Fraction(3 * p + 2, scale)


def _seq_cantor_commons(x: CountableSeq, y: CantorAffine) -> list:
    """Common base points of a sequence and a Cantor copy; finite, or
    NotRepresentable when the accumulation point sits inside the copy."""
    hlo, hhi = y.hull()
    kind, data = x.indices_within(hlo, hhi)
    if kind == "finite":
        return sorted(p for p in (x.point(n) for n in data) if y.in_base(p))
    # infinitely many terms in the hull, so the limit lies in it as well
    u = (x.a - y.t) / y.s
    if not in_cantor(u):
        glo, ghi = cantor_gap(u)
    else:
        # u = j/3^m ends the gap (u, u + 3^-m) when j = 1 (mod 3) and the
        # gap (u - 3^-m, u) when j = 2 (mod 3): terms that reach u through
        # that gap leave finitely many in the copy
        side = 1 if x.b > 0 else -1
        if (u.numerator % 3 != side % 3
                or power_index(u.denominator, 3) is None):
            raise NotRepresentable("a sequence accumulating inside a Cantor "
                                   "copy cannot be combined with it")
        glo, ghi = sorted((u, u + Fraction(side, u.denominator)))
    glo, ghi = y.t + y.s * glo, y.t + y.s * ghi
    pts = []
    for lo, hi in ((None, glo), (ghi, None)):
        # finitely many: the limit is inside the gap, or ends it
        _, data2 = x.indices_within(lo, hi)
        for n in data2:
            p = x.point(n)
            if y.in_base(p):
                pts.append(p)
    return sorted(set(pts))
