"""Independent numerical cross-checks for the exact engine.

Box-counting dimension estimates, cover premeasure sums and rigorous
quadrature.  The oracle consumes the catalog data types but
reimplements every computation from scratch: covers are built
structurally from the atom definitions (no sampling), and quadrature
carries an explicit error bound.  Agreement with the exact engine is
evidence, not circularity.
"""

import math
from typing import Sequence, Tuple

from .config import get_config
from .errors import Unbounded, ValidationError
from .hvalue import Dimension
from .hintegral import PiecewiseFunction
from .setalg import (HARMONIC, Atom, CountableSeq, FinitePoints, Interval,
                     RepSet)
from ._numeric import (Fraction, RatInterval, exact_pow, geo_steps,
                       log_interval, pow_interval, power_index)
from ._value import frozen

__all__ = [
    "CoverReport", "box_dim_estimate", "premeasure_estimate", "quadrature",
]


@frozen
class CoverReport:
    """One depth of a structural cover: how many boxes, and how large."""

    depth: int
    box_count: int
    box_size: Fraction


# ---------------------------------------------------------------------------
# structural covers

def _interval_boxes(atom: Interval, delta: Fraction) -> int:
    if atom.lo is None or atom.hi is None:
        raise Unbounded(f"cannot cover the unbounded interval {atom!r}")
    return math.ceil((atom.hi - atom.lo) / delta)


def _points_boxes(atom: FinitePoints, delta: Fraction) -> int:
    count, edge = 0, None
    for p in atom.points:  # sorted on construction
        if edge is None or p > edge:
            count += 1
            edge = p + delta
    return count


def _sequence_boxes(atom: CountableSeq, delta: Fraction) -> int:
    """Points with gaps wider than delta get their own boxes; the rest
    crowd into a block at the accumulation point, covered like an
    interval.  Mirroring makes the down-going case match the up-going
    one, and deleting finitely many points never enlarges the cover."""
    b = abs(atom.b)
    if atom.family == HARMONIC:
        # gap between consecutive points is b / (n (n + 1))
        # m is the largest n with n (n + 1) < r; (isqrt(floor r) + 1)**2
        # exceeds r, so the search only steps down
        r = b / delta
        m = math.isqrt(max(int(r), 0))
        while m >= 1 and m * (m + 1) >= r:
            m -= 1
        tail = b / (m + 1)
    else:
        # gap is b q^n (1 - q)
        # m counts the n >= 1 with q^n above the threshold
        threshold = delta / (b * (1 - atom.q))
        m = max(1, geo_steps(atom.q, threshold, strict=False)) - 1
        tail = b * atom.q ** (m + 1)
    return m + math.ceil(tail / delta)


def _atom_cover(atom: Atom, depth: int) -> Tuple[int, Fraction]:
    """(box count, box diameter) for one atom at one depth."""
    delta = Fraction(1, 3 ** depth)
    if isinstance(atom, Interval):
        return _interval_boxes(atom, delta), delta
    if isinstance(atom, FinitePoints):
        return _points_boxes(atom, delta), delta
    if isinstance(atom, CountableSeq):
        return _sequence_boxes(atom, delta), delta
    # a Cantor copy: the depth-k construction stage, 2^k intervals of
    # width s 3^-k
    return 2 ** depth, atom.s * delta


def _covers(s: RepSet, depth: int) -> dict:
    """{box diameter: box count}: atoms of one diameter pool their counts,
    and a*c1 + a*c2 = a*(c1 + c2) takes each power once."""
    if s.is_empty():
        raise ValidationError("cannot cover the empty set")
    counts = {}
    for atom in s.atoms:
        count, diam = _atom_cover(atom, depth)
        counts[diam] = counts.get(diam, 0) + count
    return counts


def _pow_dim(x: Fraction, d: Dimension, prec: int) -> RatInterval:
    """Enclosure of x**d for a cover diameter x > 0, exact whenever the
    arithmetic allows it."""
    if d.is_rational():
        exact = exact_pow(x, d.as_fraction())
        if exact is not None:
            return RatInterval.point(exact)
    elif d.rat == 0 and len(d.logs) == 1:
        # x = q^e turns x^(c log p / log q) into p^(c e)
        (p, q), coef = d.logs[0]
        e = power_index(x, q)
        if e is not None and (coef * e).denominator == 1:
            return RatInterval.point(Fraction(p) ** (coef * e))
    return pow_interval(x, d.enclosure(prec), prec)


def premeasure_estimate(s: RepSet, d, depth: int) -> RatInterval:
    """Sum of diameter**d over the depth-k structural cover: an upper
    view of the d-dimensional measure at that scale."""
    d = d if isinstance(d, Dimension) else Dimension.rational(d)
    prec = get_config().precision_bits
    return sum((_pow_dim(diam, d, prec) * count
                for diam, count in _covers(s, depth).items()),
               RatInterval.point(0))


def _centred(vs: Sequence[RatInterval], den: int) -> list:
    """n*den*(v - mean v) for each enclosure v, as an integer interval."""
    los = [v.lo.numerator * (den // v.lo.denominator) for v in vs]
    his = [v.hi.numerator * (den // v.hi.denominator) for v in vs]
    n, lo_sum, hi_sum = len(vs), sum(los), sum(his)
    return [(n * lo - hi_sum, n * hi - lo_sum) for lo, hi in zip(los, his)]


def _dot(us: list, vs: list) -> Tuple[int, int]:
    """Sum of integer interval products, each the min and max of four."""
    products = [(a * c, a * d, b * c, b * d) for (a, b), (c, d) in zip(us, vs)]
    return sum(map(min, products)), sum(map(max, products))


def box_dim_estimate(s: RepSet, depths: Sequence[int]):
    """Least-squares slope of log N(delta) against log(1/delta) over
    structural covers, as a certified interval, plus the per-depth
    reports.

    Box counting sees closure: a sequence crowding into its limit point
    fills boxes there, so accumulating sequences report a strictly
    larger slope than the dimension their measure pair carries.  The
    isolated atom kinds (intervals, finite point sets, Cantor pieces)
    agree with the exact dimension.  The regression is exact, on
    integers over one common denominator of the dyadic log enclosures;
    only the slope's two ends are Fractions.
    """
    depths = sorted(set(int(k) for k in depths))
    if len(depths) < 2:
        raise ValidationError("slope estimation needs at least two depths")
    if any(k < 1 for k in depths):
        raise ValidationError("cover depths start at 1")
    prec = get_config().precision_bits
    sized = []
    for k in depths:
        covers = _covers(s, k)
        sized.append((k, sum(covers.values()), max(covers)))
    xs = [log_interval(1 / mesh, prec) for _, _, mesh in sized]
    ys = [log_interval(count, prec) for _, count, _ in sized]
    den = math.lcm(*(e.denominator for v in xs + ys for e in (v.lo, v.hi)))
    cx, cy = _centred(xs, den), _centred(ys, den)
    sxy, sxx = _dot(cx, cy), _dot(cx, cx)
    if sxx[0] <= 0:
        raise ValidationError("interval reciprocal needs a positive interval")
    # sxy * [1/sxx.hi, 1/sxx.lo]: each end takes the outermost quotient
    slope = RatInterval(Fraction(sxy[0], sxx[1] if sxy[0] >= 0 else sxx[0]),
                        Fraction(sxy[1], sxx[0] if sxy[1] >= 0 else sxx[1]))
    return slope, [CoverReport(*row) for row in sized]


# ---------------------------------------------------------------------------
# quadrature

def _second_derivative_bound(coeffs: Sequence[Fraction],
                             lo: Fraction, hi: Fraction) -> Fraction:
    big = max(abs(lo), abs(hi))
    bound = Fraction(0)
    for j in range(2, len(coeffs)):
        bound += abs(coeffs[j]) * j * (j - 1) * big ** (j - 2)
    return bound


def _power_sums(n: int, top: int) -> list:
    """S_k(n) = sum of i**k over 0 <= i < n, for k = 0..top, from the
    integer recurrence n**(k+1) = sum over j <= k of C(k+1, j) S_j(n)."""
    sums = []
    for k in range(top + 1):
        rest = sum(math.comb(k + 1, j) * s_j for j, s_j in enumerate(sums))
        sums.append((n ** (k + 1) - rest) // (k + 1))
    return sums


def quadrature(f: PiecewiseFunction, region: Interval, n: int) -> RatInterval:
    """Composite midpoint rule over the polynomial pieces meeting the
    region, with the textbook second-derivative error bound.  The
    returned interval contains the exact length integral; pieces of
    length zero (points, sequences, dust) contribute nothing to it.  The
    composite midpoint sum is summed in closed form, by power sums of the
    panel index, so its cost does not depend on the panel count."""
    if region.lo is None or region.hi is None:
        raise ValidationError("quadrature needs a bounded region")
    if n < 1:
        raise ValidationError("quadrature needs at least one panel")
    total = RatInterval.point(0)
    for atom, expr in f.terms:
        if not isinstance(atom, Interval):
            continue
        lo = region.lo if atom.lo is None else max(atom.lo, region.lo)
        hi = region.hi if atom.hi is None else min(atom.hi, region.hi)
        if lo >= hi:
            continue
        h = Fraction(hi - lo, n)
        # p(m + h i) = sum of q_k i**k by Horner in i, m the first midpoint
        m, q = lo + h / 2, []
        for c in reversed(expr.coeffs):  # q(i) <- q(i) * (m + h i) + c
            q = [m * a + h * b for a, b in zip(q + [0], [0] + q)]
            q[0] += c
        mid_sum = h * sum(a * s_k for a, s_k in zip(q, _power_sums(n, len(q) - 1)))
        err = ((hi - lo) * h * h
               * _second_derivative_bound(expr.coeffs, lo, hi) / 24)
        total = total + RatInterval(mid_sum - err, mid_sum + err)
    return total
