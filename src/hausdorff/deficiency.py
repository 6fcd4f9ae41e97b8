"""Deficiency measurements.

Each measurement asks how far an object is from having a property and
answers with a dimension-measure pair: the dimension locates the scale
of the obstruction, the measure weighs it.  Three flavours of distance
from continuity (integrated oscillation, repair distance, cluster-set
size), distance from evenness, and, for finite planar scenes, distance
from convexity.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import lcm
from typing import Iterable

from .config import get_config
from .errors import NotRepresentable, NotSupported, ValidationError
from .hvalue import (DIM_ONE, DIM_TWO, ZERO_PAIR, ExtReal, HPair, Rational,
                     ext_sum)
from .hintegral import (Const, Expression, PiecewiseFunction, Poly,
                        SeriesValues, _support_pieces, _value_on,
                        abs_integral, add, h_integral, scalar_mul)
from .setalg import (Atom, CantorAffine, CountableSeq, FinitePoints,
                     Interval, RepSet, meeting_pairs)
from ._numeric import Fraction, _frac, exact_pow, sqrt_interval

__all__ = [
    "OscillationProfile", "oscillation",
    "defi_continuity_osc", "defi_continuity_dist", "defi_continuity_cluster",
    "cluster_set",
    "reflect_function", "defi_even",
    "Points2D", "Segment", "ConvexPolygon", "PlanarSet",
    "planar_measure", "convex_hull", "defi_convex",
]

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# oscillation

def _limits(f: PiecewiseFunction, op: str, at: Iterable = ()) -> dict:
    """{x: (f(x), left limits, right limits)} in increasing x, at every
    point where f can fail to be continuous and at the points of `at`.

    Those points are finitely many: piece endpoints, deleted points,
    point atoms and sequence accumulation points.  The points of a
    sequence are left to the callers, since there are infinitely many.
    A limit from one side is the value of the interval piece covering
    that side, or the ambient zero when none does, together with the
    limit of every sequence piece accumulating at x from that side.

    The pieces are disjoint, so an interval holds or covers a side of
    one of those points only at its own endpoints and deleted points:
    each term writes only at its own points, the points of `at` and, for
    a sequence, the points inside its hull.
    """
    points = set()
    for atom, _ in f.terms:
        if isinstance(atom, CantorAffine):
            raise NotRepresentable(
                f"{op}: a Cantor piece is discontinuous at uncountably "
                "many points, outside the supported class")
        if isinstance(atom, Interval):
            points |= {atom.lo, atom.hi, *atom.deletions} - {None}
        elif isinstance(atom, FinitePoints):
            points.update(atom.points)
        else:
            points.add(atom.a)
    at = {Fraction(x) for x in at}
    keys = sorted(points | at)
    value = dict.fromkeys(keys, ZERO)
    cover = {x: [ZERO, ZERO] for x in keys}
    tails = {x: (set(), set()) for x in keys}
    for atom, expr in f.terms:
        if isinstance(atom, Interval):
            lo, hi = atom.lo, atom.hi
            for x in at | ({lo, hi, *atom.deletions} - {None}):
                v = expr.value_at(x)
                if atom.member(x):
                    value[x] = v
                if (lo is None or lo < x) and (hi is None or hi >= x):
                    cover[x][0] = v
                if (lo is None or lo <= x) and (hi is None or hi > x):
                    cover[x][1] = v
        elif isinstance(atom, FinitePoints):
            for x in atom.points:
                value[x] = expr.value_at(x)
        else:
            lo, hi = atom.hull()
            for x in keys[bisect_left(keys, lo):bisect_right(keys, hi)]:
                if atom.member(x):
                    value[x] = _value_on(atom, expr, x)
            # every catalog series decays, so only a constant value
            # survives; the points lie on the side of a that b points to
            tail = expr.coeffs[0] if isinstance(expr, Poly) else ZERO
            tails[atom.a][atom.b > 0].add(tail)
    return {x: (value[x], {cover[x][0]} | tails[x][0],
                {cover[x][1]} | tails[x][1])
            for x in keys}


def _off_table(f: PiecewiseFunction, table: dict):
    """(sequence piece less the points of table, its expression) for each
    sequence term that is nonzero somewhere off the table.

    Off the table a sequence point has the ambient zero on both sides, so
    it oscillates by its |value| and clusters to {value, 0}; the table
    already holds omega and the cluster set at its own points.
    """
    keys = list(table)  # increasing
    for atom, expr in f.terms:
        if isinstance(atom, CountableSeq):
            lo, hi = atom.hull()
            rest = atom.with_deletions(
                keys[bisect_left(keys, lo):bisect_right(keys, hi)])
            if _support_pieces(rest, expr):
                yield rest, expr


def _abs_expression(expr: Expression) -> Expression:
    # a sequence atom carries a constant or series values
    if isinstance(expr, Poly):
        return Const(abs(expr.coeffs[0]))
    return SeriesValues(expr.series.abs_series())


@dataclass(frozen=True)
class OscillationProfile:
    """The oscillation of a function, recorded where it is nonzero.

    point_values lists (x, omega(x)) at the finitely many exceptional
    points; seq_values carries |value| expressions on sequence atoms,
    where omega at an interior sequence point is just the absolute value
    the function takes there.
    """

    point_values: tuple
    seq_values: tuple

    def is_empty(self) -> bool:
        return not self.point_values and not self.seq_values

    def as_function(self) -> PiecewiseFunction:
        by_value = {}
        for x, w in self.point_values:
            by_value.setdefault(w, []).append(x)
        terms = [(FinitePoints(xs), Const(w)) for w, xs in by_value.items()]
        terms.extend(self.seq_values)
        return PiecewiseFunction(terms)


def oscillation(f: PiecewiseFunction) -> OscillationProfile:
    """Pointwise oscillation omega(x) = lim sup - lim inf over shrinking
    neighbourhoods, collected into a representable profile.

    Supported class: interval, point, and sequence pieces.  Cantor
    pieces oscillate on an uncountable set and are rejected.
    """
    table = _limits(f, "oscillation")
    points = []
    for x, (value, left, right) in table.items():
        cluster = {value} | left | right
        w = max(cluster) - min(cluster)
        if w != 0:
            points.append((x, w))
    seq_entries = tuple((rest, _abs_expression(expr))
                        for rest, expr in _off_table(f, table))
    return OscillationProfile(tuple(points), seq_entries)


def defi_continuity_osc(f: PiecewiseFunction) -> HPair:
    """Integrated oscillation: (0, 0) exactly when f is continuous."""
    return h_integral(oscillation(f).as_function())


# ---------------------------------------------------------------------------
# repair distance

def defi_continuity_dist(f: PiecewiseFunction) -> HPair:
    """Distance to the nearest continuous function, graded by kind.

    (0, 0) when f is continuous; (0, total repair) when every
    discontinuity is removable, the measure summing the pointwise value
    corrections; (1, 0) as soon as one jump is essential.  Only interval
    and point pieces keep the discontinuity set finite, so sequence
    pieces fall outside this trichotomy.
    """
    for atom, _ in f.terms:
        if isinstance(atom, CountableSeq):
            raise NotSupported(
                "repair distance needs finitely many discontinuities; "
                "a sequence piece has infinitely many")
    total = ZERO
    # with no sequence piece, each side has the one limit
    for value, (l,), (r,) in _limits(f, "repair distance").values():
        if l != r:
            return HPair.of(1, 0)
        total += abs(value - l)
    return HPair.of(0, total)


# ---------------------------------------------------------------------------
# cluster sets

def cluster_set(f: PiecewiseFunction, x: Rational) -> RepSet:
    """All limit values of f(x_n) over sequences x_n -> x, x_n allowed to
    sit still.  Finite for the supported class, hence a point set."""
    table = _limits(f, "cluster sets", (x,))
    value, left, right = table[Fraction(x)]
    return RepSet.of(FinitePoints({value} | left | right))


def defi_continuity_cluster(f: PiecewiseFunction) -> HPair:
    """(0, sup_x |cluster set at x|): 1 for continuous f, larger values
    count the distinct limits a worst point admits."""
    table = _limits(f, "cluster sets")
    best = max((len({value} | left | right)
                for value, left, right in table.values()), default=1)
    if any(_off_table(f, table)):
        best = max(best, 2)
    return HPair.of(0, best)


# ---------------------------------------------------------------------------
# evenness

def _reflect_atom(atom: Atom) -> Atom:
    if isinstance(atom, FinitePoints):
        return FinitePoints(-p for p in atom.points)
    dels = tuple(-d for d in atom.deletions)
    if isinstance(atom, Interval):
        lo = None if atom.hi is None else -atom.hi
        hi = None if atom.lo is None else -atom.lo
        return Interval(lo, hi, dels)
    if isinstance(atom, CountableSeq):
        return CountableSeq(atom.family, -atom.a, -atom.b, atom.q, dels)
    # a Cantor copy: the constructor renormalises the negative scale
    return CantorAffine(-atom.t, -atom.s, dels)


def _reflect_expression(expr: Expression) -> Expression:
    if isinstance(expr, Poly):
        return Poly(c if i % 2 == 0 else -c
                    for i, c in enumerate(expr.coeffs))
    # sequence values follow their indices, and reflection maps the
    # n-th point to the n-th point
    return expr


def reflect_function(f: PiecewiseFunction) -> PiecewiseFunction:
    """The function x |-> f(-x), staying inside the catalog."""
    terms = [(_reflect_atom(atom), _reflect_expression(expr))
             for atom, expr in f.terms]
    return PiecewiseFunction(terms)


def defi_even(f: PiecewiseFunction) -> HPair:
    """Integral of |f(x) - f(-x)|: the zero pair exactly for even f."""
    diff = add(f, scalar_mul(-1, reflect_function(f)))
    return abs_integral(diff)


# ---------------------------------------------------------------------------
# planar scenes: the predicates run on int points, on the grid of _scaled

Point2 = tuple  # (Fraction, Fraction)


def _pt(p) -> Point2:
    x, y = p
    return (_frac(x), _frac(y))


def _scaled(points) -> tuple:
    """The Fraction points as ints, x times the lcm X of the x denominators
    and y times the lcm Y of the y ones, in order, then X and Y. That keeps
    order and equality, and multiplies cross products and areas by XY."""
    sx = lcm(*[x._denominator for x, _ in points])
    sy = lcm(*[y._denominator for _, y in points])
    return [(x._numerator * (sx // x._denominator),
             y._numerator * (sy // y._denominator)) for x, y in points], sx, sy


def _cross(o: Point2, a: Point2, b: Point2) -> int:
    """(a - o) x (b - o) of int points: positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_box(p: Point2, a: Point2, b: Point2) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_meet(p1, p2, p3, p4) -> bool:
    """Closed-segment intersection, endpoints included: a proper crossing
    when no end is on the other segment's line, else an end in its box."""
    d1, d2 = _cross(p3, p4, p1), _cross(p3, p4, p2)
    d3, d4 = _cross(p1, p2, p3), _cross(p1, p2, p4)
    if 0 not in (d1, d2, d3, d4):
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    return ((d1 == 0 and _in_box(p1, p3, p4))
            or (d2 == 0 and _in_box(p2, p3, p4))
            or (d3 == 0 and _in_box(p3, p1, p2))
            or (d4 == 0 and _in_box(p4, p1, p2)))


def _shoelace(verts: list) -> int:
    """Twice the signed area of the polygon of the int vertices."""
    return sum(verts[i - 1][0] * verts[i][1] - verts[i][0] * verts[i - 1][1]
               for i in range(len(verts)))


class PlanarAtom:
    """Base class; concrete atoms provide points(), the exact points
    that span the atom."""


@dataclass(frozen=True)
class Points2D(PlanarAtom):
    pts: tuple

    def __init__(self, pts: Iterable):
        seen = tuple(sorted({_pt(p) for p in pts}))
        if not seen:
            raise ValidationError("a planar point atom needs at least one point")
        object.__setattr__(self, "pts", seen)

    def points(self):
        return self.pts


@dataclass(frozen=True)
class Segment(PlanarAtom):
    a: Point2
    b: Point2

    def __init__(self, a, b):
        a, b = _pt(a), _pt(b)
        if a == b:
            raise ValidationError("degenerate segment")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def points(self):
        return (self.a, self.b)

    def length_squared(self) -> Fraction:
        dx = self.b[0] - self.a[0]
        dy = self.b[1] - self.a[1]
        return dx * dx + dy * dy

    def length(self) -> ExtReal:
        return _sqrt_ext(self.length_squared())


@dataclass(frozen=True)
class ConvexPolygon(PlanarAtom):
    """Filled convex polygon, vertices in counterclockwise order.

    Strict convexity: no repeated or collinear consecutive vertices.
    """

    vertices: tuple

    def __init__(self, vertices: Iterable):
        verts = tuple(_pt(p) for p in vertices)
        n = len(verts)
        if n < 3:
            raise ValidationError("a polygon needs at least three vertices")
        grid = _scaled(verts)[0]
        if any(_cross(grid[i - 2], grid[i - 1], grid[i]) <= 0
               for i in range(n)):
            raise ValidationError(
                "vertices must make strict counterclockwise turns")
        # rotate so the listing starts at the smallest vertex; equality
        # is then independent of the caller's starting point
        k = grid.index(min(grid))
        object.__setattr__(self, "vertices", verts[k:] + verts[:k])

    def points(self):
        return self.vertices

    def contains(self, p: Point2) -> bool:
        *verts, q = _scaled(self.vertices + (_pt(p),))[0]
        return _holds(self, verts, q)

    def area(self) -> Fraction:
        verts, sx, sy = _scaled(self.vertices)
        return Fraction(_shoelace(verts), 2 * sx * sy)


def _sqrt_ext(q: Fraction) -> ExtReal:
    root = exact_pow(q, Fraction(1, 2))
    if root is not None:
        return ExtReal.of(root)
    return ExtReal.interval(sqrt_interval(q, get_config().precision_bits))


def _holds(atom: PlanarAtom, pts: list, p: Point2) -> bool:
    """Whether a segment or polygon holds p, given its points pts on p's grid."""
    if isinstance(atom, Segment):
        return _cross(*pts, p) == 0 and _in_box(p, *pts)
    return all(_cross(pts[i - 1], pts[i], p) >= 0 for i in range(len(pts)))


def _sides(atom: PlanarAtom, pts: list) -> list:
    """A polygon's edges, a segment itself, or no side for point atoms."""
    if isinstance(atom, ConvexPolygon):
        return [(pts[i - 1], pts[i]) for i in range(len(pts))]
    return [pts] if isinstance(atom, Segment) else []


def _atoms_disjoint(a: PlanarAtom, pa: list, b: PlanarAtom, pb: list) -> bool:
    """Whether a and b, given their points on one grid, share no point:
    neither holds a point of the other (a point atom holds only its own),
    and no side of one (a polygon's edge, or a segment) meets the other's."""
    if isinstance(a, Points2D):
        a, pa, b, pb = b, pb, a, pa
    if isinstance(a, Points2D):
        return set(pa).isdisjoint(pb)
    if any(_holds(a, pa, p) for p in pb):
        return False
    if not isinstance(b, Points2D) and any(_holds(b, pb, p) for p in pa):
        return False
    return not any(_segments_meet(*u, *v)
                   for u in _sides(a, pa) for v in _sides(b, pb))


@dataclass(frozen=True)
class PlanarSet:
    """A finite disjoint union of planar atoms.

    The scene's points are put on one grid once, and each atom's box is
    read off it. A sweep over the x extents (meeting_pairs) finds the
    pairs whose boxes can meet, in (i, j) order, and a y test drops the
    rest; only the pairs left are tested exactly, so the first overlap
    reported is the one an all-pairs loop reports.
    """

    atoms: tuple
    # (each atom's points on the scene's grid, X, Y). A plain attribute,
    # not a field, so it stays out of ==, hash and repr.
    _grid = None

    def __init__(self, atoms: Iterable[PlanarAtom]):
        atoms = tuple(atoms)
        for atom in atoms:
            if not isinstance(atom, PlanarAtom):
                raise ValidationError(f"not a planar atom: {atom!r}")
        points = [atom.points() for atom in atoms]
        flat, X, Y = _scaled([p for pts in points for p in pts])
        grid, k = [], 0
        for pts in points:
            grid.append(flat[k:k + len(pts)])
            k += len(pts)
        boxes = [(min(xs), max(xs), min(ys), max(ys))
                 for xs, ys in (zip(*pts) for pts in grid)]
        for i, j in meeting_pairs([box[:2] for box in boxes]):
            if boxes[i][2] > boxes[j][3] or boxes[j][2] > boxes[i][3]:
                continue
            if not _atoms_disjoint(atoms[i], grid[i], atoms[j], grid[j]):
                raise ValidationError(
                    f"planar atoms overlap: {atoms[i]!r} and {atoms[j]!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_grid", (grid, X, Y))


def planar_measure(H: PlanarSet) -> HPair:
    """Dimension-measure pair of a planar scene: total area if any
    polygon is present, else total length, else point count."""
    grid, X, Y = H._grid
    polys = [pts for atom, pts in zip(H.atoms, grid)
             if isinstance(atom, ConvexPolygon)]
    segs = [a for a in H.atoms if isinstance(a, Segment)]
    pts = [a for a in H.atoms if isinstance(a, Points2D)]
    if polys:  # twice the areas, on the scene's grid
        twice = sum(abs(_shoelace(verts)) for verts in polys)
        return HPair(DIM_TWO, ExtReal.of(Fraction(twice, 2 * X * Y)))
    if segs:
        return HPair(DIM_ONE, ext_sum(s.length() for s in segs))
    count = sum(len(p.pts) for p in pts)
    return HPair.of(0, count)


def _hull_chain(H: PlanarSet) -> list:
    """The scene's hull on its grid, counterclockwise from the least
    point: that point alone, the two ends of a collinear scene, or more."""
    pts = sorted({p for pts in H._grid[0] for p in pts})
    if not pts:
        raise ValidationError("cannot take the hull of an empty scene")
    # monotone chain with strict turns, so collinear points drop out
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1] or pts  # one point


def convex_hull(H: PlanarSet) -> PlanarAtom:
    """Convex hull of a scene as a planar atom: a polygon in general
    position, degenerating to a segment or a single point."""
    _, X, Y = H._grid
    hull = [(Fraction(x, X), Fraction(y, Y)) for x, y in _hull_chain(H)]
    if len(hull) == 1:
        return Points2D(hull)
    if len(hull) == 2:
        return Segment(hull[0], hull[1])
    return ConvexPolygon(hull)


def defi_convex(H: PlanarSet) -> HPair:
    """Measure of hull(H) minus H; the zero pair exactly when H is a
    single convex atom.

    The hull's shape fixes the result's grade: a planar hull leaves an
    area, a collinear hull leaves a length, a single point leaves
    nothing.  A point-count answer would need the residual to be a
    finite nonempty point set, which a convex hull of disjoint atoms
    never produces.
    """
    hull = _hull_chain(H)
    grid, X, Y = H._grid
    if len(hull) == 1:
        return ZERO_PAIR
    if len(hull) == 2:
        (ax, ay), (bx, by) = hull
        dx, dy = Fraction(bx - ax, X), Fraction(by - ay, Y)
        denom = dx * dx + dy * dy
        covered = ZERO
        for atom in H.atoms:
            if isinstance(atom, Segment):
                sx = atom.b[0] - atom.a[0]
                sy = atom.b[1] - atom.a[1]
                # collinear with the hull, so one ratio determines it
                covered += abs(sx * dx + sy * dy) / denom
        gap = 1 - covered
        if gap == 0:
            return ZERO_PAIR
        return HPair(DIM_ONE, _sqrt_ext(gap * gap * denom))
    # the hull's area less the polygons', all on the scene's grid
    residual = _shoelace(hull) - sum(
        _shoelace(pts) for atom, pts in zip(H.atoms, grid)
        if isinstance(atom, ConvexPolygon))
    if residual == 0:
        return ZERO_PAIR
    return HPair(DIM_TWO, ExtReal.of(Fraction(residual, 2 * X * Y)))
