"""Deficiency measurements: distance from continuity, evenness, convexity."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from hausdorff import deficiency
from hausdorff._numeric import Fraction
from hausdorff.deficiency import (ConvexPolygon, PlanarSet, Points2D, Segment,
                                  _cross, _pt, _scaled, cluster_set,
                                  convex_hull, defi_continuity_cluster,
                                  defi_continuity_dist, defi_continuity_osc,
                                  defi_convex, defi_even, oscillation,
                                  planar_measure, reflect_function)
from hausdorff.errors import (HausdorffError, NotRepresentable, NotSupported,
                              ValidationError)
from hausdorff.hintegral import (Const, PiecewiseFunction, Poly, SeriesValues,
                                 add, h_integral)
from hausdorff.hvalue import (DIM_CANTOR, Dimension, ExtReal, FiniteList,
                              Geometric, HPair, PSeries)
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CantorAffine, CountableSeq,
                              FinitePoints, Interval, RepSet)


def pair(d, m):
    return HPair.of(d, m)


HARM = CountableSeq(HARMONIC, 0, 1)


# ---------------------------------------------------------------------------
# oscillation

def test_step_function_oscillation():
    step = PiecewiseFunction([(Interval(0, None), Const(1))])
    prof = oscillation(step)
    assert prof.point_values == ((F(0), F(1)),)
    assert defi_continuity_osc(step) == pair(0, 1)


def test_oscillation_of_continuous_ramp_vanishes():
    # x - x^2 is 0 at both endpoints, so gluing to the ambient is seamless
    tent = PiecewiseFunction([(Interval(0, 1), Poly([0, 1, -1]))])
    assert oscillation(tent).is_empty()
    assert defi_continuity_osc(tent) == pair(0, 0)


def test_ramp_with_cliff_oscillates_at_the_cliff():
    ramp = PiecewiseFunction([(Interval(0, 1), Poly([0, 1]))])
    prof = oscillation(ramp)
    assert prof.point_values == ((F(1), F(1)),)
    assert prof.as_function().value_at(0) == 0


def test_geometric_values_on_harmonic_points():
    g = PiecewiseFunction([(HARM, SeriesValues(Geometric(F(1, 2), F(1, 2))))])
    prof = oscillation(g)
    # terms vanish toward the accumulation point, so omega(0) = 0
    assert prof.as_function().value_at(0) == 0
    assert prof.as_function().value_at(F(1, 3)) == F(1, 8)
    assert defi_continuity_osc(g) == pair(0, 1)
    # a negative p-series oscillates by its absolute values
    zeta = PiecewiseFunction([(HARM, SeriesValues(PSeries(-1, 2)))])
    assert oscillation(zeta).seq_values == ((HARM,
                                             SeriesValues(PSeries(1, 2))),)


def test_constant_sequence_value_oscillates_at_the_limit():
    g = PiecewiseFunction([(HARM, Const(3))])
    prof = oscillation(g)
    assert prof.as_function().value_at(0) == 3
    assert defi_continuity_osc(g).m.is_finite() is False


def test_interval_endpoint_owned_away_from_sequence():
    # the interval owns 1/2, so that index leaves the sequence entry and
    # gets a pointwise omega instead
    seq = CountableSeq(HARMONIC, 0, 1, deletions=[F(1, 2), 1])
    f = PiecewiseFunction([(seq, Const(3)), (Interval(F(1, 2), 2), Const(7))])
    prof = oscillation(f)
    assert prof.as_function().value_at(F(1, 2)) == 7
    assert prof.as_function().value_at(F(1, 3)) == 3
    (atom, _), = prof.seq_values
    assert F(1, 2) in atom.deletions
    # profile atoms stay disjoint, so integrating it is legal
    h_integral(prof.as_function())


def test_oscillation_rejects_cantor_pieces():
    dust = PiecewiseFunction([(CantorAffine(0, 1), Const(2))])
    with pytest.raises(NotRepresentable):
        oscillation(dust)


def test_profile_as_function_groups_equal_heights():
    f = PiecewiseFunction([(FinitePoints([0, 5]), Const(2)),
                           (FinitePoints([1]), Const(-2))])
    g = oscillation(f).as_function()
    assert g.value_at(0) == 2 and g.value_at(1) == 2 and g.value_at(5) == 2
    assert len(g.terms) == 1


# ---------------------------------------------------------------------------
# repair distance

def test_jump_is_an_essential_discontinuity():
    step = PiecewiseFunction([(Interval(0, None), Const(1))])
    assert defi_continuity_dist(step) == pair(1, 0)


def test_point_spikes_are_removable():
    f = PiecewiseFunction([(FinitePoints([0]), Const(5)),
                           (FinitePoints([2]), Const(-1))])
    assert defi_continuity_dist(f) == pair(0, 6)


def test_matching_side_limits_with_wrong_value():
    # 1 - x^2 vanishes at the cut points, so only the carved-out origin
    # with its stray value needs repair
    f = PiecewiseFunction([(Interval(-1, 1, deletions=[0]), Poly([1, 0, -1])),
                           (FinitePoints([0]), Const(9))])
    assert defi_continuity_dist(f) == pair(0, 8)


def test_continuous_function_needs_no_repair():
    tent = PiecewiseFunction([(Interval(0, 1), Poly([0, 1, -1]))])
    assert defi_continuity_dist(tent) == pair(0, 0)


def test_repair_distance_rejects_sequence_pieces():
    g = PiecewiseFunction([(HARM, SeriesValues(Geometric(F(1, 2), F(1, 2))))])
    with pytest.raises(NotSupported):
        defi_continuity_dist(g)


# ---------------------------------------------------------------------------
# cluster sets

def test_step_cluster_set_at_the_jump():
    step = PiecewiseFunction([(Interval(0, None), Const(1))])
    assert cluster_set(step, 0) == RepSet.of(FinitePoints([0, 1]))
    assert cluster_set(step, 7) == RepSet.of(FinitePoints([1]))
    assert defi_continuity_cluster(step) == pair(0, 2)


def test_three_way_cluster():
    f = PiecewiseFunction([(Interval(None, 0, deletions=[0]), Const(-1)),
                           (Interval(0, None, deletions=[0]), Const(1)),
                           (FinitePoints([0]), Const(5))])
    assert cluster_set(f, 0) == RepSet.of(FinitePoints([-1, 1, 5]))
    assert defi_continuity_cluster(f) == pair(0, 3)


def test_continuous_cluster_sets_are_singletons():
    tent = PiecewiseFunction([(Interval(0, 1), Poly([0, 1, -1]))])
    assert defi_continuity_cluster(tent) == pair(0, 1)
    assert cluster_set(tent, F(1, 2)) == RepSet.of(FinitePoints([F(1, 4)]))


def test_sequence_points_cluster_against_the_ambient():
    g = PiecewiseFunction([(HARM, Const(3))])
    assert defi_continuity_cluster(g) == pair(0, 2)


def test_a_value_only_on_a_deleted_point_is_continuous():
    # the one nonzero value sits on the deleted first point: f is 0
    seq = CountableSeq(HARMONIC, 0, 1, deletions=[1])
    f = PiecewiseFunction([(seq, SeriesValues(FiniteList([1])))])
    assert oscillation(f).is_empty()
    assert defi_continuity_osc(f) == pair(0, 0)
    assert defi_continuity_cluster(f) == pair(0, 1)


def test_a_sequence_point_the_interval_meets_continuously():
    # x(1 - x) on [0, 1] less 1/2, and the sequence 2 - 3/(2n) carries
    # its value 1/4 at n = 1 and 0 after: f is x(1 - x) on [0, 1]
    ramp = (Interval(0, 1, [F(1, 2)]), Poly([0, 1, -1]))
    seq = (CountableSeq(HARMONIC, 2, F(-3, 2)),
           SeriesValues(FiniteList([F(1, 4)])))
    f = PiecewiseFunction([ramp, seq])
    assert oscillation(f).is_empty()
    assert defi_continuity_osc(f) == pair(0, 0)
    assert defi_continuity_cluster(f) == pair(0, 1)
    # a second value at n = 2, off the table, oscillates by itself
    g = PiecewiseFunction([ramp, (seq[0], SeriesValues(FiniteList([F(1, 4),
                                                                    5])))])
    assert defi_continuity_osc(g) == pair(0, 5)
    assert defi_continuity_cluster(g) == pair(0, 2)


def test_cantor_refusals_name_the_entry_point():
    dust = PiecewiseFunction([(Interval(None, -1), Const(1)),
                              (CantorAffine(0, 1), Const(2))])
    tail = ("a Cantor piece is discontinuous at uncountably many points, "
            "outside the supported class")
    for call, op in ((oscillation, "oscillation"),
                     (defi_continuity_osc, "oscillation"),
                     (defi_continuity_dist, "repair distance"),
                     (defi_continuity_cluster, "cluster sets"),
                     (lambda f: cluster_set(f, 5), "cluster sets")):
        with pytest.raises(NotRepresentable) as err:
            call(dust)
        assert str(err.value) == f"{op}: {tail}"


def test_repair_distance_refuses_a_sequence_before_a_cantor_piece():
    f = PiecewiseFunction([(CantorAffine(0, 1), Const(2)),
                           (CountableSeq(HARMONIC, 3, 1), Const(1))])
    with pytest.raises(NotSupported) as err:
        defi_continuity_dist(f)
    assert str(err.value) == ("repair distance needs finitely many "
                              "discontinuities; a sequence piece has "
                              "infinitely many")


# ---------------------------------------------------------------------------
# the limit table against the scan it replaced: every candidate point
# scanned every term, once for its value and once for each side

def ref_candidates(f):
    cands = set()
    for atom, _ in f.terms:
        if isinstance(atom, Interval):
            cands |= {atom.lo, atom.hi, *atom.deletions} - {None}
        elif isinstance(atom, FinitePoints):
            cands.update(atom.points)
        elif isinstance(atom, CountableSeq):
            cands.add(atom.a)
    return sorted(cands)


def ref_one_side(f, x, right):
    vals = set()
    covered = False
    for atom, expr in f.terms:
        if isinstance(atom, Interval):
            lo, hi = atom.lo, atom.hi
            if right:
                touches = (lo is None or lo <= x) and (hi is None or hi > x)
            else:
                touches = (lo is None or lo < x) and (hi is None or hi >= x)
            if touches:
                covered = True
                vals.add(expr.value_at(x))
        elif isinstance(atom, CountableSeq):
            if atom.a == x and (atom.b > 0) == right:
                vals.add(expr.coeffs[0] if isinstance(expr, Poly) else F(0))
    if not covered:
        vals.add(F(0))
    return vals


def ref_cluster(f, x):
    return ({f.value_at(x)} | ref_one_side(f, x, right=True)
            | ref_one_side(f, x, right=False))


def _rand_touching(rng):
    """Pieces on a half-integer grid that share endpoints: intervals
    (unbounded at either end, with deleted endpoints or midpoints)
    carrying polynomials, sequences accumulating at a cut from either
    side, and point atoms on cuts and deleted midpoints.  A cut is owned
    by at most one piece, so the pieces are disjoint by construction."""
    cuts = sorted(rng.sample([F(k, 2) for k in range(-8, 9)],
                             rng.randint(2, 5)))
    gaps = list(zip(cuts, cuts[1:]))
    if rng.random() < 0.3:
        gaps.insert(0, (None, cuts[0]))
    if rng.random() < 0.3:
        gaps.append((cuts[-1], None))
    terms, owned, free = [], set(), set(cuts)
    for lo, hi in gaps:
        kind = rng.choice("IIS.")
        if kind == "I":
            ends = {lo, hi} - {None}
            dels = {e for e in ends if e in owned or rng.random() < 0.4}
            if None not in (lo, hi) and rng.random() < 0.4:
                dels.add((lo + hi) / 2)
                free.add((lo + hi) / 2)
            owned |= ends - dels
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            terms.append((Interval(lo, hi, dels), Poly(coeffs)))
        elif kind == "S" and None not in (lo, hi):
            # a step of the whole gap puts the first point on a cut
            step = (hi - lo) / rng.choice([1, 2, 3])
            a, b = (lo, step) if rng.random() < 0.5 else (hi, -step)
            if a + b in owned:
                continue
            owned.add(a + b)
            if rng.random() < 0.5:
                seq = CountableSeq(HARMONIC, a, b)
            else:
                seq = CountableSeq(GEOMETRIC, a, b, F(1, 2))
            expr = rng.choice([Const(rng.choice([-2, 1, 3])),
                               SeriesValues(Geometric(1, F(1, 2))),
                               SeriesValues(FiniteList([2, -1]))])
            terms.append((seq, expr))
    for x in sorted(free - owned):
        if rng.random() < 0.5:
            terms.append((FinitePoints([x]), Const(rng.choice([-1, 2, 5]))))
    return PiecewiseFunction(terms)


def test_limit_table_matches_the_scan():
    rng = random.Random(2111)
    for _ in range(300):
        f = _rand_touching(rng)
        cands = ref_candidates(f)
        points = [(x, max(c) - min(c))
                  for x, c in ((x, ref_cluster(f, x)) for x in cands)]
        points = tuple((x, w) for x, w in points if w != 0)
        prof = oscillation(f)
        assert prof.point_values == points
        seqs = tuple(atom.with_deletions(x for x, _ in points)
                     for atom, _ in f.terms
                     if isinstance(atom, CountableSeq))
        assert tuple(atom for atom, _ in prof.seq_values) == seqs
        has_seq = bool(seqs)
        best = max([1] + [len(ref_cluster(f, x)) for x in cands])
        assert defi_continuity_cluster(f) == pair(0, max(best, 2 * has_seq))
        if not has_seq:
            limits = [(f.value_at(x), ref_one_side(f, x, False).pop(),
                       ref_one_side(f, x, True).pop()) for x in cands]
            if any(left != right for _, left, right in limits):
                want = pair(1, 0)
            else:
                want = pair(0, sum(abs(v - left) for v, left, _ in limits))
            assert defi_continuity_dist(f) == want
        # the seq points, a grid off the cuts and the cuts themselves
        probes = cands + [F(rng.randint(-40, 40), 4) for _ in range(4)]
        probes += [atom.point(k) for atom, _ in f.terms
                   if isinstance(atom, CountableSeq) for k in (1, 2)]
        for x in probes:
            assert cluster_set(f, x) == RepSet.of(
                FinitePoints(ref_cluster(f, x)))
            want = dict(points).get(x)
            if want is None:
                want = abs(f.value_at(x)) if any(
                    atom.member(x) for atom, _ in prof.seq_values) else 0
            assert prof.as_function().value_at(x) == want


# ---------------------------------------------------------------------------
# evenness

def test_odd_ramp_even_deficiency():
    ramp = PiecewiseFunction([(Interval(0, 1), Poly([0, 1]))])
    assert defi_even(ramp) == pair(1, 1)


def test_single_point_even_deficiency():
    one = PiecewiseFunction([(FinitePoints([1]), Const(1))])
    assert defi_even(one) == pair(0, 2)


def test_even_polynomial_passes():
    sym = PiecewiseFunction([(Interval(-1, 1), Poly([0, 0, 1]))])
    assert defi_even(sym) == pair(0, 0)


def test_cantor_dust_reflection():
    asym = PiecewiseFunction([(CantorAffine(0, 1), Const(2))])
    assert defi_even(asym) == HPair.of(DIM_CANTOR, 4)
    sym = PiecewiseFunction([(CantorAffine(F(-1, 2), 1), Const(2))])
    assert defi_even(sym) == pair(0, 0)


def test_reflection_is_an_involution():
    f = PiecewiseFunction([
        (Interval(1, 3, deletions=[2]), Poly([1, -1, 2])),
        (FinitePoints([-5, 5]), Const(2)),
        (CountableSeq(GEOMETRIC, 1, -1, F(1, 3)), SeriesValues(PSeries(2, 2))),
        (CantorAffine(4, F(1, 2)), Const(1)),
    ])
    assert reflect_function(reflect_function(f)) == f


def test_reflection_preserves_values():
    rng = random.Random(20)
    f = PiecewiseFunction([
        (Interval(F(3, 2), 3), Poly([1, 2, -1])),
        (FinitePoints([-2, 5]), Const(4)),
        (HARM, SeriesValues(Geometric(1, F(1, 2)))),
    ])
    g = reflect_function(f)
    for _ in range(200):
        x = F(rng.randint(-12, 12), rng.randint(1, 9))
        assert g.value_at(-x) == f.value_at(x)


def test_symmetrised_function_is_even():
    f = PiecewiseFunction([(Interval(1, 2), Poly([0, 1])),
                           (FinitePoints([3]), Const(4))])
    h = add(f, reflect_function(f))
    assert defi_even(h) == pair(0, 0)


# ---------------------------------------------------------------------------
# brute-force agreement on step functions

def _rand_step(rng):
    """Step function on a half-integer grid; every interval piece deletes
    both endpoints and cut values ride on point atoms, so the pieces are
    disjoint by construction."""
    cuts = sorted(rng.sample([F(k, 2) for k in range(-12, 13)],
                             rng.randint(2, 6)))
    terms = []
    for lo, hi in zip(cuts, cuts[1:]):
        c = rng.randint(-3, 3)
        if c:
            terms.append((Interval(lo, hi, deletions=(lo, hi)), Const(c)))
    for x in cuts:
        v = rng.randint(-3, 3)
        if v:
            terms.append((FinitePoints([x]), Const(v)))
    return PiecewiseFunction(terms), cuts


DELTA = F(1, 8)  # clears the grid spacing, probes land inside the gaps


def test_random_steps_oscillation_matches_probes():
    rng = random.Random(101)
    for _ in range(120):
        f, cuts = _rand_step(rng)
        total = F(0)
        prof = oscillation(f)
        for x in cuts:
            vals = {f.value_at(x - DELTA), f.value_at(x), f.value_at(x + DELTA)}
            w = max(vals) - min(vals)
            assert prof.as_function().value_at(x) == w
            total += w
        assert defi_continuity_osc(f) == pair(0, total)


def test_random_steps_repair_matches_probes():
    rng = random.Random(102)
    for _ in range(120):
        f, cuts = _rand_step(rng)
        if any(f.value_at(x - DELTA) != f.value_at(x + DELTA) for x in cuts):
            assert defi_continuity_dist(f) == pair(1, 0)
        else:
            repair = sum(abs(f.value_at(x) - f.value_at(x - DELTA))
                         for x in cuts)
            assert defi_continuity_dist(f) == pair(0, repair)


def test_random_steps_cluster_matches_probes():
    rng = random.Random(103)
    for _ in range(120):
        f, cuts = _rand_step(rng)
        best = 1
        for x in cuts:
            best = max(best, len({f.value_at(x - DELTA), f.value_at(x),
                                  f.value_at(x + DELTA)}))
        assert defi_continuity_cluster(f) == pair(0, best)


def test_random_steps_even_deficiency_matches_probes():
    rng = random.Random(104)
    for _ in range(120):
        f, cuts = _rand_step(rng)
        grid = sorted({c for c in cuts} | {-c for c in cuts})
        length = F(0)
        for lo, hi in zip(grid, grid[1:]):
            mid = (lo + hi) / 2
            length += (hi - lo) * abs(f.value_at(mid) - f.value_at(-mid))
        if length:
            assert defi_even(f) == pair(1, length)
        else:
            spikes = sum(abs(f.value_at(x) - f.value_at(-x)) for x in grid)
            assert defi_even(f) == pair(0, spikes)


# ---------------------------------------------------------------------------
# planar scenes

def test_planar_measure_grades_by_top_kind():
    scene = PlanarSet([ConvexPolygon([(0, 0), (2, 0), (1, 2)]),
                       Segment((5, 0), (5, 3)),
                       Points2D([(9, 9)])])
    assert planar_measure(scene) == pair(2, 2)
    assert planar_measure(PlanarSet([Segment((0, 0), (3, 4))])) == pair(1, 5)
    assert planar_measure(PlanarSet([Points2D([(0, 0), (1, 1)])])) == pair(0, 2)
    assert planar_measure(PlanarSet([])) == pair(0, 0)


def test_irrational_segment_length_is_enclosed():
    p = planar_measure(PlanarSet([Segment((0, 0), (1, 1))]))
    enc = p.m.enclosure()
    assert enc.lo ** 2 < 2 < enc.hi ** 2


def test_planar_atoms_must_be_disjoint():
    with pytest.raises(ValidationError):
        PlanarSet([Segment((0, 0), (2, 2)), Segment((0, 2), (2, 0))])
    with pytest.raises(ValidationError):
        PlanarSet([ConvexPolygon([(0, 0), (4, 0), (0, 4)]),
                   Points2D([(1, 1)])])
    with pytest.raises(ValidationError):
        PlanarSet([ConvexPolygon([(0, 0), (4, 0), (0, 4)]),
                   Segment((0, 0), (-1, -1))])  # touches at a vertex
    with pytest.raises(ValidationError):
        PlanarSet([ConvexPolygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
                   ConvexPolygon([(2, 2), (6, 2), (6, 6), (2, 6)])])
    # only one end of the second segment touches the first
    for touching in (Segment((1, 0), (1, 1)), Segment((1, -1), (1, 0))):
        with pytest.raises(ValidationError, match="planar atoms overlap"):
            PlanarSet([Segment((0, 0), (2, 0)), touching])
    # an atom strictly inside a polygon, listed before or after it
    square = ConvexPolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    for inner in (Segment((1, 1), (2, 1)), ConvexPolygon([(1, 1), (2, 1), (1, 2)])):
        for atoms in ([inner, square], [square, inner]):
            with pytest.raises(ValidationError, match="planar atoms overlap"):
                PlanarSet(atoms)


def ref_cross(o, a, b):
    """The orientation test in Fraction arithmetic: (a - o) x (b - o)."""
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def ref_in_box(p, a, b):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def ref_segments_meet(p1, p2, p3, p4):
    """The closed segments p1p2 and p3p4 cross properly, or an end of one
    lies on the other."""
    d1, d2 = ref_cross(p3, p4, p1), ref_cross(p3, p4, p2)
    d3, d4 = ref_cross(p1, p2, p3), ref_cross(p1, p2, p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return ((d1 == 0 and ref_in_box(p1, p3, p4))
            or (d2 == 0 and ref_in_box(p2, p3, p4))
            or (d3 == 0 and ref_in_box(p3, p1, p2))
            or (d4 == 0 and ref_in_box(p4, p1, p2)))


def ref_edges(vertices):
    return [(vertices[i - 1], vertices[i]) for i in range(len(vertices))]


def ref_contains(vertices, p):
    """p lies in the filled polygon of the counterclockwise vertices."""
    return all(ref_cross(u, v, p) >= 0 for u, v in ref_edges(vertices))


def ref_atoms_disjoint(a, b):
    """The exact pair test in Fraction arithmetic, with no bounding box."""
    if isinstance(b, Points2D) and not isinstance(a, Points2D):
        a, b = b, a
    if isinstance(b, Segment) and isinstance(a, ConvexPolygon):
        a, b = b, a
    if isinstance(a, Points2D):
        if isinstance(b, Points2D):
            return not set(a.pts) & set(b.pts)
        if isinstance(b, Segment):
            return not any(ref_cross(b.a, b.b, p) == 0
                           and ref_in_box(p, b.a, b.b) for p in a.pts)
        return not any(ref_contains(b.vertices, p) for p in a.pts)
    if isinstance(a, Segment):
        if isinstance(b, Segment):
            return not ref_segments_meet(a.a, a.b, b.a, b.b)
        if ref_contains(b.vertices, a.a) or ref_contains(b.vertices, a.b):
            return False
        return not any(ref_segments_meet(a.a, a.b, u, v)
                       for u, v in ref_edges(b.vertices))
    if any(ref_contains(b.vertices, p) for p in a.vertices):
        return False
    if any(ref_contains(a.vertices, p) for p in b.vertices):
        return False
    return not any(ref_segments_meet(u, v, s, t)
                   for u, v in ref_edges(a.vertices)
                   for s, t in ref_edges(b.vertices))


def ref_planar_set(atoms):
    """The all-pairs loop: the scene's atoms, or the first overlap."""
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if not ref_atoms_disjoint(atoms[i], atoms[j]):
                return f"planar atoms overlap: {atoms[i]!r} and {atoms[j]!r}"
    return tuple(atoms)


def _rand_planar_atom(rng):
    """A small atom on a coarse grid, so atoms touch, nest and cross."""
    def pt():
        return (F(rng.randrange(0, 21), 2), F(rng.randrange(0, 21), 2))
    kind = rng.randrange(3)
    if kind == 0:
        return Points2D(pt() for _ in range(rng.randrange(1, 5)))
    (x, y), w, h = pt(), F(rng.randrange(-3, 4), 2), F(rng.randrange(1, 4), 2)
    if kind == 1:
        return Segment((x, y), (x + w, y + h))
    w = abs(w) or h
    if rng.random() < 0.5:
        return ConvexPolygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
    return ConvexPolygon([(x, y), (x + w, y), (x, y + h)])


def test_planar_set_matches_the_all_pairs_loop():
    rng = random.Random(1976)
    accepted = 0
    for _ in range(600):
        atoms = [_rand_planar_atom(rng) for _ in range(rng.randrange(0, 10))]
        want = ref_planar_set(atoms)
        try:
            got = PlanarSet(atoms).atoms
        except ValidationError as exc:
            got = str(exc)
        assert got == want
        accepted += isinstance(want, tuple)
    # both outcomes are drawn often
    assert 200 < accepted < 500


def ref_area(vertices):
    """The shoelace sum in Fraction arithmetic."""
    total = F(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2


def ref_pt(p):
    x, y = p
    return (F(x), F(y))


def ref_convex_hull(H):
    """The monotone chain over the sorted Fraction points."""
    pts = sorted({p for atom in H.atoms for p in atom.points()})
    if not pts:
        raise ValidationError("cannot take the hull of an empty scene")
    if len(pts) == 1:
        return Points2D(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ref_cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    if len(hull) == 2:
        return Segment(*hull)
    return ConvexPolygon(hull)


def ref_defi_convex(H):
    """The reference hull less the scene, in Fraction arithmetic: the
    uncovered part of a segment hull, whose length is the uncovered share
    of the hull's, or the hull's area less the polygons'."""
    hull = ref_convex_hull(H)
    if isinstance(hull, Points2D):
        return pair(0, 0)
    if isinstance(hull, Segment):
        dx, dy = hull.b[0] - hull.a[0], hull.b[1] - hull.a[1]
        # a collinear segment covers the share its projection takes
        gap = 1 - sum((abs((s.b[0] - s.a[0]) * dx + (s.b[1] - s.a[1]) * dy)
                       / (dx * dx + dy * dy)
                       for s in H.atoms if isinstance(s, Segment)), F(0))
        if gap == 0:
            return pair(0, 0)
        return pair(1, Segment((0, 0), (gap * dx, gap * dy)).length())
    residual = ref_area(hull.vertices) - sum(
        (ref_area(a.vertices) for a in H.atoms
         if isinstance(a, ConvexPolygon)), F(0))
    return pair(2, residual) if residual else pair(0, 0)


def _sign(v):
    return (v > 0) - (v < 0)


def _rand_coord(rng):
    """A rational of either sign: on the coarse grid, with a small
    denominator, or with numerator and denominator up to 10^30."""
    kind = rng.randrange(3)
    if kind == 0:
        return F(rng.randrange(-20, 21), 2)
    if kind == 1:
        return F(rng.randrange(-10**4, 10**4), rng.randrange(1, 100))
    return F(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**30))


def test_cross_sign_matches_the_fraction_cross_product():
    rng = random.Random(2028)
    signs = Counter()
    for _ in range(12000):
        o, a = [(_rand_coord(rng), _rand_coord(rng)) for _ in range(2)]
        draw = rng.random()
        if draw < 0.4:
            # on the line through o and a, or 10^-30 off it
            t = _rand_coord(rng)
            off = 0 if draw < 0.25 else F(rng.choice((-1, 1)), 10**30)
            b = (o[0] + t * (a[0] - o[0]), o[1] + t * (a[1] - o[1]) + off)
        else:
            b = (_rand_coord(rng), _rand_coord(rng))
        got = _cross(*_scaled([o, a, b])[0])
        assert type(got) is int
        assert _sign(got) == _sign(ref_cross(o, a, b)), (o, a, b)
        signs[_sign(got)] += 1
    # every sign is drawn often, zero from the collinear triples
    assert min(signs.values()) > 2500


def test_integer_area_matches_the_fraction_shoelace():
    rng = random.Random(2029)
    polygons = 0
    for _ in range(1500):
        pts = {(_rand_coord(rng), _rand_coord(rng))
               for _ in range(rng.randint(3, 9))}
        hull = convex_hull(PlanarSet([Points2D(pts)]))
        if isinstance(hull, ConvexPolygon):
            got = hull.area()
            assert type(got) is Fraction and got == ref_area(hull.vertices) > 0
            polygons += 1
    assert polygons > 1400


def test_orientation_test_builds_no_fraction(monkeypatch):
    o, a, b = ((F(1, 3), F(-2, 7)), (F(10**30 + 1, 10**30), F(5)),
               (F(-1, 2), F(3, 10**29)))
    want = _sign(ref_cross(o, a, b))
    x = F(2, 3)
    built = []
    original = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    assert _sign(_cross(*_scaled([o, a, b])[0])) == want
    # Fractions are kept as they are, not wrapped again
    assert _pt(o)[0] is o[0] and _pt(o)[1] is o[1]
    assert ExtReal.of(x).value is x
    assert Dimension.rational(x).rat is x
    assert not built
    assert F(1, 2) + x and built


def _moved(atom, f):
    """The atom under the point map f."""
    if isinstance(atom, Points2D):
        return Points2D(map(f, atom.pts))
    if isinstance(atom, Segment):
        return Segment(f(atom.a), f(atom.b))
    return ConvexPolygon(map(f, atom.vertices))


def _planar_scene(seed):
    """Up to nine grid atoms; half the scenes are moved by a map of
    positive determinant, which keeps every incidence and orientation,
    onto coordinates with coprime denominators near 10^30."""
    rng = random.Random(seed)
    atoms = [_rand_planar_atom(rng) for _ in range(rng.randrange(0, 10))]
    if rng.random() < 0.5:
        q, r = rng.randrange(10**29, 10**30), rng.randrange(10**29, 10**30)
        s, u, v, tx, ty = (rng.randrange(-10**30, 10**30) for _ in range(5))
        s, v = abs(s) or 1, abs(v) or 1

        def move(p):
            # (s x + u y) / q + tx / r and v y / q + ty / r, for the
            # half-grid coordinates x = X/2, y = Y/2
            (x, _), (y, _) = (2 * p[0]).as_integer_ratio(), \
                (2 * p[1]).as_integer_ratio()
            return (F((s * x + u * y) * r + 2 * q * tx, 2 * q * r),
                    F(v * y * r + 2 * q * ty, 2 * q * r))
        atoms = [_moved(atom, move) for atom in atoms]
    return atoms


def _outcome(call, *args):
    """The value of call(*args), or its exception's class and message."""
    try:
        return call(*args)
    except HausdorffError as exc:
        return type(exc), str(exc)


def _planar_outcomes(atoms):
    """The scene or its refusal, then the scene's hull, measure and
    convexity deficiency, each a value or a refusal."""
    scene = _outcome(PlanarSet, atoms)
    if not isinstance(scene, PlanarSet):
        return (scene,)
    return (scene.atoms, _outcome(deficiency.convex_hull, scene),
            _outcome(planar_measure, scene),
            _outcome(deficiency.defi_convex, scene))


def test_planar_outcomes_match_the_fraction_reference(monkeypatch):
    scenes = [_planar_scene(seed) for seed in range(2000)]
    got = [_planar_outcomes(atoms) for atoms in scenes]
    with monkeypatch.context() as m:
        m.setattr(deficiency, "_pt", ref_pt)
        m.setattr(deficiency, "convex_hull", ref_convex_hull)
        m.setattr(deficiency, "defi_convex", ref_defi_convex)
        m.setattr(ConvexPolygon, "area", lambda self: ref_area(self.vertices))
        want = [_planar_outcomes(atoms) for atoms in scenes]
    assert got == want
    # the all-pairs loop agrees, and every hull shape and refusal is drawn
    for atoms, (scene, *rest) in zip(scenes, got):
        assert ref_planar_set(atoms) == (scene if rest else scene[1])
    hulls = Counter(type(o[1]).__name__ if len(o) > 1 else "overlap"
                    for o in got)
    assert len(hulls) == 5 and min(hulls.values()) > 5, hulls


def test_planar_measure_sums_the_polygon_areas():
    # the scene grid's shoelace sums agree with each polygon's own area()
    seen = 0
    for seed in range(400):
        scene = _outcome(PlanarSet, _planar_scene(seed))
        if not isinstance(scene, PlanarSet):
            continue
        polys = [a for a in scene.atoms if isinstance(a, ConvexPolygon)]
        if polys:
            seen += 1
            want = sum((p.area() for p in polys), Fraction(0))
            assert planar_measure(scene) == pair(2, want)
    assert seen > 50


def test_polygon_validation():
    with pytest.raises(ValidationError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(ValidationError):
        ConvexPolygon([(0, 0), (0, 1), (1, 0)])  # clockwise
    with pytest.raises(ValidationError):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])  # collinear run
    with pytest.raises(ValidationError):
        Segment((1, 1), (1, 1))
    with pytest.raises(ValidationError,
                       match="a planar point atom needs at least one point"):
        Points2D([])
    with pytest.raises(ValidationError, match="not a planar atom"):
        PlanarSet([Interval(0, 1)])


def test_triangle_of_points():
    tri = PlanarSet([Points2D([(0, 0), (1, 0), (0, 1)])])
    assert defi_convex(tri) == pair(2, F(1, 2))


def test_parallel_segments_leave_the_strip():
    par = PlanarSet([Segment((0, 0), (1, 0)), Segment((0, 1), (1, 1))])
    assert defi_convex(par) == pair(2, 1)


def test_single_convex_atoms_have_no_deficiency():
    assert defi_convex(PlanarSet([ConvexPolygon([(0, 0), (2, 0), (1, 2)])])) \
        == pair(0, 0)
    assert defi_convex(PlanarSet([Segment((0, 0), (5, 5))])) == pair(0, 0)
    assert defi_convex(PlanarSet([Points2D([(3, 3)])])) == pair(0, 0)


def test_collinear_scene_leaves_a_gap():
    scene = PlanarSet([Segment((0, 0), (1, 0)), Points2D([(2, 0)])])
    assert defi_convex(scene) == pair(1, 1)
    diag = PlanarSet([Segment((0, 0), (1, 1)), Points2D([(2, 2)])])
    got = defi_convex(diag)
    assert got.d == pair(1, 0).d
    enc = got.m.enclosure()
    assert enc.lo ** 2 < 2 < enc.hi ** 2


def test_two_points_span_their_distance():
    two = PlanarSet([Points2D([(0, 0), (0, 7)])])
    assert defi_convex(two) == pair(1, 7)


def test_polygon_with_outlying_point():
    scene = PlanarSet([ConvexPolygon([(0, 0), (4, 0), (0, 4)]),
                       Points2D([(3, 3)])])
    assert defi_convex(scene) == pair(2, 4)


def test_hull_of_empty_scene_fails():
    with pytest.raises(ValidationError):
        convex_hull(PlanarSet([]))


def test_random_clouds_hull_is_tight():
    rng = random.Random(105)
    for _ in range(80):
        pts = {(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
               for _ in range(rng.randint(3, 10))}
        scene = PlanarSet([Points2D(pts)])
        hull = convex_hull(scene)
        if isinstance(hull, ConvexPolygon):
            assert set(hull.vertices) <= pts
            assert all(hull.contains(p) for p in pts)
            assert defi_convex(scene) == HPair.of(2, hull.area())
        elif isinstance(hull, Segment):
            assert all(p[0] for p in pts) or True  # collinear cloud
            assert defi_convex(scene).m.sign() > 0


def test_random_collinear_clouds():
    rng = random.Random(106)
    for _ in range(60):
        xs = sorted(rng.sample(range(-20, 21), rng.randint(2, 6)))
        pts = [(F(x), F(2 * x + 3)) for x in xs]
        hull = convex_hull(PlanarSet([Points2D(pts)]))
        assert isinstance(hull, Segment)
        assert hull.a == pts[0] and hull.b == pts[-1]


def test_disjoint_triangles_residual():
    scene = PlanarSet([ConvexPolygon([(0, 0), (2, 0), (0, 2)]),
                       ConvexPolygon([(5, 0), (7, 0), (7, 2)])])
    hull = convex_hull(scene)
    resid = defi_convex(scene)
    assert resid.d == pair(2, 0).d
    assert resid.m.as_fraction() == hull.area() - 4
    assert resid.m.sign() > 0
