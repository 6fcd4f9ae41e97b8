"""Numerical cross-checks: covers, quadrature, brute enumeration."""

import random
import time
from fractions import Fraction as F
from typing import Iterable

import pytest

from hausdorff import oracle
from hausdorff._numeric import RatInterval, log_interval, pow_interval
from hausdorff.config import get_config
from hausdorff.errors import NotSupported, TooLarge, Unbounded, ValidationError
from hausdorff.hintegral import (Const, PiecewiseFunction, Poly, SeriesValues,
                                 h_integral)
from hausdorff.hvalue import (DIM_CANTOR, CoefficientSeries, Dimension, ExtReal,
                              FiniteList, Geometric, HPair, PSeries,
                              hpair_series, hpair_sum)
from hausdorff.oracle import (CoverReport, box_dim_estimate,
                              premeasure_estimate, quadrature)
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CantorAffine, CountableSeq,
                              FinitePoints, Interval, RepSet)

TOL_SLOPE = F(1, 10 ** 3)
TOL_CANTOR = F(1, 10 ** 12)


def _slope_error(slope, dim, prec=256):
    enc = dim.enclosure(prec)
    return max(abs(slope.lo - enc.lo), abs(slope.hi - enc.hi))


# ---------------------------------------------------------------------------
# references: the per-panel and RatInterval forms the fast paths replace

def ref_quadrature(f, region, n):
    """The composite midpoint rule summed panel by panel in Fractions."""
    total = RatInterval.point(0)
    for atom, expr in f.terms:
        if not isinstance(atom, Interval):
            continue
        lo = region.lo if atom.lo is None else max(atom.lo, region.lo)
        hi = region.hi if atom.hi is None else min(atom.hi, region.hi)
        if lo >= hi:
            continue
        coeffs = expr.coeffs if isinstance(expr, Poly) else (expr.value,)
        h = F(hi - lo, n)
        acc = F(0)
        for i in range(n):
            x, value = lo + h * i + h / 2, F(0)
            for c in reversed(coeffs):
                value = value * x + c
            acc += value
        mid_sum = acc * h
        err = (hi - lo) * h * h * oracle._second_derivative_bound(coeffs, lo, hi) / 24
        total = total + RatInterval(mid_sum - err, mid_sum + err)
    return total


def _atom_covers(s, k):
    return [oracle._atom_cover(atom, k) for atom in s.atoms]


def ref_box_slope(s, depths):
    """The least-squares slope in RatInterval arithmetic, and the
    per-depth reports."""
    depths = sorted(set(depths))
    if len(depths) < 2:
        raise ValidationError("slope estimation needs at least two depths")
    prec = get_config().precision_bits
    sized = []
    for k in depths:
        covers = _atom_covers(s, k)
        sized.append((k, sum(c for c, _ in covers),
                      max(diam for _, diam in covers), covers))
    xs = [log_interval(1 / mesh, prec) for _, _, mesh, _ in sized]
    ys = [log_interval(count, prec) for _, count, _, _ in sized]
    xbar = sum(xs, RatInterval.point(0)) * F(1, len(sized))
    ybar = sum(ys, RatInterval.point(0)) * F(1, len(sized))
    sxy = sum(((x - xbar) * (y - ybar) for x, y in zip(xs, ys)),
              RatInterval.point(0))
    sxx = sum(((x - xbar) * (x - xbar) for x in xs), RatInterval.point(0))
    if sxx.lo <= 0:
        raise ValidationError("interval reciprocal needs a positive interval")
    slope = sxy * RatInterval(1 / sxx.hi, 1 / sxx.lo)
    return slope, [CoverReport(k, count, mesh) for k, count, mesh, _ in sized]


def ref_premeasure(s, d, depth):
    prec = get_config().precision_bits
    total = RatInterval.point(0)
    for c, diam in _atom_covers(s, depth):
        total = total + oracle._pow_dim(diam, d, prec) * c
    return total


def _random_set(rng):
    """Disjoint atoms of every kind, one kind or several."""
    atoms, base = [], F(rng.randint(-30, 30))
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        width = F(rng.randint(1, 9), rng.randint(1, 4))
        if kind == 0:
            atoms.append(Interval(base, base + width))
        elif kind == 1:
            atoms.append(FinitePoints([base + width * i / 4
                                       for i in range(rng.randint(1, 5))]))
        elif kind == 2:
            atoms.append(CountableSeq(HARMONIC, base, rng.choice([-1, 1]) * width))
        elif kind == 3:
            atoms.append(CountableSeq(GEOMETRIC, base, rng.choice([-1, 1]) * width,
                                      F(1, rng.randint(2, 5))))
        else:
            atoms.append(CantorAffine(base, width))
        base += 25
    return RepSet.of(*atoms)


# ---------------------------------------------------------------------------
# box dimension

def test_cantor_slope_is_exact():
    s = RepSet.of(CantorAffine(0, 1))
    slope, reports = box_dim_estimate(s, range(1, 21))
    assert _slope_error(slope, DIM_CANTOR) < TOL_CANTOR
    assert [r.box_count for r in reports[:5]] == [2, 4, 8, 16, 32]
    assert reports[3].box_size == F(1, 81)


def test_box_slope_takes_each_cover_once(monkeypatch):
    depths = []
    real = oracle._covers
    monkeypatch.setattr(oracle, "_covers",
                        lambda s, k: depths.append(k) or real(s, k))
    s = RepSet.of(CantorAffine(0, 1), Interval(2, 3))
    _, reports = box_dim_estimate(s, [5, 2, 3, 3])
    assert depths == [2, 3, 5]
    assert [r.depth for r in reports] == [2, 3, 5]


def test_box_slope_raises_each_diameter_once(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "pow_interval",
                        lambda *a: calls.append(a) or pow_interval(*a))
    s = RepSet.of(Interval(0, 1), Interval(3, 4), Interval(8, 9),
                  Interval(10, 12), FinitePoints([6, 7]))
    assert len(s.atoms) == 5
    _, reports = box_dim_estimate(s, [2, 3, 5])
    assert calls == []  # the slope raises no diameter to a power
    assert [r.box_count for r in reports] == [5 * 9 + 2, 5 * 27 + 2, 5 * 243 + 2]
    calls.clear()
    # 3**-3 to the power 1/2 is irrational: one enclosure for the depth
    premeasure_estimate(s, F(1, 2), 3)
    assert len(calls) == 1


def test_box_slope_and_premeasure_match_the_references():
    rng = random.Random(36)
    for _ in range(200):
        s = _random_set(rng)
        depths = rng.sample(range(1, 25), rng.randint(2, 7))
        assert box_dim_estimate(s, depths) == ref_box_slope(s, depths)
        d = rng.choice([DIM_CANTOR, Dimension.rational(0),
                        Dimension.rational(F(1, 2)), Dimension.rational(1)])
        k = rng.randint(1, 12)
        assert premeasure_estimate(s, d, k) == ref_premeasure(s, d, k)
    for depths in ([], [4], [4, 4]):
        for estimate in (box_dim_estimate, ref_box_slope):
            with pytest.raises(ValidationError, match="at least two depths"):
                estimate(_random_set(rng), depths)


def test_affine_cantor_slope_matches():
    rng = random.Random(31)
    for _ in range(10):
        t = F(rng.randint(-40, 40), rng.randint(1, 9))
        sc = F(rng.randint(1, 60), rng.randint(1, 30))
        s = RepSet.of(CantorAffine(t, sc))
        slope, _ = box_dim_estimate(s, range(1, 16))
        assert _slope_error(slope, DIM_CANTOR) < TOL_CANTOR


def test_interval_slope_is_one():
    slope, _ = box_dim_estimate(RepSet.of(Interval(0, 1)), range(1, 21))
    assert abs(slope.mid - 1) < TOL_SLOPE


def test_finite_points_slope_is_zero():
    s = RepSet.of(FinitePoints([0, F(1, 3), 1, 4, 7]))
    slope, reports = box_dim_estimate(s, range(20, 41, 5))
    assert abs(slope.mid) < TOL_SLOPE
    assert all(r.box_count == 5 for r in reports)


def test_union_is_dominated_by_the_interval():
    # the stray points fade once the interval's boxes dominate the count
    s = RepSet.of(Interval(0, 1), FinitePoints([5, 6, 7]))
    slope, _ = box_dim_estimate(s, range(8, 26))
    assert abs(slope.mid - 1) < TOL_SLOPE


def test_harmonic_points_report_the_box_view():
    # box counting sees the crowding at the accumulation point, so the
    # slope sits near 1/2 even though the measure pair carries dim 0
    s = RepSet.of(CountableSeq(HARMONIC, 0, 1))
    slope, _ = box_dim_estimate(s, range(8, 21))
    assert F(2, 5) < slope.mid < F(3, 5)


def test_geometric_points_slope_decays():
    s = RepSet.of(CountableSeq(GEOMETRIC, 0, 1, F(1, 2)))
    slope, _ = box_dim_estimate(s, range(10, 21))
    assert slope.mid < F(1, 4)


def test_unbounded_sets_are_rejected():
    with pytest.raises(Unbounded):
        box_dim_estimate(RepSet.of(Interval(0, None)), range(1, 5))
    with pytest.raises(ValidationError):
        box_dim_estimate(RepSet.of(), range(1, 5))
    with pytest.raises(ValidationError):
        box_dim_estimate(RepSet.of(Interval(0, 1)), [7])
    with pytest.raises(ValidationError, match="cover depths start at 1"):
        box_dim_estimate(RepSet.of(Interval(0, 1)), [0, 1])


# ---------------------------------------------------------------------------
# premeasure

def test_cantor_premeasure_is_exactly_one():
    s = RepSet.of(CantorAffine(0, 1))
    for depth in (1, 4, 9, 15):
        pm = premeasure_estimate(s, DIM_CANTOR, depth)
        assert pm.is_point() and pm.lo == 1


def test_scaled_cantor_premeasure_is_depth_free():
    s = RepSet.of(CantorAffine(5, F(1, 4)))
    first = premeasure_estimate(s, DIM_CANTOR, 2)
    for depth in (5, 9):
        pm = premeasure_estimate(s, DIM_CANTOR, depth)
        assert abs(pm.mid - first.mid) < F(1, 10 ** 30)


def test_interval_premeasure_at_its_dimension():
    s = RepSet.of(Interval(0, 1))
    for depth in (1, 6, 11):
        pm = premeasure_estimate(s, 1, depth)
        assert pm.is_point() and pm.lo == 1


def test_interval_premeasure_below_dimension_diverges():
    s = RepSet.of(Interval(0, 1))
    values = [premeasure_estimate(s, F(1, 2), k) for k in (2, 4, 6, 8)]
    assert all(v.is_point() for v in values)
    assert [v.lo for v in values] == [3, 9, 27, 81]


def test_premeasure_decreases_toward_the_measure():
    s = RepSet.of(Interval(0, F(1, 2)))
    values = [premeasure_estimate(s, 1, k) for k in range(1, 9)]
    for a, b in zip(values, values[1:]):
        assert b.hi <= a.hi
    assert all(v.lo >= F(1, 2) for v in values)


def test_separated_points_premeasure_is_the_count():
    s = RepSet.of(FinitePoints([0, 1, 4, 7]))
    for depth in (1, 3, 8):
        pm = premeasure_estimate(s, 0, depth)
        assert pm.is_point() and pm.lo == 4


# ---------------------------------------------------------------------------
# quadrature

def test_quadrature_linear_is_exact():
    f = PiecewiseFunction([(Interval(0, 1), Poly([0, 1]))])
    q = quadrature(f, Interval(0, 1), 1000)
    assert q.contains(F(1, 2)) and q.is_point()


def test_quadrature_square_encloses():
    f = PiecewiseFunction([(Interval(-1, 1), Poly([0, 0, 1]))])
    q = quadrature(f, Interval(-1, 1), 500)
    assert q.contains(F(2, 3))
    assert q.hi - q.lo < F(1, 10 ** 4)


def test_quadrature_constant_is_exact():
    f = PiecewiseFunction([(Interval(2, 5), Const(F(3, 7)))])
    q = quadrature(f, Interval(0, 10), 4)
    assert q.is_point() and q.lo == F(9, 7)


def test_quadrature_ignores_length_zero_pieces():
    f = PiecewiseFunction([(FinitePoints([F(5, 2)]), Const(99)),
                           (CountableSeq(HARMONIC, 0, -1), Const(5)),
                           (Interval(0, 2), Const(1))])
    q = quadrature(f, Interval(-3, 3), 16)
    assert q.is_point() and q.lo == 2


def test_quadrature_clips_to_the_region():
    f = PiecewiseFunction([(Interval(0, 10), Poly([0, 1]))])
    q = quadrature(f, Interval(0, 2), 100)
    assert q.contains(2)


def test_quadrature_width_shrinks_with_panels():
    f = PiecewiseFunction([(Interval(0, 3), Poly([1, 0, 0, 2]))])
    wide = quadrature(f, Interval(0, 3), 40)
    tight = quadrature(f, Interval(0, 3), 160)
    assert tight.hi - tight.lo < wide.hi - wide.lo
    exact = F(3) + F(2 * 81, 4)
    assert wide.contains(exact) and tight.contains(exact)


def test_random_quadrature_contains_the_antiderivative():
    rng = random.Random(32)
    for _ in range(60):
        coeffs = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        lo = F(rng.randint(-6, 2))
        hi = lo + F(rng.randint(1, 8))
        poly = Poly(coeffs) if any(coeffs) else Const(0)
        f = PiecewiseFunction([(Interval(lo, hi), poly)])
        anti = Poly(coeffs).antiderivative()
        exact = anti.value_at(hi) - anti.value_at(lo)
        q = quadrature(f, Interval(lo, hi), rng.choice([37, 64, 200]))
        assert q.contains(exact)


def test_quadrature_matches_the_panel_sum():
    rng = random.Random(37)
    for _ in range(1000):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 7))]
        lo = F(rng.randint(-8, 8), rng.randint(1, 4))
        hi = lo + F(rng.randint(1, 9), rng.randint(1, 4))
        expr = Poly(coeffs) if any(coeffs[1:]) else Const(coeffs[0])
        terms = [(Interval(lo, hi), expr)]
        if rng.random() < 0.3:
            terms.append((FinitePoints([hi + 1]), Const(5)))
        if rng.random() < 0.5:
            region = Interval(lo, hi)  # unclipped
        else:
            a = lo + F(rng.randint(-8, 8), 4)
            region = Interval(a, a + F(rng.randint(1, 12), 4))
        n = rng.choice([1, 2, 3, 7, 16, 128, 1000])
        f = PiecewiseFunction(terms)
        assert quadrature(f, region, n) == ref_quadrature(f, region, n)


def test_quadrature_work_does_not_grow_with_panels():
    # for a cubic the midpoint sum is the integral less h**2/24 (p'(b) - p'(a))
    # (Euler-Maclaurin at the midpoints); the error bound uses max|p''| <= 38/3
    f = PiecewiseFunction([(Interval(0, 1), Poly([0, 1, F(1, 3), 2]))])
    a, b = F(1, 7), F(1)
    anti = Poly([0, 1, F(1, 3), 2]).antiderivative()
    slope = Poly([1, F(2, 3), 6])

    def closed_form(n):
        h = (b - a) / n
        mid = (anti.value_at(b) - anti.value_at(a)
               - h * h / 24 * (slope.value_at(b) - slope.value_at(a)))
        err = (b - a) * h * h * F(38, 3) / 24
        return RatInterval(mid - err, mid + err)

    start = time.perf_counter()
    q = quadrature(f, Interval(a, b), 10 ** 12)
    assert time.perf_counter() - start < 0.1
    assert q == closed_form(10 ** 12)
    q = quadrature(f, Interval(a, b), 10 ** 6)
    assert q == closed_form(10 ** 6) == RatInterval(
        F(330249999999841, 300125000000000), F(660500000000081, 600250000000000))
    assert quadrature(f, Interval(a, b), 10 ** 100) == closed_form(10 ** 100)


def test_quadrature_validation():
    f = PiecewiseFunction([(Interval(0, 1), Const(1))])
    with pytest.raises(ValidationError):
        quadrature(f, Interval(0, None), 10)
    with pytest.raises(ValidationError):
        quadrature(f, Interval(0, 1), 0)


# ---------------------------------------------------------------------------
# brute-force recomputation: a test oracle that sums by direct enumeration,
# sidestepping the engine's code paths

BRUTE_LIMIT = 1000


def _brute_pair_sum(pairs: Iterable[HPair]) -> HPair:
    pairs = list(pairs)
    if len(pairs) > BRUTE_LIMIT:
        raise TooLarge(f"brute sum capped at {BRUTE_LIMIT} pairs")
    top = None
    for p in pairs:
        if top is None or p.d.cmp(top) > 0:
            top = p.d
    if top is None:
        return HPair.of(0, 0)
    m = ExtReal.of(0)
    for p in pairs:
        if p.d.cmp(top) == 0:
            m = m + p.m
    return HPair(top, m)


def _brute_series(job) -> HPair:
    if isinstance(job, CoefficientSeries):
        total = F(0)
        for k in range(BRUTE_LIMIT):
            total += job.term(k)
        return HPair.of(0, total)
    dims, coeffs = job
    per = BRUTE_LIMIT // max(len(coeffs), 1)
    pairs = [HPair.of(d, series.term(k))
             for d, series in zip(dims, coeffs) for k in range(per)]
    return _brute_pair_sum(pairs)


def _brute_integral(f: PiecewiseFunction) -> HPair:
    values = []
    for atom, expr in f.terms:
        if isinstance(atom, FinitePoints):
            for p in atom.points:
                values.append(_point_value(expr, p, None))
        elif isinstance(atom, CountableSeq):
            live = (k for k in range(1, 4 * BRUTE_LIMIT)
                    if atom.point(k) not in atom.deletions)
            for _, k in zip(range(BRUTE_LIMIT), live):
                values.append(_point_value(expr, atom.point(k), k))
        else:
            raise NotSupported(
                "direct enumeration only covers countable supports")
        if len(values) > 2 * BRUTE_LIMIT:
            raise TooLarge("enumeration exceeded the brute-force budget")
    total = F(0)
    for v in values:
        total += v
    return HPair.of(0, total)


def _point_value(expr, x, index) -> F:
    if isinstance(expr, Poly):
        return expr.value_at(x)
    return expr.series.term(index - 1)


def brute_recompute(op: str, inputs) -> HPair:
    """Recompute a result by direct enumeration, sidestepping the main
    code paths.  Series are truncated at the brute-force budget, so
    geometric tails beyond it are the only slack."""
    if op == "hpair_sum":
        return _brute_pair_sum(inputs)
    if op == "hpair_series":
        return _brute_series(inputs)
    if op == "h_integral":
        return _brute_integral(inputs)
    raise ValidationError(f"unknown brute-force operation {op!r}")


def test_brute_empty_sum_is_zero():
    assert brute_recompute("hpair_sum", []) == HPair.of(0, 0)


def test_brute_geometric_truncation():
    got = brute_recompute("hpair_series", Geometric(F(1, 2), F(1, 2)))
    assert abs(got.m.as_fraction() - 1) < F(1, 2 ** 997)


def test_brute_sum_matches_the_engine():
    rng = random.Random(33)
    dims = [Dimension.rational(0), Dimension.rational(F(1, 2)),
            DIM_CANTOR, Dimension.rational(1)]
    for _ in range(100):
        pairs = [HPair.of(rng.choice(dims), F(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 12))]
        assert brute_recompute("hpair_sum", pairs) == hpair_sum(pairs)


def test_brute_series_matches_the_engine():
    rng = random.Random(34)
    pool = [Dimension.rational(F(k, 4)) for k in range(5)]
    for _ in range(60):
        dims = rng.sample(pool, rng.randint(1, 3))
        coeffs = []
        for _ in dims:
            kind = rng.randrange(3)
            if kind == 0:
                coeffs.append(FiniteList([F(rng.randint(-5, 5))
                                          for _ in range(rng.randint(1, 6))]))
            elif kind == 1:
                coeffs.append(Geometric(F(rng.randint(1, 5)), F(1, rng.randint(2, 4))))
            else:
                coeffs.append(PSeries(F(rng.randint(1, 5)), 2 + rng.randrange(2)))
        exact = hpair_series(dims, coeffs)
        got = brute_recompute("hpair_series", (dims, coeffs))
        assert got.d == exact.d
        # honest slack: whatever the truncated tails can still contribute
        per = 1000 // len(coeffs)
        slack = F(0)
        for d, s in zip(dims, coeffs):
            if d != exact.d:
                continue
            if isinstance(s, Geometric):
                slack += abs(s.a) * s.r ** per / (1 - s.r)
            elif isinstance(s, PSeries):
                slack += abs(s.c) * F(per - 1) ** (1 - s.p) / (s.p - 1)
        enc = exact.m.enclosure()
        assert enc.lo - slack <= got.m.as_fraction() <= enc.hi + slack


def test_brute_integral_matches_on_point_masses():
    rng = random.Random(35)
    for _ in range(200):
        terms = []
        base = rng.randint(-20, 20)
        if rng.random() < 0.8:
            pts = sorted(rng.sample(range(base, base + 40), rng.randint(1, 6)))
            terms.append((FinitePoints(pts), Const(F(rng.randint(-9, 9), 3))))
        if rng.random() < 0.5:
            seq = CountableSeq(HARMONIC, 60, rng.choice([-1, 1]) * rng.randint(1, 3))
            terms.append((seq, SeriesValues(Geometric(F(rng.randint(-4, 4)), F(1, 2)))))
        f = PiecewiseFunction(terms)
        got = brute_recompute("h_integral", f)
        exact = h_integral(f)
        if f.is_zero():
            assert got == HPair.of(0, 0)
            continue
        assert got.d == exact.d
        assert abs(got.m.as_fraction() - exact.m.as_fraction()) < F(1, 10 ** 9)


def test_brute_budget_is_enforced():
    with pytest.raises(TooLarge):
        brute_recompute("hpair_sum", [HPair.of(0, 1)] * (BRUTE_LIMIT + 1))
    f = PiecewiseFunction([(Interval(0, 1), Const(1))])
    with pytest.raises(NotSupported):
        brute_recompute("h_integral", f)
    # three sequences enumerate 3 * BRUTE_LIMIT values
    seqs = PiecewiseFunction([(CountableSeq(HARMONIC, 10 * k, 1), Const(1))
                              for k in range(3)])
    with pytest.raises(TooLarge,
                       match="enumeration exceeded the brute-force budget"):
        brute_recompute("h_integral", seqs)
    with pytest.raises(ValidationError):
        brute_recompute("measure", [])
