"""Numerical cross-checks: covers, quadrature, brute enumeration."""

import random
from fractions import Fraction as F

import pytest

from hausdorff.errors import NotSupported, TooLarge, Unbounded, ValidationError
from hausdorff.hintegral import (Const, PiecewiseFunction, Poly, SeriesValues,
                                 h_integral)
from hausdorff.hvalue import (DIM_CANTOR, Dimension, FiniteList, Geometric,
                              HPair, PSeries, hpair_series, hpair_sum)
from hausdorff.oracle import (BRUTE_LIMIT, CoverReport, box_dim_estimate,
                              brute_recompute, premeasure_estimate, quadrature)
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CantorAffine, CountableSeq,
                              FinitePoints, Interval, RepSet)

TOL_SLOPE = F(1, 10 ** 3)
TOL_CANTOR = F(1, 10 ** 12)


def _slope_error(slope, dim, prec=256):
    enc = dim.enclosure(prec)
    return max(abs(slope.lo - enc.lo), abs(slope.hi - enc.hi))


# ---------------------------------------------------------------------------
# box dimension

def test_cantor_slope_is_exact():
    s = RepSet.of(CantorAffine(0, 1))
    slope, reports = box_dim_estimate(s, range(1, 21))
    assert _slope_error(slope, DIM_CANTOR) < TOL_CANTOR
    assert [r.box_count for r in reports[:5]] == [2, 4, 8, 16, 32]
    assert reports[3].box_size == F(1, 81)


def test_box_slope_takes_each_cover_once(monkeypatch):
    from hausdorff import oracle
    depths = []
    real = oracle._covers
    monkeypatch.setattr(oracle, "_covers",
                        lambda s, k: depths.append(k) or real(s, k))
    s = RepSet.of(CantorAffine(0, 1), Interval(2, 3))
    _, reports = box_dim_estimate(s, [5, 2, 3, 3])
    assert depths == [2, 3, 5]
    assert [r.depth for r in reports] == [2, 3, 5]


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


def test_quadrature_validation():
    f = PiecewiseFunction([(Interval(0, 1), Const(1))])
    with pytest.raises(ValidationError):
        quadrature(f, Interval(0, None), 10)
    with pytest.raises(ValidationError):
        quadrature(f, Interval(0, 1), 0)


# ---------------------------------------------------------------------------
# brute-force recomputation

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
    with pytest.raises(ValidationError):
        brute_recompute("measure", [])
