"""Acceptance gate: one test per numbered criterion.

Each test prints its own pass line once every assertion in it has held,
so `pytest -s tests/test_acceptance.py` reads as the acceptance table
and `pytest -v` gives the same information one criterion per row.
Tolerances are pinned here, next to the assertions that use them; every
comparison without a named tolerance is exact.
"""

import random
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from hausdorff.checks import all_passed, run_suite
from hausdorff.deficiency import (ConvexPolygon, PlanarSet, Points2D,
                                  defi_continuity_cluster,
                                  defi_continuity_dist, defi_continuity_osc,
                                  defi_convex, defi_even)
from hausdorff.errors import OrderNotVerified
from hausdorff.hintegral import (Const, PiecewiseFunction, Poly, SeriesValues,
                                 ShrinkingPlateau, add, beppo_levi_limit,
                                 h_integral, indicator, monotone_compare,
                                 scalar_mul)
from hausdorff.hvalue import (DIM_CANTOR, DIM_ONE, ConstantTail, Dimension,
                              FiniteList, Geometric, HPair, HSeq, hpair_add,
                              hpair_eq, hpair_series, hseq_limit)
from hausdorff.metrics import DEFAULT_SCHEDULE
from hausdorff.oracle import box_dim_estimate, premeasure_estimate, quadrature
from hausdorff.setalg import (HARMONIC, CantorAffine, CountableSeq,
                              FinitePoints, Interval, RepSet, hmeasure)

TOL_SLOPE = F(1, 10 ** 12)    # criterion 8, box-count slope
TOL_SCALING = F(1, 10 ** 9)   # criterion 8, measure under affine scaling
TOL_QUAD = F(1, 10 ** 6)      # criterion 9, quadrature receipts

_SUITES: dict = {}


def _suite(name):
    if name not in _SUITES:
        _SUITES[name] = run_suite(name)
    return _SUITES[name]


def _result(results, name):
    for r in results:
        if r.name == name:
            return r
    raise AssertionError(f"no result named {name!r}")


def _skips(results):
    """Refused draws per law, for the laws that refused any.

    At the default seed these counts witness the RNG stream. Every skip
    is a pointwise sum that leaves the expression catalog, so closing the
    catalog under + (ROADMAP open item 4) is expected to take them to 0.
    Every skip is also counted at its raise site.
    """
    for r in results:
        assert sum(r.skipped_at.values()) == sum(r.skipped.values()), r.name
    return {r.name: r.skipped for r in results if r.skipped}


def _skip_sites(results):
    """Refused draws per law and raise site, for the laws that refused any."""
    return {r.name: r.skipped_at for r in results if r.skipped_at}


def _done(n, label):
    print(f"criterion {n:2d}: PASS - {label}")


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def pair(d, m):
    return HPair.of(d, m)


def test_criterion_01_pinned_example_regressions():
    unit = RepSet.of(Interval(0, 1))
    f = indicator(unit)
    g = scalar_mul(-1, f)
    assert hpair_eq(h_integral(add(f, g)), pair(0, 0))
    assert hpair_eq(hpair_add(h_integral(f), h_integral(g)), pair(1, 0))

    low, spike = g, indicator(RepSet.of(FinitePoints([0])))
    assert hpair_eq(h_integral(low), pair(1, -1))
    assert hpair_eq(h_integral(spike), pair(0, 1))
    assert h_integral(spike) < h_integral(low)
    with pytest.raises(OrderNotVerified):
        monotone_compare(low, spike)

    chain = ShrinkingPlateau(0, 1, -1)
    for n in range(1, 1001):
        assert hpair_eq(h_integral(chain.term(n)), pair(1, F(-1, n)))
        assert hpair_eq(h_integral(scalar_mul(-1, chain.term(n))),
                        pair(1, F(1, n)))
    limit_of_integrals = hseq_limit(chain.integral_seq())
    settled = h_integral(chain.limit())
    assert hpair_eq(limit_of_integrals, pair(1, 0))
    assert hpair_eq(settled, pair(0, -1))
    assert not hpair_eq(limit_of_integrals, settled)

    assert all_passed(_suite("paper-examples"))
    _done(1, "pinned example regressions, exact")


def test_criterion_02_pair_algebra_laws():
    results = _suite("pair-algebra")
    assert all_passed(results)
    for name in ("pair addition commutes", "pair addition associates",
                 "the zero pair is the additive identity",
                 "the lexicographic order is total"):
        assert _result(results, name).trials == 10_000
    assert _skips(results) == {}
    _done(2, "pair algebra laws on 10^4 seeded triples")


def test_criterion_03_series_are_limits_of_partial_sums():
    results = _suite("pair-algebra")
    series = _result(results, "series values are limits of their partial sums")
    assert series.passed and series.trials == 100 and series.skipped == {}

    # a dimension climb that cancels at the top: the value is (1, 0)
    half = Dimension.rational(F(1, 2))
    value = hpair_series([half, DIM_ONE],
                         [FiniteList((F(1, 2), F(1, 4))), FiniteList((1, -1))])
    assert value.d.cmp(DIM_ONE) == 0 and hpair_eq(value, pair(1, 0))
    partial = HSeq((pair(half, F(1, 2)), pair(half, F(3, 4)),
                    pair(1, 1), pair(1, 0)),
                   ConstantTail(pair(1, 0)))
    assert hpair_eq(hseq_limit(partial), value)
    _done(3, "series equal the limits of their partial sums, 100 instances")


def test_criterion_04_integral_laws():
    results = _suite("integral-laws")
    assert all_passed(results)
    for name in ("additivity on nonnegative sums",
                 "scaling acts on the measure coordinate",
                 "additivity over disjoint regions",
                 "countable partitions resum the integral",
                 "larger functions never integrate smaller",
                 "restriction to the support changes nothing",
                 "positive and negative parts rebuild the integral"):
        assert _result(results, name).trials == 500
    assert _skips(results) == {
        "additivity on nonnegative sums": {"NotRepresentable": 145},
        "larger functions never integrate smaller": {"NotRepresentable": 131}}
    assert _skip_sites(results) == {
        "additivity on nonnegative sums": {"hintegral._combined_terms": 145},
        "larger functions never integrate smaller":
            {"hintegral._combined_terms": 131}}
    # every generated path is rational, so the comparisons are exact;
    # the interval-arithmetic path is exercised in criterion 8
    _done(4, "integral laws, 500 seeded cases each, exact")


def test_criterion_05_monotone_and_liminf_limits():
    bl = _suite("beppo-levi")
    assert all_passed(bl)
    assert _result(bl, "monotone nonnegative chains: the limits agree").trials == 200
    assert _result(bl, "dimension climbs settle at the final stage").trials > 0
    assert _result(bl, "the signed chain is reported, never equated").trials > 0

    report = beppo_levi_limit(ShrinkingPlateau(0, 1, -1))
    assert report.signed and not report.agrees
    assert hpair_eq(report.limit_of_integrals, pair(1, 0))
    assert hpair_eq(report.integral_of_limit, pair(0, -1))
    assert report.integral_of_limit < report.limit_of_integrals

    ft = _suite("fatou")
    assert all_passed(ft)
    assert _result(ft, "the limit never integrates above the liminf").trials == 200
    assert _result(ft, "escaping mass makes the inequality strict").trials > 0
    assert _skips(bl) == _skips(ft) == {}
    _done(5, "monotone limits on both branches; signed counterexample certified")


def test_criterion_06_metric_axioms():
    results = _suite("set-metric")
    assert all_passed(results)
    assert _result(results,
                   "pair distance: symmetry, identity, triangle").trials == 10_000
    assert _result(results,
                   "set distance: axioms on representable triples").trials == 500
    assert _result(results,
                   "function distance: axioms on representable triples").trials == 500
    assert _skips(results) == {
        "function distance: axioms on representable triples":
            {"NotRepresentable": 328}}
    assert _skip_sites(results) == {
        "function distance: axioms on representable triples":
            {"hintegral._combined_terms": 328}}
    _done(6, "metric axioms: 10^4 pair triples, 500 set and function triples")


def test_criterion_07_cauchy_completion_at_desk_scale():
    assert DEFAULT_SCHEDULE == tuple(F(1, 10 ** k) for k in range(7))
    results = _suite("riesz-fischer")
    assert all_passed(results)
    conv = _result(results, "vanishing perturbations converge with certificates")
    assert conv.trials == 100
    assert _skips(results) == {}
    _done(7, "100 Cauchy sequences certified through eps = 1 .. 10^-6")


def test_criterion_08_cantor_box_counts_and_scaling():
    cantor = RepSet.of(CantorAffine(0, 1))
    mu = hmeasure(cantor)
    assert mu.d.cmp(DIM_CANTOR) == 0 and mu.m.as_fraction() == 1

    depths = list(range(1, 21))
    slope, covers = box_dim_estimate(cantor, depths)
    assert [c.box_count for c in covers] == [2 ** k for k in depths]
    enclosure = DIM_CANTOR.enclosure(256)
    assert slope.lo >= enclosure.lo - TOL_SLOPE
    assert slope.hi <= enclosure.hi + TOL_SLOPE

    for k in depths:
        at_dim = premeasure_estimate(cantor, DIM_CANTOR, k)
        assert at_dim.is_point() and at_dim.lo == 1

    rng = random.Random(88)
    seen = 0
    while seen < 100:
        s = F(rng.randrange(-300, 301), rng.randrange(1, 50))
        if s == 0:
            continue
        t = F(rng.randrange(-40, 41), rng.randrange(1, 8))
        measured = hmeasure(RepSet.of(CantorAffine(t, s))).m.enclosure()
        with mpmath.workdps(80):  # |s|**(log 2/log 3), independent of the engine
            reference = mpmath.power(_mp(abs(s)), mpmath.log(2) / mpmath.log(3))
            assert abs(_mp(measured.mid) - reference) <= _mp(TOL_SCALING)
        seen += 1
    _done(8, "Cantor slope within 10^-12, premeasure 1, scaling within 10^-9")


def test_criterion_09_deficiency_battery():
    step = PiecewiseFunction([(Interval(0, None), Const(1))])
    assert defi_continuity_osc(step) == pair(0, 1)
    assert defi_continuity_dist(step) == pair(1, 0)
    assert defi_continuity_cluster(step) == pair(0, 2)

    halving = PiecewiseFunction([(CountableSeq(HARMONIC, 0, 1),
                                  SeriesValues(Geometric(F(1, 2), F(1, 2))))])
    assert defi_continuity_osc(halving) == pair(0, 1)

    ramp = PiecewiseFunction([(Interval(0, 1), Poly([0, 1]))])
    assert defi_even(ramp) == pair(1, 1)

    triangle = PlanarSet([Points2D([(0, 0), (1, 0), (0, 1)])])
    assert defi_convex(triangle) == pair(2, F(1, 2))

    tent = PiecewiseFunction([(Interval(0, 1), Poly([0, 1, -1]))])
    assert defi_continuity_osc(tent) == pair(0, 0)
    assert defi_continuity_dist(tent) == pair(0, 0)
    assert defi_continuity_cluster(tent) == pair(0, 1)
    even = PiecewiseFunction([(Interval(-1, 1), Poly([0, 0, 1]))])
    assert defi_even(even) == pair(0, 0)
    solid = PlanarSet([ConvexPolygon([(0, 0), (2, 0), (1, 2)])])
    assert defi_convex(solid) == pair(0, 0)

    # quadrature receipts for the interval-supported measures:
    # |ramp(x) - ramp(-x)| = |x| on [-1, 1] carries the even deficiency,
    # the width function 1 - x on [0, 1] carries the hull gap area
    mirror_gap = PiecewiseFunction([(Interval(-1, 0), Poly([0, -1])),
                                    (Interval(0, 1, deletions=[0]),
                                     Poly([0, 1]))])
    q = quadrature(mirror_gap, Interval(-1, 1), 128)
    assert q.contains(1) and abs(q.mid - 1) <= TOL_QUAD
    width = PiecewiseFunction([(Interval(0, 1), Poly([1, -1]))])
    q = quadrature(width, Interval(0, 1), 64)
    assert q.contains(F(1, 2)) and abs(q.mid - F(1, 2)) <= TOL_QUAD
    _done(9, "deficiency battery with quadrature receipts within 10^-6")


def test_criterion_10_readme_states_the_desk_scale_limits():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "desk scale" in text
    assert "not reproducible in full generality" in text
    assert "borel" in text
    _done(10, "README states the desk-scale limitation")
