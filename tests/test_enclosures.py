"""Enclosures of ln, exp and sqrt, checked against mpmath.

mpmath is the independent reference here. Each enclosure must contain the
value mpmath computes at max(80 digits, prec + 64 bits), be at most 4 times
as wide as mpmath's own interval result at the same precision, and be a
point exactly where that interval result is one. A point from mpmath that
misses the value at 4096 bits is false; it sets no width or point target.
"""

import functools
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import iv, mp
from mpmath.libmp import to_rational

from hausdorff import _numeric
from hausdorff._numeric import (RatInterval, log_interval, pow_interval,
                                sqrt_interval, zeta_interval)
from hausdorff.config import set_config, update_config
from hausdorff.errors import ValidationError
from hausdorff.hvalue import DIM_CANTOR, PSeries
from hausdorff.oracle import box_dim_estimate
from hausdorff.setalg import CantorAffine, RepSet, cantor_scale_measure

PRECS = (64, 256, 512)
SAMPLE = {"log": 1200, "sqrt": 1100, "pow": 1200}  # arguments per precision
WIDTH_FACTOR = 4


def _positive(rng):
    """A positive rational of one of the shapes the kernels must handle."""
    shape = rng.randrange(6)
    if shape == 0:  # 10**-400 .. 10**400
        return (F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
                * F(10) ** rng.randrange(-400, 401))
    if shape == 1:  # within 2**-300 of 1
        return 1 + F(rng.choice([-1, 1]) * rng.randrange(1, 2 ** 20),
                     2 ** rng.randrange(320, 360))
    if shape == 2:  # near 1 at every coarser scale
        return 1 + F(rng.randrange(-2 ** 10, 2 ** 10) or 1,
                     2 ** rng.randrange(11, 320))
    if shape == 3:  # Cantor scales such as 5 * 2**-800, and reciprocals
        return F(rng.randrange(1, 2 ** 12) | 1,
                 2 ** rng.randrange(1, 801)) ** rng.choice([1, -1])
    if shape == 4:  # small rationals and integers
        return F(rng.randrange(1, 1000), rng.randrange(1, 1000))
    # dyadic squares, some with more significant bits than prec
    root = F(rng.randrange(1, 2 ** rng.randrange(1, 300)),
             2 ** rng.randrange(0, 200))
    return root * root


def _exponent(rng, prec, slope):
    shape = rng.randrange(5)
    if shape == 0:  # the fractional p of the numeric workload, and others
        return RatInterval.point(rng.choice(
            [F(3, 2), F(5, 2), F(7, 4), F(-3, 2), F(-5, 2), F(-7, 4),
             F(1, 2), F(0), F(3)]))
    if shape == 1:
        q = rng.randrange(1, 50)
        return RatInterval.point(F(rng.randrange(-4 * q, 4 * q + 1), q))
    if shape == 2:
        return DIM_CANTOR.enclosure(prec)
    if shape == 3:  # straddles 0
        return RatInterval(-F(rng.randrange(1, 100), rng.randrange(1, 100)),
                           F(rng.randrange(1, 100), rng.randrange(1, 100)))
    return slope


def _sample(kind, prec):
    rng = random.Random(f"{kind}-{prec}")
    slope = _box_slope()
    args = []
    for _ in range(SAMPLE[kind]):
        x = _positive(rng)
        args.append((x, _exponent(rng, prec, slope)) if kind == "pow" else (x,))
    if kind == "sqrt":
        args.append((F(0),))
    return args


@functools.cache
def _box_slope():
    return box_dim_estimate(RepSet.of(CantorAffine(0, 1)), [2, 3, 4])[0]


# -- the two mpmath references ---------------------------------------------

def _fraction(mpf_value) -> F:
    return F(*map(int, to_rational(mpf_value)))


def _mp(x: F):
    return mpmath.mpf(x.numerator) / x.denominator


def _true_values(kind, args, bits):
    """The values at `bits` bits, as Fractions; both endpoint images
    for an exponent interval, since base**e is monotone in e. Logs go
    through log1p(x - 1) near 1, so an x within 2**-300 of 1 keeps its
    digits."""
    with mp.workprec(bits):
        x = args[0]
        if kind == "sqrt":
            return [_fraction(mpmath.sqrt(_mp(x))._mpf_)]
        log_x = mpmath.log1p(_mp(x - 1)) if abs(x - 1) < 0.5 else mpmath.log(_mp(x))
        if kind == "log":
            return [_fraction(log_x._mpf_)]
        return [_fraction(mpmath.exp(_mp(c) * log_x)._mpf_)
                for c in (args[1].lo, args[1].hi)]


def _iv_enclosure(kind, args, prec) -> RatInterval:
    """mpmath's interval result at prec bits, the rational argument
    entered as iv.mpf(numerator) / iv.mpf(denominator)."""
    saved = iv.prec
    iv.prec = prec
    try:
        def enter(x):
            return iv.mpf(x.numerator) / iv.mpf(x.denominator)

        def fractions(value):
            return [_fraction(t) for t in value._mpi_]

        x = F(args[0])
        if kind == "log":
            return RatInterval(*fractions(iv.log(enter(x))))
        if kind == "sqrt" and not x:
            return RatInterval.point(0)
        if kind == "sqrt":
            return RatInterval(*fractions(iv.sqrt(enter(x))))
        if x == 1:
            return RatInterval.point(1)
        log_base = iv.log(enter(x))
        ends = [fractions(iv.exp(enter(c) * log_base))
                for c in (args[1].lo, args[1].hi)]
        return RatInterval(min(e[0] for e in ends), max(e[1] for e in ends))
    finally:
        iv.prec = saved


_KERNELS = {"log": log_interval, "sqrt": sqrt_interval, "pow": pow_interval}


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("kind", ["log", "sqrt", "pow"])
def test_enclosures_against_mpmath(kind, prec):
    misses, wide, points, false_points = [], [], [], []
    bits = max(mpmath.libmp.dps_to_prec(80), prec + 64)
    for args in _sample(kind, prec):
        ours = _KERNELS[kind](*args, prec)
        if not all(ours.contains(v) for v in _true_values(kind, args, bits)):
            misses.append(args)
        ref = _iv_enclosure(kind, args, prec)
        if ref.is_point() and not all(
                ref.contains(v) for v in _true_values(kind, args, 4096)):
            # mpmath's interval exp can return exp(v) for a tiny v as the
            # point 1 + v; 4096 bits show that it misses the value
            false_points.append(args)
            continue
        if ours.hi - ours.lo > WIDTH_FACTOR * (ref.hi - ref.lo):
            wide.append(args)
        if ours.is_point() != ref.is_point():
            points.append(args)
    assert (len(misses), len(wide), len(points)) == (0, 0, 0), \
        (misses[:3], wide[:3], points[:3])
    assert kind == "pow" or not false_points


def test_enclosure_sample_size():
    assert sum(len(_sample(kind, prec)) for kind in SAMPLE for prec in PRECS) >= 10_000


def test_exact_points_and_near_misses():
    one = RatInterval.point(1)
    assert log_interval(1, 64) == RatInterval.point(0)
    assert pow_interval(F(7, 3), RatInterval.point(0), 256) == one
    assert pow_interval(1, RatInterval(F(-1), F(2)), 256) == one
    assert sqrt_interval(F(9, 4), 256) == RatInterval.point(F(3, 2))
    assert not pow_interval(4, RatInterval.point(F(1, 2)), 256).is_point()
    assert not pow_interval(2, RatInterval.point(F(3)), 256).is_point()
    assert not sqrt_interval(2, 256).is_point()
    # a dyadic square longer than prec bits stays an interval
    assert not sqrt_interval((2 ** 40 + 1) ** 2, 64).is_point()
    assert sqrt_interval((2 ** 40 + 1) ** 2, 128).is_point()


@pytest.mark.parametrize("call, args, message", [
    (log_interval, (0, 64), "log_interval needs a positive argument"),
    (pow_interval, (0, RatInterval.point(1), 64),
     "pow_interval needs a positive base"),
    (sqrt_interval, (-1, 64), "sqrt_interval needs a nonnegative argument"),
    (zeta_interval, (1, 64), "zeta_interval needs a power above 1"),
    (RatInterval, (F(2), F(1)), "interval endpoints out of order: 2 > 1"),
])
def test_argument_checks(call, args, message):
    with pytest.raises(ValidationError, match=message):
        call(*args)


def test_absolute_value_of_an_interval():
    assert abs(RatInterval(F(1), F(2))) == RatInterval(F(1), F(2))
    assert abs(RatInterval(F(-2), F(-1))) == RatInterval(F(1), F(2))
    assert abs(RatInterval(F(-3), F(2))) == RatInterval(F(0), F(3))


def test_cached_enclosures_follow_the_precision():
    # zeta(3/2) and (1/2)**(log 2/log 3) are cached per precision: a higher
    # one computes a narrower enclosure inside the first, and going back
    # returns the first one again
    measures = (lambda: PSeries(1, F(3, 2)).sum().enclosure(),
                lambda: cantor_scale_measure(F(1, 2)).enclosure())
    previous = update_config(precision_bits=256)
    try:
        coarse = [measure() for measure in measures]
        update_config(precision_bits=512)
        for measure, first in zip(measures, coarse):
            fine = measure()
            assert first.lo <= fine.lo and fine.hi <= first.hi
            assert fine.hi - fine.lo < first.hi - first.lo
        update_config(precision_bits=256)
        assert [measure() for measure in measures] == coarse
    finally:
        set_config(previous)


def test_refused_enclosures_are_not_cached():
    entries = zeta_interval.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValidationError, match="needs a power above 1"):
            zeta_interval(1, 64)
    assert zeta_interval.cache_info().currsize == entries


@pytest.mark.parametrize("s", [F(10) ** 2000, F(1, 10 ** 2000),
                               F(-7, 3) * F(10) ** -600])
def test_measures_beyond_the_float_range_print_17_digits(s):
    # float() overflows at 10**2000 and flushes the others to 0.0; the
    # printed value is within one unit of its 17th digit of mpmath's
    m = cantor_scale_measure(s)
    text = m.render()
    assert re.fullmatch(r"\d\.\d{16}e[+-]\d{3,}", text)
    with mp.workdps(80):
        want = _fraction(((mpmath.mpf(abs(s.numerator)) / s.denominator)
                          ** (mpmath.log(2) / mpmath.log(3)))._mpf_)
    assert abs(F(text) - want) < F(10) ** (int(text.split("e")[1]) - 16)
    assert (-m).render() == "-" + text


def ref_render_beyond_floats(x):
    """17 significant digits of x != 0 by integer division, rounded half to
    even, in float repr's e-notation."""
    n, d = abs(x.numerator), x.denominator
    k = 16 - (len(str(n)) - len(str(d)))  # within one of the final k
    while True:
        q, r = divmod(n * 10 ** k, d) if k >= 0 else divmod(n, d * 10 ** -k)
        if 10 ** 16 <= q < 10 ** 17:
            break
        k += 1 if q < 10 ** 16 else -1
    den = d if k >= 0 else d * 10 ** -k
    q += 2 * r > den or (2 * r == den and q % 2)
    if q == 10 ** 17:
        q, k = q // 10, k - 1
    digits = str(q)
    return f"{'-' * (x < 0)}{digits[0]}.{digits[1:]}e{16 - k:+d}"


def test_render_beyond_floats_matches_integer_rounding():
    rng = random.Random(29)
    for _ in range(3000):
        digits = lambda: 10 ** rng.randrange(1, 40)
        x = (F(rng.choice([-1, 1]) * rng.randrange(1, digits()),
               rng.randrange(1, digits()))
             * F(10) ** rng.choice([rng.randrange(350, 3000),
                                    -rng.randrange(370, 3000)]))
        assert _numeric.render_float(x) == ref_render_beyond_floats(x)
    # ties past the 17th digit round to even, carrying into the exponent
    for q, text in ((123456789012345665, "1.2345678901234566e+517"),
                    (123456789012345675, "1.2345678901234568e+517"),
                    (-999999999999999995, "-1.0000000000000000e+518")):
        x = q * F(10) ** 500
        assert _numeric.render_float(x) == ref_render_beyond_floats(x) == text


def test_exact_values_print_every_digit_past_the_int_string_limit():
    # str() of an int refuses past 4,300 digits by default
    big = F(10) ** 12000
    assert _numeric.render_rational(big) == "1" + "0" * 12000
    assert _numeric.render_rational(-big / 7) == "-1" + "0" * 12000 + "/7"
    assert _numeric.render_rational(F(-5, 7)) == "-5/7"


def test_in_range_measures_print_as_floats():
    for m in (cantor_scale_measure(F(1, 2)), PSeries(10 ** 300, 2).sum(),
              cantor_scale_measure(F(1, 10 ** 500))):
        assert m.render() == repr(float(m.enclosure().mid))
