"""Order, algebra and limit behaviour of dimension-measure pairs."""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff import _numeric, hvalue
from hausdorff._numeric import RatInterval, _bernoulli, pow_interval
from hausdorff.config import get_config, set_config, update_config
from hausdorff.errors import (DoesNotConverge, HausdorffError,
                              IncomparableDimensions, NotSupported,
                              UndefinedSum, ValidationError)
from hausdorff.hvalue import (DIM_CANTOR, DIM_ONE, DIM_ZERO, EXT_ZERO,
                              NEG_INF, POS_INF, ZERO_PAIR, ClimbTail,
                              ConstantTail, Dimension, ExtReal, FiniteList,
                              Geometric, GrowthTail, HPair, HSeq,
                              InterleaveTail, MeasureTail, PSeries,
                              ext_sum, hpair_add, hpair_eq,
                              hpair_inf, hpair_series, hpair_sum, hpair_sup,
                              hseq_liminf, hseq_limit, top_terms)
from hausdorff.metrics import dH_pairs
from hausdorff.setalg import cantor_scale_measure


def pair(d, m):
    return HPair.of(d, m)


# --------------------------------------------------------------------------
# dimensions


def test_log_ratio_normalization():
    assert Dimension.log_ratio(4, 9) == Dimension.log_ratio(2, 3)
    assert Dimension.log_ratio(8, 27) == Dimension.log_ratio(2, 3)
    assert Dimension.log_ratio(16, 81) == Dimension.log_ratio(2, 3)
    # common base collapses to a rational
    assert Dimension.log_ratio(4, 8) == Dimension.rational(F(2, 3))
    assert Dimension.log_ratio(2, 4) == Dimension.rational(F(1, 2))


def test_log_ratio_validation():
    with pytest.raises(ValidationError):
        Dimension.log_ratio(9, 4)  # value above 1
    with pytest.raises(ValidationError):
        Dimension.log_ratio(1, 3)
    with pytest.raises(ValidationError):
        Dimension.rational(F(5, 2))  # outside [0, 2]
    with pytest.raises(ValidationError,
                       match="log_ratio arguments must be integers"):
        Dimension.log_ratio(2.0, 3)


def test_dimension_renders_and_refuses_a_rational_value():
    gap = DIM_ONE - DIM_CANTOR
    assert gap.render() == "1 - log(2)/log(3)"
    assert repr(gap) == "Dimension(1 - log(2)/log(3))"
    with pytest.raises(NotSupported, match=r"log\(2\)/log\(3\) is irrational"):
        DIM_CANTOR.as_fraction()


def test_dimension_compare_exact_power_trick():
    d = DIM_CANTOR
    # 0.63092975357 < log(2)/log(3) < 0.63092975358
    assert d.cmp(Dimension.rational(F(63092975357, 10**11))) == 1
    assert d.cmp(Dimension.rational(F(63092975358, 10**11))) == -1
    assert d.cmp(Dimension.log_ratio(4, 9)) == 0
    # a genuine rational hit: log(4)/log(8) = 2/3 exactly
    assert Dimension.log_ratio(4, 8).cmp(Dimension.rational(F(2, 3))) == 0


def test_dimension_lincomb_cancellation():
    # log(2)/log(3) - log(2)/log(9) equals log(2)/log(9) exactly
    gap = DIM_CANTOR - Dimension.log_ratio(2, 9)
    assert gap.cmp(Dimension.log_ratio(2, 9)) == 0


def test_incomparable_raises_at_cap():
    import mpmath
    with mpmath.workprec(700):
        x = mpmath.log(2) / mpmath.log(3)
        approx = mpmath.nstr(x, 170)
    digits = approx.replace("0.", "")
    close = F(int(digits), 10 ** len(digits))
    # closer to log(2)/log(3) than 2^-256 but not equal
    with pytest.raises(IncomparableDimensions):
        DIM_CANTOR.cmp(Dimension.rational(close))


def test_lexicographic_order():
    assert pair(0, 10**9) < pair(F(1, 2), -(10**9))
    assert pair(DIM_CANTOR, POS_INF) < pair(1, NEG_INF)
    assert pair(1, -5) < pair(1, -4)
    assert pair(1, 3) <= pair(1, 3)
    assert not pair(1, 3) < pair(1, 3)


# --------------------------------------------------------------------------
# extended reals


def test_ext_arithmetic():
    assert (ExtReal.of(2) + ExtReal.of(F(1, 3))).as_fraction() == F(7, 3)
    assert (POS_INF + ExtReal.of(5)) == POS_INF
    assert (NEG_INF + ExtReal.of(5)) == NEG_INF
    with pytest.raises(UndefinedSum):
        POS_INF + NEG_INF
    assert abs(NEG_INF) == POS_INF
    assert NEG_INF.scale(-2) == POS_INF
    assert ext_sum([ExtReal.of(1), POS_INF, ExtReal.of(-7)]) == POS_INF
    with pytest.raises(UndefinedSum):
        ext_sum([POS_INF, ExtReal.of(1), NEG_INF])
    with pytest.raises(ValidationError, match=r"0 \* inf is undefined here"):
        POS_INF.scale(0)
    assert NEG_INF.sign() == -1
    assert repr(ExtReal.of(F(-1, 2))) == "ExtReal(-1/2)"
    assert repr(pair(DIM_CANTOR, 3)) == "HPair(log(2)/log(3), 3)"


def test_ext_enclosures():
    # a point enclosure is the exact value
    assert ExtReal.interval(RatInterval.point(3)) == ExtReal.of(3)
    assert ExtReal.of(3).is_exact()
    ivl = ExtReal.interval(RatInterval(F(1), F(2)))
    assert not ivl.is_exact()
    assert -ivl == ExtReal.interval(RatInterval(F(-2), F(-1)))
    with pytest.raises(NotSupported, match="has no exact rational value"):
        ivl.as_fraction()
    with pytest.raises(NotSupported,
                       match="infinite value has no finite enclosure"):
        POS_INF.enclosure()


def ref_ext_sum(values):
    """`ext_sum` before it was a fold of `ExtReal.__add__`: the infinities
    are tracked apart and the finite values summed."""
    total = EXT_ZERO
    saw_pos = saw_neg = False
    for v in values:
        if v == POS_INF:
            saw_pos = True
        elif v == NEG_INF:
            saw_neg = True
        if saw_pos and saw_neg:
            raise UndefinedSum("measure sum mixes +inf and -inf")
        if v not in (POS_INF, NEG_INF):
            total = total + v
    if saw_pos:
        return POS_INF
    if saw_neg:
        return NEG_INF
    return total


def _sum_outcome(fn, values):
    """The sum, or the class of the error."""
    try:
        return fn(iter(values))
    except HausdorffError as exc:
        return type(exc)


EXT_VALUES = st.one_of(
    st.fractions(-9, 9, max_denominator=6).map(ExtReal.of),
    st.builds(lambda c, p: PSeries(c, p).sum(),
              st.sampled_from([1, -2, F(7, 3)]), st.sampled_from([2, F(3, 2)])),
    st.builds(cantor_scale_measure, st.sampled_from([F(1, 2), F(5, 7), 2])),
    st.sampled_from([POS_INF, NEG_INF]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(EXT_VALUES, max_size=8))
def test_ext_sum_matches_the_loop_it_replaced(values):
    assert _sum_outcome(ext_sum, values) == _sum_outcome(ref_ext_sum, values)


# --------------------------------------------------------------------------
# exact comparisons


def test_exact_comparisons_build_no_difference_and_no_enclosure(monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(Dimension, "__sub__",
                        counted("__sub__", Dimension.__sub__))
    monkeypatch.setattr(hvalue, "_dim_enclosure",
                        counted("_dim_enclosure", hvalue._dim_enclosure))
    shifted = Dimension(rat=F(1, 3), logs=DIM_CANTOR.logs)
    # equal log parts compare their rationals
    assert DIM_CANTOR.cmp(Dimension.log_ratio(4, 9)) == 0
    assert shifted.cmp(DIM_CANTOR) == 1
    assert Dimension.rational(F(1, 2)).cmp(Dimension.rational(F(2, 3))) == -1
    # a rational against one log term is an integer power comparison
    assert Dimension.rational(F(1, 2)).cmp(DIM_CANTOR) == -1
    assert DIM_CANTOR.cmp(Dimension.rational(F(2, 3))) == -1
    assert shifted.cmp(DIM_ONE) == -1
    assert Dimension.log_ratio(4, 8).cmp(Dimension.rational(F(2, 3))) == 0
    assert not calls

    monkeypatch.setattr(RatInterval, "__init__",
                        counted("RatInterval", RatInterval.__init__))
    assert ExtReal.of(F(1, 3)).cmp(ExtReal.of(F(1, 2))) == -1
    assert ExtReal.of(4).cmp(ExtReal.of(4)) == 0
    assert [ExtReal.of(x).sign() for x in (F(-2, 7), 0, 5)] == [-1, 0, 1]
    assert not calls


def ref_dim_cmp(a, b):
    """`Dimension.cmp` before its exact paths: the sign of a - b, exact for
    at most one log term, else by interval separation."""
    diff = a - b
    if not diff.logs:
        return (diff.rat > 0) - (diff.rat < 0)
    if len(diff.logs) == 1:
        sign = hvalue._sign_single_log(diff.rat, *diff.logs[0])
        if sign is not None:
            return sign
    prec, cap = hvalue._START_PREC, get_config().precision_bits
    while True:
        sign = hvalue._dim_enclosure(diff, prec).sign()
        if sign is not None:
            return sign
        if prec >= cap:
            raise IncomparableDimensions(
                f"cannot separate {a.render()} and {b.render()} "
                f"within {cap} bits")
        prec = min(2 * prec, cap)


def ref_dim_abs_diff(a, b):
    diff = a - b
    if not diff.logs:
        return Dimension(rat=abs(diff.rat))
    return diff if ref_dim_cmp(a, b) >= 0 else diff.scale(F(-1))


def ref_ext_cmp(x, y):
    """`ExtReal.cmp` before its exact path: every finite value through its
    enclosure, overlapping enclosures equal."""
    rx, ry = hvalue._RANK[x.kind], hvalue._RANK[y.kind]
    if rx != ry:
        return (rx > ry) - (rx < ry)
    if rx != 1:
        return 0
    ix, iy = x.enclosure(), y.enclosure()
    if ix.hi < iy.lo:
        return -1
    if ix.lo > iy.hi:
        return 1
    return 0


def ref_ext_sign(x):
    if x == POS_INF:
        return 1
    if x == NEG_INF:
        return -1
    s = x.enclosure().sign()
    return 0 if s is None else s


def _outcome(call):
    try:
        return call()
    except HausdorffError as exc:
        return type(exc).__name__, str(exc)


def _comparison_pools():
    # a rational within 10**-40 of log(2)/log(3): too long for the integer
    # power comparison, so it is separated by intervals
    near = F(round(DIM_CANTOR.enclosure(512).mid * 10 ** 40), 10 ** 40)
    rats = [F(0), F(1, 3), F(1, 2), F(63, 100), F(2, 3), F(1), F(3, 2),
            F(2), near]
    keys = [(2, 3), (2, 5), (3, 5), (2, 7)]
    coefs = [F(1), F(-1), F(1, 2), F(2), F(-3, 2)]
    exact = [F(0), F(1), F(-1), F(1, 3), F(-5, 2), F(1644934, 10 ** 6)]
    intervals = [RatInterval(F(0), F(1)), RatInterval(F(-1), F(0)),
                 RatInterval(F(1, 4), F(1, 2)), RatInterval(F(-3), F(-2)),
                 RatInterval(F(1), F(2)),
                 PSeries(1, 2).sum().enclosure(),
                 PSeries(F(-7, 3), F(3, 2)).sum().enclosure()]
    return rats, keys, coefs, exact, intervals


def test_exact_comparisons_match_the_interval_reference():
    rats, keys, coefs, exact, intervals = _comparison_pools()
    rng = random.Random(27)

    def dimension():
        terms = rng.sample(keys, rng.choice((0, 0, 1, 1, 2)))
        return Dimension(rat=rng.choice(rats), logs=tuple(sorted(
            (key, rng.choice(coefs)) for key in terms)))

    def measure():
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice((POS_INF, NEG_INF))
        if kind in (1, 2):
            return ExtReal.of(rng.choice(exact))
        return ExtReal.interval(rng.choice(intervals))

    hits = Counter()
    for _ in range(2000):
        a, b = dimension(), dimension()
        x, y = measure(), measure()
        hits["equal logs"] += a.logs == b.logs
        hits["rational and one log"] += len(a.logs) + len(b.logs) == 1
        hits["two exact"] += x.is_exact() and y.is_exact()
        hits["interval"] += not (x.is_exact() and y.is_exact()) and x.is_finite() and y.is_finite()
        assert _outcome(lambda: a.cmp(b)) == _outcome(lambda: ref_dim_cmp(a, b)), (a, b)
        assert _outcome(lambda: dH_pairs(HPair(a, EXT_ZERO),
                                         HPair(b, EXT_ZERO)).value.d) == \
            _outcome(lambda: ref_dim_abs_diff(a, b)), (a, b)
        assert x.cmp(y) == ref_ext_cmp(x, y), (x, y)
        assert x.sign() == ref_ext_sign(x), x
    assert min(hits.values()) >= 200, hits


def test_dH_pairs_signs_a_dimension_gap_once(monkeypatch):
    calls = Counter()
    diff_sign = hvalue._diff_sign

    def counted(*args):
        calls["_diff_sign"] += 1
        return diff_sign(*args)

    monkeypatch.setattr(hvalue, "_diff_sign", counted)
    l25 = Dimension.log_ratio(2, 5)
    cases = [
        # two log terms in the difference: interval separation
        (DIM_CANTOR, l25),
        (Dimension(rat=F(1, 2), logs=l25.logs), DIM_CANTOR),
        # one log term left in the difference: an integer power comparison
        (Dimension(rat=F(1, 10), logs=DIM_CANTOR.logs + l25.logs),
         Dimension(logs=DIM_CANTOR.logs))]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            calls.clear()
            gap = dH_pairs(HPair(x, EXT_ZERO), HPair(y, EXT_ZERO)).value.d
            assert calls == {"_diff_sign": 1}, (x, y)
            assert gap == ref_dim_abs_diff(x, y)


# --------------------------------------------------------------------------
# pair algebra


def test_add_examples():
    assert hpair_eq(hpair_add(pair(1, -1), pair(0, 1)), pair(1, -1))
    assert hpair_eq(hpair_add(pair(1, 2), pair(1, 3)), pair(1, 5))
    assert hpair_eq(hpair_add(pair(DIM_CANTOR, 4), pair(0, 100)),
                    pair(DIM_CANTOR, 4))


def test_identity_element():
    for h in [pair(0, 0), pair(1, -7), pair(DIM_CANTOR, F(3, 2)),
              pair(F(1, 2), POS_INF)]:
        assert hpair_eq(hpair_add(h, ZERO_PAIR), h)
        assert hpair_eq(hpair_add(ZERO_PAIR, h), h)


def _random_pair(rng):
    d = rng.choice([DIM_ZERO, DIM_ONE, DIM_CANTOR,
                    Dimension.rational(F(rng.randrange(0, 5), 3))])
    kind = rng.randrange(4)
    if kind == 0:
        m = POS_INF
    elif kind == 1:
        m = NEG_INF
    else:
        m = ExtReal.of(F(rng.randrange(-50, 50), rng.randrange(1, 9)))
    return HPair(d, m)


def test_add_commutative_associative_seeded():
    rng = random.Random(20260818)
    for _ in range(2000):
        a, b, c = (_random_pair(rng) for _ in range(3))
        try:
            ab = hpair_add(a, b)
        except UndefinedSum:
            with pytest.raises(UndefinedSum):
                hpair_add(b, a)
            continue
        assert hpair_eq(ab, hpair_add(b, a))
        try:
            left = hpair_add(ab, c)
        except UndefinedSum:
            left = None
        try:
            right = hpair_add(a, hpair_add(b, c))
        except UndefinedSum:
            right = None
        if left is not None and right is not None:
            assert hpair_eq(left, right)


def test_sum_matches_any_fold_order():
    rng = random.Random(7)
    for _ in range(300):
        items = [_random_pair(rng) for _ in range(rng.randrange(1, 6))]
        try:
            total = hpair_sum(items)
        except UndefinedSum:
            continue
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert hpair_eq(total, hpair_sum(shuffled))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=200, deadline=None)
def test_add_associative_same_dimension(x, y, z):
    a, b, c = pair(1, x), pair(1, y), pair(1, z)
    assert hpair_eq(hpair_add(hpair_add(a, b), c),
                    hpair_add(a, hpair_add(b, c)))


def test_inf_sup_finite_sets():
    n_max = 12
    items = [pair(1 - F(1, n), 0) for n in range(1, n_max + 1)]
    assert hpair_eq(hpair_sup(items), pair(1 - F(1, n_max), 0))
    assert hpair_eq(hpair_inf(items), pair(0, 0))
    mixed = [pair(DIM_CANTOR, -3), pair(DIM_CANTOR, 5), pair(F(1, 2), 100)]
    assert hpair_eq(hpair_sup(mixed), pair(DIM_CANTOR, 5))
    assert hpair_eq(hpair_inf(mixed), pair(F(1, 2), 100))
    # the lattice corners of [0, 1] x [0, inf]
    assert hpair_inf([]) == pair(1, POS_INF)
    assert hpair_sup([]) == ZERO_PAIR
    # ties keep the first item
    first, tie = pair(1, 2), pair(1, 2)
    assert hpair_inf([first, tie]) is first
    assert hpair_sup([first, tie]) is first


# --------------------------------------------------------------------------
# sequences


def test_constant_and_prefix():
    s = HSeq(prefix=(pair(0, 1), pair(0, 2)), tail=ConstantTail(pair(1, 5)))
    assert hpair_eq(s.term(1), pair(0, 1))
    assert hpair_eq(s.term(2), pair(0, 2))
    assert hpair_eq(s.term(3), pair(1, 5))
    assert hpair_eq(hseq_limit(s), pair(1, 5))
    with pytest.raises(ValidationError, match="sequence indices start at 1"):
        s.term(0)


def test_vanishing_measure_limit():
    # s_n = (1, -1/n) -> (1, 0)
    s = HSeq(tail=MeasureTail(DIM_ONE, PSeries(-1, 1)))
    assert hpair_eq(s.term(4), pair(1, F(-1, 4)))
    assert hpair_eq(hseq_limit(s), pair(1, 0))


def test_measure_tail_with_base():
    # s_n = (1, 1 - 1/n) -> (1, 1)
    s = HSeq(tail=MeasureTail(DIM_ONE, PSeries(-1, 1), base=ExtReal.of(1)))
    assert hpair_eq(s.term(2), pair(1, F(1, 2)))
    assert hpair_eq(hseq_limit(s), pair(1, 1))


def test_dimension_climb_limit():
    s = HSeq(tail=ClimbTail(DIM_ONE, measures=FiniteList([9, -3, 7])))
    for n in range(1, 12):
        assert s.term(n).d.cmp(DIM_ONE) < 0
    assert hpair_eq(hseq_limit(s), pair(1, 0))
    irr = HSeq(tail=ClimbTail(DIM_CANTOR))
    assert hpair_eq(hseq_limit(irr), pair(DIM_CANTOR, 0))
    with pytest.raises(ValidationError,
                       match="a climb needs a positive limit dimension"):
        ClimbTail(DIM_ZERO)


def test_growth_tail():
    s = HSeq(tail=GrowthTail(DIM_ZERO, F(1)))
    assert hpair_eq(s.term(3), pair(0, 3))
    assert hpair_eq(hseq_limit(s), pair(0, POS_INF))
    with pytest.raises(ValidationError, match="growth slope must be nonzero"):
        GrowthTail(DIM_ONE, F(0))


def test_interleaved_liminf_limsup():
    s = HSeq(tail=InterleaveTail((ConstantTail(pair(1, -1)),
                                  ConstantTail(pair(1, 1)))))
    assert hpair_eq(hseq_liminf(s), pair(1, -1))
    assert hpair_eq(s.tail.limsup(), pair(1, 1))
    with pytest.raises(DoesNotConverge):
        hseq_limit(s)
    with pytest.raises(ValidationError,
                       match="interleave needs at least two rules"):
        InterleaveTail((ConstantTail(pair(1, 1)),))


def test_monotone_limit_is_sup_of_range():
    rng = random.Random(99)
    for _ in range(40):
        base = F(rng.randrange(1, 30), rng.randrange(1, 9))
        tail = MeasureTail(DIM_ONE, Geometric(-base, F(1, 2)),
                           base=ExtReal.of(base))
        prefix = tuple(pair(0, k) for k in range(rng.randrange(0, 4)))
        s = HSeq(prefix=prefix, tail=tail)
        limit = hseq_limit(s)
        terms = [s.term(n) for n in range(1, 60)]
        for a, b in zip(terms, terms[1:]):
            assert a <= b
        assert all(t <= limit for t in terms)
        assert hpair_eq(hpair_sup(terms + [limit]), limit)


# --------------------------------------------------------------------------
# series of pairs


def test_series_single_dimension():
    out = hpair_series([DIM_ZERO], [Geometric(F(1, 2), F(1, 2))])
    assert hpair_eq(out, pair(0, 1))


def test_series_top_dimension_wins():
    out = hpair_series([DIM_ZERO, DIM_CANTOR],
                       [Geometric(5, F(1, 3)), Geometric(F(1, 4), F(1, 2))])
    assert hpair_eq(out, pair(DIM_CANTOR, F(1, 2)))


def test_series_empty_top_sum():
    # top dimension present with all-zero coefficients gives (d, 0)
    out = hpair_series([DIM_ONE, DIM_ZERO],
                       [FiniteList([]), Geometric(1, F(1, 2))])
    assert hpair_eq(out, pair(1, 0))


def test_series_nonnegative_divergent_is_allowed():
    out = hpair_series([DIM_ZERO], [PSeries(1, 1)])
    assert hpair_eq(out, pair(0, POS_INF))


def test_series_rejects_conditional():
    with pytest.raises(DoesNotConverge):
        hpair_series([DIM_ZERO], [PSeries(-1, 1)])
    with pytest.raises(ValidationError,
                       match="dims and coefficient series must pair up"):
        hpair_series([DIM_ZERO], [])


def test_series_constructors_and_exact_edges():
    with pytest.raises(ValidationError, match=r"geometric ratio must "
                       r"satisfy \|r\| < 1, got -1"):
        Geometric(1, -1)
    with pytest.raises(ValidationError, match="power must be positive, got 0"):
        PSeries(1, 0)
    with pytest.raises(NotSupported, match="fractional-power series"):
        PSeries(1, F(3, 2)).term(0)
    assert PSeries(0, 2).sum() == EXT_ZERO
    # a zero ratio: the closed form's 0**0 = 1 gives the one-term sums
    assert [Geometric(5, 0).partial_sum(n) for n in range(4)] == [0, 5, 5, 5]


def test_series_matches_partial_sum_limit():
    rng = random.Random(13)
    for _ in range(50):
        a = F(rng.randrange(1, 20), rng.randrange(1, 7))
        r = F(rng.randrange(1, 9), 10)
        coeffs = Geometric(a, r)
        value = hpair_series([DIM_ONE], [coeffs])
        # partial sums: (1, partial_n); encode via remainders
        rem = coeffs.remainders()
        seq = HSeq(tail=MeasureTail(DIM_ONE, rem.scale(-1), base=coeffs.sum()))
        for n in (1, 2, 5, 9):
            expect = coeffs.partial_sum(n)
            assert seq.term(n).m.as_fraction() == expect
        assert hpair_eq(hseq_limit(seq), value)


# --------------------------------------------------------------------------
# the max-dimension rule against the two-pass sums it replaced


def ref_top_terms(items, dim):
    """The largest dimension by a fold, then a second pass that keeps the
    items comparing equal to it."""
    if not items:
        return None, []
    top = dim(items[0])
    for item in items[1:]:
        top = top if top.cmp(dim(item)) >= 0 else dim(item)
    return top, [item for item in items if dim(item).cmp(top) == 0]


def ref_hpair_sum(items):
    items = list(items)
    if not items:
        return ZERO_PAIR
    top, kept = ref_top_terms(items, lambda h: h.d)
    return HPair(top, ext_sum([h.m for h in kept]))


def ref_hpair_series(dims, coeffs):
    if len(dims) != len(coeffs):
        raise ValidationError("dims and coefficient series must pair up")
    if not dims:
        return ZERO_PAIR
    for i, a in enumerate(dims):
        for b in dims[i + 1:]:
            if a.cmp(b) == 0:
                raise ValidationError("dimensions must be distinct")
    ok = (all(s.abs_converges() for s in coeffs)
          or all(s.sign() is not None and s.sign() >= 0 for s in coeffs))
    if not ok:
        raise DoesNotConverge(
            "series must be absolutely convergent or have nonnegative terms")
    top, _ = ref_top_terms(list(dims), lambda d: d)
    total = ExtReal.of(0)
    for d, s in zip(dims, coeffs):
        if d.cmp(top) == 0:
            total = total + s.sum()
    return HPair(top, total)


# 1/2 + log 2/log 3 lies above 1 and below 2, so every pair of these
# dimensions is separated exactly or by interval arithmetic
RULE_DIMS = (DIM_ZERO, Dimension.rational(F(1, 2)), DIM_ONE,
             Dimension.rational(2), DIM_CANTOR,
             Dimension(rat=F(1, 2), logs=DIM_CANTOR.logs))
# each series sums to an exact value, an enclosure or a signed infinity
RULE_SERIES = st.one_of(
    st.fractions(-9, 9, max_denominator=6).map(lambda v: FiniteList([v])),
    st.integers(-3, 3).map(lambda c: PSeries(c or 1, 2)),
    st.sampled_from([PSeries(1, 1), PSeries(-1, 1)]))


def outcome(fn, *args):
    """The rendered value, or the class and message of the error."""
    try:
        return fn(*args).render()
    except HausdorffError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(RULE_DIMS), RULE_SERIES),
                max_size=8))
def test_top_terms_matches_the_two_pass_rule(drawn):
    items = [HPair(d, s.sum()) for d, s in drawn]
    top, kept = top_terms(items, lambda h: h.d)
    ref_top, ref_kept = ref_top_terms(items, lambda h: h.d)
    assert top == ref_top
    assert [id(h) for h in kept] == [id(h) for h in ref_kept]
    assert outcome(hpair_sum, items) == outcome(ref_hpair_sum, items)
    dims, coeffs = [d for d, _ in drawn], [s for _, s in drawn]
    assert (outcome(hpair_series, dims, coeffs)
            == outcome(ref_hpair_series, dims, coeffs))
    # one series per dimension, so the sum gets past the distinctness check
    firsts = dict(reversed(drawn))
    dims, coeffs = list(firsts), list(firsts.values())
    assert (outcome(hpair_series, dims, coeffs)
            == outcome(ref_hpair_series, dims, coeffs))


def test_sum_below_the_top_never_adds_signed_infinities():
    items = [pair(0, POS_INF), pair(0, NEG_INF), pair(1, 0)]
    assert hpair_sum(items) == pair(1, 0)
    with pytest.raises(UndefinedSum):
        hpair_sum(items[:2])


def _ref_bracket(c, p, bits):
    """Rationals lo <= c * zeta(p) <= hi from mpmath at bits + 64 (at least
    80 digits), widened outward by 2**-(bits+16) * max(1, |c * zeta(p)|)."""
    import mpmath
    with mpmath.workprec(max(bits + 64, 266)):
        value = (mpmath.mpf(c.numerator) / c.denominator
                 * mpmath.zeta(mpmath.mpf(p.numerator) / p.denominator))
        scaled = int(mpmath.floor(mpmath.ldexp(value, bits + 16)))
        slack = max(1, int(mpmath.ceil(abs(value))))
    return F(scaled - slack, 2 ** (bits + 16)), F(scaled + 1 + slack, 2 ** (bits + 16))


def test_pseries_sum_encloses_basel_value():
    # independent check: sum 1/n^2 = pi^2/6, exact rational endpoints against
    # a 400-bit mpmath reference, width set by precision_bits
    import mpmath
    enc = PSeries(1, 2).sum().enclosure()
    with mpmath.workprec(400):
        scaled = int(mpmath.floor(mpmath.ldexp(mpmath.pi ** 2 / 6, 390)))
    assert enc.lo <= F(scaled + 2, 2 ** 390)
    assert F(scaled - 1, 2 ** 390) <= enc.hi
    assert enc.hi - enc.lo <= F(1, 2 ** (get_config().precision_bits - 8))


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_pseries_sum_contains_zeta_at_precision_width(bits):
    previous = update_config(precision_bits=bits)
    try:
        for p in (2, 3, F(3, 2), F(5, 2), F(7, 4), F(11, 10), F(1001, 1000), 50):
            for c in (1, F(-7, 3), F(9, 2)):
                enc = PSeries(c, p).sum().enclosure()
                lo, hi = _ref_bracket(F(c), F(p), bits)
                assert enc.lo <= hi and lo <= enc.hi, (c, p)
                scale = max(1, min(abs(lo), abs(hi)))
                assert enc.hi - enc.lo <= F(1, 2 ** (bits - 8)) * scale, (c, p)
    finally:
        set_config(previous)


@pytest.mark.parametrize("p, bits", [
    *(pytest.param(p, None, id=str(p)) for p in (200, 10 ** 3, 10 ** 5)),
    *(pytest.param(10 ** k, bits, id=f"1e{k}-{bits}bits")
      for k in (30, 100, 400) for bits in (64, 256, 1024))])
def test_pseries_sum_large_integer_power_is_bounded(p, bits):
    # terms k**-p below 2**-(bits + 64) are enclosed, not summed exactly;
    # past p ~ 10**22 at 256 bits the tail is bracketed by the integral
    # test, and the width stays below 2**-bits (bits None: the default)
    previous = update_config(precision_bits=bits) if bits else None
    try:
        bits = get_config().precision_bits
        start = time.perf_counter()
        enc = PSeries(1, p).sum().enclosure()
        assert time.perf_counter() - start < 0.5
        lo, hi = _ref_bracket(F(1), F(p), bits)
        assert enc.lo <= hi and lo <= enc.hi
        assert enc.hi - enc.lo <= F(1, 2 ** bits)
    finally:
        if previous is not None:
            set_config(previous)


def test_pseries_sum_makes_few_exp_kernel_calls(monkeypatch):
    # one fixed-point exp per prime of the head and tail, none for integer p
    calls = []

    def counting(*args):
        calls.append(args)
        return exp_fixed(*args)

    exp_fixed = _numeric._exp_fixed
    monkeypatch.setattr(_numeric, "_exp_fixed", counting)
    # an earlier test may have cached zeta(3/2) at this precision
    _numeric.zeta_interval.cache_clear()
    PSeries(1, 2).sum()
    assert not calls
    PSeries(1, F(3, 2)).sum()
    assert 0 < len(calls) <= 11
    # zeta(3/2) is summed once per precision, whatever the coefficient
    cold = len(calls)
    PSeries(1, F(3, 2)).sum()
    PSeries(5, F(3, 2)).sum()
    assert len(calls) == cold


def test_bernoulli_numbers_first_values():
    assert [_bernoulli(n) for n in range(2, 22, 2)] == [
        F(1, 6), F(-1, 30), F(1, 42), F(-1, 30), F(5, 66), F(-691, 2730),
        F(7, 6), F(-3617, 510), F(43867, 798), F(-174611, 330)]


def ref_pseries_sum(c, p, bits):
    """c * zeta(p) for p > 1 the way `PSeries.sum` enclosed it on Fractions:
    exact head terms for integer p (a power k**-p below 2**-(bits + 64) is
    [0, that bound]), one `pow_interval` per term for fractional p, and the
    Euler-Maclaurin tail as a Fraction bracket."""
    cap = bits + 64
    tiny = RatInterval(F(0), F(1, 1 << cap))

    def power(k):
        if p.denominator != 1:
            return pow_interval(k, RatInterval.point(-p), bits)
        if p.numerator * (k.bit_length() - 1) < cap:
            kp = k ** p.numerator
            if kp.bit_length() <= cap:
                return RatInterval.point(F(1, kp))
        return tiny

    n = math.ceil(bits * math.log(2) / (2 * math.pi)) + 2
    limit = F(n ** min(math.floor(p), bits), 1 << bits)
    body = n / (p - 1) + F(1, 2)
    g, j = p / (2 * n), 1  # t_j / B_2j
    rest = _bernoulli(2) * g
    while abs(rest) > limit:
        g *= (p + 2 * j - 1) * (p + 2 * j) / ((2 * j + 1) * (2 * j + 2) * n * n)
        j += 1
        following = _bernoulli(2 * j) * g
        if abs(following) >= abs(rest):
            break
        body += rest
        rest = following
    tail = RatInterval(body + min(rest, 0), body + max(rest, 0)) * power(n)
    head = sum((power(k) for k in range(1, n)), RatInterval.point(0))
    return (head + tail) * c


def _zeta_cases():
    rng = random.Random(12)
    powers = [F(p) for p in list(range(2, 61)) + [200, 10 ** 3, 10 ** 5]]
    for b in range(2, 13):
        powers += [F(a, b) for a in rng.sample(range(b + 1, 12 * b + 1), 5)]
    powers += [1 + F(1, q) for q in [1, 2, 3, 10 ** 3] + rng.sample(range(4, 10 ** 3), 8)]
    # every power at 64 and 256 bits, every third one at 512 as well
    cases = [(F(rng.randint(1, 99), rng.randint(1, 9)) * rng.choice((-1, 1)), p, bits)
             for i, p in enumerate(powers) for bits in (64, 256, 512)[:2 + (i % 3 == 0)]]
    # the reference takes 0.5 s for this power at 64 bits, and 4 s at 256
    return cases + [(F(-5, 3), F(100001, 2), 64)]


def test_pseries_sum_matches_the_fraction_reference():
    cases = _zeta_cases()
    assert len(cases) >= 300
    for c, p, bits in cases:
        previous = update_config(precision_bits=bits)
        try:
            enc = PSeries(c, p).sum().enclosure()
        finally:
            set_config(previous)
        ref = ref_pseries_sum(c, p, bits)
        lo, hi = _ref_bracket(c, p, bits)
        assert enc.lo <= hi and lo <= enc.hi, (c, p, bits)
        assert enc.lo <= ref.hi and ref.lo <= enc.hi, (c, p, bits)
        # a head term is one unit of 2**-(bits + 64) wide, however small
        # the power, where the reference can be far narrower
        width = enc.hi - enc.lo
        assert width <= 2 * (ref.hi - ref.lo) + abs(c) * F(1, 2 ** (bits + 48)), (c, p, bits)
        assert width <= F(1, 2 ** (bits - 8)) * max(1, min(abs(lo), abs(hi))), (c, p, bits)


def test_zeta_two_is_not_read_as_a_nearby_rational():
    # zeta(2) - 1644934/10**6 is about 6.7e-8; a wide enclosure read it as 0
    near = F(1644934, 10 ** 6)
    assert (PSeries(1, 2).sum() - ExtReal.of(near)).sign() == 1
    assert not hpair_eq(HPair(DIM_ZERO, PSeries(1, 2).sum()),
                        HPair(DIM_ZERO, ExtReal.of(near)))


def test_pseries_tail_indexing():
    s = PSeries(3, 1)
    assert s.term(0) == 3
    assert s.term(3) == F(3, 4)
