"""Exact powers and sequence indices: the closed-form helpers of _numeric
and the sequence code built on them, against the counting loops and the
trial division they replaced, and against brute-force enumeration."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff import oracle
from hausdorff._numeric import (_ITER_GUARD, Fraction, _trimmed,
                                coprime_base, exact_pow, exact_root,
                                geo_steps, iroot, power_base, power_index)
from hausdorff.errors import TooLarge
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CountableSeq,
                              FinitePoints, Interval, RepSet,
                              _primitive_ratio, _seq_seq_commons, normalize)

BRUTE = 60  # indices enumerated by the brute-force checks


# ---------------------------------------------------------------------------
# reference implementations: index loops and trial division


def ref_prime_exponents(n):
    out, m, f = {}, abs(n), 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def ref_frac_exponents(x):
    out = dict(ref_prime_exponents(x.numerator))
    for p, e in ref_prime_exponents(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def ref_power_index(value, base):
    """Integer z with value == base**z, else None; base in (0, 1)."""
    if value <= 0:
        return None
    if value == 1:
        return 0
    z, v = 0, F(1)
    while True:
        if value < 1:
            v, z = v * base, z + 1
            if v <= value:
                return z if v == value else None
        else:
            v, z = v / base, z - 1
            if v >= value:
                return z if v == value else None


def ref_primitive_ratio(q):
    expo = ref_frac_exponents(q)
    g = 0
    for e in expo.values():
        g = math.gcd(g, abs(e))
    num = den = 1
    for p, e in expo.items():
        if e > 0:
            num *= p ** (e // g)
        else:
            den *= p ** (-e // g)
    return F(num, den), g


def ref_geo_steps(q, r, strict):
    n, val = 0, F(1)
    while not (val < r or (val == r and not strict)):
        n, val = n + 1, val * q
    return n


def ref_index_of(seq, x):
    t = x - seq.a
    if t == 0 or (t > 0) != (seq.b > 0):
        return None
    if seq.family == HARMONIC:
        n = seq.b / t
        return int(n) if n.denominator == 1 and n >= 1 else None
    z = ref_power_index(t / seq.b, seq.q)
    return z if z is not None and z >= 1 else None


def ref_in_base(seq, x):
    return ref_index_of(seq, x) is not None


def ref_first_index_below(seq, bound):
    if seq.family == HARMONIC:
        return max(1, math.ceil(seq.b / bound))
    val, n = seq.b * seq.q, 1
    while val > bound:
        val, n = val * seq.q, n + 1
    return n


def ref_last_index_above(seq, bound):
    if seq.family == HARMONIC:
        n = math.floor(seq.b / bound)
        return n if n >= 1 else None
    val, n, best = seq.b * seq.q, 1, None
    while val >= bound:
        best, val, n = n, val * seq.q, n + 1
    return best


def ref_indices_within(seq, lo, hi):
    if seq.b < 0:
        seq = CountableSeq(seq.family, -seq.a, -seq.b, seq.q)
        lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
    upper = None if hi is None else hi - seq.a
    lower = None if lo is None else lo - seq.a
    if upper is None:
        n_min = 1
    elif upper <= 0:
        return ("finite", ())
    else:
        n_min = ref_first_index_below(seq, upper)
    if lower is None or lower <= 0:
        return ("tail", n_min)
    n_max = ref_last_index_above(seq, lower)
    if n_max is None or n_max < n_min:
        return ("finite", ())
    return ("finite", tuple(range(n_min, n_max + 1)))


def ref_solve_two_unknowns(rows):
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        n = F(c1 * b2 - c2 * b1, det)
        m = F(a1 * c2 - a2 * c1, det)
        if n.denominator != 1 or m.denominator != 1:
            return None
        if any(a * n + b * m != c for a, b, c in rows):
            return None
        return int(n), int(m)
    return None


def ref_common_points_finite(x, y):
    delta, commons = abs(y.a - x.a), []
    for seq, other in ((x, y), (y, x)):
        if seq.family == HARMONIC:
            indices = range(1, max(1, math.ceil(2 * abs(seq.b) / delta)) + 1)
        else:
            indices, n, val = [], 1, abs(seq.b) * seq.q
            while 2 * val >= delta:
                indices.append(n)
                n, val = n + 1, val * seq.q
        commons += [p for p in map(seq.point, indices) if ref_in_base(other, p)]
    return sorted(set(commons))


def ref_seq_base_subset(x, y):
    if x.a != y.a or (x.b > 0) != (y.b > 0):
        return False
    if x.family == HARMONIC and y.family == HARMONIC:
        k = y.b / x.b
        return k.denominator == 1 and k >= 1
    if x.family == GEOMETRIC and y.family == GEOMETRIC:
        if x.q == y.q:
            z = ref_power_index(x.b / y.b, x.q)
            return z is not None and z >= 0
        k = ref_power_index(x.q, y.q)
        if k is None or k < 1:
            return False
        j = ref_power_index(x.b / y.b, y.q)
        return j is not None and j + k >= 1
    if x.family == GEOMETRIC and y.family == HARMONIC:
        if x.q.numerator != 1:
            return False
        first = (y.b / x.b) * x.q.denominator
        return first.denominator == 1 and first >= 1
    return False


def ref_geo_geo_commons(x, y):
    ex, ey = ref_frac_exponents(x.q), ref_frac_exponents(y.q)
    parallel = (set(ex) == set(ey)
                and len({F(ey[p], ex[p]) for p in ex}) == 1)
    if not parallel:
        target = ref_frac_exponents(y.b / x.b)
        primes = sorted(set(ex) | set(ey) | set(target))
        sol = ref_solve_two_unknowns(
            [(ex.get(p, 0), -ey.get(p, 0), target.get(p, 0)) for p in primes])
        if sol is None:
            return "disjoint"
        n, m = sol
        if n >= 1 and m >= 1 and x.b * x.q ** n == y.b * y.q ** m:
            return ("finite", [x.point(n)])
        return "disjoint"
    rho, e = ref_primitive_ratio(x.q)
    f = ref_power_index(y.q, rho)
    z = ref_power_index(y.b / x.b, rho)
    if f is None or z is None or z % math.gcd(e, f) != 0:
        return "disjoint"
    return None


def ref_harm_geo_commons(h, g):
    ratio = h.b / g.b
    u, v = g.q.numerator, g.q.denominator
    if u == 1:
        m0 = 1
        ev = ref_prime_exponents(v)
        for p, e in ref_prime_exponents(ratio.denominator).items():
            if p not in ev:
                return "disjoint"
            m0 = max(m0, math.ceil(F(e, ev[p])))
        while ratio * F(v) ** m0 < 1:
            m0 += 1
        return ("tail", (g, m0))
    pts, m = [], 1
    while u ** m <= ratio.numerator:
        n = ratio * F(v, u) ** m
        if n.denominator == 1 and n >= 1:
            pts.append(g.point(m))
        m += 1
    return ("finite", pts) if pts else "disjoint"


def ref_seq_seq_commons(x, y):
    if x.a != y.a:
        return ("finite", ref_common_points_finite(x, y))
    if (x.b > 0) != (y.b > 0):
        return "disjoint"
    if ref_seq_base_subset(x, y):
        return ("tail", (x, 1))
    if ref_seq_base_subset(y, x):
        return ("tail", (y, 1))
    if x.family == HARMONIC and y.family == HARMONIC:
        return None
    if x.family == GEOMETRIC and y.family == GEOMETRIC:
        return ref_geo_geo_commons(x, y)
    if x.family == HARMONIC:
        return ref_harm_geo_commons(x, y)
    return ref_harm_geo_commons(y, x)


def ref_exact_sqrt(x):
    """The square root that deficiency's planar lengths read."""
    x = F(x)
    rn = exact_root(x.numerator, 2)
    rd = exact_root(x.denominator, 2)
    if rn is None or rd is None:
        return None
    return F(rn, rd)


def ref_rational_pow(x, r):
    """The power that the oracle's cover premeasures read."""
    num = exact_root(x.numerator, r.denominator)
    den = exact_root(x.denominator, r.denominator)
    if num is None or den is None:
        return None
    return F(num, den) ** r.numerator


def ref_trimmed(xs):
    """The normal form Poly and FiniteList each wrote out."""
    out = [F(x) for x in xs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# integer roots, power bases and coprime bases


def _rand_base(rng):
    """0, 1, a perfect power, a non-power or a 400-digit term."""
    kind = rng.randrange(5)
    if kind < 2:
        return kind
    if kind == 2:
        return rng.randrange(1, 40) ** rng.randrange(2, 7)
    if kind == 3:
        return rng.randrange(2, 10 ** 6)
    return rng.randrange(10 ** 399, 10 ** 400)


def test_exact_pow_matches_the_square_root_and_the_rational_power():
    rng = random.Random(2000)
    roots = 0
    for _ in range(3000):
        x = F(_rand_base(rng), max(1, _rand_base(rng)))
        if rng.random() < 0.5:  # make a perfect power of x
            x **= rng.randrange(1, 7)
        assert exact_pow(x, F(1, 2)) == ref_exact_sqrt(x)
        assert exact_pow(-x, F(1, 2)) == ref_exact_sqrt(-x)
        r = F(rng.randrange(1, 6), rng.randrange(1, 7))
        got = exact_pow(x, r)
        assert got == ref_rational_pow(x, r)
        roots += got is not None
    assert 500 < roots < 2500  # both answers are drawn often


def test_trimmed_matches_the_constructor_loop():
    rng = random.Random(474)
    values = [0, 0, 1, -3, F(0), F(2, 3), F(-5, 7), "0", "3/4", "-2", "0/5"]
    for _ in range(2000):
        xs = [rng.choice(values) for _ in range(rng.randrange(0, 7))]
        got = _trimmed(xs)
        assert got == ref_trimmed(xs) and type(got) is tuple
        # a plain Fraction is kept as it is; an int or a string becomes
        # an engine Fraction
        assert [type(v) for v in got] == [F if type(x) is F else Fraction
                                          for x in xs[:len(got)]]
    assert _trimmed([0, F(0), "0"]) == () == _trimmed([])


def test_roots_and_power_bases():
    for n in itertools.chain(range(200), [2 ** 64 - 1, 2 ** 64, 3 ** 40 + 1]):
        for k in (1, 2, 3, 5, 7):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k
            assert exact_root(n, k) == (r if r ** k == n else None)
    assert power_base(1) == (1, 0)
    assert power_base(2 ** 12) == (2, 12)
    assert power_base(6 ** 4) == (6, 4)
    assert power_base(72) == (72, 1)


def test_coprime_base_factors_its_inputs():
    nums = [12, 18, 10, 45, 1, 7 ** 3, 2 ** 10 * 3]
    base = coprime_base(nums)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for n in nums:
        for p in base:
            while n % p == 0:
                n //= p
        assert n == 1


# ---------------------------------------------------------------------------
# properties against the references and brute force

RATIOS = st.builds(lambda v, u: F(u % v or 1, v),
                   st.integers(2, 60), st.integers(1, 59))
COEFS = st.builds(lambda sign, num, den: F(sign * num, den),
                  st.sampled_from([1, -1]),
                  st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(q=RATIOS, n=st.integers(0, 300), c=COEFS, strict=st.booleans())
def test_power_index_and_geo_steps(q, n, c, strict):
    x = q ** n
    assert power_index(x, q) == ref_power_index(x, q) == n
    assert power_index(1 / x, q) == -n
    assert power_index(x * c, q) == ref_power_index(x * c, q)
    for r in (x, abs(c) * x, x * (1 + F(1, 10 ** 9)), abs(c)):
        assert geo_steps(q, r, strict) == ref_geo_steps(q, r, strict)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(q=RATIOS, a=st.sampled_from([F(0), F(1), F(-1, 2)]), b=COEFS,
       n=st.integers(1, 300), j=st.integers(1, 300))
def test_sequence_indices(q, a, b, n, j):
    for seq in (CountableSeq(GEOMETRIC, a, b, q), CountableSeq(HARMONIC, a, b)):
        pts = [seq.point(k) for k in range(1, BRUTE + 1)]
        for x in (seq.point(n), seq.point(n) + F(1, 10 ** 9), a, a + b):
            assert seq.index_of(x) == ref_index_of(seq, x)
        lo, hi = sorted((seq.point(n), seq.point(j)))
        for lo_, hi_ in ((lo, hi), (None, hi), (lo, None), (a, hi)):
            got = seq.indices_within(lo_, hi_)
            assert got == ref_indices_within(seq, lo_, hi_)
            brute = [k for k, p in enumerate(pts, 1)
                     if (lo_ is None or lo_ <= p)
                     and (hi_ is None or p <= hi_)]
            kind, data = got
            listed = (data if kind == "finite" else range(data, BRUTE + 1))
            assert [k for k in listed if k <= BRUTE] == brute


@settings(max_examples=150, deadline=None, derandomize=True)
@given(q=RATIOS, k=st.integers(1, 12))
def test_primitive_ratio(q, k):
    assert _primitive_ratio(q) == ref_primitive_ratio(q)
    rho, e = _primitive_ratio(q ** k)
    assert (rho, e) == ref_primitive_ratio(q ** k)
    assert rho ** e == q ** k


def _related_pair(draw):
    """Two sequences whose ratios and coefficients are often related, so
    that every branch of the intersection code runs."""
    fams = draw(st.sampled_from([(GEOMETRIC, GEOMETRIC)] * 3 + [
        (HARMONIC, GEOMETRIC), (GEOMETRIC, HARMONIC), (HARMONIC, HARMONIC)]))
    base = draw(RATIOS)
    q1 = base ** draw(st.integers(1, 3))
    q2 = draw(st.one_of(st.builds(lambda j: base ** j, st.integers(1, 3)),
                        st.just(q1), RATIOS,
                        st.sampled_from([F(2, 3), F(1, 6), F(9, 10)])))
    x = CountableSeq(fams[0], 0, draw(COEFS), q1 if fams[0] == GEOMETRIC else None)
    # distinct accumulation points sit a gap proportional to the larger
    # coefficient apart, so that both heads stay short
    gap = draw(st.sampled_from([0, 0, 0, F(1, 3), -2]))
    step = (lambda n: q2 ** n) if fams[1] == GEOMETRIC else (lambda n: F(1, n))
    i, j = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.integers(0, 3))
    if kind == 0:  # y meets x at its term i
        a2 = gap * abs(x.b)
        b2 = (x.point(i) - a2) / step(j) or x.b
    else:
        b2 = x.b * [q1 ** i / step(j),
                    draw(st.sampled_from([2, 3, 6, F(1, 2), q1.denominator ** i])),
                    draw(COEFS)][kind - 1]
        a2 = gap * max(abs(x.b), abs(b2))
    return x, CountableSeq(fams[1], a2, b2, q2 if fams[1] == GEOMETRIC else None)


def _tagged(commons, x, y):
    """The payload with the sequence of a tail named, not compared by
    identity."""
    if isinstance(commons, tuple) and commons[0] == "tail":
        seq, start = commons[1]
        return ("tail", ("x" if seq is x else "y", start))
    return commons


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_seq_seq_commons(data):
    x, y = _related_pair(data.draw)
    got = _seq_seq_commons(x, y)
    assert _tagged(got, x, y) == _tagged(ref_seq_seq_commons(x, y), x, y)
    # brute force over the first indices of both
    xs = {x.point(k): k for k in range(1, BRUTE + 1)}
    ys = {y.point(k): k for k in range(1, BRUTE + 1)}
    common = set(xs) & set(ys)
    if got == "disjoint":
        assert not common
    elif got is not None and got[0] == "finite":
        assert common <= set(got[1])
        assert all(ref_in_base(x, p) and ref_in_base(y, p) for p in got[1])
    elif got is not None:
        seq, start = got[1]
        other = y if seq is x else x
        for p, k in (xs if seq is x else ys).items():
            assert ref_in_base(other, p) == (k >= start)


# ---------------------------------------------------------------------------
# probes: answers or refusals, each in bounded time


def _timed(f):
    t0 = time.perf_counter()
    out = f()
    assert time.perf_counter() - t0 < 0.1
    return out


def test_index_probes_answer_fast():
    slow = CountableSeq(GEOMETRIC, 0, 1, F(999999, 10 ** 6))
    assert _timed(lambda: slow.index_of(F(1, 10 ** 9))) is None
    assert _timed(lambda: slow.index_of(slow.q ** 3000)) == 3000
    half = CountableSeq(GEOMETRIC, 0, 1, F(1, 2))
    assert _timed(lambda: half.index_of(F(1, 2 ** 100001))) == 100001


def test_geo_steps_near_one_answer_fast():
    # ln q is about -9e-400, far below the float range
    q = 1 - F(9, 10 ** 400)
    assert _timed(lambda: geo_steps(q, q ** 22)) == 23
    assert _timed(lambda: geo_steps(q, q ** 22, strict=False)) == 22
    assert _timed(lambda: geo_steps(q, 1 - F(1, 10 ** 395))) == 11112
    with pytest.raises(TooLarge):
        _timed(lambda: geo_steps(q, F(1, 2)))


def test_primitive_ratio_probes_answer_fast():
    p = 1000000000000000000117  # a 22-digit prime
    assert _timed(lambda: _primitive_ratio(F(p, p + 1))) == (F(p, p + 1), 1)
    assert _timed(lambda: _primitive_ratio(F(4, 9) ** 6)) == (F(2, 3), 12)
    assert _timed(lambda: _primitive_ratio(F(1, 8))) == (F(1, 2), 3)


def test_sequence_boxes_refuse_past_the_guard():
    slow = CountableSeq(GEOMETRIC, 0, 1, F(999999, 10 ** 6))
    with pytest.raises(TooLarge):
        _timed(lambda: oracle._sequence_boxes(slow, F(1, 10 ** 12)))


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(9, 10)])
@pytest.mark.parametrize("depth", [1, 4, 9])
def test_sequence_boxes_match_a_brute_count(q, depth):
    seq = CountableSeq(GEOMETRIC, 1, F(-3, 2), q)
    delta = F(1, 3 ** depth)
    # gaps b*q^n*(1-q) wider than delta each get a box
    m = next(n for n in itertools.count()
             if abs(seq.b) * q ** (n + 1) * (1 - q) <= delta)
    tail = abs(seq.b) * q ** (m + 1)
    assert oracle._sequence_boxes(seq, delta) == m + math.ceil(tail / delta)


def test_huge_index_ranges_refuse_fast():
    for lo in (F(1, 10 ** 400), F(1, 10 ** 7)):
        atoms = [CountableSeq(HARMONIC, 0, 1), Interval(lo, 2)]
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            normalize(atoms)
        assert time.perf_counter() - t0 < 1
    # a range of exactly _ITER_GUARD indices is still listed
    kind, data = CountableSeq(HARMONIC, 0, 1).indices_within(F(1, _ITER_GUARD), 1)
    assert kind == "finite" and len(data) == _ITER_GUARD


# the head that listing would walk: 364,285 terms for the first pair,
# 6*10^6 and 6*10^400 for the next two; in the last, a geometric head of
# about 100 terms against a harmonic one of 4.6*10^30, the two limits
# 1.3*10^-30 apart
FAR = CountableSeq(HARMONIC, F(-10, 3), 1100)
LONG_HEADS = [
    (CountableSeq(HARMONIC, -3, F(425000, 7)), FAR),
    (CountableSeq(HARMONIC, -3, 10 ** 6), FAR),
    (CountableSeq(HARMONIC, -3, 10 ** 400), FAR),
    (CountableSeq(GEOMETRIC, F(13, 10 ** 31), 1, F(1, 2)),
     CountableSeq(HARMONIC, 0, 3))]


@pytest.mark.parametrize("x, y", LONG_HEADS)
def test_long_sequence_heads_refuse_before_they_are_listed(x, y, monkeypatch):
    calls = []
    point = CountableSeq.point
    monkeypatch.setattr(CountableSeq, "point",
                        lambda self, n: calls.append(n) or point(self, n))
    message = f"more than {_ITER_GUARD} sequence terms to list"
    for a, b in ((x, y), (y, x)):
        with pytest.raises(TooLarge, match=message):
            _seq_seq_commons(a, b)
        with pytest.raises(TooLarge, match=message):
            normalize([a, b])
    assert len(calls) < _ITER_GUARD


def test_a_head_of_exactly_the_guard_is_listed():
    # limits 1/50000 apart: each harmonic head is 100,000 terms long
    x, y = CountableSeq(HARMONIC, 0, 1), CountableSeq(HARMONIC, F(1, 50000), 1)
    assert _seq_seq_commons(x, y) == ("finite", ref_common_points_finite(x, y))


def test_tiny_coefficients_stay_fast():
    seq = CountableSeq(GEOMETRIC, 0, F(1, 10 ** 400), F(1, 2))
    box = Interval(F(1, 10 ** 500), 1)
    got = _timed(lambda: normalize([seq, box]))
    inside = [seq.point(n) for n in range(1, 333)]
    assert ref_last_index_above(seq, box.lo) == 332
    assert got == RepSet((seq.with_deletions(inside), box))
    # mirrored: a head of 1,328 points outside the interval, the tail in it
    seq = CountableSeq(GEOMETRIC, 0, -10 ** 400, F(1, 2))
    box = Interval(-1, F(1, 10 ** 500))
    t0 = time.perf_counter()
    got = normalize([seq, box])
    assert time.perf_counter() - t0 < 1
    head = [p for p in map(seq.point, range(1, 1400)) if p < -1]
    assert len(head) == 1328
    assert set(got.atoms) == {FinitePoints(head), box}
