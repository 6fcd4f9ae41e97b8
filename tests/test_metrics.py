"""Distances on pairs, sets and functions, and the convergence notions."""

import random
import time
from dataclasses import replace
from fractions import Fraction as F
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff.errors import (DoesNotConverge, HausdorffError, NotInLH,
                              NotRepresentable, TooLarge, ValidationError)
from hausdorff.hintegral import (Const, ConstantSeq, PiecewiseFunction, Poly,
                                 SeriesValues, _combined_terms, _terms_on, add,
                                 h_integral, indicator, neg_part, pos_part,
                                 scalar_mul, support, zero_function)
from hausdorff.hvalue import (DIM_CANTOR, DIM_ZERO, POS_INF, ZERO_PAIR,
                              Dimension, FiniteList, Geometric, HPair, PSeries,
                              hpair_add, hpair_eq)
from hausdorff.metrics import (DEFAULT_SCHEDULE, Alternating,
                               HDistance, PointPerturbation,
                               PrefixPerturbation,
                               abs_integral, absolutely_integrable,
                               dH_pairs, d_H, d_s, is_cauchy,
                               riesz_fischer_check, triangle_ok)
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CantorAffine,
                              CountableSeq, FinitePoints, Interval, RepSet,
                              _atom_meet, cross_pairs, diff, hmeasure,
                              normalize, symdiff, union)

I01 = RepSet.of(Interval(0, 1))
HARM = CountableSeq(HARMONIC, 0, 1)


def pair(d, m):
    return HPair.of(d, m)


def hdistance_of(d, m) -> HDistance:
    return HDistance(HPair.of(d, m))


def index_for(cert, eps) -> int:
    eps = F(eps)
    for tol, n in cert.entries:
        if tol == eps:
            return n
    raise KeyError(f"no certificate entry for {eps}")


# -- distance values ---------------------------------------------------------

def test_distance_rejects_negative_measure():
    with pytest.raises(ValidationError):
        hdistance_of(0, -1)


def test_distance_plus_is_coordinatewise():
    s = hdistance_of(F(1, 2), 3).plus(hdistance_of(F(1, 2), 4))
    assert s.value == pair(1, 7)
    t = hdistance_of(2, 0).plus(hdistance_of(2, 0))
    assert t.value.m.sign() == 0
    assert t.value.d.cmp(Dimension.rational(2)) > 0  # transient value 4


# -- the pair distance --------------------------------------------------------

def test_dH_pairs_equal_dimension_branch():
    assert dH_pairs(pair(1, 1), pair(1, 5)).value == pair(0, 4)
    # enclosed measures: zeta(2) and 2 zeta(2) are a zeta(2) apart
    zeta, twice = (HPair(DIM_ZERO, PSeries(c, 2).sum()) for c in (1, 2))
    assert dH_pairs(zeta, twice).render() == "(0, 1.6449340668482264)"
    assert dH_pairs(twice, zeta).render() == "(0, 1.6449340668482264)"


def test_dH_pairs_dimension_branch():
    assert dH_pairs(pair(0, 9), pair(1, 9)).value == pair(1, 0)


def test_dH_pairs_identity():
    assert dH_pairs(pair(F(1, 2), 3), pair(F(1, 2), 3)).is_zero()
    assert dH_pairs(pair(1, POS_INF), pair(1, POS_INF)).is_zero()


def test_dH_pairs_irrational_gap():
    gap = dH_pairs(pair(DIM_CANTOR, 1), pair(1, 2)).value
    assert gap.m.sign() == 0
    assert gap.d.cmp(Dimension.rational(0)) > 0
    assert gap.d.cmp(Dimension.rational(1)) < 0


def test_dH_pairs_canonical_dimension_equality():
    # log(4)/log(9) and log(2)/log(3) are the same dimension
    a = HPair(Dimension.log_ratio(4, 9), POS_INF.of(3))
    b = HPair(DIM_CANTOR, POS_INF.of(5))
    assert dH_pairs(a, b).value == pair(0, 2)


def test_dH_pairs_wants_nonnegative_measures():
    with pytest.raises(ValidationError):
        dH_pairs(pair(1, -1), pair(1, 1))


DIM_POOL = (Dimension.rational(0), Dimension.rational(F(1, 2)),
            Dimension.rational(1), Dimension.rational(F(3, 2)),
            Dimension.rational(2), DIM_CANTOR,
            Dimension.log_ratio(2, 5), Dimension.log_ratio(3, 5))


def _rand_pair(rng):
    d = rng.choice(DIM_POOL)
    if rng.random() < 0.08:
        return HPair(d, POS_INF)
    return HPair.of(d, F(rng.randrange(0, 40), rng.randrange(1, 7)))


def test_dH_pairs_axioms_random():
    rng = random.Random(2718)
    for _ in range(10_000):
        a, b, c = (_rand_pair(rng) for _ in range(3))
        ab, bc, ac = dH_pairs(a, b), dH_pairs(b, c), dH_pairs(a, c)
        assert hpair_eq(ab.value, dH_pairs(b, a).value)
        assert triangle_ok(ac, ab, bc)
        # first coordinates alone: the projection is a pseudo-metric
        assert triangle_ok(HDistance(HPair(ac.value.d, ab.value.m.of(0))),
                           HDistance(HPair(ab.value.d, ab.value.m.of(0))),
                           HDistance(HPair(bc.value.d, ab.value.m.of(0))))
    assert dH_pairs(_rand_pair(rng), _rand_pair(rng)).value.m.sign() >= 0


def test_second_projection_is_not_a_pseudo_metric():
    # distances (1,1), (2,0), (2,0) satisfy the pair triangle while the
    # second coordinates alone violate 1 <= 0 + 0
    xz, xy, yz = hdistance_of(1, 1), hdistance_of(2, 0), hdistance_of(2, 0)
    assert triangle_ok(xz, xy, yz)
    assert not xz.value.m.cmp(xy.value.m + yz.value.m) <= 0


# -- the set distance ----------------------------------------------------------

def test_d_s_point_difference():
    assert d_s(I01, RepSet.of(Interval(0, 1), FinitePoints([2]))).value == pair(0, 1)


def test_d_s_interval_difference():
    assert d_s(I01, RepSet.of(Interval(0, 2))).value == pair(1, 1)


def test_d_s_identity():
    assert d_s(I01, I01).is_zero()


def test_d_s_not_representable():
    with pytest.raises(NotRepresentable):
        d_s(I01, RepSet.of(CantorAffine(0, 1)))


def _rand_set(rng, cells):
    atoms = []
    for origin, kind in cells:
        if rng.random() < 0.25:
            continue
        if kind == "interval":
            lo = origin + F(rng.randrange(0, 4), 2)
            atoms.append(Interval(lo, lo + F(rng.randrange(1, 4), 2)))
        elif kind == "points":
            atoms.append(FinitePoints(
                {origin + F(rng.randrange(0, 9), 4)
                 for _ in range(rng.randrange(1, 4))}))
        elif kind == "cantor":
            base = CantorAffine(origin, 1)
            atoms.append(rng.choice(
                [base, base.children()[0], base.children()[1]]))
        else:
            atoms.append(CountableSeq(HARMONIC, origin, 1))
    out = RepSet.of(*atoms)
    if atoms and rng.random() < 0.3:
        probe = FinitePoints([cells[0][0] + F(1, 5)])
        out = diff(out, RepSet.of(probe))
    return out


def test_d_s_axioms_random():
    rng = random.Random(64901)
    done = 0
    while done < 500:
        cells = [(F(4 * k), rng.choice(("interval", "points", "cantor",
                                        "seq"))) for k in range(3)]
        a, b, c = (_rand_set(rng, cells) for _ in range(3))
        try:
            ab, bc, ac = d_s(a, b), d_s(b, c), d_s(a, c)
        except NotRepresentable:
            continue
        assert ab.is_zero() == (symdiff(a, b).is_empty())
        assert hpair_eq(ab.value, d_s(b, a).value)
        assert triangle_ok(ac, ab, bc)
        done += 1
    assert done == 500


# -- the function distance -----------------------------------------------------

def test_d_H_point_mass():
    f = indicator(RepSet.of(FinitePoints([0])))
    assert d_H(f, zero_function()).value == pair(0, 1)


def test_d_H_identity_function():
    f = PiecewiseFunction([(Interval(0, 1), Poly([0, 1]))])
    assert d_H(f, zero_function()).value == pair(1, F(1, 2))


def test_d_H_equal_functions():
    f = indicator(I01, 7)
    assert d_H(f, f).is_zero()


def test_d_H_needs_absolute_integrability():
    heavy = indicator(RepSet.of(HARM))
    with pytest.raises(NotInLH):
        d_H(heavy, zero_function())
    with pytest.raises(NotInLH):
        d_H(zero_function(), indicator(RepSet.of(Interval(0, None))))


def test_abs_integral_mixes_signs():
    f = PiecewiseFunction([(Interval(-1, 1), Poly([0, 1]))])
    assert abs_integral(f) == pair(1, 1)
    assert absolutely_integrable(f)


# -- |f| from one sign split, against the two-pass reference -----------------

def ref_abs_integral(f):
    """The two-pass integral of |f|: both signed parts, integrated apart."""
    up = h_integral(pos_part(f))
    down = h_integral(neg_part(f))
    return hpair_add(up, HPair(down.d, down.m.scale(-1)))


def ref_absolutely_integrable(f):
    return ref_abs_integral(f).m.is_finite()


def _outcome(fn, f):
    try:
        value = fn(f)
    except HausdorffError as exc:
        return type(exc), str(exc)
    return value.render() if isinstance(value, HPair) else value


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _cell_poly(draw, c):
    """lead * prod (x - r) * ((x - c)^2 - q)^e around c: rational roots,
    repeated or not, and irrational ones c +- sqrt(q) with q not a square."""
    cs = [F(draw(st.sampled_from((-3, -1, F(1, 2), 2))))]
    for r in draw(st.lists(st.integers(-8, 8), max_size=3)):
        cs = _times(cs, [-(c + F(r, 4)), F(1)])
    for _ in range(draw(st.integers(0, 2))):
        q = F(draw(st.sampled_from((2, 3, F(1, 2)))))
        cs = _times(cs, [c * c - q, -2 * c, F(1)])
    return Poly(cs)


INTERVAL_KINDS = ("poly", "const_interval")
KINDS_AT_DIM = {0: ("const_points", "const_seq", "series"),
                DIM_CANTOR: ("const_cantor",),
                1: INTERVAL_KINDS}


@st.composite
def _sequence(draw, lo):
    if draw(st.booleans()):
        seq = CountableSeq(HARMONIC, lo, 1)
    else:
        q = F(1, draw(st.sampled_from((2, 3))))
        seq = CountableSeq(GEOMETRIC, lo, 2, q)
    dels = draw(st.lists(st.integers(1, 6), max_size=2, unique=True))
    return seq.with_deletions([seq.point(n) for n in dels])


@st.composite
def _series(draw):
    kind = draw(st.sampled_from(("finite", "geometric", "pseries")))
    if kind == "finite":
        return FiniteList(draw(st.lists(st.integers(-3, 3), min_size=1,
                                        max_size=5).filter(any)))
    a = F(draw(st.sampled_from((-2, -1, 1, 3))))
    if kind == "geometric":
        return Geometric(a, draw(st.sampled_from(
            (F(-1, 2), F(-1, 3), F(0), F(1, 3), F(1, 2)))))
    return PSeries(a, draw(st.sampled_from((1, 2, 3))))


@st.composite
def _term(draw, kind, lo, hi):
    """A term of the given kind on [lo, hi], or on a half-line when one
    end is None."""
    value = Const(draw(st.sampled_from((-2, -1, F(1, 3), 1, 5))))
    if kind == "poly":
        c = lo + 1 if hi is None else hi - 1
        return Interval(lo, hi), draw(_cell_poly(c))
    if kind == "const_interval":
        return Interval(lo, hi), value
    if kind == "const_cantor":
        scale = draw(st.sampled_from((1, F(1, 2), F(1, 3), 3)))
        return CantorAffine(lo, scale), value
    if kind == "const_points":
        pts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
        return FinitePoints([lo + F(k, 4) for k in pts]), value
    seq = draw(_sequence(lo))
    if kind == "const_seq":
        return seq, value
    return seq, SeriesValues(draw(_series()))


@st.composite
def signed_functions(draw):
    """Functions whose top dimension is 0, log 2/log 3 or 1, on disjoint
    cells [4k, 4k + 3]; the outer cells may be half-lines."""
    top = draw(st.sampled_from((0, DIM_CANTOR, 1)))
    allowed = [k for d, kinds in KINDS_AT_DIM.items()
               for k in kinds if d == 0 or d == top or top == 1]
    kinds = [draw(st.sampled_from(KINDS_AT_DIM[top]))]
    kinds += draw(st.lists(st.sampled_from(allowed), max_size=3))
    terms = [draw(_term(kind, F(4 * k), F(4 * k + 3)))
             for k, kind in enumerate(kinds, start=1)]
    if top == 1:
        for lo, hi in ((None, F(-1)), (F(4 * len(kinds) + 4), None)):
            if draw(st.booleans()):
                terms.append(draw(_term(draw(st.sampled_from(INTERVAL_KINDS)),
                                        lo, hi)))
    return PiecewiseFunction(terms)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(signed_functions())
def test_abs_integral_matches_the_two_pass_reference(f):
    assert _outcome(abs_integral, f) == _outcome(ref_abs_integral, f)
    assert (_outcome(absolutely_integrable, f)
            == _outcome(ref_absolutely_integrable, f))


def _bump_points(rng, origin):
    pts = {origin + F(rng.randrange(0, 9), 4) for _ in range(rng.randrange(1, 4))}
    return indicator(RepSet.of(FinitePoints(pts)),
                     F(rng.randrange(1, 6), rng.randrange(1, 4)))


def _bump_interval(rng, origin):
    lo = origin + F(rng.randrange(0, 4), 2)
    atom = Interval(lo, lo + F(rng.randrange(1, 4), 2))
    v = F(rng.randrange(1, 6), rng.randrange(1, 4))
    if rng.random() < 0.5:
        v = -v
    return indicator(RepSet.of(atom), v)


def _bump_cantor(rng, origin):
    base = CantorAffine(origin, 1)
    atom = rng.choice([base, base.children()[0], base.children()[1]])
    return indicator(RepSet.of(atom), F(rng.randrange(1, 6), rng.randrange(1, 4)))


def _function_triple(rng, case):
    """Three functions whose pairwise differences stay in the catalog,
    steered toward one case of the metric proof's dimension split."""
    if case == "equal":
        return (_bump_interval(rng, F(0)), _bump_interval(rng, F(4)),
                _bump_interval(rng, F(8)))
    if case == "smaller":
        f = _bump_interval(rng, F(0))
        g = _bump_points(rng, F(0))
        h = _bump_interval(rng, F(4))
        return f, g, h
    return (_bump_points(rng, F(0)), _bump_cantor(rng, F(4)),
            _bump_interval(rng, F(8)))


def test_d_H_axioms_random():
    rng = random.Random(757575)
    cases = ("equal", "smaller", "distinct")
    for i in range(500):
        f, g, h = _function_triple(rng, cases[i % 3])
        fg, gh, fh = d_H(f, g), d_H(g, h), d_H(f, h)
        assert hpair_eq(fg.value, d_H(g, f).value)
        assert d_H(f, f).is_zero()
        assert triangle_ok(fh, fg, gh)
        zero = fg.value.m.of(0)
        assert triangle_ok(HDistance(HPair(fh.value.d, zero)),
                           HDistance(HPair(fg.value.d, zero)),
                           HDistance(HPair(gh.value.d, zero)))


# -- shared terms: d_H and add against the full term loop -------------------

def ref_add(f, g):
    """add as it was before terms in no pair passed through: every term
    is cut by its partners, re-normalized and re-read, even with no
    partner at all."""
    terms, n = f.terms + g.terms, len(f.terms)
    pairs = [(i, n + j) for i, j in cross_pairs([a for a, _ in f.terms],
                                                [b for b, _ in g.terms])]
    cuts = [[] for _ in terms]
    for i, j in pairs:
        cuts[i].append(terms[j][0])
        cuts[j].append(terms[i][0])
    out = []
    for (a, ea), cut in zip(terms, cuts):
        rest = diff(RepSet.of(a), RepSet.of(*cut))
        out.extend(_terms_on(rest.atoms, a, ea))
    for i, j in pairs:
        (a, ea), (b, eb) = terms[i], terms[j]
        for piece in normalize(_atom_meet(a, b)).atoms:
            out.extend(_combined_terms(piece, [(a, ea), (b, eb)]))
    return PiecewiseFunction(out)


def ref_d_H(f, g):
    """d_H subtracting all of both functions, shared terms included."""
    for h in (f, g):
        if not absolutely_integrable(h):
            raise NotInLH("an argument has an infinite |f| integral")
    return HDistance(abs_integral(ref_add(f, scalar_mul(-1, g))))


def _refusal_or(fn, f, g):
    """fn(f, g) as a comparable value: the terms of a function, the pair
    of a distance, or the class of a refusal."""
    try:
        value = fn(f, g)
    except HausdorffError as exc:
        return type(exc)
    return value.terms if isinstance(value, PiecewiseFunction) else value.value


def _off_atom_points(atom):
    """Points of the atom's bounded hull, on a grid of 1/8, off the atom
    itself: a bump there is disjoint from the atom and still meets its
    hull."""
    lo, hi = atom.hull()
    if lo is None or hi is None:
        return []
    return [x for x in (lo + F(j, 8) for j in range(25))
            if x <= hi and not atom.member(x)]


def _member_point(atom):
    if isinstance(atom, FinitePoints):
        return atom.points[0]
    if isinstance(atom, CountableSeq):
        return atom.point(7)  # the drawn deletions are among the first six
    if isinstance(atom, CantorAffine):
        return atom.t
    lo, hi = atom.hull()
    return (hi - 1) if lo is None else lo + F(1, 2)


@st.composite
def sharing_pairs(draw):
    """(f, g) whose terms g shares with f none, some or all of the time:
    term by term, g shares f's term, keeps its atom under a new value,
    puts a fresh term on its cell, drops it, or shares it and adds a point
    bump inside its hull but off its atom. Some pairs then get a point
    bump each at one site inside a term, as x_n = base + bump_n."""
    f = draw(signed_functions())
    g_terms = []
    for atom, expr in f.terms:
        move = draw(st.sampled_from(("share", "value", "fresh", "drop",
                                     "bump")))
        if move == "value":
            g_terms.append((atom, expr.scale(draw(st.sampled_from((-1, 2))))))
        elif move == "fresh":
            lo, hi = atom.hull()
            if lo is None or hi is None:  # a half-line, as its own cell
                kind = draw(st.sampled_from(INTERVAL_KINDS))
                g_terms.append(draw(_term(kind, lo, hi)))
            else:
                kind = draw(st.sampled_from(
                    [k for kinds in KINDS_AT_DIM.values() for k in kinds]))
                g_terms.append(draw(_term(kind, 4 * (lo // 4),
                                          4 * (lo // 4) + 3)))
        elif move != "drop":
            g_terms.append((atom, expr))
            sites = _off_atom_points(atom) if move == "bump" else []
            if sites:
                g_terms.append((FinitePoints([draw(st.sampled_from(sites))]),
                                Const(draw(st.sampled_from((-2, 1, 3))))))
    g = PiecewiseFunction(g_terms)
    if f.terms and draw(st.booleans()):
        site = _member_point(draw(st.sampled_from(f.terms))[0])
        bumped = []
        for h in (f, g):
            v = draw(st.sampled_from((F(1, 2), F(1, 4), -3)))
            try:
                bumped.append(add(h, indicator(RepSet.of(FinitePoints([site])),
                                               v)))
            except HausdorffError:
                bumped.append(h)
        f, g = bumped
    return f, g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sharing_pairs())
def test_d_H_and_add_match_the_full_term_loop(pair):
    # equal term lists from add, equal pairs from d_H, and the same
    # refusal class wherever either side refuses
    f, g = pair
    for x, y in ((f, g), (g, f)):
        assert _refusal_or(add, x, y) == _refusal_or(ref_add, x, y)
        assert _refusal_or(d_H, x, y) == _refusal_or(ref_d_H, x, y)


def _counted_diffs(monkeypatch):
    """Record every diff the function algebra makes."""
    from hausdorff import hintegral
    calls = []
    real = hintegral.diff
    monkeypatch.setattr(hintegral, "diff",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


def _cells_base(k):
    """k constant and polynomial terms on the cells [4i, 4i + 3]."""
    return PiecewiseFunction(
        [(Interval(4 * i, 4 * i + 3), Poly([i + 1, 1] if i % 2 else [i + 1]))
         for i in range(k)])


@pytest.mark.parametrize("site", [F(1, 2), F(7, 2)], ids=["inside", "gap"])
def test_add_of_a_point_bump_cuts_only_what_it_meets(monkeypatch, site):
    # inside the first cell the bump and that cell's term are cut; in the
    # gap after it nothing meets and nothing is cut: the other k - 1 or k
    # terms pass through whole, so the work does not grow with k
    bump = indicator(RepSet.of(FinitePoints([site])), 5)
    calls = _counted_diffs(monkeypatch)
    counts = []
    for k in (1, 4, 16):
        calls.clear()
        base = _cells_base(k)
        total = add(base, bump)
        counts.append(len(calls))
        assert total.terms == ref_add(base, bump).terms
        assert total.value_at(site) == base.value_at(site) + 5
    assert counts == [2 if site < 3 else 0] * 3


def test_distance_hands_add_only_the_differing_terms(monkeypatch):
    from hausdorff import metrics
    seq = PointPerturbation(_cells_base(6), F(17, 2), coeff=3)
    x_n, x_m = seq.term(3), seq.term(5)
    shared = set(x_n.terms) & set(x_m.terms)
    assert len(shared) == len(x_n.terms) - 1 == len(x_m.terms) - 1 == 6
    handed = []
    real = metrics.add
    monkeypatch.setattr(metrics, "add",
                        lambda f, g: handed.append((f, g)) or real(f, g))
    calls = _counted_diffs(monkeypatch)
    # the site lies in the cell of value 3: |(3 + 3/8) - (3 + 3/32)|
    assert metrics._distance(x_n, x_m).value == HPair.of(0, F(9, 32))
    (f, g), = handed
    point = FinitePoints([F(17, 2)])
    assert f.terms == ((point, Const(F(27, 8))),)
    assert g.terms == ((point, Const(F(-99, 32))),)
    # the two point terms meet, so each is cut by the other; the six
    # shared terms are neither cut nor met
    assert len(calls) == 2


# -- balls ---------------------------------------------------------------------

def ball_member(center, y, radius: HPair, metric: Callable) -> bool:
    """Whether y lies in the open ball around center, lexicographically."""
    if not ZERO_PAIR < radius:
        raise ValidationError("the ball radius must exceed (0, 0)")
    dist = metric(center, y)
    value = dist.value if isinstance(dist, HDistance) else dist
    return value < radius


def test_ball_member_measure_radius():
    assert ball_member(pair(1, 1), pair(1, 2), pair(0, 2), dH_pairs)


def test_ball_member_lexicographic():
    assert ball_member(pair(1, 1), pair(1, 2), pair(1, 0), dH_pairs)


def test_ball_member_dimension_gap_escapes():
    assert not ball_member(pair(0, 1), pair(1, 1), pair(0, 5), dH_pairs)


def test_ball_member_rejects_zero_radius():
    with pytest.raises(ValidationError):
        ball_member(pair(1, 1), pair(1, 1), pair(0, 0), dH_pairs)


def test_ball_member_with_set_metric():
    assert ball_member(I01, RepSet.of(Interval(0, 1), FinitePoints([3])),
                       pair(0, 2), d_s)
    assert not ball_member(I01, RepSet.of(Interval(0, 3)), pair(0, 100), d_s)


# -- Cauchy sequences and completeness ------------------------------------------

def test_point_perturbation_is_cauchy():
    seq = PointPerturbation(indicator(I01), 0)
    assert is_cauchy(seq)


def test_prefix_perturbation_is_cauchy():
    seq = PrefixPerturbation(indicator(I01), CountableSeq(HARMONIC, 2, 1))
    assert is_cauchy(seq)


class _FalseCertificates(PointPerturbation):
    """Certifies index 1 at every tolerance; the bump there is 1/2."""

    def cauchy_index(self, eps):
        return 1

    def limit_index(self, eps):
        return 1


def test_spot_checks_refute_a_false_certificate():
    seq = _FalseCertificates(indicator(I01), 0)
    with pytest.raises(ValidationError,
                       match="certified index 1 fails against term 2"):
        is_cauchy(seq)
    with pytest.raises(ValidationError,
                       match="certified index 1 fails at term 1"):
        riesz_fischer_check(seq)


def test_constant_sequence_is_cauchy():
    assert is_cauchy(ConstantSeq(indicator(I01)))


def test_alternating_sequence_is_not_cauchy():
    seq = Alternating(indicator(I01), indicator(RepSet.of(Interval(2, 3))))
    assert not is_cauchy(seq)
    # a coarse schedule that the gap (1, ...) still defeats
    assert not is_cauchy(seq, [F(100)])


def test_schedule_validation():
    seq = ConstantSeq(indicator(I01))
    with pytest.raises(ValidationError):
        is_cauchy(seq, [])
    with pytest.raises(ValidationError):
        is_cauchy(seq, [F(0)])


def test_riesz_fischer_point_perturbation():
    base = indicator(I01)
    seq = PointPerturbation(base, 0)
    limit, cert = riesz_fischer_check(seq)
    assert limit == base
    assert len(cert.entries) == len(DEFAULT_SCHEDULE)
    for eps, n in cert.entries:
        assert d_H(seq.term(n), limit).value < pair(0, eps)
        assert d_H(seq.term(n + 10), limit).value < pair(0, eps)
    assert index_for(cert, F(1, 10 ** 6)) == 20


def test_certificates_check_each_function_once(monkeypatch):
    # the generator certifies its terms (see FunctionSeq): riesz_fischer_check
    # checks its limit alone, and is_cauchy the first term it builds
    from hausdorff import metrics
    seq = PointPerturbation(indicator(I01), 0)
    checked = []
    real = metrics.absolutely_integrable
    monkeypatch.setattr(metrics, "absolutely_integrable",
                        lambda f: checked.append(f) or real(f))
    limit, _ = riesz_fischer_check(seq)
    assert len(checked) == 1 and checked[0] is limit
    checked.clear()
    assert is_cauchy(seq)
    assert len(checked) == 1 and checked[0] == seq.term(seq.cauchy_index(1))


def test_is_cauchy_refuses_a_constant_outside_lh():
    seq = ConstantSeq(indicator(RepSet.of(Interval(0, None))))
    with pytest.raises(NotInLH, match="the left argument has an infinite"):
        is_cauchy(seq)


# Four cells as in the benchmark's sequence requests: a polynomial with a
# deleted point, a Cantor constant, a second polynomial and series values.
CELLS = [(Interval(0, 3, [1]), Poly([F(3, 2), F(-5, 2), 1])),
         (CantorAffine(4, 3), Const(2)),
         (Interval(8, 11), Poly([-9, 1])),
         (CountableSeq(GEOMETRIC, 12, 3, F(1, 2)),
          SeriesValues(Geometric(1, F(1, 3))))]


def _respelled(terms):
    """The same function from fresh atoms, its terms in reverse order."""
    return PiecewiseFunction([(replace(a), e) for a, e in reversed(terms)])


def _isolations(monkeypatch):
    """Empty the sign-region cache and record every (p, lo, hi) the sign
    split asks it for."""
    from hausdorff import hintegral
    cached = hintegral._sign_regions
    cached.cache_clear()
    asked = []
    monkeypatch.setattr(hintegral, "_sign_regions",
                        lambda *key: asked.append(key) or cached(*key))
    return cached, asked


@pytest.mark.parametrize("work", [
    "d_H respelled", "d_H both ways", "is_cauchy", "riesz_fischer_check"])
def test_each_polynomial_is_isolated_once_per_interval(monkeypatch, work):
    f = PiecewiseFunction(CELLS)
    # g doubles the first polynomial, so |f - g| splits a third one
    g = PiecewiseFunction([(CELLS[0][0], CELLS[0][1].scale(2))] + CELLS[1:])
    cached, asked = _isolations(monkeypatch)
    if work == "d_H respelled":
        assert d_H(f, _respelled(CELLS)).is_zero()
    elif work == "d_H both ways":
        assert d_H(f, g) == d_H(g, f)
    elif work == "is_cauchy":
        assert is_cauchy(PointPerturbation(f, 1))
    else:
        limit, _ = riesz_fischer_check(PointPerturbation(f, 9))
        assert limit == f
    info = cached.cache_info()
    assert info.misses == len(set(asked)) < info.maxsize
    assert info.hits == len(asked) - info.misses > 0
    assert all(type(cached(*key)) is tuple for key in asked)


def test_an_irrational_sign_change_refuses_every_time(monkeypatch):
    f = PiecewiseFunction([(Interval(0, 2), Poly([-2, 0, 1]))] + CELLS[1:])
    cached, asked = _isolations(monkeypatch)
    for _ in range(2):
        with pytest.raises(NotRepresentable, match="irrational point"):
            d_H(f, _respelled(f.terms))
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
    assert len(asked) == 2


def test_riesz_fischer_prefix_perturbation():
    base = indicator(I01, 2)
    seq = PrefixPerturbation(base, HARM, coeff=3)
    limit, cert = riesz_fischer_check(seq)
    assert limit == base
    for eps, n in cert.entries:
        assert d_H(seq.term(n), limit).value < pair(0, eps)


def test_riesz_fischer_constant():
    base = indicator(RepSet.of(FinitePoints([5])), -2)
    limit, cert = riesz_fischer_check(ConstantSeq(base))
    assert limit == base
    assert index_for(cert, 1) == 1


def test_riesz_fischer_alternating_has_no_limit():
    seq = Alternating(indicator(I01), indicator(RepSet.of(Interval(2, 3))))
    with pytest.raises(DoesNotConverge):
        riesz_fischer_check(seq)


def test_alternating_between_equal_functions_converges():
    f = indicator(I01)
    g = PiecewiseFunction([(Interval(0, F(1, 2)), Const(1)),
                           (Interval(F(1, 2), 1, [F(1, 2)]), Const(1))])
    seq = Alternating(f, g)
    assert seq.term(2) == g and is_cauchy(seq)
    limit, cert = riesz_fischer_check(seq, [F(1, 10)])
    assert limit == f and index_for(cert, F(1, 10)) == 1


def test_alternating_is_cauchy_by_its_distance():
    # the functions differ by 1/1000 at one point: d_H = (0, 1/1000)
    f = indicator(I01)
    g = add(f, indicator(RepSet.of(FinitePoints([F(1, 2)])), F(1, 1000)))
    seq = Alternating(f, g)
    assert is_cauchy(seq, [1, F(1, 10)])
    assert not is_cauchy(seq)
    with pytest.raises(DoesNotConverge,
                       match="the terms alternate without settling"):
        seq.limit()
    outside = Alternating(f, indicator(RepSet.of(Interval(0, None))))
    with pytest.raises(NotInLH, match="the right argument has an infinite"):
        is_cauchy(outside)


def test_riesz_fischer_wants_an_integrable_limit():
    seq = ConstantSeq(indicator(RepSet.of(Interval(0, None))))
    with pytest.raises(NotInLH, match="the limit has an infinite"):
        riesz_fischer_check(seq)


def test_riesz_fischer_slower_ratio():
    seq = PointPerturbation(indicator(I01), F(1, 2), coeff=5, ratio=F(2, 3))
    limit, cert = riesz_fischer_check(seq, [F(1, 100)])
    assert limit == indicator(I01)
    n = index_for(cert, F(1, 100))
    assert F(5) * F(2, 3) ** n < F(1, 100)
    with pytest.raises(KeyError):
        index_for(cert, F(1, 7))


def test_perturbation_validation():
    unbounded = indicator(RepSet.of(Interval(0, None)))
    for make in (PointPerturbation, PrefixPerturbation):
        where = 0 if make is PointPerturbation else HARM
        with pytest.raises(ValidationError,
                           match="the perturbation coefficient is zero"):
            make(indicator(I01), where, coeff=0)
        with pytest.raises(ValidationError, match=r"need 0 < ratio < 1"):
            make(indicator(I01), where, ratio=F(3, 2))
        with pytest.raises(NotInLH, match="the base function has an "
                           "infinite"):
            make(unbounded, where)
    # the sequence check comes first
    with pytest.raises(ValidationError,
                       match="prefix perturbation wants a full sequence"):
        PrefixPerturbation(unbounded, HARM.with_deletions([F(1, 2)]),
                           coeff=0)


def test_perturbation_overlapping_base_support():
    # bumping points inside the base's own support still cancels exactly
    seq = PrefixPerturbation(indicator(I01), HARM)
    limit, _ = riesz_fischer_check(seq, [F(1, 1000)])
    assert limit == indicator(I01)


# The index loops the perturbation certificates used to run, one step of n
# at a time, kept as a reference for the galloping search.

def ref_tail_mass(mass, n):
    k, best = n, mass(n)
    while mass(k + 1) > mass(k):
        k += 1
        best = max(best, mass(k))
    return best


def ref_cauchy_index(tail_mass, eps):
    eps, n = F(eps), 1
    while 2 * tail_mass(n) >= eps:
        n += 1
    return n


def ref_limit_index(tail_mass, eps):
    eps, n = F(eps), 1
    while tail_mass(n) >= eps:
        n += 1
    return n


def _memo(fn):
    seen = {}
    return lambda n: seen[n] if n in seen else seen.setdefault(n, fn(n))


@pytest.mark.parametrize("ratio", [F(1, 2), F(1, 3), F(2, 3), F(9, 10),
                                   F(99, 100)])
def test_perturbation_indices_match_the_stepping_loop(ratio):
    tols = [F(10), F(1), F(1, 2), F(1, 3), F(1, 10), F(3, 100), F(1, 100),
            F(1, 1000), F(7, 10 ** 4), F(1, 10 ** 4)]
    base = indicator(I01)
    for coeff in (F(1), F(-5, 2), F(1, 1000), F(37)):
        for seq in (PointPerturbation(base, 5, coeff, ratio),
                    PrefixPerturbation(base, CountableSeq(HARMONIC, 5, 1),
                                       coeff, ratio)):
            mass = _memo(seq._mass)
            tail = _memo(lambda n: ref_tail_mass(mass, n))
            for n in (1, 2, 3, 7, 40, 150):
                assert seq.tail_mass(n) == tail(n)
            for eps in tols:
                assert seq.limit_index(eps) == ref_limit_index(tail, eps)
                assert seq.cauchy_index(eps) == ref_cauchy_index(tail, eps)


def test_slow_prefix_certificate_weighs_its_points_by_count():
    # each term carries 11,661 points of one value with ~35,000 digits
    seq = PrefixPerturbation(indicator(I01), CountableSeq(HARMONIC, 5, 1),
                             1, F(999, 1000))
    _, cert = riesz_fischer_check(seq, [F(1, 10)])
    assert cert.entries == ((F(1, 10), 11661),)


def test_slow_ratio_certificate_takes_bounded_work():
    # the index for 10^-6 is 13,809: stepping n by one costs minutes
    seq = PointPerturbation(indicator(I01), 5, 1, F(999, 1000))
    start = time.perf_counter()
    _, cert = riesz_fischer_check(seq)
    assert time.perf_counter() - start < 2
    assert index_for(cert, F(1, 10)) == 2302
    assert index_for(cert, F(1, 1000)) == 6905


def test_perturbation_index_past_the_guard_is_too_large():
    seq = PointPerturbation(indicator(I01), 5, 1, F(10 ** 6 - 1, 10 ** 6))
    with pytest.raises(TooLarge):
        seq.limit_index(F(1, 10 ** 6))


# -- small supports --------------------------------------------------------------

def finite_counting_mass(f: PiecewiseFunction) -> bool:
    """Whether the integral of |f| against the counting measure is
    finite: only finitely presented point masses with summable values."""
    for atom, expr in f.terms:
        if isinstance(atom, FinitePoints):
            continue
        if (isinstance(atom, CountableSeq) and isinstance(expr, SeriesValues)
                and expr.series.abs_converges()):
            continue
        # a nonzero value on an uncountable piece, or a sequence whose
        # values are not absolutely summable
        return False
    return True


def small_support_check(f: PiecewiseFunction) -> bool:
    """A finite counting-measure integral forces dimension-zero support."""
    if not finite_counting_mass(f):
        return True
    dom = support(f)
    return dom.is_empty() or hmeasure(dom).d.cmp(DIM_ZERO) == 0


def test_finite_counting_mass_examples():
    assert finite_counting_mass(indicator(RepSet.of(FinitePoints([1, 2])), 5))
    assert not finite_counting_mass(indicator(I01))
    assert not finite_counting_mass(indicator(RepSet.of(HARM)))
    # series values on a sequence: finite exactly when absolutely summable
    for series, finite in ((FiniteList([1, -2]), True),
                           (Geometric(-1, F(-1, 2)), True),
                           (PSeries(-1, 2), True), (PSeries(1, 1), False)):
        f = PiecewiseFunction([(HARM, SeriesValues(series))])
        assert finite_counting_mass(f) is finite, series


def test_small_support_check_random():
    rng = random.Random(90210)
    for _ in range(200):
        sets = _rand_set(rng, [(F(0), rng.choice(("interval", "points",
                                                  "cantor", "seq")))])
        if sets.is_empty():
            continue
        f = indicator(sets, F(rng.randrange(1, 5)))
        assert small_support_check(f)
