"""Set algebra: membership, normalization, operations, measures."""

import collections
import heapq
import itertools
import math
import random
import sys
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff import setalg
from hausdorff._numeric import _ITER_GUARD
from hausdorff._value import replace
from hausdorff.config import set_config, update_config
from hausdorff.errors import (HausdorffError, NotRepresentable, TooLarge,
                              ValidationError)
from hausdorff.hvalue import (DIM_CANTOR, DIM_ONE, DIM_ZERO, NEG_INF, POS_INF,
                              ZERO_PAIR, Dimension, ExtReal, HPair, PSeries,
                              ext_sum)
from hausdorff.setalg import (_SETTLE_ORDER, GEOMETRIC, HARMONIC,
                              CantorAffine, CountableSeq, EMPTY_SET,
                              FinitePoints, Interval, RepSet,
                              _hull_overlap, _hulls_meet, _rank,
                              _resolve_pair,
                              cantor_gap, cantor_scale_measure, diff, hmeasure,
                              in_cantor, intersect, meeting_pairs, normalize,
                              symdiff, union, verify_monotone,
                              verify_subadditive)


# -- Cantor membership ------------------------------------------------------

def test_cantor_membership_quarters():
    # 1/4 has the purely periodic ternary expansion 0.020202...
    assert in_cantor(F(1, 4))
    assert in_cantor(F(3, 4))
    assert not in_cantor(F(1, 2))


def test_cantor_membership_endpoints_and_gaps():
    for x in (0, 1, F(1, 3), F(2, 3), F(1, 9), F(2, 9), F(7, 9), F(8, 9)):
        assert in_cantor(x)
    for x in (F(1, 5), F(4, 9) + F(1, 100), F(5, 12), F(999, 1000)):
        assert not in_cantor(x)
    assert not in_cantor(F(-1, 4))
    assert not in_cantor(F(5, 4))


def test_cantor_gap_is_gap():
    lo, hi = cantor_gap(F(1, 2))
    assert (lo, hi) == (F(1, 3), F(2, 3))
    lo, hi = cantor_gap(F(1, 5))
    assert lo < F(1, 5) < hi
    # the gap endpoints are themselves Cantor points
    assert in_cantor(lo) and in_cantor(hi)


def ref_cantor_gap(y):
    """The orbit walk on Fractions that the integer walk replaced."""
    y = F(y)
    if y < 0 or y > 1:
        raise ValidationError("point not inside the unit interval")
    third, two_thirds = F(1, 3), F(2, 3)
    # the orbit value is always scale*y - shift
    cur, scale, shift = y, F(1), F(0)
    for _ in range(_ITER_GUARD):
        if third < cur < two_thirds:
            return ((third + shift) / scale, (two_thirds + shift) / scale)
        if cur <= third:
            cur, scale, shift = 3 * cur, 3 * scale, 3 * shift
        else:
            cur, scale, shift = 3 * cur - 2, 3 * scale, 3 * shift + 2
    raise ValidationError("point is in the Cantor set, no gap exists")


def _gap_or_error(gap, y):
    try:
        return gap(y)
    except HausdorffError as exc:
        return type(exc)


def test_cantor_gap_matches_the_fraction_walk():
    # denominators with and without factors of 3, and points just outside
    # [0, 1]. The reference takes seconds to refuse a member, after
    # _ITER_GUARD steps, so members are held to the error it ends with
    rng = random.Random(1932)
    members = 0
    for _ in range(2500):
        q = rng.choice([rng.randint(1, 40),
                        3 ** rng.randint(1, 6) * rng.randint(1, 20)])
        y = F(rng.randint(-1, q + 1), q)
        if in_cantor(y):
            members += 1
            want = ValidationError
        else:
            want = _gap_or_error(ref_cantor_gap, y)
        assert _gap_or_error(cantor_gap, y) == want, y
    assert 100 < members < 2000


def test_cantor_gap_refuses_a_member_at_once():
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        cantor_gap(F(1, 4))
    assert time.perf_counter() - start < 1


def _in_cantor_by_fractions(y):
    """The Fraction walk that in_cantor replaced, kept as its reference."""
    y = F(y)
    if y < 0 or y > 1:
        return False
    seen = set()
    while y not in seen:
        seen.add(y)
        if y <= F(1, 3):
            y = 3 * y
        elif y >= F(2, 3):
            y = 3 * y - 2
        else:
            return False
    return True


def _ternary(digits):
    return sum(d * 3 ** i for i, d in enumerate(reversed(digits)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0, 2, 0, 2, 1]), max_size=12),
       st.lists(st.sampled_from([0, 2, 0, 2, 1]), min_size=1, max_size=12),
       st.sampled_from([0, 0, 0, -1, 1]))
def test_in_cantor_integer_walk_matches_fraction_walk(head, period, nudge):
    # y = 0.head(period)(period)... in ternary: members when no digit is 1;
    # a 1 or a nudge off the grid usually leaves the set or [0, 1]
    a, b = len(head), len(period)
    y = (F(_ternary(head), 3 ** a)
         + F(_ternary(period), 3 ** a * (3 ** b - 1)) + F(nudge, 10 ** 6))
    assert in_cantor(y) == _in_cantor_by_fractions(y)


def test_in_cantor_walk_is_fast_with_huge_denominators():
    # every point of the sequence near the copy is tested for membership,
    # each an orbit over a 400-digit denominator; the Fraction walk took
    # about 25 s on this input
    seq = CountableSeq(HARMONIC, -4, -F(1, 10 ** 400))
    copy = CantorAffine(-4 - F(1, 2 * 10 ** 400), F(1, 54))
    start = time.perf_counter()
    out = normalize([seq, copy])
    assert time.perf_counter() - start < 5
    assert sorted(type(atom).__name__ for atom in out.atoms) == [
        "CantorAffine", "CountableSeq"]


def test_affine_copy_membership():
    c = CantorAffine(1, 2)  # 1 + 2C
    assert c.member(1) and c.member(3) and c.member(F(3, 2))
    assert not c.member(2)
    # negative scale normalises onto the other anchor
    d = CantorAffine(1, -1)
    assert (d.t, d.s) == (F(0), F(1))


# -- atom validation ----------------------------------------------------------

def test_atom_validation():
    with pytest.raises(ValidationError):
        Interval(1, 1)
    with pytest.raises(ValidationError):
        CountableSeq(HARMONIC, 0, 0)
    with pytest.raises(ValidationError):
        CountableSeq(GEOMETRIC, 0, 1, F(3, 2))
    with pytest.raises(ValidationError):
        CantorAffine(0, 0)
    with pytest.raises(ValidationError):
        Interval(0, 1, deletions=[2])
    with pytest.raises(ValidationError):
        CantorAffine(0, 1, deletions=[F(1, 2)])
    with pytest.raises(ValidationError,
                       match="unknown sequence family 'lucas'"):
        CountableSeq("lucas", 0, 1)
    with pytest.raises(ValidationError,
                       match="harmonic sequences take no ratio"):
        CountableSeq(HARMONIC, 0, 1, F(1, 2))
    with pytest.raises(ValidationError, match="sequence indices start at 1"):
        CountableSeq(HARMONIC, 0, 1).point(0)
    # an empty point atom has a degenerate hull at the origin
    assert FinitePoints([]).hull() == (0, 0)


def test_sequence_indexing():
    h = CountableSeq(HARMONIC, 0, 1)
    assert h.point(3) == F(1, 3)
    assert h.index_of(F(1, 7)) == 7
    assert h.index_of(F(2, 7)) is None
    g = CountableSeq(GEOMETRIC, 1, 1, F(1, 2))
    assert g.point(2) == F(5, 4)
    assert g.index_of(F(17, 16)) == 4
    assert g.index_of(F(3, 4)) is None


def test_indices_within_ranges():
    h = CountableSeq(HARMONIC, 0, 1)
    kind, data = h.indices_within(F(1, 4), F(1, 2))
    assert kind == "finite" and data == (2, 3, 4)
    kind, start = h.indices_within(None, F(1, 10))
    assert (kind, start) == ("tail", 10)
    kind, data = h.indices_within(2, 3)
    assert kind == "finite" and data == ()


# -- normalization ------------------------------------------------------------

def test_union_of_touching_intervals_merges():
    u = union(RepSet.of(Interval(0, 1)), RepSet.of(Interval(1, 2)))
    assert len(u.atoms) == 1
    assert u.atoms[0] == Interval(0, 2)


def test_union_respects_shared_deleted_point():
    a = RepSet.of(Interval(0, 1, deletions=[1]))
    b = RepSet.of(Interval(1, 2, deletions=[1]))
    u = union(a, b)
    assert u.atoms == (Interval(0, 2, deletions=[1]),)
    # if either side holds the touch point the union must keep it
    u2 = union(RepSet.of(Interval(0, 1, deletions=[1])), RepSet.of(Interval(1, 2)))
    assert u2.atoms == (Interval(0, 2),)


def test_points_absorbed_by_interval():
    u = union(RepSet.of(FinitePoints([F(1, 2), 3])), RepSet.of(Interval(0, 1)))
    assert u.atoms == (Interval(0, 1), FinitePoints([3]))
    # a point matching a deletion restores it
    u2 = union(RepSet.of(FinitePoints([F(1, 2)])),
               RepSet.of(Interval(0, 1, deletions=[F(1, 2)])))
    assert u2.atoms == (Interval(0, 1),)


def test_sequence_absorbed_by_interval():
    h = CountableSeq(HARMONIC, 0, 1)
    u = union(RepSet.of(h), RepSet.of(Interval(0, 1)))
    assert u.atoms == (Interval(0, 1),)
    # interval covering only the tail keeps a finite head
    u2 = union(RepSet.of(h), RepSet.of(Interval(0, F(1, 4))))
    assert Interval(0, F(1, 4)) in u2.atoms
    pts = [a for a in u2.atoms if isinstance(a, FinitePoints)]
    assert pts and pts[0].points == (F(1, 3), F(1, 2), F(1, 1))


def test_harmonic_subsequence_merges():
    h = CountableSeq(HARMONIC, 0, 1)
    even = CountableSeq(HARMONIC, 0, F(1, 2))  # 1/(2n)
    u = union(RepSet.of(h), RepSet.of(even))
    assert u.atoms == (h,)


def test_interleaved_harmonics_not_representable():
    a = CountableSeq(HARMONIC, 0, F(2, 3))
    b = CountableSeq(HARMONIC, 0, 1)
    with pytest.raises(NotRepresentable):
        union(RepSet.of(a), RepSet.of(b))
    with pytest.raises(NotRepresentable,
                       match="the difference of these sequences is not a "
                       "catalog set"):
        diff(RepSet.of(a), RepSet.of(b))
    with pytest.raises(NotRepresentable,
                       match="the meet of these sequences is not a "
                       "catalog set"):
        intersect(RepSet.of(a), RepSet.of(b))


def test_geometric_sequences_of_one_base_ratio():
    even = CountableSeq(GEOMETRIC, 0, 1, F(1, 4))      # 2**-2n
    odd = CountableSeq(GEOMETRIC, 0, F(1, 2), F(1, 4))  # 2**-(2n+1)
    assert set(union(RepSet.of(even), RepSet.of(odd)).atoms) == {even, odd}
    assert intersect(RepSet.of(even), RepSet.of(odd)).is_empty()
    # 2**-2n and 2**-3m share the points 2**-6k and neither holds the other
    thirds = CountableSeq(GEOMETRIC, 0, 1, F(1, 8))
    with pytest.raises(NotRepresentable,
                       match="the union of these sequences is not a "
                       "catalog set"):
        union(RepSet.of(even), RepSet.of(thirds))


def test_a_sequence_less_its_own_tail_is_its_head():
    halves = RepSet.of(CountableSeq(GEOMETRIC, 0, 1, F(1, 2)))  # 2^-n
    tail = CountableSeq(GEOMETRIC, 0, F(1, 4), F(1, 2))  # from 1/8 on
    out = diff(halves, RepSet.of(tail))
    assert out == RepSet.of(FinitePoints([F(1, 2), F(1, 4)]))
    assert hmeasure(out) == HPair.of(0, 2)
    # a point the tail deletes stays in the difference
    out = diff(halves, RepSet.of(tail.with_deletions([F(1, 16)])))
    assert out == RepSet.of(FinitePoints([F(1, 2), F(1, 4), F(1, 16)]))
    # every other term, and 2^-n inside 1/n, are not tails: still refused;
    # nor is 1, 1/2, 1/4, ... though it opens with 1/n's first two terms,
    # and likewise 1 + 3(1/2)^(n-1) inside 1 + 3/n
    harmonic = RepSet.of(CountableSeq(HARMONIC, 0, 1))
    for x, y in [(halves, CountableSeq(GEOMETRIC, 0, 1, F(1, 4))),
                 (harmonic, halves.atoms[0]),
                 (harmonic, CountableSeq(GEOMETRIC, 0, 2, F(1, 2))),
                 (RepSet.of(CountableSeq(HARMONIC, 1, 3)),
                  CountableSeq(GEOMETRIC, 1, 6, F(1, 2)))]:
        with pytest.raises(NotRepresentable,
                           match="removing an interleaved subsequence "
                           "leaves a non-catalog set"):
            diff(x, RepSet.of(y))


def test_a_geometric_tail_past_index_one_combines():
    # {4^(1-n)} = 1, 1/4, 1/16, ...: its tail from 1/4 on lies in {2^-n}
    x = RepSet.of(CountableSeq(GEOMETRIC, 0, 4, F(1, 4)))
    y = RepSet.of(CountableSeq(GEOMETRIC, 0, 1, F(1, 2)))
    u, meet, less = union(x, y), intersect(x, y), diff(x, y)
    assert u.render() == "{0 + 1*(1/2)^n} u {1}"
    assert union(y, x).render() == u.render()
    assert meet.render() == "{0 + 4*(1/4)^n} \\ {1}"
    assert less.render() == "{1}" and hmeasure(less) == HPair.of(0, 1)
    with pytest.raises(NotRepresentable,
                       match="removing an interleaved subsequence "
                       "leaves a non-catalog set"):
        diff(y, x)
    for s in (x, y):
        for p in map(s.atoms[0].point, range(1, 1001)):
            inx, iny = x.member(p), y.member(p)
            assert u.member(p) == (inx or iny)
            assert meet.member(p) == (inx and iny)
            assert less.member(p) == (inx and not iny)


def test_geometric_tail_inside_harmonic():
    h = CountableSeq(HARMONIC, 0, 1)
    g = CountableSeq(GEOMETRIC, 0, 4, F(1, 2))  # 2, 1, 1/2, 1/4, ...
    u = union(RepSet.of(h), RepSet.of(g))
    assert h in u.atoms
    pts = [a for a in u.atoms if isinstance(a, FinitePoints)]
    assert pts and pts[0].points == (F(2),)


def test_geometric_inside_harmonic_merges():
    h = CountableSeq(HARMONIC, 0, 1)
    g = CountableSeq(GEOMETRIC, 0, 1, F(1, 2))  # 1/2, 1/4, ...
    u = union(RepSet.of(h), RepSet.of(g))
    assert u.atoms == (h,)


def test_sequences_opposite_sides_disjoint():
    a = CountableSeq(HARMONIC, 0, 1)
    b = CountableSeq(HARMONIC, 0, -1)
    u = union(RepSet.of(a), RepSet.of(b))
    assert len(u.atoms) == 2


def test_sequence_accumulating_inside_cantor():
    h = CountableSeq(HARMONIC, 0, 1)  # accumulates at 0, a Cantor point
    with pytest.raises(NotRepresentable):
        union(RepSet.of(h), RepSet.of(CantorAffine(0, 1)))


def test_sequence_with_cantor_finite_overlap():
    # 1/2 + 1/(2n) accumulates at 1/2, inside the central gap
    seq = CountableSeq(HARMONIC, F(1, 2), F(1, 2))
    u = union(RepSet.of(seq), RepSet.of(CantorAffine(0, 1)))
    assert u.member(F(3, 4)) and u.member(F(2, 3)) and u.member(1)
    assert u.member(F(5, 8))  # sequence point outside the Cantor set
    moved = [a for a in u.atoms if isinstance(a, CountableSeq)][0]
    assert moved.deletions == {F(1), F(3, 4), F(2, 3)}


def test_touching_cantor_copies():
    u = union(RepSet.of(CantorAffine(0, 1)), RepSet.of(CantorAffine(1, 1)))
    assert hmeasure(u) == HPair(DIM_CANTOR, ExtReal.of(2))
    assert u.member(1)
    # the touch point is carried by exactly one atom
    holders = [a for a in u.atoms if a.member(1)]
    assert len(holders) == 1


def test_overlapping_misaligned_cantor_copies_fail():
    with pytest.raises(NotRepresentable):
        union(RepSet.of(CantorAffine(0, 1)), RepSet.of(CantorAffine(F(1, 2), 1)))


def test_cantor_children_reassemble():
    left, right = CantorAffine(0, 1).children()
    u = union(RepSet.of(left), RepSet.of(right))
    assert hmeasure(u) == HPair(DIM_CANTOR, ExtReal.of(1))
    assert diff(u, RepSet.of(CantorAffine(0, 1))).is_empty()
    assert diff(RepSet.of(CantorAffine(0, 1)), u).is_empty()


@pytest.mark.parametrize("third", [FinitePoints([5]), Interval(3, 4),
                                   CantorAffine(3, 1)])
def test_touching_cantor_copies_every_order(third):
    # the settled copy goes first on a rank tie; the reverse trades the
    # touch point back and forth until the iteration guard trips
    copies = [CantorAffine(0, 1), CantorAffine(1, 1)]
    for order in itertools.permutations(copies + [third]):
        u = normalize(order)
        assert len(u.atoms) == 3
        cantors = sorted((a.t, a.s) for a in u.atoms if isinstance(a, CantorAffine))
        assert cantors[:2] == [(0, 1), (1, 1)]
        holders = [a for a in u.atoms if a.member(1)]
        assert len(holders) == 1
        assert u.member(third.hull()[0])


@pytest.mark.parametrize("atoms, render", [
    ([CountableSeq(GEOMETRIC, 0, 1, F(1, 2)), Interval(F(-4, 3), F(2, 3)),
      CantorAffine(0, F(1, 3))],
     "[-4/3, 2/3]"),
    ([Interval(F(2, 3), 1), CountableSeq(GEOMETRIC, 1, F(1, 3), F(1, 3)),
      CantorAffine(F(2, 3), 1)],
     "[2/3, 1] u {1 + 1/3*(1/3)^n} u (4/3 + 1/3*C)"),
])
def test_union_answer_independent_of_atom_order(atoms, render):
    # the sequence accumulates inside the Cantor copy; only the interval,
    # settled first, makes the pair representable
    for order in itertools.permutations(atoms):
        assert normalize(order).render() == render


def _settled(*atoms):
    return set(normalize(atoms).atoms)


def test_points_at_closed_hull_ends_are_resolved():
    out = _settled(FinitePoints([0, 1, 2, 3]), Interval(1, 2))
    assert out == {Interval(1, 2), FinitePoints([0, 3])}
    # deleted hull ends are restored in the other atom
    out = _settled(FinitePoints([1, 2, 5]), Interval(1, 2, deletions=[1, 2]))
    assert out == {Interval(1, 2), FinitePoints([5])}
    out = _settled(FinitePoints([0, F(1, 2), 1, 2]), CantorAffine(0, 1))
    assert out == {CantorAffine(0, 1), FinitePoints([F(1, 2), 2])}
    # the accumulation point is a hull end but not a member
    h = CountableSeq(HARMONIC, 0, 1)
    assert _settled(FinitePoints([0, 1]), h) == {h, FinitePoints([0])}
    out = _settled(FinitePoints([-1, 3]), Interval(0, 2))
    assert out == {FinitePoints([-1, 3]), Interval(0, 2)}


def test_points_against_unbounded_intervals():
    out = _settled(FinitePoints([-5, 0, 1]), Interval(None, 0))
    assert out == {Interval(None, 0), FinitePoints([1])}
    out = _settled(FinitePoints([-1, 0, 7]), Interval(0, None))
    assert out == {Interval(0, None), FinitePoints([-1])}
    out = _settled(FinitePoints([-1]), Interval(0, None))
    assert out == {FinitePoints([-1]), Interval(0, None)}


def test_point_atoms_collapse_into_one():
    # {0} and {5} have disjoint hulls but still become one point atom
    s = RepSet.of(FinitePoints([0]), FinitePoints([5]), Interval(1, 2))
    assert s.atoms == (FinitePoints([0, 5]), Interval(1, 2))


# -- operations ----------------------------------------------------------------

SEQ = CountableSeq(HARMONIC, 0, 1)
GEO4 = CountableSeq(GEOMETRIC, 0, 4, F(1, 2), (F(1, 2),))
UPPER = CountableSeq(HARMONIC, F(1, 2), F(1, 2))


# a sequence tail inside the partner, or common points moving into it,
# while the partner carries deletions of its own
@pytest.mark.parametrize("op, x, y, render", [
    (union, SEQ, Interval(0, F(1, 4), (F(1, 5),)), "[0, 1/4] u {1/3, 1/2, 1}"),
    (diff, SEQ, Interval(0, F(1, 4), (F(1, 5),)), "{1/5, 1/3, 1/2, 1}"),
    (union, SEQ.with_deletions([F(1, 4)]), GEO4, "{0 + 1/n} u {2}"),
    (diff, GEO4, SEQ.with_deletions([F(1, 4)]), "{1/4, 2}"),
    (union, UPPER, CantorAffine(0, 1, (F(3, 4),)),
     "(0 + 1*C) u {1/2 + 1/2/n} \\ {2/3, 3/4, 1}"),
    (union, UPPER, Interval(F(5, 8), 1, (F(2, 3),)),
     "{1/2 + 1/2/n} \\ {5/8, 2/3, 3/4, 1} u [5/8, 1]"),
])
def test_tail_and_move_with_deletions_on_the_partner(op, x, y, render):
    assert op(RepSet.of(x), RepSet.of(y)).render() == render


def test_symdiff_of_nested_intervals():
    a, b = RepSet.of(Interval(0, 1)), RepSet.of(Interval(0, 2))
    sd = symdiff(a, b)
    assert sd.atoms == (Interval(1, 2, deletions=[1]),)
    assert hmeasure(sd) == HPair(DIM_ONE, ExtReal.of(1))


def test_interval_minus_interval_variants():
    d = diff(RepSet.of(Interval(0, 2)), RepSet.of(Interval(1, 3)))
    assert d.atoms == (Interval(0, 1, deletions=[1]),)
    d2 = diff(RepSet.of(Interval(0, 3)), RepSet.of(Interval(1, 2)))
    assert d2.atoms == (Interval(0, 1, deletions=[1]),
                        Interval(2, 3, deletions=[2]))
    # removing an interval with a deleted endpoint keeps that endpoint
    d3 = diff(RepSet.of(Interval(0, 2)), RepSet.of(Interval(1, 3, deletions=[1])))
    assert d3.atoms == (Interval(0, 1),)
    # subtracting everything but two deleted interior points
    d4 = diff(RepSet.of(Interval(0, 1)),
              RepSet.of(Interval(0, 1, deletions=[F(1, 3), F(2, 3)])))
    assert d4.atoms == (FinitePoints([F(1, 3), F(2, 3)]),)


def test_interval_minus_unbounded():
    d = diff(RepSet.of(Interval(0, 2)), RepSet.of(Interval(1, None)))
    assert d.atoms == (Interval(0, 1, deletions=[1]),)
    d2 = diff(RepSet.of(Interval(None, None)), RepSet.of(Interval(0, 1)))
    assert d2.atoms == (Interval(None, 0, deletions=[0]),
                        Interval(1, None, deletions=[1]))


def test_middle_interval_minus_cantor():
    d = diff(RepSet.of(Interval(F(1, 3), F(2, 3))), RepSet.of(CantorAffine(0, 1)))
    assert d.atoms == (Interval(F(1, 3), F(2, 3), deletions=[F(1, 3), F(2, 3)]),)


def test_wide_interval_minus_cantor_not_representable():
    with pytest.raises(NotRepresentable):
        diff(RepSet.of(Interval(0, 1)), RepSet.of(CantorAffine(0, 1)))


def test_cantor_minus_interval():
    d = diff(RepSet.of(CantorAffine(0, 1)), RepSet.of(Interval(F(1, 3), F(2, 3))))
    assert hmeasure(d) == HPair(DIM_CANTOR, ExtReal.of(1))
    assert not d.member(F(1, 3)) and not d.member(F(2, 3))
    assert d.member(F(1, 4)) and d.member(1)


def test_cantor_intersect_interval():
    i = intersect(RepSet.of(CantorAffine(0, 1)), RepSet.of(Interval(0, F(1, 3))))
    assert i.atoms == (CantorAffine(0, F(1, 3)),)
    assert hmeasure(i) == HPair(DIM_CANTOR, ExtReal.of(F(1, 2)))


def test_cantor_minus_itself_and_deletions():
    c = RepSet.of(CantorAffine(0, 1))
    assert diff(c, c).is_empty()
    dotted = RepSet.of(CantorAffine(0, 1, deletions=[0, 1]))
    d = diff(c, dotted)
    assert d.atoms == (FinitePoints([0, 1]),)
    assert intersect(c, dotted).atoms == dotted.atoms


def test_sub_copy_difference():
    whole = RepSet.of(CantorAffine(0, 1))
    left = RepSet.of(CantorAffine(0, F(1, 3)))
    d = diff(whole, left)
    assert d.atoms == (CantorAffine(F(2, 3), F(1, 3)),)
    assert diff(left, whole).is_empty()


def test_interval_minus_sequence_raises():
    h = CountableSeq(HARMONIC, F(1, 2), F(1, 2))
    with pytest.raises(NotRepresentable):
        diff(RepSet.of(Interval(0, 2)), RepSet.of(h))
    # but removing finitely many of its points is fine
    d = diff(RepSet.of(Interval(F(3, 5), 2)), RepSet.of(h))
    assert d.atoms[0].deletions == {F(1), F(3, 4), F(5, 8), F(2, 3), F(3, 5)}


def test_empty_behaviour():
    assert union(EMPTY_SET, EMPTY_SET).is_empty()
    a = RepSet.of(Interval(0, 1))
    assert diff(a, EMPTY_SET).atoms == a.atoms
    assert diff(EMPTY_SET, a).is_empty()
    assert hmeasure(EMPTY_SET) == HPair(DIM_ZERO, ExtReal.of(0))


# -- measures --------------------------------------------------------------------

def test_measures_of_single_atoms():
    assert hmeasure(RepSet.of(FinitePoints([1, 2, 5]))) == HPair(DIM_ZERO, ExtReal.of(3))
    assert hmeasure(RepSet.of(Interval(0, F(7, 2)))) == HPair(DIM_ONE, ExtReal.of(F(7, 2)))
    assert hmeasure(RepSet.of(CantorAffine(0, 1))) == HPair(DIM_CANTOR, ExtReal.of(1))
    seq = hmeasure(RepSet.of(CountableSeq(HARMONIC, 0, 1)))
    assert seq.d == DIM_ZERO and seq.m.kind == "+inf"
    unb = hmeasure(RepSet.of(Interval(0, None)))
    assert unb.d == DIM_ONE and unb.m.kind == "+inf"


def test_measure_top_dimension_dominates():
    s = RepSet.of(Interval(0, 1), CantorAffine(2, 1), FinitePoints([5, 6]))
    assert hmeasure(s) == HPair(DIM_ONE, ExtReal.of(1))
    s2 = RepSet.of(CantorAffine(2, 1), FinitePoints([5, 6]))
    assert hmeasure(s2) == HPair(DIM_CANTOR, ExtReal.of(1))


def ref_dim(s):
    """RepSet.dim before top_terms: a fold of the atom dimensions."""
    if not s.atoms:
        return DIM_ZERO
    d = s.atoms[0].dim()
    for a in s.atoms[1:]:
        d = d if d.cmp(a.dim()) >= 0 else a.dim()
    return d


def ref_hmeasure(s):
    """hmeasure before top_terms: the top dimension by a fold, then a
    second pass for the measures of the atoms that compare equal to it."""
    if s.is_empty():
        return ZERO_PAIR
    top = ref_dim(s)
    return HPair(top, ext_sum([a.mu() for a in s.atoms
                               if a.dim().cmp(top) == 0]))


class _Carrier:
    """A stand-in atom that carries a drawn dimension and measure, so the
    rule is tested on dimensions no subset of the line has. It logs each
    read of its measure."""

    def __init__(self, d, m, reads):
        self.d, self.m, self.reads = d, m, reads

    def dim(self):
        return self.d

    def mu(self):
        self.reads.append(self)
        return self.m


# 1/2 + log 2/log 3 lies above 1 and below 2
RULE_DIMS = (DIM_ZERO, Dimension.rational(F(1, 2)), DIM_ONE,
             Dimension.rational(2), DIM_CANTOR,
             Dimension(rat=F(1, 2), logs=DIM_CANTOR.logs))
RULE_MEASURES = st.one_of(
    st.fractions(-9, 9, max_denominator=6).map(ExtReal.of),
    st.integers(-3, 3).map(lambda c: PSeries(c or 1, 2).sum()),
    st.sampled_from([POS_INF, NEG_INF]))


def _outcome(fn, s):
    try:
        return fn(s).render()
    except HausdorffError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(RULE_DIMS), RULE_MEASURES),
                max_size=8))
def test_hmeasure_matches_the_two_pass_rule(drawn):
    reads = []
    s = RepSet(tuple(_Carrier(d, m, reads) for d, m in drawn))
    got = _outcome(hmeasure, s)
    # only the atoms of the top dimension have their measure read
    assert all(a.d == ref_dim(s) for a in reads)
    assert got == _outcome(ref_hmeasure, s)
    assert s.dim() == ref_dim(s)


def test_hmeasure_compares_each_atom_once(monkeypatch):
    s = RepSet.of(FinitePoints([-5, -4]), Interval(0, 1), CantorAffine(2, 1),
                  Interval(4, None, (5,)), CountableSeq(HARMONIC, -10, 1),
                  CantorAffine(-3, F(1, 3)))
    calls = []
    cmp = Dimension.cmp
    monkeypatch.setattr(Dimension, "cmp",
                        lambda a, b: calls.append(1) or cmp(a, b))
    assert hmeasure(s) == HPair(DIM_ONE, POS_INF)
    assert len(calls) == len(s.atoms) - 1 == 5


def test_cantor_scaling_powers_of_three():
    assert cantor_scale_measure(F(1, 3)).as_fraction() == F(1, 2)
    assert cantor_scale_measure(F(1, 9)).as_fraction() == F(1, 4)
    assert cantor_scale_measure(3).as_fraction() == F(2)
    assert cantor_scale_measure(27).as_fraction() == F(8)
    assert cantor_scale_measure(1).as_fraction() == F(1)
    assert cantor_scale_measure(0).as_fraction() == F(0)


def test_cantor_scaling_general_rational():
    # 2 ** -(log2/log3) = 0.64576011...
    m = cantor_scale_measure(F(1, 2))
    enc = m.enclosure()
    assert enc.lo > F(64576011, 10 ** 8) and enc.hi < F(64576012, 10 ** 8)
    # scale 2 is the reciprocal
    m2 = cantor_scale_measure(2)
    enc2 = m2.enclosure()
    assert enc2.lo > F(15, 10) and enc2.hi < F(155, 100)


def test_union_additivity_same_dimension():
    u = union(RepSet.of(CantorAffine(0, 1)), RepSet.of(CantorAffine(2, 1)))
    assert hmeasure(u) == HPair(DIM_CANTOR, ExtReal.of(2))
    u2 = union(RepSet.of(Interval(0, 1)), RepSet.of(Interval(2, F(5, 2))))
    assert hmeasure(u2) == HPair(DIM_ONE, ExtReal.of(F(3, 2)))


def test_verify_monotone():
    a, b = RepSet.of(Interval(0, 1)), RepSet.of(Interval(0, 2))
    ma, mb, ok = verify_monotone(a, b)
    assert ok and ma == HPair(DIM_ONE, ExtReal.of(1))
    with pytest.raises(ValidationError):
        verify_monotone(b, a)
    ma, mb, ok = verify_monotone(RepSet.of(CantorAffine(0, F(1, 3))),
                                 RepSet.of(CantorAffine(0, 1)))
    assert ok


# -- randomized laws ---------------------------------------------------------------

GRID = [F(n, 6) for n in range(-12, 13)]


def _random_atom(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return FinitePoints(rng.sample(GRID, rng.randrange(1, 4)))
    if kind == 1:
        a = rng.choice(GRID)
        b = rng.choice([F(1), F(-1), F(1, 2), F(2)])
        if rng.random() < 0.5:
            return CountableSeq(HARMONIC, a, b)
        return CountableSeq(GEOMETRIC, a, b, rng.choice([F(1, 2), F(1, 3)]))
    if kind == 2:
        lo = rng.choice(GRID)
        hi = lo + rng.choice([F(1, 3), F(1, 2), F(1), F(2)])
        return Interval(lo, hi)
    t = rng.choice(GRID)
    s = rng.choice([F(1), F(1, 3), F(3), F(1, 9)])
    return CantorAffine(t, s)


def _sample_points(atoms, rng):
    pts = set()
    for a in atoms:
        lo, hi = a.hull()
        if lo is not None:
            pts.add(lo)
        if hi is not None:
            pts.add(hi)
        if isinstance(a, FinitePoints):
            pts.update(a.points)
        if isinstance(a, CountableSeq):
            pts.update(a.point(n) for n in (1, 2, 3, 7))
        if isinstance(a, CantorAffine):
            pts.update([a.t + a.s / 4, a.t + a.s / 2, a.t + a.s / 3])
        if isinstance(a, Interval) and a.is_bounded():
            pts.add((a.lo + a.hi) / 2)
    pts.update(rng.choice(GRID) for _ in range(5))
    return pts


def test_union_membership_law_random():
    rng = random.Random(20260818)
    tried = done = 0
    while done < 60 and tried < 400:
        tried += 1
        xa, xb = _random_atom(rng), _random_atom(rng)
        try:
            a, b = RepSet.of(xa), RepSet.of(xb)
            u = union(a, b)
        except NotRepresentable:
            continue
        done += 1
        for p in _sample_points([xa, xb], rng):
            assert u.member(p) == (a.member(p) or b.member(p)), (xa, xb, p)
        # atoms of the result are pairwise disjoint at the sample points
        for p in _sample_points(u.atoms, rng):
            assert sum(1 for at in u.atoms if at.member(p)) <= 1
    assert done >= 40


def test_diff_membership_law_random():
    rng = random.Random(917)
    tried = done = 0
    while done < 60 and tried < 400:
        tried += 1
        xa, xb = _random_atom(rng), _random_atom(rng)
        try:
            a, b = RepSet.of(xa), RepSet.of(xb)
            d = diff(a, b)
        except NotRepresentable:
            continue
        done += 1
        for p in _sample_points([xa, xb], rng):
            assert d.member(p) == (a.member(p) and not b.member(p)), (xa, xb, p)
    assert done >= 40


def test_monotone_and_subadditive_random():
    rng = random.Random(424242)
    done = 0
    for _ in range(300):
        xa, xb = _random_atom(rng), _random_atom(rng)
        try:
            a, b = RepSet.of(xa), RepSet.of(xb)
            u = union(a, b)
            ma, mu_u, ok = verify_monotone(a, u)
            assert ok, (xa, xb)
            _, _, _, ok2 = verify_subadditive(a, b)
            assert ok2, (xa, xb)
            done += 1
        except NotRepresentable:
            continue
        if done >= 60:
            break
    assert done >= 40


SMALL = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6, 9]))


@st.composite
def small_atoms(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return FinitePoints(draw(st.lists(SMALL, min_size=1, max_size=4)))
    if kind == 1:
        a = draw(SMALL)
        b = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 3), F(2)]))
        if draw(st.booleans()):
            seq = CountableSeq(HARMONIC, a, b)
        else:
            seq = CountableSeq(GEOMETRIC, a, b,
                               draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)])))
        dels = draw(st.lists(st.integers(1, 4), max_size=2))
        return seq.with_deletions(seq.point(n) for n in dels)
    if kind == 2:
        lo = draw(SMALL)
        hi = lo + draw(st.sampled_from([F(1, 3), F(1, 2), F(1), F(2)]))
        lo, hi = draw(st.sampled_from([(lo, hi), (None, hi), (lo, None)]))
        return Interval(lo, hi).with_deletions(draw(st.lists(SMALL, max_size=3)))
    ca = CantorAffine(draw(SMALL),
                      draw(st.sampled_from([F(1), F(1, 3), F(3), F(1, 9), F(-1, 3)])))
    dels = draw(st.lists(st.sampled_from([0, F(1, 3), F(2, 3), 1, F(1, 4)]),
                         max_size=2))
    return ca.with_deletions(ca.t + ca.s * d for d in dels)


def _probes(atoms):
    pts = set()
    for a in atoms:
        pts.update(e for e in a.hull() if e is not None)
        pts.update(a.deletions)
        if isinstance(a, FinitePoints):
            pts.update(a.points)
        if isinstance(a, CountableSeq):
            pts.update(a.point(n) for n in range(1, 13))
        if isinstance(a, CantorAffine):
            pts.update(a.t + a.s * k / 27 for k in range(28))
    srt = sorted(pts)
    return srt + [(u + v) / 2 for u, v in zip(srt, srt[1:])]


def _certified_disjoint(x, y):
    if isinstance(y, FinitePoints):
        x, y = y, x
    if isinstance(x, FinitePoints):
        # y neither holds nor deletes a point of x, as the scan resolves it
        return _scan_resolve(x, y) is None
    if _rank(x) != _rank(y):
        if _rank(x) > _rank(y):
            x, y = y, x
        return _resolve_pair(x, y) is None
    # on a rank tie normalize puts the settled atom first, so the
    # certificate may hold in either order
    for a, b in ((x, y), (y, x)):
        try:
            if _resolve_pair(a, b) is None:
                return True
        except NotRepresentable:
            pass
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(small_atoms(), min_size=2, max_size=6))
def test_normalize_properties(inputs):
    try:
        s = normalize(inputs)
    except NotRepresentable:
        return
    for x, y in itertools.combinations(s.atoms, 2):
        assert _certified_disjoint(x, y), (x, y)
    for p in _probes(inputs):
        assert s.member(p) == any(a.member(p) for a in inputs), p
    try:
        r = normalize(inputs[::-1])
    except NotRepresentable:
        return
    assert hmeasure(r) == hmeasure(s)


# The intersection as two differences, before the per-pair meet, kept as
# a reference independent of the meet: the differences of an interval or
# a copy less a sequence or a copy, and of a sequence less anything, are
# the ones they were then, and so is the refusal of every sequence that
# accumulates at a point of a Cantor copy.

def ref_seq_cantor_commons(x, y):
    hlo, hhi = y.hull()
    kind, data = x.indices_within(hlo, hhi)
    if kind == "finite":
        return sorted(p for p in (x.point(n) for n in data) if y.in_base(p))
    if y.in_base(x.a):
        raise NotRepresentable(
            "a sequence accumulating inside a Cantor copy cannot be combined with it")
    glo, ghi = cantor_gap((x.a - y.t) / y.s)
    glo, ghi = y.t + y.s * glo, y.t + y.s * ghi
    pts = set()
    for lo, hi in ((None, glo), (ghi, None)):
        _, data2 = x.indices_within(lo, hi)
        pts.update(p for p in map(x.point, data2) if y.in_base(p))
    return sorted(pts)


def _ref_delete_commons(x, y, commons):
    return x.with_deletions(p for p in commons if y.member(p))


def ref_seq_minus(x, y):
    if isinstance(y, CountableSeq):
        commons = setalg._seq_seq_commons(x, y)
        if commons is None:
            raise NotRepresentable(
                "the difference of these sequences is not a catalog set")
        if commons == "disjoint":
            return [x]
        kind, payload = commons
        if kind == "finite":
            return [_ref_delete_commons(x, y, payload)]
        seq, start = payload
        if seq is not x:
            raise NotRepresentable(
                "removing an interleaved subsequence leaves a non-catalog set")
    elif isinstance(y, Interval):
        kind, data = x.indices_within(y.lo, y.hi)
        if kind == "finite":
            return [_ref_delete_commons(x, y, map(x.point, data))]
        start = data
    else:
        return [_ref_delete_commons(x, y, ref_seq_cantor_commons(x, y))]
    head, rescued = setalg._tail_split(x, start, y)
    return setalg._point_atoms(head + rescued)


# The pair layer as it stood when each rule was written out in each
# operation: the union resolved a sequence (ref_resolve_seq) or a copy
# (ref_resolve_with_cantor) by rules of its own, and the differences of a
# sequence, of two intervals and of a copy had theirs. setalg now reads one
# relation per pair three ways; these copies are the reference it must
# match, atom for atom and refusal for refusal.

def ref_seq_commons(x, y, op):
    if isinstance(y, CountableSeq):
        commons = setalg._seq_seq_commons(x, y)
        if commons is None:
            raise NotRepresentable(
                f"the {op} of these sequences is not a catalog set")
        return commons
    if isinstance(y, Interval):
        kind, data = x.indices_within(y.lo, y.hi)
        if kind == "finite":
            return ("finite", [x.point(n) for n in data])
        return ("tail", (x, data))
    return ("finite", setalg._seq_cantor_commons(x, y))


def ref_resolve_seq(x, y):
    commons = ref_seq_commons(x, y, "union")
    if commons == "disjoint":
        return None
    kind, payload = commons
    if kind == "tail":  # the tail of seq lies in other
        seq, start = payload
        other = y if seq is x else x
        head, rescued = setalg._tail_split(seq, start, other)
        return [other.restore(rescued)] + setalg._point_atoms(head)
    if isinstance(y, CountableSeq):
        y_less = y.with_deletions(p for p in payload if x.member(p))
        return None if y_less is y else [x, y_less]
    # y holds the candidate points in its base set: the ones x holds
    # leave x and are restored in y
    moved = [p for p in payload if x.member(p)]
    return [x.with_deletions(moved), y.restore(moved)] if moved else None


def ref_resolve_with_cantor(x, y):
    common, y_only = setalg._ca_partition(x, y)
    if not common:
        return None
    return [x.restore(d for d in x.deletions if y.member(d))] + y_only


def ref_resolve_pair(x, y):
    if not setalg._hulls_meet(x, y):
        return None
    if isinstance(x, CountableSeq):
        return ref_resolve_seq(x, y)
    if isinstance(y, Interval):  # and so is x, by rank
        lo = None if (x.lo is None or y.lo is None) else min(x.lo, y.lo)
        hi = None if (x.hi is None or y.hi is None) else max(x.hi, y.hi)
        dels = [d for d in (x.deletions | y.deletions)
                if not x.member(d) and not y.member(d)]
        return [Interval(lo, hi, dels)]
    return ref_resolve_with_cantor(x, y)


def ref_interval_minus_interval(x, y):
    pieces = []
    if y.lo is not None and (x.lo is None or x.lo < y.lo):
        dels = {d for d in x.deletions if d <= y.lo}
        if y.lo not in y.deletions:
            dels.add(y.lo)
        pieces.append(Interval(x.lo, y.lo, dels))
    if y.hi is not None and (x.hi is None or x.hi > y.hi):
        dels = {d for d in x.deletions if d >= y.hi}
        if y.hi not in y.deletions:
            dels.add(y.hi)
        pieces.append(Interval(y.hi, x.hi, dels))
    # deleted positions of y interior to x survive the subtraction
    survivors = [d for d in y.deletions
                 if x.member(d) and not any(p.in_base(d) for p in pieces)]
    return pieces + setalg._point_atoms(survivors)


def ref_cantor_minus(x, y):
    common, x_only = setalg._ca_partition(y, x)
    extra = set()
    for piece in common:
        if isinstance(piece, FinitePoints):
            extra |= {p for p in piece.points
                      if x.member(p) and not y.member(p)}
        else:
            # a shared sub-copy: positions deleted from y survive in x
            extra |= {d for d in y.deletions
                      if piece.member(d) and x.member(d)}
    return x_only + setalg._point_atoms(extra)


def ref_pair_meet(x, y):
    if x == y:
        return [x]
    if (_rank(y), setalg._hull_key(y)) < (_rank(x), setalg._hull_key(x)):
        x, y = y, x
    if isinstance(x, FinitePoints):
        return setalg._point_atoms([p for p in x.points if y.member(p)])
    if isinstance(x, CountableSeq):
        commons = ref_seq_commons(x, y, "meet")
        if commons == "disjoint":
            return []
        kind, payload = commons
        if kind == "finite":
            return setalg._point_atoms([p for p in payload
                                        if x.member(p) and y.member(p)])
        seq, start = payload
        head, rescued = setalg._tail_split(seq, start, y if seq is x else x)
        return [seq.with_deletions(head + rescued)]
    if isinstance(y, Interval):
        lo = max((e for e in (x.lo, y.lo) if e is not None), default=None)
        hi = min((e for e in (x.hi, y.hi) if e is not None), default=None)
        if lo is not None and lo == hi:
            return setalg._point_atoms(
                [lo] if x.member(lo) and y.member(lo) else [])
        return [Interval(lo, hi).with_deletions(x.deletions | y.deletions)]
    common, _ = setalg._ca_partition(x, y)
    holes = FinitePoints(x.deletions)
    return [p for piece in common for p in ref_pair_minus(piece, holes)]


def ref_pair_minus(x, y):
    if x == y:
        return []
    if isinstance(x, FinitePoints):
        return setalg._point_atoms([p for p in x.points if not y.member(p)])
    if isinstance(y, FinitePoints):
        return [x.with_deletions(y.points)]
    if isinstance(x, CountableSeq):
        commons = ref_seq_commons(x, y, "difference")
        if commons == "disjoint":
            return [x]
        kind, payload = commons
        if kind == "finite":
            return [x.with_deletions(p for p in payload if y.member(p))]
        seq, start = payload
        if seq is not x:
            start = setalg._tail_start(x, y)
            if start is None:
                raise NotRepresentable(
                    "removing an interleaved subsequence leaves a non-catalog set")
        head, rescued = setalg._tail_split(x, start, y)
        return setalg._point_atoms(head + rescued)
    if isinstance(x, Interval) and isinstance(y, Interval):
        return ref_interval_minus_interval(x, y)
    if isinstance(x, CantorAffine) and not isinstance(y, CountableSeq):
        return ref_cantor_minus(x, y)
    shared = []
    for piece in ref_pair_meet(x, y):
        if not isinstance(piece, FinitePoints):
            what = ("an infinite sequence" if isinstance(piece, CountableSeq)
                    else "a Cantor copy")
            raise NotRepresentable(
                f"an interval minus {what} is not a catalog set")
        shared += piece.points
    return [x.with_deletions(shared)]


def ref_interval_minus(x, y):
    if isinstance(y, CountableSeq):
        kind, data = y.indices_within(x.lo, x.hi)
        if kind == "tail":
            raise NotRepresentable(
                "an interval minus an infinite sequence is not a catalog set")
        return [_ref_delete_commons(x, y, map(y.point, data))]
    if isinstance(y, Interval):
        return ref_interval_minus_interval(x, y)
    covered, _ = setalg._ca_partition(x, y)
    hits = []
    for piece in covered:
        if isinstance(piece, CantorAffine):
            raise NotRepresentable(
                "an interval minus a Cantor copy is not a catalog set")
        hits.extend(piece.points)
    return [x.with_deletions(hits)]


def ref_atom_minus_atom(x, y):
    if isinstance(x, FinitePoints):
        return setalg._point_atoms([p for p in x.points if not y.member(p)])
    if isinstance(y, FinitePoints):
        return [x.with_deletions(y.points)]
    if isinstance(x, CountableSeq):
        return ref_seq_minus(x, y)
    if isinstance(x, Interval):
        return ref_interval_minus(x, y)
    if isinstance(y, CountableSeq):
        return [_ref_delete_commons(x, y, ref_seq_cantor_commons(y, x))]
    return ref_cantor_minus(x, y)


def ref_intersect(a, b):
    """a minus (a minus b), or the mirror image when that refuses, with
    the reference differences in place."""
    with mock.patch.multiple(setalg, _atom_minus_atom=ref_atom_minus_atom,
                             _seq_cantor_commons=ref_seq_cantor_commons):
        try:
            return diff(a, diff(a, b))
        except NotRepresentable:
            return diff(b, diff(b, a))


SIXTHS = [F(n, 6) for n in range(-8, 14)]
TRIADIC = [F(n, 27) for n in range(-27, 55)]


def _random_atom_with_deletions(rng):
    """An atom of a random kind, on the sixths or on a triadic grid, half
    each; every kind but a point atom carries 0-2 deleted points."""
    grid = TRIADIC if rng.random() < 0.5 else SIXTHS
    kind = rng.randrange(4)
    if kind == 0:
        return FinitePoints(rng.sample(grid, rng.randrange(1, 4)))
    if kind == 1:
        a = rng.choice(grid)
        b = rng.choice([F(1), F(-1), F(1, 2), F(-1, 3), F(2), F(1, 9)])
        if rng.random() < 0.5:
            atom = CountableSeq(HARMONIC, a, b)
        else:
            atom = CountableSeq(GEOMETRIC, a, b, rng.choice(
                [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(1, 9)]))
        return atom.with_deletions(
            map(atom.point, rng.sample(range(1, 7), rng.randrange(3))))
    if kind == 2:
        lo = rng.choice(grid)
        hi = lo + rng.choice([F(1, 27), F(1, 3), F(1, 2), F(1), F(2)])
        atom = Interval(*rng.choice([(lo, hi)] * 4 + [(None, hi), (lo, None)]))
        return atom.with_deletions([lo, hi] + rng.sample(grid, 6))
    atom = CantorAffine(rng.choice(grid), rng.choice(
        [F(1), F(1, 3), F(3), F(1, 9), F(-1, 3), F(1, 27), F(2, 9)]))
    ends = [0, F(1, 3), F(2, 3), 1, F(1, 4), F(2, 9), F(7, 9), F(3, 4)]
    return atom.with_deletions(atom.t + atom.s * e
                               for e in rng.sample(ends, rng.randrange(3)))


def _pair_outcome(fn, x, y):
    """The atoms fn returns as a multiset, None, or the refusal's class
    and text."""
    try:
        atoms = fn(x, y)
    except HausdorffError as exc:
        return (type(exc).__name__, str(exc))
    return None if atoms is None else collections.Counter(atoms)


def test_pair_layer_matches_the_per_rule_reference():
    # the union, the meet and the difference read one relation per pair;
    # each gives the atoms, or the refusal, that its own rules gave
    rng = random.Random(44)
    seen, unions = collections.Counter(), set()
    for _ in range(2500):
        x, y = _random_atom_with_deletions(rng), _random_atom_with_deletions(rng)
        for fn, ref in ((setalg._atom_meet, ref_pair_meet),
                        (setalg._atom_minus_atom, ref_pair_minus)):
            got = _pair_outcome(fn, x, y)
            assert got == _pair_outcome(ref, x, y), (fn.__name__, x, y)
            seen[fn.__name__, type(got).__name__] += 1
        for a, b in ((x, y), (y, x)):
            if _rank(a) == 0 or _rank(a) > _rank(b):
                continue
            got = _pair_outcome(_resolve_pair, a, b)
            assert got == _pair_outcome(ref_resolve_pair, a, b), (a, b)
            seen["_resolve_pair", type(got).__name__] += 1
            unions.add((type(a), type(b)))
    # every kind pair the union resolves is drawn, and every operation
    # both answers and refuses
    assert len(unions) == 6
    for name in ("_atom_meet", "_atom_minus_atom", "_resolve_pair"):
        assert seen[name, "Counter"] >= 200 and seen[name, "tuple"] >= 10, seen


H, G = HARMONIC, GEOMETRIC


@pytest.mark.parametrize("x, y, spelled, reversed_spelling", [
    # two sequences that meet finitely, at 1/2: x deletes it and is not
    # restored, so y keeps it
    (CountableSeq(H, 0, 1, deletions=[F(1, 2)]), CountableSeq(H, 1, -1),
     "{0 + 1/n} \\ {1/2} u {1 + -1/n}", "{1 + -1/n} u {0 + 1/n} \\ {1/2}"),
    # ... and where x holds it, it leaves y
    (CountableSeq(H, 0, 1), CountableSeq(H, 1, -1),
     "{0 + 1/n} u {1 + -1/n} \\ {1/2}", "{1 + -1/n} u {0 + 1/n} \\ {1/2}"),
    # {4^(1-n)} has its tail in {2^-n}, which keeps its deleted 1/16
    # restored; the head point 1 stays apart
    (CountableSeq(G, 0, 4, F(1, 4), deletions=[F(1, 4)]),
     CountableSeq(G, 0, 1, F(1, 2), deletions=[F(1, 16)]),
     "{0 + 1*(1/2)^n} u {1}", "{0 + 1*(1/2)^n} u {1}"),
    # a sequence over an interval, finitely: the interval keeps 1/2
    # restored, the sequence loses 1/3 and 1/2
    (CountableSeq(H, 0, 1), Interval(F(1, 3), F(2, 3), [F(1, 2)]),
     "{0 + 1/n} \\ {1/3, 1/2} u [1/3, 2/3]",
     "{0 + 1/n} \\ {1/3, 1/2} u [1/3, 2/3]"),
    # ... and by tail: the interval keeps 1/5 restored, the head stays
    (CountableSeq(H, 0, 1, deletions=[F(1, 4)]), Interval(0, F(1, 3), [F(1, 5)]),
     "[0, 1/3] u {1/2, 1}", "[0, 1/3] u {1/2, 1}"),
    # a sequence over a copy, through the gap 1/3 ends
    (CountableSeq(H, F(2, 3), F(-1, 3)), CantorAffine(0, 1, [F(1, 3)]),
     "(0 + 1*C) u {2/3 + -1/3/n} \\ {1/3}",
     "(0 + 1*C) u {2/3 + -1/3/n} \\ {1/3}"),
    # an interval against a copy: across a third, and at a touching end
    (Interval(0, F(1, 3), [F(1, 3)]), CantorAffine(0, 1),
     "[0, 1/3] u (2/3 + 1/3*C)", "[0, 1/3] u (2/3 + 1/3*C)"),
    (Interval(1, 2, [1]), CantorAffine(0, 1),
     "(0 + 1*C) \\ {1} u [1, 2]", "(0 + 1*C) \\ {1} u [1, 2]"),
    # two copies that resolve to None, and keep their spellings: their
    # hulls touch at 1, which the second deletes, or the second lies in a
    # gap of the first
    (CantorAffine(0, 1), CantorAffine(1, 1, [1]),
     "(0 + 1*C) u (1 + 1*C) \\ {1}", "(0 + 1*C) \\ {1} u (1 + 1*C)"),
    (CantorAffine(0, 1), CantorAffine(F(4, 9), F(1, 27)),
     "(0 + 1*C) u (4/9 + 1/27*C)", "(0 + 1*C) u (4/9 + 1/27*C)"),
])
def test_union_spellings_of_each_keeper(x, y, spelled, reversed_spelling):
    assert union(RepSet.of(x), RepSet.of(y)).render() == spelled
    assert union(RepSet.of(y), RepSet.of(x)).render() == reversed_spelling
    if isinstance(x, CantorAffine):
        assert _resolve_pair(x, y) is None


def _relations_counted(fn, pairs):
    """fn over the pairs, with the calls of _ca_partition and
    _seq_seq_commons each pair made, and the answers or refusals."""
    counts, outcomes = [], []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_ca_partition", "_seq_seq_commons"):
            def counting(*args, _inner=getattr(setalg, name)):
                counts[-1] += 1
                return _inner(*args)
            patch.setattr(setalg, name, counting)
        for x, y in pairs:
            counts.append(0)
            outcomes.append(_pair_outcome(fn, x, y))
    return counts, outcomes


# one overlapping pair per kind pair, in rank order, deletions included
_KIND_PAIRS = [
    (CountableSeq(H, 0, 1, deletions=[F(1, 3)]), CountableSeq(H, 1, -1)),
    (CountableSeq(G, 0, 1, F(1, 2)), CountableSeq(H, 0, 1, deletions=[F(1, 4)])),
    (CountableSeq(H, 0, 1), Interval(F(1, 3), F(2, 3), [F(1, 2)])),
    (CountableSeq(H, F(2, 3), F(-1, 3)), CantorAffine(0, 1, [F(1, 3)])),
    (Interval(0, 1, [F(1, 2)]), Interval(F(1, 2), 2)),
    (Interval(0, F(1, 3), [F(1, 3)]), CantorAffine(0, 1)),
    (CantorAffine(0, 1), CantorAffine(0, F(1, 3), [F(1, 3)])),
    (CantorAffine(0, 1, [1]), CantorAffine(1, 1)),
    (FinitePoints([F(1, 2), 2]), CountableSeq(H, 0, 1)),
]


def test_each_pair_operation_computes_its_relation_once():
    pairs = _KIND_PAIRS + [(y, x) for x, y in _KIND_PAIRS]
    for fn, ref, these in (
            (_resolve_pair, ref_resolve_pair, _KIND_PAIRS[:-1]),
            (setalg._atom_meet, ref_pair_meet, pairs),
            (setalg._atom_minus_atom, ref_pair_minus, pairs)):
        counts, got = _relations_counted(fn, these)
        ref_counts, want = _relations_counted(ref, these)
        assert got == want
        assert max(counts) <= 1 and sum(counts) <= sum(ref_counts), counts


def test_intersection_answers_random_atom_pairs():
    rng = random.Random(5150)
    done = 0
    for _ in range(300):
        xa, xb = _random_atom(rng), _random_atom(rng)
        a, b = RepSet.of(xa), RepSet.of(xb)
        try:
            i = intersect(a, b)
        except NotRepresentable:
            # only where both double differences refuse as well
            with pytest.raises(NotRepresentable):
                ref_intersect(a, b)
            continue
        done += 1
        assert intersect(b, a) == i
        for p in _sample_points([xa, xb], rng):
            assert i.member(p) == (a.member(p) and b.member(p)), (xa, xb, p)
        if done >= 50:
            break
    assert done >= 30


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(small_atoms(), min_size=1, max_size=3),
       st.lists(small_atoms(), min_size=1, max_size=3))
def test_intersection_via_differences_random(xs, ys):
    try:
        a, b = normalize(xs), normalize(ys)
    except NotRepresentable:
        return
    try:
        i = intersect(a, b)
    except NotRepresentable:
        # only where both double differences refuse as well
        with pytest.raises(NotRepresentable):
            ref_intersect(a, b)
        return
    assert intersect(b, a).render() == i.render()
    for p in _probes(xs + ys):
        assert i.member(p) == (a.member(p) and b.member(p)), p
    try:
        ref = ref_intersect(a, b)
    except NotRepresentable:
        return
    assert hmeasure(i) == hmeasure(ref)
    for p in _probes(xs + ys):
        assert ref.member(p) == i.member(p), p


def _respelled(x):
    """An atom equal to x that is not x itself."""
    return FinitePoints(x.points) if isinstance(x, FinitePoints) else replace(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_atoms())
def test_equal_atoms_meet_in_one_step(x):
    y = _respelled(x)
    assert y == x and y is not x
    for a, b in ((x, x), (x, y), (y, x)):
        assert normalize(setalg._atom_meet(a, b)) == RepSet.of(x)
        assert setalg._atom_minus_atom(a, b) == []
    # the kind-specific difference leaves nothing either
    assert ref_atom_minus_atom(x, y) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(small_atoms(), min_size=1, max_size=4))
def test_a_set_meets_itself_whole_and_less_itself_empty(xs):
    try:
        a = normalize(xs)
    except NotRepresentable:
        return
    b = normalize([_respelled(x) for x in reversed(a.atoms)])
    assert b == a
    for other in (a, b):
        assert diff(a, other) == EMPTY_SET
        assert intersect(a, other) == a
    # the double difference through the kind-specific sweeps agrees
    assert ref_intersect(a, b) == a


def test_intersect_answers_where_both_double_differences_refuse():
    a = RepSet.of(Interval(0, 1), CountableSeq(HARMONIC, 3, 1))
    b = RepSet.of(Interval(F(5, 2), F(7, 2)),
                  CountableSeq(HARMONIC, F(1, 2), F(1, 4)))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(NotRepresentable):
            ref_intersect(x, y)
        i = intersect(x, y)
        assert i.render() == "{1/2 + 1/4/n} u {3 + 1/n} \\ {4}"
        assert hmeasure(i) == HPair(DIM_ZERO, POS_INF)


@pytest.mark.parametrize("seq, common", [
    # 1/3, 1/2, 5/9, ...: 2/3 ends the gap (1/3, 2/3) on its left
    (CountableSeq(HARMONIC, F(2, 3), F(-1, 3)), [F(1, 3)]),
    # 1/2, 5/12, 3/8, ...: 1/3 ends the gap (1/3, 2/3) on its right
    (CountableSeq(GEOMETRIC, F(1, 3), F(1, 3), F(1, 2)), []),
])
def test_sequence_reaching_a_cantor_point_through_its_gap(seq, common):
    whole = CantorAffine(0, 1)
    c, s = RepSet.of(whole), RepSet.of(seq)
    meet = normalize([FinitePoints(common)])
    assert intersect(c, s) == intersect(s, c) == meet
    assert diff(c, s).atoms == (whole.with_deletions(common),)
    assert diff(s, c).atoms == (seq.with_deletions(common),)
    joined = RepSet((whole, seq.with_deletions(common)))
    assert union(c, s) == union(s, c) == joined
    # 0, 1/6, 2/9, ...: reaching 1/3 from the left, not through its gap
    with pytest.raises(NotRepresentable, match="accumulating inside a Cantor"):
        union(c, RepSet.of(CountableSeq(HARMONIC, F(1, 3), F(-1, 3))))


# -- the hull gate ----------------------------------------------------------

BIG, TINY, THIRD_800 = F(10) ** 400, F(1, 10 ** 400), F(1, 3 ** 800)
NEAR_TWO_THIRDS = F(2, 3) + F(1, 3 ** 40)  # the same float as 2/3

GATE_ATOMS = [
    # hulls touching at values with no exact binary form
    Interval(0, F(1, 3)), Interval(F(1, 3), 1), FinitePoints([F(1, 10)]),
    Interval(F(1, 10), F(1, 2)), Interval(-1, F(1, 10)),
    Interval(0, F(2, 3)), Interval(F(2, 3), NEAR_TWO_THIRDS),
    CantorAffine(NEAR_TWO_THIRDS, 1), FinitePoints([NEAR_TWO_THIRDS]),
    # float overflow
    Interval(BIG, BIG + 1), FinitePoints([BIG]), Interval(-BIG - 1, -BIG),
    FinitePoints([-BIG]), Interval(-BIG, 0), CantorAffine(BIG + 1, 1),
    # float underflow
    CantorAffine(0, THIRD_800), CantorAffine(F(1, 3), THIRD_800),
    FinitePoints([THIRD_800]), FinitePoints([2 * THIRD_800]),
    Interval(TINY, 1), Interval(-1, TINY), Interval(-TINY, 0),
    Interval(2 * TINY, 3 * TINY), CountableSeq(HARMONIC, TINY, TINY),
    CountableSeq(GEOMETRIC, -TINY, -BIG, F(1, 3)),
    # unbounded
    Interval(None, 0), Interval(0, None), Interval(None, -BIG),
    Interval(BIG, None), Interval(None, None), Interval(None, TINY),
]


def _float_bounds_enclose(atom):
    (lo, hi), (lo_f, hi_f) = atom.hull(), atom._hulls[1]
    below = lo_f == -math.inf or (lo is not None and F(lo_f) <= lo)
    above = hi_f == math.inf or (hi is not None and hi <= F(hi_f))
    return below and above


def test_hull_gate_agrees_with_exact_overlap():
    # the gate must never rule out a pair the exact test accepts, least of
    # all at touch points the float conversion rounds
    touching = 0
    for x, y in itertools.product(GATE_ATOMS, repeat=2):
        exact = _hull_overlap(x.hull(), y.hull())
        assert _hulls_meet(x, y) == exact, (x, y)
        touching += exact and (x.hull()[1] == y.hull()[0])
    assert touching >= 10
    for atom in GATE_ATOMS:
        assert _float_bounds_enclose(atom), atom


MIXED = st.builds(lambda n, d, e: F(n, d) * F(10) ** e,
                  st.integers(-30, 30), st.sampled_from([1, 3, 7, 10, 3 ** 40]),
                  st.sampled_from([-400, -320, -20, 0, 20, 300, 400]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(MIXED, min_size=1, max_size=3, unique=True), st.data())
def test_hull_gate_agrees_with_exact_overlap_random(pool, data):
    # endpoints drawn from a small pool, so hulls touch often
    ends = st.one_of(st.none(), st.sampled_from(pool))

    def atom():
        lo, hi = data.draw(ends), data.draw(ends)
        if lo is not None and hi is not None and lo >= hi:
            return FinitePoints([lo])
        return Interval(lo, hi)

    x, y = atom(), atom()
    assert _hulls_meet(x, y) == _hull_overlap(x.hull(), y.hull()), (x, y)
    assert _float_bounds_enclose(x) and _float_bounds_enclose(y)


def test_hull_computed_once_per_atom(monkeypatch):
    counts = {}
    for cls in (FinitePoints, CountableSeq, Interval, CantorAffine):
        def counting(self, _hull=cls._hull):
            # the entry keeps the atom alive, so its id is not reused
            counts.setdefault(id(self), [self, 0])[1] += 1
            return _hull(self)
        monkeypatch.setattr(cls, "_hull", counting)
    atoms = [Interval(0, 1), Interval(F(1, 2), 2), CantorAffine(3, 1),
             CantorAffine(3, F(1, 3)), CountableSeq(HARMONIC, 5, 1),
             FinitePoints([0, F(11, 2), 7, 3]), Interval(F(7, 2), 4),
             CountableSeq(GEOMETRIC, 10, 1, F(1, 2)), Interval(9, 10)]
    s = normalize(atoms)
    diff(s, RepSet.of(Interval(F(1, 2), F(7, 2)), FinitePoints([10])))
    assert len(counts) > len(atoms)
    assert max(n for _, n in counts.values()) == 1


def test_hull_cache_stays_out_of_equality():
    makers = (lambda: FinitePoints([1, F(1, 3)]),
              lambda: CountableSeq(GEOMETRIC, 0, 1, F(1, 2), [F(1, 4)]),
              lambda: Interval(None, F(1, 3), [0]),
              lambda: CantorAffine(F(1, 3), F(1, 9)))
    for make in makers:
        read, fresh = make(), make()
        assert _hulls_meet(read, read)
        if isinstance(read, FinitePoints):
            assert read.point_floats() == (1 / 3, 1.0)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) and {read} == {fresh}
        assert RepSet.of(read).render() == RepSet.of(fresh).render()
        if isinstance(read, FinitePoints):
            continue  # rebuilt by its own constructor, never replaced
        copy = replace(read)
        assert copy == read and "_hulls" not in vars(copy)
        assert copy.hull() == read.hull()


# -- the settled index ------------------------------------------------------
#
# normalize finds the settled atoms a pending atom can meet through
# setalg._SettledIndex. The scan it replaced is kept here as the reference:
# the index may skip only pairs that resolve to None, so the same pair wins
# at every step and every answer and every refusal comes out the same.


def _scan_hull_key(atom):
    """The exact sort key the scan used; setalg._hull_key leads with the
    float bounds and must give the same order."""
    lo, hi = atom.hull()
    lo_key = (0, lo) if lo is not None else (-1, F(0))
    hi_key = (0, hi) if hi is not None else (1, F(0))
    return (lo_key, hi_key, _rank(atom))


def _scan_resolve(x, y):
    """x u y for a point atom x, pairwise: two point atoms merge; against
    another atom, the points y claims are dropped or restored in it. None
    when y claims none."""
    if isinstance(y, FinitePoints):
        return [FinitePoints(x.points + y.points)]
    claimed = set()
    undelete = setalg._claim_points(x.points, y, claimed)
    if not claimed:
        return None
    keep = [p for k, p in enumerate(x.points) if k not in claimed]
    return [y.restore(undelete)] + setalg._point_atoms(keep)


def _normalize_by_scan(atoms):
    """normalize as it was before the settled index: each pending atom is
    tested against every settled atom, in settle order, and a point atom is
    resolved pairwise (_scan_resolve)."""
    work = [a for a in atoms if not a.is_empty()]
    if len(work) < 2:
        return RepSet(tuple(work))
    pending = [(_SETTLE_ORDER[type(a)], k, a) for k, a in enumerate(work)]
    heapq.heapify(pending)
    arrivals = itertools.count(len(work))
    settled = []
    for _ in range(_ITER_GUARD):
        if not pending:
            return RepSet(tuple(sorted(settled, key=_scan_hull_key)))
        x = heapq.heappop(pending)[2]
        points = isinstance(x, FinitePoints)
        for k, y in enumerate(settled):
            if not (setalg._hulls_meet(x, y)
                    or (points and isinstance(y, FinitePoints))):
                continue
            pair = (x, y) if _rank(x) < _rank(y) else (y, x)
            resolve = (_scan_resolve if isinstance(pair[0], FinitePoints)
                       else setalg._resolve_pair)
            replacement = resolve(*pair)
            if replacement is not None:
                del settled[k]
                for a in replacement:
                    if not a.is_empty():
                        heapq.heappush(pending, (_SETTLE_ORDER[type(a)],
                                                 next(arrivals), a))
                break
        else:
            settled.append(x)
    raise TooLarge("set normalization did not stabilize")


def _outcome(normalizer, atoms):
    try:
        return normalizer(atoms).render()
    except HausdorffError as exc:
        return (type(exc).__name__, str(exc))


def _moved(atom, offset, scale):
    """The atom under x -> offset + scale*x, scale > 0."""
    f = lambda x: None if x is None else offset + scale * x
    dels = [f(d) for d in atom.deletions]
    if isinstance(atom, FinitePoints):
        return FinitePoints(f(p) for p in atom.points)
    if isinstance(atom, Interval):
        return Interval(f(atom.lo), f(atom.hi), dels)
    if isinstance(atom, CountableSeq):
        return CountableSeq(atom.family, f(atom.a), scale * atom.b, atom.q,
                            dels)
    return CantorAffine(f(atom.t), scale * atom.s, dels)


@st.composite
def nested_hulls(draw):
    """A hull over atoms that sit in its holes: a sequence over intervals
    between its terms, or a Cantor copy over intervals in its gaps, some
    touching the copy at a gap end. The gap at 3^-40 puts an interval whose
    lower end has the same float as the copy's."""
    o = draw(SMALL)
    if draw(st.booleans()):
        seq = CountableSeq(HARMONIC, o, 1)
        pieces = [Interval(seq.point(n + 1) + F(1, 100 * n * n),
                           seq.point(n) - F(1, 100 * n * n))
                  for n in draw(st.lists(st.integers(1, 8), max_size=4,
                                         unique=True))]
        return [seq] + pieces
    s = draw(st.sampled_from([F(1), F(1, 3), F(3)]))
    gaps = [(F(1, 3), F(2, 3)), (F(1, 9), F(2, 9)), (F(7, 9), F(8, 9)),
            (F(1, 3 ** 40), F(2, 3 ** 40))]
    pieces = []
    for (a, b), touch in draw(st.lists(st.tuples(st.sampled_from(gaps),
                                                 st.booleans()), max_size=3)):
        inset = 0 if touch else (b - a) / 4
        pieces.append(Interval(o + s * (a + inset), o + s * (b - inset)))
    return [CantorAffine(o, s)] + pieces


SCATTERED = st.lists(st.integers(-12, 12), min_size=2, max_size=12,
                     unique=True).map(
    lambda cells: [FinitePoints(k + F(1, 2) for k in cells)])


@st.composite
def index_lists(draw):
    groups = draw(st.lists(st.one_of(small_atoms().map(lambda a: [a]),
                                     nested_hulls(), SCATTERED,
                                     st.just([Interval(None, None)])),
                           min_size=2, max_size=8))
    atoms = [a for g in groups for a in g]
    atoms = draw(st.permutations(atoms))
    offset = draw(st.sampled_from([0, 0, F(10) ** 400, -F(10) ** 400]))
    scale = draw(st.sampled_from([1, 1, F(1, 10 ** 400)]))
    return [_moved(a, offset, scale) for a in atoms]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_lists())
def test_normalize_matches_the_scan(atoms):
    # the same answer, or the same refusal, in either input order; the
    # float bounds saturate at 10^400 and underflow at 10^-400, so there
    # only the exact comparisons separate the hulls
    for order in (atoms, atoms[::-1]):
        assert _outcome(normalize, order) == _outcome(_normalize_by_scan,
                                                      order), order


def _cells_union(n_atoms):
    """About n_atoms atoms, three to a cell [4k, 4k + 3], as in the
    benchmark's large sets: two overlapping intervals and a covered point,
    a Cantor root with a sub-copy and one of its points, a sequence with
    one of its points and a stray point, or three point atoms. Most cells
    hold point atoms, so the merged point atom spans every cell."""
    atoms = []
    for k in range(1, n_atoms // 3 + 1):
        o = F(4 * k)
        kind = "ICISPICI"[k % 8]
        if kind == "I":
            atoms += [Interval(o, o + F(3, 4)), Interval(o + F(1, 2), o + F(5, 4)),
                      FinitePoints([o + F(5, 8)])]
        elif kind == "C":
            atoms += [CantorAffine(o + F(1, 4), 1), CantorAffine(o + F(1, 4), F(1, 3)),
                      FinitePoints([o + F(1, 2)])]
        elif kind == "S":
            atoms += [CountableSeq(HARMONIC, o + 1, 1), FinitePoints([o + F(3, 2)]),
                      FinitePoints([o + 3])]
        else:
            atoms += [FinitePoints([o + F(j, 8)]) for j in (1, 9, 17)]
    random.Random(n_atoms).shuffle(atoms)
    return atoms


def _sequence_over_pieces(n_atoms):
    """A harmonic sequence whose hull holds intervals between its terms,
    each with a point atom beside it in the same gap."""
    seq = CountableSeq(HARMONIC, 0, 1)
    atoms = [seq]
    for n in range(1, n_atoms // 2 + 1):
        lo, hi = seq.point(n + 1), seq.point(n)
        step = (hi - lo) / 8
        atoms += [Interval(lo + step, lo + 3 * step), FinitePoints([lo + 5 * step])]
    random.Random(n_atoms).shuffle(atoms)
    return atoms


def _counted(normalizer, atoms):
    """(the rendered result, how often it called _resolve_pair or the
    scan's _scan_resolve, and the exact hull test _hull_overlap)."""
    counts = {"resolve": 0, "exact": 0}
    with pytest.MonkeyPatch.context() as patch:
        for module, name, key in ((setalg, "_resolve_pair", "resolve"),
                                  (sys.modules[__name__], "_scan_resolve",
                                   "resolve"),
                                  (setalg, "_hull_overlap", "exact")):
            def counting(*args, _inner=getattr(module, name), _key=key):
                counts[_key] += 1
                return _inner(*args)
            patch.setattr(module, name, counting)
        return normalizer(atoms).render(), counts


@pytest.mark.parametrize("layout", [_cells_union, _sequence_over_pieces])
def test_normalize_work_is_linear_in_the_atoms(layout):
    # the merged point atom looks up each point, and a wide hull costs one
    # chain of the index, so the resolutions and exact hull checks per atom
    # stay bounded; the scan meets every settled atom under the merged
    # point atom's hull, so its counts grow about as n^2
    for n in (32, 64, 128):
        atoms = layout(n)
        got, work = _counted(normalize, atoms)
        want, scan = _counted(_normalize_by_scan, atoms)
        assert got == want
        assert work["resolve"] <= 3 * n and work["exact"] <= 4 * n, work
    assert scan["resolve"] > 3 * n and scan["exact"] > 4 * n, scan


@st.composite
def point_heavy_lists(draw):
    """Point atoms drawn from one pool of points that the other atoms hold
    or delete: sequence terms and heads, Cantor points and gap ends, points
    that two atoms both delete, and points c*2^-n, whose Fraction hashes
    collide (the hash modulus is 2^61 - 1, so 2^-1 and 2^-62 hash alike).
    Any two of the sequences share the term o + 1/2, and an interval
    across a Cantor gap touches the copy at both gap ends."""
    o = draw(SMALL)
    seqs = draw(st.lists(st.sampled_from([
        CountableSeq(HARMONIC, o, 1), CountableSeq(HARMONIC, o + 1, -1),
        CountableSeq(GEOMETRIC, o, 1, F(1, 2)),
        CountableSeq(GEOMETRIC, o + 1, -1, F(1, 2))]),
        min_size=1, max_size=2, unique=True))
    # the copy holds no limit: a limit inside it refuses every union
    cantor = draw(st.sampled_from([CantorAffine(o + F(1, 3), F(1, 3)),
                                   CantorAffine(o + F(1, 3), F(1, 9)),
                                   CantorAffine(o + 2, 1)]))
    terms = sorted({s.point(n) for s in seqs for n in range(1, 7)})
    cantor_points = [cantor.t + cantor.s * c for c in CANTOR_POINTS[:8]]
    dyadic = [o + F(c, 2 ** n) for n in (1, 2, 62, 63, 123) for c in (1, 3)]
    pool = sorted(set(terms + cantor_points + dyadic + [s.a for s in seqs]
                      + [o + F(1, 7), o + F(5, 2)]))
    shared = draw(st.lists(st.sampled_from(terms), max_size=2))
    atoms = [s.with_deletions(shared + draw(st.lists(st.sampled_from(terms),
                                                     max_size=2)))
             for s in seqs]
    if draw(st.booleans()):
        atoms.append(cantor.with_deletions(
            draw(st.lists(st.sampled_from(cantor_points), max_size=3))))
    if draw(st.booleans()):  # across the middle gap, touching both ends
        atoms.append(Interval(cantor.t + cantor.s / 3,
                              cantor.t + 2 * cantor.s / 3))
    for lo, hi in draw(st.lists(st.tuples(st.sampled_from(pool),
                                          st.sampled_from(pool)),
                                max_size=2)):
        if lo != hi:
            lo, hi = min(lo, hi), max(lo, hi)
            inside = [p for p in pool if lo <= p <= hi]
            atoms.append(Interval(lo, hi, draw(
                st.lists(st.sampled_from(inside), max_size=3))))
    if draw(st.booleans()):  # a term that an interval deletes as well
        p = draw(st.sampled_from(terms))
        atoms.append(Interval(p, p + 1, [p]))
    atoms += [FinitePoints(draw(st.lists(st.sampled_from(pool), min_size=1,
                                         max_size=5)))
              for _ in range(draw(st.integers(2, 8)))]
    atoms = draw(st.permutations(atoms))
    offset = draw(st.sampled_from([0, 0, F(10) ** 400, -F(10) ** 400]))
    return [_moved(a, offset, 1) for a in atoms]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_heavy_lists())
def test_point_atoms_settle_as_the_scan(atoms):
    # the input's point atoms are folded into one, which settles in one
    # pass; the scan resolves each point atom pairwise and puts back every
    # partner it resolves with. They refuse alike and give the same set.
    # Where a point is deleted by two atoms, or touches a Cantor copy at a
    # gap end, the atoms that hold it follow the order of work, in the scan
    # too, whose renders can differ between the two input orders
    for order in (atoms, atoms[::-1]):
        got = _outcome(normalize, order)
        want = _outcome(_normalize_by_scan, order)
        if got != want:
            assert isinstance(got, str) and isinstance(want, str), order
            got, want = normalize(order), _normalize_by_scan(order)
            assert diff(got, want).is_empty(), order
            assert diff(want, got).is_empty(), order


def test_where_the_order_of_work_shows():
    # 1/2 is a term of both sequences and deleted by both. The first point
    # atom resolves against the harmonic sequence, which the scan then
    # settles again after the geometric one, so the scan restores 1/2 in
    # the geometric sequence; the one pass restores it in the harmonic
    harmonic = CountableSeq(HARMONIC, 0, F(1, 2), deletions=[F(1, 2)])
    geometric = CountableSeq(GEOMETRIC, 1, -1, F(1, 2), deletions=[F(1, 2)])
    atoms = [harmonic, geometric, FinitePoints([F(1, 4)]),
             FinitePoints([F(1, 2)])]
    got, want = normalize(atoms), _normalize_by_scan(atoms)
    assert got.render() == "{0 + 1/2/n} u {1 + -1*(1/2)^n} \\ {1/2}"
    assert want.render() == "{0 + 1/2/n} \\ {1/2} u {1 + -1*(1/2)^n}"
    # an interval across a Cantor gap: the scan puts it back once per
    # point atom, and its second meeting with the copy splits the copy
    copy = CantorAffine(2, 1, [F(7, 3), F(8, 3)])
    gap = Interval(F(7, 3), F(8, 3))
    atoms = [CountableSeq(HARMONIC, 0, 1), copy, gap,
             FinitePoints([F(7, 3)]), FinitePoints([F(7, 3)])]
    got, want = normalize(atoms), _normalize_by_scan(atoms)
    assert got.atoms[1:] == (copy, gap)
    assert want.render().endswith("u (2 + 1/3*C) \\ {7/3} u [7/3, 8/3] "
                                  "u (8/3 + 1/3*C) \\ {8/3}")
    # with one point atom the scan keeps the copy whole as well
    assert _normalize_by_scan(atoms[1:4]).atoms == (copy, gap)


def test_each_open_point_is_claimed_once():
    pts = (F(0), F(1, 4), F(1, 2), F(3, 4), F(2))
    interval = Interval(F(1, 4), 1, [F(1, 2)])
    claimed = {1}  # 1/4, decided by an earlier partner
    # 1/2 is restored, 3/4 dropped; 0 and 2 lie outside the hull
    assert setalg._claim_points(pts, interval, claimed) == [F(1, 2)]
    assert claimed == {1, 2, 3}
    assert setalg._claim_points(pts, interval, claimed) == []


def test_point_atoms_are_built_a_bounded_number_of_times():
    # the input's point atoms fold into one and settle in one pass: two
    # FinitePoints per normalize however many cells there are, where
    # merging two at a time built one per merge
    for n in (32, 64, 128):
        atoms = _cells_union(n)
        built = 0
        init = FinitePoints.__init__

        def counting(self, points):
            nonlocal built
            built += 1
            init(self, points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FinitePoints, "__init__", counting)
            got = normalize(atoms).render()
        assert got == _normalize_by_scan(atoms).render()
        assert built <= 2, (n, built)


def test_cantor_overlap_matches_the_scan():
    # 2,049 atoms, most of them nested in the gaps of larger copies
    a = RepSet.of(CantorAffine(0, 1))
    b = RepSet.of(CantorAffine(F(2, 3 ** 12), 1))
    got = union(a, b)
    assert len(got.atoms) == 2049
    assert got.render() == _normalize_by_scan(a.atoms + b.atoms).render()


def test_settled_index_lookups():
    index = setalg._SettledIndex()
    assert index.meeting(Interval(0, 1)) == []
    wide = CountableSeq(HARMONIC, 0, 1)  # hull [0, 1]
    pieces = [Interval(F(1, n + 1) + F(1, 100), F(1, n) - F(1, 100))
              for n in (1, 2, 3)]
    for atom in [wide] + pieces + [Interval(-1, F(3, 4))]:
        index.add(atom)
    # the wide hull and [-1, 3/4] keep both orders in one chain; the
    # pieces, nested in the wide hull, share another
    assert sorted(len(numbers) for _, _, numbers in index.chains) == [2, 3]
    assert index.meeting(Interval(F(5, 8), F(7, 8))) == [0, 1, 4]
    assert index.meeting(Interval(2, 3)) == []
    assert index.meeting(Interval(4, None)) == []
    # a point atom asks for each point: -1/2 meets [-1, 3/4] alone
    assert index.holding(FinitePoints([F(-1, 2), F(2, 5)])) == [0, 2, 4]
    index.remove(2)
    index.remove(4)
    assert index.holding(FinitePoints([F(-1, 2), F(2, 5)])) == [0]
    assert list(index.atoms.values()) == [wide, pieces[0], pieces[2]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(index_lists(), point_heavy_lists()))
def test_normalize_resolves_no_point_atom_pairwise(atoms):
    # points settle last, in one pass, and no atom pending after them can
    # hold or delete a settled point: _resolve_pair only sees non-points
    handed = []

    def watching(x, y, _inner=setalg._resolve_pair):
        handed.extend(a for a in (x, y) if isinstance(a, FinitePoints))
        return _inner(x, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setalg, "_resolve_pair", watching)
        for order in (atoms, atoms[::-1]):
            _outcome(normalize, order)
    assert not handed, atoms


# -- the Cantor splits ------------------------------------------------------
#
# setalg._ca_partition sweeps an explicit stack and reads depth_cap itself;
# its base is an interval, which never splits, or another Cantor copy. The
# two recursions it replaced, the cut by an interval and the partition by a
# copy, are kept here as the reference: the sweep must emit the same pieces
# in the same order (normalize settles pending atoms in arrival order) and
# raise the same errors.


def _split_by_recursion(ca, lo, hi, budget):
    hlo, hhi = ca.hull()
    ilo = hlo if lo is None else max(hlo, lo)
    ihi = hhi if hi is None else min(hhi, hi)
    if ilo > ihi:
        return [], [ca]
    if ilo == hlo and ihi == hhi:
        return [ca], []
    if ilo == ihi:
        p = ilo
        if not ca.in_base(p):
            return [], [ca]
        covered = [] if p in ca.deletions else [FinitePoints([p])]
        return covered, [ca.with_deletions([p])]
    if budget <= 0:
        raise NotRepresentable(
            "interval cuts through a Cantor copy; the pieces are not catalog sets")
    left, right = ca.children()
    c1, k1 = _split_by_recursion(left, lo, hi, budget - 1)
    c2, k2 = _split_by_recursion(right, lo, hi, budget - 1)
    return c1 + c2, k1 + k2


def _partition_by_recursion(base, target, budget):
    if not _hulls_meet(base, target):
        return [], [target]
    if (base.t, base.s) == (target.t, target.s):
        return [target], []
    hb, ht = base.hull(), target.hull()
    touch = None
    if hb[1] == ht[0]:
        touch = hb[1]
    elif ht[1] == hb[0]:
        touch = ht[1]
    if touch is not None:
        if base.in_base(touch) and target.in_base(touch):
            common = [] if touch in target.deletions else [FinitePoints([touch])]
            return common, [target.with_deletions([touch])]
        return [], [target]
    if budget <= 0:
        raise NotRepresentable(
            "overlapping distinct Cantor copies are not jointly representable")
    if target.s <= base.s:
        left, right = base.children()
        commons, rest = _partition_by_recursion(left, target, budget - 1)
        out_rest = []
        for piece in rest:
            if isinstance(piece, CantorAffine):
                c2, r2 = _partition_by_recursion(right, piece, budget - 1)
                commons += c2
                out_rest += r2
            else:
                inside = [p for p in piece.points if right.in_base(p)]
                outside = [p for p in piece.points if not right.in_base(p)]
                if inside:
                    commons.append(FinitePoints(inside))
                if outside:
                    out_rest.append(FinitePoints(outside))
        return commons, out_rest
    tl, tr = target.children()
    c1, r1 = _partition_by_recursion(base, tl, budget - 1)
    c2, r2 = _partition_by_recursion(base, tr, budget - 1)
    return c1 + c2, r1 + r2


def _pieces_or_error(split, *args):
    try:
        return [[setalg._render_atom(a) for a in part] for part in split(*args)]
    except HausdorffError as exc:
        return type(exc), str(exc)


CANTOR_POINTS = [F(0), F(1), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 9),
                 F(8, 9), F(1, 10), F(1, 12)]


@st.composite
def cantor_copies(draw, unit=CantorAffine(0, 1)):
    """A copy placed against unit, often so that it overlaps unit."""
    if draw(st.booleans()):  # on the ternary grid: t = m/3^k, s = 3^-j (x2)
        k = draw(st.integers(0, 4))
        t = F(draw(st.integers(-3 ** k, 2 * 3 ** k)), 3 ** k)
        s = F(draw(st.sampled_from([1, 2])), 3 ** draw(st.integers(0, 3)))
    else:
        t = F(draw(st.integers(-4, 8)), draw(st.sampled_from([1, 2, 4, 5, 7])))
        s = F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 4, 5])))
    ca = CantorAffine(unit.t + unit.s * t, unit.s * s)
    dels = draw(st.lists(st.sampled_from(CANTOR_POINTS), max_size=3))
    return ca.with_deletions(ca.t + ca.s * d for d in dels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cantor_copies().flatmap(
           lambda x: st.tuples(st.just(x), cantor_copies(x))),
       st.sampled_from([8, 40]), st.one_of(st.none(), st.integers(-9, 27)),
       st.one_of(st.none(), st.integers(0, 27)))
def test_cantor_splits_match_the_recursion(pair, cap, start, width):
    x, y = pair
    # the cut [lo, hi] runs on x's grid of 27ths, so it often meets an end
    # or a gap; None is an open end. An interval has lo < hi, so a cut of
    # width 0 is no interval and is not drawn into a split
    lo = None if start is None else x.t + x.s * F(start, 27)
    hi = None if width is None else x.t + x.s * F((start or 0) + width, 27)
    previous = update_config(depth_cap=cap)
    try:
        if lo is None or hi is None or lo < hi:
            assert (_pieces_or_error(setalg._ca_partition, Interval(lo, hi), x)
                    == _pieces_or_error(_split_by_recursion, x, lo, hi, cap))
        for base, target in ((x, y), (y, x)):
            assert (_pieces_or_error(setalg._ca_partition, base, target)
                    == _pieces_or_error(_partition_by_recursion, base, target,
                                        cap))
    finally:
        set_config(previous)


def test_cantor_partition_budget_edge():
    # C against C + m/3^k around the depth at which the split gives up:
    # each branch of the sweep must spend exactly the recursion's splits
    c = CantorAffine(0, 1)
    for cap in (8, 9, 10):
        previous = update_config(depth_cap=cap)
        try:
            for k, m in itertools.product(range(1, 7), (1, 2, 4, 5, 7)):
                shifted = CantorAffine(F(m, 3 ** k), 1)
                for base, target in ((c, shifted), (shifted, c)):
                    assert (_pieces_or_error(setalg._ca_partition, base, target)
                            == _pieces_or_error(_partition_by_recursion, base,
                                                target, cap)), (cap, k, m)
        finally:
            set_config(previous)


def test_cantor_overlap_still_settles():
    # C u (C + 2/3^k) has 2^(k-1) + 1 atoms
    got = union(RepSet.of(CantorAffine(0, 1)),
                RepSet.of(CantorAffine(F(2, 3 ** 10), 1)))
    assert len(got.atoms) == 513
    assert hmeasure(got) == HPair(DIM_CANTOR, ExtReal.of(F(3, 2)))


def test_cantor_overlap_work_is_bounded():
    # past k = 13 the partition takes more than _ITER_GUARD pieces; it
    # refuses in about a second, not after a minute. Past k = 20 it needs
    # more than depth_cap splits
    c = RepSet.of(CantorAffine(0, 1))
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        union(c, RepSet.of(CantorAffine(F(2, 3 ** 20), 1)))
    assert time.perf_counter() - start < 5
    with pytest.raises(NotRepresentable):
        union(c, RepSet.of(CantorAffine(F(2, 3 ** 21), 1)))


# -- the sweep behind every pairwise disjointness test ------------------------


def ref_meeting_pairs(spans):
    """The all-pairs filter the sweep replaces."""
    return [(i, j) for i, j in itertools.combinations(range(len(spans)), 2)
            if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]


def test_meeting_pairs_matches_the_all_pairs_filter():
    # few distinct ends, so lower ends tie and spans touch end to end;
    # the ends include the infinities, and Fractions as well as floats
    rng = random.Random(1976)
    ends = [-math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, math.inf]
    checked = 0
    for trial in range(3000):
        n = rng.choice([0, 1, 2, 3, 4, 6, 9, 14, 25])
        spans = [tuple(sorted(rng.sample(ends, 2) if rng.random() < 0.8
                              else [rng.choice(ends)] * 2))
                 for _ in range(n)]
        if trial % 3 == 0:
            spans = [(F(lo) if math.isfinite(lo) else lo,
                      F(hi) if math.isfinite(hi) else hi)
                     for lo, hi in spans]
        want = ref_meeting_pairs(spans)
        assert meeting_pairs(spans) == want, spans
        checked += len(want)
    assert checked > 30000
