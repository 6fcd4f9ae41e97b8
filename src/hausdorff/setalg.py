"""Representable subsets of the real line and their Hausdorff measures.

A set is a finite disjoint union of atoms: finite point sets, convergent
rational sequences from a two-family catalog, closed intervals, and affine
copies of the middle-thirds Cantor set. Every atom may carry finitely many
deleted points. Unions, differences and symmetric differences stay inside
the fragment or fail loudly with NotRepresentable; nothing is silently
approximated.

Dimension-measure bookkeeping per atom: a finite point set has pair
(0, cardinality), a catalog sequence (0, +inf), an interval (1, length),
and the copy t + s*C the pair (log(2)/log(3), |s|**(log(2)/log(3))).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import sys
from typing import Iterable, Optional

from ._numeric import (_ITER_GUARD, Fraction, Rational, _frac, coprime_base,
                       geo_steps, pow_interval, power_base, power_index)
from ._value import frozen, replace
from .config import get_config
from .errors import NotRepresentable, TooLarge, ValidationError
from .hvalue import (DIM_CANTOR, DIM_ONE, DIM_ZERO, POS_INF, Dimension,
                     ExtReal, HPair, hpair_add, top_sum, top_terms)

Endpoint = Optional[Fraction]  # None encodes a missing (infinite) endpoint


# ---------------------------------------------------------------------------
# atoms


class Atom:
    """Base class; concrete atoms are frozen value classes that provide
    in_base(x) (membership ignoring deletions), _hull(), dim() and mu()
    (the Hausdorff measure of the atom in its own dimension). Fields are
    written into __dict__, which is cheaper than object.__setattr__."""

    deletions: frozenset
    # ((lo, hi), (lo_f, hi_f)) once hull() has run: the closed hull and an
    # outward-rounded float copy of it. A plain attribute, not a field, so
    # it stays out of ==, hash, repr and replace.
    _hulls = None

    def member(self, x: Rational) -> bool:
        x = _frac(x)
        return x not in self.deletions and self.in_base(x)

    def hull(self) -> tuple[Endpoint, Endpoint]:
        """A closed interval containing the atom, computed once per atom."""
        return (self._hulls or self._cache_hulls())[0]

    def float_hull(self) -> tuple[float, float]:
        """hull() rounded outward to floats, computed once per atom."""
        return (self._hulls or self._cache_hulls())[1]

    def _cache_hulls(self):
        lo, hi = hull = self._hull()
        hulls = (hull, (_float_past(lo, -math.inf), _float_past(hi, math.inf)))
        self.__dict__["_hulls"] = hulls
        return hulls

    def with_deletions(self, extra: Iterable[Fraction]) -> "Atom":
        """The atom less the points of extra in its base set; the atom
        itself when that deletes nothing new."""
        dels = self.deletions | {d for d in map(_frac, extra) if self.in_base(d)}
        return self if dels == self.deletions else replace(self, deletions=dels)

    def restore(self, points: Iterable[Fraction]) -> "Atom":
        """The atom with the given deleted points put back."""
        dels = self.deletions.difference(points)
        return self if dels == self.deletions else replace(self, deletions=dels)

    def _set_deletions(self, deletions, outside: str):
        """Check and store the deleted points; none keeps the field default."""
        if not deletions:
            return
        dels = frozenset(map(_frac, deletions))
        for d in dels:
            if not self.in_base(d):
                raise ValidationError(f"deleted point {d} {outside}")
        self.__dict__["deletions"] = dels

    def is_empty(self) -> bool:
        return False


@frozen
class FinitePoints(Atom):
    points: tuple[Fraction, ...]
    deletions: frozenset = frozenset()  # always empty, kept for the interface
    _floats = None  # point_floats(), once it has run; not a field

    def __init__(self, points: Iterable[Rational]):
        pts = sorted(map(_frac, points))  # dedup by neighbours: no hashing
        pts[1:] = [q for p, q in zip(pts, pts[1:]) if p != q]
        self.__dict__["points"] = tuple(pts)

    def in_base(self, x):
        return x in self.points

    def point_floats(self) -> tuple:
        """float(p) for each point p, in order; computed once per atom,
        with the float hull from the same conversions. Rounding to nearest
        is monotone, so a point in a closed hull has its float within the
        hull's outward float bounds."""
        if self._floats is None:
            floats = []
            for p in self.points:
                try:
                    floats.append(float(p))
                except OverflowError:  # past the float range
                    floats.append(math.inf if p > 0 else -math.inf)
            self.__dict__["_floats"] = tuple(floats)
            if self._hulls is None and floats:
                self.__dict__["_hulls"] = (
                    (self.points[0], self.points[-1]),
                    (math.nextafter(floats[0], -math.inf),
                     math.nextafter(floats[-1], math.inf)))
        return self._floats

    def _hull(self):
        if not self.points:
            return (Fraction(0), Fraction(0))
        return (self.points[0], self.points[-1])

    def dim(self):
        return DIM_ZERO

    def mu(self):
        return ExtReal.of(len(self.points))

    def is_empty(self):
        return not self.points


HARMONIC = "harmonic"
GEOMETRIC = "geometric"


@frozen
class CountableSeq(Atom):
    """Catalog sequence: harmonic a + b/n or geometric a + b*q**n, n >= 1.

    Both accumulate at a, which is not itself a member. b is nonzero and
    the geometric ratio satisfies 0 < q < 1, so the terms are strictly
    monotone in distance from a and all lie on one side of it.
    """

    family: str
    a: Fraction
    b: Fraction
    q: Optional[Fraction] = None
    deletions: frozenset = frozenset()

    def __init__(self, family, a, b, q=None, deletions=()):
        a, b = _frac(a), _frac(b)
        if family not in (HARMONIC, GEOMETRIC):
            raise ValidationError(f"unknown sequence family {family!r}")
        if b == 0:
            raise ValidationError("sequence coefficient b must be nonzero")
        if family == GEOMETRIC:
            q = _frac(q)
            if not 0 < q < 1:
                raise ValidationError("geometric ratio must satisfy 0 < q < 1")
        elif q is not None:
            raise ValidationError("harmonic sequences take no ratio")
        fields = self.__dict__
        fields["family"], fields["a"] = family, a
        fields["b"], fields["q"] = b, q
        self._set_deletions(deletions, "is not in the sequence")

    def point(self, n: int) -> Fraction:
        if n < 1:
            raise ValidationError("sequence indices start at 1")
        if self.family == HARMONIC:
            return self.a + self.b / n
        return self.a + self.b * self.q ** n

    def index_of(self, x: Rational) -> Optional[int]:
        """The n with point(n) == x, or None."""
        x = _frac(x)
        t = x - self.a
        if t == 0 or (t > 0) != (self.b > 0):
            return None
        if self.family == HARMONIC:
            n = self.b / t
            return int(n) if n.denominator == 1 and n >= 1 else None
        n = power_index(t / self.b, self.q)  # t/b must equal q**n, n >= 1
        return n if n is not None and n >= 1 else None

    @property
    def base_key(self) -> tuple:
        """The parameters (family, a, b, q): two sequences have the same
        base set exactly when their keys are equal."""
        return (self.family, self.a, self.b, self.q)

    def in_base(self, x):
        return self.index_of(x) is not None

    def _hull(self):
        first = self.point(1)
        return (self.a, first) if self.b > 0 else (first, self.a)

    def dim(self):
        return DIM_ZERO

    def mu(self):
        return POS_INF

    def indices_within(self, lo: Endpoint, hi: Endpoint):
        """Indices n with point(n) in the closed range [lo, hi].

        Returns ("finite", tuple of indices) or ("tail", first index) when
        every later index qualifies as well.
        """
        if self.b > 0:
            return self._indices_pos(lo, hi)
        mirror = CountableSeq(self.family, -self.a, -self.b, self.q)
        neg = lambda e: None if e is None else -e
        return mirror._indices_pos(neg(hi), neg(lo))

    def _indices_pos(self, lo, hi):
        # offsets t_n = point(n) - a are positive and strictly decreasing
        upper = None if hi is None else hi - self.a
        lower = None if lo is None else lo - self.a
        if upper is None:
            n_min = 1
        elif upper <= 0:
            return ("finite", ())
        else:
            n_min = self._first_index_below(upper)
        if lower is None or lower <= 0:
            n_max = None
        else:
            n_max = self._last_index_above(lower)
            if n_max is None or n_max < n_min:
                return ("finite", ())
        if n_max is None:
            return ("tail", n_min)
        return ("finite", tuple(_term_range(n_min, n_max + 1)))

    def _first_index_below(self, bound: Fraction) -> int:
        """The least n with point(n) - a <= bound."""
        if self.family == HARMONIC:
            return max(1, math.ceil(self.b / bound))
        return max(1, geo_steps(self.q, bound / self.b, strict=False))

    def _last_index_above(self, bound: Fraction):
        """The largest n with point(n) - a >= bound, or None."""
        if self.family == HARMONIC:
            n = math.floor(self.b / bound)
        else:
            # one below the first index that fails the bound
            n = geo_steps(self.q, bound / self.b) - 1
        return n if n >= 1 else None


def _term_range(start: int, stop: int) -> range:
    """range(start, stop) of sequence indices; TooLarge past _ITER_GUARD
    terms."""
    if stop - start > _ITER_GUARD:
        raise TooLarge(f"more than {_ITER_GUARD} sequence terms to list")
    return range(start, stop)


@frozen
class Interval(Atom):
    """Closed interval [lo, hi]; a missing endpoint means unbounded."""

    lo: Endpoint
    hi: Endpoint
    deletions: frozenset = frozenset()

    def __init__(self, lo, hi, deletions=()):
        lo = None if lo is None else _frac(lo)
        hi = None if hi is None else _frac(hi)
        if lo is not None and hi is not None and lo >= hi:
            raise ValidationError(f"interval endpoints out of order: [{lo}, {hi}]")
        fields = self.__dict__
        fields["lo"], fields["hi"] = lo, hi
        self._set_deletions(deletions, "is outside the interval")

    def in_base(self, x):
        return ((self.lo is None or x >= self.lo)
                and (self.hi is None or x <= self.hi))

    def _hull(self):
        return (self.lo, self.hi)

    def dim(self):
        return DIM_ONE

    def mu(self):
        if self.lo is None or self.hi is None:
            return POS_INF
        return ExtReal.of(self.hi - self.lo)

    def is_bounded(self):
        return self.lo is not None and self.hi is not None


@frozen
class CantorAffine(Atom):
    """The set t + s*C for the middle-thirds Cantor set C.

    Normalised to s > 0: C is symmetric (1 - C = C), so a copy with a
    negative scale equals the copy anchored at its other endpoint.
    """

    t: Fraction
    s: Fraction
    deletions: frozenset = frozenset()

    def __init__(self, t, s, deletions=()):
        t, s = _frac(t), _frac(s)
        if s == 0:
            raise ValidationError("Cantor scale must be nonzero")
        if s < 0:
            t, s = t + s, -s
        fields = self.__dict__
        fields["t"], fields["s"] = t, s
        self._set_deletions(deletions, "is not in the set")

    def in_base(self, x):
        return in_cantor((x - self.t) / self.s)

    def _hull(self):
        return (self.t, self.t + self.s)

    def dim(self):
        return DIM_CANTOR

    def mu(self):
        return cantor_scale_measure(self.s)

    def children(self) -> tuple["CantorAffine", "CantorAffine"]:
        """The two sub-copies at one third of the scale."""
        third = self.s / 3
        lows, highs = [], []
        for d in self.deletions:
            (lows if d <= self.t + third else highs).append(d)
        return (CantorAffine(self.t, third, lows),
                CantorAffine(self.t + 2 * third, third, highs))


def _ternary_walk(y: Fraction) -> Optional[int]:
    """None for y in [0, 1] in the middle-thirds Cantor set, else the depth
    k at which y enters a removed third.

    Uses the self-similarity C = C/3 u (2/3 + C/3): repeatedly map into
    the left or right third. A rational orbit either falls into the open
    middle gap (not a member) or revisits a state (member). For y = n/q
    every orbit point is some n'/q, so the walk keeps integers n' only.
    """
    n, q = y.numerator, y.denominator
    seen = set()
    while n not in seen:
        if q < 3 * n < 2 * q:
            return len(seen)
        seen.add(n)
        n = 3 * n if 3 * n <= q else 3 * n - 2 * q
        if len(seen) > _ITER_GUARD:
            raise TooLarge("ternary expansion exceeded the iteration guard")
    return None


def in_cantor(y: Rational) -> bool:
    """Exact membership of a rational in the middle-thirds Cantor set."""
    y = _frac(y)
    return 0 <= y <= 1 and _ternary_walk(y) is None


def cantor_gap(y: Rational) -> tuple[Fraction, Fraction]:
    """For a rational y in [0,1] outside the Cantor set, an open interval
    around y containing no Cantor point: the removed third it enters at
    depth k, ((3P+1)/3^(k+1), (3P+2)/3^(k+1)) with P = floor(3^k y)."""
    y = _frac(y)
    if y < 0 or y > 1:
        raise ValidationError("point not inside the unit interval")
    k = _ternary_walk(y)
    if k is None:
        raise ValidationError("point is in the Cantor set, no gap exists")
    p, scale = math.floor(y * 3 ** k), 3 ** (k + 1)
    return Fraction(3 * p + 1, scale), Fraction(3 * p + 2, scale)


def cantor_scale_measure(s: Rational) -> ExtReal:
    """|s| ** (log 2 / log 3); exact whenever |s| is a power of 3."""
    s = abs(_frac(s))
    if s == 0:
        return ExtReal.of(0)
    # peel powers of 3: (3**k * u) ** d == 2**k * u**d for d = log2/log3
    k, num, den = 0, s.numerator, s.denominator
    while num % 3 == 0:
        num //= 3
        k += 1
    while den % 3 == 0:
        den //= 3
        k -= 1
    u = Fraction(num, den)
    factor = Fraction(2) ** k
    if u == 1:
        return ExtReal.of(factor)
    prec = get_config().precision_bits
    enc = pow_interval(u, DIM_CANTOR.enclosure(prec), prec)
    return ExtReal.interval(enc * factor)


# ---------------------------------------------------------------------------
# hull utilities


def _float_past(x: Endpoint, toward: float) -> float:
    """A float on the side of x that toward (-inf or +inf) names. float()
    rounds to nearest, so one more step toward that side is always safe.
    A missing endpoint, or an x beyond the float range on that side, maps
    to toward; an x beyond it on the other side to the largest float of
    its sign."""
    if x is None:
        return toward
    try:  # float(x), the quotient of its terms, without the dunder dispatch
        return math.nextafter(x._numerator / x._denominator, toward)
    except OverflowError:
        if (x > 0) == (toward > 0):
            return toward
        return sys.float_info.max if x > 0 else -sys.float_info.max


def _hull_overlap(h1, h2) -> bool:
    (a1, b1), (a2, b2) = h1, h2
    left_ok = a2 is None or b1 is None or a2 <= b1
    right_ok = a1 is None or b2 is None or a1 <= b2
    return left_ok and right_ok


def _hulls_meet(x: Atom, y: Atom) -> bool:
    """Whether the closed hulls of x and y meet. The float bounds enclose
    the hulls, so disjoint float bounds prove the hulls disjoint; only the
    pairs they cannot separate are compared exactly."""
    hx, (xlo, xhi) = x._hulls or x._cache_hulls()
    hy, (ylo, yhi) = y._hulls or y._cache_hulls()
    if xhi < ylo or yhi < xlo:
        return False
    return _hull_overlap(hx, hy)


def meeting_pairs(spans) -> list:
    """The index pairs (i, j), i < j, whose closed spans (lo, hi) meet,
    sorted: those of the all-pairs test lo_i <= hi_j and lo_j <= hi_i, for
    spans with lo <= hi (floats, infinities included, or Fractions).

    A sweep in the manner of Shamos and Hoey: the spans are taken by lower
    end, and each meets exactly the active spans that have not ended
    before it starts."""
    pairs, active, top = [], [], -math.inf  # top: the highest end so far
    los = [lo for lo, _ in spans]
    for k in sorted(range(len(spans)), key=los.__getitem__):
        lo, hi = spans[k]
        if lo > top:  # every active span has ended
            active = []
        else:
            active = [j for j in active if lo <= spans[j][1]]
            pairs += [(j, k) if j < k else (k, j) for j in active]
        active.append(k)
        if hi > top:
            top = hi
    pairs.sort()
    return pairs


def _hull_key(atom: "Atom"):
    """Sort key: the hull's lower end, then its upper end, then the rank.
    Each end leads with its float bound, which is monotone in the end, so
    the exact ends are compared only when the floats tie."""
    (lo, hi), (lo_f, hi_f) = atom._hulls or atom._cache_hulls()
    lo_key = (0, lo) if lo is not None else (-1, Fraction(0))
    hi_key = (0, hi) if hi is not None else (1, Fraction(0))
    return (lo_f, lo_key, hi_f, hi_key, _rank(atom))


# ---------------------------------------------------------------------------
# representable sets


@frozen
class RepSet:
    """Canonical finite disjoint union of atoms."""

    atoms: tuple

    def __init__(self, atoms: tuple):
        self.__dict__["atoms"] = atoms  # set algebra builds many

    @staticmethod
    def of(*atoms: Atom) -> "RepSet":
        return normalize(atoms)

    def is_empty(self) -> bool:
        return not self.atoms

    def member(self, x: Rational) -> bool:
        x = _frac(x)
        return any(a.member(x) for a in self.atoms)

    def dim(self) -> Dimension:
        top, _ = top_terms(self.atoms, lambda a: a.dim())
        return DIM_ZERO if top is None else top

    def render(self) -> str:
        return " u ".join(_render_atom(a) for a in self.atoms) or "{}"


EMPTY_SET = RepSet(())


def _render_atom(a: Atom) -> str:
    dels = ""
    if a.deletions:
        dels = " \\ {" + ", ".join(str(d) for d in sorted(a.deletions)) + "}"
    if isinstance(a, FinitePoints):
        return "{" + ", ".join(str(p) for p in a.points) + "}"
    if isinstance(a, CountableSeq):
        if a.family == HARMONIC:
            return f"{{{a.a} + {a.b}/n}}{dels}"
        return f"{{{a.a} + {a.b}*({a.q})^n}}{dels}"
    if isinstance(a, Interval):
        lo = "-oo" if a.lo is None else str(a.lo)
        hi = "+oo" if a.hi is None else str(a.hi)
        return f"[{lo}, {hi}]{dels}"
    return f"({a.t} + {a.s}*C){dels}"


# ---------------------------------------------------------------------------
# normalization: a worklist of pending atoms settled one at a time
#
# Invariant: the settled atoms are pairwise disjoint, and no point of the
# settled point atom lies in the base set of another settled atom. The
# point atoms of the input are folded into one before the work starts.
# Intervals settle first, then Cantor copies, sequences and points: an
# interval that covers a limit or cuts a Cantor copy turns a pair that is
# not representable on its own into one that is.
#
# A pending non-point atom is resolved against the settled non-point atoms
# whose closed hull meets its own, in the order they settled. The first
# pair that _resolve_pair does not return None for wins: the settled
# partner is withdrawn and the replacement atoms go back to pending.
# Two intervals merge. Any other pair keeps one atom, the keeper, with its
# deleted points that the other holds restored, and replaces the other by
# its difference with the restored keeper: the interval or copy over a
# sequence, the sequence that holds another's tail, and otherwise the
# partner ranked first (the settled one on a tie). Two sequences that meet
# finitely keep their common points in that first one, unrestored. The
# difference is read from the relation the union computed (_relation).
#
# A pending point atom settles in one pass (_settle_points): each settled
# atom whose hull can hold one of its points, in settle order, claims the
# undecided points it holds (dropped) or deletes (restored in it, and the
# partner goes back to pending); the rest merge with the settled point
# atom. Pairwise resolution claims the same points, so the set is the same,
# but which of two atoms holds a point both could hold, and the order of
# two atoms with one hull, may differ, as between two orders of one input.
#
# Points settle last, so a point atom pops only when no non-point atom is
# pending. Every non-point atom pushed after that is a restored partner or
# made by resolving such partners, within base sets that hold none of the
# settled points, so no pending non-point atom can hold or delete one: the
# settled point atom stays beside the index, in normalize.
#
# The settled non-point atoms live in a _SettledIndex that hands out only
# the partners whose hulls can meet, sorted by settle order. It skips only
# pairs for which _resolve_pair would return None, so the pair that wins,
# and every answer and refusal, are those of a scan over every settled
# atom. It is keyed on the hulls rounded outward to floats, computed once
# per atom: disjoint float bounds prove the hulls disjoint, and every
# partner it hands out still passes the exact test in _resolve_pair. A
# point atom asks once per point (holding) rather than once for its hull.

_SETTLE_ORDER = {Interval: 0, CantorAffine: 1, CountableSeq: 2, FinitePoints: 3}
_RANK = {FinitePoints: 0, CountableSeq: 1, Interval: 2, CantorAffine: 3}


def _rank(atom: Atom) -> int:
    return _RANK[type(atom)]


class _SettledIndex:
    """The settled non-point atoms of one normalization, by float hull.

    Each settled atom has a settle number; atoms maps the numbers to the
    atoms in settle order. The atoms also sit in chains: three parallel
    lists (lower float bounds, upper float bounds, numbers) sorted by both
    bounds at once, so no hull in a chain contains another and the hulls
    meeting [lo, hi] form one slice, found by two bisections. An atom joins
    the first chain where it keeps both orders or opens a new one, so a
    hull that nests others (an unbounded interval, a sequence over interval
    pieces, a Cantor copy over its gaps) costs one more chain to bisect,
    not a scan of the others.
    """

    __slots__ = ("atoms", "chain_of", "chains", "settled")

    def __init__(self):
        self.atoms = {}  # settle number -> atom, in settle order
        self.chain_of = {}  # settle number -> chain
        self.chains = []
        self.settled = 0  # settle numbers handed out

    def add(self, x: Atom):
        number = self.settled
        self.settled = number + 1
        self.atoms[number] = x
        lo, hi = (x._hulls or x._cache_hulls())[1]
        k = 0
        for los, his, numbers in self.chains:
            i = bisect.bisect_right(los, lo)
            if (i == 0 or his[i - 1] <= hi) and (i == len(his) or hi <= his[i]):
                break
            k += 1
        else:
            i, los, his, numbers = 0, [], [], []
            self.chains.append((los, his, numbers))
        los.insert(i, lo)
        his.insert(i, hi)
        numbers.insert(i, number)
        self.chain_of[number] = k

    def remove(self, number: int):
        y = self.atoms.pop(number)
        los, his, numbers = self.chains[self.chain_of.pop(number)]
        i = bisect.bisect_left(los, y._hulls[1][0])
        while numbers[i] != number:
            i += 1
        del los[i], his[i], numbers[i]

    def meeting(self, x: Atom) -> list:
        """The settle numbers of the atoms whose hulls can meet x's, in
        settle order."""
        lo, hi = (x._hulls or x._cache_hulls())[1]
        found = []
        for los, his, numbers in self.chains:
            j = bisect.bisect_right(los, hi)
            if j:
                found += numbers[bisect.bisect_left(his, lo, 0, j):j]
        return sorted(found)

    def holding(self, x: Atom) -> list:
        """The settle numbers of the atoms whose hulls can hold one of the
        points of the point atom x, in settle order."""
        floats, found = x.point_floats(), []
        for los, his, numbers in self.chains:
            done = 0  # the slices move right as the points do
            for f in floats:
                j = bisect.bisect_right(los, f)
                if j > done:
                    found += numbers[bisect.bisect_left(his, f, done, j):j]
                    done = j
        return sorted(found)


def normalize(atoms: Iterable[Atom]) -> RepSet:
    """Settle the atoms one at a time into a pairwise disjoint, canonically
    ordered list. The point atoms are folded into one first. Each pending
    non-point atom is resolved against the settled non-point atoms whose
    hulls meet its own, found through a _SettledIndex in the order they
    settled; the first pair that resolves wins. A pending point atom
    settles in one pass over the settled atoms its points can meet, and
    merges with the settled point atom (_settle_points). Raises
    NotRepresentable when the union leaves the fragment and TooLarge when
    the resolution does not settle."""
    work = [a for a in atoms if not a.is_empty()]
    if len(work) < 2:
        return RepSet(tuple(work))
    folded = [a for a in work if isinstance(a, FinitePoints)]
    if len(folded) > 1:
        work = [a for a in work if not isinstance(a, FinitePoints)]
        work.append(FinitePoints(p for a in folded for p in a.points))
    # a heap of (settle order, arrival, atom): FIFO within each kind
    pending = [(_SETTLE_ORDER[type(a)], k, a) for k, a in enumerate(work)]
    heapq.heapify(pending)
    arrivals = itertools.count(len(work))

    def push(replacement):
        for a in replacement:
            if not a.is_empty():
                heapq.heappush(pending, (_SETTLE_ORDER[type(a)],
                                         next(arrivals), a))

    settled = _SettledIndex()  # pairwise disjoint non-point atoms
    points = []  # the settled point atom, if any
    for _ in range(_ITER_GUARD):
        if not pending:
            out = [*settled.atoms.values(), *points]
            return RepSet(tuple(sorted(out, key=_hull_key)))
        x = heapq.heappop(pending)[2]
        if isinstance(x, FinitePoints):
            points = _settle_points(x, points, settled, push)
            continue
        for number in settled.meeting(x):
            y = settled.atoms[number]
            # the settled atom goes first on a rank tie: the reverse makes
            # touching Cantor copies trade their shared point forever
            pair = (x, y) if _rank(x) < _rank(y) else (y, x)
            replacement = _resolve_pair(*pair)
            if replacement is not None:
                settled.remove(number)
                push(replacement)
                break
        else:
            settled.add(x)
    raise TooLarge("set normalization did not stabilize")


def _settle_points(x: FinitePoints, points, settled: _SettledIndex, push):
    """Settle the point atom x in one pass: each settled atom its points
    can meet, in settle order, claims the undecided points it holds or
    deletes (_claim_points), and one that deletes a claimed point is
    withdrawn and pushed back restored. Returns the settled point atoms:
    [x's unclaimed points merged with those of points], or []."""
    pts = x.points
    # by index: the points {c*2^-n} collide in Fraction.__hash__
    claimed = set()
    for number in settled.holding(x):
        y = settled.atoms[number]
        undelete = _claim_points(pts, y, claimed)
        if undelete:
            settled.remove(number)
            push([y.restore(undelete)])
    if claimed or points:
        x = FinitePoints([p for k, p in enumerate(pts) if k not in claimed]
                         + [p for a in points for p in a.points])
    return [] if x.is_empty() else [x]


def _resolve_pair(x: Atom, y: Atom):
    """None when x and y are certified disjoint; otherwise a list of atoms
    whose union equals x u y, for non-point atoms with _rank(x) <= _rank(y).
    Two intervals merge; any other pair is [K'] + (other less K'), where the
    keeper K is y when only x is a sequence, the container when one
    sequence's tail lies in the other, and otherwise x, and K' is K with its
    deleted points that the other holds restored (K itself for sequences
    that meet finitely). None when the relation has no common part, or when
    K' is K and the other atom loses nothing."""
    if not _hulls_meet(x, y):
        return None
    if isinstance(x, Interval) and isinstance(y, Interval):
        lo = None if (x.lo is None or y.lo is None) else min(x.lo, y.lo)
        hi = None if (x.hi is None or y.hi is None) else max(x.hi, y.hi)
        return [Interval(lo, hi, [d for d in (x.deletions | y.deletions)
                                  if not x.member(d) and not y.member(d)])]
    rel = _relation(x, y, "union")
    sequence = isinstance(x, CountableSeq)
    if not (rel[1] if sequence else rel[0]):  # no common point or piece
        return None
    keeper, other = x, y
    if sequence and not isinstance(y, CountableSeq):
        keeper, other = y, x
    elif sequence and rel[0] == "tail":
        other = rel[1][0]
        keeper = y if other is x else x
    elif sequence:  # the finitely many common points stay in x
        rest = _minus_of(y, x, rel)
        return None if rest == [y] else [x] + rest
    kept = keeper.restore(d for d in keeper.deletions if other.member(d))
    rest = _minus_of(other, kept, rel)
    return None if kept is keeper and rest == [other] else [kept] + rest


def _point_atoms(points) -> list:
    """[FinitePoints(points)], or [] when there are no points."""
    return [FinitePoints(points)] if points else []


def _claim_points(pts: tuple, y: Atom, claimed: set) -> list:
    """Decide the points of pts (sorted) inside y's closed hull whose
    indices are not in claimed yet: add to claimed the index of each point
    that y holds or deletes, and return the ones it deletes, to be restored
    in y rather than kept as stray points. The other points stay open."""
    lo, hi = y.hull()
    i = 0 if lo is None else bisect.bisect_left(pts, lo)
    j = len(pts) if hi is None else bisect.bisect_right(pts, hi)
    undelete = []
    for k in range(i, j):
        if k in claimed:
            continue
        p = pts[k]
        if p in y.deletions:
            undelete.append(p)
        elif not y.in_base(p):
            continue
        claimed.add(k)
    return undelete


def _tail_split(seq: CountableSeq, start: int, other: Atom):
    """For a sequence whose terms from index start onward lie in other's
    base set: (seq's head points outside that base set, other's deleted
    points that seq holds)."""
    head = [p for p in map(seq.point, _term_range(1, start))
            if seq.member(p) and not other.in_base(p)]
    return head, [d for d in other.deletions if seq.member(d)]


def _tail_start(x: CountableSeq, y: CountableSeq) -> Optional[int]:
    """The index j of x where y starts when y is x's tail, else None. Only
    a geometric y with x's a and q, and y.b == x.b * q**(j-1), is a tail."""
    if x.family == y.family == GEOMETRIC and (x.a, x.q) == (y.a, y.q):
        m = power_index(y.b / x.b, x.q)
        return m + 1 if m is not None and m >= 0 else None
    return None


# -- sequence vs sequence -----------------------------------------------------


def _primitive_ratio(q: Fraction) -> tuple[Fraction, int]:
    """Write q = rho**e with maximal e >= 1; rho is the primitive ratio.
    With u**a and v**b the numerator and denominator over their least
    bases, e is gcd(a, b)."""
    u, a = power_base(q.numerator)
    v, b = power_base(q.denominator)
    e = math.gcd(a, b)
    return Fraction(u ** (a // e), v ** (b // e)), e


def _exponents(x: Fraction, base: list) -> list:
    """The exponent in x of each member of a coprime base whose powers
    make up x. For a member p of it, gcd(n, p**k) is the power of p in n
    once k bounds that exponent, and log2(n) / log2(p) does."""
    def expo(n, p):
        k = n.bit_length() // (p.bit_length() - 1)
        return power_index(math.gcd(n, p ** k), p)
    return [expo(x.numerator, p) - expo(x.denominator, p) for p in base]


def _solve_two_unknowns(rows):
    """Integer solution (n, m) of the system a*n + b*m = c, or None; the
    columns (a) and (b) are independent, so two rows fix n and m."""
    (a1, b1, c1), (a2, b2, c2) = next(
        (r, s) for r, s in itertools.combinations(rows, 2)
        if r[0] * s[1] != s[0] * r[1])
    det = a1 * b2 - a2 * b1
    n = Fraction(c1 * b2 - c2 * b1, det)
    m = Fraction(a1 * c2 - a2 * c1, det)
    if n.denominator != 1 or m.denominator != 1:
        return None
    n, m = int(n), int(m)
    for (a, b, c) in rows:
        if a * n + b * m != c:
            return None
    return (n, m)


def _common_points_finite(x: CountableSeq, y: CountableSeq) -> list:
    """Common base points of sequences with distinct accumulation points:
    always finitely many. A common point is at least half the accumulation
    gap away from one of the two limits, so listing both heads down to
    that offset is exhaustive; a head of more than _ITER_GUARD terms
    raises TooLarge before it is listed."""
    half = abs(y.a - x.a) / 2
    commons = set()
    for seq, other in ((x, y), (y, x)):
        _, head = (seq.indices_within(seq.a + half, None) if seq.b > 0
                   else seq.indices_within(None, seq.a - half))
        commons.update(p for p in map(seq.point, head) if other.in_base(p))
    return sorted(commons)


def _geo_geo_commons(x: CountableSeq, y: CountableSeq):
    """Intersection structure of geometric sequences with the same
    accumulation point and side: "disjoint", ("finite", pts), ("tail",
    (seq, start)) as _seq_seq_commons says, or None when the intersection
    is infinite and interleaved."""
    rho, e = _primitive_ratio(x.q)
    sigma, f = _primitive_ratio(y.q)
    target = y.b / x.b  # common points need x.q**n / y.q**m == target
    if rho != sigma:
        # multiplicatively independent ratios: at most one common point,
        # found from the exponents over a coprime base of the six terms
        terms = (x.q, y.q, target)
        base = coprime_base([k for t in terms
                             for k in (t.numerator, t.denominator)])
        ex, ey, et = (_exponents(t, base) for t in terms)
        sol = _solve_two_unknowns([(a, -b, c) for a, b, c in zip(ex, ey, et)])
        if sol is None:
            return "disjoint"
        n, m = sol
        if n >= 1 and m >= 1 and x.b * x.q ** n == y.b * y.q ** m:
            return ("finite", [x.point(n)])
        return "disjoint"
    # common index pairs solve e*n - f*m == z: none unless gcd(e, f)
    # divides z. Once f divides e, each n >= (z + f) / e has its m >= 1,
    # so x's tail lies in y; once e divides f, each m >= (e - z) / f has
    # its n, and y's tail lies in x. Otherwise both are interleaved. With
    # e == f both hold, and x from index 1 lies in y exactly when z <= 0.
    z = power_index(target, rho)
    g = math.gcd(e, f)
    if z is None or z % g != 0:
        return "disjoint"
    if f == g and (e != f or z <= 0):
        return ("tail", (x, max(1, -((-z - f) // e))))
    if e == g:
        return ("tail", (y, max(1, -((z - e) // f))))
    return None


def _harm_geo_commons(h: CountableSeq, g: CountableSeq):
    """Intersection structure of a harmonic and a geometric sequence with
    the same accumulation point and side: "disjoint", ("finite", pts), or
    ("tail", (g, start)) when exactly the terms of g from index start
    onward are common."""
    # h.b/n == g.b * q^m  =>  n = (alpha/beta) * (v/u)^m, an integer
    # exactly when beta divides v^m and u^m divides alpha
    ratio = h.b / g.b  # positive: same side of the accumulation point
    alpha, beta = ratio.numerator, ratio.denominator
    u, v = g.q.numerator, g.q.denominator
    # no exponent of beta reaches its bit length, so if beta divides some
    # v^m it divides v^top, and the m that work are those from m_lo on
    top = beta.bit_length()
    if pow(v, top, beta) != 0:
        return "disjoint"
    m_lo = max(1, bisect.bisect_left(range(top), True,
                                     key=lambda m: pow(v, m, beta) == 0))
    if u == 1:
        # every m from m_lo on, once n = ratio * v^m >= 1
        return ("tail", (g, max(m_lo, geo_steps(g.q, ratio, strict=False))))
    # u >= 2: u^m divides alpha for m up to m_hi only
    m_hi = bisect.bisect_left(range(alpha.bit_length() + 1), True,
                              key=lambda m: alpha % u ** m != 0) - 1
    pts = [g.point(m) for m in range(m_lo, m_hi + 1)]
    return ("finite", pts) if pts else "disjoint"


def _seq_seq_commons(x: CountableSeq, y: CountableSeq):
    """How two sequences meet: "disjoint", ("finite", candidate common
    points), ("tail", (seq, start)) when the terms of seq from index start
    onward lie in the other's base set, or None when the common points are
    infinite and interleaved."""
    if x.a != y.a:
        return ("finite", _common_points_finite(x, y))
    if (x.b > 0) != (y.b > 0):
        return "disjoint"  # opposite sides of the shared accumulation point
    if x.family != y.family:
        return (_harm_geo_commons(x, y) if x.family == HARMONIC
                else _harm_geo_commons(y, x))
    if x.family == GEOMETRIC:
        return _geo_geo_commons(x, y)
    # x.b/n == y.b/m needs m = n * r: all of x lies in y when r is an
    # integer, all of y in x when 1/r is; otherwise the common indices
    # fill the lattice n = den*k, m = num*k, infinite and interleaved
    r = y.b / x.b
    if r.denominator == 1:
        return ("tail", (x, 1))
    if r.numerator == 1:
        return ("tail", (y, 1))
    return None


# -- sequence vs Cantor copy ----------------------------------------------------


def _seq_cantor_commons(x: CountableSeq, y: CantorAffine) -> list:
    """Common base points of a sequence and a Cantor copy; finite, or
    NotRepresentable when the accumulation point sits inside the copy."""
    hlo, hhi = y.hull()
    kind, data = x.indices_within(hlo, hhi)
    if kind == "finite":
        return sorted(p for p in (x.point(n) for n in data) if y.in_base(p))
    # infinitely many terms in the hull, so the limit lies in it as well
    u = (x.a - y.t) / y.s
    if not in_cantor(u):
        glo, ghi = cantor_gap(u)
    else:
        # u = j/3^m ends the gap (u, u + 3^-m) when j = 1 (mod 3) and the
        # gap (u - 3^-m, u) when j = 2 (mod 3): terms that reach u through
        # that gap leave finitely many in the copy
        side = 1 if x.b > 0 else -1
        if (u.numerator % 3 != side % 3
                or power_index(u.denominator, 3) is None):
            raise NotRepresentable("a sequence accumulating inside a Cantor "
                                   "copy cannot be combined with it")
        glo, ghi = sorted((u, u + Fraction(side, u.denominator)))
    glo, ghi = y.t + y.s * glo, y.t + y.s * ghi
    pts = []
    for lo, hi in ((None, glo), (ghi, None)):
        # finitely many: the limit is inside the gap, or ends it
        _, data2 = x.indices_within(lo, hi)
        for n in data2:
            p = x.point(n)
            if y.in_base(p):
                pts.append(p)
    return sorted(set(pts))


# -- interval or Cantor copy vs Cantor copy -------------------------------------


def _ca_partition(base: Interval | CantorAffine, target: CantorAffine):
    """Partition target against base: (common, rest), where common holds
    the points of target whose positions also lie in base's base set, both
    left to right. An interval base never splits; a piece lies inside it
    when its hull does. Each split of base or of target costs one of
    depth_cap splits before NotRepresentable; TooLarge past _ITER_GUARD
    pieces."""
    cut = isinstance(base, Interval)
    common, rest = [], []
    # entries (piece of target, chain): the chain links the base pieces the
    # piece still meets, in turn, as ((base piece, splits left), later);
    # None once it has met them all
    stack = [(target, ((base, get_config().depth_cap), None))]
    for _ in range(_ITER_GUARD):
        if not stack:
            return common, rest
        piece, chain = stack.pop()
        if chain is None:
            rest.append(piece)
            continue
        (base, budget), later = chain
        hb, ht = base.hull(), piece.hull()
        touch = hb[1] if hb[1] == ht[0] else ht[1] if ht[1] == hb[0] else None
        if not _hulls_meet(base, piece):
            stack.append((piece, later))
        elif (base.in_base(ht[0]) and base.in_base(ht[1]) if cut
              else (base.t, base.s) == (piece.t, piece.s)):
            common.append(piece)
        elif touch is not None:
            if base.in_base(touch) and piece.in_base(touch):
                if touch not in piece.deletions:
                    common.append(FinitePoints([touch]))
                piece = piece.with_deletions([touch])
            stack.append((piece, later))
        elif budget <= 0:
            raise NotRepresentable(
                "interval cuts through a Cantor copy; the pieces are not "
                "catalog sets" if cut else
                "overlapping distinct Cantor copies are not jointly representable")
        elif not cut and piece.s <= base.s:
            left, right = base.children()
            stack.append((piece, ((left, budget - 1),
                                  ((right, budget - 1), later))))
        else:
            head = (base, budget - 1)
            stack += [(child, (head, later)) for child in piece.children()[::-1]]
    raise TooLarge(f"a Cantor copy splits into more than {_ITER_GUARD} pieces")


# -- the relation of two atoms --------------------------------------------------


def _relation(x: Atom, y: Atom, op: str):
    """How the base sets of two non-point atoms meet, for _rank(x) <=
    _rank(y) and not two intervals: for a sequence x, ("finite", common
    points) or ("tail", (seq, start)) as _seq_seq_commons says, and
    NotRepresentable naming the op for interleaved sequences; for an
    interval or a copy x and a copy y, _ca_partition(x, y)."""
    if isinstance(y, CountableSeq):
        commons = _seq_seq_commons(x, y)
        if commons is None:
            raise NotRepresentable(
                f"the {op} of these sequences is not a catalog set")
        return ("finite", ()) if commons == "disjoint" else commons
    if isinstance(y, Interval):  # and x is a sequence, by rank
        kind, data = x.indices_within(y.lo, y.hi)
        if kind == "finite":
            return ("finite", [x.point(n) for n in data])
        return ("tail", (x, data))
    if isinstance(x, CountableSeq):
        return ("finite", _seq_cantor_commons(x, y))
    return _ca_partition(x, y)


# ---------------------------------------------------------------------------
# set operations


def union(a: RepSet, b: RepSet) -> RepSet:
    return normalize(a.atoms + b.atoms)


def diff(a: RepSet, b: RepSet) -> RepSet:
    pieces = []
    for atom in a.atoms:
        pieces.extend(_atom_minus_set(atom, b))
    return normalize(pieces)


def symdiff(a: RepSet, b: RepSet) -> RepSet:
    return union(diff(a, b), diff(b, a))


def cross_pairs(xs, ys) -> list:
    """The sorted pairs (i, j) of atoms xs[i], ys[j] whose closed hulls meet:
    the float-hull sweep meeting_pairs proposes them, _hulls_meet decides."""
    atoms, n = list(xs) + list(ys), len(xs)
    return [(i, j - n) for i, j in meeting_pairs([x.float_hull() for x in atoms])
            if i < n <= j and _hulls_meet(atoms[i], atoms[j])]


def intersect(a: RepSet, b: RepSet) -> RepSet:
    """The meets of the cross_pairs of atoms, normalized in _hull_key
    order, so the answer is the same in either argument order."""
    pieces = [p for i, j in cross_pairs(a.atoms, b.atoms)
              for p in _atom_meet(a.atoms[i], b.atoms[j])]
    return normalize(sorted(pieces, key=_hull_key))


def _atom_meet(x: Atom, y: Atom) -> list:
    """Pairwise disjoint atoms whose union is x n y, for atoms whose
    closed hulls meet; the same list in either argument order. Two equal
    atoms meet in [x] at once, with no sweep. NotRepresentable when the
    meet leaves the catalog."""
    if x == y:
        return [x]
    if (_rank(y), _hull_key(y)) < (_rank(x), _hull_key(x)):
        x, y = y, x
    if isinstance(x, FinitePoints):
        return _point_atoms([p for p in x.points if y.member(p)])
    if isinstance(x, Interval) and isinstance(y, Interval):
        lo = max((e for e in (x.lo, y.lo) if e is not None), default=None)
        hi = min((e for e in (x.hi, y.hi) if e is not None), default=None)
        if lo is not None and lo == hi:
            return _point_atoms([lo] if x.member(lo) and y.member(lo) else [])
        return [Interval(lo, hi).with_deletions(x.deletions | y.deletions)]
    return _meet_of(x, y, _relation(x, y, "meet"))


def _meet_of(x: Atom, y: Atom, rel) -> list:
    """x n y, read from rel = _relation(x, y, ...)."""
    if isinstance(x, CountableSeq):
        kind, payload = rel
        if kind == "finite":
            return _point_atoms([p for p in payload
                                 if x.member(p) and y.member(p)])
        seq, start = payload
        head, rescued = _tail_split(seq, start, y if seq is x else x)
        return [seq.with_deletions(head + rescued)]
    # the pieces of the copy y that lie in x's base set, less x's
    # deleted points
    common, _ = rel
    holes = FinitePoints(x.deletions)
    return [p for piece in common for p in _atom_minus_atom(piece, holes)]


def _atom_minus_set(atom: Atom, s: RepSet) -> list:
    pieces = [atom]
    for other in s.atoms:
        nxt = []
        for piece in pieces:
            # a piece whose hull misses other's loses nothing
            if _hulls_meet(piece, other):
                nxt.extend(_atom_minus_atom(piece, other))
            else:
                nxt.append(piece)
        pieces = nxt
    return pieces


def _atom_minus_atom(x: Atom, y: Atom) -> list:
    """Pairwise disjoint atoms whose union is x less y; [] for two equal
    atoms. NotRepresentable when the difference leaves the catalog."""
    if x == y:
        return []
    if isinstance(x, FinitePoints):
        return _point_atoms([p for p in x.points if not y.member(p)])
    if isinstance(y, FinitePoints):
        return [x.with_deletions(y.points)]
    if isinstance(x, Interval) and isinstance(y, Interval):
        return _interval_minus_interval(x, y)
    # a copy is split against the atom it loses
    if _rank(y) < _rank(x) or isinstance(x, CantorAffine):
        return _minus_of(x, y, _relation(y, x, "difference"))
    return _minus_of(x, y, _relation(x, y, "difference"))


def _minus_of(x: Atom, y: Atom, rel) -> list:
    """x less y, read from rel: the _relation of the pair in rank order,
    or for two copies _relation(y, x, ...), which splits x against y."""
    if isinstance(x, CantorAffine) and not isinstance(y, CountableSeq):
        common, x_only = rel
        # the points y deletes inside a common piece stay in x
        return x_only + _point_atoms(
            {d for d in y.deletions if any(p.member(d) for p in common)})
    if isinstance(x, CountableSeq) and rel[0] == "tail":
        seq, start = rel[1]
        if seq is not x:
            # y lies in x; unless y is x's tail, its terms interleave x's
            start = _tail_start(x, y)
            if start is None:
                raise NotRepresentable(
                    "removing an interleaved subsequence leaves a non-catalog set")
        # the whole tail of x is removed; only a finite head remains
        head, rescued = _tail_split(x, start, y)
        return _point_atoms(head + rescued)
    # otherwise x loses the finitely many points it shares with y
    shared = _meet_of(*sorted((x, y), key=_rank), rel)
    if not all(isinstance(p, FinitePoints) for p in shared):
        what = ("an infinite sequence" if isinstance(y, CountableSeq)
                else "a Cantor copy")
        raise NotRepresentable(f"an interval minus {what} is not a catalog set")
    return [x.with_deletions(p for piece in shared for p in piece.points)]


def _interval_minus_interval(x: Interval, y: Interval) -> list:
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
    return pieces + _point_atoms(survivors)


# ---------------------------------------------------------------------------
# measure and verification


def hmeasure(s: RepSet) -> HPair:
    """The dimension-measure pair of a representable set."""
    return top_sum(s.atoms, lambda a: a.dim(), lambda a: a.mu())


def verify_monotone(a: RepSet, b: RepSet) -> tuple[HPair, HPair, bool]:
    """Confirm a is a subset of b, then compare the measures."""
    leftover = diff(a, b)
    if not leftover.is_empty():
        raise ValidationError("first set is not contained in the second")
    ma, mb = hmeasure(a), hmeasure(b)
    return ma, mb, ma.cmp(mb) <= 0


def verify_subadditive(a: RepSet, b: RepSet):
    u = union(a, b)
    mu_u, ma, mb = hmeasure(u), hmeasure(a), hmeasure(b)
    bound = hpair_add(ma, mb)
    return mu_u, ma, mb, mu_u.cmp(bound) <= 0
