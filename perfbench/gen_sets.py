"""The `sets` workload: unions of all four atom kinds, measured, compared
with d_s, and intersected or subtracted before measuring.

A set is laid out in cells [4k, 4k + 3], k >= 1, one atom family per cell,
so the generator knows every answer from its own bookkeeping:

* "I" cells hold intervals with endpoints on the quarter grid (length is a
  count of covered quarters), stray points, deleted points, and sequences
  lying inside one of the intervals (absorbed by normalization);
* "C" cells hold triadic sub-copies of one Cantor root t + s*C with
  s = 3**e (the measure of a depth-3 leaf is 2**e / 8, exactly), points of
  the Cantor set, and, for intersect/diff, intervals of the other operand
  cut at gap points;
* "S" cells hold harmonic and geometric sequences and points;
* "P" cells hold finite point sets.

No polynomial appears, so root isolation is never reached. Most sets have
4-12 atoms; a tail of 48-128 atoms exercises normalization's growth with
atom count.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction

from common import D0, D1, DC, Measure, Request, pair_sum, rat

Q = Fraction(1, 4)
GRID = 12  # quarters per cell
LEAVES = 8  # depth-3 leaves of a Cantor root

# operation -> share out of BLOCK requests
BLOCK = 200
MIX = (
    ("measure", 40),
    ("ds", 40),
    ("ds_same", 8),
    ("ds_sym", 10),
    ("intersect", 46),
    ("diff", 46),
    ("refuse_union", 4),
    ("refuse_cut", 3),
    ("refuse_tail", 3),
)
# The cheap measures stay under a quarter of the mix, so the median latency
# falls inside the cluster of two-operand requests, not in the gap between.
TAIL_OPS = {"measure": 4, "ds": 1, "intersect": 1, "diff": 1}  # per block
SMALL = (4, 12)
LARGE = (48, 128)
REFUSED_RANGE = (0.04, 0.06)


def _leaf_left(i: int) -> Fraction:
    """Left end of depth-3 leaf i of the unit Cantor set."""
    b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
    return sum((Fraction(2 * d, 3 ** (k + 1)) for k, d in enumerate(b)),
               Fraction(0))


def _gap_after(i: int) -> Fraction:
    """A point of the gap between leaves i and i + 1 (not a Cantor point)."""
    return (_leaf_left(i) + Fraction(1, 27) + _leaf_left(i + 1)) / 2


def _node_leaves(path: tuple) -> set:
    shift = 3 - len(path)
    base = 0
    for d in path:
        base = base * 2 + d
    return set(range(base << shift, (base + 1) << shift))


class Side:
    """What one operand holds in one cell, in generator terms."""

    def __init__(self):
        self.quarters = set()  # I: covered quarter indices
        self.leaves = set()  # C: covered depth-3 leaves
        self.cut_leaves = set()  # C: leaves under this side's gap-cut interval
        self.cut_length = Fraction(0)
        self.seqs = []  # S: (family, a, b, q) tuples
        self.points = set()  # P: exact points
        self.docs = []


class Cell:
    def __init__(self, k: int, kind: str, rng: random.Random):
        self.o = Fraction(4 * k)
        self.kind = kind
        if kind == "C":
            self.e = rng.choice((-1, 0, 1))
            self.t = self.o + Q
            self.s = Fraction(3) ** self.e

    # -- builders ---------------------------------------------------------

    def fill(self, side: Side, rng: random.Random, atoms: int, *,
             allow_cut=False, like: Side = None):
        getattr(self, "_fill_" + self.kind)(side, rng, atoms, allow_cut, like)

    def fill_tail(self, side: Side, rng: random.Random):
        """Three atoms, two of which merge: the same normalization work in
        every cell of a kind, wherever the atoms sit."""
        o = self.o
        if self.kind == "I":
            j0 = rng.randrange(0, GRID - 5)
            side.quarters |= set(range(j0, j0 + 5))
            inside = o + Fraction(2 * rng.randrange(2 * j0, 2 * j0 + 10) + 1, 8)
            side.docs += [{"interval": [rat(o + j0 * Q), rat(o + (j0 + 3) * Q)]},
                          {"interval": [rat(o + (j0 + 2) * Q),
                                        rat(o + (j0 + 5) * Q)]},
                          {"points": [rat(inside)]}]
        elif self.kind == "C":
            path = (rng.randrange(2),)
            side.leaves |= _node_leaves(())
            side.docs += [self.node(()), self.node(path),
                          {"points": [rat(self.t + self.s * rng.choice(
                              (Fraction(1, 3), Fraction(2, 9),
                               Fraction(1, 4))))]}]
        elif self.kind == "S":
            seq = self._seq(rng, o + rng.choice((Fraction(1, 2), Fraction(1))),
                            (Fraction(1, 2), Fraction(1), Fraction(2)))
            fam, a, b, q = seq
            body = {"kind": fam, "a": rat(a), "b": rat(b)}
            if q is not None:
                body["q"] = rat(q)
            side.seqs.append(seq)
            n = rng.randrange(1, 4)
            on_seq = a + (b / n if fam == "harmonic" else b * q ** n)
            side.docs += [{"seq": body}, {"points": [rat(on_seq)]},
                          {"points": [rat(o + 3)]}]
        else:
            pts = sorted({o + Fraction(rng.randrange(0, 25), 8)
                          for _ in range(3)})
            side.points |= set(pts)
            side.docs += [{"points": [rat(p)]} for p in pts]

    def _fill_I(self, side, rng, atoms, allow_cut, like):
        n_iv = max(1, min(3, atoms - rng.randrange(0, 2)))
        for _ in range(n_iv):
            j0 = rng.randrange(0, GRID - 1)
            j1 = rng.randrange(j0 + 1, min(GRID, j0 + 6) + 1)
            side.quarters |= set(range(j0, j1))
            lo, hi = self.o + j0 * Q, self.o + j1 * Q
            doc = {"interval": [rat(lo), rat(hi)]}
            if rng.random() < 0.3:
                doc["delete"] = [rat(lo + Q / 2)]
            side.docs.append(doc)
            # one sequence per accumulation point: two harmonic sequences
            # sharing one may meet each other before the interval that
            # absorbs them, and their union is not representable
            acc = {Fraction(d["seq"]["a"]) for d in side.docs if "seq" in d}
            if (j1 - j0 >= 2 and len(side.docs) < atoms and lo not in acc
                    and rng.random() < 0.4):
                b = (hi - lo) / 2
                if rng.random() < 0.5:
                    seq = {"kind": "harmonic", "a": rat(lo), "b": rat(b)}
                else:
                    seq = {"kind": "geometric", "a": rat(lo), "b": rat(b),
                           "q": "1/2"}
                side.docs.append({"seq": seq})
        while len(side.docs) < atoms:
            pts = {self.o + Fraction(2 * rng.randrange(0, 12) + 1, 8)
                   for _ in range(rng.randrange(1, 3))}
            side.docs.append({"points": [rat(p) for p in sorted(pts)]})

    def node(self, path: tuple) -> dict:
        t, s = self.t, self.s
        for d in path:
            s = s / 3
            t = t + 2 * s * d
        return {"cantor": {"t": rat(t), "s": rat(s)}}

    def _fill_C(self, side, rng, atoms, allow_cut, like):
        n_nodes = max(1, min(3, atoms - rng.randrange(0, 2)))
        for _ in range(n_nodes):
            path = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
            side.leaves |= _node_leaves(path)
            side.docs.append(self.node(path))
        if allow_cut and rng.random() < 0.5:
            i = rng.randrange(-1, LEAVES - 1)
            j = rng.randrange(i + 1, LEAVES)
            c1 = Fraction(-1, 8) if i < 0 else _gap_after(i)
            c2 = Fraction(9, 8) if j == LEAVES - 1 else _gap_after(j)
            side.cut_leaves = set(range(i + 1, j + 1))
            side.cut_length = self.s * (c2 - c1)
            side.docs.append({"interval": [rat(self.t + self.s * c1),
                                           rat(self.t + self.s * c2)]})
        while len(side.docs) < atoms:
            # endpoints of sub-copies and 1/4 are Cantor points
            c = rng.choice((Fraction(0), Fraction(1), Fraction(1, 3),
                            Fraction(2, 3), Fraction(2, 9), Fraction(1, 4)))
            side.docs.append({"points": [rat(self.t + self.s * c)]})

    def _fill_S(self, side, rng, atoms, allow_cut, like):
        if like is not None and like.seqs and rng.random() < 0.5:
            seqs = list(like.seqs)  # the same sequences in both operands
        elif like is not None:
            # accumulation points the first operand never uses, so the two
            # operands share only finitely many points
            a = self.o + rng.choice((Fraction(3, 2), Fraction(2)))
            seqs = [self._seq(rng, a, (Fraction(1, 2), Fraction(1)))]
        else:
            a = self.o + rng.choice((Fraction(1, 2), Fraction(1)))
            seqs = [self._seq(rng, a, (Fraction(1, 2), Fraction(1),
                                       Fraction(2)))]
            if atoms >= 3 and rng.random() < 0.5:
                seqs.append(("harmonic", self.o + 3, Fraction(-1, 2), None))
        for fam, a, b, q in seqs:
            body = {"kind": fam, "a": rat(a), "b": rat(b)}
            if q is not None:
                body["q"] = rat(q)
            side.seqs.append((fam, a, b, q))
            side.docs.append({"seq": body})
        while len(side.docs) < atoms:
            fam, a, b, q = side.seqs[0]
            n = rng.randrange(1, 4)
            on_seq = a + (b / n if fam == "harmonic" else b * q ** n)
            stray = self.o + Fraction(2 * rng.randrange(0, 12) + 1, 8)
            side.docs.append({"points": [rat(on_seq), rat(stray)]})

    @staticmethod
    def _seq(rng, a, bs):
        if rng.random() < 0.5:
            return ("harmonic", a, rng.choice(bs), None)
        return ("geometric", a, rng.choice(bs),
                rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))))

    def _fill_P(self, side, rng, atoms, allow_cut, like):
        for _ in range(max(1, atoms)):
            pts = {self.o + Fraction(rng.randrange(0, 25), 8)
                   for _ in range(rng.randrange(1, 4))}
            side.points |= pts
            side.docs.append({"points": [rat(p) for p in sorted(pts)]})


# ---------------------------------------------------------------------------
# expected measures


def _cell_pair(cell: Cell, quarters: set, leaves: set, cut_length=Fraction(0),
               infinite=False, points=()):
    if cell.kind == "I" and quarters:
        return (D1, Measure.of(len(quarters) * Q))
    if cell.kind == "C":
        if cut_length:
            return (D1, Measure.of(cut_length))
        if leaves:
            return (DC, Measure.of(Fraction(2) ** cell.e * len(leaves) / LEAVES))
    if infinite:
        return (D0, Measure.infinite())
    if points:
        return (D0, Measure.of(len(points)))
    return None


def _seq_infinite(a: Side, b: Side, how: str) -> bool:
    if how == "A":
        return bool(a.seqs)
    same = set(a.seqs) & set(b.seqs)
    if how == "and":
        return bool(same)
    if how == "minus":
        return bool(set(a.seqs) - same)
    return bool(set(a.seqs) ^ set(b.seqs))


def _combine(x: set, y: set, how: str) -> set:
    return {"A": x, "and": x & y, "minus": x - y, "xor": x ^ y}[how]


def expected(cells, sides_a, sides_b, how: str):
    """Expected pair of A (how="A"), A & B, A - B or A ^ B, or None when the
    answer would fall to dimension zero with a stray point count the
    generator does not track."""
    pairs = []
    dim0_only = all(c.kind in ("S", "P") for c in cells)
    for cell, a, b in zip(cells, sides_a, sides_b):
        if how == "A":
            got = _cell_pair(cell, a.quarters, a.leaves, a.cut_length,
                             bool(a.seqs), a.points)
        else:
            # the other operand's gap-cut interval covers its leaves too
            got = _cell_pair(
                cell, _combine(a.quarters, b.quarters, how),
                _combine(a.leaves, b.leaves | b.cut_leaves, how),
                infinite=_seq_infinite(a, b, how),
                points=_combine(a.points, b.points, how))
        if got is not None:
            pairs.append(got)
    top = pair_sum(pairs)
    return None if top[0] == D0 and not dim0_only else top


# ---------------------------------------------------------------------------
# requests


def _cell_kinds(rng, n: int, no_interval: bool, dim0: bool):
    if dim0:
        pool = "SP"
    elif no_interval:
        pool = "CCSP"
    else:
        pool = "IIICSP"
    kinds = [rng.choice(pool) for _ in range(n)]
    if not dim0:
        kinds[0] = "C" if no_interval else "I"
    return kinds


TAIL_KINDS = "ICISPICI"  # fixed cell pattern for large sets


def _tail_sides(rng, atoms: int):
    """A large set: one cell pattern repeated, three atoms per cell, so the
    cost depends on the size and little on the seed."""
    cells = [Cell(k + 1, TAIL_KINDS[k % len(TAIL_KINDS)], rng)
             for k in range(max(1, atoms // 3))]
    sides = []
    for cell in cells:
        s = Side()
        cell.fill_tail(s, rng)
        sides.append(s)
    return cells, sides


def _layout(rng, atoms: int, no_interval=False, dim0=False):
    n_cells = max(1, round(atoms / 2.5))
    kinds = _cell_kinds(rng, n_cells, no_interval, dim0)
    per = [1] * n_cells
    for _ in range(atoms - n_cells):
        per[rng.randrange(n_cells)] += 1
    return [Cell(k + 1, kind, rng) for k, kind in enumerate(kinds)], per


def _doc(sides, rng) -> str:
    docs = [d for s in sides for d in s.docs]
    rng.shuffle(docs)
    return json.dumps(docs[0]) if len(docs) == 1 else json.dumps({"union": docs})


def _operands(rng, atoms, cut=False, no_interval=False, share=False):
    cells, per = _layout(rng, atoms, no_interval)
    sa, sb = [], []
    for cell, n in zip(cells, per):
        a, b = Side(), Side()
        cell.fill(a, rng, n)
        if share and rng.random() < 0.3:
            b = copy.deepcopy(a)  # the same atoms in both operands
        elif rng.random() < 0.15:
            pass  # B leaves this cell empty
        else:
            cell.fill(b, rng, max(1, n + rng.randrange(-1, 2)),
                      allow_cut=cut and cell.kind == "C", like=a)
        sa.append(a)
        sb.append(b)
    return cells, sa, sb


def _size(sides) -> int:
    return sum(len(s.docs) for s in sides)


def _measure(rng, atoms):
    if atoms >= LARGE[0]:
        cells, sides = _tail_sides(rng, atoms)
        d, m = expected(cells, sides, sides, "A")
        return Request("measure", {"a": _doc(sides, rng)}, ("pair", d, m),
                       size=_size(sides))
    shape = rng.random()
    cells, per = _layout(rng, atoms, no_interval=0.75 <= shape < 0.95,
                         dim0=shape >= 0.95)
    sides = []
    for cell, n in zip(cells, per):
        s = Side()
        cell.fill(s, rng, n, allow_cut=cell.kind == "C" and rng.random() < 0.2)
        sides.append(s)
    d, m = expected(cells, sides, sides, "A")
    return Request("measure", {"a": _doc(sides, rng)}, ("pair", d, m),
                   size=_size(sides))


def _tail_operands(rng, atoms):
    """Two large operands: B repeats A's cells, leaving some out."""
    cells, sa = _tail_sides(rng, atoms // 2)
    sb = [Side() if rng.random() < 0.3 else s for s in sa]
    return cells, sa, sb


def _binary(rng, atoms, op):
    how = {"ds": "xor", "ds_sym": "xor", "intersect": "and",
           "diff": "minus"}[op]
    cut = op in ("intersect", "diff")
    for _ in range(100):
        if atoms >= LARGE[0]:
            cells, sa, sb = _tail_operands(rng, atoms)
        else:
            cells, sa, sb = _operands(rng, atoms, cut=cut,
                                      no_interval=rng.random() < 0.2,
                                      share=True)
        want = expected(cells, sa, sb, how)
        if want is not None:
            break
    else:  # pragma: no cover - the generator always finds one quickly
        raise RuntimeError("no operand pair with a tracked answer")
    args = {"a": _doc(sa, rng), "b": _doc(sb, rng)}
    return Request(op, args, ("pair",) + want, size=_size(sa) + _size(sb))


def _ds_same(rng, atoms):
    """d_s of a set and a respelling of it: atoms reordered and each
    interval split at an interior grid point. The answer is (0, 0)."""
    cells, per = _layout(rng, atoms)
    sides = []
    for cell, n in zip(cells, per):
        s = Side()
        cell.fill(s, rng, n)
        sides.append(s)
    a = _doc(sides, rng)
    docs = []
    for d in json.loads(a).get("union", [json.loads(a)]):
        iv = d.get("interval")
        if iv and "delete" not in d:
            lo, hi = Fraction(iv[0]), Fraction(iv[1])
            mid = lo + Q * int((hi - lo) / Q / 2) if hi - lo > Q else None
            if mid is not None and lo < mid < hi:
                docs += [{"interval": [rat(lo), rat(mid)]},
                         {"interval": [rat(mid), rat(hi)]}]
                continue
        docs.append(d)
    rng.shuffle(docs)
    b = json.dumps({"union": docs}) if len(docs) > 1 else json.dumps(docs[0])
    return Request("ds", {"a": a, "b": b},
                   ("pair", D0, Measure.of(0)), size=2 * _size(sides))


def _refuse_union(rng, atoms):
    """Two harmonic sequences sharing an accumulation point whose
    coefficients are not integer multiples: their union is not a catalog
    set, and parsing refuses it."""
    cells, per = _layout(rng, max(atoms - 2, 2))
    sides = []
    for cell, n in zip(cells, per):
        s = Side()
        cell.fill(s, rng, n)
        sides.append(s)
    o = Fraction(4 * (len(cells) + 1))
    docs = [d for s in sides for d in s.docs] + [
        {"seq": {"kind": "harmonic", "a": rat(o + 1), "b": 2}},
        {"seq": {"kind": "harmonic", "a": rat(o + 1), "b": 3}}]
    rng.shuffle(docs)
    return Request("measure", {"a": json.dumps({"union": docs})},
                   ("refused", ("NotRepresentable",)), size=len(docs))


def _refuse_cut(rng, atoms):
    """A minus an interval that ends at 1/4 inside A's Cantor root: 1/4
    lies in the Cantor set with an infinite ternary expansion, so the
    split never terminates and hits the depth cap."""
    cells, sa, sb = _operands(rng, max(atoms - 1, 2))
    cell = Cell(len(cells) + 1, "C", rng)
    a_extra = cell.node(())
    cut = {"interval": [rat(cell.t - cell.s / 8), rat(cell.t + cell.s / 4)]}
    a = [d for s in sa for d in s.docs] + [a_extra]
    b = [d for s in sb for d in s.docs] + [cut]
    rng.shuffle(a)
    rng.shuffle(b)
    return Request("diff", {"a": json.dumps({"union": a}),
                            "b": json.dumps({"union": b})},
                   ("refused", ("NotRepresentable",)), size=len(a) + len(b))


def _refuse_tail(rng, atoms):
    """A minus a sequence whose tail accumulates inside one of A's
    intervals: the interval minus infinitely many points is not a catalog
    set."""
    cells, sa, sb = _operands(rng, max(atoms - 1, 2))
    o = Fraction(4 * (len(cells) + 1))
    a = [d for s in sa for d in s.docs] + [{"interval": [rat(o), rat(o + 2)]}]
    b = [d for s in sb for d in s.docs] + [
        {"seq": {"kind": "harmonic", "a": rat(o + 1), "b": "1/2"}}]
    rng.shuffle(a)
    rng.shuffle(b)
    return Request("diff", {"a": json.dumps({"union": a}),
                            "b": json.dumps({"union": b})},
                   ("refused", ("NotRepresentable",)), size=len(a) + len(b))


_BUILD = {
    "measure": _measure,
    "ds": lambda rng, n: _binary(rng, n, "ds"),
    "ds_same": _ds_same,
    "ds_sym": lambda rng, n: _binary(rng, n, "ds_sym"),
    "intersect": lambda rng, n: _binary(rng, n, "intersect"),
    "diff": lambda rng, n: _binary(rng, n, "diff"),
    "refuse_union": _refuse_union,
    "refuse_cut": _refuse_cut,
    "refuse_tail": _refuse_tail,
}


def plan(rng: random.Random, n: int):
    """(op, atoms) slots: the mix and the size tail are stratified per
    block of BLOCK requests, and the tail sizes per operation, so every
    seed sees the same proportions and the same sizes."""
    slots = []
    blocks = max(1, -(-n // BLOCK))
    tail_sizes = {}
    for op, per_block in TAIL_OPS.items():
        k = blocks * per_block
        sizes = [LARGE[0] + (LARGE[1] - LARGE[0]) * i // max(1, k - 1)
                 for i in range(k)]
        rng.shuffle(sizes)
        tail_sizes[op] = sizes
    for _ in range(blocks):
        block = []
        for op, share in MIX:
            tails = TAIL_OPS.get(op, 0)
            for i in range(share):
                atoms = (tail_sizes[op].pop() if i < tails
                         else rng.randint(*SMALL))
                block.append((op, atoms))
        rng.shuffle(block)
        slots.extend(block)
    return slots[:n]


def generate(rng: random.Random, n: int):
    return [_BUILD[op](rng, atoms) for op, atoms in plan(rng, n)]
