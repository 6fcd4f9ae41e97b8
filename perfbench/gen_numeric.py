"""The `numeric` workload: dimension-measure pair algebra over rational and
log-ratio dimensions, pair series and sequence limits, fractional-power
p-series, Cantor copies at non-triadic scales, the numerical oracle, and
convexity deficiencies of planar scenes.

All of its time is spent in the pair values, the interval enclosures, the
oracle and the deficiency module; none in set normalization or function
addition, so it is the control for work on those layers.

Pairs travel as plain data: a dimension is ["rat", "p/q"] or ["log", p, q]
(log(p)/log(q)), a measure is a rational or "inf" / "-inf".
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from common import D0, D1, DC, Dim, Measure, Request, dim_cmp, pair_sum, rat

BLOCK = 200
MIX = (
    ("add", 35),
    ("sum", 30),
    ("cmp", 30),
    ("dh_pairs", 25),
    ("series", 15),
    ("series_frac", 5),
    ("limit", 15),
    ("cantor", 15),
    ("box", 6),
    ("premeasure", 6),
    ("quad", 5),
    ("convex", 6),
    ("refuse_add", 4),
    ("refuse_sum", 3),
)
REFUSED_RANGE = (0.03, 0.04)

# (engine spec, generator Dim); log(4)/log(9) is log(2)/log(3) spelled
# differently, and the engine must see it as the same dimension
DIMS = [(["rat", rat(x)], Dim(Fraction(x)))
        for x in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1,
                  Fraction(3, 2), 2)]
DIMS += [(["log", p, q], Dim(Fraction(0), ((bp, bq, Fraction(c)),)))
         for p, q, bp, bq, c in ((2, 3, 2, 3, 1), (4, 9, 2, 3, 1),
                                 (2, 5, 2, 5, 1), (3, 5, 3, 5, 1),
                                 (2, 7, 2, 7, 1), (3, 7, 3, 7, 1),
                                 (5, 7, 5, 7, 1), (8, 9, 2, 3, Fraction(3, 2)))]
FRACTIONAL_P = (Fraction(3, 2), Fraction(5, 2), Fraction(7, 4))


def _dim(rng):
    return rng.choice(DIMS)


def _measure(rng, nonneg=False, inf_share=0.06):
    if rng.random() < inf_share:
        return ("inf", Measure.infinite())
    v = Fraction(rng.randrange(0 if nonneg else -30, 31), rng.randrange(1, 7))
    return (rat(v), Measure.of(v))


def _pair(rng, **kw):
    (dspec, d), (mspec, m) = _dim(rng), _measure(rng, **kw)
    return [dspec, mspec], (d, m)


def _equal_dims(rng, a):
    """A spelling of a's dimension, sometimes a different one."""
    return rng.choice([s for s, d in DIMS if dim_cmp(d, a[0]) == 0])


def _add(rng):
    a_spec, a = _pair(rng)
    b_spec, b = _pair(rng)
    if rng.random() < 0.3:
        b_spec[0] = _equal_dims(rng, a)
        b = (a[0], b[1])
    if a[1].kind == b[1].kind == "inf" and dim_cmp(a[0], b[0]) == 0 \
            and a[1].sign != b[1].sign:
        b_spec[1], b = "1", (b[0], Measure.of(1))
    d, m = pair_sum([a, b])
    return Request("add", {"a": a_spec, "b": b_spec}, ("pair", d, m), size=2)


def _sum(rng):
    n = rng.randint(4, 12)
    specs, pairs = zip(*(_pair(rng, inf_share=0.0) for _ in range(n)))
    d, m = pair_sum(pairs)
    return Request("sum", {"items": list(specs)}, ("pair", d, m), size=n)


def _cmp(rng):
    a_spec, a = _pair(rng)
    b_spec, b = _pair(rng)
    if rng.random() < 0.4:
        b_spec[0] = _equal_dims(rng, a)
        b = (a[0], b[1])
    c = dim_cmp(a[0], b[0])
    if c == 0:
        ma, mb = a[1], b[1]
        if ma.kind == mb.kind == "inf":
            c = 0
        elif ma.kind == "inf" or mb.kind == "inf":
            c = 1 if ma.kind == "inf" else -1
        else:
            c = (ma.exact > mb.exact) - (ma.exact < mb.exact)
    return Request("cmp", {"a": a_spec, "b": b_spec}, ("value", c), size=2)


def _dh_pairs(rng):
    a_spec, a = _pair(rng, nonneg=True)
    b_spec, b = _pair(rng, nonneg=True)
    if rng.random() < 0.4:
        b_spec[0] = _equal_dims(rng, a)
        b = (a[0], b[1])
    c = dim_cmp(a[0], b[0])
    if c != 0:
        hi, lo = (a[0], b[0]) if c > 0 else (b[0], a[0])
        logs = dict(((p, q), k) for p, q, k in hi.logs)
        for p, q, k in lo.logs:
            logs[(p, q)] = logs.get((p, q), 0) - k
        gap = Dim(hi.rat - lo.rat, tuple((p, q, k) for (p, q), k
                                         in sorted(logs.items()) if k))
        want = (gap, Measure.of(0))
    else:
        ma, mb = a[1], b[1]
        if ma.kind == mb.kind == "inf" or (ma.kind == mb.kind == "exact"
                                           and ma.exact == mb.exact):
            want = (D0, Measure.of(0))
        elif "inf" in (ma.kind, mb.kind):
            want = (D0, Measure.infinite())
        else:
            want = (D0, Measure.of(abs(ma.exact - mb.exact)))
    return Request("dh_pairs", {"a": a_spec, "b": b_spec}, ("pair",) + want,
                   size=2)


def _series_item(rng, p=None):
    roll = rng.random() if p is None else 1.0
    if roll < 0.4:
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        r = rng.choice((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                        Fraction(2, 3), Fraction(-3, 4)))
        return ["geometric", rat(a), rat(r)], Measure.of(a / (1 - r))
    if roll < 0.7:
        vals = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(rng.randrange(1, 6))]
        return (["finite", [rat(v) for v in vals]],
                Measure.of(sum(vals, Fraction(0))))
    c = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
    p = p if p is not None else rng.choice((Fraction(2), Fraction(3)))
    return ["pseries", rat(c), rat(p)], Measure.real(("zeta", p, c))


def _series(rng, fractional=False):
    n = rng.randint(1, 3)
    picks = rng.sample(DIMS, n)
    # distinct dimensions by value (log(4)/log(9) and log(2)/log(3) clash)
    dims = []
    for spec, d in picks:
        if all(dim_cmp(d, e) != 0 for _, e in dims):
            dims.append((spec, d))
    top = max(range(len(dims)), key=lambda i: dims[i][1].value())
    items, want = [], []
    for i, (spec, d) in enumerate(dims):
        p = rng.choice(FRACTIONAL_P) if fractional and i == top else None
        s_spec, m = _series_item(rng, p)
        items.append([spec, s_spec])
        want.append((d, m))
    d, m = pair_sum(want)
    return Request("series", {"items": items}, ("pair", d, m), size=n)


def _limit(rng):
    spec, d = _dim(rng)
    while d == D0:
        spec, d = _dim(rng)
    base = Fraction(rng.randrange(0, 20), rng.randrange(1, 5))
    prefix = [_pair(rng)[0] for _ in range(rng.randrange(0, 4))]
    kind = rng.choice(("measure", "climb", "constant", "interleave"))
    if kind == "climb":
        want = (d, Measure.of(0))
        tail = {"kind": "climb", "d": spec}
    else:
        want = (d, Measure.of(base))
        geo = ["geometric", rat(Fraction(rng.randrange(1, 9))),
               rat(rng.choice((Fraction(1, 2), Fraction(-1, 3))))]
        tail = {"kind": kind, "d": spec, "m": rat(base), "coeffs": geo}
    return Request("limit", {"prefix": prefix, "tail": tail}, ("pair",) + want,
                   size=len(prefix) + 1)


def _cantor(rng):
    docs, terms = [], []
    for k in range(rng.randint(1, 3)):
        s = rng.choice((Fraction(1, 2), Fraction(2, 5), Fraction(3, 4),
                        Fraction(5, 7), Fraction(1, 10), Fraction(7, 5)))
        docs.append({"cantor": {"t": rat(4 * k + Fraction(1, 4)),
                                "s": rat(s)}})
        terms.append(("pow", s, DC, Fraction(1)))
    text = json.dumps(docs[0] if len(docs) == 1 else {"union": docs})
    return Request("cantor", {"a": text}, ("pair", DC, Measure.real(*terms)),
                   size=len(docs))


def _cantor_doc(rng):
    s = rng.choice((Fraction(1), Fraction(1, 3), Fraction(2, 5),
                    Fraction(3, 4)))
    t = Fraction(rng.randrange(-8, 9), 4)
    return json.dumps({"cantor": {"t": rat(t), "s": rat(s)}}), s


def _box(rng):
    text, _ = _cantor_doc(rng)
    hi = rng.randint(4, 10)
    return Request("box", {"a": text, "depths": [1, hi]}, ("contains", DC),
                   size=hi)


def _premeasure(rng):
    text, s = _cantor_doc(rng)
    spec, d = _dim(rng)
    k = rng.randint(1, 8)
    ref = Measure.real(("pow", s / 3 ** k, d, Fraction(2) ** k))
    return Request("premeasure", {"a": text, "d": spec, "depth": k},
                   ("contains", ref), size=k)


def _quad(rng):
    lo = Fraction(rng.randrange(-4, 4))
    hi = lo + rng.randint(1, 4)
    coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
              for _ in range(rng.randint(1, 4))]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    f = json.dumps({"terms": [{"set": {"interval": [rat(lo), rat(hi)]},
                               "expr": {"poly": [rat(c) for c in coeffs]}}]})
    a = lo + Fraction(rng.randrange(0, 4), 4)
    b = a + Fraction(rng.randrange(1, 8), 4)
    cut_a, cut_b = max(a, lo), min(b, hi)
    exact = Fraction(0)
    if cut_a < cut_b:
        anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
        ev = lambda x: sum((c * x ** i for i, c in enumerate(anti)),
                           Fraction(0))
        exact = ev(cut_b) - ev(cut_a)
    panels = rng.choice((16, 32, 64, 128))
    region = json.dumps({"interval": [rat(a), rat(b)]})
    # the error bound, not precision, sets the width: no width limit
    return Request("quad", {"f": f, "on": region, "panels": panels},
                   ("contains", Measure.of(exact), None), size=panels)


def _convex(rng):
    if rng.random() < 0.6:
        # the corners of a square and small squares inside it, apart
        L = rng.randint(6, 12)
        atoms = [{"points2d": [[0, 0], [L, 0], [0, L], [L, L]]}]
        area = Fraction(0)
        for i in range(rng.randint(1, 4)):
            x, y = 1 + 2 * (i % 2), 1 + 2 * (i // 2)
            w = Fraction(rng.randint(1, 3), 4)
            atoms.append({"polygon": [[rat(x), rat(y)], [rat(x + w), rat(y)],
                                      [rat(x + w), rat(y + w)],
                                      [rat(x), rat(y + w)]]})
            area += w * w
        want = (Dim(Fraction(2)), Measure.of(L * L - area))
    else:
        # collinear segments along (3, 4): lengths are multiples of 5
        atoms, t, covered = [], Fraction(0), Fraction(0)
        for _ in range(rng.randint(2, 5)):
            gap = Fraction(rng.randint(1, 4), 2)
            run = Fraction(rng.randint(1, 4), 2)
            atoms.append({"segment": [[rat(3 * (t + gap)), rat(4 * (t + gap))],
                                      [rat(3 * (t + gap + run)),
                                       rat(4 * (t + gap + run))]]})
            t += gap + run
            covered += run
        atoms.append({"points2d": [[0, 0]]})
        want = (D1, Measure.of(5 * (t - covered)))
    rng.shuffle(atoms)
    return Request("convex", {"a": json.dumps({"planar": atoms})},
                   ("pair",) + want, size=len(atoms))


def _refuse_add(rng):
    spec, d = _dim(rng)
    return Request("add", {"a": [spec, "inf"], "b": [spec, "-inf"]},
                   ("refused", ("UndefinedSum",)), size=2)


def _refuse_sum(rng):
    spec, d = max(DIMS, key=lambda x: x[1].value())
    items = [_pair(rng, inf_share=0.0)[0] for _ in range(rng.randint(2, 8))]
    items += [[spec, "inf"], [spec, "-inf"]]
    rng.shuffle(items)
    return Request("sum", {"items": items}, ("refused", ("UndefinedSum",)),
                   size=len(items))


_BUILD = {
    "add": _add,
    "sum": _sum,
    "cmp": _cmp,
    "dh_pairs": _dh_pairs,
    "series": _series,
    "series_frac": lambda rng: _series(rng, fractional=True),
    "limit": _limit,
    "cantor": _cantor,
    "box": _box,
    "premeasure": _premeasure,
    "quad": _quad,
    "convex": _convex,
    "refuse_add": _refuse_add,
    "refuse_sum": _refuse_sum,
}


def plan(rng: random.Random, n: int):
    slots = []
    for _ in range(max(1, -(-n // BLOCK))):
        block = [op for op, share in MIX for _ in range(share)]
        rng.shuffle(block)
        slots.extend(block)
    return slots[:n]


def generate(rng: random.Random, n: int):
    return [_BUILD[op](rng) for op in plan(rng, n)]
