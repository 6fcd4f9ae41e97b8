"""The `functions` workload: piecewise function documents over 3-16 cells,
integrated (with and without a region), compared with d_H, split into
positive and negative parts, measured for discontinuity and asymmetry, and
used as the base of point and prefix perturbation sequences.

Each cell [4k, 4k + 3] carries one kind of term, placed so that no two terms
touch: "I" intervals with a constant or a polynomial of degree 1-3, "C"
triadic Cantor sub-copies with a constant, "P" point sets with a constant,
"S" sequences with series values, and "U", an unbounded interval that only
the last cell may hold. Polynomials are built from their roots (rational
ones, and a factor (x - o)**2 - m whose irrational roots may fall inside the
interval), so the generator knows every sign change and integral exactly.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from common import D0, D1, DC, Measure, Request, pair_sum, rat

Q = Fraction(1, 4)
BLOCK = 200
MIX = (
    ("integrate", 50),
    ("integrate_on", 26),
    ("dh", 18),
    ("dh_same", 4),
    ("dh_sym", 4),
    ("pos", 18),
    ("neg", 18),
    ("osc", 14),
    ("even", 14),
    ("rf", 3),
    ("cauchy", 3),
    ("refuse_irrational", 14),
    ("refuse_lh", 8),
    ("refuse_osc", 6),
)
CELLS = (3, 16)
# The base of rf and cauchy, the slowest requests, which set the 99th
# percentile: one cell pattern with one polynomial per interval cell. Their
# cost goes mostly with the number of polynomials, so fixing it keeps that
# percentile from following the seed as much.
SEQ_PATTERN = "ICIS"
SCHEDULE = (Fraction(1, 10), Fraction(1, 1000))
REFUSED_RANGE = (0.12, 0.16)
NON_SQUARES = (2, 3, 5, 6, 7)


# ---------------------------------------------------------------------------
# polynomials, ascending coefficients


def p_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def p_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_integral(p, a, b):
    anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]
    return p_eval(anti, b) - p_eval(anti, a)


class Term:
    """One (atom, expression) term in generator terms."""

    def __init__(self, kind, doc_set, doc_expr, **info):
        self.kind = kind
        self.set = doc_set
        self.expr = doc_expr
        self.info = info

    def doc(self):
        return {"set": self.set, "expr": self.expr}

    # -- exact facts ------------------------------------------------------

    def integral(self, lo=None, hi=None):
        """(Dim, Measure) of the term, optionally cut to [lo, hi]."""
        i = self.info
        if self.kind == "I":
            a, b = i["a"], i["b"]
            if lo is not None:
                a, b = max(a, lo), min(b, hi)
            return (D1, Measure.of(p_integral(i["p"], a, b)))
        if self.kind == "U":
            if lo is not None:
                return (D1, Measure.of(i["c"] * (hi - max(lo, i["a"]))))
            return (D1, Measure.infinite(1 if i["c"] > 0 else -1))
        if self.kind == "C":
            return (DC, Measure.of(i["c"] * i["mass"]))
        if self.kind == "P":
            return (D0, Measure.of(i["c"] * len(i["pts"])))
        return (D0, series_sum(i["series"]))

    def part(self, side):
        """(Dim, Measure) of the integral of max(f, 0) (side 1) or
        min(f, 0) (side -1) over this term, or None when it is empty."""
        i = self.info
        if self.kind == "I":
            total, hit = Fraction(0), False
            for a, b, sgn in regions(i["p"], i["a"], i["b"]):
                if sgn == side:
                    total += p_integral(i["p"], a, b)
                    hit = True
            return (D1, Measure.of(total)) if hit else None
        if self.kind in ("U", "C", "P"):
            if (i["c"] > 0) != (side > 0):
                return None
            return self.integral()
        return series_part(i["series"], side)

    def oscillation(self) -> Measure:
        i = self.info
        if self.kind == "I":
            return Measure.of(abs(p_eval(i["p"], i["a"]))
                              + abs(p_eval(i["p"], i["b"])))
        if self.kind == "U":
            return Measure.of(abs(i["c"]))
        if self.kind == "P":
            return Measure.of(abs(i["c"]) * len(i["pts"]))
        return series_abs_sum(i["series"])


def regions(p, a, b):
    """(lo, hi, sign) pieces of [a, b] between the rational roots of p."""
    roots = sorted({r for r in p.roots if a < r < b})
    bounds = [a] + roots + [b]
    return [(x, y, 1 if p_eval(p, (x + y) / 2) > 0 else -1)
            for x, y in zip(bounds, bounds[1:])]


class RootedPoly(list):
    """Coefficient list that remembers the rational roots it was built from."""
    roots = ()


# ---------------------------------------------------------------------------
# series values: ("finite", values) | ("geo", a, r) | ("pseries", c, p)


def series_doc(s):
    if s[0] == "finite":
        return {"series": {"kind": "finite", "values": [rat(v) for v in s[1]]}}
    if s[0] == "geo":
        return {"series": {"kind": "geometric", "a": rat(s[1]), "r": rat(s[2])}}
    return {"series": {"kind": "pseries", "c": rat(s[1]), "p": rat(s[2])}}


def series_sum(s) -> Measure:
    if s[0] == "finite":
        return Measure.of(sum(s[1], Fraction(0)))
    if s[0] == "geo":
        return Measure.of(s[1] / (1 - s[2]))
    c, p = s[1], s[2]
    if p <= 1:
        return Measure.infinite(1 if c > 0 else -1)
    return Measure.real(("zeta", p, c))


def series_part(s, side):
    if s[0] == "finite":
        vals = [v for v in s[1] if v and (v > 0) == (side > 0)]
        return (D0, Measure.of(sum(vals, Fraction(0)))) if vals else None
    if s[0] == "geo":
        a, r = s[1], s[2]
        if r > 0:
            return (D0, Measure.of(a / (1 - r))) if (a > 0) == (side > 0) \
                else None
        # alternating: even ranks carry the sign of a, odd ranks the other
        even, odd = a / (1 - r * r), a * r / (1 - r * r)
        return (D0, Measure.of(even if (a > 0) == (side > 0) else odd))
    return (D0, series_sum(s)) if (s[1] > 0) == (side > 0) else None


def series_abs_sum(s) -> Measure:
    if s[0] == "finite":
        return Measure.of(sum((abs(v) for v in s[1]), Fraction(0)))
    if s[0] == "geo":
        return Measure.of(abs(s[1]) / (1 - abs(s[2])))
    return series_sum(("pseries", abs(s[1]), s[2]))


# ---------------------------------------------------------------------------
# cells


def _value(rng):
    v = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
    return v if rng.random() < 0.6 else -v


def _poly(rng, o, a, b, irrational_inside):
    """A polynomial of degree 1-3 on [a, b] in the cell at o. With
    irrational_inside, a factor (x - o)**2 - m changes sign inside (a, b);
    otherwise that factor, when present, keeps one sign there."""
    roots = []
    p = [Fraction(_value(rng))]
    if irrational_inside:
        ms = [m for m in NON_SQUARES if a < o + _isqrt_lo(m) and
              o + _isqrt_lo(m) + Fraction(1, 8) < b]
        m = rng.choice(ms)
        p = p_mul(p, [Fraction(o * o - m), -2 * o, Fraction(1)])
        degree_left = rng.randrange(0, 2)
    else:
        degree_left = rng.randrange(1, 4)
        if degree_left >= 2 and rng.random() < 0.3:
            ms = [m for m in NON_SQUARES
                  if not a - 1 <= o + _isqrt_lo(m) <= b]
            if ms:
                m = rng.choice(ms)
                p = p_mul(p, [Fraction(o * o - m), -2 * o, Fraction(1)])
                degree_left -= 2
    for _ in range(degree_left):
        r = o + Fraction(rng.randrange(-4, 16), 4)
        roots.append(r)
        p = p_mul(p, [-r, Fraction(1)])
    out = RootedPoly(p)
    out.roots = tuple(roots)
    return out


def _isqrt_lo(m) -> Fraction:
    """sqrt(m) to within 1/16, from below: enough to place the root."""
    k = 0
    while Fraction(k + 1, 16) ** 2 <= m:
        k += 1
    return Fraction(k, 16)


def _irrational_room(o, a, b) -> bool:
    return any(a < o + _isqrt_lo(m) and o + _isqrt_lo(m) + Fraction(1, 8) < b
               for m in NON_SQUARES)


def cell_terms(rng, k, kind, *, poly_share=0.6, irrational=False,
               pseries=True, lh_break=False, spans=(1, 2)):
    """The terms of cell k; an interval cell holds spans[0] to spans[1]
    intervals."""
    o = Fraction(4 * k)
    if kind == "I":
        terms = []
        j = 0
        for _ in range(rng.randint(*spans)):
            if j > 9:
                break
            j0 = rng.randrange(j, min(j + 3, 10))
            j1 = rng.randrange(j0 + 2, min(j0 + 8, 12) + 1)
            a, b = o + j0 * Q, o + j1 * Q
            want_irr = irrational and not terms and _irrational_room(o, a, b)
            if want_irr or rng.random() < poly_share:
                p = _poly(rng, o, a, b, want_irr)
                expr = {"poly": [rat(c) for c in p]}
            else:
                c = _value(rng)
                p = RootedPoly([c])
                expr = {"const": rat(c)}
            terms.append(Term("I", {"interval": [rat(a), rat(b)]}, expr,
                              a=a, b=b, p=p, irrational=want_irr))
            j = j1 + 1
        return terms
    if kind == "U":
        c = _value(rng)
        return [Term("U", {"interval": [rat(o), None]}, {"const": rat(c)},
                     a=o, c=c)]
    if kind == "C":
        e = rng.choice((-1, 0, 1))
        t, s = o + Q, Fraction(3) ** e
        depth = rng.randrange(0, 3)
        paths = [()] if depth == 0 else rng.choice(
            ([(0,), (1,)], [(0,)], [(1,)], [(0, 1), (1, 0)], [(1, 1)]))
        terms = []
        for path in paths:
            tt, ss = t, s
            for d in path:
                ss = ss / 3
                tt = tt + 2 * ss * d
            c = _value(rng)
            terms.append(Term("C", {"cantor": {"t": rat(tt), "s": rat(ss)}},
                              {"const": rat(c)}, c=c,
                              mass=Fraction(2) ** e / 2 ** len(path)))
        return terms
    if kind == "P":
        pts = sorted({o + Fraction(rng.randrange(0, 25), 8)
                      for _ in range(rng.randrange(1, 4))})
        c = _value(rng)
        return [Term("P", {"points": [rat(x) for x in pts]}, {"const": rat(c)},
                     c=c, pts=pts)]
    # S: a sequence accumulating at o + 1 with series values
    b = rng.choice((Fraction(1), Fraction(2)))
    if rng.random() < 0.5:
        seq = {"kind": "harmonic", "a": rat(o + 1), "b": rat(b)}
        roll = rng.random()
        if roll < 0.5:
            series = ("finite", tuple(_value(rng)
                                      for _ in range(rng.randrange(1, 5))))
        else:
            series = ("geo", _value(rng), rng.choice((Fraction(1, 2),
                                                      Fraction(1, 3))))
    else:
        seq = {"kind": "geometric", "a": rat(o + 1), "b": rat(b),
               "q": rat(rng.choice((Fraction(1, 2), Fraction(1, 3))))}
        if pseries and rng.random() < 0.25:
            series = ("pseries", _value(rng), Fraction(2))
        else:
            series = ("geo", _value(rng), rng.choice(
                (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                 Fraction(-1, 3))))
    if lh_break:
        series = ("pseries", _value(rng), Fraction(1))
    return [Term("S", {"seq": seq}, series_doc(series), series=series)]


def build(rng, n_cells, kinds="IIICPS", allow_u=False, first_kind="I", **kw):
    """A function of n_cells cells. The first cell is an interval cell
    unless first_kind says otherwise, so most answers live at dimension
    one."""
    cells = []
    for k in range(n_cells):
        kind = first_kind if k == 0 else rng.choice(kinds)
        cells.append((k + 1, kind))
    if allow_u:
        cells[-1] = (cells[-1][0], "U")
    terms = []
    for k, kind in cells:
        terms.extend(cell_terms(rng, k, kind, **kw))
    return terms


def fdoc(terms, rng) -> str:
    docs = [t.doc() for t in terms]
    rng.shuffle(docs)
    return json.dumps({"terms": docs})


def _n(rng, lo_hi=CELLS):
    return rng.randint(*lo_hi)


class Sizes:
    """Cell counts spread evenly over their range for each operation, then
    shuffled, so every seed sees the same size profile."""

    def __init__(self, rng, counts):
        self.left = {}
        for op, n in counts.items():
            lo, hi = ((len(SEQ_PATTERN),) * 2 if op in ("rf", "cauchy")
                      else CELLS)
            sizes = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
            rng.shuffle(sizes)
            self.left[op] = sizes

    def take(self, op):
        return self.left[op].pop()


# ---------------------------------------------------------------------------
# requests


def _integrate(rng, n):
    terms = build(rng, n, kinds="IICCPSS", allow_u=rng.random() < 0.1,
                  irrational=rng.random() < 0.3)
    d, m = pair_sum(t.integral() for t in terms)
    return Request("integrate", {"f": fdoc(terms, rng)}, ("pair", d, m),
                   size=len(terms))


def _integrate_on(rng, n):
    terms = build(rng, n, kinds="IICCPSS", allow_u=rng.random() < 0.1,
                  irrational=rng.random() < 0.3)
    region, pairs = [], []
    by_cell = {}
    for t in terms:
        o = _origin(t)
        by_cell.setdefault(o, []).append(t)
    for o, ts in sorted(by_cell.items()):
        kind = ts[0].kind
        roll = rng.random()
        if kind in ("I", "U") and roll < 0.5:
            lo = o + Fraction(2 * rng.randrange(0, 8) + 1, 8)
            hi = lo + Fraction(2 * rng.randrange(1, 6), 8)
            region.append({"interval": [rat(lo), rat(hi)]})
            for t in ts:
                a = t.info["a"]
                b = t.info.get("b")
                if a < hi and (b is None or lo < b):
                    pairs.append(t.integral(lo, hi))
        elif roll < 0.75 and kind != "U":
            region.append({"interval": [rat(o - Fraction(1, 2)),
                                        rat(o + Fraction(7, 2))]})
            pairs.extend(t.integral() for t in ts)
    if not region:
        o = _origin(terms[0])
        region.append({"interval": [rat(o - Fraction(1, 2)),
                                    rat(o + Fraction(7, 2))]})
        pairs.extend(t.integral() for t in by_cell[o])
    d, m = pair_sum(pairs)
    return Request("integrate_on", {"f": fdoc(terms, rng),
                                    "on": json.dumps({"union": region})},
                   ("pair", d, m), size=len(terms))


def _origin(t: Term) -> Fraction:
    i = t.info
    if "a" in i:
        return 4 * (i["a"] // 4)
    if "pts" in i:
        return 4 * (i["pts"][0] // 4)
    body = t.set.get("cantor") or t.set.get("seq")
    return 4 * (Fraction(body.get("t", body.get("a"))) // 4)


def _perturbed(rng, terms):
    """g: f with one or two terms changed, and the exact d_H(f, g)."""
    g = list(terms)
    idx = [i for i, t in enumerate(terms) if t.kind in ("I", "P")]
    changed = rng.sample(idx, min(len(idx), rng.randrange(1, 3)))
    pairs = []
    for i in changed:
        t = terms[i]
        info = dict(t.info)
        if t.kind == "P":
            delta = _value(rng)
            c = info["c"] + delta if info["c"] + delta else info["c"] + 2 * delta
            delta = c - info["c"]
            info["c"] = c
            g[i] = Term("P", t.set, {"const": rat(c)}, **info)
            pairs.append((D0, Measure.of(abs(delta) * len(info["pts"]))))
            continue
        a, b, p = info["a"], info["b"], info["p"]
        if len(p) == 1 and rng.random() < 0.5:
            # constant plus k (x - r): one rational sign change at most
            kk, r = _value(rng), a + Q * rng.randrange(0, int((b - a) / Q) + 1)
            newp = RootedPoly([p[0] - kk * r, kk])
            newp.roots = (r - p[0] / kk,)
            lin = RootedPoly([-kk * r, kk])
            lin.roots = (r,)
            gap = sum(abs(p_integral(lin, x, y)) for x, y, _ in regions(lin, a, b))
        elif len(p) == 1:
            kk = _value(rng)
            newp = RootedPoly([p[0] + kk])
            gap = abs(kk) * (b - a)
        else:
            lam = rng.choice((Fraction(2), Fraction(1, 2), Fraction(-1),
                              Fraction(3, 2)))
            newp = RootedPoly([lam * c for c in p])
            newp.roots = p.roots
            gap = abs(1 - lam) * sum(abs(p_integral(p, x, y))
                                     for x, y, _ in regions(p, a, b))
        info["p"] = newp
        expr = ({"const": rat(newp[0])} if len(newp) == 1
                else {"poly": [rat(c) for c in newp]})
        g[i] = Term("I", t.set, expr, **info)
        pairs.append((D1, Measure.of(gap)))
    return g, pair_sum(pairs)


def _dh(rng, op, n):
    terms = build(rng, n, kinds="IICCPSS")
    if op == "dh_same":
        text = fdoc(terms, rng)
        return Request("dh", {"f": text, "g": fdoc(terms, rng)},
                       ("pair", D0, Measure.of(0)), size=2 * len(terms))
    g, (d, m) = _perturbed(rng, terms)
    return Request(op, {"f": fdoc(terms, rng), "g": fdoc(g, rng)},
                   ("pair", d, m), size=2 * len(terms))


def _part(rng, op, n):
    side = 1 if op == "pos" else -1
    terms = build(rng, n, kinds="IICCPSS", allow_u=rng.random() < 0.1)
    parts = [p for p in (t.part(side) for t in terms) if p is not None]
    d, m = pair_sum(parts)
    return Request(op, {"f": fdoc(terms, rng)}, ("pair", d, m),
                   size=len(terms))


def _osc(rng, n):
    terms = build(rng, n, kinds="IIPSS", allow_u=rng.random() < 0.1)
    m = Measure.of(0)
    for t in terms:
        m = m.plus(t.oscillation())
    return Request("osc", {"f": fdoc(terms, rng)}, ("pair", D0, m),
                   size=len(terms))


def _mirror(t: Term) -> Term:
    """The term of x -> f(-x)."""
    i = dict(t.info)
    if t.kind == "I":
        a, b = i["a"], i["b"]
        p = [c if j % 2 == 0 else -c for j, c in enumerate(i["p"])]
        expr = ({"const": rat(p[0])} if len(p) == 1
                else {"poly": [rat(c) for c in p]})
        return Term("I", {"interval": [rat(-b), rat(-a)]}, expr)
    if t.kind == "U":
        return Term("U", {"interval": [None, rat(-i["a"])]}, t.expr)
    if t.kind == "C":
        body = t.set["cantor"]
        return Term("C", {"cantor": {"t": rat(-Fraction(body["t"])),
                                     "s": rat(-Fraction(body["s"]))}}, t.expr)
    if t.kind == "P":
        return Term("P", {"points": [rat(-x) for x in i["pts"]]}, t.expr)
    body = dict(t.set["seq"])
    body["a"] = rat(-Fraction(body["a"]))
    body["b"] = rat(-Fraction(body["b"]))
    return Term("S", {"seq": body}, t.expr)


def _even(rng, n):
    n = 2 + (n - CELLS[0]) * 6 // (CELLS[1] - CELLS[0])  # 2-8 cells a side
    bump = rng.random() < 0.5
    terms = build(rng, n, kinds="IICCPSS",
                  allow_u=not bump and rng.random() < 0.2)
    docs = terms + [_mirror(t) for t in terms]
    want = (D0, Measure.of(0))
    if bump:
        o = Fraction(4 * (n + 1))
        c = _value(rng)
        docs.append(Term("I", {"interval": [rat(o), rat(o + 1)]},
                         {"const": rat(c)}))
        want = (D1, Measure.of(2 * abs(c)))
    return Request("even", {"f": fdoc(docs, rng)}, ("pair",) + want,
                   size=len(docs))


def limit_index(mass, eps):
    """First n whose tail of perturbation masses stays below eps."""
    n = 1
    while True:
        k, best = n, mass(n)
        while mass(k + 1) > mass(k):
            k += 1
            best = max(best, mass(k))
        if best < eps:
            return n
        n += 1


def _sequence(rng, op, n, variant):
    terms = [t for k, kind in enumerate(SEQ_PATTERN, 1)
             for t in cell_terms(rng, k, kind, poly_share=1.0, spans=(1, 1),
                                 pseries=False)]
    # the ratio sets how many terms get verified; alternate the kind
    prefix, ratio = variant % 2, Fraction(1, 2)
    coeff = rng.choice((Fraction(1), Fraction(-1)))
    o = Fraction(4 * (n + 1))
    if not prefix:
        on_term = rng.random() < 0.5 and terms[0].kind == "I"
        site = (terms[0].info["a"] + Q / 2) if on_term else o + 1
        pert = {"kind": "point", "site": rat(site)}
        mass = lambda k: abs(coeff) * ratio ** k
    else:
        pert = {"kind": "prefix",
                "atom": json.dumps({"seq": {"kind": "harmonic",
                                            "a": rat(o + 1), "b": 1}})}
        mass = lambda k: k * abs(coeff) * ratio ** k
    pert.update(coeff=rat(coeff), ratio=rat(ratio))
    args = {"f": fdoc(terms, rng), "perturbation": pert,
            "schedule": [rat(e) for e in SCHEDULE]}
    if op == "rf":
        want = tuple(limit_index(mass, eps) for eps in SCHEDULE)
        return Request("rf", args, ("value", want), size=len(terms))
    return Request("cauchy", args, ("value", True), size=len(terms))


def _refuse_irrational(rng, n):
    """max(f, 0) is not a catalog function when a polynomial changes sign
    at an irrational point."""
    terms = build(rng, n, kinds="IICCPSS", irrational=True,
                  poly_share=1.0)
    if not any(t.info.get("irrational") for t in terms):
        o = Fraction(4 * (len(terms) + 1))
        m = rng.choice(NON_SQUARES)
        p = p_mul([Fraction(o * o - m), -2 * o, Fraction(1)], [_value(rng)])
        terms.append(Term("I", {"interval": [rat(o), rat(o + 3)]},
                          {"poly": [rat(c) for c in p]}))
    op = rng.choice(("pos", "neg", "dh"))
    args = {"f": fdoc(terms, rng)}
    if op == "dh":
        args["g"] = fdoc(terms, rng)
    return Request(op, args, ("refused", ("NotRepresentable",)),
                   size=len(terms))


def _refuse_lh(rng, n):
    """d_H needs both arguments absolutely integrable: an unbounded
    interval or a harmonic p-series of values is not."""
    if rng.random() < 0.5:
        terms = build(rng, n, kinds="IICCPSS", allow_u=True)
    else:
        # the infinite mass must sit at the top dimension to be seen
        terms = build(rng, n, kinds="PS", first_kind="P")
        terms += cell_terms(rng, n + 1, "S", lh_break=True)
    g = build(rng, _n(rng, (3, 6)), kinds="IICPS", pseries=False)
    return Request("dh", {"f": fdoc(terms, rng), "g": fdoc(g, rng)},
                   ("refused", ("NotInLH",)), size=len(terms) + len(g))


def _refuse_osc(rng, n):
    """Oscillation is undefined on a Cantor piece: it is discontinuous at
    uncountably many points."""
    terms = build(rng, n, kinds="IIPSS") + cell_terms(rng, n + 1, "C")
    return Request("osc", {"f": fdoc(terms, rng)},
                   ("refused", ("NotRepresentable",)), size=len(terms))


_BUILD = {
    "integrate": lambda rng, n, v: _integrate(rng, n),
    "integrate_on": lambda rng, n, v: _integrate_on(rng, n),
    "dh": lambda rng, n, v: _dh(rng, "dh", n),
    "dh_same": lambda rng, n, v: _dh(rng, "dh_same", n),
    "dh_sym": lambda rng, n, v: _dh(rng, "dh_sym", n),
    "pos": lambda rng, n, v: _part(rng, "pos", n),
    "neg": lambda rng, n, v: _part(rng, "neg", n),
    "osc": lambda rng, n, v: _osc(rng, n),
    "even": lambda rng, n, v: _even(rng, n),
    "rf": lambda rng, n, v: _sequence(rng, "rf", n, v),
    "cauchy": lambda rng, n, v: _sequence(rng, "cauchy", n, v),
    "refuse_irrational": lambda rng, n, v: _refuse_irrational(rng, n),
    "refuse_lh": lambda rng, n, v: _refuse_lh(rng, n),
    "refuse_osc": lambda rng, n, v: _refuse_osc(rng, n),
}


def plan(rng: random.Random, n: int):
    slots = []
    for _ in range(max(1, -(-n // BLOCK))):
        block = [op for op, share in MIX for _ in range(share)]
        rng.shuffle(block)
        slots.extend(block)
    return slots[:n]


def generate(rng: random.Random, n: int):
    ops = plan(rng, n)
    sizes = Sizes(rng, {op: ops.count(op) for op in sorted(set(ops))})
    seen, out = {}, []
    for op in ops:
        variant = seen[op] = seen.get(op, -1) + 1
        out.append(_BUILD[op](rng, sizes.take(op), variant))
    return out
