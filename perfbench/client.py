"""The client side of the closed loop: turns one request into calls on the
engine's public API and classifies the outcome.

Documents enter through docio.parse_document, as they do from the command
line. Numeric requests carry plain integers and rationals, from which the
client builds the engine's pair, series and sequence values.
"""

from __future__ import annotations

from fractions import Fraction

from common import REFUSALS

# Bound by load_engine(), after run.py has put the checkout's src/ first on
# the path.
E = None


def load_engine():
    global E
    import types

    from hausdorff import (cli, deficiency, docio, errors, hintegral, hvalue,
                           metrics, oracle, setalg)
    E = types.SimpleNamespace(cli=cli, deficiency=deficiency, docio=docio,
                              errors=errors, hintegral=hintegral,
                              hvalue=hvalue, metrics=metrics, oracle=oracle,
                              setalg=setalg)
    return E


def doc(text):
    return E.docio.parse_document(text)


def execute(req):
    """(status, value): ("ok", answer), ("refused", error name) or
    ("error", description)."""
    try:
        return "ok", OPS[req.op](req.args)
    except E.errors.HausdorffError as exc:
        name = type(exc).__name__
        if name in REFUSALS:
            return "refused", name
        return "error", f"{name}: {exc}"
    except Exception as exc:  # a crash is a failed request, not a stop
        return "error", f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# sets


def _measure(args):
    return E.setalg.hmeasure(doc(args["a"]))


def _ds(args):
    return E.metrics.d_s(doc(args["a"]), doc(args["b"])).value


def _ds_sym(args):
    a, b = doc(args["a"]), doc(args["b"])
    return (E.metrics.d_s(a, b).value, E.metrics.d_s(b, a).value)


def _intersect(args):
    return E.setalg.hmeasure(E.setalg.intersect(doc(args["a"]),
                                                doc(args["b"])))


def _diff(args):
    return E.setalg.hmeasure(E.setalg.diff(doc(args["a"]), doc(args["b"])))


# ---------------------------------------------------------------------------
# functions


def _integrate(args):
    return E.hintegral.h_integral(doc(args["f"]))


def _integrate_on(args):
    return E.hintegral.h_integral(doc(args["f"]), doc(args["on"]))


def _dh(args):
    return E.metrics.d_H(doc(args["f"]), doc(args["g"])).value


def _dh_sym(args):
    f, g = doc(args["f"]), doc(args["g"])
    return (E.metrics.d_H(f, g).value, E.metrics.d_H(g, f).value)


def _pos(args):
    return E.hintegral.h_integral(E.hintegral.pos_part(doc(args["f"])))


def _neg(args):
    return E.hintegral.h_integral(E.hintegral.neg_part(doc(args["f"])))


def _osc(args):
    return E.deficiency.defi_continuity_osc(doc(args["f"]))


def _even(args):
    return E.deficiency.defi_even(doc(args["f"]))


def _perturbation(args):
    base = doc(args["f"])
    p = args["perturbation"]
    coeff, ratio = Fraction(p["coeff"]), Fraction(p["ratio"])
    if p["kind"] == "point":
        return E.metrics.PointPerturbation(base, Fraction(p["site"]), coeff,
                                           ratio)
    atom = doc(p["atom"]).atoms[0]
    return E.metrics.PrefixPerturbation(base, atom, coeff, ratio)


def _schedule(args):
    return [Fraction(e) for e in args["schedule"]]


def _rf(args):
    _, cert = E.metrics.riesz_fischer_check(_perturbation(args),
                                            _schedule(args))
    return tuple(n for _, n in cert.entries)


def _cauchy(args):
    return E.metrics.is_cauchy(_perturbation(args), _schedule(args))


# ---------------------------------------------------------------------------
# numeric


def _dim(spec):
    if spec[0] == "rat":
        return E.hvalue.Dimension.rational(Fraction(spec[1]))
    return E.hvalue.Dimension.log_ratio(spec[1], spec[2])


def _ext(spec):
    if spec == "inf":
        return E.hvalue.POS_INF
    if spec == "-inf":
        return E.hvalue.NEG_INF
    return E.hvalue.ExtReal.of(Fraction(spec))


def _pair(spec):
    return E.hvalue.HPair(_dim(spec[0]), _ext(spec[1]))


def _coeffs(spec):
    h = E.hvalue
    if spec[0] == "geometric":
        return h.Geometric(Fraction(spec[1]), Fraction(spec[2]))
    if spec[0] == "finite":
        return h.FiniteList(Fraction(v) for v in spec[1])
    return h.PSeries(Fraction(spec[1]), Fraction(spec[2]))


def _add(args):
    return E.hvalue.hpair_add(_pair(args["a"]), _pair(args["b"]))


def _sum(args):
    return E.hvalue.hpair_sum([_pair(p) for p in args["items"]])


def _cmp(args):
    return _pair(args["a"]).cmp(_pair(args["b"]))


def _dh_pairs(args):
    return E.metrics.dH_pairs(_pair(args["a"]), _pair(args["b"])).value


def _series(args):
    return E.hvalue.hpair_series([_dim(d) for d, _ in args["items"]],
                                 [_coeffs(c) for _, c in args["items"]])


def _limit(args):
    h = E.hvalue
    t = args["tail"]
    d = _dim(t["d"])
    if t["kind"] == "climb":
        tail = h.ClimbTail(d)
    else:
        base = h.ExtReal.of(Fraction(t["m"]))
        measure = h.MeasureTail(d, _coeffs(t["coeffs"]), base)
        constant = h.ConstantTail(h.HPair(d, base))
        tail = {"measure": measure, "constant": constant,
                "interleave": h.InterleaveTail((measure, constant))}[t["kind"]]
    return h.hseq_limit(h.HSeq(tuple(_pair(p) for p in args["prefix"]), tail))


def _box(args):
    lo, hi = args["depths"]
    return E.oracle.box_dim_estimate(doc(args["a"]), range(lo, hi + 1))[0]


def _premeasure(args):
    return E.oracle.premeasure_estimate(doc(args["a"]), _dim(args["d"]),
                                        args["depth"])


def _quad(args):
    return E.oracle.quadrature(doc(args["f"]), doc(args["on"]).atoms[0],
                               args["panels"])


def _convex(args):
    return E.deficiency.defi_convex(doc(args["a"]))


OPS = {
    "add": _add,
    "sum": _sum,
    "cmp": _cmp,
    "dh_pairs": _dh_pairs,
    "series": _series,
    "limit": _limit,
    "cantor": _measure,
    "box": _box,
    "premeasure": _premeasure,
    "quad": _quad,
    "convex": _convex,
    "integrate": _integrate,
    "integrate_on": _integrate_on,
    "dh": _dh,
    "dh_sym": _dh_sym,
    "pos": _pos,
    "neg": _neg,
    "osc": _osc,
    "even": _even,
    "rf": _rf,
    "cauchy": _cauchy,
    "measure": _measure,
    "ds": _ds,
    "ds_sym": _ds_sym,
    "intersect": _intersect,
    "diff": _diff,
}
