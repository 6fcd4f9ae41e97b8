"""Layer tracing from outside the engine.

install() replaces the public functions of each layer, in every hausdorff.*
module namespace that binds them, with wrappers that time the call; the
methods Dimension.cmp and ExtReal.cmp are wrapped on their classes.
uninstall() puts the originals back. Nothing under src/ is edited.

Calls into setalg, hintegral, metrics, docio, deficiency and oracle are
recorded as spans (name, start, end, parent span, request id) in flat
arrays. The hot primitives of hvalue and _numeric are only counted and
timed. Self time is a call's duration minus the time of the traced calls
made inside it, so the self times of all traced calls never add up to more
than the wall time they cover.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from collections import defaultdict

# layer -> public functions that get spans; attribute "a.b" means method b
# of class a
SPANNED = {
    "setalg": ("normalize", "union", "diff", "intersect", "symdiff",
               "hmeasure"),
    "hintegral": ("add", "h_integral", "_signed_part", "pos_part",
                  "neg_part", "scalar_mul", "support"),
    "metrics": ("d_H", "d_s", "dH_pairs", "abs_integral",
                "absolutely_integrable", "riesz_fischer_check", "is_cauchy"),
    "docio": ("parse_document", "print_document"),
    "deficiency": ("oscillation", "defi_continuity_osc",
                   "defi_continuity_dist", "defi_continuity_cluster",
                   "defi_even", "reflect_function", "planar_measure",
                   "convex_hull", "defi_convex"),
    "oracle": ("box_dim_estimate", "premeasure_estimate", "quadrature",
               "brute_recompute"),
}
COUNTED = {
    "hvalue": ("Dimension.cmp", "ExtReal.cmp", "hpair_add", "hpair_sum",
               "hpair_series", "hseq_limit", "ext_sum"),
    "_numeric": ("log_interval", "pow_interval", "sqrt_interval"),
}
START_PREC = 64  # Dimension.cmp starts its precision loop here


class Tracer:
    def __init__(self, refusals):
        self.refusals = tuple(refusals)
        self.request = -1
        self.names = []  # name id -> "layer.function"
        self.layer_of = []
        # spans, one entry per array index
        self.s_name = array.array("i")
        self.s_parent = array.array("i")
        self.s_request = array.array("i")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        # aggregates
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.entries = defaultdict(int)  # calls from outside the layer
        self.layer_refusals = defaultdict(int)
        self.extra = defaultdict(int)
        # stack of [name id, start, child time, span index]
        self.stack = []
        self._saved = []

    # -- wrapping ------------------------------------------------------

    def _name_id(self, layer, func):
        self.names.append(f"{layer}.{func.lstrip('_')}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, func, original, spanned):
        nid = self._name_id(layer, func)
        probe = _PROBES.get(f"{layer}.{func}")
        tracer = self

        def wrapper(*args, **kwargs):
            if probe is not None:
                args, note = probe(tracer, args)
            now = time.perf_counter
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = -1
            if spanned:
                span = len(tracer.s_name)
                tracer.s_name.append(nid)
                tracer.s_parent.append(parent[3] if parent else -1)
                tracer.s_request.append(tracer.request)
                tracer.s_start.append(0.0)
                tracer.s_end.append(0.0)
            frame = [nid, 0.0, 0.0, span if spanned else
                     (parent[3] if parent else -1)]
            stack.append(frame)
            outside = parent is None or tracer.layer_of[parent[0]] != layer
            refused = False
            frame[1] = start = now()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                refused = type(exc).__name__ in tracer.refusals
                raise
            finally:
                end = now()
                stack.pop()
                dur = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if outside:
                    tracer.entries[layer] += 1
                    if refused:
                        tracer.layer_refusals[layer] += 1
                if spanned:
                    tracer.s_start[span] = start
                    tracer.s_end[span] = end
            if probe is not None:
                _AFTER.get(f"{layer}.{func}", _noop)(tracer, note, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", func)
        return wrapper

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "hausdorff" or name.startswith("hausdorff.")}
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for layer, funcs in table.items():
                home = mods[f"hausdorff.{layer}"]
                for func in funcs:
                    # a function the engine no longer has reports zeros
                    if "." in func:
                        cls_name, meth = func.split(".")
                        cls = getattr(home, cls_name, None)
                        original = vars(cls).get(meth) if cls else None
                        if original is None:
                            continue
                        self._saved.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(
                            layer, {"Dimension.cmp": "dim_cmp",
                                    "ExtReal.cmp": "ext_cmp"}[func],
                            original, spanned))
                        continue
                    original = getattr(home, func, None)
                    if original is None:
                        continue
                    wrapper = self._wrap(layer, func, original, spanned)
                    for mod in mods.values():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def by_name(self, table):
        out = defaultdict(int)
        for nid, v in table.items():
            out[self.names[nid]] += v
        return out

    def layer_self(self):
        out = defaultdict(float)
        for nid, v in self.self_s.items():
            out[self.layer_of[nid]] += v
        return out

    def write_spans(self, path):
        """Spans as gzip'd text: one line per span, times relative to the
        first span, in microseconds."""
        t0 = self.s_start[0] if len(self.s_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# span name parent request start_us end_us\n")
            fh.write("# names " + " ".join(self.names) + "\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i} {self.s_name[i]} {self.s_parent[i]} "
                         f"{self.s_request[i]} "
                         f"{(self.s_start[i] - t0) * 1e6:.1f} "
                         f"{(self.s_end[i] - t0) * 1e6:.1f}\n")


# -- argument probes: extra counts the per-layer metrics need -------------


def _noop(*_):
    pass


def _probe_normalize(tr, args):
    atoms = [a for a in args[0] if not a.is_empty()]
    tr.extra["normalize.atoms_in"] += len(atoms)
    return (atoms,) + args[1:], atoms


def _after_normalize(tr, atoms, result):
    if len(result.atoms) == len(atoms) and set(result.atoms) == set(atoms):
        tr.extra["normalize.noop"] += 1


def _probe_add(tr, args):
    tr.extra["add.terms_in"] += len(args[0].terms) + len(args[1].terms)
    return args, None


def _probe_dim_cmp(tr, args):
    a, b = args
    tr.extra["dim_cmp.rational"] += not a.logs and not b.logs
    tr.extra["dim_cmp.identical"] += a == b
    return args, None


def _probe_ext_cmp(tr, args):
    a, b = args
    if a.is_finite() and b.is_finite() and not (a.is_exact() and b.is_exact()):
        ia, ib = a.enclosure(), b.enclosure()
        tr.extra["ext_cmp.overlap"] += not (ia.hi < ib.lo or ib.hi < ia.lo)
    return args, None


def _probe_enclosure(tr, args):
    prec = args[-1]
    tr.extra["enclosure.calls"] += 1
    tr.extra["enclosure.escalated"] += prec > START_PREC
    tr.extra["enclosure.max_prec"] = max(tr.extra["enclosure.max_prec"], prec)
    return args, None


_PROBES = {
    "setalg.normalize": _probe_normalize,
    "hintegral.add": _probe_add,
    "hvalue.dim_cmp": _probe_dim_cmp,
    "hvalue.ext_cmp": _probe_ext_cmp,
    "_numeric.log_interval": _probe_enclosure,
    "_numeric.pow_interval": _probe_enclosure,
    "_numeric.sqrt_interval": _probe_enclosure,
}
_AFTER = {"setalg.normalize": _after_normalize}
