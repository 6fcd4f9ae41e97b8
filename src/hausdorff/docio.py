"""Document input and output.

Sets, functions, and planar scenes travel as small JSON documents whose
numbers are integers or exact rational strings "p/q"; floats are
rejected so no binary rounding sneaks into an exact pipeline.  Parsing
gives back catalog values, printing emits a canonical document, and the
two compose to the identity on every supported value.

A set leaf (points, interval, cantor, seq) parses to its atom as it
stands, and each union gathers the atoms of its members and normalizes
them once; a difference is one diff of its two parsed sets. So a union
nested in a union normalizes on its own first, and refuses where that
does.

Set documents need only the set layer; the integral's and the planar
layer load with the first function or planar document.
"""

import json
from typing import Union

from .errors import ParseError, ValidationError
from ._numeric import Fraction, parse_rational, render_rational
from .hvalue import FiniteList, Geometric, HPair, PSeries
from .setalg import (GEOMETRIC, HARMONIC, Atom, CantorAffine, CountableSeq,
                     FinitePoints, Interval, RepSet, diff, normalize)

__all__ = ["parse_document", "parse_set", "parse_function", "parse_planar",
           "print_document", "pair_payload", "Document"]

# the function and planar classes load with their layers
Document = Union[RepSet, "PiecewiseFunction", "PlanarSet"]


_HALF = Fraction(1, 2)  # the default ratio of a geometric sequence or series


def _rat(node, where: str) -> Fraction:
    try:
        return parse_rational(node)
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # the only other refusal of json.loads
        raise ParseError("a number has more digits than int() takes") from exc
    except RecursionError as exc:
        raise ParseError("document nested too deeply") from exc


# ---------------------------------------------------------------------------
# sets

def _deletions(raw, where: str):
    """The points of a leaf's delete list; () for an empty one."""
    if not isinstance(raw, list):
        raise ParseError(f"{where}: delete takes a list of points")
    return tuple([_rat(p, where + ".delete") for p in raw]) if raw else ()


def parse_set(node, where: str = "set") -> RepSet:
    return RepSet(_set_atoms(node, where))


def _set_atoms(node, where: str) -> tuple:
    """The atoms of a set document in canonical form: a leaf's own atom
    (none for an empty point list), or the atoms of a union or a
    difference, each computed once."""
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    if len(node) == 1:  # a leaf with no delete key, or a difference
        (key, body), = node.items()
        dels = ()
        if key == "delete":
            # difference form: {"delete": [base, removed]}
            if not (isinstance(body, list) and len(body) == 2):
                raise ParseError(f"{where}: delete takes [base, removed]")
            base = parse_set(body[0], where + ".delete[0]")
            removed = parse_set(body[1], where + ".delete[1]")
            return diff(base, removed).atoms
    else:
        keys = [k for k in node if k != "delete"]
        if len(keys) != 1:
            raise ParseError(f"{where}: expected exactly one of "
                             "points/seq/interval/cantor/union/delete")
        key = keys[0]
        body = node[key]
        dels = _deletions(node["delete"], where)
    if key == "points":
        if dels:
            raise ParseError(f"{where}: point sets delete by omission")
        if not isinstance(body, list):
            raise ParseError(f"{where}: points takes a list")
        atom = FinitePoints([_rat(p, where) for p in body])
        return (atom,) if atom.points else ()
    if key == "interval":
        if not (isinstance(body, list) and len(body) == 2):
            raise ParseError(f"{where}: interval takes [lo, hi]")
        lo = None if body[0] is None else _rat(body[0], where)
        hi = None if body[1] is None else _rat(body[1], where)
        return (Interval(lo, hi, dels),)
    if key == "cantor":
        if not isinstance(body, dict):
            raise ParseError(f"{where}: cantor takes an object with t and s")
        return (CantorAffine(_rat(body.get("t", 0), where),
                             _rat(body.get("s", 1), where), dels),)
    if key == "seq":
        if not isinstance(body, dict) or "kind" not in body:
            raise ParseError(f"{where}: seq needs a kind")
        kind = body["kind"]
        a = _rat(body.get("a", 0), where)
        b = _rat(body.get("b", 1), where)
        if kind == "harmonic":
            return (CountableSeq(HARMONIC, a, b, deletions=dels),)
        if kind == "geometric":
            q = _rat(body.get("q", _HALF), where)
            return (CountableSeq(GEOMETRIC, a, b, q, deletions=dels),)
        raise ParseError(f"{where}: unknown sequence kind {kind!r}")
    if key == "union":
        if not isinstance(body, list):
            raise ParseError(f"{where}: union takes a list")
        atoms = []
        for i, sub in enumerate(body):
            atoms.extend(_set_atoms(sub, f"{where}.union[{i}]"))
        # overlap is not an error here: normalization merges
        return normalize(atoms).atoms
    raise ParseError(f"{where}: unknown set form {key!r}")


# ---------------------------------------------------------------------------
# functions

def _parse_series(body, where: str):
    if not isinstance(body, dict) or "kind" not in body:
        raise ParseError(f"{where}: series needs a kind")
    kind = body["kind"]
    if kind == "geometric":
        return Geometric(_rat(body.get("a", 1), where),
                         _rat(body.get("r", _HALF), where))
    if kind == "finite":
        values = body.get("values")
        if not isinstance(values, list):
            raise ParseError(f"{where}: finite series needs values")
        return FiniteList(_rat(v, where) for v in values)
    if kind == "pseries":
        return PSeries(_rat(body.get("c", 1), where),
                       _rat(body.get("p", 2), where))
    raise ParseError(f"{where}: unknown series kind {kind!r}")


def _parse_expr(node, where: str, hintegral):
    if not isinstance(node, dict) or len(node) != 1:
        raise ParseError(f"{where}: expected one of poly/const/series")
    (key, body), = node.items()
    if key == "const":
        return hintegral.Poly((_rat(body, where),))
    if key == "poly":
        if not isinstance(body, list):
            raise ParseError(f"{where}: poly takes a coefficient list")
        return hintegral.Poly([_rat(c, where) for c in body])
    if key == "series":
        return hintegral.SeriesValues(_parse_series(body, where))
    raise ParseError(f"{where}: unknown expression {key!r}")


def parse_function(node, where: str = "function"):
    from . import hintegral
    if not isinstance(node, dict) or "terms" not in node:
        raise ParseError(f"{where}: expected an object with terms")
    raw_terms = node["terms"]
    if not isinstance(raw_terms, list):
        raise ParseError(f"{where}: terms takes a list")
    terms = []
    for i, item in enumerate(raw_terms):
        spot = f"{where}.terms[{i}]"
        if not isinstance(item, dict) or "set" not in item or "expr" not in item:
            raise ParseError(f"{spot}: each term needs a set and an expr")
        atoms = _set_atoms(item["set"], spot + ".set")
        expr = _parse_expr(item["expr"], spot + ".expr", hintegral)
        terms += [(atom, expr) for atom in atoms]
    return hintegral.PiecewiseFunction(terms)


# ---------------------------------------------------------------------------
# planar scenes

def _point2(node, where: str):
    if not (isinstance(node, list) and len(node) == 2):
        raise ParseError(f"{where}: a planar point is [x, y]")
    return (_rat(node[0], where), _rat(node[1], where))


def parse_planar(node, where: str = "planar"):
    from .deficiency import ConvexPolygon, PlanarSet, Points2D, Segment
    if not isinstance(node, dict) or "planar" not in node:
        raise ParseError(f"{where}: expected an object with a planar list")
    body = node["planar"]
    if not isinstance(body, list):
        raise ParseError(f"{where}: planar takes a list of atoms")
    atoms = []
    for i, item in enumerate(body):
        spot = f"{where}[{i}]"
        if not isinstance(item, dict) or len(item) != 1:
            raise ParseError(
                f"{spot}: expected one of points2d/segment/polygon")
        key, payload = next(iter(item.items()))
        if key == "points2d":
            if not isinstance(payload, list):
                raise ParseError(f"{spot}: points2d takes a point list")
            atoms.append(Points2D(_point2(p, spot) for p in payload))
        elif key == "segment":
            if not (isinstance(payload, list) and len(payload) == 2):
                raise ParseError(f"{spot}: segment takes two endpoints")
            atoms.append(Segment(_point2(payload[0], spot),
                                 _point2(payload[1], spot)))
        elif key == "polygon":
            if not isinstance(payload, list):
                raise ParseError(f"{spot}: polygon takes a vertex list")
            atoms.append(ConvexPolygon(_point2(p, spot) for p in payload))
        else:
            raise ParseError(f"{spot}: unknown planar atom {key!r}")
    return PlanarSet(atoms)


# ---------------------------------------------------------------------------
# entry points

def parse_document(text: str) -> Document:
    """Parse a JSON document into a set, a function, or a planar scene,
    deciding by shape."""
    node = _load(text)
    if not isinstance(node, dict):
        raise ParseError("a document is a JSON object")
    try:
        if "terms" in node:
            return parse_function(node)
        if "planar" in node:
            return parse_planar(node)
        return parse_set(node)
    except RecursionError as exc:  # parse_set descends once per level
        raise ParseError("document nested too deeply") from exc


def _set_payload(s: RepSet):
    docs = [_atom_payload(atom) for atom in s.atoms]
    if len(docs) == 1:
        return docs[0]
    return {"union": docs}


def _atom_payload(atom: Atom):
    doc = {}
    if isinstance(atom, FinitePoints):
        return {"points": [render_rational(p) for p in atom.points]}
    if isinstance(atom, Interval):
        doc["interval"] = [None if atom.lo is None else render_rational(atom.lo),
                           None if atom.hi is None else render_rational(atom.hi)]
    elif isinstance(atom, CantorAffine):
        doc["cantor"] = {"t": render_rational(atom.t),
                         "s": render_rational(atom.s)}
    else:  # a sequence
        body = {"kind": atom.family, "a": render_rational(atom.a),
                "b": render_rational(atom.b)}
        if atom.q is not None:
            body["q"] = render_rational(atom.q)
        doc["seq"] = body
    if atom.deletions:
        doc["delete"] = [render_rational(d) for d in sorted(atom.deletions)]
    return doc


def _series_payload(series):
    if isinstance(series, Geometric):
        return {"kind": "geometric", "a": render_rational(series.a),
                "r": render_rational(series.r)}
    if isinstance(series, FiniteList):
        return {"kind": "finite",
                "values": [render_rational(v) for v in series.values]}
    return {"kind": "pseries", "c": render_rational(series.c),
            "p": render_rational(series.p)}


def _expr_payload(expr, hintegral):
    if isinstance(expr, hintegral.Poly) and expr.degree() == 0:
        return {"const": render_rational(expr.coeffs[0])}
    if isinstance(expr, hintegral.Poly):
        return {"poly": [render_rational(c) for c in expr.coeffs]}
    return {"series": _series_payload(expr.series)}


def _function_payload(f, hintegral):
    return {"terms": [{"set": _atom_payload(atom),
                       "expr": _expr_payload(expr, hintegral)}
                      for atom, expr in f.terms]}


def _planar_payload(scene, deficiency):
    docs = []
    for atom in scene.atoms:
        if isinstance(atom, deficiency.Points2D):
            docs.append({"points2d": [[render_rational(x), render_rational(y)]
                                      for x, y in atom.pts]})
        elif isinstance(atom, deficiency.Segment):
            docs.append({"segment": [[render_rational(atom.a[0]),
                                      render_rational(atom.a[1])],
                                     [render_rational(atom.b[0]),
                                      render_rational(atom.b[1])]]})
        else:
            docs.append({"polygon": [[render_rational(x), render_rational(y)]
                                     for x, y in atom.vertices]})
    return {"planar": docs}


def print_document(value) -> str:
    """Canonical JSON for a set, function, planar scene, or result pair;
    parse_document inverts it for the document types."""
    from . import deficiency, hintegral
    if isinstance(value, RepSet):
        payload = _set_payload(value)
    elif isinstance(value, hintegral.PiecewiseFunction):
        payload = _function_payload(value, hintegral)
    elif isinstance(value, deficiency.PlanarSet):
        payload = _planar_payload(value, deficiency)
    elif isinstance(value, HPair):
        payload = pair_payload(value)
    else:
        raise ValidationError(f"cannot serialize {value!r}")
    return json.dumps(payload)


def pair_payload(p: HPair) -> dict:
    return {"d": p.d.render(), "m": p.m.render()}
