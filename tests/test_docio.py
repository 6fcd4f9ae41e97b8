"""Document grammar: parsing, canonical printing, round trips, error paths."""

import json
import random
from fractions import Fraction as F

import pytest

from hausdorff.checks import _rand_cells, _rand_function, _rand_set
from hausdorff.deficiency import ConvexPolygon, PlanarSet, Points2D, Segment
from hausdorff.docio import pair_payload, parse_document, print_document
from hausdorff.errors import HausdorffError, ParseError, ValidationError
from hausdorff.hintegral import (ALL_REALS, Const, PiecewiseFunction, Poly,
                                 SeriesValues, _signed_part, add, h_integral,
                                 support)
from hausdorff.metrics import d_H
from hausdorff.oracle import quadrature
from hausdorff.hvalue import DIM_CANTOR, FiniteList, Geometric, HPair, PSeries
from hausdorff.setalg import (GEOMETRIC, HARMONIC, CantorAffine, CountableSeq,
                              FinitePoints, Interval, RepSet, diff)


# -- set documents ------------------------------------------------------------

def test_parse_interval():
    assert parse_document('{"interval": [0, 1]}') == RepSet.of(Interval(0, 1))


def test_parse_rational_strings():
    got = parse_document('{"interval": ["-1/2", "3/2"]}')
    assert got == RepSet.of(Interval(F(-1, 2), F(3, 2)))


def test_parse_unbounded_interval():
    assert parse_document('{"interval": [null, 0]}') == RepSet.of(Interval(None, 0))
    assert parse_document('{"interval": [0, null]}') == RepSet.of(Interval(0, None))


def test_parse_points():
    got = parse_document('{"points": [0, "1/3", 2]}')
    assert got == RepSet.of(FinitePoints([0, F(1, 3), 2]))


def test_parse_cantor_defaults():
    assert parse_document('{"cantor": {}}') == RepSet.of(CantorAffine(0, 1))
    got = parse_document('{"cantor": {"t": 1, "s": "1/3"}}')
    assert got == RepSet.of(CantorAffine(1, F(1, 3)))


def test_parse_seq_defaults():
    got = parse_document('{"seq": {"kind": "harmonic"}}')
    assert got == RepSet.of(CountableSeq(HARMONIC, 0, 1))
    got = parse_document('{"seq": {"kind": "geometric", "a": 2, "b": 3}}')
    assert got == RepSet.of(CountableSeq(GEOMETRIC, 2, 3, F(1, 2)))


def test_union_merges_overlapping_intervals():
    got = parse_document('{"union": [{"interval": [0, 1]},'
                         ' {"interval": ["1/2", "3/2"]}]}')
    assert got == RepSet.of(Interval(0, F(3, 2)))


def test_sibling_delete_removes_points_from_atom():
    got = parse_document('{"interval": [0, 1], "delete": ["1/2"]}')
    assert got == RepSet.of(Interval(0, 1, deletions=[F(1, 2)]))


def test_sole_key_delete_is_set_difference():
    got = parse_document('{"delete": [{"interval": [0, 2]}, {"interval": [0, 1]}]}')
    want = diff(RepSet.of(Interval(0, 2)), RepSet.of(Interval(0, 1)))
    assert got == want and not got.member(1) and got.member(2)


def test_points_reject_sibling_delete():
    with pytest.raises(ParseError, match="omission"):
        parse_document('{"points": [0, 1], "delete": [0]}')


def test_floats_rejected_everywhere():
    with pytest.raises(ParseError, match="rational"):
        parse_document('{"interval": [0, 0.5]}')


@pytest.mark.parametrize("text", ["0.5", "1e3", "1e10000000"])
def test_decimal_and_exponent_strings_rejected(text):
    # "1e10000000" would otherwise expand to a 33-million-bit integer
    with pytest.raises(ParseError, match="not a rational"):
        parse_document(json.dumps({"interval": [0, text]}))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError, match="line 1, column"):
        parse_document('{"interval": [0')


def test_shape_error_names_the_path():
    with pytest.raises(ParseError, match="not a rational"):
        parse_document('{"interval": [0, "oops"]}')
    with pytest.raises(ParseError):
        parse_document('{"union": [{"interval": [0]}]}')


def test_unknown_document_shape():
    with pytest.raises(ParseError):
        parse_document('{"blob": 3}')
    with pytest.raises(ParseError):
        parse_document('[1, 2]')


# -- function documents -------------------------------------------------------

def test_parse_function_terms_and_domain():
    text = ('{"terms": [{"set": {"interval": [0, 1]}, "expr": {"poly": [0, 1]}},'
            ' {"set": {"points": [2]}, "expr": {"const": "1/3"}}],'
            ' "domain": {"interval": [0, 3]}}')
    f = parse_document(text)
    assert isinstance(f, PiecewiseFunction)
    assert f.terms == ((Interval(0, 1), Poly((0, 1))),
                       (FinitePoints([2]), Const(F(1, 3))))
    assert f.domain == RepSet.of(Interval(0, 3))
    assert f.value_at(F(1, 2)) == F(1, 2) and f.value_at(2) == F(1, 3)


def test_parse_function_domain_defaults_to_all():
    f = parse_document('{"terms": [{"set": {"interval": [0, 1]},'
                       ' "expr": {"const": 1}}]}')
    assert f.domain is ALL_REALS


def test_zero_poly_collapses_to_zero_function():
    f = parse_document('{"terms": [{"set": {"interval": [0, 1]},'
                       ' "expr": {"poly": [0, 0]}}]}')
    assert f.terms == ()


def test_parse_series_expression():
    text = ('{"terms": [{"set": {"seq": {"kind": "harmonic"}},'
            ' "expr": {"series": {"kind": "geometric", "a": "1/2", "r": "1/2"}}}]}')
    f = parse_document(text)
    ((atom, expr),) = f.terms
    assert isinstance(atom, CountableSeq) and isinstance(expr, SeriesValues)
    assert expr.series == Geometric(F(1, 2), F(1, 2))


def test_series_on_interval_rejected():
    text = ('{"terms": [{"set": {"interval": [0, 1]},'
            ' "expr": {"series": {"kind": "finite", "values": [1]}}}]}')
    with pytest.raises((ParseError, ValidationError)):
        parse_document(text)


def test_overlapping_terms_rejected():
    text = ('{"terms": [{"set": {"interval": [0, 2]}, "expr": {"const": 1}},'
            ' {"set": {"interval": [1, 3]}, "expr": {"const": 2}}]}')
    with pytest.raises(ValidationError, match="overlap"):
        parse_document(text)


# -- planar documents ----------------------------------------------------------

def test_parse_planar_scene():
    text = ('{"planar": [{"points2d": [[0, 3], [1, "7/2"]]},'
            ' {"segment": [[0, 0], [1, 1]]},'
            ' {"polygon": [[2, 0], [3, 0], [3, 1]]}]}')
    scene = parse_document(text)
    assert isinstance(scene, PlanarSet)
    kinds = tuple(type(a) for a in scene.atoms)
    assert kinds == (Points2D, Segment, ConvexPolygon)


def test_planar_rejects_bad_point():
    with pytest.raises(ParseError):
        parse_document('{"planar": [{"points2d": [[0]]}]}')


# -- canonical printing and round trips ---------------------------------------

SET_SAMPLES = (
    RepSet.of(Interval(0, 1)),
    RepSet.of(Interval(None, 0, deletions=[-1])),
    RepSet.of(FinitePoints([F(-1, 2), 0, 7])),
    RepSet.of(CantorAffine(1, F(1, 3), deletions=[1])),
    RepSet.of(CountableSeq(HARMONIC, 0, 1, deletions=[1])),
    RepSet.of(CountableSeq(GEOMETRIC, -2, 1, F(1, 3))),
    RepSet.of(Interval(0, 1), FinitePoints([2]), CantorAffine(3, 1)),
)


@pytest.mark.parametrize("s", SET_SAMPLES, ids=range(len(SET_SAMPLES)))
def test_set_round_trip(s):
    assert parse_document(print_document(s)) == s


FN_SAMPLES = (
    PiecewiseFunction([]),
    PiecewiseFunction([(Interval(0, 1), Poly((0, 1)))]),
    PiecewiseFunction([(Interval(-1, 0), Const(F(2, 3))),
                       (FinitePoints([5]), Const(-1))]),
    PiecewiseFunction([(CountableSeq(HARMONIC, 0, 1),
                        SeriesValues(PSeries(F(1, 4), 2)))]),
    PiecewiseFunction([(CountableSeq(GEOMETRIC, 0, 1, F(1, 2)),
                        SeriesValues(FiniteList((1, 0, -2))))]),
    PiecewiseFunction([(Interval(0, 2), Const(1))],
                      domain=RepSet.of(Interval(0, 4))),
)


@pytest.mark.parametrize("f", FN_SAMPLES, ids=range(len(FN_SAMPLES)))
def test_function_round_trip(f):
    assert parse_document(print_document(f)) == f


def test_planar_round_trip():
    scene = PlanarSet([Points2D([(0, 3), (F(1, 2), 4)]),
                       Segment((0, 0), (1, 1)),
                       ConvexPolygon([(2, 0), (3, 0), (3, 1)])])
    assert parse_document(print_document(scene)) == scene


def test_random_round_trips():
    rng = random.Random(41)
    for _ in range(100):
        s = _rand_set(rng, _rand_cells(rng))
        assert parse_document(print_document(s)) == s
        f = _rand_function(rng, _rand_cells(rng))
        assert parse_document(print_document(f)) == f


def test_pair_payload_renders_exactly():
    p = HPair.of(DIM_CANTOR, 1)
    assert pair_payload(p) == {"d": "log(2)/log(3)", "m": "1"}
    assert json.loads(print_document(p)) == {"d": "log(2)/log(3)", "m": "1"}


# -- one expression for a constant ---------------------------------------------

def _term_doc(atom_doc, expr_doc):
    return json.dumps({"terms": [{"set": atom_doc, "expr": expr_doc}]})


def test_a_constant_is_the_degree_zero_poly_on_every_atom():
    for atom_doc in ({"cantor": {}}, {"points": [0, 1]},
                     {"seq": {"kind": "harmonic", "a": 0, "b": 1}}):
        as_poly = parse_document(_term_doc(atom_doc, {"poly": [3]}))
        assert as_poly == parse_document(_term_doc(atom_doc, {"const": 3}))
        assert json.loads(print_document(as_poly))["terms"][0]["expr"] \
            == {"const": "3"}
    cantor = parse_document(_term_doc({"cantor": {}}, {"poly": [3]}))
    assert h_integral(cantor).render() == "(log(2)/log(3), 3)"
    with pytest.raises(ValidationError,
                       match="polynomial terms live on interval atoms only"):
        parse_document(_term_doc({"cantor": {}}, {"poly": [3, 1]}))


def _respell(node, rng):
    """The same document with each constant spelled at random as const or
    as a one-coefficient poly, and each finite value list padded with
    zeros."""
    if isinstance(node, list):
        return [_respell(v, rng) for v in node]
    if not isinstance(node, dict):
        return node
    if set(node) == {"const"} and rng.random() < 0.5:
        return {"poly": [node["const"]]}
    if node.get("kind") == "finite":
        node = dict(node, values=node["values"] + [0] * rng.randrange(1, 4))
    return {k: _respell(v, rng) for k, v in node.items()}


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except HausdorffError as exc:
        return type(exc).__name__, str(exc)


def _answers(f, others, regions):
    out = [support(f), _outcome(_signed_part, f),
           _outcome(quadrature, f, Interval(-4, 6), 8)]
    out += [_outcome(h_integral, f, r) for r in regions]
    out += [_outcome(lambda g: d_H(f, g).value, g) for g in others]
    return out


def test_respelling_constants_and_padding_values_changes_no_answer():
    rng = random.Random(2020)
    done = 0
    while done < 40:
        f = _rand_function(rng, _rand_cells(rng))
        if rng.random() < 0.5:
            # sums cancel polynomial terms down to constants
            try:
                f = add(f, _rand_function(rng, _rand_cells(rng)))
            except HausdorffError:
                continue
        text = json.dumps(_respell(json.loads(print_document(f)), rng))
        g = parse_document(text)
        assert g == f
        assert print_document(g) == print_document(f)
        others = [_rand_function(rng, _rand_cells(rng)) for _ in range(2)]
        regions = [ALL_REALS, _rand_set(rng, _rand_cells(rng))]
        assert _answers(g, others, regions) == _answers(f, others, regions)
        done += 1
