"""Document grammar: parsing, canonical printing, round trips, error paths."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff import docio, setalg
from hausdorff._numeric import _RATIONAL, Fraction, parse_rational
from hausdorff.checks import _rand_cells, _rand_function, _rand_set
from hausdorff.deficiency import ConvexPolygon, PlanarSet, Points2D, Segment
from hausdorff.docio import (pair_payload, parse_document, parse_function,
                             parse_planar, print_document)
from hausdorff.errors import (HausdorffError, NotRepresentable, ParseError,
                              ValidationError)
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


def _normalize_calls(doc):
    """(the parsed set, how often parsing it called normalize)."""
    calls = 0
    normalize = setalg.normalize

    def counting(atoms):
        nonlocal calls
        calls += 1
        return normalize(atoms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setalg, "normalize", counting)
        patch.setattr(docio, "normalize", counting)
        return parse_document(doc), calls


def test_a_union_normalizes_once_and_its_leaves_not_at_all():
    leaves = [{"points": [3, "7/2"]}, {"interval": [0, 1], "delete": ["1/2"]},
              {"interval": ["1/2", 2]}, {"cantor": {"t": 4, "s": "1/3"}},
              {"seq": {"kind": "harmonic", "a": 6, "b": 1}},
              {"seq": {"kind": "geometric", "a": 8, "b": -1, "q": "1/3"}},
              {"points": []}, {"points": [6, "13/2", 9]}]
    got, calls = _normalize_calls(json.dumps({"union": leaves}))
    assert calls == 1
    assert got == RepSet.of(*(parse_document(json.dumps(leaf)).atoms[0]
                              for leaf in leaves if leaf != {"points": []}))
    for leaf in leaves:
        got, calls = _normalize_calls(json.dumps(leaf))
        assert calls == 0 and len(got.atoms) == (leaf != {"points": []})
    # each union level normalizes once
    nested = {"union": [{"union": leaves[:3]}, {"union": leaves[3:]}]}
    assert _normalize_calls(json.dumps(nested))[1] == 3


def test_a_nested_union_refuses_where_its_own_level_does():
    # a limit inside a Cantor copy refuses; an interval over the copy and
    # the limit turns the flat union into one that answers, but not a
    # nested union that meets the copy and the limit alone
    cantor = {"cantor": {"t": 0, "s": 1}}
    seq = {"seq": {"kind": "harmonic", "a": "1/4", "b": 1}}
    interval = {"interval": [0, 1]}
    flat = parse_document(json.dumps({"union": [cantor, seq, interval]}))
    assert flat.render() == "[0, 1] u {5/4}"
    nested = parse_document(json.dumps(
        {"union": [{"union": [cantor, interval]}, seq]}))
    assert nested == flat
    for doc in ({"union": [cantor, seq]},
                {"union": [{"union": [cantor, seq]}, interval]},
                {"union": [{"union": [cantor]}, seq, {"points": [5]}]}):
        with pytest.raises(NotRepresentable,
                           match="a sequence accumulating inside a Cantor"):
            parse_document(json.dumps(doc))


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


def test_booleans_and_zero_denominators_are_not_rationals():
    with pytest.raises(ParseError, match="booleans are not rationals"):
        parse_document('{"interval": [0, true]}')
    with pytest.raises(ParseError, match="not a rational: '1/0'"):
        parse_document('{"interval": [0, "1/0"]}')


@pytest.mark.parametrize("text", ["0.5", "1e3", "1e10000000"])
def test_decimal_and_exponent_strings_rejected(text):
    # "1e10000000" would otherwise expand to a 33-million-bit integer
    with pytest.raises(ParseError, match="not a rational"):
        parse_document(json.dumps({"interval": [0, text]}))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError, match="line 1, column"):
        parse_document('{"interval": [0')


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="more digits than int"):
        parse_document('{"interval": [0, ' + "1" * 5000 + ']}')


def _parse_rational_by_gcd(text):
    """parse_rational's string branch as it was: every literal went through
    Fraction(p, q), an integer as p/1."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is not None:
        try:
            return F(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"not a rational: {text!r}")


def test_integer_literals_parse_as_through_a_gcd():
    # an integer literal skips the gcd of Fraction(p, 1); the values and
    # every refusal text stay those of the old expression
    rng = random.Random(34)

    def digits(n):
        return str(rng.randrange(10 ** (n - 1) if n > 1 else 0, 10 ** n))
    texts = ["0", "-0", "+0", "0/5", "-0/3", "1/0", "-7/0", " 12 ", "\t-3/4\n",
             "6/4", "00012", "-6/-4", "", " ", "+", "1/", "1" * 5000,
             "-" + "9" * 4301, "1/" + "3" * 5000]
    for _ in range(400):
        sign = rng.choice(["", "-", "+"])
        p = digits(rng.choice([1, 2, 5, 20, 400]))
        form = rng.randrange(3)
        if form == 0:
            text = sign + p
        elif form == 1:
            text = f"{sign}{p}/{digits(rng.choice([1, 3, 400]))}"
        else:
            text = f"{sign}{p}/0"
        pad = rng.choice(["", " ", "\t", "\n "])
        texts.append(pad + text + pad)
    for text in texts:
        try:
            want = _parse_rational_by_gcd(text)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                parse_rational(text)
            assert str(got.value) == str(exc)
            continue
        got = parse_rational(text)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)

    # inputs that are not plain strings keep their values, types and
    # refusal texts too; an int past the digit limit never becomes a string
    class Int(int):
        pass

    class Str(str):
        pass
    big = 10 ** 4400 + 3
    for value, want in [(-7, (-7, 1)), (0, (0, 1)), (-big, (-big, 1)),
                        (Int(-5), (-5, 1)), (Int(big), (big, 1)),
                        (Str(" -6/4 "), (-3, 2)), (Str("7"), (7, 1))]:
        got = parse_rational(value)
        assert type(got) is Fraction and type(got.numerator) is int
        assert (got.numerator, got.denominator) == want
    plain = F(-6, 4)
    assert parse_rational(plain) is plain  # a plain Fraction passes as is
    for value, text in [
            (True, "booleans are not rationals"),
            (False, "booleans are not rationals"),
            (1.5, "floats are not accepted, write a rational string: 1.5"),
            (0.0, "floats are not accepted, write a rational string: 0.0"),
            (None, "not a rational: None"), ([1], "not a rational: [1]"),
            ([], "not a rational: []"), (Str("x"), "not a rational: 'x'")]:
        with pytest.raises(ValidationError) as got:
            parse_rational(value)
        assert str(got.value) == text


def test_every_empty_deletion_spelling_gives_one_atom():
    kinds = [
        (lambda **kw: Interval(0, 1, **kw), '{"interval": [0, 1]', "2",
         "is outside the interval"),
        (lambda **kw: CantorAffine(0, 1, **kw), '{"cantor": {}', "1/2",
         "is not in the set"),
        (lambda **kw: CountableSeq(HARMONIC, 0, 1, **kw),
         '{"seq": {"kind": "harmonic"}', "2", "is not in the sequence"),
        (lambda **kw: CountableSeq(GEOMETRIC, 0, 1, F(1, 2), **kw),
         '{"seq": {"kind": "geometric"}', "3/4", "is not in the sequence")]
    for make, doc, outside, where in kinds:
        atom = make()
        assert atom.deletions == frozenset()
        spellings = [make(deletions=()), make(deletions=[]),
                     make(deletions=frozenset()),
                     make(deletions=(d for d in ())),
                     parse_document(doc + "}").atoms[0],
                     parse_document(doc + ', "delete": []}').atoms[0]]
        for other in spellings:
            assert other == atom and hash(other) == hash(atom)
            assert repr(other) == repr(atom)
            assert other.deletions == frozenset()
        # a deletion outside the base set still refuses
        for bad in (lambda: make(deletions=[F(outside)]),
                    lambda: parse_document(
                        doc + f', "delete": ["{outside}"]}}')):
            with pytest.raises(ValidationError) as got:
                bad()
            assert str(got.value) == f"deleted point {outside} {where}"
    points = parse_document('{"points": [1, "1/2"], "delete": []}').atoms[0]
    assert points == FinitePoints([F(1, 2), 1])
    assert points.deletions == frozenset()


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
    with pytest.raises(ParseError, match="document nested too deeply"):
        parse_document("[" * 100_000 + "]" * 100_000)
    # the parsers of one document kind check their own shape
    with pytest.raises(ParseError, match="expected an object with terms"):
        parse_function([])
    with pytest.raises(ParseError,
                       match="expected an object with a planar list"):
        parse_planar({})
    with pytest.raises(ValidationError, match="cannot serialize 3"):
        print_document(3)


def _term(expr):
    return {"terms": [{"set": {"interval": [0, 1]}, "expr": expr}]}


@pytest.mark.parametrize("doc, message", [
    ({"interval": [0, 1], "delete": 3}, "set: delete takes a list of points"),
    ({"union": [3]}, "set.union[0]: expected an object"),
    ({"delete": [{"interval": [0, 1]}]}, "set: delete takes [base, removed]"),
    ({"interval": [0, 1], "points": [2]}, "set: expected exactly one of "
     "points/seq/interval/cantor/union/delete"),
    ({"points": [0], "delete": [0]}, "set: point sets delete by omission"),
    ({"points": 3}, "set: points takes a list"),
    ({"interval": [0]}, "set: interval takes [lo, hi]"),
    ({"cantor": 3}, "set: cantor takes an object with t and s"),
    ({"seq": {}}, "set: seq needs a kind"),
    ({"seq": {"kind": "lucas"}}, "set: unknown sequence kind 'lucas'"),
    ({"union": 3}, "set: union takes a list"),
    ({"ball": 3}, "set: unknown set form 'ball'"),
    (_term({"series": {}}), "function.terms[0].expr: series needs a kind"),
    (_term({"series": {"kind": "finite"}}),
     "function.terms[0].expr: finite series needs values"),
    (_term({"series": {"kind": "bessel"}}),
     "function.terms[0].expr: unknown series kind 'bessel'"),
    (_term({"const": 1, "poly": [1]}),
     "function.terms[0].expr: expected one of poly/const/series"),
    (_term({"poly": 3}),
     "function.terms[0].expr: poly takes a coefficient list"),
    (_term({"exp": 1}), "function.terms[0].expr: unknown expression 'exp'"),
    ({"terms": 3}, "function: terms takes a list"),
    ({"terms": [{"set": {"points": [0]}}]},
     "function.terms[0]: each term needs a set and an expr"),
    ({"planar": 3}, "planar: planar takes a list of atoms"),
    ({"planar": [{}]},
     "planar[0]: expected one of points2d/segment/polygon"),
    ({"planar": [{"points2d": 0}]}, "planar[0]: points2d takes a point list"),
    ({"planar": [{"points2d": [[0]]}]}, "planar[0]: a planar point is [x, y]"),
    ({"planar": [{"segment": [[0, 0]]}]},
     "planar[0]: segment takes two endpoints"),
    ({"planar": [{"polygon": 3}]}, "planar[0]: polygon takes a vertex list"),
    ({"planar": [{"disc": 3}]}, "planar[0]: unknown planar atom 'disc'"),
    ([1, 2], "a document is a JSON object"),
])
def test_each_refusal_names_its_place(doc, message):
    with pytest.raises(ParseError) as caught:
        parse_document(json.dumps(doc))
    assert str(caught.value) == message


# -- function documents -------------------------------------------------------

def test_parse_function_terms_and_domain():
    text = ('{"terms": [{"set": {"interval": [0, 1]}, "expr": {"poly": [0, 1]}},'
            ' {"set": {"points": [2]}, "expr": {"const": "1/3"}}],'
            ' "domain": {"interval": [0, 3]}}')
    f = parse_document(text)
    assert isinstance(f, PiecewiseFunction)
    assert f.terms == ((Interval(0, 1), Poly((0, 1))),
                       (FinitePoints([2]), Const(F(1, 3))))
    # a "domain" key is ignored like any other: the terms are the function
    assert f == parse_document(text[:text.index(', "domain"')] + "}")
    assert f.value_at(F(1, 2)) == F(1, 2) and f.value_at(2) == F(1, 3)


def test_parse_function_domain_defaults_to_all():
    # a function document in the form printed with a "domain" key parses,
    # and prints back as its terms alone
    terms = ('{"terms": [{"set": {"interval": ["0", "1"]}, '
             '"expr": {"const": "1"}}]')
    f = parse_document(terms + ', "domain": "all"}')
    assert print_document(f) == terms + "}"
    assert h_integral(f) == HPair.of(1, 1)


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
    PiecewiseFunction([(Interval(0, 2), Const(1))]),
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


# -- the document boundary under fuzzing ---------------------------------------

KEYS = ("points", "interval", "cantor", "seq", "union", "delete", "kind", "a",
        "b", "q", "t", "s", "terms", "set", "expr", "poly", "const", "series",
        "values", "r", "c", "p", "domain", "planar", "points2d", "segment",
        "polygon")
LEAVES = st.one_of(
    st.integers(-9, 9), st.sampled_from(["1/2", "-3/4", "1/0", "2", "x"]),
    st.sampled_from(["harmonic", "geometric", "finite", "pseries", "all"]),
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), kids,
                        max_size=3)),
    max_leaves=12)


@st.composite
def atom_docs(draw, at, lo_open=False, hi_open=False):
    """A valid atom document near the integer at, with deletions; an
    interval may run off to -inf (lo_open) or +inf (hi_open)."""
    kind = draw(st.integers(0, 3))
    ns = draw(st.lists(st.integers(1, 4), max_size=2, unique=True))
    base = at + F(draw(st.integers(-4, 4)), 4)
    if kind == 0:
        ks = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4))
        return {"points": [str(at + F(k, 4)) for k in ks]}
    if kind == 1:
        lo, hi = base, base + F(draw(st.integers(1, 8)), 4)
        dels = [str(lo + (hi - lo) * F(n, 5)) for n in ns]
        return {"interval": [None if lo_open and draw(st.booleans())
                             else str(lo),
                             None if hi_open and draw(st.booleans())
                             else str(hi)], "delete": dels}
    if kind == 2:
        s = draw(st.sampled_from([F(1), F(-1), F(1, 3), F(2), F(-1, 9)]))
        marks = (F(0), F(1), F(1, 3), F(2, 3), F(2, 9))
        dels = [str(base + s * marks[n]) for n in ns]
        return {"cantor": {"t": str(base), "s": str(s)}, "delete": dels}
    b = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(-2)]))
    if draw(st.booleans()):
        dels = [str(base + b / n) for n in ns]
        return {"seq": {"kind": "harmonic", "a": str(base), "b": str(b)},
                "delete": dels}
    q = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)]))
    dels = [str(base + b * q ** n) for n in ns]
    return {"seq": {"kind": "geometric", "a": str(base), "b": str(b),
                    "q": str(q)}, "delete": dels}


def atom_lists(draw):
    """One to four atom documents at offsets 10 apart, so none overlap."""
    n = draw(st.integers(1, 4))
    return [draw(atom_docs(10 * i, i == 0, i == n - 1)) for i in range(n)]


@st.composite
def set_docs(draw):
    docs = atom_lists(draw)
    if len(docs) == 2 and draw(st.booleans()):
        return {"delete": docs}  # the difference form
    return docs[0] if len(docs) == 1 else {"union": docs}


SMALL_RATS = st.integers(-4, 4).map(str) | st.sampled_from(["1/2", "-2/3"])


@st.composite
def function_docs(draw):
    terms = []
    for atom in atom_lists(draw):
        expr = draw(st.one_of(
            st.builds(lambda c: {"const": c}, SMALL_RATS),
            st.builds(lambda c: {"poly": [c]}, SMALL_RATS)))
        if "interval" in atom and draw(st.booleans()):
            expr = {"poly": draw(st.lists(SMALL_RATS, max_size=4))}
        if "seq" in atom and draw(st.booleans()):
            expr = {"series": draw(st.one_of(
                st.builds(lambda a, r: {"kind": "geometric", "a": a, "r": r},
                          SMALL_RATS, st.sampled_from(["0", "1/2", "-1/3"])),
                st.builds(lambda vs: {"kind": "finite", "values": vs},
                          st.lists(SMALL_RATS, max_size=4)),
                st.builds(lambda c, p: {"kind": "pseries", "c": c, "p": p},
                          SMALL_RATS, st.integers(1, 3))))}
        terms.append({"set": atom, "expr": expr})
    doc = {"terms": terms}
    domain = draw(st.sampled_from([None, "all", {"interval": [None, None]}]))
    if domain is not None:
        doc["domain"] = domain
    return doc


PLANAR_ATOMS = (lambda x: {"points2d": [[x, 0], [x + 1, "1/2"]]},
                lambda x: {"segment": [[x, 0], [x + 2, 1]]},
                lambda x: {"polygon": [[x, 0], [x + 2, 0], [x + 1, 2]]})


@st.composite
def planar_docs(draw):
    makers = draw(st.lists(st.sampled_from(PLANAR_ATOMS), min_size=1,
                           max_size=3))
    return {"planar": [make(10 * i) for i, make in enumerate(makers)]}


def _paths(node, path=()):
    """The path of every subtree of a JSON value, the root's first."""
    yield path
    kids = (node.items() if isinstance(node, dict)
            else enumerate(node) if isinstance(node, list) else ())
    for key, kid in kids:
        yield from _paths(kid, path + (key,))


def _node_at(node, path):
    for key in path:
        node = node[key]
    return node


def _replaced(node, path, value):
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(node, dict):
        return dict(node, **{key: _replaced(node[key], rest, value)})
    return node[:key] + [_replaced(node[key], rest, value)] + node[key + 1:]


@st.composite
def mutated(draw, docs):
    """A valid document with one subtree, any one, replaced by an
    arbitrary value, or with the key of one object renamed."""
    doc = draw(docs)
    path = draw(st.sampled_from(list(_paths(doc))))
    if path and isinstance(path[-1], str) and draw(st.integers(0, 3)) == 0:
        parent = _node_at(doc, path[:-1])
        renamed = {draw(st.sampled_from(KEYS)) if k == path[-1] else k: v
                   for k, v in parent.items()}
        return _replaced(doc, path[:-1], renamed)
    # a scalar half the time: most shape checks guard against one
    return _replaced(doc, path, draw(LEAVES | JSON_VALUES))


@pytest.mark.parametrize("nodes", [
    JSON_VALUES, mutated(set_docs()), mutated(function_docs()),
    mutated(planar_docs())], ids=["any", "set", "function", "planar"])
def test_every_json_value_parses_or_refuses_by_name(nodes):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nodes)
    def parses_or_refuses(node):
        try:
            parse_document(json.dumps(node))
        except HausdorffError:
            pass
    parses_or_refuses()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(set_docs(), function_docs(), planar_docs()))
def test_printing_a_parsed_document_parses_back_to_it(doc):
    x = parse_document(json.dumps(doc))
    assert parse_document(print_document(x)) == x
