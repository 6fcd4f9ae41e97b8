"""The engine's Fraction against fractions.Fraction: every operator it
overrides, in both orders, over engine Fractions, plain Fractions and ints
up to 10^400, gives the plain answer; the result is an engine Fraction
whenever both operands are exact, and a float or a bool operand gets the
base class's answer, type included.

The checks are plain functions, so they also run without pytest: call
them on any operands."""

import copy
import decimal
import math
import operator
import pickle
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff._numeric import Fraction

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)


def plain(x):
    """x with every engine Fraction made a plain one."""
    return F(x.numerator, x.denominator) if type(x) is Fraction else x


def outcome(f, *args):
    """What f(*args) gives: its value and type, or its error and text."""
    try:
        value = f(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    # repr tells floats apart where == cannot (nan, -0.0)
    return "gives", type(value), repr(value) if type(value) is float else value


def check_binary(x, y):
    """Each operation on x and y, one of them an engine Fraction."""
    exact = all(type(v) in (int, F, Fraction) for v in (x, y))
    for op in ARITHMETIC + COMPARISONS:
        got, want = outcome(op, x, y), outcome(op, plain(x), plain(y))
        if exact and got[0] == "gives" and op in ARITHMETIC:
            assert got[1] is Fraction, (op, x, y)
            got = got[0], want[1], got[2]
        assert got == want, (op, x, y, got, want)


def check_power(x, k):
    """x ** k for an engine Fraction x, with k an int or a Fraction."""
    got, want = outcome(operator.pow, x, k), outcome(operator.pow, plain(x), k)
    if type(k) in (int, F, Fraction) and want[1] is F:
        assert got[1] is Fraction, (x, k)
        got = got[0], F, got[2]
    assert got == want, (x, k, got, want)


def check_unary(x):
    """Everything of one engine Fraction that a plain one also has."""
    p = plain(x)
    for op in (operator.neg, operator.pos, abs):
        got = op(x)
        assert type(got) is Fraction and got == op(p)
    assert outcome(float, x) == outcome(float, p)
    assert hash(x) == hash(p) == hash(x)  # the second hash is the kept one
    assert (str(x), repr(x), bool(x)) == (str(p), repr(p), bool(p))
    assert (math.floor(x), math.ceil(x), round(x)) == (
        math.floor(p), math.ceil(p), round(p))
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                 copy.deepcopy(x)):
        assert type(twin) is Fraction and twin == p
        assert hash(twin) == hash(p)


def check_constructor(n, d):
    """Fraction(n, d) and Fraction of each one-argument form, as F."""
    got, want = outcome(Fraction, n, d), outcome(F, n, d)
    if want[0] == "gives":
        assert got[1] is Fraction
        got = got[0], F, got[2]
    assert got == want, (n, d, got, want)
    if d:
        p = F(n, d)
        # float() of a Fraction past 1e308 overflows, so a huge p sends 0.5
        for arg in (n, p, Fraction(n, d), str(p),
                    float(p) if abs(p) < 1e300 else 0.5):
            got = Fraction(arg)
            assert type(got) is Fraction and got == F(arg)


HUGE = 10 ** 400
ints = st.one_of(st.integers(-9, 9), st.integers(-HUGE, HUGE))
plains = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.builds(F, st.integers(-HUGE, HUGE), st.integers(1, HUGE)))
engines = plains.map(Fraction)
exacts = st.one_of(engines, plains, ints, st.just(Fraction(0)))
inexacts = st.one_of(st.booleans(), st.floats(), st.floats(-8, 8))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(engines, exacts)
def test_exact_operands_match_fractions(x, y):
    check_binary(x, y)
    check_binary(y, x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(engines, inexacts)
def test_floats_and_bools_take_the_base_code(x, y):
    check_binary(x, y)
    check_binary(y, x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(engines, st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6)),
                          st.builds(Fraction, st.integers(-6, 6)),
                          st.fractions(-3, 3, max_denominator=4),
                          st.booleans(), st.floats(-2, 2)))
def test_powers_match_fractions(x, k):
    check_power(x, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(engines, st.just(Fraction(0)), st.just(Fraction(-1)),
                 st.builds(Fraction, ints)))
def test_one_value_matches_fractions(x):
    check_unary(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ints, st.one_of(ints, st.just(0)))
def test_constructor_matches_fractions(n, d):
    check_constructor(n, d)


def test_zero_divisions_read_as_fractions():
    for x, y in ((Fraction(3, 4), 0), (Fraction(3, 4), F(0)),
                 (Fraction(3, 4), Fraction(0)), (1, Fraction(0)),
                 (F(5, 7), Fraction(0)), (Fraction(0), Fraction(0))):
        check_binary(x, y)
    check_power(Fraction(0), -3)
    check_constructor(7, 0)


def test_engine_values_mix_with_plain_ones():
    x, p = Fraction(1, 3), F(1, 3)
    assert {x: "engine"}[p] == "engine" and {p: "plain"}[x] == "plain"
    assert {Fraction(4, 2): 0}[2] == 0 and hash(Fraction(-1)) == hash(-1)
    assert type(sum([x, p, 1])) is Fraction and sum([x, p, 1]) == F(5, 3)
    assert sorted([Fraction(1, 2), F(1, 3), 0]) == [0, F(1, 3), F(1, 2)]
    assert Fraction(x) is x and Fraction(p) is not p


def test_every_way_of_building_one_hashes_as_fractions():
    # the first hash reads the kept-hash slot, which each way of building
    # an engine Fraction sets; a value built around it would raise here
    made = [Fraction(-1), Fraction(-2, 1), Fraction(7), Fraction(-3, 9),
            Fraction("2/7"), Fraction(" -5/10 "), Fraction(0.375),
            Fraction(decimal.Decimal("-1.25")), Fraction(F(-4, 6)),
            Fraction.from_float(0.1), Fraction.from_float(-1.0),
            Fraction.from_decimal(decimal.Decimal("2.5")),
            Fraction(1, 3) + Fraction(1, 6), -Fraction(1, 3),
            Fraction(2, 3) ** -2, abs(Fraction(-5, 7)),
            pickle.loads(pickle.dumps(Fraction(-1, 2))),
            copy.copy(Fraction(5, 9)), copy.deepcopy(Fraction(-5, 9))]
    for x in made:
        assert type(x) is Fraction, x
        p = F(x.numerator, x.denominator)
        assert hash(x) == hash(p) == hash(x), x
