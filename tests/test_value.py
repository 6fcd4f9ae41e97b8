"""The value-class helper against dataclasses: the same small classes,
once under `dataclass(frozen=True)` and once under `frozen`, must give
the same reprs, equalities, hashes, defaults, errors and copies."""

import dataclasses

import pytest

from hausdorff import _value
from hausdorff.checks import CheckResult
from hausdorff.config import Config
from hausdorff.errors import ValidationError


def build(decorate, field):
    """The same classes, made by decorate, with field for the extras."""

    @decorate
    class Point:
        x: int
        y: int = 0

    @decorate
    class Twin:  # Point's fields under another name
        x: int
        y: int = 0

    @decorate
    class Result:
        name: str
        trials: int = 1
        skipped: dict = field(default_factory=dict, hash=False)

    @decorate
    class Ordered:
        lo: int
        hi: int

        def __post_init__(self):
            if self.lo > self.hi:
                raise ValueError(f"out of order: {self.lo} > {self.hi}")

    @decorate
    class Parity:
        n: int

        def __repr__(self):
            return f"Parity<{self.n % 2}>"

        def __eq__(self, other):
            return isinstance(other, Parity) and self.n % 2 == other.n % 2

    @decorate
    class Empty:
        pass

    @decorate
    class Nest:
        points: tuple
        by_name: dict

    class Sub(Point):  # not decorated: a Point under another name
        pass

    return Point, Twin, Result, Ordered, Parity, Empty, Nest, Sub


# each module with the classes its decorator made
FAMILIES = ((dataclasses, build(dataclasses.dataclass(frozen=True),
                                dataclasses.field)),
            (_value, build(_value.frozen, _value.field)))


def outcome(f, *args, **kwargs):
    """What f gives: its repr, or its error's class name and text."""
    try:
        return "gives", repr(f(*args, **kwargs))
    except Exception as exc:
        return "raises", type(exc).__name__, str(exc)


def same(f):
    """f(module, *classes) gives the same for both families."""
    (_, want), (_, got) = [(m, f(m, *classes)) for m, classes in FAMILIES]
    assert got == want


def test_reprs_match():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        repr(P(1)), repr(P(1, y=2)), repr(T(x=3)), repr(R("a")),
        repr(R("b", 3, {"x": 1})), repr(O(1, 2)), repr(E()),
        repr(N((P(1), P(2)), {"k": P(3)})), repr(S(4, 5))])


def test_equality_is_within_one_class():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        P(1, 2) == P(1, 2), P(1, 2) == P(1, 3), P(1, 2) == T(1, 2),
        T(1, 2) == P(1, 2), P(1, 2) == S(1, 2), P(1, 2) == (1, 2),
        P(1, 2) != P(1, 2), E() == E(), P(1, 2).__eq__((1, 2)),
        {P(1), P(1), P(2)} == {P(2), P(1)}])



class Never:
    """A value unequal even to itself, as NaN is."""

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__


class Yes:
    """A value whose == answers a string, not a bool."""

    def __eq__(self, other):
        return "yes"

    __hash__ = object.__hash__


def one_field(decorate):
    @decorate
    class Single:
        v: object

    @decorate
    class Other:  # Single's field under another name
        v: object

    return Single, Other


def test_one_field_equality_matches_a_dataclass():
    # == of a one-field class reads the field without a 1-tuple around it,
    # so identity still comes first and the answer is still a bool
    values = [1, 1.0, 2, (1,), None, float("nan"), float("nan"), Never(),
              Never(), Yes(), Yes()]

    def answers(decorate):
        S, O = one_field(decorate)
        pairs = [(S(a), S(b)) for a in values for b in values]
        return ([repr(x == y) for x, y in pairs]
                + [repr(x != y) for x, y in pairs]
                + [repr(S(a) == O(a)) for a in values]
                + [repr(S(a) == a) for a in values]
                + [hash(S(a)) for a in values])

    assert answers(_value.frozen) == answers(
        dataclasses.dataclass(frozen=True))

def test_hashes_match_and_skip_unhashed_fields():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        hash(P(1, 2)), hash(T(1, 2)), hash(E()), hash(O(-1, 0)),
        hash(R("a", 2, {"x": 1})), hash(Par(3)), hash(S(1, 2)),
        hash(R("a", skipped={"x": 1})) == hash(R("a", skipped={"y": 2})),
        R("a", skipped={"x": 1}) == R("a", skipped={"y": 2})])


def test_defaults_factories_and_post_init():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        P(1).y, P.y, hasattr(R, "skipped"), R("a").skipped,
        R("a").skipped is not R("a").skipped,
        outcome(O, 2, 1), outcome(O, 1, 1), outcome(O, hi=3, lo=2)])


def test_constructor_errors_match():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        outcome(P), outcome(P, 1, 2, 3), outcome(P, 1, z=1),
        outcome(P, 1, x=2), outcome(E, 1), outcome(O, 1, 2, 3)])


def test_a_class_keeps_its_own_repr_and_eq():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        repr(Par(3)), Par(3) == Par(5), Par(3) == Par(4), hash(Par(3)),
        hash(Par(3)) == hash(Par(5))])


def test_instances_are_frozen():
    def attempts(m, P, T, R, O, Par, E, N, S):
        p, s = P(1, 2), S(1, 2)
        tried = [outcome(setattr, p, "x", 5), outcome(setattr, p, "z", 5),
                 outcome(delattr, p, "y"), outcome(delattr, p, "z"),
                 outcome(setattr, s, "x", 5), outcome(delattr, s, "y"),
                 repr(p), repr(s)]
        return tried + [m.FrozenInstanceError.__name__,
                        m.FrozenInstanceError.__mro__[1:]]
    same(attempts)


def test_replace_and_asdict():
    same(lambda m, P, T, R, O, Par, E, N, S: [
        repr(m.replace(P(1, 2), y=7)), repr(m.replace(P(1, 2))),
        outcome(m.replace, O(1, 2), lo=5), outcome(m.replace, P(1), z=1),
        m.asdict(N((P(1), [P(2)]), {"k": P(3), "n": 4})),
        m.asdict(R("a", skipped={"x": [1, 2]})),
        [f.name for f in m.fields(R)], [f.name for f in m.fields(P(1))]])


def test_engine_classes_copy_through_the_helper():
    cfg = Config()
    assert _value.replace(cfg, depth_cap=50) == Config(256, 50)
    with pytest.raises(ValidationError, match="depth_cap must be at least 8"):
        _value.replace(cfg, depth_cap=1)
    r = CheckResult("law", True, 3, skipped={"TooLarge": 2})
    assert _value.asdict(r) == {
        "name": "law", "passed": True, "trials": 3, "expected": "",
        "actual": "", "skipped": {"TooLarge": 2}, "skipped_at": {}}
    assert [f.name for f in _value.fields(Config)] == ["precision_bits",
                                                       "depth_cap"]
