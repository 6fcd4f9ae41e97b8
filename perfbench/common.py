"""Shared pieces of the benchmark: the request record, rational helpers for
building JSON documents, and the high-precision references the answer
checks compare against.

Generators never call the engine. Every expected value here is derived
from how the generator built its input, so a wrong answer from the
engine cannot leak into its own reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import mpmath

REF_DPS = 80  # decimal digits for the mpmath references
EQUAL_TOL = mpmath.mpf(10) ** -60  # two symbolic dimensions this close are equal

# Refusals the engine names on purpose. Anything else is a failure.
REFUSALS = ("NotRepresentable", "NotInLH", "TooLarge", "UndefinedSum")


def rat(x) -> Any:
    """A rational as a document number: an int or a "p/q" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# expected outcomes


@dataclass(frozen=True)
class Dim:
    """A dimension rat + sum(coef * log(p)/log(q)), as the generator knows it."""

    rat: Fraction = Fraction(0)
    logs: tuple = ()  # ((p, q, coef), ...)

    def is_rational(self) -> bool:
        return not self.logs

    def value(self):
        with mpmath.workdps(REF_DPS):
            v = _mp(self.rat)
            for p, q, c in self.logs:
                v += _mp(c) * mpmath.log(p) / mpmath.log(q)
            return v


D0 = Dim(Fraction(0))
D1 = Dim(Fraction(1))
DC = Dim(Fraction(0), ((2, 3, Fraction(1)),))  # log(2)/log(3)


def dim_cmp(a: Dim, b: Dim) -> int:
    if a == b:
        return 0
    with mpmath.workdps(REF_DPS):
        gap = a.value() - b.value()
    if abs(gap) < EQUAL_TOL:
        return 0
    return 1 if gap > 0 else -1


def ref_term(term):
    """Value of one real-valued reference term at REF_DPS digits.

    ("pow", base, Dim, coef): coef * base ** dim
    ("zeta", p, coef): coef * zeta(p)
    ("sqrt", q, coef): coef * sqrt(q)
    """
    kind, x, y, *rest = term
    with mpmath.workdps(REF_DPS):
        if kind == "pow":
            coef = rest[0]
            return _mp(coef) * mpmath.power(_mp(x), y.value())
        if kind == "zeta":
            return _mp(y) * mpmath.zeta(_mp(x))
        if kind == "sqrt":
            return _mp(y) * mpmath.sqrt(_mp(x))
    raise ValueError(f"unknown reference term {kind!r}")


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class Measure:
    """An expected measure: exact rational, signed infinity, or a real that
    the engine may only enclose (an exact part plus reference terms)."""

    kind: str  # "exact", "inf", "real"
    exact: Fraction = Fraction(0)
    sign: int = 1
    terms: tuple = ()

    @staticmethod
    def of(x) -> "Measure":
        return Measure("exact", Fraction(x))

    @staticmethod
    def infinite(sign: int = 1) -> "Measure":
        return Measure("inf", sign=sign)

    @staticmethod
    def real(*terms, exact=Fraction(0)) -> "Measure":
        return Measure("real", Fraction(exact), terms=tuple(terms))

    def ref(self):
        with mpmath.workdps(REF_DPS):
            return _mp(self.exact) + sum((ref_term(t) for t in self.terms),
                                         mpmath.mpf(0))

    def plus(self, other: "Measure") -> "Measure":
        if self.kind == "inf" or other.kind == "inf":
            if self.kind == other.kind == "inf" and self.sign != other.sign:
                raise ValueError("undefined sum")
            return self if self.kind == "inf" else other
        terms = self.terms + other.terms
        return Measure("real" if terms else "exact", self.exact + other.exact,
                       terms=terms)


ZERO = Measure.of(0)


def msum(items) -> Measure:
    total = ZERO
    for m in items:
        total = total.plus(m)
    return total


def pair_sum(pairs) -> tuple:
    """Max-dimension rule: keep the top dimension, add the measures there."""
    pairs = list(pairs)
    if not pairs:
        return (D0, ZERO)
    top = pairs[0][0]
    for d, _ in pairs[1:]:
        if dim_cmp(d, top) > 0:
            top = d
    return (top, msum(m for d, m in pairs if dim_cmp(d, top) == 0))


@dataclass
class Request:
    """One request of a workload: an operation, its inputs (JSON documents
    and plain numbers only) and the outcome its generator expects.

    expect is ("pair", Dim, Measure), ("refused", names), ("sign", int),
    ("indices", tuple) or ("true",).
    """

    op: str
    args: dict
    expect: tuple
    size: int = 0  # atoms or terms in the inputs
