"""Answer checks and the digest of exact answers.

An exact expectation must come back exact and equal. A real that the engine
can only enclose must come back as an enclosure that contains the mpmath
reference (REF_DPS digits). Irrational dimensions are compared by value
against the reference. Nothing here calls the engine's own comparisons
(hpair_eq, HPair.cmp, ExtReal.cmp): they call overlapping enclosures equal.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import mpmath

from common import EQUAL_TOL, REF_DPS, Dim, Measure

WIDTH_TOL = mpmath.mpf(10) ** -3  # an enclosure wider than this is useless
SLACK = mpmath.mpf(10) ** -(REF_DPS - 10)  # rounding of the reference itself


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _dim_value(d):
    """Value of the engine's Dimension, from its canonical fields."""
    with mpmath.workdps(REF_DPS):
        v = _mp(d.rat)
        for (p, q), coef in d.logs:
            v += _mp(coef) * mpmath.log(p) / mpmath.log(q)
        return v


def dim_matches(d, want: Dim) -> bool:
    if want.is_rational():
        return d.is_rational() and d.as_fraction() == want.rat
    if d.is_rational():
        return False
    with mpmath.workdps(REF_DPS):
        return abs(_dim_value(d) - want.value()) < EQUAL_TOL


def encloses(lo: Fraction, hi: Fraction, ref, width_tol=WIDTH_TOL) -> bool:
    with mpmath.workdps(REF_DPS):
        width_ok = (width_tol is None
                    or _mp(hi - lo) <= width_tol * max(1, abs(ref)))
        slack = SLACK * max(1, abs(ref))
        return _mp(lo) - slack <= ref <= _mp(hi) + slack and width_ok


def measure_matches(m, want: Measure) -> bool:
    if want.kind == "exact":
        return m.is_exact() and m.as_fraction() == want.exact
    if want.kind == "inf":
        return not m.is_finite() and m.sign() == want.sign
    if not m.is_finite():
        return False
    enc = m.enclosure()
    return encloses(enc.lo, enc.hi, want.ref())


def pair_matches(p, want_d: Dim, want_m: Measure) -> bool:
    return dim_matches(p.d, want_d) and measure_matches(p.m, want_m)


def check(req, status: str, value) -> str:
    """'' when the answer is right, else a one-line reason."""
    kind = req.expect[0]
    if kind == "refused":
        if status == "refused" and value in req.expect[1]:
            return ""
        return f"expected a refusal {req.expect[1]}, got {status} {value!r}"
    if status != "ok":
        return f"expected an answer, got {status} {value}"
    if kind == "pair":
        pairs = value if isinstance(value, tuple) else (value,)
        if len(pairs) == 2 and canon("ok", pairs[0]) != canon("ok", pairs[1]):
            return f"asymmetric: {pairs[0]!r} vs {pairs[1]!r}"
        for p in pairs:
            if not pair_matches(p, req.expect[1], req.expect[2]):
                return f"wrong pair {p!r}, expected {req.expect[1:]!r}"
        return ""
    if kind == "contains":  # an enclosure (RatInterval) of a real
        want = req.expect[1]
        tol = req.expect[2] if len(req.expect) > 2 else WIDTH_TOL
        ref = want.value() if isinstance(want, Dim) else want.ref()
        return "" if encloses(value.lo, value.hi, ref, tol) else \
            f"[{value.lo}, {value.hi}] misses {mpmath.nstr(ref, 20)}"
    if value == req.expect[1]:
        return ""
    return f"expected {req.expect[1]!r}, got {value!r}"


def canon(status: str, value) -> str:
    """Canonical text of one outcome for the digest. Enclosure endpoints
    are left out: only exact answers are digested."""
    if status != "ok":
        return f"{status}:{value if status == 'refused' else ''}"
    if isinstance(value, tuple):
        return "(" + ",".join(canon("ok", v) for v in value) + ")"
    if hasattr(value, "d") and hasattr(value, "m"):
        d = f"{value.d.rat}+{value.d.logs}"
        m = value.m
        mm = m.as_fraction() if m.is_exact() else (
            "encl" if m.is_finite() else f"inf{m.sign()}")
        return f"{d}|{mm}"
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return "encl"
    return repr(value)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for status, value in outcomes:
        h.update(canon(status, value).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
