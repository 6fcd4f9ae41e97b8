"""Exact dimension-measure pairs, measures of representable real sets,
and the integral graded by them.

The headline objects are re-exported here; the submodules hold the
full surface (hvalue, setalg, hintegral, metrics, deficiency, oracle,
docio, checks, cli).
"""

__version__ = "0.1.0"

from .hvalue import (DIM_CANTOR, DIM_ONE, DIM_ZERO, ZERO_PAIR, Dimension,
                     ExtReal, HPair, HSeq, hpair_add, hpair_eq, hpair_series,
                     hpair_sum, hseq_limit)
from .setalg import (CantorAffine, CountableSeq, EMPTY_SET, FinitePoints,
                     Interval, RepSet, diff, hmeasure, intersect, symdiff,
                     union)
from .hintegral import (PiecewiseFunction, add, beppo_levi_limit, fatou_check,
                        h_integral, indicator, monotone_compare, scalar_mul)
from .metrics import d_H, d_s, dH_pairs, is_cauchy, riesz_fischer_check
from .checks import run_suite, suite_names

__all__ = [
    "DIM_CANTOR", "DIM_ONE", "DIM_ZERO", "ZERO_PAIR", "Dimension",
    "ExtReal", "HPair", "HSeq", "hpair_add", "hpair_eq", "hpair_series",
    "hpair_sum", "hseq_limit",
    "CantorAffine", "CountableSeq", "EMPTY_SET", "FinitePoints",
    "Interval", "RepSet", "diff", "hmeasure", "intersect", "symdiff",
    "union",
    "PiecewiseFunction", "add", "beppo_levi_limit", "fatou_check",
    "h_integral", "indicator", "monotone_compare", "scalar_mul",
    "d_H", "d_s", "dH_pairs", "is_cauchy", "riesz_fischer_check",
    "run_suite", "suite_names",
]
