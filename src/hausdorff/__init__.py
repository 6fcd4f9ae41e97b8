"""Exact dimension-measure pairs, measures of representable real sets,
and the integral graded by them.

The headline objects are re-exported here; the submodules hold the
full surface (hvalue, setalg, hintegral, theorems, metrics, deficiency,
oracle, docio, checks, cli).

`import hausdorff` loads no submodule: a re-exported name loads its
submodule on first use (PEP 562), so a caller pays only for the layers
it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

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

# the submodule that defines each name of __all__
_HOME = {name: module for module, names in {
    "hvalue": ("DIM_CANTOR", "DIM_ONE", "DIM_ZERO", "ZERO_PAIR", "Dimension",
               "ExtReal", "HPair", "HSeq", "hpair_add", "hpair_eq",
               "hpair_series", "hpair_sum", "hseq_limit"),
    "setalg": ("CantorAffine", "CountableSeq", "EMPTY_SET", "FinitePoints",
               "Interval", "RepSet", "diff", "hmeasure", "intersect",
               "symdiff", "union"),
    "hintegral": ("PiecewiseFunction", "add", "h_integral", "indicator",
                  "scalar_mul"),
    "theorems": ("beppo_levi_limit", "fatou_check", "monotone_compare"),
    "metrics": ("d_H", "d_s", "dH_pairs", "is_cauchy", "riesz_fischer_check"),
    "checks": ("run_suite", "suite_names"),
}.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
