"""Command-line front end.

Documents are JSON (see docio); results print as dimension-measure
pairs, either human-readable or as JSON with --json. Exit codes: 0
success, 1 domain error, 2 parse error, 3 a check suite failed.

Each subcommand imports the layers it runs when it runs, so a set
measure loads neither the integral nor the check suites.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

from ._numeric import _ITER_GUARD, parse_rational, render_rational
from .config import (DEFAULT_SEED, SUITE_NAMES, get_config, set_config,
                     update_config)
from .errors import HausdorffError, ParseError, TooLarge, ValidationError

_CONFIG_ENV = "HAUSDORFF_CONFIG"
_CONFIG_PATH = ("~", ".config", "hausdorff", "config.json")
# depths 1..4471 add up to just under this and print 8-10 MB of covers
_DEPTH_SUM = 10_000_000


def build_parser() -> argparse.ArgumentParser:
    # Both the top parser and each subcommand take these flags. With a
    # suppressed default a subcommand leaves unset whatever the top parser
    # already read, so a flag counts before or after the subcommand.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true",
                        help="emit results as JSON")
    common.add_argument("--seed", type=int, metavar="N",
                        help="seed for randomized check suites")
    common.add_argument("--precision", type=int, metavar="BITS",
                        help="working precision for interval enclosures")
    common.add_argument("--depths", metavar="A..B",
                        help="depth range for estimates, e.g. 1..12")

    top = argparse.ArgumentParser(
        prog="hausdorff", parents=[common],
        description="Exact dimension-measure computations on the "
                    "representable fragment of the real line.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[common],
                       help="measure of a set or planar document")
    p.add_argument("document", help="JSON document or - for stdin")

    p = sub.add_parser("integrate", parents=[common],
                       help="integral of a function document")
    p.add_argument("document", help="JSON function document or -")
    p.add_argument("--on", metavar="SET", default=None,
                   help="restrict to a set document")

    p = sub.add_parser("distance", parents=[common],
                       help="distance between two documents")
    p.add_argument("kind", choices=("sets", "functions"))
    p.add_argument("left", help="JSON document or -")
    p.add_argument("right", help="JSON document or -")

    p = sub.add_parser("defi", parents=[common],
                       help="deficiency measurements")
    p.add_argument("kind", choices=("continuity-osc", "continuity-dist",
                                    "continuity-cluster", "even", "convex"))
    p.add_argument("document", help="JSON document or -")

    p = sub.add_parser("check", parents=[common],
                       help="run a bundled self-check suite")
    p.add_argument("suite", choices=SUITE_NAMES)

    p = sub.add_parser("estimate", parents=[common],
                       help="independent numerical estimates")
    p.add_argument("kind", choices=("dim", "premeasure", "quad"))
    p.add_argument("document", help="JSON document or -")
    p.add_argument("--d", dest="dim", default=None, metavar="DIM",
                   help="dimension to probe: p/q or log(p)/log(q)")
    p.add_argument("--on", metavar="SET", default=None,
                   help="quadrature region, a single-interval set document")
    p.add_argument("--panels", type=int, default=64,
                   help="quadrature panel count (default 64)")
    return top


# ---------------------------------------------------------------------------
# configuration

def _config_file():
    """(path, the parsed JSON object); ParseError for a file that cannot
    be read as one."""
    path = os.environ.get(_CONFIG_ENV)
    if path is None:
        path = os.path.join(os.path.expanduser(_CONFIG_PATH[0]),
                            *_CONFIG_PATH[1:])
    if not os.path.exists(path):
        return path, {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file {path}: not UTF-8 text") from exc
    except OSError as exc:  # a directory, or no permission to read
        raise ParseError(f"config file {path}: {exc.strerror or exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"config file {path}: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config file {path}: expected a JSON object")
    return path, data


def _config_int(path, data: dict, key: str):
    """data[key] when it is a JSON integer; ParseError otherwise."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"config file {path}: {key} must be an integer, "
                         f"got {json.dumps(value)}")
    return value


def _apply_config(args) -> int:
    """Merge the config file under the flags (args.json and args.depths
    too); returns the check seed. An out-of-range file value is malformed
    input (ParseError)."""
    path, data = _config_file()
    config = {key: _config_int(path, data, key)
              for key in ("precision", "precision_bits", "depth_cap", "seed")
              if key in data}
    flags = {}
    if hasattr(args, "precision"):
        flags["precision_bits"] = args.precision
    from_file = {"precision_bits": config.get("precision",
                                              config.get("precision_bits")),
                 "depth_cap": config.get("depth_cap")}
    try:
        update_config(**{key: value for key, value in from_file.items()
                         if value is not None and key not in flags})
    except ValidationError as exc:
        raise ParseError(f"config file {path}: {exc}") from exc
    if not hasattr(args, "json"):
        if data.get("output") not in (None, "human", "json"):
            raise ParseError(
                f"config file {path}: output must be 'human' or 'json'")
        args.json = data.get("output") == "json"
    update_config(**flags)
    if not hasattr(args, "depths"):
        args.depths = str(data["depths"]) if "depths" in data else None
    return getattr(args, "seed", config.get("seed", DEFAULT_SEED))


# ---------------------------------------------------------------------------
# documents and output

class _Stdin:
    used = False


def _read_text(arg: str) -> str:
    if arg == "-":
        if _Stdin.used:
            raise ValidationError("only one document may come from stdin")
        _Stdin.used = True
        return sys.stdin.read()
    return arg


def _document(arg: str):
    from .docio import parse_document
    return parse_document(_read_text(arg))


def _want_set(value, what: str):
    from .setalg import RepSet
    if not isinstance(value, RepSet):
        raise ValidationError(f"{what} must be a set document")
    return value


def _want_function(value, what: str):
    from .hintegral import PiecewiseFunction
    if not isinstance(value, PiecewiseFunction):
        raise ValidationError(f"{what} must be a function document "
                              "(an object with \"terms\")")
    return value


def _emit_pair(args, pair, branch: str = "") -> str:
    if args.json:
        from .docio import pair_payload
        payload = pair_payload(pair)
        if branch:
            payload["branch"] = branch
        return json.dumps(payload)
    if branch:
        return f"{pair.render()}\n{branch}"
    return pair.render()


def _interval_payload(ivl) -> dict:
    return {"lo": render_rational(ivl.lo), "hi": render_rational(ivl.hi)}


def _render_interval(ivl) -> str:
    if ivl.is_point():
        return render_rational(ivl.lo)
    return f"[{render_rational(ivl.lo)}, {render_rational(ivl.hi)}]"


def _parse_depths(text, default=(1, 10)):
    if text is None:
        lo, hi = default
    else:
        m = re.fullmatch(r"\s*(\d+)\.\.(\d+)\s*", text)
        if m is None:
            raise ParseError(f"expected a depth range like 1..12, got {text!r}")
        try:
            lo, hi = int(m.group(1)), int(m.group(2))
        except ValueError as exc:
            raise ParseError("a depth bound has more digits than int() "
                             "takes") from exc
    if lo < 1 or hi < lo:
        raise ValidationError(f"bad depth range {lo}..{hi}")
    # the depths are listed and each cover holds numbers of about k digits
    # at depth k, so a range is refused before either grows without bound:
    # first by its end, then by the sum of its depths, which the printed
    # digits follow
    if hi > _ITER_GUARD:
        raise TooLarge(f"a depth range may not go past {_ITER_GUARD}")
    if (lo + hi) * (hi - lo + 1) // 2 > _DEPTH_SUM:
        raise TooLarge(f"the depths of a range may not add up to more than "
                       f"{_DEPTH_SUM}")
    return list(range(lo, hi + 1))


def _parse_dim(text):
    from .hvalue import Dimension
    if text is None:
        raise ValidationError("estimate premeasure needs --d <dimension>")
    m = re.fullmatch(r"\s*log\((\d+)\)\s*/\s*log\((\d+)\)\s*", text)
    if m is not None:
        return Dimension.log_ratio(int(m.group(1)), int(m.group(2)))
    return Dimension.rational(parse_rational(text))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_measure(args, seed) -> int:
    from .setalg import RepSet, hmeasure
    doc = _document(args.document)
    if isinstance(doc, RepSet):
        print(_emit_pair(args, hmeasure(doc)))
        return 0
    # a function or a planar scene: parsing either loaded the integral
    from .hintegral import PiecewiseFunction
    if isinstance(doc, PiecewiseFunction):
        raise ValidationError("measure wants a set or planar document; "
                              "use integrate for functions")
    from .deficiency import planar_measure
    print(_emit_pair(args, planar_measure(doc)))
    return 0


def _cmd_integrate(args, seed) -> int:
    from .hintegral import h_integral
    f = _want_function(_document(args.document), "integrate")
    if args.on is None:
        print(_emit_pair(args, h_integral(f)))
    else:
        region = _want_set(_document(args.on), "--on")
        print(_emit_pair(args, h_integral(f, region)))
    return 0


def _cmd_distance(args, seed) -> int:
    from .metrics import d_H, d_s
    left, right = _document(args.left), _document(args.right)
    if args.kind == "sets":
        value = d_s(_want_set(left, "left"), _want_set(right, "right"))
    else:
        value = d_H(_want_function(left, "left"),
                    _want_function(right, "right"))
    print(_emit_pair(args, value.value))
    return 0


def _defi_branch(kind: str, doc, result) -> str:
    from .deficiency import _hull_chain, oscillation
    from .hvalue import DIM_ZERO
    if kind == "continuity-osc":
        profile = oscillation(doc)
        if profile.is_empty():
            return "no oscillation: the presentation is continuous"
        parts = []
        if profile.point_values:
            parts.append(f"{len(profile.point_values)} isolated "
                         "discontinuity point(s)")
        if profile.seq_values:
            parts.append(f"{len(profile.seq_values)} sequence piece(s)")
        return "oscillation collected from " + " and ".join(parts)
    if kind == "continuity-dist":
        if result.d.cmp(DIM_ZERO) > 0:
            return ("an essential jump: no pointwise repair reaches a "
                    "continuous function")
        if result.m.sign() == 0:
            return "already continuous: nothing to repair"
        return "repairable by adjusting finitely many values"
    if kind == "continuity-cluster":
        return (f"the widest approach cluster carries "
                f"{result.m.render()} value(s)")
    if kind == "even":
        if result.m.sign() == 0 and result.d.cmp(DIM_ZERO) == 0:
            return "the function equals its mirror image"
        return "mass of |f(x) - f(-x)| over the asymmetric part"
    corners = len(_hull_chain(doc))  # 1: a point, 2: a segment
    if corners == 1:
        return "the points span no segment: nothing to fill"
    if corners == 2:
        return "the hull is a segment: the gap is its uncovered length"
    return "the hull is a polygon: the gap is its uncovered area"


def _cmd_defi(args, seed) -> int:
    from .deficiency import (PlanarSet, defi_continuity_cluster,
                             defi_continuity_dist, defi_continuity_osc,
                             defi_convex, defi_even)
    doc = _document(args.document)
    if args.kind == "convex":
        if not isinstance(doc, PlanarSet):
            raise ValidationError("defi convex wants a planar document")
        result = defi_convex(doc)
    else:
        f = _want_function(doc, f"defi {args.kind}")
        fn = {"continuity-osc": defi_continuity_osc,
              "continuity-dist": defi_continuity_dist,
              "continuity-cluster": defi_continuity_cluster,
              "even": defi_even}[args.kind]
        result = fn(f)
    print(_emit_pair(args, result, _defi_branch(args.kind, doc, result)))
    return 0


def _cmd_check(args, seed) -> int:
    from .checks import all_passed, run_suite
    results = run_suite(args.suite, seed)
    ok = all_passed(results)
    if args.json:
        print(json.dumps({"suite": args.suite, "seed": seed,
                          "passed": ok,
                          "results": [asdict(r) for r in results]}))
    else:
        for r in results:
            print(r.line())
        word = "all passed" if ok else "FAILURES"
        print(f"suite {args.suite}: {len(results)} result(s), {word} "
              f"(seed {seed})")
    return 0 if ok else 3


def _cmd_estimate(args, seed) -> int:
    from .oracle import box_dim_estimate, premeasure_estimate, quadrature
    from .setalg import Interval
    if args.kind == "quad":
        f = _want_function(_document(args.document), "estimate quad")
        if args.on is None:
            raise ValidationError("estimate quad needs --on "
                                  "with a single bounded interval")
        region = _want_set(_document(args.on), "--on")
        atoms = region.atoms
        if len(atoms) != 1 or not isinstance(atoms[0], Interval):
            raise ValidationError("the quadrature region must be a single "
                                  "interval")
        if args.panels < 1:
            raise ValidationError("panel count must be positive")
        ivl = quadrature(f, atoms[0], args.panels)
        if args.json:
            print(json.dumps({"integral": _interval_payload(ivl),
                              "panels": args.panels}))
        else:
            print(f"integral enclosed in {_render_interval(ivl)} "
                  f"({args.panels} panels)")
        return 0

    s = _want_set(_document(args.document), f"estimate {args.kind}")
    if args.kind == "dim":
        depths = _parse_depths(args.depths)
        slope, covers = box_dim_estimate(s, depths)
        if args.json:
            print(json.dumps({
                "slope": _interval_payload(slope),
                "covers": [{"depth": c.depth,
                            "count": render_rational(c.box_count),
                            "box_size": render_rational(c.box_size)}
                           for c in covers]}))
        else:
            width = slope.hi - slope.lo
            print(f"box-count slope ~ {float(slope.mid):.12f} "
                  f"(enclosure width {float(width):.3e})")
            for c in covers:
                print(f"  depth {c.depth:3d}: "
                      f"{render_rational(c.box_count)} boxes of size "
                      f"{render_rational(c.box_size)}")
        return 0

    d = _parse_dim(args.dim)
    depths = _parse_depths(args.depths, default=(1, 8))
    rows = [(k, premeasure_estimate(s, d, k)) for k in depths]
    if args.json:
        print(json.dumps({"d": d.render(),
                          "premeasure": [{"depth": k,
                                          **_interval_payload(ivl)}
                                         for k, ivl in rows]}))
    else:
        print(f"premeasure sums at d = {d.render()}:")
        for k, ivl in rows:
            print(f"  depth {k:3d}: {_render_interval(ivl)}")
    return 0


_COMMANDS = {
    "measure": _cmd_measure,
    "integrate": _cmd_integrate,
    "distance": _cmd_distance,
    "defi": _cmd_defi,
    "check": _cmd_check,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _Stdin.used = False
    previous = get_config()
    try:
        seed = _apply_config(args)
        code = _COMMANDS[args.command](args, seed)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: silence stdout, down to the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HausdorffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_config(previous)


if __name__ == "__main__":
    sys.exit(main())
