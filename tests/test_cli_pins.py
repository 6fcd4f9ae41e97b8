"""The command line's pinned answers and refusals: one row per call.

Under pytest every row runs in process through ``cli.main``. Run as a
script, ``python tests/test_cli_pins.py``, every row runs once as a
subprocess of the ``hausdorff`` entry point installed next to that
interpreter, so a bare install checks the same table with the standard
library alone. New pins of the command line go here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


class Prefix(str):
    """Expected text the stream starts with; ending in a newline, it pins
    the first line."""


class Pin(NamedTuple):
    argv: tuple
    code: int  # exit status 0 prints to stdout, any other to stderr
    # that stream: a str is all of it less the final newline, a Prefix its
    # start, a callable a predicate on it; the other stream stays empty
    expected: str | Callable[[str], bool]
    stdin: str | None = None
    config: str | None = None  # the text of the file HAUSDORFF_CONFIG names
    timeout: float | None = None  # seconds


def passes(out):
    return out.endswith(", all passed (seed 1729)\n")


def law(name):
    """A --json check whose law `name` passed with no skipped draw."""
    def holds(out):
        result = {r["name"]: r for r in json.loads(out)["results"]}[name]
        return result["passed"] and result["skipped"] == {}
    return holds


def skips_reported(out):
    payload = json.loads(out)
    return payload["passed"] and all("skipped" in r
                                     for r in payload["results"])


BASEL = '{"terms": [{"set": {"seq": {"kind": "harmonic", "a": 0, "b": 1}}, "expr": {"series": {"kind": "pseries", "c": 1, "p": 2}}}]}'
SHARED = '{"set": {"interval": [0, 2]}, "expr": {"poly": [0, 0, 1]}}, {"set": {"points": [3]}, "expr": {"const": 5}}, {"set": {"cantor": {"t": 4}}, "expr": {"const": 2}}'
HALVES = '{"seq": {"kind": "geometric", "a": 0, "b": 1, "q": "1/2"}}'
TAIL = '{"seq": {"kind": "geometric", "a": 0, "b": "1/4", "q": "1/2"}}'
QUARTERS = '{"seq": {"kind": "geometric", "a": 0, "b": 4, "q": "1/4"}}'
BIG_BASEL = '{"terms": [{"set": {"seq": {"kind": "harmonic"}}, "expr": {"series": {"kind": "pseries", "c": "%d", "p": 2}}}]}' % 10 ** 2000
INTERLEAVED = "error: removing an interleaved subsequence leaves a non-catalog set"
CUT = "error: interval cuts through a Cantor copy; the pieces are not catalog sets"

PINS = {
    # a rational string may carry surrounding whitespace, a sign on p and
    # leading zeros; an empty delete list deletes nothing; a zero
    # denominator is malformed input
    "padded_rational": Pin(("measure", '{"interval": [" +0/7 ", "0003/4"], "delete": []}'), 0, "(1, 3/4)"),
    "zero_denominator": Pin(("measure", '{"points": ["1/0"]}'), 2, "error: set: not a rational: '1/0'"),
    "distance_x2_x": Pin(("distance", "functions", '{"terms": [{"set": {"interval": [0, 2]}, "expr": {"poly": [0, 0, 1]}}]}', '{"terms": [{"set": {"interval": [0, 2]}, "expr": {"poly": [0, 1]}}]}'), 0, "(1, 1)"),
    # three shared terms (x^2 on [0, 2], 5 at 3, 2 on the Cantor copy at 4)
    # drop out of f - g; only [6, 8] differs, by 4 - 1 = 3, so the
    # distance is 3 times the length 2 at dimension 1: (1, 6)
    "shared_terms_drop_out": Pin(("distance", "functions", *('{"terms": [%s, {"set": {"interval": [6, 8]}, "expr": {"const": %d}}]}' % (SHARED, c) for c in (1, 4))), 0, "(1, 6)"),
    "basel": Pin(("integrate", BASEL), 0, "(0, 1.6449340668482264)"),
    "basel_at_64_bits": Pin(("--precision", "64", "integrate", BASEL), 0, "(0, 1.6449340668482264)"),
    # sum of n^-(10^100) over n: 1 + 2^-(10^100) + ..., whose tail the
    # integral test brackets; it once printed (0, 7.29257574555403)
    "pseries_huge_exponent": Pin(("integrate", '{"terms": [{"set": {"seq": {"kind": "harmonic", "a": 0, "b": 1}}, "expr": {"series": {"kind": "pseries", "c": 1, "p": "%d"}}}]}' % 10 ** 100), 0, "(0, 1.0)"),
    # --precision is capped at 1024 bits: a larger flag refuses by name
    # before any enclosure is computed; the cap itself answers
    "precision_past_the_cap": Pin(("--precision", "1000000", "integrate", BASEL), 1, "error: precision_bits must be at most 1024", timeout=10),
    "precision_at_the_cap": Pin(("--precision", "1024", "integrate", BASEL), 0, "(0, 1.6449340668482264)"),
    # "output" in the config file is the CLI's own setting
    "config_output_json": Pin(("measure", '{"cantor": {"t": 0, "s": "1/2"}}'), 0, '{"d": "log(2)/log(3)", "m": "0.6457601171650976"}', config='{"output": "json"}'),
    # a constant is the degree-0 polynomial, accepted on every atom
    "constant_poly_on_cantor": Pin(("integrate", '{"terms": [{"set": {"cantor": {}}, "expr": {"poly": [3]}}]}'), 0, "(log(2)/log(3), 3)"),
    # a function document as printed with a "domain" key: the key is
    # ignored, and the function is its terms
    "domain_key_ignored": Pin(("integrate", '{"terms": [{"set": {"interval": ["0", "2"]}, "expr": {"poly": ["0", "1"]}}], "domain": "all"}'), 0, "(1, 2)"),
    # measures beyond the float range print 17 significant digits: the
    # Cantor measure of scale 10^2000 overflows a float, and that of scale
    # 10^-2000 used to print 0.0
    "cantor_past_the_float_range": Pin(("measure", '{"cantor": {"s": "%d"}}' % 10 ** 2000), 0, "(log(2)/log(3), 7.2361430358934550e+1261)"),
    "cantor_below_the_float_range": Pin(("--json", "measure", '{"cantor": {"s": "1/%d"}}' % 10 ** 2000), 0, '{"d": "log(2)/log(3)", "m": "1.3819516765211771e-1262"}'),
    "basel_past_the_float_range": Pin(("integrate", BIG_BASEL), 0, "(0, 1.6449340668482264e+2000)"),
    "even_past_the_float_range": Pin(("defi", "even", BIG_BASEL), 0, Prefix("(0, 3.2898681336964529e+2000)\n")),
    # exact answers print every digit, past the interpreter's limit on
    # int-to-string conversion: c x on [0, c] for c = 10^4000
    "exact_past_the_int_string_limit": Pin(("integrate", '{"terms": [{"set": {"interval": [0, "%d"]}, "expr": {"poly": [0, "%d"]}}]}' % (10 ** 4000, 10 ** 4000)), 0, Prefix("(1, 5")),
    # a sequence that reaches a Cantor point through the gap that point
    # ends meets the copy in finitely many points: here 1/3
    "sequence_meets_cantor": Pin(("integrate", '{"terms": [{"set": {"cantor": {}}, "expr": {"const": 1}}]}', "--on", '{"seq": {"kind": "harmonic", "a": "2/3", "b": "-1/3"}}'), 0, "(0, 1)"),
    # series values are read on a piece of their own sequence only:
    # {2^-n} inside {1/n} refuses where a whole-series sum was wrong
    "series_not_rebased": Pin(("integrate", '{"terms": [{"set": {"seq": {"kind": "harmonic", "a": 0, "b": 1}}, "expr": {"series": {"kind": "geometric", "a": 1, "r": "1/2"}}}]}', "--on", HALVES), 1, "error: series values cannot be rebased onto a different sequence"),
    # a geometric sequence less its own tail is its head: {2^-n} less
    # {2^-n/4} is {1/2, 1/4}, and 2^(1-n) read on that tail sums to 1/2
    "halves_less_their_tail": Pin(("measure", '{"delete": [%s, %s]}' % (HALVES, TAIL)), 0, "(0, 2)"),
    "series_on_a_tail": Pin(("integrate", '{"terms": [{"set": %s, "expr": {"series": {"kind": "geometric", "a": 1, "r": "1/2"}}}]}' % HALVES, "--on", TAIL), 0, "(0, 1/2)"),
    # every other term, {4^-n}, is no tail and still refuses
    "halves_less_every_other": Pin(("measure", '{"delete": [%s, {"seq": {"kind": "geometric", "a": 0, "b": 1, "q": "1/4"}}]}' % HALVES), 1, INTERLEAVED),
    # nor is {2^(1-n)} inside {1/n}, though its first two terms are 1/n's
    "harmonic_less_geometric": Pin(("measure", '{"delete": [{"seq": {"kind": "harmonic", "a": 0, "b": 1}}, {"seq": {"kind": "geometric", "a": 0, "b": 2, "q": "1/2"}}]}'), 1, INTERLEAVED),
    # {4^(1-n)} = 1, 1/4, 1/16, ... has its tail from 1/4 on in {2^-n}:
    # less {2^-n} it is {1}, and the union is {2^-n} u {1}; {2^-n} less
    # {4^(1-n)} still refuses
    "quarters_less_halves": Pin(("measure", '{"delete": [%s, %s]}' % (QUARTERS, HALVES)), 0, "(0, 1)"),
    "quarters_union_halves": Pin(("measure", '{"union": [%s, %s]}' % (QUARTERS, HALVES)), 0, "(0, inf)"),
    "halves_less_quarters": Pin(("measure", '{"delete": [%s, %s]}' % (HALVES, QUARTERS)), 1, INTERLEAVED),
    # two sequences with distinct limits meet only in their heads; a head
    # of 364,285 terms refuses by name before it is listed
    "long_head": Pin(("measure", '{"union": [{"seq": {"kind": "harmonic", "a": -3, "b": "425000/7"}}, {"seq": {"kind": "harmonic", "a": "-10/3", "b": 1100}}]}'), 1, "error: more than 100000 sequence terms to list", timeout=10),
    # a union's point atoms settle as one: two intervals delete 1/2 and a
    # point atom restores it, 3 comes twice, and 6 and 11/2 lie on the
    # harmonic sequence
    "union_points_settle": Pin(("measure", '{"union": [{"interval": [0, 1], "delete": ["1/2"]}, {"interval": ["1/2", 2], "delete": ["1/2"]}, {"points": ["1/2"]}, {"points": [3]}, {"points": [3, 4]}, {"seq": {"kind": "harmonic", "a": 5, "b": 1}}, {"points": [6, "11/2"]}]}'), 0, "(1, 2)"),
    # a union keeps one atom whole and adds the other less it: C keeps the
    # point 1/3 it shares with 1/3 + C/9, and [0, 1] gets back the 1/2 it
    # deletes from the sequence it swallows
    "cantor_union_shares_a_point": Pin(("measure", '{"union": [{"cantor": {}}, {"cantor": {"t": "1/3", "s": "1/9"}}]}'), 0, "(log(2)/log(3), 5/4)"),
    "interval_union_harmonic": Pin(("measure", '{"union": [{"interval": [0, 1], "delete": ["1/2"]}, {"seq": {"kind": "harmonic", "a": 0, "b": 1}}]}'), 0, "(1, 1)"),
    # the deepest cut the largest depth_cap allows refuses by name on every
    # Python, never at the interpreter's recursion limit: 1/4 = 0.0202...
    # in ternary, so the cut never settles
    "deepest_cut": Pin(("distance", "sets", '{"cantor": {}}', '{"interval": [-1, "1/4"]}'), 1, CUT, config='{"depth_cap": 1000}'),
    "deepest_cut_by_delete": Pin(("measure", '{"delete": [%s, {"interval": [-1, "1/4"]}]}' % '{"cantor": {"t": 0, "s": 1}}'), 1, CUT, config='{"depth_cap": 1000}'),
    # the same sweep partitions a copy by another copy, under its own
    # refusal text
    "overlapping_copies": Pin(("measure", '{"union": [{"cantor": {}}, {"cantor": {"t": "1/4"}}]}'), 1, "error: overlapping distinct Cantor copies are not jointly representable"),
    # planar scenes: the first overlapping pair is named exactly, and a
    # disjoint scene whose point atom's box holds the other atoms keeps
    # its answer
    "planar_overlap_named": Pin(("defi", "convex", '{"planar": [{"polygon": [[0, 0], [4, 0], [4, 4], [0, 4]]}, {"points2d": [[9, 9], [1, 1]]}]}'), 1, "error: planar atoms overlap: ConvexPolygon(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(4, 1), Fraction(0, 1)), (Fraction(4, 1), Fraction(4, 1)), (Fraction(0, 1), Fraction(4, 1)))) and Points2D(pts=((Fraction(1, 1), Fraction(1, 1)), (Fraction(9, 1), Fraction(9, 1))))"),
    "planar_disjoint": Pin(("--json", "defi", "convex", '{"planar": [{"points2d": [[0, 0], [6, 0], [0, 6], [6, 6]]}, {"polygon": [[1, 1], [2, 1], [2, 2], [1, 2]]}, {"segment": [[3, 3], [5, 4]]}]}'), 0, '{"d": "2", "m": "35", "branch": "the hull is a polygon: the gap is its uncovered area"}'),
    # coordinates over coprime denominators near 10^30, one vertex 1.2e-30
    # inside the hull's edge: the turns are exact signs, and the gap is the
    # hull's area less the triangle's, exactly
    "planar_near_denominators": Pin(("--json", "defi", "convex", '{"planar": [{"points2d": [["-1/1000000000000000000000000000001", "-1/1000000000000000000000000000003"], ["10", "1/1000000000000000000000000000007"], ["1/1000000000000000000000000000003", "10"]]}, {"polygon": [["1", "1"], ["4", "1/1000000000000000000000000000007"], ["1/1000000000000000000000000000001", "4"]]}]}'), 0,
                                    '{"d": "2", "m": "46000000000000000000000000000653000000000000000000000000003053000000000000000000000000005615000000000000000000000000003277/1000000000000000000000000000014000000000000000000000000000064000000000000000000000000000114000000000000000000000000000063", "branch": "the hull is a polygon: the gap is its uncovered area"}'),
    # collinear segments and a point along (3, 4): the hull is a segment of
    # length 20, and the atoms cover 5 + 15/2 of it
    "planar_collinear": Pin(("--json", "defi", "convex", '{"planar": [{"segment": [[0, 0], [3, 4]]}, {"points2d": [[12, 16]]}, {"segment": [["9/2", 6], [9, 12]]}]}'), 0, '{"d": "1", "m": "15/2", "branch": "the hull is a segment: the gap is its uncovered length"}'),
    # the continuity deficiencies read their limits at piece ends, deleted
    # points, point atoms and accumulation points
    "continuity_osc": Pin(("defi", "continuity-osc", '{"terms": [{"set": {"interval": [0, 1], "delete": ["1/2"]}, "expr": {"poly": [0, 1]}}, {"set": {"points": ["1/2"]}, "expr": {"const": 2}}, {"set": {"seq": {"kind": "harmonic", "a": 2, "b": 1}}, "expr": {"series": {"kind": "geometric", "a": "1/2", "r": "1/2"}}}]}'), 0, Prefix("(0, 7/2)\n")),
    "continuity_dist": Pin(("defi", "continuity-dist", '{"terms": [{"set": {"interval": [0, 1], "delete": ["1/2"]}, "expr": {"poly": [0, 1, -1]}}, {"set": {"points": ["1/2"]}, "expr": {"const": 1}}]}'), 0, Prefix("(0, 3/4)\n")),
    # the midpoint sum is summed in closed form: a million panels answer at
    # once, to the same exact enclosure
    "quad_million_panels": Pin(("--json", "estimate", "quad", '{"terms": [{"set": {"interval": [0, 1]}, "expr": {"poly": [0, 1, "1/3", 2]}}]}', "--on", '{"interval": ["1/7", 1]}', "--panels", "1000000"), 0,
                               '{"integral": {"lo": "330249999999841/300125000000000", "hi": "660500000000081/600250000000000"}, "panels": 1000000}', timeout=10),
    # the sign split and the order checks built on it; every law reports
    # its skipped draws in the JSON output
    "integral_laws_report_skips": Pin(("--json", "check", "integral-laws"), 0, skips_reported),
    # the three convergence suites share one generator protocol
    "beppo_levi": Pin(("check", "beppo-levi"), 0, passes),
    "fatou": Pin(("check", "fatou"), 0, passes),
    "riesz_fischer": Pin(("check", "riesz-fischer"), 0, passes),
    # the measure laws and the indicator bridge are suite results, passed
    # with no skipped draw
    "set_measure_law": Pin(("--json", "check", "set-metric"), 0, law("set measure: monotone under inclusion and subadditive")),
    "indicator_law": Pin(("--json", "check", "integral-laws"), 0, law("indicators integrate to the measure of their set")),
    "paper_examples": Pin(("check", "paper-examples"), 0, passes),
    # box counts print past the interpreter's int-to-string limit
    "box_counts_past_the_int_string_limit": Pin(("estimate", "dim", '{"cantor": {}}', "--depths", "14290..14291"), 0, Prefix("box-count slope ~ 0.630929753571 (enclosure width 1.490e-72)\n")),
    # a depth range past the guard refuses by name before it is listed
    "depths_past_the_guard": Pin(("estimate", "dim", '{"cantor": {}}', "--depths", "1..1000000000"), 1, "error: a depth range may not go past 100000", timeout=10),
    # a range under that end whose depths add up past the work bound
    # refuses by name too, before it is listed
    "depths_past_the_work_bound": Pin(("estimate", "dim", '{"cantor": {}}', "--depths", "1..25600"), 1, "error: the depths of a range may not add up to more than 10000000", timeout=10),
    # a function against a respelling of itself, term by term: equal atoms
    # meet whole, and each polynomial is split once
    "respelled_function": Pin(("distance", "functions",
                               '{"terms": [{"set": {"interval": [0, 3], "delete": ["1/2"]}, "expr": {"poly": ["3/2", "-5/2", 1]}}, {"set": {"cantor": {"t": 4, "s": 3}}, "expr": {"const": 2}}, {"set": {"points": [8, "17/2"]}, "expr": {"const": -1}}, {"set": {"seq": {"kind": "geometric", "a": 12, "b": 3, "q": "1/2"}}, "expr": {"series": {"kind": "geometric", "a": 1, "r": "1/3"}}}]}',
                               '{"terms": [{"set": {"seq": {"kind": "geometric", "a": "24/2", "b": "6/2", "q": "2/4"}}, "expr": {"series": {"kind": "geometric", "a": "3/3", "r": "2/6"}}}, {"set": {"points": ["34/4", "16/2"]}, "expr": {"const": "-2/2"}}, {"set": {"cantor": {"t": 7, "s": -3}}, "expr": {"const": "4/2"}}, {"set": {"interval": ["0/5", "6/2"], "delete": ["2/4"]}, "expr": {"poly": ["6/4", "-10/4", "2/2"]}}]}'), 0, "(0, 0)"),
    # a document from stdin, as README's `cat g.json | ...` line reads it
    "distance_from_stdin": Pin(("distance", "functions", '{"terms": [{"set": {"interval": [0, 1]}, "expr": {"const": 1}}]}', "-"), 0, "(1, 1)", stdin='{"terms": []}'),
}


def readme_pins():
    """README's command lines followed by a `# -> output` line."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    pairs = [(cmd, out) for cmd, out in zip(lines, lines[1:])
             if cmd.startswith("hausdorff ") and out.startswith("# -> ")]
    return {f"readme_example_{n}": Pin(tuple(shlex.split(cmd)[1:]), 0,
                                       out[len("# -> "):])
            for n, (cmd, out) in enumerate(pairs, 1)}


def in_process(pin, config):
    from hausdorff import cli
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, HAUSDORFF_CONFIG=config), \
            mock.patch("sys.stdin", io.StringIO(pin.stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(pin.argv))
    return code, out.getvalue(), err.getvalue()


def installed(pin, config):
    done = subprocess.run(
        [str(Path(sys.executable).with_name("hausdorff")), *pin.argv],
        input=pin.stdin or "", capture_output=True, text=True,
        env=dict(os.environ, HAUSDORFF_CONFIG=config), timeout=pin.timeout)
    return done.returncode, done.stdout, done.stderr


RUN = installed if __name__ == "__main__" else in_process


class CliPins(unittest.TestCase):
    def check(self, pin):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            if pin.config is not None:
                Path(config).write_text(pin.config, encoding="utf-8")
            start = time.monotonic()
            code, out, err = RUN(pin, config)
            elapsed = time.monotonic() - start
        stream, other = (out, err) if pin.code == 0 else (err, out)
        self.assertEqual((code, other), (pin.code, ""), err[-2000:])
        if isinstance(pin.expected, Prefix):
            self.assertTrue(stream.startswith(pin.expected), stream[:2000])
        elif isinstance(pin.expected, str):
            self.assertEqual(stream, pin.expected + "\n")
        else:
            self.assertTrue(pin.expected(stream), stream[:2000])
        if pin.timeout is not None:
            self.assertLess(elapsed, pin.timeout)

    def test_the_workflow_calls_the_command_line_only_outside_pins(self):
        # the shell keeps one smoke run and the import-time checks; every
        # other call of the command line is a row of this table
        workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(
            encoding="utf-8")
        calls = [line.strip() for line in workflow.splitlines()
                 if not line.strip().startswith("#")
                 and re.search(r"(^|[\s/'\"])hausdorff(\s|$)|-m hausdorff\b",
                               line)]
        smoke = [c for c in calls if "PYTHONPROFILEIMPORTTIME=1" not in c]
        self.assertEqual(len(smoke), 1, smoke)
        self.assertIn("/bin/python tests/test_cli_pins.py", workflow)


for _name, _pin in {**PINS, **readme_pins()}.items():
    setattr(CliPins, f"test_{_name}", lambda self, pin=_pin: self.check(pin))


if __name__ == "__main__":
    unittest.main()
