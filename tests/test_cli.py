"""Command-line front end: subcommands, exit codes, config handling."""

import ast
import decimal
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hausdorff
from hausdorff import checks, cli
from hausdorff._value import fields
from hausdorff.checks import CheckResult
from hausdorff.config import Config, get_config
from test_docio import function_docs, set_docs

UNIT = '{"interval": [0, 1]}'
CANTOR = '{"cantor": {"t": 0, "s": 1}}'
STEP = '{"terms": [{"set": {"interval": [0, 1]}, "expr": {"const": 1}}]}'


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch, tmp_path):
    # keep the user's real config file out of the tests
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(tmp_path / "absent.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- measure / integrate / distance -------------------------------------------

def test_measure_json_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "measure", "--json", CANTOR)
    assert code == 0
    assert json.loads(out) == {"d": "log(2)/log(3)", "m": "1"}


def test_integrate_step(capsys):
    code, out, _ = run(capsys, "integrate", STEP)
    assert code == 0 and out == "(1, 1)\n"


def test_integrate_on_region(capsys):
    code, out, _ = run(capsys, "integrate", STEP, "--on", '{"interval": [0, "1/2"]}')
    assert code == 0 and out == "(1, 1/2)\n"


@pytest.mark.parametrize("atom, expr, region, message", [
    (UNIT, '{"poly": [0, 1]}', CANTOR,
     "a polynomial is only constant enough for a fractal or sequence piece "
     "when it has degree zero"),
], ids=["polynomial-on-cantor"])
def test_integrate_on_a_region_that_cannot_read_the_values(
        capsys, atom, expr, region, message):
    doc = f'{{"terms": [{{"set": {atom}, "expr": {expr}}}]}}'
    code, out, err = run(capsys, "integrate", doc, "--on", region)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_distance_sets_and_functions(capsys):
    code, out, _ = run(capsys, "distance", "sets", UNIT, '{"interval": [0, "1/2"]}')
    assert code == 0 and out == "(1, 1/2)\n"
    zero = '{"terms": []}'
    code, out, _ = run(capsys, "distance", "functions", STEP, zero)
    assert code == 0 and out == "(1, 1)\n"


def test_cli_needs_only_the_standard_library():
    # a child interpreter without site-packages sees the standard library
    # and this package only; the commands reach polynomial sign regions and
    # the pow (Cantor copy at scale 1/2), log (box-count slope) and sqrt
    # (segment length) enclosures
    src = os.path.dirname(os.path.dirname(hausdorff.__file__))
    f = ('{"terms": [{"set": {"interval": [0, 2]}, '
         '"expr": {"poly": [-1, 1]}}]}')
    g = '{"terms": [{"set": {"interval": [0, 2]}, "expr": {"const": 1}}]}'
    commands = [
        ["distance", "functions", f, g],
        ["measure", '{"cantor": {"t": 0, "s": "1/2"}}'],
        ["--depths", "2..4", "estimate", "dim", CANTOR],
        ["measure", '{"planar": [{"segment": [[0, 0], [1, 1]]}]}'],
    ]
    code = ("import sys\n"
            "from hausdorff import cli\n"
            f"sys.exit(max(cli.main(argv) for argv in {commands!r}))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["(1, 2)", "(log(2)/log(3), 0.6457601171650976)"]
    assert lines[2].startswith("box-count slope ~ 0.6309297")
    assert lines[-1] == "(1, 1.4142135623730951)"


def test_engine_modules_read_every_name_they_import():
    # a name listed in __all__ counts as read: the module exports it
    unused = {}
    for path in sorted(Path(hausdorff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert not unused


def test_every_engine_definition_has_a_caller():
    # a function, class or method counts as called when its name occurs
    # as a word in the engine away from its own def or class line and
    # from __all__, occurs in the benchmark, or is exported by the package
    src = Path(hausdorff.__file__).parent
    words, own = Counter(), Counter()
    for path in sorted(src.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        skip = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own[node.name] += re.findall(r"\w+", lines[node.lineno - 1]
                                             ).count(node.name)
            elif (isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets)):
                skip.update(range(node.lineno - 1, node.end_lineno))
        words.update(w for n, line in enumerate(lines) if n not in skip
                     for w in re.findall(r"\w+", line))
    bench = set(re.findall(r"\w+", "\n".join(
        p.read_text(encoding="utf-8")
        for p in (src.parents[1] / "perfbench").glob("*.py"))))
    uncalled = sorted(
        name for name in own
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= own[name]
        and name not in bench and name not in hausdorff.__all__)
    assert not uncalled


def test_only_numeric_imports_the_fractions_module():
    # every other module takes its Fraction, with the integer fast paths,
    # from _numeric; fractions.Fraction is the base class it extends
    importers = sorted(
        path.name
        for path in Path(hausdorff.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import)
            and any(alias.name == "fractions" for alias in node.names)))
    assert importers == ["_numeric.py"]


def test_distance_wrong_document_kind(capsys):
    code, _, err = run(capsys, "distance", "sets", UNIT, STEP)
    assert code == 1 and err.startswith("error:")


# -- global flags before the subcommand ----------------------------------------

def test_json_flag_before_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "measure", CANTOR)
    assert code == 0
    assert json.loads(out) == {"d": "log(2)/log(3)", "m": "1"}


def test_seed_flag_before_subcommand(capsys):
    code, out, _ = run(capsys, "--seed", "7", "check", "beppo-levi")
    assert code == 0 and "(seed 7)" in out


def test_precision_flag_before_subcommand(capsys):
    code, _, err = run(capsys, "--precision", "10", "measure", CANTOR)
    assert code == 1 and "precision_bits" in err
    assert run(capsys, "--precision", "128", "measure", CANTOR)[0] == 0


def test_depths_flag_before_subcommand(capsys):
    code, out, _ = run(capsys, "--depths", "2..4", "estimate", "dim", CANTOR)
    assert code == 0
    assert [l.split(":")[0].strip() for l in out.splitlines()[1:]] == [
        "depth   2", "depth   3", "depth   4"]
    code, _, err = run(capsys, "--depths", "nope", "estimate", "dim", UNIT)
    assert code == 2 and "depth range" in err


# -- deficiency ----------------------------------------------------------------

def test_defi_oscillation(capsys):
    code, out, _ = run(capsys, "defi", "continuity-osc", STEP)
    assert code == 0
    assert out.splitlines()[0] == "(0, 2)"


def test_defi_convex_names_hull_gap(capsys):
    doc = '{"planar": [{"points2d": [[0, 0], [1, 0], [0, 1]]}]}'
    code, out, _ = run(capsys, "defi", "convex", doc)
    assert code == 0
    assert out.splitlines()[0] == "(2, 1/2)"
    assert "hull" in out


def test_defi_convex_branch_follows_the_hull_shape(capsys):
    for doc, branch in [
            ('{"planar": [{"points2d": [[1, 2]]}]}',
             "the points span no segment: nothing to fill"),
            ('{"planar": [{"points2d": [[0, 0], [1, 1]]}, '
             '{"segment": [[2, 2], [3, 3]]}]}',
             "the hull is a segment: the gap is its uncovered length"),
            ('{"planar": [{"points2d": [[0, 0], [1, 0], [0, 1]]}]}',
             "the hull is a polygon: the gap is its uncovered area")]:
        code, out, _ = run(capsys, "defi", "convex", "--json", doc)
        assert code == 0
        assert json.loads(out)["branch"] == branch


def test_defi_even_json(capsys):
    ramp = '{"terms": [{"set": {"interval": [0, 1]}, "expr": {"poly": [0, 1]}}]}'
    code, out, _ = run(capsys, "defi", "even", "--json", ramp)
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == "1" and payload["m"] == "1" and "branch" in payload


def test_defi_wrong_document_kind(capsys):
    code, _, err = run(capsys, "defi", "convex", UNIT)
    assert code == 1 and "planar" in err


# -- exit codes ----------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "measure", '{"interval": [0')
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, "measure", '{"interval": [0, "oops"]}')
    assert code == 2 and "not a rational" in err


def test_domain_error_exits_1(capsys):
    bad = ('{"terms": [{"set": {"interval": [0, 2]}, "expr": {"const": 1}},'
           ' {"set": {"interval": [1, 3]}, "expr": {"const": 2}}]}')
    code, _, err = run(capsys, "integrate", bad)
    assert code == 1 and "overlap" in err


def test_huge_sequence_range_exits_1(capsys):
    # the interval holds 10**400 harmonic terms: a named refusal, not an
    # OverflowError traceback
    doc = ('{"union": [{"seq": {"kind": "harmonic"}}, '
           '{"interval": ["1/1' + "0" * 400 + '", 2]}]}')
    code, _, err = run(capsys, "measure", doc)
    assert code == 1 and "sequence terms" in err


def test_exact_answers_print_past_the_int_string_limit(capsys):
    # c x on [0, c] integrates to c^3/2, 12,000 digits for c = 10^4000
    c = "1" + "0" * 4000
    doc = ('{"terms": [{"set": {"interval": [0, "%s"]}, '
           '"expr": {"poly": [0, "%s"]}}]}' % (c, c))
    assert run(capsys, "integrate", doc) == (
        0, "(1, 5" + "0" * 11999 + ")\n", "")


def test_usage_error_exits_2(capsys):
    assert run(capsys, "check", "no-such-suite")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "measure", "--help")[0] == 0


def test_failing_suite_exits_3(capsys, monkeypatch):
    stub = [CheckResult("stub law", False, trials=5, expected="a", actual="b")]
    monkeypatch.setattr(checks, "run_suite", lambda name, seed: stub)
    code, out, _ = run(capsys, "check", "fatou")
    assert code == 3 and "FAIL" in out


# -- check ---------------------------------------------------------------------

def test_check_suite_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "check", "fatou")
    assert code == 0 and "all passed (seed 1729)" in first
    code, second, _ = run(capsys, "check", "fatou")
    assert first == second


def test_check_json_reports_skips_per_law(capsys):
    code, out, _ = run(capsys, "--json", "check", "fatou")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert [r["skipped"] for r in payload["results"]] == [{}, {}, {}]
    assert [r["skipped_at"] for r in payload["results"]] == [{}, {}, {}]


def test_check_seed_flag(capsys):
    code, out, _ = run(capsys, "check", "beppo-levi", "--seed", "7")
    assert code == 0 and "(seed 7)" in out


def test_check_examples_table(capsys):
    code, out, _ = run(capsys, "check", "paper-examples")
    assert code == 0
    assert "indicator plus its negation" in out and "FAIL" not in out


# -- estimate ------------------------------------------------------------------

def test_estimate_dim_human(capsys):
    code, out, _ = run(capsys, "estimate", "dim", CANTOR, "--depths", "1..8")
    assert code == 0
    assert out.startswith("box-count slope ~ 0.6309")


def test_estimate_dim_json(capsys):
    code, out, _ = run(capsys, "estimate", "dim", UNIT, "--json",
                       "--depths", "2..6")
    assert code == 0
    payload = json.loads(out)
    lo, hi = payload["slope"]["lo"], payload["slope"]["hi"]
    assert eval_frac(lo) <= 1 <= eval_frac(hi)
    assert len(payload["covers"]) == 5


def test_estimate_premeasure(capsys):
    code, out, _ = run(capsys, "estimate", "premeasure", CANTOR,
                       "--d", "log(2)/log(3)", "--depths", "1..4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("premeasure sums at d = log(2)/log(3)")
    assert len(lines) == 5 and all(l.endswith(": 1") for l in lines[1:])


def test_estimate_quad_requires_interval_region(capsys):
    ramp = '{"terms": [{"set": {"interval": [0, 1]}, "expr": {"poly": [0, 1]}}]}'
    code, out, _ = run(capsys, "estimate", "quad", ramp,
                       "--on", UNIT, "--panels", "32")
    assert code == 0 and "1/2" in out
    code, _, err = run(capsys, "estimate", "quad", ramp)
    assert code == 1


def test_estimate_bad_depths_exits_2(capsys):
    code, _, err = run(capsys, "estimate", "dim", UNIT, "--depths", "nope")
    assert code == 2 and "depth range" in err


def test_estimate_prints_counts_past_the_int_digit_limit(capsys):
    # 2^14290 boxes: str() of that int refuses, at 4,302 digits
    count = str(decimal.Decimal(2 ** 14290))
    code, out, _ = run(capsys, "estimate", "dim", CANTOR,
                       "--depths", "14290..14291")
    assert code == 0
    assert out.splitlines()[1] == (f"  depth 14290: {count} boxes of size "
                                   f"1/{decimal.Decimal(3 ** 14290)}")
    code, out, _ = run(capsys, "--json", "estimate", "dim", CANTOR,
                       "--depths", "14290..14291")
    assert code == 0 and json.loads(out)["covers"][0]["count"] == count


def test_estimate_depth_bound_past_the_int_digit_limit_exits_2(capsys):
    code, out, err = run(capsys, "estimate", "dim", CANTOR,
                         "--depths", "1.." + "9" * 5001)
    assert (code, out) == (2, "")
    assert err == "error: a depth bound has more digits than int() takes\n"


def test_estimate_depth_range_past_the_guard_refuses(capsys, monkeypatch,
                                                      tmp_path):
    refusal = "error: a depth range may not go past 100000\n"
    start = time.perf_counter()
    assert run(capsys, "estimate", "dim", CANTOR,
               "--depths", "1..1000000000") == (1, "", refusal)
    assert time.perf_counter() - start < 1
    # the config file's depths key takes the same path
    config = tmp_path / "config.json"
    config.write_text('{"depths": "1..1000000000"}')
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(config))
    assert run(capsys, "estimate", "dim", CANTOR) == (1, "", refusal)


@pytest.mark.parametrize("depths", ["1..4472", "1..25600", "4000..6000"])
def test_estimate_depth_range_past_the_work_bound_refuses(capsys, depths):
    # the sum of the depths tracks the digits the covers print, so a range
    # under the end guard that would print too much is refused unlisted
    refusal = ("error: the depths of a range may not add up to more than "
               "10000000\n")
    start = time.perf_counter()
    for command in ("dim", "premeasure --d 1"):
        assert run(capsys, "estimate", *command.split(), CANTOR,
                   "--depths", depths) == (1, "", refusal)
    assert time.perf_counter() - start < 1
    assert run(capsys, "estimate", "dim", CANTOR,
               "--depths", "4471..4472")[0] == 0
    assert len(cli._parse_depths("1..4471")) == 4471


def eval_frac(text):
    num, _, den = text.partition("/")
    return int(num) / int(den or "1")


# -- stdin and config file -------------------------------------------------------

def test_stdin_document(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CANTOR))
    code, out, _ = run(capsys, "measure", "-")
    assert code == 0 and out == "(log(2)/log(3), 1)\n"


def test_stdin_only_once(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(UNIT))
    code, _, err = run(capsys, "distance", "sets", "-", "-")
    assert code == 1 and "stdin" in err


def test_config_file_sets_defaults(capsys, monkeypatch, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "output": "json"}))
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, out, _ = run(capsys, "check", "fatou")
    payload = json.loads(out)
    assert code == 0 and payload["seed"] == 5 and payload["passed"] is True


def test_flag_overrides_config_file(capsys, monkeypatch, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5}))
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, out, _ = run(capsys, "check", "fatou", "--seed", "9")
    assert code == 0 and "(seed 9)" in out


def test_config_file_syntax_error_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{broken")
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, _, err = run(capsys, "measure", UNIT)
    assert code == 2 and "config" in err


def _config_error(capsys, monkeypatch, path):
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, out, err = run(capsys, "measure", '{"points": [1]}')
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: config file {path}: "), err
    return err


def test_config_file_that_is_a_directory_exits_2(capsys, monkeypatch,
                                                 tmp_path):
    assert "directory" in _config_error(capsys, monkeypatch, tmp_path)


def test_config_file_not_utf8_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert "UTF-8" in _config_error(capsys, monkeypatch, path)


def test_config_file_precision_not_a_number_exits_2(capsys, monkeypatch,
                                                    tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"precision_bits": "x"}')
    err = _config_error(capsys, monkeypatch, path)
    assert 'precision_bits must be an integer, got "x"' in err


def test_config_file_precision_overflow_exits_2(capsys, monkeypatch,
                                                tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"precision_bits": 1e999}')
    err = _config_error(capsys, monkeypatch, path)
    assert "precision_bits must be an integer, got Infinity" in err


@pytest.mark.parametrize("body", ['{"precision": 100.5}',
                                  '{"precision_bits": 128.0}',
                                  '{"depth_cap": 40.9}', '{"seed": 5.5}',
                                  '{"seed": true}'])
def test_config_file_non_integer_is_rejected(capsys, monkeypatch, tmp_path,
                                             body):
    # int() would truncate these silently
    path = tmp_path / "config.json"
    path.write_text(body)
    key = next(iter(json.loads(body)))
    err = _config_error(capsys, monkeypatch, path)
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("body, message", [
    ('{"precision_bits": 10}', "precision_bits must be at least 64"),
    ('{"precision": 10}', "precision_bits must be at least 64"),
    ('{"depth_cap": 3}', "depth_cap must be at least 8"),
    ('{"depth_cap": 1001}', "depth_cap must be at most 1000"),
    ('{"precision": 1025}', "precision_bits must be at most 1024"),
    ('{"output": 5}', "output must be 'human' or 'json'"),
    pytest.param('{"seed": %s}' % ("9" * 5000),
                 "a number has more digits than int() takes",
                 id="seed-past-the-int-digit-limit")])
def test_config_file_out_of_range_exits_2(capsys, monkeypatch, tmp_path,
                                          body, message):
    path = tmp_path / "config.json"
    path.write_text(body)
    assert _config_error(capsys, monkeypatch, path) == (
        f"error: config file {path}: {message}\n")


def test_flag_overrides_out_of_range_config_value(capsys, monkeypatch,
                                                  tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"precision_bits": 10, "output": 5}')
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, out, _ = run(capsys, "measure", "--precision", "128", "--json",
                       '{"points": [1]}')
    assert code == 0 and json.loads(out)["m"] == "1"


def test_deeply_nested_document_exits_2(tmp_path):
    # json and parse_set both recurse once per level; at 400 levels the
    # document still answers, far deeper it is a parse error
    src = os.path.dirname(os.path.dirname(hausdorff.__file__))
    env = dict(os.environ, PYTHONPATH=src,
               HAUSDORFF_CONFIG=str(tmp_path / "absent.json"))
    for depth, code, out in ((400, 0, "(0, 1)\n"), (5000, 2, "")):
        doc = '{"union": [' * depth + '{"points": [1]}' + ']}' * depth
        done = subprocess.run([sys.executable, "-m", "hausdorff.cli",
                               "measure", "-"], input=doc, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code and done.stdout == out, done.stderr
        assert "Traceback" not in done.stderr
    assert done.stderr == "error: document nested too deeply\n"


def test_closed_pipe_exits_1_without_traceback(tmp_path):
    # the reader closes its end before the first line is written, whether
    # print writes through (-u) or the output waits for a flush
    src = os.path.dirname(os.path.dirname(hausdorff.__file__))
    env = dict(os.environ, PYTHONPATH=src,
               HAUSDORFF_CONFIG=str(tmp_path / "absent.json"))
    env.pop("PYTHONUNBUFFERED", None)
    for flags in (["-u"], []):
        with subprocess.Popen(
                [sys.executable, *flags, "-m", "hausdorff.cli", "estimate",
                 "dim", CANTOR, "--depths", "1..40"], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err == ""  # nor an "Exception ignored" at the exit flush


def test_config_restored_after_run(capsys):
    before = get_config()
    run(capsys, "measure", "--precision", "128", CANTOR)
    assert get_config() == before


def test_config_file_output_is_a_cli_setting(capsys, monkeypatch, tmp_path):
    # the engine's Config has no output field; the file's "output" reaches
    # the command as args.json and leaves the engine's config alone
    assert "output" not in {f.name for f in fields(Config)}
    path = tmp_path / "config.json"
    path.write_text('{"output": "json"}')
    monkeypatch.setenv("HAUSDORFF_CONFIG", str(path))
    code, out, _ = run(capsys, "measure", CANTOR)
    assert code == 0 and json.loads(out) == {"d": "log(2)/log(3)", "m": "1"}
    before, seen = get_config(), []
    monkeypatch.setitem(cli._COMMANDS, "measure", lambda args, seed: (
        seen.append((get_config(), args.json)) or 0))
    assert run(capsys, "measure", CANTOR)[0] == 0
    assert seen == [(before, True)] and get_config() == before


# -- every command under fuzzing ---------------------------------------------

DIGITS = ("1" + "0" * 400, "1" + "0" * 2000)
HUGE_SETS = st.builds(
    lambda t, s: {"cantor": {"t": t, "s": s}}, st.sampled_from(["0", "-3"]),
    st.sampled_from([p + n for n in DIGITS for p in ("", "-", "1/")]))
HUGE_FUNCTIONS = st.builds(
    lambda series: {"terms": [{"set": {"seq": {"kind": "harmonic"}},
                               "expr": {"series": series}}]},
    st.sampled_from(DIGITS).flatmap(lambda c: st.sampled_from([
        {"kind": "pseries", "c": c, "p": 2},
        {"kind": "geometric", "a": "-" + c, "r": "1/2"},
        {"kind": "finite", "values": [c, "1/" + c]}])))
SETS = (set_docs() | HUGE_SETS).map(json.dumps)
FUNCTIONS = (function_docs() | HUGE_FUNCTIONS).map(json.dumps)
INTERVALS = st.builds(lambda lo, w: json.dumps({"interval": [lo, lo + w]}),
                      st.integers(-5, 5), st.integers(1, 40))
COMMANDS = {
    "measure": st.tuples(st.just("measure"), SETS),
    "integrate": st.tuples(st.just("integrate"), FUNCTIONS),
    "integrate-on": st.tuples(st.just("integrate"), FUNCTIONS, st.just("--on"),
                              SETS),
    "distance-sets": st.tuples(st.just("distance"), st.just("sets"), SETS,
                               SETS),
    "distance-functions": st.tuples(st.just("distance"), st.just("functions"),
                                    FUNCTIONS, FUNCTIONS),
    "defi": st.tuples(st.just("defi"), st.sampled_from(
        ["continuity-osc", "continuity-dist", "continuity-cluster", "even"]),
        FUNCTIONS),
    "estimate-dim": st.tuples(st.just("estimate"), st.just("dim"), SETS),
    "estimate-premeasure": st.tuples(
        st.just("estimate"), st.just("premeasure"), SETS, st.just("--d"),
        st.sampled_from(["1/2", "1", "log(2)/log(3)",
                         "log(" + "9" * 5000 + ")/log(3)"])),
    "estimate-quad": st.tuples(st.just("estimate"), st.just("quad"), FUNCTIONS,
                               st.just("--on"), SETS | INTERVALS),
}


@pytest.mark.parametrize("calls", COMMANDS.values(), ids=COMMANDS.keys())
def test_every_command_answers_or_refuses_by_exit_code(capsys, calls):
    # in process, so an escaping exception fails the example; 9 x 22
    # examples in all
    @settings(max_examples=22, deadline=None, derandomize=True)
    @given(argv=calls, as_json=st.booleans())
    def exits_0_1_or_2(argv, as_json):
        code, _, err = run(capsys, *(["--json"] if as_json else []), *argv)
        assert code in (0, 1, 2) and (code == 0) == (err == "")
    exits_0_1_or_2()
