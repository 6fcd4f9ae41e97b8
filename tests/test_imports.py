"""Which engine modules each entry point loads: `import hausdorff` loads
none, and each command line verb only the layers it runs. Counted in a
fresh interpreter, so the figures do not depend on the test order."""

import argparse
import json
import os
import subprocess
import sys

import hausdorff
from hausdorff import checks, cli

SRC = os.path.dirname(os.path.dirname(hausdorff.__file__))
# defaults only: no config file from the user's home
NO_CONFIG = os.path.join(SRC, "hausdorff", "no-such-config.json")
CANTOR = '{"cantor": {"t": 0, "s": "1/2"}}'
FUNCTION = ('{"terms": [{"set": {"interval": [0, 2]}, '
            '"expr": {"poly": [-1, 1]}}]}')
PLANAR = '{"planar": [{"segment": [[0, 0], [1, 1]]}]}'
LAYERS = {"hvalue", "setalg", "hintegral", "metrics", "deficiency", "oracle",
          "docio", "checks", "cli"}


def loaded_after(code: str):
    """(stdout lines, the hausdorff submodules loaded) after running code
    in a fresh interpreter."""
    code += ("\nimport json, sys\n"
             "print(json.dumps([m[len('hausdorff.'):] for m in sys.modules\n"
             "                  if m.startswith('hausdorff.')]))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC,
                                   HAUSDORFF_CONFIG=NO_CONFIG),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *lines, modules = done.stdout.splitlines()
    return lines, set(json.loads(modules))


def run_cli(*argv):
    return loaded_after(f"from hausdorff import cli\n"
                        f"assert cli.main({list(argv)!r}) == 0\n")


def test_import_hausdorff_loads_no_submodule():
    assert loaded_after("import hausdorff")[1] == set()


def test_a_name_loads_its_own_layer():
    _, modules = loaded_after("import hausdorff\nhausdorff.hpair_add")
    assert modules & LAYERS == {"hvalue"}


def test_set_measure_loads_the_set_layer_only():
    lines, modules = run_cli("measure", CANTOR)
    assert lines == ["(log(2)/log(3), 0.6457601171650976)"]
    assert modules & LAYERS == {"cli", "docio", "hvalue", "setalg"}


def test_integrate_loads_no_metric_deficiency_oracle_or_checks():
    lines, modules = run_cli("integrate", FUNCTION)
    assert lines == ["(1, 0)"]
    assert modules & LAYERS == {"cli", "docio", "hvalue", "setalg",
                                "hintegral"}


def test_planar_measure_loads_the_planar_layer():
    lines, modules = run_cli("measure", PLANAR)
    assert lines == ["(1, 1.4142135623730951)"]
    assert "deficiency" in modules
    assert not modules & {"metrics", "oracle", "checks"}


def test_defi_even_loads_no_metric_layer():
    lines, modules = run_cli("defi", "even", FUNCTION)
    assert lines == ["(1, 2)",
                     "mass of |f(x) - f(-x)| over the asymmetric part"]
    assert modules & LAYERS == {"cli", "docio", "hvalue", "setalg",
                                "hintegral", "deficiency"}


def test_star_import_binds_every_exported_name():
    lines, _ = loaded_after(
        "from hausdorff import *\n"
        "import hausdorff\n"
        "print(all(name in globals() for name in hausdorff.__all__))\n"
        "print(set(hausdorff.__all__) <= set(dir(hausdorff)))\n")
    assert lines == ["True", "True"]


def test_an_unknown_name_is_an_attribute_error():
    lines, modules = loaded_after(
        "import hausdorff\n"
        "print(hasattr(hausdorff, 'no_such_name'))\n")
    assert lines == ["False"] and modules == set()


def test_check_choices_are_the_suite_names(capsys):
    top = cli.build_parser()
    verbs = next(a for a in top._actions
                 if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in verbs.choices["check"]._actions
                 if a.dest == "suite")
    assert tuple(suite.choices) == checks.suite_names()
    assert cli.main(["check", "no-such-suite"]) == 2
    assert "invalid choice: 'no-such-suite'" in capsys.readouterr().err
