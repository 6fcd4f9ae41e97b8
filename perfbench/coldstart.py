"""Command-line cold start: a fresh interpreter imports hausdorff.cli and
answers one document through cli.main.

Run as a script, this file is the child: it times the import and the first
request itself and prints them on a last line "PROBE {json}". The parent
times the whole child, interpreter start-up included, which is what a user
of the command line waits for. The child also times the calibration kernel
(calib.py) on its own core, three times before the import and three times
after the answer; the parent takes those runs out of the wall time and
scales what is left to reference speed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import calib

TIMEOUT_S = 60
KERNEL_RUNS = 3  # before the import, and again after the answer


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # no config file from the user's home: defaults only
    env["HAUSDORFF_CONFIG"] = os.path.join(root, "perfbench", "no-config.json")
    return env


def probe(root: str, argv: list, importtime: bool = False) -> dict:
    """Run one cold start; returns wall_s (without the kernel runs), ref_s
    (wall_s at reference speed), the child's own timings, and with
    importtime the cumulative import times of sympy and mpmath."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(root, "perfbench", "coldstart.py"), json.dumps(argv)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("PROBE "):
        raise RuntimeError(f"cold start failed ({done.returncode}): "
                           f"{done.stderr.strip()[-400:]}")
    out = json.loads(lines[-1][len("PROBE "):])
    kernel = out.pop("kernel_s")
    out["wall_s"] = wall - sum(kernel)
    out["ref_s"] = out["wall_s"] * calib.REF_KERNEL_S / statistics.median(kernel)
    out["answer"] = "\n".join(lines[:-1])
    if importtime:
        out.update(_import_times(done.stderr))
    return out


def _import_times(stderr: str) -> dict:
    """Cumulative microseconds of the first top-level sympy and mpmath
    imports, from -X importtime output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("sympy", "mpmath") and name not in found:
            found[name] = int(parts[1]) / 1e6
    return {f"import_{k}_s": v for k, v in found.items()}


def _child():
    kernel = [calib.time_kernel() for _ in range(KERNEL_RUNS)]
    t0 = time.perf_counter()
    from hausdorff import cli
    t1 = time.perf_counter()
    code = cli.main(json.loads(sys.argv[1]))
    t2 = time.perf_counter()
    kernel += [calib.time_kernel() for _ in range(KERNEL_RUNS)]
    print("PROBE " + json.dumps({"import_s": t1 - t0,
                                 "first_request_s": t2 - t1, "code": code,
                                 "kernel_s": kernel}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(_child())
