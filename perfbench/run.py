"""Benchmark of the hausdorff engine: one closed-loop client, one workload.

    python3 perfbench/run.py --workload sets --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from its src/.
The seed fixes the request list; the program only sees the generated
documents and numbers. Requests go one at a time, each sent after the
previous answer (one client, no threads). The list length is set by
--seconds at a nominal rate per workload, so at the commit that defined
the benchmark a run measures about that long; at least MIN_REQUESTS are
sent, so at least ten latencies lie beyond the 99th percentile.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass (see tracer.py) over the first half of
the list, after an untraced pass over the same half. Every answer is
checked (see check.py). The end-to-end times are given at reference speed
(see calib.py); the raw times are printed and recorded beside them.
Human-readable lines come first; the last line is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sets", "functions", "numeric")
RATE = {"sets": 120, "functions": 50, "numeric": 150}  # requests per second
MIN_REQUESTS = 1000
BLOCK = 200  # every generator's mix repeats per block of this many requests
WARMUP = 40
SETUP_PROBES = 7
OUT_DIR = os.path.join(HERE, "out")


def requests_for(workload: str, seed: int, n: int, salt: str = ""):
    import gen_functions
    import gen_numeric
    import gen_sets
    gen = {"sets": gen_sets, "functions": gen_functions,
           "numeric": gen_numeric}[workload]
    return gen.generate(random.Random(f"{workload}:{seed}{salt}"), n)


def request_count(workload: str, seconds: int) -> int:
    """Whole blocks of the workload's mix, so every seed sends the same
    operations in the same shares."""
    n = max(MIN_REQUESTS, round(seconds * RATE[workload]))
    return -(-n // BLOCK) * BLOCK


def cli_argv(req):
    """The command line that answers req, or None."""
    a = req.args
    table = {
        "measure": lambda: ["measure", a["a"]],
        "cantor": lambda: ["measure", a["a"]],
        "ds": lambda: ["distance", "sets", a["a"], a["b"]],
        "integrate": lambda: ["integrate", a["f"]],
        "integrate_on": lambda: ["integrate", a["f"], "--on", a["on"]],
        "dh": lambda: ["distance", "functions", a["f"], a["g"]],
        "osc": lambda: ["defi", "continuity-osc", a["f"]],
        "even": lambda: ["defi", "even", a["f"]],
        "convex": lambda: ["defi", "convex", a["a"]],
    }
    if req.op not in table or req.expect[0] == "refused":
        return None
    return table[req.op]()


# The operation whose first document the cold start answers: one kind of
# request per workload, so the answer costs alike for every seed.
SETUP_OP = {"sets": "measure", "functions": "integrate", "numeric": "cantor"}


def first_document(workload, reqs):
    for req in reqs:
        argv = cli_argv(req)
        if argv is not None and req.op == SETUP_OP[workload]:
            return argv
    raise RuntimeError(f"no {SETUP_OP[workload]} request goes through the CLI")


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """One closed-loop pass: outcomes and raw latencies in request order,
    wall time without the calibration kernel, and the kernel samples."""

    def __init__(self, outcomes, latencies, wall, pace):
        self.outcomes = outcomes
        self.latencies = latencies
        self.wall = wall
        self.pace = pace

    def scaled(self):
        """Latencies at reference speed."""
        return self.pace.scale(self.latencies)

    def rate(self):
        """Requests per second at reference speed."""
        return len(self.latencies) / sum(self.scaled())


def run_pass(reqs, execute, tracer=None) -> Pass:
    outcomes, latencies = [], []
    pace = calib.Pace()
    now = time.perf_counter
    next_sample = 0.0
    start = now()
    for i, req in enumerate(reqs):
        if now() >= next_sample:
            pace.sample(i)
            next_sample = now() + calib.CAL_EVERY_S
        if tracer is not None:
            tracer.request = i
        t0 = now()
        outcomes.append(execute(req))
        latencies.append(now() - t0)
    pace.sample(len(reqs))
    return Pass(outcomes, latencies, now() - start - sum(pace.k), pace)


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile, pct in whole percent."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(rank, 1) - 1]


def verify(reqs, outcomes):
    import check
    failures, refused = [], Counter()
    for req, (status, value) in zip(reqs, outcomes):
        why = check.check(req, status, value)
        if why:
            failures.append(f"{req.op}: {why}")
        elif status == "refused":
            refused[value] += 1
    return failures, refused, check.digest(outcomes)


# ---------------------------------------------------------------------------
# run record


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, reqs, refused, latencies=()):
    import mpmath
    import sympy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__, "sympy": sympy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "requests": len(reqs),
        "requests_by_op": dict(sorted(Counter(r.op for r in reqs).items())),
        "seconds_by_op": {op: round(sum(t for r, t in zip(reqs, latencies)
                                        if r.op == op), 4)
                          for op in sorted({r.op for r in reqs})},
        "refusals_by_reason": dict(sorted(refused.items())),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(measured: Pass, setup):
    lat = sorted(measured.scaled())
    refused = sum(1 for status, _ in measured.outcomes
                  if status == "refused")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        "refused_ratio": (refused / len(lat), "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def raw_figures(measured: Pass, probes):
    """The end-to-end times as measured, and the kernel times that scaled
    them."""
    lat = sorted(measured.latencies)
    k = sorted(measured.pace.k)
    return {
        "ops_per_s": len(lat) / measured.wall,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "kernel_ms": {"samples": len(k), "min": k[0] * 1e3,
                      "median": statistics.median(k) * 1e3,
                      "max": k[-1] * 1e3},
    }


def per_layer(tr, traced_rate, plain_rate, cold):
    calls, self_s = tr.by_name(tr.calls), tr.by_name(tr.self_s)
    layer_self = tr.layer_self()
    x = tr.extra

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {
        "setalg.normalize.calls": (calls["setalg.normalize"], "count"),
        "setalg.normalize.atoms_in": (x["normalize.atoms_in"], "count"),
        "setalg.normalize.noop_ratio": (
            share(x["normalize.noop"], calls["setalg.normalize"]), "ratio"),
        "setalg.normalize.self_s": (self_s["setalg.normalize"], "s"),
        "setalg.diff.calls": (calls["setalg.diff"], "count"),
        "setalg.intersect.calls": (calls["setalg.intersect"], "count"),
        "setalg.self_s": (layer_self["setalg"], "s"),
        "setalg.refusals": (tr.layer_refusals["setalg"], "count"),
        "hintegral.add.calls": (calls["hintegral.add"], "count"),
        "hintegral.add.terms_in": (x["add.terms_in"], "count"),
        "hintegral.add.self_s": (self_s["hintegral.add"], "s"),
        "hintegral.h_integral.self_s": (self_s["hintegral.h_integral"], "s"),
        "hintegral.signed_part.calls": (calls["hintegral.signed_part"],
                                        "count"),
        "hintegral.signed_part.self_s": (self_s["hintegral.signed_part"], "s"),
        "hintegral.self_s": (layer_self["hintegral"], "s"),
        "hintegral.refusals": (tr.layer_refusals["hintegral"], "count"),
        "hvalue.dim_cmp.calls": (calls["hvalue.dim_cmp"], "count"),
        "hvalue.dim_cmp.self_s": (self_s["hvalue.dim_cmp"], "s"),
        "hvalue.dim_cmp.rational_share": (
            share(x["dim_cmp.rational"], calls["hvalue.dim_cmp"]), "ratio"),
        "hvalue.dim_cmp.identical_share": (
            share(x["dim_cmp.identical"], calls["hvalue.dim_cmp"]), "ratio"),
        "hvalue.ext_cmp.calls": (calls["hvalue.ext_cmp"], "count"),
        "hvalue.ext_cmp.overlap_share": (
            share(x["ext_cmp.overlap"], calls["hvalue.ext_cmp"]), "ratio"),
        "hvalue.self_s": (layer_self["hvalue"], "s"),
        "numeric.enclosure.calls": (x["enclosure.calls"], "count"),
        "numeric.enclosure.escalated_share": (
            share(x["enclosure.escalated"], x["enclosure.calls"]), "ratio"),
        "numeric.enclosure.max_prec_bits": (x["enclosure.max_prec"], "bits"),
        "numeric.self_s": (layer_self["_numeric"], "s"),
        "metrics.d_H.calls": (calls["metrics.d_H"], "count"),
        "metrics.d_s.calls": (calls["metrics.d_s"], "count"),
        "metrics.certificate.calls": (calls["metrics.riesz_fischer_check"]
                                      + calls["metrics.is_cauchy"], "count"),
        "metrics.self_s": (layer_self["metrics"], "s"),
        "docio.calls": (tr.entries["docio"], "count"),
        "docio.self_s": (layer_self["docio"], "s"),
        "deficiency.calls": (tr.entries["deficiency"], "count"),
        "deficiency.self_s": (layer_self["deficiency"], "s"),
        "oracle.calls": (tr.entries["oracle"], "count"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "cli.import_s": (cold["import_s"], "s"),
        "cli.import_sympy_s": (cold.get("import_sympy_s", 0.0), "s"),
        "cli.import_mpmath_s": (cold.get("import_mpmath_s", 0.0), "s"),
        "cli.first_request_s": (cold["first_request_s"], "s"),
        "trace.overhead_ratio": (traced_rate / plain_rate, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int, default=None,
                   help="override the request count (smoke tests)")
    p.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    return p.parse_args(argv)


def load_engine():
    """Import the engine from this checkout's src/, or fail."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hausdorff", "__init__.py")):
        raise SystemExit(f"error: no engine sources at {src}")
    sys.path.insert(0, src)
    import client
    engine = client.load_engine()
    here = os.path.dirname(os.path.abspath(engine.cli.__file__))
    if not here.startswith(src):
        raise SystemExit(f"error: imported the engine from {here}, not {src}")
    return client


def pin_to_one_cpu():
    """Keep the client, its kernel samples and its cold-start children on
    one core, so the kernel measures the core the requests run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    client = load_engine()
    n = args.requests or request_count(args.workload, args.seconds)
    reqs = requests_for(args.workload, args.seed, n)
    warm = requests_for(args.workload, args.seed, WARMUP, salt=":warmup")

    import coldstart
    calib.warm_up()
    argv_cli = first_document(args.workload, reqs)
    probes = [coldstart.probe(ROOT, argv_cli)
              for _ in range(args.setup_probes)]
    setup = statistics.median(p["ref_s"] for p in probes)

    warm_fail, _, _ = verify(warm, run_pass(warm, client.execute).outcomes)
    # the request list is the harness's, not the engine's: keep it out of
    # the collector's scans so their cost tracks the engine alone
    gc.collect()
    gc.freeze()

    if args.trace:
        import tracer as tracing
        half = reqs[: max(1, len(reqs) // 2)]
        plain = run_pass(half, client.execute)
        tr = tracing.Tracer(client.REFUSALS)
        tr.install()
        try:
            traced = run_pass(half, client.execute, tr)
        finally:
            tr.uninstall()
        cold = coldstart.probe(ROOT, argv_cli, importtime=True)
        checked = half + half
        outcomes = plain.outcomes + traced.outcomes
        failures, refused, digest = verify(checked, outcomes)
        metrics = per_layer(tr, traced.rate(), plain.rate(), cold)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.gz")
        tr.write_spans(spans)
        print(f"spans: {len(tr.s_name)} written to "
              f"{os.path.relpath(spans, ROOT)}")
        wall = plain.wall + traced.wall
        attempted = len(checked)
        timed, raw = (), {}
    else:
        measured = run_pass(reqs, client.execute)
        failures, refused, digest = verify(reqs, measured.outcomes)
        metrics = end_to_end(measured, setup)
        checked, timed, wall = reqs, measured.latencies, measured.wall
        attempted = len(reqs)
        raw = raw_figures(measured, probes)

    record = run_record(args, checked, refused, timed)
    record.update(digest=digest, wall_s=wall, raw=raw,
                  setup_samples_s=[p["wall_s"] for p in probes],
                  failed=len(failures))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-{args.seed}"
                                    f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"requests {attempted} (one closed-loop client; also the latency "
          f"sample count)  wall {wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if raw:
        print("  raw, before scaling to reference speed: "
              + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()
                          if k != "kernel_ms")
              + f"  kernel {raw['kernel_ms']['median']:.4g} ms median of "
                f"{raw['kernel_ms']['samples']} (reference "
                f"{calib.REF_KERNEL_S * 1e3:g} ms)")
    print(f"  failed_ratio {len(failures) / attempted:.6g}  "
          f"refusals {dict(sorted(refused.items()))}")
    print(f"  digest {digest}  record {json.dumps(record, sort_keys=True)}")
    for line in (warm_fail + failures)[:10]:
        print(f"  FAILED {line}")

    result = {
        "correct": not failures and not warm_fail,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
