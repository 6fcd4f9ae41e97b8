"""Tests of the benchmark itself, kept apart from the engine's test suite:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import client  # noqa: E402
import gen_functions  # noqa: E402
import gen_numeric  # noqa: E402
import gen_sets  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

GENERATORS = {"sets": gen_sets, "functions": gen_functions,
              "numeric": gen_numeric}


@pytest.fixture(scope="module", autouse=True)
def engine():
    return client.load_engine()


def _stream(workload, seed, n):
    """The request stream as bytes: operation, inputs and expectation."""
    reqs = run.requests_for(workload, seed, n)
    return "\n".join(json.dumps([r.op, r.args, repr(r.expect), r.size],
                                sort_keys=True) for r in reqs).encode()


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_stream(workload):
    """Byte-identical in this process and in a child with another string
    hash seed, so no set iteration order leaks into the inputs."""
    mine = _stream(workload, 7, 120)
    code = (f"import sys; sys.path[:0] = [{BENCH!r}, {HERE!r}]\n"
            f"from test_perfbench import _stream\n"
            f"sys.stdout.buffer.write(_stream({workload!r}, 7, 120))\n")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, timeout=120, check=True)
    assert child.stdout == mine
    assert _stream(workload, 8, 120) != mine


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_every_operation_kind_is_present(workload):
    """Each block of the plan holds every operation of the mix, and the
    client knows every operation the generators emit."""
    gen = GENERATORS[workload]
    planned = gen.plan(random.Random(3), gen.BLOCK)
    assert len(planned) == gen.BLOCK
    assert {p[0] if isinstance(p, tuple) else p for p in planned} == \
        {op for op, _ in gen.MIX}
    reqs = gen.generate(random.Random(3), gen.BLOCK)
    assert {r.op for r in reqs} <= set(client.OPS)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_refusal_share_in_stated_range(workload):
    """One block of requests, answered and checked; the refusals the engine
    names fall within the workload's stated share."""
    gen = GENERATORS[workload]
    reqs = gen.generate(random.Random(11), gen.BLOCK)
    outcomes = run.run_pass(reqs, client.execute).outcomes
    failures, refused, _ = run.verify(reqs, outcomes)
    assert failures == []
    lo, hi = gen.REFUSED_RANGE
    assert lo <= sum(refused.values()) / len(reqs) <= hi


def test_self_times_within_wall_time():
    reqs = run.requests_for("functions", 5, 40)
    tr = tracer.Tracer(client.REFUSALS)
    tr.install()
    try:
        wall = run.run_pass(reqs, client.execute, tr).wall
    finally:
        tr.uninstall()
    total = sum(tr.self_s.values())
    assert 0 < total <= wall
    assert tr.calls and len(tr.s_name) > 0
    # the originals are back
    from hausdorff import hintegral, setalg
    assert not hasattr(setalg.normalize, "__wrapped__")
    assert not hasattr(hintegral.normalize, "__wrapped__")


def test_scaling_to_reference_speed():
    """Each step is scaled by the kernel times sampled before and after
    it: a core twice as slow as the reference halves the times, one twice
    as fast doubles them."""
    ref = calib.REF_KERNEL_S
    pace = calib.Pace()
    pace.at = list(range(0, 12, 2))
    pace.k = [2 * ref] * 3 + [ref / 2] * 3
    scaled = pace.scale([1.0] * 12)
    assert scaled[:4] == pytest.approx([0.5] * 4)
    assert scaled[4:6] == pytest.approx([1 / 1.25] * 2)
    assert scaled[-4:] == pytest.approx([2.0] * 4)
    with pytest.raises(ValueError):
        calib.Pace().scale([1.0])


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    spec = _bench_spec()
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--requests", "30", "--setup-probes", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 30
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sets", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
