"""Tests of the benchmark itself: python3 -m pytest -q perfbench

At a tiny size, tracing leaves every workload's outputs byte-identical, and
the metric names run.py prints are exactly those BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_ops(ops):
    return [op.call() for op in ops]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_leaves_outputs_identical(name, tmp_path):
    import fsscode.sim

    original = fsscode.sim.spa_decode
    wl = workloads.make(name, seed=5, workdir=tmp_path, tiny=True)
    tracer = spans.Tracer()
    with tracer.install():
        wl.setup(tracer)
    plain_ops = wl.ops(0)
    plain = run_ops(plain_ops)
    tracer.round = 0
    with tracer.install():
        traced = run_ops(wl.ops(0, tracer))
    assert traced == plain
    assert [wl.check(op, out) for op, out in zip(plain_ops, plain)] == [None] * len(plain)
    assert fsscode.sim.spa_decode is original
    assert tracer.spans and all(s[3] >= s[2] for s in tracer.spans)
    names = {d["name"] for d in DECLARED["per_layer"]} - {"trace.overhead_ratio"}
    assert set(spans.layer_metrics(tracer)) == names


def last_json(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_declared(trace, section):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ber-short",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    result = last_json(cmd, ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {d["name"]: d["unit"] for d in DECLARED[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
