"""fsscode benchmark: one workload, one run, metrics as JSON.

    python3 perfbench/run.py --workload ber-short --seed 1 --seconds 20 --trace 0

Run from a checkout holding ``src/fsscode``; nothing needs installing. Each
run starts the workload in fresh interpreters (``worker.py``) with one
thread per numeric library. ``--trace 0`` reports the end-to-end metrics:
set-up time (median of SETUP_LAUNCHES fresh processes), peak RSS, and
``round_per_ref``, the median over rounds of a round's wall time divided by
the mean reference sample taken while it ran (see ``worker.Reference``).
The ratio cancels the machine's speed, which drifts by about 25% over tens
of seconds on a shared 2-core Xeon VM. ``--trace 1`` reports the per-layer
metrics of a traced run instead. The line before the last holds the
environment, wall-clock timings per part (median, tail percentile, count)
and the failures; the last line holds the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7
DEADLINE_S = 170  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# names of the per-part wall-clock timings in the report line
PART_METRICS = {"ber": "ber_sweep_s", "g8": "g8_solve_s", "g10": "g10_solve_s",
                "verify": "verify_s", "construct": "construct_s"}


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def launch(args, deadline, setup_only=False):
    """Start one worker, wait for it; returns (result, seconds to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {args.workload} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - launched


def summary(values):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    out = {"p50": statistics.median(vals), "n": len(vals)}
    for p in (0.999, 0.99, 0.95, 0.9, 0.75):
        if len(vals) * (1 - p) >= 10:
            out[f"p{p * 100:g}"] = spans.percentile(vals, p)
            break
    return out


def end_to_end(result, setups):
    """The metrics BENCHMARK.json declares under end_to_end."""
    rounds = result["rounds"]
    return {
        "round_per_ref": {"value": statistics.median(r["s"] / r["ref_s"] for r in rounds),
                          "unit": "ratio"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(result):
    """The metrics BENCHMARK.json declares under per_layer."""
    out = {k: {"value": v, "unit": spans.unit_of(k)}
           for k, v in result["layers"].items()}
    out["trace.overhead_ratio"] = {"value": result["overhead_ratio"], "unit": "ratio"}
    return out


def report(args, result, setups, load_start):
    """Everything but the result line: environment, parts, failures."""
    parts = {}
    for r in result["rounds"]:
        for part, s in r["parts"].items():
            parts.setdefault(PART_METRICS[part], []).append(s)
    timings = {name: summary(vals) for name, vals in parts.items()}
    timings["round_s"] = summary([r["s"] for r in result["rounds"]])
    timings["reference_s"] = summary([r["ref_s"] for r in result["rounds"]])
    if result["frames"]:
        timings["frames_per_s"] = result["frames"] / timings["ber_sweep_s"]["p50"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**result["env"], "commit": git_commit(), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                "loadavg_start": load_start, "loadavg_end": loadavg()},
        "timings": timings, "setup_launches_s": setups,
        "error_rate": result["failed"] / result["attempted"],
        "errors": result["errors"],
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description="fsscode benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fsscode" / "__init__.py").is_file():
        print(f"perfbench: no fsscode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_start = loadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                setups.append(launch(args, deadline, setup_only=True)[1])
        result, ready = launch(args, deadline)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    setups.append(ready)
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    print(json.dumps(report(args, result, setups, load_start)))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
