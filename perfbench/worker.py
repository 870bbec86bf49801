"""One measuring process of the benchmark; ``run.py`` starts it.

It sets up one workload, then runs rounds until ``--seconds`` have passed
(at least MIN_ROUNDS), timing every operation and checking every output
outside the timed calls. Reference samples taken on a timer while the ops
run give the machine's speed during each round. With ``--trace 1`` each
round runs twice on the same inputs, untraced and then traced: the outputs
must be equal, and the ratio of the two wall times is the tracing overhead.
The last line of standard output is one JSON object; ``--setup-only`` stops
after set-up.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 3


class Reference:
    """Fixed work that calls no fsscode code: the yardstick of machine speed.

    While a round's ops run, a SIGALRM timer interrupts them every PERIOD_S
    and times one sample: four short kernels with different bottlenecks,
    0.5 to 2 ms each on a 2.1 GHz Xeon VM. They are interpreter arithmetic
    with dict updates, a BFS chasing pointers through a 30k-node graph,
    numpy gathers with tanh, and an integer matrix-vector product. A sample
    is the geometric mean of the four times. The samples cover the whole op,
    so a change of machine speed in the middle of a long op shows in them.
    The time spent sampling is taken out of the op's time.
    """

    PERIOD_S = 0.1
    NODES = 30_000

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.adj = rng.integers(0, self.NODES, size=(self.NODES, 3)).tolist()
        self.x = rng.normal(size=20_000)
        self.idx = rng.integers(0, 20_000, size=20_000)
        self.forms = rng.integers(-2, 3, size=(4_000, 30))
        self.vec = rng.integers(0, 500, size=30)
        self.samples: list[float] = []
        self.spent = 0.0

    def arithmetic(self):
        counts: dict[int, int] = {}
        acc = 0
        for i in range(6_000):
            k = (i * 7919) % 1009
            counts[k] = counts.get(k, 0) + 1
            acc += k & 3
        return acc

    def bfs(self):
        dist = [-1] * self.NODES
        dist[0] = 0
        queue = collections.deque([0])
        seen = 0
        while queue and seen < 2_000:
            u = queue.popleft()
            seen += 1
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return seen

    def gather(self):
        import numpy as np

        for _ in range(2):
            y = np.tanh(self.x[self.idx])
        return float(y.sum())

    def matvec(self):
        for _ in range(3):
            y = (self.forms @ self.vec) % 477
        return int(y[0])

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        start = time.perf_counter()
        prod = 1.0
        for kernel in (self.arithmetic, self.bfs, self.gather, self.matvec):
            t = time.perf_counter()
            kernel()
            prod *= time.perf_counter() - t
        self.samples.append(prod ** (1 / 4))
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_round(ops, ref=None):
    """Run one round's ops; returns per-op (op, seconds, output, error) and
    the reference samples taken meanwhile (none without a Reference)."""
    done = []
    first = len(ref.samples) if ref else 0
    with ref.sampling() if ref else contextlib.nullcontext():
        for op in ops:
            spent = ref.spent if ref else 0.0
            t = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as ex:  # noqa: BLE001 - a failed op is counted, not fatal
                out, err = None, f"{op.label}: {type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t - ((ref.spent - spent) if ref else 0.0)
            done.append((op, dt, out, err))
    if ref and len(ref.samples) == first:  # a round shorter than PERIOD_S
        ref.sample()
    return done, ref.samples[first:] if ref else []


def measure(wl, seconds, tracer):
    """Rounds until ``seconds`` have passed; returns the run's raw results."""
    rounds, errors = [], []
    counts = {"attempted": 0, "failed": 0}
    wall = {"untraced": 0.0, "traced": 0.0}

    def fail(msg):
        counts["failed"] += 1
        if len(errors) < 5:
            errors.append(msg)

    ref = Reference()
    start = time.perf_counter()
    r = 0
    min_rounds = 1 if tracer else MIN_ROUNDS
    while r < min_rounds or time.perf_counter() - start < seconds:
        done, refs = run_round(wl.ops(r), ref)
        counts["attempted"] += len(done)
        parts: dict[str, float] = {}
        for op, dt, out, err in done:
            parts[op.part] = parts.get(op.part, 0.0) + dt
            err = err or wl.check(op, out)
            if err:
                fail(err)
        rounds.append({"s": sum(d[1] for d in done), "parts": parts,
                       "ref_s": statistics.fmean(refs)})
        if tracer is not None:
            tracer.round = r
            with tracer.install():
                traced, _ = run_round(wl.ops(r, tracer))
            counts["attempted"] += len(traced)
            for (op, _, out, _), (_, _, tout, terr) in zip(done, traced):
                if terr or tout != out:
                    fail(f"{op.label}: traced output differs from untraced")
            wall["untraced"] += rounds[-1]["s"]
            wall["traced"] += sum(d[1] for d in traced)
        r += 1
    return {"rounds": rounds, "errors": errors, **counts,
            "overhead_ratio": wall["traced"] / wall["untraced"] if tracer else None}


def environment():
    import numpy

    import fsscode

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "fsscode": fsscode.__version__}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import fsscode

    src = (ROOT / "src").resolve()
    if src not in Path(fsscode.__file__).resolve().parents:
        print(f"fsscode was imported from {fsscode.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = workloads.make(args.workload, args.seed, tmp)
        with tracer.install() if tracer else contextlib.nullcontext():
            wl.setup(tracer)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        result = measure(wl, args.seconds, tracer)
    result["ready"] = ready
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["frames"] = getattr(wl, "frames", None)
    result["env"] = environment()
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
