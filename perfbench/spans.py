"""Span recorder for the traced run, and the per-layer metrics read from it.

The traced run swaps module attributes at the layer boundaries for timing
wrappers (``install``) and restores them afterwards; the sources under
``src/`` are never edited. Every call through a wrapper records one span:
name, parent span, start, end, the round it ran in, and one count read off
its arguments or result. Spans stay in memory until ``dump`` writes them
once at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from math import ceil
from time import perf_counter

SETUP = "setup"

# (module, attribute, span name): the calls between layers that are timed
PATCHES = (
    ("fsscode.sim", "transmit", "sim.transmit"),
    ("fsscode.sim", "spa_decode", "sim.spa_decode"),
    ("fsscode.shiftsearch", "tanner_girth", "girth.tanner_girth"),
    ("fsscode.shiftsearch", "expand", "qc.expand"),
    ("fsscode.construct", "min_edge_walk", "girth.min_edge_walk"),
    ("fsscode.construct", "inevitable_girth", "girth.inevitable_girth"),
    ("fsscode.cli", "expand", "qc.expand"),
    ("fsscode.cli", "tanner_girth", "girth.tanner_girth"),
    ("fsscode.cli", "search_shifts", "shiftsearch.search_shifts"),
    ("fsscode.cli", "method2", "construct.method2"),
)


def _count(name, args, result):
    """The one count a span carries, or the object it is read from later."""
    if name == "qc.expand":
        return result.nnz
    if name == "sim.ber_sweep":
        return (result[0].frames, args[0].nnz)
    if name == "sim.spa_decode":
        return (result.iterations, result.converged)
    if name == "shiftsearch.create":
        return result  # the state: templates now, backtracks once searched
    if name == "shiftsearch.allowed_values":
        return len(result)
    if name in ("shiftsearch.search_shifts", "construct.method2"):
        return result.expansions
    if name == "girth.tanner_girth":
        return args[0].rows
    if name == "girth.min_edge_walk":
        return result is not None
    return None


class Tracer:
    """Spans as lists [name, parent, start, end, round, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round = SETUP

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.round, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            rec[5] = _count(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap every boundary in PATCHES for a wrapper, restoring on exit."""
        from fsscode.shiftsearch import ShiftSearchState

        saved = []
        try:
            for mod_name, attr, name in PATCHES:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            create = ShiftSearchState.__dict__["create"]
            filt = ShiftSearchState.__dict__["allowed_values"]
            saved += [(ShiftSearchState, "create", create),
                      (ShiftSearchState, "allowed_values", filt)]
            ShiftSearchState.create = classmethod(
                self.wrap(create.__func__, "shiftsearch.create"))
            ShiftSearchState.allowed_values = self.wrap(
                filt, "shiftsearch.allowed_values")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Duration minus child coverage, per span. Children of one span
        run one after another on this single thread, so their coverage is
        the sum of their durations."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def dump(self, path):
        """Write the spans once, as one JSON document."""
        rows = []
        for i, (name, parent, start, end, rnd, count) in enumerate(self.spans):
            if name == "shiftsearch.create":
                count = [_templates(count), count.backtracks]
            rows.append([i, name, parent, start, end, rnd, count])
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end",
                                  "round", "count"], "spans": rows}, fh)


def _templates(state):
    return sum(len(forms) for forms in state.buckets.values())


def percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, ceil(p * len(values)) - 1)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run.

    ``*_s`` metrics are seconds spent in set-up plus the median round;
    counts are those of set-up plus the first round, which depends only on
    the workload seed; percentiles and ratios pool every traced round.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    rounds = sorted({s[4] for s in spans if s[4] != SETUP})

    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append((i, s))

    def pick(name):
        return by_name.get(name, [])

    def seconds(name, use_self=False):
        per = {r: 0.0 for r in rounds}
        setup = 0.0
        for i, s in pick(name):
            t = selfs[i] if use_self else s[3] - s[2]
            if s[4] == SETUP:
                setup += t
            else:
                per[s[4]] += t
        return setup + (statistics.median(per.values()) if per else 0.0)

    def first(name, count=lambda c: c):
        return sum(count(s[5]) for _, s in pick(name) if s[4] in (SETUP, 0))

    def durations_us(name):
        return [(s[3] - s[2]) * 1e6 for _, s in pick(name) if s[4] != SETUP]

    def round_counts(name):
        return [s[5] for _, s in pick(name) if s[4] != SETUP]

    m = {}
    sweeps = pick("sim.ber_sweep")
    frames = sum(s[5][0] for _, s in sweeps)
    sweep_self = sum(selfs[i] for i, _ in sweeps)
    transmit = durations_us("sim.transmit")
    decode = durations_us("sim.spa_decode")
    decodes = round_counts("sim.spa_decode")
    edges = max((s[5][1] for _, s in sweeps), default=0)
    iterations = sum(it for it, _ in decodes)
    m["sim.transmit_us_p50"] = percentile(transmit, 0.5)
    m["sim.transmit_us_p99"] = percentile(transmit, 0.99)
    m["sim.sweep_self_us"] = sweep_self * 1e6 / frames if frames else 0.0
    m["sim.decode_us_p50"] = percentile(decode, 0.5)
    m["sim.decode_us_p99"] = percentile(decode, 0.99)
    m["sim.iterations"] = first("sim.spa_decode", lambda c: c[0])
    m["sim.converged_ratio"] = (sum(ok for _, ok in decodes) / len(decodes)
                                if decodes else 0.0)
    m["sim.edges"] = edges
    m["sim.ns_per_edge_iter"] = (sum(decode) * 1e3 / (iterations * edges)
                                 if iterations and edges else 0.0)

    filt = durations_us("shiftsearch.allowed_values")
    cands = round_counts("shiftsearch.allowed_values")
    m["shiftsearch.setup_s"] = seconds("shiftsearch.create")
    m["shiftsearch.templates"] = first("shiftsearch.create", _templates)
    m["shiftsearch.filter_calls"] = first("shiftsearch.allowed_values", lambda c: 1)
    m["shiftsearch.filter_us_p50"] = percentile(filt, 0.5)
    m["shiftsearch.filter_us_p99"] = percentile(filt, 0.99)
    m["shiftsearch.cands_per_filter"] = sum(cands) / len(cands) if cands else 0.0
    m["shiftsearch.expansions"] = first("shiftsearch.search_shifts")
    m["shiftsearch.backtracks"] = first("shiftsearch.create", lambda st: st.backtracks)
    m["shiftsearch.self_s"] = seconds("shiftsearch.search_shifts", use_self=True)

    walks = durations_us("girth.min_edge_walk")
    found = round_counts("girth.min_edge_walk")
    m["girth.tanner_s"] = seconds("girth.tanner_girth")
    m["girth.tanner_roots"] = first("girth.tanner_girth")
    m["girth.walk_calls"] = first("girth.min_edge_walk", lambda c: 1)
    m["girth.walk_us_p50"] = percentile(walks, 0.5)
    m["girth.walk_us_p99"] = percentile(walks, 0.99)
    m["girth.walk_found_ratio"] = sum(found) / len(found) if found else 0.0
    m["girth.inevitable_s"] = seconds("girth.inevitable_girth")

    m["construct.expansions"] = first("construct.method2")
    m["construct.self_s"] = seconds("construct.method2", use_self=True)
    m["qc.expand_s"] = seconds("qc.expand")
    m["qc.expand_nnz"] = first("qc.expand")
    m["cli.self_s"] = seconds("cli.main", use_self=True)
    return m


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    if name.endswith("ns_per_edge_iter"):
        return "ns"
    return "ratio" if name.endswith("_ratio") else "count"
