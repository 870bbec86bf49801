"""The traced benchmark run swaps the module attributes named in
``perfbench/spans.py`` for timing wrappers; a rename in ``src`` that drops
one of them breaks that run, so every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

from fsscode import reference_code
from fsscode.qc import assemble, expand, shift_sequence_from_list
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import ShiftSearchState, search_shifts

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_attributes_resolve():
    patches = _load_spans().PATCHES
    assert patches
    for mod_name, attr, _ in patches:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (
            mod_name, attr)
    for attr in ("create", "allowed_values"):
        assert attr in ShiftSearchState.__dict__


def test_expand_counts_are_python_ints():
    # spans._count JSON-dumps ``nnz`` and ``rows`` of ``expand`` output, and
    # ``fsscode expand`` prints ``nnz``: a numpy integer would break both
    fss = validate_fss(3, [[1, 2, 3]])  # v > b: expand returns the transpose
    for H in (expand(reference_code("fss-3-10-m36")),
              expand(assemble(fss, shift_sequence_from_list(fss, 2, [0, 1, 1])))):
        assert H.nnz > 0
        for value in (H.rows, H.cols, H.nnz):
            assert type(value) is int, (H, type(value))


def test_traced_template_count_matches_the_stats():
    # perfbench's shiftsearch.templates metric counts the forms of
    # ``buckets``, a view of the state's form matrix
    state = ShiftSearchState.create(validate_fss(3, [[1, 2, 3]] * 10), 477, 10)
    count = _load_spans()._templates(state)
    assert count == sum(state.stats["templates"].values()) == 13_815


def test_created_state_carries_the_search_counters(monkeypatch):
    # the traced run reads ``backtracks`` off the state ``create`` returned
    # (spans.layer_metrics and Tracer.dump), after search_shifts has run on it
    created = []
    create = ShiftSearchState.create.__func__

    def capture(cls, *args):
        created.append(create(cls, *args))
        return created[-1]

    monkeypatch.setattr(ShiftSearchState, "create", classmethod(capture))
    res = search_shifts(validate_fss(3, [[1, 2, 3]] * 10), 40, 8)
    assert res.status == "ok"
    (state,) = created
    assert state.backtracks == res.backtracks == 1496


def test_every_method2_walk_query_is_traced():
    # the traced analyze run times method2's walk queries through the
    # ``construct.min_edge_walk`` attribute: a query that went round it
    # would drop out of the girth.min_edge_walk span unseen
    from fsscode import construct, load_paper_tables

    p = next(p for p in load_paper_tables()["weight_profiles"]
             if p["name"] == "v10-b13-g16")
    tracer = _load_spans().Tracer()
    with tracer.install():
        res = construct.method2(p["v"], construct.WeightProfile(tuple(p["K"])),
                                p["target_girth"])
    assert res.ok
    queries = [s for s in tracer.spans if s[0] == "girth.min_edge_walk"]
    assert len(queries) == res.stats["walk_queries"] == 193
    assert sum(s[5] is False for s in queries) == res.stats["accepted"] == 36
