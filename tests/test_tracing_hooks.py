"""The traced benchmark run swaps the module attributes named in
``perfbench/spans.py`` for timing wrappers; a rename in ``src`` that drops
one of them breaks that run, so every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

from fsscode.shiftsearch import ShiftSearchState

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
