"""Static check of the demos: every name they import from fsscode exists.

The demos are narrative scripts; CI runs each one (demo 05 takes ~5 s, the
others under a second), and this test parses them, so a renamed import
fails here without running the demos.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _fsscode_imports(path):
    """(module, name or None) for every fsscode import in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "fsscode" or node.module.startswith("fsscode.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fsscode":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(path):
    imports = list(_fsscode_imports(path))
    assert imports, f"{path.name} imports nothing from fsscode"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module}.{name} missing"
