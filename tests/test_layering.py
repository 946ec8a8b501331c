"""Package modules reach each other only through public names.

A module may import another module whole (``from . import _kernels``),
but ``from .<module> import _name`` of a private function or class is a
layering breach: the helper should be made public or stay where it is.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qopdist"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    breaches = [b for path in modules for b in _private_imports(path)]
    assert breaches == []


def test_detects_private_import(tmp_path):
    """The check itself flags a private name and passes a module import."""
    bad = tmp_path / "bad.py"
    bad.write_text("from . import _kernels\nfrom .maximizers import _helper, build_state_pair\n")
    assert list(_private_imports(bad)) == ["bad.py:2: from .maximizers import _helper"]
