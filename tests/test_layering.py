"""Package modules reach each other only through public names.

A module may import another module whole (``from . import _kernels``),
but ``from .<module> import _name`` of a private function or class, or
``<module>._name`` on a module imported that way, is a layering breach:
the helper should be made public or stay where it is.

Functions rebind no module-level name (``global``): data derived from
one object, or from it and a pair of states, is held on that object, as
an operation holds its spectral data and a state the split of its last
pair.  ``channels.held`` is the one function that reads such a store.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qopdist"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    yield f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            yield f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    breaches = [b for path in modules for b in _private_uses(path)]
    assert breaches == []


def test_detects_private_import(tmp_path):
    """The check itself flags a private name and passes a module import."""
    bad = tmp_path / "bad.py"
    bad.write_text("from . import _kernels\nfrom .maximizers import _helper, build_state_pair\n")
    assert list(_private_uses(bad)) == ["bad.py:2: from .maximizers import _helper"]


def test_detects_private_attribute(tmp_path):
    """The check flags module._name on a whole-module import and passes
    public attributes, also of a private module."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from . import _kernels, statlab as sl\n"
        "_kernels.trial_stats(np._private)\n"
        "sl._cdf_moment(sl.run_trials, _kernels.__name__)\n"
    )
    assert list(_private_uses(bad)) == ["bad.py:4: sl._cdf_moment"]


# (module, name) of each module-level memo a function may rebind: none.
# What derives from an operation or a pair is held on the operation or the
# pair's first state instead.
MODULE_MEMOS = set()


def _rebound_globals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield path.name, name


def test_no_function_rebinds_a_module_level_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert {g for path in modules for g in _rebound_globals(path)} == MODULE_MEMOS


def test_detects_global_statements(tmp_path):
    """The check finds every name of a global statement in a function or a
    method, and nothing in a module without one."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "_memo = None\n"
        "def f():\n"
        "    global _memo\n"
        "    _memo = 1\n"
        "class C:\n"
        "    def g(self):\n"
        "        global _x, _y\n"
    )
    assert list(_rebound_globals(bad)) == [("bad.py", "_memo"), ("bad.py", "_x"), ("bad.py", "_y")]
    good = tmp_path / "good.py"
    good.write_text("_memo = {}\ndef f(x):\n    return x\n")
    assert list(_rebound_globals(good)) == []


def _held_readers(path):
    """(module, function) of each ``._held`` attribute in a module, the
    function being the innermost enclosing one: None at module level,
    "<lambda>" in a lambda."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if isinstance(node, ast.Attribute) and node.attr == "_held":
            found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_function_reads_the_held_store():
    """Only ``channels.held`` reads or writes an object's ``_held`` store;
    the constructors start it empty through ``object.__setattr__``."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert {r for path in modules for r in _held_readers(path)} == {("channels.py", "held")}


def test_detects_held_store_reads(tmp_path):
    """The check finds a read at module level, in a function and in a lambda
    inside a method, and not the store's name as a string."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "object.__setattr__(s, '_held', {})\n"
        "x = s._held\n"
        "def held(o):\n"
        "    return o._held.get(1)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return lambda o: o._held\n"
    )
    assert _held_readers(bad) == [("bad.py", None), ("bad.py", "held"), ("bad.py", "<lambda>")]


def test_import_starts_no_process_machinery():
    """``import qopdist`` loads neither concurrent.futures nor
    multiprocessing: the suite runner imports them when it runs."""
    probe = "import sys, qopdist; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# (module, function) of each place that asks whether an operand is already a
# state: the two conversions and the shape check of an operation's input.
STATE_TESTS = {("states.py", "as_state"), ("states.py", "state_matrix"), ("channels.py", "_operand")}


def _identifiers(node):
    """Every name and attribute name in an expression."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _state_tests(path):
    """(module, function) of each ``isinstance`` call that names
    ``DensityMatrix``, the function being the innermost enclosing one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and "DensityMatrix" in {name for arg in node.args[1:] for name in _identifiers(arg)}
        ):
            found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_operand_rule():
    """Functions defined on states convert a raw operand with ``as_state``
    (or, for Hermitian operands, ``state_matrix``) and pass the result on,
    so no other function asks whether an operand is a ``DensityMatrix``."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert {t for path in modules for t in _state_tests(path)} == STATE_TESTS


def test_detects_state_tests(tmp_path):
    """The check finds ``DensityMatrix`` as a name, an attribute and in a
    tuple, at module level and in a method, and passes other isinstance
    calls and the bare name."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import states\n"
        "a = isinstance(x, DensityMatrix)\n"
        "def f(x):\n"
        "    return isinstance(x, (int, states.DensityMatrix))\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return isinstance(x, dict) or DensityMatrix(x)\n"
        "    def n(self, x):\n"
        "        return isinstance(x, DensityMatrix) and isinstance(x, np.ndarray)\n"
    )
    assert _state_tests(bad) == [("bad.py", None), ("bad.py", "f"), ("bad.py", "n")]
