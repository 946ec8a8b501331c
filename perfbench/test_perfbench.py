"""Self-tests of the benchmark's tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import qopdist  # noqa: E402
from qopdist import cli  # noqa: E402
from tracer import CONSTRUCTORS, LAPACK_FUNCS, LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import ApiRoundtrip, TriangleTrials  # noqa: E402


def _bindings():
    """Identity of every binding the tracer may patch."""
    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "qopdist" or name.startswith("qopdist.")):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if isinstance(val, dict) and not key.startswith("__"):
                for k, v in val.items():
                    snap[(name, key, k)] = v
    for modname, clsname, meth, _ in CONSTRUCTORS:
        snap[(modname, clsname, meth)] = getattr(getattr(sys.modules[modname], clsname), meth)
    for fname in LAPACK_FUNCS:
        snap[("numpy.linalg", fname)] = getattr(np.linalg, fname)
    return snap


def _changed(before, after):
    return sorted(str(k) for k in before.keys() | after.keys() if before.get(k) is not after.get(k))


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with tracer:
        patched = _bindings()
        qopdist.trace_distance(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert len(_changed(before, patched)) > 50  # the wrappers really were installed
    assert _changed(before, _bindings()) == []

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("inside the traced block")
    assert _changed(before, _bindings()) == []

    # Calls after the block leave no spans and no LAPACK counts behind.
    n_spans, n_lapack = len(tracer.names), sum(tracer.lapack)
    qopdist.validate_state(np.eye(3) / 3)
    qopdist.build_maximizing_operation(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 1)
    assert (len(tracer.names), sum(tracer.lapack)) == (n_spans, n_lapack)


def test_short_traced_run_covers_every_module(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = {m["name"].split(".")[0] for m in bench["per_layer"]} - {"bench", "trace"}
    assert modules == set(LAYERS)

    api = ApiRoundtrip(3, str(tmp_path))
    trials = TriangleTrials(3, str(tmp_path))
    tracer = Tracer()
    with tracer:
        api.unit(0, tracer)
        trials.unit(0, tracer)
        with redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "thm5", "--seed", "3", "--cases", "20"])
    assert code == 0
    assert api.failed == 0 and trials.failed == 0
    assert all(api.gates.values()) and all(trials.gates.values())

    metrics = layer_metrics(tracer, qopdist.suites.SUITE_NAMES)
    for module in modules:
        assert metrics[f"{module}.calls"][0] > 0, module
    assert metrics["states.lapack_per_validation"][0] == 3
    assert metrics["trace.accounted_frac"][0] == pytest.approx(1.0, abs=1e-9)
    cols = tracer.arrays()
    assert np.all(cols["self"] >= -1e-9)
    assert np.all(cols["end"][1:] >= cols["start"][1:])
