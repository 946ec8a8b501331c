"""The benchmark's workloads still run on the library's public API.

``perfbench/workloads.py`` is loaded by path, as ``perfbench/run.py`` would
import it, and one unit of each fast workload runs with its correctness
re-checks (two units of verify_suites, so that two report files are
compared byte for byte): a library change that breaks how the benchmark
uses the API (record iteration, the object path, file round trips, report
parsing) fails here.  Each unit must also leave the cyclic garbage
collector as it found it: enabled, with the same thresholds.  The kernel
probes run once too, so the five-argument trial kernel call they make
keeps working.
"""

import gc
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from qopdist import statlab

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """The workloads module, loaded without writing bytecode into perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize(
    "name, seed, units",
    [
        pytest.param("triangle_trials", 7, 1, id="triangle_trials"),
        # a second seed draws other trials and re-runs another call through the object path
        pytest.param("triangle_trials", 11, 1, id="triangle_trials-seed11"),
        pytest.param("api_roundtrip", 7, 1, id="api_roundtrip"),
        # a second seed gives the file gates other dimensions and ranks
        pytest.param("api_roundtrip", 11, 1, id="api_roundtrip-seed11"),
        # verify all through the CLI, its report read back by parse_report
        pytest.param("verify_suites", 7, 2, id="verify_suites"),
    ],
)
def test_one_unit_passes_every_gate(workloads, tmp_path, name, seed, units):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    threshold = gc.get_threshold()
    for i in range(units):
        wl.unit(i)
        assert gc.isenabled() and gc.get_threshold() == threshold
    wl.finish()
    assert wl.errors == []
    assert wl.attempted > 0 and wl.failed == 0
    assert wl.gates and all(wl.gates.values()), wl.gates


def test_one_triangle_unit_sets_up_each_shape_once(workloads, tmp_path, monkeypatch):
    """One triangle_trials unit runs 10 consecutive run_trials calls on each
    of its 3 operations, and finds each operation's matched basis once."""
    setups = []
    real = statlab.matched_eigenspaces
    monkeypatch.setattr(statlab, "matched_eigenspaces", lambda E: setups.append(E) or real(E))
    wl = workloads.WORKLOADS["triangle_trials"](7, str(tmp_path))
    wl.unit(0)
    assert wl.errors == [] and wl.failed == 0
    assert len(setups) == len(wl.ops) == 3
    assert all(E is op for E, op in zip(setups, wl.ops))


def test_kernel_probes_time_both_kernels(workloads):
    """kernel_probes calls the trial kernel in its five-argument form, which
    runs its own shared-basis test; both probes give a positive time."""
    times = workloads.kernel_probes()
    assert len(times) == 2 and all(math.isfinite(t) and t > 0.0 for t in times)
