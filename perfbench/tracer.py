"""Span tracer that wraps qopdist's public functions from the outside.

``Tracer`` replaces every public module-level function of the traced
layers (and the two validating constructors) with a timing wrapper, at
every binding that holds it: the defining module, every qopdist module
that imported the name, the package namespace and module-level dicts such
as ``suites._SUITE_FNS``.  It also wraps ``np.linalg.{eigvalsh, eigh,
svd, qr}`` with a counter charged to the innermost open span.  Everything
is put back on exit, also when the traced block raises.

Spans live in flat in-memory arrays (name, parent, group, start, end,
LAPACK calls) and are written out once at the end.  Span 0 is a root that
covers the whole traced interval, so time outside every wrapped call shows
up as the benchmark's own self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

# Layer name -> module name.  ``_kernels`` is reported as ``kernels``
# because metric names must start with a letter or digit.
LAYERS = {
    "linalg": "qopdist.linalg",
    "states": "qopdist.states",
    "metrics": "qopdist.metrics",
    "channels": "qopdist.channels",
    "maximizers": "qopdist.maximizers",
    "statlab": "qopdist.statlab",
    "kernels": "qopdist._kernels",
    "matrixio": "qopdist.matrixio",
    "suites": "qopdist.suites",
    "cli": "qopdist.cli",
}
BENCH = "bench"
LAPACK_FUNCS = ("eigvalsh", "eigh", "svd", "qr")
# Validating constructors traced as spans of their layer: (module, class, method, span name).
CONSTRUCTORS = (
    ("qopdist.states", "DensityMatrix", "__post_init__", "states.DensityMatrix"),
    ("qopdist.channels", "QuantumOperation", "__init__", "channels.QuantumOperation"),
)


def public_functions(module):
    """Module-level functions defined in ``module`` whose names have no leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def _qopdist_namespaces():
    """Every namespace that can hold a binding of a qopdist function: the
    package, its submodules, and their module-level dicts."""
    spaces = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qopdist" or name.startswith("qopdist.")):
            continue
        spaces.append(mod.__dict__)
        for key, val in vars(mod).items():
            if isinstance(val, dict) and not key.startswith("__"):
                spaces.append(val)
    return spaces


class Tracer:
    """Context manager: install the wrappers on enter, restore on exit."""

    def __init__(self):
        self.span_names = ["bench.outside"]
        self.names = array("i", [0])
        self.parents = array("i", [-1])
        self.groups = array("i", [0])
        self.starts = array("d", [0.0])
        self.ends = array("d", [0.0])
        self.lapack = array("i", [0])
        self.stack = [0]
        self.group = [0]
        self.counters = {
            "records": 0,
            "trial_matrices": 0,
            "trial_bytes": 0,
            "bytes_written": 0,
        }
        self._patches = []  # (namespace, key, original, is_attr)

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.span_names.append(name)
        return len(self.span_names) - 1

    def _wrapper(self, fn, name_id, on_result=None, opens_group=False):
        names, parents, groups = self.names, self.parents, self.groups
        starts, ends, lapack = self.starts, self.ends, self.lapack
        stack, group = self.stack, self.group
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            saved_group = group[0]
            if opens_group:
                group[0] = idx
            names.append(name_id)
            parents.append(stack[-1])
            groups.append(group[0])
            lapack.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                group[0] = saved_group
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def bench_span(self, name: str, fn):
        """Wrap one of the benchmark's own functions as a span of layer ``bench``."""
        return self._wrapper(fn, self._name_id(name))

    def new_group(self) -> None:
        """Start a new span group (one pair, one trial batch, one run)."""
        self.group[0] = len(self.names)

    # -- installing and restoring ----------------------------------------------

    def _set(self, space, key, value, is_attr):
        if is_attr:
            self._patches.append((space, key, getattr(space, key), True))
            setattr(space, key, value)
        else:
            self._patches.append((space, key, space[key], False))
            space[key] = value

    def __enter__(self):
        hooks = {
            "statlab.run_trials": self._count_records,
            "kernels.trial_stats": self._count_trial_work,
            "matrixio.save_matrix": self._count_written,
            "matrixio.save_kraus_set": self._count_written,
        }
        replacement = {}
        for layer, modname in LAYERS.items():
            for fname, fn in public_functions(sys.modules[modname]).items():
                span_name = f"{layer}.{fname}"
                one_suite = layer == "suites" and fname.startswith("run_") and fname not in ("run_suite", "run_all")
                replacement[id(fn)] = self._wrapper(
                    fn, self._name_id(span_name), on_result=hooks.get(span_name), opens_group=one_suite
                )
        try:
            for space in _qopdist_namespaces():
                for key, val in list(space.items()):
                    if id(val) in replacement and not key.startswith("__"):
                        self._set(space, key, replacement[id(val)], False)
            for modname, clsname, meth, span_name in CONSTRUCTORS:
                cls = getattr(sys.modules[modname], clsname)
                wrapped = self._wrapper(getattr(cls, meth), self._name_id(span_name))
                self._set(cls, meth, wrapped, True)
            for fname in LAPACK_FUNCS:
                self._set(np.linalg, fname, self._counter(getattr(np.linalg, fname)), True)
        except BaseException:
            self.restore()
            raise
        self.starts[0] = time.perf_counter()
        return self

    def _counter(self, fn):
        lapack, stack = self.lapack, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            lapack[stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            space, key, original, is_attr = self._patches.pop()
            if is_attr:
                setattr(space, key, original)
            else:
                space[key] = original

    def __exit__(self, *exc):
        self.ends[0] = time.perf_counter()
        self.restore()
        return False

    # -- counters fed from call results ------------------------------------------

    def _count_records(self, args, result):
        self.counters["records"] += len(result)

    def _count_trial_work(self, args, result):
        # Computed from array sizes, not measured memory traffic: the
        # inputs, the three result columns, and the two d x d complex
        # matrices the kernel forms and diagonalizes per trial.
        op_mats, w_rho = args[0], args[1]
        n, d = w_rho.shape[0], op_mats.shape[1]
        self.counters["trial_matrices"] += 2 * n
        self.counters["trial_bytes"] += (
            sum(np.asarray(a).nbytes for a in args)
            + sum(r.nbytes for r in result)
            + 2 * n * d * d * 16
        )

    def _count_written(self, args, result):
        self.counters["bytes_written"] += os.path.getsize(args[0])

    # -- aggregation -------------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns, with self time and inclusive LAPACK calls."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        lapack = np.frombuffer(self.lapack, dtype=np.int32).astype(np.int64)
        dur = ends - starts
        child = np.bincount(parents[1:], weights=dur[1:], minlength=len(dur))
        self_s = dur - child
        # Inclusive LAPACK counts: children always have larger indices than
        # their parents, so fold deepest spans into their parents first.
        depth = np.zeros(len(dur), dtype=np.int64)
        p = parents.copy()
        while np.any(p > 0):
            depth += p > 0
            p = np.where(p > 0, parents[np.maximum(p, 0)], p)
        incl_lapack = lapack.copy()
        for level in range(int(depth.max(initial=0)), -1, -1):
            sel = np.flatnonzero((depth == level) & (parents >= 0))
            np.add.at(incl_lapack, parents[sel], incl_lapack[sel])
        return {
            "name": names,
            "parent": parents,
            "group": np.frombuffer(self.groups, dtype=np.int32),
            "start": starts,
            "end": ends,
            "dur": dur,
            "self": self_s,
            "lapack": lapack,
            "lapack_incl": incl_lapack,
        }

    def write(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path,
            span_names=np.array(json.dumps(self.span_names)),
            **{k: cols[k] for k in ("name", "parent", "group", "start", "end", "lapack")},
        )



def _outermost(cols, ids):
    """Total inclusive time of spans named in ``ids`` that are not nested
    inside another span of the same set."""
    mask = np.isin(cols["name"], ids)
    parent_in = np.isin(cols["name"][np.maximum(cols["parent"], 0)], ids) & (cols["parent"] > 0)
    return float(cols["dur"][mask & ~parent_in].sum())


def layer_metrics(tracer: Tracer, suite_names) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``, from the recorded spans."""
    cols = tracer.arrays()
    names = tracer.span_names
    layers = np.array([n.split(".")[0] for n in names])[cols["name"]]

    def ids(*span_names):
        return [i for i, n in enumerate(names) if n in span_names]

    def per_call(span_name, column):
        mask = np.isin(cols["name"], ids(span_name))
        return float(cols[column][mask].sum() / mask.sum()) if mask.any() else 0.0

    out = {}
    for layer in LAYERS:
        mask = layers == layer
        out[f"{layer}.calls"] = (int(mask.sum()), "count")
        out[f"{layer}.self_s"] = (float(cols["self"][mask].sum()), "s")
        out[f"{layer}.lapack_calls"] = (int(cols["lapack"][mask].sum()), "count")
    bench = layers == BENCH
    out["bench.self_s"] = (float(cols["self"][bench].sum()), "s")
    out["channels.lapack_per_operation"] = (per_call("channels.random_operation", "lapack_incl"), "calls/op")
    out["states.lapack_per_validation"] = (per_call("states.validate_state", "lapack_incl"), "calls/op")
    for suite in suite_names:
        out[f"suites.{suite}_s"] = (_outermost(cols, ids(f"suites.run_{suite}")), "s")
    run_trials = np.isin(cols["name"], ids("statlab.run_trials"))
    run_trials_s = float(cols["dur"][run_trials].sum())
    out["statlab.run_trials_self_s"] = (float(cols["self"][run_trials].sum()), "s")
    out["statlab.sample_s"] = (
        _outermost(cols, ids("statlab.sample_triangle_batch", "statlab.sample_triangle")), "s")
    out["statlab.analysis_s"] = (_outermost(cols, ids(
        "statlab.empirical_cdf", "statlab.moment_check",
        "statlab.mean_output_distance_bound", "statlab.dominance_implies_moments")), "s")
    out["statlab.records_per_s"] = (
        tracer.counters["records"] / run_trials_s if run_trials_s else 0.0, "1/s")
    out["kernels.trial_stats_s"] = (
        _outermost(cols, ids("kernels.trial_stats", "kernels.trial_stats_numpy")), "s")
    out["kernels.gap_grid_max_s"] = (
        _outermost(cols, ids("kernels.gap_grid_max", "kernels.gap_grid_max_numpy")), "s")
    out["kernels.trial_matrices"] = (tracer.counters["trial_matrices"], "count")
    out["kernels.trial_bytes"] = (tracer.counters["trial_bytes"], "B")
    out["matrixio.save_s"] = (_outermost(cols, ids(
        "matrixio.save_matrix", "matrixio.save_state", "matrixio.save_kraus_set")), "s")
    out["matrixio.load_s"] = (_outermost(cols, ids(
        "matrixio.load_matrix", "matrixio.load_state", "matrixio.load_kraus_set",
        "matrixio.load_hermitian")), "s")
    out["matrixio.bytes_written"] = (tracer.counters["bytes_written"], "B")
    wall = float(cols["dur"][0])
    out["trace.wall_s"] = (wall, "s")
    out["trace.accounted_frac"] = (float(cols["self"].sum()) / wall, "ratio")
    return out
