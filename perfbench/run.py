"""qopdist benchmark: one command, three workloads, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify_suites --seed 7 --seconds 30 --trace 0

``--trace 0`` times the workload for about ``--seconds`` seconds and
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a
fixed amount of the workload once untraced and once traced and reports
the per-layer metrics.  Human-readable lines (environment, the
workload's own metric names) come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment, is also written to
``perfbench/out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qopdist; "
    "print(repr(time.perf_counter() - t))"
)


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import qopdist from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "qopdist" / "__init__.py").is_file():
        die(f"no program source at {src / 'qopdist'}")
    sys.path.insert(0, str(src))
    import qopdist

    if Path(qopdist.__file__).resolve().parent != (src / "qopdist").resolve():
        die(f"qopdist imported from {qopdist.__file__}, not {src}")
    return qopdist


def measure_setup() -> list[float]:
    """Cold-interpreter ``import qopdist`` times, one fresh process each."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)  # compile bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads(np):
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(qopdist) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "kernel_backend": qopdist.kernel_backend(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def timed_run(wl, seconds: float) -> list[float]:
    """Run units until the next one would end after ``seconds``, and at
    least ``wl.min_units`` of them; returns each unit's wall time."""
    start = time.perf_counter()
    walls = []
    while len(walls) < wl.min_units or (time.perf_counter() - start) + statistics.median(walls) <= seconds:
        walls.append(wl.unit(len(walls)))
    return walls


def traced_run(wl, workload: str, suite_names, probes) -> dict:
    """The first ``wl.trace_units`` units untraced, traced, and untraced
    again; the overhead compares the traced pass with the faster untraced
    one, so a cold first pass does not hide it."""

    def untraced():
        return sum(wl.unit(i) for i in range(wl.trace_units))

    first = untraced()
    tracer = Tracer()
    with tracer:
        traced = sum(wl.unit(i, tracer) for i in range(wl.trace_units))
    untraced = min(first, untraced())
    metrics = layer_metrics(tracer, suite_names)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    grid_s, trials_s = probes()
    metrics["kernels.grid_probe_s"] = (grid_s, "s")
    metrics["kernels.trials_probe_s"] = (trials_s, "s")
    tracer.write(OUT / f"spans-{workload}.npz")
    return metrics


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    q = import_program()
    import workloads  # imports qopdist, so only after import_program()

    env = environment(q)
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup()
    unit_walls = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            metrics = traced_run(wl, args.workload, q.suites.SUITE_NAMES, workloads.kernel_probes)
            wl.finish()
            named = []
        else:
            unit_walls = timed_run(wl, args.seconds)
            wl.finish()
            try:
                throughput, named = wl.metrics()
            except (ValueError, IndexError, ZeroDivisionError):  # no operation completed
                throughput, named = 0.0, []
                wl.gate("operations_complete", False)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "throughput_per_s": (throughput, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }

    expected = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        die(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")

    correct = wl.failed == 0 and all(wl.gates.values())
    failed_frac = wl.failed / max(wl.attempted, 1)
    named.append((wl.failed_frac_name, failed_frac, "1", f"{wl.failed}/{wl.attempted}"))
    print("env " + json.dumps(env, sort_keys=True))
    for label, value, unit, note in named:
        print(f"{args.workload:<16} {label:<24} {value:>14.6g} {unit:<4} {note}")
    for name in expected:
        value, unit = metrics[name]
        print(f"{args.workload:<16} {name:<34} {value:>14.6g} {unit}")
    for gate, ok in sorted(wl.gates.items()):
        print(f"gate {gate}: {'pass' if ok else 'FAIL'}")
    for err in wl.errors:
        print(f"error {err}")

    result = {
        "correct": bool(correct),
        "attempted": int(max(wl.attempted, 1)),
        "failed": int(wl.failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in expected},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, gates=wl.gates, setup_samples=setup, unit_walls=unit_walls,
                  named={label: {"value": v, "unit": u, "note": n} for label, v, u, n in named})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
