"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files written by run.py (perfbench/out/*.json)
or directories of them.  For every workload and metric the script prints
the median of each side, the relative change, and, for end-to-end
metrics, whether the change stays within the bound BENCHMARK.json fixes.

Results are comparable only when they ran on the same kernel backend and
the same BLAS build and thread setting.  If any of those differ, the
script names the difference, prints no verdicts and exits with code 3.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE_ON = ("kernel_backend", "blas", "blas_config", "blas_threads", "thread_env")


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def environments(results) -> set:
    return {tuple(json.dumps(r["env"].get(k), sort_keys=True) for k in COMPARABLE_ON) for r in results}


def medians(results) -> dict:
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    envs = environments(base) | environments(head)
    if len(envs) > 1:
        print("not comparable: results differ in " + ", ".join(
            k for i, k in enumerate(COMPARABLE_ON) if len({e[i] for e in envs}) > 1))
        return 3
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    mb, mh = medians(base), medians(head)
    worse = 0
    for key in sorted(mb.keys() & mh.keys()):
        (b, nb), (h, nh) = mb[key], mh[key]
        m = spec.get(key[2], {})
        change = (h - b) / b if b else 0.0
        verdict = ""
        if "bound" in m:
            loss = -change if m["better"] == "higher" else change
            verdict = "within bound" if loss <= m["bound"] else f"WORSE than bound {m['bound']}"
            worse += loss > m["bound"]
        print(f"{key[0]:<16} trace={key[1]} {key[2]:<34} base {b:<12.6g} (n={nb}) "
              f"head {h:<12.6g} (n={nh}) {change:+.2%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
