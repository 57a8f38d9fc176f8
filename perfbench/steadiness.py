"""Steadiness check: run the benchmark in two sets and compare spreads to bounds.

    python3 perfbench/steadiness.py

Every workload in ``BENCHMARK.json`` is run in two sets of ten runs, seeds
101-110 and 1101-1110. Each run is ``perfbench/run.py --trace 0`` with the
run length from ``BENCHMARK.json``. For every end-to-end metric of every
workload it reports, per set, the median and the spread (third minus first
quartile over the median, as ``statistics.quantiles(values, n=4)`` gives
them) against the metric's bound, and how far the second median moved from
the first. Exits 1 if a spread or a shift, either way, exceeds its bound or
the share of failed operations differs between sets; the full table is
written to ``.perfbench_out/steadiness.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["samples"] = [line for line in proc.stderr.splitlines() if line.startswith("samples ")]
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, steady = {}, True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            results = []
            for r in range(RUNS):
                seed = FIRST_SEED + 1000 * s + r
                results.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} set {s + 1} run {r + 1}/{RUNS} done", file=sys.stderr)
            sets.append(results)
        rows = {}
        for name, bound in bounds.items():
            per_set = [[res["metrics"][name]["value"] for res in results] for results in sets]
            row = {"bound": bound,
                   "median": [statistics.median(v) for v in per_set],
                   "spread": [spread(v) for v in per_set],
                   "shift": statistics.median(per_set[1]) / statistics.median(per_set[0]) - 1.0}
            steady &= all(sp <= bound for sp in row["spread"]) and abs(row["shift"]) <= bound
            rows[name] = row
            print(f"{workload:16s} {name:12s} bound {bound:.3f}  median "
                  + " ".join(f"{m:.4g}" for m in row["median"]) + "  spread "
                  + " ".join(f"{sp:.3f}" for sp in row["spread"])
                  + f"  shift {row['shift']:+.3f}")
        shares = [sum(r["failed"] for r in res) / sum(r["attempted"] for r in res)
                  for res in sets]
        steady &= len(set(shares)) == 1
        print(f"{workload:16s} failed share per set: {shares}")
        report[workload] = {"metrics": rows, "failed_share": shares, "runs": sets}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print("steady" if steady else "NOT steady: a spread or shift exceeds its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
