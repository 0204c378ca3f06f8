"""Record the benchmark baseline in bench/baseline.json.

Usage, from the repository root:

    python3 bench/baseline.py

Runs every workload untraced on seeds 1..SEEDS and traced on seeds
1..TRACED_SEEDS, one run at a time, with BENCHMARK.json's run_seconds.
Records per workload the median and quartiles of each end-to-end metric, of
the printed-only metrics, and the spread (quartile distance over median),
plus the median of each per-layer metric over the traced runs.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = 10
TRACED_SEEDS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summarize(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    baseline = {"run_seconds": seconds, "seeds": SEEDS, "traced_seeds": TRACED_SEEDS,
                "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        traced = [run(workload, seed, seconds, 1) for seed in range(1, TRACED_SEEDS + 1)]
        entry = {
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in plain])
                for m in spec["end_to_end"]
            },
            "printed_only": {
                name: summarize([r["printed_metrics"][name] for r in plain])
                for name in ("node_steps_per_s", "msd_gap_db", "theory_rel_err")
            } | {"fail_frac": summarize([r["fail_frac"] for r in plain])},
            "per_layer": {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                for m in spec["per_layer"]
            },
        }
        baseline["env"] = plain[0]["env"]
        baseline["workloads"][workload] = entry
        print(workload, json.dumps(entry["end_to_end"]), flush=True)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
