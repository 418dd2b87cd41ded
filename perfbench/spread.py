"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median and the quartile spread as a share of it.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads train_copy --seeds 1-5 --json out.json

Quartiles are `statistics.quantiles(values, n=4)`. A spread under a third
of the metric's bound in BENCHMARK.json is marked ok; setup_s is exempt
from the spread rule and is marked "-".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, command: list[str]) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--json", help="write every value here")
    args = p.parse_args()

    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in bounds}
        for seed in args.seeds:
            metrics = run_once(workload, seed, args.seconds, command)["metrics"]
            for name in bounds:
                values[workload][name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={metrics[k]['value']:.4g}" for k in bounds), flush=True)
    print(f"\n{'workload':18s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, per_metric in values.items():
        for name, vals in per_metric.items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
            else:
                spread = float("nan")
            mark = "-" if name == "setup_s" else ("ok" if spread < bounds[name] / 3 else "WIDE")
            print(f"{workload:18s} {name:14s} {median:12.5g} {spread:8.3f} {bounds[name]:6.2f} {mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
