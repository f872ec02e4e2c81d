"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--workloads bulk pool lp] [--baseline]

For every workload and end-to-end metric this prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json. With
--baseline it also makes one traced run per workload at the baseline seed
and writes everything, with the environment, to bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import BASELINE_SEED, HELDOUT_SEED, physical_ram  # noqa: E402


def bench_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "ram_gb": round(physical_ram() / 2**30, 2), "machine": platform.machine()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args()

    report: dict = {"environment": environment(), "baseline_seed": BASELINE_SEED,
                    "heldout_seed": HELDOUT_SEED, "run_seconds": spec["run_seconds"],
                    "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = bench_once(spec, workload, seed, 0)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} "
                      "jobs failed", file=sys.stderr)
            runs.append(res)
        entry: dict = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "samples": len(values), "spread": spread,
                                         "unit": metric["unit"], "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:5} {name:12} median {med:10.4f} {metric['unit']:3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.2%} "
                  f"bound {metric['bound']:.0%} {flag}", flush=True)
        if args.baseline:
            traced = bench_once(spec, workload, BASELINE_SEED, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.baseline:
        (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
