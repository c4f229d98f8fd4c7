"""Run the benchmark over several seeds and record the figures with the machine.

    python3 perfbench/baseline.py --label NAME [--first-seed 1]

For every workload: ten untraced runs of ``run_seconds`` (from
``BENCHMARK.json``) with consecutive seeds from ``--first-seed``, then one
traced run with the first seed.  Writes ``perfbench/BENCH_<label>.json``
holding the machine (core count, CPU model, Python, numpy and its BLAS),
each end-to-end metric's values, median and quartile spread, the wall
time of each untraced run, and the traced per-layer figures.  Run it from
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOAD_NAMES  # noqa: E402

RUNS = 10
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + RUNS)

    report = {"label": args.label, "machine": machine(), "seconds": SECONDS,
              "seeds": list(seeds), "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs, walls = [], []
        for seed in seeds:
            t0 = time.monotonic()
            runs.append(bench(workload, seed, 0))
            walls.append(time.monotonic() - t0)
        values = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
        traced = bench(workload, seeds[0], 1)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_wall_s": walls,
            "end_to_end": {
                name: {"unit": runs[0]["metrics"][name]["unit"], "values": v, **spread(v)}
                for name, v in values.items()
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, {k: round(v["median"], 4) for k, v in report["workloads"][workload]["end_to_end"].items()},
              flush=True)
    path = ROOT / "perfbench" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
