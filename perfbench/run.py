"""Benchmark entswap: one workload, or all of them, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S            # every workload in turn

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric.
Set-up time is the median over nine set-up-only workers, each scaled by
the import time of a worker that stops after its own imports, run just
before it.  Exit status is 0 when a result was printed, whether or not the
outputs checked correct (that is the result's ``correct`` field).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

# kept in step with perfbench.workloads.WORKLOADS by the benchmark's tests
WORKLOAD_NAMES = ("sweep-general-oracle", "sweep-bds-closedform", "sweep-werner-grid", "chain-queries")
SETUP_ONLY_WORKERS = 9
# Set-up is mostly imports, which other tenants slow by up to 1.5x for
# minutes at a time.  Each set-up time is scaled to a machine where the
# worker's own imports (numpy among them, entswap not) take this long.
IMPORTS_REFERENCE_S = 0.100
# every run must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """One thread everywhere, entswap's own thread pool off, src/ first on the path."""
    env = {k: v for k, v in os.environ.items() if k != "ENTSWAP_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_worker(args: list[str], deadline: float, relay: bool) -> dict:
    """Run one worker process to completion; return its JSON last line."""
    cmd = [sys.executable, "-m", "perfbench.worker", *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    if relay:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        return run_worker([*base, "--trace", "1"], deadline, relay=True)
    setups = []
    for _ in range(SETUP_ONLY_WORKERS):
        imports_s = run_worker([*base, "--imports-only"], deadline, relay=False)["imports_s"]
        setup_s = run_worker([*base, "--setup-only"], deadline, relay=False)["setup_s"]
        setups.append(setup_s * IMPORTS_REFERENCE_S / imports_s)
    result = run_worker([*base, "--seconds", str(seconds), "--trace", "0"], deadline, relay=True)
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def print_result(name: str, result: dict, trace: bool) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:46s} {entry['value']:>16.6f} {entry['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':46s} {frac:>16.6f} ({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entswap" / "__init__.py").is_file():
        print(f"error: no entswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    expected = END_TO_END if not args.trace else {m.name: m.unit for m in PER_LAYER}
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            if {k: v["unit"] for k, v in result["metrics"].items()} != expected:
                raise BenchError(f"{name}: worker reported {sorted(result['metrics'])}")
            print_result(name, result, bool(args.trace))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
