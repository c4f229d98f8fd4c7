"""Run one workload in this process and print its result as a JSON last line.

Started by ``run.py`` in a fresh process per run, so that set-up time and
peak memory belong to the workload:

    python3 -m perfbench.worker --workload NAME --seed N --seconds S --trace 0|1
    python3 -m perfbench.worker --workload NAME --seed N --setup-only
    python3 -m perfbench.worker --workload NAME --seed N --imports-only

Set-up (importing entswap and generating the inputs) is timed from the
top of this module.  A warm-up job runs untimed before the timed loop.
Each job's inputs are rebuilt as new objects before it runs, untimed, and
each job's times are scaled by the machine's speed around it, read by the
calibration loops in ``perfbench/calibration.py``.
Every job is checked after it ran, outside its timed region: its output
digests must equal those of the slot's first run, and the first run of
each slot is re-derived through the independent route.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench.calibration import slowdown  # noqa: E402
from perfbench.metrics import END_TO_END, TraceContext, layer_metrics, percentile  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# the timed loop runs every slot at least this many times, however long it takes
MIN_CYCLES = 2
# variates one rejection-sampling attempt draws, per family
VARIATES_PER_DRAW = {"werner": 1, "bds": 3, "general": 32}


class Tally:
    """Records or queries attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"FAILED: {message}", file=sys.stderr)


def run_and_check(workload, inputs, slot, workdir, tally, reference, tracer=None):
    """Run one job (traced when a tracer is given), then check it untimed.

    ``reference`` maps each slot to the digests of its first run.  Returns
    (job, verdict); either is None when running or checking raised.
    """
    planned = workload.planned_records(inputs, slot)
    tally.attempted += planned
    kind = "traced" if tracer else "untraced"
    try:
        job_inputs = workload.fresh(inputs, slot)
        if tracer is None:
            job = workload.run_job(job_inputs, slot, workdir)
        else:
            with tracer.installed(), tracer.span("job"):
                job = workload.run_job(job_inputs, slot, workdir)
    except Exception as exc:  # a failing job is counted, the run goes on
        tally.fail(planned, f"{kind} slot {slot} raised {exc!r}")
        return None, None
    first = slot not in reference
    try:
        verdict = workload.check(job, rederive=first)
    except Exception as exc:
        tally.fail(job.records, f"checking {kind} slot {slot} raised {exc!r}")
        return job, None
    finally:
        job.output = None  # let the records go before the next job runs
    for message in verdict.failures:
        tally.fail(1, f"slot {slot}: {message}")
    if first:
        reference[slot] = verdict.digests
        text = " ".join(f"{k}={v}" for k, v in verdict.digests.items())
        print(f"digest slot {slot} sha256 {text}")
    elif verdict.digests != reference[slot]:
        tally.fail(
            job.records,
            f"{kind} run of slot {slot}: digests {verdict.digests} differ from "
            f"the slot's first run {reference[slot]}",
        )
    return job, verdict


def untraced(workload, inputs, seconds, workdir):
    """Time the slots round-robin.

    Other tenants of the machine slow it in phases, so the workload's
    calibration loops (``perfbench.calibration``) run before and after every
    job, and each of the job's times is divided by the mean slowdown they
    read.  Throughput and the median use each item's cost, the median of
    its scaled runs.  Where a pass over the slots holds enough single runs
    for a 99th percentile (``tail_per_pass``), the p99 is that of each full
    pass's scaled single runs, median over the passes: every call counts,
    so a stall that hits one call in fifty moves it, while a burst of load
    from other tenants that hits fewer than half of the passes does not.
    Otherwise the p99 is taken over the items' costs.
    """
    tally = Tally()
    reference: dict = {}
    _, verdict = run_and_check(workload, inputs, workload.warmup_slot, workdir, tally, reference)
    reps: dict = {}  # item key -> (records, [seconds of each run])
    passes: dict = {}  # pass number -> [microseconds of each single run in it]
    runs, checked = 0, verdict.checked if verdict else 0
    before = slowdown(workload.reference, workdir)
    deadline = time.perf_counter() + seconds
    while runs < MIN_CYCLES * workload.slots or time.perf_counter() < deadline:
        job, verdict = run_and_check(workload, inputs, runs % workload.slots, workdir, tally, reference)
        after = slowdown(workload.reference, workdir)
        scale = 2.0 / (before + after)
        before = after
        checked += verdict.checked if verdict else 0
        for key, records, secs in job.items if job else ():
            secs *= scale
            reps.setdefault(key, (records, []))[1].append(secs)
            passes.setdefault(runs // workload.slots, []).append(secs * 1e6)
        runs += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    costs = {key: (records, statistics.median(times)) for key, (records, times) in reps.items()}
    latencies = [secs * 1e6 for _, secs in costs.values()]
    total_s = sum(secs for _, secs in costs.values())
    if workload.tail_per_pass:
        size = max(map(len, passes.values()), default=0)
        tails = [percentile(p, 99) for p in passes.values() if len(p) == size]
        p99 = statistics.median(tails) if tails else 0.0
        tail_text = f"p99 per pass of {size} timings, median over {len(tails)} full passes"
    else:
        p99 = percentile(latencies, 99) if latencies else 0.0
        tail_text = f"p99 over {len(latencies)} item costs"
    metrics = {
        "records_per_s": sum(records for records, _ in costs.values()) / total_s if total_s else 0.0,
        "query_p50_us": percentile(latencies, 50) if latencies else 0.0,
        "query_p99_us": p99,
        "peak_rss_mib": peak_rss_mib,
    }
    print(
        f"{runs} timed jobs over {workload.slots} slots; {len(costs)} timed items, "
        f"{min(len(t) for _, t in reps.values()) if reps else 0}+ runs each; "
        f"{tail_text}; "
        f"{checked} results re-derived independently"
    )
    return tally, metrics


def traced(workload, inputs, workdir, tracer=None):
    """Run each traced job twice, untraced and traced, in alternating order.

    All runs of a slot must produce the same digests.  Returns the tally,
    the per-layer metrics and the tracer.  A layer the workload never calls
    reads 0.
    """
    tracer = tracer or Tracer()
    tally = Tally()
    reference: dict = {}
    run_and_check(workload, inputs, workload.warmup_slot, workdir, tally, reference)
    seconds = {False: 0.0, True: 0.0}
    records = distinct = csv_bytes = 0
    for index in range(workload.traced_jobs):
        slot = index % workload.slots
        for with_trace in ((False, True) if index % 2 else (True, False)):
            job, verdict = run_and_check(
                workload, inputs, slot, workdir, tally, reference, tracer if with_trace else None
            )
            if job is None or verdict is None:
                continue
            seconds[with_trace] += job.seconds
            if with_trace:
                records += job.records
                distinct += workload.distinct_links(inputs, slot)
                csv_bytes += verdict.csv_bytes
    family = getattr(workload, "base", {}).get("family")
    context = TraceContext(
        records=records,
        distinct_links=distinct,
        draw_attempts=tracer.variates_drawn("job") / VARIATES_PER_DRAW[family] if family else 0.0,
        csv_bytes=csv_bytes,
        overhead_frac=(seconds[True] - seconds[False]) / seconds[False] if seconds[False] else 0.0,
    )
    return tally, layer_metrics(tracer.stats("job"), context), tracer


def import_entswap():
    """Import entswap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entswap

    if not Path(entswap.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"entswap was imported from {entswap.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--imports-only", action="store_true",
                        help="time only this module's own imports (numpy among them)")
    args = parser.parse_args(argv)
    if args.imports_only:
        print(json.dumps({"imports_s": time.perf_counter() - SETUP_START}))
        return 0

    import_entswap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.trace:
            tally, metrics, tracer = traced(workload, inputs, workdir)
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path)
            for name, metric in metrics.items():
                print(f"  {name:46s} {metric['value']:>14.6g} {metric['unit']}")
            if tracer.missing:
                print(f"names not found, not traced: {', '.join(tracer.missing)}")
            print(f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
        else:
            tally, values = untraced(workload, inputs, args.seconds, workdir)
            values["setup_s"] = setup_s
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
