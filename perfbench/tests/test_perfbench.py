"""Tests of the benchmark itself: its checks can fail, its counters repeat.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import calibration, run, worker  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, ChainQueryWorkload, SweepWorkload  # noqa: E402

SMALL = {
    "general": SweepWorkload(
        "small-general", dict(WORKLOADS["sweep-general-oracle"].base, sample_count=2),
        cells=3, slots=2, traced_jobs=2,
    ),
    "bds": SweepWorkload(
        "small-bds", dict(WORKLOADS["sweep-bds-closedform"].base, sample_count=4, n_repeaters=[1, 2]),
        cells=3, slots=2, traced_jobs=2,
    ),
    "werner": SweepWorkload(
        "small-werner", dict(WORKLOADS["sweep-werner-grid"].base, grid_steps=4),
        cells=1, slots=2, traced_jobs=2, warmup=dict(grid_steps=5),
    ),
}
# blocks of 0..5 and 6..11 each hold a multiple of the check stride
SMALL_CHAINS = ChainQueryWorkload("small-chains", pool_size=12, block=6, traced_jobs=2)

COUNTS = (
    "sweep.sample_state.calls_per_record",
    "sweep.link_redraw_ratio",
    "sweep.sample_state.accept_ratio",
    "states.TwoQubitState.calls_per_record",
    "swap.chain_swap.calls",
    "sweep.write_csv.bytes",
)
# counts fixed by the sweep's shape alone, whatever values the seed draws
SHAPE_COUNTS = (
    "sweep.sample_state.calls_per_record",
    "sweep.link_redraw_ratio",
    "states.TwoQubitState.calls_per_record",
    "swap.chain_swap.calls",
)


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", [*SMALL.values(), SMALL_CHAINS], ids=lambda w: w.name)
def test_independent_route_agrees_on_every_family(workload, tmp_path):
    inputs = workload.setup(5)
    for slot in range(workload.slots):
        verdict = workload.check(workload.run_job(workload.fresh(inputs, slot), slot, tmp_path))
        assert verdict.checked > 0
        assert verdict.failures == []


def test_perturbed_c_out_counts_as_failed(tmp_path):
    workload = SMALL["bds"]
    job = workload.run_job(workload.fresh(workload.setup(5), 1), 1, tmp_path)
    records = job.output.records
    records[0] = dataclasses.replace(records[0], c_out=records[0].c_out + 1e-6)
    verdict = workload.check(job)
    assert len(verdict.failures) == 1
    assert "c_out" in verdict.failures[0]


def test_perturbed_query_counts_as_failed(tmp_path):
    job = SMALL_CHAINS.run_job(SMALL_CHAINS.fresh(SMALL_CHAINS.setup(5), 0), 0, tmp_path)
    specs, reports = job.output
    reports[0] = dataclasses.replace(reports[0], fidelity=reports[0].fidelity + 1e-6)
    verdict = SMALL_CHAINS.check(job)
    assert len(verdict.failures) == 1
    assert "f_out" in verdict.failures[0]


class AlteringTracer(Tracer):
    """A tracer whose fidelity wrapper shifts every closed-form fidelity."""

    def __init__(self, shift):
        super().__init__()
        self.shift = shift

    def wrap(self, name, func):
        wrapped = super().wrap(name, func)
        if name != "closedform.bds_chain_fidelity":
            return wrapped
        return lambda *args, **kwargs: wrapped(*args, **kwargs) + self.shift


def test_traced_run_that_alters_a_result_is_caught(tmp_path):
    # 5e-11 is inside the check tolerance but shows in the CSV's 12 digits,
    # so only the traced-versus-untraced digest comparison can see it
    workload = SMALL["bds"]
    tally, *_ = worker.traced(workload, workload.setup(5), tmp_path, AlteringTracer(5e-11))
    assert tally.failed > 0
    assert all("digests" in message and "differ" in message for message in tally.messages)


def test_faithful_traced_run_matches_untraced(tmp_path):
    workload = SMALL["bds"]
    tally, values, tracer = worker.traced(workload, workload.setup(5), tmp_path)
    assert tally.failed == 0 and tally.attempted > 0
    assert tracer.missing == []
    assert set(values) == {m.name for m in PER_LAYER}
    assert values["closedform.chain_eval.us_per_record"]["value"] > 0
    # the closed-form engine never calls the oracle, so its layers read 0
    assert values["swap.chain_swap.us_per_node"]["value"] == 0
    assert values["swap.chain_swap.calls"]["value"] == 0


@pytest.mark.parametrize("family", ["bds", "general"])
def test_count_metrics_repeat_exactly(family, tmp_path):
    workload = SMALL[family]

    def counts(seed, names):
        _, values, _ = worker.traced(workload, workload.setup(seed), tmp_path)
        return {name: values[name]["value"] for name in names}

    first = counts(3, COUNTS)
    assert counts(3, COUNTS) == first
    assert counts(4, SHAPE_COUNTS) == {name: first[name] for name in SHAPE_COUNTS}
    assert first["sweep.link_redraw_ratio"] > 1


class IdentityCache:
    """Wraps an entswap function with a cache keyed on its inputs' identity.

    The cache keeps every key object alive, so an id seen twice is the same
    object twice: a hit is a call a per-object cache could have skipped.
    """

    def __init__(self, func, keys):
        self.func, self.keys = func, keys
        self.seen: dict = {}
        self.hits = 0

    def __call__(self, *args, **kwargs):
        objs = self.keys(args[0])
        if any(id(obj) in self.seen for obj in objs):
            self.hits += 1
        self.seen.update((id(obj), obj) for obj in objs)
        return self.func(*args, **kwargs)


@pytest.mark.parametrize(
    "workload, name, keys",
    [
        (SMALL_CHAINS, "chain_swap", lambda spec: [spec, *spec.links]),
        (SMALL["werner"], "run_sweep", lambda cfg: [cfg, cfg.eta_spec, cfg.n_repeaters]),
    ],
    ids=["chains", "sweeps"],
)
def test_repeated_runs_pass_new_objects(workload, name, keys, tmp_path, monkeypatch):
    import entswap as es

    cache = IdentityCache(getattr(es, name), keys)
    monkeypatch.setattr(es, name, cache)
    tally, _ = worker.untraced(workload, workload.setup(5), 0.0, tmp_path)
    assert tally.failed == 0
    assert len(cache.seen) > 0
    assert cache.hits == 0


def test_query_p99_sees_a_stall_in_one_call_of_25(tmp_path, monkeypatch):
    import entswap as es

    workload = ChainQueryWorkload("stall-chains", pool_size=200, block=100, traced_jobs=2)
    inputs = workload.setup(5)
    calls = [0]
    chain_swap = es.chain_swap

    def stalling_chain_swap(*args, **kwargs):
        calls[0] += 1
        if calls[0] % 25 == 0:
            time.sleep(0.02)
        return chain_swap(*args, **kwargs)

    monkeypatch.setattr(es, "chain_swap", stalling_chain_swap)
    # read the machine as exactly as fast as the reference, so times are not scaled
    monkeypatch.setattr(worker, "slowdown", lambda kinds, workdir: 1.0)
    tally, metrics = worker.untraced(workload, inputs, 0.0, tmp_path)
    assert tally.failed == 0
    assert metrics["query_p99_us"] > 20_000
    assert metrics["query_p50_us"] < 20_000


@pytest.mark.parametrize("kind", sorted(calibration.LOOPS))
def test_calibration_loop_reads_a_slowdown_and_leaves_no_file(kind, tmp_path):
    value = calibration.slowdown((kind,), tmp_path)
    assert 0.05 < value < 20
    assert list(tmp_path.iterdir()) == []


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "chain-queries", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
