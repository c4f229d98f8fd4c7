"""The benchmark's workloads: inputs made from a seed, jobs run against entswap.

A workload has a fixed number of slots, each a distinct job of fixed size,
and the timed loop runs them round-robin until time is up.  One more job,
the warm-up, runs untimed before the loop.  Before each run, outside its
timed region, ``fresh`` rebuilds the slot's inputs as new objects with the
same values, so a cache keyed on object identity never sees a repeat:
callers who query fresh states once would not see its gain either.

* A sweep slot is one complete user-level sweep: ``run_sweep``, then
  ``write_csv`` and ``write_summary_json`` on a config derived from
  (workload seed, slot).  The sweep is the timed item.
* A chain-queries slot is a block of the pre-generated chains; each single
  query, ``chain_swap(spec, mode="povm")`` followed by ``report``, is a
  timed item.

Why items are short and repeat: on a shared machine other tenants slow
runs in bursts, so each item runs many times, each run is scaled by the
machine's speed read just before and after its job (``reference`` names
the calibration loops that read it, see ``perfbench/calibration.py``),
and the item is scored by the median of its scaled runs.  Jobs of about
100 ms or less give each slot a dozen runs or more in a 20 s run.
Why ``WORKLOADS`` holds these four: see ``perfbench/README.md``.

The program is always called through the package attributes
(``entswap.run_sweep``, ``entswap.chain_swap``, ...), looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import entswap as es

from . import checks

# eta cells per sweep: one below the 2/3 threshold, two above it
ETA_BANDS = ((0.50, 0.66), (0.68, 0.85), (0.86, 0.99))

# records of each sweep re-derived by the independent route
CHECKS_PER_SWEEP = 24
# every CHECK_STRIDE-th chain query is re-derived by the independent route
CHECK_STRIDE = 10
# Chain queries have n = 1..MAX_CHAIN_N repeaters in equal shares.  The
# count is odd so that the median query falls inside one n's level: with an
# even count it falls on the step between two levels and reads the mean of
# the costliest chain of one and the cheapest of the next.
MAX_CHAIN_N = 7


@dataclass
class Job:
    """One finished job: its timed items as (key, records, seconds), and its output."""

    slot: int
    items: list
    output: object

    @property
    def records(self) -> int:
        return sum(records for _, records, _ in self.items)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, _, seconds in self.items)


@dataclass
class SweepOutput:
    config: object
    records: list
    summary: dict
    csv_path: str
    summary_path: str


@dataclass
class Verdict:
    """Outcome of checking one job outside the timed region."""

    checked: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    csv_bytes: int = 0


def eta_cells(name: str, seed: int, slot: int, count: int) -> list:
    """``count`` seeded eta values, from the bands in turn starting at slot's."""
    rng = random.Random(f"{name}:{seed}:{slot}")
    bands = [ETA_BANDS[(slot + i) % len(ETA_BANDS)] for i in range(count)]
    return [round(rng.uniform(lo, hi), 4) for lo, hi in bands]


def _evenly_spaced(count: int, picks: int) -> list:
    if count <= picks:
        return list(range(count))
    return sorted({round(i * (count - 1) / (picks - 1)) for i in range(picks)})


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


@dataclass(frozen=True)
class SweepWorkload:
    """Sweeps of one fixed shape; only the seed and the eta cells vary by slot."""

    name: str
    base: dict
    cells: int
    slots: int
    traced_jobs: int
    # config fields that differ for the warm-up sweep
    warmup: dict = field(default_factory=dict)
    # the calibration loops that read the machine's speed for this work
    reference: tuple = ("linalg",)

    # A pass times 8 sweeps, too few for a 99th percentile of single runs;
    # over a whole run it would be the second-slowest of a few hundred
    # sweeps, which spread 20-40 % between runs.  The p99 is taken over the
    # sweeps' costs instead.
    tail_per_pass = False

    @property
    def warmup_slot(self) -> int:
        return self.slots

    def setup(self, seed: int) -> list:
        """One config per slot, then the warm-up's."""
        return [
            es.SweepConfig(
                **{**self.base, **(self.warmup if slot == self.slots else {})},
                seed=(seed << 20) + slot,
                eta_spec=eta_cells(self.name, seed, slot, self.cells),
            )
            for slot in range(self.slots + 1)
        ]

    def planned_records(self, configs, slot: int) -> int:
        cfg = configs[slot]
        lo, hi = cfg.n_repeaters
        cells = len(cfg.eta_spec)
        if cfg.mode == "random":
            return cfg.sample_count * cells * (hi - lo + 1)
        return cells * sum(cfg.grid_steps ** (n + 1) for n in range(lo, hi + 1))

    def distinct_links(self, configs, slot: int) -> int:
        """Links a sweep must draw at least: sample_count * (n_max + 1)."""
        cfg = configs[slot]
        if cfg.mode != "random":
            return 0
        return cfg.sample_count * (cfg.n_repeaters[1] + 1)

    def fresh(self, configs, slot: int):
        """A new config object, with new lists, equal to the slot's."""
        cfg = configs[slot]
        return dataclasses.replace(cfg, n_repeaters=list(cfg.n_repeaters), eta_spec=list(cfg.eta_spec))

    def run_job(self, cfg, slot: int, workdir) -> Job:
        csv_path = os.path.join(workdir, f"sweep{slot}.csv")
        summary_path = os.path.join(workdir, f"sweep{slot}.json")
        t0 = time.perf_counter()
        records, summary = es.run_sweep(cfg)
        es.write_csv(records, csv_path)
        es.write_summary_json(summary, summary_path)
        seconds = time.perf_counter() - t0
        output = SweepOutput(cfg, records, summary, csv_path, summary_path)
        return Job(slot, [(slot, len(records), seconds)], output)

    def check(self, job: Job, rederive: bool = True) -> Verdict:
        """Digest the files; with ``rederive``, also re-derive a fixed subset of records."""
        out = job.output
        verdict = Verdict()
        verdict.digests = {
            "csv": _sha256_file(out.csv_path),
            "summary": _sha256_file(out.summary_path),
        }
        verdict.csv_bytes = os.path.getsize(out.csv_path)
        verdict.failures.extend(checks.check_sweep_files(out))
        os.remove(out.csv_path)
        os.remove(out.summary_path)
        if not rederive:
            return verdict
        for pos in _evenly_spaced(len(out.records), CHECKS_PER_SWEEP):
            record = out.records[pos]
            verdict.checked += 1
            problem = checks.check_record(record, out.config.swap_mode)
            if problem:
                verdict.failures.append(f"record {pos} (index {record.index}, n={record.n}): {problem}")
        return verdict


def ginibre_state(rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random two-qubit density matrix G G+ / Tr(G G+)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / m.trace().real


@dataclass(frozen=True)
class ChainQueryWorkload:
    """Single POVM-mode chain queries, one caller, closed loop."""

    name: str
    pool_size: int
    block: int
    traced_jobs: int

    warmup_slot = 0
    reference = ("linalg",)
    # a pass times 1400 queries, 14 of them beyond its p99
    tail_per_pass = True

    @property
    def slots(self) -> int:
        return self.pool_size // self.block

    def setup(self, seed: int) -> list:
        """Pre-generate the chains: n uniform in 1..MAX_CHAIN_N, eta uniform in [0.5, 1].

        Each n fills the same share of the pool, in seeded order, so that
        seeds change the states but not the amount of work.
        """
        rng = np.random.default_rng(seed)
        specs = []
        for n in rng.permutation([1 + i % MAX_CHAIN_N for i in range(self.pool_size)]):
            n = int(n)
            etas = tuple(float(e) for e in rng.uniform(0.5, 1.0, size=n))
            links = tuple(es.TwoQubitState(ginibre_state(rng)) for _ in range(n + 1))
            specs.append(es.ChainSpec(links, es.NoiseModel(etas)))
        return specs

    def planned_records(self, specs, slot: int) -> int:
        return self.block

    def distinct_links(self, specs, slot: int) -> int:
        return 0

    def fresh(self, specs, slot: int) -> list:
        """The slot's (index, chain) pairs, each chain rebuilt from copies of its matrices."""
        return [
            (
                i,
                es.ChainSpec(
                    tuple(es.TwoQubitState(link.matrix.copy()) for link in specs[i].links),
                    es.NoiseModel(specs[i].noise.etas),
                ),
            )
            for i in range(slot * self.block, (slot + 1) * self.block)
        ]

    def run_job(self, chains, slot: int, workdir) -> Job:
        items, reports = [], []
        for i, spec in chains:
            t0 = time.perf_counter()
            final = es.chain_swap(spec, mode="povm")
            rep = es.report(final)
            items.append((i, 1, time.perf_counter() - t0))
            reports.append(rep)
        return Job(slot, items, ([spec for _, spec in chains], reports))

    def check(self, job: Job, rederive: bool = True) -> Verdict:
        """Digest the answers; with ``rederive``, re-derive every CHECK_STRIDE-th chain."""
        specs, reports = job.output
        keys = [key for key, _, _ in job.items]
        verdict = Verdict()
        text = "\n".join(
            f"{i},{rep.concurrence!r},{rep.fidelity!r},{rep.entangled},{rep.useful_for_teleportation}"
            for i, rep in zip(keys, reports)
        )
        verdict.digests = {"answers": hashlib.sha256(text.encode()).hexdigest()}
        if not rederive:
            return verdict
        for i, spec, rep in zip(keys, specs, reports):
            if i % CHECK_STRIDE:
                continue
            verdict.checked += 1
            problem = checks.check_query(spec, rep)
            if problem:
                verdict.failures.append(f"chain {i}: {problem}")
        return verdict


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep-general-oracle",
            base=dict(
                family="general", mode="random", sample_count=10, n_repeaters=[1, 3],
                engine="oracle", swap_mode="paper",
            ),
            cells=3,
            slots=8,
            traced_jobs=16,
        ),
        SweepWorkload(
            name="sweep-bds-closedform",
            base=dict(
                family="bds", mode="random", sample_count=20, n_repeaters=[1, 4],
                entangled_inputs_only=True, engine="closedform", swap_mode="paper",
            ),
            cells=3,
            slots=8,
            traced_jobs=16,
            reference=("linalg", "csv"),
        ),
        SweepWorkload(
            name="sweep-werner-grid",
            base=dict(
                family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 3],
                engine="closedform", swap_mode="paper",
            ),
            cells=1,
            slots=8,
            traced_jobs=16,
            # 18**2 + 18**3 + 18**4 = 111 132 records, so peak_rss_mib covers a 1e5 grid
            warmup=dict(grid_steps=18),
            reference=("csv",),
        ),
        ChainQueryWorkload(name="chain-queries", pool_size=1400, block=50, traced_jobs=28),
    )
}
