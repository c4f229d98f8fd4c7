import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entswap import (
    CSV_HEADER,
    BdsParams,
    BlochForm,
    ChainSpec,
    ConfigError,
    EntswapError,
    InvalidStateError,
    NoiseModel,
    SweepConfig,
    SweepRecord,
    TwoQubitState,
    WernerParams,
    chain_swap,
    concurrence,
    concurrence_bds,
    concurrence_werner,
    link_generator,
    make_bell_diagonal,
    make_werner,
    run_sweep,
    sample_state,
    teleportation_fidelity,
    validate,
    write_csv,
    write_summary_json,
)
from entswap import closedform as closedform_module
from entswap import measures as measures_module
from entswap import sweep as sweep_module
from entswap.closedform import cell_queries
from entswap.measures import FLAG_MARGIN, flags
from entswap.states import _unchecked
from entswap.sweep import _checked_general_links, _inside_tetrahedron, _link_stack, _random_links, evaluate_chain
from helpers import reference_closedform_end_state, reference_sample_state


def test_sample_state_werner_entangled_only():
    rng = link_generator(7, 0)
    for _ in range(200):
        params, _ = sample_state("werner", rng, entangled_inputs_only=True)
        assert concurrence_werner(params.p) > 0


def test_sample_state_bds_lands_in_tetrahedron():
    rng = link_generator(7, 1)
    for _ in range(200):
        params, state = sample_state("bds", rng)
        assert min(params.eigenvalues()) >= -1e-10
        assert abs(concurrence_bds(params) - concurrence(state)) < 1e-10


def test_tetrahedron_acceptance_rate_matches_volume_ratio():
    # brute-force Monte Carlo of the cube-to-tetrahedron volume ratio: 1/3
    rng = np.random.default_rng(424242)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if _inside_tetrahedron(*rng.uniform(-1, 1, size=3)))
    rate = hits / draws
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    assert abs(rate - 1 / 3) < 5 * sigma


def test_sample_state_general_is_valid():
    rng = link_generator(7, 2)
    for _ in range(100):
        _, state = sample_state("general", rng)
        diag = validate(state)
        assert diag.hermiticity_defect <= 1e-12
        assert diag.trace_defect <= 1e-12
        assert diag.min_eigenvalue >= -1e-10


def test_sample_streams_are_split_by_index():
    a0 = sample_state("werner", link_generator(3, 0))[0].p
    a0_again = sample_state("werner", link_generator(3, 0))[0].p
    a1 = sample_state("werner", link_generator(3, 1))[0].p
    other_seed = sample_state("werner", link_generator(4, 0))[0].p
    assert a0 == a0_again
    assert a0 != a1
    assert a0 != other_seed


# (seed, sample index) keys of the Philox streams: small, large and edge seeds
_STREAM_KEYS = [(seed, index) for seed in (0, 7, 2**63 + 5, 2**64 - 1) for index in range(50)]


def _bits(params) -> tuple[str, ...]:
    """Each field of Werner or BDS params as its exact float (0.0 and -0.0 differ)."""
    return tuple(v.hex() for v in (params.as_tuple() if isinstance(params, BdsParams) else (params.p,)))


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_sample_state_draws_what_the_uniform_loop_drew(family, entangled_inputs_only):
    # the frozen uniform-based loop and sample_state read the same stream: each
    # link is equal bit for bit, and the stream is left at the same point
    for seed, index in _STREAM_KEYS:
        rng, reference_rng = link_generator(seed, index), link_generator(seed, index)
        for link in range(20):
            params, _ = sample_state(family, rng, entangled_inputs_only, dense=False)
            expected, _ = reference_sample_state(family, reference_rng, entangled_inputs_only, dense=False)
            assert type(params) is type(expected) and _bits(params) == _bits(expected), (seed, index, link)
        assert rng.uniform() == reference_rng.uniform(), (seed, index)


def test_uniform_is_the_affine_map_of_random():
    # numpy's contract that sample_state relies on: uniform(low, high) is
    # low + (high - low) * random(), in the same order, bit for bit
    for seed, index in _STREAM_KEYS:
        g, h = link_generator(seed, index), link_generator(seed, index)
        assert (-1.0 + 2.0 * g.random(300)).tobytes() == h.uniform(-1.0, 1.0, 300).tobytes(), (seed, index)
        for _ in range(3):
            u = g.random()
            assert type(u) is float and u.hex() == h.uniform(0.0, 1.0).hex(), (seed, index)
        assert [-1.0 + 2.0 * u for u in g.random(3).tolist()] == h.uniform(-1.0, 1.0, size=3).tolist()


class _ScriptedRng:
    """Yields the given doubles as Generator.random's next doubles, and uniform as numpy maps them."""

    def __init__(self, doubles):
        self._doubles = iter(doubles)

    def random(self, size=None):
        if size is None:
            return next(self._doubles)
        return np.array([next(self._doubles) for _ in range(size)])

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)


@pytest.mark.parametrize("draw", [sample_state, reference_sample_state], ids=["sample_state", "reference"])
def test_entangled_only_draws_reject_ties(draw):
    # a stream never draws p = 1/3 (random() gives multiples of 2**-53) and
    # draws a BDS tie with probability about 2**-53 per try, so scripted
    # doubles put the ties first: p = 1/3, and the triple (0.5, 0, -0.5),
    # whose largest weight is 1/2 (concurrence exactly 0)
    third = 1.0 / 3.0
    assert draw("werner", _ScriptedRng([third, 0.5]), True)[0] == WernerParams(0.5)
    assert draw("werner", _ScriptedRng([third, 0.5]), False)[0] == WernerParams(third)
    tie, singlet = [0.75, 0.5, 0.25], [0.0, 0.0, 0.0]
    assert concurrence_bds(BdsParams(0.5, 0.0, -0.5)) == 0.0
    assert draw("bds", _ScriptedRng(tie + singlet), True)[0] == BdsParams(-1.0, -1.0, -1.0)
    assert draw("bds", _ScriptedRng(tie + singlet), False)[0] == BdsParams(0.5, 0.0, -0.5)
    # a point on a face of the tetrahedron (a weight of exactly 0) is inside
    face = [0.75, 0.75, 0.5]
    assert draw("bds", _ScriptedRng(face + singlet), False)[0] == BdsParams(0.5, 0.5, 0.0)


# sha256 of the CSV and summary of two entangled-input random sweeps, as written
# when sample_state drew every try with Generator.uniform
_GOLDEN_SWEEPS = {
    "werner": ("9e765a5c187dbffcff0c3226daae1d93252a3509efdcbd765574e639f9e41282",
               "516f81d67a2c7057ded1a474a3feb79500076ba438e41aed102c9821dca611e0"),
    "bds": ("bf0a9c0187d0545cda7a7660c013040ae7d770c335e5ceaefe6e8ae4617711ed",
            "89b9f011d2b03112a24837bca0a85d28f5dfa69d2de9ac8f9ab9224596788b6d"),
}


@pytest.mark.parametrize("family", sorted(_GOLDEN_SWEEPS))
def test_entangled_random_sweeps_keep_their_bytes(tmp_path, family):
    config = SweepConfig(
        family=family, sample_count=300, n_repeaters=[1, 3], eta_spec=[0.8, 1.0], seed=41,
        entangled_inputs_only=True,
    )
    records, summary = run_sweep(config)
    write_csv(records, tmp_path / "sweep.csv")
    write_summary_json(summary, tmp_path / "summary.json")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("sweep.csv", "summary.json")
    )
    assert len(records) == 1800
    assert digests == _GOLDEN_SWEEPS[family]


# sha256 of the CSV and summary of three sweeps whose C columns are mostly zero
_GOLDEN_ZERO_HEAVY_SWEEPS = {
    "werner-grid": (
        SweepConfig(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 3], eta_spec=[0.6103, 0.9],
                    engine="closedform"),
        "ff9935217efb4fbf4eb1c707c6025d273d04a0fc67fe830d92dd83d1f76b21fa",
        "3d30ee0bb01e60e08ee3c505a80766e6ecb110c3f27b33893b04c74487e00b2c",
    ),
    "general-random": (
        SweepConfig(family="general", sample_count=30, n_repeaters=[1, 2], eta_spec=[0.8, 1.0], seed=13,
                    engine="oracle"),
        "9b87638b8c48046692dc357fe0f40bcb8283c5254176b981eeaf5b70fb60d674",
        "bfd517f41eb8044eb658bab80887a8260bb3b95a07eec318870b9d22d575e6e6",
    ),
    "bds-grid": (
        SweepConfig(family="bds", mode="grid", grid_steps=4, n_repeaters=[1, 2], eta_spec=[0.8, 1.0],
                    entangled_inputs_only=False),
        "08d42f4b30302175b8ee1b5b9d63d7a418a8b26a17319bf00dbb4fb5788c3203",
        "e6ad62e967d82ace5e021ab46f13e4d8f8b30ff1002f629e8bf92fd88658561a",
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_ZERO_HEAVY_SWEEPS))
def test_zero_heavy_sweeps_keep_their_bytes(tmp_path, name):
    config, csv_digest, summary_digest = _GOLDEN_ZERO_HEAVY_SWEEPS[name]
    records, summary = run_sweep(config)
    # most C fields are zeros, which the writer prints without its float memo
    assert sum(r.c_out == 0.0 for r in records) > len(records) / 2
    write_csv(records, tmp_path / "sweep.csv")
    write_summary_json(summary, tmp_path / "summary.json")
    digests = tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in ("sweep.csv", "summary.json")
    )
    assert digests == (csv_digest, summary_digest)


# sha256 of the CSV and summary of four oracle sweeps, with their record counts: a general
# povm sweep whose cells include eta 0 and 1, a Werner paper grid of per-node eta lists, a
# Bell-diagonal povm sweep and a Bell-diagonal povm grid whose cells include eta 0 and 1
_GOLDEN_ORACLE_SWEEPS = {
    "general-povm": (
        SweepConfig(family="general", sample_count=25, n_repeaters=[1, 3], eta_spec=[0.0, 0.6, 1.0], seed=29,
                    entangled_inputs_only=True, engine="oracle", swap_mode="povm"),
        225,
        "b8c1f97ce8853f386efcd3684e2111b5f8c6407943cca51bb926a7e6466c12a8",
        "8cd36150a95c9f208c94a38ea16a7a14180662faffc62995d4b5ec64f4ddae9b",
    ),
    "werner-per-node": (
        SweepConfig(family="werner", mode="grid", grid_steps=5, n_repeaters=2,
                    eta_spec=[[0.9, 1.0], [1.0, 0.0], [0.95, 0.8]], entangled_inputs_only=True, engine="oracle"),
        192,
        "a8e31338e6b71367f6e1417c5a0958263dd734540c15d2e28c701e2386b75be5",
        "8328c732fce58be5cc1aebd91c1624e48d861187d0b96c96d274c7f60ff9f3ca",
    ),
    "bds-povm": (
        SweepConfig(family="bds", sample_count=40, n_repeaters=[1, 2], eta_spec=[0.5, 0.85, 1.0], seed=37,
                    entangled_inputs_only=True, engine="oracle", swap_mode="povm"),
        240,
        "674c55b404279c944d353b60b1e820e415a60afae70ed98e873155aecd41c379",
        "a363573a5de0bda722bfb43180304f64aa99d4b1077d1e958472b012c8e962b7",
    ),
    "bds-grid-povm": (
        SweepConfig(family="bds", mode="grid", grid_steps=4, n_repeaters=[1, 2], eta_spec=[0.0, 0.7, 1.0],
                    engine="oracle", swap_mode="povm"),
        270,
        "d69186f607e0ce4c5468126049b5549f0f840d2bab9567783f43b6fb8fc95bd2",
        "f4eecd8d5e71a821b217c325f39e50512afdb6a9371c6c24840df37f9effcfa1",
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_ORACLE_SWEEPS))
def test_oracle_sweeps_keep_their_bytes(tmp_path, name):
    config, count, csv_digest, summary_digest = _GOLDEN_ORACLE_SWEEPS[name]
    records, summary = run_sweep(config)
    assert len(records) == count
    write_csv(records, tmp_path / "sweep.csv")
    write_summary_json(summary, tmp_path / "summary.json")
    digests = tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in ("sweep.csv", "summary.json")
    )
    assert digests == (csv_digest, summary_digest)


# sha256 of the CSV and summary of closed-form sweeps, with their record counts.  Five random
# sweeps: a Bell-diagonal sweep of all links whose cells include eta 0 and 1, a Werner sweep of
# per-node eta lists, one holding 0 and 1, a Bell-diagonal sweep of two chunks per n in three
# cells, a Werner sweep of entangled links only, and a Bell-diagonal sweep of entangled links
# only up to n = 6, where one sample reads about 130 doubles of its stream.  Three grids: a Werner grid whose n = 3 level (1296 records a cell) spans two chunks, the
# same grid without its separable visibilities (2/6 = 1/3 is dropped), and a Bell-diagonal grid.
_GOLDEN_CLOSEDFORM_SWEEPS = {
    "bds-eta-0-and-1": (
        SweepConfig(family="bds", sample_count=40, n_repeaters=[1, 3], eta_spec=[0.0, 0.6, 1.0], seed=43,
                    entangled_inputs_only=False),
        360,
        "f4028912d01c0a595d65643d25d3c14fcb84cae2efd034bc3eda6bce7bcb9793",
        "9a716c783005f3eacd888032d920fa28f18e09634c287d80fb36fb25841956e6",
    ),
    "werner-per-node": (
        SweepConfig(family="werner", sample_count=40, n_repeaters=2, eta_spec=[[0.0, 1.0], [0.9, 0.75]], seed=47),
        80,
        "814536e413667dd5eb5fa2cc42ca5e83acefee995d07855bda4bf791c5c8ccb7",
        "fa451d2ead175a572ae41ff7931c7fed1aefadbe7104e090e8e10f5e8f6b393b",
    ),
    "bds-two-chunks": (
        SweepConfig(family="bds", sample_count=sweep_module.CHUNK_SIZE + 3, n_repeaters=[1, 2],
                    eta_spec=[0.7, 0.9, 1.0], seed=53, entangled_inputs_only=True),
        6162,
        "ee2ff7b49039401de80f273f222beba2056f69ef77a2ccfe79bcc901f911b295",
        "1a7f5c2fd549d1fcc2400ae5a37220e700f5cdd6487c3f0df85bcfae337c968b",
    ),
    "werner-entangled": (
        SweepConfig(family="werner", sample_count=60, n_repeaters=[1, 3], eta_spec=[0.8, 1.0], seed=59,
                    entangled_inputs_only=True),
        360,
        "3c38fc0d1e1120c6e6182702fbacaff19c6bd2b9d4e30eeec93780ac46fc2187",
        "e90d6c4010dab6bb7a76788e822e9419487f0d30a918a010f28f7524fa99c044",
    ),
    "bds-entangled-long-chains": (
        SweepConfig(family="bds", sample_count=40, n_repeaters=[1, 6], eta_spec=[0.9, 1.0], seed=61,
                    entangled_inputs_only=True),
        480,
        "5f1c9e98b06a699203cc3594ce21809aed14e505f2866669e5ac4f7dde405428",
        "1c0df1d4c59f551649ec9dbaffde74ae836f2bbf054e6659bf499bd1d01a4e57",
    ),
    "werner-grid-two-chunks": (
        SweepConfig(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 3], eta_spec=[0.0, 0.8, 1.0]),
        4644,
        "84e805a0ea2239d0d47139d8fc88e0117797fad480bb7d1d3014918ed8f24333",
        "d33f5327ac5de4340e4ed87fddf2b51b93aa2070530621d262929cb948d68b65",
    ),
    "werner-grid-entangled": (
        SweepConfig(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 3], eta_spec=[0.0, 0.8, 1.0],
                    entangled_inputs_only=True),
        1008,
        "a28bbc75f4f690fbfc0212b68e751fa7f0a2d9a45f3afa7a5cb4d2d9aad2d088",
        "f4b038a07e5841626e05202bfba167552deb63069769c8056c7142201cbd4900",
    ),
    "bds-grid": (
        SweepConfig(family="bds", mode="grid", grid_steps=4, n_repeaters=[1, 3]),
        135,
        "6807162d20351e354718b52c435fc7b4659cc6e2d1f5e82426923527f559d154",
        "999c314e51ebfac087ae765dda9a0661b4fcab1ef7515226e3d2c0b381306439",
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_CLOSEDFORM_SWEEPS))
def test_closedform_sweeps_keep_their_bytes(tmp_path, name):
    config, count, csv_digest, summary_digest = _GOLDEN_CLOSEDFORM_SWEEPS[name]
    records, summary = run_sweep(config)
    assert len(records) == count
    write_csv(records, tmp_path / "sweep.csv")
    write_summary_json(summary, tmp_path / "summary.json")
    digests = tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in ("sweep.csv", "summary.json")
    )
    assert digests == (csv_digest, summary_digest)


@pytest.mark.parametrize("eta_spec", [[2.0 / 3.0, 0.1 + 0.7, 1.0], 0.1 + 0.2])
def test_numpy_float_etas_write_the_plain_float_bytes(tmp_path, eta_spec):
    # np.float64 is a float: the summary echoes numpy etas rounded to 12 digits, as it echoes plain ones
    numpy_spec = [np.float64(eta) for eta in eta_spec] if isinstance(eta_spec, list) else np.float64(eta_spec)
    written = []
    for spec in (eta_spec, numpy_spec):
        config = SweepConfig(family="bds", sample_count=20, n_repeaters=[1, 2], eta_spec=spec, seed=6,
                             engine="oracle", swap_mode="povm")
        records, summary = run_sweep(config)
        write_csv(records, tmp_path / "sweep.csv")
        write_summary_json(summary, tmp_path / "summary.json")
        written.append([(tmp_path / file).read_bytes() for file in ("sweep.csv", "summary.json")])
    assert written[0] == written[1]


def test_record_c_in_prod_is_the_csv_field(tmp_path):
    # write_csv computes the product inline; the property must give the same text
    config = SweepConfig(family="bds", sample_count=20, n_repeaters=[1, 3], eta_spec=0.9, seed=12,
                         entangled_inputs_only=True)
    records, _ = run_sweep(config)
    write_csv(records, tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [f"{r.c_in_prod:.12g}" for r in records] == [row["c_in_prod"] for row in rows]


def test_grid_mode_rejects_a_sample_count():
    config = SweepConfig(family="werner", mode="grid", grid_steps=3, sample_count=5)
    with pytest.raises(ConfigError, match="sample_count is only valid in random mode"):
        run_sweep(config)


def test_sample_state_rejects_an_unknown_family():
    with pytest.raises(ConfigError, match="unknown family"):
        sample_state("ising", link_generator(0, 0))


def test_run_sweep_is_deterministic():
    config = SweepConfig(
        family="werner", mode="random", sample_count=50, n_repeaters=2,
        eta_spec=[0.8, 1.0], seed=99, engine="closedform",
    )
    records_a, summary_a = run_sweep(config)
    records_b, summary_b = run_sweep(config)
    assert summary_a == summary_b
    for ra, rb in zip(records_a, records_b):
        assert ra.index == rb.index
        assert ra.c_out == rb.c_out
        assert ra.f_out == rb.f_out


def test_env_thread_cap_does_not_change_results(monkeypatch, tmp_path):
    config = SweepConfig(
        family="bds", mode="random", sample_count=40, n_repeaters=1,
        eta_spec=0.9, seed=5, engine="oracle",
    )
    serial_records, serial_summary = run_sweep(config)
    monkeypatch.setenv("ENTSWAP_THREADS", "4")
    threaded_records, threaded_summary = run_sweep(config)
    assert serial_summary == threaded_summary
    for ra, rb in zip(serial_records, threaded_records):
        assert ra.c_out == rb.c_out

    monkeypatch.setenv("ENTSWAP_THREADS", "not-a-number")
    with pytest.raises(ConfigError):
        run_sweep(config)


def test_engine_agreement_werner():
    base = dict(family="werner", mode="random", sample_count=200, n_repeaters=[1, 3],
                eta_spec=[0.8, 1.0], seed=17)
    closed, _ = run_sweep(SweepConfig(engine="closedform", **base))
    oracle, _ = run_sweep(SweepConfig(engine="oracle", **base))
    assert len(closed) == len(oracle)
    for rc, ro in zip(closed, oracle):
        assert abs(rc.c_out - ro.c_out) < 1e-9
        assert abs(rc.f_out - ro.f_out) < 1e-9


def test_engine_agreement_bds():
    base = dict(family="bds", mode="random", sample_count=100, n_repeaters=2,
                eta_spec=0.9, seed=18)
    closed, _ = run_sweep(SweepConfig(engine="closedform", **base))
    oracle, _ = run_sweep(SweepConfig(engine="oracle", **base))
    for rc, ro in zip(closed, oracle):
        assert abs(rc.c_out - ro.c_out) < 1e-9
        assert abs(rc.f_out - ro.f_out) < 1e-9


def test_werner_grid_threshold():
    config = SweepConfig(family="werner", mode="grid", grid_steps=20, n_repeaters=1,
                         eta_spec=1.0, seed=0, engine="closedform")
    records, summary = run_sweep(config)
    assert len(records) == 400
    for record in records:
        p1, p2 = (p.p for p in record.link_params)
        assert record.entangled == (p1 * p2 > 1 / 3)
    assert summary["cells"][0]["samples"] == 400


def test_werner_random_eta_grid_threshold():
    # no single imperfect swap entangles for eta <= 0.6
    config = SweepConfig(
        family="werner", mode="random", sample_count=300, n_repeaters=1,
        eta_spec=[0.0, 0.2, 0.4, 0.6], seed=23, engine="closedform",
    )
    _, summary = run_sweep(config)
    for cell in summary["cells"]:
        assert cell["entangled"] == 0


def test_statistical_monotonicity():
    config = SweepConfig(
        family="werner", mode="random", sample_count=1000, n_repeaters=[1, 3],
        eta_spec=[0.7, 0.8, 0.9, 1.0], seed=31, engine="closedform",
        entangled_inputs_only=True,
    )
    _, summary = run_sweep(config)
    frac = {
        (cell["n"], cell["eta"]): cell["entangled"] / cell["samples"]
        for cell in summary["cells"]
    }
    for eta in (0.7, 0.8, 0.9, 1.0):
        assert frac[(1, eta)] >= frac[(2, eta)] >= frac[(3, eta)]
    for n in (1, 2, 3):
        assert frac[(n, 0.7)] <= frac[(n, 0.8)] <= frac[(n, 0.9)] <= frac[(n, 1.0)]


def test_bds_grid_uses_identical_links():
    config = SweepConfig(family="bds", mode="grid", grid_steps=4, n_repeaters=2,
                         eta_spec=1.0, seed=0, engine="closedform")
    records, _ = run_sweep(config)
    assert records
    for record in records:
        assert len(record.link_params) == 3
        first = record.link_params[0].as_tuple()
        assert all(p.as_tuple() == first for p in record.link_params)
        assert min(p for p in record.link_params[0].eigenvalues()) >= -1e-10


def test_per_node_eta_lists():
    config = SweepConfig(family="werner", mode="random", sample_count=20, n_repeaters=2,
                         eta_spec=[[0.9, 0.8]], seed=3, engine="closedform")
    records, summary = run_sweep(config)
    assert all(r.etas == (0.9, 0.8) for r in records)
    assert summary["cells"][0]["eta"] == [0.9, 0.8]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="general", engine="closedform", mode="random", sample_count=5),
        dict(family="general", engine="oracle", mode="grid", grid_steps=5),
        dict(family="werner", engine="closedform", swap_mode="povm", mode="random", sample_count=5),
        dict(family="werner", mode="random"),  # missing sample_count
        dict(family="werner", mode="grid"),  # missing grid_steps
        dict(family="werner", mode="random", sample_count=5, grid_steps=5),
        dict(family="werner", mode="random", sample_count=5, n_repeaters=0),
        dict(family="werner", mode="random", sample_count=5, eta_spec=1.5),
        dict(family="werner", mode="random", sample_count=5, eta_spec=[[0.9, 0.8]], n_repeaters=3),
        dict(family="nope", mode="random", sample_count=5),
        dict(family="werner", mode="random", sample_count=5, seed=-1),
        dict(family="werner", mode="random", sample_count=5, swap_mode="noisy"),
    ],
)
def test_config_validation_errors(kwargs):
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(**kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="werner", mode="random", sample_count=True),
        dict(family="werner", mode="grid", grid_steps=True),
        dict(family="werner", mode="random", sample_count=5, n_repeaters=[True, 2]),
        dict(family="werner", mode="random", sample_count=5, n_repeaters=[1, True]),
        dict(family="werner", mode="random", sample_count=5, entangled_inputs_only="false"),
        dict(family="werner", mode="grid", grid_steps=3, entangled_inputs_only=1),
        dict(family="werner", mode="random", sample_count=5, entangled_inputs_only=None),
        dict(family="werner", mode="random", sample_count=5, seed=2**64),
    ],
)
def test_config_type_errors(kwargs):
    # bools are not counts, the input filter takes only a real bool, and a
    # seed must fit the generator's 64-bit key instead of wrapping onto another
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(**kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_repeaters=2, eta_spec=[[True, 0.5]]),
        dict(eta_spec=[["0.9"]]),
        dict(eta_spec=[[None]]),
        dict(eta_spec=[[[0.5]]]),
        dict(n_repeaters=2, eta_spec=[[0.5, float("nan")]]),
    ],
)
def test_per_node_etas_must_be_numbers(kwargs):
    # every eta, per-node entries included, is a plain number in [0, 1]:
    # bools, numeric strings, nulls and nested lists are not read as one
    with pytest.raises(ConfigError, match="eta_spec"):
        run_sweep(SweepConfig(family="werner", mode="random", sample_count=5, **kwargs))


def test_largest_seed_is_accepted():
    config = SweepConfig(family="bds", mode="random", sample_count=3, seed=2**64 - 1)
    records, _ = run_sweep(config)
    assert len(records) == 3


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"family": "werner", "samples": 10})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({})


def test_csv_schema_and_determinism(tmp_path):
    config = SweepConfig(family="bds", mode="random", sample_count=5, n_repeaters=1,
                         eta_spec=0.9, seed=12, engine="closedform")
    records, summary = run_sweep(config)

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, path_a)
    write_csv(records, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    text = path_a.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    with open(path_a, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    for row in rows[1:]:
        assert len(row) == 11
        assert row[1] == "bds"
        assert row[3].startswith("(") and ";" in row[3]
        assert row[9] in ("true", "false") and row[10] in ("true", "false")
        float(row[7])  # c_out parses

    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    write_summary_json(summary, json_a)
    write_summary_json(summary, json_b)
    assert json_a.read_bytes() == json_b.read_bytes()
    loaded = json.loads(json_a.read_text(encoding="utf-8"))
    assert set(loaded) == {"config_echo", "totals", "cells"}
    assert loaded["totals"]["samples"] == 5
    assert loaded["config_echo"]["family"] == "bds"


def test_csv_empty_records_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_csv_werner_row_fields(tmp_path):
    config = SweepConfig(family="werner", mode="random", sample_count=1, n_repeaters=1,
                         eta_spec=0.9, seed=2, engine="closedform")
    records, _ = run_sweep(config)
    path = tmp_path / "one.csv"
    write_csv(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    row = rows[1]
    assert len(row) == 11
    assert row[0] == "0" and row[1] == "werner" and row[2] == "1"
    assert len(row[3].split(";")) == 2  # one visibility per link
    assert row[4] == "0.9"


def _naive_csv(records) -> str:
    """Reference CSV text: every field of every record formatted on its own."""
    def link(family, params):
        if family == "werner":
            return f"{params.p:.12g}"
        values = params.as_tuple() if family == "bds" else [*params.r, *params.s, *params.T.flatten()]
        return "(" + ",".join(f"{v:.12g}" for v in values) + ")"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        writer.writerow([
            str(r.index), r.family, str(r.n),
            ";".join(link(r.family, p) for p in r.link_params),
            ";".join(f"{e:.12g}" for e in r.etas),
            *(f"{v:.12g}" for v in (min(r.c_in), math.prod(r.c_in), r.c_out, r.f_out)),
            str(r.entangled).lower(), str(r.useful).lower(),
        ])
    return out.getvalue()


def _first_wrong_line(written: str, expected: str):
    """The first line of ``written`` that differs from ``expected``'s, or None when the texts are equal.

    A failing check then reports one line, not pytest's diff of two whole texts.
    """
    written, expected = written.split("\n"), expected.split("\n")
    if len(written) != len(expected):
        return f"{len(written)} lines, expected {len(expected)}"
    return next(((k, a, b) for k, (a, b) in enumerate(zip(written, expected)) if a != b), None)


def _first_wrong_row(path, records):
    """The first row of the file at ``path`` that differs from _naive_csv(records), or None."""
    return _first_wrong_line(path.read_text(encoding="utf-8"), _naive_csv(records))


@pytest.mark.parametrize("config", [
    SweepConfig(family="werner", mode="grid", grid_steps=4, n_repeaters=[1, 2], eta_spec=[0.8, 1.0]),
    SweepConfig(family="bds", mode="grid", grid_steps=4, n_repeaters=2, eta_spec=[[0.9, 0.7]],
                entangled_inputs_only=True, engine="oracle"),
    SweepConfig(family="general", sample_count=20, n_repeaters=[1, 2], eta_spec=0.9, seed=3, engine="oracle"),
], ids=["werner-grid", "bds-grid", "general-random"])
def test_csv_matches_a_per_record_formatter(tmp_path, config):
    records, _ = run_sweep(config)
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    assert _first_wrong_row(path, records) is None


def test_csv_tells_zero_from_negative_zero(tmp_path):
    # 0.0 == -0.0 (and their params compare equal), but they print as 0 and -0
    zero, negative_zero = WernerParams(0.0), WernerParams(-0.0)
    record = dict(family="werner", n=1, c_in=(0.0, 0.0), c_out=0.0, f_out=0.5, entangled=False, useful=False)
    records = [
        SweepRecord(index=0, link_params=(zero, negative_zero), etas=(0.0,), **record),
        SweepRecord(index=1, link_params=(negative_zero, zero), etas=(-0.0,), **record),
    ]
    path = tmp_path / "zeros.csv"
    write_csv(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[3:5] for row in rows[1:]] == [["0;-0", "0"], ["-0;0", "-0"]]
    assert _first_wrong_row(path, records) is None


def test_csv_prints_the_sign_of_every_zero_field(tmp_path, monkeypatch):
    memos = []

    class RecordedTexts(sweep_module._FloatTexts):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(sweep_module, "_FloatTexts", RecordedTexts)
    link = (WernerParams(0.5), WernerParams(0.25))
    records = [
        SweepRecord(index, "werner", 1, link, (0.9,), c_in, c_out, 0.5, False, False)
        for index, (c_in, c_out) in enumerate(
            (c_in, c_out) for c_in in [(0.0, -0.0), (-0.0, 0.0), (0.5, -0.0)] for c_out in [0.0, -0.0]
        )
    ]
    path = tmp_path / "zeros.csv"
    write_csv(records, path)
    assert _first_wrong_row(path, records) is None
    # min keeps the first of equal zeros; the product of (0.5, -0.0) is -0.0
    rows = [line.split(",")[5:8] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [
        ["0", "-0", "0"], ["0", "-0", "-0"],
        ["-0", "-0", "0"], ["-0", "-0", "-0"],
        ["-0", "-0", "0"], ["-0", "-0", "-0"],
    ]
    assert len(memos) == 1 and memos[0] and not any(value == 0.0 for value in memos[0])


def test_sweep_records_are_plain_slotted_dataclasses():
    records, _ = run_sweep(SweepConfig(family="werner", mode="grid", grid_steps=3, n_repeaters=1))
    record = records[0]
    assert not hasattr(record, "__dict__")
    assert SweepRecord.__slots__ == (
        "index", "family", "n", "link_params", "etas", "c_in", "c_out", "f_out", "entangled", "useful"
    )
    assert SweepRecord.__slots__ == tuple(field.name for field in dataclasses.fields(SweepRecord))
    c_out = record.c_out
    changed = dataclasses.replace(record, c_out=0.25)
    assert type(changed) is SweepRecord and changed is not record
    assert (changed.c_out, record.c_out) == (0.25, c_out)
    assert changed.link_params is record.link_params
    # records compare by identity, not by value
    twin = dataclasses.replace(record)
    assert twin != record and record == record
    assert hash(twin) != hash(record)


def test_werner_grid_records_stay_small():
    # every record shares its cell's link objects, so it keeps only its own
    # tuples and floats: under 500 bytes each for four links
    config = SweepConfig(family="werner", mode="grid", grid_steps=10, n_repeaters=3)
    run_sweep(config)  # warm-up: imports and first-call caches are not the records' cost
    tracemalloc.start()
    try:
        records, _ = run_sweep(config)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 10**4
    assert retained / len(records) < 500


@pytest.mark.parametrize("config", [
    SweepConfig(family="werner", sample_count=30, n_repeaters=[1, 3], eta_spec=[0.7, 1.0], seed=4),
    SweepConfig(family="bds", sample_count=30, n_repeaters=[1, 2], eta_spec=[0.6, 0.8, 1.0], seed=4),
    SweepConfig(family="bds", sample_count=sweep_module.CHUNK_SIZE + 6, n_repeaters=1, eta_spec=0.9, seed=8,
                entangled_inputs_only=True),
], ids=["werner-random", "bds-random-3-etas", "bds-across-chunks"])
def test_csv_matches_csv_writer(tmp_path, config):
    # _naive_csv quotes through csv.writer; write_csv builds each row as one string
    records, _ = run_sweep(config)
    etas = config.eta_spec if isinstance(config.eta_spec, list) else [config.eta_spec]
    # every eta cell of an n shares the n's link objects
    assert len({id(p) for r in records for p in r.link_params}) * len(etas) == sum(r.n + 1 for r in records)
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    assert _first_wrong_row(path, records) is None


# zeros of both signs, subnormals and values near 1e+-300, beside ordinary floats
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.7976931348623157e308)


def _floats(bound=None):
    """Floats in [-bound, bound] (any float if bound is None), edge values often."""
    edges = [x for x in _EDGE_FLOATS if bound is None or abs(x) <= bound]
    finite = bound is not None
    return st.sampled_from(edges) | st.floats(
        -bound if finite else None, bound, allow_nan=not finite, allow_infinity=not finite
    )


def _links(family):
    """Valid links of the family: Werner p in [0, 1]; inner points of the BDS tetrahedron and Bloch ball."""
    if family == "werner":
        return st.builds(WernerParams, _floats(1.0).filter(lambda p: p >= 0.0))
    if family == "bds":
        return st.builds(BdsParams, _floats(1 / 3), _floats(1 / 3), _floats(1 / 3))
    vector = st.lists(_floats(0.5), min_size=3, max_size=3).map(np.array)
    return st.builds(BlochForm, vector, vector, st.lists(_floats(1.0), min_size=9, max_size=9).map(np.array))


@st.composite
def _sweep_records(draw):
    """Records whose links, etas tuples and float values recur, as a sweep's do."""
    family = draw(st.sampled_from(sweep_module.FAMILIES))
    links = draw(st.lists(_links(family), min_size=1, max_size=4))
    values = st.sampled_from(draw(st.lists(_floats(), min_size=1, max_size=6)))
    records = []
    for index in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 3))
        records.append(SweepRecord(
            index=index, family=family, n=n,
            link_params=tuple(draw(st.sampled_from(links)) for _ in range(n + 1)),
            etas=tuple(draw(values) for _ in range(draw(st.integers(1, 2)))),
            c_in=tuple(draw(values) for _ in range(n + 1)),
            c_out=draw(values), f_out=draw(values),
            entangled=draw(st.booleans()), useful=draw(st.booleans()),
        ))
    return records


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_sweep_records())
def test_csv_matches_csv_writer_on_any_records(tmp_path, records):
    path = tmp_path / "records.csv"
    write_csv(records, path)
    assert _first_wrong_row(path, records) is None


# zeros of both signs, subnormals, +-1 and values that %.12g prints in exponent form
_LINK_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e-5, -2.5e-7, 1.234567890123e-300, 0.1, -1 / 3]
) | st.floats(-1.0, 1.0)


@st.composite
def _bloch_forms(draw):
    """A BlochForm whose 15 values are drawn from _LINK_VALUES, its Bloch vectors within the unit ball."""
    vector = st.lists(_LINK_VALUES, min_size=3, max_size=3).filter(lambda v: math.hypot(*v) <= 1.0)
    return BlochForm(np.array(draw(vector)), np.array(draw(vector)),
                     np.array(draw(st.lists(_LINK_VALUES, min_size=9, max_size=9))).reshape(3, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_bloch_forms())
def test_general_link_text_is_the_per_value_join(form):
    # one %-format of the 15 values must print each as _fmt does
    values = form.r.tolist() + form.s.tolist() + form.T.ravel().tolist()
    expected = "(" + ",".join(sweep_module._fmt(v) for v in values) + ")"
    assert sweep_module._format_link("general", form) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(_LINK_VALUES, _LINK_VALUES, _LINK_VALUES).filter(lambda t: _inside_tetrahedron(*t)))
def test_bds_link_text_is_the_per_value_join(triple):
    # one %-format of the triple must print each value as _fmt does
    expected = "(" + ",".join(sweep_module._fmt(v) for v in triple) + ")"
    assert sweep_module._format_link("bds", BdsParams(*triple)) == expected


def test_csv_reads_its_input_once(tmp_path):
    # a generator of records writes what the list writes
    records, _ = run_sweep(SweepConfig(family="bds", sample_count=20, n_repeaters=[1, 2],
                                       eta_spec=[0.8, 1.0], seed=6))
    write_csv(records, tmp_path / "list.csv")
    write_csv(iter(records), tmp_path / "iter.csv")
    assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_csv_of_a_stream_that_frees_its_links(tmp_path):
    # each streamed record brings new link objects, freed once it is written:
    # after a memo starts afresh, no new link may get a freed link's text
    records, _ = run_sweep(SweepConfig(family="werner", sample_count=3000, n_repeaters=[1, 2], seed=9))
    assert sum(r.n + 1 for r in records) > 1.5 * sweep_module._MEMO_ENTRIES
    stream = (dataclasses.replace(r, link_params=tuple(WernerParams(p.p) for p in r.link_params)) for r in records)
    write_csv(stream, tmp_path / "stream.csv")
    assert _first_wrong_row(tmp_path / "stream.csv", records) is None


@pytest.mark.parametrize("config, records_expected, budget", [
    # the grid repeats a few links and values: a memo of each record's link
    # tuple, or a buffer of every row, costs over 1 MiB here
    (SweepConfig(family="werner", mode="grid", grid_steps=10, n_repeaters=3), 10**4, 256 * 1024),
    # 12 000 links and 15 216 distinct values: memos without a bound hold them all, 3.7 MiB
    (SweepConfig(family="bds", sample_count=6000, eta_spec=[0.8, 1.0], seed=5), 12000, 3 * 1024**2),
], ids=["werner-grid", "bds-random"])
def test_csv_writer_memory_does_not_grow_with_records(tmp_path, config, records_expected, budget):
    records, _ = run_sweep(config)
    assert len(records) == records_expected
    write_csv(records, tmp_path / "warm.csv")  # first-call allocations are not the writer's
    tracemalloc.start()
    try:
        write_csv(records, tmp_path / "sweep.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_general_family_oracle_sweep_records():
    config = SweepConfig(family="general", mode="random", sample_count=10, n_repeaters=1,
                         eta_spec=[0.5, 0.9], seed=77, engine="oracle")
    records, summary = run_sweep(config)
    assert len(records) == 20
    for record in records:
        assert len(record.c_in) == 2
        assert 0.5 - 1e-12 <= record.f_out <= 1.0 + 1e-12
        assert record.entangled == (record.c_out > 0)
        assert record.useful == (record.f_out > 2 / 3)
    # eta = 0.5 sits under the single-swap threshold
    assert summary["cells"][0]["entangled"] == 0


@pytest.mark.parametrize("family, etas", [("werner", [0.8, 1.0]), ("bds", [0.9, 1.0])])
def test_engines_agree_on_flags_at_exact_thresholds(family, etas):
    # these grids hold records exactly at C = 0 or F = 2/3, where the two
    # engines' values differ in the last bit
    base = dict(family=family, mode="grid", grid_steps=6, n_repeaters=[1, 2], eta_spec=etas)
    closed, _ = run_sweep(SweepConfig(engine="closedform", **base))
    oracle, _ = run_sweep(SweepConfig(engine="oracle", **base))
    assert len(closed) == len(oracle)
    assert [(r.entangled, r.useful) for r in closed] == [(r.entangled, r.useful) for r in oracle]


def _exact_c_f(record):
    """C and F of a record's Werner or BDS chain in rationals, from Fraction of each float input."""
    scale = Fraction(1)
    for eta in map(Fraction, record.etas):
        scale *= eta / (4 - 3 * eta)
    if record.family == "werner":
        p = scale * math.prod(Fraction(link.p) for link in record.link_params)
        return max(Fraction(0), (3 * p - 1) / 2), (1 + p) / 2
    t1, t2, t3 = (
        scale * math.prod(Fraction(getattr(link, name)) for link in record.link_params)
        for name in ("t1", "t2", "t3")
    )
    t2 *= (-1) ** record.n
    largest = max(1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3) / 4
    return max(Fraction(0), 2 * largest - 1), (1 + (abs(t1) + abs(t2) + abs(t3)) / 3) / 2


@pytest.mark.parametrize("family, records_expected, near_expected", [("werner", 3024, 4), ("bds", 2184, 8)])
def test_flags_equal_exact_flags_on_rational_grids(family, records_expected, near_expected):
    # grid links and etas are rationals, so C > 0 and F > 2/3 can be decided
    # exactly.  The one allowed difference is an exact value at most
    # FLAG_MARGIN above its threshold, which the float flag must call false:
    # the Werner links (2/3, 1) at eta = 0.8 and the BDS pairs
    # (-1/3, -+2/3, -+2/3) at eta = 1, on both engines
    margin = Fraction(FLAG_MARGIN)
    two_thirds = Fraction(2, 3)
    total = near = 0
    for engine in ("closedform", "oracle"):
        for etas in ([0.8, 1.0], [0.9, 1.0], [0.7, 0.85]):
            base = dict(family=family, mode="grid", grid_steps=6, n_repeaters=[1, 2], eta_spec=etas)
            records, _ = run_sweep(SweepConfig(engine=engine, **base))
            for record in records:
                c, f = _exact_c_f(record)
                exact = (c > 0, f > two_thirds)
                close = (0 < c <= margin, two_thirds < f <= two_thirds + margin)
                expected = tuple(e and not n for e, n in zip(exact, close))
                assert (record.entangled, record.useful) == expected, (engine, record)
                near += any(close)
            total += len(records)
    assert (total, near) == (records_expected, near_expected)


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_flags_equal_exact_flags_on_random_sweeps(family):
    # a drawn link is a float, so a rational too: C > 0 and F > 2/3 are decided exactly as on
    # the grids, with the same allowance for an exact value at most FLAG_MARGIN above its threshold
    margin = Fraction(FLAG_MARGIN)
    two_thirds = Fraction(2, 3)
    total = 0
    for engine in ("closedform", "oracle"):
        for entangled_inputs_only in (False, True):
            records, _ = run_sweep(SweepConfig(
                family=family, sample_count=300, n_repeaters=[1, 4], eta_spec=[0.8, 0.9, 1.0], seed=5,
                entangled_inputs_only=entangled_inputs_only, engine=engine,
            ))
            for record in records:
                c, f = _exact_c_f(record)
                exact = (c > 0, f > two_thirds)
                close = (0 < c <= margin, two_thirds < f <= two_thirds + margin)
                expected = tuple(e and not n for e, n in zip(exact, close))
                assert (record.entangled, record.useful) == expected, (engine, record)
            total += len(records)
    assert total == 4 * 3600


@pytest.mark.parametrize("family", ["werner", "bds", "general"])
def test_sampler_exhaustion_is_an_entswap_error(monkeypatch, family):
    monkeypatch.setattr(sweep_module, "_MAX_REJECTIONS", 0)
    with pytest.raises(EntswapError):
        sample_state(family, link_generator(0, 0), entangled_inputs_only=True)


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_closedform_sweeps_build_no_dense_state(monkeypatch, family, entangled_inputs_only):
    # the closedform engine reads only the family parameters; each record
    # must equal the default draw's parameters pushed through evaluate_chain
    config = SweepConfig(
        family=family, sample_count=40, n_repeaters=[1, 2], eta_spec=[0.8, 1.0],
        seed=13, entangled_inputs_only=entangled_inputs_only,
    )
    c_link = {"werner": lambda params: concurrence_werner(params.p), "bds": concurrence_bds}[family]
    expected = []
    for n in (1, 2):
        for eta in (0.8, 1.0):
            for index in range(config.sample_count):
                rng = link_generator(config.seed, index)
                params = tuple(sample_state(family, rng, entangled_inputs_only)[0] for _ in range(n + 1))
                c_out, f_out, _ = evaluate_chain(family, "closedform", "paper", params, (eta,) * n)
                c_in = tuple(map(c_link, params))
                expected.append((index, n, params, (eta,) * n, c_in, c_out, f_out, *flags(c_out, f_out)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a closedform sweep built a dense state")

    for name in ("make_werner", "make_bell_diagonal", "TwoQubitState"):
        monkeypatch.setattr(sweep_module, name, forbidden)
    records, _ = run_sweep(config)
    assert [
        (r.index, r.n, r.link_params, r.etas, r.c_in, r.c_out, r.f_out, r.entangled, r.useful)
        for r in records
    ] == expected


@pytest.mark.parametrize("family", ["werner", "bds", "general"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_parameter_only_draws_leave_the_stream_untouched(family, entangled_inputs_only):
    dense_rng, sparse_rng = link_generator(21, 4), link_generator(21, 4)

    def key(params):
        return (params.r.tolist(), params.s.tolist(), params.T.tolist()) if family == "general" else params

    for _ in range(20):
        params, state = sample_state(family, dense_rng, entangled_inputs_only)
        sparse_params, sparse_state = sample_state(family, sparse_rng, entangled_inputs_only, dense=False)
        assert key(sparse_params) == key(params)
        if family == "general":
            assert np.array_equal(sparse_state.matrix, state.matrix)
        else:
            assert sparse_state is None
    assert sparse_rng.uniform() == dense_rng.uniform()


def _used_generator():
    """A link_generator left mid-block and holding a pending 32-bit half."""
    rng = link_generator(5, 9)
    rng.random()
    rng.integers(0, 2**32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert 0 < state["buffer_pos"] < 4 and state["has_uint32"] == 1
    return rng


_STREAM_DRAWS = {
    "random": lambda rng: rng.random(),
    "random(3)": lambda rng: rng.random(3).tolist(),
    "normal": lambda rng: rng.normal(size=(4, 4)).tolist(),
    "uint32": lambda rng: [int(rng.integers(0, 2**32, dtype=np.uint32)) for _ in range(5)],
    "bounded uint32": lambda rng: rng.integers(0, 1000, size=7, dtype=np.uint32).tolist(),
}


def _assert_restart_reads_the_stream(seed, index):
    for name, draw in _STREAM_DRAWS.items():
        rng = _used_generator()
        sweep_module._restart(rng, seed, index)
        fresh = link_generator(seed, index)
        assert [draw(rng) for _ in range(3)] == [draw(fresh) for _ in range(3)], name


@pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 2**64 - 1)])
def test_restarted_generator_reads_link_generators_stream(seed, index):
    # a restart must drop the used generator's counter, buffer and pending
    # 32-bit half: every draw then equals a new generator's of that key
    _assert_restart_reads_the_stream(seed, index)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_restarted_generator_reads_link_generators_stream_for_any_key(seed, index):
    _assert_restart_reads_the_stream(seed, index)


@pytest.mark.parametrize("family", ["werner", "bds", "general"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_random_sweep_across_a_chunk_reads_each_samples_own_stream(family, entangled_inputs_only):
    # one generator serves the sweep's n, restarted for each sample; every
    # record must equal the one built from a new link_generator(seed, index)
    count, eta = sweep_module.CHUNK_SIZE + 3, 0.9
    engine = "oracle" if family == "general" else "closedform"
    config = SweepConfig(family=family, sample_count=count, n_repeaters=1, eta_spec=eta, seed=29,
                         entangled_inputs_only=entangled_inputs_only, engine=engine)

    def key(params):
        return (params.r.tolist(), params.s.tolist(), params.T.tolist()) if family == "general" else params

    expected = []
    for index in range(count):
        rng = link_generator(config.seed, index)
        params, links = zip(*(sample_state(family, rng, entangled_inputs_only) for _ in range(2)))
        if family == "general":
            final = chain_swap(ChainSpec(links, NoiseModel((eta,))))
            c_in, c_out, f_out = tuple(map(concurrence, links)), concurrence(final), teleportation_fidelity(final)
        else:
            c_in = sweep_module.input_concurrences(family, params)
            c_out, f_out, _ = evaluate_chain(family, engine, "paper", params, (eta,))
        expected.append((index, 1, [key(p) for p in params], (eta,), c_in, c_out, f_out, *flags(c_out, f_out)))
    records, _ = run_sweep(config)
    assert [
        (r.index, r.n, [key(p) for p in r.link_params], r.etas, r.c_in, r.c_out, r.f_out, r.entangled, r.useful)
        for r in records
    ] == expected


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_random_sweeps_do_not_depend_on_the_block_size(monkeypatch, family, entangled_inputs_only):
    # a sample's stream is read a block at a time; blocks of 1 and 4 doubles put a block edge
    # inside or beside every try, and each record must still equal the default block's
    config = SweepConfig(family=family, sample_count=sweep_module.CHUNK_SIZE + 3, n_repeaters=[1, 3],
                         eta_spec=[0.8, 1.0], seed=67, entangled_inputs_only=entangled_inputs_only)
    expected = list(map(_record_fields, run_sweep(config)[0]))
    for block in (1, 4):
        monkeypatch.setattr(sweep_module, "_BLOCK", block)
        assert list(map(_record_fields, run_sweep(config)[0])) == expected, block


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("block", [1, 96])
def test_block_read_sampler_exhaustion_is_a_config_error(monkeypatch, family, block):
    # one try per link: among 200 links some first try is rejected, and the sweep must say so
    monkeypatch.setattr(sweep_module, "_MAX_REJECTIONS", 1)
    monkeypatch.setattr(sweep_module, "_BLOCK", block)
    config = SweepConfig(family=family, sample_count=50, n_repeaters=3, seed=3, entangled_inputs_only=True)
    with pytest.raises(ConfigError, match="did not converge"):
        run_sweep(config)


@pytest.mark.parametrize("family", ["general", "werner", "bds"])
@pytest.mark.parametrize("swap_mode", ["paper", "povm"])
def test_oracle_sweep_across_a_chunk_boundary_matches_single_chains(swap_mode, family):
    # one full stack and a stack of three; each record must equal, bit for
    # bit, the single-chain calls on that sample's dense links, and each
    # werner/bds c_in the closed form of its link
    count = sweep_module.CHUNK_SIZE + 3
    etas = (0.9, 0.8)
    config = SweepConfig(
        family=family, sample_count=count, n_repeaters=2, eta_spec=[list(etas)],
        seed=11, engine="oracle", swap_mode=swap_mode,
    )
    c_link = {
        "general": lambda params, link: concurrence(link),
        "werner": lambda params, link: concurrence_werner(params.p),
        "bds": lambda params, link: concurrence_bds(params),
    }[family]
    records, summary = run_sweep(config)
    assert [r.index for r in records] == list(range(count))
    assert summary["totals"]["samples"] == count
    for record in records:
        rng = link_generator(config.seed, record.index)
        params, links = zip(*(sample_state(family, rng) for _ in range(3)))
        final = chain_swap(ChainSpec(links, NoiseModel(etas)), mode=swap_mode)
        assert record.c_in == tuple(map(c_link, params, links))
        assert (record.c_out, record.f_out) == (concurrence(final), teleportation_fidelity(final))


@pytest.mark.parametrize("swap_mode", ["paper", "povm"])
def test_multi_cell_general_oracle_sweep_across_chunks_matches_single_chains(swap_mode):
    # all eta cells of an n are evaluated as one stack, so three cells of
    # CHUNK_SIZE + 3 samples cross several chunks; each record must equal,
    # bit for bit, the single-chain calls on its sample's links with its
    # own cell's per-node etas
    count = sweep_module.CHUNK_SIZE + 3
    cells = [(0.9, 0.8), (1.0, 0.0), (0.7, 1.0)]
    config = SweepConfig(
        family="general", sample_count=count, n_repeaters=2, eta_spec=[list(etas) for etas in cells],
        seed=13, engine="oracle", swap_mode=swap_mode,
    )
    records, summary = run_sweep(config)
    assert [(r.etas, r.index) for r in records] == [(etas, index) for etas in cells for index in range(count)]
    assert [cell["samples"] for cell in summary["cells"]] == [count] * len(cells)
    links = {}
    for record in records:
        if record.index not in links:
            rng = link_generator(config.seed, record.index)
            links[record.index] = [sample_state("general", rng)[1] for _ in range(3)]
        final = chain_swap(ChainSpec(links[record.index], NoiseModel(record.etas)), mode=swap_mode)
        assert record.c_in == tuple(map(concurrence, links[record.index]))
        assert (record.c_out, record.f_out) == (concurrence(final), teleportation_fidelity(final))


def _chains_per_stack(monkeypatch):
    """Record the chains of every stacked oracle evaluation: cells times samples."""
    sizes = []
    chain_matrices = sweep_module._chain_matrices

    def counting(links, cells, mode):
        sizes.append(len(cells) * links.shape[1])
        return chain_matrices(links, cells, mode)

    monkeypatch.setattr(sweep_module, "_chain_matrices", counting)
    return sizes


def test_oracle_sweep_memory_does_not_grow_with_eta_cells(monkeypatch):
    # every stack holds at most CHUNK_SIZE chains, so what a sweep allocates
    # and frees again (its peak above the records it keeps) is no larger for
    # 8 cells than for 2; a stack of every cell's CHUNK_SIZE samples is 4x
    def transient(cells):
        config = SweepConfig(
            family="general", sample_count=sweep_module.CHUNK_SIZE, n_repeaters=2,
            eta_spec=[0.5 + 0.05 * k for k in range(cells)], seed=19, engine="oracle", swap_mode="povm",
        )
        tracemalloc.start()
        try:
            records, _ = run_sweep(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == cells * config.sample_count
        return peak - kept

    sizes = _chains_per_stack(monkeypatch)
    # first-call allocations are not the sweep's
    run_sweep(SweepConfig(family="general", sample_count=2, n_repeaters=2, engine="oracle", swap_mode="povm"))
    two, eight = transient(2), transient(8)
    assert sizes and max(sizes) == sweep_module.CHUNK_SIZE
    assert eight <= 1.1 * two


def test_more_eta_cells_than_a_stack_holds(monkeypatch):
    # CHUNK_SIZE + 6 cells take each sample alone, in two stacks; the
    # cells must still equal their single-eta sweeps
    etas = [k / (sweep_module.CHUNK_SIZE + 5) for k in range(sweep_module.CHUNK_SIZE + 6)]
    base = dict(family="general", sample_count=2, n_repeaters=1, seed=37, engine="oracle", swap_mode="povm")
    sizes = _chains_per_stack(monkeypatch)
    records, summary = run_sweep(SweepConfig(**base, eta_spec=etas))
    assert sizes == [sweep_module.CHUNK_SIZE, 6] * 2
    assert len(summary["cells"]) == len(etas)
    for k in (0, sweep_module.CHUNK_SIZE // 2 - 1, sweep_module.CHUNK_SIZE // 2, len(etas) - 1):
        single, _ = run_sweep(SweepConfig(**base, eta_spec=etas[k]))
        assert [_record_fields(r) for r in records[2 * k:2 * k + 2]] == [_record_fields(r) for r in single]


def _with_defect(m, defect, size):
    """A copy of the 4x4 matrix m with one defect of the given size."""
    m = m.copy()
    if defect == "hermiticity":
        m[0, 1] += size
    elif defect == "trace":
        m[0, 0] += size
    else:
        m[:] = np.diag([0.5 + size, 0.5, 0.0, -size])
    return m


@pytest.mark.parametrize("second, third", [
    (("hermiticity", 1e-9), ("hermiticity", 1e-6)),
    (("negative", 1e-9), ("negative", 1e-6)),
    (("trace", 1e-6), ("hermiticity", 1e-3)),
    (("negative", 1e-8), ("trace", 1e-3)),
])
def test_failing_stacked_cells_raise_the_first_failing_cells_error(monkeypatch, second, third):
    # the second and third eta cells end in bad members with different
    # defects; the sweep must raise what the second cell raises alone, not
    # an error worded from the whole stack
    from entswap.states import _checked_density_matrix

    chain_matrices = sweep_module._chain_matrices
    expected = []

    def scripted(links, cells, mode):
        out = chain_matrices(links, cells, mode).copy()
        out[1, 3] = _with_defect(out[1, 3], *second)
        out[2, 1] = _with_defect(out[2, 1], *third)
        for cell in out:
            try:
                _checked_density_matrix(cell, cell.shape, "two-qubit state")
            except InvalidStateError as exc:
                expected.append(str(exc))
        return out

    monkeypatch.setattr(sweep_module, "_chain_matrices", scripted)
    config = SweepConfig(family="general", sample_count=6, n_repeaters=1, eta_spec=[0.7, 0.9, 1.0], seed=5,
                         engine="oracle")
    with pytest.raises(InvalidStateError) as raised:
        run_sweep(config)
    assert len(expected) == 2 and expected[0] != expected[1]
    assert str(raised.value) == expected[0]


def test_failing_stack_raises_when_no_member_fails_alone(monkeypatch):
    # if the member-by-member search finds no failing member, the stack's
    # own error must escape: the sweep raises it and returns no records
    from entswap.states import _checked_density_matrix

    chain_matrices = sweep_module._chain_matrices
    expected = []

    def scripted(links, cells, mode):
        out = chain_matrices(links, cells, mode).copy()
        out[1, 2] = _with_defect(out[1, 2], "trace", 1e-3)
        try:
            _checked_density_matrix(out, out.shape, "two-qubit state")
        except InvalidStateError as exc:
            expected.append(str(exc))
        return out

    monkeypatch.setattr(sweep_module, "_chain_matrices", scripted)
    monkeypatch.setattr(sweep_module, "_raise_first_failure", lambda check, members: None)
    config = SweepConfig(family="general", sample_count=4, n_repeaters=1, eta_spec=[0.8, 1.0], seed=5,
                         engine="oracle")
    with pytest.raises(InvalidStateError) as raised:
        run_sweep(config)
    assert len(expected) == 1
    assert str(raised.value) == expected[0]


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("swap_mode", ["paper", "povm"])
def test_single_chain_oracle_matches_sweep_records(family, swap_mode):
    # the CLI's single-chain route must give every sweep record bit for bit,
    # and its final matrix must be chain_swap's on the same dense links
    config = SweepConfig(
        family=family, sample_count=30, n_repeaters=[1, 2], eta_spec=[0.8, 0.95],
        seed=17, engine="oracle", swap_mode=swap_mode,
    )
    maker = {"werner": make_werner, "bds": make_bell_diagonal}[family]
    records, _ = run_sweep(config)
    assert len(records) == 2 * 2 * config.sample_count
    for record in records:
        c_out, f_out, final = evaluate_chain(family, "oracle", swap_mode, record.link_params, record.etas)
        assert (record.c_out, record.f_out) == (c_out, f_out)
        links = tuple(maker(p) for p in record.link_params)
        expected = chain_swap(ChainSpec(links, NoiseModel(record.etas)), mode=swap_mode)
        assert np.array_equal(final, expected.matrix)


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_closedform_end_state_matches_oracle(family):
    # the closed forms' Bell-diagonal end state, alternating middle sign
    # included, is the oracle's swapped state for every chain length
    rng = np.random.default_rng(2024)
    for n in range(1, 5):
        for _ in range(25):
            if family == "werner":
                params = [WernerParams(float(p)) for p in rng.uniform(0.0, 1.0, size=n + 1)]
            else:
                params = [sample_state("bds", rng, dense=False)[0] for _ in range(n + 1)]
            etas = rng.uniform(0.0, 1.0, size=n)
            _, _, closed = evaluate_chain(family, "closedform", "paper", params, etas)
            _, _, oracle = evaluate_chain(family, "oracle", "paper", params, etas)
            assert isinstance(closed, np.ndarray) and closed.shape == (4, 4)
            assert not closed.flags.writeable
            assert np.abs(closed - oracle).max() <= 1e-12


def _end_state_chains(family):
    """(link_params, etas) of chains with 1..6 swaps, odd and even, with eta 0 and 1 and zero or unit links."""
    rng = np.random.default_rng(77)
    edges = {"werner": [0.0, -0.0, 1.0], "bds": [(0.0, -0.0, 0.0), (1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)]}[family]
    for n in range(1, 7):
        for k in range(60):
            if family == "werner":
                params = [WernerParams(float(p)) for p in rng.uniform(0.0, 1.0, size=n + 1)]
            else:
                params = [sample_state("bds", rng, dense=False)[0] for _ in range(n + 1)]
            etas = rng.uniform(0.0, 1.0, size=n).tolist()
            if k % 3 == 0:
                etas[int(rng.integers(n))] = float(rng.choice([0.0, 1.0]))
            if k % 4 == 0:
                edge = edges[int(rng.integers(len(edges)))]
                params[int(rng.integers(n + 1))] = WernerParams(edge) if family == "werner" else BdsParams(*edge)
            yield params, etas


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_closedform_end_state_is_the_second_query_routes_bit_for_bit(family):
    # the end state built from the chain's own closed-form final must be the
    # matrix the earlier route built from a second Bell-diagonal query
    for params, etas in _end_state_chains(family):
        _, _, final = evaluate_chain(family, "closedform", "paper", params, etas)
        expected = reference_closedform_end_state(family, params, etas)
        assert final.tobytes() == expected.tobytes(), (params, etas)


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_evaluate_chain_takes_each_node_scale_once(monkeypatch, family):
    # C, F and the end state of one chain all read one closed-form final
    calls = []
    node_scale = closedform_module._node_scale

    def counting(etas):
        calls.append(etas)
        return node_scale(etas)

    monkeypatch.setattr(closedform_module, "_node_scale", counting)
    for params, etas in islice(_end_state_chains(family), 20):
        evaluate_chain(family, "closedform", "paper", params, etas)
    assert len(calls) == 20


@pytest.mark.parametrize("family, engine", [("werner", "closedform"), ("bds", "closedform"), ("general", "oracle")])
def test_each_sample_is_drawn_once_per_chain_length(monkeypatch, family, engine):
    # a sample's links for one n serve all three eta cells of that n, which
    # share the link objects; a sweep that redraws per cell makes 3x the calls
    calls = [0]
    draw = sweep_module.sample_state

    def counting_draw(*args, **kwargs):
        calls[0] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "sample_state", counting_draw)
    count, ns, etas = 25, (1, 2, 3), [0.7, 0.9, 1.0]
    config = SweepConfig(
        family=family, sample_count=count, n_repeaters=[1, 3], eta_spec=etas,
        seed=23, entangled_inputs_only=True, engine=engine,
    )
    records, summary = run_sweep(config)
    assert calls[0] == count * sum(n + 1 for n in ns)
    assert [(cell["n"], cell["eta"]) for cell in summary["cells"]] == [(n, eta) for n in ns for eta in etas]
    cells = [records[k * count:(k + 1) * count] for k in range(len(ns) * len(etas))]
    for k, cell in enumerate(cells):
        first = cells[k - k % len(etas)]
        assert all(r.link_params[j] is s.link_params[j] for r, s in zip(cell, first) for j in range(r.n + 1))


def _record_fields(record):
    """Every field of a record as plain values; general links as their Bloch arrays."""
    links = [
        (p.r.tolist(), p.s.tolist(), p.T.tolist()) if record.family == "general" else p
        for p in record.link_params
    ]
    return (record.index, record.family, record.n, links, record.etas, record.c_in,
            record.c_out, record.f_out, record.entangled, record.useful)


@pytest.mark.parametrize("family, engine, swap_mode, count, entangled_inputs_only", [
    ("werner", "closedform", "paper", 40, False),
    ("bds", "closedform", "paper", 40, True),
    ("general", "oracle", "paper", sweep_module.CHUNK_SIZE + 3, False),
    ("general", "oracle", "povm", 30, True),
    ("werner", "oracle", "paper", 30, True),
    ("werner", "oracle", "povm", 30, False),
    ("bds", "oracle", "paper", 30, False),
    ("bds", "oracle", "povm", 30, True),
])
def test_multi_eta_cells_equal_single_eta_sweeps(tmp_path, family, engine, swap_mode, count, entangled_inputs_only):
    # each (n, eta) cell of a multi-eta sweep is, field for field and as CSV
    # bytes, the single-eta sweep of the same seed
    etas = [0.6, 0.85, 1.0]
    base = dict(
        family=family, sample_count=count, n_repeaters=[1, 2], seed=31,
        entangled_inputs_only=entangled_inputs_only, engine=engine, swap_mode=swap_mode,
    )
    records, summary = run_sweep(SweepConfig(**base, eta_spec=etas))
    write_csv(records, tmp_path / "multi.csv")
    expected_records, expected_lines, expected_cells = {}, {}, {}
    for eta in etas:
        single, single_summary = run_sweep(SweepConfig(**base, eta_spec=eta))
        write_csv(single, tmp_path / "single.csv")
        lines = (tmp_path / "single.csv").read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        for record, line in zip(single, lines, strict=True):
            expected_records.setdefault((record.n, eta), []).append(_record_fields(record))
            expected_lines.setdefault((record.n, eta), []).append(line)
        expected_cells.update(((cell["n"], eta), cell) for cell in single_summary["cells"])
    order = [(n, eta) for n in (1, 2) for eta in etas]
    assert [_record_fields(r) for r in records] == [f for key in order for f in expected_records[key]]
    body = (tmp_path / "multi.csv").read_text(encoding="utf-8").split("\n", 1)[1]
    assert _first_wrong_line(body, "".join(line for key in order for line in expected_lines[key])) is None
    assert summary["cells"] == [expected_cells[key] for key in order]


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_oracle_sweeps_build_each_dense_link_once(monkeypatch, family):
    # every eta cell of an n reads the chunk's one stack of dense links; a
    # sweep that builds them per cell makes 3x the calls
    name = {"werner": "make_werner", "bds": "make_bell_diagonal"}[family]
    calls = [0]
    make = getattr(sweep_module, name)

    def counting_make(*args, **kwargs):
        calls[0] += 1
        return make(*args, **kwargs)

    monkeypatch.setattr(sweep_module, name, counting_make)
    count, ns = 20, (1, 2, 3)
    config = SweepConfig(
        family=family, sample_count=count, n_repeaters=[1, 3], eta_spec=[0.7, 0.9, 1.0],
        seed=29, engine="oracle",
    )
    records, _ = run_sweep(config)
    assert len(records) == 3 * count * len(ns)
    assert calls[0] == count * sum(n + 1 for n in ns)


@pytest.mark.parametrize("family, mode", [("werner", "grid"), ("bds", "random")])
def test_closedform_sweeps_call_each_closed_form_once_per_chunk_and_cell(monkeypatch, family, mode):
    # the closed forms take the whole chunk as one stack: one call per
    # (chunk, eta cell), never one per record
    calls = {}

    def counting(name):
        closed_form = getattr(sweep_module, name)

        def wrapper(query):
            calls[name] = calls.get(name, 0) + 1
            return closed_form(query)

        return wrapper

    names = [f"{family}_chain_concurrence", f"{family}_chain_fidelity"]
    for name in names:
        monkeypatch.setattr(sweep_module, name, counting(name))
    etas = [0.8, 1.0]
    if mode == "grid":
        # 6**2, 6**3 and 6**4 records per cell: one, one and two chunks
        config = SweepConfig(family=family, mode="grid", grid_steps=6, n_repeaters=[1, 3], eta_spec=etas)
        per_cell = [6 ** (n + 1) for n in (1, 2, 3)]
    else:
        count = sweep_module.CHUNK_SIZE + 5
        config = SweepConfig(family=family, sample_count=count, n_repeaters=[1, 2], eta_spec=etas, seed=3)
        per_cell = [count, count]
    records, _ = run_sweep(config)
    assert len(records) == len(etas) * sum(per_cell)
    chunks = sum(math.ceil(size / sweep_module.CHUNK_SIZE) for size in per_cell)
    assert calls == {name: chunks * len(etas) for name in names}


class _LinkStub:
    """Link parameters that skip their own check: a bad member planted in a stack."""

    def __init__(self, *values):
        self.values = values
        if len(values) == 1:
            (self.p,) = values
        else:
            self.t1, self.t2, self.t3 = values


def _raised_error(build):
    """(type, message) of the EntswapError that build() raises."""
    with pytest.raises(EntswapError) as info:
        build()
    return type(info.value), str(info.value)


_BAD_LINKS = {
    "werner": [(1.5,), (-0.1,), (float("nan"),)],
    "bds": [(1.0, 1.0, 1.0), (float("nan"), 0.0, 0.0), (0.0, math.inf, 0.0)],
}


@pytest.mark.parametrize("family, bad", [(family, bad) for family, bads in _BAD_LINKS.items() for bad in bads])
def test_a_failing_link_stack_raises_what_its_first_bad_member_raises_alone(family, bad):
    # a stack's members come in the order of its (n+1, N) rows: link by link, chain by chain
    made = WernerParams if family == "werner" else BdsParams
    good = _LinkStub(0.8) if family == "werner" else _LinkStub(0.5, -0.3, 0.2)
    later = _LinkStub(2.0) if family == "werner" else _LinkStub(0.9, 0.9, 0.9)
    alone = _raised_error(lambda: made(*bad))
    assert alone != _raised_error(lambda: made(*later.values))
    chunk = [[good] * 3 for _ in range(5)]
    chunk[2][1] = _LinkStub(*bad)
    chunk[4][1] = chunk[0][2] = later
    for params in ([[good, _LinkStub(*bad), good]], chunk):
        assert _raised_error(lambda: _link_stack(family, "closedform", params, None)) == alone


def _unchecked_bds_stack(rows):
    """A BdsParams stack of (n+1, N) arrays, rows[j] holding chain j's triples, that skips its check."""
    t1, t2, t3 = np.array(rows, dtype=float).transpose(2, 1, 0)
    return _unchecked(BdsParams, t1=t1, t2=t2, t3=t3)


def test_a_failing_final_raises_what_its_first_bad_member_raises_alone():
    # unchecked links (1, 1, 1), (1, 1, 1), (t, t, t) end two swaps in (s t, s t, s t), s being
    # the node scale: outside the tetrahedron once s t > 1/3.  A final's members come cell by
    # cell, chain by chain.
    good = [(0.5, -0.3, 0.2)] * 3

    def chain(t):
        return [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (t, t, t)]

    # node scales 0, 0.5 and 1
    none, half, full = NoiseModel((0.0, 0.0)), NoiseModel((1.0, 0.8)), NoiseModel((1.0, 1.0))

    def alone(t, cell):
        return _raised_error(lambda: cell_queries(_unchecked_bds_stack([chain(t)]), [cell]))

    assert alone(0.9, full) == _raised_error(lambda: BdsParams(0.9, 0.9, 0.9))
    assert alone(0.9, half) != alone(0.4, full) and alone(0.6, full) != alone(0.7, full)
    # t = 0.4 fails in the full cell only, t = 0.9 in the half cell too, which comes first
    chunk = _unchecked_bds_stack([good, chain(0.4), good, chain(0.9)])
    assert _raised_error(lambda: cell_queries(chunk, [none, half, full])) == alone(0.9, half)
    # inside one cell, the first failing chain raises
    chunk = _unchecked_bds_stack([good, chain(0.6), chain(0.7)])
    assert _raised_error(lambda: cell_queries(chunk, [none, full, full])) == alone(0.6, full)


@pytest.mark.parametrize("count, ns, chunks_per_n", [(20, [1, 4], 1), (sweep_module.CHUNK_SIZE + 3, [1, 2], 2)])
def test_closedform_chunks_check_their_links_and_final_once(monkeypatch, count, ns, chunks_per_n):
    # the shape of a sweep-bds-closedform slot, and of two chunks per n: each chunk checks its
    # link stack once and its final once, however many eta cells read it
    calls = [0]
    check = BdsParams._check_stack

    def counting(self):
        calls[0] += 1
        return check(self)

    monkeypatch.setattr(BdsParams, "_check_stack", counting)
    run_sweep(SweepConfig(family="bds", sample_count=count, n_repeaters=ns, eta_spec=[0.55, 0.75, 0.95], seed=19,
                          entangled_inputs_only=True))
    assert calls[0] == 2 * chunks_per_n * (ns[1] - ns[0] + 1)


def test_werner_chunks_check_their_link_stack_once(monkeypatch):
    # 6**2, 6**3 and 6**4 records per cell: one, one and two chunks
    calls = [0]
    check = sweep_module.check_visibility

    def counting(p):
        calls[0] += isinstance(p, np.ndarray)
        return check(p)

    monkeypatch.setattr(sweep_module, "check_visibility", counting)
    run_sweep(SweepConfig(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 3], eta_spec=[0.8, 0.9, 1.0]))
    assert calls[0] == 4


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_random_sweeps_check_no_drawn_link_alone(monkeypatch, family, engine):
    # a drawn link is in range by construction; only each chunk's stack is checked
    scalar_checks = [0]
    for cls in (WernerParams, BdsParams):
        post_init = cls.__post_init__

        def counting(self, post_init=post_init):
            scalar_checks[0] += not isinstance(getattr(self, "p", getattr(self, "t1", None)), np.ndarray)
            return post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    records, _ = run_sweep(SweepConfig(family=family, sample_count=30, n_repeaters=[1, 3], eta_spec=[0.8, 1.0],
                                       seed=17, entangled_inputs_only=family == "bds", engine=engine))
    assert len(records) == 2 * 3 * 30
    assert scalar_checks[0] == 0
    # the count sees a link checked alone
    WernerParams(0.5), BdsParams(0.1, 0.2, 0.3)
    assert scalar_checks[0] == 2


@pytest.mark.parametrize("swap_mode", ["paper", "povm"])
def test_general_sweeps_check_no_drawn_link_alone(monkeypatch, swap_mode):
    # without entangled_inputs_only, only each chunk's stack of drawn links is checked
    checks = [0]
    post_init = TwoQubitState.__post_init__

    def counting(self):
        checks[0] += 1
        return post_init(self)

    monkeypatch.setattr(TwoQubitState, "__post_init__", counting)
    config = SweepConfig(family="general", sample_count=30, n_repeaters=[1, 3], eta_spec=[0.8, 1.0], seed=17,
                         engine="oracle", swap_mode=swap_mode)
    records, _ = run_sweep(config)
    assert len(records) == 2 * 3 * 30
    assert checks[0] == 0
    # the count sees a link checked alone: one try of a single draw, or every try of a sweep
    # of entangled links only, whose tries each need their own concurrence
    sample_state("general", link_generator(17, 0))
    assert checks[0] == 1
    run_sweep(dataclasses.replace(config, entangled_inputs_only=True))
    assert checks[0] > 1 + 30 * (2 + 3 + 4)


class _ScriptedNormals:
    """The streams of link_generator(seed, index), but sample ``index``'s first normals are ``script``'s arrays.

    A restart (sweep._restart assigns ``bit_generator.state``) rewinds the
    real stream and, for that sample, the script.
    """

    def __init__(self, seed, index, script):
        self._rng = link_generator(seed, 0)
        self._index, self._script, self._pending = index, script, []
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state

    @state.setter
    def state(self, value):
        self._rng.bit_generator.state = value
        self._pending = list(self._script) if value["state"]["key"][1] == self._index else []

    def normal(self, size=None):
        return self._pending.pop(0) if self._pending else self._rng.normal(size=size)


def _rank_deficient_normals(links: int) -> list:
    """The normals of ``links`` draws whose G has two equal rows: G G+ / Tr has rank 3, up to rounding."""
    rng = np.random.default_rng(2024)
    normals = []
    for _ in range(links):
        for part in rng.normal(size=(2, 4, 4)):
            part[1] = part[0]
            normals.append(part)
    return normals


@pytest.mark.parametrize("seed, n, count, chunk_size", [
    (3, 1, 17, 7),
    (29, 2, 40, 40),
    (2**64 - 1, 3, 12, 5),
    (0, 4, 9, 4),
], ids=["n1-three-chunks", "n2-one-chunk", "n3-largest-seed", "n4-three-chunks"])
def test_stacked_general_links_equal_the_per_link_draws(monkeypatch, seed, n, count, chunk_size):
    # a chunk checks and decomposes its drawn links as one stack; every matrix, Bloch form and c_in
    # must equal, bit for bit, what drawing and checking each link alone gives.  One sample's
    # links come from rank-deficient G's, so some of its links are clamped, and a clamped link
    # checked a second time changes: the stack must check each link exactly once.
    script, clamped = _rank_deficient_normals(n + 1), count // 2
    monkeypatch.setattr(sweep_module, "link_generator", lambda s, index: _ScriptedNormals(s, clamped, script))
    reference = _ScriptedNormals(seed, clamped, script)
    config = SweepConfig(family="general", sample_count=count, n_repeaters=n, seed=seed, engine="oracle")
    seen, rechecked = [], 0
    for indices, params, c_in, links in _random_links(config, n, chunk_size):
        expected_params, states = [], []
        for index in indices:
            sweep_module._restart(reference, seed, index)
            drawn, dense = zip(*(sample_state("general", reference, dense=False) for _ in range(n + 1)))
            expected_params.append(drawn)
            states.append(dense)
        expected = np.array([[state.matrix for state in column] for column in zip(*states)])
        assert links.shape == (n + 1, len(indices), 4, 4)
        assert np.array_equal(links, expected)
        assert c_in == [tuple(chain) for chain in concurrence(expected).T.tolist()]
        assert len(params) == len(indices) and all(len(chain) == n + 1 for chain in params)
        for chain, expected_chain in zip(params, expected_params):
            for form, expected_form in zip(chain, expected_chain):
                for name in ("r", "s", "T"):
                    value, expected_value = getattr(form, name), getattr(expected_form, name)
                    assert np.array_equal(value, expected_value) and value.shape == expected_value.shape
                    assert not value.flags.writeable
        rechecked += sum(not np.array_equal(TwoQubitState(m).matrix, m) for m in links.reshape(-1, 4, 4))
        seen.extend(indices)
    assert seen == list(range(count))
    assert rechecked > 0


def _entangled_clamped_normals(links: int) -> list:
    """The normals of ``links`` rank-deficient draws (see above) that are entangled and that the check clamps.

    Each G G+ / Tr(G G+), made Hermitian as the check makes it, has a
    negative smallest eigenvalue, so TwoQubitState clamps it; its
    concurrence is positive, so entangled_inputs_only keeps it.
    """
    rng, normals = np.random.default_rng(2025), []
    while len(normals) < 2 * links:
        a, b = rng.normal(size=(2, 4, 4))
        a[1], b[1] = a[0], b[0]
        m = sweep_module._hilbert_schmidt(a + 1j * b)
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] < 0.0 and concurrence(TwoQubitState(m)) > 0.0:
            normals += [a, b]
    return normals


@pytest.mark.parametrize("seed, n, count, chunk_size", [
    (3, 1, 17, 7),
    (29, 2, 40, 40),
    (2**64 - 1, 3, 12, 5),
    (0, 4, 9, 4),
], ids=["n1-three-chunks", "n2-one-chunk", "n3-largest-seed", "n4-three-chunks"])
def test_stacked_entangled_general_links_equal_the_per_link_draws(monkeypatch, seed, n, count, chunk_size):
    # with entangled_inputs_only each try is formed and checked alone for its concurrence, and the
    # chunk then forms, checks and decomposes the kept links as one stack: every matrix, Bloch form
    # and c_in must equal, bit for bit, what drawing each link alone gives.  One sample's links come
    # from entangled rank-deficient G's that the check clamps, and a clamped link checked a second
    # time changes: the stack must check the raw formed links, never a try's checked matrix.
    script, clamped = _entangled_clamped_normals(n + 1), count // 2
    monkeypatch.setattr(sweep_module, "link_generator", lambda s, index: _ScriptedNormals(s, clamped, script))
    reference = _ScriptedNormals(seed, clamped, script)
    config = SweepConfig(family="general", sample_count=count, n_repeaters=n, seed=seed, engine="oracle",
                         entangled_inputs_only=True)
    seen = []
    for indices, params, c_in, links in _random_links(config, n, chunk_size):
        expected_params, states = [], []
        for index in indices:
            sweep_module._restart(reference, seed, index)
            drawn, dense = zip(*(sample_state("general", reference, True, dense=False) for _ in range(n + 1)))
            expected_params.append(drawn)
            states.append(dense)
        expected = np.array([[state.matrix for state in column] for column in zip(*states)])
        assert links.shape == (n + 1, len(indices), 4, 4)
        assert np.array_equal(links, expected)
        assert c_in == [tuple(chain) for chain in concurrence(expected).T.tolist()]
        assert all(c > 0.0 for chain in c_in for c in chain)
        assert len(params) == len(indices) and all(len(chain) == n + 1 for chain in params)
        for chain, expected_chain in zip(params, expected_params):
            for form, expected_form in zip(chain, expected_chain):
                for name in ("r", "s", "T"):
                    value, expected_value = getattr(form, name), getattr(expected_form, name)
                    assert np.array_equal(value, expected_value) and value.shape == expected_value.shape
                    assert not value.flags.writeable
        if clamped in indices:
            # the scripted sample's links are its kept links, each one clamped by its check
            scripted = links[:, indices.index(clamped)]
            formed = [sweep_module._hilbert_schmidt(a + 1j * b) for a, b in zip(script[::2], script[1::2])]
            for link, m in zip(scripted, formed):
                assert np.array_equal(link, TwoQubitState(m).matrix)
                assert not np.array_equal(link, (m + m.conj().T) / 2.0)
                assert not np.array_equal(TwoQubitState(link).matrix, link)
        seen.extend(indices)
    assert seen == list(range(count))


@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_general_chunks_check_and_decompose_their_links_once(monkeypatch, entangled_inputs_only):
    # 10 samples in chunks of 8 // 2 cells = 4: every (n, chunk) of a general sweep, with or without
    # entangled_inputs_only, checks one stack of all its drawn links and Pauli-decomposes it by one
    # call; no link is decomposed alone
    monkeypatch.setattr(sweep_module, "CHUNK_SIZE", 8)
    checked, decomposed = [], []
    check, decompose = sweep_module._checked_general_links, sweep_module.pauli_decompose

    def counting_check(matrices):
        checked.append(matrices.shape)
        return check(matrices)

    def counting_decompose(state):
        decomposed.append(np.shape(getattr(state, "matrix", state)))
        return decompose(state)

    monkeypatch.setattr(sweep_module, "_checked_general_links", counting_check)
    monkeypatch.setattr(sweep_module, "pauli_decompose", counting_decompose)
    records, _ = run_sweep(SweepConfig(family="general", sample_count=10, n_repeaters=[1, 2], eta_spec=[0.8, 1.0],
                                       seed=23, entangled_inputs_only=entangled_inputs_only, engine="oracle"))
    assert len(records) == 2 * 2 * 10
    stacks = [(n + 1, size, 4, 4) for n in (1, 2) for size in (4, 4, 2)]
    assert checked == stacks
    assert decomposed == stacks


def test_a_failing_general_link_stack_raises_what_its_first_bad_link_raises_alone():
    # a general chunk's links are drawn chain by chain, link by link: that order, not the
    # stack's rows or its check of all links at once, decides which error a failing stack raises
    good = np.eye(4, dtype=complex) / 4
    not_hermitian, wrong_trace = good.copy(), 2 * good
    not_hermitian[0, 1] = 0.1
    stack = np.array([[good] * 3] * 2)
    stack[0, 2] = not_hermitian  # chain 2's first link: first in row order
    stack[1, 1] = wrong_trace  # chain 1's second link: first in draw order
    alone = _raised_error(lambda: TwoQubitState(wrong_trace))
    assert alone != _raised_error(lambda: TwoQubitState(not_hermitian))
    assert _raised_error(lambda: _checked_general_links(stack)) == alone
    assert np.array_equal(_checked_general_links(np.array([[good] * 3] * 2)), np.array([[good] * 3] * 2))


def _hilbert_schmidt_alone(g):
    """G G+ / Tr(G G+) of one G, by numpy's own product and trace."""
    m = g @ g.conj().T
    return m / m.trace().real


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_hilbert_schmidt_equals_the_product_over_its_trace(seed):
    # a single G and each member of an (n+1, N) stack get the bits of g @ g+ / trace, every
    # fifth G having two equal rows (rank-deficient); the trace is summed as (d0 + d1) + (d2 + d3)
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(4, 50, 2, 4, 4))
    normals[:, ::5, :, 1] = normals[:, ::5, :, 0]
    g = normals[:, :, 0] + 1j * normals[:, :, 1]
    stacked = sweep_module._hilbert_schmidt(g)
    assert stacked.shape == g.shape
    for k, j in np.ndindex(g.shape[:2]):
        expected = _hilbert_schmidt_alone(g[k, j])
        assert np.array_equal(stacked[k, j], expected)
        assert np.array_equal(sweep_module._hilbert_schmidt(g[k, j]), expected)
    # control: the same four diagonal terms summed in sequence, ((d0 + d1) + d2) + d3, differ on some draws
    differ = 0
    for member in g.reshape(-1, 4, 4):
        m = member @ member.conj().T
        d = m.real.diagonal()
        differ += not np.array_equal(m / (((d[0] + d[1]) + d[2]) + d[3]), _hilbert_schmidt_alone(member))
    assert differ > 0


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_random_sweeps_check_their_link_stack_once_per_chunk(monkeypatch, family, engine):
    # 20 samples in chunks of 8 on the closed forms and of 8 // 2 cells = 4 on the oracle: each
    # (n, chunk) checks one parameter stack of all its drawn links, the last chunk ending short
    monkeypatch.setattr(sweep_module, "CHUNK_SIZE", 8)
    checked = []
    check = sweep_module._checked_stack

    def counting(family, values):
        checked.append(values.shape[-2:])
        return check(family, values)

    monkeypatch.setattr(sweep_module, "_checked_stack", counting)
    records, _ = run_sweep(SweepConfig(family=family, sample_count=20, n_repeaters=[1, 2], eta_spec=[0.8, 1.0],
                                       seed=23, entangled_inputs_only=family == "bds", engine=engine))
    assert len(records) == 2 * 2 * 20
    chunks = [8, 8, 4] if engine == "closedform" else [4] * 5
    assert checked == [(n + 1, size) for n in (1, 2) for size in chunks]


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("entangled_inputs_only", [False, True])
def test_unchecked_draws_equal_the_reference_draws(family, entangled_inputs_only):
    # parameters compare equal to the checked ones of the uniform loop, and build the same dense link
    for seed, index in _STREAM_KEYS[::10]:
        rng, reference_rng = link_generator(seed, index), link_generator(seed, index)
        for _ in range(20):
            params, state = sample_state(family, rng, entangled_inputs_only)
            expected, expected_state = reference_sample_state(family, reference_rng, entangled_inputs_only)
            assert params == expected and hash(params) == hash(expected)
            assert np.array_equal(state.matrix, expected_state.matrix)


_GRID_CONFIGS = [
    dict(family=family, mode="grid", grid_steps=steps, n_repeaters=ns, entangled_inputs_only=entangled,
         engine=engine)
    for family, steps, ns in [("werner", 1, [1, 2]), ("werner", 6, [1, 3]), ("werner", 7, [1, 2]),
                              ("bds", 2, [1, 2]), ("bds", 6, [1, 2])]
    for entangled in (False, True)
    for engine in ("closedform", "oracle")
]


@pytest.mark.parametrize("config", _GRID_CONFIGS, ids=lambda c: "-".join(str(v) for v in c.values()))
def test_grid_chunk_stacks_are_their_records_links(config):
    # a stack gathered from the axis is the stack the chunk's own link tuples build, in chunks
    # of 7 and 64 that end inside a level and at its end
    config = SweepConfig(**config)
    lo, hi = config.n_repeaters
    for n in range(lo, hi + 1):
        for chunk_size in (7, 64):
            seen = 0
            for indices, params, c_in, links in sweep_module._grid_links(config, n, chunk_size):
                assert indices == range(seen, seen + len(params)) and 0 < len(params) <= chunk_size
                assert all(len(chain) == n + 1 for chain in params)
                expected = _link_stack(config.family, config.engine, params, None)
                if config.family == "bds" and config.engine == "closedform":
                    assert all(np.array_equal(a, b) for a, b in zip(links.as_tuple(), expected.as_tuple()))
                else:
                    assert links.shape == expected.shape and np.array_equal(links, expected)
                assert c_in == [sweep_module.input_concurrences(config.family, chain) for chain in params]
                seen += len(params)
            if config.family == "werner":
                # entangled_inputs_only drops the visibilities k / steps <= 1/3
                axis = config.grid_steps - (config.grid_steps // 3 if config.entangled_inputs_only else 0)
                assert seen == axis ** (n + 1)


@pytest.mark.parametrize("family", ["werner", "bds"])
@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_grid_sweeps_do_not_depend_on_chunk_size(monkeypatch, tmp_path, family, engine):
    # 16 chains a stack splits every level of these grids inside it
    config = SweepConfig(family=family, mode="grid", grid_steps=5 if family == "werner" else 4,
                         n_repeaters=[1, 3], eta_spec=[0.0, 0.85, 1.0], engine=engine)
    texts = []
    for chunk_size in (sweep_module.CHUNK_SIZE, 16):
        monkeypatch.setattr(sweep_module, "CHUNK_SIZE", chunk_size)
        records, summary = run_sweep(config)
        write_csv(records, tmp_path / "sweep.csv")
        texts.append(((tmp_path / "sweep.csv").read_text(encoding="utf-8"), summary))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("family, links_per_n, count", [("werner", 5, 2 * (5**2 + 5**3)), ("bds", 45, 2 * 2 * 45)])
def test_oracle_grids_build_each_axis_link_once(monkeypatch, family, links_per_n, count):
    # one dense link per axis value (a Bell-diagonal grid point) and chain length, whatever the records
    name = {"werner": "make_werner", "bds": "make_bell_diagonal"}[family]
    calls = [0]
    make = getattr(sweep_module, name)

    def counting_make(*args, **kwargs):
        calls[0] += 1
        return make(*args, **kwargs)

    monkeypatch.setattr(sweep_module, name, counting_make)
    steps = 5 if family == "werner" else 4
    records, _ = run_sweep(SweepConfig(family=family, mode="grid", grid_steps=steps, n_repeaters=[1, 2],
                                       eta_spec=[0.8, 1.0], engine="oracle"))
    assert len(records) == count
    assert calls[0] == 2 * links_per_n


@pytest.mark.parametrize("engine", ["closedform", "oracle"])
def test_random_werner_chunks_check_their_visibility_stack_once(monkeypatch, engine):
    # a chunk's c_in reads the stack _parameter_stack checked, on both engines;
    # no closed form or concurrence checks it, or any part of it, again
    calls = [0]
    for module in (sweep_module, measures_module, closedform_module):
        check = module.check_visibility

        def counting(p, check=check):
            calls[0] += isinstance(p, np.ndarray)
            return check(p)

        monkeypatch.setattr(module, "check_visibility", counting)
    # 16 chains a stack: 30 samples make 2 closedform chunks per n, or 4 oracle chunks of 8 samples in 2 cells
    monkeypatch.setattr(sweep_module, "CHUNK_SIZE", 16)
    records, _ = run_sweep(SweepConfig(family="werner", sample_count=30, n_repeaters=[1, 2], eta_spec=[0.8, 1.0],
                                       seed=5, engine=engine))
    assert len(records) == 2 * 2 * 30
    assert calls[0] == 2 * (2 if engine == "closedform" else 4)


@pytest.mark.parametrize("config", [
    # 2/6 == 1/3 exactly, so the grid's axis holds the separable boundary visibility
    dict(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 2]),
    dict(family="bds", mode="grid", grid_steps=4),
    dict(family="bds", sample_count=200, seed=3),
    dict(family="general", sample_count=100, seed=3, engine="oracle"),
], ids=["werner-grid", "bds-grid", "bds-random", "general-random"])
def test_entangled_inputs_only_keeps_only_entangled_links(config):
    records, _ = run_sweep(SweepConfig(entangled_inputs_only=True, **config))
    assert records
    assert all(r.c_in_min > 0 for r in records)


@pytest.mark.parametrize("family, count", [("werner", 1), ("bds", 4)])
def test_one_step_grids_run(family, count):
    # a werner axis of one visibility (1.0); the bds axis {-1, 1} keeps the tetrahedron's four vertices
    records, summary = run_sweep(SweepConfig(family=family, mode="grid", grid_steps=1))
    assert len(records) == summary["totals"]["samples"] == count
    assert {r.n for r in records} == {1}


def test_closedform_grid_zeros_share_one_float():
    config = SweepConfig(family="werner", mode="grid", grid_steps=6, n_repeaters=[1, 2], eta_spec=[0.8, 1.0])
    records, _ = run_sweep(config)
    zeros = [r.c_out for r in records if r.c_out == 0.0]
    assert len(zeros) > 100
    assert len({id(c) for c in zeros}) == 1
    assert math.copysign(1.0, zeros[0]) == 1.0


# every family on every engine it runs, random and grid, in three eta cells
_BLOCK_CONFIGS = [
    dict(family="werner", sample_count=23, n_repeaters=[1, 2], seed=7),
    dict(family="werner", sample_count=17, n_repeaters=[1, 2], seed=7, engine="oracle", swap_mode="povm"),
    dict(family="werner", mode="grid", grid_steps=3, n_repeaters=[1, 2]),
    dict(family="werner", mode="grid", grid_steps=3, n_repeaters=[1, 2], engine="oracle"),
    dict(family="bds", sample_count=23, n_repeaters=[1, 2], seed=7, entangled_inputs_only=True),
    dict(family="bds", sample_count=17, n_repeaters=[1, 2], seed=7, engine="oracle"),
    dict(family="bds", mode="grid", grid_steps=2, n_repeaters=[1, 2]),
    dict(family="bds", mode="grid", grid_steps=2, n_repeaters=[1, 2], engine="oracle", swap_mode="povm"),
    dict(family="general", sample_count=17, n_repeaters=[1, 2], seed=7, engine="oracle"),
    dict(family="general", sample_count=11, n_repeaters=[1, 2], seed=7, engine="oracle", swap_mode="povm",
         entangled_inputs_only=True),
]


def _block_config_id(config):
    return "-".join(str(config.get(key, "")) for key in ("family", "mode", "engine", "swap_mode"))


def _small_chunk_sweep(monkeypatch, config):
    """run_sweep of ``config`` in three eta cells, with chunks of 8 chains so that every cell crosses chunks."""
    monkeypatch.setattr(sweep_module, "CHUNK_SIZE", 8)
    return run_sweep(SweepConfig(eta_spec=[0.6, 0.85, 1.0], **config))


def test_a_sweep_and_its_csv_build_no_record(monkeypatch, tmp_path):
    built = [0]
    record_type = sweep_module.SweepRecord

    def counting(*args, **kwargs):
        built[0] += 1
        return record_type(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "SweepRecord", counting)
    records, summary = _small_chunk_sweep(monkeypatch, dict(family="werner", mode="grid", grid_steps=4,
                                                            n_repeaters=[1, 2]))
    write_csv(records, tmp_path / "sweep.csv")
    assert built[0] == 0
    assert len(records) == summary["totals"]["samples"] == 3 * (4**2 + 4**3)
    # control: reading the records builds each one through the patched name
    assert len(list(records)) == built[0] == len(records)


def test_sweep_records_are_a_sequence_built_when_read(monkeypatch):
    records, _ = _small_chunk_sweep(monkeypatch, dict(family="bds", sample_count=10, n_repeaters=[1, 2], seed=4))
    assert isinstance(records, sweep_module.SweepRecords)
    listed = list(records)
    count = len(listed)
    assert len(records) == count == 2 * 3 * 10
    assert all(type(r) is SweepRecord for r in listed)
    fields = [_record_fields(r) for r in listed]
    assert [_record_fields(records[k]) for k in range(count)] == fields
    assert [_record_fields(records[k - count]) for k in range(count)] == fields
    assert [_record_fields(r) for r in reversed(records)] == fields[::-1]
    for key in (slice(None), slice(3, 25), slice(-7, None), slice(None, None, -4), slice(59, 2, -9), slice(5, 5)):
        part = records[key]
        assert type(part) is list
        assert [_record_fields(r) for r in part] == fields[key]
    for key in (count, -count - 1):
        with pytest.raises(IndexError):
            records[key]
    with pytest.raises(TypeError):
        records["0"]
    # each read builds a new record, which shares its block's link and etas objects
    assert records[13] is not records[13]
    assert records[13].link_params is records[13].link_params and records[13].etas is records[13].etas
    # a sample's links serve every eta cell of its n; a cell's records share its etas tuple
    assert records[0].link_params is records[10].link_params is records[20].link_params
    assert records[0].etas is records[9].etas and records[0].etas is not records[10].etas
    for name in ("append", "sort", "extend", "insert"):
        assert not hasattr(records, name)
    with pytest.raises((AttributeError, TypeError)):
        del records[0]
    with pytest.raises(TypeError):
        records[0:2] = listed[0:2]


def test_an_assigned_record_is_what_is_read_and_written(monkeypatch, tmp_path):
    records, _ = _small_chunk_sweep(monkeypatch, dict(family="werner", sample_count=10, n_repeaters=[1, 2], seed=4))
    before = [_record_fields(r) for r in records]
    first, last = dataclasses.replace(records[0], c_out=0.125), dataclasses.replace(records[-1], f_out=0.75)
    records[0] = first
    records[-1] = last
    assert records[0] is first and records[len(records) - 1] is last and records[-1:] == [last]
    assert len(records) == len(before)
    assert [_record_fields(r) for r in records][1:-1] == before[1:-1]
    write_csv(records, tmp_path / "sweep.csv")
    assert _first_wrong_row(tmp_path / "sweep.csv", list(records)) is None
    rows = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[7] == "0.125" and rows[-1].split(",")[8] == "0.75"


@pytest.mark.parametrize("config", _BLOCK_CONFIGS, ids=_block_config_id)
def test_csv_of_record_blocks_equals_csv_of_their_records(monkeypatch, tmp_path, config):
    records, _ = _small_chunk_sweep(monkeypatch, config)
    write_csv(records, tmp_path / "blocks.csv")
    write_csv(list(records), tmp_path / "list.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
    assert _first_wrong_row(tmp_path / "blocks.csv", records) is None
    # an assigned record: the sequence is written from its records, and still agrees
    k = len(records) // 2
    records[k] = dataclasses.replace(records[k], c_out=records[k].c_out + 0.5, useful=not records[k].useful)
    write_csv(records, tmp_path / "assigned.csv")
    write_csv(list(records), tmp_path / "assigned-list.csv")
    assert (tmp_path / "assigned.csv").read_bytes() == (tmp_path / "assigned-list.csv").read_bytes()
    assert _first_wrong_row(tmp_path / "assigned.csv", records) is None
    assert (tmp_path / "assigned.csv").read_bytes() != (tmp_path / "blocks.csv").read_bytes()


@pytest.mark.parametrize("n_repeaters", [
    sys.maxsize + 1, [1, sys.maxsize + 1], [sys.maxsize + 1, sys.maxsize + 1], 10**400, [1, 10**400], [2, 10**5000],
], ids=["maxsize+1", "1-maxsize+1", "both-maxsize+1", "10**400", "1-10**400", "2-10**5000"])
def test_a_chain_longer_than_an_index_is_a_config_error(n_repeaters):
    # no such sweep is ever run: _plan must refuse it before it builds a cell
    config = SweepConfig(family="werner", sample_count=1, n_repeaters=n_repeaters)
    with pytest.raises(ConfigError, match="n_repeaters"):
        sweep_module._plan(config)


@pytest.mark.parametrize("mode, field", [("random", "sample_count"), ("grid", "grid_steps")])
@pytest.mark.parametrize("value", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "10**400"])
def test_a_count_beyond_an_index_is_a_config_error(mode, field, value):
    # such a sweep would draw or enumerate without end: _plan must refuse it before it builds a cell
    config = SweepConfig(family="werner", mode=mode, **{field: value})
    with pytest.raises(ConfigError, match=field):
        sweep_module._plan(config)
    # control: the largest count is planned (and never run)
    assert sweep_module._plan(dataclasses.replace(config, **{field: sys.maxsize})) == [(1, 1.0, (1.0,))]


@pytest.mark.parametrize("field, value", [("seed", 10**5000), ("eta_spec", [0.5, 10**5000]),
                                          ("n_repeaters", 10**5000)], ids=["seed", "eta_spec", "n_repeaters"])
def test_an_int_too_long_to_print_is_still_a_config_error(field, value):
    # repr of an int beyond Python's digit limit raises ValueError; the error message must not
    config = SweepConfig(family="werner", sample_count=1, **{field: value})
    with pytest.raises(ConfigError, match=field):
        sweep_module._plan(config)
