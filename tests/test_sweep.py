import csv
import json

import numpy as np
import pytest

from entswap import (
    CSV_HEADER,
    ChainSpec,
    ConfigError,
    EntswapError,
    NoiseModel,
    SweepConfig,
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
from entswap import sweep as sweep_module
from entswap.measures import flags
from entswap.sweep import _inside_tetrahedron, evaluate_chain


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
