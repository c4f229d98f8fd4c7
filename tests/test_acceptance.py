"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time

import numpy as np

from entswap import (
    BdsChainQuery,
    ChainSpec,
    NoiseModel,
    SweepConfig,
    TwoQubitState,
    WernerChainQuery,
    bds_chain_concurrence,
    bds_final_correlations,
    chain_swap,
    concurrence,
    make_bell_diagonal,
    make_werner,
    max_entangled_swaps,
    octahedron_separable,
    pauli_decompose,
    run_sweep,
    subset_sum_normalization,
    swap_once,
    teleportation_fidelity,
    werner_chain_concurrence,
    write_csv,
    write_summary_json,
)
from helpers import (
    different_eta_werner_concurrence,
    ginibre_matrix,
    perfect_werner_concurrence,
    random_tetrahedron_point,
    same_eta_werner_concurrence,
)


def _passed(line):
    print(f"PASS: {line}")


def test_criterion_01_single_swap_werner_closed_form():
    rng = np.random.default_rng(1001)
    # CPU time of this thread: neither other load on the machine nor BLAS
    # helper threads spinning beside it count
    start = time.thread_time()
    worst_c = worst_f = 0.0
    for _ in range(10_000):
        p1, p2 = rng.uniform(0, 1, size=2)
        eta = rng.uniform(0, 1)
        out = swap_once(make_werner(p1), make_werner(p2), eta)
        c_expected = max(0.0, (eta * (3 * p1 * p2 - 1) - 4 * (1 - eta)) / (2 * (4 - 3 * eta)))
        f_expected = (1 + eta * p1 * p2 / (4 - 3 * eta)) / 2
        worst_c = max(worst_c, abs(concurrence(out) - c_expected))
        worst_f = max(worst_f, abs(teleportation_fidelity(out) - f_expected))
    elapsed = time.thread_time() - start
    assert worst_c <= 1e-9
    assert worst_f <= 1e-9
    assert elapsed <= 10.0
    _passed(
        f"criterion 1 single-swap closed form: max |dC| {worst_c:.2e}, "
        f"max |dF| {worst_f:.2e}, {elapsed:.1f}s for 10^4 samples"
    )


def test_criterion_02_thresholds_exact():
    at_threshold = werner_chain_concurrence(
        WernerChainQuery((1.0, 1.0), NoiseModel((2.0 / 3.0,)))
    )
    above = werner_chain_concurrence(
        WernerChainQuery((1.0, 1.0), NoiseModel((2.0 / 3.0 + 1e-6,)))
    )
    assert at_threshold <= 1e-12
    assert above > 0.0

    config = SweepConfig(
        family="werner", mode="grid", grid_steps=100, n_repeaters=1,
        eta_spec=1.0, seed=0, engine="closedform",
    )
    records, _ = run_sweep(config)
    assert len(records) == 10_000
    for record in records:
        p1, p2 = (p.p for p in record.link_params)
        assert record.entangled == (p1 * p2 > 1.0 / 3.0)
    _passed(
        "criterion 2 thresholds: C(1,1,2/3) = "
        f"{at_threshold:.2e}, entangled iff p1 p2 > 1/3 on the 100x100 grid"
    )


def test_criterion_03_swap_count_table():
    assert max_entangled_swaps(0.85, 1.0) == 2
    assert max_entangled_swaps(0.99, 1.0) == 27
    assert max_entangled_swaps(0.7, 1.0) == 1
    _passed("criterion 3 swap-count table: n_max(0.85)=2, n_max(0.99)=27, n_max(0.7)=1")


def test_criterion_04_normalization_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        etas = rng.uniform(0, 1, size=n)
        direct = 1.0
        for eta in etas:
            direct *= 4.0 - 3.0 * eta
        # tolerance reads on the identity itself, i.e. relative to its size
        deviation = abs(direct - subset_sum_normalization(etas)) / max(1.0, abs(direct))
        worst = max(worst, deviation)
    assert worst <= 1e-12
    _passed(f"criterion 4 normalization identity: max relative deviation {worst:.2e}")


def bell_basis_weights(t):
    t1, t2, t3 = t
    return (
        (1 - t1 - t2 - t3) / 4,
        (1 - t1 + t2 + t3) / 4,
        (1 + t1 - t2 + t3) / 4,
        (1 + t1 + t2 - t3) / 4,
    )


def test_criterion_05_bds_closure_and_sign():
    rng = np.random.default_rng(1005)
    worst_corr = worst_conc = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        ts = [random_tetrahedron_point(rng) for _ in range(n + 1)]
        etas = tuple(rng.uniform(0, 1, size=n))
        links = tuple(make_bell_diagonal(t) for t in ts)
        final = chain_swap(ChainSpec(links, NoiseModel(etas)))
        bloch = pauli_decompose(final)

        query = BdsChainQuery(tuple(ts), NoiseModel(etas))
        expected = np.diag(bds_final_correlations(query).as_tuple())
        off_family = max(
            np.abs(bloch.r).max(), np.abs(bloch.s).max(), np.abs(bloch.T - expected).max()
        )
        worst_corr = max(worst_corr, off_family)

        link_cs = [max(0.0, 2.0 * max(bell_basis_weights(t)) - 1.0) for t in ts]
        if min(link_cs) > 0:
            lam = sorted(bds_final_correlations(query).eigenvalues(), reverse=True)
            lambda_form = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            worst_conc = max(worst_conc, abs(concurrence(final) - lambda_form))
            worst_conc = max(worst_conc, abs(concurrence(final) - bds_chain_concurrence(query)))
    assert worst_corr <= 1e-9
    assert worst_conc <= 1e-9
    _passed(
        f"criterion 5 bds closure and sign: max correlation deviation {worst_corr:.2e}, "
        f"max concurrence deviation {worst_conc:.2e}"
    )


def test_criterion_06_octahedron_criterion():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        t = random_tetrahedron_point(rng)
        weight = abs(t[0]) + abs(t[1]) + abs(t[2])
        if abs(weight - 1.0) <= 1e-10:
            continue  # boundary slack
        wootters = concurrence(make_bell_diagonal(t))
        assert (wootters <= 1e-10) == octahedron_separable(t)
    _passed("criterion 6 octahedron criterion: zero concurrence iff |t|_1 <= 1 on 10^3 states")


def test_criterion_07_fidelity_definition():
    rng = np.random.default_rng(1007)
    for _ in range(10_000):
        f = teleportation_fidelity(TwoQubitState(ginibre_matrix(rng)))
        assert 0.5 - 1e-12 <= f <= 1.0 + 1e-12

    for p in np.linspace(0.0, 1.0, 101):
        assert abs(teleportation_fidelity(make_werner(p)) - (1 + p) / 2) <= 1e-12

    worst = 0.0
    for _ in range(1000):
        p1, p2 = rng.uniform(0, 1, size=2)
        result = swap_once(make_werner(p1), make_werner(p2), 1.0)
        worst = max(worst, abs(teleportation_fidelity(result) - (1 + p1 * p2) / 2))
    assert worst <= 1e-9
    _passed(
        "criterion 7 fidelity definition: range ok on 10^4 states, Werner grid exact, "
        f"single-swap max deviation {worst:.2e}"
    )


def test_criterion_08_reduction_notes():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        p = rng.uniform(1 / 3, 1)
        eta = rng.uniform(0, 1)
        ps = rng.uniform(1 / 3, 1, size=n + 1)

        # different-eta display with equal etas -> same-eta display
        worst = max(
            worst,
            abs(
                different_eta_werner_concurrence((p,) * (n + 1), (eta,) * n)
                - same_eta_werner_concurrence(p, eta, n)
            ),
        )
        # same-eta display at eta = 1 -> perfect chain
        worst = max(
            worst,
            abs(same_eta_werner_concurrence(p, 1.0, n) - perfect_werner_concurrence((p,) * (n + 1))),
        )
        # different-p with eta = 1 -> perfect chain of different links
        worst = max(
            worst,
            abs(
                different_eta_werner_concurrence(tuple(ps), (1.0,) * n)
                - perfect_werner_concurrence(tuple(ps))
            ),
        )
        # implemented product form agrees with every display form
        worst = max(
            worst,
            abs(
                werner_chain_concurrence(WernerChainQuery(tuple(ps), NoiseModel((eta,) * n)))
                - different_eta_werner_concurrence(tuple(ps), (eta,) * n)
            ),
        )
    assert worst <= 1e-12
    _passed(f"criterion 8 reduction notes: max deviation across reductions {worst:.2e}")


def test_criterion_09_general_mixed_eta_sweep():
    from entswap.sweep import ETA_GRID_DEFAULT

    eta_grid = list(ETA_GRID_DEFAULT)
    config = SweepConfig(
        family="general", mode="random", sample_count=10_000, n_repeaters=1,
        eta_spec=eta_grid, seed=1009, engine="oracle", swap_mode="paper",
    )
    _, summary = run_sweep(config)
    fractions = {}
    for cell in summary["cells"]:
        fractions[cell["eta"]] = cell["entangled"] / cell["samples"]
        if cell["eta"] <= 0.6:
            assert cell["entangled"] == 0
    for low, high in zip(eta_grid, eta_grid[1:]):
        assert fractions[low] <= fractions[high]

    config_n = SweepConfig(
        family="general", mode="random", sample_count=1000, n_repeaters=[1, 3],
        eta_spec=0.9, seed=1010, engine="oracle", swap_mode="paper",
    )
    _, summary_n = run_sweep(config_n)
    by_n = {cell["n"]: cell["entangled"] / cell["samples"] for cell in summary_n["cells"]}
    assert by_n[1] >= by_n[2] >= by_n[3]
    _passed(
        "criterion 9 general-mixed sweep: zero entangled for eta <= 0.6, fraction "
        f"monotone in eta (up to {fractions[1.0]:.3f} at eta=1) and in n"
    )


def test_criterion_09_entangled_fraction_strictly_decreases_in_n():
    # The sweep's n half above holds as 0 >= 0 >= 0 on its Ginibre links.
    # Near-Bell links keep some chains entangled at n = 2 but none at n = 3,
    # so a strict decrease with a middle value inside (0, 1) can fail.
    from entswap import bell_state, report

    rng = np.random.default_rng(1010)
    phi_plus = bell_state("phi+").matrix
    fractions = []
    for n in (1, 2, 3):
        entangled = 0
        for _ in range(300):
            links = tuple(TwoQubitState(0.9 * phi_plus + 0.1 * ginibre_matrix(rng)) for _ in range(n + 1))
            entangled += report(chain_swap(ChainSpec(links, NoiseModel((0.9,) * n)))).entangled
        fractions.append(entangled / 300)
    assert fractions[0] > fractions[1] > fractions[2]
    assert 0.0 < fractions[1] < 1.0
    _passed(
        "criterion 9 n half: entangled fractions "
        + ", ".join(f"{f:.2f}" for f in fractions)
        + " for n = 1, 2, 3 near-Bell chains at eta = 0.9"
    )


def test_criterion_09_companion_paper_mode_separable_at_or_below_two_thirds():
    # Paper mode outputs f rho' + (1 - f) I/4 with f = eta/(4 - 3 eta), whose
    # purity is at most (3 f^2 + 1)/4.  For eta <= 2/3, f <= 1/3 and the
    # purity is at most 1/3, so the output is separable (Zyczkowski et al.,
    # PRA 58, 883, 1998).  Near-Bell general links put that bound to work.
    from entswap import bell_state

    rng = np.random.default_rng(883)
    phi_plus = bell_state("phi+").matrix
    worst = 0.0
    for eta in (0.0, 0.3, 0.6, 2.0 / 3.0):
        for _ in range(200):
            left, right = (TwoQubitState(0.9 * phi_plus + 0.1 * ginibre_matrix(rng)) for _ in range(2))
            out = swap_once(left, right, eta).matrix
            purity = float(np.trace(out @ out).real)
            worst = max(worst, purity)
            assert purity <= 1.0 / 3.0 + 1e-12
            assert concurrence(out) <= 1e-12
    # positive control: just above 2/3 the same swap keeps entanglement
    control = concurrence(swap_once(bell_state("phi+"), bell_state("phi+"), 0.7))
    assert control > 0.05
    _passed(
        f"criterion 9 companion: near-Bell purity <= {worst:.4f} and C = 0 for eta <= 2/3; "
        f"C = {control:.4f} at eta = 0.7"
    )


def test_criterion_10_sweep_determinism(tmp_path):
    config = SweepConfig(
        family="bds", mode="random", sample_count=200, n_repeaters=[1, 2],
        eta_spec=[0.8, 1.0], seed=1010, engine="oracle",
    )
    paths = []
    for tag in ("a", "b"):
        records, summary = run_sweep(config)
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        write_csv(records, csv_path)
        write_summary_json(summary, json_path)
        paths.append((csv_path, json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    _passed("criterion 10 determinism: repeated sweep runs are byte-identical")
