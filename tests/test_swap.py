import numpy as np
import pytest

from entswap import (
    ChainSpec,
    ChainSwapError,
    DomainError,
    InvalidStateError,
    NoiseModel,
    OUTCOME_LABELS,
    TwoQubitState,
    bell_state,
    chain_swap,
    concurrence,
    make_bell_diagonal,
    make_werner,
    noisy_bell_measurement_ops,
    pauli_decompose,
    swap_once,
    swap_once_perfect,
    swap_once_povm,
)
from helpers import ginibre_matrix, random_tetrahedron_point


def random_state(rng):
    return TwoQubitState(ginibre_matrix(rng))


def test_noisy_ops_perfect_limit():
    ops = noisy_bell_measurement_ops(1.0)
    for k, op in enumerate(ops):
        assert np.abs(op @ op - op).max() < 1e-12  # rank-1 projector
        for j in range(k + 1, 4):
            assert np.abs(op @ ops[j]).max() < 1e-12


def test_noisy_ops_pure_noise_limit():
    for op in noisy_bell_measurement_ops(0.0):
        assert np.abs(op - np.eye(4) / 4).max() < 1e-15


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 0.77, 1.0])
def test_noisy_ops_complete(eta):
    total = sum(noisy_bell_measurement_ops(eta))
    assert np.abs(total - np.eye(4)).max() < 1e-14
    for op in noisy_bell_measurement_ops(eta):
        assert np.linalg.eigvalsh(op).min() > -1e-14


def test_noisy_ops_domain():
    with pytest.raises(DomainError):
        noisy_bell_measurement_ops(1.5)


def test_perfect_swap_of_singlets():
    result = swap_once_perfect(bell_state("psi-"), bell_state("psi-"))
    for outcome in result.per_outcome:
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
        assert not outcome.negligible
        assert concurrence(outcome.state) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(result.averaged) == pytest.approx(1.0, abs=1e-10)
    assert result.paper_convention is result.averaged


def test_perfect_swap_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        result = swap_once_perfect(random_state(rng), random_state(rng))
        total = sum(o.probability for o in result.per_outcome)
        assert abs(total - 1.0) < 1e-12


def test_perfect_swap_werner_family():
    rng = np.random.default_rng(32)
    for _ in range(20):
        p1, p2 = rng.uniform(0, 1, size=2)
        result = swap_once_perfect(make_werner(p1), make_werner(p2))
        bloch = pauli_decompose(result.averaged)
        q = p1 * p2
        # one swap leaves the singlet family twisted into the (q, -q, q) sector
        assert np.abs(bloch.T - np.diag([q, -q, q])).max() < 1e-10
        assert np.abs(bloch.r).max() < 1e-10
        assert np.abs(bloch.s).max() < 1e-10
        expected = max(0.0, (3 * q - 1) / 2)
        assert concurrence(result.averaged) == pytest.approx(expected, abs=1e-10)


def test_perfect_swap_bds_correlation_products():
    rng = np.random.default_rng(33)
    for _ in range(50):
        t = random_tetrahedron_point(rng)
        u = random_tetrahedron_point(rng)
        result = swap_once_perfect(make_bell_diagonal(t), make_bell_diagonal(u))
        bloch = pauli_decompose(result.averaged)
        expected = np.diag([t[0] * u[0], -t[1] * u[1], t[2] * u[2]])
        assert np.abs(bloch.T - expected).max() < 1e-10


def test_perfect_swap_family_outcomes_coincide():
    rng = np.random.default_rng(34)
    for _ in range(20):
        t = random_tetrahedron_point(rng)
        u = random_tetrahedron_point(rng)
        result = swap_once_perfect(make_bell_diagonal(t), make_bell_diagonal(u))
        reference = result.per_outcome[0].state.matrix
        for outcome in result.per_outcome[1:]:
            assert np.abs(outcome.state.matrix - reference).max() < 1e-10


def test_perfect_swap_flags_negligible_outcomes():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    product = TwoQubitState(ket00)
    result = swap_once_perfect(product, product)
    by_label = {o.label: o for o in result.per_outcome}
    for label in ("phi+", "phi-"):
        assert by_label[label].probability == pytest.approx(0.5, abs=1e-12)
        assert not by_label[label].negligible
    for label in ("psi+", "psi-"):
        assert by_label[label].probability < 1e-14
        assert by_label[label].negligible
        assert by_label[label].state is None
    assert abs(np.trace(result.averaged.matrix) - 1.0) < 1e-12


def test_swap_once_limits():
    rng = np.random.default_rng(35)
    left, right = random_state(rng), random_state(rng)
    perfect = swap_once_perfect(left, right).averaged
    assert np.abs(swap_once(left, right, 1.0).matrix - perfect.matrix).max() < 1e-12
    assert np.abs(swap_once(left, right, 0.0).matrix - np.eye(4) / 4).max() < 1e-12


def test_swap_once_eta_threshold():
    out = swap_once(make_werner(1.0), make_werner(1.0), 2.0 / 3.0)
    assert concurrence(out) <= 1e-12
    out = swap_once(make_werner(1.0), make_werner(1.0), 2.0 / 3.0 + 1e-6)
    assert concurrence(out) > 0.0


def test_swap_once_outputs_are_valid_states():
    from entswap import validate

    rng = np.random.default_rng(36)
    for _ in range(50):
        out = swap_once(random_state(rng), random_state(rng), rng.uniform())
        diag = validate(out)
        assert diag.hermiticity_defect <= 1e-12
        assert diag.trace_defect <= 1e-12
        assert diag.min_eigenvalue >= -1e-10


def test_swap_once_povm_limits_and_werner():
    rng = np.random.default_rng(37)
    left, right = random_state(rng), random_state(rng)
    perfect = swap_once_perfect(left, right).averaged
    assert np.abs(swap_once_povm(left, right, 1.0).matrix - perfect.matrix).max() < 1e-12

    # maximally mixed marginals reduce the eta = 0 output to pure noise
    assert np.abs(swap_once_povm(make_werner(0.85), make_werner(0.3), 0.0).matrix - np.eye(4) / 4).max() < 1e-12

    p1, p2, eta = 0.9, 0.8, 0.7
    out = swap_once_povm(make_werner(p1), make_werner(p2), eta)
    q = eta * p1 * p2
    bloch = pauli_decompose(out)
    assert np.abs(bloch.T - np.diag([q, -q, q])).max() < 1e-10
    assert concurrence(out) == pytest.approx(max(0.0, (3 * q - 1) / 2), abs=1e-10)


def test_swap_once_povm_matches_definition_for_general_states():
    # brute-force route: rho_out ~ sum_k corr_k(Tr_23[(I x M_k x I)(L x R)])
    from entswap import noisy_bell_measurement_ops
    from entswap.states import PAULI, _ptrace_mid

    rng = np.random.default_rng(42)
    i2 = np.eye(2, dtype=complex)
    corr_by_label = {"phi+": PAULI[0], "psi+": PAULI[1], "psi-": PAULI[2], "phi-": PAULI[3]}
    for eta in (0.0, 0.35, 0.9):
        left, right = random_state(rng), random_state(rng)
        joint = np.kron(left.matrix, right.matrix)
        acc = np.zeros((4, 4), dtype=complex)
        for label, op in zip(OUTCOME_LABELS, noisy_bell_measurement_ops(eta)):
            mid = np.kron(np.kron(i2, op), i2)
            corr = np.kron(i2, corr_by_label[label])
            acc += corr @ _ptrace_mid(mid @ joint) @ corr
        expected = acc / acc.trace().real
        assert np.abs(swap_once_povm(left, right, eta).matrix - expected).max() < 1e-12


def test_perfect_average_and_povm_noise_match_definition_for_general_states():
    # brute-force route: rho_out = sum_o corr_o Tr_23[(I x P_o x I)(L x R)] corr_o
    from entswap.states import PAULI, _ptrace_mid

    rng = np.random.default_rng(45)
    i2 = np.eye(2, dtype=complex)
    corr_by_label = {"phi+": PAULI[0], "psi+": PAULI[1], "psi-": PAULI[2], "phi-": PAULI[3]}
    zero_zero = TwoQubitState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    pairs = [(random_state(rng), random_state(rng)) for _ in range(10)]
    pairs.append((zero_zero, zero_zero))
    for left, right in pairs:
        joint = np.kron(left.matrix, right.matrix)
        expected = np.zeros((4, 4), dtype=complex)
        for label in OUTCOME_LABELS:
            projector = bell_state(label).matrix
            mid = np.kron(np.kron(i2, projector), i2)
            corr = np.kron(i2, corr_by_label[label])
            expected += corr @ _ptrace_mid(mid @ joint) @ corr
        assert np.abs(swap_once_perfect(left, right).averaged.matrix - expected).max() < 1e-12

        # eta = 0 leaves only noise: the left outer marginal next to a fully mixed qubit
        left_marginal = np.trace(left.matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        noise = np.kron(left_marginal, i2 / 2)
        assert np.abs(swap_once_povm(left, right, 0.0).matrix - noise).max() < 1e-12

    # |00> (x) |00> never yields a psi outcome: those two are flagged and dropped
    result = swap_once_perfect(zero_zero, zero_zero)
    negligible = {o.label: o.negligible for o in result.per_outcome}
    assert negligible == {"phi+": False, "phi-": False, "psi+": True, "psi-": True}
    assert all(o.state is None for o in result.per_outcome if o.negligible)


def test_perfect_swap_outcomes_match_definition_for_general_states():
    # brute-force route per outcome: p_o = Tr X_o and corr_o X_o corr_o / p_o,
    # X_o = Tr_23[(I x P_o x I)(L x R)], on links of every rank
    from entswap.states import PAULI, _ptrace_mid

    rng = np.random.default_rng(46)
    i2 = np.eye(2, dtype=complex)
    corr_by_label = {"phi+": PAULI[0], "psi+": PAULI[1], "psi-": PAULI[2], "phi-": PAULI[3]}
    zero_zero = TwoQubitState(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    pairs = [
        (TwoQubitState(ginibre_matrix(rng, r1)), TwoQubitState(ginibre_matrix(rng, r2)))
        for r1 in (1, 2, 3, 4)
        for r2 in (1, 2, 3, 4)
    ]
    pairs.append((zero_zero, zero_zero))
    for left, right in pairs:
        joint = np.kron(left.matrix, right.matrix)
        result = swap_once_perfect(left, right)
        assert [o.label for o in result.per_outcome] == list(OUTCOME_LABELS)
        for outcome in result.per_outcome:
            mid = np.kron(np.kron(i2, bell_state(outcome.label).matrix), i2)
            corr = np.kron(i2, corr_by_label[outcome.label])
            conditional = corr @ _ptrace_mid(mid @ joint) @ corr
            probability = conditional.trace().real
            assert abs(outcome.probability - probability) < 1e-12
            assert outcome.negligible == (probability < 1e-14)
            if not outcome.negligible:
                assert np.abs(outcome.state.matrix - conditional / probability).max() < 1e-12
    assert sum(o.negligible for o in result.per_outcome) == 2


def test_swap_tables_are_the_16x16_definition_exactly():
    # every matrix-unit pair through the 16x16 route: corr Tr_23[(I x M_o x I)(E_u x E_v)] corr,
    # with M_o the operators at eta = 1 and eta = 0; every entry is dyadic, so both routes are exact
    from entswap import partial_trace_mid
    from entswap.states import PAULI
    from entswap.swap import _PROJECTORS, _STEP_TABLE, _corrected_conditionals

    i2 = np.eye(2, dtype=complex)
    corr_by_label = {"phi+": PAULI[0], "psi+": PAULI[1], "psi-": PAULI[2], "phi-": PAULI[3]}
    corrs = [np.kron(i2, corr_by_label[label]) for label in OUTCOME_LABELS]
    mids = {
        eta: [np.kron(np.kron(i2, op), i2) for op in noisy_bell_measurement_ops(eta)]
        for eta in (1.0, 0.0)
    }
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    outcomes = np.empty((16, 16, 4, 4, 4), dtype=complex)
    step = np.empty((16, 16, 2, 4, 4), dtype=complex)
    for u in range(16):
        for v in range(16):
            joint = np.kron(units[u], units[v])
            for part, eta in enumerate((1.0, 0.0)):
                conditionals = [
                    corr @ partial_trace_mid(mid @ joint) @ corr for mid, corr in zip(mids[eta], corrs)
                ]
                if eta == 1.0:
                    outcomes[u, v] = conditionals
                step[u, v, part] = sum(conditionals)
    assert np.array_equal(_corrected_conditionals(_PROJECTORS, units[:, None], units[None, :]), outcomes)
    assert np.array_equal(_STEP_TABLE.reshape(step.shape), step)


def test_step_table_maps_every_pair_of_pauli_products_exactly():
    # the step is bilinear in (L, R), so its value on the 256 ordered pairs of Pauli products
    # (sigma_a x sigma_b, sigma_c x sigma_d) fixes it on every pair of links.  Read back as
    # Theta_ij = Tr(rho sigma_i x sigma_j), part 0 is Theta_L diag(Theta_R00, Theta_R11, -Theta_R22,
    # Theta_R33) and part 1 is column 0 of Theta_L times Theta_R00; every entry on both sides is
    # dyadic, so the equality is exact on any BLAS kernel
    from entswap.states import _PAIR
    from entswap.swap import _STEP_TABLE, _bilinear

    products = _PAIR.reshape(16, 4, 4)
    left = np.broadcast_to(products[:, None], (16, 16, 4, 4))
    right = np.broadcast_to(products[None, :], (16, 16, 4, 4))
    parts = _bilinear(_STEP_TABLE, left, right)

    def frame(m):
        return np.einsum("ijab,...ba->...ij", _PAIR, m)

    theta_l, theta_r = frame(left), frame(right)
    r00 = theta_r[..., 0, 0, None, None]
    perfect = theta_l * (np.diagonal(theta_r, axis1=-2, axis2=-1) * [1, 1, -1, 1])[..., None, :]
    noise = np.zeros_like(theta_l)
    noise[..., 0] = theta_l[..., 0]
    assert np.array_equal(frame(parts[..., 0, :, :]), perfect)
    assert np.array_equal(frame(parts[..., 1, :, :]), noise * r00)


@pytest.mark.parametrize("mode", ["paper", "povm"])
def test_chain_rejects_unvalidated_bare_link(mode):
    # a trace-2 array must not pass as a link, however the chain is read
    bad = 2.0 * make_werner(0.9).matrix
    with pytest.raises(InvalidStateError, match="trace 2"):
        chain_swap(ChainSpec((bad, make_werner(0.9)), NoiseModel((0.9,))), mode=mode)
    with pytest.raises(InvalidStateError, match="trace 2"):
        chain_swap(ChainSpec((make_werner(0.9), bad), NoiseModel((0.9,))), mode=mode)


def test_swap_once_perfect_rejects_unvalidated_bare_array():
    # a trace-2 array used to yield four outcomes of probability 0.5 each
    bad = 2.0 * make_werner(0.9).matrix
    with pytest.raises(InvalidStateError, match="trace 2"):
        swap_once_perfect(bad, make_werner(0.9))
    with pytest.raises(InvalidStateError, match="trace 2"):
        swap_once_perfect(make_werner(0.9), bad)
    # a valid bare array is accepted, as the same state
    expected = swap_once_perfect(make_werner(0.9), make_werner(0.8)).averaged.matrix
    result = swap_once_perfect(make_werner(0.9).matrix, make_werner(0.8).matrix).averaged.matrix
    assert np.array_equal(result, expected)


@pytest.mark.parametrize("mode", ["paper", "povm"])
def test_werner_family_closure_both_conventions(mode):
    rng = np.random.default_rng(44)
    swap = swap_once if mode == "paper" else swap_once_povm
    for _ in range(20):
        p1, p2 = rng.uniform(0, 1, size=2)
        eta = rng.uniform(0, 1)
        bloch = pauli_decompose(swap(make_werner(p1), make_werner(p2), eta))
        q = eta * p1 * p2 / (4 - 3 * eta) if mode == "paper" else eta * p1 * p2
        assert np.abs(bloch.r).max() < 1e-10
        assert np.abs(bloch.s).max() < 1e-10
        assert np.abs(bloch.T - np.diag([q, -q, q])).max() < 1e-10


def test_modes_agree_at_perfect_measurement():
    rng = np.random.default_rng(38)
    for _ in range(25):
        left, right = random_state(rng), random_state(rng)
        paper = swap_once(left, right, 1.0).matrix
        povm = swap_once_povm(left, right, 1.0).matrix
        assert np.abs(paper - povm).max() < 1e-12


def test_chain_single_node_matches_swap_once():
    rng = np.random.default_rng(39)
    left, right, eta = random_state(rng), random_state(rng), 0.83
    spec = ChainSpec((left, right), NoiseModel((eta,)))
    assert np.abs(chain_swap(spec).matrix - swap_once(left, right, eta).matrix).max() < 1e-12
    assert (
        np.abs(chain_swap(spec, mode="povm").matrix - swap_once_povm(left, right, eta).matrix).max()
        < 1e-12
    )


def test_chain_spec_counts_its_repeaters():
    links = tuple(make_werner(0.9) for _ in range(4))
    assert ChainSpec(links, NoiseModel((0.9, 1.0, 0.8))).n_repeaters == 3


def test_chain_werner_perfect_two_nodes():
    links = tuple(make_werner(0.9) for _ in range(3))
    out = chain_swap(ChainSpec(links, NoiseModel((1.0, 1.0))))
    assert concurrence(out) == pytest.approx((3 * 0.9**3 - 1) / 2, abs=1e-10)


def test_chain_three_perfect_links_eta_09_loses_entanglement():
    # 3 eta^3 = 2.187 falls below (4 - 3 eta)^3 = 2.197 at the third swap
    links = tuple(make_werner(1.0) for _ in range(4))
    out = chain_swap(ChainSpec(links, NoiseModel((0.9, 0.9, 0.9))))
    assert concurrence(out) == 0.0


def test_chain_bds_closure_and_alternating_sign():
    rng = np.random.default_rng(40)
    for n in (1, 2, 3, 4):
        ts = [random_tetrahedron_point(rng) for _ in range(n + 1)]
        links = tuple(make_bell_diagonal(t) for t in ts)
        out = chain_swap(ChainSpec(links, NoiseModel((1.0,) * n)))
        bloch = pauli_decompose(out)
        expected = np.diag(
            [
                np.prod([t[0] for t in ts]),
                (-1.0) ** n * np.prod([t[1] for t in ts]),
                np.prod([t[2] for t in ts]),
            ]
        )
        assert np.abs(bloch.r).max() < 1e-10
        assert np.abs(bloch.s).max() < 1e-10
        assert np.abs(bloch.T - expected).max() < 1e-10


def test_family_fold_is_associative():
    rng = np.random.default_rng(41)
    for _ in range(10):
        states = [make_bell_diagonal(random_tetrahedron_point(rng)) for _ in range(3)]
        ea, eb = rng.uniform(0.3, 1.0, size=2)
        left_first = swap_once(swap_once(states[0], states[1], ea), states[2], eb)
        right_first = swap_once(states[0], swap_once(states[1], states[2], eb), ea)
        assert np.abs(left_first.matrix - right_first.matrix).max() < 1e-10


def test_chain_spec_validation():
    link = make_werner(0.9)
    with pytest.raises(DomainError):
        ChainSpec((link,), NoiseModel(()))
    with pytest.raises(DomainError):
        ChainSpec((link, link), NoiseModel((0.5, 0.5)))
    with pytest.raises(DomainError):
        NoiseModel((1.2,))
    with pytest.raises(DomainError):
        chain_swap(ChainSpec((link, link), NoiseModel((1.0,))), mode="magic")


@pytest.mark.parametrize("build", [
    lambda: NoiseModel(("x",)),
    lambda: NoiseModel((None,)),
    lambda: NoiseModel((0.9, np.array([0.5, 0.6]))),
    lambda: NoiseModel(0.9),
    lambda: swap_once(make_werner(0.9), make_werner(0.9), "x"),
    lambda: noisy_bell_measurement_ops(None),
], ids=["string", "none", "array", "not-a-sequence", "swap-once-string", "ops-none"])
def test_success_probabilities_refuse_non_numbers(build):
    with pytest.raises(DomainError):
        build()


def test_chain_and_queries_check_any_sequence_of_etas_as_a_noise_model():
    # ChainSpec reads plain etas as both closed-form queries do; a non-sequence is a DomainError
    from entswap import BdsChainQuery, WernerChainQuery

    link = make_werner(0.9)
    builds = (
        lambda etas: ChainSpec((link, link), etas).noise,
        lambda etas: WernerChainQuery((0.9, 0.9), etas).etas,
        lambda etas: BdsChainQuery(((1.0, -1.0, 1.0),) * 2, etas).etas,
    )
    for build in builds:
        assert build((0.9,)) == build([0.9]) == build(np.array([0.9])) == NoiseModel((0.9,))
        with pytest.raises(DomainError, match="sequence"):
            build(0.9)
    spec = ChainSpec((link, link), (0.9,))
    assert np.array_equal(chain_swap(spec).matrix, swap_once(link, link, 0.9).matrix)


def test_link_count_rule_is_shared():
    # the chain and both closed-form queries raise the one NoiseModel message
    from entswap import BdsChainQuery, WernerChainQuery

    noise = NoiseModel((1.0,))
    with pytest.raises(DomainError, match="^3 links require 2 eta values, got 1$"):
        noise.check_links(3)
    noise.check_links(2)
    link = make_werner(0.9)
    for build in (
        lambda: ChainSpec((link,) * 3, noise),
        lambda: WernerChainQuery((0.9,) * 3, noise),
        lambda: BdsChainQuery(((1.0, -1.0, 1.0),) * 3, noise),
    ):
        with pytest.raises(DomainError, match="^3 links require 2 eta values, got 1$"):
            build()


def test_chain_swap_reports_failing_node(monkeypatch):
    import entswap.swap as swap_module

    calls = {"count": 0}

    def broken(left_m, right_m, eta):
        calls["count"] += 1
        if calls["count"] == 2:
            raise DomainError("synthetic failure")
        return swap_module._perfect_average(left_m, right_m)

    monkeypatch.setattr(swap_module, "_swap_once_matrix", broken)
    links = tuple(make_werner(1.0) for _ in range(4))
    spec = ChainSpec(links, NoiseModel((1.0, 1.0, 1.0)))
    with pytest.raises(ChainSwapError, match="node 2") as err:
        chain_swap(spec)
    assert err.value.node == 2


def test_outcome_labels_are_stable():
    assert OUTCOME_LABELS == ("phi+", "phi-", "psi+", "psi-")
