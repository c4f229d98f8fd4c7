import numpy as np
import pytest

from entswap import (
    BdsChainQuery,
    BdsParams,
    ChainSpec,
    DomainError,
    InvalidParametersError,
    InvalidStateError,
    NoiseModel,
    TwoQubitState,
    apply_local,
    bds_chain_concurrence,
    bell_state,
    chain_swap,
    concurrence,
    concurrence_bds,
    concurrence_werner,
    make_bell_diagonal,
    make_werner,
    octahedron_separable,
    pauli_decompose,
    report,
    teleportation_fidelity,
    validate,
)
from entswap.states import PAULI, _checked_density_matrix
from helpers import ginibre_matrix, random_tetrahedron_point


def test_concurrence_extremes():
    assert concurrence(bell_state("psi-")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4) == 0.0


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
def test_concurrence_werner_grid(p):
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert concurrence(make_werner(p)) == pytest.approx(expected, abs=1e-12)
    assert concurrence_werner(p) == pytest.approx(expected, abs=1e-15)


def test_concurrence_werner_examples():
    assert concurrence_werner(1.0) == 1.0
    assert concurrence_werner(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert concurrence_werner(0.8) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(DomainError):
        concurrence_werner(1.2)


def test_concurrence_bds_examples():
    assert concurrence_bds((1, -1, 1)) == pytest.approx(1.0, abs=1e-15)
    assert concurrence_bds((0, 0, 0)) == 0.0
    assert concurrence_bds((-0.9, -0.9, -0.9)) == pytest.approx(0.85, abs=1e-12)


def test_concurrence_bds_matches_spin_flip():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        t = random_tetrahedron_point(rng)
        closed = concurrence_bds(t)
        brute = concurrence(make_bell_diagonal(t))
        assert abs(closed - brute) < 1e-10


def test_octahedron_examples():
    assert octahedron_separable((1 / 3, 1 / 3, 1 / 3)) is True
    assert octahedron_separable((1, -1, 1)) is False
    assert octahedron_separable((0, 0, 0)) is True


def test_octahedron_of_a_stack_is_each_members_own_value():
    rng = np.random.default_rng(23)
    triples = [random_tetrahedron_point(rng) for _ in range(200)]
    # the boundary |t|_1 = 1 and a vertex, which the random points almost surely miss
    triples += [(1 / 3, 1 / 3, 1 / 3), (0.5, -0.5, 0.0), (1.0, -1.0, 1.0), (0.0, 0.0, 0.0)]
    stack = BdsParams(*np.array(triples, dtype=float).T)
    separable = octahedron_separable(stack)
    assert isinstance(separable, np.ndarray) and separable.dtype == bool
    assert separable.tolist() == [octahedron_separable(t) for t in triples]
    assert separable.any() and not separable.all()


def test_octahedron_matches_zero_concurrence():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        t = random_tetrahedron_point(rng)
        weight = abs(t[0]) + abs(t[1]) + abs(t[2])
        if abs(weight - 1.0) <= 1e-10:
            continue
        assert octahedron_separable(t) == (concurrence_bds(t) == 0.0)


@pytest.mark.parametrize("name", ["phi+", "phi-", "psi+", "psi-"])
def test_fidelity_bell_states(name):
    assert teleportation_fidelity(bell_state(name)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_examples():
    assert teleportation_fidelity(np.eye(4) / 4) == pytest.approx(0.5, abs=1e-12)
    assert teleportation_fidelity(make_werner(0.5)) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_fidelity_werner_grid(p):
    assert teleportation_fidelity(make_werner(p)) == pytest.approx((1 + p) / 2, abs=1e-12)


def test_measures_stay_in_range():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        state = TwoQubitState(ginibre_matrix(rng))
        c = concurrence(state)
        f = teleportation_fidelity(state)
        assert 0.0 <= c <= 1.0 + 1e-12
        assert 0.5 - 1e-12 <= f <= 1.0 + 1e-12


@pytest.mark.parametrize("entry", [(0, 0), (1, 2), None])
def test_fidelity_rejects_nan(entry):
    # a NaN entry reaches every Pauli expectation, so r, s and T all carry it
    m = bell_state("phi+").matrix.copy()
    if entry is None:
        m[:] = np.nan
    else:
        m[entry] = np.nan
    with pytest.raises(InvalidParametersError):
        teleportation_fidelity(m)
    with pytest.raises(InvalidParametersError):
        teleportation_fidelity(np.stack([bell_state("psi-").matrix, m]))


@pytest.mark.parametrize(
    "bad, reason",
    [
        # trace 2: every T entry is +-2, r and s stay 0
        (2.0 * bell_state("phi+").matrix, "correlation matrix"),
        # trace 1 and Hermitian, but r = (0, 0, 2)
        ((np.eye(4) + 2.0 * np.kron(PAULI[3], PAULI[0])) / 4.0, "Bloch vectors"),
    ],
)
def test_fidelity_rejects_out_of_range_bare_matrices(bad, reason):
    # a bare matrix is not validated, so its Pauli expectations are checked
    # on the way to T, alone and as a member of a stack
    with pytest.raises(InvalidParametersError, match=reason):
        teleportation_fidelity(bad)
    with pytest.raises(InvalidParametersError, match=reason):
        teleportation_fidelity(np.stack([bell_state("psi-").matrix, bad]))


def test_validated_state_fidelity_skips_pauli_decompose(monkeypatch):
    # validation already bounds every Pauli expectation of a TwoQubitState,
    # so its fidelity reads T without building a checked BlochForm
    import entswap.measures as measures_module

    rng = np.random.default_rng(25)
    states = [TwoQubitState(ginibre_matrix(rng, rank)) for rank in (1, 2, 3, 4)]
    states += [bell_state("phi+"), make_werner(0.5), make_bell_diagonal((0.5, -0.5, 0.0))]
    expected = [teleportation_fidelity(state) for state in states]

    def forbidden(*args, **kwargs):
        raise AssertionError("a validated state went through pauli_decompose")

    monkeypatch.setattr(measures_module, "pauli_decompose", forbidden)
    assert [teleportation_fidelity(state) for state in states] == expected
    assert [report(state).fidelity for state in states] == expected
    with pytest.raises(AssertionError, match="pauli_decompose"):
        teleportation_fidelity(states[0].matrix)


@pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4, 4)])
def test_empty_stacks_give_empty_results(shape):
    # a stack gives one value per member, so an empty stack gives none
    empty = np.zeros(shape, dtype=complex)
    lead = shape[:-2]
    assert concurrence(empty).shape == lead
    assert teleportation_fidelity(empty).shape == lead
    bloch = pauli_decompose(empty)
    assert (bloch.r.shape, bloch.s.shape, bloch.T.shape) == (lead + (3,), lead + (3,), lead + (3, 3))
    r = report(empty)
    assert all(np.shape(value) == lead for value in (r.concurrence, r.fidelity, r.entangled, r.useful_for_teleportation))
    assert _checked_density_matrix(empty, shape, "stack").shape == shape


@pytest.mark.parametrize("bad", [0.5, "x", {}, None, np.zeros((3, 3)), np.zeros(16).reshape(2, 8)],
                         ids=["number", "string", "dict", "none", "3x3", "2x8"])
def test_input_that_is_not_a_4x4_matrix_raises_invalid_state(bad):
    # numpy's own LinAlgError, ValueError or TypeError must not escape a measure or a state
    for build in (concurrence, teleportation_fidelity, report, pauli_decompose, TwoQubitState, validate):
        with pytest.raises(InvalidStateError):
            build(bad)


def test_validate_refuses_a_stack():
    # the measures read a stack of 4x4 matrices, but validate reports on one matrix
    with pytest.raises(InvalidStateError):
        validate(np.stack([np.eye(4) / 4] * 3))


@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((1, 2), np.inf), (None, np.nan)])
def test_concurrence_rejects_non_finite(entry, value):
    # eigh of a non-finite matrix returns garbage or raises LinAlgError, so
    # the check must come first, for one matrix and for a stack member alike
    m = bell_state("phi+").matrix.copy()
    if entry is None:
        m[:] = value
    else:
        m[entry] = value
    for bad in (m, np.stack([bell_state("psi-").matrix, m])):
        with pytest.raises(InvalidStateError):
            concurrence(bad)
        with pytest.raises(InvalidStateError):
            report(bad)


def test_fidelity_invariant_under_local_paulis():
    rng = np.random.default_rng(24)
    for _ in range(100):
        state = TwoQubitState(ginibre_matrix(rng))
        f = teleportation_fidelity(state)
        a, b = rng.integers(0, 4, size=2)
        assert abs(teleportation_fidelity(apply_local(state, int(a), int(b))) - f) < 1e-10


def test_report_examples():
    r = report(bell_state("phi+"))
    assert r.concurrence == pytest.approx(1.0, abs=1e-12)
    assert r.fidelity == pytest.approx(1.0, abs=1e-12)
    assert r.entangled and r.useful_for_teleportation

    r = report(np.eye(4) / 4)
    assert r.concurrence == 0.0
    assert r.fidelity == pytest.approx(0.5, abs=1e-12)
    assert not r.entangled and not r.useful_for_teleportation

    r = report(make_werner(0.4))
    assert r.concurrence == pytest.approx(0.1, abs=1e-10)
    assert r.fidelity == pytest.approx(0.7, abs=1e-10)
    assert r.entangled and r.useful_for_teleportation


def test_report_flags_track_strict_thresholds():
    # visibility 1/3 sits on both boundaries; the flags must stay
    # consistent with the strictly-greater convention on the computed values
    r = report(make_werner(1.0 / 3.0))
    assert r.concurrence < 1e-10
    assert abs(r.fidelity - 2.0 / 3.0) < 1e-10
    assert r.entangled == (r.concurrence > 0.0)
    assert r.useful_for_teleportation == (r.fidelity > 2.0 / 3.0)


def _local_unitary(rng):
    """Haar-random U_A (x) U_B."""
    def haar2():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(haar2(), haar2())


def test_concurrence_keeps_full_precision_on_rank_deficient_states():
    # local unitaries leave C unchanged, and these ranks are where square
    # roots of the eigenvalues of rho rho~ lose half their digits
    rng = np.random.default_rng(2245)
    phi_plus, psi_plus = bell_state("phi+").matrix, bell_state("psi+").matrix
    for _ in range(100):
        u = _local_unitary(rng)
        a = rng.uniform(0.0, 1.0)
        ket = np.array([np.sqrt(a), 0.0, 0.0, np.sqrt(1.0 - a)], dtype=complex)
        pure = TwoQubitState(u @ np.outer(ket, ket.conj()) @ u.conj().T)
        assert abs(concurrence(pure) - 2.0 * np.sqrt(a * (1.0 - a))) <= 1e-12
        p = rng.uniform(0.0, 1.0)
        rank2 = TwoQubitState(u @ (p * phi_plus + (1.0 - p) * psi_plus) @ u.conj().T)
        assert abs(concurrence(rank2) - abs(2.0 * p - 1.0)) <= 1e-12


def test_oracle_chain_concurrence_matches_closed_form_on_rank_two_bds_links():
    t = BdsParams(-1.0, -0.5, -0.5)
    noise = NoiseModel((1.0,))
    final = chain_swap(ChainSpec((make_bell_diagonal(t), make_bell_diagonal(t)), noise))
    assert abs(concurrence(final) - bds_chain_concurrence(BdsChainQuery((t, t), noise))) <= 1e-12


@pytest.mark.parametrize(
    "c, f, expected",
    [
        (0.0, 0.5, (False, False)),
        (1e-13, 2.0 / 3.0 + 1e-13, (False, False)),
        (1e-11, 2.0 / 3.0 + 1e-11, (True, True)),
    ],
)
def test_flags_need_a_margin_above_the_thresholds(c, f, expected):
    from entswap.measures import flags

    assert flags(c, f) == expected
