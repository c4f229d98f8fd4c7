import numpy as np
import pytest

from entswap import (
    BdsParams,
    BlochForm,
    DomainError,
    InvalidParametersError,
    InvalidStateError,
    WernerParams,
    apply_local,
    bell_state,
    concurrence,
    make_bell_diagonal,
    make_general,
    make_werner,
    partial_trace_mid,
    pauli_decompose,
    tensor,
    validate,
)
from helpers import brute_min_eigenvalue, ginibre_matrix

EYE4 = np.eye(4) / 4


def test_bell_state_psi_minus_entries():
    m = bell_state("psi-").matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.abs(m - expected).max() < 1e-15


@pytest.mark.parametrize("name", ["phi+", "phi-", "psi+", "psi-"])
def test_bell_state_purity(name):
    m = bell_state(name).matrix
    assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name,diag",
    [
        ("psi-", (-1, -1, -1)),
        ("psi+", (1, 1, -1)),
        ("phi+", (1, -1, 1)),
        ("phi-", (-1, 1, 1)),
    ],
)
def test_bell_state_bloch(name, diag):
    bloch = pauli_decompose(bell_state(name))
    assert np.abs(bloch.r).max() < 1e-12
    assert np.abs(bloch.s).max() < 1e-12
    assert np.abs(bloch.T - np.diag(diag)).max() < 1e-12


def test_bell_state_bad_index():
    with pytest.raises(DomainError):
        bell_state("bell")


def test_make_werner_limits():
    assert np.abs(make_werner(0.0).matrix - EYE4).max() < 1e-15
    assert np.abs(make_werner(1.0).matrix - bell_state("psi-").matrix).max() < 1e-15


def test_make_werner_half_concurrence():
    # closed form (3p-1)/2 against the full spin-flip computation
    assert concurrence(make_werner(0.5)) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_make_werner_domain(p):
    with pytest.raises(DomainError):
        make_werner(p)


def test_make_bell_diagonal_examples():
    assert np.abs(make_bell_diagonal((0, 0, 0)).matrix - EYE4).max() < 1e-15
    assert np.abs(make_bell_diagonal((1, -1, 1)).matrix - bell_state("phi+").matrix).max() < 1e-15


def test_make_bell_diagonal_outside_tetrahedron():
    with pytest.raises(InvalidParametersError, match="-0.5"):
        make_bell_diagonal((1, 1, 1))


def test_make_general_examples():
    zero = BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.abs(make_general(zero).matrix - EYE4).max() < 1e-15
    p = 0.65
    werner_like = BlochForm(np.zeros(3), np.zeros(3), np.diag([-p, -p, -p]))
    assert np.abs(make_general(werner_like).matrix - make_werner(p).matrix).max() < 1e-12


def test_make_general_rejects_nonphysical():
    # brute-force min eigenvalue of this reconstruction is -0.559016994375
    bad = BlochForm(np.array([1.0, 0, 0]), np.zeros(3), np.eye(3))
    with pytest.raises(InvalidParametersError, match="-0.559016994375"):
        make_general(bad)


def test_pauli_decompose_examples():
    bloch = pauli_decompose(EYE4)
    assert np.abs(bloch.r).max() == 0
    assert np.abs(bloch.T).max() == 0
    bloch = pauli_decompose(make_werner(0.7))
    assert np.abs(bloch.T - np.diag([-0.7, -0.7, -0.7])).max() < 1e-12
    assert np.abs(bloch.r).max() < 1e-12
    assert np.abs(bloch.s).max() < 1e-12


def test_pauli_decompose_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = ginibre_matrix(rng)
        rebuilt = make_general(pauli_decompose(m)).matrix
        assert np.abs(rebuilt - m).max() < 1e-12


def test_tensor_identity_and_purity():
    from entswap import TwoQubitState

    eye = TwoQubitState(EYE4)
    joint = tensor(eye, eye)
    assert np.abs(joint.matrix - np.eye(16) / 16).max() < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = TwoQubitState(ginibre_matrix(rng)), TwoQubitState(ginibre_matrix(rng))
        purity = np.trace(tensor(a, b).matrix @ tensor(a, b).matrix).real
        expected = np.trace(a.matrix @ a.matrix).real * np.trace(b.matrix @ b.matrix).real
        assert purity == pytest.approx(expected, abs=1e-12)


def test_partial_trace_of_unmeasured_product():
    from entswap import TwoQubitState

    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = ginibre_matrix(rng), ginibre_matrix(rng)
        reduced = partial_trace_mid(tensor(TwoQubitState(a), TwoQubitState(b)))
        tr2_a = np.einsum("ijkj->ik", a.reshape(2, 2, 2, 2))
        tr1_b = np.einsum("ijik->jk", b.reshape(2, 2, 2, 2))
        assert np.abs(reduced.matrix - np.kron(tr2_a, tr1_b)).max() < 1e-12


def test_partial_trace_mid_examples():
    assert np.abs(partial_trace_mid(np.eye(16) / 16) - EYE4).max() < 1e-15
    both = tensor(bell_state("phi+"), bell_state("psi-"))
    assert np.abs(partial_trace_mid(both).matrix - EYE4).max() < 1e-12


def test_partial_trace_mid_linearity():
    rng = np.random.default_rng(7)
    m16 = np.kron(ginibre_matrix(rng), ginibre_matrix(rng))
    assert np.abs(partial_trace_mid(2.5 * m16) - 2.5 * partial_trace_mid(m16)).max() < 1e-12


def test_apply_local_examples():
    state = bell_state("phi+")
    assert np.abs(apply_local(state, 0, 0).matrix - state.matrix).max() < 1e-15
    flipped = apply_local(state, 1, 0)
    assert np.abs(flipped.matrix - bell_state("psi+").matrix).max() < 1e-12
    with pytest.raises(DomainError):
        apply_local(state, 4, 0)


def test_apply_local_concurrence_invariance():
    from entswap import TwoQubitState

    rng = np.random.default_rng(8)
    for _ in range(100):
        state = TwoQubitState(ginibre_matrix(rng))
        c = concurrence(state)
        for a in range(4):
            for b in range(4):
                assert abs(concurrence(apply_local(state, a, b)) - c) < 1e-10


def test_constructor_rejects_bad_matrices():
    from entswap import TwoQubitState

    with pytest.raises(InvalidStateError, match="trace"):
        TwoQubitState(np.eye(4) / 2)
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 1e-3
    with pytest.raises(InvalidStateError, match="Hermitian"):
        TwoQubitState(bad)
    with pytest.raises(InvalidStateError, match="positive"):
        TwoQubitState(np.diag([0.5, 0.5 + 1e-9, -1e-9, 0.0]))


def test_constructor_clamps_fp_noise():
    from entswap import TwoQubitState

    eps = 5e-11
    state = TwoQubitState(np.diag([0.5, 0.5 + eps, -eps, 0.0]))
    diag = validate(state)
    assert diag.min_eigenvalue >= -1e-15
    assert diag.trace_defect < 1e-12
    assert diag.hermiticity_defect < 1e-15


def test_constructor_outputs_pass_validate():
    rng = np.random.default_rng(9)
    states = [
        bell_state("phi-"),
        make_werner(rng.uniform()),
        make_bell_diagonal((-0.4, -0.4, -0.4)),
    ]
    from entswap import TwoQubitState

    states += [TwoQubitState(ginibre_matrix(rng)) for _ in range(20)]
    for state in states:
        diag = validate(state)
        assert diag.hermiticity_defect <= 1e-12
        assert diag.trace_defect <= 1e-12
        assert diag.min_eigenvalue >= -1e-10


def test_validate_diagnostics_never_raise():
    diag = validate(np.eye(4) / 4)
    assert diag.hermiticity_defect < 1e-15
    assert diag.trace_defect < 1e-15
    assert abs(diag.min_eigenvalue - 0.25) < 1e-15

    diag = validate(np.eye(4) * 0.375)
    assert diag.trace_defect == pytest.approx(0.5, abs=1e-15)

    bumped = np.eye(4, dtype=complex) / 4
    bumped[0, 1] += 1e-3
    diag = validate(bumped)
    assert diag.hermiticity_defect == pytest.approx(1e-3, rel=1e-9)

    # degenerate input still produces a report instead of raising
    diag = validate(np.full((4, 4), np.nan, dtype=complex))
    assert isinstance(diag.min_eigenvalue, float)


def test_bds_params_match_brute_force_eigenvalues():
    rng = np.random.default_rng(10)
    eye4 = np.eye(4, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    paulis = (sx, sy, sz)
    for _ in range(300):
        t = rng.uniform(-1.0, 1.0, size=3)
        m = eye4.copy()
        for ti, sigma in zip(t, paulis):
            m = m + ti * np.kron(sigma, sigma)
        brute = brute_min_eigenvalue(m / 4.0)
        try:
            params = BdsParams(*t)
            accepted = True
            assert min(params.eigenvalues()) == pytest.approx(brute, abs=1e-12)
        except InvalidParametersError:
            accepted = False
        assert accepted == (brute >= -1e-10)


def test_bloch_form_bounds():
    with pytest.raises(InvalidParametersError):
        BlochForm(np.array([1.2, 0, 0]), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(InvalidParametersError):
        BlochForm(np.zeros(3), np.zeros(3), np.full((3, 3), 1.5))


def test_werner_params_domain():
    assert WernerParams(0.5).p == 0.5
    with pytest.raises(DomainError):
        WernerParams(-0.01)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_constructor_rejects_non_finite_entries(bad):
    from entswap import TwoQubitState

    for pos in ((0, 0), (0, 1)):
        m = np.eye(4, dtype=complex) / 4
        m[pos] = bad
        with pytest.raises(InvalidStateError, match="finite"):
            TwoQubitState(m)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("defect", ["non-Hermitian", "trace 2", "nan", "negative"])
def test_stack_with_one_bad_member_is_rejected(defect):
    from entswap.states import _checked_density_matrix

    rng = np.random.default_rng(12)
    stack = np.array([ginibre_matrix(rng) for _ in range(5)])
    bad = stack[3]
    if defect == "non-Hermitian":
        bad[0, 1] += 1e-3
    elif defect == "trace 2":
        bad *= 2.0
    elif defect == "nan":
        bad[2, 2] = np.nan
    else:
        bad[:] = np.diag([0.5, 0.5 + 1e-9, -1e-9, 0.0])
    with pytest.raises(InvalidStateError):
        _checked_density_matrix(stack, stack.shape, "stack")
    # one bad member also fails the range checks of a stacked Bloch form
    if defect == "trace 2":
        bell = bell_state("psi-").matrix
        with pytest.raises(InvalidParametersError):
            pauli_decompose(np.array([bell, 2.0 * bell, bell]))


def test_single_state_holds_one_matrix():
    from entswap import TwoQubitState

    with pytest.raises(InvalidStateError, match="4x4"):
        TwoQubitState(np.array([np.eye(4) / 4] * 2))


@pytest.mark.parametrize("triple", [(np.nan, 0, 0), (0, 0, np.nan), (np.inf, -np.inf, 0), (np.inf, 0, 0)])
def test_bds_params_reject_non_finite(triple):
    with pytest.raises(InvalidParametersError):
        BdsParams(*triple)
