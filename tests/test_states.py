import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    BdsParams,
    BlochForm,
    DomainError,
    InvalidParametersError,
    InvalidStateError,
    NoiseModel,
    TwoQubitState,
    WernerParams,
    apply_local,
    bell_state,
    concurrence,
    concurrence_bds,
    concurrence_werner,
    make_bell_diagonal,
    make_general,
    make_werner,
    max_entangled_swaps,
    octahedron_separable,
    partial_trace_mid,
    pauli_decompose,
    subset_sum_normalization,
    tensor,
    validate,
)
from entswap.states import check_visibility
from helpers import brute_min_eigenvalue, ginibre_matrix, random_tetrahedron_point

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


@pytest.mark.parametrize("index", [["phi+"], {}, None])
def test_bell_state_rejects_unhashable_and_non_string_indices(index):
    with pytest.raises(DomainError, match="unknown Bell state"):
        bell_state(index)


def test_bell_basis_is_exact_in_binary():
    # each Bell projector is the Pauli sum (I + t1 XX + t2 YY + t3 ZZ)/4 of its tetrahedron
    # vertex, whose entries 0, +-1/2 and +-i/2 are exact: traces are 1 and the noisy
    # measurement operators sum to I_4 with no rounding
    from entswap import noisy_bell_measurement_ops
    from entswap.states import _PAIR, BELL_KETS

    vertices = {"phi+": (1, -1, 1), "phi-": (-1, 1, 1), "psi+": (1, 1, -1), "psi-": (-1, -1, -1)}
    for name, (t1, t2, t3) in vertices.items():
        m = bell_state(name).matrix
        assert np.array_equal(m, (_PAIR[0, 0] + t1 * _PAIR[1, 1] + t2 * _PAIR[2, 2] + t3 * _PAIR[3, 3]) / 4), name
        assert m.trace() == 1.0, name
        # the kets document the phases: their projectors are these up to the rounding of 1/sqrt(2)
        ket = BELL_KETS[name]
        assert np.abs(np.outer(ket, ket.conj()) - m).max() <= 2.3e-16, name
    for p in (0.9, 1.0):
        assert make_werner(p).matrix.trace() == 1.0, p
    assert np.array_equal(make_werner(1.0).matrix, bell_state("psi-").matrix)
    for eta in (0.0, 1.0):
        assert np.array_equal(sum(noisy_bell_measurement_ops(eta)), np.eye(4)), eta


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


def test_states_with_an_exact_zero_eigenvalue_pass_unchanged():
    # only a negative smallest eigenvalue is clamped: a matrix whose smallest
    # eigenvalue is exactly 0.0 keeps every bit, where a trip through the
    # clamp's eigh and renormalization would round it
    from entswap import TwoQubitState
    from entswap.states import _PAIR, BELL_KETS

    phi, psi = BELL_KETS["phi+"], BELL_KETS["psi-"]
    bds = np.eye(4, dtype=complex)
    for i, t in enumerate((0.5, -0.5, 0.0), start=1):
        bds = bds + t * _PAIR[i, i]
    # the ket-built projectors of phi+ and of a p = 1 Werner state, bell_state("phi+") as built from
    # its Pauli sum, and the matrix make_bell_diagonal((0.5, -0.5, 0.0)) validates
    candidates = {
        "phi+": np.outer(phi, phi.conj()),
        "bell_state phi+": bell_state("phi+").matrix,
        "werner p=1": (1.0 - 1.0) / 4.0 * np.eye(4, dtype=complex) + 1.0 * np.outer(psi, psi.conj()),
        "bds (0.5, -0.5, 0)": bds / 4.0,
    }
    exact_zero = [name for name, m in candidates.items() if brute_min_eigenvalue(m) == 0.0]
    assert exact_zero, "no candidate has an exact-zero smallest eigenvalue"
    for name in exact_zero:
        m = candidates[name]
        assert TwoQubitState(m).matrix.tobytes() == m.tobytes(), name


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


def _bloch_with_nan(part):
    r, s, T = np.zeros(3), np.zeros(3), np.zeros((3, 3))
    {"r": r, "s": s, "T": T}[part].flat[1] = np.nan
    return r, s, T


@pytest.mark.parametrize("part", ["r", "s", "T"])
def test_bloch_form_rejects_nan(part):
    with pytest.raises(InvalidParametersError):
        BlochForm(*_bloch_with_nan(part))
    with pytest.raises(InvalidParametersError):
        make_general(BlochForm(*_bloch_with_nan(part)))
    # a stack with one NaN member fails too
    stack = [np.stack([np.zeros_like(x), x, np.zeros_like(x)]) for x in _bloch_with_nan(part)]
    with pytest.raises(InvalidParametersError):
        BlochForm(*stack)


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


@pytest.mark.parametrize("triple", [
    (0.5, np.array([0.1, 0.2]), np.array([0.1, 0.2])),
    (np.array([0.1, 0.2]), 0.5, 0.5),
    (0.5, 0.5, np.array([0.1, 0.2])),
], ids=["float-first", "array-first", "array-last"])
def test_bds_params_refuse_arrays_mixed_with_floats_in_either_order(triple):
    # an array among floats is a malformed stack, whichever component holds it
    with pytest.raises(InvalidParametersError) as info:
        BdsParams(*triple)
    assert str(info.value) == "a stack of correlation triples needs three arrays of one shape"


@pytest.mark.parametrize("build", [
    lambda: make_bell_diagonal((1, 2)),
    lambda: make_bell_diagonal((0.1, 0.2, 0.3, 0.4)),
    lambda: make_bell_diagonal("abc"),
    lambda: make_bell_diagonal(None),
    lambda: make_bell_diagonal(BdsParams(*np.zeros((3, 2)))),
    lambda: make_werner("x"),
    lambda: make_werner(None),
    lambda: make_werner(np.array([0.5, 0.6])),
    lambda: make_werner(WernerParams(np.array([0.5, 0.6]))),
    lambda: concurrence_bds((1, 2)),
    lambda: octahedron_separable("ab"),
], ids=[
    "bds-two-numbers", "bds-four-numbers", "bds-string", "bds-none", "bds-stack",
    "werner-string", "werner-none", "werner-array", "werner-stack",
    "concurrence-bds-two-numbers", "octahedron-string",
])
def test_family_parameters_of_the_wrong_length_or_kind_raise_invalid_parameters(build):
    # a wrong length, a non-number, or a stack where one state is built raises an entswap error,
    # not a raw TypeError, ValueError or numpy broadcast error
    with pytest.raises(InvalidParametersError):
        build()


@pytest.mark.parametrize("build, error", [
    (lambda: WernerParams("x"), DomainError),
    (lambda: WernerParams(None), DomainError),
    (lambda: WernerParams([0.5]), DomainError),
    (lambda: BdsParams("a", 0, 0), InvalidParametersError),
    (lambda: BdsParams(0, 0, None), InvalidParametersError),
], ids=["werner-string", "werner-none", "werner-list", "bds-string", "bds-none"])
def test_parameters_refuse_non_numbers(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("value", [np.complex128(0.5 + 1j), np.complex128(0.5), np.complex64(0.5 + 1j),
                                   np.array(0.5 + 1j), 0.5 + 1j],
                         ids=["complex128", "zero-imaginary-part", "complex64", "0-d-array", "python-complex"])
def test_complex_values_are_refused_as_python_complex_is(value):
    # numpy orders complex values and float() drops their imaginary parts with a warning only,
    # so a numpy complex must be refused by its type, as a Python complex is refused
    with pytest.raises(DomainError):
        WernerParams(value)
    with pytest.raises(DomainError):
        check_visibility(value)
    with pytest.raises(DomainError):
        NoiseModel((0.9, value))
    with pytest.raises(InvalidParametersError):
        make_werner(value)
    with pytest.raises(InvalidParametersError):
        BdsParams(value, 0.0, 0.0)
    with pytest.raises(InvalidParametersError):
        make_bell_diagonal((0.1, value, 0.0))


def test_a_stack_of_strings_raises_invalid_parameters():
    with pytest.raises(InvalidParametersError, match="must be finite numbers"):
        BdsParams(np.array(["a"]), np.array(["b"]), np.array(["c"]))


@pytest.mark.parametrize("columns", [
    (np.array([0.1 + 1j]), np.array([0.0]), np.array([0.0])),
    (np.array([0.1, 0.2]), np.array([0.0, 0.0]), np.array([0.0, 0.0j])),
], ids=["complex", "zero-imaginary-part"])
def test_a_complex_stack_raises_invalid_parameters(columns):
    # a stack is not cast to its real parts: a complex correlation is refused, as a complex number is
    with pytest.raises(InvalidParametersError, match="must be finite numbers"):
        BdsParams(0.1 + 1j, 0.0, 0.0)
    with pytest.raises(InvalidParametersError, match="must be finite numbers"):
        BdsParams(*columns)


@pytest.mark.parametrize("p", [
    np.array(["a"]),
    np.array("a"),
    np.array([0.5, None], dtype=object),
    np.array([0.5 + 0.25j]),
], ids=["strings", "zero-dim-string", "object-none", "complex"])
def test_visibility_arrays_of_non_numbers_raise_domain_error(p):
    # numpy refuses to compare these with a float; the first member that fails alone is reported
    with pytest.raises(DomainError, match="visibility must lie in"):
        check_visibility(p)


def _signed_zeros(m, negative):
    """m with every zero real or imaginary part turned into -0.0 when ``negative`` is set."""
    m = m.copy()
    if negative:
        m.real[m.real == 0.0] = -0.0
        m.imag[m.imag == 0.0] = -0.0
    return m


def _unit_ket(vector):
    """The qubit ket whose Bloch vector is the unit vector along ``vector``."""
    x, y, z = np.asarray(vector) / np.linalg.norm(vector)
    theta, phi = np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


@st.composite
def validated_states(draw):
    """A TwoQubitState: Ginibre of rank 1..4, a product of pure qubits, or a Bell, Werner or BDS state.

    Products have |r| = |s| = 1 up to rounding.  The last three hold
    exact zeros, which a drawn flag turns into -0.0.
    """
    kind = draw(st.sampled_from(["ginibre", "product", "bell", "werner", "bds"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ginibre":
        return TwoQubitState(ginibre_matrix(rng, draw(st.integers(1, 4))))
    if kind == "product":
        axes = st.sampled_from([(1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        left, right = (draw(axes | st.just(tuple(rng.normal(size=3)))) for _ in range(2))
        ket = np.kron(_unit_ket(left), _unit_ket(right))
        return TwoQubitState(np.outer(ket, ket.conj()))
    if kind == "bell":
        m = bell_state(draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"]))).matrix
    elif kind == "werner":
        m = make_werner(draw(st.sampled_from([0.0, 1 / 3, 1.0]) | st.floats(0.0, 1.0))).matrix
    else:
        special = st.sampled_from([(0.0, -0.0, 0.0), (1.0, -1.0, 1.0), (-1 / 3, -1 / 3, -1 / 3)])
        m = make_bell_diagonal(draw(special | st.just(random_tetrahedron_point(rng)))).matrix
    return TwoQubitState(_signed_zeros(m, draw(st.booleans())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(validated_states())
def test_validated_decomposition_equals_the_checked_route(state):
    # a TwoQubitState's form skips BlochForm's range checks; its fields must
    # hold the checked route's bits, each an owned, read-only copy
    fast, checked = pauli_decompose(state), pauli_decompose(state.matrix)
    assert isinstance(fast, BlochForm)
    fields = [(fast.r, checked.r, (3,)), (fast.s, checked.s, (3,)), (fast.T, checked.T, (3, 3))]
    for value, expected, shape in fields:
        assert value.shape == shape and value.dtype == np.float64
        assert value.tobytes() == expected.tobytes()
        assert not value.flags.writeable
        assert value.base is None and value.flags.owndata
    arrays = [fast.r, fast.s, fast.T, state.matrix]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_bare_matrices_and_stacks_keep_the_range_checks():
    # out of range: r_3 = 3 on one matrix, and a trace-2 member of a stack
    with pytest.raises(InvalidParametersError):
        pauli_decompose(np.diag([2.0, 0.0, 0.0, -1.0]).astype(complex))
    bell = bell_state("psi-").matrix
    with pytest.raises(InvalidParametersError):
        pauli_decompose(np.array([bell, bell, 2.0 * bell]))
    with pytest.raises(InvalidParametersError):
        pauli_decompose(np.full((4, 4), np.nan, dtype=complex))


# text that float() reads, and bools, which read as 0 and 1: none of them is a number to the library,
# as none is to a sweep config
_NOT_NUMBERS = ["0.5", b"0.5", np.str_("0.5"), True, False, np.True_, np.False_]
_TAKES_ONE_NUMBER = [
    (WernerParams, DomainError),
    (check_visibility, DomainError),
    (concurrence_werner, DomainError),
    (lambda x: NoiseModel((0.9, x)), DomainError),
    (lambda x: max_entangled_swaps(x, 0.9), DomainError),
    (lambda x: max_entangled_swaps(0.9, x), DomainError),
    (lambda x: subset_sum_normalization((x,)), DomainError),
    (make_werner, InvalidParametersError),
    (lambda x: make_bell_diagonal((0.0, x, 0.0)), InvalidParametersError),
]
_ENTRY_IDS = ["WernerParams", "check_visibility", "concurrence_werner", "NoiseModel", "max_entangled_swaps-eta",
              "max_entangled_swaps-p", "subset_sum_normalization", "make_werner", "make_bell_diagonal"]


@pytest.mark.parametrize("value", _NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry, error", _TAKES_ONE_NUMBER, ids=_ENTRY_IDS)
def test_text_and_bools_are_not_numbers(entry, error, value):
    with pytest.raises(error):
        entry(value)


@pytest.mark.parametrize("value", [1, np.int64(1), 1.0, np.float64(0.9)], ids=repr)
@pytest.mark.parametrize("entry, error", _TAKES_ONE_NUMBER, ids=_ENTRY_IDS)
def test_plain_numbers_still_pass_where_text_and_bools_do_not(entry, error, value):
    # control for the table above: the same entry points take ints and floats, eta 1 included
    entry(value)
