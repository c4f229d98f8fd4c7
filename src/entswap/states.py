"""Construction, validation and Pauli algebra of two-qubit density matrices.

States are dense numpy arrays in the computational basis |00>, |01>, |10>,
|11>.  The transient four-qubit objects produced while joining two chain
links use qubit order 1 (x) 2 (x) 3 (x) 4, with the middle pair (2, 3) held
by the measuring node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParametersError, InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

#: Single-qubit Pauli matrices, indexed 0..3 as (identity, x, y, z).
PAULI = (_I2, _SX, _SY, _SZ)

_S2 = 1.0 / np.sqrt(2.0)
#: Bell-state kets; |psi-> carries amplitudes (|01> - |10>)/sqrt(2).
BELL_KETS = {
    "phi+": np.array([_S2, 0, 0, _S2], dtype=complex),
    "phi-": np.array([_S2, 0, 0, -_S2], dtype=complex),
    "psi+": np.array([0, _S2, _S2, 0], dtype=complex),
    "psi-": np.array([0, _S2, -_S2, 0], dtype=complex),
}

#: Two-qubit Pauli products, _PAIR[i, j] = sigma_i (x) sigma_j, shape (4, 4, 4, 4).
_PAIR = np.array([[np.kron(PAULI[i], PAULI[j]) for j in range(4)] for i in range(4)])

# All 15 expectation operators stacked (r1..r3, s1..s3, T row-major) so one
# contraction yields the full Bloch decomposition.
_BLOCH_STACK = np.concatenate([_PAIR[1:, 0], _PAIR[0, 1:], _PAIR[1:, 1:].reshape(9, 4, 4)])


def _any(mask) -> bool:
    """True if any entry of a boolean array, or a numpy boolean scalar, is set.

    A numpy reduction costs as much on a scalar as on a small array, and
    the checks of a single state would pay it on every call, so a scalar
    is read directly.
    """
    return bool(mask.any() if mask.ndim else mask)


def _as_matrix(state) -> np.ndarray:
    """Unwrap a state object to its matrix; pass bare arrays through."""
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


def _checked_density_matrix(matrix, shape: tuple[int, ...], label: str) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; clamp fp noise.

    ``shape`` is (dim, dim) for one matrix or (..., dim, dim) for a stack,
    whose every member passes the same checks.  Eigenvalues in
    [-PSD_TOL, 0) are set to zero and the member is reassembled and
    renormalized; anything more negative is an error.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != shape:
        raise InvalidStateError(f"{label} must be {'x'.join(map(str, shape))}, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    # A NaN or infinite entry makes the defect NaN or inf, which fails the
    # test below, so non-finite input never reaches eigvalsh.
    defect = np.abs(m - adjoint).max()
    if not defect <= HERMITICITY_TOL:
        raise InvalidStateError(f"{label} is not a finite Hermitian matrix (defect {defect:.3e})")
    trace = m.trace(axis1=-2, axis2=-1)
    off = abs(trace - 1.0) > TRACE_TOL
    if _any(off):
        raise InvalidStateError(f"{label} has trace {np.extract(off, trace)[0].real:.12g}, expected 1")
    m = (m + adjoint) / 2.0
    smallest = np.linalg.eigvalsh(m)[..., 0]
    negative = smallest < 0.0
    if _any(negative):
        worst = smallest.min()
        if worst < -PSD_TOL:
            raise InvalidStateError(f"{label} is not positive semidefinite (min eigenvalue {worst:.6e})")
        for index in map(tuple, np.argwhere(negative)):
            evals, vecs = np.linalg.eigh(m[index])
            clamped = (vecs * np.maximum(evals, 0.0)) @ vecs.conj().T
            m[index] = clamped / clamped.trace().real
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated 4x4 density matrix, the universal state representation."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", _checked_density_matrix(self.matrix, (4, 4), "two-qubit state")
        )


@dataclass(frozen=True, eq=False)
class FourQubitState:
    """A validated 16x16 density matrix in qubit order 1 (x) 2 (x) 3 (x) 4."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", _checked_density_matrix(self.matrix, (16, 16), "four-qubit state")
        )


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Local Bloch vectors r, s and the 3x3 correlation matrix T.

    Entries are Pauli expectation values, so each lies in [-1, 1]; out of
    range values (beyond fp slack) are rejected.  Physicality of the full
    reconstruction is checked by :func:`make_general`, not here.  Leading
    axes of r, shared by s and T, make a stack of forms, each member
    checked alike.
    """

    r: np.ndarray
    s: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float).reshape(r.shape).copy()
        T = np.asarray(self.T, dtype=float).reshape(r.shape + (3,)).copy()
        slack = 1.0 + 1e-9
        if _any((r * r).sum(axis=-1) > slack**2) or _any((s * s).sum(axis=-1) > slack**2):
            raise InvalidParametersError("Bloch vectors must have norm <= 1")
        if np.abs(T).max() > slack:
            raise InvalidParametersError("correlation matrix entries must lie in [-1, 1]")
        for arr, name in ((r, "r"), (s, "s"), (T, "T")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class WernerParams:
    """Visibility p of a singlet mixed with white noise; entangled iff p > 1/3."""

    p: float

    def __post_init__(self):
        check_visibility(self.p)


def check_visibility(p: float) -> None:
    """Raise DomainError unless the Werner visibility p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class BdsParams:
    """Correlation triple (t1, t2, t3) of a Bell-diagonal state.

    Valid triples are the points of the tetrahedron whose four vertex
    weights (the Bell-basis eigenvalues) are all non-negative.
    """

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in self.as_tuple()):
            raise InvalidParametersError(f"correlations {self.as_tuple()} must be finite")
        smallest = min(self.eigenvalues())
        if smallest < -PSD_TOL:
            raise InvalidParametersError(
                f"correlations {self.as_tuple()} lie outside the tetrahedron "
                f"(eigenvalue {smallest:.12g} < 0)"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def eigenvalues(self) -> tuple[float, float, float, float]:
        """The four Bell-basis eigenvalues of the state."""
        t1, t2, t3 = self.t1, self.t2, self.t3
        return (
            (1 - t1 - t2 - t3) / 4,
            (1 - t1 + t2 + t3) / 4,
            (1 + t1 - t2 + t3) / 4,
            (1 + t1 + t2 - t3) / 4,
        )


@dataclass(frozen=True)
class StateDiagnostics:
    """Residuals of the density-matrix invariants; see :func:`validate`."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float


def bell_state(index: str) -> TwoQubitState:
    """Return the named Bell state as a density matrix.

    ``index`` is one of ``phi+``, ``phi-``, ``psi+``, ``psi-`` with the
    phase conventions |phi+-> = (|00> +- |11>)/sqrt(2) and
    |psi+-> = (|01> +- |10>)/sqrt(2).
    """
    try:
        ket = BELL_KETS[index]
    except KeyError:
        raise DomainError(f"unknown Bell state {index!r}") from None
    return TwoQubitState(np.outer(ket, ket.conj()))


def make_werner(params: WernerParams | float) -> TwoQubitState:
    """Build ((1-p)/4) I + p |psi-><psi-| for visibility p in [0, 1]."""
    if not isinstance(params, WernerParams):
        params = WernerParams(float(params))
    ket = BELL_KETS["psi-"]
    m = (1.0 - params.p) / 4.0 * np.eye(4, dtype=complex) + params.p * np.outer(ket, ket.conj())
    return TwoQubitState(m)


def make_bell_diagonal(params: BdsParams | tuple) -> TwoQubitState:
    """Build (1/4)(I(x)I + sum_i t_i sigma_i (x) sigma_i)."""
    if not isinstance(params, BdsParams):
        params = BdsParams(*(float(t) for t in params))
    m = np.eye(4, dtype=complex)
    for i, t in enumerate(params.as_tuple(), start=1):
        m = m + t * _PAIR[i, i]
    return TwoQubitState(m / 4.0)


def make_general(bloch: BlochForm) -> TwoQubitState:
    """Build the state with the given Bloch vectors and correlation matrix.

    Raises InvalidParametersError when the reconstruction is not positive
    semidefinite within tolerance.
    """
    m = np.eye(4, dtype=complex)
    for i in range(3):
        m = m + bloch.r[i] * _PAIR[i + 1, 0] + bloch.s[i] * _PAIR[0, i + 1]
        for j in range(3):
            m = m + bloch.T[i, j] * _PAIR[i + 1, j + 1]
    m = m / 4.0
    smallest = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
    if smallest < -PSD_TOL:
        raise InvalidParametersError(
            f"Bloch parameters do not describe a state (min eigenvalue {smallest:.12g})"
        )
    return TwoQubitState(m)


def pauli_decompose(state) -> BlochForm:
    """Pauli expectations of a state: r_i, s_i and t_ij = Tr(rho si (x) sj).

    Inverse of :func:`make_general`.  Accepts a TwoQubitState, a bare 4x4
    matrix or a (..., 4, 4) stack, which gives a stack of forms.
    """
    m = _as_matrix(state)
    expectations = np.einsum("kij,...ji->...k", _BLOCH_STACK, m).real
    return BlochForm(expectations[..., :3], expectations[..., 3:6], expectations[..., 6:])


def tensor(left: TwoQubitState, right: TwoQubitState) -> FourQubitState:
    """Kronecker product of two links in qubit order 1, 2, 3, 4."""
    return FourQubitState(np.kron(_as_matrix(left), _as_matrix(right)))


def _ptrace_mid(m16: np.ndarray) -> np.ndarray:
    """Trace qubits 2 and 3 out of a (possibly unnormalized) 16x16 matrix."""
    m = m16.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    return np.einsum("iabjkabl->ijkl", m).reshape(4, 4)


def partial_trace_mid(state):
    """Trace out the middle qubits (2, 3) of a four-qubit state.

    A FourQubitState yields a TwoQubitState.  A bare 16x16 array is passed
    through unvalidated and returns a bare 4x4 array with the same trace,
    which lets scaled intermediates flow through measurement pipelines.
    """
    if isinstance(state, FourQubitState):
        return TwoQubitState(_ptrace_mid(state.matrix))
    return _ptrace_mid(np.asarray(state, dtype=complex))


def apply_local(state: TwoQubitState, left_pauli: int, right_pauli: int) -> TwoQubitState:
    """Conjugate a state by sigma_a (x) sigma_b (Pauli indices 0..3)."""
    if left_pauli not in (0, 1, 2, 3) or right_pauli not in (0, 1, 2, 3):
        raise DomainError("Pauli indices must be integers in 0..3")
    u = _PAIR[int(left_pauli), int(right_pauli)]
    # Paulis are Hermitian and self-inverse, so conjugation is u @ m @ u.
    return TwoQubitState(u @ _as_matrix(state) @ u)


def validate(state) -> StateDiagnostics:
    """Report the invariant residuals of any 4x4 complex matrix.

    Never raises: the minimum eigenvalue is taken from the Hermitian part
    of the input, and numerical failures surface as nan.
    """
    m = _as_matrix(state)
    defect = float(np.abs(m - m.conj().T).max())
    trace_defect = float(abs(m.trace() - 1.0))
    try:
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    except np.linalg.LinAlgError:
        min_eig = float("nan")
    return StateDiagnostics(defect, trace_defect, min_eig)
