"""Construction, validation and Pauli algebra of two-qubit density matrices.

States are dense numpy arrays in the computational basis |00>, |01>, |10>,
|11>.  The transient four-qubit objects produced while joining two chain
links use qubit order 1 (x) 2 (x) 3 (x) 4, with the middle pair (2, 3) held
by the measuring node.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParametersError, InvalidStateError, _shown

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
#: Bell-state kets, documenting the phases only: |psi-> carries amplitudes
#: (|01> - |10>)/sqrt(2).  Their 1/sqrt(2) is rounded; the Bell basis is bell_state's.
BELL_KETS = {
    "phi+": np.array([_S2, 0, 0, _S2], dtype=complex),
    "phi-": np.array([_S2, 0, 0, -_S2], dtype=complex),
    "psi+": np.array([0, _S2, _S2, 0], dtype=complex),
    "psi-": np.array([0, _S2, -_S2, 0], dtype=complex),
}

# Correlation triples of the Bell states, the vertices of the tetrahedron.
_BELL_TRIPLES = {"phi+": (1, -1, 1), "phi-": (-1, 1, 1), "psi+": (1, 1, -1), "psi-": (-1, -1, -1)}

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


#: What float() or numpy reads as a real number but is not one: complex values, whose imaginary part a
#: cast drops with a warning only, text, which float() parses, and bools.  A sweep config refuses them too.
_NOT_NUMBERS = (complex, np.complexfloating, str, bytes, bool, np.bool_)


def _is_real(x) -> bool:
    """The library's one rule for a real number: no complex value, text or bool; arrays of int or float dtype only."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iuf"
    return not isinstance(x, _NOT_NUMBERS)


def _as_real(x) -> float:
    """float(x) of one real number; anything else raises TypeError, and an int beyond a float ValueError."""
    if not _is_real(x) or getattr(x, "ndim", 0):
        raise TypeError(f"{type(x).__name__} is not a real number")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("an int too large for a float") from None


def _as_reals(x) -> float | np.ndarray:
    """_as_real of one number; an array of int or float dtype as a read-only float copy."""
    if not isinstance(x, np.ndarray):
        return _as_real(x)
    if not _is_real(x):
        raise TypeError(f"an array of dtype {x.dtype} is not an array of real numbers")
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def _in_unit_interval(x) -> bool:
    """0 <= x <= 1 for one real number; False for NaN and for anything :func:`_as_real` refuses."""
    try:
        return 0.0 <= _as_real(x) <= 1.0
    except (TypeError, ValueError):
        return False


def _raise_first_failure(check, members) -> None:
    """Run ``check`` on each member of a stack alone, in order, until one raises.

    A stack whose check failed calls this, so that it raises what its
    first bad member raises alone, message included, rather than an error
    worded from the whole stack.
    """
    for member in members:
        check(member)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built without __post_init__.

    Only for parts of a stack that was checked whole, so that no part is
    checked again.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_complex_array(value, label: str) -> np.ndarray:
    """``value`` as a complex array; what numpy cannot read as numbers, such as a dict, raises InvalidStateError."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidStateError(f"{label} must be an array of numbers, got {type(value).__name__}") from None


def _as_matrix(state) -> np.ndarray:
    """Unwrap a state object to its matrix; read anything else as a complex (..., 4, 4) array.

    Input that is not a 4x4 matrix or a stack of them, such as a number,
    raises InvalidStateError.
    """
    m = _as_complex_array(getattr(state, "matrix", state), "a two-qubit state")
    if m.shape[-2:] != (4, 4):
        raise InvalidStateError(f"a two-qubit state is a 4x4 matrix or a stack of them, got shape {m.shape}")
    return m


def _checked_density_matrix(matrix, shape: tuple[int, ...], label: str) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; clamp fp noise.

    ``shape`` is (dim, dim) for one matrix or (..., dim, dim) for a stack,
    whose every member passes the same checks.  Eigenvalues in
    [-PSD_TOL, 0) are set to zero and the member is reassembled and
    renormalized; anything more negative is an error.
    """
    m = _as_complex_array(matrix, label)
    if m.shape != shape:
        raise InvalidStateError(f"{label} must be {'x'.join(map(str, shape))}, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    # A NaN or infinite entry makes the defect NaN or inf, which fails the
    # test below, so non-finite input never reaches eigvalsh.
    defect = np.abs(m - adjoint).max(initial=0.0)
    if not defect <= HERMITICITY_TOL:
        raise InvalidStateError(f"{label} is not a finite Hermitian matrix (defect {defect:.3e})")
    trace = m.trace(axis1=-2, axis2=-1)
    off = abs(trace - 1.0) > TRACE_TOL
    if _any(off):
        raise InvalidStateError(f"{label} has trace {np.extract(off, trace)[0].real:.12g}, expected 1")
    m = m + adjoint
    m /= 2.0
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
    checked alike.  r, s and T are int or float arrays, copied read-only.
    """

    r: np.ndarray
    s: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        try:
            r = _as_reals(self.r)
            if np.shape(r)[-1:] != (3,):
                raise ValueError("r is not a stack of 3-vectors")
            s = np.reshape(_as_reals(self.s), r.shape)
            T = np.reshape(_as_reals(self.T), r.shape + (3,))
        except (TypeError, ValueError):  # not arrays of real numbers, or of mismatched shapes
            raise InvalidParametersError("r and s must be real arrays of shape (..., 3), T of (..., 3, 3)") from None
        slack = 1.0 + 1e-9
        # "not within the bound" rather than "beyond it", so NaN fails too
        if _any(~((r * r).sum(axis=-1) <= slack**2)) or _any(~((s * s).sum(axis=-1) <= slack**2)):
            raise InvalidParametersError("Bloch vectors must have norm <= 1")
        if not np.abs(T).max(initial=0.0) <= slack:
            raise InvalidParametersError("correlation matrix entries must lie in [-1, 1]")
        self.__dict__.update(r=r, s=s, T=T)


@dataclass(frozen=True)
class WernerParams:
    """Visibility p of a singlet mixed with white noise; entangled iff p > 1/3."""

    p: float

    def __post_init__(self):
        check_visibility(self.p)


def check_visibility(p: float | np.ndarray) -> None:
    """Raise DomainError unless the Werner visibility p lies in [0, 1].

    An array of int or float dtype is checked whole; when it fails, its
    first bad member raises what it raises alone.  An array of any other
    dtype fails whole.
    """
    if isinstance(p, np.ndarray):
        if not _is_real(p):
            raise DomainError(f"visibility must lie in [0, 1], got an array of dtype {p.dtype}")
        # "not within [0, 1]" rather than "beyond it", so NaN fails too
        outside = ~((0.0 <= p) & (p <= 1.0))
        if outside.any():
            _raise_first_failure(check_visibility, p[outside].tolist())
    elif not _in_unit_interval(p):
        raise DomainError(f"visibility must lie in [0, 1], got {_shown(p, str)}")


@dataclass(frozen=True)
class BdsParams:
    """Correlation triple (t1, t2, t3) of a Bell-diagonal state.

    Valid triples are the points of the tetrahedron whose four vertex
    weights (the Bell-basis eigenvalues) are all non-negative.  Three
    numbers are stored as floats.  Three int or float arrays of one shape
    make a stack of triples, one per entry, each member checked alike;
    the arrays are copied read-only as float arrays.  Arrays mixed with
    numbers, in any order, are refused as a malformed stack.
    """

    t1: float | np.ndarray
    t2: float | np.ndarray
    t3: float | np.ndarray

    def __post_init__(self):
        if any(isinstance(t, np.ndarray) for t in self.as_tuple()):
            self._check_stack()
            return
        try:
            t1, t2, t3 = map(_as_real, self.as_tuple())
            finite = math.isfinite(t1) and math.isfinite(t2) and math.isfinite(t3)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise InvalidParametersError(f"correlations {_shown(self.as_tuple())} must be finite numbers")
        self.__dict__.update(t1=t1, t2=t2, t3=t3)
        smallest = min(bell_weights(t1, t2, t3))
        if smallest < -PSD_TOL:
            raise InvalidParametersError(
                f"correlations {(t1, t2, t3)} lie outside the tetrahedron "
                f"(eigenvalue {smallest:.12g} < 0)"
            )

    def _check_stack(self) -> None:
        try:
            t1, t2, t3 = columns = [_as_reals(t) for t in self.as_tuple()]
        except (TypeError, ValueError):
            raise InvalidParametersError(f"correlations {_shown(self.as_tuple())} must be finite numbers") from None
        if not all(isinstance(t, np.ndarray) for t in columns) or not t1.shape == t2.shape == t3.shape:
            raise InvalidParametersError("a stack of correlation triples needs three arrays of one shape")
        self.__dict__.update(t1=t1, t2=t2, t3=t3)
        # finiteness first: an inf - inf in the eigenvalues would warn
        bad = ~(np.isfinite(t1) & np.isfinite(t2) & np.isfinite(t3))
        if not bad.any():
            w0, w1, w2, w3 = bell_weights(t1, t2, t3)
            bad = np.minimum(np.minimum(w0, w1), np.minimum(w2, w3)) < -PSD_TOL
        if bad.any():
            _raise_first_failure(lambda t: BdsParams(*t), zip(*(c[bad].tolist() for c in columns)))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def _rows(self) -> list[BdsParams]:
        """The members of a checked stack along its first axis, as stacks that share its read-only arrays.

        No row is checked again: the stack was checked whole when it was built.
        """
        return [_unchecked(BdsParams, t1=t1, t2=t2, t3=t3) for t1, t2, t3 in zip(self.t1, self.t2, self.t3)]

    def eigenvalues(self) -> tuple[float, float, float, float]:
        """The four Bell-basis eigenvalues of the state (of each member of a stack)."""
        return bell_weights(self.t1, self.t2, self.t3)


def bell_weights(t1, t2, t3):
    """The four Bell-basis eigenvalues (vertex weights) of the correlations (t1, t2, t3).

    Floats give floats and arrays of one shape give arrays, by the same
    operations; nothing is validated.
    """
    return (
        (1.0 - t1 - t2 - t3) / 4.0,
        (1.0 - t1 + t2 + t3) / 4.0,
        (1.0 + t1 - t2 + t3) / 4.0,
        (1.0 + t1 + t2 - t3) / 4.0,
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
    |psi+-> = (|01> +- |10>)/sqrt(2).  It is the Bell-diagonal state of its
    tetrahedron vertex, a Pauli sum exact in binary: entswap's one Bell basis.
    """
    try:
        triple = _BELL_TRIPLES[index]
    except (KeyError, TypeError):
        raise DomainError(f"unknown Bell state {_shown(index)}") from None
    return make_bell_diagonal(triple)


def make_werner(params: WernerParams | float) -> TwoQubitState:
    """Build ((1-p)/4) I + p |psi-><psi-| for visibility p in [0, 1].

    A p that is not a number, or a stack of visibilities, raises InvalidParametersError.
    """
    if not isinstance(params, WernerParams):
        try:
            p = _as_real(params)
        except (TypeError, ValueError):
            raise InvalidParametersError(f"a visibility is one number, got {_shown(params)}") from None
        params = WernerParams(p)
    elif np.ndim(params.p):
        raise InvalidParametersError("make_werner builds one state, got a stack of visibilities")
    return TwoQubitState((1.0 - params.p) / 4.0 * np.eye(4, dtype=complex) + params.p * _PSI_MINUS)


def _as_bds_params(params) -> BdsParams:
    """A BdsParams as is, a stack included; anything else unpacked as three numbers or three arrays.

    What does not unpack into three raises InvalidParametersError, as
    BdsParams does for values that are not real numbers.
    """
    if isinstance(params, BdsParams):
        return params
    try:
        t1, t2, t3 = params
    except (TypeError, ValueError):
        raise InvalidParametersError(
            f"a correlation triple is three numbers or three arrays, got {_shown(params)}"
        ) from None
    return BdsParams(t1, t2, t3)


def make_bell_diagonal(params: BdsParams | tuple) -> TwoQubitState:
    """Build (1/4)(I(x)I + sum_i t_i sigma_i (x) sigma_i).

    A triple that is not three numbers, or a stack of triples, raises InvalidParametersError.
    """
    params = _as_bds_params(params)
    if np.ndim(params.t1):
        raise InvalidParametersError("make_bell_diagonal builds one state, got a stack of triples")
    m = np.eye(4, dtype=complex)
    for i, t in enumerate(params.as_tuple(), start=1):
        m = m + t * _PAIR[i, i]
    return TwoQubitState(m / 4.0)


_PSI_MINUS = bell_state("psi-").matrix  # the singlet projector that make_werner mixes with noise


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

    A TwoQubitState's form is built from the same einsum without
    BlochForm's range checks: validation already bounds every Pauli
    expectation of such a state.  Its r, s and T are read-only copies of
    their own.  A bare matrix or stack is checked as every BlochForm is.
    """
    m = _as_matrix(state)
    expectations = np.einsum("kij,...ji->...k", _BLOCH_STACK, m).real
    if not isinstance(state, TwoQubitState):
        return BlochForm(expectations[..., :3], expectations[..., 3:6], expectations[..., 6:])
    fields = {"r": expectations[:3].copy(), "s": expectations[3:6].copy(), "T": expectations[6:].reshape(3, 3).copy()}
    for field in fields.values():
        field.flags.writeable = False
    return _unchecked(BlochForm, **fields)


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
    try:
        # operator.index refuses a float or an array, and _is_real a bool, which it would read as 0 or 1
        a, b = (operator.index(i if _is_real(i) else None) for i in (left_pauli, right_pauli))
    except TypeError:
        a = b = -1
    if not (0 <= a <= 3 and 0 <= b <= 3):
        raise DomainError("Pauli indices must be integers in 0..3")
    u = _PAIR[a, b]
    # Paulis are Hermitian and self-inverse, so conjugation is u @ m @ u.
    return TwoQubitState(u @ _as_matrix(state) @ u)


def validate(state) -> StateDiagnostics:
    """Report the invariant residuals of any 4x4 complex matrix.

    Never raises on a 4x4 matrix: the minimum eigenvalue is taken from the
    Hermitian part of the input, and numerical failures surface as nan.
    Input that is not one, a stack included, raises InvalidStateError.
    """
    m = _as_matrix(state)
    if m.ndim != 2:
        raise InvalidStateError(f"validate reports on one 4x4 matrix, got shape {m.shape}")
    defect = float(np.abs(m - m.conj().T).max())
    trace_defect = float(abs(m.trace() - 1.0))
    try:
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    except np.linalg.LinAlgError:
        min_eig = float("nan")
    return StateDiagnostics(defect, trace_defect, min_eig)
