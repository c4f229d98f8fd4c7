"""Density-matrix engine for single and chained entanglement swaps.

The middle node of a joined pair of links measures its two qubits in the
Bell basis.  Two noise conventions are provided for an imperfect
measurement with success probability eta:

* ``paper`` mode mixes the perfect post-swap state with the *unnormalized*
  identity, rho -> (eta rho + (1 - eta) I_4) / (4 - 3 eta).  A chain of
  maximally entangled links then loses all entanglement at eta <= 2/3.
* ``povm`` mode applies the noisy measurement operators
  M_k = eta P_k + (1 - eta)/4 I_4 directly, which instead mixes in
  rho_1 (x) I/2, rho_1 being the left link's outer-qubit marginal, and
  keeps entanglement of perfect links down to eta > 1/3.  For Werner and
  Bell-diagonal links rho_1 = I/2, so the noise term is I_4/4.

The oracle is one bilinear table per mode, built once at import from the
Bell projectors and the outcome corrections (:func:`_swap_tables`): a
swap step reads vec R @ (vec L @ table) and never forms the joined 16x16
state.  The povm table holds the noise term as rho_1 (x) I/2 Tr R, which
is rho_1 (x) I/2 because Tr R = 1 (to the 1e-12 trace tolerance): R is
always a link of a :class:`ChainSpec`, and every link is a validated
TwoQubitState (bare arrays are validated when the spec is built).

The kernels take (..., 4, 4) stacks of links, one pair per sample on the
leading axes; one chain is the case without leading axes.  A sweep
evaluates its chains as such stacks (:func:`_chain_matrices`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainSwapError, DomainError, EntswapError
from .states import _PAIR, BELL_KETS, PAULI, TwoQubitState

#: Bell measurement outcomes in a fixed reporting order.
OUTCOME_LABELS = ("phi+", "phi-", "psi+", "psi-")

#: Outcomes with probability below this are flagged and left uncorrected.
NEGLIGIBLE_PROBABILITY = 1e-14

_EYE4 = np.eye(4, dtype=complex)
_I2 = PAULI[0]

_PROJECTORS = tuple(
    np.outer(BELL_KETS[label], BELL_KETS[label].conj()) for label in OUTCOME_LABELS
)
# Projectors stacked and index-split (outcome, j, k, j', k') for the
# middle-pair contraction in _swap_tables.
_PROJECTOR_STACK = np.stack(_PROJECTORS).reshape(4, 2, 2, 2, 2)

# Outcome correction on the right-hand qubit.  Each Bell state carries a
# Pauli label via |B_sigma> = (I (x) sigma)|phi+>; undoing that label folds
# every outcome of a Bell-diagonal input into one and the same state.
_CORRECTION_INDEX = {"phi+": 0, "psi+": 1, "psi-": 2, "phi-": 3}
_CORRECTIONS = _PAIR[0, [_CORRECTION_INDEX[label] for label in OUTCOME_LABELS]]


def _swap_tables() -> tuple[np.ndarray, np.ndarray]:
    """The swap of links L and R as bilinear maps of vec L and vec R.

    Measuring the middle pair of L (x) R with P_o leaves qubits (1, 4) in
    Tr_23[(I (x) P_o (x) I)(L (x) R)], that is
    out_o[(i l), (x y)] = sum P_o[(j k), (a b)] L[(i a), (x j)] R[(b l), (k y)].
    For the matrix units L = E_(ia),(xj) and R = E_(bl),(ky) the sum is the
    one projector entry P_o[(j k), (a b)] at ((i l), (x y)), so the table of
    every unit pair is a scatter of projector entries.  Each outcome's
    correction C X C is then applied to vec out as the matrix kron(C^T, C).

    Rows are vec L.  The paper table's columns are (vec R, outcome, vec out)
    and hold each corrected conditional.  The povm table's columns are
    (vec R, part, vec out): part 0 is the sum of the corrected conditionals,
    part 1 the noise term rho_1 (x) I/2 Tr R.  The identity part of each
    noisy operator conditions nothing and leaves rho_1 (x) rho_4 / 4; its
    four corrected copies sum to 2 rho_1 (x) I Tr R, because
    sum_sigma sigma B sigma = 2 Tr(B) I.
    """
    i, a, x, j, b, l, k, y = np.indices((2,) * 8).reshape(8, -1)
    units = np.zeros((16, 16, 4, 16), dtype=complex)
    units[8 * i + 4 * a + 2 * x + j, 8 * b + 4 * l + 2 * k + y, :, 8 * i + 4 * l + 2 * x + y] = (
        _PROJECTOR_STACK[:, j, k, a, b].T
    )
    correct = np.einsum("oba,ocd->oacbd", _CORRECTIONS, _CORRECTIONS).reshape(4, 16, 16)
    corrected = (units.reshape(256, 4, 16).transpose(1, 0, 2) @ correct).transpose(1, 0, 2)
    unit = np.eye(16, dtype=complex)
    left_noise = np.einsum("uijkj,lm->uilkm", unit.reshape(16, 2, 2, 2, 2), _I2 / 2.0)
    right_trace = np.trace(unit.reshape(16, 4, 4), axis1=1, axis2=2)
    povm = np.empty((16, 16, 2, 16), dtype=complex)
    povm[:, :, 0] = corrected.sum(axis=1).reshape(16, 16, 16)
    povm[:, :, 1] = left_noise.reshape(16, 1, 16) * right_trace.reshape(1, 16, 1)
    return corrected.reshape(16, 16 * 4 * 16), povm.reshape(16, 16 * 2 * 16)


# Built once at import; every swap step reads one of them.
_PAPER_TABLE, _POVM_TABLE = _swap_tables()


def _bilinear(table: np.ndarray, left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """vec R @ (vec L @ table) for each pair of links, as (..., part, 4, 4).

    The links are (..., 4, 4) stacks; the left ones meet the table in one
    matrix product, so a stack costs one pass over the table.
    """
    lead = left_m.shape[:-2]
    half = (left_m.reshape(lead + (16,)) @ table).reshape(lead + (16, -1))
    return (right_m.reshape(lead + (1, 16)) @ half).reshape(lead + (-1, 4, 4))


def _divide_members(m: np.ndarray, divisors) -> np.ndarray:
    """Each (..., 4, 4) member of m divided by its entry of the (...) divisors.

    Transposing moves the member axes to the front, so the divisors
    broadcast over the reversed leading axes; one matrix divides by a
    plain scalar, which costs less than broadcasting a (1, 1) array.
    """
    return (m.T / divisors.T).T


def _check_eta(eta: float) -> float:
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"measurement success probability must lie in [0, 1], got {eta}")
    return float(eta)


@dataclass(frozen=True)
class NoiseModel:
    """Per-node measurement success probabilities eta_i, one per swap."""

    etas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(_check_eta(e) for e in self.etas))

    def __len__(self) -> int:
        return len(self.etas)

    def check_links(self, count: int) -> None:
        """Raise DomainError unless ``count`` links match these nodes (one more link than etas)."""
        if count != len(self.etas) + 1:
            raise DomainError(f"{count} links require {count - 1} eta values, got {len(self.etas)}")


@dataclass(frozen=True, eq=False)
class SwapOutcome:
    """One Bell outcome: its probability and corrected conditional state.

    ``state`` is None and ``negligible`` is True when the outcome
    probability falls below NEGLIGIBLE_PROBABILITY.
    """

    label: str
    probability: float
    state: TwoQubitState | None
    negligible: bool


@dataclass(frozen=True, eq=False)
class SwapResult:
    """Per-outcome data of a perfect swap plus the outcome-averaged state."""

    per_outcome: tuple[SwapOutcome, ...]
    averaged: TwoQubitState
    paper_convention: TwoQubitState


def _as_state(state) -> TwoQubitState:
    """A TwoQubitState as is; anything else validated as one."""
    return state if isinstance(state, TwoQubitState) else TwoQubitState(state)


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """An ordered run of n+1 links with one measuring node between each pair.

    A link that is not a TwoQubitState is validated as one.
    """

    links: tuple[TwoQubitState, ...]
    noise: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(map(_as_state, self.links)))
        _check_chain(self.noise, len(self.links))

    @property
    def n_repeaters(self) -> int:
        return len(self.noise)


def _check_chain(noise: NoiseModel, count: int) -> None:
    """Raise DomainError unless ``count`` links, at least two, match the nodes of ``noise``."""
    if count < 2:
        raise DomainError("a chain needs at least two links")
    noise.check_links(count)


def noisy_bell_measurement_ops(eta: float) -> list[np.ndarray]:
    """The four operators eta |B_k><B_k| + ((1 - eta)/4) I_4.

    Ordered as OUTCOME_LABELS; they are Hermitian, positive and sum to the
    identity for every eta in [0, 1].
    """
    _check_eta(eta)
    return [eta * p + (1.0 - eta) / 4.0 * _EYE4 for p in _PROJECTORS]


def _perfect_outcomes(left_m: np.ndarray, right_m: np.ndarray):
    """Probabilities, unnormalized corrected states, kept-outcome mask, kept average.

    The corrected states are the unnormalized conditional states of all
    four outcomes, each corrected, as (..., 4, 4, 4).  The corrections are
    unitary, so their traces are the outcome probabilities.  The mask is
    per pair of links: a dropped outcome adds an exact zero, so each
    pair's average is the sum over its own kept outcomes.
    """
    corrected = _bilinear(_PAPER_TABLE, left_m, right_m)
    probs = corrected.trace(axis1=-2, axis2=-1).real
    kept = probs >= NEGLIGIBLE_PROBABILITY
    total = np.where(kept, probs, 0.0).sum(axis=-1)
    average = _divide_members(np.where(kept[..., None, None], corrected, 0.0).sum(axis=-3), total)
    return probs, corrected, kept, average


def _perfect_average(left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    return _perfect_outcomes(left_m, right_m)[3]


def swap_once_perfect(left: TwoQubitState, right: TwoQubitState) -> SwapResult:
    """Perfect Bell measurement on the middle qubits of left (x) right.

    Every outcome state carries its correction; ``averaged`` is the
    probability-weighted mixture of the corrected outcomes (negligible
    outcomes are flagged and omitted).  For Bell-diagonal inputs all four
    corrected outcomes coincide, so averaging is lossless there.  A link
    that is not a TwoQubitState is validated as one.
    """
    probs, corrected, kept, average = _perfect_outcomes(_as_state(left).matrix, _as_state(right).matrix)
    outcomes = tuple(
        SwapOutcome(label, p, TwoQubitState(c / p) if k else None, not k)
        for label, p, c, k in zip(OUTCOME_LABELS, probs, corrected, kept)
    )
    averaged = TwoQubitState(average)
    return SwapResult(outcomes, averaged, averaged)


def _swap_once_matrix(left_m: np.ndarray, right_m: np.ndarray, eta: float) -> np.ndarray:
    perfect = _perfect_average(left_m, right_m)
    return (eta * perfect + (1.0 - eta) * _EYE4) / (4.0 - 3.0 * eta)


def swap_once(left: TwoQubitState, right: TwoQubitState, eta: float) -> TwoQubitState:
    """Imperfect paper-mode swap: the one-node chain (left, right) of :func:`chain_swap`."""
    return chain_swap(ChainSpec((left, right), NoiseModel((eta,))))


def _swap_once_povm_matrix(left_m: np.ndarray, right_m: np.ndarray, eta: float) -> np.ndarray:
    parts = _bilinear(_POVM_TABLE, left_m, right_m)
    acc = eta * parts[..., 0, :, :] + (1.0 - eta) * parts[..., 1, :, :]
    return _divide_members(acc, acc.trace(axis1=-2, axis2=-1).real)


def swap_once_povm(left: TwoQubitState, right: TwoQubitState, eta: float) -> TwoQubitState:
    """Imperfect povm-mode swap: the one-node chain (left, right) of :func:`chain_swap`."""
    return chain_swap(ChainSpec((left, right), NoiseModel((eta,))), mode="povm")


def chain_swap(spec: ChainSpec, mode: str = "paper") -> TwoQubitState:
    """Sequential left-to-right swaps along a chain; returns the end-to-end state."""
    return TwoQubitState(_chain_matrices([link.matrix for link in spec.links], spec.noise, mode))


def _chain_matrices(links, noise: NoiseModel, mode: str) -> np.ndarray:
    """End-to-end matrices of chains swapped left to right, not yet validated.

    ``links[k]`` holds the k-th link of every chain as a (..., 4, 4) stack
    of density matrices; one chain is the case without leading axes.
    """
    if mode not in ("paper", "povm"):
        raise DomainError(f"mode must be 'paper' or 'povm', got {mode!r}")
    step = _swap_once_matrix if mode == "paper" else _swap_once_povm_matrix
    state = links[0]
    for node, (link, eta) in enumerate(zip(links[1:], noise.etas, strict=True), start=1):
        try:
            state = step(state, link, eta)
        except EntswapError as exc:
            raise ChainSwapError(f"swap at node {node} failed: {exc}", node=node) from exc
    return state
