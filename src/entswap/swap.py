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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainSwapError, DomainError, EntswapError
from .states import _PAIR, BELL_KETS, PAULI, TwoQubitState, _as_matrix

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
# middle-pair contraction in _perfect_conditionals.
_PROJECTOR_STACK = np.stack(_PROJECTORS).reshape(4, 2, 2, 2, 2)

# Outcome correction on the right-hand qubit.  Each Bell state carries a
# Pauli label via |B_sigma> = (I (x) sigma)|phi+>; undoing that label folds
# every outcome of a Bell-diagonal input into one and the same state.
_CORRECTION_INDEX = {"phi+": 0, "psi+": 1, "psi-": 2, "phi-": 3}
_CORRECTIONS = _PAIR[0, [_CORRECTION_INDEX[label] for label in OUTCOME_LABELS]]


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


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """An ordered run of n+1 links with one measuring node between each pair."""

    links: tuple[TwoQubitState, ...]
    noise: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.links) < 2:
            raise DomainError("a chain needs at least two links")
        self.noise.check_links(len(self.links))

    @property
    def n_repeaters(self) -> int:
        return len(self.noise)


def noisy_bell_measurement_ops(eta: float) -> list[np.ndarray]:
    """The four operators eta |B_k><B_k| + ((1 - eta)/4) I_4.

    Ordered as OUTCOME_LABELS; they are Hermitian, positive and sum to the
    identity for every eta in [0, 1].
    """
    _check_eta(eta)
    return [eta * p + (1.0 - eta) / 4.0 * _EYE4 for p in _PROJECTORS]


def _perfect_conditionals(left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement states of qubits (1, 4), all outcomes.

    Contracting the middle-pair projector directly against the two link
    matrices is Tr_23[(I (x) P_o (x) I)(L (x) R)] without forming the
    16x16 product:
    out[o][(i l), (i' l')] = sum P_o[(j k), (a b)] L[(i a), (i' j)] R[(b l), (k l')].
    """
    left4 = left_m.reshape(2, 2, 2, 2)
    right4 = right_m.reshape(2, 2, 2, 2)
    out = np.einsum("ojkab,iaxj,blky->oilxy", _PROJECTOR_STACK, left4, right4)
    return out.reshape(4, 4, 4)


def _corrected_conditionals(left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """Unnormalized conditional states of all four outcomes, each corrected.

    The corrections are unitary, so the traces are the outcome probabilities.
    """
    return _CORRECTIONS @ _perfect_conditionals(left_m, right_m) @ _CORRECTIONS


def _perfect_outcomes(left_m: np.ndarray, right_m: np.ndarray):
    """Probabilities, unnormalized corrected states, kept-outcome mask, kept average."""
    corrected = _corrected_conditionals(left_m, right_m)
    probs = np.trace(corrected, axis1=1, axis2=2).real
    kept = probs >= NEGLIGIBLE_PROBABILITY
    return probs, corrected, kept, corrected[kept].sum(axis=0) / probs[kept].sum()


def _perfect_average(left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    return _perfect_outcomes(left_m, right_m)[3]


def swap_once_perfect(left: TwoQubitState, right: TwoQubitState) -> SwapResult:
    """Perfect Bell measurement on the middle qubits of left (x) right.

    Every outcome state carries its correction; ``averaged`` is the
    probability-weighted mixture of the corrected outcomes (negligible
    outcomes are flagged and omitted).  For Bell-diagonal inputs all four
    corrected outcomes coincide, so averaging is lossless there.
    """
    probs, corrected, kept, average = _perfect_outcomes(_as_matrix(left), _as_matrix(right))
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
    # The identity part of each noisy operator conditions nothing and leaves
    # rho_1 (x) rho_4 / 4.  Its four corrected copies sum to 2 rho_1 (x) I,
    # because sum_sigma sigma B sigma = 2 Tr(B) I and Tr(rho_4) = 1.
    left_marginal = np.einsum("ijkj->ik", left_m.reshape(2, 2, 2, 2))
    acc = eta * _corrected_conditionals(left_m, right_m).sum(axis=0)
    acc += (1.0 - eta) / 2.0 * np.kron(left_marginal, _I2)
    return acc / acc.trace().real


def swap_once_povm(left: TwoQubitState, right: TwoQubitState, eta: float) -> TwoQubitState:
    """Imperfect povm-mode swap: the one-node chain (left, right) of :func:`chain_swap`."""
    return chain_swap(ChainSpec((left, right), NoiseModel((eta,))), mode="povm")


def chain_swap(spec: ChainSpec, mode: str = "paper") -> TwoQubitState:
    """Sequential left-to-right swaps along a chain; returns the end-to-end state."""
    if mode not in ("paper", "povm"):
        raise DomainError(f"mode must be 'paper' or 'povm', got {mode!r}")
    step = _swap_once_matrix if mode == "paper" else _swap_once_povm_matrix
    state = _as_matrix(spec.links[0])
    for node, (link, eta) in enumerate(zip(spec.links[1:], spec.noise.etas), start=1):
        try:
            state = step(state, _as_matrix(link), eta)
        except EntswapError as exc:
            raise ChainSwapError(f"swap at node {node} failed: {exc}", node=node) from exc
    return TwoQubitState(state)
