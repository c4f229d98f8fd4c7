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

The Bell measurement is stated once, as the conditional-state formula
(:func:`_corrected_conditionals`).  Chain steps read two bilinear tables
built from it at import (:func:`_swap_tables`) as vec R @ (vec L @ table),
never forming the joined 16x16 state.  The perfect table sums the formula
over outcomes with the Bell projectors (:func:`entswap.states.bell_state`'s
exact Pauli sums), for paper steps.  The step table holds that sum beside
the sum with I_4/4 as every operator, which a povm step mixes in by eta:
the operators of :func:`noisy_bell_measurement_ops` are linear in eta.
:func:`swap_once_perfect` applies the formula directly, per outcome.

The kernels take (..., 4, 4) stacks of links, one pair per sample on the
leading axes; one chain is the case without leading axes.  A sweep
evaluates its chains as such stacks (:func:`_chain_matrices`), every eta
cell of a chain length at once: each node's eta is then a column over a
leading cell axis, which the links lack until the first step widens them;
later links are broadcast across it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainSwapError, DomainError, EntswapError, _shown
from .states import _PAIR, TwoQubitState, _in_unit_interval, bell_state

#: Bell measurement outcomes in a fixed reporting order.
OUTCOME_LABELS = ("phi+", "phi-", "psi+", "psi-")

#: In swap_once_perfect's per-outcome results, outcomes with probability
#: below this are flagged and left uncorrected.  Averages and chain steps
#: keep every outcome: a negligible one moves them by less than this.
NEGLIGIBLE_PROBABILITY = 1e-14

_EYE4 = np.eye(4, dtype=complex)

_PROJECTORS = tuple(bell_state(label).matrix for label in OUTCOME_LABELS)

# Outcome correction on the right-hand qubit.  Each Bell state carries a
# Pauli label via |B_sigma> = (I (x) sigma)|phi+>; undoing that label folds
# every outcome of a Bell-diagonal input into one and the same state.
_CORRECTION_INDEX = {"phi+": 0, "psi+": 1, "psi-": 2, "phi-": 3}
_CORRECTIONS = _PAIR[0, [_CORRECTION_INDEX[label] for label in OUTCOME_LABELS]]


def _corrected_conditionals(ops, left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """C_o Tr_23[(I (x) M_o (x) I)(L (x) R)] C_o for the four operators M_o, as (..., 4, 4, 4).

    With each index split into qubits,
    out_o[(i l), (x y)] = sum M_o[(j k), (a b)] L[(i a), (x j)] R[(b l), (k y)],
    and C_o is outcome o's correction on the right-hand qubit.  L and R
    are (..., 4, 4) stacks that broadcast against each other.
    """
    split = (2, 2, 2, 2)
    out = np.einsum(
        "ojkab,...iaxj,...blky->...oilxy",
        np.reshape(ops, (4,) + split),
        left_m.reshape(left_m.shape[:-2] + split),
        right_m.reshape(right_m.shape[:-2] + split),
        optimize=True,
    )
    return _CORRECTIONS @ out.reshape(out.shape[:-4] + (4, 4)) @ _CORRECTIONS


def _bilinear(table: np.ndarray, left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """vec R @ (vec L @ table) for each pair of links, as (..., part, 4, 4).

    The links are (..., 4, 4) stacks; the left ones meet the table in one
    matrix product, so a stack costs one pass over the table.
    """
    lead = left_m.shape[:-2]
    half = (left_m.reshape(lead + (16,)) @ table).reshape(lead + (16, -1))
    return (right_m.reshape(lead + (1, 16)) @ half).reshape(lead + (-1, 4, 4))


def _normalize(m: np.ndarray) -> np.ndarray:
    """Each (..., 4, 4) member of m divided by its own trace."""
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def _check_eta(eta: float) -> float:
    if not _in_unit_interval(eta):
        raise DomainError(f"measurement success probability must lie in [0, 1], got {_shown(eta, str)}")
    return float(eta)


@dataclass(frozen=True)
class NoiseModel:
    """Per-node measurement success probabilities eta_i, one per swap."""

    etas: tuple[float, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "etas", tuple(map(_check_eta, self.etas)))
        except TypeError:  # not a sequence; _check_eta refuses a non-number member itself
            raise DomainError(f"etas must be a sequence of success probabilities, got {_shown(self.etas)}") from None

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


def _as_noise(noise) -> NoiseModel:
    """A NoiseModel as is; any other sequence of etas checked as one."""
    return noise if isinstance(noise, NoiseModel) else NoiseModel(noise)


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """An ordered run of n+1 links with one measuring node between each pair.

    Links that are not TwoQubitStates, and etas not a NoiseModel, are checked as such.
    """

    links: tuple[TwoQubitState, ...]
    noise: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(map(_as_state, self.links)))
        object.__setattr__(self, "noise", _as_noise(self.noise))
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


def _swap_tables() -> tuple[np.ndarray, np.ndarray]:
    """The perfect and step tables: the swap of L and R as bilinear maps of vec L and vec R.

    Each entry sums :func:`_corrected_conditionals` of one pair of matrix
    units, L = E_u and R = E_v, over the outcomes; rows are vec L.  The
    perfect table's columns are (vec R, vec out), the sum at eta = 1.  The
    step table's columns are (vec R, part, vec out): part 0 is that sum and
    part 1 the sum at eta = 0, the povm noise term.
    """
    unit = np.eye(16, dtype=complex).reshape(16, 4, 4)
    perfect, noise = (
        _corrected_conditionals(noisy_bell_measurement_ops(eta), unit[:, None], unit[None, :]).sum(axis=2)
        for eta in (1.0, 0.0)
    )
    return perfect.reshape(16, -1), np.stack([perfect, noise], axis=2).reshape(16, -1)


_PERFECT_TABLE, _STEP_TABLE = _swap_tables()


def _perfect_average(left_m: np.ndarray, right_m: np.ndarray) -> np.ndarray:
    """The perfect swap averaged over its four corrected outcomes, normalized."""
    return _normalize(_bilinear(_PERFECT_TABLE, left_m, right_m)[..., 0, :, :])


def swap_once_perfect(left: TwoQubitState, right: TwoQubitState) -> SwapResult:
    """Perfect Bell measurement on the middle qubits of left (x) right.

    Every outcome state carries its correction (negligible outcomes are
    flagged and left without a state); ``averaged`` is the mixture of all
    four corrected outcomes, the perfect swap of every chain step.  For
    Bell-diagonal inputs all four corrected outcomes coincide, so
    averaging is lossless there.  A link that is not a TwoQubitState is
    validated as one.
    """
    left_m, right_m = _as_state(left).matrix, _as_state(right).matrix
    # unnormalized corrected conditionals; the corrections are unitary, so
    # their traces are the outcome probabilities
    corrected = _corrected_conditionals(_PROJECTORS, left_m, right_m)
    probs = corrected.trace(axis1=-2, axis2=-1).real
    outcomes = tuple(
        SwapOutcome(label, p, None, True)
        if p < NEGLIGIBLE_PROBABILITY
        else SwapOutcome(label, p, TwoQubitState(c / p), False)
        for label, p, c in zip(OUTCOME_LABELS, probs, corrected)
    )
    averaged = TwoQubitState(_perfect_average(left_m, right_m))
    return SwapResult(outcomes, averaged, averaged)


# eta is a float, or a column of cells' etas that broadcasts over the links.
def _swap_once_matrix(left_m: np.ndarray, right_m: np.ndarray, eta) -> np.ndarray:
    return (eta * _perfect_average(left_m, right_m) + (1.0 - eta) * _EYE4) / (4.0 - 3.0 * eta)


def swap_once(left: TwoQubitState, right: TwoQubitState, eta: float) -> TwoQubitState:
    """Imperfect paper-mode swap: the one-node chain (left, right) of :func:`chain_swap`."""
    return chain_swap(ChainSpec((left, right), NoiseModel((eta,))))


def _swap_once_povm_matrix(left_m: np.ndarray, right_m: np.ndarray, eta) -> np.ndarray:
    parts = _bilinear(_STEP_TABLE, left_m, right_m)
    return _normalize(eta * parts[..., 0, :, :] + (1.0 - eta) * parts[..., 1, :, :])


def swap_once_povm(left: TwoQubitState, right: TwoQubitState, eta: float) -> TwoQubitState:
    """Imperfect povm-mode swap: the one-node chain (left, right) of :func:`chain_swap`."""
    return chain_swap(ChainSpec((left, right), NoiseModel((eta,))), mode="povm")


def chain_swap(spec: ChainSpec, mode: str = "paper") -> TwoQubitState:
    """Sequential left-to-right swaps along a chain; returns the end-to-end state."""
    return TwoQubitState(_chain_matrices([link.matrix for link in spec.links], spec.noise, mode))


def _chain_matrices(links, noise, mode: str) -> np.ndarray:
    """End-to-end matrices of chains swapped left to right, not yet validated.

    ``links[k]`` holds the k-th link of every chain as a (..., 4, 4) stack
    of density matrices; one chain is the case without leading axes.
    ``noise`` is one NoiseModel, or a sequence of K of one length, the eta
    cells: node i then reads the (K, 1, ..., 1) column of the cells' eta_i,
    broadcast over a leading cell axis, and the result is the (K, ..., 4, 4)
    stack of every cell's matrices.  Each member gets the bits of its cell's
    chain alone.
    """
    if mode not in ("paper", "povm"):
        raise DomainError(f"mode must be 'paper' or 'povm', got {_shown(mode)}")
    step = _swap_once_matrix if mode == "paper" else _swap_once_povm_matrix
    if isinstance(noise, NoiseModel):
        etas = noise.etas
    else:
        columns = np.array([cell.etas for cell in noise], dtype=float).T
        etas = columns.reshape(columns.shape + (1,) * np.ndim(links[0]))
        # the first step widens the chains to the cell axis; later links are read across it
        links = list(links[:2]) + [np.broadcast_to(link, (len(noise),) + np.shape(link)) for link in links[2:]]
    state = links[0]
    for node, (link, eta) in enumerate(zip(links[1:], etas, strict=True), start=1):
        try:
            state = step(state, link, eta)
        except EntswapError as exc:
            raise ChainSwapError(f"swap at node {node} failed: {exc}", node=node) from exc
    return state
