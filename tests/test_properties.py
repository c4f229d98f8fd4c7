"""Property tests of the dense chain oracle on arbitrary Ginibre links.

The Pauli-frame formula below is an independent route to the chain's
end-to-end state: write a link as Theta_ij = Tr(rho sigma_i (x) sigma_j),
i, j = 0..3.  Each outcome-averaged, corrected swap multiplies the running
Theta on the right by D = diag(1, T_11, -T_22, T_33) of the next link's
correlation diagonal, then scales it per node: in paper mode every entry
but Theta_00 by eta/(4 - 3 eta); in povm mode every column but column 0
(the left Bloch vector) by eta.

POVM chains are associative, so swapping sub-chains in any grouping gives
the same state.  Paper-mode chains are not, for general links: left to
right, the left Bloch vector is scaled at every node, but a sub-chain
joined from the right scales it only at the joining node.  The package
evaluates chains left to right.

A sweep evaluates its chains as stacks with the samples on a leading
axis.  Every stacked result must equal, bit for bit, the single call on
each member.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    ChainSpec,
    NoiseModel,
    TwoQubitState,
    chain_swap,
    concurrence,
    swap_once_povm,
    teleportation_fidelity,
)
from entswap.states import PAULI, _checked_density_matrix
from entswap.swap import _chain_matrices

_PAIRS = np.array([[np.kron(PAULI[i], PAULI[j]) for j in range(4)] for i in range(4)])

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def pauli_frame(matrix):
    """Theta_ij = Tr(rho sigma_i (x) sigma_j)."""
    return np.einsum("ijab,ba->ij", _PAIRS, matrix).real


def ginibre(rng, rank):
    """Random density matrix G G+ / Tr(G G+) with G of shape 4 x rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / m.trace().real


@st.composite
def chains(draw):
    """(links, etas): 2..6 links of rank 1..4 and one eta in [0, 1] per node."""
    n = draw(st.integers(1, 5))
    ranks = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
    etas = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(TwoQubitState(ginibre(rng, rank)) for rank in ranks), etas


_ZERO_ZERO = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


@st.composite
def stacked_chains(draw):
    """(links, etas, rng): links[j][k] is link k of chain j, for 1..5 chains of n + 1 links.

    Links are Ginibre states of rank 1..4.  When there are two chains or
    more, one may consist of |00><00| links, whose first swap has two
    negligible outcomes, beside general chains that have none.
    """
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    ranks = draw(st.lists(st.integers(1, 4), min_size=(n + 1) * count, max_size=(n + 1) * count))
    etas = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    links = [[TwoQubitState(ginibre(rng, rank)) for rank in ranks[j * (n + 1):(j + 1) * (n + 1)]] for j in range(count)]
    if count > 1:
        zero_chain = draw(st.none() | st.integers(0, count - 1))
        if zero_chain is not None:
            links[zero_chain] = [TwoQubitState(_ZERO_ZERO)] * (n + 1)
    return links, etas, rng


def below_zero(rng):
    """A rank-3 state pushed 1e-12 below zero along its null vector."""
    m = ginibre(rng, 3)
    null = np.linalg.eigh(m)[1][:, 0]
    m = m - 1e-12 * np.outer(null, null.conj())
    return m / m.trace().real


def pauli_frame_chain(links, etas, mode):
    theta = pauli_frame(links[0].matrix)
    for link, eta in zip(links[1:], etas):
        t = pauli_frame(link.matrix)
        theta = theta @ np.diag([1.0, t[1, 1], -t[2, 2], t[3, 3]])
        if mode == "paper":
            theta = theta * (eta / (4.0 - 3.0 * eta))
            theta[0, 0] = 1.0
        else:
            theta[:, 1:] *= eta
    return theta


@PROPERTY_SETTINGS
@given(chains(), st.sampled_from(["paper", "povm"]))
def test_chain_swap_matches_pauli_frame_formula(chain, mode):
    links, etas = chain
    final = chain_swap(ChainSpec(links, NoiseModel(tuple(etas))), mode=mode)
    assert np.abs(pauli_frame(final.matrix) - pauli_frame_chain(links, etas, mode)).max() <= 1e-12


@PROPERTY_SETTINGS
@given(chains(), st.sampled_from(["paper", "povm"]))
def test_chain_outputs_have_valid_measures(chain, mode):
    links, etas = chain
    final = chain_swap(ChainSpec(links, NoiseModel(tuple(etas))), mode=mode)
    assert 0.0 <= concurrence(final) <= 1.0 + 1e-12
    assert 0.5 <= teleportation_fidelity(final) <= 1.0 + 1e-12


def _povm_chain(links, etas):
    if len(links) == 1:
        return links[0]
    return chain_swap(ChainSpec(links, NoiseModel(tuple(etas))), mode="povm")


@PROPERTY_SETTINGS
@given(chains(), st.data())
def test_povm_chains_are_associative(chain, data):
    links, etas = chain
    # join the sub-chains left and right of node k with that node's eta
    k = data.draw(st.integers(1, len(etas)))
    joined = swap_once_povm(
        _povm_chain(links[:k], etas[: k - 1]), _povm_chain(links[k:], etas[k:]), etas[k - 1]
    )
    direct = _povm_chain(links, etas)
    assert np.abs(joined.matrix - direct.matrix).max() <= 1e-12


@PROPERTY_SETTINGS
@given(stacked_chains(), st.sampled_from(["paper", "povm"]))
def test_stacked_evaluation_equals_single_calls_bit_for_bit(chain, mode):
    chains, etas, rng = chain
    noise = NoiseModel(tuple(etas))
    # links[k, j] is link k of chain j, as a sweep stacks them
    links = np.array([[state.matrix for state in column] for column in zip(*chains)])
    count = len(chains)
    finals = _checked_density_matrix(_chain_matrices(links, noise, mode), (count, 4, 4), "two-qubit state")
    singles = [chain_swap(ChainSpec(tuple(states), noise), mode=mode).matrix for states in chains]
    assert np.array_equal(finals, singles)
    for stack in (links, finals):
        members = stack.reshape(-1, 4, 4)
        assert np.array_equal(concurrence(stack).reshape(-1), [concurrence(m) for m in members])
        assert np.array_equal(teleportation_fidelity(stack).reshape(-1), [teleportation_fidelity(m) for m in members])

    # validation of a stack whose one member takes the PSD clamp
    stack = links.copy()
    stack[-1, -1] = below_zero(rng)
    assert np.linalg.eigvalsh(stack[-1, -1])[0] < 0.0
    checked = _checked_density_matrix(stack, stack.shape, "two-qubit state")
    assert np.array_equal(checked.reshape(-1, 4, 4), [TwoQubitState(m).matrix for m in stack.reshape(-1, 4, 4)])
    assert np.linalg.eigvalsh(checked[-1, -1])[0] >= -1e-15
