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
axis, and the oracle puts every eta cell of a chain length on one more.
Every stacked result must equal, bit for bit, the single call on each
member, and each cell its evaluation alone.  The closed forms take stacks too, one float column per link
position, and each member must equal its single-chain float.  A closed-form
chunk read in several eta cells shares one final across them, and each
cell must equal its own query.

The swap steps and the fidelity of a validated state are pinned bit for
bit to earlier routes to the same values: the steps to a frozen copy that
reads the whole step table (tests/helpers.py), the fidelity to the one
that goes through pauli_decompose.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entswap import (
    BdsChainQuery,
    BdsParams,
    ChainSpec,
    NoiseModel,
    TwoQubitState,
    WernerChainQuery,
    WernerParams,
    bds_chain_concurrence,
    bds_chain_fidelity,
    bds_final_correlations,
    bell_state,
    chain_swap,
    concurrence,
    make_bell_diagonal,
    make_werner,
    pauli_decompose,
    swap_once,
    swap_once_perfect,
    swap_once_povm,
    teleportation_fidelity,
    werner_chain_concurrence,
    werner_chain_fidelity,
    werner_final_visibility,
)
from entswap.states import PAULI, _checked_density_matrix
from entswap.swap import _chain_matrices, _swap_once_matrix, _swap_once_povm_matrix
from entswap.sweep import _evaluate_chains, _link_stack
from helpers import reference_paper_step, reference_povm_step

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


@PROPERTY_SETTINGS
@given(chains())
@example(((TwoQubitState(_ZERO_ZERO),) * 2, [1.0]))
def test_averaged_perfect_swap_is_the_paper_step_at_eta_one(chain):
    # one definition of the averaged swap, also for |00><00| (x) |00><00|,
    # whose two psi outcomes are negligible
    left, right = chain[0][:2]
    averaged = swap_once_perfect(left, right).averaged.matrix
    assert np.array_equal(averaged, swap_once(left, right, 1.0).matrix)


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


# edge values beside arbitrary ones: the eta threshold 2/3 and both ends,
# the visibility threshold 1/3 and both ends, the tetrahedron's vertices
# (the Bell states) and its centre
ETAS = st.sampled_from([0.0, 2.0 / 3.0, 1.0]) | st.floats(0.0, 1.0)
VISIBILITIES = st.sampled_from([0.0, 1.0 / 3.0, 1.0]) | st.floats(0.0, 1.0)
_VERTICES = np.array([(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)])


@st.composite
def tetrahedron_points(draw):
    """A vertex, the centre, or a convex combination of the four vertices."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.0))
    point = (np.array(weights) / sum(weights)) @ _VERTICES
    special = st.sampled_from([tuple(v) for v in _VERTICES.tolist()] + [(0.0, 0.0, 0.0), (-1 / 3, -1 / 3, -1 / 3)])
    return draw(special | st.just(tuple(point.tolist())))


def _stack(draw, values, n):
    """(rows, etas): rows[j] holds chain j's n + 1 links, for 1..4 chains."""
    count = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(values, min_size=n + 1, max_size=n + 1), min_size=count, max_size=count))
    return rows, draw(st.lists(ETAS, min_size=n, max_size=n))


def _assert_members_equal(stacked, singles):
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(singles),)
    assert all(type(value) is float for value in singles)
    assert stacked.tolist() == singles
    assert np.array_equal(np.signbit(stacked), np.signbit(singles))


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stacked_werner_closed_forms_equal_single_chains(n, data):
    rows, etas = _stack(data.draw, VISIBILITIES, n)
    columns = tuple(np.array(column) for column in zip(*rows))
    query = WernerChainQuery(columns, NoiseModel(tuple(etas)))
    singles = [WernerChainQuery(tuple(row), NoiseModel(tuple(etas))) for row in rows]
    _assert_members_equal(werner_chain_concurrence(query), [werner_chain_concurrence(q) for q in singles])
    _assert_members_equal(werner_chain_fidelity(query), [werner_chain_fidelity(q) for q in singles])


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stacked_bds_closed_forms_equal_single_chains(n, data):
    rows, etas = _stack(data.draw, tetrahedron_points(), n)
    columns = tuple(BdsParams(*np.array(column).T) for column in zip(*rows))
    query = BdsChainQuery(columns, NoiseModel(tuple(etas)))
    singles = [BdsChainQuery(tuple(BdsParams(*t) for t in row), NoiseModel(tuple(etas))) for row in rows]
    _assert_members_equal(bds_chain_concurrence(query), [bds_chain_concurrence(q) for q in singles])
    _assert_members_equal(bds_chain_fidelity(query), [bds_chain_fidelity(q) for q in singles])
    stacked = bds_final_correlations(query).as_tuple()
    for k, component in enumerate(stacked):
        _assert_members_equal(component, [bds_final_correlations(q).as_tuple()[k] for q in singles])


def _signed_zeros(point):
    """A triple with each zero component given a drawn sign."""
    return st.tuples(*(st.sampled_from([0.0, -0.0]) if t == 0.0 else st.just(t) for t in point))


@st.composite
def closedform_cells(draw):
    """(family, params, cells): params[j] holds chain j's n + 1 links, for 1..5 chains, read in 1..4 cells.

    Werner links take +-0.0 and 1 beside arbitrary visibilities; Bell-diagonal
    links take the tetrahedron's vertices (components +-1) and points with
    signed zero components.  Each cell is one per-node eta list, eta 0 and 1
    drawn often.
    """
    family = draw(st.sampled_from(["werner", "bds"]))
    n = draw(st.integers(1, 4))
    if family == "werner":
        link = (st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)).map(WernerParams)
    else:
        link = (tetrahedron_points() | st.sampled_from([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)])).flatmap(_signed_zeros)
        link = link.map(lambda t: BdsParams(*t))
    params = draw(st.lists(st.lists(link, min_size=n + 1, max_size=n + 1), min_size=1, max_size=5))
    node_etas = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cells = draw(st.lists(
        st.lists(node_etas, min_size=n, max_size=n) | node_etas.map(lambda eta: [eta] * n),
        min_size=1, max_size=4,
    ))
    return family, params, cells


@PROPERTY_SETTINGS
@given(closedform_cells())
def test_closedform_cells_equal_single_cell_queries_bit_for_bit(chunk):
    # the cells of a closed-form chunk share its link products and one final;
    # each cell must get the bits of its own query on the chunk's link columns
    family, params, cells = chunk
    noises = [NoiseModel(tuple(etas)) for etas in cells]
    links = _link_stack(family, "closedform", params, None)
    c_out, f_out, finals = _evaluate_chains(family, "closedform", "paper", noises, links)
    assert c_out.shape == f_out.shape == (len(cells), len(params))
    columns = list(zip(*params))
    for k, noise in enumerate(noises):
        if family == "werner":
            query = WernerChainQuery(tuple(np.array([p.p for p in column]) for column in columns), noise)
            c, f, final = werner_chain_concurrence(query), werner_chain_fidelity(query), werner_final_visibility(query)
            assert _same_bits(finals[k], final)
        else:
            triples = tuple(BdsParams(*np.array([t.as_tuple() for t in column]).T) for column in columns)
            query = BdsChainQuery(triples, noise)
            c, f, final = bds_chain_concurrence(query), bds_chain_fidelity(query), bds_final_correlations(query)
            assert all(_same_bits(a, b) for a, b in zip(finals[k].as_tuple(), final.as_tuple()))
        assert _same_bits(c_out[k], c)
        assert _same_bits(f_out[k], f)


def _same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: signed zeros must match too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def two_qubit_matrices(draw):
    """A Ginibre matrix of rank 1..4, or a Bell, Werner or Bell-diagonal matrix.

    The last three hold exact zeros; a drawn flag turns every zero real
    or imaginary part into -0.0.
    """
    kind = draw(st.sampled_from(["ginibre", "bell", "werner", "bds"]))
    if kind == "ginibre":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return ginibre(rng, draw(st.integers(1, 4)))
    if kind == "bell":
        m = bell_state(draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"]))).matrix.copy()
    elif kind == "werner":
        m = make_werner(draw(VISIBILITIES)).matrix.copy()
    else:
        m = make_bell_diagonal(draw(tetrahedron_points())).matrix.copy()
    if draw(st.booleans()):
        m.real[m.real == 0.0] = -0.0
        m.imag[m.imag == 0.0] = -0.0
    return m


@PROPERTY_SETTINGS
@given(two_qubit_matrices())
def test_validated_fidelity_equals_the_pauli_decompose_route_bit_for_bit(matrix):
    # a TwoQubitState's fidelity reads T alone, and must give the bits of
    # the BlochForm route and of the bare matrix, which takes that route
    state = TwoQubitState(matrix)
    f = teleportation_fidelity(state)
    singular = np.linalg.svd(pauli_decompose(state).T, compute_uv=False)
    assert type(f) is float
    assert f == float((1.0 + singular.sum(axis=-1) / 3.0) / 2.0)
    assert f == teleportation_fidelity(state.matrix)


_STEPS = {"paper": (_swap_once_matrix, reference_paper_step), "povm": (_swap_once_povm_matrix, reference_povm_step)}


@PROPERTY_SETTINGS
@given(stacked_chains(), st.sampled_from(["paper", "povm"]))
def test_swap_steps_equal_the_whole_table_reference_bit_for_bit(chain, mode):
    chains, etas, _ = chain
    step, reference = _STEPS[mode]
    links = np.array([[state.matrix for state in column] for column in zip(*chains)])
    left = links[0]
    for right, eta in zip(links[1:], etas):
        out = step(left, right, eta)
        assert _same_bits(out, reference(left, right, eta))
        for member, (l, r) in enumerate(zip(left, right)):
            assert _same_bits(step(l, r, eta), out[member])
            assert _same_bits(reference(l, r, eta), out[member])
        left = out


@PROPERTY_SETTINGS
@given(stacked_chains(), st.sampled_from(["paper", "povm"]))
def test_chain_steps_never_write_into_their_links(chain, mode):
    # each step returns a new array; bare writable links, as a stack and
    # as one chain's list, must keep their bytes
    chains, etas, _ = chain
    noise = NoiseModel(tuple(etas))
    links = np.array([[state.matrix for state in column] for column in zip(*chains)])
    single = [m.copy() for m in links[:, 0]]
    stack_bytes, single_bytes = links.tobytes(), [m.tobytes() for m in single]
    assert links.flags.writeable and all(m.flags.writeable for m in single)
    _chain_matrices(links, noise, mode)
    _chain_matrices(single, noise, mode)
    assert links.tobytes() == stack_bytes
    assert [m.tobytes() for m in single] == single_bytes


@st.composite
def stacked_cells(draw):
    """(links, cells, clamp): a links[k, j] stack of 1..5 chains and the etas of 1..4 cells.

    Each cell is one per-node eta list; the sweep's cells of one eta are
    the lists whose entries are equal.  With ``clamp`` set, chain
    ``clamp[0]`` starts with a link pushed below zero and continues with
    phi+ links, and cell ``clamp[1]`` has eta 1 at every node, so its
    member of that chain keeps the negative eigenvalue and takes the PSD
    clamp of the final validation.
    """
    chains, _, rng = draw(stacked_chains())
    n = len(chains[0]) - 1
    count = draw(st.integers(1, 4))
    node_etas = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cells = draw(st.lists(
        st.lists(node_etas, min_size=n, max_size=n) | node_etas.map(lambda eta: [eta] * n),
        min_size=count, max_size=count,
    ))
    links = np.array([[state.matrix for state in column] for column in zip(*chains)])
    clamp = None
    if draw(st.booleans()):
        clamp = (draw(st.integers(0, len(chains) - 1)), draw(st.integers(0, count - 1)))
        links[0, clamp[0]] = below_zero(rng)
        links[1:, clamp[0]] = bell_state("phi+").matrix
        cells[clamp[1]] = [1.0] * n
    return links, cells, clamp


@PROPERTY_SETTINGS
@given(stacked_cells(), st.sampled_from(["paper", "povm"]))
def test_stacked_cells_equal_single_cell_evaluations_bit_for_bit(stack, mode):
    # every eta cell of a sweep's n is one stack with a leading cell axis;
    # each cell must get the bits of its own evaluation on the chains alone
    links, cells, clamp = stack
    noises = [NoiseModel(tuple(etas)) for etas in cells]
    c_out, f_out, finals = _evaluate_chains("general", "oracle", mode, noises, links)
    assert c_out.shape == f_out.shape == (len(cells), links.shape[1])
    assert finals.shape == (len(cells),) + links.shape[1:]
    for k, noise in enumerate(noises):
        raw = _chain_matrices(links, noise, mode)
        if clamp is not None and k == clamp[1]:
            assert np.linalg.eigvalsh(raw[clamp[0]])[0] < 0.0
        final = _checked_density_matrix(raw, links.shape[1:], "two-qubit state")
        assert _same_bits(finals[k], final)
        assert _same_bits(c_out[k], concurrence(final))
        assert _same_bits(f_out[k], teleportation_fidelity(final))
