"""Seeded sampling of state families, batch chain evaluation and reporting.

A sweep walks a set of (n, eta) cells.  Random-mode samples are drawn from
a counter-based generator keyed by (seed, sample index), so sample k sees
the same link states in every cell and results do not depend on evaluation
order.  One generator serves each (sweep, n): it is restarted for each
sample, which then reads exactly the stream of link_generator(seed, index)
without building a new generator.  Nothing but the sample's links reads the
stream before the next restart, so a Werner or BDS sample's uniforms are
drawn a block at a time and handed out in stream order (_SampleUniforms):
each try gets the doubles its own random() or random(3) call would, and so
each draw is the same.  Grid mode enumerates deterministic parameter grids:
the Cartesian product of per-link visibility grids for the Werner family,
and one shared correlation triple per grid point (identical links) for the
Bell-diagonal family.

The links of each (sample, n) are drawn or enumerated once, a chunk of
samples at a time, and every eta cell of that n reads the chunk through
_evaluate_chains.  Both link sources hand run_sweep whole chunks: their
indices, link tuples, input concurrences and stack.  A random chunk's stack
is gathered from its drawn links.  A grid chunk's is gathered from its
axis: each axis value's parameters, or on the oracle its validated dense
matrix, are built once, and a Werner record's k-th link is digit k of its
index in base len(axis).  The closed forms take CHUNK_SIZE samples as one
(n+1, N) parameter stack, checked once, whose link products serve every
cell: each cell's node scale is a row of one (cells, N) final, and each
closed form is called once per cell on a query that reads its row.  On the
oracle all cells of an n are one stack of at most CHUNK_SIZE chains
(cells x samples): a chunk holds CHUNK_SIZE // cells samples, and each
node's eta is a column over the cells.  A general chunk drawn without
entangled_inputs_only reads each link's normals through _SampleNormals,
then forms every G, G G+ and trace as one stack (_hilbert_schmidt), and
checks and Pauli-decomposes that stack, member by member, so each link
gets the bits it gets formed and checked alone.  A random chunk's input
concurrences are read off its stack in one call.  A single chain
(evaluate_chain) is the stack of one chain in one cell.  Each cell's
row of a chunk's results is kept with the chunk's columns as one block,
and run_sweep returns the blocks as a SweepRecords: a sequence that
builds a SweepRecord only when one is read, and from whose columns
write_csv reads its rows without building any.
ENTSWAP_THREADS must be an integer if set, but it selects nothing.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, groupby, islice, product, repeat, starmap
from operator import attrgetter, index as as_index

import numpy as np

from .closedform import (
    bds_chain_concurrence,
    bds_chain_fidelity,
    bds_final_correlations,
    cell_queries,
    werner_chain_concurrence,
    werner_chain_fidelity,
    werner_final_visibility,
)
from .errors import ConfigError, InvalidStateError
from .measures import (
    _werner_concurrence,
    concurrence,
    concurrence_bds,
    concurrence_werner,
    flags,
    teleportation_fidelity,
)
from .states import (
    BdsParams,
    BlochForm,
    TwoQubitState,
    WernerParams,
    _checked_density_matrix,
    _raise_first_failure,
    _unchecked,
    bell_weights,
    check_visibility,
    make_bell_diagonal,
    make_werner,
    pauli_decompose,
)
# chain_swap is not called here; it stays importable as entswap.sweep.chain_swap, which the benchmark traces
from .swap import NoiseModel, _chain_matrices, _check_chain, chain_swap

FAMILIES = ("werner", "bds", "general")
MODES = ("grid", "random")
ENGINES = ("closedform", "oracle")
SWAP_MODES = ("paper", "povm")

CSV_HEADER = (
    "index,family,n,link_params,etas,c_in_min,c_in_prod,c_out,f_out,entangled,useful"
)

#: Conventional eta grid for noise sweeps: 0.0 to 1.0 inclusive, step 0.1.
ETA_GRID_DEFAULT = tuple(round(0.1 * k, 1) for k in range(11))

_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF
_MAX_REJECTIONS = 1_000_000

#: Doubles each read of a random Werner or Bell-diagonal sample's stream
#: draws (see _SampleUniforms).  An entangled Bell-diagonal link takes about
#: 18, so one block serves most samples of up to five such links.  Blocks
#: of 48 to 128 drew a bds sweep of n 1-4 equally fast; larger ones draw
#: tails that no try reads.
_BLOCK = 96

#: Chains in one stack: samples of a closed-form chunk, or cells x samples of
#: an oracle stack.  It bounds the stacks' memory (about 8 MiB for a swap
#: step of either mode) whatever sample_count and the number of cells are.
CHUNK_SIZE = 1024


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce one sweep byte for byte.

    ``eta_spec`` is a single value (same eta at every node), a list of
    values (one cell per value), or a list of per-node lists whose length
    must match a fixed ``n_repeaters``.  ``n_repeaters`` is a count or an
    inclusive [lo, hi] range.  The closedform engine is only defined for
    the werner/bds families in paper mode.
    """

    family: str
    mode: str = "random"
    sample_count: int | None = None
    grid_steps: int | None = None
    n_repeaters: int | list | tuple = 1
    eta_spec: float | list | tuple = 1.0
    seed: int = 0
    entangled_inputs_only: bool = False
    swap_mode: str = "paper"
    engine: str = "closedform"

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "family" not in data:
            raise ConfigError("config requires a 'family' key")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False, slots=True)
class SweepRecord:
    """One evaluated sample: its inputs, outputs and classification flags.

    Slotted and not frozen: a frozen dataclass's ``__init__`` sets each
    field through ``object.__setattr__``, which costs several times a
    plain slotted one and, on a Werner grid, more than the closed forms
    that compute the records.  The package never mutates a record, and
    the fields records share (link tuples and params, etas tuples) are
    immutable.  Records compare and hash by identity.
    """

    index: int
    family: str
    n: int
    link_params: tuple
    etas: tuple[float, ...]
    c_in: tuple[float, ...]
    c_out: float
    f_out: float
    entangled: bool
    useful: bool

    @property
    def c_in_min(self) -> float:
        return min(self.c_in)

    @property
    def c_in_prod(self) -> float:
        return math.prod(self.c_in)


#: A record's fields as one tuple, in field order: the row write_csv formats.
_record_row = attrgetter(*SweepRecord.__slots__)


class SweepRecords(Sequence):
    """The records of one sweep, kept as column blocks; a record is built when it is read.

    Each block holds one (chunk, cell) of the sweep, in plan order: the
    chunk's sample indices (a range), n, link tuples and c_in tuples,
    which every cell of the chunk shares, the cell's etas tuple, and the
    cell's c_out, f_out, entangled and useful columns.  Reading a record,
    by index, slice or iteration, builds a plain SweepRecord from its row,
    sharing the block's link and etas objects; so ``records[i] is
    records[i]`` is False, and as records compare by identity, a record
    read from the sequence is not ``in`` it.  A slice is a list of
    records.  The sequence has no append, sort or del: ``list(records)``
    is a list.  Assigning one record (``records[i] = record``) turns the
    sequence into a list of its records, which every later read, and
    write_csv, then sees.
    """

    __slots__ = ("_family", "_blocks", "_ends", "_list")

    def __init__(self, family: str, blocks: list[tuple]):
        self._family = family
        self._blocks = blocks
        self._ends = list(accumulate(len(block[0]) for block in blocks))
        self._list = None

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, key):
        if self._list is not None:
            return self._list[key]
        if isinstance(key, slice):
            return [self[k] for k in range(*key.indices(len(self)))]
        position = as_index(key)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("sweep record index out of range")
        b = bisect_right(self._ends, position)
        indices, n, params, etas, c_in, c_out, f_out, entangled, useful = self._blocks[b]
        k = position - (self._ends[b - 1] if b else 0)
        return SweepRecord(indices[k], self._family, n, params[k], etas, c_in[k], c_out[k], f_out[k],
                           entangled[k], useful[k])

    def __setitem__(self, key, record: SweepRecord) -> None:
        position = as_index(key)
        if self._list is None:
            self._list = list(self)
        self._list[position] = record

    def __iter__(self):
        return iter(self._list) if self._list is not None else starmap(SweepRecord, self._rows())

    def _rows(self):
        """Each record's fields as one tuple, in field order, without building the record."""
        if self._list is not None:
            return map(_record_row, self._list)
        family = self._family
        return chain.from_iterable(
            zip(indices, repeat(family), repeat(n), params, repeat(etas), c_in, c_out, f_out, entangled, useful)
            for indices, n, params, etas, c_in, c_out, f_out, entangled, useful in self._blocks
        )


def link_generator(seed: int, index: int) -> np.random.Generator:
    """Counter-based random stream for one sample: keyed by (seed, index)."""
    key = np.array([seed & _SEED_MASK, index & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _restart(rng: np.random.Generator, seed: int, index: int) -> None:
    """Rewind a generator of :func:`link_generator` to the start of (seed, index)'s stream.

    The Philox state is the one link_generator(seed, index) starts in:
    counter 0, an empty output buffer (position 4 of 4) and no pending
    32-bit half.  Assigning it costs a fraction of building a generator.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _SEED_MASK, index & _SEED_MASK)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _inside_tetrahedron(t1: float, t2: float, t3: float) -> bool:
    return (
        1 - t1 - t2 - t3 >= 0
        and 1 - t1 + t2 + t3 >= 0
        and 1 + t1 - t2 + t3 >= 0
        and 1 + t1 + t2 - t3 >= 0
    )


def _read_block(rng) -> list[float]:
    return rng.random(_BLOCK).tolist()


class _SampleUniforms(chain):
    """The uniform doubles of one sample's stream, in stream order, read _BLOCK at a time.

    A sweep restarts its generator for each sample, and only that sample's
    links read the stream before the next restart.  ``rng.random(k)`` gives
    the doubles of k ``rng.random()`` calls bit for bit, so the sample's
    doubles can be drawn a block at a time and handed out in order: every
    try gets the doubles it would get from its own ``random()`` or
    ``random(3)`` call, and a try whose three doubles cross a block edge
    takes them from both blocks.  The unread tail of the sample's last
    block is dropped at the next restart.
    """

    __slots__ = ()

    @classmethod
    def of(cls, rng) -> _SampleUniforms:
        """The stream of ``rng`` from where it stands; nothing is read until a try needs it."""
        return cls.from_iterable(map(_read_block, repeat(rng)))


class _SampleNormals:
    """The normals of one general sample's stream, read where the wrapped generator stands.

    It reads by the same ``normal`` calls as the generator itself, so every
    try draws the same G.  Only the type differs: a general link drawn
    from it without entangled_inputs_only comes back from sample_state as
    the two real (4, 4) normal arrays of its G, for a sweep that forms,
    checks and decomposes its chunk's links as one stack.  One serves a
    sweep's n: the generator it wraps is restarted for each sample.
    """

    __slots__ = ("normal",)

    def __init__(self, rng):
        self.normal = rng.normal


def sample_state(
    family: str, rng: np.random.Generator, entangled_inputs_only: bool = False, *, dense: bool = True
):
    """Draw one link: (family parameters, state).

    werner: visibility uniform on [0, 1] (rejected down to (1/3, 1] when
    entangled inputs are required).  bds: uniform on the cube [-1, 1]^3
    with tetrahedron rejection (and, when entangled inputs are required,
    rejection of separable triples).  general: rho = G G+ / Tr(G G+) with
    G a 4x4 matrix of standard complex Gaussians.

    A werner or bds try reads one uniform double of ``rng``'s stream, or
    three, mapped as ``Generator.uniform(low, high)`` maps them:
    low + (high - low) * u.  The map is exact (0.0 + u is u and 2.0 * u is
    exact), so every draw is that of ``uniform(0.0, 1.0)`` or
    ``uniform(-1.0, 1.0, 3)`` bit for bit.  A Generator is read by one
    ``random()`` or ``random(3)`` call per try.  A random sweep passes its
    sample's _SampleUniforms instead, which hands out the same doubles of
    the same stream a block at a time, so each try, and each draw, is the
    same.  A try is filtered on its raw floats, and the accepted link is
    built without a check of its own: a visibility from ``random()`` lies
    in [0, 1), and a triple that passed the tetrahedron test is finite with
    every weight >= 0 exactly, stricter than BdsParams' -PSD_TOL.  A sweep
    checks each chunk's stack once.

    With ``dense=False`` a werner or bds link comes back as (params, None):
    its dense state is not built.  A general link is drawn as its dense
    state, so it is returned either way.  The stream is consumed the same
    way in both cases.

    A general try reads two ``normal((4, 4))`` calls, A and B, and
    G = A + iB.  A random sweep hands each general sample a
    _SampleNormals, which reads the same normals.  A link drawn from it
    without entangled_inputs_only comes back as (None, (A, B)): its two
    real arrays, with no complex build, product or normalisation.  The
    sweep forms G, G G+ and the trace of its chunk's links as one stack
    (_hilbert_schmidt), then checks and decomposes that stack, member by
    member, so each link gets the bits its own _hilbert_schmidt,
    TwoQubitState and pauli_decompose would give it.  Any other try forms
    its one matrix by the same _hilbert_schmidt.  With
    entangled_inputs_only every try is checked alone: its concurrence
    decides whether another is drawn.
    """
    if family == "werner":
        tries = rng if isinstance(rng, _SampleUniforms) else iter(rng.random, None)
        for p in islice(tries, _MAX_REJECTIONS):
            if not entangled_inputs_only or p > 1.0 / 3.0:
                params = _unchecked(WernerParams, p=p)
                return params, make_werner(params) if dense else None
    elif family == "bds":
        if isinstance(rng, _SampleUniforms):
            tries = zip(rng, rng, rng)
        else:
            # Python floats give the same IEEE results as numpy scalars, with cheaper arithmetic
            tries = iter(lambda: rng.random(3).tolist(), None)
        for u1, u2, u3 in islice(tries, _MAX_REJECTIONS):
            t1, t2, t3 = -1.0 + 2.0 * u1, -1.0 + 2.0 * u2, -1.0 + 2.0 * u3
            if not _inside_tetrahedron(t1, t2, t3):
                continue
            # concurrence_bds is max(0, 2 max(weights) - 1): a separable triple has no positive part
            if entangled_inputs_only and 2.0 * max(bell_weights(t1, t2, t3)) - 1.0 <= 0.0:
                continue
            params = _unchecked(BdsParams, t1=t1, t2=t2, t3=t3)
            return params, make_bell_diagonal(params) if dense else None
    elif family == "general":
        for _ in range(_MAX_REJECTIONS):
            a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
            if not entangled_inputs_only and isinstance(rng, _SampleNormals):
                return None, (a, b)
            state = TwoQubitState(_hilbert_schmidt(a + 1j * b))
            if entangled_inputs_only and concurrence(state) <= 0.0:
                continue
            return pauli_decompose(state), state
    else:
        raise ConfigError(f"unknown family {family!r}")
    raise ConfigError(f"rejection sampling for {family!r} did not converge")


def _is_count(value) -> bool:
    """True for a plain integer; bools are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a plain int or float; bools, strings and None are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _shown(value) -> str:
    """repr(value) for an error message; a value holding an int too long to print is described instead."""
    try:
        return repr(value)
    except ValueError:  # an int beyond sys.get_int_max_str_digits()
        return "a value holding an int too long to print"


def _plan(config: SweepConfig) -> list[tuple[int, float | list, tuple[float, ...]]]:
    """Check every config value; return the cells as (n, json eta label, per-node etas)."""
    choices = {"family": FAMILIES, "mode": MODES, "engine": ENGINES, "swap_mode": SWAP_MODES}
    for field, allowed in choices.items():
        value = getattr(config, field)
        if value not in allowed:
            raise ConfigError(f"{field} must be one of {allowed}, got {value!r}")
    check_engine(config.family, config.engine, config.swap_mode)
    if config.mode == "random":
        if not _is_count(config.sample_count) or config.sample_count < 1:
            raise ConfigError("random mode requires sample_count >= 1")
        if config.grid_steps is not None:
            raise ConfigError("grid_steps is only valid in grid mode")
    else:
        if config.family == "general":
            raise ConfigError("grid mode is only defined for the werner and bds families")
        if not _is_count(config.grid_steps) or config.grid_steps < 1:
            raise ConfigError("grid mode requires grid_steps >= 1")
        if config.sample_count is not None:
            raise ConfigError("sample_count is only valid in random mode")
    if not _is_count(config.seed) or not 0 <= config.seed <= _SEED_MASK:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {_shown(config.seed)}")
    if not isinstance(config.entangled_inputs_only, bool):
        raise ConfigError(f"entangled_inputs_only must be true or false, got {config.entangled_inputs_only!r}")

    bounds = [config.n_repeaters] * 2 if _is_count(config.n_repeaters) else config.n_repeaters
    # a chain longer than sys.maxsize cannot be indexed: its cell's etas tuple alone would overflow
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(map(_is_count, bounds))
            and 1 <= bounds[0] <= bounds[1] <= sys.maxsize):
        raise ConfigError(
            "n_repeaters must be a count >= 1 or [lo, hi] with 1 <= lo <= hi, both at most sys.maxsize, "
            f"got {_shown(config.n_repeaters)}"
        )
    # a scalar eta_spec is a one-entry list; each entry is one eta for every node, or a per-node list
    spec = config.eta_spec
    labels = []
    for entry in spec if isinstance(spec, (list, tuple)) and spec else [spec]:
        per_node = isinstance(entry, (list, tuple))
        values = entry if per_node else [entry]
        if not values or not all(_is_real(eta) and 0 <= eta <= 1 for eta in values):
            raise ConfigError(
                f"eta_spec entries must be numbers in [0, 1] or non-empty lists of them, got {_shown(entry)}"
            )
        if per_node and not bounds[0] == bounds[1] == len(entry):
            raise ConfigError(
                f"per-node eta list {list(entry)} does not match n_repeaters={config.n_repeaters!r}"
            )
        labels.append([float(eta) for eta in entry] if per_node else float(entry))
    ns = range(bounds[0], bounds[1] + 1)
    return [(n, label, tuple(label) if isinstance(label, list) else (label,) * n) for n in ns for label in labels]


def check_engine(family: str, engine: str, swap_mode: str) -> None:
    """Reject the closedform engine outside the werner/bds families in paper mode."""
    if engine != "closedform":
        return
    if family not in ("werner", "bds"):
        raise ConfigError("the closedform engine only supports the werner and bds families")
    if swap_mode != "paper":
        raise ConfigError("the closedform engine implements paper mode only; use the oracle engine for povm")


def evaluate_chain(family: str, engine: str, swap_mode: str, link_params, etas):
    """End-to-end (c_out, f_out, final) of one chain of Werner or BDS links.

    c_out, f_out and final are the stack of one of :func:`_evaluate_chains`.
    ``final`` is the validated 4x4 end-to-end matrix on both engines: the
    oracle's swapped state, or on the closedform engine the Bell-diagonal
    state of the closed forms' final parameters.  A Werner link is the
    triple (-p, -p, -p), so a chain of n swaps that keeps visibility p
    ends in the triple (sigma p, -p, sigma p), sigma = (-1)^(n+1).
    """
    noise = NoiseModel(tuple(etas))
    links = _link_stack(family, engine, [link_params], None)
    c_out, f_out, final = _evaluate_chains(family, engine, swap_mode, [noise], links)
    c_out, f_out = float(c_out[0, 0]), float(f_out[0, 0])
    if engine == "oracle":
        return c_out, f_out, final[0, 0]
    if family == "werner":
        p, sigma = float(final[0][0]), (-1.0) ** (len(noise) + 1)
        triple = (sigma * p, -p, sigma * p)
    else:
        triple = tuple(float(t[0]) for t in final[0].as_tuple())
    return c_out, f_out, make_bell_diagonal(triple).matrix


def _evaluate_chains(family: str, engine: str, swap_mode: str, cells, links):
    """(c_out, f_out, final) of a stack of N chains of one length, in K eta cells.

    ``cells`` holds the K cells' NoiseModels and ``links`` the stack that
    :func:`_link_stack` builds for the engine.  c_out and f_out are (K, N)
    arrays on both engines, row k holding cell k.  The closedform engine
    takes the stack's link products once and scales them into one (K, N)
    final (:func:`cell_queries`); it calls each closed form once per cell,
    on a query that reads the cell's row.  ``final`` is then the K cells'
    rows of it, each read through werner_final_visibility or
    bds_final_correlations: an (N,) visibility array or a BdsParams of (N,)
    arrays.  The oracle runs every swap step once on the stack of all
    K * N chains, each node's eta a column over the cells, and validates
    and measures that stack once; a failing validation raises what the
    first failing cell raises alone.  Cells beyond CHUNK_SIZE chains go to
    further stacks.  ``final`` is then the (K, N, 4, 4) stack of validated
    end-to-end matrices.
    """
    if engine == "closedform":
        if family == "werner":
            final_of, c_of, f_of = werner_final_visibility, werner_chain_concurrence, werner_chain_fidelity
        else:
            final_of, c_of, f_of = bds_final_correlations, bds_chain_concurrence, bds_chain_fidelity
        queries = cell_queries(links, cells)
        return (
            np.array([c_of(q) for q in queries]),
            np.array([f_of(q) for q in queries]),
            [final_of(q) for q in queries],
        )
    per_stack = max(1, CHUNK_SIZE // links.shape[1])
    if len(cells) > per_stack:
        # more cells than a stack of CHUNK_SIZE chains holds go per_stack at a time
        parts = [
            _evaluate_chains(family, engine, swap_mode, cells[k:k + per_stack], links)
            for k in range(0, len(cells), per_stack)
        ]
        return tuple(np.concatenate(results) for results in zip(*parts))
    for noise in cells:
        _check_chain(noise, len(links))
    matrices = _chain_matrices(links, cells, swap_mode)
    final = _checked_states(matrices, matrices)
    return concurrence(final), teleportation_fidelity(final), final


def _checked_states(matrices, members):
    """A stack of two-qubit density matrices, checked once.

    ``members`` holds the stack's parts in the order a failure is reported
    in: a stack's defect and worst eigenvalue are taken over all of it, so
    a failing stack raises what its first failing part raises alone.
    """
    try:
        return _checked_density_matrix(matrices, matrices.shape, "two-qubit state")
    except InvalidStateError:
        _raise_first_failure(lambda m: _checked_density_matrix(m, m.shape, "two-qubit state"), members)
        raise


def _link_stack(family: str, engine: str, params, states):
    """What the engine reads of N equally long chains, built once for every eta cell.

    ``params[j]`` holds chain j's link parameters and ``states[j]`` its
    drawn dense links, read only for the general family.  The closedform
    engine reads the chunk's :func:`_parameter_stack`, checked once.  The
    oracle reads the (n+1, N, 4, 4) stack of dense links, [k, j] being
    chain j's k-th link; it builds Werner and BDS links from their
    parameters.
    """
    if engine == "closedform":
        return _parameter_stack(family, params)
    if family != "general":
        maker = make_werner if family == "werner" else make_bell_diagonal
        states = [[maker(p) for p in chain] for chain in params]
    return np.array([[state.matrix for state in column] for column in zip(*states)])


def _parameter_stack(family: str, params):
    """The (n+1, N) stack of N Werner or BDS chains' link parameters, checked whole.

    Row k holds every chain's k-th link: an array of visibilities, or a
    BdsParams of (n+1, N) correlation arrays.
    """
    shape = (len(params[0]), len(params))
    links = [link for column in zip(*params) for link in column]
    if family == "werner":
        return _checked_stack(family, np.array([p.p for p in links]).reshape(shape))
    columns = [[t.t1 for t in links], [t.t2 for t in links], [t.t3 for t in links]]
    return _checked_stack(family, np.array(columns).reshape(3, *shape))


def _checked_stack(family: str, values):
    """A closed-form link stack from its values, checked once.

    ``values`` is an (n+1, N) visibility array, which is checked and
    returned, or the (3, n+1, N) correlations of a BdsParams stack.
    """
    if family == "werner":
        check_visibility(values)
        return values
    return BdsParams(*values)


def input_concurrences(family: str, link_params) -> tuple[float, ...]:
    """Closed-form concurrence of each Werner or BDS input link."""
    if family == "werner":
        return tuple(concurrence_werner(p.p) for p in link_params)
    return tuple(concurrence_bds(p) for p in link_params)


def _stacked_input_concurrences(family: str, engine: str, params, links) -> list[tuple[float, ...]]:
    """Each chain's c_in, read off the chunk's stack by one concurrence call.

    A general chunk's c_in is the dense concurrence of its drawn links.  A
    Werner or BDS chunk's is the closed form of its parameter stack: the
    closedform engine's ``links``, which the oracle builds for this alone.
    Each value is the one the closed form gives its link alone.
    """
    if family == "general":
        c_in = concurrence(links)
    else:
        stack = links if engine == "closedform" else _parameter_stack(family, params)
        c_in = (_werner_concurrence if family == "werner" else concurrence_bds)(stack)
    return [tuple(chain) for chain in c_in.T.tolist()]


def _random_links(config: SweepConfig, n: int, chunk_size: int):
    """Yield each chunk of samples as (indices, link_params, c_in, links).

    One generator serves the call.  It is restarted for each sample, whose
    links then read the stream of link_generator(seed, index), in order:
    a Werner or BDS sample's through its _SampleUniforms, a block at a
    time, and a general sample's through _SampleNormals, by the
    generator's own normal calls.  Werner and BDS samples are drawn as
    parameters only, and a chunk's links are its :func:`_link_stack`.  A
    general chunk drawn without entangled_inputs_only is drawn as the
    real normals of each link's G, stacked to (n+1, N, 2, 4, 4).  The
    chunk builds every G elementwise, forms G G+ / Tr(G G+) by one
    :func:`_hilbert_schmidt` call, checks the (n+1, N) stack once
    (:func:`_checked_general_links`) and decomposes it by one
    pauli_decompose call; each link's parameters are its row of that
    stack.  With entangled_inputs_only each general link is formed,
    checked and decomposed alone, as its try is drawn.  A chunk's c_in is
    read off its stack.
    """
    rng = link_generator(config.seed, 0)
    general = config.family == "general"
    stacked = general and not config.entangled_inputs_only
    normals = _SampleNormals(rng)
    for start in range(0, config.sample_count, chunk_size):
        indices = range(start, min(start + chunk_size, config.sample_count))
        params, states = [], []
        for index in indices:
            _restart(rng, config.seed, index)
            stream = normals if general else _SampleUniforms.of(rng)
            drawn, dense = zip(*(
                sample_state(config.family, stream, config.entangled_inputs_only, dense=False)
                for _ in range(n + 1)
            ))
            params.append(drawn)
            states.append(dense)
        if stacked:
            # each link's two (4, 4) normals, as an (n+1, N, 2, 4, 4) stack
            pairs = np.array(list(zip(*states)))
            links = _checked_general_links(_hilbert_schmidt(pairs[:, :, 0] + 1j * pairs[:, :, 1]))
            params = _bloch_rows(pauli_decompose(links))
        else:
            links = _link_stack(config.family, config.engine, params, states)
        yield indices, params, _stacked_input_concurrences(config.family, config.engine, params, links), links


def _hilbert_schmidt(g):
    """G G+ / Tr(G G+) of a complex 4x4 G, or of each member of a (..., 4, 4) stack.

    The product is one matmul, which runs a stack's members through the
    same 4x4 zgemm as a single G.  The trace is summed from the real
    diagonal as (d0 + d1) + (d2 + d3), the order numpy's own trace uses,
    so every member gets the bits it gets alone.
    """
    m = g @ g.conj().swapaxes(-1, -2)
    d = m.real.diagonal(axis1=-2, axis2=-1)
    return m / ((d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3]))[..., None, None]


def _checked_general_links(matrices):
    """The (n+1, N, 4, 4) stack of a general chunk's drawn matrices, checked once.

    The check hermitises and clamps member by member, so each link gets
    the bits it gets checked alone.  A failing stack raises what its first
    bad link in draw order (chain by chain, link by link) raises alone.
    """
    return _checked_states(matrices, matrices.swapaxes(0, 1).reshape(-1, 4, 4))


def _bloch_rows(forms: BlochForm) -> list[tuple[BlochForm, ...]]:
    """Each chain's links of an (n+1, N) stack of Bloch forms, as forms that share its read-only arrays.

    No link is checked again: the stack was checked whole when it was built.
    """
    r, s, T = (values.swapaxes(0, 1) for values in (forms.r, forms.s, forms.T))
    return [
        tuple(_unchecked(BlochForm, r=r_k, s=s_k, T=T_k) for r_k, s_k, T_k in zip(*chain))
        for chain in zip(r, s, T)
    ]


def _grid_links(config: SweepConfig, n: int, chunk_size: int):
    """Yield each chunk of grid points of chain length n as (indices, link_params, c_in, links).

    Each axis value's link object, concurrence and stack entry are built
    once per call, and every record that uses the value shares them.  The
    entry is the value's parameters, or on the oracle its validated dense
    matrix.  A chunk's stack is gathered from the entries by each record's
    link indices: Werner records are the Cartesian product of the axis in
    lexicographic order, so the k-th link of record r is digit k of r in
    base len(axis), while a Bell-diagonal record's links are all its one
    grid point.  A closed-form stack is checked once per chunk.
    """
    steps = config.grid_steps
    if config.family == "werner":
        axis = [(i + 1) / steps for i in range(steps)]
        if config.entangled_inputs_only:
            axis = [p for p in axis if p > 1.0 / 3.0]
        links = [WernerParams(p) for p in axis]
        c_axis = [concurrence_werner(p) for p in axis]
        link_tuples, c_tuples = product(links, repeat=n + 1), product(c_axis, repeat=n + 1)
        count = len(axis) ** (n + 1)
    else:
        axis = [-1.0 + 2.0 * i / steps for i in range(steps + 1)]
        links, c_axis = [], []
        for t1, t2, t3 in product(axis, repeat=3):
            if not _inside_tetrahedron(t1, t2, t3):
                continue
            params = BdsParams(t1, t2, t3)
            c = concurrence_bds(params)
            if config.entangled_inputs_only and c <= 0.0:
                continue
            links.append(params)
            c_axis.append(c)
        link_tuples = ((params,) * (n + 1) for params in links)
        c_tuples = ((c,) * (n + 1) for c in c_axis)
        count = len(links)
    if config.engine == "oracle":
        maker = make_werner if config.family == "werner" else make_bell_diagonal
        table = np.array([maker(params).matrix for params in links])
    elif config.family == "werner":
        table = np.array(axis)
    else:
        # the (3, points) correlations, each a row indexed by point
        table = np.array([params.as_tuple() for params in links]).T
    for start in range(0, count, chunk_size):
        indices = range(start, min(start + chunk_size, count))
        if config.family == "werner":
            rows = _digits(indices, len(axis), n + 1)
        else:
            rows = np.broadcast_to(np.arange(indices.start, indices.stop), (n + 1, len(indices)))
        if config.engine == "oracle":
            stack = table[rows]
        else:
            stack = _checked_stack(config.family, table[..., rows])
        yield indices, list(islice(link_tuples, len(indices))), list(islice(c_tuples, len(indices))), stack


def _digits(indices: range, base: int, places: int) -> np.ndarray:
    """The (places, N) base-``base`` digits of N consecutive indices, row 0 the most significant."""
    digits = np.empty((places, len(indices)), dtype=np.intp)
    rest = np.arange(indices.start, indices.stop)
    for place in reversed(range(places)):
        rest, digits[place] = np.divmod(rest, base)
    return digits


def _check_thread_setting() -> None:
    """Reject a non-integer ENTSWAP_THREADS; its value selects nothing."""
    raw = os.environ.get("ENTSWAP_THREADS")
    if raw is None:
        return
    try:
        int(raw)
    except ValueError:
        raise ConfigError(f"ENTSWAP_THREADS must be an integer, got {raw!r}") from None


def run_sweep(config: SweepConfig) -> tuple[SweepRecords, dict]:
    """Evaluate every cell of the sweep; returns (records, summary).

    Records are grouped by cell in plan order and sorted by sample index
    inside each cell.  Identical configs produce identical records.  The
    links of each (sample, n) are drawn or enumerated once, a chunk at a
    time, and every eta cell of that n reads them, so those cells' records
    share link objects.  ``records`` is a SweepRecords: the sweep's
    columns, one block per (chunk, cell), from which each record is built
    when it is read.  It has no append, sort or del; ``list(records)`` is
    a list.
    """
    plan = _plan(config)
    _check_thread_setting()
    link_source = _random_links if config.mode == "random" else _grid_links
    blocks = []
    cells = []
    # the plan is n-major: each chunk of links is drawn once and serves every eta cell of its n
    for n, n_cells in groupby(plan, key=lambda cell: cell[0]):
        # each cell's summary entry is counted from its flag columns as the chunks come
        n_cells = [
            (etas, [], {"n": n, "eta": eta_label, "samples": 0, "entangled": 0, "useful": 0})
            for _, eta_label, etas in n_cells
        ]
        noises = [NoiseModel(etas) for etas, _, _ in n_cells]
        # an oracle chunk is one stack for all its cells: at most CHUNK_SIZE chains, whatever the cells
        chunk_size = max(1, CHUNK_SIZE // len(n_cells)) if config.engine == "oracle" else CHUNK_SIZE
        for indices, params, c_in, links in link_source(config, n, chunk_size):
            c_out, f_out, _ = _evaluate_chains(config.family, config.engine, config.swap_mode, noises, links)
            entangled, useful = flags(c_out, f_out)
            rows = zip(n_cells, c_out, f_out, entangled, useful)
            for (etas, cell_blocks, cell), c_row, f_row, e_row, u_row in rows:
                cell["samples"] += len(indices)
                cell["entangled"] += int(np.count_nonzero(e_row))
                cell["useful"] += int(np.count_nonzero(u_row))
                # tolist() makes each zero its own float object; one shared 0.0 (no c_out
                # is -0.0) saves 2.5 MiB on a 1.1e5-record grid whose c_out are almost all 0
                c_row = [c or 0.0 for c in c_row.tolist()]
                cell_blocks.append(
                    (indices, n, params, etas, c_in, c_row, f_row.tolist(), e_row.tolist(), u_row.tolist())
                )
        for _, cell_blocks, cell in n_cells:
            blocks += cell_blocks
            cells.append(cell)
    summary = {
        "config_echo": config.to_dict(),
        "totals": {key: sum(cell[key] for cell in cells) for key in ("samples", "entangled", "useful")},
        "cells": cells,
    }
    return SweepRecords(config.family, blocks), summary


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _format_etas(etas) -> str:
    return ";".join(_fmt(e) for e in etas)


#: A Bell-diagonal and a general link's text: the triple and the 15 Bloch
#: values in one %-format each, whose %.12g prints each float as _fmt does.
_BDS_LINK = "(%.12g,%.12g,%.12g)"
_GENERAL_LINK = "(" + ",".join(["%.12g"] * 15) + ")"


def _format_link(family: str, params) -> str:
    if family == "werner":
        return _fmt(params.p)
    if family == "bds":
        return _BDS_LINK % (params.t1, params.t2, params.t3)
    # Python floats format like numpy scalars and are cheaper to format
    return _GENERAL_LINK % (*params.r.tolist(), *params.s.tolist(), *params.T.ravel().tolist())


#: Entries a write_csv memo holds before it starts afresh: above the about
#: 4100 distinct floats of an 18-step Werner grid of n = 1-3 (1.1e5 records),
#: and a bound of a few MiB on a random sweep, whose values rarely repeat.
_MEMO_ENTRIES = 8192


#: Text of a zero field, keyed by math.copysign(1.0, zero): 0.0 == -0.0, but they print as 0 and -0.
_ZERO_TEXTS = {1.0: "0", -1.0: "-0"}


class _FloatTexts(dict):
    """%.12g text of each float, keyed by value and formatted on first use.

    write_csv never looks a zero up here (it reads _ZERO_TEXTS), so every
    key is non-zero and equal keys print the same.  The memo starts afresh
    when it reaches _MEMO_ENTRIES entries.
    """

    __slots__ = ()

    def __missing__(self, value) -> str:
        if len(self) >= _MEMO_ENTRIES:
            self.clear()
        text = self[value] = _fmt(value)
        return text


def write_csv(records, path) -> None:
    """Write records with the fixed 11-column schema; UTF-8, LF, %.12g.

    ``records`` is read once, so it may be an iterator.  Each record is
    read as the tuple of its fields: a SweepRecords yields them from its
    columns, building no SweepRecord, and any other records are read by
    attribute.  Each row is one string, built from two memos that live
    for the call:
    - each distinct link object and etas tuple is formatted once, keyed by
      id, never by value (0.0 and -0.0 are equal but print differently);
      the memo holds every object it formatted, so no id is reused while
      it lives;
    - each distinct non-zero c_in_min, c_in_prod, c_out and f_out value
      is formatted once (see _FloatTexts).
    A zero field costs no memo lookup: its text is "0" or "-0", read from
    _ZERO_TEXTS by its sign.  c_in is read once per record; its minimum
    and product are the c_in_min and c_in_prod properties' expressions,
    so their values and signs of zero are the same.
    A memo that reaches _MEMO_ENTRIES entries starts afresh, so the
    writer's memory does not grow with the number of records.  Quoting is
    the csv module's QUOTE_MINIMAL (RFC 4180): %.12g text never holds a
    quote, CR or LF, so a field is quoted exactly when it holds a comma,
    which only a Bell-diagonal or general link field does.
    """
    floats = _FloatTexts()
    zero, copysign, prod = _ZERO_TEXTS, math.copysign, math.prod
    texts: dict[int, str] = {}
    kept = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        rows = records._rows() if isinstance(records, SweepRecords) else map(_record_row, records)
        for index, family, n, link_params, etas, c_in, c_out, f_out, entangled, useful in rows:
            try:
                link = ";".join([texts[id(p)] for p in link_params])
                etas_text = texts[id(etas)]
            except KeyError:
                if len(texts) >= _MEMO_ENTRIES:
                    texts.clear()
                    kept.clear()
                for p in link_params:
                    if id(p) not in texts:
                        kept.append(p)
                        texts[id(p)] = _format_link(family, p)
                if id(etas) not in texts:
                    kept.append(etas)
                    texts[id(etas)] = _format_etas(etas)
                link = ";".join([texts[id(p)] for p in link_params])
                etas_text = texts[id(etas)]
            if "," in link:
                link = f'"{link}"'
            c_min, c_prod = min(c_in), prod(c_in)
            fh.write(
                f"{index},{family},{n},{link},{etas_text},"
                f"{floats[c_min] if c_min else zero[copysign(1.0, c_min)]},"
                f"{floats[c_prod] if c_prod else zero[copysign(1.0, c_prod)]},"
                f"{floats[c_out] if c_out else zero[copysign(1.0, c_out)]},"
                f"{floats[f_out] if f_out else zero[copysign(1.0, f_out)]},"
                f"{'true' if entangled else 'false'},{'true' if useful else 'false'}\n"
            )


def round_floats(obj):
    """Round floats to 12 significant digits, recursively; tuples become lists."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def write_summary_json(summary: dict, path) -> None:
    """Write the sweep summary as deterministic, indented JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(round_floats(summary), indent=2) + "\n")
