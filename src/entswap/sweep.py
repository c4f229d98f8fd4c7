"""Seeded sampling of state families, batch chain evaluation and reporting.

A sweep walks a set of (n, eta) cells.  Random-mode samples are drawn from
a counter-based generator keyed by (seed, sample index), so sample k sees
the same link states in every cell and results do not depend on evaluation
order.  Grid mode enumerates deterministic parameter grids:
the Cartesian product of per-link visibility grids for the Werner family,
and one shared correlation triple per grid point (identical links) for the
Bell-diagonal family.

Cells are evaluated serially, each in stacks of a fixed number of samples
(CHUNK_SIZE) through one engine dispatch, _evaluate_chains; a single chain
(evaluate_chain) is the stack of one.  Links are drawn or enumerated one
sample at a time.  Werner and Bell-diagonal links are kept as their family
parameters, which is all the closedform engine reads; the oracle builds
their dense links when it stacks them.  General links are drawn as dense
states.  The closedform engine evaluates a stack chain by chain; the
oracle runs every swap step, the validation of the end-to-end states and
their measures once per stack, with the samples on a leading axis.  Each
cell builds its noise model once.  ENTSWAP_THREADS is still read and must
be an integer if set, but it selects nothing; a thread pool over these
small numpy calls measured slower than the serial loop.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from itertools import islice, product

import numpy as np

from .closedform import (
    BdsChainQuery,
    WernerChainQuery,
    bds_chain_concurrence,
    bds_chain_fidelity,
    werner_chain_concurrence,
    werner_chain_fidelity,
)
from .errors import ConfigError
from .measures import concurrence, concurrence_bds, concurrence_werner, flags, teleportation_fidelity
from .states import (
    BdsParams,
    TwoQubitState,
    WernerParams,
    _checked_density_matrix,
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

#: Samples a cell evaluates as one stack; it bounds the stacks'
#: memory (about 16 MiB for the paper-mode step) whatever sample_count is.
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


@dataclass(frozen=True, eq=False)
class SweepRecord:
    """One evaluated sample: its inputs, outputs and classification flags."""

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


def link_generator(seed: int, index: int) -> np.random.Generator:
    """Counter-based random stream for one sample: keyed by (seed, index)."""
    key = np.array([seed & _SEED_MASK, index & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _inside_tetrahedron(t1: float, t2: float, t3: float) -> bool:
    return (
        1 - t1 - t2 - t3 >= 0
        and 1 - t1 + t2 + t3 >= 0
        and 1 + t1 - t2 + t3 >= 0
        and 1 + t1 + t2 - t3 >= 0
    )


def sample_state(
    family: str, rng: np.random.Generator, entangled_inputs_only: bool = False, *, dense: bool = True
):
    """Draw one link: (family parameters, state).

    werner: visibility uniform on [0, 1] (rejected down to (1/3, 1] when
    entangled inputs are required).  bds: uniform on the cube [-1, 1]^3
    with tetrahedron rejection.  general: rho = G G+ / Tr(G G+) with G a
    4x4 matrix of standard complex Gaussians.

    With ``dense=False`` a werner or bds link comes back as (params, None):
    its dense state is not built.  A general link is drawn as its dense
    state, so it is returned either way.  The stream is consumed the same
    way in both cases.
    """
    if family == "werner":
        for _ in range(_MAX_REJECTIONS):
            p = rng.uniform(0.0, 1.0)
            if not entangled_inputs_only or p > 1.0 / 3.0:
                params = WernerParams(p)
                return params, make_werner(params) if dense else None
    elif family == "bds":
        for _ in range(_MAX_REJECTIONS):
            # Python floats give the same IEEE results as numpy scalars, with cheaper arithmetic
            t1, t2, t3 = rng.uniform(-1.0, 1.0, size=3).tolist()
            if not _inside_tetrahedron(t1, t2, t3):
                continue
            params = BdsParams(t1, t2, t3)
            if entangled_inputs_only and concurrence_bds(params) <= 0.0:
                continue
            return params, make_bell_diagonal(params) if dense else None
    elif family == "general":
        for _ in range(_MAX_REJECTIONS):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            state = TwoQubitState(m / m.trace().real)
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
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {config.seed!r}")
    if not isinstance(config.entangled_inputs_only, bool):
        raise ConfigError(f"entangled_inputs_only must be true or false, got {config.entangled_inputs_only!r}")

    bounds = [config.n_repeaters] * 2 if _is_count(config.n_repeaters) else config.n_repeaters
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(map(_is_count, bounds))
            and 1 <= bounds[0] <= bounds[1]):
        raise ConfigError(
            f"n_repeaters must be a count >= 1 or [lo, hi] with 1 <= lo <= hi, got {config.n_repeaters!r}"
        )
    # a scalar eta_spec is a one-entry list; each entry is one eta for every node, or a per-node list
    spec = config.eta_spec
    labels = []
    for entry in spec if isinstance(spec, (list, tuple)) and spec else [spec]:
        per_node = isinstance(entry, (list, tuple))
        values = entry if per_node else [entry]
        if not values or not all(_is_real(eta) and 0 <= eta <= 1 for eta in values):
            raise ConfigError(
                f"eta_spec entries must be numbers in [0, 1] or non-empty lists of them, got {entry!r}"
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

    The stack of one of :func:`_evaluate_chains`.  ``final`` is the
    oracle's validated 4x4 end-to-end matrix, or None on the closedform
    engine, which reads only the family parameters.
    """
    c_out, f_out, final = _evaluate_chains(family, engine, swap_mode, NoiseModel(tuple(etas)), [link_params], None)
    return float(c_out[0]), float(f_out[0]), None if final is None else final[0]


def _evaluate_chains(family: str, engine: str, swap_mode: str, noise: NoiseModel, params, links):
    """(c_out, f_out, final) of a stack of chains of one length, one entry per chain.

    ``params[j]`` holds the j-th chain's link parameters.  ``links`` is the
    (n+1, N, 4, 4) stack of drawn general links, read only for the general
    family; the oracle builds Werner and BDS links from their parameters.
    ``final`` is the (N, 4, 4) stack of validated end-to-end matrices, or
    None on the closedform engine.
    """
    if engine == "closedform":
        if family == "werner":
            queries = [WernerChainQuery(tuple(p.p for p in chain), noise) for chain in params]
            return [werner_chain_concurrence(q) for q in queries], [werner_chain_fidelity(q) for q in queries], None
        queries = [BdsChainQuery(tuple(chain), noise) for chain in params]
        return [bds_chain_concurrence(q) for q in queries], [bds_chain_fidelity(q) for q in queries], None
    if family != "general":
        maker = make_werner if family == "werner" else make_bell_diagonal
        links = _link_stack([[maker(p) for p in chain] for chain in params])
    _check_chain(noise, len(links))
    final = _checked_density_matrix(_chain_matrices(links, noise, swap_mode), (len(params), 4, 4), "two-qubit state")
    return concurrence(final), teleportation_fidelity(final), final


def _link_stack(chains) -> np.ndarray:
    """The links of equally long chains as one (n+1, N, 4, 4) array: [k, j] is chain j's k-th link."""
    return np.array([[state.matrix for state in column] for column in zip(*chains)])


def input_concurrences(family: str, link_params) -> tuple[float, ...]:
    """Closed-form concurrence of each Werner or BDS input link."""
    if family == "werner":
        return tuple(concurrence_werner(p.p) for p in link_params)
    return tuple(concurrence_bds(p) for p in link_params)


def _make_record(config, n, etas, index, link_params, c_in, c_out, f_out) -> SweepRecord:
    c_out, f_out = float(c_out), float(f_out)
    entangled, useful = flags(c_out, f_out)
    return SweepRecord(
        index=index,
        family=config.family,
        n=n,
        link_params=tuple(link_params),
        etas=tuple(etas),
        c_in=tuple(float(c) for c in c_in),
        c_out=c_out,
        f_out=f_out,
        entangled=entangled,
        useful=useful,
    )


def _random_links(config: SweepConfig, n: int):
    """Yield (link_params, links) for each sample, drawn from its own stream.

    Werner and BDS samples are drawn as parameters only: their links are None.
    """
    for index in range(config.sample_count):
        rng = link_generator(config.seed, index)
        params, states = zip(*(
            sample_state(config.family, rng, config.entangled_inputs_only, dense=False)
            for _ in range(n + 1)
        ))
        yield params, states


def _grid_links(config: SweepConfig, n: int):
    steps = config.grid_steps
    if config.family == "werner":
        axis = [(i + 1) / steps for i in range(steps)]
        if config.entangled_inputs_only:
            axis = [p for p in axis if p > 1.0 / 3.0]
        for combo in product(axis, repeat=n + 1):
            yield tuple(WernerParams(p) for p in combo), None
    else:
        axis = [-1.0 + 2.0 * i / steps for i in range(steps + 1)]
        for t1, t2, t3 in product(axis, repeat=3):
            if not _inside_tetrahedron(t1, t2, t3):
                continue
            params = BdsParams(t1, t2, t3)
            if config.entangled_inputs_only and concurrence_bds(params) <= 0.0:
                continue
            yield (params,) * (n + 1), None


def _check_thread_setting() -> None:
    """Reject a non-integer ENTSWAP_THREADS; its value selects nothing."""
    raw = os.environ.get("ENTSWAP_THREADS")
    if raw is None:
        return
    try:
        int(raw)
    except ValueError:
        raise ConfigError(f"ENTSWAP_THREADS must be an integer, got {raw!r}") from None


def run_sweep(config: SweepConfig) -> tuple[list[SweepRecord], dict]:
    """Evaluate every cell of the sweep; returns (records, summary).

    Records are grouped by cell in plan order and sorted by sample index
    inside each cell.  Identical configs produce identical records.
    """
    plan = _plan(config)
    _check_thread_setting()
    link_source = _random_links if config.mode == "random" else _grid_links
    records: list[SweepRecord] = []
    cells = []
    for n, eta_label, etas in plan:
        noise = NoiseModel(etas)
        samples = enumerate(link_source(config, n))
        cell_records = []
        while chunk := list(islice(samples, CHUNK_SIZE)):
            indices, sampled = zip(*chunk)
            params, states = zip(*sampled)
            if config.family == "general":
                links = _link_stack(states)
                c_in = concurrence(links).T
            else:
                links = None
                c_in = [input_concurrences(config.family, p) for p in params]
            c_out, f_out, _ = _evaluate_chains(config.family, config.engine, config.swap_mode, noise, params, links)
            cell_records += [_make_record(config, n, etas, *row) for row in zip(indices, params, c_in, c_out, f_out)]
        records.extend(cell_records)
        cells.append(
            {
                "n": n,
                "eta": eta_label,
                "samples": len(cell_records),
                "entangled": sum(1 for r in cell_records if r.entangled),
                "useful": sum(1 for r in cell_records if r.useful),
            }
        )
    summary = {
        "config_echo": config.to_dict(),
        "totals": {key: sum(cell[key] for cell in cells) for key in ("samples", "entangled", "useful")},
        "cells": cells,
    }
    return records, summary


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _format_link(family: str, params) -> str:
    if family == "werner":
        return _fmt(params.p)
    if family == "bds":
        return "(" + ",".join(_fmt(v) for v in params.as_tuple()) + ")"
    values = [*params.r, *params.s, *params.T.flatten()]
    return "(" + ",".join(_fmt(v) for v in values) + ")"


def write_csv(records, path) -> None:
    """Write records with the fixed 11-column schema; UTF-8, LF, %.12g."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow(
                [
                    str(r.index),
                    r.family,
                    str(r.n),
                    ";".join(_format_link(r.family, p) for p in r.link_params),
                    ";".join(_fmt(e) for e in r.etas),
                    _fmt(r.c_in_min),
                    _fmt(r.c_in_prod),
                    _fmt(r.c_out),
                    _fmt(r.f_out),
                    "true" if r.entangled else "false",
                    "true" if r.useful else "false",
                ]
            )


def round_floats(obj):
    """Round floats to 12 significant digits, recursively; tuples become lists.

    Numpy scalars are converted to plain Python types on the way.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def write_summary_json(summary: dict, path) -> None:
    """Write the sweep summary as deterministic, indented JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(round_floats(summary), indent=2) + "\n")
