"""Seeded sampling of state families, batch chain evaluation and reporting.

A sweep walks a set of (n, eta) cells.  Random-mode samples are drawn from
a counter-based generator keyed by (seed, sample index), so sample k sees
the same link states in every cell and results do not depend on evaluation
order.  Grid mode enumerates deterministic parameter grids:
the Cartesian product of per-link visibility grids for the Werner family,
and one shared correlation triple per grid point (identical links) for the
Bell-diagonal family.

Cells are evaluated serially, one sample at a time: the links of each
sample are drawn or built as its record is made.  ENTSWAP_THREADS is still
read and must be an integer if set, but it selects nothing; a thread pool
over these small numpy calls measured slower than the serial loop.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass
from itertools import product

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
from .measures import CLASSICAL_FIDELITY, concurrence, concurrence_bds, concurrence_werner, teleportation_fidelity
from .states import BdsParams, TwoQubitState, WernerParams, make_bell_diagonal, make_werner, pauli_decompose
from .swap import ChainSpec, NoiseModel, chain_swap

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
        out = 1.0
        for c in self.c_in:
            out *= c
        return out


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


def sample_state(family: str, rng: np.random.Generator, entangled_inputs_only: bool = False):
    """Draw one link: (family parameters, state).

    werner: visibility uniform on [0, 1] (rejected down to (1/3, 1] when
    entangled inputs are required).  bds: uniform on the cube [-1, 1]^3
    with tetrahedron rejection.  general: rho = G G+ / Tr(G G+) with G a
    4x4 matrix of standard complex Gaussians.
    """
    if family == "werner":
        for _ in range(_MAX_REJECTIONS):
            p = rng.uniform(0.0, 1.0)
            if not entangled_inputs_only or p > 1.0 / 3.0:
                params = WernerParams(p)
                return params, make_werner(params)
    elif family == "bds":
        for _ in range(_MAX_REJECTIONS):
            t1, t2, t3 = rng.uniform(-1.0, 1.0, size=3)
            if not _inside_tetrahedron(t1, t2, t3):
                continue
            params = BdsParams(t1, t2, t3)
            if entangled_inputs_only and concurrence_bds(params) <= 0.0:
                continue
            return params, make_bell_diagonal(params)
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
    raise RuntimeError(f"rejection sampling for {family!r} did not converge")


def _normalize_ns(n_repeaters) -> list[int]:
    if isinstance(n_repeaters, int) and not isinstance(n_repeaters, bool):
        ns = [n_repeaters]
    elif isinstance(n_repeaters, (list, tuple)) and len(n_repeaters) == 2:
        lo, hi = n_repeaters
        if not (isinstance(lo, int) and isinstance(hi, int) and lo <= hi):
            raise ConfigError(f"n_repeaters range must be [lo, hi] with lo <= hi, got {n_repeaters}")
        ns = list(range(lo, hi + 1))
    else:
        raise ConfigError(f"n_repeaters must be a count or [lo, hi] range, got {n_repeaters!r}")
    if ns[0] < 1:
        raise ConfigError("n_repeaters must be >= 1")
    return ns


def _normalize_eta_cells(eta_spec) -> list:
    """Return cells as (json label, per-node tuple or None-for-scalar) pairs."""
    if isinstance(eta_spec, (int, float)) and not isinstance(eta_spec, bool):
        return [(float(eta_spec), None)]
    if isinstance(eta_spec, (list, tuple)) and eta_spec:
        cells = []
        for entry in eta_spec:
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                cells.append((float(entry), None))
            elif isinstance(entry, (list, tuple)) and entry:
                cells.append(([float(e) for e in entry], tuple(float(e) for e in entry)))
            else:
                raise ConfigError(f"bad eta_spec entry {entry!r}")
        return cells
    raise ConfigError(f"eta_spec must be a value, a list or per-node lists, got {eta_spec!r}")


def _validate_config(config: SweepConfig) -> tuple[list[int], list]:
    if config.family not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {config.family!r}")
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    if config.engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {config.engine!r}")
    if config.swap_mode not in SWAP_MODES:
        raise ConfigError(f"swap_mode must be one of {SWAP_MODES}, got {config.swap_mode!r}")
    if config.engine == "closedform":
        if config.family == "general":
            raise ConfigError("the closedform engine only supports the werner and bds families")
        if config.swap_mode != "paper":
            raise ConfigError("the closedform engine implements paper mode only; use engine=oracle for povm")
    if config.mode == "random":
        if not isinstance(config.sample_count, int) or config.sample_count < 1:
            raise ConfigError("random mode requires sample_count >= 1")
        if config.grid_steps is not None:
            raise ConfigError("grid_steps is only valid in grid mode")
    else:
        if config.family == "general":
            raise ConfigError("grid mode is only defined for the werner and bds families")
        if not isinstance(config.grid_steps, int) or config.grid_steps < 1:
            raise ConfigError("grid mode requires grid_steps >= 1")
        if config.sample_count is not None:
            raise ConfigError("sample_count is only valid in random mode")
    if not isinstance(config.seed, int) or isinstance(config.seed, bool) or config.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {config.seed!r}")

    ns = _normalize_ns(config.n_repeaters)
    eta_cells = _normalize_eta_cells(config.eta_spec)
    plan = []
    for n in ns:
        for label, per_node in eta_cells:
            etas = (label,) * n if per_node is None else per_node
            if len(etas) != n:
                raise ConfigError(
                    f"per-node eta list {list(etas)} does not match n_repeaters={n}"
                )
            for eta in etas:
                if not 0.0 <= eta <= 1.0:
                    raise ConfigError(f"eta values must lie in [0, 1], got {eta}")
            plan.append((n, label, etas))
    return plan


def _evaluate(config: SweepConfig, n: int, etas, link_params, links) -> tuple[float, float]:
    if config.engine == "closedform":
        if config.family == "werner":
            query = WernerChainQuery(tuple(p.p for p in link_params), NoiseModel(etas))
            return werner_chain_concurrence(query), werner_chain_fidelity(query)
        query = BdsChainQuery(tuple(link_params), NoiseModel(etas))
        return bds_chain_concurrence(query), bds_chain_fidelity(query)
    if links is None:
        maker = make_werner if config.family == "werner" else make_bell_diagonal
        links = [maker(p) for p in link_params]
    final = chain_swap(ChainSpec(tuple(links), NoiseModel(etas)), mode=config.swap_mode)
    return concurrence(final), teleportation_fidelity(final)


def _input_concurrences(family: str, link_params, links) -> tuple[float, ...]:
    if family == "werner":
        return tuple(concurrence_werner(p.p) for p in link_params)
    if family == "bds":
        return tuple(concurrence_bds(p) for p in link_params)
    return tuple(concurrence(state) for state in links)


def _make_record(config, index, n, etas, link_params, links) -> SweepRecord:
    c_in = tuple(float(c) for c in _input_concurrences(config.family, link_params, links))
    c_out, f_out = _evaluate(config, n, etas, link_params, links)
    c_out, f_out = float(c_out), float(f_out)
    return SweepRecord(
        index=index,
        family=config.family,
        n=n,
        link_params=tuple(link_params),
        etas=tuple(etas),
        c_in=c_in,
        c_out=c_out,
        f_out=f_out,
        entangled=c_out > 0.0,
        useful=f_out > CLASSICAL_FIDELITY,
    )


def _random_links(config: SweepConfig, n: int):
    """Yield (link_params, links) for each sample, drawn from its own stream."""
    for index in range(config.sample_count):
        rng = link_generator(config.seed, index)
        drawn = [
            sample_state(config.family, rng, config.entangled_inputs_only)
            for _ in range(n + 1)
        ]
        yield tuple(params for params, _ in drawn), [state for _, state in drawn]


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
    plan = _validate_config(config)
    _check_thread_setting()
    link_source = _random_links if config.mode == "random" else _grid_links
    records: list[SweepRecord] = []
    cells = []
    for n, eta_label, etas in plan:
        cell_records = [
            _make_record(config, index, n, etas, link_params, links)
            for index, (link_params, links) in enumerate(link_source(config, n))
        ]
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
        "totals": {
            "samples": len(records),
            "entangled": sum(1 for r in records if r.entangled),
            "useful": sum(1 for r in records if r.useful),
        },
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
