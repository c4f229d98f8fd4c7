"""Spans around the calls into each entswap layer, recorded from outside.

``Tracer.install`` replaces the public names each layer is called through
with timing wrappers (and ``TwoQubitState.__init__``, the constructor that
validates every state); ``uninstall`` puts the originals back.  Spans
(name, start, end, parent) are kept in flat arrays in memory and written
once, at the end, by ``write``.  A layer's self time is its span minus
the spans of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter

# layer span name -> the (module, attribute) names it is called through
LAYERS = {
    "sweep.run_sweep": [("entswap", "run_sweep")],
    "sweep.write_csv": [("entswap", "write_csv")],
    "sweep.write_summary_json": [("entswap", "write_summary_json")],
    "sweep.link_generator": [("entswap.sweep", "link_generator")],
    "sweep.sample_state": [("entswap.sweep", "sample_state")],
    "states.make_werner": [("entswap.sweep", "make_werner")],
    "states.make_bell_diagonal": [("entswap.sweep", "make_bell_diagonal")],
    "states.pauli_decompose": [("entswap.sweep", "pauli_decompose"), ("entswap.measures", "pauli_decompose")],
    "swap.chain_swap": [("entswap.sweep", "chain_swap"), ("entswap", "chain_swap")],
    "measures.concurrence": [("entswap.sweep", "concurrence"), ("entswap.measures", "concurrence")],
    "measures.teleportation_fidelity": [
        ("entswap.sweep", "teleportation_fidelity"),
        ("entswap.measures", "teleportation_fidelity"),
    ],
    "measures.report": [("entswap", "report")],
    "closedform.werner_chain_concurrence": [("entswap.sweep", "werner_chain_concurrence")],
    "closedform.werner_chain_fidelity": [("entswap.sweep", "werner_chain_fidelity")],
    "closedform.bds_chain_concurrence": [("entswap.sweep", "bds_chain_concurrence")],
    "closedform.bds_chain_fidelity": [("entswap.sweep", "bds_chain_fidelity")],
}
STATE_CLASS = ("entswap.states", "TwoQubitState")


def _chain_nodes(args, kwargs):
    return (args[0] if args else kwargs["spec"]).n_repeaters


def _record_count(args, kwargs):
    return len(args[0] if args else kwargs["records"])


# work a span carries, for per-node and per-record figures
WEIGHTS = {"swap.chain_swap": _chain_nodes, "sweep.write_csv": _record_count}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    weight: float = 0.0


class _CountingRng:
    """Delegates to a numpy Generator and adds the variates it draws to a tally."""

    def __init__(self, rng, tally: list):
        self._rng = rng
        self._tally = tally

    def uniform(self, *args, **kwargs):
        out = self._rng.uniform(*args, **kwargs)
        self._tally[0] += getattr(out, "size", 1)
        return out

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self._tally[0] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.weight = array("d")
        self.variates: dict[str, list] = {}  # root span name -> [variates drawn]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, weight: float = 0.0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.weight.append(weight)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span, e.g. one traced job; layer spans nest under it."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _variate_tally(self) -> list:
        root = self.names[self.name_id[self._stack[0]]] if self._stack else ""
        return self.variates.setdefault(root, [0])

    def wrap(self, name: str, func):
        """Return func wrapped in a span called ``name``."""
        weigh = WEIGHTS.get(name)
        rng_out = name == "sweep.link_generator"

        def wrapper(*args, **kwargs):
            idx = self._open(name, weigh(args, kwargs) if weigh else 0.0)
            try:
                out = func(*args, **kwargs)
            finally:
                self._close(idx)
            return _CountingRng(out, self._variate_tally()) if rng_out else out

        wrapper.__wrapped__ = func
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if attr in module.__dict__:
                    self._patch(module, attr, name)
                elif f"{module_name}.{attr}" not in self.missing:
                    # a later entswap may route around this name; its spans then read 0
                    self.missing.append(f"{module_name}.{attr}")
        module_name, cls_name = STATE_CLASS
        cls = getattr(importlib.import_module(module_name), cls_name)
        self._patch(cls, "__init__", "states.TwoQubitState")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------

    def stats(self, root_name: str) -> dict[str, LayerStats]:
        """Per-layer calls, time and self time of the spans under roots called root_name."""
        n = len(self.start)
        root = array("i", [0]) * n
        child = array("d", [0.0]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, LayerStats] = {}
        for i in range(n):
            if self.names[self.name_id[root[i]]] != root_name:
                continue
            s = out.setdefault(self.names[self.name_id[i]], LayerStats())
            dur = self.end[i] - self.start[i]
            s.calls += 1
            s.total_s += dur
            s.self_s += dur - child[i]
            s.weight += self.weight[i]
        return out

    def variates_drawn(self, root_name: str) -> int:
        return self.variates.get(root_name, [0])[0]

    def write(self, path) -> None:
        """Write every span as CSV: id, name, start_s, end_s, parent."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )
