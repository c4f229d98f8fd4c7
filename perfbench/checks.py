"""Independent re-derivation of sweep records and chain queries.

The route here shares no code with entswap's engines: links are rebuilt
from their reported parameters, each swap joins them with the public
``tensor``, applies the Bell projectors from ``bell_state`` (or the noisy
POVM elements built from them) to the middle pair as 16x16 operators,
traces the middle out with ``partial_trace_mid`` and applies the Pauli
correction.  Concurrence and fidelity are recomputed with formulas of
their own: Wootters' lambdas as the singular values of sqrt(rho)
sqrt(rho~), and the fidelity from the correlation matrix built here.
"""

from __future__ import annotations

import json

import numpy as np

import entswap as es

TOLERANCE = 1e-9
# flags are compared only away from their strict thresholds
BOUNDARY_BAND = 1e-12

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    _I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I4 = np.eye(4, dtype=complex)
_YY = np.kron(_PAULI[2], _PAULI[2])
_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)

# Right-qubit correction per Bell outcome: phi+ -> I, psi+ -> X, psi- -> Y, phi- -> Z.
_CORRECTION = {"phi+": 0, "psi+": 1, "psi-": 2, "phi-": 3}


def link_matrix(family: str, params) -> np.ndarray:
    """Rebuild a link's density matrix from its reported family parameters."""
    if family == "werner":
        return (1.0 - params.p) / 4.0 * _I4 + params.p * np.outer(_PSI_MINUS, _PSI_MINUS.conj())
    if family == "bds":
        m = _I4.copy()
        for i, t in enumerate(params.as_tuple(), start=1):
            m += t * np.kron(_PAULI[i], _PAULI[i])
        return m / 4.0
    m = _I4.copy()
    for i in range(3):
        m += params.r[i] * np.kron(_PAULI[i + 1], _I2) + params.s[i] * np.kron(_I2, _PAULI[i + 1])
        for j in range(3):
            m += params.T[i, j] * np.kron(_PAULI[i + 1], _PAULI[j + 1])
    return m / 4.0


def swap_16(left: np.ndarray, right: np.ndarray, eta: float, mode: str) -> np.ndarray:
    """One imperfect swap through the full 16x16 joined state."""
    joined = es.tensor(left, right).matrix
    acc = np.zeros((4, 4), dtype=complex)
    for label, corr in _CORRECTION.items():
        projector = es.bell_state(label).matrix
        element = projector if mode == "paper" else eta * projector + (1.0 - eta) / 4.0 * _I4
        conditional = es.partial_trace_mid(np.kron(np.kron(_I2, element), _I2) @ joined)
        fix = np.kron(_I2, _PAULI[corr])
        acc += fix @ conditional @ fix
    if mode == "paper":
        # the projectors sum to the identity, so acc already has unit trace
        return (eta * acc + (1.0 - eta) * _I4) / (4.0 - 3.0 * eta)
    return acc / acc.trace().real


def chain_16(links, etas, mode: str) -> np.ndarray:
    state = links[0]
    for link, eta in zip(links[1:], etas):
        state = swap_16(state, link, eta, mode)
    return state


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def concurrence_margin(rho: np.ndarray) -> float:
    """lambda1 - lambda2 - lambda3 - lambda4; the concurrence is max(0, this)."""
    tilde = _YY @ rho.conj() @ _YY
    lam = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(tilde), compute_uv=False)
    return float(lam[0] - lam[1] - lam[2] - lam[3])


def fidelity(rho: np.ndarray) -> float:
    T = np.array(
        [[np.trace(rho @ np.kron(_PAULI[i], _PAULI[j])).real for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    return float((1.0 + np.linalg.svd(T, compute_uv=False).sum() / 3.0) / 2.0)


def compare(rho: np.ndarray, c_out: float, f_out: float, entangled: bool, useful: bool):
    """Return a description of the first disagreement, or None."""
    margin = concurrence_margin(rho)
    c_ref, f_ref = max(0.0, margin), fidelity(rho)
    if not abs(c_out - c_ref) <= TOLERANCE:
        return f"c_out {c_out!r} != {c_ref!r}"
    if not abs(f_out - f_ref) <= TOLERANCE:
        return f"f_out {f_out!r} != {f_ref!r}"
    if abs(margin) > BOUNDARY_BAND and entangled != (margin > 0.0):
        return f"entangled flag {entangled} at concurrence margin {margin!r}"
    threshold = es.CLASSICAL_FIDELITY
    if abs(f_ref - threshold) > BOUNDARY_BAND and useful != (f_ref > threshold):
        return f"useful flag {useful} at fidelity {f_ref!r}"
    return None


def check_record(record, swap_mode: str):
    """Re-derive one sweep record through the 16x16 route."""
    links = [link_matrix(record.family, p) for p in record.link_params]
    rho = chain_16(links, record.etas, swap_mode)
    return compare(rho, record.c_out, record.f_out, record.entangled, record.useful)


def check_query(spec, rep):
    """Re-derive one POVM chain query through the 16x16 route."""
    rho = chain_16([link.matrix for link in spec.links], spec.noise.etas, "povm")
    return compare(rho, rep.concurrence, rep.fidelity, rep.entangled, rep.useful_for_teleportation)


def check_sweep_files(out) -> list:
    """The CSV holds one row per record; the summary's totals match the records."""
    problems = []
    with open(out.csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    if header != es.CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    if rows != len(out.records):
        problems.append(f"CSV has {rows} rows for {len(out.records)} records")
    with open(out.summary_path, encoding="utf-8") as fh:
        totals = json.load(fh)["totals"]
    expected = {
        "samples": len(out.records),
        "entangled": sum(r.entangled for r in out.records),
        "useful": sum(r.useful for r in out.records),
    }
    if totals != expected:
        problems.append(f"summary totals {totals} != {expected}")
    return problems
