"""Entanglement and teleportation-usefulness measures for two-qubit states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _PAIR, BdsParams, _as_matrix, check_visibility, pauli_decompose

_YY = _PAIR[2, 2]

#: A state is useful as a teleportation channel only above this fidelity.
CLASSICAL_FIDELITY = 2.0 / 3.0

#: Margin of the threshold flags: a value within it of a strict threshold
#: (C > 0, F > 2/3) reads as on the threshold, so last-bit rounding noise
#: cannot flip a flag.
FLAG_MARGIN = 1e-12


@dataclass(frozen=True)
class MeasureReport:
    """Concurrence and fidelity of a state plus the two threshold flags."""

    concurrence: float
    fidelity: float
    entangled: bool
    useful_for_teleportation: bool


def concurrence(state) -> float | np.ndarray:
    """Spin-flip concurrence of a two-qubit state.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy).  They are taken, as in
    Wootters (PRL 80, 2245, 1998), as the singular values of
    V^T (sy x sy) V, where the columns of V are the eigenvectors of rho
    scaled by the square roots of their eigenvalues.  This keeps full
    precision on rank-deficient states, where square roots of the product's
    eigenvalues turn rounding noise of 1e-17 into errors of 1e-8.

    One matrix gives a float; a (..., 4, 4) stack gives an array of each
    member's value, computed by the same operations.
    """
    w, v = np.linalg.eigh(_as_matrix(state))
    scaled = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    lam = np.linalg.svd(scaled.swapaxes(-1, -2) @ _YY @ scaled, compute_uv=False)
    # lam.T[k] is lam[..., k] with the leading axes reversed, and .T puts
    # them back; for one matrix the entries are plain scalars.
    lam = lam.T
    c = (lam[0] - lam[1] - lam[2] - lam[3]).T
    return np.maximum(0.0, c) if c.ndim else max(0.0, float(c))


def concurrence_werner(p: float) -> float:
    """Closed-form concurrence max(0, (3p - 1)/2) of a visibility-p state."""
    check_visibility(p)
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def concurrence_bds(params: BdsParams | tuple) -> float:
    """Closed-form concurrence of a Bell-diagonal state.

    Equals max(0, 2 L - 1) with L the largest Bell-basis eigenvalue.
    """
    if not isinstance(params, BdsParams):
        params = BdsParams(*(float(t) for t in params))
    return max(0.0, 2.0 * max(params.eigenvalues()) - 1.0)


def teleportation_fidelity(state) -> float | np.ndarray:
    """Best average fidelity of standard teleportation through the state.

    F = (1 + N/3)/2 where N is the sum of the singular values of the
    correlation matrix T.  Singular values (not eigenvalues) keep the
    formula correct for correlation matrices with negative entries.
    One matrix gives a float; a (..., 4, 4) stack gives an array.
    """
    T = pauli_decompose(state).T
    n = np.linalg.svd(T, compute_uv=False).sum(axis=-1)
    f = (1.0 + n / 3.0) / 2.0
    return f if f.ndim else float(f)


def octahedron_separable(params: BdsParams | tuple) -> bool:
    """True iff |t1| + |t2| + |t3| <= 1 (the boundary counts as separable)."""
    if not isinstance(params, BdsParams):
        params = BdsParams(*(float(t) for t in params))
    return abs(params.t1) + abs(params.t2) + abs(params.t3) <= 1.0


def flags(c: float, f: float) -> tuple[bool, bool]:
    """(entangled, useful): C > FLAG_MARGIN and F > 2/3 + FLAG_MARGIN."""
    return c > FLAG_MARGIN, f > CLASSICAL_FIDELITY + FLAG_MARGIN


def report(state) -> MeasureReport:
    """Bundle concurrence, fidelity and the threshold flags of :func:`flags`."""
    c = concurrence(state)
    f = teleportation_fidelity(state)
    return MeasureReport(c, f, *flags(c, f))
