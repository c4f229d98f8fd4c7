"""Shared test utilities.

The chain formulas here are deliberately written in their long display
forms (geometric sums, explicit subset sums, sorted eigenvalue lists) so
they provide an independent route against the package's reduced product
implementations.  reference_sample_state keeps an earlier form of the
Werner and Bell-diagonal draws, against which the sampler is pinned, and
reference_paper_step and reference_povm_step an earlier form of the
oracle's swap steps, and reference_closedform_end_state an earlier route
to the closedform engine's end state.  reference_node_scale and
reference_closedform_final keep the loops that took the closed forms'
node scales and finals before they became math.prod calls.
"""

import math
from itertools import combinations

import numpy as np

from entswap import BdsParams, ConfigError, WernerParams, concurrence_bds, make_bell_diagonal, make_werner


def ginibre_matrix(rng, rank=4):
    """Random density matrix rho = G G+ / Tr(G G+) with G of shape 4 x rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def random_tetrahedron_point(rng):
    while True:
        t1, t2, t3 = rng.uniform(-1.0, 1.0, size=3)
        if (
            1 - t1 - t2 - t3 >= 0
            and 1 - t1 + t2 + t3 >= 0
            and 1 + t1 - t2 + t3 >= 0
            and 1 + t1 + t2 - t3 >= 0
        ):
            return (float(t1), float(t2), float(t3))


def prod(values):
    out = 1.0
    for v in values:
        out *= v
    return out


def geometric_tail(eta, n):
    """sum_{i=0}^{n-1} eta^(n-1-i) (eta + 4(1-eta))^i"""
    return math.fsum(eta ** (n - 1 - i) * (eta + 4.0 * (1.0 - eta)) ** i for i in range(n))


def failed_subset_tail(etas):
    """sum over non-empty failure subsets of 4^|S| prod(1-eta_S) prod(eta_rest)."""
    n = len(etas)
    terms = []
    for size in range(1, n + 1):
        for failed in combinations(range(n), size):
            term = 4.0 ** size
            for i, eta in enumerate(etas):
                term *= (1.0 - eta) if i in failed else eta
            terms.append(term)
    return math.fsum(terms)


def perfect_werner_concurrence(ps):
    return max(0.0, (3.0 * prod(ps) - 1.0) / 2.0)


def same_eta_werner_concurrence(p, eta, n):
    """Identical links, identical nodes, via the geometric-sum display form."""
    tail = 4.0 * (1.0 - eta) * geometric_tail(eta, n)
    norm = eta ** n + tail
    numerator = eta ** n * (3.0 * p ** (n + 1) - 1.0) - tail
    return max(0.0, numerator / (2.0 * norm))


def different_eta_werner_concurrence(ps, etas):
    """Different links, different nodes, via the subset-sum display form."""
    n = len(etas)
    tail = failed_subset_tail(etas)
    norm = prod(etas) + tail
    numerator = prod(etas) * (3.0 * prod(ps) - 1.0) - tail
    return max(0.0, numerator / (2.0 * norm))


def tripartite_ratio_werner_concurrence(p1, p2):
    """Single-swap display form written through the input concurrences."""
    c12 = (3.0 * p1 - 1.0) / 2.0
    c23 = (3.0 * p2 - 1.0) / 2.0
    ratio = 2.0 * (3.0 * p1 * p2 - 1.0) / ((3.0 * p1 - 1.0) * (3.0 * p2 - 1.0))
    return max(0.0, ratio * c12 * c23)


def different_eta_bds_concurrence(ts, etas):
    """Sorted-eigenvalue display form for a Bell-diagonal chain."""
    n = len(etas)
    tail = failed_subset_tail(etas)
    norm = prod(etas) + tail
    a = prod(t[0] for t in ts)
    b = prod(t[1] for t in ts)
    c = prod(t[2] for t in ts)
    sign_b = (-1.0) ** n * b
    raw = sorted(
        (
            prod(etas) * (1 + a - sign_b + c) + tail,
            prod(etas) * (1 - a + sign_b + c) + tail,
            prod(etas) * (1 + a + sign_b - c) + tail,
            prod(etas) * (1 - a - sign_b - c) + tail,
        ),
        reverse=True,
    )
    return max(0.0, (raw[0] - raw[1] - raw[2] - raw[3]) / (4.0 * norm))


def brute_min_eigenvalue(matrix):
    return float(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)[0])


# Frozen reference for the Werner and Bell-diagonal draws: the rejection
# loops of entswap.sweep.sample_state as they were when every try called
# Generator.uniform.  sample_state must give the same links, and leave the
# stream at the same point, bit for bit.
_MAX_REJECTIONS = 1_000_000


def _inside_tetrahedron(t1: float, t2: float, t3: float) -> bool:
    return (
        1 - t1 - t2 - t3 >= 0
        and 1 - t1 + t2 + t3 >= 0
        and 1 + t1 - t2 + t3 >= 0
        and 1 + t1 + t2 - t3 >= 0
    )


def reference_sample_state(family, rng, entangled_inputs_only=False, *, dense=True):
    """One werner or bds link drawn with Generator.uniform: (family parameters, state or None)."""
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
    else:
        raise ConfigError(f"unknown family {family!r}")
    raise ConfigError(f"rejection sampling for {family!r} did not converge")


# Frozen reference for the oracle's swap steps: both modes as they read the
# whole step table (both parts) and built each intermediate as a new array.
# The package's steps must give the same matrices, bit for bit.
def _reference_step_parts(left_m, right_m):
    from entswap.swap import _STEP_TABLE

    lead = left_m.shape[:-2]
    half = (left_m.reshape(lead + (16,)) @ _STEP_TABLE).reshape(lead + (16, -1))
    return (right_m.reshape(lead + (1, 16)) @ half).reshape(lead + (-1, 4, 4))


def _reference_normalized(m):
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def reference_paper_step(left_m, right_m, eta):
    """Paper step of (..., 4, 4) stacks of links: the normalized part 0 mixed with the identity."""
    perfect = _reference_normalized(_reference_step_parts(left_m, right_m)[..., 0, :, :])
    return (eta * perfect + (1.0 - eta) * np.eye(4, dtype=complex)) / (4.0 - 3.0 * eta)


def reference_povm_step(left_m, right_m, eta):
    """Povm step of (..., 4, 4) stacks of links: the eta-weighted parts, normalized."""
    parts = _reference_step_parts(left_m, right_m)
    return _reference_normalized(eta * parts[..., 0, :, :] + (1.0 - eta) * parts[..., 1, :, :])


# Frozen reference for the closedform engine's end state: evaluate_chain's
# second route, which built a Bell-diagonal query of its own (a Werner link
# being the triple (-p, -p, -p)) and read its final triple.  The package's
# end state, now built from the chain's own closed-form final, must give
# the same matrix, bit for bit.
def reference_closedform_end_state(family, link_params, etas):
    """The 4x4 closed-form end state of one Werner or BDS chain, by the second-query route."""
    if family == "werner":
        ts = [(-p.p, -p.p, -p.p) for p in link_params]
    else:
        ts = [t.as_tuple() for t in link_params]
    final = BdsParams(*reference_closedform_final("bds", ts, [float(eta) for eta in etas]))
    return make_bell_diagonal(final).matrix


# The closed forms' node scale and final parameters, each product taken by
# an explicit loop from 1.0 in node or link order.  math.prod runs the same
# multiplications in the same order, so the package must match these bit for
# bit, on floats and on (N,) columns alike.
def reference_node_scale(etas):
    """prod eta / (4 - 3 eta), node by node."""
    scale = 1.0
    for eta in etas:
        scale *= eta / (4.0 - 3.0 * eta)
    return scale


def reference_closedform_final(family, links, etas):
    """Final visibility, or final (t1, t2, t3), of a Werner or BDS chain of len(etas) swaps.

    ``links`` holds the chain's visibilities or correlation triples, as
    floats or as (N,) columns of a stack of N chains.
    """
    scale = reference_node_scale(etas)
    if family == "werner":
        product = 1.0
        for p in links:
            product *= p
        return product * scale
    c1 = c2 = c3 = 1.0
    for t1, t2, t3 in links:
        c1 *= t1
        c2 *= t2
        c3 *= t3
    return (scale * c1, scale * (-1.0) ** len(etas) * c2, scale * c3)
