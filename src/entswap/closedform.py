"""Closed-form end-to-end quantities for Werner and Bell-diagonal chains.

Every formula reduces to two per-chain quantities: the surviving Werner
visibility and the surviving Bell-diagonal correlation triple.  Each
measuring node contributes a factor eta_i / (4 - 3 eta_i), so a chain of
n swaps scales its family parameters by prod eta_i / prod(4 - 3 eta_i).
The product form is equivalent to the expansion over subsets of failed
nodes (see :func:`subset_sum_normalization`) because
4 - 3 eta = eta + 4 (1 - eta).

The closed forms also take a stack of N chains that share their per-node
success probabilities.  Its query holds one column per link position: an
(N,) array of visibilities, or a BdsParams of (N,) correlation arrays,
which are the rows of an (n+1, N) stack.  The result is an array of each
chain's value.  A stack runs the same float operations as a single chain,
in the same order, so each member equals its single-chain result bit for
bit; a single chain still gives Python floats.

A query computes its surviving parameters once, as its ``final``; the
concurrence and fidelity of that query both read it.  The link products
do not depend on eta, so :func:`cell_queries` takes them once for a stack
read in K eta cells and scales them by a (K, 1) column of the cells' node
scales: one (K, N) final, whose row k each cell's query reads.  A single
query and the cells of a stack share one product-and-scale formula
(:func:`_werner_final`, :func:`_bds_final`): each link product is one
``math.prod`` from 1.0 in link order, as the node scale
(:func:`_node_scale`) is in node order.  The Werner concurrence of a final
is the formula :mod:`entswap.measures` states for a link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DomainError, InvalidParametersError, _shown
from .measures import FLAG_MARGIN, _werner_concurrence, concurrence_bds
from .states import BdsParams, _as_bds_params, _as_reals, _in_unit_interval, _unchecked, check_visibility
from .swap import NoiseModel, _as_noise

#: Returned by max_entangled_swaps when no number of swaps kills entanglement.
UNBOUNDED = math.inf


def _check_stack_shapes(columns) -> None:
    """Raise DomainError unless the array columns of a stack share one shape."""
    shapes = [column.shape for column in columns if isinstance(column, np.ndarray)]
    if len(set(shapes)) > 1:
        raise DomainError(f"the link columns of a stack must share one shape, got {shapes}")


def _as_links(links) -> tuple:
    """A chain's links as a tuple; links that are not a sequence raise InvalidParametersError."""
    try:
        return tuple(links)
    except TypeError:
        raise InvalidParametersError(f"a chain's links are a sequence, got {_shown(links)}") from None


@dataclass(frozen=True)
class WernerChainQuery:
    """n+1 link visibilities plus n per-node success probabilities.

    Each visibility is a float, or for a stack of N chains a float array
    of shape (N,) holding that link of every chain, read as a read-only float copy.
    """

    ps: tuple[float | np.ndarray, ...]
    etas: NoiseModel

    def __post_init__(self):
        try:
            ps = tuple(map(_as_reals, _as_links(self.ps)))
        except (TypeError, ValueError):
            raise InvalidParametersError(
                f"a visibility is a number or an array of them, got {_shown(self.ps)}"
            ) from None
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "etas", _as_noise(self.etas))
        self.etas.check_links(len(ps))
        _check_stack_shapes(ps)
        for p in ps:
            check_visibility(p)

    @cached_property
    def final(self) -> float | np.ndarray:
        """Visibility surviving the chain: prod(p_i) scaled per node by eta/(4-3 eta)."""
        return _werner_final(self.ps, _node_scale(self.etas))


@dataclass(frozen=True)
class BdsChainQuery:
    """n+1 link correlation triples plus n per-node success probabilities.

    Each triple is a BdsParams, or for a stack of N chains a BdsParams of
    (N,) arrays holding that link of every chain.
    """

    ts: tuple[BdsParams, ...]
    etas: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "ts", tuple(map(_as_bds_params, _as_links(self.ts))))
        object.__setattr__(self, "etas", _as_noise(self.etas))
        self.etas.check_links(len(self.ts))
        _check_stack_shapes([t.t1 for t in self.ts])

    @cached_property
    def final(self) -> BdsParams:
        """Correlation triple surviving the chain (see :func:`_bds_final`)."""
        t1s, t2s, t3s = zip(*(t.as_tuple() for t in self.ts))
        return _bds_final(t1s, t2s, t3s, _node_scale(self.etas), len(self.etas))


def _node_scale(etas: NoiseModel) -> float:
    """prod eta_i / (4 - 3 eta_i) over a chain's nodes, in node order."""
    return math.prod((eta / (4.0 - 3.0 * eta) for eta in etas.etas), start=1.0)


def _werner_final(ps, scale):
    """Visibility surviving a chain: the product of its visibilities times its node scale.

    The product runs in link order from 1.0: floats give a float, and (N,)
    columns, or the rows of an (n+1, N) stack, the (N,) array of each
    chain's product.  ``scale`` is one chain's node scale, or a (K, 1)
    column of K cells' scales, which gives the (K, N) final of a stack
    read in K cells.
    """
    return math.prod(ps, start=1.0) * scale


def _bds_final(t1s, t2s, t3s, scale, n: int) -> BdsParams:
    """Correlation triple surviving a chain of n swaps.

    (scale prod t1, scale (-1)^n prod t2, scale prod t3): the components
    are multiplied link by link, and the middle one picks up one sign per
    swap.  ``t1s``, ``t2s`` and ``t3s`` hold each link's component and
    ``scale`` is as for :func:`_werner_final`.
    """
    t1, t2, t3 = (math.prod(ts, start=1.0) for ts in (t1s, t2s, t3s))
    return BdsParams(scale * t1, scale * (-1.0) ** n * t2, scale * t3)


def cell_queries(links, cells) -> list:
    """One query per eta cell of a stack of N chains, all reading one (K, N) final.

    ``links`` is the stack, checked whole when it was built: an (n+1, N)
    visibility array or a BdsParams of (n+1, N) arrays, row k holding every
    chain's k-th link.  ``cells`` holds the K cells' NoiseModels.  The link
    products are taken once; the cells' node scales, as a (K, 1) column,
    turn them into the (K, N) final (a Bell-diagonal one is checked once).
    Query k holds the stack's rows, cell k's noise and row k of the final,
    which is what its own ``final`` would compute: the same float
    operations in the same order.
    """
    werner = not isinstance(links, BdsParams)
    rows = tuple(links) if werner else links._rows()
    for noise in cells:
        noise.check_links(len(rows))
    scales = np.array([_node_scale(noise) for noise in cells])[:, None]
    if werner:
        final = _werner_final(links, scales)
        return [_unchecked(WernerChainQuery, ps=rows, etas=noise, final=p) for noise, p in zip(cells, final)]
    final = _bds_final(links.t1, links.t2, links.t3, scales, len(rows) - 1)
    return [_unchecked(BdsChainQuery, ts=rows, etas=noise, final=t) for noise, t in zip(cells, final._rows())]


def werner_final_visibility(query: WernerChainQuery) -> float | np.ndarray:
    """Visibility surviving the chain (the query's cached ``final``)."""
    return query.final


def werner_chain_concurrence(query: WernerChainQuery) -> float | np.ndarray:
    """End-to-end concurrence max(0, (3 p_final - 1)/2) of a Werner chain."""
    return _werner_concurrence(query.final)


def werner_chain_fidelity(query: WernerChainQuery) -> float | np.ndarray:
    """End-to-end teleportation fidelity (1 + p_final)/2 of a Werner chain."""
    return (1.0 + query.final) / 2.0


def bds_final_correlations(query: BdsChainQuery) -> BdsParams:
    """Correlation triple surviving a Bell-diagonal chain (the query's cached ``final``)."""
    return query.final


def bds_chain_concurrence(query: BdsChainQuery) -> float | np.ndarray:
    """End-to-end concurrence of a Bell-diagonal chain."""
    return concurrence_bds(query.final)


def bds_chain_fidelity(query: BdsChainQuery) -> float | np.ndarray:
    """End-to-end teleportation fidelity of a Bell-diagonal chain."""
    c = query.final
    return (1.0 + (abs(c.t1) + abs(c.t2) + abs(c.t3)) / 3.0) / 2.0


def eta_threshold() -> float:
    """Success probability at or below which a single swap never entangles: 2/3."""
    return 2.0 / 3.0


def visibility_product_threshold() -> float:
    """Product of link visibilities a perfect chain must exceed: 1/3."""
    return 1.0 / 3.0


def _entangled_after(n: int, eta: float, p: float) -> bool:
    # log-space form of 3 p^(n+1) eta^n > (4 - 3 eta)^n, robust for large n;
    # the flag margin makes boundary equality count as not entangled
    margin = (
        math.log(3.0)
        + (n + 1) * math.log(p)
        + n * (math.log(eta) - math.log(4.0 - 3.0 * eta))
    )
    return margin > FLAG_MARGIN


def max_entangled_swaps(eta: float, p: float) -> int | float:
    """Largest number of swaps after which identical links stay entangled.

    Links share visibility p and every node succeeds with probability eta.
    Returns UNBOUNDED for the loss-free perfect chain (eta = p = 1) and 0
    when even a single swap breaks entanglement.
    """
    # _in_unit_interval refuses what is not one real number, so a string or a complex value raises DomainError too
    if not (_in_unit_interval(eta) and eta > 0.0):
        raise DomainError(f"eta must lie in (0, 1], got {_shown(eta, str)}")
    if not (_in_unit_interval(p) and p > 1.0 / 3.0):
        raise DomainError(f"p must lie in (1/3, 1], got {_shown(p, str)}")
    if eta == 1.0 and p == 1.0:
        return UNBOUNDED
    # the survival margin shrinks by log((4-3 eta)/(eta p)) > 0 per swap;
    # seed the search near the analytic crossover, then settle it exactly
    per_swap = math.log(4.0 - 3.0 * eta) - math.log(eta) - math.log(p)
    n = max(0, int((math.log(3.0) + math.log(p)) / per_swap) - 2)
    while _entangled_after(n + 1, eta, p):
        n += 1
    while n > 0 and not _entangled_after(n, eta, p):
        n -= 1
    return n


def subset_sum_normalization(etas) -> float:
    """Chain normalization summed over every subset of failed nodes.

    Each subset S contributes 4^|S| prod_{i in S}(1 - eta_i)
    prod_{i not in S} eta_i.  Telescopes to prod_i (4 - 3 eta_i); kept as
    an independent route for cross-checks.  The etas are checked as a
    NoiseModel's, so a value that is not a probability raises DomainError.
    """
    etas = _as_noise(etas).etas
    terms = []
    for size in range(len(etas) + 1):
        for failed in combinations(range(len(etas)), size):
            term = 4.0 ** size
            for i, eta in enumerate(etas):
                term *= (1.0 - eta) if i in failed else eta
            terms.append(term)
    return math.fsum(terms)
