import math

import numpy as np
import pytest

from entswap import closedform as closedform_module
from entswap import (
    UNBOUNDED,
    BdsChainQuery,
    BdsParams,
    ChainSpec,
    DomainError,
    EntswapError,
    InvalidParametersError,
    NoiseModel,
    WernerChainQuery,
    bds_chain_concurrence,
    bds_chain_fidelity,
    bds_final_correlations,
    chain_swap,
    concurrence,
    concurrence_bds,
    eta_threshold,
    make_bell_diagonal,
    make_werner,
    max_entangled_swaps,
    subset_sum_normalization,
    teleportation_fidelity,
    visibility_product_threshold,
    werner_chain_concurrence,
    werner_chain_fidelity,
    werner_final_visibility,
)
from helpers import (
    different_eta_bds_concurrence,
    different_eta_werner_concurrence,
    perfect_werner_concurrence,
    random_tetrahedron_point,
    reference_closedform_final,
    reference_node_scale,
    same_eta_werner_concurrence,
    tripartite_ratio_werner_concurrence,
)


def wq(ps, etas=()):
    return WernerChainQuery(tuple(ps), NoiseModel(tuple(etas)))


def bq(ts, etas=()):
    return BdsChainQuery(tuple(BdsParams(*t) for t in ts), NoiseModel(tuple(etas)))


def test_final_visibility_examples():
    assert werner_final_visibility(wq((1, 1), (1,))) == 1.0
    assert werner_final_visibility(wq((1, 1), (2 / 3,))) == pytest.approx(1 / 3, abs=1e-15)
    assert werner_final_visibility(wq((0.9, 0.9, 0.9), (1, 1))) == pytest.approx(0.729, abs=1e-12)
    assert werner_final_visibility(wq((0.42,))) == 0.42  # no swap: single link


def test_chain_concurrence_examples():
    assert werner_chain_concurrence(wq((1, 1), (1,))) == 1.0
    assert werner_chain_concurrence(wq((0.8, 0.9), (1,))) == pytest.approx(0.58, abs=1e-12)
    assert werner_chain_concurrence(wq((1, 1, 1, 1), (0.9, 0.8, 0.7))) == 0.0


def test_chain_fidelity_examples():
    assert werner_chain_fidelity(wq((1, 1), (1,))) == 1.0
    assert werner_chain_fidelity(wq((1 / 3, 1.0), (1,))) == pytest.approx(2 / 3, abs=1e-15)
    assert werner_chain_fidelity(wq((1, 1), (0.9,))) == pytest.approx((1 + 0.9 / 1.3) / 2, abs=1e-12)


def test_query_validation():
    with pytest.raises(DomainError):
        wq((0.5, 0.5), (0.9, 0.9))
    with pytest.raises(DomainError):
        wq((1.5, 0.5), (0.9,))
    with pytest.raises(DomainError):
        bq([(0, 0, 0)], (0.5,))


def test_oracle_equivalence_werner():
    rng = np.random.default_rng(51)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        ps = 1 / 3 + (2 / 3) * rng.uniform(0, 1, size=n + 1)
        etas = rng.uniform(0, 1, size=n)
        query = wq(ps, etas)
        final = chain_swap(
            ChainSpec(tuple(make_werner(p) for p in ps), NoiseModel(tuple(etas)))
        )
        assert abs(werner_chain_concurrence(query) - concurrence(final)) < 1e-9
        assert abs(werner_chain_fidelity(query) - teleportation_fidelity(final)) < 1e-9


def test_oracle_equivalence_bds():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        ts = [random_tetrahedron_point(rng) for _ in range(n + 1)]
        etas = rng.uniform(0, 1, size=n)
        query = bq(ts, etas)
        final = chain_swap(
            ChainSpec(tuple(make_bell_diagonal(t) for t in ts), NoiseModel(tuple(etas)))
        )
        assert abs(bds_chain_concurrence(query) - concurrence(final)) < 1e-9
        assert abs(bds_chain_fidelity(query) - teleportation_fidelity(final)) < 1e-9


def test_normalization_identity():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        etas = rng.uniform(0, 1, size=n)
        direct = 1.0
        for eta in etas:
            direct *= 4.0 - 3.0 * eta
        subset = subset_sum_normalization(etas)
        assert abs(direct - subset) <= 1e-12 * max(1.0, abs(direct))


def test_reduction_to_same_eta_form():
    rng = np.random.default_rng(54)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = rng.uniform(1 / 3, 1)
        eta = rng.uniform(0, 1)
        display = same_eta_werner_concurrence(p, eta, n)
        implemented = werner_chain_concurrence(wq((p,) * (n + 1), (eta,) * n))
        assert abs(display - implemented) <= 1e-12


def test_reduction_to_different_eta_form():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        ps = rng.uniform(1 / 3, 1, size=n + 1)
        etas = rng.uniform(0, 1, size=n)
        display = different_eta_werner_concurrence(tuple(ps), tuple(etas))
        implemented = werner_chain_concurrence(wq(ps, etas))
        assert abs(display - implemented) <= 1e-12


def test_reduction_different_eta_collapses_to_same_eta():
    rng = np.random.default_rng(56)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = rng.uniform(1 / 3, 1)
        eta = rng.uniform(0, 1)
        as_different = different_eta_werner_concurrence((p,) * (n + 1), (eta,) * n)
        as_same = same_eta_werner_concurrence(p, eta, n)
        assert abs(as_different - as_same) <= 1e-12


def test_reduction_perfect_measurement_limit():
    rng = np.random.default_rng(57)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        ps = rng.uniform(1 / 3, 1, size=n + 1)
        with_perfect_nodes = werner_chain_concurrence(wq(ps, (1.0,) * n))
        assert abs(with_perfect_nodes - perfect_werner_concurrence(tuple(ps))) <= 1e-12
        as_display = different_eta_werner_concurrence(tuple(ps), (1.0,) * n)
        assert abs(as_display - perfect_werner_concurrence(tuple(ps))) <= 1e-12


def test_reduction_equal_visibilities_collapse():
    rng = np.random.default_rng(58)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = rng.uniform(1 / 3, 1)
        different_p_form = werner_chain_concurrence(wq((p,) * (n + 1), (1.0,) * n))
        same_p_form = max(0.0, (3.0 * p ** (n + 1) - 1.0) / 2.0)
        assert abs(different_p_form - same_p_form) <= 1e-12


def test_single_swap_ratio_display_form():
    rng = np.random.default_rng(59)
    for _ in range(200):
        p1, p2 = rng.uniform(1 / 3 + 1e-6, 1, size=2)
        display = tripartite_ratio_werner_concurrence(p1, p2)
        implemented = werner_chain_concurrence(wq((p1, p2), (1.0,)))
        assert abs(display - implemented) <= 1e-12


def test_bds_display_form_matches():
    rng = np.random.default_rng(60)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        ts = [random_tetrahedron_point(rng) for _ in range(n + 1)]
        etas = rng.uniform(0, 1, size=n)
        display = different_eta_bds_concurrence(ts, tuple(etas))
        implemented = bds_chain_concurrence(bq(ts, etas))
        assert abs(display - implemented) <= 1e-12


def test_bds_final_correlations_examples():
    c = bds_final_correlations(bq([(-0.8, -0.8, -0.8), (-0.8, -0.8, -0.8)], (1.0,)))
    assert c.as_tuple() == pytest.approx((0.64, -0.64, 0.64), abs=1e-15)
    c = bds_final_correlations(bq([(0, 0, 0), (0.3, -0.2, 0.1)], (1.0,)))
    assert c.as_tuple() == (0.0, 0.0, 0.0)
    c = bds_final_correlations(bq([(1, -1, 1), (1, -1, 1)], (1.0,)))
    assert c.as_tuple() == pytest.approx((1.0, -1.0, 1.0), abs=1e-15)


def test_bds_chain_concurrence_examples():
    assert bds_chain_concurrence(bq([(1, -1, 1), (1, -1, 1)], (1.0,))) == pytest.approx(1.0)
    werner_embedding = [(-1.0, -1.0, -1.0), (-1.0, -1.0, -1.0)]
    assert bds_chain_concurrence(bq(werner_embedding, (2 / 3,))) <= 1e-12
    rng = np.random.default_rng(61)
    for _ in range(50):
        separable = random_tetrahedron_point(rng)
        while abs(separable[0]) + abs(separable[1]) + abs(separable[2]) > 1:
            separable = random_tetrahedron_point(rng)
        other = random_tetrahedron_point(rng)
        assert bds_chain_concurrence(bq([separable, other], (1.0,))) == 0.0


def test_bds_chain_fidelity_examples():
    assert bds_chain_fidelity(bq([(1, -1, 1), (1, -1, 1)], (1.0,))) == pytest.approx(1.0)
    # visibility embedding at the product threshold 1/3
    werner_embedding = [(-1 / 3, -1 / 3, -1 / 3), (-1.0, -1.0, -1.0)]
    assert bds_chain_fidelity(bq(werner_embedding, (1.0,))) == pytest.approx(2 / 3, abs=1e-12)
    # component products give |c| = (0.25, 0.25, 0.25), so F = (1 + 0.25)/2
    same = [(0.5, -0.5, 0.5), (0.5, -0.5, 0.5)]
    assert bds_chain_fidelity(bq(same, (1.0,))) == pytest.approx(0.625, abs=1e-12)


def test_lambda_ratio_identity_when_links_entangled():
    rng = np.random.default_rng(62)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        ts = [random_tetrahedron_point(rng) for _ in range(n + 1)]
        link_cs = [concurrence_bds(t) for t in ts]
        if min(link_cs) <= 0:
            continue
        checked += 1
        etas = rng.uniform(0, 1, size=n)
        final = bds_final_correlations(bq(ts, etas))
        lam = sorted(final.eigenvalues(), reverse=True)
        combo = lam[0] - lam[1] - lam[2] - lam[3]
        c_out = bds_chain_concurrence(bq(ts, etas))
        assert abs(c_out - max(0.0, combo)) <= 1e-10
        # the ratio display cancels the link concurrences exactly
        prod_c = 1.0
        for c in link_cs:
            prod_c *= c
        ratio = combo / prod_c
        assert abs(max(0.0, ratio * prod_c) - c_out) <= 1e-10


def test_eta_threshold():
    assert eta_threshold() == 2.0 / 3.0
    assert werner_chain_concurrence(wq((1, 1), (2 / 3,))) <= 1e-12
    assert werner_chain_concurrence(wq((1, 1), (2 / 3 + 1e-6,))) > 0.0


def test_visibility_product_threshold():
    assert visibility_product_threshold() == 1.0 / 3.0
    eps = 1e-3
    assert werner_chain_concurrence(wq((1 / 3 + eps, 1.0), (1.0,))) == pytest.approx(
        1.5 * eps, abs=1e-12
    )
    assert werner_chain_fidelity(wq((1 / 3, 1.0), (1.0,))) == pytest.approx(2 / 3, abs=1e-15)


def test_max_entangled_swaps_table():
    assert max_entangled_swaps(0.85, 1.0) == 2
    assert max_entangled_swaps(0.99, 1.0) == 27
    assert max_entangled_swaps(0.7, 1.0) == 1
    assert max_entangled_swaps(0.9, 1.0) == 2
    assert max_entangled_swaps(1.0, 1.0) == UNBOUNDED
    assert max_entangled_swaps(0.5, 1.0) == 0
    assert max_entangled_swaps(1.0, 0.9) == 9  # 3 * 0.9^(n+1) > 1 up to n = 9


def test_max_entangled_swaps_boundary_counts_as_lost():
    # at eta = 2/3 and p = 1 the first swap lands exactly on the boundary
    assert max_entangled_swaps(2.0 / 3.0, 1.0) == 0


def test_max_entangled_swaps_matches_chain_concurrence():
    rng = np.random.default_rng(63)
    for _ in range(50):
        eta = rng.uniform(0.67, 1.0)
        p = rng.uniform(0.95, 1.0)
        n_max = max_entangled_swaps(eta, p)
        if n_max == UNBOUNDED:
            continue
        if n_max >= 1:
            assert werner_chain_concurrence(wq((p,) * (n_max + 1), (eta,) * n_max)) > 0
        lost = int(n_max) + 1
        assert werner_chain_concurrence(wq((p,) * (lost + 1), (eta,) * lost)) <= 1e-12


@pytest.mark.parametrize("p", [1.0 - 1e-13, 1.0 - 3e-14])
def test_max_entangled_swaps_steps_down_from_its_seed(p):
    # this close to p = 1 the search starts 8 and 31 swaps above the answer
    n = max_entangled_swaps(1.0, p)
    assert closedform_module._entangled_after(n, 1.0, p)
    assert not closedform_module._entangled_after(n + 1, 1.0, p)


def test_max_entangled_swaps_domain():
    with pytest.raises(DomainError):
        max_entangled_swaps(0.0, 1.0)
    with pytest.raises(DomainError):
        max_entangled_swaps(1.1, 1.0)
    with pytest.raises(DomainError):
        max_entangled_swaps(0.9, 1.0 / 3.0)
    with pytest.raises(DomainError):
        max_entangled_swaps(0.9, 1.2)


@pytest.mark.parametrize("eta, p", [("a", 0.9), (0.9, "a"), (None, 0.9), (0.9, [0.9]), (np.array([0.9]), 0.9),
                                    (np.complex128(0.9 + 1j), 0.9), (0.9, np.complex128(0.9))],
                         ids=["eta-string", "p-string", "eta-none", "p-list", "eta-array", "eta-complex", "p-complex"])
def test_max_entangled_swaps_refuses_what_is_not_a_real_number(eta, p):
    with pytest.raises(DomainError):
        max_entangled_swaps(eta, p)


def test_concurrence_monotonicity():
    base = werner_chain_concurrence(wq((0.9, 0.9), (0.9,)))
    assert werner_chain_concurrence(wq((0.95, 0.9), (0.9,))) >= base
    assert werner_chain_concurrence(wq((0.9, 0.9), (0.95,))) >= base
    for n in range(1, 5):
        longer = werner_chain_concurrence(wq((0.9,) * (n + 2), (0.9,) * (n + 1)))
        shorter = werner_chain_concurrence(wq((0.9,) * (n + 1), (0.9,) * n))
        assert longer <= shorter


def test_unbounded_sentinel_is_infinite():
    assert math.isinf(UNBOUNDED)


def _raised(build):
    """The EntswapError subclass that build() raises."""
    with pytest.raises(EntswapError) as info:
        build()
    return type(info.value)


NAN = float("nan")


@pytest.mark.parametrize("bad", [1.5, -0.1, NAN])
def test_stacked_werner_query_rejects_what_a_single_chain_rejects(bad):
    # the bad visibility sits in the last member of the second column
    scalar = _raised(lambda: wq((0.5, bad), (0.9,)))
    stacked = _raised(lambda: wq((np.array([0.5, 0.6, 0.7]), np.array([0.5, 0.6, bad])), (0.9,)))
    assert scalar is stacked is DomainError


@pytest.mark.parametrize("bad", [(1.0, 1.0, 1.0), (NAN, 0.0, 0.0), (0.0, math.inf, 0.0)])
def test_stacked_bds_query_rejects_what_a_single_chain_rejects(bad):
    # (1, 1, 1) lies outside the tetrahedron; NaN and inf are not numbers in it
    good = (0.3, -0.2, 0.1)
    scalar = _raised(lambda: bq([good, bad], (0.9,)))
    # the column holding the bad triple rejects it, as the query's own BdsParams does for one chain
    columns = ([good, good], [good, bad])
    stacked = _raised(lambda: BdsChainQuery(tuple(BdsParams(*np.array(c).T) for c in columns), NoiseModel((0.9,))))
    assert scalar is stacked is InvalidParametersError


def test_stacked_queries_reject_a_wrong_link_count():
    column = np.array([0.5, 0.9])
    assert _raised(lambda: wq((0.5, 0.5), (0.9, 0.9))) is _raised(lambda: wq((column, column), (0.9, 0.9)))
    triples = BdsParams(column, -column, column)
    assert _raised(lambda: bq([(0, 0, 0)], (0.5,))) is _raised(
        lambda: BdsChainQuery((triples,), NoiseModel((0.5,)))
    ) is DomainError


def test_stacked_queries_reject_columns_of_different_lengths():
    with pytest.raises(DomainError):
        wq((np.array([0.5, 0.6]), np.array([0.5, 0.6, 0.7])), (0.9,))
    short, long = np.zeros(2), np.zeros(3)
    with pytest.raises(DomainError):
        BdsChainQuery((BdsParams(short, short, short), BdsParams(long, long, long)), NoiseModel((0.9,)))
    with pytest.raises(InvalidParametersError):
        BdsParams(short, short, long)


@pytest.mark.parametrize("build", [
    lambda: BdsChainQuery(((1.0, 2.0),) * 2, (0.9,)),
    lambda: BdsChainQuery(((0.1, 0.2, 0.3, 0.4),) * 2, (0.9,)),
    lambda: BdsChainQuery((0.5, 0.5), (0.9,)),
    lambda: BdsChainQuery((("a", 0.0, 0.0),) * 2, (0.9,)),
    lambda: BdsChainQuery(((np.array([0.1 + 1j]), np.array([0.0]), np.array([0.0])),) * 2, (0.9,)),
], ids=["two-numbers", "four-numbers", "not-a-triple", "not-numbers", "complex-arrays"])
def test_bds_query_refuses_malformed_links(build):
    assert _raised(build) is InvalidParametersError


@pytest.mark.parametrize("build", [
    lambda: WernerChainQuery(("x", 0.9), (0.9,)),
    lambda: WernerChainQuery((None, 0.9), (0.9,)),
    lambda: WernerChainQuery((np.array(["x", "y"]), np.array([0.5, 0.9])), (0.9,)),
    lambda: WernerChainQuery((0.5 + 1j, 0.5), (0.9,)),
    lambda: WernerChainQuery((np.array([0.5 + 1j]), np.array([0.5])), (0.9,)),
    lambda: WernerChainQuery((np.complex128(0.5), 0.5), (0.9,)),
], ids=["string", "none", "string-array", "complex", "complex-array", "complex-numpy-scalar"])
def test_werner_query_refuses_malformed_links(build):
    assert _raised(build) is InvalidParametersError


@pytest.mark.parametrize("build", [
    lambda: WernerChainQuery(0.9, (0.9,)),
    lambda: BdsChainQuery(None, (0.9,)),
], ids=["werner-number", "bds-none"])
def test_queries_refuse_links_that_are_not_a_sequence(build):
    assert _raised(build) is InvalidParametersError


def test_queries_take_tuples_of_arrays_as_stacks():
    # a stack's links may come as plain tuples of arrays; each member is its own single chain
    t1, t2, t3 = np.array([0.5, 0.2]), np.array([-0.3, 0.1]), np.array([0.2, -0.4])
    stacked = BdsChainQuery(((t1, t2, t3),) * 2, (0.9,))
    assert isinstance(stacked.ts[0], BdsParams)
    for j in range(2):
        single = bq([(t1[j], t2[j], t3[j])] * 2, (0.9,))
        assert [t[j] for t in stacked.final.as_tuple()] == list(single.final.as_tuple())
    ps = np.array([0.5, 0.9])
    stacked = WernerChainQuery((ps, ps), (0.9,))
    assert stacked.final.tolist() == [wq((p, p), (0.9,)).final for p in ps.tolist()]


@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_max_entangled_swaps_just_above_the_visibility_threshold(eta):
    # one ulp above 1/3 the first swap already loses the entanglement, whatever eta
    assert max_entangled_swaps(eta, math.nextafter(1.0 / 3.0, 1.0)) == 0


_COLUMN = np.array([0.9, 0.6, 0.35])
_FINAL_ONCE_QUERIES = {
    "werner-single": lambda: wq((0.9, 0.8, 0.7), (0.9, 0.95)),
    "werner-stacked": lambda: wq((_COLUMN,) * 3, (0.9, 0.95)),
    "bds-single": lambda: bq([(0.5, -0.3, 0.2)] * 3, (0.9, 0.95)),
    "bds-stacked": lambda: BdsChainQuery((BdsParams(_COLUMN, -_COLUMN, _COLUMN),) * 3, NoiseModel((0.9, 0.95))),
}
_CLOSED_FORMS = {
    "werner": (werner_final_visibility, werner_chain_concurrence, werner_chain_fidelity),
    "bds": (bds_final_correlations, bds_chain_concurrence, bds_chain_fidelity),
}


@pytest.mark.parametrize("case", list(_FINAL_ONCE_QUERIES))
def test_a_query_computes_its_final_once(monkeypatch, case):
    # C, F and the final parameters of one query all read one computation of them
    query = _FINAL_ONCE_QUERIES[case]()
    final_of, concurrence_of, fidelity_of = _CLOSED_FORMS[case.split("-")[0]]
    calls = []
    node_scale = closedform_module._node_scale

    def counting(etas):
        calls.append(etas)
        return node_scale(etas)

    monkeypatch.setattr(closedform_module, "_node_scale", counting)
    first = final_of(query)
    concurrence_of(query)
    fidelity_of(query)
    assert final_of(query) is first
    assert len(calls) == 1


def test_queries_take_a_plain_tuple_of_etas():
    ps, etas = (0.9, 0.8, 0.95), (0.9, 0.7)
    ts = (BdsParams(0.8, -0.6, 0.5), BdsParams(0.7, -0.7, 0.6), BdsParams(1.0, -1.0, 1.0))
    werner, bds = WernerChainQuery(ps, etas), BdsChainQuery(ts, etas)
    assert werner.etas == bds.etas == NoiseModel(etas)
    assert werner.final == WernerChainQuery(ps, NoiseModel(etas)).final
    assert bds.final.as_tuple() == BdsChainQuery(ts, NoiseModel(etas)).final.as_tuple()
    for bad in ((0.9, 1.5), (-0.1, 0.9), (0.9, float("nan"))):
        with pytest.raises(DomainError):
            WernerChainQuery(ps, bad)
        with pytest.raises(DomainError):
            BdsChainQuery(ts, bad)


# signed zeros, subnormals and the bounds, drawn often among random values
_SPECIAL_LINKS = {
    "werner": [0.0, -0.0, 1.0, 5e-324, 2.5e-308, 1.0 / 3.0],
    "bds": [(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (5e-324, -5e-324, 0.0), (2.5e-308, 1e-310, -0.0),
            (1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)],
}
_SPECIAL_ETAS = [0.0, 1.0, 5e-324, 1e-310]


def _uniform(rng):
    return float(rng.random())


def _loop_route_draws(rng, count, special, draw):
    """``count`` values, each one of ``special`` with probability 1/3, else draw(rng)."""
    return [special[rng.integers(len(special))] if rng.random() < 1.0 / 3.0 else draw(rng) for _ in range(count)]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("family", ["werner", "bds"])
def test_finals_and_node_scales_equal_the_loop_route_bit_for_bit(family):
    # a chain's product runs from 1.0 in link order, its node scale in node order:
    # single queries, the cells of a stack and _node_scale must give the loops' bits
    rng = np.random.default_rng(20 if family == "werner" else 21)
    draw_link = _uniform if family == "werner" else random_tetrahedron_point
    for n in range(1, 9):
        for _ in range(25):
            links = _loop_route_draws(rng, n + 1, _SPECIAL_LINKS[family], draw_link)
            etas = tuple(_loop_route_draws(rng, n, _SPECIAL_ETAS, _uniform))
            noise = NoiseModel(etas)
            assert _bits(closedform_module._node_scale(noise)) == _bits(reference_node_scale(etas)), etas
            if family == "werner":
                final = WernerChainQuery(tuple(links), noise).final
            else:
                final = BdsChainQuery(tuple(BdsParams(*t) for t in links), noise).final.as_tuple()
            expected = reference_closedform_final(family, links, etas)
            assert _bits(final) == _bits(expected), (links, etas)
            # a single chain still gives Python floats
            assert all(type(value) is float for value in ((final,) if family == "werner" else final))
        # 7 chains of n swaps read in 4 cells: row k of the (n+1, 7) stack holds every chain's k-th link
        chains = [_loop_route_draws(rng, n + 1, _SPECIAL_LINKS[family], draw_link) for _ in range(7)]
        cells = [tuple(_loop_route_draws(rng, n, _SPECIAL_ETAS, _uniform)) for _ in range(4)]
        if family == "werner":
            stack = np.array(chains).T
            columns = list(stack)
        else:
            stack = BdsParams(*np.array(chains).transpose(2, 1, 0))
            columns = list(zip(stack.t1, stack.t2, stack.t3))
        for etas, query in zip(cells, closedform_module.cell_queries(stack, [NoiseModel(e) for e in cells])):
            final = query.final if family == "werner" else query.final.as_tuple()
            assert _bits(final) == _bits(reference_closedform_final(family, columns, etas)), (chains, etas)


@pytest.mark.parametrize("etas", [("a",), (math.inf,), (math.nan,), (True,), (0.5, 1.5), (-0.1,), 0.5, None],
                         ids=["text", "inf", "nan", "bool", "above-1", "below-0", "not-a-sequence", "none"])
def test_subset_sum_normalization_reads_its_etas_as_a_noise_model(etas):
    with pytest.raises(DomainError):
        subset_sum_normalization(etas)


def test_subset_sum_normalization_of_no_nodes_is_one():
    assert subset_sum_normalization(()) == 1.0
    assert subset_sum_normalization(NoiseModel((0.5, 1))) == subset_sum_normalization((0.5, 1.0)) == 2.5
