"""Crossing-count networks: validation, exact laws, tours, measures, flows."""

import hashlib
import math
import warnings
from itertools import islice

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import (
    BadExactInput,
    BadForm,
    BadGraph,
    BadIntensity,
    BadMassBudget,
    BadPartition,
    BudgetExceeded,
    DisconnectedSupport,
    LoopSoupError,
    ModifierMatrix,
    Network,
    NotEulerian,
    TooLarge,
    WeightedGraph,
    ZeroNetwork,
    best_tour_count,
    build_kernel,
    enumerate_eulerian,
    eulerian,
    exact_network_prob_alpha,
    exact_network_prob_alpha1,
    generating_function,
    max_flow,
    mu_network_measure,
    verify_poisson_convolution,
)
from loopsoup.eulerian import (
    ALPHA_NETWORK_CAP,
    _alpha1_law,
    _circulation_layers,
    _count_matrices,
    _directed_edges,
    _enumerate_layers,
    _loop_measure,
    _poisson_series,
    _key_weights,
    _row_terms,
    _sub_circulations,
)
from loopsoup import verify as verify_module
from loopsoup.verify import (
    _all_balanced_up_to,
    check_mu_measure,
    nb_pmf,
    random_connected_graph,
    random_eulerian_network,
    triangle_graph,
)


K4_ENUMERATION = "e6aee36536d79fdd9d273e7c7ecadd4742f461e5b38556b0b8b0bc25d4343db0"
ALPHA_ROUTE_K4 = "ce8a8f8cc24bbbd49c8038e13b42cc5da5035d6aad6226d7568d96645f4645c5"


def _two_point_net(graph, n):
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[0, 1] = counts[1, 0] = n
    return Network(graph, counts)


def _directed_triangle(graph):
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 1] = counts[1, 2] = counts[2, 0] = 1
    return Network(graph, counts)


# ---------------------------------------------------------------- validation


def test_network_validation(two_point, triangle):
    with pytest.raises(BadGraph):
        Network(two_point, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(BadGraph):
        Network(two_point, np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(BadGraph):
        Network(two_point, np.array([[0, -1], [1, 0]]))
    with pytest.raises(BadGraph):
        Network(two_point, np.array([[1, 0], [0, 0]]))  # diagonal
    bad = np.zeros((3, 3), dtype=np.int64)
    # path graph below has no a-c edge; triangle does, so build a path
    path = WeightedGraph.build(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)), {"a": 1.0})
    bad[0, 2] = 1
    with pytest.raises(BadGraph):
        Network(path, bad)
    # integral floats are accepted and coerced
    net = Network(two_point, np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert net.counts.dtype == np.int64
    assert net.total == 4


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_counts_rejected(two_point, value):
    # a JSON count of 1e400 parses as inf; it must not reach the int cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadGraph, match="finite"):
            Network(two_point, np.array([[0.0, value], [value, 0.0]]))
        with pytest.raises(BadGraph, match="finite"):
            Network.from_json_dict(two_point, {"counts": [[0, value], [value, 0]]})


@pytest.mark.parametrize("counts", [
    [[0, "1"], ["1", 0]],
    [[0, None], [1, 0]],
    np.array([[0, 1], [1, 0]], dtype=object),
    [[0, 1], [1]],
    # JSON true and false, which numpy reads as 1 and 0
    [[0, True], [True, 0]],
    [[0, 1], [np.True_, 0]],
    [[False, True], [True, False]],
    np.array([[False, True], [True, False]]),
])
def test_non_numeric_counts_rejected(two_point, counts):
    for make in (lambda: Network(two_point, counts),
                 lambda: Network.stack(two_point, [counts]),
                 lambda: Network.from_json_dict(two_point, {"counts": counts})):
        with pytest.raises(BadGraph, match="matrix of numbers"):
            make()


def _malformed_stacks():
    """(stack, message) pairs: one bad row among good ones, each check once."""
    good = np.array([[0, 2], [2, 0]])
    bad_rows = [
        (np.array([[0.0, 0.5], [0.5, 0.0]]), "integers"),
        (np.array([[0.0, np.inf], [1.0, 0.0]]), "finite"),
        (np.array([[0, -1], [1, 0]]), "nonnegative"),
        (np.array([[1, 0], [0, 0]]), "off the edge set"),
    ]
    stacks = [(np.array([good, row, good]), match) for row, match in bad_rows]
    stacks.append((np.zeros((2, 3, 3), dtype=np.int64), "2x2, got shape"))
    return stacks


def test_stack_raises_as_each_network(two_point, triangle):
    for stack, match in _malformed_stacks():
        with pytest.raises(BadGraph, match=match) as per_row:
            for row in stack:
                Network(two_point, row)
        with pytest.raises(BadGraph) as stacked:
            Network.stack(two_point, stack)
        assert str(stacked.value) == str(per_row.value)
    # a graph with a self-conductance reaches the diagonal check
    looped = WeightedGraph(triangle.vertices, np.ones((3, 3)), triangle.killing)
    diagonal = np.diag([0, 1, 0])[None]
    with pytest.raises(BadGraph, match="on the diagonal"):
        Network(looped, diagonal[0])
    with pytest.raises(BadGraph, match="on the diagonal"):
        Network.stack(looped, diagonal)


def test_stack_equals_each_network():
    graph = _complete_graph(4, 3.0)
    counts = np.array([entry.network.counts
                       for entry in enumerate_eulerian(build_kernel(graph), 1e-3)])
    stacked = Network.stack(graph, counts.astype(float))
    assert len(stacked) == len(counts) == 1396
    for net, row in zip(stacked, counts):
        single = Network(graph, row)
        assert net == single and net.graph is graph
        assert net.counts.dtype == np.int64 and not net.counts.flags.writeable
        assert net.is_eulerian() and net.total == single.total and net.key() == single.key()


def test_network_accessors(two_point):
    net = _two_point_net(two_point, 3)
    assert net.is_eulerian()
    assert list(net.out_degrees) == [3, 3]
    assert list(net.support) == [0, 1]
    assert oracles.support_connected(net)
    unbal = Network(two_point, np.array([[0, 2], [1, 0]]))
    assert not unbal.is_eulerian()
    both = Network(two_point, net.counts + _two_point_net(two_point, 1).counts)
    assert both.total == 8
    rt = Network.from_json_dict(two_point, net.to_json_dict())
    assert rt == net
    assert Network.zeros(two_point).total == 0


def test_disconnected_support():
    g = WeightedGraph.build(
        ("a", "b", "c", "d"),
        (("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)),
        {"a": 1.0},
    )
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 1] = counts[1, 0] = 1
    counts[2, 3] = counts[3, 2] = 1
    net = Network(g, counts)
    assert net.is_eulerian()
    assert not oracles.support_connected(net)
    with pytest.raises(DisconnectedSupport):
        best_tour_count(net)
    # a one-loop measure cannot split across components
    assert mu_network_measure(build_kernel(g), net) == 0.0


# ------------------------------------------------------------ edge modifiers


def test_modifier_validation(triangle_kernel):
    with pytest.raises(BadForm, match="square"):
        ModifierMatrix(np.ones((2, 3)))
    with pytest.raises(BadForm, match="must be 3x3"):
        generating_function(triangle_kernel, np.ones((2, 2)), 1.0)
    with pytest.raises(BadForm):
        ModifierMatrix(np.array([[1.0, 1j], [1j, 1.0]]))  # not Hermitian
    with pytest.raises(BadForm):
        ModifierMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # modulus > 1
    z = ModifierMatrix.from_edge_value(2, 0, 1, 0.5j)
    assert z.entries[1, 0] == pytest.approx(-0.5j)
    with pytest.raises(BadForm):  # symmetric one-form: exp(2 pi i omega) is not Hermitian
        ModifierMatrix(np.exp(2j * np.pi * np.array([[0.0, 0.2], [0.2, 0.0]])))
    w = ModifierMatrix(np.exp(2j * np.pi * np.array([[0.0, 0.25], [-0.25, 0.0]])))
    assert w.entries[0, 1] == pytest.approx(1j)


def test_generating_function_closed_forms(two_point_kernel):
    # all-ones modifier is the total mass
    assert generating_function(two_point_kernel, np.ones((2, 2)), 1.0) == pytest.approx(1.0)
    # zero modifier picks out P(N = 0) = det(I - P)^alpha
    zero = ModifierMatrix(np.zeros((2, 2)))
    for alpha in (0.5, 1.0, 2.0):
        assert generating_function(two_point_kernel, zero, alpha) == pytest.approx(0.75**alpha)
    # real scalar s on the single edge: E s^(2N) with N geometric(3/4) on {0,1,...}
    for s in (0.3, 0.7, 1.0):
        val = generating_function(
            two_point_kernel, ModifierMatrix.from_edge_value(2, 0, 1, s), 1.0
        )
        assert val == pytest.approx((3 / 4) / (1 - s * s / 4))


def test_generating_function_unimodular_bounded(triangle_kernel):
    # characteristic-function property: |value| <= 1 on unit-modulus twists
    rng = np.random.default_rng(9)
    for _ in range(20):
        omega = rng.uniform(-0.5, 0.5, size=(3, 3))
        omega = omega - omega.T
        z = ModifierMatrix(np.exp(2j * np.pi * omega))
        for alpha in (0.5, 1.0, 2.0):
            assert abs(generating_function(triangle_kernel, z, alpha)) <= 1.0 + 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 0.37])
def test_ratio_power_takes_the_complex_power_on_non_real_points(alpha):
    # the real power where the ratio is real positive, the complex power of
    # the whole array elsewhere, to the bit: NaNs, infinities, signed zeros,
    # subnormals and tiny imaginary parts included
    parts = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324,
                      1e-10, 2.5, -3.0])
    grid = np.empty(parts.size**2, dtype=complex)
    grid.real, grid.imag = (axis.ravel() for axis in np.meshgrid(parts, parts))
    rng = np.random.default_rng(3)
    ratio = np.concatenate([grid,
                            rng.normal(size=500) + 1e-10j * rng.normal(size=500),
                            rng.normal(size=500) + 1j * rng.normal(size=500)])
    with np.errstate(all="ignore"):
        real = (ratio.real > 0) & (np.abs(ratio.imag) < 1e-9 * np.maximum(1.0, ratio.real))
        expected = np.where(real, np.abs(ratio.real) ** -alpha, ratio ** -alpha)
        got = eulerian._ratio_power(ratio, alpha)
    assert (~real).sum() > 500
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), "1"])
def test_exact_intensity_is_typed(triangle, triangle_kernel, monkeypatch, alpha):
    def no_work(*args):
        raise AssertionError("work began before the intensity check")

    monkeypatch.setattr(eulerian, "_circulation_layers", no_work)
    monkeypatch.setattr(eulerian, "_sub_circulations", no_work)
    monkeypatch.setattr(eulerian, "_cycle_covers", no_work)
    monkeypatch.setattr(eulerian, "_as_modifier_array", no_work)
    for call in (
        lambda: exact_network_prob_alpha(triangle_kernel, _directed_triangle(triangle), alpha),
        lambda: generating_function(triangle_kernel, np.ones((3, 3)), alpha),
    ):
        with pytest.raises(BadIntensity, match="intensity must be positive and finite"):
            call()


# ------------------------------------------------------------- exact network


def test_exact_prob_factorial_route(two_point, two_point_kernel):
    for n in range(4):
        p = exact_network_prob_alpha1(two_point_kernel, _two_point_net(two_point, n))
        assert p == pytest.approx((3 / 4) * (1 / 4) ** n)
    unbalanced = Network(two_point, np.array([[0, 1], [0, 0]]))
    for call in (lambda: exact_network_prob_alpha1(two_point_kernel, unbalanced),
                 lambda: exact_network_prob_alpha(two_point_kernel, unbalanced, 0.5),
                 lambda: mu_network_measure(two_point_kernel, unbalanced)):
        with pytest.raises(NotEulerian):
            call()


def test_exact_prob_alpha_route_vs_nb(two_point, two_point_kernel):
    # the single-edge network law is negative binomial in the crossing count
    for alpha in (0.5, 1.0, 2.0):
        for n in range(4):
            p = exact_network_prob_alpha(two_point_kernel, _two_point_net(two_point, n), alpha)
            assert p == pytest.approx(nb_pmf(n, alpha), abs=1e-12)


def test_exact_prob_routes_agree_triangle(triangle, triangle_kernel):
    for net in _all_balanced_up_to(triangle, 4):
        if net.total == 0:
            continue
        p1 = exact_network_prob_alpha1(triangle_kernel, net)
        pa = exact_network_prob_alpha(triangle_kernel, net, 1.0)
        assert pa == pytest.approx(p1, abs=1e-12)


def test_exact_prob_alpha_cap(two_point, two_point_kernel):
    over = _two_point_net(two_point, ALPHA_NETWORK_CAP // 2 + 1)
    with pytest.raises(TooLarge):
        exact_network_prob_alpha(two_point_kernel, over, 1.0)


def test_alpha_route_at_the_cap(triangle, triangle_kernel):
    # five turns one way, two the other and one back-and-forth on each edge
    net = Network(triangle, np.array([[0, 6, 3], [3, 0, 6], [6, 3, 0]]))
    assert net.total == ALPHA_NETWORK_CAP
    assert exact_network_prob_alpha(triangle_kernel, net, 1.0) == pytest.approx(
        exact_network_prob_alpha1(triangle_kernel, net), rel=1e-12, abs=0.0)


def _assert_alpha_route_matches_oracle(graph, max_total):
    # the cycle-cover route against the permutation sum and the mu series
    kernel = build_kernel(graph)
    for net in _all_balanced_up_to(graph, max_total):
        for alpha in (0.5, 1.0, 2.0):
            got = exact_network_prob_alpha(kernel, net, alpha)
            for oracle in (oracles.network_prob_alpha, oracles.network_prob_alpha_mu_series):
                assert got == pytest.approx(oracle(kernel, net, alpha), rel=1e-12, abs=0.0)


def test_alpha_route_matches_permutation_sum(two_point, triangle, path3, complete4):
    for graph in (two_point, triangle):
        _assert_alpha_route_matches_oracle(graph, 8)
    rng = np.random.default_rng(11)
    for graph in (path3, complete4, *(random_connected_graph(rng) for _ in range(4))):
        _assert_alpha_route_matches_oracle(graph, 6)


def _killed_at_first_vertex(graph, killing):
    edges = [(graph.vertices[i], graph.vertices[j], float(graph.conductance[i, j]))
             for i, j in graph.edge_pairs]
    return WeightedGraph.build(graph.vertices, edges, {graph.vertices[0]: killing})


@pytest.mark.parametrize("killing", [1.0, 1e-2, 1e-4])
def test_alpha_route_under_weak_killing(two_point, triangle, path3, complete4, killing):
    # weak killing takes det(I - P) toward 0, so the signed cover
    # coefficients, which sum to it, would cancel there first
    rng = np.random.default_rng(11)
    for graph in (two_point, triangle, path3, complete4,
                  *(random_connected_graph(rng) for _ in range(4))):
        graph = _killed_at_first_vertex(graph, killing)
        _assert_alpha_route_matches_oracle(graph, 6)
        kernel = build_kernel(graph)
        for alpha in (0.5, 1.0, 2.0):
            assert exact_network_prob_alpha(kernel, Network.zeros(graph), alpha) == (
                kernel.det_i_minus_p**alpha)


def test_oracles_catch_dropped_multi_cycle_covers(complete4, monkeypatch):
    # two-point and the triangle carry no two vertex-disjoint cycles, so
    # check 3 never meets a cover of two or more cycles; K4 does
    original = eulerian._cycle_covers

    def single_cycles_only(kernel, edges):
        covers, coef = original(kernel, edges)
        cycles = eulerian._simple_cycles(kernel.graph, edges)
        single = (covers[:, None, :] == cycles[None]).all(axis=2).any(axis=1)
        return covers[single], coef[single]

    monkeypatch.setattr(eulerian, "_cycle_covers", single_cycles_only)
    assert verify_module.check_alpha_routes_agree().passed
    with pytest.raises(AssertionError):
        _assert_alpha_route_matches_oracle(complete4, 6)


def test_alpha_route_on_a_wide_graph():
    # K6 has 30 directed edges; keys over the support alone keep |k| = 8 in reach
    k6 = _complete_graph(6, 2.0)
    kernel = build_kernel(k6)
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    counts = np.zeros((6, 6), dtype=np.int64)
    for x, y in hexagon + [(0, 3), (3, 0)]:
        counts[x, y] += 1
    net = Network(k6, counts)
    for alpha in (0.5, 2.0):
        assert exact_network_prob_alpha(kernel, net, alpha) == pytest.approx(
            oracles.network_prob_alpha(kernel, net, alpha), rel=1e-12, abs=0.0)
    for x, y in [(0, 2), (2, 4), (4, 0)]:
        counts[x, y] += 1
    with pytest.raises(TooLarge):
        exact_network_prob_alpha(kernel, Network(k6, counts * ALPHA_NETWORK_CAP), 0.5)


def test_sub_circulations_match_composition_filter(two_point, triangle, complete4):
    rng = np.random.default_rng(11)
    cases = [(two_point, 8), (triangle, 8), (complete4, 8),
             *((random_connected_graph(rng), 6) for _ in range(4))]
    for graph, top in cases:
        # the oracle's layers over every directed edge in row-major order: a
        # support's edges come in the same order, so rows up to k keep theirs
        edges = sorted(_directed_edges(graph))
        oracle = [np.array([net.counts for net in oracles.balanced_layer(graph, edges, m)],
                           dtype=np.int64).reshape(-1, graph.n, graph.n)
                  for m in range(top + 1)]
        for net in _all_balanced_up_to(graph, top):
            rows, sizes = _sub_circulations(net.counts)
            assert len(sizes) == net.total + 1
            support = np.nonzero(net.counts)
            for layer, full in zip(np.split(rows, np.cumsum(sizes)[:-1]), oracle):
                below = full[(full <= net.counts).all(axis=(1, 2))]
                assert np.array_equal(layer, below[(slice(None), *support)])  # rows, order


def test_alpha_route_needs_k_on_top(triangle, triangle_kernel, monkeypatch):
    original = eulerian._sub_circulations

    def drop_top(*args):
        rows, sizes = original(*args)
        return rows[:-1], np.append(sizes[:-1], sizes[-1] - 1)

    def repeat_below(*args):
        rows, sizes = original(*args)
        return np.concatenate((rows[:-1], rows[-2:-1])), sizes

    def no_work(*args):
        raise AssertionError("the cover search began before the top check")

    monkeypatch.setattr(eulerian, "_cycle_covers", no_work)
    for enumeration in (drop_top, repeat_below):
        monkeypatch.setattr(eulerian, "_sub_circulations", enumeration)
        with pytest.raises(ArithmeticError, match="not exactly k"):
            exact_network_prob_alpha(triangle_kernel, _directed_triangle(triangle), 1.0)


def test_alpha_route_keys_wide_supports_and_refuses_wide_boxes(two_point, monkeypatch):
    # K5 crossed once each way on every edge: 20 support edges at |k| = 20,
    # keyed by the box 2^20 rather than by 11^20 > 2^63, which was refused
    k5 = _complete_graph(5, 1.0)
    kernel = build_kernel(k5)
    wide = Network(k5, 1 - np.eye(5, dtype=np.int64))
    assert exact_network_prob_alpha(kernel, wide, 1.0) == pytest.approx(
        exact_network_prob_alpha1(kernel, wide), rel=1e-12, abs=0.0)

    def no_work(*args):
        raise AssertionError("the covers were searched before the box check")

    # three round trips: the second edge's step holds 4 x 4 rows of width 2 + 2
    kernel, net = build_kernel(two_point), _two_point_net(two_point, 3)
    monkeypatch.setattr(eulerian, "LAYER_CAP", 64)
    exact_network_prob_alpha(kernel, net, 0.5)
    monkeypatch.setattr(eulerian, "_cycle_covers", no_work)
    monkeypatch.setattr(eulerian, "LAYER_CAP", 63)
    with pytest.raises(TooLarge, match="would hold"):
        exact_network_prob_alpha(kernel, net, 0.5)


def _directed_ring(n: int) -> Network:
    """Once around the n-cycle with unit conductances, killed weakly at one vertex."""
    names = [f"v{i}" for i in range(n)]
    graph = WeightedGraph.build(names, [(names[i], names[(i + 1) % n], 1.0) for i in range(n)],
                                {names[0]: 0.01})
    counts = np.zeros((n, n), dtype=np.int64)
    counts[np.arange(n), (np.arange(n) + 1) % n] = 1
    return Network(graph, counts)


@pytest.mark.parametrize("n", [19, 21, 27])
def test_alpha_route_on_long_rings(n):
    # keys sized by the box keep the 19-ring's 19 support edges in int64, and
    # the cover search, bounded by the support rather than ENUMERATION_CAP,
    # keeps the 21- and 27-cycles (without them the route read 0.0)
    net = _directed_ring(n)
    kernel = build_kernel(net.graph)
    assert exact_network_prob_alpha(kernel, net, 1.0) == pytest.approx(
        exact_network_prob_alpha1(kernel, net), rel=1e-12, abs=0.0)


def test_alpha_route_digest():
    # the route on the K4 networks of |k| <= 8 at alpha 0.5 and 2, to the bit
    kernel = build_kernel(_complete_graph(4, 3.0))
    nets = [e.network for e in enumerate_eulerian(kernel, 1e-3) if 0 < e.network.total <= 8]
    values = np.array([[exact_network_prob_alpha(kernel, net, alpha) for alpha in (0.5, 2.0)]
                       for net in nets])
    assert len(nets) == 771
    assert hashlib.sha256(values.tobytes()).hexdigest() == ALPHA_ROUTE_K4


def test_alpha_route_matches_factorial_route_on_random_networks():
    rng = np.random.default_rng(17)
    for _ in range(40):
        graph = random_connected_graph(rng)
        kernel = build_kernel(graph)
        net = random_eulerian_network(graph, rng)
        assert exact_network_prob_alpha(kernel, net, 1.0) == pytest.approx(
            exact_network_prob_alpha1(kernel, net), rel=1e-12, abs=0.0)


# -------------------------------------------------------------- enumeration


def test_enumerate_two_point(two_point_kernel):
    entries = enumerate_eulerian(two_point_kernel, 1e-3)
    assert len(entries) == 5
    total = sum(e.probability for e in entries)
    assert total == pytest.approx(1 - (1 / 4) ** 5)
    # layers are complete and ordered by size
    sizes = [e.network.total for e in entries]
    assert sizes == sorted(sizes)


def test_enumerate_k4_digest():
    # the K4 enumeration of the exact benchmark: counts, probabilities and
    # loop measures, to the bit
    entries = enumerate_eulerian(build_kernel(_complete_graph(4, 3.0)), 1e-3)
    digest = hashlib.sha256()
    digest.update(np.array([e.network.counts for e in entries]).tobytes())
    digest.update(np.array([e.probability for e in entries]).tobytes())
    digest.update(np.array([e.mu_mass for e in entries]).tobytes())
    assert len(entries) == 1396
    assert digest.hexdigest() == K4_ENUMERATION


def test_enumerate_single_vertex(single_vertex_kernel):
    entries = enumerate_eulerian(single_vertex_kernel, 1e-3)
    assert len(entries) == 1
    assert entries[0].probability == pytest.approx(1.0)


def test_enumerate_bad_delta(two_point_kernel):
    for delta in (0.0, -1e-3, 0.02, float("nan"), "1e-3", None):
        with pytest.raises(ValueError):
            enumerate_eulerian(two_point_kernel, delta)
        with pytest.raises(BadMassBudget) as info:
            enumerate_eulerian(two_point_kernel, delta)
        assert isinstance(info.value, BadExactInput)
        assert isinstance(info.value, LoopSoupError)


def _complete_graph(n: int, killing: float) -> WeightedGraph:
    names = tuple("abcdef"[:n])
    edges = [(u, v, 1.0) for i, u in enumerate(names) for v in names[i + 1:]]
    return WeightedGraph.build(names, edges, {v: killing for v in names})


def _oracle_cases(two_point, triangle, path3, complete4):
    """(graph, deepest layer) pairs small enough for the composition filter."""
    cases = [(two_point, 8), (triangle, 8), (path3, 8), (complete4, 8),
             (_complete_graph(5, 1.0), 5)]
    rng = np.random.default_rng(5)
    for _ in range(4):
        graph = random_connected_graph(rng)
        n_edges = 2 * len(graph.edge_pairs)
        top = max(m for m in range(1, 9) if math.comb(m + n_edges - 1, n_edges - 1) <= 20_000)
        cases.append((graph, top))
    return cases


def test_circulation_layers_match_composition_filter(two_point, triangle, path3, complete4):
    for graph, top in _oracle_cases(two_point, triangle, path3, complete4):
        kernel = build_kernel(graph)
        edges = _directed_edges(graph)
        for m, rows in zip(range(1, top + 1), _circulation_layers(graph, edges)):
            expected = oracles.balanced_layer(graph, edges, m)
            counts = _count_matrices(graph.n, edges, rows)
            assert len(counts) == len(expected)
            for c, net in zip(counts, expected):
                assert np.array_equal(c, net.counts)  # same networks, same order
            terms = _row_terms(kernel, edges, rows)
            prob, mu = _alpha1_law(kernel, *terms), _loop_measure(counts, *terms)
            for p, w, net in zip(prob, mu, expected):
                assert p == pytest.approx(exact_network_prob_alpha1(kernel, net), rel=1e-12)
                assert w == pytest.approx(oracles.mu_network(kernel, net), rel=1e-12, abs=0.0)


def _cycle_graph(n: int) -> WeightedGraph:
    names = tuple(f"v{i}" for i in range(n))
    edges = [(names[i], names[(i + 1) % n], 1.0) for i in range(n)]
    return WeightedGraph.build(names, edges, {v: 1.0 for v in names})


def test_circulation_layers_match_lexsort_dedup(two_point, triangle, path3, complete4,
                                                monkeypatch):
    cases = [(graph, 8) for graph in (two_point, triangle, path3, complete4)]
    cases += [(_complete_graph(5, 1.0), 6)]
    cases += _oracle_cases(two_point, triangle, path3, complete4)[5:]
    for graph, top in cases:
        edges = _directed_edges(graph)
        got = _circulation_layers(graph, edges)
        for _, want in zip(range(top), oracles.circulation_layers(graph, edges)):
            assert np.array_equal(next(got), want)  # same rows, same order
    # 80 directed edges: from layer 2 on the codes pass 2^63, so they rank
    cycle = _cycle_graph(40)
    edges = _directed_edges(cycle)
    ranks = []
    unique = np.unique

    def counted(*args, **kwargs):
        ranks.append(bool(kwargs.get("return_inverse")))
        return unique(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", counted)
        layers = list(islice(_circulation_layers(cycle, edges), 6))
    assert sum(ranks) >= 5
    for got, want in zip(layers, oracles.circulation_layers(cycle, edges)):
        assert np.array_equal(got, want)
    assert len(layers[5]) == math.comb(42, 3)  # three of the 40 two-cycles


def _assert_same_layers(kernel, delta):
    # the stacked loop measure against the per-layer reference, bit for bit,
    # or the same refusal with the same message
    try:
        want = oracles.enumerate_layers(kernel, delta)
    except (BudgetExceeded, TooLarge) as exc:
        with pytest.raises(type(exc)) as info:
            eulerian._enumerate_layers(kernel, delta)
        assert str(info.value) == str(exc)
        return type(exc)
    got = eulerian._enumerate_layers(kernel, delta)
    assert len(got) == len(want)
    for got_layer, want_layer in zip(got, want):
        for a, b in zip(got_layer, want_layer):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    return None


def test_enumerate_layers_match_per_layer_reference(two_point, triangle, monkeypatch):
    assert _assert_same_layers(build_kernel(_complete_graph(4, 3.0)), 1e-3) is None
    for graph in (two_point, triangle):
        for delta in (1e-3, 1e-6):
            _assert_same_layers(build_kernel(graph), delta)
    assert _assert_same_layers(build_kernel(triangle), 1e-4) is BudgetExceeded
    # killing strong enough that the zero network alone holds 1 - delta
    assert _assert_same_layers(build_kernel(WeightedGraph.build(
        two_point.vertices, [(*two_point.vertices, 1.0)], {v: 1e3 for v in two_point.vertices})),
        1e-2) is None
    rng = np.random.default_rng(7)
    for _ in range(6):
        graph = random_connected_graph(rng)
        # killing half the degree at every vertex: the enumeration completes
        edges = [(graph.vertices[i], graph.vertices[j], float(graph.conductance[i, j]))
                 for i, j in graph.edge_pairs]
        strong = WeightedGraph.build(graph.vertices, edges, dict(
            zip(graph.vertices, (0.5 * graph.conductance.sum(axis=1)).tolist())))
        assert _assert_same_layers(build_kernel(strong), 1e-2) is None
        # killing 1e-2 at one vertex: both stop at the |k| cap
        assert _assert_same_layers(
            build_kernel(_killed_at_first_vertex(graph, 1e-2)), 1e-2) is BudgetExceeded
    # a lowered cap: the same layer refuses with the same message
    monkeypatch.setattr(eulerian, "LAYER_CAP", 20_000)
    assert _assert_same_layers(build_kernel(_complete_graph(4, 3.0)), 1e-3) is TooLarge
    with pytest.raises(TooLarge, match="layer 9 would build"):
        eulerian._enumerate_layers(build_kernel(_complete_graph(4, 3.0)), 1e-3)


def test_enumerate_matches_per_network_laws(triangle, triangle_kernel):
    entries = enumerate_eulerian(triangle_kernel, 1e-3)
    edges = _directed_edges(triangle)
    top = entries[-1].network.total
    expected = [Network.zeros(triangle)]
    for m in range(1, top + 1):
        expected.extend(oracles.balanced_layer(triangle, edges, m))
    assert [e.network for e in entries] == expected
    for e in entries[1:]:
        assert e.probability == pytest.approx(
            exact_network_prob_alpha1(triangle_kernel, e.network), rel=1e-12)
        assert e.mu_mass == pytest.approx(
            oracles.mu_network(triangle_kernel, e.network), rel=1e-12, abs=0.0)


def test_convolution_keys_stay_exact():
    # K5 has 20 directed edges: base 5 keys at |k| <= 9 fit, and a wrapped
    # key would misplace convolution terms far beyond the bound
    k5 = build_kernel(_complete_graph(5, 4.0))
    rep = verify_poisson_convolution(k5, 1e-3)
    assert rep.meta["support_size"] == 16095
    assert rep.lines[0].lhs < 1e-15
    # keys equal the exact base-B numbers up to the largest B with B^20 <= 2^63
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 8, size=(64, 20))
    rows[0] = 7
    exact = [int("".join(str(d) for d in row), 8) for row in rows.tolist()]
    assert (rows @ _key_weights([8] * 20)).tolist() == exact
    assert exact[0] == 8**20 - 1
    with pytest.raises(TooLarge):
        _key_weights([9] * 20)
    # 8^21 = 2^63 keys still fit, since the weights stop at 8^20
    assert _key_weights([8] * 21)[0] == 8**20
    # K6 has 30 directed edges; its enumeration to 1e-3 does not fit
    with pytest.raises(TooLarge):
        verify_poisson_convolution(build_kernel(_complete_graph(6, 6.0)), 1e-3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 300), max_size=12), st.data())
def test_key_weights_are_mixed_radix_numbers(radices, data):
    if math.prod(radices) > 2**63:
        with pytest.raises(TooLarge):
            _key_weights(radices)
        return
    weights = _key_weights(radices)
    assert weights.dtype == np.int64 and len(weights) == len(radices)
    digits = st.tuples(*(st.integers(0, r - 1) for r in radices))
    row = data.draw(digits)
    want = 0
    for d, r in zip(row, radices):
        want = want * r + d
    assert int(np.array(row, dtype=np.int64) @ weights) == want


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([1e-2, 1e-3]))
def test_enumerated_layers_are_balanced_and_meet_the_budget(seed, boost, delta):
    # random connected graphs as drawn, whose one small killing rate mostly
    # exhausts the caps, and with killing boost * C_x added at every vertex,
    # so that the enumeration also completes
    graph = random_connected_graph(np.random.default_rng(seed))
    edges = [(graph.vertices[i], graph.vertices[j], float(graph.conductance[i, j]))
             for i, j in graph.edge_pairs]
    rates = graph.killing + boost * graph.conductance.sum(axis=1)
    kernel = build_kernel(WeightedGraph.build(graph.vertices, edges,
                                              dict(zip(graph.vertices, rates.tolist()))))
    try:
        layers = _enumerate_layers(kernel, delta)
    except (BudgetExceeded, TooLarge):
        return
    for m, (rows, counts, _, _) in enumerate(layers):
        assert (rows.sum(axis=1) == m).all()
        assert np.array_equal(counts.sum(axis=1), counts.sum(axis=2))
    assert sum(float(probs.sum()) for _, _, probs, _ in layers) >= 1 - delta


def test_enumerate_budget_exceeded(triangle_kernel):
    # the triangle tail past |k| = 20 still holds more than 1e-4 of the mass
    with pytest.raises(BudgetExceeded):
        enumerate_eulerian(triangle_kernel, 1e-4)


# -------------------------------------------------------------------- tours


def test_best_tour_count_oracles(two_point, triangle):
    assert best_tour_count(_two_point_net(two_point, 1)) == 2
    assert best_tour_count(_two_point_net(two_point, 2)) == 8
    assert best_tour_count(_directed_triangle(triangle)) == 3
    with pytest.raises(ZeroNetwork):
        best_tour_count(Network.zeros(two_point))
    with pytest.raises(NotEulerian):
        best_tour_count(Network(two_point, np.array([[0, 2], [1, 0]])))


def test_best_matches_brute_force(triangle):
    from loopsoup.verify import brute_force_tour_count

    for net in _all_balanced_up_to(triangle, 5):
        if net.total == 0 or not oracles.support_connected(net):
            continue
        assert best_tour_count(net) == brute_force_tour_count(net)


def test_random_eulerian_network_draws(two_point, triangle, complete4):
    # check 9's networks: chains of simple directed cycles, K4's 4-cycles too
    rng = np.random.default_rng(33)
    graphs = [two_point, triangle, complete4, *(random_connected_graph(rng) for _ in range(12))]
    for graph in graphs:
        for _ in range(10):
            net = random_eulerian_network(graph, rng)
            assert net.is_eulerian()
            assert oracles.support_connected(net)
            assert 2 <= net.total <= 8


# ------------------------------------------------------------- loop measure


def test_mu_measure_oracles(two_point, triangle, two_point_kernel, triangle_kernel):
    assert mu_network_measure(two_point_kernel, _two_point_net(two_point, 1)) == pytest.approx(1 / 4)
    assert mu_network_measure(two_point_kernel, _two_point_net(two_point, 2)) == pytest.approx(1 / 32)
    assert mu_network_measure(triangle_kernel, _directed_triangle(triangle)) == pytest.approx(1 / 27)
    with pytest.raises(ZeroNetwork):
        mu_network_measure(two_point_kernel, Network.zeros(two_point))


def test_mu_view_matches_scalar_formula(complete4):
    # the one-row view of _loop_measure against the formula summed in logs
    rng = np.random.default_rng(21)
    for graph in (complete4, *(random_connected_graph(rng) for _ in range(4))):
        kernel = build_kernel(graph)
        for _ in range(8):
            net = random_eulerian_network(graph, rng)
            assert mu_network_measure(kernel, net) == pytest.approx(
                oracles.mu_network(kernel, net), rel=1e-12, abs=0.0)


def test_mu_partial_sums(two_point, two_point_kernel):
    # n round trips carry measure (1/4)^n / n; the series sums to -log det(I-P)
    total = 0.0
    for n in range(1, 41):
        total += mu_network_measure(two_point_kernel, _two_point_net(two_point, n))
    assert total == pytest.approx(-math.log(3 / 4), abs=1e-12)


# -------------------------------------------------------------- convolution


@pytest.mark.parametrize("graph, top", [
    (_complete_graph(4, 3.0), 9), (triangle_graph(), 12),
    *((random_connected_graph(np.random.default_rng(seed)), 6) for seed in (3, 4, 5))])
def test_poisson_series_matches_power_sums(graph, top):
    kernel = build_kernel(graph)
    edges = _directed_edges(graph)
    layers = [np.zeros((1, len(edges)), dtype=np.int64)]
    layers += islice(_circulation_layers(graph, edges), top)
    keys = [rows @ _key_weights([top // 2 + 1] * len(edges)) for rows in layers]
    mu = [_loop_measure(_count_matrices(graph.n, edges, rows), *_row_terms(kernel, edges, rows))
          for rows in layers]
    for alpha in (0.5, 1.0, 2.0):
        got = np.concatenate(_poisson_series(keys, mu, alpha))
        want = np.concatenate(oracles.poisson_series(keys, mu, alpha))
        assert np.max(np.abs(got - want) / want) <= 1e-13


def test_poisson_convolution(two_point_kernel, triangle_kernel):
    rep = verify_poisson_convolution(two_point_kernel, 1e-6)
    assert rep.passed
    assert rep.lines[0].lhs < 1e-12
    rep3 = verify_poisson_convolution(triangle_kernel, 1e-3)
    assert rep3.passed


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 1e-4])
def test_mu_measure_lines_match_per_network_sums(monkeypatch, delta):
    # at 1e-4 the triangle passes the |k| cap: the BudgetExceeded line
    monkeypatch.setattr(verify_module, "DELTA_TRIANGLE", delta)
    got = check_mu_measure()
    want = oracles.mu_measure_report(delta)
    assert got.lines == want.lines
    assert got.meta == want.meta
    assert ("enumerations past the |k| cap" in [line.statistic for line in got.lines]) \
        == (delta == 1e-4)


def test_mu_measure_enumerates_each_graph_once(monkeypatch):
    calls = []
    real = eulerian._enumerate_layers

    def spy(kernel, delta):
        calls.append(kernel.n)
        return real(kernel, delta)

    def never(*args, **kwargs):
        raise AssertionError("check 10 built the network entries")

    monkeypatch.setattr(verify_module, "_enumerate_layers", spy)
    monkeypatch.setattr(eulerian, "_enumerate_layers", spy)
    monkeypatch.setattr(eulerian, "enumerate_eulerian", never)
    assert check_mu_measure().passed
    assert calls == [2, 3]


# ----------------------------------------------------------------- max flow


def test_max_flow_oracles(two_point, triangle):
    assert max_flow(_two_point_net(two_point, 3), ["a"], ["b"]) == 3
    assert max_flow(Network.zeros(two_point), ["a"], ["b"]) == 0
    assert max_flow(_directed_triangle(triangle), ["a"], ["c"]) == 1
    with pytest.raises(BadPartition):
        max_flow(Network.zeros(two_point), [], ["b"])
    with pytest.raises(BadPartition):
        max_flow(Network.zeros(two_point), ["a"], ["a"])


def test_max_flow_min_cut(triangle):
    # both rotations available: two edge-disjoint a -> c routes
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 1] = counts[1, 2] = counts[2, 0] = 1
    counts[0, 2] = counts[2, 1] = counts[1, 0] = 1
    assert max_flow(Network(triangle, counts), ["a"], ["c"]) == 2


# ------------------------------------------------- edge-ordering invariant


def _canonical_word(word):
    p = len(word)
    rotations = [word[r:] + word[:r] for r in range(p)]
    return min(rotations)


def _word_symmetry(word):
    p = len(word)
    return sum(1 for r in range(p) if word[r:] + word[:r] == word)


def _word_counts(word, n):
    counts = np.zeros((n, n), dtype=np.int64)
    for i, u in enumerate(word):
        counts[u, word[(i + 1) % len(word)]] += 1
    return counts


def _closed_words(budget):
    """Distinct cyclic vertex words whose step counts fit inside the budget."""
    n = budget.shape[0]
    cap = int(budget.sum())
    words = set()

    def extend(start, cur, path, used):
        for nxt in range(n):
            if used[cur, nxt] >= budget[cur, nxt]:
                continue
            if nxt == start:
                words.add(_canonical_word(tuple(path)))
            if len(path) < cap:
                used[cur, nxt] += 1
                path.append(nxt)
                extend(start, nxt, path, used)
                path.pop()
                used[cur, nxt] -= 1

    for start in range(n):
        extend(start, start, [start], np.zeros_like(budget))
    return sorted(words)


def _weighted_decompositions(net):
    """Sum over loop multisets inducing net of prod 1/(mult! sym^mult)."""
    words = _closed_words(net.counts)
    n = net.graph.n
    deltas = [_word_counts(w, n) for w in words]
    syms = [_word_symmetry(w) for w in words]
    total = 0.0

    def rec(i, remaining, weight):
        nonlocal total
        if not remaining.any():
            total += weight
            return
        if i == len(words):
            return
        rec(i + 1, remaining, weight)
        mult = 0
        rem = remaining
        while True:
            rem = rem - deltas[i]
            if (rem < 0).any():
                break
            mult += 1
            rec(i + 1, rem, weight / (math.factorial(mult) * syms[i] ** mult))

    rec(0, net.counts.copy(), 1.0)
    return total


@pytest.mark.parametrize("cap", [6])
def test_edge_ordering_count(triangle, cap):
    # weighted count of loop decompositions equals the per-vertex multinomial
    # prod_x k_x! / prod_xy k_xy!, the number of edge orderings around vertices
    for net in _all_balanced_up_to(triangle, cap):
        if net.total == 0 or not oracles.support_connected(net):
            continue
        expected = 1.0
        for kx in net.out_degrees:
            expected *= math.factorial(int(kx))
        for c in net.counts.ravel():
            expected /= math.factorial(int(c))
        assert _weighted_decompositions(net) == pytest.approx(expected, rel=1e-9)
