"""Cycle space, homology classes, torus volumes, and the winding-class law."""

import itertools
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import (
    BadExactInput,
    BadGrid,
    BadIntensity,
    Disconnected,
    EmptyBasis,
    GridTooCoarse,
    LoopSoupError,
    MismatchBeyondTolerance,
    Network,
    NonIntegral,
    NotEulerian,
    TooLarge,
    WeightedGraph,
    build_kernel,
    cycle_basis,
    generating_function,
    homology_distribution,
    homology_distribution_auto,
    intersection_matrix,
    jacobian_volume,
    network_histogram,
    network_homology_class,
)
from loopsoup import homology, network, verify
from loopsoup.homology import _class_coords, _generating_grid, _twist_coefficients
from loopsoup.verify import _all_balanced_up_to, complete4_graph, random_connected_graph


def _directed_triangle(graph, reverse=False):
    counts = np.zeros((3, 3), dtype=np.int64)
    if reverse:
        counts[1, 0] = counts[2, 1] = counts[0, 2] = 1
    else:
        counts[0, 1] = counts[1, 2] = counts[2, 0] = 1
    return Network(graph, counts)


def _scaled_triangle(ca, cb, cc):
    return WeightedGraph.build(
        ("a", "b", "c"),
        (("a", "b", ca), ("b", "c", cb), ("a", "c", cc)),
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )


# ---------------------------------------------------------------- cycle space


def test_cycle_basis_ranks(two_point, path3, triangle, complete4):
    assert cycle_basis(two_point).n == 0
    assert cycle_basis(path3).n == 0
    assert cycle_basis(triangle).n == 1
    assert cycle_basis(complete4).n == 3


def test_cycle_basis_disconnected():
    g = WeightedGraph.build(
        ("a", "b", "c", "d"),
        (("a", "b", 1.0), ("c", "d", 1.0)),
        {"a": 1.0, "c": 1.0},
    )
    with pytest.raises(Disconnected):
        cycle_basis(g)


def test_cycles_are_circulations(complete4):
    basis = cycle_basis(complete4)
    for cyc in basis.cycles:
        assert np.array_equal(cyc, -cyc.T)
        assert not cyc.sum(axis=1).any()
    # tree plus chords covers every edge exactly once
    assert len(basis.tree_edges) + len(basis.nontree_edges) == len(complete4.edge_pairs)


def test_cycle_basis_matches_one_search_per_cycle(triangle, complete4):
    # parent pointers from one tree walk close the same cycles, with the same
    # orientation, as a tree search from v to u for each non-tree edge u -> v
    rng = np.random.default_rng(17)
    for graph in (triangle, complete4, *(random_connected_graph(rng) for _ in range(120))):
        got, want = cycle_basis(graph), oracles.cycle_basis(graph)
        assert (got.tree_edges, got.nontree_edges) == (want.tree_edges, want.nontree_edges)
        assert len(got.cycles) == len(want.cycles)
        for a, b in zip(got.cycles, want.cycles):
            assert np.array_equal(a, b)


def test_homology_class(triangle):
    basis = cycle_basis(triangle)
    fwd = network_homology_class(_directed_triangle(triangle), basis)
    rev = network_homology_class(_directed_triangle(triangle, reverse=True), basis)
    assert fwd in ((1,), (-1,))
    assert rev == tuple(-c for c in fwd)
    # symmetric traffic winds nowhere
    sym = Network(triangle, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    assert network_homology_class(sym, basis) == (0,)
    # additivity over network sums
    both = Network(triangle, 2 * _directed_triangle(triangle).counts)
    assert network_homology_class(both, basis) == tuple(2 * c for c in fwd)
    unbal = Network(triangle, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(NotEulerian):
        network_homology_class(unbal, basis)


def _stack_graphs():
    rng = np.random.default_rng(6)  # draws of cycle rank 1, 4, 1 and 4
    return [verify.triangle_graph(), verify.path3_graph(), complete4_graph(),
            *(random_connected_graph(rng) for _ in range(4))]


@pytest.mark.parametrize("graph", _stack_graphs(),
                         ids=["triangle", "path3", "K4", *(f"random{i}" for i in range(4))])
def test_stacked_classes_match_one_network_view(graph):
    nets = _all_balanced_up_to(graph, 6)
    basis = cycle_basis(graph)
    coords = _class_coords(np.array([net.counts for net in nets]), basis)
    assert coords.shape == (len(nets), basis.n)
    assert [tuple(row) for row in coords.tolist()] == [
        network_homology_class(net, basis) for net in nets]


def test_stacked_classes_reject_bad_rows(triangle, path3):
    basis = cycle_basis(triangle)
    stack = np.array([net.counts for net in _all_balanced_up_to(triangle, 3)])
    unbalanced = stack.copy()
    unbalanced[-1, 0, 1] += 1
    with pytest.raises(NotEulerian):
        _class_coords(unbalanced, basis)
    # a balanced directed triangle on path3, whose chord a-c is no edge
    off_edges = np.zeros((2, 3, 3), dtype=np.int64)
    off_edges[1, 0, 2] = off_edges[1, 2, 1] = off_edges[1, 1, 0] = 1
    with pytest.raises(NonIntegral):
        _class_coords(off_edges, cycle_basis(path3))


def test_homology_check_builds_no_networks(monkeypatch, triangle_kernel, triangle):
    hist = network_histogram(triangle_kernel, 20_000, 5, "direct")
    basis = cycle_basis(triangle)
    reference = oracles.class_counts(oracles.histogram_dict(hist), basis)
    calls = []

    def spy(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network.Network, "__post_init__", spy(network.Network.__post_init__))
    monkeypatch.setattr(homology, "network_homology_class", spy(network_homology_class))
    # verify would call it through its own binding if it imported it by name
    monkeypatch.setattr(verify, "network_homology_class", spy(network_homology_class),
                        raising=False)
    report = verify.check_homology_distribution(histogram=hist, hist_seconds=0.0)
    assert calls == []
    law = homology_distribution(triangle_kernel, basis, 1.0, verify.HOMOLOGY_GRID)
    tv = [line.lhs for line in report.lines if line.statistic.startswith("TV")]
    want = oracles.tv_distance(oracles.normalize_counter(reference), law.probs)
    assert tv == [pytest.approx(want, rel=1e-12)]


# -------------------------------------------------------- intersection, volume


def test_intersection_matrix(triangle):
    basis = cycle_basis(triangle)
    lam = intersection_matrix(basis)
    assert lam == pytest.approx(np.array([[3.0]]))
    scaled = _scaled_triangle(1.0, 2.0, 3.0)
    lam2 = intersection_matrix(cycle_basis(scaled))
    assert lam2 == pytest.approx(np.array([[1 + 1 / 2 + 1 / 3]]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_class_coordinates_rebuild_the_crossing_flow(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng)
    net = verify.random_eulerian_network(graph, rng)
    basis = cycle_basis(graph)
    coords = network_homology_class(net, basis)
    assert len(coords) == basis.n and all(type(c) is int for c in coords)
    flow = np.zeros((graph.n, graph.n), dtype=np.int64)
    for c, cycle in zip(coords, basis.cycles):
        flow += c * cycle
    assert np.array_equal(flow, net.counts - net.counts.T)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intersection_matrix_is_symmetric_positive_definite(seed):
    basis = cycle_basis(random_connected_graph(np.random.default_rng(seed)))
    if basis.n == 0:
        with pytest.raises(EmptyBasis):
            intersection_matrix(basis)
        return
    lam = intersection_matrix(basis)
    assert np.array_equal(lam, lam.T)
    np.linalg.cholesky(lam)  # raises unless positive definite


def test_intersection_empty(two_point):
    with pytest.raises(EmptyBasis):
        intersection_matrix(cycle_basis(two_point))


def test_jacobian_volume(triangle, two_point):
    vol = jacobian_volume(triangle)
    assert vol.value == pytest.approx(1 / np.sqrt(3))
    assert vol.via_intersection == pytest.approx(vol.via_trees)
    assert vol.tree_weight == pytest.approx(3.0)
    assert not vol.degenerate

    scaled = jacobian_volume(_scaled_triangle(1.0, 2.0, 3.0))
    assert scaled.tree_weight == pytest.approx(11.0)
    assert scaled.value == pytest.approx(11.0**-0.5)

    trivial = jacobian_volume(two_point)
    assert trivial.degenerate
    assert trivial.value == 1.0


def test_jacobian_volume_refuses_disagreeing_routes(triangle, monkeypatch):
    # the public call raises where check 11 fails its line
    # (tests/test_planted_defects.py)
    original = homology.intersection_matrix
    monkeypatch.setattr(homology, "intersection_matrix", lambda basis: 1.01 * original(basis))
    with pytest.raises(MismatchBeyondTolerance, match="volume routes disagree"):
        jacobian_volume(triangle)


# ------------------------------------------------------------- winding law


def test_homology_distribution_trivial(two_point_kernel, two_point):
    law = homology_distribution(two_point_kernel, cycle_basis(two_point), 1.0, 8)
    assert law.probs == {(): 1.0}


def test_homology_distribution_triangle(triangle_kernel, triangle):
    basis = cycle_basis(triangle)
    law = homology_distribution(triangle_kernel, basis, 1.0, 16)
    assert law.captured_mass >= 0.999
    assert sum(law.probs.values()) <= 1.0 + 1e-9
    assert law.symmetry_defect() <= 1e-10
    assert law.imag_residue <= 1e-10 and law.negative_residue <= 1e-10
    # the trivial class dominates
    assert law.probs[(0,)] > max(p for k, p in law.probs.items() if k != (0,))
    # grid refinement barely moves the answer
    law32 = homology_distribution(triangle_kernel, basis, 1.0, 32)
    for key in set(law.probs) | set(law32.probs):
        assert law.probs.get(key, 0.0) == pytest.approx(law32.probs.get(key, 0.0), abs=1e-8)


def test_homology_distribution_bad_grid(triangle_kernel, triangle):
    basis = cycle_basis(triangle)
    for m in (4, 12, 17, 8.0, "8", None, 1024, 2**40):
        with pytest.raises(ValueError):
            homology_distribution(triangle_kernel, basis, 1.0, m)
        with pytest.raises(BadGrid) as info:
            homology_distribution(triangle_kernel, basis, 1.0, m)
        assert isinstance(info.value, BadExactInput)
        assert isinstance(info.value, LoopSoupError)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), "1"])
def test_homology_intensity_is_typed(triangle_kernel, triangle, monkeypatch, alpha):
    def no_work(*args):
        raise AssertionError("work began before the intensity check")

    monkeypatch.setattr(homology, "_twist_coefficients", no_work)
    basis = cycle_basis(triangle)
    for call in (lambda: homology_distribution(triangle_kernel, basis, alpha, 16),
                 lambda: homology_distribution_auto(triangle_kernel, basis, alpha)):
        with pytest.raises(BadIntensity, match="intensity must be positive and finite"):
            call()


def test_homology_distribution_foreign_basis(triangle_kernel, triangle):
    k4 = complete4_graph()
    for kernel, basis in ((triangle_kernel, cycle_basis(k4)),
                          (build_kernel(k4), cycle_basis(triangle))):
        with pytest.raises(BadExactInput):
            homology_distribution(kernel, basis, 1.0, 8)


def test_stacked_grid_matches_pointwise(triangle_kernel, triangle):
    k4 = complete4_graph()
    cases = [(triangle_kernel, cycle_basis(triangle), 32),
             (build_kernel(k4), cycle_basis(k4), 8)]
    for kernel, basis, grid_m in cases:
        ticks = np.arange(grid_m) / grid_m
        coef = _twist_coefficients(kernel, basis)
        for alpha in (0.5, 1.0, 2.0):
            grid = _generating_grid(coef, alpha, grid_m)
            for idx in np.ndindex(grid.shape):
                # the indicator twist: t_i on non-tree edge (u_i, v_i), -t_i back
                omega = np.zeros((kernel.n, kernel.n))
                for i, (u, v) in zip(idx, basis.nontree_edges):
                    omega[u, v], omega[v, u] = ticks[i], -ticks[i]
                point = generating_function(kernel, np.exp(2j * np.pi * omega), alpha)
                assert abs(grid[idx] - point) <= 1e-14


def _grid_graphs():
    rng = np.random.default_rng(16)
    graphs = [random_connected_graph(rng) for _ in range(12)]
    return [g for g in graphs if 1 <= cycle_basis(g).n <= 3]


@pytest.mark.parametrize("graph", _grid_graphs())
def test_grid_matches_one_determinant_per_point(graph):
    kernel, basis = build_kernel(graph), cycle_basis(graph)
    coef = _twist_coefficients(kernel, basis)
    for alpha in (0.5, 1.0, 2.0):
        want = oracles.generating_grid(kernel, basis, alpha, 32)
        assert np.max(np.abs(_generating_grid(coef, alpha, 32) - want)) <= 1e-12


@pytest.mark.parametrize("graph", [verify.triangle_graph(), complete4_graph(), *_grid_graphs()])
def test_law_table_matches_dict_law(graph):
    kernel, basis = build_kernel(graph), cycle_basis(graph)
    coef = _twist_coefficients(kernel, basis)
    for alpha in (0.5, 1.0, 2.0):
        law = homology_distribution(kernel, basis, alpha, 32)
        want, captured = oracles.class_law_dict(_generating_grid(coef, alpha, 32))
        assert law.probs == want
        assert law.symmetry_defect() == oracles.symmetry_defect(want)
        assert law.captured_mass == pytest.approx(captured, abs=1e-14)


@pytest.mark.parametrize("graph", [verify.two_point_graph(), verify.triangle_graph(),
                                   complete4_graph()])
def test_prob_reads_the_table(graph):
    # the probability of every class in the window is its table entry
    law = homology_distribution(build_kernel(graph), cycle_basis(graph), 1.0, 32)
    d = law.table.ndim
    window = list(itertools.product(range(-15, 16), repeat=d))
    got = [float(law.table[tuple(c + 15 for c in coords)]) for coords in window]
    assert got == [law.probs.get(coords, 0.0) for coords in window]
    assert set(law.probs) <= set(window)
    assert sum(got) == pytest.approx(law.captured_mass, abs=1e-9)


def test_grid_too_coarse():
    # nearly recurrent triangle: windings spread far beyond a tiny window
    g = _scaled_triangle(50.0, 50.0, 50.0)
    g = WeightedGraph.build(
        g.vertices,
        tuple((g.vertices[u], g.vertices[v], g.conductance[u, v]) for u, v in g.edge_pairs),
        {v: 0.01 for v in g.vertices},
    )
    kernel = build_kernel(g)
    with pytest.raises(GridTooCoarse):
        homology_distribution(kernel, cycle_basis(g), 1.0, 8)


def test_homology_auto(triangle_kernel, triangle):
    basis = cycle_basis(triangle)
    law = homology_distribution_auto(triangle_kernel, basis, 1.0)
    direct = homology_distribution(triangle_kernel, basis, 1.0, law.grid_m)
    assert law.probs == direct.probs


def _complete_graph(n: int, killing: float = 1.0) -> WeightedGraph:
    """K_n on the vertices a, b, ..., unit conductances, killing at a alone."""
    names = "abcdefgh"[:n]
    edges = [(u, v, 1.0) for u, v in itertools.combinations(names, 2)]
    return WeightedGraph.build(names, edges, {"a": killing})


def test_homology_auto_too_large():
    g = _complete_graph(5)
    with pytest.raises(TooLarge):
        homology_distribution_auto(build_kernel(g), cycle_basis(g), 1.0)


@pytest.mark.parametrize("n, grid_m", [(5, 64), (4, 512)])
def test_grid_points_are_capped_before_any_array(monkeypatch, n, grid_m):
    # K5's 6 cycles at 64 make 2^36 points, 1 TiB an array; K4's 3 at 512, 2^27
    graph = _complete_graph(n)
    kernel, basis = build_kernel(graph), cycle_basis(graph)

    def no_grid(*args):
        raise AssertionError("grid work began past the point cap")

    monkeypatch.setattr(homology, "_twist_coefficients", no_grid)
    monkeypatch.setattr(homology, "_law", no_grid)
    tracemalloc.start()
    try:
        with pytest.raises(BadGrid, match=f"{grid_m}\\^{basis.n} points, above the cap"):
            homology_distribution(kernel, basis, 1.0, grid_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("shape", [(8,), (16, 8), (4, 8, 16)])
def test_fftn_in_place_matches_numpy(shape):
    rng = np.random.default_rng(11)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for transform, numpy_nd, norm in ((np.fft.fft, np.fft.fftn, None),
                                      (np.fft.ifft, np.fft.ifftn, "forward")):
        expected = numpy_nd(grid, norm=norm)
        got = homology._fftn(grid.copy(), transform, norm=norm)
        assert got.tobytes() == expected.tobytes()


def test_law_holds_two_grids_at_a_time():
    # K4 at grid 64: peak traced bytes in complex grids; an fftn or ifftn
    # that keeps its input beside two one-axis outputs does not fit
    graph = complete4_graph()
    coef = _twist_coefficients(build_kernel(graph), cycle_basis(graph))
    homology._law(coef, 1.0, 16)  # a first call's imports are not the law's arrays
    tracemalloc.start()
    try:
        homology._law(coef, 1.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (64**3 * 16) <= 3


def test_auto_grid_stops_at_the_point_cap(monkeypatch):
    # weak killing spreads the windings: K4's search needs 256 to converge,
    # so under a cap of 32^3 points it stops after 32, as it stops at 512
    g = _complete_graph(4, killing=0.01)
    sizes = []
    law = homology._law

    def spy(coef, alpha, grid_m):
        sizes.append(grid_m)
        return law(coef, alpha, grid_m)

    monkeypatch.setattr(homology, "POINT_CAP", 32**3)
    monkeypatch.setattr(homology, "_law", spy)
    with pytest.raises(GridTooCoarse, match="grid cap 32 reached"):
        homology_distribution_auto(build_kernel(g), cycle_basis(g), 1.0)
    assert sizes == [8, 16, 32]
