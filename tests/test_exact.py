"""Determinants, permanents, alpha-permanents, tree and arborescence counts."""

import itertools
import tracemalloc

import numpy as np
import oracles
import pytest

from loopsoup import (
    BadExactInput,
    Disconnected,
    EmptyNetwork,
    LoopSoupError,
    Network,
    NotSquare,
    TooLarge,
    WeightedGraph,
    alpha_permanent,
    arborescence_count,
    exact,
    permanent,
    spanning_tree_weight_sum,
)


def test_det_complex(two_point_kernel):
    assert two_point_kernel.det_i_minus_p == pytest.approx(0.75)
    z = 0.5 + 0.5j
    # P^Z = z P when every off-diagonal modifier entry is z
    assert two_point_kernel.det_i_minus_pz(np.full((2, 2), z)) == pytest.approx(1 - z**2 / 4)


def test_permanent_small():
    assert permanent(np.array([[3.0]])) == pytest.approx(3.0)
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)
    assert permanent(np.ones((4, 4))) == pytest.approx(24.0)
    g = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert permanent(g) == pytest.approx(5 / 9)


def test_permanent_matches_brute_force():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    brute = sum(
        np.prod([a[i, p[i]] for i in range(5)])
        for p in itertools.permutations(range(5))
    )
    assert permanent(a) == pytest.approx(brute)


def test_permanent_chunks_match_brute_force(monkeypatch):
    assert permanent(np.zeros((0, 0))) == 1.0
    rng = np.random.default_rng(4)
    monkeypatch.setattr(exact, "PERMANENT_CHUNK", 37)  # many chunks, a ragged last one
    for n in range(1, 8):
        for a in (rng.random((n, n)), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
            got = permanent(a)
            assert isinstance(got, complex if np.iscomplexobj(a) else float)
            scale = oracles.alpha_permanent(np.abs(a), 1.0)
            assert abs(got - oracles.alpha_permanent(a, 1.0)) <= 1e-12 * scale


def test_permanent_subset_sums_match_matrix_products():
    # the doubling table adds each subset's columns in index order, as the
    # bit-matrix product does, and the signed sum keeps its chunk bounds, so
    # real matrices give the same bits up to the cap
    rng = np.random.default_rng(5)
    for n in list(range(1, 15)) + [15, 20]:
        for a in (rng.random((n, n)), rng.normal(size=(n, n))):
            assert permanent(a) == oracles.permanent(a)
    # complex products round differently elementwise than in a row reduction
    for n in (3, 9, 15):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = oracles.permanent(a)
        assert abs(permanent(a) - want) <= 1e-9 * abs(want)


def test_permanent_high_columns(monkeypatch):
    # a table of chunk / 2 rows: the columns above it are added block by
    # block into the work buffer, and the signed sum keeps the chunk bounds
    rng = np.random.default_rng(6)
    for chunk, sizes in ((8, (3, 4, 7)), (4, (5, 9, 12)), (64, (5, 9, 12))):
        monkeypatch.setattr(exact, "PERMANENT_CHUNK", chunk)
        for n in sizes:
            a = rng.random((n, n))
            assert permanent(a) == oracles.permanent(a, chunk=chunk)


def test_permanent_working_set():
    # a half-chunk table and one work buffer: about 3 MB at 16 x 16, where a
    # full table and a temporary per high column peaked at 7 MB
    a = np.random.default_rng(7).random((16, 16))
    tracemalloc.start()
    try:
        permanent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_permanent_cap():
    with pytest.raises(TooLarge):
        permanent(np.ones((21, 21)))


def test_permanents_reject_non_square():
    for fn in (permanent, lambda a: alpha_permanent(a, 0.5)):
        for a in (np.ones((2, 3)), np.ones(3), np.float64(2.0)):
            with pytest.raises(ValueError):
                fn(a)
            with pytest.raises(NotSquare) as info:
                fn(a)
            assert isinstance(info.value, BadExactInput)
            assert isinstance(info.value, LoopSoupError)
        malformed = (
            [["a", "b"], ["c", "d"]],
            [[1, 2], [3]],  # ragged
            np.array([[1.0, None], [2.0, 3.0]], dtype=object),
        )
        for a in malformed:
            with pytest.raises(BadExactInput):
                fn(a)
    # an object array of numbers is still a matrix
    assert permanent(np.array([[1, 2], [3, 4]], dtype=object)) == 10.0
    for alpha in (float("nan"), float("inf"), True, 10**400):
        with pytest.raises(BadExactInput):
            alpha_permanent(np.ones((2, 2)), alpha)


def test_alpha_permanent_cap():
    alpha_permanent(np.ones((12, 12)), 0.5)
    with pytest.raises(TooLarge):
        alpha_permanent(np.ones((13, 13)), 0.5)


def test_alpha_permanent_matches_brute_force():
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        real = rng.normal(size=(n, n))
        cases = (
            real,
            real + 1j * rng.normal(size=(n, n)),
            real * (rng.random((n, n)) < 0.3),  # mostly zeros
        )
        for a in cases:
            for alpha in (-1.0, 0.5, 1.0, 2.0):
                fast = alpha_permanent(a, alpha)
                assert isinstance(fast, complex) == np.iscomplexobj(a)
                # the sum of |terms| bounds the cancellation both sides suffer
                scale = oracles.alpha_permanent(np.abs(a), abs(alpha))
                assert abs(fast - oracles.alpha_permanent(a, alpha)) <= 1e-12 * max(scale, 1e-300)


def test_alpha_permanent_past_brute_force_sizes():
    rng = np.random.default_rng(23)
    for n in (10, 11, 12):
        real = rng.normal(size=(n, n))
        for a in (real, real + 1j * rng.normal(size=(n, n))):
            scale = permanent(np.abs(a))  # the sum of |terms| at alpha = +-1
            assert abs(alpha_permanent(a, 1.0) - permanent(a)) <= 1e-12 * scale
            assert abs(alpha_permanent(a, -1.0) - (-1) ** n * np.linalg.det(a)) <= 1e-12 * scale


def test_alpha_permanent_collapses():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    assert alpha_permanent(a, 1.0) == pytest.approx(permanent(a))
    assert alpha_permanent(a, -1.0) == pytest.approx((-1) ** 4 * np.linalg.det(a))
    # single cycle count on a 1x1 matrix: the value is alpha * entry
    assert alpha_permanent(np.array([[2.0]]), 0.5) == pytest.approx(1.0)


def test_alpha_permanent_two_by_two():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    # identity permutation has two cycles, the swap has one
    for alpha in (0.5, 2.0, 3.5):
        assert alpha_permanent(a, alpha) == pytest.approx(alpha**2 * 4 + alpha * 6)


def test_spanning_tree_weight_sum(two_point, triangle):
    assert spanning_tree_weight_sum(two_point) == pytest.approx(1.0)
    assert spanning_tree_weight_sum(triangle) == pytest.approx(3.0)
    g = WeightedGraph.build(
        ("a", "b", "c"),
        (("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 3.0)),
        {"a": 1.0},
    )
    # three trees: ab*ac + ab*bc + ac*bc = 2 + 3 + 6
    assert spanning_tree_weight_sum(g) == pytest.approx(11.0)
    single = WeightedGraph.build(("a",), (), {"a": 1.0})
    assert spanning_tree_weight_sum(single) == pytest.approx(1.0)


def test_spanning_tree_disconnected():
    g = WeightedGraph.build(
        ("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0)), {"a": 1.0, "c": 1.0}
    )
    with pytest.raises(Disconnected):
        spanning_tree_weight_sum(g)


def test_spanning_tree_monotone_in_conductance(triangle):
    heavier = WeightedGraph.build(
        ("a", "b", "c"),
        (("a", "b", 2.0), ("a", "c", 1.0), ("b", "c", 1.0)),
        {"a": 1.0},
    )
    assert spanning_tree_weight_sum(heavier) > spanning_tree_weight_sum(triangle)


def _net(graph, entries):
    n = graph.n
    c = np.zeros((n, n), dtype=np.int64)
    for (i, j), v in entries.items():
        c[i, j] = v
    return Network(graph, c)


def test_arborescence_count(two_point, triangle):
    two_cycle = _net(two_point, {(0, 1): 2, (1, 0): 2})
    # rooted at either end: choose one of the two parallel edges into the root
    assert arborescence_count(two_cycle, "a") == 2
    assert arborescence_count(two_cycle, "b") == 2
    tri = _net(triangle, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    assert arborescence_count(tri, "a") == 1
    assert arborescence_count(tri, "b") == 1
    both = _net(triangle, {(0, 1): 1, (1, 2): 1, (2, 0): 1,
                           (1, 0): 1, (2, 1): 1, (0, 2): 1})
    assert arborescence_count(both, "a") == 3


def test_arborescence_brute_force(triangle, complete4):
    rng = np.random.default_rng(9)
    for graph in (triangle, complete4):
        n = graph.n
        for _ in range(6):
            c = np.zeros((n, n), dtype=np.int64)
            for i, j in graph.edge_pairs:
                c[i, j] = rng.integers(0, 3)
                c[j, i] = rng.integers(0, 3)
            if c.sum() == 0:
                continue
            net = Network(graph, c)
            support = [x for x in range(n) if c[x].sum() + c[:, x].sum() > 0]
            root = support[0]
            # brute force: parent maps over the support, acyclic toward root,
            # weighted by edge multiplicities
            others = [x for x in support if x != root]
            count = 0
            for parents in itertools.product(support, repeat=len(others)):
                weight = 1
                for child, parent in zip(others, parents):
                    weight *= int(c[child, parent])
                if weight == 0:
                    continue
                reach = all(_reaches(dict(zip(others, parents)), x, root) for x in others)
                if reach:
                    count += weight
            assert arborescence_count(net, root) == count


def test_arborescence_unbalanced_in_only_vertex(triangle, complete4):
    # a -> b twice, a -> c three times, b -> c once: c only receives.  Toward
    # c, a goes by b (2 ways) or straight (3 ways); no tree reaches a or b,
    # because c has no way out, so c must stay in the minor
    sink = _net(triangle, {(0, 1): 2, (0, 2): 3, (1, 2): 1})
    assert [arborescence_count(sink, root) for root in "abc"] == [0, 0, 5]
    assert [oracles.arborescences(sink, root) for root in range(3)] == [0, 0, 5]
    # the same network in K4: the root d is off the support
    off = _net(complete4, {(0, 1): 2, (0, 2): 3, (1, 2): 1})
    assert [arborescence_count(off, root) for root in range(4)] == [0, 0, 5, 0]


def test_arborescence_counts_match_dense_laplacian(triangle, complete4):
    # the same Laplacian bits as the dense form, so the same determinants,
    # on balanced and unbalanced stacks, every root, the zero matrix included
    rng = np.random.default_rng(12)
    for graph in (triangle, complete4):
        n = graph.n
        counts = rng.integers(0, 4, size=(300, n, n)) * (graph.conductance > 0)
        counts[0] = 0
        for root in range(n):
            roots = np.full(len(counts), root)
            got = exact._arborescence_counts(counts, roots)
            assert got.tobytes() == oracles.arborescence_counts(counts, roots).tobytes()


def _reaches(parent_of, start, root, limit=16):
    x = start
    for _ in range(limit):
        if x == root:
            return True
        x = parent_of.get(x)
        if x is None:
            return False
    return False


def test_arborescence_errors(two_point):
    with pytest.raises(EmptyNetwork):
        arborescence_count(Network.zeros(two_point), "a")
    # a root off the support has no incoming arborescence
    g3 = WeightedGraph.build(
        ("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)), {"a": 1.0}
    )
    loop_ab = _net(g3, {(0, 1): 1, (1, 0): 1})
    assert arborescence_count(loop_ab, "c") == 0
