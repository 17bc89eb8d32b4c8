"""Both loop-ensemble samplers: structure, determinism, quick law checks."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import oracles
from loopsoup import (
    BLOCK,
    BadGrid,
    BadIntensity,
    BadMassBudget,
    BadReplicaCount,
    BadSamplerInput,
    BadSeed,
    BadTailCut,
    LoopSoupError,
    TailTooHeavy,
    UnknownSampler,
    WeightedGraph,
    build_kernel,
    direct_block,
    direct_sample,
    jump_matrix,
    network_histogram,
    occupation,
    occupation_samples,
    ray_knight_check,
    replica_map,
    run_all,
    verify_isomorphism,
    wilson_counts,
    wilson_sample,
)
from loopsoup import soup as soup_module
from loopsoup import verify as verify_module
from loopsoup.cli import main
from loopsoup.soup import BasedLoop, _canonical
from loopsoup.verify import (
    complete4_graph,
    path3_graph,
    single_vertex_graph,
    triangle_graph,
    two_point_graph,
)


def _assert_canonical(loop: BasedLoop):
    verts = loop.vertices
    assert verts[0] == min(verts)
    rotations = [
        tuple(verts[i:] + verts[:i]) for i in range(len(verts)) if verts[i] == verts[0]
    ]
    assert tuple(verts) == min(rotations)


def test_wilson_structure(two_point_kernel):
    parents, soup = wilson_sample(two_point_kernel, 42)
    assert soup.alpha == 1.0
    assert len(parents) == 2
    assert all(p == -1 or 0 <= p < 2 for p in parents)
    assert soup.trivial_time.shape == (2,)
    assert (soup.trivial_time >= 0).all()
    for loop in soup.loops:
        assert loop.length >= 2
        assert len(loop.times) == loop.length
        assert all(t > 0 for t in loop.times)
        _assert_canonical(loop)


def test_wilson_determinism(triangle_kernel):
    _, a = wilson_sample(triangle_kernel, 7)
    _, b = wilson_sample(triangle_kernel, 7)
    assert len(a.loops) == len(b.loops)
    for la, lb in zip(a.loops, b.loops):
        assert la.vertices == lb.vertices
        assert la.times == lb.times
    assert a.trivial_time == pytest.approx(b.trivial_time)


def test_direct_determinism(triangle_kernel):
    a = direct_sample(triangle_kernel, 1.5, seed=11)
    b = direct_sample(triangle_kernel, 1.5, seed=11)
    assert len(a.loops) == len(b.loops)
    for la, lb in zip(a.loops, b.loops):
        assert la.vertices == lb.vertices
        assert la.times == pytest.approx(lb.times)


def test_soups_compare_by_identity(triangle_kernel):
    # the block's arrays define no equality, so soups compare and hash by identity
    a = direct_sample(triangle_kernel, 1.3, seed=2)
    b = direct_sample(triangle_kernel, 1.3, seed=2)
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_direct_structure(triangle_kernel):
    soup = direct_sample(triangle_kernel, 2.0, seed=3)
    assert soup.alpha == 2.0
    for loop in soup.loops:
        assert loop.length >= 2
        _assert_canonical(loop)
        # consecutive vertices are joined by edges
        verts = loop.vertices + (loop.vertices[0],)
        for u, v in zip(verts[:-1], verts[1:]):
            assert triangle_kernel.graph.conductance[u, v] > 0
    with pytest.raises(ValueError):
        direct_sample(triangle_kernel, 0.0, seed=1)


def test_jump_networks_balanced(triangle_kernel):
    for seed in range(30):
        _, soup = wilson_sample(triangle_kernel, seed)
        assert jump_matrix(soup).is_eulerian()
        soup2 = direct_sample(triangle_kernel, 0.7, seed=seed)
        assert jump_matrix(soup2).is_eulerian()


def test_single_vertex_soups(single_vertex_kernel):
    _, soup = wilson_sample(single_vertex_kernel, 5)
    assert soup.loops == ()
    assert soup.trivial_time[0] > 0
    soup2 = direct_sample(single_vertex_kernel, 0.5, seed=5)
    assert soup2.loops == ()
    assert jump_matrix(soup2).total == 0


def test_canonical_rotation_helper():
    verts, times = _canonical((2, 0, 1, 0), (0.2, 0.3, 0.4, 0.5))
    assert verts == (0, 1, 0, 2)
    # times rotate together with the vertices
    assert times == (0.3, 0.4, 0.5, 0.2)


def test_trivial_time_mean(single_vertex_kernel):
    # one-point holding mass is Gamma(alpha, 1) per vertex
    for alpha in (0.5, 2.0):
        total = 0.0
        n = 3000
        for r in range(n):
            soup = direct_sample(single_vertex_kernel, alpha, seed=1000 + r)
            total += soup.trivial_time[0]
        assert total / n == pytest.approx(alpha, abs=5 * np.sqrt(alpha / n))


def test_occupation_mean_two_point(two_point_kernel):
    # E occupation at a vertex = alpha * G_xx = 2/3 at alpha 1
    n = 4000
    acc = np.zeros(2)
    for r in range(n):
        _, soup = wilson_sample(two_point_kernel, r)
        acc += occupation(soup)
    assert acc / n == pytest.approx([2 / 3, 2 / 3], abs=0.04)


def test_edge_count_mean_two_point(two_point_kernel):
    # E N_ab = P_ab G_ba lam_a = 1/3
    n = 6000
    acc = 0
    for r in range(n):
        _, soup = wilson_sample(two_point_kernel, r)
        acc += jump_matrix(soup).counts[0, 1]
    assert acc / n == pytest.approx(1 / 3, abs=0.03)


def test_mu_mass_nontrivial(two_point_kernel, triangle_kernel):
    assert two_point_kernel.mu_mass == pytest.approx(-np.log(0.75))
    assert triangle_kernel.mu_mass == pytest.approx(-np.log(16 / 27))


def test_tail_too_heavy():
    g = WeightedGraph.build(("a", "b"), (("a", "b", 1.0),), {"a": 1e-6})
    kernel = build_kernel(g)
    with pytest.raises(TailTooHeavy):
        direct_sample(kernel, 1.0, seed=0)


def test_loop_time_totals(triangle_kernel):
    _, soup = wilson_sample(triangle_kernel, 123)
    for loop in soup.loops:
        assert len(loop.vertices) >= 2  # one-visit time goes to trivial_time
        assert len(loop.times) == len(loop.vertices)
        assert all(t > 0 for t in loop.times)


def test_single_sample_is_the_block_view(triangle_kernel):
    # direct_sample reads one replica of direct_block; the loop-by-loop
    # reductions of its loops must equal the block's array reductions
    for seed in range(20):
        soup = direct_sample(triangle_kernel, 1.3, seed=seed)
        block = direct_block(triangle_kernel, 1.3, 1, np.random.default_rng(seed), times=True)
        assert np.array_equal(oracles.jump_matrix(soup).counts, block.counts()[0])
        assert jump_matrix(soup) == oracles.jump_matrix(soup)
        assert oracles.occupation(soup, triangle_kernel) == pytest.approx(
            block.occupation()[0], rel=1e-12)
        assert occupation(soup) == pytest.approx(
            oracles.occupation(soup, triangle_kernel), rel=1e-12)


@pytest.mark.parametrize("graph", [two_point_graph, triangle_graph, path3_graph,
                                   complete4_graph, single_vertex_graph])
def test_wilson_sample_is_the_walk_view(graph):
    # wilson_sample reads the one-replica cycle-popping walk of wilson_counts
    # and then draws one holding time per visit
    kernel = build_kernel(graph())
    n = kernel.n
    for seed in range(50):
        parents, soup = wilson_sample(kernel, seed)
        counts, _ = wilson_counts(kernel, 1, np.random.default_rng(seed))
        assert np.array_equal(oracles.jump_matrix(soup).counts, counts[0])
        assert jump_matrix(soup) == oracles.jump_matrix(soup)
        rng = np.random.default_rng(seed)
        jumps, _, steps = soup_module._cycle_popping_walk(kernel, 1, rng)
        src, dst = np.divmod(jumps, n + 1)
        last_exit = dict(zip((src - 1).tolist(), (dst - 1).tolist()))
        assert parents == tuple(last_exit[x] for x in range(n))
        held = np.bincount(src - 1, weights=rng.standard_exponential(steps), minlength=n)
        assert oracles.occupation(soup, kernel) * kernel.lam == pytest.approx(held, rel=1e-12)
        assert occupation(soup) == pytest.approx(oracles.occupation(soup, kernel), rel=1e-12)
        assert soup.meta["walk_steps"] == steps


def test_block_reductions_match_loop_reference(triangle_kernel):
    size = 64
    block = direct_block(triangle_kernel, 2.0, size, np.random.default_rng(3), times=True)
    counts = np.zeros((size, 3, 3), dtype=np.int64)
    time = np.array(block.trivial_time)
    for group in block.groups:
        for r, verts, times in zip(group.owners, group.vertices, group.times):
            for i, v in enumerate(verts):
                counts[r, v, verts[(i + 1) % len(verts)]] += 1
                time[r, v] += times[i]
    assert counts.sum() > 0
    assert np.array_equal(block.counts(), counts)
    assert block.occupation() == pytest.approx(time / triangle_kernel.lam)
    # holding times are drawn after every vertex, so the loops do not depend on them
    bare = direct_block(triangle_kernel, 2.0, size, np.random.default_rng(3))
    assert np.array_equal(bare.counts(), counts)


def test_wilson_block_networks_balanced(two_point_kernel, triangle_kernel, path3_kernel):
    # all walk transitions minus the tree edges: a wrong subtraction leaves
    # a negative or unbalanced count
    for kernel in (two_point_kernel, triangle_kernel, path3_kernel):
        size = 3000
        counts, diagnostics = wilson_counts(kernel, size, np.random.default_rng(5))
        assert (counts >= 0).all()
        assert np.array_equal(counts.sum(axis=1), counts.sum(axis=2))
        assert counts.sum() > 0
        # every vertex is left at least once, on its last exit
        assert diagnostics["walk_steps"] >= size * kernel.n


def test_wilson_histogram_edge_mean(two_point_kernel):
    # E N_ab = 1/3 on the two-point chain
    replicas = 20_000
    hist = network_histogram(two_point_kernel, replicas, 8, "wilson")
    values = np.array([key[0][1] for key in hist.elements()], dtype=float)
    assert len(values) == replicas
    se = values.std() / np.sqrt(replicas)
    assert abs(values.mean() - 1 / 3) < 5 * se
    assert hist.diagnostics["blocks"] == 3


def _typed(exc_info, kind):
    assert isinstance(exc_info.value, kind)
    assert isinstance(exc_info.value, LoopSoupError)
    assert isinstance(exc_info.value, ValueError)


def test_nonpositive_intensity_is_typed(triangle_kernel, tmp_path):
    for call in (
        lambda: direct_sample(triangle_kernel, 0.0, seed=1),
        lambda: network_histogram(triangle_kernel, 10, 1, "direct", alpha=-1.0),
        lambda: occupation_samples(triangle_kernel, float("nan"), 10, 1),
    ):
        with pytest.raises(BadIntensity) as info:
            call()
        _typed(info, BadIntensity)
    graph = str(Path(__file__).resolve().parent.parent / "sample_graphs" / "triangle.json")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["occupation", "--graph", graph, "--alpha", "0",
                     "--out", str(tmp_path / "out.json")])
    assert code == 1 and "intensity must be positive" in err.getvalue()


def test_non_finite_or_huge_intensity_is_typed(triangle_kernel):
    # inf is refused up front; a finite alpha whose loop count mean numpy
    # cannot draw from is refused at the draw
    for alpha in (float("inf"), 1e300):
        for call in (
            lambda: direct_block(triangle_kernel, alpha, 10, np.random.default_rng(1)),
            lambda: direct_sample(triangle_kernel, alpha, seed=1),
            lambda: network_histogram(triangle_kernel, 10, 1, "direct", alpha=alpha),
            lambda: occupation_samples(triangle_kernel, alpha, 10, 1),
        ):
            with pytest.raises(BadIntensity) as info:
                call()
            _typed(info, BadIntensity)


def test_tail_cut_out_of_range_is_typed(triangle_kernel):
    for eps in (0.0, -1e-9, 1e-3):
        with pytest.raises(BadTailCut) as info:
            network_histogram(triangle_kernel, 10, 1, "direct", eps=eps)
        _typed(info, BadTailCut)


def test_unknown_sampler_is_typed(triangle_kernel):
    with pytest.raises(UnknownSampler) as info:
        network_histogram(triangle_kernel, 10, 1, "metropolis")
    _typed(info, UnknownSampler)


def test_wilson_off_intensity_one_is_typed(triangle_kernel):
    with pytest.raises(BadIntensity) as info:
        network_histogram(triangle_kernel, 10, 1, "wilson", alpha=2.0)
    _typed(info, BadIntensity)


def test_generator_seed_is_typed(two_point_kernel):
    rng = np.random.default_rng(0)
    for call in (
        lambda: verify_isomorphism(two_point_kernel, 10, rng),
        lambda: network_histogram(two_point_kernel, 10, rng),
    ):
        with pytest.raises(BadSeed) as info:
            call()
        _typed(info, BadSeed)


def test_replica_count_below_one_is_typed(triangle_kernel, path3_kernel, tmp_path):
    for replicas in (0, -1, -5, 2.5):
        for call in (
            lambda: replica_map(lambda rng, size: size, replicas, 1),
            lambda: network_histogram(triangle_kernel, replicas, 1),
            lambda: occupation_samples(triangle_kernel, 1.0, replicas, 1),
            lambda: verify_isomorphism(triangle_kernel, replicas, 1),
            lambda: ray_knight_check(path3_kernel, "a", 1.0, replicas, 1),
            lambda: run_all(replicas=replicas),
        ):
            with pytest.raises(BadReplicaCount) as info:
                call()
            _typed(info, BadReplicaCount)
            assert isinstance(info.value, BadSamplerInput)
    graph = str(Path(__file__).resolve().parent.parent / "sample_graphs" / "triangle.json")
    for argv in (["moments", "--graph", graph, "--edges", "a:b", "--replicas", "-1"],
                 ["moments", "--graph", graph, "--edges", "a:b", "--replicas", "0"],
                 ["occupation", "--graph", graph, "--replicas", "0"],
                 ["isomorphism", "--graph", graph, "--replicas", "0"],
                 ["verify-all", "--replicas", "0"]):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(tmp_path / "out.json")])
        assert code == 1 and "at least one replica" in err.getvalue()
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("settings, kind", [
    (dict(workers=2), BadSamplerInput),
    (dict(grid=7), BadGrid),
    (dict(delta=0.5), BadMassBudget),
])
def test_run_all_settings_fail_before_drawing(monkeypatch, settings, kind):
    def no_draw(*args, **kwargs):
        raise AssertionError("network_histogram called on an input error path")

    monkeypatch.setattr(verify_module, "network_histogram", no_draw)
    with pytest.raises(kind) as info:
        run_all(replicas=10, **settings)
    assert isinstance(info.value, LoopSoupError)
