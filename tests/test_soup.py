"""Both loop-ensemble samplers: structure, determinism, quick law checks."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopsoup import (
    BLOCK,
    BadIntensity,
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
from loopsoup import fields as fields_module
from loopsoup import soup as soup_module
from loopsoup import verify as verify_module
from loopsoup.cli import main
from loopsoup.rng import SAMPLE_CAP, _check_sample
from loopsoup.soup import BasedLoop, _canonical
from loopsoup.verify import (
    complete4_graph,
    path3_graph,
    random_connected_graph,
    single_vertex_graph,
    triangle_graph,
    two_point_graph,
)


STRUCTURE_SEEDS = 400  # seeds tried for the per-loop structure assertions
STRUCTURE_LOOPS = 20  # loops they must see


def _assert_canonical(loop: BasedLoop):
    verts = loop.vertices
    assert verts[0] == min(verts)
    rotations = [
        tuple(verts[i:] + verts[:i]) for i in range(len(verts)) if verts[i] == verts[0]
    ]
    assert tuple(verts) == min(rotations)


def test_wilson_structure(two_point_kernel):
    # a two-point soup holds a loop at about one seed in five, so run seeds
    # until the per-loop assertions have seen STRUCTURE_LOOPS loops
    checked = 0
    for seed in range(42, 42 + STRUCTURE_SEEDS):
        parents, soup = wilson_sample(two_point_kernel, seed)
        assert soup.alpha == 1.0
        assert len(parents) == 2
        assert all(p == -1 or 0 <= p < 2 for p in parents)
        assert soup.trivial_time.shape == (2,)
        assert (soup.trivial_time >= 0).all()
        for loop in soup.loops:
            assert len(loop.vertices) >= 2
            assert len(loop.times) == len(loop.vertices)
            assert all(t > 0 for t in loop.times)
            _assert_canonical(loop)
            checked += 1
        if checked >= STRUCTURE_LOOPS:
            break
    assert checked >= STRUCTURE_LOOPS


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
    checked = 0
    for seed in range(3, 3 + STRUCTURE_SEEDS):
        soup = direct_sample(triangle_kernel, 2.0, seed=seed)
        assert soup.alpha == 2.0
        for loop in soup.loops:
            assert len(loop.vertices) >= 2
            _assert_canonical(loop)
            # consecutive vertices are joined by edges
            verts = loop.vertices + (loop.vertices[0],)
            for u, v in zip(verts[:-1], verts[1:]):
                assert triangle_kernel.graph.conductance[u, v] > 0
            checked += 1
        if checked >= STRUCTURE_LOOPS:
            break
    assert checked >= STRUCTURE_LOOPS
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


# cyclic vertex sequences over few vertices, so the minimal vertex repeats
# often, and powers of a word, whose equal rotations leave the tie to the
# first position
_CYCLES = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.builds(lambda word, k: word * k,
              st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(2, 3)))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_CYCLES)
def test_canonical_rotation_matches_the_position_scan(verts):
    times = [0.5 + i for i in range(len(verts))]  # distinct, so the position shows
    assert _canonical(verts, times) == oracles.canonical(verts, times)


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
        holds = rng.standard_exponential(steps)
        held = np.bincount(src - 1, weights=holds, minlength=n)
        assert oracles.occupation(soup, kernel) * kernel.lam == pytest.approx(held, rel=1e-12)
        assert occupation(soup) == pytest.approx(oracles.occupation(soup, kernel), rel=1e-12)
        assert soup.meta["walk_steps"] == steps
        # every visit keeps its own hold, in a loop or as its vertex's
        # one-point time, each (visit, hold) pair once
        read = [pair for loop in soup.loops for pair in zip(loop.vertices, loop.times)]
        read += list(enumerate(soup.trivial_time.tolist()))
        assert sorted(read) == sorted(zip((src - 1).tolist(), holds.tolist()))


LAW_SEEDS = 3000  # wilson_sample seeds 0 .. LAW_SEEDS - 1 per graph
LAW_LENGTHS = (2, 3, 4)


def _loop_law_z(kernel, lengths: list) -> dict:
    """z of the mean loop count against mu_mass, and of the mean number of
    loops of each length n in LAW_LENGTHS against tr(P^n) / n, with Poisson
    standard errors; lengths holds each sample's loop lengths."""
    def z(values, mean):
        return (np.mean(values) - mean) / np.sqrt(mean / len(values))

    lines = {"count": z([len(sample) for sample in lengths], kernel.mu_mass)}
    for k in LAW_LENGTHS:
        mass = np.trace(np.linalg.matrix_power(kernel.P, k)) / k
        lines[f"length {k}"] = z([sample.count(k) for sample in lengths], mass)
    return lines


def _split_at_first_vertex(verts) -> list:
    """Lengths of the pieces of a loop cut at each visit to its first vertex."""
    cuts = [i for i, v in enumerate(verts) if v == verts[0]] + [len(verts)]
    return [b - a for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("graph", [triangle_graph, complete4_graph])
def test_wilson_sample_loop_law(graph):
    # at alpha 1 the loop count is Poisson(mu_mass), and the loops of length
    # n number Poisson(tr(P^n) / n); as a negative control, the soup's loops
    # split at the visits to their first vertex (every excursion a loop of
    # its own) must fail the same lines
    kernel = build_kernel(graph())
    soups = [wilson_sample(kernel, seed)[1] for seed in range(LAW_SEEDS)]
    lines = _loop_law_z(kernel, [[len(loop.vertices) for loop in soup.loops]
                                 for soup in soups])
    assert all(abs(z) <= 4 for z in lines.values()), lines
    split = _loop_law_z(kernel, [[piece for loop in soup.loops
                                  for piece in _split_at_first_vertex(loop.vertices)]
                                 for soup in soups])
    assert all(split[name] > 4 for name in ("count", "length 2", "length 3")), split


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


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampled_networks_are_balanced(seed):
    # on random connected graphs every replica's jump network, from either
    # sampler, is balanced and lies on the graph's edges, and a direct replica
    # crosses edges as often as its loops jump
    kernel = build_kernel(random_connected_graph(np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    off_graph = kernel.graph.conductance == 0  # the diagonal too
    blocks = [direct_block(kernel, alpha, 30, rng) for alpha in (0.5, 1.0, 2.0)]
    for counts in [b.counts() for b in blocks] + [wilson_counts(kernel, 30, rng)[0]]:
        assert np.array_equal(counts.sum(axis=1), counts.sum(axis=2))
        assert not counts[:, off_graph].any()
    for block in blocks:
        jumps = sum(np.bincount(g.owners, minlength=block.size) * g.vertices.shape[1]
                    for g in block.groups)
        assert np.array_equal(block.counts().sum(axis=(1, 2)), jumps)


# gate per vertex: graphs from seeds 0-299 at 10k replicas and these alphas
# gave |z| up to 4.4 over 3669 lines
OCCUPATION_Z = 5.0


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0]))
def test_mean_occupation_is_alpha_times_green_diagonal(seed, boost):
    # random connected graphs with killing boost * C_x added at every vertex,
    # as in the layer enumeration test, so that the loop-length tail is cut
    graph = random_connected_graph(np.random.default_rng(seed))
    edges = [(graph.vertices[i], graph.vertices[j], float(graph.conductance[i, j]))
             for i, j in graph.edge_pairs]
    rates = graph.killing + boost * graph.conductance.sum(axis=1)
    kernel = build_kernel(WeightedGraph.build(graph.vertices, edges,
                                              dict(zip(graph.vertices, rates.tolist()))))
    replicas = 10_000
    for alpha in (0.5, 1.0, 2.0):
        occ = occupation_samples(kernel, alpha, replicas, seed)
        z = (occ.mean(axis=0) - alpha * np.diag(kernel.G)) / (occ.std(axis=0) / np.sqrt(replicas))
        assert np.all(np.abs(z) <= OCCUPATION_Z), (alpha, z)


def _typed(exc_info, kind):
    assert isinstance(exc_info.value, kind)
    assert isinstance(exc_info.value, LoopSoupError)
    assert isinstance(exc_info.value, ValueError)


def test_nonpositive_intensity_is_typed(triangle_kernel, tmp_path):
    for call in (
        lambda: direct_sample(triangle_kernel, 0.0, seed=1),
        lambda: network_histogram(triangle_kernel, 10, 1, "direct", alpha=-1.0),
        lambda: occupation_samples(triangle_kernel, float("nan"), 10, 1),
        # a bool is no intensity, though True > 0
        lambda: occupation_samples(triangle_kernel, True, 2, 1),
        lambda: network_histogram(triangle_kernel, 10, 1, "direct", alpha=np.True_),
        lambda: direct_sample(triangle_kernel, True, seed=1),
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
    # inf is refused up front; a finite alpha whose block would draw more than
    # DRAW_CAP loops on average is refused before the block draws anything
    for alpha in (float("inf"), 1e300, 2.0**40):
        for call in (
            lambda: direct_block(triangle_kernel, alpha, 10, np.random.default_rng(1)),
            lambda: direct_sample(triangle_kernel, alpha, seed=1),
            lambda: network_histogram(triangle_kernel, 10, 1, "direct", alpha=alpha),
            lambda: occupation_samples(triangle_kernel, alpha, 10, 1),
        ):
            with pytest.raises(BadIntensity) as info:
                call()
            _typed(info, BadIntensity)
    rng = np.random.default_rng(1)
    with pytest.raises(BadIntensity):
        direct_block(triangle_kernel, 2.0**40, 10, rng)
    assert rng.random() == np.random.default_rng(1).random()  # nothing drawn


def test_any_integer_seeds_a_generator(triangle_kernel):
    # a negative seed is taken modulo 2^64, as the Philox key of a block
    # stream takes it; a seed that is not an integer is refused
    for seed in (-1, -100):
        mapped = seed + 2**64
        assert direct_sample(triangle_kernel, 1.5, seed=seed).loops == \
            direct_sample(triangle_kernel, 1.5, seed=mapped).loops
        assert wilson_sample(triangle_kernel, seed)[0] == wilson_sample(triangle_kernel, mapped)[0]
    assert verify_isomorphism(triangle_kernel, 10, -100).lines
    assert len(run_all(replicas=10, seed=-100)) == 13
    for seed in ("7", 7.0, np.random.default_rng(7), True, np.True_):
        for call in (
            lambda: direct_sample(triangle_kernel, 1.0, seed=seed),
            lambda: wilson_sample(triangle_kernel, seed),
        ):
            with pytest.raises(BadSeed) as info:
                call()
            _typed(info, BadSeed)
    assert direct_sample(triangle_kernel, 1.0).alpha == 1.0  # None: a fresh stream


def test_tail_cut_out_of_range_is_typed(triangle_kernel):
    for eps in (0.0, -1e-9, 1e-3):
        for call in (lambda: occupation_samples(triangle_kernel, 1.0, 10, 1, eps=eps),
                     lambda: direct_sample(triangle_kernel, 1.0, eps=eps, seed=1)):
            with pytest.raises(BadTailCut) as info:
                call()
            _typed(info, BadTailCut)


def test_unknown_sampler_is_typed(triangle_kernel):
    with pytest.raises(UnknownSampler) as info:
        network_histogram(triangle_kernel, 10, 1, "metropolis")
    _typed(info, UnknownSampler)


def test_wilson_off_intensity_one_is_typed(triangle_kernel):
    with pytest.raises(BadIntensity) as info:
        network_histogram(triangle_kernel, 10, 1, "wilson", alpha=2.0)
    _typed(info, BadIntensity)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_histogram_with_occupation_is_one_draw_of_both(triangle_kernel, alpha):
    # holding times come after every vertex, so the networks keep every bit,
    # and the occupation fields are occupation_samples' rows
    replicas = 2 * BLOCK + 300
    plain = network_histogram(triangle_kernel, replicas, 9, "direct", alpha=alpha)
    shared = network_histogram(triangle_kernel, replicas, 9, "direct", alpha=alpha,
                               occupation=True)
    assert list(shared.items()) == list(plain.items())
    assert shared.diagnostics == plain.diagnostics
    assert plain.occupation is None and shared.seed == plain.seed == 9
    rows = occupation_samples(triangle_kernel, alpha, replicas, 9)
    assert shared.occupation.shape == rows.shape
    assert shared.occupation.tobytes() == rows.tobytes()


def test_occupation_from_cycle_popping_fails_before_drawing(monkeypatch, triangle_kernel):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sampler was called on an input error path")

    monkeypatch.setattr(soup_module, "_cycle_popping_walk", no_draw)
    monkeypatch.setattr(soup_module, "direct_block", no_draw)
    with pytest.raises(BadSamplerInput) as info:
        network_histogram(triangle_kernel, 10, 1, "wilson", occupation=True)
    _typed(info, BadSamplerInput)
    with pytest.raises(BadReplicaCount):
        network_histogram(triangle_kernel, 0, 1, "direct", occupation=True)


def test_generator_seed_is_typed(two_point_kernel):
    # a generator or a bool is no stream seed, though False is an Integral
    for seed in (np.random.default_rng(0), False, np.False_):
        for call in (
            lambda: verify_isomorphism(two_point_kernel, 10, seed),
            lambda: network_histogram(two_point_kernel, 10, seed),
            lambda: occupation_samples(two_point_kernel, 1.0, 2, seed),
        ):
            with pytest.raises(BadSeed) as info:
                call()
            _typed(info, BadSeed)


def test_replica_count_below_one_is_typed(triangle_kernel, path3_kernel, tmp_path):
    for replicas in (0, -1, -5, 2.5, True, np.True_):
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


def test_sample_too_large_to_hold_is_typed(monkeypatch, triangle_kernel, path3_kernel):
    # an (n, replicas) float64 sample past SAMPLE_CAP entries is refused
    # before a block is drawn or the sample allocated; the cap itself is not
    def no_draw(*args, **kwargs):
        raise AssertionError("a block was drawn for a sample too large to hold")

    monkeypatch.setattr(soup_module, "direct_block", no_draw)
    monkeypatch.setattr(soup_module, "wilson_counts", no_draw)
    monkeypatch.setattr(fields_module, "_excursion_block", no_draw)
    over = SAMPLE_CAP // 3 + 1
    for call in (
        lambda: occupation_samples(triangle_kernel, 1.0, over, 1),
        lambda: network_histogram(triangle_kernel, over, 1, "direct", occupation=True),
        lambda: verify_isomorphism(triangle_kernel, over, 1),
        lambda: ray_knight_check(path3_kernel, "a", 1.0, over, 1),
        lambda: run_all(replicas=over),
    ):
        with pytest.raises(BadReplicaCount) as info:
            call()
        _typed(info, BadReplicaCount)
        assert "cap" in str(info.value)
    assert _check_sample(3, over - 1) == over - 1
    assert _check_sample(1, SAMPLE_CAP) == SAMPLE_CAP
    with pytest.raises(BadReplicaCount):
        _check_sample(1, SAMPLE_CAP + 1)


@pytest.mark.parametrize("settings, kind", [
    (dict(workers=2), BadSamplerInput),
    # the battery's grid and mass budget are module constants, not settings
    (dict(grid=7), TypeError),
    (dict(delta=0.5), TypeError),
    (dict(grid=2**40), TypeError),
    (dict(seed="7"), BadSeed),
    (dict(seed=7.5), BadSeed),
])
def test_run_all_settings_fail_before_drawing(monkeypatch, settings, kind):
    def no_draw(*args, **kwargs):
        raise AssertionError("network_histogram called on an input error path")

    monkeypatch.setattr(verify_module, "network_histogram", no_draw)
    with pytest.raises(kind) as info:
        run_all(replicas=10, **settings)
    assert kind is TypeError or isinstance(info.value, LoopSoupError)
