"""The Monte Carlo block kernels against their earlier forms in oracles.py.

The kernels fill bridges in lockstep, count passed cumulative weights one
column at a time, keep cycle-popping state in flat cells and fold histogram
keys into one code; the oracles fill one length group at a time, sum boolean
rows, index (replica, vertex) pairs and rank every column.  Both draw the
same numbers in the same order, so every array must be equal, not close.
The reductions over a run (the KS distance, the merge of block histograms,
the one length law per run) are held to their earlier forms the same way.
The histogram's readers sum in another order than the dict walkers they
replaced, so they are held to them to 1e-12 relative.
"""

from collections import Counter
from functools import partial

import numpy as np
import pytest

import oracles
from loopsoup import (
    BLOCK,
    Histogram,
    build_kernel,
    cycle_basis,
    direct_block,
    fields,
    homology_distribution,
    network_histogram,
    occupation_samples,
    replica_map,
    replica_rng,
    soup,
    verify,
    wilson_counts,
)
from loopsoup.fields import _ks_distance
from loopsoup.rng import TAIL_CUT, seeded_rng
from loopsoup.soup import _key_counts
from loopsoup.verify import (
    complete4_graph,
    path3_graph,
    random_connected_graph,
    single_vertex_graph,
    triangle_graph,
    two_point_graph,
)

_RANDOM = np.random.default_rng(20260818)
GRAPHS = {
    "two_point": two_point_graph(),
    "triangle": triangle_graph(),
    "path3": path3_graph(),
    "K4": complete4_graph(),
    "single_vertex": single_vertex_graph(),
    **{f"random{i}": random_connected_graph(_RANDOM) for i in range(4)},
}
KERNELS = {name: build_kernel(graph) for name, graph in GRAPHS.items()}


def _assert_same_block(new, old):
    assert new.size == old.size
    assert new.cut_length == old.cut_length
    assert new.discarded_mu_mass == old.discarded_mu_mass
    assert len(new.groups) == len(old.groups)
    for a, b in zip(new.groups, old.groups):
        assert np.array_equal(a.owners, b.owners)
        assert a.vertices.dtype == b.vertices.dtype
        assert np.array_equal(a.vertices, b.vertices)
        assert (a.times is None) == (b.times is None)
        if a.times is not None:
            assert np.array_equal(a.times, b.times)
    assert (new.trivial_time is None) == (old.trivial_time is None)
    if new.trivial_time is not None:
        assert np.array_equal(new.trivial_time, old.trivial_time)


def _compare_direct(kernel, alpha, size, seed, times):
    new_rng, old_rng = replica_rng(seed, 0), replica_rng(seed, 0)
    new = direct_block(kernel, alpha, size, new_rng, kernel.length_distribution(TAIL_CUT),
                       times=times)
    old = oracles.direct_block(kernel, alpha, size, old_rng, times=times)
    _assert_same_block(new, old)
    assert np.array_equal(new.counts(), oracles.block_counts(old))
    assert new_rng.random() == old_rng.random()  # both used up the same numbers
    return new


@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("times", [False, True])
def test_direct_block_matches_group_fill(name, alpha, times):
    block = _compare_direct(KERNELS[name], alpha, 600, 7, times)
    if name != "single_vertex":
        assert sum(len(g.owners) for g in block.groups) > 0


def test_direct_block_edge_cases():
    # no loops at all: the single vertex has no edges, and a tiny intensity
    # leaves a two-point block empty
    for kernel, alpha in ((KERNELS["single_vertex"], 2.0), (KERNELS["two_point"], 1e-9)):
        block = _compare_direct(kernel, alpha, 5, 3, True)
        assert block.groups == ()
    # one-replica blocks, as direct_sample draws them
    for name in ("triangle", "K4", "random0"):
        for seed in range(10):
            _compare_direct(KERNELS[name], 2.0, 1, seed, True)


def test_direct_block_without_the_table(monkeypatch):
    # a tail too long for the conditional-CDF table builds its rows per step
    monkeypatch.setattr(soup, "_TABLE_CAP", 0)
    for name in ("triangle", "K4", "random1"):
        _compare_direct(KERNELS[name], 2.0, 300, 11, True)


class _Uniform:
    """A generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_walk_steps_matches_row_sum():
    rng = np.random.default_rng(5)
    for kernel in KERNELS.values():
        xs = rng.integers(0, kernel.n, 2000)
        u = rng.random(2000)
        assert np.array_equal(kernel.walk_steps(xs, u), oracles.walk_steps(kernel, xs, u))
        # uniforms exactly on, just below and just above each cumulative boundary
        cum = kernel._step_table[1]
        x, col = np.nonzero(np.isfinite(cum))
        edge = cum[x, col]
        for u in (edge, np.nextafter(edge, 0), np.nextafter(edge, 1)):
            assert np.array_equal(kernel.walk_steps(x, u), oracles.walk_steps(kernel, x, u))
        # walk_step, the one-walker view, against its bisect form on the same
        # boundaries, read from the unpadded tables, and around 0, 0.5 and 1
        # (the only uniforms of the single vertex, whose table has width 0)
        for x, (_, cum) in enumerate(oracles.walk_tables(kernel)):
            for edge in cum + [0.0, 0.5, np.nextafter(1.0, 0.0)]:
                for u in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)):
                    step = kernel.walk_step(x, _Uniform(float(u)))
                    assert step == oracles.walk_step(kernel, x, _Uniform(float(u)))


def test_bridge_pick_on_boundaries():
    # dyadic weights keep the cumulative sums exact, so uniforms can sit on them
    rng = np.random.default_rng(6)
    weights = rng.integers(0, 4, size=(3000, 4)) / 8.0
    weights[:, 0] += 1 / 8  # a positive total
    cum = np.cumsum(weights, axis=1)
    u = cum[np.arange(3000), rng.integers(0, 4, 3000)] / cum[:, -1]
    for u in (u, np.nextafter(u, 0), np.nextafter(u, 1).clip(0, np.nextafter(1, 0))):
        assert np.array_equal(soup._pick(cum.T, u), oracles._pick_rows(weights, u))


class _OracleWalk:
    """A kernel seen only through n and the row-sum walk_steps."""

    def __init__(self, kernel):
        self.n, self._kernel = kernel.n, kernel

    def walk_steps(self, xs, u):
        return oracles.walk_steps(self._kernel, xs, u)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_wilson_counts_matches_pair_indices(name):
    kernel = KERNELS[name]
    for size, seed in ((700, 1), (1, 2), (1, 3)):
        counts, diagnostics = wilson_counts(kernel, size, replica_rng(seed, 0))
        ref_counts, ref_diagnostics = oracles.wilson_counts(kernel, size, replica_rng(seed, 0))
        assert np.array_equal(counts, ref_counts)
        assert diagnostics == ref_diagnostics
        # the flat-cell walk reads the kernel only through n and walk_steps
        walked, _ = wilson_counts(_OracleWalk(kernel), size, replica_rng(seed, 0))
        assert np.array_equal(walked, ref_counts)


def _assert_same_keys(counts):
    rows, freq = _key_counts(counts)
    ref_rows, ref_freq = oracles.key_counts(counts)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(freq, ref_freq)
    assert freq.sum() == len(counts)
    return rows


@pytest.mark.parametrize("name", list(GRAPHS))
def test_key_counts_matches_column_ranks(name):
    kernel = KERNELS[name]
    for alpha in (0.5, 2.0):
        block = direct_block(kernel, alpha, 900, replica_rng(4, 0),
                             kernel.length_distribution(TAIL_CUT))
        _assert_same_keys(block.counts())
    _assert_same_keys(wilson_counts(kernel, 900, replica_rng(4, 1))[0])


def test_key_counts_overflow_ranks(monkeypatch):
    rng = np.random.default_rng(9)
    distinct = rng.integers(2**40 - 50, 2**40, size=(40, 3, 3))
    counts = distinct[rng.integers(0, 40, 500)]  # repeated rows, so frequencies > 1
    product = 1
    for col in counts.reshape(len(counts), -1).T:
        product *= int(col.max()) + 1
    assert product > 2**62
    ranks = []
    unique = np.unique

    def counted(*args, **kwargs):
        ranks.append(1)
        return unique(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", counted)
        _key_counts(counts)
    assert ranks  # the fold ranked at least once before the codes overflowed
    rows = _assert_same_keys(counts)
    assert len(rows) == len(np.unique(distinct.reshape(40, -1), axis=0))


def test_key_counts_all_zero_block():
    counts, _ = wilson_counts(KERNELS["single_vertex"], 300, replica_rng(1, 0))
    assert not counts.any()
    rows = _assert_same_keys(counts)
    assert rows.shape == (1, 1)
    kernel = KERNELS["single_vertex"]
    block = direct_block(kernel, 1.0, 300, replica_rng(1, 0), kernel.length_distribution(TAIL_CUT))
    _assert_same_keys(block.counts())


def _ks_cases() -> dict:
    rng = np.random.default_rng(20260819)
    ties = rng.integers(0, 6, 400).astype(float)
    return {
        "ties": (ties, rng.integers(0, 6, 250).astype(float)),
        "unequal_sizes": (rng.standard_normal(1000), rng.standard_normal(37)),
        "one_point": (np.array([0.5]), np.array([0.5])),
        "one_point_vs_many": (np.array([0.25]), rng.random(9)),
        "identical": (ties, ties.copy()),
        "disjoint": (rng.random(50), 2.0 + rng.random(80)),
    }


# continuous laws to read each case's samples against: one with all its mass
# in [0, 1], so the disjoint case's second sample lies wholly above it
_CDFS = {"uniform": lambda t: np.clip(t, 0.0, 1.0),
         "logistic": lambda t: 1.0 / (1.0 + np.exp(-t))}


@pytest.mark.parametrize("case", list(_ks_cases()))
def test_ks_matches_full_grid(case):
    # each sample of the case against each law: the distance from the sorted
    # sample's steps equals the one over both sides of every distinct point
    for sample in _ks_cases()[case]:
        for cdf in _CDFS.values():
            assert _ks_distance(sample, cdf) == oracles.ks_one_sample(sample, cdf)
    if case == "disjoint":
        assert _ks_distance(_ks_cases()[case][1], _CDFS["uniform"]) == 1.0


def _direct_keys(kernel, rng, size):
    law = kernel.length_distribution(TAIL_CUT)
    return _key_counts(direct_block(kernel, 1.0, size, rng, law).counts())


def _wilson_keys(kernel, rng, size):
    return _key_counts(wilson_counts(kernel, size, rng)[0])


MERGE_REPLICAS = 2 * BLOCK + 700  # two full blocks and a partial one


def test_histogram_merge_matches_row_merge():
    for name in ("two_point", "triangle"):
        kernel = KERNELS[name]
        for sampler, keys in (("direct", _direct_keys), ("wilson", _wilson_keys)):
            parts = replica_map(partial(keys, kernel), MERGE_REPLICAS, 5)
            ref = oracles.merge_block_keys(kernel.n, parts)
            hist = network_histogram(kernel, MERGE_REPLICAS, 5, sampler)
            got = [(tuple(map(tuple, key)), count)
                   for key, count in zip(hist.rows.tolist(), hist.counts.tolist())]
            assert got == sorted(ref.items())  # lexicographic, whatever the block order
            if name == "triangle":  # later blocks bring keys below earlier ones
                assert list(ref) != sorted(ref)


def test_one_length_law_per_run(monkeypatch):
    kernel = KERNELS["triangle"]
    law = type(kernel).length_distribution
    calls = []

    def spy(self, eps):
        calls.append(eps)
        return law(self, eps)

    monkeypatch.setattr(type(kernel), "length_distribution", spy)
    network_histogram(kernel, MERGE_REPLICAS, 5, "direct", alpha=0.5)
    assert len(calls) == 1
    occupation_samples(kernel, 0.5, MERGE_REPLICAS, 5)
    assert len(calls) == 2


READER_REPLICAS = BLOCK + 500  # one full block and one partial block


@pytest.fixture(scope="module")
def reader_histograms():
    """label -> (kernel, histogram): the sampled networks the battery reads,
    and one random connected graph's."""
    runs = {"two-point wilson": ("two_point", "wilson", 1.0),
            **{f"triangle direct {alpha}": ("triangle", "direct", alpha)
               for alpha in (0.5, 1.0, 2.0)},
            "triangle wilson": ("triangle", "wilson", 1.0),
            "random0 direct": ("random0", "direct", 1.0)}
    return {label: (KERNELS[name], network_histogram(KERNELS[name], READER_REPLICAS, 7,
                                                     sampler, alpha=alpha))
            for label, (name, sampler, alpha) in runs.items()}


def _stat_lines(report) -> list:
    return [(line.lhs, line.stderr) for line in report.lines if line.z is not None]


def _approx(pairs) -> list:
    return [(pytest.approx(mean, rel=1e-12), pytest.approx(se, rel=1e-12))
            for mean, se in pairs]


def test_histogram_readers_match_dict_oracles(reader_histograms, monkeypatch):
    # the array readers against the dict walkers they replaced: the same
    # statistics, summed in another order
    for kernel, hist in reader_histograms.values():
        pairs = oracles.histogram_dict(hist)
        u, v = kernel.graph.edge_pairs[0]

        def moment(counts, u=u, v=v):
            return counts[u, v] * counts[v, u] * (counts[0].sum() + 1)

        def det(counts, kernel=kernel):
            d = kernel.lam * (1.0 + counts.sum(axis=1)) / kernel.lam
            return np.linalg.det(np.diag(d) - counts)

        names = kernel.graph.vertices
        report = fields.verify_moment_formula(
            kernel, [(names[u], names[v]), (names[v], names[u])], [names[0]], hist)
        assert _stat_lines(report) == _approx([oracles.histogram_stat(pairs, moment)[:2]])
        report = fields.verify_det_identity(kernel, kernel.lam, hist)
        assert _stat_lines(report) == _approx([oracles.histogram_stat(pairs, det)[:2]])

    # checks 1 and 2: the a -> b count's law on the two-point chain
    hist = reader_histograms["two-point wilson"][1]
    marginal = Counter()
    for key, c in oracles.histogram_dict(hist).items():
        marginal[key[0][1]] += c
    marginal = oracles.normalize_counter(marginal)
    for pmf in (verify.geometric_pmf, lambda n: verify.nb_pmf(n, 0.5)):
        want = oracles.tv_distance(marginal, {n: pmf(n) for n in range(max(marginal) + 11)})
        assert verify._round_trip_tv(hist, pmf) == pytest.approx(want, rel=1e-12)

    # check 4: Re and Im of prod Z^N at every modifier
    triangle = {alpha: reader_histograms[f"triangle direct {alpha}"][1]
                for alpha in (0.5, 1.0, 2.0)}
    rng = seeded_rng(7 + 30)
    modifiers = [verify._random_hermitian_modifier(3, rng) for _ in range(verify.N_MODIFIERS)]
    want = []
    for alpha in (0.5, 1.0, 2.0):
        pairs = oracles.histogram_dict(triangle[alpha])
        for mod in modifiers:
            logz = np.log(mod.entries + 0j)
            for part in (np.real, np.imag):
                want.append(oracles.histogram_stat(
                    pairs, lambda counts, part=part: part(np.exp(np.sum(counts * logz))))[:2])
    report = verify.check_generating_function(7, triangle)
    assert _stat_lines(report) == _approx(want)

    # checks 12 and 13: class TV against the law, at the battery's grid and
    # at one whose window misses drawn classes, and the cross-sampler TV
    kernel = KERNELS["triangle"]
    basis = cycle_basis(kernel.graph)
    wilson = reader_histograms["triangle wilson"][1]
    # the empty network and five turns round the triangle, a class past the
    # window at grid 8 whose neighbour inside it was never drawn
    turns = np.zeros((2, 3, 3), dtype=np.int64)
    turns[1, 0, 1] = turns[1, 1, 2] = turns[1, 2, 0] = 5
    far = Histogram(turns, np.array([99, 1]), {"replicas": 100}, 0, None)
    missed = 0
    for grid in (verify.HOMOLOGY_GRID, 8):
        monkeypatch.setattr(verify, "HOMOLOGY_GRID", grid)
        law = homology_distribution(kernel, basis, 1.0, grid)
        for hist in (*triangle.values(), wilson, far):
            classes = oracles.class_counts(oracles.histogram_dict(hist), basis)
            missed += sum(c for j, c in classes.items() if max(map(abs, j)) >= grid // 2)
            report = verify.check_homology_distribution(hist, 0.0)
            want = oracles.tv_distance(oracles.normalize_counter(classes), law.probs)
            assert report.lines[2].lhs == pytest.approx(want, rel=1e-12)
    assert missed  # the window at grid 8 misses some drawn classes
    for hist in triangle.values():
        report = verify.check_cross_sampler(wilson, hist)
        want = oracles.tv_distance(oracles.normalize_counter(oracles.histogram_dict(wilson)),
                                   oracles.normalize_counter(oracles.histogram_dict(hist)))
        assert report.lines[0].lhs == pytest.approx(want, rel=1e-12)
