"""The Monte Carlo block kernels against their earlier forms in oracles.py.

The kernels fill bridges in lockstep, count passed cumulative weights one
column at a time, keep cycle-popping state in flat cells and fold histogram
keys into one code; the oracles fill one length group at a time, sum boolean
rows, index (replica, vertex) pairs and rank every column.  Both draw the
same numbers in the same order, so every array must be equal, not close.
The reductions over a run (the KS distance, the merge of block histograms,
the one length law per run) are held to their earlier forms the same way.
"""

from functools import partial

import numpy as np
import pytest

import oracles
from loopsoup import (
    BLOCK,
    build_kernel,
    direct_block,
    network_histogram,
    occupation_samples,
    replica_map,
    replica_rng,
    soup,
    wilson_counts,
)
from loopsoup.fields import _ks_distance
from loopsoup.rng import TAIL_CUT
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
            assert list(hist.items()) == list(ref.items())  # insertion order too
            if name == "triangle":  # later blocks bring keys below earlier ones
                assert list(hist) != sorted(hist)


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
