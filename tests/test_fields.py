"""Gaussian fields, the occupation isomorphism, and the moment verifiers."""

import tracemalloc

import numpy as np
import pytest

import oracles
from loopsoup import (
    BLOCK,
    BadChi,
    BadReplicaCount,
    BadSamplerInput,
    BadSeed,
    BadStoppingLevel,
    BadSupport,
    DuplicateIndex,
    LoopSoupError,
    ks_two_sample,
    network_histogram,
    occupation_samples,
    ray_knight_check,
    sample_excursion_field,
    verify_det_identity,
    verify_isomorphism,
    verify_moment_formula,
)
from loopsoup import fields, verify
from loopsoup.fields import _abs_sq_rows, _excursion_block, _field_chunks, _half_sq_rows
from loopsoup.rng import seeded_rng


def test_real_field_covariance(two_point_kernel):
    n = 40_000
    samples = np.concatenate([f for _, f in _field_chunks(two_point_kernel, n,
                                                          seeded_rng(100))])
    cov = samples.T @ samples / n
    # G = [[2/3, 1/3], [1/3, 2/3]]; entry noise is about 0.004 at this size
    assert np.allclose(cov, two_point_kernel.G, atol=0.02)
    assert abs(samples.mean()) < 0.02


def test_complex_field_covariance(triangle_kernel):
    n = 40_000
    samples = oracles.sample_complex_fields(triangle_kernel, n, 101)
    herm = samples.T.conj() @ samples / n
    assert np.allclose(herm, triangle_kernel.G, atol=0.02)
    # the relation kernel E[phi phi] vanishes
    rel = samples.T @ samples / n
    assert np.abs(rel).max() < 0.02


def test_field_determinism(two_point_kernel):
    for rows in (_half_sq_rows, _abs_sq_rows):
        a = rows(two_point_kernel, 1, 7)
        assert a.shape == (2, 1) and a.dtype == float
        assert np.array_equal(a, rows(two_point_kernel, 1, 7))


def test_field_count_is_typed(two_point_kernel):
    # the isomorphism refuses its replica count before any field is drawn
    for count in (0, -1, 2.5, "3", True):
        with pytest.raises(BadReplicaCount) as info:
            verify_isomorphism(two_point_kernel, count, 7)
        assert isinstance(info.value, LoopSoupError)
        assert isinstance(info.value, ValueError)


def test_complex_wick_moment(two_point_kernel):
    # E[prod phi_sources prod conj(phi_targets)] = Per(G block), the closed
    # form verify_moment_formula reads; the sampled moments agree with it
    n = 40_000
    phi = oracles.sample_complex_fields(two_point_kernel, n, 102)
    a, b = phi[:, 0], phi[:, 1]
    assert np.mean(a * a.conj()) == pytest.approx(2 / 3, abs=0.02)
    assert np.mean(a * b.conj()) == pytest.approx(1 / 3, abs=0.02)
    # permanent of the full 2x2 block; its noise is about 0.006 at this size
    assert np.mean(a * b * (a * b).conj()) == pytest.approx(5 / 9, abs=0.05)
    # unbalanced products have zero mean
    assert abs(np.mean(a)) < 0.02
    hist = network_histogram(two_point_kernel, 20_000, 65)
    # E N_ab N_ba = C_ab C_ba Per(G), the permanent of the full 2x2 block
    rep = verify_moment_formula(two_point_kernel, [("a", "b"), ("b", "a")], [], hist)
    assert rep.lines[0].rhs == pytest.approx(5 / 9)
    # the empty product has mean one, the permanent of the empty block
    assert verify_moment_formula(two_point_kernel, [], [], hist).lines[0].rhs == 1.0


def test_ks_two_sample():
    a = np.arange(100, dtype=float)
    assert ks_two_sample(a, a) == 0.0
    assert ks_two_sample(a, a + 1000.0) == 1.0
    rng = np.random.default_rng(5)
    d = ks_two_sample(rng.standard_normal(5000), rng.standard_normal(5000))
    assert d < 0.05


def test_ks_two_sample_empty_is_typed():
    for a, b in (([], [1.0]), ([1.0], np.zeros(0)), ([], [])):
        with pytest.raises(BadReplicaCount) as info:
            ks_two_sample(a, b)
        assert isinstance(info.value, LoopSoupError)


def test_occupation_samples_mean(two_point_kernel):
    occ = occupation_samples(two_point_kernel, 1.0, 4000, 55)
    mean = occ.mean(axis=0)
    se = occ.std(axis=0) / np.sqrt(len(occ))
    # E occupation = alpha * diag(G)
    target = np.diag(two_point_kernel.G)
    assert np.all(np.abs(mean - target) < 5 * se)


def test_chunked_field_rows_match_one_draw(triangle_kernel):
    # the isomorphism's rows, drawn in chunks of BLOCK, carry the bits of
    # the one-draw samplers over full and partial chunks
    count = 2 * BLOCK + 300
    half_sq = 0.5 * oracles.sample_real_fields(triangle_kernel, count, 9) ** 2
    abs_sq = np.abs(oracles.sample_complex_fields(triangle_kernel, count, 10)) ** 2
    assert _half_sq_rows(triangle_kernel, count, 9).tobytes() == half_sq.T.tobytes()
    assert _abs_sq_rows(triangle_kernel, count, 10).tobytes() == abs_sq.T.tobytes()


MEMORY_REPLICAS = 20_000


@pytest.mark.parametrize("check", [verify.check_isomorphism, verify.check_ray_knight],
                         ids=["isomorphism", "ray_knight"])
def test_field_checks_hold_each_sample_once(check):
    # peak traced bytes in (R x 3) float64 arrays, the triangle and path3
    # having three vertices: two samples, a block and a KS line's temporaries
    # fit; a transposed copy of every sample, or blocks kept through the KS
    # lines, do not
    check(10, 1)  # a first call's imports and caches are not the check's arrays
    tracemalloc.start()
    try:
        check(MEMORY_REPLICAS, verify.DEFAULT_SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (MEMORY_REPLICAS * 3 * 8) <= 4.5


def test_ks_two_sample_takes_its_gap_in_place():
    # peak traced bytes in R-long float64 rows: the two sorted copies, the run
    # ends, a searchsorted row and its CDF fit; a gap row and its absolute
    # value taken as two more copies do not
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, MEMORY_REPLICAS))
    ks_two_sample(a[:10], b[:10])
    tracemalloc.start()
    try:
        ks_two_sample(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (MEMORY_REPLICAS * 8) <= 5.5


def test_isomorphism_report_structure(triangle_kernel):
    rep = verify_isomorphism(triangle_kernel, 1500, 60)
    # two comparisons, each: 3 vertices x 4 moments + 3 pairwise joints
    assert len(rep.lines) == 30
    assert all(np.isfinite(line.z) for line in rep.lines)
    assert rep.meta["replicas"] == 1500


def test_isomorphism_single_vertex(single_vertex_kernel):
    rep = verify_isomorphism(single_vertex_kernel, 100_000, 61)
    assert rep.passed
    ks_lines = [l for l in rep.lines if "KS" in l.statistic]
    assert len(ks_lines) == 1 and ks_lines[0].lhs < 0.01


def test_ray_knight(path3_kernel):
    rep = ray_knight_check(path3_kernel, "a", 1.0, 20_000, 62)
    assert rep.passed
    # identity is checked away from the stopping vertex
    stats = " ".join(line.statistic for line in rep.lines)
    assert "b" in stats and "c" in stats


def test_excursion_field_is_one_occupation_row(path3_kernel):
    row = sample_excursion_field(path3_kernel, "a", 1.5, np.random.default_rng(4))
    block, _ = _excursion_block(path3_kernel, 0, 1.5, 1, np.random.default_rng(4))
    assert row.shape == (3,)
    assert row[0] == 1.5
    assert np.array_equal(row, block[0])


def test_ray_knight_bad_support(path3_kernel, two_point_kernel):
    with pytest.raises(BadSupport):
        ray_knight_check(path3_kernel, "b", 1.0, 10, 0)
    with pytest.raises(BadSupport):
        ray_knight_check(two_point_kernel, "a", 1.0, 10, 0)


def test_ray_knight_nonpositive_level_is_typed(path3_kernel):
    for rho in (0.0, -1.0):
        with pytest.raises(BadStoppingLevel) as info:
            ray_knight_check(path3_kernel, "a", rho, 10, 0)
        assert isinstance(info.value, BadSamplerInput)
        assert isinstance(info.value, LoopSoupError)
        assert isinstance(info.value, ValueError)


def test_ray_knight_non_finite_or_huge_level_is_typed(path3_kernel, monkeypatch):
    # a level that is not a finite number, or one whose block would walk more
    # than DRAW_CAP excursions on average, is refused before drawing
    def no_draw(*args, **kwargs):
        raise AssertionError("replicas drawn for a refused stopping level")

    monkeypatch.setattr(fields, "replica_map", no_draw)
    for rho in (float("nan"), float("inf"), -float("inf"), 1e300, 2.0**40, "1"):
        with pytest.raises(BadStoppingLevel) as info:
            ray_knight_check(path3_kernel, "a", rho, 10, 0)
        assert isinstance(info.value, BadSamplerInput)


def test_field_samples_take_any_integer_seed(two_point_kernel):
    for rows in (_half_sq_rows, _abs_sq_rows):
        assert np.array_equal(rows(two_point_kernel, 5, -3),
                              rows(two_point_kernel, 5, 2**64 - 3))
        for seed in ("3", True):
            with pytest.raises(BadSeed):
                rows(two_point_kernel, 5, seed)


def test_moment_formula(two_point_kernel):
    hist = network_histogram(two_point_kernel, 20_000, 63)
    rep = verify_moment_formula(two_point_kernel, [("a", "b")], ["a"], hist)
    assert rep.passed
    with pytest.raises(DuplicateIndex):
        verify_moment_formula(two_point_kernel, [("a", "b"), ("a", "b")], [], hist)
    with pytest.raises(DuplicateIndex):
        verify_moment_formula(two_point_kernel, [], ["a", "a"], hist)


def test_moment_formula_closed_forms(two_point_kernel):
    # E N_ab = C_ab Per(G_ab) = 1/3 and E (N_a + 1) = lam_a G_aa = 4/3
    rep = verify_moment_formula(two_point_kernel, [("a", "b")], [],
                                network_histogram(two_point_kernel, 20_000, 64))
    edge_line = rep.lines[0]
    assert edge_line.rhs == pytest.approx(1 / 3)
    hist = network_histogram(two_point_kernel, 20_000, 65)
    rep2 = verify_moment_formula(two_point_kernel, [], ["a"], hist)
    assert rep2.lines[0].rhs == pytest.approx(4 / 3)


def test_det_identity(two_point_kernel):
    hist = network_histogram(two_point_kernel, 20_000, 66)
    rep = verify_det_identity(two_point_kernel, two_point_kernel.lam, hist)
    assert rep.passed
    # target: det(M_chi - C) * Per(G) = 3 * 5/9 at chi = lam
    assert rep.lines[0].rhs == pytest.approx(5 / 3)
    with pytest.raises(BadChi):
        verify_det_identity(two_point_kernel, [1.0, 2.0, 3.0], hist)
    with pytest.raises(BadChi):
        verify_det_identity(two_point_kernel, 0.5 * two_point_kernel.lam, hist)
    for bad in (np.nan, np.inf):  # nan failed the gate, inf passed it
        with pytest.raises(BadChi):
            verify_det_identity(two_point_kernel, [bad, 1.0], hist)
