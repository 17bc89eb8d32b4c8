"""Gaussian fields, the occupation isomorphism against its exact laws, the
Ray-Knight identity, and the moment verifiers."""

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import oracles
from loopsoup import (
    BLOCK,
    BadChi,
    BadGraph,
    BadReplicaCount,
    BadSamplerInput,
    BadSeed,
    BadStoppingLevel,
    BadSupport,
    DuplicateIndex,
    LoopSoupError,
    network_histogram,
    occupation_samples,
    ray_knight_check,
    sample_excursion_field,
    verify_det_identity,
    verify_isomorphism,
    verify_moment_formula,
)
from loopsoup import alpha_permanent, fields, verify
from loopsoup.fields import (
    _erf,
    _excursion_block,
    _ks_distance,
    _shifted_half_sq_cdf,
    _shifted_half_sq_moment,
)


def test_real_field_covariance(two_point_kernel):
    n = 40_000
    samples = oracles.sample_real_fields(two_point_kernel, n, 100)
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


def _lines(report) -> list:
    return [(line.statistic, line.lhs, line.rhs, line.stderr) for line in report.lines]


def test_field_determinism(two_point_kernel, path3_kernel):
    # the field checks draw from their seed's streams alone
    for run in (lambda: verify_isomorphism(two_point_kernel, 3, 7),
                lambda: ray_knight_check(path3_kernel, "a", 1.0, 3, 7)):
        assert _lines(run()) == _lines(run())


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


def test_ks_distance_empty_is_typed():
    for sample in ([], np.zeros(0)):
        with pytest.raises(BadReplicaCount) as info:
            _ks_distance(sample, lambda t: t)
        assert isinstance(info.value, LoopSoupError)


def test_ks_distance_against_exact_laws():
    # half a squared standard normal has CDF erf(sqrt(t)): the one-vertex
    # occupation law at alpha 1/2 when G = 1; the check's erf, taken BLOCK
    # entries at a time, against math.erf one entry at a time
    half_sq = 0.5 * np.random.default_rng(5).standard_normal(2 * BLOCK + 300) ** 2

    def law(t):
        return np.array([math.erf(math.sqrt(v)) for v in t])

    d = _ks_distance(half_sq, lambda t: _erf(np.sqrt(t)))
    assert d == oracles.ks_one_sample(half_sq, law)
    assert d < 0.02 and _ks_distance(4.0 * half_sq, law) > 0.2
    assert _ks_distance(np.arange(1.0, 101.0), np.zeros_like) == 1.0


def test_erf_is_total_on_empty_input():
    for out in (_erf(np.zeros(0)), _shifted_half_sq_cdf(1.0, 0.5, np.zeros(0))):
        assert out.shape == (0,) and out.dtype == float


def _full_ks(sample, cdf) -> float:
    # the distance with cdf taken at every sorted entry
    n = len(sample)
    f = cdf(np.sort(sample))
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - f), np.max(f - steps[:-1])))


def _half_sq_law(t):
    return _erf(np.sqrt(t))


def _counting(cdf, seen: list):
    def law(t):
        seen.append(len(t))
        return cdf(t)
    return law


def test_pruned_ks_distance_is_the_full_pass():
    # cdf is taken only where the supremum can lie, and every gap skipped is
    # at most the maximum: the same float as the full pass and the oracle
    rng = np.random.default_rng(11)
    half_sq = 0.5 * rng.standard_normal(1000) ** 2
    samples = {
        "one": np.array([0.3]),
        "under a stride": rng.random(17),
        **{f"n={n}": rng.random(n) for n in (31, 32, 33, 63, 64, 65)},
        "ties": np.round(rng.random(500), 1),
        "constant": np.full(100, 0.25),
        "far": rng.random(1000) + 0.9,
        "plateaus": rng.uniform(-1.0, 2.0, 1000),
    }
    laws = {"uniform": lambda t: np.clip(t, 0.0, 1.0),
            "steep": lambda t: np.clip(4.0 * t - 1.0, 0.0, 1.0),
            "logistic": lambda t: 1.0 / (1.0 + np.exp(-t))}
    for name, sample in samples.items():
        for law_name, law in laws.items():
            assert _ks_distance(sample, law) == _full_ks(sample, law) \
                == oracles.ks_one_sample(sample, law), (name, law_name)
    for sample in (half_sq, 4.0 * half_sq):
        assert _ks_distance(sample, _half_sq_law) == _full_ks(sample, _half_sq_law) \
            == oracles.ks_one_sample(sample, _half_sq_law)


def test_pruned_ks_distance_reads_few_entries_of_a_null_sample():
    replicas = 100_000
    sample = 0.5 * np.random.default_rng(12).standard_normal(replicas) ** 2
    seen = []
    assert _ks_distance(sample, _counting(_half_sq_law, seen)) == _full_ks(sample, _half_sq_law)
    assert sum(seen) <= replicas // 8


def test_pruned_ks_distance_on_the_battery_samples(single_vertex_kernel, monkeypatch):
    # check 5's single-vertex line (its own draw, on stream DEFAULT_SEED + 17)
    # and check 6's two lines at 20k; the anchors alone are R/32 entries, and
    # the pinned seed's lines read 7-19%
    replicas = 20_000
    lines = []
    original = fields._ks_distance

    def spy(sample, cdf):
        seen = []
        d = original(sample, _counting(cdf, seen))
        lines.append((d, _full_ks(sample, cdf), oracles.ks_one_sample(sample, cdf), sum(seen)))
        return d

    monkeypatch.setattr(fields, "_ks_distance", spy)
    verify_isomorphism(single_vertex_kernel, replicas, verify.DEFAULT_SEED + 17)
    verify.check_ray_knight(replicas, verify.DEFAULT_SEED)
    assert len(lines) == 3
    for d, full, oracle, seen in lines:
        assert d == full == oracle
        assert seen <= replicas // 4


def test_ks_distance_of_a_sample_with_nan_is_nan():
    # NaN sorts last, and the last sorted entry is always read
    for at in (0, 40, 999):
        sample = np.random.default_rng(13).random(1000)
        sample[at] = np.nan
        assert math.isnan(_ks_distance(sample, _half_sq_law))
        assert math.isnan(_full_ks(sample, _half_sq_law))


def test_occupation_samples_mean(two_point_kernel):
    occ = occupation_samples(two_point_kernel, 1.0, 4000, 55)
    mean = occ.mean(axis=0)
    se = occ.std(axis=0) / np.sqrt(len(occ))
    # E occupation = alpha * diag(G)
    target = np.diag(two_point_kernel.G)
    assert np.all(np.abs(mean - target) < 5 * se)


MEMORY_REPLICAS = 20_000


def _peak_per_sample(run, replicas=MEMORY_REPLICAS) -> float:
    """Peak traced bytes of run(replicas, DEFAULT_SEED) in (replicas x 3)
    float64 arrays, after a first small call has paid for the imports and
    caches, which are not the run's arrays."""
    run(10, 1)
    tracemalloc.start()
    try:
        run(replicas, verify.DEFAULT_SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (replicas * 3 * 8)


@pytest.mark.parametrize("check", [
    lambda replicas, seed: verify_isomorphism(verify.build_kernel(verify.triangle_graph()),
                                              replicas, seed),
    verify.check_ray_knight], ids=["isomorphism", "ray_knight"])
def test_field_checks_hold_each_sample_once(check):
    # the triangle and path3 have three vertices: a sample, the blocks it is
    # built from and a KS line's temporaries fit; a transposed copy of every
    # sample, or blocks kept through the KS lines, do not
    assert _peak_per_sample(check) <= 4.5


def test_ray_knight_writes_its_blocks_in_place():
    # at the battery's 100 000 replicas the sample outweighs a block's
    # temporaries: blocks written into one (n, R) array peak near 1.7
    # samples; joining the blocks after the last draw would hold it twice
    assert _peak_per_sample(verify.check_ray_knight, 100_000) <= 1.8


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_battery_field_path_holds_each_sample_once(alpha):
    # check 5's triangle lines as run_all reads them: the fields of a
    # histogram drawn with holding times, reduced and dropped
    kernel = verify.build_kernel(verify.triangle_graph())

    def run(replicas, seed):
        hist = network_histogram(kernel, replicas, seed, "direct", alpha=alpha,
                                 occupation=True)
        fields._isomorphism_lines(kernel, alpha, hist.occupation.T)
        hist.occupation = None

    assert _peak_per_sample(run) <= 4.5


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


def test_ray_knight(path3_kernel, single_vertex_kernel):
    rep = ray_knight_check(path3_kernel, "a", 1.0, 20_000, 62)
    assert rep.passed
    # identity is checked away from the stopping vertex
    stats = " ".join(line.statistic for line in rep.lines)
    assert "b" in stats and "c" in stats
    # a lone vertex has no escape mass: no excursions, nothing but the x0 line
    alone = ray_knight_check(single_vertex_kernel, "a", 1.0, 10, 62)
    assert [(line.statistic, line.lhs) for line in alone.lines] == [("x0[a] constant", 0.0)]
    assert alone.meta["sampler_diagnostics"]["excursions"] == 0


def test_alpha_permanent_moments():
    # E[L_x^r] at intensity alpha is Per_alpha of the constant r x r block:
    # G_xx^r alpha (alpha + 1) ... (alpha + r - 1)
    for g in (0.5, 2 / 3, 1.7):
        for alpha in (0.5, 1.0, 2.0):
            for r in range(1, 6):
                rising = math.prod(alpha + i for i in range(r))
                assert alpha_permanent(np.full((r, r), g), alpha) == \
                    pytest.approx(g**r * rising, rel=1e-12)
    # a joint: Per_alpha of the 2 x 2 block, alpha^2 G_xx G_yy + alpha G_xy G_yx
    block = np.array([[2 / 3, 1 / 3], [0.25, 0.5]])
    for alpha in (0.5, 1.0, 2.0):
        assert alpha_permanent(block, alpha) == \
            pytest.approx(alpha**2 / 3 + alpha / 12, rel=1e-12)


def test_isomorphism_targets_are_alpha_permanents(triangle_kernel):
    g = triangle_kernel.G
    rhs = {line.statistic: line.rhs for line in verify_isomorphism(triangle_kernel, 10, 1).lines}
    for label, alpha in (("half_vs_half_sq", 0.5), ("one_vs_abs_sq", 1.0)):
        for r in range(1, 5):
            assert rhs[f"{label}[b]^moment{r}"] == \
                pytest.approx(g[1, 1] ** r * math.prod(alpha + i for i in range(r)))
        assert rhs[f"{label}[a,c] joint"] == \
            pytest.approx(alpha**2 * g[0, 0] * g[2, 2] + alpha * g[0, 2] ** 2)


def test_ray_knight_moments_are_gaussian_sums(path3_kernel):
    # E[((phi + c)^2 / 2)^m] for phi ~ N(0, s^2) by Gauss-Hermite quadrature,
    # exact for these polynomials of degree 2m <= 6
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    weights = weights / math.sqrt(2.0 * math.pi)
    for shift in (0.0, 1.0, math.sqrt(2.0)):
        for var in (0.5, 1.0, 2.0):
            for m in (1, 2, 3):
                quad = float(np.sum(weights * ((math.sqrt(var) * nodes + shift) ** 2 / 2) ** m))
                assert _shifted_half_sq_moment(m, shift, var) == pytest.approx(quad, rel=1e-12)
    # the check's means on path3 from a at rho = 1: (G_D[x, x] + 2 rho) / 2,
    # with G_D = [[1, 1], [1, 2]] on (b, c)
    rhs = {line.statistic: line.rhs
           for line in ray_knight_check(path3_kernel, "a", 1.0, 10, 1).lines}
    assert rhs["moment1[b]"] == pytest.approx(1.5) and rhs["moment1[c]"] == pytest.approx(2.0)


def test_ray_knight_ks_reads_the_shifted_field_law(path3_kernel, monkeypatch):
    laws = []
    original = fields._ks_distance

    def spy(sample, cdf):
        laws.append(cdf)
        return original(sample, cdf)

    monkeypatch.setattr(fields, "_ks_distance", spy)
    ray_knight_check(path3_kernel, "a", 1.0, 10, 1)
    t = np.array([0.0, 0.1, 0.5, 1.0, 2.5, 7.0])
    phi = NormalDist().cdf
    c = math.sqrt(2.0)
    for cdf, s in zip(laws, (1.0, math.sqrt(2.0)), strict=True):  # G_D[b, b], G_D[c, c]
        want = [phi((math.sqrt(2 * v) - c) / s) - phi((-math.sqrt(2 * v) - c) / s) for v in t]
        assert cdf(t) == pytest.approx(want, abs=1e-12)


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
    # a level that is not a finite number (a bool is none), or one whose block
    # would walk more than DRAW_CAP excursions on average, is refused before
    # drawing
    def no_draw(*args, **kwargs):
        raise AssertionError("replicas drawn for a refused stopping level")

    monkeypatch.setattr(fields, "replica_blocks", no_draw)
    for rho in (float("nan"), float("inf"), -float("inf"), 1e300, 2.0**40, 10**400, "1", True,
                np.True_):
        with pytest.raises(BadStoppingLevel) as info:
            ray_knight_check(path3_kernel, "a", rho, 10, 0)
        assert isinstance(info.value, BadSamplerInput)


def test_field_samples_take_any_integer_seed(two_point_kernel, path3_kernel):
    # a negative seed is taken modulo 2^64; anything but an integer is refused
    for run in (lambda seed: verify_isomorphism(two_point_kernel, 5, seed),
                lambda seed: ray_knight_check(path3_kernel, "a", 1.0, 5, seed)):
        assert _lines(run(-3)) == _lines(run(2**64 - 3))
        for seed in ("3", True):
            with pytest.raises(BadSeed):
                run(seed)


def _foreign_histograms(two_point_kernel, triangle_kernel, path3_kernel) -> list:
    """(kernel, histogram drawn on another graph): two-point networks read on
    the triangle, and triangle networks, whose a-c crossings are no edge of
    the path, read on the path."""
    return [(triangle_kernel, network_histogram(two_point_kernel, 2000, 63, "wilson")),
            (path3_kernel, network_histogram(triangle_kernel, 2000, 63))]


def test_moment_formula(two_point_kernel, triangle_kernel, path3_kernel):
    hist = network_histogram(two_point_kernel, 20_000, 63)
    rep = verify_moment_formula(two_point_kernel, [("a", "b")], ["a"], hist)
    assert rep.passed
    with pytest.raises(DuplicateIndex):
        verify_moment_formula(two_point_kernel, [("a", "b"), ("a", "b")], [], hist)
    with pytest.raises(DuplicateIndex):
        verify_moment_formula(two_point_kernel, [], ["a", "a"], hist)
    # a pair that no edge joins has no crossing count to read
    with pytest.raises(BadGraph, match="a:a is not an edge"):
        verify_moment_formula(two_point_kernel, [("a", "b"), ("a", "a")], [], hist)
    # a histogram of another graph's networks; the two-point one read on the
    # triangle once gave a silently wrong z-line
    foreign = _foreign_histograms(two_point_kernel, triangle_kernel, path3_kernel)
    for (kernel, other), match in zip(foreign, ("must be 3x3", "off the edge set")):
        with pytest.raises(BadGraph, match=match):
            verify_moment_formula(kernel, [("a", "b")], ["a"], other)


def test_moment_formula_closed_forms(two_point_kernel):
    # E N_ab = C_ab Per(G_ab) = 1/3 and E (N_a + 1) = lam_a G_aa = 4/3
    rep = verify_moment_formula(two_point_kernel, [("a", "b")], [],
                                network_histogram(two_point_kernel, 20_000, 64))
    edge_line = rep.lines[0]
    assert edge_line.rhs == pytest.approx(1 / 3)
    hist = network_histogram(two_point_kernel, 20_000, 65)
    rep2 = verify_moment_formula(two_point_kernel, [], ["a"], hist)
    assert rep2.lines[0].rhs == pytest.approx(4 / 3)


def test_det_identity(two_point_kernel, triangle_kernel, path3_kernel):
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
    for bad in ("abc", ["a", 1.0], {}):  # not left to numpy's float conversion
        with pytest.raises(BadChi):
            verify_det_identity(two_point_kernel, bad, hist)
    # a histogram of another graph's networks; the two-point one read on the
    # triangle once raised numpy's broadcast ValueError
    foreign = _foreign_histograms(two_point_kernel, triangle_kernel, path3_kernel)
    for (kernel, other), match in zip(foreign, ("must be 3x3", "off the edge set")):
        with pytest.raises(BadGraph, match=match):
            verify_det_identity(kernel, kernel.lam, other)
