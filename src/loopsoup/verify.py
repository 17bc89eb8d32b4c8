"""Verification battery: every advertised identity checked end to end.

The module owns the small reference chains and one check function per
guarantee.  run_all executes the battery in a fixed order.  It draws the
seven shared Monte Carlo ensembles (network histograms) once and hands them
to the checks that read them; those checks only reduce what they are given.
The triangle's histograms at alpha 1/2 and 1 are drawn with their
occupation fields, which check 5 reads; check 5 draws its single-vertex
samples and check 6 its excursions, and the exact checks draw no Monte
Carlo samples.  Each report that reads a sample names the master seed of
every stream it read in meta["streams"]; the seven checks that read a
soup.Histogram build their reports with _sampled_report, which reads it off
the histograms, and read its arrays of networks and replica counts, checks
4, 7 and 8 through fields._histogram_stat.  The settings that run_all does
not vary are module constants, recorded in each report's meta.  Checks
return TestReports; nothing here raises on a statistical miss, only on
broken preconditions.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import BadSamplerInput, BudgetExceeded
from .eulerian import (
    ModifierMatrix,
    _circulation_layers,
    _convolution_report,
    _count_matrices,
    _directed_edges,
    _enumerate_layers,
    _simple_cycles,
    best_tour_count,
    exact_network_prob_alpha,
    exact_network_prob_alpha1,
    generating_function,
)
from .fields import (
    _histogram_stat,
    _isomorphism_lines,
    _isomorphism_report,
    ray_knight_check,
    verify_det_identity,
    verify_isomorphism,
    verify_moment_formula,
)
from .graphs import WeightedGraph, build_kernel
from .homology import _class_coords, _volume_routes, cycle_basis, homology_distribution
from .network import Network
from .reports import CONVENTIONS, DEFAULT_REPLICAS, DEFAULT_SEED, TestReport
from .rng import SCHEME, _check_sample, seeded_rng, stream_seed
from .soup import Histogram, _key_counts, network_histogram

ROUTES_MAX_TOTAL = 6  # check 3: largest network size on which the two routes are compared
N_MODIFIERS = 5  # check 4: random Hermitian modifiers per intensity
RAY_KNIGHT_RHO = 1.0  # check 6: local time at which the chain is stopped
TOUR_CASES = 24  # check 9: random balanced networks
DELTA_TWO_POINT = 1e-6  # check 10: mass budget of the two-point enumeration
DELTA_TRIANGLE = 1e-3  # check 10: mass budget of the triangle enumeration
JACOBIAN_CASES = 20  # check 11: random conductance graphs
HOMOLOGY_GRID = 64  # check 12: grid points per cycle of the Fourier inversion


# ---------------------------------------------------------------- reference chains

def two_point_graph() -> WeightedGraph:
    """Two vertices, one unit edge, unit killing at both ends."""
    return WeightedGraph.build(("a", "b"), (("a", "b", 1.0),), {"a": 1.0, "b": 1.0})


def triangle_graph() -> WeightedGraph:
    """Complete graph on three vertices, unit conductances, unit killing."""
    return WeightedGraph.build(
        ("a", "b", "c"),
        (("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0)),
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )


def path3_graph() -> WeightedGraph:
    """Three vertices in a path, killing only at the end named a."""
    return WeightedGraph.build(
        ("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)), {"a": 1.0}
    )


def single_vertex_graph() -> WeightedGraph:
    return WeightedGraph.build(("a",), (), {"a": 1.0})


def complete4_graph() -> WeightedGraph:
    verts = ("a", "b", "c", "d")
    edges = [(u, v, 1.0) for i, u in enumerate(verts) for v in verts[i + 1:]]
    return WeightedGraph.build(verts, edges, {"a": 1.0})


# ---------------------------------------------------------------- distribution helpers

def _tv(empirical: np.ndarray, law: np.ndarray) -> float:
    """Total variation between two pmfs on the same cells; mass the law puts
    outside them is counted in full."""
    return 0.5 * (float(np.abs(empirical - law).sum()) + max(0.0, 1.0 - float(law.sum())))


def geometric_pmf(n: int) -> float:
    """The two-point chain's a -> b count law at intensity 1: geometric with
    ratio P_ab P_ba = 1/4."""
    return 0.75 * 0.25**n


def nb_pmf(n: int, alpha: float) -> float:
    """The two-point chain's a -> b count law at intensity alpha: the series
    coefficients of (3/4)^alpha (1 - z/4)^(-alpha)."""
    return math.exp(
        math.lgamma(alpha + n)
        - math.lgamma(alpha)
        - math.lgamma(n + 1)
        + alpha * math.log1p(-0.25)
        + n * math.log(0.25)
    )


# ---------------------------------------------------------------- histogram helpers

def _round_trip_tv(histogram: Histogram, pmf) -> float:
    """TV between the law of the a -> b count of a two-point histogram and
    pmf, whose mass past the largest count seen is counted in full."""
    marginal = np.bincount(histogram.rows[:, 0, 1], weights=histogram.counts)
    return _tv(marginal / marginal.sum(), np.array([pmf(n) for n in range(len(marginal))]))


def _append_lines(report: TestReport, prefix: str, lines) -> None:
    """Append a sub-report's lines to report, each statistic led by prefix."""
    for line in lines:
        line.statistic = f"{prefix} {line.statistic}"
        report.lines.append(line)


def _sampled_report(name: str, check: int, histograms: dict, **meta) -> TestReport:
    """An empty report on the histograms, keyed by label.  Its meta holds the
    check number, the given entries, the fewest replicas of any histogram,
    the stream scheme, and each histogram's master seed and sampler
    diagnostics."""
    report = TestReport(name=name, conventions=dict(CONVENTIONS))
    report.meta.update({
        "check": check, **meta,
        "replicas": min(h.diagnostics["replicas"] for h in histograms.values()),
        "rng": dict(SCHEME),
        "streams": {label: h.seed for label, h in histograms.items()},
        "sampler_diagnostics": {label: dict(h.diagnostics) for label, h in histograms.items()},
    })
    return report


def _all_balanced_up_to(graph: WeightedGraph, max_total: int) -> list:
    edges = _directed_edges(graph)
    nets = [Network.zeros(graph)]
    for _, rows in zip(range(max_total), _circulation_layers(graph, edges)):
        nets.extend(Network.stack(graph, _count_matrices(graph.n, edges, rows)))
    return nets


# ---------------------------------------------------------------- check functions

def check_geometric_law(histogram: Histogram, hist_seconds: float) -> TestReport:
    """Round-trip count on the two-point chain under the cycle-popping
    sampler follows the ratio-1/4 geometric law."""
    t0 = time.perf_counter()
    report = _sampled_report("geometric-law", 1, {"wilson": histogram},
                             graph="two-point", sampler="wilson")
    report.add_bound("TV(empirical, geometric)", _round_trip_tv(histogram, geometric_pmf), 0.02)
    report.add_bound("runtime_seconds", hist_seconds + (time.perf_counter() - t0), 60.0)
    return report


def check_negative_binomial(histograms: dict[float, Histogram]) -> TestReport:
    """Two-point round-trip count at fractional and doubled intensity;
    histograms maps each intensity to its direct-sampler histogram."""
    report = _sampled_report("negative-binomial", 2,
                             {f"alpha={alpha}": h for alpha, h in histograms.items()},
                             graph="two-point", sampler="direct")
    for alpha, hist in histograms.items():
        report.add_bound(f"TV(empirical, NB) alpha={alpha}",
                         _round_trip_tv(hist, lambda n: nb_pmf(n, alpha)), 0.02)
    return report


def check_alpha_routes_agree() -> TestReport:
    """The general-alpha network law at intensity one, the power recurrence
    over the cycle covers of det(I - P^Z) and the sub-circulations of each
    network, equals the factorial closed form on every balanced network up
    to the size cap."""
    report = TestReport(name="network-law-routes", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 3, "max_total": ROUTES_MAX_TOTAL})
    for label, graph in (("two-point", two_point_graph()), ("triangle", triangle_graph())):
        kernel = build_kernel(graph)
        worst = 0.0
        count = 0
        for net in _all_balanced_up_to(graph, ROUTES_MAX_TOTAL):
            a = exact_network_prob_alpha(kernel, net, 1.0)
            b = exact_network_prob_alpha1(kernel, net)
            worst = max(worst, abs(a - b))
            count += 1
        report.add_bound(f"max |route difference| on {label}", worst, 1e-10,
                         note=f"{count} balanced networks")
    return report


def _random_hermitian_modifier(n: int, rng) -> ModifierMatrix:
    z = np.ones((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            # keep magnitudes off zero so count * log Z stays finite
            mag = 0.05 + 0.95 * rng.random()
            phase = 2.0 * np.pi * rng.random()
            z[i, j] = mag * np.exp(1j * phase)
            z[j, i] = np.conj(z[i, j])
    return ModifierMatrix(z)


def check_generating_function(seed: int, histograms: dict[float, Histogram]) -> TestReport:
    """Monte Carlo mean of the edge-count pairing against the determinant
    ratio, on the triangle, for random Hermitian modifiers; histograms maps
    the intensities 0.5, 1 and 2 to their direct-sampler histograms."""
    kernel = build_kernel(triangle_graph())
    rng = seeded_rng(seed + 30)
    modifiers = [_random_hermitian_modifier(kernel.n, rng) for _ in range(N_MODIFIERS)]
    report = _sampled_report("generating-function", 4,
                             {f"alpha={alpha}": histograms[alpha] for alpha in (0.5, 1.0, 2.0)},
                             graph="triangle", n_modifiers=N_MODIFIERS)
    for alpha in (0.5, 1.0, 2.0):
        hist = histograms[alpha]
        for zi, mod in enumerate(modifiers):
            target = generating_function(kernel, mod, alpha)
            vals = np.exp(np.einsum("kij,ij->k", hist.rows, np.log(mod.entries + 0j)))
            mean, se, _ = _histogram_stat(hist, vals.real)
            report.add_z(f"Re E[prod Z^N] alpha={alpha} Z#{zi}", mean, target.real, se)
            mean, se, _ = _histogram_stat(hist, vals.imag)
            report.add_z(f"Im E[prod Z^N] alpha={alpha} Z#{zi}", mean, target.imag, se)
    report.meta["streams"]["modifiers"] = seed + 30
    return report


def check_isomorphism(replicas: int, seed: int, triangle: TestReport) -> TestReport:
    """Occupation-field moments on the triangle against their
    alpha-permanents, the laws of the squared free field, and on the single
    killed vertex a KS line against the exact law as well.

    The triangle's samples at 1/2 and 1 are the occupation fields of check
    4's histograms (streams seed + 4 and seed + 3): `triangle` is the
    verify_isomorphism report run_all reduces them to.  The single vertex
    is drawn here, from seed + 17 and seed + 19."""
    seed = stream_seed(seed)
    streams = {"triangle": {"alpha=0.5": seed + 4, "alpha=1": seed + 3},
               "single-vertex": {"alpha=0.5": seed + 17, "alpha=1": seed + 19}}
    single = verify_isomorphism(build_kernel(single_vertex_graph()), replicas, seed + 17)
    report = TestReport(name="field-isomorphism", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 5, "replicas": replicas, "rng": dict(SCHEME),
                        "streams": streams,
                        "sampler_diagnostics": {
                            "triangle": triangle.meta["sampler_diagnostics"],
                            "single-vertex": single.meta["sampler_diagnostics"]}})
    _append_lines(report, "triangle", triangle.lines)
    _append_lines(report, "single-vertex", single.lines)
    return report


def check_ray_knight(replicas: int, seed: int) -> TestReport:
    """Stopped local-time identity on the path with killing at one end; the
    chain starts and stops where the killing sits, so every excursion into
    the rest of the path returns almost surely."""
    kernel = build_kernel(path3_graph())
    report = ray_knight_check(kernel, "a", RAY_KNIGHT_RHO, replicas, seed + 25)
    report.meta.update({"check": 6, "streams": {"left side": seed + 25}})
    return report


def check_moment_formula(histogram: Histogram) -> TestReport:
    """Two-point closed-form moments: single edge, vertex visit, cross pair."""
    kernel = build_kernel(two_point_graph())
    report = _sampled_report("moment-formula", 7, {"wilson": histogram}, graph="two-point")
    cases = [
        ((("a", "b"),), (), 1.0 / 3.0, "E[N_ab]"),
        ((), ("a",), 4.0 / 3.0, "E[N_a + 1]"),
        ((("a", "b"), ("b", "a")), (), 5.0 / 9.0, "E[N_ab N_ba]"),
    ]
    for edges, points, expected, label in cases:
        sub = verify_moment_formula(kernel, edges, points, histogram)
        line = sub.lines[0]
        report.add_bound(f"{label} closed form", abs(line.rhs - expected), 1e-12)
        line.statistic = label + " MC vs closed form"
        report.lines.append(line)
    return report


def check_det_identity(histogram: Histogram) -> TestReport:
    """Random-generator determinant mean on the two-point chain, at the
    duality weights and at their double."""
    kernel = build_kernel(two_point_graph())
    report = _sampled_report("det-identity", 8, {"wilson": histogram}, graph="two-point")
    for scale, expected in ((1.0, 5.0 / 3.0), (2.0, 75.0 / 9.0)):
        sub = verify_det_identity(kernel, scale * kernel.lam, histogram)
        line = sub.lines[0]
        report.add_bound(f"target chi={scale}*lam closed form",
                         abs(line.rhs - expected), 1e-12)
        line.statistic = f"E[det] chi={scale}*lam MC vs closed form"
        report.lines.append(line)
    return report


def brute_force_tour_count(k: Network) -> int:
    """Count rooted tours by exhaustive walk over labeled edge instances.

    Every tour is a maximal walk consuming all instances; balance guarantees
    closure.  Parallel instances of a directed edge are distinguishable,
    matching the rooted count of the arborescence formula.
    """
    counts = k.counts
    n = counts.shape[0]
    support = [x for x in range(n) if counts[x].sum() + counts[:, x].sum() > 0]
    memo: dict = {}

    def ways(x: int, state: tuple) -> int:
        if not any(state):
            return 1
        key = (x, state)
        if key in memo:
            return memo[key]
        total = 0
        base = x * n
        for y in range(n):
            m = state[base + y]
            if m > 0:
                nxt = list(state)
                nxt[base + y] = m - 1
                total += m * ways(y, tuple(nxt))
        memo[key] = total
        return total

    start = tuple(int(v) for v in counts.ravel())
    return sum(ways(x, start) for x in support)


def random_eulerian_network(graph: WeightedGraph, rng) -> Network:
    """Random balanced network with connected support and 2 to 8 crossings:
    a chain of simple directed cycles, each overlapping the support built so
    far."""
    edges = _directed_edges(graph)
    cycles = _count_matrices(graph.n, edges, _simple_cycles(graph, edges))
    sizes = cycles.sum(axis=(1, 2))
    visits = cycles.sum(axis=2) > 0  # the vertices of each cycle
    counts = np.zeros((graph.n, graph.n), dtype=np.int64)
    target = int(rng.integers(2, 9))
    while True:
        support = counts.sum(axis=1) > 0
        ok = np.flatnonzero((counts.sum() + sizes <= target)
                            & ((visits & support).any(axis=1) | (not support.any())))
        if not len(ok):
            break
        counts += cycles[ok[int(rng.integers(0, len(ok)))]]
    return Network(graph, counts)


def check_tour_count(seed: int) -> TestReport:
    """Arborescence tour formula against exhaustive enumeration on random
    balanced networks over three reference graphs."""
    rng = seeded_rng(seed + 31)
    graphs = [two_point_graph(), triangle_graph(), complete4_graph()]
    report = TestReport(name="tour-count", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 9, "cases": TOUR_CASES})
    worst = 0
    for case in range(TOUR_CASES):
        net = random_eulerian_network(graphs[case % len(graphs)], rng)
        worst = max(worst, abs(best_tour_count(net) - brute_force_tour_count(net)))
    report.add_bound("max |formula - enumeration|", float(worst), 0.0,
                     note=f"{TOUR_CASES} random balanced networks, sizes <= 8")
    return report


def check_mu_measure() -> TestReport:
    """Loop-measure mass by network enumeration against the determinant,
    plus exact reconstruction of the intensity-1 law from the measure.

    An enumeration that misses networks never reaches its mass budget; that
    is reported as a failed line, not raised.
    """
    report = TestReport(name="mu-measure", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 10, "delta_two_point": DELTA_TWO_POINT,
                        "delta_triangle": DELTA_TRIANGLE})
    try:
        _mu_measure_lines(report)
    except BudgetExceeded as exc:
        report.add_bound("enumerations past the |k| cap", 1.0, 0.0, note=str(exc))
    return report


def _mu_measure_lines(report: TestReport) -> None:
    """Every line of check 10 from one enumeration per graph."""
    kernel2 = build_kernel(two_point_graph())
    layers2 = _enumerate_layers(kernel2, DELTA_TWO_POINT)
    mu2 = [x for _, _, _, mu in layers2[1:] for x in mu.tolist()]
    report.add_bound("two-point |sum mu - mass|", abs(sum(mu2) - kernel2.mu_mass), 1e-6,
                     note=f"{len(mu2) + 1} networks enumerated")

    kernel3 = build_kernel(triangle_graph())
    layers3 = _enumerate_layers(kernel3, DELTA_TRIANGLE)
    # each nonempty layer's mu summed in row order, the order of its networks
    layer_mu = {m: sum(mu.tolist()) for m, (_, _, _, mu) in enumerate(layers3)
                if m and len(mu)}
    eigs = kernel3.sym_eigs
    trace_terms = {m: float(np.sum(eigs**m)) / m for m in layer_mu}
    worst_layer = max((abs(s - trace_terms[m]) for m, s in layer_mu.items()), default=0.0)
    report.add_bound("triangle max |layer mu sum - trace term|", worst_layer, 1e-12,
                     note=f"layers 1..{len(layers3) - 1}")
    tail = float(np.sum(-np.log1p(-eigs)))
    for term in trace_terms.values():
        tail -= term
    # every enumerated layer is verified against its trace term above, so the
    # analytic continuation of the same series is the honest tail estimate
    mu_sum3 = sum(layer_mu.values()) + tail
    report.add_bound("triangle |sum mu + tail - mass|",
                     abs(mu_sum3 - kernel3.mu_mass), 1e-6,
                     note=f"{sum(len(mu) for *_, mu in layers3)} networks, "
                          f"analytic tail {tail:.3e}")

    for label, kernel, delta, layers in (("two-point", kernel2, DELTA_TWO_POINT, layers2),
                                         ("triangle", kernel3, DELTA_TRIANGLE, layers3)):
        _append_lines(report, label, _convolution_report(kernel, layers, delta).lines)


def random_connected_graph(rng) -> WeightedGraph:
    """Random tree on 2 to 6 vertices plus up to 4 chords, conductances
    uniform in [0.1, 10), killing at one random vertex."""
    n = int(rng.integers(2, 7))
    verts = tuple(f"v{i}" for i in range(n))
    edge_set = set()
    for i in range(1, n):
        edge_set.add((int(rng.integers(0, i)), i))
    chords = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edge_set]
    rng.shuffle(chords)
    extra = int(rng.integers(0, min(4, len(chords)) + 1))
    edge_set.update(chords[:extra])
    lo, hi = 0.1, 10.0
    edges = [(verts[i], verts[j], float(lo + (hi - lo) * rng.random()))
             for i, j in sorted(edge_set)]
    kill_at = verts[int(rng.integers(0, n))]
    return WeightedGraph.build(verts, edges, {kill_at: float(0.5 + rng.random())})


def check_jacobian_volume(seed: int) -> TestReport:
    """Harmonic-Gram route and tree-weight route to the torus volume on
    random conductance graphs.  The routes are compared here, not in
    jacobian_volume, so a disagreement fails the line instead of raising."""
    rng = seeded_rng(seed + 32)
    report = TestReport(name="jacobian-volume", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 11, "cases": JACOBIAN_CASES})
    worst = 0.0
    degenerate = 0
    for _ in range(JACOBIAN_CASES):
        graph = random_connected_graph(rng)
        vol = _volume_routes(graph)
        if vol.degenerate:
            degenerate += 1
        worst = max(worst, abs(vol.via_intersection - vol.via_trees)
                    / abs(vol.via_trees))
    report.add_bound("max relative route difference", worst, 1e-10,
                     note=f"{JACOBIAN_CASES} graphs, {degenerate} without cycles")
    return report


def check_homology_distribution(histogram: Histogram, hist_seconds: float) -> TestReport:
    """Fourier-inverted winding-number law on the triangle against Monte
    Carlo class frequencies."""
    t0 = time.perf_counter()
    kernel = build_kernel(triangle_graph())
    basis = cycle_basis(kernel.graph)
    law = homology_distribution(kernel, basis, 1.0, HOMOLOGY_GRID)
    # each class at its cell of law.table; those past its window share one
    # more cell, where the law has no mass
    cells = _class_coords(histogram.rows, basis) + (law.grid_m // 2 - 1)
    past = ((cells < 0) | (cells >= law.grid_m - 1)).any(axis=1)
    cells = np.where(past, law.table.size,
                     np.ravel_multi_index(cells.T, law.table.shape, mode="clip"))
    empirical = np.bincount(cells, weights=histogram.counts, minlength=law.table.size + 1)
    report = _sampled_report("homology-law", 12, {"direct": histogram},
                             graph="triangle", grid=HOMOLOGY_GRID)
    report.add_bound("uncaptured window mass", 1.0 - law.captured_mass, 1e-3)
    report.add_bound("max |P(j) - P(-j)|", law.symmetry_defect(), 1e-8)
    report.add_bound("TV(empirical classes, law)",
                     _tv(empirical / empirical.sum(), np.append(law.table.ravel(), 0.0)),
                     0.02)
    report.add_bound("runtime_seconds", hist_seconds + (time.perf_counter() - t0), 120.0)
    return report


def check_cross_sampler(wilson_histogram: Histogram,
                        direct_histogram: Histogram) -> TestReport:
    """Cycle-popping and length-biased samplers induce the same network law."""
    report = _sampled_report("sampler-agreement", 13,
                             {"wilson": wilson_histogram, "direct": direct_histogram},
                             graph="triangle")
    # both histograms' rows grouped by one sort: per network, p_wilson - p_direct
    hists = (wilson_histogram, direct_histogram)
    _, diff = _key_counts(np.concatenate([h.rows for h in hists]), np.concatenate(
        [sign * h.counts / h.counts.sum() for sign, h in zip((1, -1), hists)]))
    report.add_bound("TV(wilson, direct)", 0.5 * float(np.abs(diff).sum()), 0.02)
    return report


# ---------------------------------------------------------------- battery driver

def run_all(replicas: int = DEFAULT_REPLICAS, seed: int = DEFAULT_SEED,
            workers: int = 1) -> list:
    """Run the thirteen checks with shared sample batches; reports in order.
    replicas and seed default to the point where the fixed bounds are
    calibrated, as `loopsoup verify-all` does.  The settings are checked
    before anything is drawn: the seed may be any integer, and a 3-vertex
    sample of `replicas` must fit SAMPLE_CAP.  workers must be 1, as blocks
    are drawn in one process; the keyword goes once the benchmark stops
    passing it."""
    if workers != 1:
        raise BadSamplerInput(
            f"blocks are drawn in one process; workers must be 1, got {workers!r}")
    seed = stream_seed(seed)
    kernel2 = build_kernel(two_point_graph())
    kernel3 = build_kernel(triangle_graph())
    _check_sample(kernel3.n, replicas)

    t0 = time.perf_counter()
    hist2_wilson = network_histogram(kernel2, replicas, seed, "wilson")
    t_hist2_wilson = time.perf_counter() - t0
    hist2_direct = {
        alpha: network_histogram(kernel2, replicas, seed + off, "direct", alpha=alpha)
        for off, alpha in ((1, 0.5), (2, 2.0))
    }
    # check 5 reads the triangle's occupation fields at 1/2 and 1 off the
    # draws of check 4's histograms; each sample is reduced to its lines and
    # dropped before the next is drawn
    field_lines: dict = {}
    field_diagnostics: dict = {}
    hist3_direct: dict = {}
    hist3_seconds: dict = {}  # check 12 reads the alpha-1 histogram's
    for off, alpha in ((3, 1.0), (4, 0.5), (5, 2.0)):
        with_fields = alpha != 2.0
        t0 = time.perf_counter()
        hist3_direct[alpha] = hist = network_histogram(
            kernel3, replicas, seed + off, "direct", alpha=alpha, occupation=with_fields)
        hist3_seconds[alpha] = time.perf_counter() - t0
        if with_fields:
            field_lines[alpha] = _isomorphism_lines(kernel3, alpha, hist.occupation.T)
            field_diagnostics[alpha] = dict(hist.diagnostics)
            hist.occupation = None
    hist3_wilson = network_histogram(kernel3, replicas, seed + 6, "wilson")
    triangle_fields = _isomorphism_report(replicas, field_lines, field_diagnostics)

    return [
        check_geometric_law(hist2_wilson, t_hist2_wilson),
        check_negative_binomial(hist2_direct),
        check_alpha_routes_agree(),
        check_generating_function(seed, hist3_direct),
        check_isomorphism(replicas, seed, triangle_fields),
        check_ray_knight(replicas, seed),
        check_moment_formula(hist2_wilson),
        check_det_identity(hist2_wilson),
        check_tour_count(seed),
        check_mu_measure(),
        check_jacobian_volume(seed),
        check_homology_distribution(hist3_direct[1.0], hist3_seconds[1.0]),
        check_cross_sampler(hist3_wilson, hist3_direct[1.0]),
    ]
