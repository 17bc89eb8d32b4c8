"""The distributional identities tying loop ensembles to Gaussian fields
with the chain's Green covariance.  The occupation and Ray-Knight checks
draw the loop side and read it against the field side's exact law
(alpha-permanent moments, and CDFs through math.erf), not against a second
sample.

Conventions, recorded in every report (`reports.CONVENTIONS`):

  * real field: centered, covariance exactly G (symmetric square root).
  * complex field: phi = (phi1 + i phi2)/sqrt(2) with independent real parts,
    so E[phi_x conj(phi_y)] = G_{x,y} and E[phi_x phi_y] = 0.  Under this
    scaling the intensity-1 occupation field matches |phi|^2 and the
    intensity-1/2 field matches (1/2) phi_real^2.
  * occupation and excursion local times are normalized by lam.
  * the determinant identity uses the lam-normalized diagonal
    (1 + N_x) / lam_x; the unnormalized diagonal fails its own closed form.
"""

from __future__ import annotations

import math
from functools import partial
from numbers import Real

import numpy as np

from .errors import BadChi, BadStoppingLevel, BadSupport, DuplicateIndex
from .exact import alpha_permanent, permanent
from .graphs import ChainKernel
from .reports import CONVENTIONS, TestReport
from .rng import BLOCK, DRAW_CAP, SCHEME, _check_count, _check_sample, replica_map, stream_seed
from .soup import merge_diagnostics, occupation_samples


def _z_line(report: TestReport, name: str, sample: np.ndarray, exact: float) -> None:
    """z of a sample's mean against its exact value, with the standard error
    of the sample alone."""
    report.add_z(name, float(np.mean(sample)), float(exact),
                 float(np.sqrt(np.var(sample) / len(sample))))


_KS_STRIDE = 32  # sorted entries between two anchors of _ks_distance


def _ks_distance(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between a sample and a
    continuous law: the largest gap between the empirical CDF and cdf, which
    maps a sorted array to its CDF values.  cdf must be nondecreasing and
    work entry by entry; it is taken at every _KS_STRIDE-th sorted entry and
    the last, and inside a run between two of them only where a larger gap
    can lie, so the result is the float a pass over every entry gives.
    Raises BadReplicaCount when the sample is empty."""
    n = _check_count(len(sample))
    x = np.sort(sample)
    anchors = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f = cdf(x[anchors])
    up, down = (anchors + 1) / n, anchors / n
    gaps = np.maximum(up - f, f - down)
    # for lo < i < hi, F(x_lo) <= F(x_i) <= F(x_hi) and rounding is monotone,
    # so each gap inside the run is at most the run's bound
    bound = np.maximum(down[1:] - f[:-1], f[1:] - up[:-1])
    inner = (anchors[:-1][bound >= np.max(gaps), None] + np.arange(1, _KS_STRIDE)).ravel()
    inner = inner[inner < n - 1]
    f = cdf(x[inner])
    inner_gaps = np.maximum((inner + 1) / n - f, f - inner / n)
    return float(np.max(np.concatenate((gaps, inner_gaps))))


def _erf(x: np.ndarray) -> np.ndarray:
    """math.erf of each entry of a 1-d array (numpy has no erf), BLOCK
    entries at a time: a Python float per entry of a whole row would raise
    the process's peak memory by more than the row itself."""
    out = np.empty(len(x))
    for lo in range(0, len(x), BLOCK):
        out[lo:lo + BLOCK] = np.fromiter(map(math.erf, x[lo:lo + BLOCK].tolist()), float)
    return out


def _moment_lines(report: TestReport, label: str, names, occ: np.ndarray, green: np.ndarray,
                  alpha: float) -> None:
    """Moments 1-4 per vertex and pairwise joints of an (n, R) occupation
    sample at intensity alpha against their alpha-permanents of Green
    blocks: E[prod_i L^(x_i)] = Per_alpha(G[x_i, x_j])."""
    n = len(occ)
    for x in range(n):
        for r in range(1, 5):
            _z_line(report, f"{label}[{names[x]}]^moment{r}", occ[x] ** r,
                    alpha_permanent(np.full((r, r), green[x, x]), alpha))
    for x in range(n):
        for y in range(x + 1, n):
            _z_line(report, f"{label}[{names[x]},{names[y]}] joint", occ[x] * occ[y],
                    alpha_permanent(green[np.ix_((x, y), (x, y))], alpha))


_ISOMORPHISM_LABELS = {0.5: "half_vs_half_sq", 1.0: "one_vs_abs_sq"}


def _isomorphism_lines(kernel: ChainKernel, alpha: float, occ: np.ndarray) -> list:
    """The lines of one (n, R) occupation sample at intensity 1/2 or 1:
    moments 1-4 per vertex and pairwise joints against their
    alpha-permanents and, at 1/2 on a one-vertex graph, a KS line against
    the exact law, whose CDF is erf(sqrt(t / G))."""
    report = TestReport(name="isomorphism")
    label = _ISOMORPHISM_LABELS[alpha]
    green = kernel.G
    _moment_lines(report, label, kernel.graph.vertices, occ, green, alpha)
    if alpha == 0.5 and kernel.n == 1:
        report.add_bound(f"{label} KS",
                         _ks_distance(occ[0], lambda t: _erf(np.sqrt(t / green[0, 0]))),
                         0.01, note="same law exactly on one vertex")
    return report.lines


def _isomorphism_report(replicas: int, lines: dict, diagnostics: dict) -> TestReport:
    """verify_isomorphism's report from the lines and the sampler diagnostics
    of its samples at 1/2 and 1, each keyed by alpha: the z-lines at 1/2,
    then at 1, then the KS line."""
    report = TestReport(name="isomorphism", conventions=dict(CONVENTIONS))
    report.meta.update({"replicas": replicas, "rng": dict(SCHEME),
                        "sampler_diagnostics": {"alpha=0.5": diagnostics[0.5],
                                                "alpha=1": diagnostics[1.0]}})
    both = lines[0.5] + lines[1.0]
    report.lines = [line for line in both if line.z is not None] + \
        [line for line in both if line.z is None]
    return report


def verify_isomorphism(kernel: ChainKernel, replicas: int, seed) -> TestReport:
    """Occupation fields at intensities 1/2 and 1 (streams seed and
    seed + 2), the laws of half the squared real field and of the squared
    modulus of the complex field: moments 1-4 and pairwise joints against
    their alpha-permanents, and on a one-vertex graph a KS line against the
    exact law at 1/2, whose CDF is erf(sqrt(t / G)).  Each sample is held
    once, as one contiguous row per vertex, and dropped before the next is
    drawn; check 5 reads the triangle's lines off run_all's histograms."""
    seed = stream_seed(seed)
    lines: dict = {}
    diagnostics: dict = {}
    for alpha, stream in ((0.5, seed), (1.0, seed + 2)):
        diagnostics[alpha] = {}
        occ = occupation_samples(kernel, alpha, replicas, stream, meta=diagnostics[alpha]).T
        lines[alpha] = _isomorphism_lines(kernel, alpha, occ)
        del occ
    return _isomorphism_report(replicas, lines, diagnostics)


def _excursion_block(kernel: ChainKernel, x0: int, rho: float, size: int, rng) -> tuple:
    """Excursion occupations of `size` replicas from one generator, all
    excursions walked in lockstep.

    Draw order: a Poisson((lam-kappa)_{x0} * rho) excursion count per
    replica; one uniform per excursion for its first step; then per round,
    one Exp(1) holding time and one step uniform per excursion still away
    from x0.  Returns the (size, n) occupations and block diagnostics.
    """
    graph = kernel.graph
    n = kernel.n
    occ = np.zeros((size, n))
    occ[:, x0] = rho
    escape = float(kernel.lam[x0] - graph.killing[x0])
    if escape <= 0:
        return occ, {"replicas": size, "excursions": 0, "walk_steps": 0}
    owners = np.repeat(np.arange(size), rng.poisson(escape * rho, size=size))
    excursions = len(owners)
    # first steps survive: u * mass < mass for every uniform u < 1, with the
    # step table's own escape mass at x0, so none reaches the death slot
    cum = kernel._step_table[1][x0]
    y = kernel.walk_steps(np.full(excursions, x0), rng.random(excursions) * cum[cum < np.inf][-1])
    cells, hold = [], []
    steps = 0
    while len(owners):
        cells.append(owners * n + y)
        hold.append(rng.standard_exponential(len(owners)))
        steps += len(owners)
        y = kernel.walk_steps(y, rng.random(len(owners)))
        if (y == -1).any():
            raise BadSupport("excursion died away from x0; killing is not supported there")
        away = y != x0
        owners, y = owners[away], y[away]
    if cells:
        time = np.bincount(np.concatenate(cells), weights=np.concatenate(hold),
                           minlength=size * n).reshape(size, n)
        occ += time / kernel.lam
    return occ, {"replicas": size, "excursions": excursions, "walk_steps": steps}


def sample_excursion_field(kernel: ChainKernel, x0, rho: float, rng) -> np.ndarray:
    """Excursion occupation, the (n,) row of local times: a
    Poisson((lam-kappa)_{x0} * rho) number of independent excursions from x0,
    each walked in D until absorption back at x0; entry at x0 is rho exactly.
    The single-replica view of the block sampler used by ray_knight_check."""
    occ, _ = _excursion_block(kernel, kernel.graph.index(x0), rho, 1, rng)
    return occ[0]


def _ray_knight_block(kernel, x0, rho, off, factor_d, rng, size) -> tuple:
    """The left side of the identity for `size` replicas from one generator:
    the field, then the excursions."""
    lhs = np.zeros((size, kernel.n))
    lhs[:, off] = 0.5 * (rng.standard_normal((size, len(off))) @ factor_d) ** 2
    exc, diagnostics = _excursion_block(kernel, x0, rho, size, rng)
    lhs += exc
    return lhs, diagnostics


def _shifted_half_sq_cdf(shift: float, var: float, t: np.ndarray) -> np.ndarray:
    """P((phi + shift)^2 / 2 <= t) for phi ~ N(0, var), s = sqrt(var):
    Phi((sqrt(2t) - shift) / s) - Phi((-sqrt(2t) - shift) / s), where
    Phi(z / s) = (1 + erf(z / (s sqrt 2))) / 2."""
    root = np.sqrt(2.0 * t)
    scale = math.sqrt(2.0 * var)
    return 0.5 * (_erf((root - shift) / scale) + _erf((root + shift) / scale))


def _shifted_half_sq_moment(m: int, shift: float, var: float) -> float:
    """E[((phi + shift)^2 / 2)^m] for phi ~ N(0, var): the binomial expansion
    of (phi + shift)^(2m) with the even Gaussian moments var^j (2j - 1)!!."""
    return sum(math.comb(2 * m, 2 * j) * shift ** (2 * m - 2 * j) * var**j
               * math.prod(range(1, 2 * j, 2)) for j in range(m + 1)) / 2**m


def ray_knight_check(kernel: ChainKernel, x0, rho: float, replicas: int, seed) -> TestReport:
    """Both sides of the stopped-local-time identity, compared per vertex.

    Left side: half the squared field of the chain restricted to D (zero at
    x0) plus an independent excursion occupation stopped at local time rho,
    drawn.  Right side: half the square of a D-restricted field shifted by
    c = sqrt(2 rho), whose law at x, with s^2 = G_D[x, x], is exact: a KS
    line against its CDF Phi((sqrt(2t) - c) / s) - Phi((-sqrt(2t) - c) / s)
    and moments 1-3 against E[((phi + c)^2 / 2)^m].  The x0 coordinate is
    the constant rho on both sides and is reported without a gate.  Replicas
    are drawn block by block in (seed, block) streams.  Raises, before
    drawing, BadStoppingLevel unless rho is a finite number above 0, not a
    bool, whose blocks expect at most DRAW_CAP excursions, and
    BadReplicaCount when the (n, replicas) sample passes SAMPLE_CAP entries.
    """
    if isinstance(rho, bool) or not (isinstance(rho, Real) and math.isfinite(rho) and rho > 0):
        raise BadStoppingLevel(f"stopping level must be finite and positive, got {rho}")
    graph = kernel.graph
    x0 = graph.index(x0)
    off = [x for x in range(kernel.n) if x != x0]
    if any(graph.killing[x] > 0 for x in off):
        raise BadSupport("killing must be supported exactly on x0")
    replicas = _check_sample(kernel.n, replicas)
    expected = (kernel.lam[x0] - graph.killing[x0]) * rho * min(BLOCK, replicas)
    if expected > DRAW_CAP:
        raise BadStoppingLevel(f"stopping level too large: {expected:.4g} expected "
                               f"excursions in a block, past the cap of {DRAW_CAP}")

    m_d = kernel.energy_matrix[np.ix_(off, off)]
    w, u = np.linalg.eigh(m_d)
    factor_d = (u / np.sqrt(w)) @ u.T  # symmetric square root of the D Green matrix

    parts = replica_map(partial(_ray_knight_block, kernel, x0, rho, off, factor_d),
                        replicas, seed)
    # one contiguous row per vertex, as in verify_isomorphism; the blocks go
    # before the KS and moment lines take their temporaries
    lhs = np.concatenate([p[0].T for p in parts], axis=1)
    diagnostics = merge_diagnostics([p[1] for p in parts])
    del parts

    report = TestReport(name="ray-knight", conventions=dict(CONVENTIONS))
    report.meta.update({"x0": graph.vertices[x0], "rho": rho, "replicas": replicas,
                        "rng": dict(SCHEME), "sampler_diagnostics": diagnostics})
    names = graph.vertices
    shift = math.sqrt(2.0 * rho)
    for x, var in zip(off, np.diag(factor_d @ factor_d).tolist()):
        report.add_bound(f"KS[{names[x]}]",
                         _ks_distance(lhs[x], partial(_shifted_half_sq_cdf, shift, var)), 0.02)
        for mom in range(1, 4):
            _z_line(report, f"moment{mom}[{names[x]}]", lhs[x] ** mom,
                    _shifted_half_sq_moment(mom, shift, var))
    report.add_info(f"x0[{names[x0]}] constant", float(np.max(np.abs(lhs[x0] - rho))),
                    note="left side at x0 minus rho; right side is rho by construction")
    return report


def _moment_indices(kernel: ChainKernel, edges, points) -> tuple:
    """verify_moment_formula's edge and point indices; BadGraph on a pair
    that is not an edge, DuplicateIndex on a repeat."""
    graph = kernel.graph
    edge_idx = [graph.edge_index(u, v) for u, v in edges]
    point_idx = [graph.index(p) for p in points]
    if len(set(edge_idx)) != len(edge_idx):
        raise DuplicateIndex("oriented edges must be pairwise distinct")
    if len(set(point_idx)) != len(point_idx):
        raise DuplicateIndex("vertices must be pairwise distinct")
    return edge_idx, point_idx


def verify_moment_formula(kernel: ChainKernel, edges, points, histogram: dict) -> TestReport:
    """Monte Carlo E[prod N_edge prod (N_vertex + 1)] over a {network key:
    replicas} histogram against the closed-form complex Wick value
    prod C prod lam * Per(G block)."""
    graph = kernel.graph
    edge_idx, point_idx = _moment_indices(kernel, edges, points)

    sources = [u for u, _ in edge_idx] + point_idx
    targets = [v for _, v in edge_idx] + point_idx
    # E[prod phi_sources prod conj(phi_targets)] = Per(G block), 1 for no pairs
    closed = float(permanent(kernel.G[np.ix_(sources, targets)]))
    for u, v in edge_idx:
        closed *= graph.conductance[u, v]
    for p in point_idx:
        closed *= kernel.lam[p]

    def stat(counts) -> float:
        val = 1.0
        for u, v in edge_idx:
            val *= counts[u, v]
        out_deg = counts.sum(axis=1)
        for p in point_idx:
            val *= out_deg[p] + 1
        return val

    mean, se, replicas = _histogram_stat(histogram, stat)

    name = ",".join(f"{graph.vertices[u]}->{graph.vertices[v]}" for u, v in edge_idx)
    pname = ",".join(graph.vertices[p] for p in point_idx)
    report = TestReport(name="moment-formula", conventions=dict(CONVENTIONS))
    report.meta.update({"edges": name, "points": pname, "replicas": replicas})
    report.add_z(f"E[prod N({name}) prod (N({pname})+1)]", mean, float(closed), se)
    return report


def _histogram_stat(histogram: dict, stat_fn) -> tuple:
    """Mean, standard error and replica count of stat_fn(count matrix) over
    a {network key: replicas} histogram."""
    total = 0.0
    total_sq = 0.0
    count = 0
    for key, c in histogram.items():
        v = float(stat_fn(np.array(key, dtype=np.int64)))
        total += v * c
        total_sq += v * v * c
        count += c
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, float(np.sqrt(var / count)), count


def _checked_chi(kernel: ChainKernel, chi) -> np.ndarray:
    """verify_det_identity's chi as a vector; BadChi unless it is n long,
    finite and >= lam."""
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (kernel.n,):
        raise BadChi(f"chi must be a vector of length {kernel.n}")
    if not np.isfinite(chi).all():
        raise BadChi("chi must be finite")
    if (chi < kernel.lam - 1e-12).any():
        raise BadChi("chi must dominate lam entrywise")
    return chi


def verify_det_identity(kernel: ChainKernel, chi, histogram: dict) -> TestReport:
    """Monte Carlo E[det(M_chi D_N - N)] with the lam-normalized diagonal
    chi_x (1 + N_x)/lam_x over a {network key: replicas} histogram, against
    det(M_chi - C) * Per(G)."""
    chi = _checked_chi(kernel, chi)

    target = float(np.linalg.det(np.diag(chi) - kernel.graph.conductance)
                   * permanent(kernel.G))

    lam = kernel.lam

    def stat(counts) -> float:
        d = chi * (1.0 + counts.sum(axis=1)) / lam
        return float(np.linalg.det(np.diag(d) - counts))

    mean, se, replicas = _histogram_stat(histogram, stat)

    report = TestReport(name="det-identity", conventions=dict(CONVENTIONS))
    report.meta.update({"chi": chi.tolist(), "replicas": replicas})
    report.add_z("E[det(M_chi D_N - N)]", mean, target, se,
                 note="diagonal chi_x (1+N_x)/lam_x")
    return report
