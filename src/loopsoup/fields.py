"""Gaussian fields with the chain's Green covariance and the distributional
identities tying them to loop ensembles.

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
from .exact import permanent
from .graphs import ChainKernel
from .reports import CONVENTIONS, TestReport
from .rng import BLOCK, DRAW_CAP, SCHEME, _check_count, replica_map, seeded_rng, stream_seed
from .soup import merge_diagnostics, occupation_samples


def _two_sample_z(report: TestReport, name: str, a: np.ndarray, b: np.ndarray) -> None:
    ma, mb = float(np.mean(a)), float(np.mean(b))
    se = float(np.sqrt(np.var(a) / len(a) + np.var(b) / len(b)))
    report.add_z(name, ma, mb, se)


def _ks_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |F_a - F_b| at the points of sorted sample a: at the last of
    each run of ties a[i], F_a is (i + 1) / len(a)."""
    ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
    fb = np.searchsorted(b, a[ends], side="right") / len(b)
    ends += 1
    gap = ends / len(a)
    del ends  # from here the difference and its absolute value are taken in place
    gap -= fb
    return float(np.max(np.abs(gap, out=gap)))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical CDFs, attained at a point of one sample.  Raises
    BadReplicaCount when a sample is empty."""
    _check_count(len(a))
    _check_count(len(b))
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    return max(_ks_gap(a, b), _ks_gap(b, a))


def _field_chunks(kernel: ChainKernel, count: int, rng):
    """`count` real fields z @ field_factor, z standard normal, in chunks of
    BLOCK rows, each with its slice of the replica axis; the rows have the
    bits of one (count, n) draw (tests/oracles.py sample_real_fields)."""
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        yield (slice(start, start + size),
               rng.standard_normal((size, kernel.n)) @ kernel.field_factor)


def _half_sq_rows(kernel: ChainKernel, count: int, seed) -> np.ndarray:
    """Half the squared real field of `count` replicas on seeded_rng(seed),
    one contiguous row per vertex, filled chunk by chunk."""
    rows = np.empty((kernel.n, count))
    for cols, f in _field_chunks(kernel, count, seeded_rng(seed)):
        rows[:, cols] = (0.5 * f**2).T
    return rows


def _abs_sq_rows(kernel: ChainKernel, count: int, seed) -> np.ndarray:
    """|phi|^2 of `count` complex fields on seeded_rng(seed), one contiguous
    row per vertex: the phi1 draws are filled in first, then each chunk of
    phi2 draws turns its columns into |phi|^2."""
    rng = seeded_rng(seed)
    rows = np.empty((kernel.n, count))
    for cols, f1 in _field_chunks(kernel, count, rng):
        rows[:, cols] = f1.T
    for cols, f2 in _field_chunks(kernel, count, rng):
        rows[:, cols] = (np.abs((rows[:, cols].T + 1j * f2) / np.sqrt(2.0)) ** 2).T
    return rows


def _pair_lines(report: TestReport, label: str, names, occ: np.ndarray,
                ref: np.ndarray) -> None:
    """Moments 1-4 per vertex and pairwise joints of two (n, R) samples."""
    n = len(occ)
    for x in range(n):
        for r in range(1, 5):
            _two_sample_z(report, f"{label}[{names[x]}]^moment{r}", occ[x] ** r, ref[x] ** r)
    for x in range(n):
        for y in range(x + 1, n):
            _two_sample_z(report, f"{label}[{names[x]},{names[y]}] joint",
                          occ[x] * occ[y], ref[x] * ref[y])


def verify_isomorphism(kernel: ChainKernel, replicas: int, seed) -> TestReport:
    """Occupation fields against squared Gaussian fields, moments 1-4 and
    pairwise joints; exact two-sample KS on a one-vertex graph.

    Each sample is held once, as one contiguous row per vertex (reductions
    over strided columns are slower), and the half pair is reduced and
    dropped before the one pair is drawn."""
    report = TestReport(name="isomorphism", conventions=dict(CONVENTIONS))
    names = kernel.graph.vertices
    seed = stream_seed(seed)
    half_meta: dict = {}
    one_meta: dict = {}
    report.meta.update({"replicas": replicas, "rng": dict(SCHEME),
                        "sampler_diagnostics": {"alpha=0.5": half_meta,
                                                "alpha=1": one_meta}})

    occ = occupation_samples(kernel, 0.5, replicas, seed, meta=half_meta).T
    ref = _half_sq_rows(kernel, replicas, seed + 1)
    _pair_lines(report, "half_vs_half_sq", names, occ, ref)
    ks = ks_two_sample(occ[0], ref[0]) if kernel.n == 1 else None
    del occ, ref
    occ = occupation_samples(kernel, 1.0, replicas, seed + 2, meta=one_meta).T
    ref = _abs_sq_rows(kernel, replicas, seed + 3)
    _pair_lines(report, "one_vs_abs_sq", names, occ, ref)
    if ks is not None:
        report.add_bound("half_vs_half_sq KS", ks, 0.01, note="same law exactly on one vertex")
    return report


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
    """Both sides of the identity for `size` replicas from one generator:
    the left field, the excursions, then the right field."""
    shift = np.sqrt(2.0 * rho)
    lhs = np.zeros((size, kernel.n))
    lhs[:, off] = 0.5 * (rng.standard_normal((size, len(off))) @ factor_d) ** 2
    exc, diagnostics = _excursion_block(kernel, x0, rho, size, rng)
    lhs += exc
    rhs = np.full((size, kernel.n), 0.5 * shift**2)
    rhs[:, off] = 0.5 * (rng.standard_normal((size, len(off))) @ factor_d + shift) ** 2
    return lhs, rhs, diagnostics


def ray_knight_check(kernel: ChainKernel, x0, rho: float, replicas: int, seed) -> TestReport:
    """Both sides of the stopped-local-time identity, compared per vertex.

    Left side: half the squared field of the chain restricted to D (zero at
    x0) plus an independent excursion occupation stopped at local time rho.
    Right side: half the square of an independent D-restricted field shifted
    by sqrt(2 rho).  The x0 coordinate is the constant rho on both sides and
    is reported without a gate.  Replicas are drawn block by block in
    (seed, block) streams.  Raises BadStoppingLevel, before drawing, unless
    rho is finite and above 0 and a block's expected excursion count stays
    within DRAW_CAP.
    """
    if not (isinstance(rho, Real) and math.isfinite(rho) and rho > 0):
        raise BadStoppingLevel(f"stopping level must be finite and positive, got {rho}")
    graph = kernel.graph
    x0 = graph.index(x0)
    off = [x for x in range(kernel.n) if x != x0]
    if any(graph.killing[x] > 0 for x in off):
        raise BadSupport("killing must be supported exactly on x0")
    expected = (kernel.lam[x0] - graph.killing[x0]) * rho * min(BLOCK, _check_count(replicas))
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
    rhs = np.concatenate([p[1].T for p in parts], axis=1)
    diagnostics = merge_diagnostics([p[2] for p in parts])
    del parts

    report = TestReport(name="ray-knight", conventions=dict(CONVENTIONS))
    report.meta.update({"x0": graph.vertices[x0], "rho": rho, "replicas": replicas,
                        "rng": dict(SCHEME), "sampler_diagnostics": diagnostics})
    names = graph.vertices
    for x in off:
        report.add_bound(f"KS[{names[x]}]", ks_two_sample(lhs[x], rhs[x]), 0.02)
        for mom in range(1, 4):
            _two_sample_z(report, f"moment{mom}[{names[x]}]", lhs[x] ** mom, rhs[x] ** mom)
    report.add_info(f"x0[{names[x0]}] constant", float(np.max(np.abs(lhs[x0] - rho))),
                    note="left side at x0 minus rho; right side is rho by construction")
    return report


def _moment_indices(kernel: ChainKernel, edges, points) -> tuple:
    """verify_moment_formula's edge and point indices; DuplicateIndex on a repeat."""
    graph = kernel.graph
    edge_idx = [(graph.index(u), graph.index(v)) for u, v in edges]
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
