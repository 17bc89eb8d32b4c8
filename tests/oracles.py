"""Brute-force references for the exact array kernels, the scalar forms of
the matrix-tree count, the one-loop measure and the loop-length law, a
search for the connectivity of a network's support, the earlier forms of
the cycle basis (one tree search per cycle), of the layer enumeration (a
lexsort dedup, and each layer's probability and loop measure from one call
of its own) and of check 10 (sums over the enumerated networks, each graph
enumerated twice), and the earlier forms of
the Monte Carlo block kernels, of the scalar chain step, of the reductions
over a run and over one ensemble's loops, of the sample histogram's readers
(a walk over a {network key: replicas} dict for the weighted statistic, the
TV distance and the homology class tally), of the canonical loop rotation
(a scan over every position of the minimal vertex), of the Poisson series (one
convolution power at a time), of the general-alpha network law (the
loop-measure Poisson series over the sub-circulations of the network) and of
the homology law (one determinant per grid point, held as a dict), a
brute-force one-sample KS distance, and one-draw real and complex Gaussian
fields with covariance G, which the field tests sample the Wick moments from.

Each exact reference enumerates everything it sums over, so they are slow
and only fit small inputs; the tests compare the fast kernels against them.
The sampler references draw the same random numbers as the block kernels in
the same order, one length group, one boolean row sum or one column rank at
a time, so the tests can demand exact array equality.  The reductions
(the KS distance, the merge of block histograms) do the same arithmetic as
their replacements, so those tests demand exact equality too.
"""

import math
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import permutations

import numpy as np

from loopsoup import (
    BudgetExceeded,
    Network,
    TailTooHeavy,
    TestReport,
    TooLarge,
    build_kernel,
    enumerate_eulerian,
    verify_poisson_convolution,
)
from loopsoup import eulerian
from loopsoup.errors import _check_alpha
from loopsoup.eulerian import (
    CONVOLUTION_CHUNK,
    ENUMERATION_CAP,
    _check_delta,
    _count_matrices,
    _directed_edges,
    _key_weights,
    _loop_measure,
    _poisson_series,
    _ratio_power,
    _row_terms,
    _simple_cycles,
    _sub_circulations,
)
from loopsoup.homology import CycleBasis, network_homology_class
from loopsoup.reports import CONVENTIONS
from loopsoup.rng import seeded_rng
from loopsoup.soup import LoopBlock, LoopGroup, _concat, _matrix_powers
from loopsoup.verify import DELTA_TWO_POINT, triangle_graph, two_point_graph


def balanced_layer(graph, directed_edges, m: int) -> list:
    """All balanced count matrices with total m over the given directed
    edges: every composition of m over the edges, kept if balanced.  The
    networks come in lexicographic order of their edge-count rows."""
    n = graph.n
    results = []
    counts = np.zeros((n, n), dtype=np.int64)

    def rec(pos: int, remaining: int):
        if pos == len(directed_edges):
            if remaining == 0:
                net = counts.sum(axis=1) - counts.sum(axis=0)
                if not net.any():
                    results.append(Network(graph, counts.copy()))
            return
        x, y = directed_edges[pos]
        for c in range(remaining + 1):
            counts[x, y] = c
            rec(pos + 1, remaining - c)
        counts[x, y] = 0

    rec(0, m)
    return results


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order (first column most significant),
    by one lexsort over all the columns and a comparison of neighbours."""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def circulation_layers(graph, edges):
    """eulerian._circulation_layers with the rows of each layer deduplicated
    by unique_rows instead of by row codes; it reads eulerian.LAYER_CAP when
    it runs, so a test that lowers the cap lowers it for both."""
    cycles = _simple_cycles(graph, edges)
    lengths = cycles.sum(axis=1)
    by_length = [(int(length), cycles[lengths == length]) for length in np.unique(lengths)]
    layers = [np.zeros((1, len(edges)), dtype=np.int64)]
    while True:
        m = len(layers)
        sources = [(layers[m - length], group) for length, group in by_length
                   if length <= m and len(layers[m - length])]
        entries = sum(len(base) * len(group) for base, group in sources) * len(edges)
        if entries > eulerian.LAYER_CAP:
            raise TooLarge(
                f"layer {m} would build {entries} > {eulerian.LAYER_CAP} candidate counts")
        parts = [(base[:, None, :] + group[None, :, :]).reshape(-1, len(edges))
                 for base, group in sources]
        rows = unique_rows(np.concatenate(parts)) if parts else layers[0][:0]
        layers.append(rows)
        yield rows


def arborescence_counts(counts: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """exact._arborescence_counts with the Laplacian built densely, as the
    out-degree times the identity less the counts, each struck vertex's row
    taken from the identity, and the degrees summed by ndarray.sum."""
    n = counts.shape[1]
    out_deg = counts.sum(axis=2)
    keep = (out_deg + counts.sum(axis=1) > 0) & (np.arange(n) != roots[:, None])
    eye = np.eye(n)
    lap = np.where(keep[:, :, None], out_deg[:, :, None] * eye - counts, eye)
    return np.maximum(np.rint(np.linalg.det(lap)), 0.0)


def layer_law(kernel, edges, rows: np.ndarray, counts: np.ndarray) -> tuple:
    """alpha = 1 probability and one-loop measure of one layer's rows in one
    call, each layer paying its own log-factorial table and determinants."""
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    out_deg = counts.sum(axis=2)
    top = int(rows.sum(axis=1).max(initial=0))
    log_fact = np.array([math.lgamma(c + 1) for c in range(top + 1)])
    log_weight = rows @ np.log(kernel.P[src, dst]) - log_fact[rows].sum(axis=1)
    prob = kernel.det_i_minus_p * np.exp(log_weight + log_fact[out_deg].sum(axis=1))
    tau = arborescence_counts(counts, np.argmax(out_deg > 0, axis=1))
    mu = tau * np.exp(log_weight + log_fact[np.maximum(out_deg - 1, 0)].sum(axis=1))
    return prob, mu


def enumerate_layers(kernel, delta: float) -> list:
    """eulerian._enumerate_layers one layer at a time: each layer's rows from
    circulation_layers, then its count matrices, probability and mu from
    layer_law, before the stop rule reads the layer's probability."""
    _check_delta(delta)
    edges = _directed_edges(kernel.graph)
    layers = [(np.zeros((1, len(edges)), dtype=np.int64),
               np.zeros((1, kernel.n, kernel.n), dtype=np.int64),
               np.array([kernel.det_i_minus_p]), np.zeros(1))]
    accum = kernel.det_i_minus_p
    grow = circulation_layers(kernel.graph, edges)
    while accum < 1.0 - delta:
        if len(layers) > ENUMERATION_CAP:
            raise BudgetExceeded(
                f"accumulated probability {accum:.6g} < 1 - {delta:g} at |k| = {ENUMERATION_CAP}"
            )
        rows = next(grow)
        counts = _count_matrices(kernel.n, edges, rows)
        prob, mu = layer_law(kernel, edges, rows, counts)
        layers.append((rows, counts, prob, mu))
        accum += float(prob.sum())
    return layers


def _cycle_count(perm: tuple) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def alpha_permanent(a, alpha: float):
    """Sum over all n! permutations of alpha^(cycle count) times the product."""
    a = np.asarray(a)
    n = a.shape[0]
    total = 0.0 + 0.0j if np.iscomplexobj(a) else 0.0
    for perm in permutations(range(n)):
        prod = 1.0
        for i in range(n):
            prod = prod * a[i, perm[i]]
            if prod == 0:
                break
        if prod != 0:
            total += (alpha ** _cycle_count(perm)) * prod
    return complex(total) if np.iscomplexobj(a) else float(total)


def permanent(a, chunk: int = 1 << 14):
    """Ryser's formula with each chunk's row sums as one matrix product of
    0/1 subset bits with A^T, the signed sum in chunks of `chunk` subsets
    from subset 1 on, each reduced as exact.permanent reduces it."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return 1.0
    a_t = a.T.astype(np.result_type(a, float))
    total = 0.0
    for lo in range(1, 1 << n, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << n))
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        signs = 1.0 - 2.0 * ((n - bits.sum(axis=1)) % 2)
        total += np.einsum("i,i->", signs, np.prod(bits @ a_t, axis=1))
    return complex(total) if np.iscomplexobj(a) else float(total)


def poisson_series(keys, mu, alpha: float) -> list:
    """sum_j alpha^j / j! mu^(*j) on a layered support, one convolution power
    at a time: each power adds the keys of one layer pair at a time and finds
    the sums by binary search in the layer of their total."""
    max_total = len(keys) - 1
    series = [np.zeros(len(k)) for k in keys]
    series[0][0] = 1.0
    current = [s.copy() for s in series]
    factorial = 1.0
    # every nonzero network has |k| >= 2, so mu^(*j) lives on |k| >= 2j
    for j in range(1, max_total // 2 + 1):
        factorial *= j
        nxt = [np.zeros(len(k)) for k in keys]
        for total_a in range(2 * j - 2, max_total - 1):
            keys_a, val_a = keys[total_a], current[total_a]
            for total_b in range(2, max_total - total_a + 1):
                keys_b, target = keys[total_b], keys[total_a + total_b]
                if not len(keys_b) or not len(target):
                    continue
                step = max(1, CONVOLUTION_CHUNK // len(keys_b))
                for lo in range(0, len(keys_a), step):
                    sums = (keys_a[lo:lo + step, None] + keys_b[None, :]).ravel()
                    pos = np.minimum(np.searchsorted(target, sums), len(target) - 1)
                    found = target[pos] == sums
                    terms = (val_a[lo:lo + step, None] * mu[total_b][None, :]).ravel()
                    nxt[total_a + total_b] += np.bincount(
                        pos[found], weights=terms[found], minlength=len(target))
        for value, term in zip(series, nxt):
            value += term * alpha**j / factorial
        current = nxt
    return series


def generating_grid(kernel, basis, alpha: float, grid_m: int):
    """generating_function at every twist t of the grid {0, 1/grid_m, ...}^n,
    one stacked determinant per slab of whole rows along the first axis, at
    most 1024 points a slab."""
    n = basis.n
    phi = np.empty((grid_m,) * n, dtype=complex)
    ticks = np.arange(grid_m) / grid_m
    rows = max(1, 1024 // grid_m ** (n - 1))
    for lo in range(0, grid_m, rows):
        slab = phi[lo:lo + rows]
        z = np.ones(slab.shape + (kernel.n, kernel.n), dtype=complex)
        axes = np.ix_(ticks[lo:lo + rows], *[ticks] * (n - 1))
        for (u, v), t in zip(basis.nontree_edges, axes):
            z[..., u, v] = np.exp(2j * np.pi * t)
            z[..., v, u] = np.exp(2j * np.pi * -t)
        slab[...] = _ratio_power(kernel.det_i_minus_pz(z) / kernel.det_i_minus_p, alpha)
    return phi


def class_law_dict(phi: np.ndarray) -> tuple:
    """({class coordinates: probability}, window mass) by Fourier inversion
    of a generating grid: the clipped law on the window |coordinate| <
    grid_m / 2, every entry >= 1e-15 keyed by its coordinates."""
    grid_m, n = len(phi), phi.ndim
    real = np.clip((np.fft.fftn(phi) / grid_m**n).real, 0.0, None)
    half = grid_m // 2
    window = np.ones(phi.shape, dtype=bool)
    for axis in range(n):
        window[(slice(None),) * axis + (half,)] = False
    kept = window & (real >= 1e-15)
    coords = [np.where(i >= half, i - grid_m, i).tolist() for i in np.nonzero(kept)]
    return dict(zip(zip(*coords), real[kept].tolist())), float(real[window].sum())


def symmetry_defect(probs: dict) -> float:
    """max over the classes j of |P(j) - P(-j)|."""
    return max(abs(p - probs.get(tuple(-c for c in coords), 0.0))
               for coords, p in probs.items())


@lru_cache(maxsize=None)
def _pairing_cycles(counts: tuple) -> Counter:
    """{cycle count: permutations} over the permutations sigma of the vertex
    list, each x repeated k_x times, whose steps (v_i, v_sigma(i)) use every
    edge x -> y exactly k_xy times."""
    counts = np.array(counts, dtype=np.int64)
    verts = [x for x in range(len(counts)) for _ in range(int(counts[x].sum()))]
    target = {(int(x), int(y)): int(counts[x, y]) for x, y in zip(*np.nonzero(counts))}
    profile = Counter()
    for perm in permutations(range(len(verts))):
        used = Counter()
        for i, j in enumerate(perm):
            edge = (verts[i], verts[j])
            used[edge] += 1
            if used[edge] > target.get(edge, 0):
                break
        else:  # no edge over its count and len(verts) = |k| steps: all used
            profile[_cycle_count(perm)] += 1
    return profile


def network_prob_alpha(kernel, k, alpha: float) -> float:
    """P(N = k) at intensity alpha as a cycle-weighted permutation sum:
    det(I-P)^alpha prod P^k / prod_x k_x! times the sum of alpha^(cycle
    count) over the pairings of _pairing_cycles."""
    counts = k.counts
    pairings = _pairing_cycles(tuple(map(tuple, counts.tolist())))
    weight = sum(n * alpha**cycles for cycles, n in pairings.items())
    for kx in counts.sum(axis=1):
        weight /= math.factorial(int(kx))
    for x, y in zip(*np.nonzero(counts)):
        weight *= kernel.P[x, y] ** int(counts[x, y])
    return float(kernel.det_i_minus_p**alpha * weight)


def network_prob_alpha_mu_series(kernel, k, alpha: float) -> float:
    """P(N = k) at intensity alpha as det(I-P)^alpha sum_j alpha^j / j!
    mu^(*j)(k): at intensity alpha the crossing network is a Poisson
    superposition of one-loop networks, so only the sub-circulations of k
    enter, each with its loop measure from the layer law, and the series
    runs on the keyed recurrence over k's support edges."""
    edges = [(int(x), int(y)) for x, y in zip(*np.nonzero(k.counts))]
    weights = _key_weights([k.total // 2 + 1] * len(edges))
    rows, sizes = _sub_circulations(k.counts)
    mu = _loop_measure(_count_matrices(kernel.n, edges, rows), *_row_terms(kernel, edges, rows))
    bounds = np.cumsum(sizes)[:-1]
    series = _poisson_series(np.split(rows @ weights, bounds), np.split(mu, bounds), alpha)
    return float(kernel.det_i_minus_p**alpha * series[-1][0])


def arborescences(k, root: int) -> int:
    """Arborescences of k's support toward root: one directed matrix-tree
    determinant of the out-degree Laplacian over the support less the root."""
    support = [int(v) for v in k.support]
    if root not in support:
        return 0
    keep = [v for v in support if v != root]
    counts = k.counts.astype(float)
    lap = np.diag(counts.sum(axis=1)) - counts
    return max(int(round(np.linalg.det(lap[np.ix_(keep, keep)]))), 0)


def mu_network(kernel, k) -> float:
    """One-loop measure tau(k) prod_x (k_x - 1)! prod_{xy} P^k / k! of a
    nonzero balanced network, summed in logs one vertex and one edge at a
    time, with tau rooted at the first support vertex."""
    support = [int(v) for v in k.support]
    tau = arborescences(k, support[0])
    if tau == 0:
        return 0.0
    log_val = math.log(tau)
    for x in support:
        log_val += math.lgamma(int(k.out_degrees[x]))
    for x, y in zip(*np.nonzero(k.counts)):
        c = int(k.counts[x, y])
        log_val += c * math.log(kernel.P[x, y]) - math.lgamma(c + 1)
    return math.exp(log_val)


def length_distribution(kernel, eps: float):
    """ChainKernel.length_distribution one term at a time: mu(|l| = n) =
    sum(w^n) / n over the symmetrized spectrum w, added to the running sum
    until the tail left of -sum(log(1 - w)) is at most eps."""
    w = kernel.sym_eigs
    mprime = float(-np.sum(np.log1p(-w)))
    terms = []
    partial = 0.0
    n = 1
    while mprime - partial > eps:
        n += 1
        if n > 10_000:
            raise TailTooHeavy(f"loop-length tail cannot be cut to {eps} within 10^4 steps")
        t = max(float(np.sum(w**n)) / n, 0.0)
        terms.append(t)
        partial += t
    cum = np.cumsum(terms) / partial if terms else np.zeros(0)
    return cum, partial, n, mprime - partial


def support_connected(net) -> bool:
    """Weak connectivity of the sub-digraph of positive counts, by a
    depth-first search from one touched vertex."""
    sup = net.support
    if len(sup) == 0:
        return True
    adj = (net.counts > 0) | (net.counts.T > 0)
    seen = {int(sup[0])}
    stack = [int(sup[0])]
    while stack:
        x = stack.pop()
        for y in np.flatnonzero(adj[x]):
            y = int(y)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen >= set(int(s) for s in sup)


def walk_tables(kernel) -> list:
    """Per vertex, its neighbors and the cumulative jump probabilities to
    them, as lists."""
    tables = []
    for x in range(kernel.n):
        targets = np.flatnonzero(kernel.graph.conductance[x] > 0)
        cum = np.cumsum(kernel.graph.conductance[x, targets]) / kernel.lam[x]
        tables.append((targets.tolist(), cum.tolist()))
    return tables


def walk_step(kernel, x: int, rng) -> int:
    """One jump of the chain from x; returns the target index or -1 for death."""
    targets, cum = walk_tables(kernel)[x]
    u = rng.random()
    i = bisect_right(cum, u)
    if i >= len(targets):
        return -1
    return targets[i]


def walk_steps(kernel, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """walk_step for many walkers at once, given their uniforms u:
    targets per walker, -1 for death."""
    targets, cum = kernel._step_table
    return targets[xs, (cum[xs] <= u[:, None]).sum(axis=1)]


def _pick_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the index drawn with probability proportional to the weights."""
    cum = np.cumsum(weights, axis=1)
    hits = (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)
    return np.minimum(hits, weights.shape[1] - 1)


def _bridges(q: np.ndarray, pows: np.ndarray, length: int, count: int, rng) -> np.ndarray:
    """`count` closed chain paths of the given length, rooted with weight
    Q^length[x, x] and filled in one step at a time by bridge conditioning."""
    diag = np.cumsum(np.diag(pows[length]))
    start = np.searchsorted(diag, rng.random(count) * diag[-1], side="right")
    start = start.clip(0, len(q) - 1)
    verts = np.empty((count, length), dtype=np.intp)
    verts[:, 0] = start
    for j in range(1, length):
        # weight of z: Q[y, z] Q^(length - j)[z, start]
        weights = q[verts[:, j - 1]] * pows[length - j].T[start]
        verts[:, j] = _pick_rows(weights, rng.random(count))
    return verts


def direct_block(kernel, alpha: float, size: int, rng,
                 eps: float = 1e-9, times: bool = False) -> LoopBlock:
    """direct_block with the bridges filled one length group at a time: a
    Poisson loop count per length, uniform owners for every loop, then each
    length group's bridges in increasing order of length."""
    _check_alpha(alpha)
    cum, total_mass, cut_length, discarded = kernel.length_distribution(eps)
    per_length = rng.poisson(alpha * total_mass * size * np.diff(cum, prepend=0.0))
    owners = rng.integers(0, size, int(per_length.sum()))
    q = kernel.q_matrix
    pows = _matrix_powers(q, len(cum) + 1)
    owner_sets, verts, taken = [], [], 0
    for length, count in enumerate(per_length.tolist(), start=2):
        if count:
            owner_sets.append(owners[taken:taken + count])
            verts.append(_bridges(q, pows, length, count, rng))
            taken += count
    hold = [None] * len(verts)
    trivial = None
    if times:
        flat = rng.standard_exponential(sum(v.size for v in verts))
        ends = np.cumsum([v.size for v in verts])
        hold = [part.reshape(v.shape) for part, v in zip(np.split(flat, ends[:-1]), verts)]
        if alpha == 0.5:  # Gamma(1/2, 1) is half a squared standard normal
            trivial = np.square(rng.standard_normal((size, kernel.n))) / 2
        else:
            trivial = rng.gamma(alpha, 1.0, size=(size, kernel.n))
    return LoopBlock(
        kernel=kernel,
        size=size,
        groups=tuple(LoopGroup(o, v, t) for o, v, t in zip(owner_sets, verts, hold)),
        trivial_time=trivial,
        cut_length=cut_length,
        discarded_mu_mass=discarded,
    )


def wilson_counts(kernel, size: int, rng) -> tuple:
    """wilson_counts on (replica, vertex) index pairs, with the next phase
    start found by argmax over each replica's unsettled row."""
    n = kernel.n
    settled = np.zeros((size, n), dtype=bool)
    exit_to = np.full((size, n), -1, dtype=np.intp)
    start = np.zeros(size, dtype=np.intp)
    rows = np.arange(size)  # replicas still walking
    pos = np.zeros(size, dtype=np.intp)
    jumps, tree = [], []
    steps = 0
    while len(rows):
        z = kernel.walk_steps(pos, rng.random(len(rows)))
        steps += len(rows)
        exit_to[rows, pos] = z
        live = z >= 0
        jumps.append((rows[live] * n + pos[live]) * n + z[live])
        done = ~live
        done[live] = settled[rows[live], z[live]]
        pos = z
        if not done.any():
            continue
        ended = rows[done]
        r, v = ended, start[ended]
        while len(r):
            settled[r, v] = True
            nxt = exit_to[r, v]
            on = nxt >= 0
            tree.append((r[on] * n + v[on]) * n + nxt[on])
            on[on] = ~settled[r[on], nxt[on]]
            r, v = r[on], nxt[on]
        free = ~settled[ended]
        start[ended] = free.argmax(axis=1)
        pos[done] = start[ended]
        walking = np.ones(len(rows), dtype=bool)
        walking[done] = free.any(axis=1)
        rows, pos = rows[walking], pos[walking]
    cells = size * n * n
    counts = (np.bincount(_concat(jumps, np.intp), minlength=cells)
              - np.bincount(_concat(tree, np.intp), minlength=cells))
    return counts.reshape(size, n, n), {"replicas": size, "walk_steps": steps}


def block_counts(block: LoopBlock) -> np.ndarray:
    """(size, n, n) directed crossing counts of a block's loops, each loop's
    successors taken by rolling its vertex row."""
    n = block.kernel.n
    idx = [((g.owners[:, None] * n + g.vertices) * n
            + np.roll(g.vertices, -1, axis=1)).ravel() for g in block.groups]
    flat = np.bincount(_concat(idx, np.intp), minlength=block.size * n * n)
    return flat.reshape(block.size, n, n)


def jump_matrix(soup) -> Network:
    """Directed crossing counts of a soup's loops, one jump of one loop at a
    time; one-point loops contribute none."""
    n = soup.graph.n
    counts = np.zeros((n, n), dtype=np.int64)
    for loop in soup.loops:
        p = len(loop.vertices)
        if p < 2:
            continue
        verts = loop.vertices
        for i in range(p):
            counts[verts[i], verts[(i + 1) % p]] += 1
    return Network(soup.graph, counts)


def canonical(verts, times) -> tuple:
    """Rotate a cyclic sequence so the minimal vertex index leads; ties go to
    the lexicographically smallest vertex sequence, then to the first such
    rotation.  Times rotate with the vertices."""
    p = len(verts)
    if p == 1:
        return tuple(verts), tuple(times)
    m = min(verts)
    best = None
    best_r = 0
    for r in range(p):
        if verts[r] != m:
            continue
        rot = verts[r:] + verts[:r]
        if best is None or rot < best:
            best = rot
            best_r = r
    return tuple(best), tuple(times[best_r:] + times[:best_r])


def occupation(soup, kernel) -> np.ndarray:
    """Total loop time per vertex (one-point time included) divided by lam,
    one visit of one loop at a time."""
    occ = np.array(soup.trivial_time, dtype=float)
    for loop in soup.loops:
        for v, t in zip(loop.vertices, loop.times):
            occ[v] += t
    return occ / kernel.lam


def key_counts(counts: np.ndarray) -> tuple:
    """Distinct rows of the flattened count matrices, in lexicographic order,
    with their frequencies.  Columns are folded into one rank per row, a
    column at a time, so the codes stay below rows * (column max + 1)."""
    rows = counts.reshape(len(counts), -1)
    code = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        if col.any():
            _, code = np.unique(code * (int(col.max()) + 1) + col, return_inverse=True)
    _, first, freq = np.unique(code, return_index=True, return_counts=True)
    return rows[first], freq


def ks_one_sample(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance: at every distinct point t of
    the sample, the empirical CDF just below t and at t, each counted by a
    binary search into the sorted sample, against cdf(t)."""
    x = np.sort(np.asarray(sample, dtype=float))
    t = np.unique(x)
    f = cdf(t)
    below = np.searchsorted(x, t, side="left") / len(x)
    upto = np.searchsorted(x, t, side="right") / len(x)
    return float(max(np.max(np.abs(upto - f)), np.max(np.abs(f - below))))


def field_factor(kernel) -> np.ndarray:
    """Symmetric square root of the Green's function, for field sampling."""
    w, u = np.linalg.eigh(kernel.G)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


def sample_real_fields(kernel, count: int, seed) -> np.ndarray:
    """count x n matrix of independent real field samples, in one draw."""
    return seeded_rng(seed).standard_normal((count, kernel.n)) @ field_factor(kernel)


def sample_complex_fields(kernel, count: int, seed) -> np.ndarray:
    """count x n matrix of independent complex field samples, in one draw."""
    rng = seeded_rng(seed)
    factor = field_factor(kernel)
    f1 = rng.standard_normal((count, kernel.n)) @ factor
    f2 = rng.standard_normal((count, kernel.n)) @ factor
    return (f1 + 1j * f2) / np.sqrt(2.0)


def merge_block_keys(n: int, parts) -> Counter:
    """Histogram of per-block (keys, freq) pairs, one key row at a time as a
    tuple of row tuples, in block order."""
    hist = Counter()
    for keys, freq in parts:
        for row, count in zip(keys.tolist(), freq.tolist()):
            hist[tuple(tuple(row[i:i + n]) for i in range(0, n * n, n))] += count
    return hist


def histogram_dict(histogram) -> dict:
    """A Histogram as a {network key: replicas} dict, keyed like
    Network.key(): the form the battery's readers walked."""
    return {tuple(map(tuple, key)): count
            for key, count in zip(histogram.rows.tolist(), histogram.counts.tolist())}


def histogram_stat(histogram: dict, stat_fn) -> tuple:
    """Mean, standard error and replica count of stat_fn(count matrix) over
    a {network key: replicas} dict, one key at a time, from the running sums
    of the statistic and of its square."""
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


def normalize_counter(counter) -> dict:
    total = sum(counter.values())
    return {k: v / total for k, v in counter.items()}


def tv_distance(empirical: dict, exact: dict) -> float:
    """Total variation between an empirical pmf and a reference pmf, both
    dicts.  Reference mass outside the keys of either is counted in full;
    the empirical side has no mass there by construction."""
    keys = set(empirical) | set(exact)
    diff = sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
    tail = max(0.0, 1.0 - sum(exact.get(k, 0.0) for k in keys))
    return 0.5 * (diff + tail)


def class_counts(histogram: dict, basis: CycleBasis) -> Counter:
    """Replicas per homology class of a {network key: replicas} dict, one
    network at a time."""
    counts = Counter()
    for key, c in histogram.items():
        counts[network_homology_class(Network(basis.graph, np.array(key)), basis)] += c
    return counts


def cycle_basis(graph):
    """cycle_basis with one breadth-first tree search per non-tree edge: the
    same spanning tree, each cycle the non-tree edge u -> v closed by the
    tree path from v to u."""
    edges = sorted(graph.edge_pairs, key=lambda e: (-graph.conductance[e[0], e[1]], e))
    parent_uf = list(range(graph.n))

    def find(a: int) -> int:
        while parent_uf[a] != a:
            parent_uf[a] = parent_uf[parent_uf[a]]
            a = parent_uf[a]
        return a

    tree, nontree = [], []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            nontree.append((i, j))
        else:
            parent_uf[ri] = rj
            tree.append((i, j))
    tree.sort()
    nontree.sort()
    adj = [[] for _ in range(graph.n)]
    for i, j in tree:
        adj[i].append(j)
        adj[j].append(i)

    def tree_path(a: int, b: int) -> list:
        prev = {a: None}
        queue = [a]
        while queue:
            x = queue.pop(0)
            if x == b:
                break
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path[::-1]

    cycles = []
    for u, v in nontree:
        c = np.zeros((graph.n, graph.n), dtype=np.int64)
        c[u, v] += 1
        c[v, u] -= 1
        walk = tree_path(v, u)
        for a, b in zip(walk[:-1], walk[1:]):
            c[a, b] += 1
            c[b, a] -= 1
        cycles.append(c)
    return CycleBasis(graph, tuple(tree), tuple(nontree), tuple(cycles))


def mu_measure_report(delta_triangle: float):
    """check_mu_measure over the enumerated networks: per-network sums over
    enumerate_eulerian on each graph, then verify_poisson_convolution, which
    enumerates each graph again."""
    report = TestReport(name="mu-measure", conventions=dict(CONVENTIONS))
    report.meta.update({"check": 10, "delta_two_point": DELTA_TWO_POINT,
                        "delta_triangle": delta_triangle})
    try:
        kernel2 = build_kernel(two_point_graph())
        entries2 = enumerate_eulerian(kernel2, DELTA_TWO_POINT)
        mu_sum2 = sum(e.mu_mass for e in entries2 if e.network.total > 0)
        report.add_bound("two-point |sum mu - mass|", abs(mu_sum2 - kernel2.mu_mass), 1e-6,
                         note=f"{len(entries2)} networks enumerated")
        kernel3 = build_kernel(triangle_graph())
        entries3 = enumerate_eulerian(kernel3, delta_triangle)
        max_total = max(e.network.total for e in entries3)
        layer_mu = {}
        for e in entries3:
            if e.network.total > 0:
                layer_mu[e.network.total] = layer_mu.get(e.network.total, 0.0) + e.mu_mass
        eigs = kernel3.sym_eigs
        worst_layer = 0.0
        for m, s in sorted(layer_mu.items()):
            worst_layer = max(worst_layer, abs(s - float(np.sum(eigs**m)) / m))
        report.add_bound("triangle max |layer mu sum - trace term|", worst_layer, 1e-12,
                         note=f"layers 1..{max_total}")
        tail = float(np.sum(-np.log1p(-eigs)))
        for m, s in sorted(layer_mu.items()):
            tail -= float(np.sum(eigs**m)) / m
        mu_sum3 = sum(layer_mu.values()) + tail
        report.add_bound("triangle |sum mu + tail - mass|", abs(mu_sum3 - kernel3.mu_mass),
                         1e-6, note=f"{len(entries3)} networks, analytic tail {tail:.3e}")
        for label, kernel, delta in (("two-point", kernel2, DELTA_TWO_POINT),
                                     ("triangle", kernel3, delta_triangle)):
            for line in verify_poisson_convolution(kernel, delta).lines:
                line.statistic = f"{label} {line.statistic}"
                report.lines.append(line)
    except BudgetExceeded as exc:
        report.add_bound("enumerations past the |k| cap", 1.0, 0.0, note=str(exc))
    return report
