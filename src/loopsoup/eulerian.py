"""Exact laws of the random crossing network of a loop ensemble.

The crossing-count matrix N of a loop ensemble at intensity alpha has a fully
computable law on a transient chain:

  * moment generating functional  E[prod Z^N] = [det(I-P^Z)/det(I-P)]^(-alpha)
  * pointwise probabilities, two independent routes: the coefficient
    det(I-P)^alpha [z^k] det(I-P^Z)^(-alpha) for general alpha, by a power
    recurrence over the cycle covers of the determinant and the
    sub-circulations of k, and a factorial formula at alpha = 1
  * the one-loop measure mu(k) via arborescence counts, whose Poisson
    exponential also reconstructs the alpha = 1 law layer by layer
  * rooted tour counts of a network (arborescences times factorials)
  * max flow across the network digraph

All enumeration is graded by the total crossing count |k| and hard-capped, so
calls either finish quickly or raise BudgetExceeded/TooLarge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import (
    BadForm,
    BadIntensity,
    BadMassBudget,
    BadPartition,
    BudgetExceeded,
    DisconnectedSupport,
    NotEulerian,
    SingularTwist,
    TooLarge,
    ZeroNetwork,
    _check_alpha,
)
from .exact import _arborescence_counts
from .graphs import ChainKernel
from .network import Network, _row_codes

ALPHA_NETWORK_CAP = 27
ENUMERATION_CAP = 20
LAYER_CAP = 1 << 23  # edge counts in the candidate rows of one layer (64 MB)
CONVOLUTION_CHUNK = 1 << 16  # key sums held at once


@dataclass(frozen=True)
class ModifierMatrix:
    """Hermitian edge modifier Z with |Z_{x,y}| <= 1, multiplying P entrywise.

    The diagonal never matters (P has zero diagonal); it is forced to 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.entries, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise BadForm(f"modifier must be square, got shape {z.shape}")
        if not np.allclose(z, z.conj().T, atol=1e-12, rtol=0.0):
            raise BadForm("modifier must be Hermitian")
        if (np.abs(z) > 1.0 + 1e-12).any():
            raise BadForm("modifier entries must have modulus <= 1")
        z = z.copy()
        np.fill_diagonal(z, 1.0)
        z.setflags(write=False)
        object.__setattr__(self, "entries", z)

    @classmethod
    def from_edge_value(cls, n: int, i: int, j: int, value: complex) -> "ModifierMatrix":
        """All-ones modifier with value at (i, j) and its conjugate at (j, i)."""
        z = np.ones((n, n), dtype=complex)
        z[i, j] = value
        z[j, i] = np.conj(value)
        return cls(z)


def _as_modifier_array(kernel: ChainKernel, z) -> np.ndarray:
    if isinstance(z, ModifierMatrix):
        arr = z.entries
    else:
        arr = ModifierMatrix(np.asarray(z, dtype=complex)).entries
    if arr.shape != (kernel.n, kernel.n):
        raise BadForm(f"modifier must be {kernel.n}x{kernel.n}, got {arr.shape}")
    return arr


def _ratio_power(ratio: np.ndarray, alpha: float) -> np.ndarray:
    """ratio^(-alpha) for a complex array of twisted determinant ratios,
    written into ratio."""
    # Hermitian |Z| <= 1 keeps the twisted energy matrix positive definite, so
    # the ratio is real positive up to rounding and takes the real power
    # (the complex power is taken only on the points that are not)
    twisted = ~((ratio.real > 0)
                & (np.abs(ratio.imag) < 1e-9 * np.maximum(1.0, ratio.real)))
    complex_power = ratio[twisted] ** -alpha
    ratio[...] = np.abs(ratio.real) ** -alpha
    ratio[twisted] = complex_power
    return ratio


def generating_function(kernel: ChainKernel, z, alpha: float) -> complex:
    """E[prod_{x,y} Z_{x,y}^{N_{x,y}}] = [det(I-P^Z)/det(I-P)]^(-alpha), by
    the power the homology grid applies to its ratios too.

    For a Hermitian modifier with |Z| <= 1 the determinant ratio is a real
    number >= 1, so the value is real in (0, 1].  Raises BadForm for an
    invalid modifier, SingularTwist when det(I - P^Z) vanishes, BadIntensity
    unless alpha is finite and above 0.
    """
    _check_alpha(alpha)
    det_z = kernel.det_i_minus_pz(_as_modifier_array(kernel, z)[None])
    if (np.abs(det_z) < 1e-300).any():
        raise SingularTwist("det(I - P^Z) vanished; modifier outside the valid domain")
    return complex(_ratio_power(det_z / kernel.det_i_minus_p, alpha)[0])


def exact_network_prob_alpha1(kernel: ChainKernel, k: Network) -> float:
    """P(N = k) at alpha = 1: det(I-P) (prod_x k_x!) / (prod_{xy} k_{xy}!) prod P^k."""
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    counts = k.counts
    log_p = 0.0
    for x, y in zip(*np.nonzero(counts)):
        c = int(counts[x, y])
        log_p += c * math.log(kernel.P[x, y]) - math.lgamma(c + 1)
    for kx in k.out_degrees:
        if kx > 0:
            log_p += math.lgamma(int(kx) + 1)
    return float(kernel.det_i_minus_p * math.exp(log_p))


def _directed_edges(graph):
    edges = []
    for i, j in graph.edge_pairs:
        edges.append((i, j))
        edges.append((j, i))
    return edges


def _simple_cycles(graph, edges, max_length: int = ENUMERATION_CAP) -> np.ndarray:
    """Edge-count rows, over the given directed edges, of every simple
    directed cycle they carry of at most max_length edges: 2-cycles
    x -> y -> x included, each cycle once, from its smallest vertex."""
    index = {edge: pos for pos, edge in enumerate(edges)}
    adj = [[] for _ in range(graph.n)]
    for x, y in sorted(edges):
        adj[x].append(y)
    rows = []

    def extend(path: list) -> None:
        for y in adj[path[-1]]:
            if y == path[0] and len(path) >= 2:
                row = np.zeros(len(edges), dtype=np.int64)
                row[[index[e] for e in zip(path, path[1:] + path[:1])]] = 1
                rows.append(row)
            elif y > path[0] and y not in path and len(path) < max_length:
                extend(path + [y])

    for start in range(graph.n):
        extend([start])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(edges))


def _circulation_layers(graph, edges):
    """Yield every balanced nonnegative count vector over the directed edges,
    layer m = 1, 2, ... of total m at a time, rows in lexicographic order.

    A nonzero nonnegative circulation contains a simple directed cycle in its
    support, and removing that cycle leaves a smaller one.  So layer m is
    exactly the set of sums (layer m - L) + (simple cycle of length L).  The
    sums are deduplicated by their row codes, which sort like the rows and
    are ranked rather than overflow on wide layers; the LAYER_CAP check comes
    before any sum is built.  It serves _enumerate_layers and check 3.
    """
    cycles = _simple_cycles(graph, edges)
    lengths = cycles.sum(axis=1)
    by_length = [(int(length), cycles[lengths == length]) for length in np.unique(lengths)]
    layers = [np.zeros((1, len(edges)), dtype=np.int64)]
    while True:
        m = len(layers)
        sources = [(layers[m - length], group) for length, group in by_length
                   if length <= m and len(layers[m - length])]
        entries = sum(len(base) * len(group) for base, group in sources) * len(edges)
        if entries > LAYER_CAP:
            raise TooLarge(f"layer {m} would build {entries} > {LAYER_CAP} candidate counts")
        parts = [(base[:, None, :] + group[None, :, :]).reshape(-1, len(edges))
                 for base, group in sources]
        if parts:
            candidates = np.concatenate(parts)
            rows = candidates[np.unique(_row_codes(candidates), return_index=True)[1]]
        else:
            rows = layers[0][:0]
        layers.append(rows)
        yield rows


def _sub_circulations(counts: np.ndarray) -> tuple:
    """The rows of _circulation_layers up to k over k's support edges
    (np.nonzero order), layer 0 included, and each layer's size, from the box
    0 <= r <= k alone.  The box grows one edge, one digit, at a time, the
    first edge most significant, and drops a prefix once the later edges can
    no longer cancel its excess of out over in crossings at some vertex; a
    stable sort by total splits the balanced rows left into layers."""
    n, (src, dst) = len(counts), np.nonzero(counts)
    out_left, in_left = counts.sum(axis=1).tolist(), counts.sum(axis=0).tolist()
    state = np.zeros((1, n + len(src)), dtype=np.int64)  # excess by vertex, then digits
    for e, (x, y, c) in enumerate(zip(src.tolist(), dst.tolist(), counts[src, dst].tolist())):
        if len(state) * (c + 1) * state.shape[1] > LAYER_CAP:
            raise TooLarge(f"edge {e} of the box would hold more than {LAYER_CAP} counts")
        state = np.repeat(state, c + 1, axis=0).reshape(len(state), c + 1, -1)
        state[:, :, [x, y, n + e]] += np.arange(c + 1)[:, None] * [1, -1, 1]  # out, in, digit
        state = state.reshape(-1, state.shape[2])
        out_left[x] -= c
        in_left[y] -= c
        state = state[(-out_left[x] <= state[:, x]) & (state[:, x] <= in_left[x])
                      & (-out_left[y] <= state[:, y]) & (state[:, y] <= in_left[y])]
    totals = state[:, n:].sum(axis=1)
    sizes = np.bincount(totals, minlength=counts.sum() + 1)
    return state[np.argsort(totals, kind="stable"), n:], sizes


def _count_matrices(n: int, edges, rows: np.ndarray) -> np.ndarray:
    """The (R, n, n) count matrices of R edge-count rows."""
    counts = np.zeros((len(rows), n, n), dtype=np.int64)
    counts[(slice(None), *np.array(edges, dtype=np.intp).reshape(-1, 2).T)] = rows
    return counts


def _row_terms(kernel: ChainKernel, edges, rows: np.ndarray) -> tuple:
    """The terms both network laws read, for a stack of edge-count rows over
    the directed edges: log prod_{xy} P^k / k! of each row, its out-degrees,
    and the table of log c! up to the largest out-degree (no count exceeds
    its source's out-degree)."""
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    out_deg = rows @ (src[:, None] == np.arange(kernel.n))
    log_fact = np.array([math.lgamma(c + 1) for c in range(int(out_deg.max(initial=0)) + 1)])
    return rows @ np.log(kernel.P[src, dst]) - log_fact[rows].sum(axis=1), out_deg, log_fact


def _alpha1_law(kernel: ChainKernel, log_weight, out_deg, log_fact) -> np.ndarray:
    """alpha = 1 probability det(I-P) prod_x k_x! prod P^k / k! of every
    balanced network of a stack, from its _row_terms.
    exact_network_prob_alpha1 keeps a scalar form of it."""
    return kernel.det_i_minus_p * np.exp(log_weight + log_fact[out_deg].sum(axis=1))


def _loop_measure(counts: np.ndarray, log_weight, out_deg, log_fact) -> np.ndarray:
    """One-loop measure tau(k) prod_x (k_x - 1)! prod P^k / k! of every
    nonzero balanced network of a stack, from its count matrices and its
    _row_terms; tau counts the arborescences toward k's first support
    vertex, by one stacked determinant call."""
    tau = _arborescence_counts(counts, np.argmax(out_deg > 0, axis=1))
    return tau * np.exp(log_weight + log_fact[np.maximum(out_deg - 1, 0)].sum(axis=1))


class NetworkLawEntry(NamedTuple):
    network: Network
    probability: float
    mu_mass: float


def _check_delta(delta: float) -> None:
    if not (isinstance(delta, Real) and 0 < delta <= 0.01):
        raise BadMassBudget(f"mass budget must be in (0, 0.01], got {delta!r}")


def _enumerate_layers(kernel: ChainKernel, delta: float) -> list:
    """(rows, count matrices, probability, mu) of each layer 0, 1, ..., M of
    enumerate_eulerian; layer 0 holds the zero network, whose mu is 0.

    Each layer's row terms and alpha = 1 probabilities come as the layer is
    added, since the running sum of the probabilities decides when to stop.
    Then the count matrices come once for the rows of all layers, and the
    loop measure from those and the layers' row terms, in one stacked
    determinant call; both are split back by layer.  The stacked minors are
    a float temporary the size of the count matrices returned."""
    _check_delta(delta)
    edges = _directed_edges(kernel.graph)
    rows = [np.zeros((1, len(edges)), dtype=np.int64)]
    terms = [_row_terms(kernel, edges, rows[0])]
    probs = [np.array([kernel.det_i_minus_p])]
    accum = kernel.det_i_minus_p
    grow = _circulation_layers(kernel.graph, edges)
    while accum < 1.0 - delta:
        if len(rows) > ENUMERATION_CAP:
            raise BudgetExceeded(
                f"accumulated probability {accum:.6g} < 1 - {delta:g} at |k| = {ENUMERATION_CAP}"
            )
        rows.append(next(grow))
        terms.append(_row_terms(kernel, edges, rows[-1]))
        probs.append(_alpha1_law(kernel, *terms[-1]))
        accum += float(probs[-1].sum())
    counts = _count_matrices(kernel.n, edges, np.concatenate(rows))
    log_weight, out_deg, log_facts = zip(*terms)
    log_weight, out_deg = np.concatenate(log_weight), np.concatenate(out_deg)
    mu = np.zeros(len(counts))
    # every log-factorial table is a prefix of the longest
    mu[1:] = _loop_measure(counts[1:], log_weight[1:], out_deg[1:], max(log_facts, key=len))
    bounds = np.cumsum([len(r) for r in rows[:-1]])
    return list(zip(rows, np.split(counts, bounds), probs, np.split(mu, bounds)))


def enumerate_eulerian(kernel: ChainKernel, delta: float) -> list:
    """Balanced networks in increasing |k|, complete layers, until the
    accumulated alpha = 1 probability reaches 1 - delta.

    Complete layers matter: they make truncated convolutions exact on the
    retained support.  Each layer grows from smaller ones by simple directed
    cycles, deduplicated by row code; its probabilities come from array
    kernels as it is added, and after the stop rule the loop measures of all
    layers come from one stacked determinant call and all the count matrices
    are checked as one Network.stack.
    Raises BudgetExceeded if |k| would pass 20, TooLarge if one layer would
    build more than LAYER_CAP candidate counts.
    """
    layers = _enumerate_layers(kernel, delta)
    nets = Network.stack(kernel.graph, np.concatenate([counts for _, counts, _, _ in layers]))
    probs = np.concatenate([prob for _, _, prob, _ in layers]).tolist()
    mus = np.concatenate([mu for _, _, _, mu in layers]).tolist()
    return [NetworkLawEntry(*entry) for entry in zip(nets, probs, mus)]


def best_tour_count(k: Network) -> int:
    """Rooted Eulerian tour count: |k| * arborescences * prod_x (k_x - 1)!.

    Root-independence of the arborescence count is asserted, not assumed.
    """
    if k.total == 0:
        raise ZeroNetwork("the zero network has no tours")
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    sup = k.support
    # one matrix-tree determinant per support root, in one stacked call
    taus = _arborescence_counts(np.broadcast_to(k.counts, (len(sup), *k.counts.shape)), sup)
    if (taus != taus[0]).any():
        raise ArithmeticError(f"arborescence count varies with root: {taus.tolist()}")
    if taus[0] == 0:  # balanced: the support is connected iff a root has a tree
        raise DisconnectedSupport("network support is not connected")
    count = k.total * int(taus[0])
    for x in sup:
        count *= math.factorial(int(k.out_degrees[x]) - 1)
    return int(count)


def mu_network_measure(kernel: ChainKernel, k: Network) -> float:
    """One-loop measure of a network: tau(k) prod_x (k_x-1)! prod_{xy} P^k / k!,
    the row of _loop_measure over the network's own nonzero edges.

    Zero when the support is disconnected (a single loop cannot split).
    """
    if k.total == 0:
        raise ZeroNetwork("the zero network carries no loop measure")
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    terms = _row_terms(kernel, np.argwhere(k.counts), k.counts[k.counts > 0][None])
    return float(_loop_measure(k.counts[None], *terms)[0])


def _key_weights(radices) -> np.ndarray:
    """Weights w of int64 keys rows @ w of count rows with digit e below
    radices[e]: mixed-radix numbers, the first edge most significant, so
    lexicographic order is key order, and additive while every digit of a
    sum stays below its radix.  Edge e weighs the product of the later
    radices, in Python ints; TooLarge when the keys need over 2^63 values."""
    weights, values = [], 1
    for radix in reversed(radices):
        weights.append(values)
        values *= int(radix)
    if values > 2**63:
        raise TooLarge(f"count-row keys need {values} > 2^63 values; "
                       f"{len(weights)} directed edges do not fit in int64")
    return np.array(weights[::-1], dtype=np.int64)


def _poisson_series(keys, mu, alpha: float) -> list:
    """F = sum_j alpha^j / j! mu^(*j), the loop-measure Poisson series, on a
    support held layer by layer: keys[m] are the sorted additive keys of the
    networks of total m (layer 0 holds the zero network) and mu[m] their
    one-loop measures (mu[0] is not read).  It serves check 10 and
    verify_poisson_convolution, which rebuild the alpha = 1 law from mu.

    F = exp(alpha mu) obeys |m| F(m) = alpha sum over nonzero j <= m of
    |j| mu(j) F(m - j), J.C.P. Miller's power recurrence (Henrici, Applied
    and Computational Complex Analysis I, 1.6), so the layers fill in
    increasing total, one pass over the layer pairs; nonzero networks have
    |k| >= 2.  Each pair adds the keys of its two layers and finds the sums
    by binary search in the layer of their total; sums off the support are
    dropped.  So every value is exact when the support holds, with each
    network, all the networks below it.
    """
    series = [np.zeros(len(k)) for k in keys]
    series[0][0] = 1.0
    weights = {total: total * mu[total] for total in range(2, len(keys))}
    for total in range(2, len(keys)):
        target, value = keys[total], series[total]
        if not len(target):
            continue
        for total_b in range(2, total + 1):
            keys_a, val_a = keys[total - total_b], series[total - total_b]
            keys_b, weight_b = keys[total_b], weights[total_b]
            if not len(keys_b):
                continue
            step = max(1, CONVOLUTION_CHUNK // len(keys_b))
            for lo in range(0, len(keys_a), step):
                sums = (keys_a[lo:lo + step, None] + keys_b[None, :]).ravel()
                pos = np.minimum(np.searchsorted(target, sums), len(target) - 1)
                found = target[pos] == sums
                terms = (val_a[lo:lo + step, None] * weight_b[None, :]).ravel()
                value += np.bincount(pos[found], weights=terms[found], minlength=len(target))
        value *= alpha / total
    return series


def _cycle_covers(kernel: ChainKernel, edges) -> tuple:
    """Edge rows over the given directed edges and coefficients of the
    nonconstant monomials of det(I - P^Z) restricted to those edges.

    A term of the determinant takes one entry per row, so each monomial is a
    collection C of vertex-disjoint simple directed cycles, with coefficient
    (-1)^|C| prod_{e in C} P_e (Zeilberger, "A combinatorial approach to
    matrix algebra", Discrete Math. 56, 1985); disjoint cycles share no edge,
    so every row is 0/1.  A simple cycle has at most as many edges as the
    given ones, so no cycle is cut.
    """
    cycles = _simple_cycles(kernel.graph, edges, len(edges)).tolist()
    weight = [kernel.P[x, y] for x, y in edges]
    vertex_sets = [sum(1 << x for (x, _), c in zip(edges, row) if c) for row in cycles]
    cycle_coef = [-math.prod(p for p, c in zip(weight, row) if c) for row in cycles]
    rows, coefs = [], []

    def grow(first: int, used: int, row: list, coef: float) -> None:
        for i in range(first, len(cycles)):
            if not vertex_sets[i] & used:
                rows.append([a + b for a, b in zip(row, cycles[i])])
                coefs.append(coef * cycle_coef[i])
                grow(i + 1, used | vertex_sets[i], rows[-1], coefs[-1])

    grow(0, 0, [0] * len(edges), 1.0)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(edges)), np.array(coefs)


def exact_network_prob_alpha(kernel: ChainKernel, k: Network, alpha: float) -> float:
    """P(N = k) at general alpha: det(I-P)^alpha [z^k] det(I - P^Z)^(-alpha),
    the coefficient of the paper's generating function.

    F = D^(-alpha) for D(z) = det(I - P^Z) obeys J.C.P. Miller's power
    recurrence |r| F(r) = -sum over nonzero monomials m <= r of D_m (|r| -
    |m| + alpha |m|) F(r - m) (Henrici, Applied and Computational Complex
    Analysis I, 1.6), so only the sub-circulations r of k enter: the box of
    count vectors up to k over k's support edges, filled layer by layer in
    increasing total, and D's monomials over those edges, its cycle covers.
    Each r - m with r >= m digit by digit is found by its additive key, a
    mixed-radix number with digit r_e < k_e + 1 per support edge, the first
    edge most significant; the keys of the box are below prod (k_e + 1) <=
    2^|k|.  Raises BadIntensity unless alpha is finite and above 0 or when
    the series or its product with det(I-P)^alpha overflows, TooLarge
    past ALPHA_NETWORK_CAP = 27 (K4 networks at the cap: about 0.03 s) or for
    a box step past LAYER_CAP counts, both before the cover search.

    The |k| cap guards what LAYER_CAP does not: the int64 masks 1 << e need
    at most 63 support edges, and a long cycle has a small box (a directed
    ring of 70 edges holds 2 rows), so LAYER_CAP alone would let it reach them.
    """
    _check_alpha(alpha)
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    if k.total > ALPHA_NETWORK_CAP:
        raise TooLarge(
            f"general-alpha probability limited to |k| <= {ALPHA_NETWORK_CAP}, got {k.total}"
        )
    edges = [(int(x), int(y)) for x, y in zip(*np.nonzero(k.counts))]
    top = k.counts[k.counts > 0]
    weights = _key_weights(top + 1)
    rows, sizes = _sub_circulations(k.counts)
    if sizes[-1] != 1 or not np.array_equal(rows[-1], top):
        raise ArithmeticError("the sub-circulations of total |k| are not exactly k")
    covers, coef = _cycle_covers(kernel, edges)
    # covers are 0/1, so r >= m digit by digit when r's support bits hold m's
    bits = 1 << np.arange(len(edges), dtype=np.int64)
    cover_bits = covers @ bits
    r, m = np.nonzero(((rows > 0) @ bits)[:, None] & cover_bits == cover_bits)
    keys, size, total = rows @ weights, covers.sum(axis=1)[m], rows.sum(axis=1)[r]
    order = np.argsort(keys)
    below = order[keys[order].searchsorted(keys[r] - (covers @ weights)[m])]
    bounds = np.cumsum(sizes).tolist()
    pair_bounds = r.searchsorted(bounds).tolist()
    series = np.zeros(len(rows))
    series[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        factor = coef[m] * (total - size + alpha * size) / -total
        # np.nonzero lists the pairs by row, so each layer's pairs form one run
        for layer in range(2, len(sizes)):
            lo, hi = pair_bounds[layer - 1], pair_bounds[layer]
            series[bounds[layer - 1]:bounds[layer]] = np.bincount(
                r[lo:hi] - bounds[layer - 1], weights=factor[lo:hi] * series[below[lo:hi]],
                minlength=sizes[layer])
    prob = kernel.det_i_minus_p**alpha * float(series[-1])
    if not math.isfinite(prob):
        raise BadIntensity(f"intensity {alpha} overflows the series of the network law")
    return prob


def verify_poisson_convolution(kernel: ChainKernel, delta: float):
    """Rebuild the alpha = 1 network law as det(I-P) * sum_j mu^(*j) / j!.

    Convolution runs over the truncated support; complete layers make every
    retained value exact, so the comparison is a pure identity check.
    Returns a TestReport.
    """
    return _convolution_report(kernel, _enumerate_layers(kernel, delta), delta)


def _convolution_report(kernel: ChainKernel, layers: list, delta: float):
    """verify_poisson_convolution's report from the layers of _enumerate_layers."""
    from .reports import TestReport

    report = TestReport(name="poisson-convolution")
    report.meta["support_size"] = sum(len(rows) for rows, _, _, _ in layers)
    report.meta["delta"] = delta
    # an edge carries at most half of a circulation's total (every crossing
    # x -> y is followed by one out of y along another edge), so radix
    # |k| // 2 + 1 keeps every digit of every sum within the support below it
    weights = _key_weights([(len(layers) - 1) // 2 + 1] * layers[0][0].shape[1])
    keys = [rows @ weights for rows, _, _, _ in layers]
    reconstructed = _poisson_series(keys, [mu for _, _, _, mu in layers], 1.0)
    max_err = max(
        float(np.max(np.abs(kernel.det_i_minus_p * rec - prob)))
        for rec, (_, _, prob, _) in zip(reconstructed, layers) if len(prob)
    )
    report.add_bound("max_abs_reconstruction_error", max_err, 1e-6)
    report.add_info("truncated_mu_mass", float(sum(mu.sum() for _, _, _, mu in layers[1:])),
                    note="sum over retained nonzero networks")
    report.add_info("total_mu_mass", kernel.mu_mass)
    return report


def max_flow(k: Network, sources, sinks) -> int:
    """Max integer flow from sources to sinks with capacity k_{xy} per edge."""
    graph = k.graph
    a = {graph.index(v) for v in sources}
    b = {graph.index(v) for v in sinks}
    if not a or not b:
        raise BadPartition("source and sink sets must be nonempty")
    if a & b:
        raise BadPartition("source and sink sets must be disjoint")
    n = graph.n
    size = n + 2
    s, t = n, n + 1
    cap = np.zeros((size, size), dtype=np.int64)
    cap[:n, :n] = k.counts
    inf = int(k.counts.sum()) + 1
    for x in a:
        cap[s, x] = inf
    for x in b:
        cap[x, t] = inf
    flow = 0
    while True:
        # BFS for a shortest augmenting path
        parent = [-1] * size
        parent[s] = s
        queue = [s]
        while queue and parent[t] == -1:
            u = queue.pop(0)
            for v in range(size):
                if parent[v] == -1 and cap[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[t] == -1:
            return int(flow)
        bottleneck = inf
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, int(cap[u, v]))
            v = u
        v = t
        while v != s:
            u = parent[v]
            cap[u, v] -= bottleneck
            cap[v, u] += bottleneck
            v = u
        flow += bottleneck
