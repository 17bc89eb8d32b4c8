"""Exact laws of the random crossing network of a loop ensemble.

The crossing-count matrix N of a loop ensemble at intensity alpha has a fully
computable law on a transient chain:

  * moment generating functional  E[prod Z^N] = [det(I-P^Z)/det(I-P)]^(-alpha)
  * pointwise probabilities, two independent routes: the loop-measure
    Poisson series det(I-P)^alpha sum_j alpha^j/j! mu^(*j)(k) over the
    sub-circulations of k for general alpha, and a factorial formula at
    alpha = 1
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
from itertools import islice

import numpy as np

from .errors import (
    BadForm,
    BadMassBudget,
    BadPartition,
    BudgetExceeded,
    DisconnectedSupport,
    NotEulerian,
    SingularTwist,
    TooLarge,
    ZeroNetwork,
)
from .exact import _arborescence_counts
from .graphs import ChainKernel
from .network import Network

ALPHA_NETWORK_CAP = 8
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


def _generating_values(kernel: ChainKernel, z: np.ndarray, alpha: float) -> np.ndarray:
    """[det(I-P^Z)/det(I-P)]^(-alpha) for every modifier of a stack (..., n, n)
    of checked modifiers, by one stacked determinant call."""
    det_z = kernel.det_i_minus_pz(z)
    if (np.abs(det_z) < 1e-300).any():
        raise SingularTwist("det(I - P^Z) vanished; modifier outside the valid domain")
    ratio = det_z / kernel.det_i_minus_p
    # Hermitian |Z| <= 1 keeps the twisted energy matrix positive definite, so
    # the ratio is real positive up to rounding and takes the real power
    real = (ratio.real > 0) & (np.abs(ratio.imag) < 1e-9 * np.maximum(1.0, ratio.real))
    return np.where(real, np.abs(ratio.real) ** -alpha, ratio ** -alpha)


def generating_function(kernel: ChainKernel, z, alpha: float) -> complex:
    """E[prod_{x,y} Z_{x,y}^{N_{x,y}}] = [det(I-P^Z)/det(I-P)]^(-alpha): the
    one-modifier view of the stacked form the homology grid evaluates.

    For a Hermitian modifier with |Z| <= 1 the determinant ratio is a real
    number >= 1, so the value is real in (0, 1].  Raises BadForm for an
    invalid modifier, SingularTwist when det(I - P^Z) vanishes.
    """
    return complex(_generating_values(kernel, _as_modifier_array(kernel, z)[None], alpha)[0])


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


def _simple_cycles(graph, edges) -> np.ndarray:
    """Edge-count rows, over the given directed edges, of every simple
    directed cycle they carry up to the enumeration cap: 2-cycles
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
            elif y > path[0] and y not in path and len(path) < ENUMERATION_CAP:
                extend(path + [y])

    for start in range(graph.n):
        extend([start])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(edges))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order (first column most significant)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def _circulation_layers(graph, edges, cap=None):
    """Yield every balanced nonnegative count vector over the directed edges,
    layer m = 1, 2, ... of total m at a time, rows in lexicographic order;
    with a cap row, only the vectors at most cap edge by edge.

    A nonzero nonnegative circulation contains a simple directed cycle in its
    support, and removing that cycle leaves a smaller one.  So layer m is
    exactly the set of sums (layer m - L) + (simple cycle of length L), and
    the capped layers can drop every row past the cap as they grow.
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
        rows = _unique_rows(np.concatenate(parts)) if parts else layers[0][:0]
        if cap is not None:
            rows = rows[(rows <= cap).all(axis=1)]
        layers.append(rows)
        yield rows


def _count_matrices(n: int, edges, rows: np.ndarray) -> np.ndarray:
    """The (R, n, n) count matrices of R edge-count rows."""
    counts = np.zeros((len(rows), n, n), dtype=np.int64)
    counts[(slice(None), *np.array(edges, dtype=np.intp).reshape(-1, 2).T)] = rows
    return counts


def _layer_law(kernel: ChainKernel, edges, rows: np.ndarray):
    """alpha = 1 probability det(I-P) prod_x k_x! prod P^k / k! and one-loop
    measure tau(k) prod_x (k_x - 1)! prod P^k / k! of every balanced network
    of a stack of edge-count rows over the directed edges; tau counts the
    arborescences toward k's first support vertex.  mu_network_measure is
    its one-row view; exact_network_prob_alpha1 keeps a scalar probability."""
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    counts = _count_matrices(kernel.n, edges, rows)
    out_deg = counts.sum(axis=2)
    top = int(rows.sum(axis=1).max(initial=0))
    log_fact = np.array([math.lgamma(c + 1) for c in range(top + 1)])
    # log of prod_{xy} P^k / k!, shared by both laws
    log_weight = rows @ np.log(kernel.P[src, dst]) - log_fact[rows].sum(axis=1)
    prob = kernel.det_i_minus_p * np.exp(log_weight + log_fact[out_deg].sum(axis=1))
    tau = _arborescence_counts(counts, np.argmax(out_deg > 0, axis=1))
    mu = tau * np.exp(log_weight + log_fact[np.maximum(out_deg - 1, 0)].sum(axis=1))
    return prob, mu


@dataclass(frozen=True)
class NetworkLawEntry:
    network: Network
    probability: float
    mu_mass: float


def _check_delta(delta: float) -> None:
    if not 0 < delta <= 0.01:
        raise BadMassBudget(f"mass budget must be in (0, 0.01], got {delta}")


def _enumerate_layers(kernel: ChainKernel, delta: float) -> list:
    """(rows, probability, mu) of each layer 0, 1, ..., M of
    enumerate_eulerian; layer 0 holds the zero network."""
    _check_delta(delta)
    edges = _directed_edges(kernel.graph)
    layers = [(np.zeros((1, len(edges)), dtype=np.int64),
               np.array([kernel.det_i_minus_p]), np.zeros(1))]
    accum = kernel.det_i_minus_p
    grow = _circulation_layers(kernel.graph, edges)
    while accum < 1.0 - delta:
        if len(layers) > ENUMERATION_CAP:
            raise BudgetExceeded(
                f"accumulated probability {accum:.6g} < 1 - {delta:g} at |k| = {ENUMERATION_CAP}"
            )
        rows = next(grow)
        prob, mu = _layer_law(kernel, edges, rows)
        layers.append((rows, prob, mu))
        accum += float(prob.sum())
    return layers


def enumerate_eulerian(kernel: ChainKernel, delta: float) -> list:
    """Balanced networks in increasing |k|, complete layers, until the
    accumulated alpha = 1 probability reaches 1 - delta.

    Complete layers matter: they make truncated convolutions exact on the
    retained support.  Each layer grows from smaller ones by simple directed
    cycles, and its probabilities and loop measures come from array kernels.
    Raises BudgetExceeded if |k| would pass 20, TooLarge if one layer would
    build more than LAYER_CAP candidate counts.
    """
    graph = kernel.graph
    edges = _directed_edges(graph)
    return [
        NetworkLawEntry(Network(graph, c), p, m)
        for rows, prob, mu in _enumerate_layers(kernel, delta)
        for c, p, m in zip(_count_matrices(graph.n, edges, rows), prob.tolist(), mu.tolist())
    ]


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
    the row of _layer_law over the network's own nonzero edges.

    Zero when the support is disconnected (a single loop cannot split).
    """
    if k.total == 0:
        raise ZeroNetwork("the zero network carries no loop measure")
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    _, mu = _layer_law(kernel, np.argwhere(k.counts), k.counts[k.counts > 0][None])
    return float(mu[0])


def _row_keys(layers, max_total: int) -> list:
    """Exact int64 keys of the count rows, additive: key(a) + key(b) = key(a + b).

    The keys are base-B numbers with one digit per directed edge, the first
    edge most significant, so rows in lexicographic order have ascending keys.
    A single edge carries at most half of a circulation's total (every
    crossing x -> y is followed by one out of y along another edge), so
    B = max_total // 2 + 1 keeps every digit of every sum within the support's
    totals below B.  Raises TooLarge when B^E would not fit in an int64.
    """
    n_edges = layers[0].shape[1]
    base = max_total // 2 + 1
    if base**n_edges > 2**63:
        raise TooLarge(
            f"convolution keys need {base}^{n_edges} > 2^63 values; "
            f"{n_edges} directed edges at |k| <= {max_total} do not fit in int64"
        )
    weights = base ** np.arange(n_edges - 1, -1, -1, dtype=np.int64)
    return [rows @ weights for rows in layers]


def _poisson_series(keys, mu, alpha: float) -> list:
    """sum_j alpha^j / j! mu^(*j), the loop-measure Poisson series, on a
    support held layer by layer: keys[m] are the sorted additive keys of the
    networks of total m (layer 0 holds the zero network) and mu[m] their
    one-loop measures (mu[0] is not read).

    Each convolution power adds the keys of one layer pair at a time and
    finds the sums by binary search in the layer of their total; sums off the
    support are dropped.  So every value is exact when the support holds,
    with each network, all the networks below it.
    """
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


def exact_network_prob_alpha(kernel: ChainKernel, k: Network, alpha: float) -> float:
    """P(N = k) at general alpha: det(I-P)^alpha sum_j alpha^j / j! mu^(*j)(k).

    At intensity alpha the crossing network is a Poisson superposition of
    one-loop networks of intensity alpha mu, so only the sub-circulations of
    k enter the series.  They are grown from the simple cycles of k's
    support edges, keyed over those edges alone, and their loop measures
    come from one layer-law call.
    """
    if not k.is_eulerian():
        raise NotEulerian("network is not balanced")
    if k.total > ALPHA_NETWORK_CAP:
        raise TooLarge(
            f"general-alpha probability limited to |k| <= {ALPHA_NETWORK_CAP}, got {k.total}"
        )
    edges = [(int(x), int(y)) for x, y in zip(*np.nonzero(k.counts))]
    cap = k.counts[k.counts > 0]
    layers = [np.zeros((1, len(edges)), dtype=np.int64)]
    layers += islice(_circulation_layers(k.graph, edges, cap), k.total)
    if len(layers[-1]) != 1:  # the rows up to k of total |k| can only be k
        raise ArithmeticError("the network is not a sum of simple cycles of its support")
    _, mu = _layer_law(kernel, edges, np.concatenate(layers))
    sizes = np.cumsum([len(rows) for rows in layers])[:-1]
    series = _poisson_series(_row_keys(layers, k.total), np.split(mu, sizes), alpha)
    return float(kernel.det_i_minus_p**alpha * series[-1][0])


def verify_poisson_convolution(kernel: ChainKernel, delta: float):
    """Rebuild the alpha = 1 network law as det(I-P) * sum_j mu^(*j) / j!.

    Convolution runs over the truncated support; complete layers make every
    retained value exact, so the comparison is a pure identity check.
    Returns a TestReport.
    """
    from .reports import TestReport

    layers = _enumerate_layers(kernel, delta)
    report = TestReport(name="poisson-convolution")
    report.meta["support_size"] = sum(len(rows) for rows, _, _ in layers)
    report.meta["delta"] = delta
    keys = _row_keys([rows for rows, _, _ in layers], len(layers) - 1)
    reconstructed = _poisson_series(keys, [mu for _, _, mu in layers], 1.0)
    max_err = max(
        float(np.max(np.abs(kernel.det_i_minus_p * rec - prob)))
        for rec, (_, prob, _) in zip(reconstructed, layers) if len(prob)
    )
    report.add_bound("max_abs_reconstruction_error", max_err, 1e-6)
    report.add_info("truncated_mu_mass", float(sum(mu.sum() for _, _, mu in layers[1:])),
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
