"""Small exact combinatorial kernels: permanents, alpha-permanents, tree and
arborescence counts.

Everything here enumerates or eliminates exactly; sizes are capped so a call
either finishes fast or raises TooLarge up front.
"""

from __future__ import annotations

import numpy as np

from .errors import BadExactInput, Disconnected, EmptyNetwork, NotSquare, TooLarge, _finite_real
from .graphs import WeightedGraph
from .network import Network

PERMANENT_CAP = 20
ALPHA_PERMANENT_CAP = 12
PERMANENT_CHUNK = 1 << 14  # column subsets per signed sum; the row-sum table holds half


def _square(a) -> np.ndarray:
    """The matrix as a float or complex array; BadExactInput unless it is a
    square array of numbers (NotSquare when only the shape is wrong)."""
    try:
        a = np.asarray(a)
        if a.dtype == object:  # numbers held as objects take their numeric dtype
            a = np.array(a.tolist())
    except (TypeError, ValueError) as exc:  # ragged rows
        raise BadExactInput(f"matrix must be a square array of numbers: {exc}") from None
    if a.dtype.kind not in "biufc":
        raise BadExactInput(f"matrix entries must be numbers, got dtype {a.dtype}")
    n = a.shape[0] if a.ndim else 0
    if a.shape != (n, n):
        raise NotSquare(f"matrix must be square, got shape {a.shape}")
    return a.astype(np.result_type(a, float))


def permanent(a) -> float | complex:
    """Permanent by Ryser's formula in O(2^n n) operations:

      per(A) = sum over column subsets S of (-1)^(n - |S|) prod_i sum_{j in S} a_ij.

    The row sums of every subset of the low columns, as many as a table of
    PERMANENT_CHUNK // 2 rows holds, are built once by doubling: column j is
    added to the sums of the 2^j subsets of the columns below it.  Each block
    of subsets that share their high columns adds those columns, one at a
    time, into one work buffer of the table's shape and writes its products
    into the terms in place, so a 16 x 16 call holds about 3 MB and makes no
    temporary per column.  Every row sum adds its columns in index order and
    the signed sum runs PERMANENT_CHUNK subsets at a time from subset 1,
    whatever the table's width, so the width moves no bit of the result.
    """
    a = _square(a)
    n = len(a)
    if n > PERMANENT_CAP:
        raise TooLarge(f"permanent limited to {PERMANENT_CAP}x{PERMANENT_CAP}, got n={n}")
    if n == 0:
        return 1.0
    low_n = min(n, (PERMANENT_CHUNK // 2).bit_length() - 1)
    low = np.zeros((n, 1 << low_n), dtype=a.dtype)  # low[i, S]: row i's sum over S
    signs = np.empty(1 << n)  # (-1)^(n - |S|), by the same doubling
    signs[0] = (-1.0) ** n
    for j in range(n):
        if j < low_n:
            low[:, 1 << j:2 << j] = low[:, :1 << j] + a[:, j, None]
        signs[1 << j:2 << j] = -signs[:1 << j]
    terms = np.empty(1 << n, dtype=a.dtype)
    work = np.empty_like(low)
    for lo in range(0, 1 << n, 1 << low_n):
        sums = low
        for j in range(low_n, n):
            if lo >> j & 1:
                sums = np.add(sums, a[:, j, None], out=work)
        np.prod(sums, axis=0, out=terms[lo:lo + (1 << low_n)])
    total = 0.0
    for lo in range(1, 1 << n, PERMANENT_CHUNK):  # the empty subset adds 0
        hi = lo + PERMANENT_CHUNK
        total += np.einsum("i,i->", signs[lo:hi], terms[lo:hi])  # a BLAS dot may thread
    return complex(total) if np.iscomplexobj(a) else float(total)


def alpha_permanent(a, alpha: float) -> float | complex:
    """Sum over permutations of alpha^(cycle count) times the matrix product.

    alpha = 1 gives the permanent, alpha = -1 gives (-1)^n det.  A permutation
    is a set of disjoint cycles, so the sum runs over set partitions of the
    rows, each block weighted alpha times the sum of its cyclic products
    (Bjorklund, Husfeldt, Kaski, Koivisto, "Fourier meets Mobius", STOC'07):

      * h[S], the cyclic products over S, from a Hamiltonian-path table g[S, v]
        of paths that start at min(S), visit all of S and end at v,
        O(2^n n^2);
      * f[S] = alpha * sum over T with min(S) in T of h[T] f[S - T], O(3^n),
        over a table of the (3^n - 1) / 2 pairs (S, T) held by |S|, so that
        n passes of one gather and one bincount fill f by popcount.
    """
    a = _square(a)
    n = len(a)
    if not _finite_real(alpha):
        raise BadExactInput(f"alpha must be a finite real number, got {alpha!r}")
    if n > ALPHA_PERMANENT_CAP:
        raise TooLarge(
            f"alpha-permanent limited to {ALPHA_PERMANENT_CAP}x{ALPHA_PERMANENT_CAP}, got n={n}"
        )
    if n == 0:
        return 1.0
    full = 1 << n
    masks = np.arange(full)
    bits = (masks[:, None] >> np.arange(n)) & 1
    low = masks & -masks
    low_index = np.log2(np.maximum(low, 1)).astype(np.intp)
    size = bits.sum(axis=1)
    above_low = (1 << np.arange(n))[None, :] > low[:, None]
    g = np.zeros((full, n), dtype=a.dtype)
    g[1 << np.arange(n), np.arange(n)] = 1.0
    for k in range(1, n):
        sets = masks[size == k]
        ext = g[sets] @ a  # ext[s, w]: paths over s extended by the step to w
        which, w = np.nonzero((bits[sets] == 0) & above_low[sets])
        g[sets[which] | (1 << w), w] = ext[which, w]
    h = np.einsum("sv,vs->s", g, a[:, low_index])  # close each path at min(S)
    # the pairs (S, T) by |S|: element j joins each pair outside S, in S - T
    # or in T, or starts S = T = {j}
    pair_s = [np.zeros(0, dtype=np.intp)] * (n + 1)
    pair_t = list(pair_s)
    for j in range(n):
        bit = 1 << j
        for p in range(j + 1, 1, -1):
            pair_s[p] = np.concatenate((pair_s[p], pair_s[p - 1] | bit, pair_s[p - 1] | bit))
            pair_t[p] = np.concatenate((pair_t[p], pair_t[p - 1], pair_t[p - 1] | bit))
        pair_s[1], pair_t[1] = np.append(pair_s[1], bit), np.append(pair_t[1], bit)
    f = np.zeros(full, dtype=a.dtype)
    f[0] = 1.0
    for s, t in zip(pair_s[1:], pair_t[1:]):
        terms = h[t] * f[s ^ t]
        sums = np.bincount(s, terms.real, minlength=full)
        if np.iscomplexobj(terms):
            sums = sums + 1j * np.bincount(s, terms.imag, minlength=full)
        f += alpha * sums
    total = f[-1]
    return complex(total) if np.iscomplexobj(a) else float(total)


def spanning_tree_weight_sum(graph: WeightedGraph) -> float:
    """Sum over spanning trees of the product of edge conductances.

    Matrix-tree: any principal minor of the conductance Laplacian.  A single
    vertex has the one empty tree, weight 1.
    """
    if not graph.is_connected():
        raise Disconnected("graph has no spanning tree")
    n = graph.n
    if n == 1:
        return 1.0
    deg = graph.conductance.sum(axis=1)
    lap = np.diag(deg) - graph.conductance
    sign, logabs = np.linalg.slogdet(lap[1:, 1:])
    if sign <= 0:
        raise Disconnected("conductance Laplacian minor is singular")
    return float(np.exp(logabs))


def _arborescence_counts(counts: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Arborescences toward roots[r] of the multigraph counts[r], for a stack
    (R, n, n), by one stacked directed matrix-tree determinant.  The minor
    keeps every vertex a crossing touches, in or out, except the root; each
    struck vertex gets a unit row.  A root off the support leaves the whole
    support Laplacian, whose rows sum to zero: count 0."""
    diag = np.arange(counts.shape[1])
    # einsum sums the short axes of a tall stack several times faster than sum
    out_deg = np.einsum("rxy->rx", counts)
    keep = (out_deg + np.einsum("ryx->rx", counts) > 0) & (diag != roots[:, None])
    # Laplacian for arborescences toward the root: out-degree on the diagonal
    lap = np.where(keep[:, :, None], 0.0 - counts, 0.0)
    lap[:, diag, diag] += np.where(keep, out_deg, 1.0)
    val = np.linalg.det(lap)
    tau = np.rint(val)
    if (np.abs(val - tau) > 1e-6 * np.maximum(1.0, np.abs(val))).any():
        raise ArithmeticError("an arborescence determinant is not close to an integer")
    return np.maximum(tau, 0.0)


def arborescence_count(network: Network, root) -> int:
    """Number of arborescences of the network's support digraph oriented
    toward the root, counted with edge multiplicity: the one-network view of
    the stacked matrix-tree kernel.  The network need not be balanced.
    Returns 0 when some support vertex cannot reach the root."""
    if network.total == 0:
        raise EmptyNetwork("cannot count arborescences of an empty network")
    root = network.graph.index(root)
    return int(_arborescence_counts(network.counts[None], np.array([root]))[0])
