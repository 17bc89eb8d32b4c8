"""Brute-force references for the exact array kernels.

Each enumerates everything it sums over, so they are slow and only fit
small inputs; the tests compare the fast kernels against them.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations

import numpy as np

from loopsoup import Network


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
