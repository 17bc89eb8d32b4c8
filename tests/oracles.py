"""Brute-force references for the exact array kernels.

Both enumerate everything they sum over, so they are slow and only fit
small inputs; the tests compare the fast kernels against them.
"""

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
