"""Cycle space of the graph, the torus volume, and the law of the random
homology class of a loop ensemble.

The cycle basis comes from a deterministic spanning tree: one oriented cycle
per non-tree edge.  A balanced network's class is read off its antisymmetric
part.  The class law is recovered by evaluating the crossing-count generating
functional at unit-modulus twists of the non-tree edges on a uniform grid of
the dual torus and inverting with a discrete Fourier transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    BadExactInput,
    BadGrid,
    Disconnected,
    EmptyBasis,
    GridTooCoarse,
    MismatchBeyondTolerance,
    NonIntegral,
    NotEulerian,
    TooLarge,
    _check_alpha,
)
from .eulerian import _generating_values
from .exact import spanning_tree_weight_sum
from .graphs import ChainKernel, WeightedGraph
from .network import Network

VOLUME_TOL = 1e-10
GRID_CAP = 512
DIM_CAP = 3
SLAB_POINTS = 1024  # grid points per stacked determinant call


@dataclass(frozen=True)
class CycleBasis:
    """Spanning tree plus one oriented fundamental cycle per non-tree edge."""

    graph: WeightedGraph
    tree_edges: tuple
    nontree_edges: tuple
    cycles: tuple

    @property
    def n(self) -> int:
        return len(self.cycles)


def cycle_basis(graph: WeightedGraph) -> CycleBasis:
    """Deterministic spanning tree (heaviest conductance first, index
    tie-break), cycles oriented along the non-tree edge u -> v with u < v."""
    if not graph.is_connected():
        raise Disconnected("graph has no spanning tree")
    edges = sorted(graph.edge_pairs, key=lambda e: (-graph.conductance[e[0], e[1]], e))
    parent_uf = list(range(graph.n))

    def find(a: int) -> int:
        while parent_uf[a] != a:
            parent_uf[a] = parent_uf[parent_uf[a]]
            a = parent_uf[a]
        return a

    tree = []
    nontree = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            nontree.append((i, j))
        else:
            parent_uf[ri] = rj
            tree.append((i, j))
    tree.sort()
    nontree.sort()

    adj: list = [[] for _ in range(graph.n)]
    for i, j in tree:
        adj[i].append(j)
        adj[j].append(i)

    def tree_path(a: int, b: int) -> list:
        # BFS from a toward b along tree edges
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
        path.reverse()
        return path

    cycles = []
    for u, v in nontree:
        c = np.zeros((graph.n, graph.n), dtype=np.int64)
        c[u, v] += 1
        c[v, u] -= 1
        walk = tree_path(v, u)
        for a, b in zip(walk[:-1], walk[1:]):
            c[a, b] += 1
            c[b, a] -= 1
        if c.sum(axis=1).any():
            raise ArithmeticError("fundamental cycle has nonzero divergence")
        c.setflags(write=False)
        cycles.append(c)
    return CycleBasis(graph, tuple(tree), tuple(nontree), tuple(cycles))


@dataclass(frozen=True)
class HomologyClass:
    coords: tuple


def _class_coords(counts: np.ndarray, basis: CycleBasis) -> np.ndarray:
    """Cycle-basis coordinates of a stack of count matrices, shape (R, n, n)
    in, (R, basis.n) out: the crossing flow at each non-tree edge.

    The crossing flow k_{xy} - k_{yx} of a balanced network is an integer
    circulation, hence an exact integer combination of the fundamental
    cycles; the residual is asserted to vanish.
    """
    if (counts.sum(axis=2) != counts.sum(axis=1)).any():
        raise NotEulerian("network is not balanced")
    flow = counts - counts.transpose(0, 2, 1)
    u, v = np.array(basis.nontree_edges, dtype=np.intp).reshape(-1, 2).T
    coords = flow[:, u, v]
    cycles = np.array(basis.cycles, dtype=np.int64).reshape(-1, *flow.shape[1:])
    if (flow - np.tensordot(coords, cycles, axes=1)).any():
        raise NonIntegral("crossing flow is not an integer span of the cycle basis")
    return coords


def network_homology_class(k: Network, basis: CycleBasis) -> HomologyClass:
    """Coordinates of the antisymmetric part of k in the cycle basis: the
    one-network view of the stacked pass above."""
    return HomologyClass(tuple(_class_coords(k.counts[None], basis)[0].tolist()))


def intersection_matrix(basis: CycleBasis, graph: WeightedGraph) -> np.ndarray:
    """Gram matrix of the cycle basis under the edge inner product 1/C_e."""
    if basis.n == 0:
        raise EmptyBasis("graph has no independent cycles")
    lam = np.zeros((basis.n, basis.n))
    for i in range(basis.n):
        for j in range(basis.n):
            s = 0.0
            for u, v in graph.edge_pairs:
                s += basis.cycles[i][u, v] * basis.cycles[j][u, v] / graph.conductance[u, v]
            lam[i, j] = s
    return lam


@dataclass(frozen=True)
class JacobianVolume:
    value: float
    via_intersection: float
    via_trees: float
    degenerate: bool
    tree_weight: float


def jacobian_volume(graph: WeightedGraph) -> JacobianVolume:
    """Volume of the torus of harmonic forms modulo integer forms, computed
    from the intersection determinant and from the spanning tree weight sum;
    the two routes must agree to relative 1e-10."""
    tree_weight = spanning_tree_weight_sum(graph)
    basis = cycle_basis(graph)
    via_trees = tree_weight**-0.5
    if basis.n == 0:
        return JacobianVolume(1.0, 1.0, 1.0, True, tree_weight)
    lam = intersection_matrix(basis, graph)
    prod_c = 1.0
    for u, v in graph.edge_pairs:
        prod_c *= graph.conductance[u, v]
    via_int = (np.linalg.det(lam) * prod_c) ** -0.5
    if abs(via_int - via_trees) > VOLUME_TOL * abs(via_trees):
        raise MismatchBeyondTolerance(
            f"volume routes disagree: {via_int!r} vs {via_trees!r}"
        )
    return JacobianVolume(float(via_trees), float(via_int), float(via_trees),
                          False, float(tree_weight))


@dataclass(frozen=True)
class HomologyLaw:
    probs: dict
    grid_m: int
    captured_mass: float
    imag_residue: float
    negative_residue: float
    alpha: float

    def prob(self, coords) -> float:
        return self.probs.get(tuple(coords), 0.0)

    def symmetry_defect(self) -> float:
        worst = 0.0
        for coords, p in self.probs.items():
            mirror = tuple(-c for c in coords)
            worst = max(worst, abs(p - self.probs.get(mirror, 0.0)))
        return worst


def _generating_grid(kernel: ChainKernel, basis: CycleBasis, alpha: float,
                     grid_m: int) -> np.ndarray:
    """generating_function at the modifier exp(2 pi i t_i) on each non-tree
    edge (u_i, v_i) and exp(-2 pi i t_i) on (v_i, u_i), ones elsewhere, for
    every t on the grid {0, 1/grid_m, ...}^n, in slabs of whole rows along the
    first axis, one stacked determinant per slab of at most SLAB_POINTS points."""
    n = basis.n
    phi = np.empty((grid_m,) * n, dtype=complex)
    ticks = np.arange(grid_m) / grid_m
    rows = max(1, SLAB_POINTS // grid_m ** (n - 1))
    for lo in range(0, grid_m, rows):
        slab = phi[lo:lo + rows]
        z = np.ones(slab.shape + (kernel.n, kernel.n), dtype=complex)
        axes = np.ix_(ticks[lo:lo + rows], *[ticks] * (n - 1))
        for (u, v), t in zip(basis.nontree_edges, axes):
            z[..., u, v] = np.exp(2j * np.pi * t)
            z[..., v, u] = np.exp(2j * np.pi * -t)
        slab[...] = _generating_values(kernel, z, alpha)
    return phi


def _check_grid(grid_m: int) -> None:
    if not isinstance(grid_m, Integral) or grid_m < 8 or grid_m & (grid_m - 1) != 0:
        raise BadGrid(f"grid size must be a power of two >= 8, got {grid_m!r}")


def homology_distribution(kernel: ChainKernel, basis: CycleBasis, alpha: float,
                          grid_m: int) -> HomologyLaw:
    """Law of the homology class by Fourier inversion of the twisted
    determinant ratio on a uniform grid of the dual torus.  Raises BadIntensity
    unless alpha is finite and above 0, BadGrid unless grid_m is a power of
    two >= 8."""
    _check_alpha(alpha)
    _check_grid(grid_m)
    n = basis.n
    if n == 0:
        return HomologyLaw({(): 1.0}, grid_m, 1.0, 0.0, 0.0, alpha)
    if basis.graph.n != kernel.n:
        raise BadExactInput(f"cycle basis has {basis.graph.n} vertices, kernel {kernel.n}")
    phi = _generating_grid(kernel, basis, alpha, grid_m)
    raw = np.fft.fftn(phi) / grid_m**n
    imag_residue = float(np.max(np.abs(raw.imag)))
    real = raw.real
    negative_residue = float(max(0.0, -real.min()))
    if imag_residue > 1e-10 or negative_residue > 1e-10:
        raise ArithmeticError(
            f"inversion residues too large: imag {imag_residue}, negative {negative_residue}"
        )
    real = np.clip(real, 0.0, None)
    half = grid_m // 2
    # the window |coordinate| < half drops index half (coordinate -half) on every axis
    window = np.ones(phi.shape, dtype=bool)
    for axis in range(n):
        window[(slice(None),) * axis + (half,)] = False
    captured = float(real[window].sum())
    if captured < 0.999:
        raise GridTooCoarse(
            f"window holds {captured:.6f} < 0.999 of the mass at grid {grid_m}"
        )
    kept = window & (real >= 1e-15)
    coords = [np.where(i >= half, i - grid_m, i).tolist() for i in np.nonzero(kept)]
    probs = dict(zip(zip(*coords), real[kept].tolist()))
    return HomologyLaw(probs, grid_m, captured, imag_residue, negative_residue, alpha)


def homology_distribution_auto(kernel: ChainKernel, basis: CycleBasis,
                               alpha: float) -> HomologyLaw:
    """Double the grid from 8 until the captured mass and a Cauchy criterion
    (max change 1e-8 between grids) both hold; cap at 512 per dimension."""
    if basis.n > DIM_CAP:
        raise TooLarge(f"auto grid limited to {DIM_CAP} cycles, got {basis.n}")
    m = 8
    prev: HomologyLaw | None = None
    while m <= GRID_CAP:
        try:
            law = homology_distribution(kernel, basis, alpha, m)
        except GridTooCoarse:
            prev = None
            m *= 2
            continue
        if prev is not None:
            keys = set(prev.probs) | set(law.probs)
            delta = max(abs(law.prob(k) - prev.prob(k)) for k in keys)
            if delta <= 1e-8:
                return law
        prev = law
        m *= 2
    raise GridTooCoarse(f"grid cap {GRID_CAP} reached without convergence")

