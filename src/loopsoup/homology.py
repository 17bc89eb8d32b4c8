"""Cycle space of the graph, the torus volume, and the law of the random
homology class of a loop ensemble.

The cycle basis comes from a deterministic spanning tree: one oriented cycle
per non-tree edge.  A balanced network's class is read off its antisymmetric
part.  The class law comes from the twisted determinant ratio, a Laurent
polynomial in unit-modulus twists of the non-tree edges: 3^n determinants
give its coefficients, FFTs its values on a uniform grid of the dual torus
and, after the power -alpha, the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .eulerian import _ratio_power
from .exact import spanning_tree_weight_sum
from .graphs import ChainKernel, WeightedGraph
from .network import Network

VOLUME_TOL = 1e-10
GRID_CAP = 512  # grid points per cycle
POINT_CAP = 1 << 24  # grid points over all cycles: 256 on each of three, 256 MiB an array
DIM_CAP = 3


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
    parent = {0: None}  # one walk of the tree from vertex 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)

    cycles = []
    for u, v in nontree:
        c = np.zeros((graph.n, graph.n), dtype=np.int64)
        c[u, v] += 1
        c[v, u] -= 1
        # the tree path v -> u: v's path to the root, less u's; the shared
        # stretch cancels
        for a, sign in ((v, 1), (u, -1)):
            while parent[a] is not None:
                c[a, parent[a]] += sign
                c[parent[a], a] -= sign
                a = parent[a]
        if c.sum(axis=1).any():
            raise ArithmeticError("fundamental cycle has nonzero divergence")
        c.setflags(write=False)
        cycles.append(c)
    return CycleBasis(graph, tuple(tree), tuple(nontree), tuple(cycles))


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


def network_homology_class(k: Network, basis: CycleBasis) -> tuple:
    """Coordinates of the antisymmetric part of k in the cycle basis, a
    tuple of ints: the one-network view of the stacked pass above."""
    return tuple(_class_coords(k.counts[None], basis)[0].tolist())


def intersection_matrix(basis: CycleBasis) -> np.ndarray:
    """Gram matrix of the cycle basis under the edge inner product 1/C_e of
    the basis's own graph."""
    if basis.n == 0:
        raise EmptyBasis("graph has no independent cycles")
    graph = basis.graph
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


def _volume_routes(graph: WeightedGraph) -> JacobianVolume:
    """Volume of the torus of harmonic forms modulo integer forms, computed
    from the intersection determinant and from the spanning tree weight sum,
    whether or not the two routes agree."""
    tree_weight = spanning_tree_weight_sum(graph)
    basis = cycle_basis(graph)
    via_trees = tree_weight**-0.5
    if basis.n == 0:
        return JacobianVolume(1.0, 1.0, 1.0, True, tree_weight)
    lam = intersection_matrix(basis)
    prod_c = 1.0
    for u, v in graph.edge_pairs:
        prod_c *= graph.conductance[u, v]
    via_int = (np.linalg.det(lam) * prod_c) ** -0.5
    return JacobianVolume(float(via_trees), float(via_int), float(via_trees),
                          False, float(tree_weight))


def jacobian_volume(graph: WeightedGraph) -> JacobianVolume:
    """The torus volume by both routes, which must agree to relative 1e-10;
    MismatchBeyondTolerance when they do not."""
    vol = _volume_routes(graph)
    if abs(vol.via_intersection - vol.via_trees) > VOLUME_TOL * abs(vol.via_trees):
        raise MismatchBeyondTolerance(
            f"volume routes disagree: {vol.via_intersection!r} vs {vol.via_trees!r}"
        )
    return vol


@dataclass(frozen=True, eq=False)
class HomologyLaw:
    """The class law on the window |coordinates| < grid_m / 2: table[i] holds class
    i - (grid_m / 2 - 1), entries below 1e-15 as 0, counted in captured_mass."""

    table: np.ndarray
    grid_m: int
    captured_mass: float
    imag_residue: float
    negative_residue: float
    alpha: float

    @cached_property
    def probs(self) -> dict:
        """{class coordinates: probability} over the nonzero entries."""
        kept = self.table > 0
        coords = np.argwhere(kept) - (self.grid_m // 2 - 1)
        return dict(zip(map(tuple, coords.tolist()), self.table[kept].tolist()))

    def symmetry_defect(self) -> float:
        """max |P(j) - P(-j)|: the table against its flip on every axis."""
        return float(np.max(np.abs(self.table - np.flip(self.table))))


def _twist_coefficients(kernel: ChainKernel, basis: CycleBasis) -> np.ndarray:
    """Coefficients of det(I-P^Z)/det(I-P), Z = u_c on non-tree edge
    (u_c, v_c), 1/u_c on (v_c, u_c) and ones elsewhere, as a Laurent
    polynomial: prod_c u_c^e_c at index e mod 3 of a (3,)*n array.  A term
    of the determinant takes one entry per row of P, so every e_c is -1, 0
    or 1, and the 3^n twists u_c = exp(2 pi i t_c), t_c in {0, 1/3, 2/3},
    give every coefficient by one size-3 fftn."""
    if basis.graph.n != kernel.n:
        raise BadExactInput(f"cycle basis has {basis.graph.n} vertices, kernel {kernel.n}")
    z = np.ones((3,) * basis.n + (kernel.n, kernel.n), dtype=complex)
    for (u, v), t in zip(basis.nontree_edges, np.ix_(*[np.arange(3) / 3] * basis.n)):
        z[..., u, v] = np.exp(2j * np.pi * t)
        z[..., v, u] = np.exp(2j * np.pi * -t)
    return np.fft.fftn(kernel.det_i_minus_pz(z) / kernel.det_i_minus_p, norm="forward")


def _fftn(grid: np.ndarray, transform, norm=None) -> np.ndarray:
    """np.fft.fftn (transform np.fft.fft) or ifftn (np.fft.ifft) of grid,
    written into grid: the same one-axis transforms in fftn's order, last
    axis first, so one grid of temporaries is alive instead of two."""
    for axis in range(grid.ndim - 1, -1, -1):
        grid[...] = transform(grid, axis=axis, norm=norm)
    return grid


def _generating_grid(coef: np.ndarray, alpha: float, grid_m: int) -> np.ndarray:
    """generating_function at every twist t of the grid {0, 1/grid_m, ...}^n:
    the coefficients at indices 0, 1 and grid_m - 1 (exponents 0, 1 and -1)
    of a zero grid, one inverse fftn sums the polynomial at every point."""
    grid = np.zeros((grid_m,) * coef.ndim, dtype=complex)
    grid[np.ix_(*[[0, 1, grid_m - 1]] * coef.ndim)] = coef
    return _ratio_power(_fftn(grid, np.fft.ifft, norm="forward"), alpha)


def _check_grid(grid_m: int, cycles: int) -> None:
    if not isinstance(grid_m, Integral) or not 8 <= grid_m <= GRID_CAP or grid_m & (grid_m - 1):
        raise BadGrid(f"grid size must be a power of two from 8 to {GRID_CAP}, got {grid_m!r}")
    if grid_m**cycles > POINT_CAP:
        raise BadGrid(f"grid {grid_m} on {cycles} cycles has {grid_m}^{cycles} points, "
                      f"above the cap of {POINT_CAP}")


def _law(coef: np.ndarray, alpha: float, grid_m: int) -> HomologyLaw:
    """Class law by Fourier inversion of the generating grid on grid_m."""
    n = coef.ndim
    if n == 0:
        return HomologyLaw(np.ones(()), grid_m, 1.0, 0.0, 0.0, alpha)
    raw = _fftn(_generating_grid(coef, alpha, grid_m), np.fft.fft)
    raw /= grid_m**n
    imag_residue = float(np.max(np.abs(raw.imag)))
    negative_residue = float(max(0.0, -raw.real.min()))
    if imag_residue > 1e-10 or negative_residue > 1e-10:
        raise ArithmeticError(
            f"inversion residues too large: imag {imag_residue}, negative {negative_residue}"
        )
    clipped = np.clip(raw.real, 0.0, None)
    del raw
    # class 0 to the centre, and the slice of coordinate -grid_m / 2 dropped
    table = np.fft.fftshift(clipped)[(slice(1, None),) * n]
    captured = float(table.sum())
    if captured < 0.999:
        raise GridTooCoarse(f"window holds {captured:.6f} < 0.999 of the mass at grid {grid_m}")
    table[table < 1e-15] = 0.0
    table.setflags(write=False)
    return HomologyLaw(table, grid_m, captured, imag_residue, negative_residue, alpha)


def homology_distribution(kernel: ChainKernel, basis: CycleBasis, alpha: float,
                          grid_m: int) -> HomologyLaw:
    """Law of the homology class by Fourier inversion of the twisted
    determinant ratio on a uniform grid of the dual torus.  Raises BadIntensity
    unless alpha is finite and above 0, BadGrid unless grid_m is a power of
    two from 8 to GRID_CAP = 512 with grid_m ** cycles at most POINT_CAP = 2^24."""
    _check_alpha(alpha)
    _check_grid(grid_m, basis.n)
    return _law(_twist_coefficients(kernel, basis), alpha, grid_m)


def homology_distribution_auto(kernel: ChainKernel, basis: CycleBasis,
                               alpha: float) -> HomologyLaw:
    """Double the grid from 8 until the captured mass and a Cauchy criterion
    (max change 1e-8 between grids, the coarse window centred in the fine
    one) both hold; stop before a grid past 512 per cycle or POINT_CAP points.
    The ratio's coefficients are computed once, so a doubling costs FFTs and
    no determinants."""
    if basis.n > DIM_CAP:
        raise TooLarge(f"auto grid limited to {DIM_CAP} cycles, got {basis.n}")
    _check_alpha(alpha)
    coef = _twist_coefficients(kernel, basis)
    m = 4
    prev: HomologyLaw | None = None
    while m < GRID_CAP and (2 * m)**basis.n <= POINT_CAP:
        m *= 2
        try:
            law = _law(coef, alpha, m)
        except GridTooCoarse:
            prev = None
            continue
        # the coarse window, of side m / 2 - 1, centred in the fine one
        if prev is not None and np.max(np.abs(law.table - np.pad(prev.table, m // 4))) <= 1e-8:
            return law
        prev = law
    raise GridTooCoarse(f"grid cap {m} reached without convergence")
