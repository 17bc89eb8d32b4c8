"""Finite weighted graphs with killing and the derived sub-Markov chain data.

A graph is a list of vertices, symmetric positive conductances on unordered
edges, and a nonnegative killing measure on vertices.  The chain quantities
built from it:

    lam[x]     = sum_y C[x, y] + killing[x]
    P[x, y]    = C[x, y] / lam[y]
    G          = (M_lam - C)^(-1)
    det(I - P) = det(M_lam - C) / prod(lam)

M_lam - C must be positive definite (transience); it is singular exactly when
the killing vanishes identically on a connected component.  Everything here is
dense; target graphs are desk scale, tens of vertices at most.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadGraph, NonTransient, TailTooHeavy, _check_tail_cut

PIVOT_EPS = 1e-12


def _as_float(value, where: str) -> float:
    if isinstance(value, (bool, np.bool_)):  # float() takes True as 1.0
        raise BadGraph(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise BadGraph(f"{where}: expected a number, got {value!r}") from None
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise BadGraph(f"{where}: expected a finite number, got {value!r}")
    return out


def _load_json(path, what: str):
    """The JSON value in the file at `path`; BadGraph naming the `what` file,
    with the place when the text is not JSON, else with the message for an
    integer past the digit limit, bad UTF-8 or nesting past the recursion limit."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadGraph(f"{what} file {path}: invalid JSON at line {exc.lineno} "
                       f"column {exc.colno}") from None
    except (ValueError, RecursionError) as exc:
        raise BadGraph(f"{what} file {path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Vertex names, symmetric conductance matrix, killing measure."""

    vertices: tuple[str, ...]
    conductance: np.ndarray
    killing: np.ndarray

    @classmethod
    def build(cls, vertices, edges, killing=None) -> "WeightedGraph":
        """Validate raw data and construct a graph.

        vertices: iterable of names.  edges: iterable of (u, v, c) with c > 0.
        killing: mapping name -> nonnegative rate; missing names mean zero.
        """
        names = tuple(str(v) for v in vertices)
        if not names:
            raise BadGraph("vertices: must be nonempty")
        if len(set(names)) != len(names):
            raise BadGraph("vertices: names must be distinct")
        index = {v: i for i, v in enumerate(names)}
        n = len(names)
        cond = np.zeros((n, n))
        for pos, edge in enumerate(edges):
            try:
                u, v, c = edge
            except (TypeError, ValueError):
                raise BadGraph(f"edges[{pos}]: expected (u, v, c)") from None
            u, v = str(u), str(v)
            if u not in index:
                raise BadGraph(f"edges[{pos}].u: unknown vertex {u!r}")
            if v not in index:
                raise BadGraph(f"edges[{pos}].v: unknown vertex {v!r}")
            if u == v:
                raise BadGraph(f"edges[{pos}]: self-loop at {u!r} not allowed")
            cval = _as_float(c, f"edges[{pos}].c")
            if cval <= 0:
                raise BadGraph(f"edges[{pos}].c: conductance must be > 0, got {cval}")
            i, j = index[u], index[v]
            if cond[i, j] != 0:
                raise BadGraph(f"edges[{pos}]: duplicate edge {u!r}-{v!r}")
            cond[i, j] = cond[j, i] = cval
        kap = np.zeros(n)
        for name, value in (killing or {}).items():
            name = str(name)
            if name not in index:
                raise BadGraph(f"killing[{name!r}]: unknown vertex")
            kval = _as_float(value, f"killing[{name!r}]")
            if kval < 0:
                raise BadGraph(f"killing[{name!r}]: must be >= 0, got {kval}")
            kap[index[name]] = kval
        if not any(kap.tolist()):  # every rate is finite and >= 0, so nonzero is positive
            raise BadGraph("killing vanishes everywhere; the chain cannot be transient")
        cond.setflags(write=False)
        kap.setflags(write=False)
        return cls(vertices=names, conductance=cond, killing=kap)

    @classmethod
    def from_json_file(cls, path) -> "WeightedGraph":
        return cls.from_json_dict(_load_json(path, "graph"), where=f"graph file {path}")

    @classmethod
    def from_json_dict(cls, data, where: str = "graph data") -> "WeightedGraph":
        if not isinstance(data, dict):
            raise BadGraph(f"{where}: top level must be an object")
        for key in ("vertices", "edges"):
            if key not in data:
                raise BadGraph(f"{where}: missing required field {key!r}")
            if not isinstance(data[key], list):
                raise BadGraph(f"{where}: field {key!r} must be an array")
        killing = data.get("killing")
        if killing is not None and not isinstance(killing, dict):
            raise BadGraph(f"{where}: field 'killing' must be an object")
        edges = []
        for pos, e in enumerate(data["edges"]):
            if not isinstance(e, dict) or not {"u", "v", "c"} <= set(e):
                raise BadGraph(f"{where}: edges[{pos}] must be an object with u, v, c")
            edges.append((e["u"], e["v"], e["c"]))
        try:
            return cls.build(data["vertices"], edges, killing)
        except BadGraph as exc:
            raise BadGraph(f"{where}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, vertex) -> int:
        """Resolve a vertex name or integer index to an index."""
        if isinstance(vertex, (int, np.integer)):
            i = int(vertex)
            if not 0 <= i < self.n:
                raise BadGraph(f"vertex index {i} out of range")
            return i
        try:
            return self._index[str(vertex)]
        except KeyError:
            raise BadGraph(f"unknown vertex {vertex!r}") from None

    @cached_property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as index pairs (i, j) with i < j, in lexicographic order."""
        n = self.n
        return tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if self.conductance[i, j] > 0
        )

    def is_connected(self) -> bool:
        n = self.n
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(self.conductance[x] > 0):
                if not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        return bool(seen.all())


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ChainKernel:
    """Transition matrix, Green's function and derived tables of a transient chain.

    Immutable after construction: every array, cached ones included, is
    read-only (writing into one raises ValueError), and cached properties are
    pure functions of the fields, computed at most once, so sharing across
    threads is safe.
    """

    graph: WeightedGraph
    lam: np.ndarray
    P: np.ndarray
    energy_matrix: np.ndarray
    det_i_minus_p: float
    log_det_i_minus_p: float
    log_prod_lam: float

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def mu_mass(self) -> float:
        """Total measure of nontrivial loops, -log det(I - P)."""
        return -self.log_det_i_minus_p

    @cached_property
    def G(self) -> np.ndarray:
        """Green's function (M_lam - C)^(-1), symmetrized against rounding."""
        green = np.linalg.inv(self.energy_matrix)
        return _frozen((green + green.T) / 2.0)

    @cached_property
    def q_matrix(self) -> np.ndarray:
        """Row-normalized jump matrix C[x,y]/lam[x] used to simulate the chain.

        Diagonally similar to P, so all traces, determinants and closed-loop
        products agree between the two normalizations.
        """
        return _frozen(self.graph.conductance / self.lam[:, None])

    @cached_property
    def sym_eigs(self) -> np.ndarray:
        """Eigenvalues of the symmetrized jump matrix, all inside (-1, 1)."""
        s = 1.0 / np.sqrt(self.lam)
        return _frozen(np.linalg.eigvalsh(self.graph.conductance * np.outer(s, s)))

    def walk_step(self, x: int, rng: np.random.Generator) -> int:
        """One jump of the chain from x, on one uniform of rng: the one-walker
        view of walk_steps.  Returns the target index or -1 for death."""
        return int(self.walk_steps(np.array([x]), np.array([rng.random()]))[0])

    @cached_property
    def _step_table(self) -> tuple:
        """Each vertex's neighbors in index order, padded to one width:
        targets with -1 (death) after the last neighbor, and the cumulative
        jump probabilities C[x, y] / lam[x] over them, padded with inf."""
        edge = self.graph.conductance > 0
        degree = edge.sum(axis=1)
        slot = np.arange(degree.max()) < degree[:, None]
        targets = np.full((self.n, slot.shape[1] + 1), -1, dtype=np.intp)
        targets[np.nonzero(slot)] = np.nonzero(edge)[1]
        weights = np.zeros(slot.shape)
        weights[slot] = self.graph.conductance[edge]
        # the zero padding follows the neighbors, so the cumulative sums over
        # them are the unpadded ones
        cum = np.where(slot, np.cumsum(weights, axis=1) / self.lam[:, None], np.inf)
        return _frozen(targets), _frozen(cum)

    def walk_steps(self, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """walk_step for many walkers at once, given their uniforms u:
        targets per walker, -1 for death."""
        targets, cum = self._step_table
        # count the cumulative probabilities at or below u one column at a
        # time: a boolean row sum over 2-3 columns is about 7x slower
        hit = xs * targets.shape[1]
        for col in cum.T:
            hit += col[xs] <= u
        return targets.ravel()[hit]

    def length_distribution(self, eps: float):
        """Cumulative law of the jump count of a loop, cut at total tail mass eps.

        Returns (cum, total_mass, n_max, discarded): cum[k] is the cumulative
        normalized probability of length k+2, total_mass the retained loop
        measure, discarded the cut tail mass (< eps).
        """
        _check_tail_cut(eps)
        w = self.sym_eigs
        mprime = float(-np.sum(np.log1p(-w)))
        # mu(|l| = n) = tr(P^n) / n, 64 terms at a time, summed one term at a
        # time in order, so the cut does not depend on the chunking
        chunks, partial, lo = [], 0.0, 2
        while mprime - partial > eps:
            if lo > 10_000:
                raise TailTooHeavy(f"loop-length tail cannot be cut to {eps} within 10^4 steps")
            ns = np.arange(lo, min(lo + 64, 10_001))
            powers = w ** ns[:, None]
            if lo == 2:
                powers[0] = w**2  # numpy squares, which can differ from pow by an ulp
            chunks.append(np.maximum(np.sum(powers, axis=1) / ns, 0.0))
            partial = np.cumsum(np.append(partial, chunks[-1]))[-1]
            lo += 64
        sums = np.cumsum(np.concatenate([[0.0], *chunks]))  # sums[k]: the first k terms
        k = int(np.count_nonzero(mprime - sums > eps))  # sums never fall: the cut
        total = float(sums[k])
        return sums[1 : k + 1] / total, total, k + 1, mprime - total

    def twisted_matrix(self, z: np.ndarray) -> np.ndarray:
        """M_lam - C * z for an entrywise edge modifier z."""
        return np.diag(self.lam).astype(complex) - self.graph.conductance * np.asarray(z)

    def det_i_minus_pz(self, z: np.ndarray) -> complex | np.ndarray:
        """det(I - P^z) computed stably through the twisted energy matrix.

        A stack of modifiers (..., n, n) gives the array of determinants.
        """
        sign, logabs = np.linalg.slogdet(self.twisted_matrix(z))
        det = sign * np.exp(logabs - self.log_prod_lam)  # sign 0 when singular
        return det if det.ndim else complex(det)


def build_kernel(graph: WeightedGraph) -> ChainKernel:
    """Derive lam, P and det(I - P) from a graph, checking transience; G is
    computed on first read."""
    lam = graph.conductance.sum(axis=1) + graph.killing
    m = np.diag(lam) - graph.conductance
    w = np.linalg.eigvalsh(m)
    if w[0] <= PIVOT_EPS * max(1.0, abs(float(w[-1]))):
        raise NonTransient(
            "energy form is not positive definite; killing vanishes on some connected component"
        )
    p = graph.conductance / lam[None, :]
    log_prod_lam = float(np.sum(np.log(lam)))
    log_dimp = float(np.sum(np.log(w)) - log_prod_lam)
    return ChainKernel(
        graph=graph,
        lam=_frozen(lam),
        P=_frozen(p),
        energy_matrix=_frozen(m),
        det_i_minus_p=float(np.exp(log_dimp)),
        log_det_i_minus_p=log_dimp,
        log_prod_lam=log_prod_lam,
    )
