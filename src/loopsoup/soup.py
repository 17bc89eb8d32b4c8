"""Poissonian ensembles of continuous-time loops on a transient chain.

Two independent samplers produce the ensemble law:

  * cycle popping, intensity 1 only.  Loop-erased random walks run in vertex
    order toward the cemetery; the erased cycles, repackaged through a
    Poisson-Dirichlet split of each base point's local time, form the loop
    ensemble, jointly with the random spanning tree rooted at the cemetery.
  * direct, any intensity alpha > 0.  A Poisson number of loops is drawn
    from the truncated loop-length law and each loop is filled in by bridge
    conditioning; one-point loop time is aggregated per vertex as an
    independent Gamma(alpha, 1) variable.

Monte Carlo runs go through a replica axis: direct_block and wilson_counts
draw a whole block of replicas from one generator as arrays, and
network_histogram and occupation_samples reduce the blocks of a run (see
rng for the (seed, block) streams).  direct_sample is the single-replica
view of direct_block; wilson_sample keeps one ensemble's spanning tree and
loops, which the block form does not build.

Loops of a LoopSoup are stored as shift-equivalence representatives, rotated
so the minimal vertex index comes first (ties broken by the lexicographically
smallest vertex sequence).  Only class functions of the ensemble (crossing
counts, occupation) are compared across samplers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import BadIntensity, UnknownSampler
from .graphs import ChainKernel, WeightedGraph
from .network import Network
from .rng import as_generator, replica_map


@dataclass(frozen=True)
class BasedLoop:
    """Cyclic vertex sequence with one positive holding time per visit."""

    vertices: tuple
    times: tuple

    def __post_init__(self):
        if len(self.vertices) != len(self.times):
            raise ValueError("one holding time per visit required")
        if not self.vertices:
            raise ValueError("a loop visits at least one vertex")

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1

    @property
    def total_time(self) -> float:
        return float(sum(self.times))


@dataclass(frozen=True)
class LoopSoup:
    """A sampled loop ensemble: loops, aggregated one-point time, intensity."""

    graph: WeightedGraph
    alpha: float
    loops: tuple
    trivial_time: np.ndarray
    meta: dict = field(default_factory=dict)


def _canonical(verts, times) -> tuple:
    """Rotate a cyclic sequence so the minimal vertex index leads; ties go to
    the lexicographically smallest vertex sequence."""
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


def wilson_sample(kernel: ChainKernel, seed) -> tuple:
    """Run loop-erased walks to the cemetery; return (parents, LoopSoup at 1).

    parents[x] is the tree parent of x, -1 meaning the cemetery.  The erased
    cycles at each vertex are regrouped into loops by a Poisson-Dirichlet(0,1)
    split of the vertex's base local time; stick mass not claimed by any cycle
    becomes one-point loop time.
    """
    rng = as_generator(seed)
    n = kernel.n
    settled = [False] * n
    parent = [-1] * n
    cycles_at: list = [[] for _ in range(n)]
    leftover = [0.0] * n

    for start in range(n):
        if settled[start]:
            continue
        path = [start]
        pos = {start: 0}
        holds = [rng.standard_exponential()]
        while True:
            y = path[-1]
            z = kernel.walk_step(y, rng)
            if z == -1 or settled[z]:
                for i, v in enumerate(path):
                    settled[v] = True
                    parent[v] = path[i + 1] if i + 1 < len(path) else (-1 if z == -1 else z)
                    leftover[v] = holds[i]
                break
            j = pos.get(z)
            if j is not None:
                # walk returned to z: erase the cycle, keep its visit times
                cycles_at[z].append((holds[j], tuple(path[j + 1:]), tuple(holds[j + 1:])))
                for v in path[j + 1:]:
                    del pos[v]
                del path[j + 1:]
                del holds[j + 1:]
                holds[j] = rng.standard_exponential()
            else:
                path.append(z)
                pos[z] = len(path) - 1
                holds.append(rng.standard_exponential())

    loops = []
    trivial = np.zeros(n)
    for z in range(n):
        cycles = cycles_at[z]
        base_total = leftover[z] + sum(c[0] for c in cycles)
        if not cycles:
            trivial[z] = base_total
            continue
        # size-biased i.i.d. allocation of cycles onto PD(0,1) sticks,
        # generated lazily by uniform stick breaking
        fracs: list = []
        cum: list = []
        rem = 1.0
        assignment = []
        for _ in cycles:
            u = rng.random()
            while not cum or u >= cum[-1]:
                piece = rem * rng.random()
                fracs.append(piece)
                rem -= piece
                cum.append(1.0 - rem)
            lo = 0
            hi = len(cum) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if u < cum[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            assignment.append(lo)
        used = 0.0
        by_stick: dict = {}
        for idx, stick in enumerate(assignment):
            by_stick.setdefault(stick, []).append(idx)
        for stick in sorted(by_stick):
            members = by_stick[stick]
            stick_time = fracs[stick] * base_total
            used += fracs[stick]
            shares = rng.dirichlet(np.ones(len(members))) * stick_time
            verts: list = []
            times: list = []
            for share, idx in zip(shares, members):
                _, inner_v, inner_t = cycles[idx]
                verts.append(z)
                times.append(float(share))
                verts.extend(inner_v)
                times.extend(inner_t)
            cv, ct = _canonical(verts, times)
            loops.append(BasedLoop(cv, ct))
        trivial[z] = base_total * (1.0 - used)

    soup = LoopSoup(
        graph=kernel.graph,
        alpha=1.0,
        loops=tuple(loops),
        trivial_time=trivial,
        meta={"sampler": "wilson"},
    )
    return tuple(parent), soup


def _check_alpha(alpha: float) -> None:
    if not alpha > 0:
        raise BadIntensity(f"intensity must be positive, got {alpha}")


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class LoopGroup(NamedTuple):
    """Every loop of one length in a block: the replica owning each loop, its
    vertices in visit order (one row per loop) and, when drawn, the holding
    time of each visit."""

    owners: np.ndarray
    vertices: np.ndarray
    times: np.ndarray | None = None


class LoopBlock(NamedTuple):
    """Loop ensembles of `size` independent replicas, grouped by length in
    increasing order; trivial_time is (size, n) one-point time when drawn."""

    kernel: ChainKernel
    size: int
    groups: tuple
    trivial_time: np.ndarray | None
    cut_length: int
    discarded_mu_mass: float

    def counts(self) -> np.ndarray:
        """(size, n, n) directed crossing counts of each replica's loops."""
        n = self.kernel.n
        idx = [((g.owners[:, None] * n + g.vertices) * n
                + np.roll(g.vertices, -1, axis=1)).ravel() for g in self.groups]
        flat = np.bincount(_concat(idx, np.intp), minlength=self.size * n * n)
        return flat.reshape(self.size, n, n)

    def occupation(self) -> np.ndarray:
        """(size, n) occupation fields: loop and one-point time over lam."""
        n = self.kernel.n
        idx = [(g.owners[:, None] * n + g.vertices).ravel() for g in self.groups]
        hold = [g.times.ravel() for g in self.groups]
        loop_time = np.bincount(_concat(idx, np.intp), weights=_concat(hold, float),
                                minlength=self.size * n).reshape(self.size, n)
        return (self.trivial_time + loop_time) / self.kernel.lam

    def diagnostics(self) -> dict:
        return {
            "replicas": self.size,
            "loops": sum(len(g.owners) for g in self.groups),
            "max_loop_length": max((g.vertices.shape[1] for g in self.groups), default=0),
            "discarded_mu_mass": self.discarded_mu_mass,
        }


def _matrix_powers(q: np.ndarray, top: int) -> np.ndarray:
    """(top + 1, n, n) table of the powers I, Q, ..., Q^top."""
    pows = np.empty((top + 1,) + q.shape)
    pows[0] = np.eye(len(q))
    for m in range(1, top + 1):
        pows[m] = pows[m - 1] @ q
    return pows


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


def direct_block(kernel: ChainKernel, alpha: float, size: int, rng,
                 eps: float = 1e-9, times: bool = False) -> LoopBlock:
    """`size` independent ensembles at intensity alpha, all from one generator.

    Draw order: a Poisson(alpha * truncated mass) loop total per replica;
    one uniform per loop for its length; then for each length in increasing
    order, one uniform per loop of that length for its start and one for
    each later vertex.  With times: one Exp(1) holding time per visit, in
    group order, then Gamma(alpha, 1) one-point time per replica and vertex.
    Holding times come after every vertex, so the loops do not depend on
    `times`.
    """
    _check_alpha(alpha)
    cum, total_mass, cut_length, discarded = kernel.length_distribution(eps)
    owners = np.repeat(np.arange(size), rng.poisson(alpha * total_mass, size=size))
    lengths = 2 + np.searchsorted(cum, rng.random(len(owners)), side="right")
    lengths = lengths.clip(2, len(cum) + 1)
    q = kernel.q_matrix
    pows = _matrix_powers(q, int(lengths.max(initial=0)))
    sizes = np.unique(lengths)
    owner_sets = [owners[lengths == length] for length in sizes]
    verts = [_bridges(q, pows, int(length), len(o), rng)
             for length, o in zip(sizes, owner_sets)]
    hold = [None] * len(verts)
    trivial = None
    if times:
        flat = rng.standard_exponential(sum(v.size for v in verts))
        ends = np.cumsum([v.size for v in verts])
        hold = [part.reshape(v.shape) for part, v in zip(np.split(flat, ends[:-1]), verts)]
        trivial = rng.gamma(alpha, 1.0, size=(size, kernel.n))
    return LoopBlock(
        kernel=kernel,
        size=size,
        groups=tuple(LoopGroup(o, v, t) for o, v, t in zip(owner_sets, verts, hold)),
        trivial_time=trivial,
        cut_length=cut_length,
        discarded_mu_mass=discarded,
    )


def direct_sample(kernel: ChainKernel, alpha: float, eps: float = 1e-9, seed=None) -> LoopSoup:
    """One ensemble: the single-replica view of direct_block, with every loop
    rotated to its canonical representative."""
    block = direct_block(kernel, alpha, 1, as_generator(seed), eps=eps, times=True)
    loops = []
    for group in block.groups:
        for verts, times in zip(group.vertices.tolist(), group.times.tolist()):
            loops.append(BasedLoop(*_canonical(verts, times)))
    return LoopSoup(
        graph=kernel.graph,
        alpha=float(alpha),
        loops=tuple(loops),
        trivial_time=block.trivial_time[0],
        meta={
            "sampler": "direct",
            "eps": eps,
            "max_length": block.cut_length,
            "discarded_mu_mass": block.discarded_mu_mass,
        },
    )


def wilson_counts(kernel: ChainKernel, size: int, rng) -> tuple:
    """Jump networks of `size` cycle-popping ensembles, all from one generator.

    The network of wilson_sample is every walk transition minus the tree
    edges x -> parent(x), and the tree parent of x is where the walk went on
    its last exit from x.  So the Poisson-Dirichlet split and the holding
    times do not matter here, and the walks of all replicas run in lockstep,
    one uniform per walking replica per round.  A walk's phase ends at the
    cemetery or at a settled vertex; the loop-erased path is then settled
    by following last exits from the phase's start, and the replica starts
    its next phase at its first unsettled vertex.

    Returns the (size, n, n) counts and block diagnostics (walk steps).
    """
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


_MAX_DIAGNOSTICS = ("max_loop_length", "discarded_mu_mass")


def merge_diagnostics(parts: list) -> dict:
    """Combine per-block diagnostics: maxima for the loop length and the
    discarded mass, sums otherwise, plus per-replica rates of the sums."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key in _MAX_DIAGNOSTICS:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    replicas = out.get("replicas", 0)
    for key in ("loops", "walk_steps", "excursions"):
        if key in out and replicas:
            out[f"{key}_per_replica"] = out[key] / replicas
    out["blocks"] = len(parts)
    return out


class Histogram(Counter):
    """Replica counts per jump network, keyed like Network.key(), with the
    diagnostics of the sampler run that drew them."""

    def __init__(self, counts=(), diagnostics=None):
        super().__init__(counts)
        self.diagnostics = dict(diagnostics or {})


def _key_counts(counts: np.ndarray) -> tuple:
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


def _direct_histogram_block(kernel, alpha, eps, rng, size) -> tuple:
    block = direct_block(kernel, alpha, size, rng, eps=eps)
    return _key_counts(block.counts()) + (block.diagnostics(),)


def _wilson_histogram_block(kernel, rng, size) -> tuple:
    counts, diagnostics = wilson_counts(kernel, size, rng)
    return _key_counts(counts) + (diagnostics,)


def _direct_occupation_block(kernel, alpha, eps, rng, size) -> tuple:
    block = direct_block(kernel, alpha, size, rng, eps=eps, times=True)
    return block.occupation(), block.diagnostics()


def network_histogram(kernel: ChainKernel, replicas: int, seed: int,
                      sampler: str = "direct", alpha: float = 1.0,
                      eps: float = 1e-9, workers: int = 1) -> Histogram:
    """Histogram of jump networks over independent replica ensembles, drawn
    block by block in (seed, block) streams."""
    if sampler == "wilson":
        if alpha != 1.0:
            raise BadIntensity("the cycle-popping sampler is defined at alpha = 1 only")
        task = partial(_wilson_histogram_block, kernel)
    elif sampler == "direct":
        _check_alpha(alpha)
        task = partial(_direct_histogram_block, kernel, alpha, eps)
    else:
        raise UnknownSampler(f"unknown sampler {sampler!r}; use 'direct' or 'wilson'")
    parts = replica_map(task, replicas, seed, workers=workers)
    diagnostics = {"sampler": sampler, "alpha": alpha, **merge_diagnostics([p[2] for p in parts])}
    if sampler == "direct":
        diagnostics["eps"] = eps
    hist = Histogram(diagnostics=diagnostics)
    n = kernel.n
    for keys, freq, _ in parts:
        for row, count in zip(keys.tolist(), freq.tolist()):
            hist[tuple(tuple(row[i:i + n]) for i in range(0, n * n, n))] += count
    return hist


def occupation_samples(kernel: ChainKernel, alpha: float, replicas: int, seed,
                       eps: float = 1e-9, workers: int = 1, meta: dict | None = None
                       ) -> np.ndarray:
    """replicas x n matrix of occupation fields from independent ensembles,
    drawn block by block in (seed, block) streams.  meta, when given,
    receives the sampler diagnostics."""
    _check_alpha(alpha)
    parts = replica_map(partial(_direct_occupation_block, kernel, alpha, eps),
                        replicas, seed, workers=workers)
    if meta is not None:
        meta.update({"sampler": "direct", "alpha": alpha, "eps": eps,
                     **merge_diagnostics([p[1] for p in parts])})
    return np.concatenate([p[0] for p in parts]) if parts else np.empty((0, kernel.n))


def occupation(soup: LoopSoup, kernel: ChainKernel) -> np.ndarray:
    """Total loop time per vertex (one-point time included) divided by lam."""
    occ = np.array(soup.trivial_time, dtype=float)
    for loop in soup.loops:
        for v, t in zip(loop.vertices, loop.times):
            occ[v] += t
    return occ / kernel.lam


def jump_matrix(soup: LoopSoup) -> Network:
    """Directed crossing counts of all loops; one-point loops contribute none."""
    n = soup.graph.n
    counts = np.zeros((n, n), dtype=np.int64)
    for loop in soup.loops:
        p = loop.length
        if p < 2:
            continue
        verts = loop.vertices
        for i in range(p):
            counts[verts[i], verts[(i + 1) % p]] += 1
    return Network(soup.graph, counts)


def merge_soups(a: LoopSoup, b: LoopSoup) -> LoopSoup:
    """Superpose two independent ensembles; intensities add."""
    if a.graph.vertices != b.graph.vertices:
        raise ValueError("cannot merge ensembles over different graphs")
    return LoopSoup(
        graph=a.graph,
        alpha=a.alpha + b.alpha,
        loops=a.loops + b.loops,
        trivial_time=np.asarray(a.trivial_time) + np.asarray(b.trivial_time),
        meta={"merged": [a.meta, b.meta]},
    )
