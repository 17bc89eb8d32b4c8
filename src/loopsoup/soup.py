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
rng for the (seed, block) streams).  The single-ensemble samplers are
one-replica views: direct_sample of direct_block, and wilson_sample of the
cycle-popping walk that wilson_counts reduces to jump networks; only the
view builds the spanning tree and the holding times of the erased cycles.
Either way a LoopSoup holds a one-replica LoopBlock, so its jump network and
occupation are that block's reductions.

LoopSoup.loops presents the loops as shift-equivalence representatives,
rotated so the minimal vertex index comes first (ties broken by the
lexicographically smallest vertex sequence); the block stores them as drawn.
Only class functions of the ensemble (crossing counts, occupation) are
compared across samplers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import BadIntensity, UnknownSampler
from .graphs import ChainKernel, WeightedGraph
from .network import Network
from .rng import replica_map


class BasedLoop(NamedTuple):
    """Cyclic vertex sequence with one positive holding time per visit."""

    vertices: tuple
    times: tuple

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, eq=False)
class LoopSoup:
    """One sampled loop ensemble: the one-replica view of a LoopBlock drawn
    with holding times, at intensity alpha.  Soups compare and hash by
    identity, since the block's arrays define no equality."""

    block: LoopBlock
    alpha: float
    meta: dict = field(default_factory=dict)

    @property
    def graph(self) -> WeightedGraph:
        return self.block.kernel.graph

    @property
    def trivial_time(self) -> np.ndarray:
        """One-point loop time per vertex."""
        return self.block.trivial_time[0]

    @cached_property
    def loops(self) -> tuple:
        """Every loop as a BasedLoop, group by group, rotated to its
        canonical representative."""
        return tuple(BasedLoop(*_canonical(verts, times)) for group in self.block.groups
                     for verts, times in zip(group.vertices.tolist(), group.times.tolist()))


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

    The one-replica view of wilson_counts: its walk at size 1 on
    np.random.default_rng(seed), then one Exp(1) holding time per visit.
    parents[x] is the tree parent of x, the walk's last exit from x, -1
    meaning the cemetery.  The erased cycles at each vertex are regrouped
    into loops by a Poisson-Dirichlet(0,1) split of the vertex's base local
    time; stick mass not claimed by any cycle becomes one-point loop time.
    Each stick's loop is a one-row group of the soup's block, in vertex and
    stick order.
    """
    rng = np.random.default_rng(seed)
    n = kernel.n
    jumps, exit_to, steps = _cycle_popping_walk(kernel, 1, rng)
    visits = (jumps // (n + 1) - 1).tolist()  # index // (n + 1): the cell 1 + x a jump leaves
    cycles_at: list = [[] for _ in range(n)]
    # a phase never visits a vertex an earlier phase settled, so one loop
    # erasure over all visits erases each phase's cycles and keeps each
    # vertex's last visit, whose hold is its base time outside the cycles
    path, holds, pos = [], [], {}
    for x, hold in zip(visits, rng.standard_exponential(steps).tolist()):
        j = pos.get(x)
        if j is None:
            pos[x] = len(path)
            path.append(x)
            holds.append(hold)
            continue
        # walk returned to x: erase the cycle, keep its visit times
        cycles_at[x].append((holds[j], tuple(path[j + 1:]), tuple(holds[j + 1:])))
        for v in path[j + 1:]:
            del pos[v]
        del path[j + 1:], holds[j + 1:]
        holds[j] = hold

    groups = []
    trivial = np.zeros((1, n))
    for z in range(n):
        cycles = cycles_at[z]
        base_total = holds[pos[z]] + sum(c[0] for c in cycles)
        # size-biased i.i.d. allocation of cycles onto PD(0,1) sticks,
        # generated lazily by uniform stick breaking
        fracs: list = []
        cum: list = []
        rem = 1.0
        by_stick: dict = {}
        for idx in range(len(cycles)):
            u = rng.random()
            while not cum or u >= cum[-1]:
                piece = rem * rng.random()
                fracs.append(piece)
                rem -= piece
                cum.append(1.0 - rem)
            by_stick.setdefault(bisect_right(cum, u), []).append(idx)
        used = 0.0
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
            groups.append(LoopGroup(np.zeros(1, dtype=np.intp), np.array([verts]),
                                    np.array([times])))
        trivial[0, z] = base_total * (1.0 - used)

    block = LoopBlock(kernel=kernel, size=1, groups=tuple(groups), trivial_time=trivial,
                      cut_length=0, discarded_mu_mass=0.0)
    soup = LoopSoup(block, 1.0, {"sampler": "wilson", "walk_steps": steps})
    return tuple((exit_to[1:] - 1).tolist()), soup


def _check_alpha(alpha: float) -> None:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise BadIntensity(f"intensity must be positive and finite, got {alpha}")


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class LoopGroup(NamedTuple):
    """Loops of one length in a block: the replica owning each loop, its
    vertices in visit order (one row per loop) and, when drawn, the holding
    time of each visit."""

    owners: np.ndarray
    vertices: np.ndarray
    times: np.ndarray | None = None


class LoopBlock(NamedTuple):
    """Loop ensembles of `size` independent replicas in groups, each group
    holding loops of one length; trivial_time is (size, n) one-point time
    when drawn.  cut_length and discarded_mu_mass are the length law's tail
    cut, 0 and 0.0 when the sampler cuts none."""

    kernel: ChainKernel
    size: int
    groups: tuple
    trivial_time: np.ndarray | None
    cut_length: int
    discarded_mu_mass: float

    def counts(self) -> np.ndarray:
        """(size, n, n) directed crossing counts of each replica's loops."""
        n = self.kernel.n
        idx = []
        for g in self.groups:
            cell = (g.owners[:, None] * n + g.vertices) * n
            cell[:, :-1] += g.vertices[:, 1:]  # each jump's target; the loop
            cell[:, -1] += g.vertices[:, 0]  # closes on its first vertex
            idx.append(cell.ravel())
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


# entries of the conditional-CDF table of _bridges (32 MB); a longer tail
# computes its rows step by step instead
_TABLE_CAP = 1 << 22


def _pick(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each of m draws, given as one column of the (n, m) cumulative
    weights, the index drawn with uniform u: the number of cumulative
    weights at or below u times the total, counting all but the total
    itself, so the index stays below n."""
    thr = u * cdfs[-1]
    # one column at a time: a boolean row sum over 2-3 columns is about 7x slower
    hit = (cdfs[0] <= thr).astype(np.intp)
    for col in cdfs[1:-1]:
        hit += col <= thr
    return hit


def _bridges(q: np.ndarray, lengths: np.ndarray, sizes: np.ndarray, counts: np.ndarray,
             rng) -> np.ndarray:
    """Closed chain paths with the given lengths (sorted, `counts` loops of
    each of the `sizes`), rooted with weight Q^length[x, x] and filled in by
    bridge conditioning: step j picks z with weight Q[y, z] Q^(length - j)[z, start].

    All loops are filled in lockstep; the loops still open at step j are a
    suffix of the sorted lengths.  The uniforms are one array laid out
    group by group as (length, count), row 0 for the starts; the vertices
    come back in one array laid out group by group as (count, length).
    """
    n = len(q)
    top = int(sizes[-1])
    pows = _matrix_powers(q, top)
    span = sizes * counts
    offset = np.repeat(np.cumsum(span) - span, counts)
    rank = np.arange(len(lengths)) - np.repeat(np.cumsum(counts) - counts, counts)
    stride = np.repeat(counts, counts)
    upos = offset + rank  # each loop's next uniform, one stride on per step
    vpos = offset + rank * lengths  # each loop's next vertex, one on per step
    u = rng.random(int(span.sum()))
    verts = np.empty(len(u), dtype=np.intp)
    diag = np.cumsum(np.diagonal(pows, axis1=1, axis2=2), axis=1).T.copy()
    prev = verts[vpos] = _pick(diag.take(lengths, axis=1), u[upos])
    # column (r * n + s) * n + p of the table: the cumsum over z of Q[p, z] Q^r[z, s]
    if top * n**3 <= _TABLE_CAP:
        table = np.cumsum(q[None, None] * pows[:top].transpose(0, 2, 1)[:, :, None],
                          axis=-1).reshape(-1, n).T.copy()

        def cdfs(col):
            return table.take(col, axis=1)
    else:
        pows_t = pows.transpose(0, 2, 1)

        def cdfs(col):
            r, s, p = col // (n * n), col // n % n, col % n
            return np.cumsum(q[p] * pows_t[r, s], axis=1).T
    col = (lengths * n + prev) * n  # r = length - j: one n * n down per step
    done = 0
    for lo in np.searchsorted(lengths, np.arange(1, top), side="right").tolist():
        prev = prev[lo - done:]
        done = lo
        upos[lo:] += stride[lo:]
        vpos[lo:] += 1
        col[lo:] -= n * n
        prev = _pick(cdfs(col[lo:] + prev), u.take(upos[lo:]))
        verts[vpos[lo:]] = prev
    return verts


def direct_block(kernel: ChainKernel, alpha: float, size: int, rng,
                 eps: float = 1e-9, times: bool = False, law: tuple | None = None
                 ) -> LoopBlock:
    """`size` independent ensembles at intensity alpha, all from one generator,
    with one group per length drawn, in increasing order of length.

    Draw order: a Poisson(alpha * truncated mass) loop total per replica;
    one uniform per loop for its length; then for each length in increasing
    order, one uniform per loop of that length for its start and one for
    each later vertex.  With times: one Exp(1) holding time per visit, in
    group order, then Gamma(alpha, 1) one-point time per replica and vertex.
    Holding times come after every vertex, so the loops do not depend on
    `times`.  The bridges of all lengths are filled in lockstep, one step
    for every open loop at a time (see _bridges); the draw order above is
    kept by drawing all bridge uniforms as one array.

    law, when given, is kernel.length_distribution(eps), so that a run of
    many blocks computes it once.
    """
    _check_alpha(alpha)
    if law is None:
        law = kernel.length_distribution(eps)
    cum, total_mass, cut_length, discarded = law
    try:
        loops = rng.poisson(alpha * total_mass, size=size)
    except ValueError:  # a mean beyond the int64 range
        raise BadIntensity(f"intensity too large: a loop count mean of {alpha * total_mass} "
                           "is beyond the Poisson sampler's range") from None
    owners = np.repeat(np.arange(size), loops)
    lengths = 2 + np.searchsorted(cum, rng.random(len(owners)), side="right")
    lengths = lengths.clip(2, len(cum) + 1)
    order = np.argsort(lengths.astype(np.uint16), kind="stable")  # radix: lengths < 10^4 + 2
    owners, lengths = owners[order], lengths[order]
    sizes, first, counts = np.unique(lengths, return_index=True, return_counts=True)
    verts = (_bridges(kernel.q_matrix, lengths, sizes, counts, rng) if len(lengths)
             else np.zeros(0, dtype=np.intp))
    ends = np.cumsum(sizes * counts)[:-1]
    shapes = list(zip(counts.tolist(), sizes.tolist()))
    verts = [part.reshape(shape) for part, shape in zip(np.split(verts, ends), shapes)]
    hold = [None] * len(verts)
    trivial = None
    if times:
        flat = rng.standard_exponential(sum(v.size for v in verts))
        hold = [part.reshape(shape) for part, shape in zip(np.split(flat, ends), shapes)]
        trivial = rng.gamma(alpha, 1.0, size=(size, kernel.n))
    return LoopBlock(
        kernel=kernel,
        size=size,
        groups=tuple(LoopGroup(o, v, t)
                     for o, v, t in zip(np.split(owners, first[1:]), verts, hold)),
        trivial_time=trivial,
        cut_length=cut_length,
        discarded_mu_mass=discarded,
    )


def direct_sample(kernel: ChainKernel, alpha: float, eps: float = 1e-9, seed=None) -> LoopSoup:
    """One ensemble: the single-replica view of direct_block."""
    block = direct_block(kernel, alpha, 1, np.random.default_rng(seed), eps=eps, times=True)
    meta = {"sampler": "direct", "eps": eps, "max_length": block.cut_length,
            "discarded_mu_mass": block.discarded_mu_mass}
    return LoopSoup(block, float(alpha), meta)


def _cycle_popping_walk(kernel: ChainKernel, size: int, rng) -> tuple:
    """The loop-erased walks of `size` cycle-popping replicas, all from one
    generator.

    The walks of all replicas run in lockstep, one uniform per walking
    replica per round.  A walk's phase ends at the cemetery or at a settled
    vertex; the loop-erased path is then settled by following last exits
    from the phase's start, and the replica starts its next phase at its
    first unsettled vertex.  A settled vertex is never left again, so its
    last exit stays its tree edge.

    State lives in flat arrays of cells: replica r owns cells r * (n + 1)
    onwards, the first one its cemetery (always settled) and 1 + x its
    vertex x.  The kernel is read only through n and walk_steps.

    Returns the raw walk: every jump, in round order, as the index
    cell * (n + 1) + 1 + z of a step from `cell` to its replica's vertex z
    (z = -1 the cemetery); exit_to, the cell of each cell's last exit (a
    cemetery cell's own); and the number of steps.
    """
    n = kernel.n
    w = n + 1
    settled = np.zeros(size * w, dtype=bool)
    settled[::w] = True
    exit_to = np.arange(size * w)  # the cell of each cell's last exit
    # per walking replica: the cell of its vertex 0, of its phase start, and
    # the vertex it stands on
    row = np.arange(size) * w + 1
    start = row.copy()
    pos = np.zeros(size, dtype=np.intp)
    jumps = []
    steps = 0
    while len(row):
        z = kernel.walk_steps(pos, rng.random(len(row)))
        steps += len(row)
        cell, nxt = row + pos, row + z  # z = -1 steps into the cemetery cell
        exit_to[cell] = nxt
        jumps.append(cell * w + (z + 1))
        pos = z
        ended = np.flatnonzero(settled[nxt])
        if not len(ended):
            continue
        cur = start[ended]
        while True:  # past the path's end the last exits run through settled cells
            settled[cur] = True
            cur = exit_to[cur]
            if settled[cur].all():
                break
        first = np.full(len(ended), n)  # n: every vertex settled
        zero = row[ended]
        for x in range(n - 1, -1, -1):
            first = np.where(settled[zero + x], first, x)
        start[ended] = zero + first
        pos[ended] = first
        if (first == n).any():  # a replica with every vertex settled (start = row + n) stops
            walking = start < row + n
            row, start, pos = row[walking], start[walking], pos[walking]
    return _concat(jumps, np.intp), exit_to, steps


def wilson_counts(kernel: ChainKernel, size: int, rng) -> tuple:
    """Jump networks of `size` cycle-popping ensembles, all from one generator.

    The network is every walk transition minus the tree edges x -> parent(x),
    the walk's last exits, so only the walk (_cycle_popping_walk) is drawn:
    the holding times and the Poisson-Dirichlet split do not matter here.
    At size 1 the walk is wilson_sample's.

    Returns the (size, n, n) counts and block diagnostics (walk steps).
    """
    jumps, exit_to, steps = _cycle_popping_walk(kernel, size, rng)
    w = kernel.n + 1
    counts = np.bincount(jumps, minlength=size * w * w)
    cells = np.arange(size * w)
    counts[cells * w + exit_to - cells // w * w] -= 1  # the tree edges
    return counts.reshape(size, w, w)[:, 1:, 1:], {"replicas": size, "walk_steps": steps}


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


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One int64 code per row of a 2-d integer array, ordered like the rows
    lexicographically: the columns are folded into a mixed-radix code, and
    the codes are replaced by their ranks only when the next column would
    take them past 2^63."""
    code = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code lies in [0, bound)
    for col in rows.T:
        top = int(col.max(initial=0))
        if not top:
            continue
        if bound * (top + 1) > 1 << 63:
            ranked, code = np.unique(code, return_inverse=True)
            bound = len(ranked)
        code = code * (top + 1) + col
        bound *= top + 1
    return code


def _key_counts(counts: np.ndarray) -> tuple:
    """Distinct rows of the flattened count matrices, in lexicographic order,
    with their frequencies.  Equal row codes mean equal rows, so one sort of
    the codes finds the rows and their frequencies."""
    rows = counts.reshape(len(counts), -1)
    code = _row_codes(rows)
    order = np.argsort(code)
    code = code[order]
    first = np.flatnonzero(np.diff(code, prepend=-1))
    return rows[order[first]], np.diff(first, append=len(code))


def _direct_histogram_block(kernel, alpha, law, rng, size) -> tuple:
    block = direct_block(kernel, alpha, size, rng, law=law)
    return _key_counts(block.counts()) + (block.diagnostics(),)


def _wilson_histogram_block(kernel, rng, size) -> tuple:
    counts, diagnostics = wilson_counts(kernel, size, rng)
    return _key_counts(counts) + (diagnostics,)


def _direct_occupation_block(kernel, alpha, law, rng, size) -> tuple:
    block = direct_block(kernel, alpha, size, rng, times=True, law=law)
    return block.occupation(), block.diagnostics()


def network_histogram(kernel: ChainKernel, replicas: int, seed: int,
                      sampler: str = "direct", alpha: float = 1.0,
                      eps: float = 1e-9) -> Histogram:
    """Histogram of jump networks over independent replica ensembles, drawn
    block by block in (seed, block) streams.

    The networks are inserted in the order of their first block, and in
    lexicographic order within it.  Statistics summed over the histogram in
    its iteration order (fields._histogram_stat) depend on that order in
    their last bits, so it is kept as the definition of a run's result.
    """
    if sampler == "wilson":
        if alpha != 1.0:
            raise BadIntensity("the cycle-popping sampler is defined at alpha = 1 only")
        task = partial(_wilson_histogram_block, kernel)
    elif sampler == "direct":
        _check_alpha(alpha)
        task = partial(_direct_histogram_block, kernel, alpha, kernel.length_distribution(eps))
    else:
        raise UnknownSampler(f"unknown sampler {sampler!r}; use 'direct' or 'wilson'")
    parts = replica_map(task, replicas, seed)
    diagnostics = {"sampler": sampler, "alpha": alpha, **merge_diagnostics([p[2] for p in parts])}
    if sampler == "direct":
        diagnostics["eps"] = eps
    # each block's keys are distinct and sorted; a stable sort of all keys'
    # codes groups equal keys with the first block's copy at the front
    rows = np.concatenate([p[0] for p in parts])
    code = _row_codes(rows)
    order = np.argsort(code, kind="stable")
    first = np.flatnonzero(np.diff(code[order], prepend=-1))
    total = np.add.reduceat(np.concatenate([p[1] for p in parts])[order], first)
    seen = order[first]  # the row of each key's first block
    keep = np.argsort(seen)
    n = kernel.n
    keys = [tuple(map(tuple, key)) for key in rows[seen[keep]].reshape(-1, n, n).tolist()]
    return Histogram(dict(zip(keys, total[keep].tolist())), diagnostics=diagnostics)


def occupation_samples(kernel: ChainKernel, alpha: float, replicas: int, seed,
                       eps: float = 1e-9, meta: dict | None = None) -> np.ndarray:
    """replicas x n matrix of occupation fields from independent ensembles,
    drawn block by block in (seed, block) streams.  meta, when given,
    receives the sampler diagnostics."""
    _check_alpha(alpha)
    parts = replica_map(partial(_direct_occupation_block, kernel, alpha,
                                kernel.length_distribution(eps)),
                        replicas, seed)
    if meta is not None:
        meta.update({"sampler": "direct", "alpha": alpha, "eps": eps,
                     **merge_diagnostics([p[1] for p in parts])})
    return np.concatenate([p[0] for p in parts]) if parts else np.empty((0, kernel.n))


def occupation(soup: LoopSoup) -> np.ndarray:
    """Total loop time per vertex (one-point time included) divided by lam:
    the soup's row of LoopBlock.occupation."""
    return soup.block.occupation()[0]


def jump_matrix(soup: LoopSoup) -> Network:
    """Directed crossing counts of all loops: the soup's row of LoopBlock.counts."""
    return Network(soup.graph, soup.block.counts()[0])
