"""Poissonian ensembles of continuous-time loops on a transient chain.

Two independent samplers produce the ensemble law:

  * cycle popping, intensity 1 only.  Loop-erased random walks run in vertex
    order toward the cemetery, giving the random spanning tree rooted at the
    cemetery.  Jointly, the walk gives the loop ensemble: each vertex's
    stretch of the walk, up to its last visit, is cut into excursions at its
    visits, and the excursions are grouped into loops by an Ewens(1)
    partition; each visit keeps its holding time.
  * direct, any intensity alpha > 0.  A Poisson number of loops is drawn
    from the truncated loop-length law and each loop is filled in by bridge
    conditioning; one-point loop time is aggregated per vertex as an
    independent Gamma(alpha, 1) variable.

Monte Carlo runs go through a replica axis: direct_block and wilson_counts
draw a whole block of replicas from one generator as arrays, and
network_histogram and occupation_samples reduce the blocks of a run (see
rng for the (seed, block) streams); network_histogram can reduce each
direct block to both, its networks and its occupation fields.  The
single-ensemble samplers are one-replica views: direct_sample of
direct_block, and wilson_sample of the cycle-popping walk that
wilson_counts reduces to jump networks; only the view builds the spanning
tree and the loops with their holding times.
Either way a LoopSoup holds a one-replica LoopBlock, so its jump network and
occupation are that block's reductions.

LoopSoup.loops presents the loops as shift-equivalence representatives,
rotated so the minimal vertex index comes first (ties broken by the
lexicographically smallest vertex sequence); the block stores them as drawn.
Only class functions of the ensemble (crossing counts, occupation) are
compared across samplers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import BadIntensity, BadSamplerInput, UnknownSampler, _check_alpha
from .graphs import ChainKernel, WeightedGraph
from .network import Network, _row_codes
from .rng import DRAW_CAP, TAIL_CUT, _check_sample, replica_map, seeded_rng, stream_seed


class BasedLoop(NamedTuple):
    """Cyclic vertex sequence with one positive holding time per visit."""

    vertices: tuple
    times: tuple


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
    the lexicographically smallest vertex sequence, then to the first such
    rotation."""
    m = min(verts)
    rot, r = min((verts[r:] + verts[:r], r) for r, v in enumerate(verts) if v == m)
    return tuple(rot), tuple(times[r:] + times[:r])


def wilson_sample(kernel: ChainKernel, seed) -> tuple:
    """Run loop-erased walks to the cemetery; return (parents, LoopSoup at 1).

    The one-replica view of wilson_counts: its walk at size 1 on
    rng.seeded_rng(seed), then one Exp(1) hold and then one uniform per
    visit.  parents[x] is the tree parent of x, its last exit, -1 meaning
    the cemetery.  Each vertex's last visit ends its stretch, which starts
    right after the previous last visit of any vertex; its own visits cut
    the stretch into excursions, and its last visit's hold is its one-point
    time.  Excursion i at a vertex, with the uniform u of its first visit,
    starts a loop if j = int(u * (i + 1)) is i and joins excursion j's loop
    otherwise: the Feller coupling of Ewens(1).  Every visit keeps its hold,
    which is exact: given the partition, a Poisson-Dirichlet split of the
    vertex's time gives its k excursions and its one-point time k + 1
    i.i.d. Exp(1) times.  One one-row group per loop, in stretch order.
    """
    rng = seeded_rng(seed)
    n = kernel.n
    jumps, exit_to, steps = _cycle_popping_walk(kernel, 1, rng)
    visits = jumps // (n + 1) - 1  # index // (n + 1): the cell 1 + x a jump leaves
    holds = rng.standard_exponential(steps)
    u = rng.random(steps).tolist()
    walk = visits.tolist()
    last = {x: t for t, x in enumerate(walk)}  # each vertex's last visit
    groups = []
    trivial = np.zeros((1, n))
    start = 0
    for end in sorted(last.values()):
        x = walk[end]
        cuts = [t for t in range(start, end) if walk[t] == x] + [end]
        loops, of = [], []  # per loop its visit indices, per excursion its loop
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            j = int(u[a] * (i + 1))
            of.append(len(loops) if j == i else of[j])
            if j == i:
                loops.append([])
            loops[of[i]] += range(a, b)
        groups += [LoopGroup(np.zeros(1, dtype=np.intp), visits[None, idx], holds[None, idx])
                   for idx in loops]
        trivial[0, x] = holds[end]
        start = end + 1
    block = LoopBlock(kernel=kernel, size=1, groups=tuple(groups), trivial_time=trivial,
                      cut_length=0, discarded_mu_mass=0.0)
    soup = LoopSoup(block, 1.0, {"sampler": "wilson", "walk_steps": steps})
    return tuple((exit_to[1:] - 1).tolist()), soup


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


def direct_block(kernel: ChainKernel, alpha: float, size: int, rng, times: bool = False,
                 law: tuple | None = None) -> LoopBlock:
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

    law is the loop-length law kernel.length_distribution(eps), cut at
    TAIL_CUT when not given, so that a run of many blocks computes it once.
    Raises BadIntensity, before drawing, when the block's expected loop
    count passes DRAW_CAP.
    """
    _check_alpha(alpha)
    if law is None:
        law = kernel.length_distribution(TAIL_CUT)
    cum, total_mass, cut_length, discarded = law
    if alpha * total_mass * size > DRAW_CAP:
        raise BadIntensity(f"intensity too large: {alpha * total_mass * size:.4g} expected "
                           f"loops in a block of {size} replicas, past the cap of {DRAW_CAP}")
    owners = np.repeat(np.arange(size), rng.poisson(alpha * total_mass, size=size))
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


def direct_sample(kernel: ChainKernel, alpha: float, eps: float = TAIL_CUT,
                  seed=None) -> LoopSoup:
    """One ensemble: the single-replica view of direct_block."""
    block = direct_block(kernel, alpha, 1, seeded_rng(seed), times=True,
                         law=kernel.length_distribution(eps))
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
    the holding times and the grouping of the excursions do not matter here.
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
    diagnostics of the sampler run that drew them, the master seed of its
    (seed, block) streams and, when drawn, the replicas x n matrix of its
    replicas' occupation fields (None otherwise)."""

    def __init__(self, counts=(), diagnostics=None, seed=None, occupation=None):
        super().__init__(counts)
        self.diagnostics = dict(diagnostics or {})
        self.seed = seed
        self.occupation = occupation


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


def _occupation_writer(kernel: ChainKernel, alpha: float, law: tuple, rows: np.ndarray):
    """The block task of an occupation run into the (n, replicas) array rows:
    write(rng, size) draws the run's next block with holding times, writes
    its occupation fields into the next `size` columns and returns the block."""
    end = 0

    def write(rng, size) -> LoopBlock:
        nonlocal end
        block = direct_block(kernel, alpha, size, rng, times=True, law=law)
        rows[:, end:end + size] = block.occupation().T
        end += size
        return block
    return write


def _direct_histogram_block(kernel, alpha, law, write, rng, size) -> tuple:
    block = (direct_block(kernel, alpha, size, rng, law=law) if write is None
             else write(rng, size))
    return _key_counts(block.counts()) + (block.diagnostics(),)


def _wilson_histogram_block(kernel, rng, size) -> tuple:
    counts, diagnostics = wilson_counts(kernel, size, rng)
    return _key_counts(counts) + (diagnostics,)


def network_histogram(kernel: ChainKernel, replicas: int, seed: int,
                      sampler: str = "direct", alpha: float = 1.0,
                      occupation: bool = False) -> Histogram:
    """Histogram of jump networks over independent replica ensembles, drawn
    block by block in (seed, block) streams; the direct sampler cuts the
    loop-length tail at TAIL_CUT.

    The networks are inserted in the order of their first block, and in
    lexicographic order within it.  Statistics summed over the histogram in
    its iteration order (fields._histogram_stat) depend on that order in
    their last bits, so it is kept as the definition of a run's result.

    With occupation, the direct sampler's blocks are drawn with holding
    times and the histogram's `occupation` is their occupation fields, the
    matrix occupation_samples(kernel, alpha, replicas, seed) gives.  Every
    holding time is drawn after every vertex, so the networks are the same.
    Fields past SAMPLE_CAP entries raise BadReplicaCount before anything is
    drawn.  The cycle-popping sampler has no occupation fields here: asking
    for them raises BadSamplerInput before anything is drawn.
    """
    occ = write = None
    if sampler == "wilson":
        if alpha != 1.0:
            raise BadIntensity("the cycle-popping sampler is defined at alpha = 1 only")
        if occupation:
            raise BadSamplerInput("occupation fields come from the direct sampler only")
        task = partial(_wilson_histogram_block, kernel)
    elif sampler == "direct":
        _check_alpha(alpha)
        law = kernel.length_distribution(TAIL_CUT)
        if occupation:
            occ = np.empty((kernel.n, _check_sample(kernel.n, replicas)))
            write = _occupation_writer(kernel, alpha, law, occ)
        task = partial(_direct_histogram_block, kernel, alpha, law, write)
    else:
        raise UnknownSampler(f"unknown sampler {sampler!r}; use 'direct' or 'wilson'")
    parts = replica_map(task, replicas, seed)
    diagnostics = {"sampler": sampler, "alpha": alpha, **merge_diagnostics([p[2] for p in parts])}
    if sampler == "direct":
        diagnostics["eps"] = TAIL_CUT
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
    return Histogram(dict(zip(keys, total[keep].tolist())), diagnostics=diagnostics,
                     seed=stream_seed(seed), occupation=None if occ is None else occ.T)


def occupation_samples(kernel: ChainKernel, alpha: float, replicas: int, seed,
                       eps: float = TAIL_CUT, meta: dict | None = None) -> np.ndarray:
    """replicas x n matrix of occupation fields from independent ensembles,
    drawn block by block in (seed, block) streams.  Each block is written
    into one (n, replicas) array as it is drawn, and the matrix is that
    array's transpose: one contiguous row per vertex.  meta, when given,
    receives the sampler diagnostics.  Raises BadReplicaCount, before
    drawing, when the matrix would pass SAMPLE_CAP entries."""
    _check_alpha(alpha)
    law = kernel.length_distribution(eps)
    seed = stream_seed(seed)
    rows = np.empty((kernel.n, _check_sample(kernel.n, replicas)))
    write = _occupation_writer(kernel, alpha, law, rows)
    diagnostics = replica_map(lambda rng, size: write(rng, size).diagnostics(), replicas, seed)
    if meta is not None:
        meta.update({"sampler": "direct", "alpha": alpha, "eps": eps,
                     **merge_diagnostics(diagnostics)})
    return rows.T


def occupation(soup: LoopSoup) -> np.ndarray:
    """Total loop time per vertex (one-point time included) divided by lam:
    the soup's row of LoopBlock.occupation."""
    return soup.block.occupation()[0]


def jump_matrix(soup: LoopSoup) -> Network:
    """Directed crossing counts of all loops: the soup's row of LoopBlock.counts."""
    return Network(soup.graph, soup.block.counts()[0])
