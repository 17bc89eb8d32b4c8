"""Integer-valued directed edge networks over a fixed graph.

A network records, for every ordered vertex pair with positive conductance,
how many directed crossings a loop configuration makes.  It is the discrete
current object that loop ensembles, Eulerian tours and homology all read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadGraph
from .graphs import WeightedGraph


def _holds_bool(value) -> bool:
    """Whether nested lists hold a bool, which numpy reads as 1 beside ints."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


def _checked_counts(graph: WeightedGraph, counts) -> np.ndarray:
    """A read-only int64 copy of a stack (R, n, n) of count matrices, each
    finite, integer-valued, nonnegative and zero off the edge set and on the
    diagonal; raises BadGraph at the first check a row fails."""
    raw = counts
    try:
        counts = np.asarray(counts)
    except ValueError:  # ragged rows
        raise BadGraph("network counts must be a matrix of numbers") from None
    n = graph.n
    if counts.shape[1:] != (n, n):
        raise BadGraph(f"network counts must be {n}x{n}, got shape {counts.shape[1:]}")
    if counts.dtype.kind not in "biuf":  # strings, nulls, objects
        raise BadGraph("network counts must be a matrix of numbers")
    if counts.dtype.kind == "b" or (raw is not counts and _holds_bool(raw)):
        raise BadGraph("network counts must be a matrix of numbers, not booleans")
    if counts.dtype.kind == "f":
        if not np.isfinite(counts).all():
            raise BadGraph("network counts must be finite")
        rounded = np.rint(counts)
        if np.count_nonzero(np.abs(counts - rounded) > 1e-9):
            raise BadGraph("network counts must be integers")
        counts = rounded
    counts = counts.astype(np.int64)
    if np.count_nonzero(counts < 0):
        raise BadGraph("network counts must be nonnegative")
    if np.count_nonzero(counts[:, graph.conductance == 0]):
        raise BadGraph("network counts must vanish off the edge set")
    if np.count_nonzero(counts.diagonal(axis1=1, axis2=2)):
        raise BadGraph("network counts must vanish on the diagonal")
    counts.setflags(write=False)
    return counts


def _row_codes(rows: np.ndarray, limit: int = 1 << 63) -> np.ndarray:
    """One int64 code per row of a 2-d integer array, ordered like the rows
    lexicographically: the columns are folded into a mixed-radix code, and
    the codes are replaced by their ranks only when the next column would
    take them past limit (at most 2^63).  Equal codes mean equal rows, so
    one sort of the codes groups the networks of the sample histograms
    (soup._key_counts: each block, the merge of the blocks, and check 13's
    two histograms) and dedups the enumerated circulation layers
    (eulerian._circulation_layers).  Ranks depend on the whole array, so
    only codes from one call compare."""
    code = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code lies in [0, bound)
    for col in rows.T:
        # one max per column: on the tall, narrow blocks of the histograms a
        # single max over axis 0, or over a transposed copy, is slower
        top = int(col.max(initial=0))
        if not top:
            continue
        if bound * (top + 1) > limit:
            ranked, code = np.unique(code, return_inverse=True)
            bound = len(ranked)
        code *= top + 1
        code += col
        bound *= top + 1
    return code


@dataclass(frozen=True, eq=False)
class Network:
    """Nonnegative integer crossing counts on the directed edges of a graph.

    The counts are checked as the one-row stack of _checked_counts, so a
    single network and Network.stack share one validator."""

    graph: WeightedGraph
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _checked_counts(self.graph, [self.counts])[0])

    @classmethod
    def stack(cls, graph: WeightedGraph, counts) -> list:
        """One network per row of a stack (R, n, n) of count matrices, the
        stack checked once as a whole."""
        nets = []
        for row in _checked_counts(graph, counts):
            net = object.__new__(cls)
            object.__setattr__(net, "graph", graph)
            object.__setattr__(net, "counts", row)
            nets.append(net)
        return nets

    @classmethod
    def zeros(cls, graph: WeightedGraph) -> "Network":
        return cls(graph, np.zeros((graph.n, graph.n), dtype=np.int64))

    @classmethod
    def from_json_dict(cls, graph: WeightedGraph, data) -> "Network":
        if not isinstance(data, dict) or "counts" not in data:
            raise BadGraph("network data must be an object with a 'counts' matrix")
        return cls(graph, data["counts"])

    def to_json_dict(self) -> dict:
        return {"counts": self.counts.tolist()}

    @property
    def total(self) -> int:
        """Total number of directed crossings."""
        return int(self.counts.sum())

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def is_eulerian(self) -> bool:
        """Balanced at every vertex: out-count equals in-count."""
        return bool((self.out_degrees == self.in_degrees).all())

    @cached_property
    def support(self) -> np.ndarray:
        """Vertices touched by at least one crossing."""
        return np.flatnonzero((self.out_degrees + self.in_degrees) > 0)

    def key(self) -> tuple:
        """Hashable identity of the count matrix."""
        return tuple(map(tuple, self.counts.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.graph.vertices == other.graph.vertices and np.array_equal(
            self.counts, other.counts
        )

    def __hash__(self) -> int:
        return hash((self.graph.vertices, self.key()))
