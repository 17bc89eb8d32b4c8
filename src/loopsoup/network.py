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


@dataclass(frozen=True, eq=False)
class Network:
    """Nonnegative integer crossing counts on the directed edges of a graph."""

    graph: WeightedGraph
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        n = self.graph.n
        if counts.shape != (n, n):
            raise BadGraph(f"network counts must be {n}x{n}, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.isfinite(counts).all():
                raise BadGraph("network counts must be finite")
            rounded = np.rint(counts)
            if not np.allclose(counts, rounded, atol=1e-9, rtol=0.0):
                raise BadGraph("network counts must be integers")
            counts = rounded.astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise BadGraph("network counts must be nonnegative")
        if (counts[self.graph.conductance == 0] != 0).any():
            raise BadGraph("network counts must vanish off the edge set")
        if (np.diag(counts) != 0).any():
            raise BadGraph("network counts must vanish on the diagonal")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def zeros(cls, graph: WeightedGraph) -> "Network":
        return cls(graph, np.zeros((graph.n, graph.n), dtype=np.int64))

    @classmethod
    def from_json_dict(cls, graph: WeightedGraph, data) -> "Network":
        if not isinstance(data, dict) or "counts" not in data:
            raise BadGraph("network data must be an object with a 'counts' matrix")
        try:
            counts = np.asarray(data["counts"])
            if counts.dtype.kind not in "biuf":
                raise ValueError
        except ValueError:  # ragged rows, strings or nulls
            raise BadGraph("network counts must be a matrix of numbers") from None
        return cls(graph, counts)

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

    def __add__(self, other: "Network") -> "Network":
        if other.graph is not self.graph and other.graph.vertices != self.graph.vertices:
            raise BadGraph("cannot add networks over different graphs")
        return Network(self.graph, self.counts + other.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.graph.vertices == other.graph.vertices and np.array_equal(
            self.counts, other.counts
        )

    def __hash__(self) -> int:
        return hash((self.graph.vertices, self.key()))
