"""Seed handling and block-wise execution.

Monte Carlo replicas are drawn in blocks of BLOCK consecutive replicas.
Block b of a run with master seed s draws every number it uses from one
counter-based Philox4x64 stream keyed by (s, b) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), in a draw order fixed by the
block sampler.  A block's result is therefore a function of (s, b) and the
block's size alone.  BLOCK is part of the stream definition: changing it
changes every Monte Carlo number, so it is a constant, not a parameter.
The Monte Carlo drivers loop over replica_blocks, which hands out each
block's stream with the block's place in the run; no other module keys a
stream.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable, Iterator

import numpy as np

from .errors import BadReplicaCount, BadSeed

BLOCK = 8192
DRAW_CAP = 1 << 24  # expected loops or excursions in one block (about 1 GB of arrays)
SAMPLE_CAP = 1 << 27  # float64 entries of one held (n, replicas) sample (1 GiB)
TAIL_CUT = 1e-9  # default eps: the loop-length mass the direct sampler may cut
SCHEME = {"generator": "Philox4x64-10", "key": "(seed, block)", "block": BLOCK}

_U64 = 0xFFFFFFFFFFFFFFFF


def stream_seed(seed) -> int:
    """The master seed of a (seed, block) stream family; integers, not bools."""
    if not isinstance(seed, Integral) or isinstance(seed, bool):
        raise BadSeed(f"a seed must be an integer, got {type(seed).__name__}")
    return int(seed)


def seeded_rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed) for an integer seed; a negative seed is
    taken modulo 2^64, as the Philox key takes it.  Raises BadSeed for
    anything else."""
    seed = stream_seed(seed)
    return np.random.default_rng(seed % (_U64 + 1) if seed < 0 else seed)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, index); the drivers use index = block."""
    key = np.array([int(seed) & _U64, int(index) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_count(count) -> int:
    """The count as an int; BadReplicaCount unless it is an integer >= 1, not a bool."""
    if not isinstance(count, Integral) or isinstance(count, bool) or count < 1:
        raise BadReplicaCount(
            f"need an integer count of at least one replica, got {count!r}")
    return int(count)


def _check_sample(n: int, replicas) -> int:
    """_check_count(replicas), and BadReplicaCount when an (n, replicas)
    float64 sample would pass SAMPLE_CAP entries; call before drawing."""
    replicas = _check_count(replicas)
    if n * replicas > SAMPLE_CAP:
        raise BadReplicaCount(f"{n} x {replicas} sample entries pass the cap of {SAMPLE_CAP}")
    return replicas


def replica_blocks(n_replicas: int, seed: int) -> Iterator[tuple]:
    """The blocks of a run, in block order, as (rng, start, size): block b
    covers the `size` replicas from start = b*BLOCK onwards and rng is its
    (seed, b) stream, built when the block is reached.  Raises BadSeed or
    BadReplicaCount before any block unless seed and n_replicas are
    integers, n_replicas >= 1."""
    seed, n = stream_seed(seed), _check_count(n_replicas)
    return ((replica_rng(seed, b), start, min(BLOCK, n - start))
            for b, start in enumerate(range(0, n, BLOCK)))


def replica_map(fn: Callable, n_replicas: int, seed: int) -> list:
    """[fn(rng, size) for each block of replica_blocks(n_replicas, seed)]."""
    return [fn(rng, size) for rng, _, size in replica_blocks(n_replicas, seed)]
