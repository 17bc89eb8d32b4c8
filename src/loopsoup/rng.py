"""Seed handling and block-parallel execution.

Monte Carlo replicas are drawn in blocks of BLOCK consecutive replicas.
Block b of a run with master seed s draws every number it uses from one
counter-based Philox4x64 stream keyed by (s, b) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), in a draw order fixed by the
block sampler.  A block's result is therefore a function of (s, b) and the
block's size alone, and does not depend on how blocks are spread over
worker processes.  BLOCK is part of the stream definition: changing it
changes every Monte Carlo number, so it is a constant, not a parameter.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable

import numpy as np

from .errors import BadReplicaCount, BadSeed

BLOCK = 8192
SCHEME = {"generator": "Philox4x64-10", "key": "(seed, block)", "block": BLOCK}

_U64 = 0xFFFFFFFFFFFFFFFF


def stream_seed(seed) -> int:
    """The master seed of a (seed, block) stream family; integers only."""
    if not isinstance(seed, Integral):
        raise BadSeed(
            f"block streams are keyed by an integer seed, got {type(seed).__name__}"
        )
    return int(seed)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, index); the drivers use index = block."""
    key = np.array([int(seed) & _U64, int(index) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_count(count) -> int:
    """The count as an int; BadReplicaCount unless it is an integer >= 1."""
    if not isinstance(count, Integral) or count < 1:
        raise BadReplicaCount(
            f"need an integer count of at least one replica, got {count!r}")
    return int(count)


def _run_block(fn: Callable, seed: int, block: int, size: int):
    return fn(replica_rng(seed, block), size)


def replica_map(fn: Callable, n_replicas: int, seed: int, workers: int = 1) -> list:
    """Apply fn(rng, size) once per block of replicas, in block order.

    Block b covers replicas b*BLOCK onwards and gets the (seed, b) stream.
    fn must be picklable when workers > 1; worker processes are spawned,
    so they import the package afresh.  The result list does not depend on
    the worker count.  Raises BadReplicaCount unless n_replicas is an
    integer >= 1.
    """
    seed = stream_seed(seed)
    full, rest = divmod(_check_count(n_replicas), BLOCK)
    sizes = [BLOCK] * full + ([rest] if rest else [])
    if workers is None or workers <= 1 or len(sizes) < 2:
        return [_run_block(fn, seed, b, size) for b, size in enumerate(sizes)]
    # imported here: they make up about half of the package's import time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    n = len(sizes)
    with ProcessPoolExecutor(max_workers=min(workers, n),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_run_block, [fn] * n, [seed] * n, range(n), sizes))
