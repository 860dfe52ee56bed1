"""Deterministic parallel helpers.

Work is split by fixed block boundaries and recombined in index order with a
fixed pairwise reduction tree, so results are bit-identical for any worker
count. Threads do not pay off for the shift kernel, whose blocks are mostly
small numpy calls under the interpreter lock: `BENCH_6.json` measured
2 threads at 0.70 times the speed of one (`parallel.speedup_2t`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np


def block_ranges(n_items: int, block: int) -> list[tuple[int, int]]:
    """Half-open index ranges of width `block`; the partition never depends on thread count."""
    if block <= 0:
        raise ValueError("block size must be positive")
    return [(start, min(start + block, n_items)) for start in range(0, n_items, block)]


def map_ordered(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Apply fn to each item, returning results in input order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def pairwise_sum(values: Iterable):
    """Sum by a fixed binary tree over the input order.

    The tree shape depends only on the number of terms, so partial sums
    computed by different workers always combine identically. Terms may be
    scalars or equal-shape arrays.
    """
    level = [v if isinstance(v, np.ndarray) else float(v) for v in values]
    if not level:
        return 0.0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i] + level[i + 1])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


__all__ = ["block_ranges", "map_ordered", "pairwise_sum"]
