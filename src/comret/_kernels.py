"""Hot scoring kernels: the per-page inner-product sweep and the logistic.

The cost of scoring is dominated by the matrix sweeps, one inner product
per page per modality and query, accumulated in float64 over float32
rows. The sweep upcasts a few rows at a time into a float64 block small
enough to stay in cache and hands each block to BLAS together with every
query of the batch, so the float64 copy of the matrix is never
materialized and each upcast is shared by all the queries.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Open-interval bounds for the logistic squash: smallest normal double and
# the largest double below 1. Saturated scores clamp here instead of
# touching 0.0 / 1.0.
SIGMOID_FLOOR = 2.2250738585072014e-308
SIGMOID_CEIL = 0.9999999999999999

# Rows upcast per BLAS call: 128 x 1152 float64 is 1.2 MB, small enough
# to stay in cache while BLAS reads it.
_BLOCK_ROWS = 128


def inner_products(matrix: np.ndarray, query: np.ndarray, threads: int = 1) -> np.ndarray:
    """Inner product of each query with every row of ``matrix``.

    matrix is (count, dim) float32; query is one (dim,) float64 vector or
    a (dim, Q) float64 block of Q queries. The result is (count,) or
    (count, Q) float64, with all accumulation done in float64.

    Every BLAS call sees the same number of rows: the last, partial block
    is computed as the last full block, overlapping the one before it.
    A matrix product may sum a short block in another order, so without
    this two equal rows could score differently in the last bit. With
    ``threads`` > 1 the blocks are shared out between that many threads;
    each block is computed the same way, so the result does not depend on
    the thread count.
    """
    count = matrix.shape[0]
    out = np.empty((count, *query.shape[1:]), dtype=np.float64)
    rows = min(_BLOCK_ROWS, count)
    if rows == 0:
        return out
    starts = list(range(0, count - rows + 1, rows))
    if count % rows:
        starts.append(count - rows)

    def sweep(part: list[int]) -> None:
        # One upcast buffer per worker: blocks are swept concurrently.
        block = np.empty((rows, matrix.shape[1]), dtype=np.float64)
        for lo in part:
            block[...] = matrix[lo : lo + rows]
            if lo % rows:  # the overlapping tail: keep only its new rows
                tail = count % rows
                out[-tail:] = np.dot(block, query)[-tail:]
            else:
                np.dot(block, query, out=out[lo : lo + rows])

    workers = max(1, min(threads, len(starts)))
    if workers == 1:
        sweep(starts)
    else:
        # Contiguous runs of blocks, one per worker.
        bounds = [len(starts) * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(sweep, [starts[a:b] for a, b in zip(bounds, bounds[1:])]))
    return out


def logistic(values: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)), clamped to stay strictly inside (0, 1)."""
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(values, dtype=np.float64)))
    return np.clip(out, SIGMOID_FLOOR, SIGMOID_CEIL)
