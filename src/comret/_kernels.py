"""Hot scoring kernels: the per-page inner-product sweep and the logistic.

The per-query cost is dominated by the two matrix sweeps, one inner
product per page per modality, accumulated in float64 over float32 rows.
The sweep upcasts a few rows at a time into a float64 block small enough
to stay in cache and hands each block to BLAS, so the float64 copy of the
matrix is never materialized.
"""

from __future__ import annotations

import numpy as np

# Open-interval bounds for the logistic squash: smallest normal double and
# the largest double below 1. Saturated scores clamp here instead of
# touching 0.0 / 1.0.
SIGMOID_FLOOR = 2.2250738585072014e-308
SIGMOID_CEIL = 0.9999999999999999

# Rows upcast per BLAS call: 128 x 1152 float64 is 1.2 MB, small enough
# to stay in cache while BLAS reads it.
_BLOCK_ROWS = 128


def inner_products(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Inner product of ``query`` with every row of ``matrix``.

    matrix is (count, dim) float32, query is (dim,) float64; the result is
    float64 with all accumulation done in float64.
    """
    count = matrix.shape[0]
    out = np.empty(count, dtype=np.float64)
    # One buffer per call, not per module: run_queries and diagnose sweep
    # from several threads at once.
    block = np.empty((min(_BLOCK_ROWS, count), matrix.shape[1]), dtype=np.float64)
    for lo in range(0, count, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, count)
        rows = block[: hi - lo]
        rows[...] = matrix[lo:hi]
        np.dot(rows, query, out=out[lo:hi])
    return out


def logistic(values: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)), clamped to stay strictly inside (0, 1)."""
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(values, dtype=np.float64)))
    return np.clip(out, SIGMOID_FLOOR, SIGMOID_CEIL)
