"""Hot scoring kernels: the per-page inner-product sweep and the logistic.

The cost of scoring is dominated by the matrix sweeps, one inner product
per page per modality and query, accumulated in float64 over float32
rows. The sweep upcasts a few rows at a time into a float64 block small
enough to stay in cache and hands each block to BLAS together with every
query of the batch, so the float64 copy of the matrix is never
materialized and each upcast is shared by all the queries. A block of
several queries gets fewer rows, so that OpenBLAS multiplies it with its
small-matrix kernel, which reads the block in place instead of packing a
copy of it first.

One call sweeps several (matrix, query block) pairs, say both channels
of a block of queries, from one queue of row blocks: the calling thread
and its helpers each take the next block until none is left, so a thread
that runs late delays the call by one block at most, and the call waits
for its threads once, not once per matrix.

This module owns the sweep's thread count: ``threads=None`` means every
core this process may run on (``default_threads``). While a sweep runs on
more than one thread, NumPy's bundled OpenBLAS is held at one thread of
its own (``blas_cap``), so the two kinds of threads do not compete for
the cores; no score depends on either count.

OpenBLAS shuts its thread pool down whenever the process forks, and any
later call that sets its thread count starts a new pool, whose thread
busy-waits beside the sweep's own threads. So the cap sets nothing when
OpenBLAS already runs one thread, and a process that ran a forking
``ingest`` keeps OpenBLAS at one thread afterwards (``BlasCap.pin``).
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# Open-interval bounds for the logistic squash: smallest normal double and
# the largest double below 1. Saturated scores clamp here instead of
# touching 0.0 / 1.0.
SIGMOID_FLOOR = 2.2250738585072014e-308
SIGMOID_CEIL = 0.9999999999999999

# Most rows upcast per BLAS call: 128 x 1152 float64 is 1.2 MB, small
# enough to stay in cache while BLAS reads it. A single query keeps 128
# rows up to 7,812 dims; a block of several queries may get fewer.
_BLOCK_ROWS = 128

# OpenBLAS's small-matrix limit: a product of at most this many
# multiply-adds (rows x queries x dim) runs a kernel that reads its
# operands in place; a larger one first packs the float64 block, in effect
# a second copy of it. Each block keeps under it where 8 rows allow.
_SMALL_MATRIX_MADDS = 1_000_000


def default_threads() -> int:
    """The sweep's thread count when none is given: the usable cores."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class BlasCap:
    """Holds a BLAS library at one thread while any capped sweep runs.

    The library's thread count is process-wide, so overlapping sweeps
    share one cap: the first to enter saves the count and sets 1, the
    last to leave restores the saved count. Neither sets anything when
    the library already runs one thread: after a fork, that call would
    start a pool of threads that only spin.
    """

    def __init__(self, get_threads: Callable[[], int], set_threads: Callable[[int], None]):
        self.get_threads = get_threads
        self.set_threads = set_threads
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = self.get_threads()
                if self._saved != 1:
                    self.set_threads(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved != 1:
                self.set_threads(self._saved)

    def pin(self) -> None:
        """Hold the library at one thread for the rest of the process;
        a sweep running now restores nothing when it ends."""
        with self._lock:
            self._saved = 1
            if self.get_threads() != 1:
                self.set_threads(1)


@functools.cache
def blas_cap() -> BlasCap | None:
    """The cap on NumPy's bundled OpenBLAS, found on first use.

    None when the wheel carries no OpenBLAS with these thread-count
    functions; sweeps then run uncapped, slower but with the same bits.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by NumPy: the same handle
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return BlasCap(get, set_)
    return None


def inner_products(
    sweeps: Sequence[tuple[np.ndarray, np.ndarray]], threads: int | None = None
) -> list[np.ndarray]:
    """Inner products of each query block with every row of its matrix.

    Each sweep is a (matrix, query) pair: matrix is (count, dim) float32;
    query is one (dim,) float64 vector or a (dim, Q) float64 block of Q
    queries. Each pair's result is (count,) or (Q, count) float64, one
    contiguous row per query, with all accumulation done in float64.

    A pair's rows go to BLAS in blocks of the largest multiple of 8, from
    8 to ``_BLOCK_ROWS``, whose product with its Q queries stays within
    ``_SMALL_MATRIX_MADDS``; a (dim,) query counts as one. Every BLAS call
    of a pair sees that same number of rows: the last, partial block is
    computed as the last full block, overlapping the one before it. A
    matrix product may sum a short block in another order, so without
    this two equal rows could score differently in the last bit.

    The blocks of all pairs, in pair order, form one queue, which the
    calling thread and ``threads - 1`` helpers (None: ``default_threads()``)
    drain. Each worker upcasts into its own float64 block and multiplies
    into its own (rows, Q) scratch, copied transposed into the result, so
    no result depends on either thread count. An error in any worker stops
    the queue and is raised here once every helper has joined.
    """
    outs, rows_of, queue = [], [], []
    for pair, (matrix, query) in enumerate(sweeps):
        count, dim = matrix.shape
        outs.append(np.empty((*query.shape[1:], count), dtype=np.float64))
        madds_per_row = dim * (query.shape[1] if query.ndim == 2 else 1)
        fit = _SMALL_MATRIX_MADDS // max(1, madds_per_row) // 8 * 8
        rows = min(_BLOCK_ROWS, max(8, fit), count)
        rows_of.append(rows)
        if rows:
            queue += [(pair, lo) for lo in range(0, count - rows + 1, rows)]
            if count % rows:
                queue.append((pair, count - rows))

    blocks, errors = collections.deque(queue), []  # popleft is thread-safe

    def drain() -> None:
        # pair -> its row count, this worker's upcast block and (rows, Q)
        # scratch, and the (count, Q) view of the pair's result
        plans = {}
        try:
            while not errors:
                try:
                    pair, lo = blocks.popleft()
                except IndexError:
                    return
                matrix, query = sweeps[pair]
                if pair not in plans:
                    rows = rows_of[pair]
                    plans[pair] = (
                        rows,
                        np.empty((rows, matrix.shape[1]), dtype=np.float64),
                        np.empty((rows, *query.shape[1:]), dtype=np.float64),
                        outs[pair].T,
                    )
                rows, block, scores, dest = plans[pair]
                block[...] = matrix[lo : lo + rows]
                np.dot(block, query, out=scores)
                if lo % rows:  # the overlapping tail: keep only its new rows
                    tail = len(matrix) % rows
                    dest[-tail:] = scores[-tail:]
                else:
                    dest[lo : lo + rows] = scores
        except BaseException as exc:  # raised in the caller, after the join
            errors.append(exc)

    if threads is None:
        threads = default_threads()
    _on_workers(drain, max(1, min(threads, len(queue))))
    if errors:
        raise errors[0]
    return outs


def _on_workers(work: Callable[[], None], workers: int) -> None:
    """Run ``work`` on the calling thread and on ``workers - 1`` helper
    threads, BLAS capped while more than one runs; returns once every
    helper has joined."""
    if workers == 1:
        work()
        return
    helpers = []
    with blas_cap() or contextlib.nullcontext():
        try:
            for _ in range(workers - 1):
                helper = threading.Thread(target=work)
                helper.start()
                helpers.append(helper)
            work()
        finally:
            for helper in helpers:
                helper.join()


def logistic(values: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)) in float64, clamped to stay strictly
    inside (0, 1). Every step writes one new buffer in place, in the order
    of that expression, so the bits are the expression's."""
    out = np.negative(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return np.clip(out, SIGMOID_FLOOR, SIGMOID_CEIL, out=out)
