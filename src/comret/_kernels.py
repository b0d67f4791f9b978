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

One call sweeps several (matrix, query block) pairs of one shape, the
index's two aligned channels for one block of queries, from one queue of
row blocks planned once: the calling thread and its helpers each take the
next block until none is left, so a thread that runs late delays the call
by one block at most, and the call waits for its threads once, not once
per matrix.

This module owns the sweep's thread count: ``threads=None`` means every
core this process may run on (``default_threads``). The first sweep on
more than one thread pins NumPy's bundled OpenBLAS at one thread for the
rest of the process (``pin_blas``), so the two kinds of threads do not
compete for the cores, and ``ingest`` pins it the same way before its
fork; other BLAS work of such a process then runs on one thread too. No
score depends on either count. The pin sets nothing when OpenBLAS already
runs one thread: OpenBLAS shuts its pool down whenever the process forks,
and any later call that sets its thread count starts a new pool, whose
thread busy-waits beside the sweep's own threads.

The row rule for several queries is tuned for the SkylakeX kernel that
OpenBLAS picks on an AVX-512 CPU, whose small-matrix path runs each block
on the calling thread. Its Haswell kernel packs every multi-query block,
and there the rule and plain 128-row blocks read within noise.
"""

from __future__ import annotations

import collections
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
    """A BLAS library's process-wide thread count, behind the library's
    own get and set functions."""

    def __init__(self, get_threads: Callable[[], int], set_threads: Callable[[int], None]):
        self.get_threads = get_threads
        self.set_threads = set_threads

    def pin(self) -> None:
        """Hold the library at one thread. Sets nothing when it runs one
        already: after a fork, that call would start a pool of threads
        that only spin. Two first pins racing both set 1, which is
        harmless, so no lock is taken."""
        if self.get_threads() != 1:
            self.set_threads(1)


@functools.cache
def blas_cap() -> BlasCap | None:
    """The thread count of NumPy's bundled OpenBLAS, found on first use.

    None when the wheel carries no OpenBLAS with these thread-count
    functions; sweeps then run unpinned, slower but with the same bits.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by NumPy: the same handle
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or without these functions
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return BlasCap(get, set_)
    return None


def pin_blas() -> None:
    """Hold NumPy's OpenBLAS, if found, at one thread for the rest of the
    process."""
    if (cap := blas_cap()) is not None:
        cap.pin()


def inner_products(
    sweeps: Sequence[tuple[np.ndarray, np.ndarray]], threads: int | None = None
) -> list[np.ndarray]:
    """Inner products of each query block with every row of its matrix.

    Each sweep is a (matrix, query) pair, and every pair of one call shares
    one shape: matrix is (count, dim) float32 and query a (dim, Q) float64
    block of Q queries, as the index's two aligned channels are for one
    block of queries. Each pair's result is (Q, count) float64, one
    contiguous row per query, with all accumulation done in float64.

    Once per call, the rows are planned as blocks of the largest multiple
    of 8, from 8 to ``_BLOCK_ROWS``, whose product with the Q queries stays
    within ``_SMALL_MATRIX_MADDS``. Every BLAS call sees that same number
    of rows: the last, partial block is computed as the last full block,
    overlapping the one before it. A matrix product may sum a short block
    in another order, so without this two equal rows could score
    differently in the last bit.

    The blocks of all pairs, in pair order, form one queue, which the
    calling thread and ``threads - 1`` helpers (None: ``default_threads()``)
    drain. Before its first block, each worker makes its own float64 upcast
    block and (rows, Q) scratch, whose rows it copies into the (count, Q)
    view of a result, so no result depends on either thread count. An error
    in any worker stops the queue and is raised here once every helper has
    joined.
    """
    if not sweeps:
        return []
    (count, dim), width = sweeps[0][0].shape, sweeps[0][1].shape[1]
    fit = _SMALL_MATRIX_MADDS // max(1, dim * width) // 8 * 8
    rows = max(1, min(_BLOCK_ROWS, max(8, fit), count))  # 1 only for an empty matrix, which has no block
    tail = count % rows
    starts = list(range(0, count - rows + 1, rows)) + ([count - rows] if tail else [])
    outs = [np.empty((width, count), dtype=np.float64) for _ in sweeps]
    queue = [(matrix, query, out.T, lo) for (matrix, query), out in zip(sweeps, outs) for lo in starts]
    blocks, errors = collections.deque(queue), []  # popleft is thread-safe

    def drain() -> None:
        try:
            block, scores = np.empty((rows, dim)), np.empty((rows, width))  # float64
            # A NaN or an infinity in the inputs makes a score that is not
            # finite, which the caller refuses. NumPy's warning about it is
            # silenced per thread, so each worker silences its own.
            with np.errstate(invalid="ignore", over="ignore"):
                while not errors:
                    try:
                        matrix, query, dest, lo = blocks.popleft()
                    except IndexError:
                        return
                    block[...] = matrix[lo : lo + rows]
                    np.dot(block, query, out=scores)
                    if lo % rows:  # the overlapping tail: keep only its new rows
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
    threads, BLAS pinned first when more than one runs; returns once every
    helper has joined."""
    if workers == 1:
        work()
        return
    pin_blas()
    helpers = []
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
