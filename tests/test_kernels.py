import sys
import threading

import numpy as np
import pytest

import comret
from comret import _kernels
from comret.core import FusionConfig
from comret.diagnostics import modality_divergence_report
from comret.fusion import retrieve

import reference
from conftest import random_index, unified_query


def sweep(matrix, query, threads=None):
    """One (matrix, query) pair swept alone; a (dim,) query is swept as a
    (dim, 1) block and gives its one row of scores."""
    (out,) = _kernels.inner_products([(matrix, query.reshape(len(query), -1))], threads)
    return out[0] if query.ndim == 1 else out


class TestInnerProducts:
    def test_matches_naive_reference(self, rng):
        # Random small shapes, then row counts on and around the block size.
        shapes = [(int(rng.integers(1, 40)), int(rng.integers(1, 24))) for _ in range(20)]
        shapes += [(m, int(rng.integers(1, 24))) for m in (127, 128, 129, 257, 1000)]
        for m, d in shapes:
            matrix = rng.standard_normal((m, d)).astype(np.float32)
            query = rng.standard_normal(d)
            got = sweep(matrix, query)
            want = [reference.inner(query, row) for row in matrix]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_unit_basis(self):
        matrix = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        np.testing.assert_array_equal(sweep(matrix, np.array([1.0, 0.0])), [1.0, 0.0, 1.0])

    def test_zero_query(self, rng):
        matrix = rng.standard_normal((5, 3)).astype(np.float32)
        np.testing.assert_array_equal(sweep(matrix, np.zeros(3)), np.zeros(5))

    def test_accumulates_in_float64(self):
        # Float32 accumulation would collapse the +1 against 2**30.
        d = 64
        row = np.full(d, 2.0**30, dtype=np.float32)
        row[-1] = 1.0
        query = np.zeros(d)
        query[0] = 1.0
        query[-1] = 1.0
        (score,) = sweep(row[None, :], query)
        assert score == 2.0**30 + 1.0

    def test_readonly_input_accepted(self):
        matrix = np.ones((2, 3), dtype=np.float32)
        matrix.flags.writeable = False
        out = sweep(matrix, np.ones(3))
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_concurrent_calls_match_serial(self, rng):
        # Several blocks per sweep, so a buffer shared between threads
        # would mix rows of different queries.
        matrix = rng.standard_normal((1000, 48)).astype(np.float32)
        queries = [rng.standard_normal(48) for _ in range(4)]
        serial = [sweep(matrix, q) for q in queries]
        results = [None] * len(queries)
        start = threading.Barrier(len(queries), timeout=60)

        def repeat(i):
            start.wait()
            for _ in range(50):
                results[i] = sweep(matrix, queries[i])
                if not np.array_equal(results[i], serial[i]):
                    return

        threads = [threading.Thread(target=repeat, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got, want)


class DotSpy:
    """Stands in for NumPy inside ``_kernels`` and logs each ``dot``'s operand shapes."""

    def __init__(self):
        self.calls = []
        self.operands = []  # each dot's query block

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, out=None):
        self.calls.append((a.shape, b.shape))
        self.operands.append(b)
        return np.dot(a, b, out=out)


@pytest.fixture
def blas_calls(monkeypatch):
    spy = DotSpy()
    monkeypatch.setattr(_kernels, "np", spy)
    return spy.calls


def with_copies(rng, count, rows, dim=1152):
    """A (count, dim) float32 matrix with copied rows, and the (src, dst)
    pairs copied: at another offset of a full block, on both sides of a
    block boundary, among the overlapping tail's new rows and in the rows
    the tail overlaps."""
    matrix = rng.standard_normal((count, dim)).astype(np.float32)
    pairs = [(3, rows + 7), (rows - 1, rows), (5, count - 1), (count // rows * rows - 1, count - 2)]
    for src, dst in pairs:
        matrix[dst] = matrix[src]
    return matrix, pairs


class TestQueryBlock:
    @pytest.mark.parametrize("q", [1, 7, 33])
    def test_matches_naive_reference(self, rng, q):
        matrix = rng.standard_normal((300, 12)).astype(np.float32)
        block = rng.standard_normal((12, q))
        got = sweep(matrix, block)
        assert got.shape == (q, 300) and got.flags.c_contiguous
        want = [[reference.inner(block[:, j], row) for row in matrix] for j in range(q)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("q", [1, 7, 8, 16, 32, 33])
    def test_duplicate_rows_score_identically(self, rng, blas_calls, q):
        # Two pairs in one queue, with full blocks and a partial tail at the
        # row count the sweep picks for q queries, and copies on both sides
        # of their block boundaries; handed to BLAS as a short block, a tail
        # would score them differently in the last bit. Two row counts give
        # two tails, each swept in a call of its own.
        image_block, text_block = rng.standard_normal((1152, q)), rng.standard_normal((1152, q))
        sweep(np.zeros((_kernels._BLOCK_ROWS, 1152), dtype=np.float32), image_block)
        rows = blas_calls[0][0][0]
        for count in (2 * rows + rows // 3 + 1, 3 * rows + rows // 2 + 3):
            images, image_copies = with_copies(rng, count, rows)
            texts, text_copies = with_copies(rng, count, rows)
            serial = [sweep(images, image_block, threads=1), sweep(texts, text_block, threads=1)]
            for threads in (1, 2, 3):
                got = _kernels.inner_products([(images, image_block), (texts, text_block)], threads)
                for scores, want, copies in zip(got, serial, (image_copies, text_copies)):
                    assert scores.tobytes() == want.tobytes()
                    for src, dst in copies:
                        np.testing.assert_array_equal(scores[:, dst], scores[:, src])

    @pytest.mark.parametrize("dim, q", [(1152, q) for q in (1, 7, 8, 16, 32, 33)] + [(4000, 33)])
    def test_blocks_fit_the_small_matrix_limit(self, rng, blas_calls, dim, q):
        # OpenBLAS multiplies a product of at most 10**6 multiply-adds
        # without packing its operands. Every block takes the most rows,
        # in steps of 8 and at most 128, that keep under that limit, and
        # 8 where even 8 rows exceed it.
        matrix = rng.standard_normal((700, dim)).astype(np.float32)
        sweep(matrix, rng.standard_normal((dim, q)), threads=2)
        rows = blas_calls[0][0][0]
        assert {a for a, _ in blas_calls} == {(rows, dim)}
        assert rows % 8 == 0 and 8 <= rows <= 128
        assert rows * q * dim <= 1_000_000 or rows == 8
        assert rows == 128 or (rows + 8) * q * dim > 1_000_000

    def test_single_query_keeps_128_row_blocks(self, rng, blas_calls):
        matrix = rng.standard_normal((700, 1152)).astype(np.float32)
        sweep(matrix, rng.standard_normal((1152, 1)))
        assert {a for a, _ in blas_calls} == {(128, 1152)}

    def test_vector_sweep_unchanged_by_threads(self, rng):
        matrix = rng.standard_normal((1000, 48)).astype(np.float32)
        query = rng.standard_normal(48)
        serial = sweep(matrix, query)
        for threads in (2, 3, 16):
            np.testing.assert_array_equal(sweep(matrix, query, threads=threads), serial)

    def test_empty_matrix(self):
        matrix = np.empty((0, 4), dtype=np.float32)
        assert sweep(matrix, np.ones((4, 3)), threads=2).shape == (3, 0)
        assert sweep(matrix, np.ones(4)).shape == (0,)


class HelperFails:
    """Stands in for NumPy inside ``_kernels``: a helper thread's first
    ``dot`` raises, and the caller's ``dot`` waits until that helper has
    ended."""

    def __init__(self):
        self.caller = threading.get_ident()
        self.failed = threading.Event()
        self.helper = None
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, out=None):
        self.calls += 1
        if threading.get_ident() != self.caller:
            self.helper = threading.current_thread()
            self.failed.set()
            raise RuntimeError("helper block failed")
        assert self.failed.wait(timeout=30)
        self.helper.join(timeout=30)
        return np.dot(a, b, out=out)


class TestBlockQueue:
    """One queue sweeps the blocks of several (matrix, query) pairs."""

    @pytest.mark.parametrize("q", [1, 7, 8, 33])
    def test_each_pair_matches_its_sweep_alone(self, rng, q):
        # Row counts with an overlapping tail at every block size here; the
        # second pair has its own query block, as ensemble-ucmr's image and
        # text queries do. Three pairs of another row count and width, so
        # of another block size, go in a call of their own.
        def pairs(count, width, n):
            return [
                (rng.standard_normal((count, 1152)).astype(np.float32), rng.standard_normal((1152, width)))
                for _ in range(n)
            ]

        for sweeps in (pairs(301, q, 2), pairs(205, 40 - q, 3)):
            alone = [sweep(matrix, query, threads=1) for matrix, query in sweeps]
            for threads in (1, 2, 3):
                got = _kernels.inner_products(sweeps, threads)
                assert [(g.shape, g.tobytes()) for g in got] == [(a.shape, a.tobytes()) for a in alone]
                assert all(g.flags.c_contiguous for g in got)

    def test_pairs_queued_in_order(self, rng, monkeypatch):
        # Every block of the first pair, the images, before any of the second.
        spy = DotSpy()
        monkeypatch.setattr(_kernels, "np", spy)
        images, texts = (rng.standard_normal((300, 8)).astype(np.float32) for _ in range(2))
        queries = [rng.standard_normal((8, 1)) for _ in range(2)]
        _kernels.inner_products([(images, queries[0]), (texts, queries[1])], threads=1)
        assert [a for a, _ in spy.calls] == [(128, 8)] * 6
        assert [id(b) for b in spy.operands] == [id(queries[0])] * 3 + [id(queries[1])] * 3

    def test_many_workers_take_each_block_once(self, rng, blas_calls):
        # More workers than cores and a short switch interval, so two
        # workers taking one block, or one block taken by none (its rows
        # left as np.empty found them), would show.
        sweeps = [(rng.standard_normal((1007, 8)).astype(np.float32), rng.standard_normal((8, 1))) for _ in range(3)]
        want = [sweep(matrix, query, threads=1).tobytes() for matrix, query in sweeps]
        blocks = len(blas_calls)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                del blas_calls[:]
                assert [g.tobytes() for g in _kernels.inner_products(sweeps, threads=16)] == want
                assert len(blas_calls) == blocks
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize("bad", [0, 1])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_dim_mismatch_in_either_pair_raised(self, rng, fake_blas, bad, threads):
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        queries = [rng.standard_normal((8, 4)), rng.standard_normal((8, 4))]
        queries[bad] = rng.standard_normal((9, 4))
        before = threading.active_count()
        with pytest.raises(ValueError):
            _kernels.inner_products([(matrix, queries[0]), (matrix, queries[1])], threads)
        assert threading.active_count() == before
        assert fake_blas.sets == ([] if threads == 1 else [1, 4])

    @pytest.mark.parametrize("threads", [2, 3])
    def test_helper_error_raised_in_the_caller(self, rng, fake_blas, monkeypatch, threads):
        spy = HelperFails()
        monkeypatch.setattr(_kernels, "np", spy)
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^helper block failed$"):
            _kernels.inner_products([(matrix, rng.standard_normal((8, 1))), (matrix, rng.standard_normal((8, 1)))], threads)
        assert threading.active_count() == before
        assert fake_blas.sets == [1, 4]
        # The error stops the queue: of its 16 blocks, each worker took one.
        assert spy.calls <= threads


class TestDefaultThreads:
    """With no thread count given, every entry point sweeps on the usable
    cores (three here, by ``pool_sizes``); 400 pages are four blocks per
    channel, and one queue holds both channels' blocks."""

    def test_usable_cores(self, pool_sizes):
        assert _kernels.default_threads() == 3

    def test_retrieve(self, rng, pool_sizes):
        index = random_index(rng, pages=400, dim=4)
        retrieve(unified_query("q", rng.standard_normal(4).tolist()), index, FusionConfig(mode="ucmr"))
        assert pool_sizes == [3]  # one queue: both channels' eight blocks

    def test_divergence_report(self, rng, pool_sizes):
        index = random_index(rng, pages=400, dim=4)
        queries = [unified_query(f"q{i}", rng.standard_normal(4).tolist()) for i in range(2)]
        modality_divergence_report(index, queries)
        assert pool_sizes == [3]


class FakeBlas:
    """A BLAS thread count behind get/set functions that log every set."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    blas = FakeBlas(threads=4)
    cap = _kernels.BlasCap(blas.get, blas.set)
    monkeypatch.setattr(_kernels, "blas_cap", lambda: cap)
    return blas


class TestBlasCap:
    def test_multi_threaded_sweep_caps_then_restores(self, rng, fake_blas):
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        sweep(matrix, rng.standard_normal(8), threads=2)
        assert fake_blas.sets == [1, 4]

    def test_single_threaded_sweep_leaves_blas_alone(self, rng, fake_blas):
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        sweep(matrix, rng.standard_normal(8), threads=1)
        assert fake_blas.sets == []

    def test_restored_after_a_sweep_that_raises(self, rng, fake_blas):
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            sweep(matrix, rng.standard_normal(9), threads=2)
        assert fake_blas.sets == [1, 4]
        sweep(matrix, rng.standard_normal(8), threads=2)
        assert fake_blas.sets == [1, 4, 1, 4]

    def test_blas_at_one_thread_is_never_set(self, rng, monkeypatch):
        # After a fork, any set call would start OpenBLAS's pool again.
        blas = FakeBlas(threads=1)
        cap = _kernels.BlasCap(blas.get, blas.set)
        monkeypatch.setattr(_kernels, "blas_cap", lambda: cap)
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        sweep(matrix, rng.standard_normal(8), threads=2)
        assert blas.sets == []

    def test_pin_holds_one_thread_past_a_running_sweep(self):
        blas = FakeBlas(threads=3)
        cap = _kernels.BlasCap(blas.get, blas.set)
        with cap:
            cap.pin()
        cap.pin()
        with cap:
            pass
        assert (blas.threads, blas.sets) == (1, [1])

    def test_overlapping_holds_restore_once(self):
        blas = FakeBlas(threads=3)
        cap = _kernels.BlasCap(blas.get, blas.set)
        with cap:
            with cap:
                assert blas.threads == 1
            assert blas.threads == 1
        assert blas.sets == [1, 3]

    def test_many_threads_never_lose_the_count(self):
        # More holders than cores and a short switch interval, so a lost
        # update of the hold count would leave BLAS capped or restore early.
        blas = FakeBlas(threads=2)
        cap = _kernels.BlasCap(blas.get, blas.set)
        capped = []

        def hold():
            for _ in range(300):
                with cap:
                    capped.append(blas.threads == 1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(capped) == 8 * 300 and all(capped)
        assert blas.threads == 2 and blas.sets.count(2) == blas.sets.count(1)

    def test_real_library_count_restored(self, rng):
        cap = _kernels.blas_cap()
        if cap is None:
            pytest.skip("NumPy's BLAS exposes no thread-count functions")
        before = cap.get_threads()
        matrix = rng.standard_normal((1000, 8)).astype(np.float32)
        try:
            cap.set_threads(2)
            sweep(matrix, rng.standard_normal((8, 4)), threads=2)
            assert cap.get_threads() == 2
            with pytest.raises(ValueError):
                sweep(matrix, rng.standard_normal((9, 4)), threads=2)
            assert cap.get_threads() == 2
        finally:
            cap.set_threads(before)

    @pytest.mark.parametrize("q", [1, 8, 17, 32])
    def test_capped_uncapped_and_absent_give_identical_bits(self, rng, monkeypatch, q):
        matrix = rng.standard_normal((2000, 96)).astype(np.float32)
        query = rng.standard_normal(96) if q == 1 else rng.standard_normal((96, q))
        want = sweep(matrix, query, threads=1)
        cap = _kernels.blas_cap()
        if cap is not None:
            before = cap.get_threads()
            try:
                for blas_threads in (1, 2):
                    cap.set_threads(blas_threads)
                    for threads in (1, 2):
                        np.testing.assert_array_equal(sweep(matrix, query, threads=threads), want)
            finally:
                cap.set_threads(before)
        monkeypatch.setattr(_kernels, "blas_cap", lambda: None)
        np.testing.assert_array_equal(sweep(matrix, query, threads=2), want)

    def test_backend_says_whether_the_cap_attached(self):
        want = "numpy" if _kernels.blas_cap() is None else "numpy+blas-cap"
        assert comret.KERNEL_BACKEND == want


class TestLogistic:
    def test_matches_naive_reference(self, rng):
        x = rng.standard_normal(200) * 10
        got = _kernels.logistic(x)
        want = [reference.sigmoid(v) for v in x]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_open_interval_under_saturation(self):
        out = _kernels.logistic(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        assert (out > 0.0).all() and (out < 1.0).all()
        assert out[2] == 0.5

    def test_same_bits_as_the_one_expression(self, rng):
        # The in-place steps against the expression they replaced, on random
        # blocks, a float32 input and saturated values; the input is kept.
        blocks = [
            rng.standard_normal((8, 2000)) * 40,
            (rng.standard_normal(1000) * 100).astype(np.float32),
            np.array([-1e308, -1e4, -800.0, -745.2, -709.8, -50.0, -0.0, 0.0, 5e-324, 36.8, 50.0, 800.0, 1e308]),
        ]
        for x in blocks:
            before = x.copy()
            with np.errstate(over="ignore"):
                want = 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
            want = np.clip(want, _kernels.SIGMOID_FLOOR, _kernels.SIGMOID_CEIL)
            got = _kernels.logistic(x)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert x.tobytes() == before.tobytes()

    def test_monotone(self, rng):
        x = np.sort(rng.standard_normal(100) * 5)
        out = _kernels.logistic(x)
        assert (np.diff(out) >= 0).all()
