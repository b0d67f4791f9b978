import threading

import numpy as np
import pytest

from comret import _kernels

import reference


class TestInnerProducts:
    def test_matches_naive_reference(self, rng):
        # Random small shapes, then row counts on and around the block size.
        shapes = [(int(rng.integers(1, 40)), int(rng.integers(1, 24))) for _ in range(20)]
        shapes += [(m, int(rng.integers(1, 24))) for m in (127, 128, 129, 257, 1000)]
        for m, d in shapes:
            matrix = rng.standard_normal((m, d)).astype(np.float32)
            query = rng.standard_normal(d)
            got = _kernels.inner_products(matrix, query)
            want = [reference.inner(query, row) for row in matrix]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_unit_basis(self):
        matrix = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        np.testing.assert_array_equal(_kernels.inner_products(matrix, np.array([1.0, 0.0])), [1.0, 0.0, 1.0])

    def test_zero_query(self, rng):
        matrix = rng.standard_normal((5, 3)).astype(np.float32)
        np.testing.assert_array_equal(_kernels.inner_products(matrix, np.zeros(3)), np.zeros(5))

    def test_accumulates_in_float64(self):
        # Float32 accumulation would collapse the +1 against 2**30.
        d = 64
        row = np.full(d, 2.0**30, dtype=np.float32)
        row[-1] = 1.0
        query = np.zeros(d)
        query[0] = 1.0
        query[-1] = 1.0
        (score,) = _kernels.inner_products(row[None, :], query)
        assert score == 2.0**30 + 1.0

    def test_readonly_input_accepted(self):
        matrix = np.ones((2, 3), dtype=np.float32)
        matrix.flags.writeable = False
        out = _kernels.inner_products(matrix, np.ones(3))
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_concurrent_calls_match_serial(self, rng):
        # Several blocks per sweep, so a buffer shared between threads
        # would mix rows of different queries.
        matrix = rng.standard_normal((1000, 48)).astype(np.float32)
        queries = [rng.standard_normal(48) for _ in range(4)]
        serial = [_kernels.inner_products(matrix, q) for q in queries]
        results = [None] * len(queries)
        start = threading.Barrier(len(queries), timeout=60)

        def sweep(i):
            start.wait()
            for _ in range(50):
                results[i] = _kernels.inner_products(matrix, queries[i])
                if not np.array_equal(results[i], serial[i]):
                    return

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got, want)


class TestQueryBlock:
    @pytest.mark.parametrize("q", [1, 7, 33])
    def test_matches_naive_reference(self, rng, q):
        matrix = rng.standard_normal((300, 12)).astype(np.float32)
        block = rng.standard_normal((12, q))
        got = _kernels.inner_products(matrix, block)
        assert got.shape == (300, q)
        want = [[reference.inner(block[:, j], row) for j in range(q)] for row in matrix]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("q", [7, 8, 33])
    def test_duplicate_rows_score_identically(self, rng, q):
        # 300 rows: two full 128-row blocks and a 44-row tail. Copies sit
        # at other offsets of a full block and inside the tail; handed to
        # BLAS as a short block, the tail scores them differently in the
        # last bit.
        matrix = rng.standard_normal((300, 1152)).astype(np.float32)
        pairs = [(3, 130), (5, 299), (6, 256), (255, 298)]
        for src, dst in pairs:
            matrix[dst] = matrix[src]
        block = rng.standard_normal((1152, q))
        serial = _kernels.inner_products(matrix, block)
        for threads in (1, 2, 3):
            got = _kernels.inner_products(matrix, block, threads=threads)
            np.testing.assert_array_equal(got, serial)
            for src, dst in pairs:
                np.testing.assert_array_equal(got[dst], got[src])

    def test_vector_sweep_unchanged_by_threads(self, rng):
        matrix = rng.standard_normal((1000, 48)).astype(np.float32)
        query = rng.standard_normal(48)
        serial = _kernels.inner_products(matrix, query)
        for threads in (2, 3, 16):
            np.testing.assert_array_equal(_kernels.inner_products(matrix, query, threads=threads), serial)

    def test_empty_matrix(self):
        matrix = np.empty((0, 4), dtype=np.float32)
        assert _kernels.inner_products(matrix, np.ones((4, 3)), threads=2).shape == (0, 3)
        assert _kernels.inner_products(matrix, np.ones(4)).shape == (0,)


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

    def test_monotone(self, rng):
        x = np.sort(rng.standard_normal(100) * 5)
        out = _kernels.logistic(x)
        assert (np.diff(out) >= 0).all()
