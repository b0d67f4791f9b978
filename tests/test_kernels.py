import threading

import numpy as np

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
