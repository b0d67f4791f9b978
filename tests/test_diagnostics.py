import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from comret.core import FusionConfig
from comret.diagnostics import MAX_BINS, Histogram, build_histogram, kl_divergence, modality_divergence_report
from comret.errors import ComretError
from comret.fusion import rank_queries

import reference
from conftest import make_index, make_query, random_index, unified_query


class TestBuildHistogram:
    def test_symmetric_two_bins(self):
        hist = build_histogram(np.array([0.25, 0.75]), 2, (0.0, 1.0))
        np.testing.assert_allclose(hist.densities, [0.5, 0.5], atol=1e-8)

    def test_boundary_value_goes_to_upper_bin(self):
        hist = build_histogram(np.array([0.5, 0.5, 0.5]), 2, (0.0, 1.0))
        assert hist.densities[1] > 0.99

    def test_empty_bins_keep_smoothing_mass(self):
        hist = build_histogram(np.array([0.1]), 4, (0.0, 1.0))
        assert (hist.densities > 0).all()

    def test_out_of_range_clamps_to_end_bins(self):
        hist = build_histogram(np.array([-5.0, 5.0]), 2, (0.0, 1.0))
        np.testing.assert_allclose(hist.densities, [0.5, 0.5], atol=1e-8)

    def test_densities_sum_to_one(self, rng):
        for _ in range(25):
            values = rng.standard_normal(int(rng.integers(0, 500)))
            bins = int(rng.integers(1, 80))
            hist = build_histogram(values, bins, (-3.0, 3.0))
            assert abs(hist.densities.sum() - 1.0) < 1e-9
            assert (np.diff(hist.bin_edges) > 0).all()

    def test_bad_range(self):
        with pytest.raises(ComretError, match=r"^num_bins must be >= 1, got 0$"):
            build_histogram(np.array([1.0]), 0, (0.0, 1.0))
        with pytest.raises(ComretError, match=r"^invalid range \[1.0, 1.0\]$"):
            build_histogram(np.array([1.0]), 4, (1.0, 1.0))

    def test_too_many_bins_refused_before_allocating(self):
        build_histogram(np.array([1.0]), MAX_BINS, (0.0, 2.0))
        with pytest.raises(ComretError, match=rf"^num_bins must be <= {MAX_BINS}, got {10**13}$"):
            build_histogram(np.array([1.0]), 10**13, (0.0, 2.0))


class TestKlDivergence:
    def test_self_divergence_is_exactly_zero(self, rng):
        hist = build_histogram(rng.standard_normal(100), 20, (-3.0, 3.0))
        assert kl_divergence(hist, hist) == 0.0

    def test_hand_computed_two_bin_value(self):
        edges = np.array([0.0, 0.5, 1.0])
        p = Histogram(bin_edges=edges, densities=np.array([0.5, 0.5]))
        q = Histogram(bin_edges=edges, densities=np.array([0.25, 0.75]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.1438410, abs=1e-7)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(200):
            bins = int(rng.integers(1, 40))
            p = build_histogram(rng.standard_normal(200), bins, (-4.0, 4.0))
            q = build_histogram(rng.standard_normal(200) * rng.random(), bins, (-4.0, 4.0))
            assert kl_divergence(p, q) >= 0.0

    def test_matches_naive_reference(self, rng):
        p = build_histogram(rng.standard_normal(300), 25, (-4.0, 4.0))
        q = build_histogram(rng.standard_normal(300), 25, (-4.0, 4.0))
        assert kl_divergence(p, q) == pytest.approx(
            reference.kl_nats(p.densities.tolist(), q.densities.tolist()), abs=1e-12
        )

    def test_bin_mismatch(self, rng):
        p = build_histogram(rng.standard_normal(50), 10, (-3.0, 3.0))
        q = build_histogram(rng.standard_normal(50), 12, (-3.0, 3.0))
        with pytest.raises(ComretError, match="^histograms have different bin edges$"):
            kl_divergence(p, q)


class TestDivergenceReport:
    def test_identically_distributed_modalities_have_low_kl(self, rng):
        # Both matrices drawn from one generator: pooled distributions match.
        index = random_index(rng, pages=100, dim=12)
        queries = [unified_query(f"q{i:03d}", rng.standard_normal(12).tolist()) for i in range(100)]
        report = modality_divergence_report(index, queries, num_bins=50)
        assert report.samples_per_modality == 10_000
        assert report.kl_nats < 0.05

    def test_single_query_single_page_is_degenerate(self):
        index = make_index([[1.0, 2.0]], [[3.0, 4.0]])
        report = modality_divergence_report(index, [unified_query("q", [1.0, 1.0])], num_bins=10)
        assert report.kl_nats == 0.0
        assert set(report.sigma_zero) == {("q", "image"), ("q", "text")}

    def test_constant_text_scores_flagged(self, rng):
        image_rows = rng.standard_normal((8, 3)).tolist()
        index = make_index(image_rows, [[1.0, 1.0, 1.0]] * 8)
        queries = [unified_query(f"q{i}", rng.standard_normal(3).tolist()) for i in range(3)]
        report = modality_divergence_report(index, queries, num_bins=10)
        assert {(qid, mod) for qid, mod in report.sigma_zero} == {(f"q{i}", "text") for i in range(3)}

    def test_wrong_dim_channel_named(self, rng):
        index = random_index(rng, pages=5, dim=3)
        queries = [unified_query("q1", [1.0, 0.0, 0.0]), make_query("q2", [1.0, 0.0, 0.0], [1.0, 0.0])]
        with pytest.raises(ComretError, match="^query 'q2' channel 'text-query': expected dim 3, got 2$"):
            modality_divergence_report(index, queries)

    def test_summary_reports_only_measured_statistics(self, rng):
        # Per-query z-scores pool to mean 0 and a std fixed by the
        # sigma-zero share, so only each pool's range is reported.
        index = random_index(rng, pages=20, dim=4)
        queries = [unified_query(f"q{i}", rng.standard_normal(4).tolist()) for i in range(3)]
        report = modality_divergence_report(index, queries, num_bins=8)
        summary = report.summary()
        assert set(summary) == {"bins", "kl_nats", "samples_per_modality", "sigma_zero", "sim_i", "sim_t"}
        assert set(summary["sim_i"]) == set(summary["sim_t"]) == {"min", "max"}
        buf = io.StringIO()
        report.write_summary(buf)
        assert json.loads(buf.getvalue()) == summary

    def test_query_order_changes_nothing(self, rng):
        # Equal text rows: every query's text channel has sigma 0 and is
        # flagged, and the flags are listed by query id either way.
        index = make_index(rng.standard_normal((50, 4)).tolist(), [[0.5, -1.0, 2.0, 0.0]] * 50)
        queries = [make_query(f"q{i:02d}", rng.standard_normal(4).tolist(), rng.standard_normal(4).tolist())
                   for i in range(40)]
        forward = modality_divergence_report(index, queries, num_bins=12, threads=1)
        backward = modality_divergence_report(index, queries[::-1], num_bins=12, threads=1)
        assert list(forward.sigma_zero) == [(f"q{i:02d}", "text") for i in range(40)]
        assert backward.summary() == forward.summary()
        np.testing.assert_array_equal(backward.image_hist.densities, forward.image_hist.densities)
        np.testing.assert_array_equal(backward.text_hist.densities, forward.text_hist.densities)

    def test_query_without_channels_named_as_ucmr(self, rng):
        index = random_index(rng, pages=5, dim=3)
        queries = [unified_query("q1", [1.0, 0.0, 0.0]), make_query("q2")]
        with pytest.raises(ComretError, match="^mode 'ucmr' requires query channel 'image-query'$"):
            modality_divergence_report(index, queries)

    @pytest.mark.parametrize("bad", [make_query("q2"), make_query("q2", [1.0, 0.0])], ids=["no-channel", "dim"])
    def test_query_errors_match_retrieval(self, rng, bad):
        index = random_index(rng, pages=5, dim=3)
        queries = [unified_query("q1", [1.0, 0.0, 0.0]), bad]
        with pytest.raises(ComretError) as retrieval:
            list(rank_queries(index, queries, [FusionConfig(mode="ucmr")]))
        with pytest.raises(ComretError) as diagnosis:
            modality_divergence_report(index, queries)
        assert str(diagnosis.value) == str(retrieval.value)

    def test_pools_held_once(self, rng):
        # One float64 value per (query, page) and modality is 2 x Q x M x 8
        # bytes. Nothing may hold a second copy of the pools, and binning
        # works in chunks, so its temporaries are small beside them.
        queries_count, pages, dim = 256, 4000, 16
        index = random_index(rng, pages=pages, dim=dim)
        queries = [unified_query(f"q{i:03d}", rng.standard_normal(dim).tolist()) for i in range(queries_count)]
        tracemalloc.start()
        try:
            modality_divergence_report(index, queries, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (2 * queries_count * pages * 8)

    def test_csv_layout(self, rng):
        index = random_index(rng, pages=10, dim=4)
        report = modality_divergence_report(index, [unified_query("q", rng.standard_normal(4).tolist())], num_bins=5)
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,density_sim_i,density_sim_t"
        assert len(lines) == 6

    def test_threaded_matches_serial(self, rng):
        index = random_index(rng, pages=30, dim=5)
        queries = [unified_query(f"q{i}", rng.standard_normal(5).tolist()) for i in range(6)]
        serial = modality_divergence_report(index, queries, threads=1)
        threaded = modality_divergence_report(index, queries, threads=4)
        assert serial.kl_nats == threaded.kl_nats
        np.testing.assert_array_equal(serial.image_hist.densities, threaded.image_hist.densities)

    def test_thread_count_changes_no_bit(self, rng):
        # Two full 128-row blocks and a 44-row tail; 37 queries make two
        # query blocks.
        index = random_index(rng, pages=300, dim=1152)
        queries = [unified_query(f"q{i:02d}", rng.standard_normal(1152).tolist()) for i in range(37)]
        serial = modality_divergence_report(index, queries, threads=1)
        for threads in (2, 3):
            report = modality_divergence_report(index, queries, threads=threads)
            assert report.summary() == serial.summary()
            for got, want in ((report.image_hist, serial.image_hist), (report.text_hist, serial.text_hist)):
                np.testing.assert_array_equal(got.bin_edges, want.bin_edges)
                np.testing.assert_array_equal(got.densities, want.densities)
