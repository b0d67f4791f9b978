import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comret import _kernels
from comret.core import MODES, FusionConfig
from comret.errors import ComretError
from comret.fusion import (
    QUERY_BLOCK,
    SIGMA_EPS,
    _top_k,
    blend,
    rank_queries,
    read_run,
    retrieve,
    score_queries,
    write_run,
    zscore_normalize,
)

import reference
from conftest import make_index, make_query, page_ids, random_index, same_rankings, unified_query

bounded_scores = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=50,
)


class TestSigmoidNormalize:
    """The logistic squash of the normalized modes, ``_kernels.logistic``."""

    def test_zero_maps_to_half(self):
        assert _kernels.logistic(np.array([0.0]))[0] == 0.5

    def test_symmetry_sums_to_one(self, rng):
        z = rng.standard_normal(100) * 5
        total = _kernels.logistic(z) + _kernels.logistic(-z)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_log_nine_maps_to_point_nine(self):
        np.testing.assert_allclose(_kernels.logistic(np.array([math.log(9.0)])), [0.9], atol=1e-12)

    def test_saturated_scores_clamp_inside_open_interval(self):
        out = _kernels.logistic(np.array([-1e4, -800.0, 800.0, 1e4]))
        np.testing.assert_array_equal(out, [reference.SIGMOID_FLOOR] * 2 + [reference.SIGMOID_CEIL] * 2)

    @given(
        st.lists(st.integers(min_value=-3000, max_value=3000), min_size=2, max_size=50)
    )
    @settings(max_examples=50)
    def test_strictly_order_preserving(self, hundredths):
        # Score gaps below f64 resolution (~1e-16) cannot survive the
        # squash, so generate on a 0.01 grid spanning [-30, 30].
        z = np.asarray(hundredths, dtype=np.float64) / 100.0
        out = _kernels.logistic(z)
        order_in = np.argsort(-z, kind="stable")
        order_out = np.argsort(-out, kind="stable")
        np.testing.assert_array_equal(order_in, order_out)


class TestZscoreNormalize:
    def test_hand_computed_example(self):
        out, mu, sigma = zscore_normalize(np.array([0.2, 0.5, 0.8]))
        assert mu == pytest.approx(0.5)
        assert sigma == pytest.approx(0.2449490, abs=1e-7)
        np.testing.assert_allclose(out, [-1.2247449, 0.0, 1.2247449], atol=1e-7)

    def test_constant_input_falls_back_to_zeros(self):
        out, _, sigma = zscore_normalize(np.array([0.7, 0.7, 0.7]))
        assert sigma == 0.0
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_singleton_is_degenerate(self):
        out, mu, sigma = zscore_normalize(np.array([0.3]))
        assert sigma == 0.0 and mu == pytest.approx(0.3)
        np.testing.assert_array_equal(out, [0.0])

    def test_population_statistics(self, rng):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(2, 200)))
            out, _, sigma = zscore_normalize(x)
            if sigma > 0:
                assert abs(out.mean()) < 1e-9
                assert abs(math.sqrt(np.mean(out**2)) - 1.0) < 1e-9

    def test_matches_naive_reference(self, rng):
        x = rng.random(37)
        out, mu, sigma = zscore_normalize(x)
        want, want_mu, want_sigma = reference.zscore(list(x))
        assert mu == pytest.approx(want_mu, abs=1e-12)
        assert sigma == pytest.approx(want_sigma, abs=1e-12)
        np.testing.assert_allclose(out, want, atol=1e-9)

    @given(bounded_scores, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @example(values=[0.0, 1e-09], shift=16.0)  # x + 16 rounds the 1e-9 spread to 3.6e-15 steps
    @settings(max_examples=100)
    def test_shift_invariance(self, values, shift):
        x = np.asarray(values)
        base, _, sigma_base = zscore_normalize(x)
        shifted, _, sigma_shift = zscore_normalize(x + shift)
        # Exact in real arithmetic. In float64 each value of x + shift is
        # rounded to the spacing at its magnitude, and the mean and sum of
        # squares accumulate such errors over the len(x) values; divided by
        # sigma, that bounds the change in each z-score.
        rounding = 2 * len(x) * np.spacing(max(np.abs(x).max(), np.abs(x + shift).max()))
        sigma = float(np.std(x))
        if abs(sigma - SIGMA_EPS) > rounding:  # otherwise either side of the cutoff is right
            assert (sigma_base == 0.0) == (sigma_shift == 0.0)
        if sigma_base > 0.0 and sigma_shift > 0.0:
            np.testing.assert_allclose(shifted, base, atol=rounding / sigma)


class TestFuse:
    def test_alpha_boundaries(self):
        zt, zi = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        np.testing.assert_array_equal(blend(zt, zi, 1.0), zt)
        np.testing.assert_array_equal(blend(zt, zi, 0.0), zi)
        np.testing.assert_array_equal(blend(zt, zi, 0.5), [1.0, 1.0])

    def test_beta_weighting(self):
        zt, zi = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
        np.testing.assert_allclose(blend(zt, zi, 0.1), [-0.8, 0.8], atol=1e-12)
        np.testing.assert_array_equal(blend(zt, zi, 0.0), zi)
        np.testing.assert_array_equal(blend(zt, zi, 1.0), zt)

    def test_length_mismatch(self):
        with pytest.raises(ComretError, match="^score lengths differ: 3 vs 2$"):
            blend(np.ones(3), np.ones(2), 0.5)


class TestRankTopK:
    def test_tie_broken_by_lower_index(self):
        assert _top_k(np.array([0.3, 0.9, 0.9, 0.1]), 2).tolist() == [1, 2]

    def test_truncates_to_corpus_size(self):
        assert _top_k(np.array([1.0, 2.0, 3.0, 4.0]), 10).tolist() == [3, 2, 1, 0]

    def test_all_equal_scores_keep_ingestion_order(self):
        assert _top_k(np.zeros(4), 4).tolist() == [0, 1, 2, 3]

    @given(
        st.one_of(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=60),
            st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
        ),
        st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=300)
    def test_matches_full_stable_sort(self, values, k):
        # Integer scores on a small range force many exact ties; an empty
        # list stands for a zero-page index.
        scores = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(_top_k(scores, k), np.argsort(-scores, kind="stable")[:k])


class TestInnerProductScores:
    def test_hand_values(self):
        idx = make_index([[1, 0], [0, 1], [1, 1]], [[0, 0]] * 3)
        (scores,) = _kernels.inner_products([(idx.images.data, np.array([[1.0], [0.0]]))])
        np.testing.assert_array_equal(scores, [[1, 0, 1]])
        (scores,) = score_queries(make_index([[2, 2]], [[0, 0]]), [unified_query("q", [0.5, -0.5])], ["image-only"])
        np.testing.assert_array_equal(scores.raw["image"], [0.0])

    def test_dim_mismatch(self):
        idx = make_index([[1, 0]], [[1, 0]])
        with pytest.raises(ComretError, match="^query 'q' channel 'image-query': expected dim 2, got 3$"):
            list(score_queries(idx, [unified_query("q", [1.0, 0.0, 0.0])], ["image-only"]))


@pytest.mark.filterwarnings("error")  # refused with no NumPy warning, on any thread
class TestNonFiniteScores:
    """A NaN or an infinity in the index or a library-built query makes a
    raw score that is not finite, which scoring refuses."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_query_entry_refused(self, value):
        idx = make_index([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.5, 0.5]])
        query = unified_query("q", [value, 1.0])
        for mode in MODES:
            modality = "text" if mode == "text-only" else "image"
            with pytest.raises(ComretError, match=f"^query 'q': {modality} score of page 'p1' is not finite$"):
                retrieve(query, idx, FusionConfig(mode=mode))

    def test_index_value_refused_where_a_sweep_meets_it(self, rng):
        # The NaN sits in the text row of p3; queries in the second block.
        rows = rng.standard_normal((2, 5, 3))
        rows[1][2][1] = math.nan
        idx = make_index(rows[0].tolist(), rows[1].tolist())
        queries = [unified_query(f"q{j:02d}", rng.standard_normal(3).tolist()) for j in range(QUERY_BLOCK + 2)]
        with pytest.raises(ComretError, match=r"^query 'q00': text score of page 'p3' is not finite$"):
            list(rank_queries(idx, queries, [FusionConfig(mode="ucmr")]))
        assert len(list(rank_queries(idx, queries, [FusionConfig(mode="image-only")]))) == len(queries)

    def test_entry_in_a_later_query_of_a_block_refused(self, rng):
        # Queries q1-q3 and q5 are finite; every row of the block is checked.
        idx = random_index(rng, pages=6, dim=3)
        vectors = rng.standard_normal((5, 3))
        vectors[3][0] = math.inf
        queries = [unified_query(f"q{j + 1}", v.tolist()) for j, v in enumerate(vectors)]
        with pytest.raises(ComretError, match=r"^query 'q4': image score of page 'p1' is not finite$"):
            list(rank_queries(idx, queries, [FusionConfig(mode="ucmr")]))


class TestRetrieve:
    def test_four_page_fixture_matches_reference_pipeline(self):
        image_rows = [[0, 1], [1, 0], [0.5, 0], [0, 0]]
        text_rows = [[0, 0]] * 4
        idx = make_index(image_rows, text_rows)
        q = unified_query("q1", [1.0, 0.0])
        result = retrieve(q, idx, FusionConfig(mode="ucmr", beta=0.1, top_k=3))

        order, fused = reference.normalized_fusion_ranking(
            [1.0, 0.0], [1.0, 0.0], image_rows, text_rows, beta=0.1
        )
        assert page_ids(result) == tuple(f"p{i + 1}" for i in order[:3])
        assert result.entries[0].page_id == "p2"
        for entry, idx_ref in zip(result.entries, order):
            assert entry.fused_score == pytest.approx(fused[idx_ref], abs=1e-12)

    def test_single_page_corpus(self):
        idx = make_index([[1.0]], [[1.0]])
        for mode in ("image-only", "text-only", "raw-linear", "ucmr"):
            result = retrieve(unified_query("q", [2.0]), idx, FusionConfig(mode=mode, top_k=5))
            assert [(e.rank, e.page_id) for e in result.entries] == [(1, "p1")]

    def test_beta_zero_matches_image_only_permutation(self, rng):
        idx = random_index(rng, pages=30, dim=8)
        q = unified_query("q", rng.standard_normal(8).tolist())
        ucmr = retrieve(q, idx, FusionConfig(mode="ucmr", beta=0.0, top_k=30))
        image = retrieve(q, idx, FusionConfig(mode="image-only", top_k=30))
        assert page_ids(ucmr) == page_ids(image)

    def test_beta_one_matches_text_only_permutation(self, rng):
        idx = random_index(rng, pages=30, dim=8)
        q = unified_query("q", rng.standard_normal(8).tolist())
        ucmr = retrieve(q, idx, FusionConfig(mode="ucmr", beta=1.0, top_k=30))
        text = retrieve(q, idx, FusionConfig(mode="text-only", top_k=30))
        assert page_ids(ucmr) == page_ids(text)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(25):
            pages, dim = int(rng.integers(1, 60)), int(rng.integers(1, 16))
            image_rows = rng.standard_normal((pages, dim)).tolist()
            text_rows = rng.standard_normal((pages, dim)).tolist()
            idx = make_index(image_rows, text_rows)
            qvec = rng.standard_normal(dim).tolist()
            beta = float(rng.random())
            result = retrieve(unified_query("q", qvec), idx, FusionConfig(mode="ucmr", beta=beta, top_k=pages))
            # Reference uses the stored float32 rows, same as the engine.
            stored_i = idx.images.data.tolist()
            stored_t = idx.texts.data.tolist()
            q32 = np.asarray(qvec, dtype=np.float32).tolist()
            order, _ = reference.normalized_fusion_ranking(q32, q32, stored_i, stored_t, beta)
            assert page_ids(result) == tuple(f"p{i + 1}" for i in order)

    def test_ensemble_uses_each_channel(self):
        idx = make_index([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        q = make_query("q", image_vec=[1.0, 0.0], text_vec=[0.0, 1.0])
        result = retrieve(q, idx, FusionConfig(mode="ensemble-ucmr", beta=0.5, top_k=2))
        # image channel favors p1, text channel favors p2; blend is symmetric
        assert result.entries[0].fused_score == pytest.approx(result.entries[1].fused_score)

    def test_ensemble_requires_both_channels(self):
        idx = make_index([[1, 0]], [[1, 0]])
        q = make_query("q", image_vec=[1.0, 0.0])
        with pytest.raises(ComretError, match="^mode 'ensemble-ucmr' requires query channel 'text-query'$"):
            retrieve(q, idx, FusionConfig(mode="ensemble-ucmr"))

    def test_missing_all_channels(self):
        idx = make_index([[1, 0]], [[1, 0]])
        q = make_query("q")
        with pytest.raises(ComretError, match="^mode 'image-only' requires query channel 'image-query'$"):
            retrieve(q, idx, FusionConfig(mode="image-only"))

    def test_single_modality_modes_zero_other_column(self):
        idx = make_index([[1.0, 0.0]], [[0.5, 0.5]])
        q = unified_query("q", [1.0, 1.0])
        image = retrieve(q, idx, FusionConfig(mode="image-only", top_k=1))
        assert image.entries[0].text_score == 0.0
        assert image.entries[0].image_score == pytest.approx(1.0)
        text = retrieve(q, idx, FusionConfig(mode="text-only", top_k=1))
        assert text.entries[0].image_score == 0.0
        assert text.entries[0].text_score == pytest.approx(1.0)

    def test_raw_linear_breakdown_carries_raw_scores(self):
        idx = make_index([[2.0]], [[3.0]])
        q = unified_query("q", [1.0])
        result = retrieve(q, idx, FusionConfig(mode="raw-linear", alpha=0.25, top_k=1))
        e = result.entries[0]
        assert (e.image_score, e.text_score) == (2.0, 3.0)
        assert e.fused_score == pytest.approx(0.25 * 3.0 + 0.75 * 2.0)

    def test_constant_text_modality_contributes_nothing(self, rng):
        image_rows = rng.standard_normal((12, 4)).tolist()
        idx_const = make_index(image_rows, [[1.0, 1.0, 1.0, 1.0]] * 12)
        q = unified_query("q", rng.standard_normal(4).tolist())
        with_const = retrieve(q, idx_const, FusionConfig(mode="ucmr", beta=0.4, top_k=12))
        image_only = retrieve(q, idx_const, FusionConfig(mode="image-only", top_k=12))
        assert page_ids(with_const) == page_ids(image_only)
        assert all(e.text_score == 0.0 for e in with_const.entries)


class TestRunFile:
    def test_write_read_round_trip(self, rng):
        idx = random_index(rng, pages=6, dim=3)
        queries = [unified_query(f"q{i}", rng.standard_normal(3).tolist()) for i in range(3)]
        rankings = [r for (r,) in rank_queries(idx, queries, [FusionConfig(mode="ucmr", top_k=4)])]
        buf = io.StringIO()
        write_run(rankings, idx.ids, "ucmr", buf)
        parsed = read_run(buf.getvalue().splitlines())
        assert parsed == {r.query_id: [idx.ids[i] for i in r.rows] for r in rankings}

    def test_scores_use_nine_significant_digits(self):
        idx = make_index([[1.0, 0.0]], [[1.0, 0.0]])
        q = unified_query("q1", [1 / 3, 0.0])
        buf = io.StringIO()
        rankings = next(rank_queries(idx, [q], [FusionConfig(mode="image-only", top_k=1)]))
        write_run(rankings, idx.ids, "image-only", buf)
        fields = buf.getvalue().strip().split("\t")
        assert fields[3] == "0.333333343"  # float32 third, 9 significant digits

    def test_malformed_line_rejected(self):
        with pytest.raises(ComretError, match="^run line 1: non-numeric rank or score$"):
            read_run(["q1\tp1\tone\t0\t0\t0\tucmr"])
        with pytest.raises(ComretError, match="^run line 1: expected 7 columns, got 5$"):
            read_run(["q1\tp1\t1\t0\t0"])
        with pytest.raises(ComretError, match="^run line 2: rank must be >= 1, got 0$"):
            read_run(["q1\tp1\t1\t0\t0\t0\tucmr", "q1\tp2\t0\t0\t0\t0\tucmr"])

    def test_blank_lines_skipped(self):
        lines = ["\n", "q1\tp2\t2\t0\t0\t0\tucmr\n", " \n", "q1\tp1\t1\t0\t0\t0\tucmr\n"]
        assert read_run(lines) == {"q1": ["p1", "p2"]}

    def test_threaded_matches_serial(self, rng):
        idx = random_index(rng, pages=20, dim=5)
        queries = [unified_query(f"q{i}", rng.standard_normal(5).tolist()) for i in range(8)]
        cfg = FusionConfig(mode="ucmr", top_k=5)
        serial = [r for (r,) in rank_queries(idx, queries, [cfg], threads=1)]
        threaded = [r for (r,) in rank_queries(idx, queries, [cfg], threads=4)]
        assert same_rankings(threaded, serial)


@st.composite
def ranking_cases(draw):
    """An index, queries and a config where ties are common: small integer
    or float32 cells, maybe two exact-duplicate pages, maybe one channel
    whose rows are all equal (sigma 0), and k from 1 to pages + 2."""
    pages, dim = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    cell = st.integers(-3, 3).map(float) | st.floats(-2, 2, width=32)
    vector = st.lists(cell, min_size=dim, max_size=dim)
    rows = {m: draw(st.lists(vector, min_size=pages, max_size=pages)) for m in ("image", "text")}
    if draw(st.booleans()):
        src, dst = draw(st.integers(0, pages - 1)), draw(st.integers(0, pages - 1))
        for m in rows:
            rows[m][dst] = rows[m][src]
    constant = draw(st.sampled_from([None, "image", "text"]))
    if constant:
        rows[constant] = [rows[constant][0]] * pages
    queries = [make_query(f"q{j}", *draw(st.tuples(vector, vector))) for j in range(draw(st.integers(1, 3)))]
    unit = st.floats(0, 1)
    cfg = FusionConfig(
        mode=draw(st.sampled_from(MODES)), alpha=draw(unit), beta=draw(unit), top_k=draw(st.integers(1, pages + 2))
    )
    return make_index(rows["image"], rows["text"]), queries, cfg


class TestRankingCore:
    @given(ranking_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_entry_reference(self, case):
        # Run bytes and retrieve's entries equal those of the entry-based
        # ranking and run writer on the same scores.
        idx, queries, cfg = case
        want = [reference.ranked_result(s, idx.ids, cfg) for s in score_queries(idx, queries, [cfg.mode])]
        got, ref = io.StringIO(), io.StringIO()
        write_run([r for (r,) in rank_queries(idx, queries, [cfg])], idx.ids, cfg.mode, got)
        reference.write_run(want, cfg.mode, ref)
        assert got.getvalue() == ref.getvalue()
        for query in queries:
            (scores,) = score_queries(idx, [query], [cfg.mode])
            assert retrieve(query, idx, cfg) == reference.ranked_result(scores, idx.ids, cfg)

    def test_unscored_modality_is_k_zeros(self):
        idx = make_index([[1.0], [2.0], [3.0]], [[3.0], [2.0], [1.0]])
        (ranking,) = next(rank_queries(idx, [unified_query("q", [1.0])], [FusionConfig(mode="image-only", top_k=2)]))
        assert ranking.rows.tolist() == [2, 1]
        np.testing.assert_array_equal(ranking.image, [3.0, 2.0])
        np.testing.assert_array_equal(ranking.text, np.zeros(2))


class TestScoreVector:
    def test_pipeline_fields_consistent(self, rng):
        idx = random_index(rng, pages=15, dim=6)
        q = rng.standard_normal(6)
        (scores,) = score_queries(idx, [unified_query("q", q)], ["ucmr"])
        got = scores.zscored["image"]
        ((raw,),) = _kernels.inner_products([(idx.images.data, q.astype(np.float32).astype(np.float64)[:, None])])
        want = zscore_normalize(_kernels.logistic(raw))
        np.testing.assert_array_equal(scores.raw["image"], raw)
        np.testing.assert_array_equal(got.values, want.values)
        assert (got.mu, got.sigma) == (want.mu, want.sigma)


def two_channel_queries(rng, count, dim):
    return [
        make_query(f"q{j:03d}", rng.standard_normal(dim).tolist(), rng.standard_normal(dim).tolist())
        for j in range(count)
    ]


class TestQueryEngine:
    @pytest.mark.parametrize("count", [1, 7, 33, 2 * QUERY_BLOCK + 3])
    def test_batched_scores_match_brute_force(self, rng, count):
        idx = random_index(rng, pages=150, dim=6)
        queries = two_channel_queries(rng, count, 6)
        got = list(score_queries(idx, queries, ["raw-linear"]))
        assert [s.query for s in got] == queries
        for s in got:
            for modality, matrix in (("image", idx.images), ("text", idx.texts)):
                vec = s.query.vector_for_sweep(modality)
                want = [reference.inner(vec, row) for row in matrix.data]
                np.testing.assert_allclose(s.raw[modality], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_rankings_match_per_query_oracle(self, rng, mode):
        pages, dim = 150, 6
        idx = random_index(rng, pages=pages, dim=dim)
        queries = two_channel_queries(rng, 2 * QUERY_BLOCK + 3, dim)
        cfg = FusionConfig(mode=mode, alpha=0.3, beta=0.35, top_k=pages)
        results = [r for (r,) in rank_queries(idx, queries, [cfg])]
        assert [r.query_id for r in results] == [q.query_id for q in queries]
        stored_i, stored_t = idx.images.data.tolist(), idx.texts.data.tolist()
        for query, result in zip(queries, results):
            vec_i, vec_t = query.channel("image-query").tolist(), query.channel("text-query").tolist()
            if cfg.mode in ("ucmr", "ensemble-ucmr"):
                order, _ = reference.normalized_fusion_ranking(vec_i, vec_t, stored_i, stored_t, cfg.beta)
            else:
                raw_i = [reference.inner(vec_i, row) for row in stored_i]
                raw_t = [reference.inner(vec_t, row) for row in stored_t]
                fused = {
                    "image-only": raw_i,
                    "text-only": raw_t,
                    "raw-linear": [cfg.alpha * t + (1 - cfg.alpha) * i for i, t in zip(raw_i, raw_t)],
                }[cfg.mode]
                order = reference.raw_ranking(fused)
            assert result.rows.tolist() == order
            alone = retrieve(query, idx, cfg)
            assert page_ids(alone) == tuple(f"p{i + 1}" for i in order)
            for a, fused, image, text in zip(alone.entries, result.fused, result.image, result.text):
                want = (a.fused_score, a.image_score, a.text_score)
                assert (fused, image, text) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_thread_count_changes_no_bit(self, rng):
        # 300 pages at a dimension where a matrix product's summation order
        # shows: the 32-query block sweeps 24-row blocks and a 12-row tail,
        # the 5-query block two 128-row blocks and a 44-row tail.
        idx = random_index(rng, pages=300, dim=1152)
        queries = two_channel_queries(rng, QUERY_BLOCK + 5, 1152)
        for mode in MODES:
            cfg = FusionConfig(mode=mode, top_k=10)
            serial = [r for (r,) in rank_queries(idx, queries, [cfg], threads=1)]
            for threads in (2, 3):
                assert same_rankings([r for (r,) in rank_queries(idx, queries, [cfg], threads=threads)], serial)

    def test_configs_share_one_sweep_per_block(self, rng, monkeypatch):
        idx = random_index(rng, pages=40, dim=4)
        queries = two_channel_queries(rng, QUERY_BLOCK + 1, 4)
        cfgs = [FusionConfig(mode=m, beta=b) for m in MODES for b in (0.0, 0.5, 1.0)]
        sweep, calls = _kernels.inner_products, []
        names = {id(idx.images.data): "image", id(idx.texts.data): "text"}

        def spy(sweeps, threads=None):
            calls.append([(names[id(matrix)], query.shape[1]) for matrix, query in sweeps])
            return sweep(sweeps, threads)

        monkeypatch.setattr(_kernels, "inner_products", spy)
        ranked = list(rank_queries(idx, queries, cfgs))
        # two blocks of queries x two modalities = 4 matrix passes, images first
        assert calls == [[("image", QUERY_BLOCK), ("text", QUERY_BLOCK)], [("image", 1), ("text", 1)]]
        monkeypatch.undo()
        for j, cfg in enumerate(cfgs):
            assert same_rankings([r[j] for r in ranked], [r for (r,) in rank_queries(idx, queries, [cfg])])

    def test_no_configs_yield_one_empty_tuple_per_query(self, rng):
        # No mode sweeps a modality, so each block's sweep list is empty.
        idx = random_index(rng, pages=40, dim=4)
        queries = two_channel_queries(rng, QUERY_BLOCK + 1, 4)
        assert list(rank_queries(idx, queries, [])) == [()] * len(queries)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_channel_checked_before_any_sweep(self, rng, monkeypatch, mode):
        # The bad query sits in the second block, and its text channel is
        # one that image-only never sweeps.
        idx = random_index(rng, pages=40, dim=4)
        queries = two_channel_queries(rng, QUERY_BLOCK + 2, 4)
        queries[QUERY_BLOCK] = make_query("q-bad", [1.0, 0.0, 0.0, 0.0], [1.0])
        calls = []
        monkeypatch.setattr(_kernels, "inner_products", lambda *a, **kw: calls.append(1))
        with pytest.raises(ComretError, match=r"^query 'q-bad' channel 'text-query': expected dim 4, got 1$"):
            list(rank_queries(idx, queries, [FusionConfig(mode=mode)]))
        assert calls == []

    def test_missing_channel_named_for_strict_mode(self):
        idx = make_index([[1, 0]], [[1, 0]])
        queries = [unified_query("q1", [1.0, 0.0]), make_query("q2", image_vec=[1.0, 0.0])]
        cfgs = [FusionConfig(mode="ucmr"), FusionConfig(mode="ensemble-ucmr")]
        with pytest.raises(ComretError, match="^mode 'ensemble-ucmr' requires query channel 'text-query'$"):
            list(rank_queries(idx, queries, cfgs))

    def test_memory_bounded_by_query_block(self, rng):
        # Scores are held one block of queries at a time: the peak grows
        # with pages x QUERY_BLOCK, not pages x queries. Holding all 512
        # query columns would need 2 x 16 MB for the raw sweeps alone.
        pages, dim = 4000, 8
        idx = random_index(rng, pages=pages, dim=dim)
        queries = [unified_query(f"q{j:03d}", rng.standard_normal(dim).tolist()) for j in range(512)]
        assert len(queries) >= 4 * QUERY_BLOCK
        tracemalloc.start()
        try:
            list(rank_queries(idx, queries, [FusionConfig(mode="ucmr", top_k=3)], threads=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * pages * QUERY_BLOCK * 8
