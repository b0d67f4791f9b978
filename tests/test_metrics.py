import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comret.errors import ComretError
from comret.metrics import (
    evaluate_run,
    hit_at_k,
    mrr_at_k,
    ndcg_at_k,
    parse_metric_spec,
    read_qrels,
    recall_at_k,
)

import reference


class TestRecall:
    def test_partial_hits(self):
        assert recall_at_k(["a", "x", "c", "y", "z"], {"a", "b", "c"}, 5) == pytest.approx(2 / 3)

    def test_all_gold_retrieved(self):
        assert recall_at_k(["a", "b"], {"a", "b"}, 5) == 1.0

    def test_no_gold_retrieved(self):
        assert recall_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_empty_gold_raises(self):
        with pytest.raises(ComretError, match="^recall needs a non-empty gold set$"):
            recall_at_k(["a"], set(), 1)

    @pytest.mark.parametrize("name, metric", [("hit", hit_at_k), ("mrr", mrr_at_k), ("ndcg", ndcg_at_k)])
    def test_empty_gold_raises_in_hit_mrr_and_ndcg(self, name, metric):
        with pytest.raises(ComretError, match=f"^{name} needs a non-empty gold set$"):
            metric(["a"], set(), 1)

    def test_hit_is_any_match(self):
        assert hit_at_k(["a", "x"], {"a", "b", "c"}, 2) == 1.0
        assert hit_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_hit_equals_recall_for_single_gold(self):
        ranked = ["x", "a", "y"]
        assert hit_at_k(ranked, {"a"}, 3) == recall_at_k(ranked, {"a"}, 3)


class TestMrr:
    def test_first_hit_at_rank_three(self):
        assert mrr_at_k(["x", "y", "a", "b"], {"a", "b"}, 10) == pytest.approx(1 / 3)

    def test_hit_at_rank_one(self):
        assert mrr_at_k(["a"], {"a"}, 10) == 1.0

    def test_hit_beyond_cutoff_scores_zero(self):
        ranked = [f"x{i}" for i in range(10)] + ["a"]
        assert mrr_at_k(ranked, {"a"}, 10) == 0.0


class TestNdcg:
    def test_hand_computed_pattern(self):
        # retrieved relevance [1, 0, 1] with two gold pages at k=3
        assert ndcg_at_k(["a", "x", "b"], {"a", "b"}, 3) == pytest.approx(0.9197207891, abs=1e-9)

    def test_perfect_ranking(self):
        assert ndcg_at_k(["a", "b", "x"], {"a", "b"}, 3) == pytest.approx(1.0)

    def test_no_relevant_retrieved(self):
        assert ndcg_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_ideal_gain_spans_all_gold_pages(self):
        # With 3 gold pages only 2 can fit at k=2, so even a perfect prefix
        # stays below 1; this is what keeps nDCG@k monotone in k.
        dcg = 1.0 + 1.0 / math.log2(3)
        idcg = dcg + 1.0 / math.log2(4)
        assert ndcg_at_k(["a", "b"], {"a", "b", "c"}, 2) == pytest.approx(dcg / idcg, abs=1e-12)
        assert ndcg_at_k(["a", "b", "c"], {"a", "b", "c"}, 3) == pytest.approx(1.0)


class TestRepeatedPages:
    """A page listed again keeps its first rank and takes no place in the top k."""

    def test_repeat_ahead_of_the_gold_page_takes_no_place(self):
        ranked, gold = ["a", "a", "b", "c"], {"b"}
        assert recall_at_k(ranked, gold, 2) == 1.0
        assert hit_at_k(ranked, gold, 2) == 1.0
        assert mrr_at_k(ranked, gold, 2) == 0.5
        assert ndcg_at_k(ranked, gold, 2) == 1.0 / math.log2(3)

    def test_repeated_gold_page_counts_once(self):
        ranked, gold = ["b", "b", "x", "c"], {"b", "c"}
        idcg = 1.0 + 1.0 / math.log2(3)
        assert recall_at_k(ranked, gold, 2) == 0.5
        assert hit_at_k(ranked, gold, 2) == 1.0
        assert mrr_at_k(ranked, gold, 2) == 1.0
        assert ndcg_at_k(ranked, gold, 2) == 1.0 / idcg
        assert recall_at_k(ranked, gold, 3) == 1.0
        assert ndcg_at_k(ranked, gold, 3) == (1.0 + 1.0 / math.log2(4)) / idcg

    def test_gold_page_pushed_out_only_by_distinct_pages(self):
        ranked, gold = ["a", "b", "a", "c"], {"c"}
        for fn in (recall_at_k, hit_at_k, mrr_at_k, ndcg_at_k):
            assert fn(ranked, gold, 2) == 0.0
        assert mrr_at_k(ranked, gold, 3) == 1 / 3


class TestAgainstNaiveReference(object):
    def test_random_instances_match(self, rng):
        for _ in range(300):
            n_pages = int(rng.integers(1, 30))
            ranked = [f"p{i}" for i in rng.permutation(n_pages)]
            gold_size = int(rng.integers(1, min(6, n_pages + 1)))
            gold = {f"p{i}" for i in rng.choice(n_pages, size=gold_size, replace=False)}
            k = int(rng.integers(1, 15))
            assert recall_at_k(ranked, gold, k) == pytest.approx(reference.recall_at_k(ranked, gold, k), abs=1e-12)
            assert mrr_at_k(ranked, gold, k) == pytest.approx(reference.mrr_at_k(ranked, gold, k), abs=1e-12)
            assert ndcg_at_k(ranked, gold, k) == pytest.approx(reference.ndcg_at_k(ranked, gold, k), abs=1e-12)


@st.composite
def ranking_with_gold(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    ranked = [f"p{i}" for i in range(n)]
    gold_size = draw(st.integers(min_value=1, max_value=n))
    gold = set(draw(st.permutations(ranked))[:gold_size])
    return ranked, gold


class TestMetricProperties:
    @given(ranking_with_gold(), st.integers(min_value=1, max_value=25))
    @settings(max_examples=100)
    def test_range_and_monotonicity(self, instance, k):
        ranked, gold = instance
        for fn in (recall_at_k, hit_at_k, mrr_at_k, ndcg_at_k):
            value_k = fn(ranked, gold, k)
            assert 0.0 <= value_k <= 1.0
            assert fn(ranked, gold, k + 1) >= value_k - 1e-12

    @given(ranking_with_gold())
    @settings(max_examples=100)
    def test_promoting_a_relevant_item_never_hurts(self, instance):
        ranked, gold = instance
        positions = [i for i, pid in enumerate(ranked) if pid in gold and i > 0]
        if not positions:
            return
        i = positions[-1]
        promoted = list(ranked)
        promoted[i - 1], promoted[i] = promoted[i], promoted[i - 1]
        for fn in (recall_at_k, hit_at_k, mrr_at_k, ndcg_at_k):
            for k in (1, 3, len(ranked)):
                assert fn(promoted, gold, k) >= fn(ranked, gold, k) - 1e-12


class TestMetricSpecs:
    @pytest.mark.parametrize(
        "spec,expected",
        [("recall@5", ("recall", 5)), ("NDCG@10", ("ndcg", 10)), ("Mrr@10", ("mrr", 10)), ("hit@3", ("hit", 3))],
    )
    def test_parse(self, spec, expected):
        assert parse_metric_spec(spec) == expected

    @pytest.mark.parametrize("spec", ["map@5", "recall", "recall@0", "recall@x", "@5"])
    def test_rejects_unknown(self, spec):
        with pytest.raises(ComretError, match=f"^unknown metric spec {re.escape(repr(spec))}$"):
            parse_metric_spec(spec)


class TestQrels:
    def test_parse_and_ignore_zero_relevance(self):
        qrels = read_qrels(["q1\tp1\t1\n", "q1\tp2\t0\n", "q2\tp3\t1\n"])
        assert qrels == {"q1": frozenset({"p1"}), "q2": frozenset({"p3"})}

    def test_blank_lines_skipped(self):
        assert read_qrels(["\n", "q1\tp1\t1\n", "  \n"]) == {"q1": frozenset({"p1"})}

    def test_malformed_line(self):
        with pytest.raises(ComretError, match="^line 1: expected 3 columns, got 2$"):
            read_qrels(["q1\tp1\n"])
        with pytest.raises(ComretError, match="^line 1: relevance must be 0 or 1, got '2'$"):
            read_qrels(["q1\tp1\t2\n"])

    @pytest.mark.parametrize("line", ["\tp1\t1\n", "q1\t\t1\n"])
    def test_empty_id(self, line):
        with pytest.raises(ComretError, match="^line 2: empty query_id or page_id$"):
            read_qrels(["q1\tp1\t1\n", line])


class TestEvaluateRun:
    def test_macro_average(self):
        run = {"q1": ["a"], "q2": ["x", "a2"]}
        qrels = {"q1": frozenset({"a"}), "q2": frozenset({"a2"})}
        report = evaluate_run(run, qrels, ["mrr@10"])
        assert report.per_query["q1"]["mrr@10"] == 1.0
        assert report.per_query["q2"]["mrr@10"] == 0.5
        assert report.macro["mrr@10"] == pytest.approx(0.75)

    def test_unknown_query_in_run(self):
        with pytest.raises(ComretError, match="^run contains query 'q9' absent from qrels$"):
            evaluate_run({"q9": ["a"]}, {"q1": frozenset({"a"})}, ["mrr@10"])

    def test_qrels_query_missing_from_run_scores_zero(self):
        report = evaluate_run({"q1": ["a"]}, {"q1": frozenset({"a"}), "q2": frozenset({"b"})}, ["recall@5"])
        assert report.missing == ("q2",)
        assert report.per_query["q2"]["recall@5"] == 0.0
        assert report.macro["recall@5"] == pytest.approx(0.5)

    def test_three_query_fixture(self):
        # Hand-computed: MRR@10 values 1, 1/2, 1/4 -> macro 7/12.
        run = {
            "q1": ["g1", "x", "y"],
            "q2": ["x", "g2"],
            "q3": ["a", "b", "c", "g3"],
        }
        qrels = {"q1": frozenset({"g1"}), "q2": frozenset({"g2"}), "q3": frozenset({"g3"})}
        report = evaluate_run(run, qrels, ["mrr@10"])
        assert report.macro["mrr@10"] == pytest.approx(7 / 12)

    def test_tsv_and_json_reports(self):
        run = {"q1": ["a"]}
        qrels = {"q1": frozenset({"a"})}
        report = evaluate_run(run, qrels, ["recall@5", "mrr@10"])
        tsv = report.to_tsv()
        lines = tsv.strip().splitlines()
        assert lines[0] == "query_id\trecall@5\tmrr@10"
        assert lines[-1].startswith("ALL\t")
        parsed = json.loads(report.to_json())
        assert parsed["macro"]["mrr@10"] == 1.0
