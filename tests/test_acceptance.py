"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest
with -s to see them live). Tolerances and instance counts are pinned
here, not configurable.
"""

import contextlib
import gc
import math
import time

import numpy as np
import pytest

from comret.cli import main as cli_main
from comret.core import FusionConfig
from comret.diagnostics import build_histogram, kl_divergence, modality_divergence_report
from comret.fusion import rank_queries, retrieve, zscore_normalize
from comret.metrics import evaluate_run, mrr_at_k, ndcg_at_k, recall_at_k
from comret.store import build_index, load_index, save_index
from comret.training import (
    ToyEncoders,
    TrainConfig,
    TripletBatch,
    combined_loss,
    init_encoders,
    loss_gradients,
    pairwise_sigmoid_loss,
    train_toy,
)

import reference
from conftest import make_index, page_ids, random_index, unified_query


@contextlib.contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - started:.1f}s)")


def test_01_normalization_contract():
    with criterion("01 normalization-contract"):
        rng = np.random.default_rng(1)
        started = time.perf_counter()
        for trial in range(1000):
            m = int(rng.integers(2, 501))
            if trial % 20 == 0:  # constant vectors exercise the sigma=0 path
                values = np.full(m, float(rng.random()))
            else:
                values = rng.random(m) * float(rng.uniform(0.1, 10.0))
            out, _, sigma = zscore_normalize(values)
            if sigma > 1e-12:
                assert abs(out.mean()) < 1e-9
                assert abs(math.sqrt(float(np.mean(out**2))) - 1.0) < 1e-9
            else:
                assert sigma == 0.0
                assert not out.any()
        assert time.perf_counter() - started < 5.0


def test_02_degeneracy_equivalence():
    with criterion("02 degeneracy-equivalence"):
        rng = np.random.default_rng(2)
        started = time.perf_counter()
        for _ in range(200):
            pages, dim = int(rng.integers(2, 101)), int(rng.integers(1, 13))
            index = random_index(rng, pages, dim)
            query = unified_query("q", rng.standard_normal(dim).tolist())
            full = dict(top_k=pages)
            ucmr0 = retrieve(query, index, FusionConfig(mode="ucmr", beta=0.0, **full))
            image = retrieve(query, index, FusionConfig(mode="image-only", **full))
            assert page_ids(ucmr0) == page_ids(image)
            ucmr1 = retrieve(query, index, FusionConfig(mode="ucmr", beta=1.0, **full))
            text = retrieve(query, index, FusionConfig(mode="text-only", **full))
            assert page_ids(ucmr1) == page_ids(text)
        assert time.perf_counter() - started < 10.0


def test_03_brute_force_oracle():
    with criterion("03 brute-force-oracle"):
        rng = np.random.default_rng(3)
        started = time.perf_counter()
        for _ in range(200):
            pages, dim = int(rng.integers(1, 101)), int(rng.integers(1, 17))
            image_rows = rng.standard_normal((pages, dim)).tolist()
            text_rows = rng.standard_normal((pages, dim)).tolist()
            index = make_index(image_rows, text_rows)
            qvec = rng.standard_normal(dim).tolist()
            beta = float(rng.random())
            got = retrieve(
                unified_query("q", qvec), index, FusionConfig(mode="ucmr", beta=beta, top_k=pages)
            )
            q32 = np.asarray(qvec, dtype=np.float32).tolist()
            order, _ = reference.normalized_fusion_ranking(
                q32, q32, index.images.data.tolist(), index.texts.data.tolist(), beta
            )
            assert page_ids(got) == tuple(f"p{i + 1}" for i in order)
        assert time.perf_counter() - started < 30.0


def test_04_metric_fixtures():
    with criterion("04 metric-fixtures"):
        assert ndcg_at_k(["a", "x", "b"], {"a", "b"}, 3) == pytest.approx(0.9197207, abs=1e-7)
        assert ndcg_at_k(["a", "x", "b"], {"a", "b"}, 3) == pytest.approx(
            1.5 / (1.0 + 1.0 / math.log2(3.0)), abs=1e-9
        )
        assert recall_at_k(["a", "x", "c", "y", "z"], {"a", "b", "c"}, 5) == pytest.approx(2 / 3, abs=1e-9)
        assert mrr_at_k(["x", "y", "a"], {"a"}, 10) == pytest.approx(1 / 3, abs=1e-9)

        rng = np.random.default_rng(4)
        for _ in range(1000):
            pages = int(rng.integers(1, 40))
            ranked = [f"p{i}" for i in rng.permutation(pages)]
            gold_size = int(rng.integers(1, min(8, pages + 1)))
            gold = {f"p{i}" for i in rng.choice(pages, size=gold_size, replace=False)}
            k = int(rng.integers(1, 20))
            assert recall_at_k(ranked, gold, k) == pytest.approx(
                reference.recall_at_k(ranked, gold, k), abs=1e-12
            )
            assert mrr_at_k(ranked, gold, k) == pytest.approx(reference.mrr_at_k(ranked, gold, k), abs=1e-12)
            assert ndcg_at_k(ranked, gold, k) == pytest.approx(reference.ndcg_at_k(ranked, gold, k), abs=1e-12)


def test_05_pair_loss_oracle():
    with criterion("05 pair-loss-oracle"):
        spot = pairwise_sigmoid_loss(np.array([[1.0]]), np.array([[0.0]]), 10.0, -10.0)
        assert spot == pytest.approx(4.5399e-5, abs=1e-9)
        assert spot == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-12)

        rng = np.random.default_rng(5)
        for _ in range(100):
            b, d = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            q = rng.standard_normal((b, d))
            c = rng.standard_normal((b, d))
            tau = float(rng.uniform(0.1, 15.0))
            eta = float(rng.uniform(-12.0, 12.0))
            got = pairwise_sigmoid_loss(q, c, tau, eta)
            want = reference.pair_loss_double_loop(q.tolist(), c.tolist(), tau, eta)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_06_gradient_check():
    with criterion("06 gradient-check"):
        rng = np.random.default_rng(6)
        started = time.perf_counter()
        eps = 1e-5

        def rel_err(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1e-8)

        for _ in range(100):
            b, d = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            batch = TripletBatch(
                rng.standard_normal((b, d)), rng.standard_normal((b, d)), rng.standard_normal((b, d))
            )
            base = init_encoders(batch, seed=0)
            w0 = rng.standard_normal((d, d)) * 0.4
            enc = ToyEncoders(base.w_image, w0)
            lam = float(rng.uniform(0.0, 1.0))
            tau = float(rng.uniform(0.5, 12.0))
            eta = float(rng.uniform(-11.0, 3.0))
            grads = loss_gradients(batch, enc, lam, tau, eta)

            for idx in np.ndindex(w0.shape):
                hi, lo = w0.copy(), w0.copy()
                hi[idx] += eps
                lo[idx] -= eps
                fd = (
                    combined_loss(batch, ToyEncoders(base.w_image, hi), lam, tau, eta)[0]
                    - combined_loss(batch, ToyEncoders(base.w_image, lo), lam, tau, eta)[0]
                ) / (2 * eps)
                assert rel_err(grads.w_text[idx], fd) < 1e-4
            fd_tau = (
                combined_loss(batch, enc, lam, tau + eps, eta)[0]
                - combined_loss(batch, enc, lam, tau - eps, eta)[0]
            ) / (2 * eps)
            fd_eta = (
                combined_loss(batch, enc, lam, tau, eta + eps)[0]
                - combined_loss(batch, enc, lam, tau, eta - eps)[0]
            ) / (2 * eps)
            assert rel_err(grads.tau, fd_tau) < 1e-4
            assert rel_err(grads.eta, fd_eta) < 1e-4
        assert time.perf_counter() - started < 60.0


def test_07_toy_training():
    with criterion("07 toy-training"):
        started = time.perf_counter()
        n = 8
        batch = TripletBatch(
            query=np.eye(n),
            image=-3.0 * np.ones((n, n)) + 6.0 * np.eye(n),
            text=np.eye(n),
        )
        result = train_toy(batch, TrainConfig(learning_rate=0.05, steps=200))
        report = result.report()
        assert report["final_loss"] <= 0.5 * report["initial_loss"]
        assert result.mrr_at_1 == 1.0
        assert time.perf_counter() - started < 10.0


def test_08_directional_normalization_gain():
    with criterion("08 directional-normalization-gain"):
        started = time.perf_counter()
        rng = np.random.default_rng(8)
        n_queries, pages = 40, 60
        gold = {f"q{j:02d}": f"p{int(rng.integers(0, pages))}" for j in range(n_queries)}

        # Text channel: small scale, strong relevance signal. Image channel:
        # large scale, weak signal. Raw fusion is then dominated by image
        # noise while normalized fusion recovers the text signal.
        image_rows, text_rows = [], []
        qids = sorted(gold)
        for p in range(pages):
            pid = f"p{p}"
            text_rows.append(
                [0.002 * (2.0 * (gold[qid] == pid) + 0.2 * rng.standard_normal()) for qid in qids]
            )
            image_rows.append(
                [8.0 * (0.4 * (gold[qid] == pid) + rng.standard_normal()) for qid in qids]
            )
        index = make_index(image_rows, text_rows, ids=[f"p{p}" for p in range(pages)])
        queries = [
            unified_query(qid, np.eye(n_queries)[j].tolist())
            for j, qid in enumerate(qids)
        ]
        qrels = {qid: frozenset({page}) for qid, page in gold.items()}

        def macro_mrr(mode):
            cfg = FusionConfig(mode=mode, alpha=0.1, beta=0.1, top_k=10)
            run = {r.query_id: [index.ids[i] for i in r.rows] for (r,) in rank_queries(index, queries, [cfg])}
            return evaluate_run(run, qrels, ["mrr@10"]).macro["mrr@10"]

        mrr_norm = macro_mrr("ucmr")
        mrr_raw = macro_mrr("raw-linear")
        assert mrr_norm >= mrr_raw
        assert time.perf_counter() - started < 10.0


def test_09_diagnostics_sanity():
    with criterion("09 diagnostics-sanity"):
        rng = np.random.default_rng(9)
        hist = build_histogram(rng.standard_normal(500), 30, (-4.0, 4.0))
        assert kl_divergence(hist, hist) == 0.0

        for _ in range(1000):
            bins = int(rng.integers(1, 40))
            p = build_histogram(rng.standard_normal(int(rng.integers(0, 300))), bins, (-4.0, 4.0))
            q = build_histogram(rng.standard_normal(int(rng.integers(0, 300))), bins, (-4.0, 4.0))
            assert kl_divergence(p, q) >= 0.0

        index = random_index(rng, pages=100, dim=16)
        queries = [unified_query(f"q{i:03d}", rng.standard_normal(16).tolist()) for i in range(100)]
        report = modality_divergence_report(index, queries, num_bins=50)
        assert report.samples_per_modality >= 10_000
        assert report.kl_nats < 0.05


def test_10_performance_contract():
    with criterion("10 performance-contract"):
        rng = np.random.default_rng(10)
        pages, dim = 100_000, 1152
        images = rng.standard_normal((pages, dim), dtype=np.float32)
        texts = rng.standard_normal((pages, dim), dtype=np.float32)
        ids = [f"p{i}" for i in range(pages)]
        index = build_index(
            list(zip(ids, images)), list(zip(ids, texts)), normalize=False
        )
        del images, texts
        gc.collect()

        query = unified_query("q", rng.standard_normal(dim).tolist())
        dual_cfg = FusionConfig(mode="ucmr", beta=0.1, top_k=3)
        single_cfg = FusionConfig(mode="image-only", top_k=3)

        def timed(cfg):
            t0 = time.perf_counter()
            retrieve(query, index, cfg)
            return time.perf_counter() - t0

        retrieve(query, index, dual_cfg)  # warm-up: page in both matrices
        # The modes alternate, so a burst of load from elsewhere on the
        # host lands on both, and each keeps its best of 3.
        pairs = [(timed(dual_cfg), timed(single_cfg)) for _ in range(3)]
        dual = min(d for d, _ in pairs)
        single = min(s for _, s in pairs)
        print(
            f"  [dual={dual * 1e3:.1f}ms "
            f"single={single * 1e3:.1f}ms ratio={dual / single:.2f}]"
        )
        assert dual < 0.250
        assert dual < 2.5 * single
        del index
        gc.collect()


def test_11_round_trip_and_determinism(tmp_path):
    with criterion("11 round-trip-and-determinism"):
        rng = np.random.default_rng(11)
        index = random_index(rng, pages=50, dim=24)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.images.data.tobytes() == index.images.data.tobytes()
        assert loaded.texts.data.tobytes() == index.texts.data.tobytes()
        assert loaded.ids == index.ids

        queries = [
            {
                "query_id": f"q{i}",
                "text": "",
                "embeddings": {"image-query": rng.standard_normal(24).tolist()},
            }
            for i in range(5)
        ]
        import json

        qfile = tmp_path / "queries.jsonl"
        qfile.write_text("".join(json.dumps(q) + "\n" for q in queries))
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out, threads in ((out_a, "1"), (out_b, "4")):
            code = cli_main(
                [
                    "retrieve",
                    "--index", str(tmp_path / "idx"),
                    "--queries", str(qfile),
                    "--threads", threads,
                    "--out", str(out),
                ]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
