import pickle
import struct

import numpy as np
import pytest

from comret import errors, store
from comret.core import FusionConfig, QueryRecord
from comret.diagnostics import build_histogram, kl_divergence, modality_divergence_report
from comret.errors import ComretError
from comret.fusion import blend, read_run, retrieve
from comret.metrics import evaluate_run, parse_metric_spec, read_qrels
from comret.store import MAGIC, build_index, parse_embedding_jsonl, parse_query_jsonl

from conftest import make_index, make_query


class TestFusionConfig:
    def test_defaults_match_standard_setup(self):
        cfg = FusionConfig()
        assert cfg.mode == "ucmr" and cfg.beta == 0.1 and cfg.top_k == 3

    @pytest.mark.parametrize("kwargs", [{"alpha": 1.5}, {"beta": -0.1}, {"top_k": 0}, {"mode": "bm25"}])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ComretError):
            FusionConfig(**kwargs)


class TestQueryRecord:
    def test_sweep_vector_prefers_natural_channel(self):
        img = np.array([1.0, 0.0], dtype=np.float32)
        txt = np.array([0.0, 1.0], dtype=np.float32)
        q = QueryRecord("q1", {"image-query": img, "text-query": txt})
        assert q.vector_for_sweep("image") is img
        assert q.vector_for_sweep("text") is txt

    def test_sweep_vector_falls_back_to_shared_embedding(self):
        vec = np.array([1.0, 0.0], dtype=np.float32)
        q = QueryRecord("q1", {"image-query": vec})
        assert q.vector_for_sweep("text") is vec

    def test_missing_channels_return_none(self):
        q = QueryRecord("q1", {})
        assert q.vector_for_sweep("image") is None


def cmeb(tmp_path, raw: bytes):
    """Map ``raw`` as the .cmeb file m.cmeb in ``tmp_path``, which FAILURES writes as TMP."""
    path = tmp_path / "m.cmeb"
    path.write_bytes(raw)
    return store._map_payload(path)


def ones(*ids, dim=2):
    return [(pid, np.ones(dim, np.float32)) for pid in ids]


def histograms(*bins):
    return [build_histogram(np.zeros(3), b, (-1.0, 1.0)) for b in bins]


#: Every kind of failure, raised by the function that detects it, with its
#: message. The ids name the error classes these failures had before all
#: of them became ComretError.
FAILURES = {
    "ComretError": (lambda _: build_index([], []), "need at least one image and one text record"),
    "MalformedLine": (
        lambda _: parse_embedding_jsonl(['{"id":"p1","embedding":[1.0]}\n', "\n", '{"id"\n']),
        "line 3: invalid JSON (Expecting ':' delimiter)",
    ),
    "DimMismatch": (
        lambda _: retrieve(make_query("q1", [1.0, 0.0], [1.0]), make_index([[1.0, 0.0]], [[1.0, 0.0]]), FusionConfig()),
        "query 'q1' channel 'text-query': expected dim 2, got 1",
    ),
    "NonFiniteValue": (
        lambda _: parse_embedding_jsonl(['{"id":"p1","embedding":[1.0]}\n', '{"id":"p2","embedding":[NaN]}\n']),
        "non-finite value in line 2",
    ),
    "DuplicateId": (
        lambda _: parse_query_jsonl(['{"query_id":"p1","embeddings":{"image-query":[1.0]}}\n'] * 2),
        "line 2: duplicate id 'p1'",
    ),
    "IdSetMismatch": (
        lambda _: build_index(ones(*(f"p{i}" for i in range(9))), ones("p0", "p1")),
        "ids present on one side only: p2, p3, p4, p5, p6 (+2 more)",
    ),
    "ZeroVectorOnNormalize": (
        lambda _: build_index([("p1", np.zeros(2, np.float32))], ones("p1"), normalize=True),
        "images id 'p1': cannot L2-normalize zero vector",
    ),
    "BadMagic": (lambda tmp: cmeb(tmp, b"XXXX" + bytes(28)), "TMP/m.cmeb: bad magic b'XXXX'"),
    "UnsupportedVersion": (lambda tmp: cmeb(tmp, MAGIC + struct.pack("<IIQ", 9, 1, 1)), "TMP/m.cmeb: unsupported format version 9"),
    "TruncatedFile": (lambda tmp: cmeb(tmp, MAGIC + bytes(4)), "TMP/m.cmeb: file ended while reading header"),
    "LengthMismatch": (lambda _: blend(np.ones(2), np.ones(3), 0.5), "score lengths differ: 2 vs 3"),
    "MissingChannel": (
        lambda _: retrieve(make_query("q1", [1.0]), make_index([[1.0]], [[1.0]]), FusionConfig(mode="ensemble-ucmr")),
        "mode 'ensemble-ucmr' requires query channel 'text-query'",
    ),
    "EmptyGold": (
        lambda _: evaluate_run({"q1": ["p1"]}, read_qrels(["q1\tp1\t0\n"]), ["mrr@10"]),
        "qrels contain no queries with relevant pages",
    ),
    "UnknownQueryInRun": (
        lambda _: evaluate_run({"q9": ["p1"]}, {"q1": frozenset({"p1"})}, ["mrr@10"]),
        "run contains query 'q9' absent from qrels",
    ),
    "MalformedRunLine": (
        lambda _: read_run(["q1\tp1\t1\t0\t0\t0\tucmr\n", "q1\tp2\ttwo\t0\t0\t0\tucmr\n"]),
        "run line 2: non-numeric rank or score",
    ),
    "UnknownMetric": (lambda _: parse_metric_spec("map@5"), "unknown metric spec 'map@5'"),
    "BadRange": (lambda _: histograms(0), "num_bins must be >= 1, got 0"),
    "BinMismatch": (lambda _: kl_divergence(*histograms(2, 3)), "histograms have different bin edges"),
    "EmptyInput": (
        lambda _: modality_divergence_report(make_index([[1.0]], [[1.0]]), []),
        "need at least one query",
    ),
}


def test_error_args_cover_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BaseException)}
    assert classes == {ComretError}
    assert "__reduce__" not in vars(ComretError)


@pytest.mark.parametrize("case", FAILURES)
def test_error_survives_pickle(case, tmp_path):
    """Every failure is a plain ComretError holding its message, which
    reaches a caller in another process whole."""
    trigger, message = FAILURES[case]
    message = message.replace("TMP", str(tmp_path))
    with pytest.raises(ComretError) as err:
        trigger(tmp_path)
    assert type(err.value) is ComretError and err.value.args == (message,)
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is ComretError and back.args == (message,)
