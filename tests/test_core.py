import pickle

import numpy as np
import pytest

from comret import errors
from comret.core import FusionConfig, QueryRecord
from comret.errors import ComretError


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


#: Constructor arguments for every error class.
ERROR_ARGS = {
    errors.ComretError: ("cannot read x",),
    errors.MalformedLine: (3, "invalid JSON"),
    errors.DimMismatch: (4, 3, "query 'q1' channel 'text-query'"),
    errors.NonFiniteValue: ("line 2",),
    errors.DuplicateId: ("p1",),
    errors.IdSetMismatch: ([f"p{i}" for i in range(7)],),
    errors.ZeroVectorOnNormalize: ("p1",),
    errors.BadMagic: ("bad magic b'XXXX'",),
    errors.UnsupportedVersion: (9,),
    errors.TruncatedFile: ("file ended while reading header",),
    errors.LengthMismatch: (2, 3),
    errors.MissingChannel: ("ensemble-ucmr", "text-query"),
    errors.EmptyGold: ("q1 has no relevant pages",),
    errors.UnknownQueryInRun: ("q9",),
    errors.MalformedRunLine: (5, "non-numeric rank or score"),
    errors.UnknownMetric: ("map@5",),
    errors.BadRange: ("num_bins must be >= 1, got 0",),
    errors.BinMismatch: ("histograms have different bin edges",),
    errors.EmptyInput: ("need at least one query",),
}


def test_error_args_cover_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, ComretError)}
    assert classes == set(ERROR_ARGS)


@pytest.mark.parametrize("cls", ERROR_ARGS, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    """An error raised in a worker process reaches the caller whole."""
    exc = cls(*ERROR_ARGS[cls])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))
