import warnings

import numpy as np
import pytest

from comret.core import FusionConfig, QueryRecord, as_embedding
from comret.errors import ComretError, NonFiniteValue


class TestAsEmbedding:
    def test_returns_readonly_float32(self):
        emb = as_embedding([1.0, 2.0, 3.0])
        assert emb.dtype == np.float32
        assert not emb.flags.writeable

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            as_embedding([1.0, float("nan")])

    @pytest.mark.parametrize("value", [10**400, 1e39, float("inf")])
    def test_rejects_values_beyond_float32_without_a_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                as_embedding([value, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ComretError):
            as_embedding([])


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
        img = as_embedding([1.0, 0.0])
        txt = as_embedding([0.0, 1.0])
        q = QueryRecord("q1", "", {"image-query": img, "text-query": txt})
        assert q.vector_for_sweep("image") is img
        assert q.vector_for_sweep("text") is txt

    def test_sweep_vector_falls_back_to_shared_embedding(self):
        vec = as_embedding([1.0, 0.0])
        q = QueryRecord("q1", "", {"image-query": vec})
        assert q.vector_for_sweep("text") is vec

    def test_missing_channels_return_none(self):
        q = QueryRecord("q1", "", {})
        assert q.vector_for_sweep("image") is None
