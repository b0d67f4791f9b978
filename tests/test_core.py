import numpy as np
import pytest

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
