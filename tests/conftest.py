from __future__ import annotations

import json
import os

import numpy as np
import pytest

from comret import _kernels
from comret.core import QueryRecord
from comret.store import IndexDirectory, build_index


def make_index(image_rows, text_rows, ids=None, normalize=False) -> IndexDirectory:
    """Index from plain nested lists; ids default to p1..pN."""
    ids = ids or [f"p{i + 1}" for i in range(len(image_rows))]
    images = [(pid, np.asarray(row, dtype=np.float32)) for pid, row in zip(ids, image_rows)]
    texts = [(pid, np.asarray(row, dtype=np.float32)) for pid, row in zip(ids, text_rows)]
    return build_index(images, texts, normalize=normalize)


def make_query(query_id, image_vec=None, text_vec=None) -> QueryRecord:
    channels = {}
    if image_vec is not None:
        channels["image-query"] = np.asarray(image_vec, dtype=np.float32)
    if text_vec is not None:
        channels["text-query"] = np.asarray(text_vec, dtype=np.float32)
    return QueryRecord(query_id=query_id, channel_embs=channels)


def unified_query(query_id, vec) -> QueryRecord:
    return make_query(query_id, image_vec=vec, text_vec=vec)


def random_index(rng, pages, dim) -> IndexDirectory:
    return make_index(
        rng.standard_normal((pages, dim)).tolist(),
        rng.standard_normal((pages, dim)).tolist(),
    )


def page_ids(result) -> tuple[str, ...]:
    """The page ids of a ``RankedResult``, best first."""
    return tuple(e.page_id for e in result.entries)


def same_rankings(got, want) -> bool:
    """Field-by-field equality of two sequences of ``fusion.Ranking``
    (``==`` on a tuple of arrays has no single truth value)."""
    return len(got) == len(want) and all(
        a.query_id == b.query_id and all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
        for a, b in zip(got, want)
    )


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Three usable cores; lists the worker count of every sweep's block
    queue, the calling thread included."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    sizes, on_workers = [], _kernels._on_workers

    def spy(work, workers):
        sizes.append(workers)
        on_workers(work, workers)

    monkeypatch.setattr(_kernels, "_on_workers", spy)
    return sizes
