"""Online retrieval: per-modality scoring, normalization, fusion, ranking.

Raw relevance is the inner product between the query vector and each
page's modality embedding. The normalized fusion path squashes raw scores
through a logistic into (0, 1), z-scores them per query per modality with
population statistics over the M pages, and blends the two modalities
with weight ``beta`` on text. The raw path blends unnormalized inner
products with weight ``alpha`` on text.

A constant-score modality (sigma == 0) z-scores to all zeros, so it
contributes nothing to the blend and leaves the other modality's ranking
intact. All statistics are computed per query on the fly; the extra cost
over single-modality retrieval is one more O(M*d) sweep.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import _kernels
from .core import MODE_SPECS, FusionConfig, ModeSpec, QueryRecord, RankedEntry, RankedResult
from .errors import DimMismatch, LengthMismatch, MalformedRunLine, MissingChannel
from .store import IndexDirectory, PackedMatrix

#: sigma at or below this is treated as a constant-score modality.
SIGMA_EPS = 1e-12

RUN_COLUMNS = ("query_id", "page_id", "rank", "fused_score", "image_score", "text_score", "mode")


def inner_product_scores(query: np.ndarray, matrix: PackedMatrix) -> np.ndarray:
    """Raw scores: one float64-accumulated inner product per page."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (matrix.dim,):
        raise DimMismatch(matrix.dim, q.shape[0] if q.ndim == 1 else -1, where="query")
    return _kernels.inner_products(matrix.data, q)


def sigmoid_normalize(raw: np.ndarray) -> np.ndarray:
    """Squash raw scores into (0, 1) with the logistic function."""
    return _kernels.logistic(np.asarray(raw, dtype=np.float64))


class ZScored(NamedTuple):
    values: np.ndarray
    mu: float
    sigma: float


def population_mean_std(x: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation (divides by M, not M-1)."""
    mu = float(x.mean())
    return mu, math.sqrt(float(np.mean((x - mu) ** 2)))


def zscore_normalize(values: np.ndarray) -> ZScored:
    """Center and scale by the population mean and standard deviation.

    If sigma is 0 within SIGMA_EPS the input carried no ranking
    information; the output is all zeros and sigma is recorded as 0.
    """
    x = np.asarray(values, dtype=np.float64)
    mu, sigma = population_mean_std(x)
    if sigma <= SIGMA_EPS:
        return ZScored(np.zeros_like(x), mu, 0.0)
    return ZScored((x - mu) / sigma, mu, sigma)


def modality_scores(query: np.ndarray, matrix: PackedMatrix) -> ZScored:
    """Full raw -> sigmoid -> z-score pipeline for one modality."""
    return zscore_normalize(sigmoid_normalize(inner_product_scores(query, matrix)))


def blend(text: np.ndarray, image: np.ndarray, weight: float) -> np.ndarray:
    """Weighted blend of two score channels: weight*text + (1-weight)*image."""
    if len(text) != len(image):
        raise LengthMismatch(len(text), len(image))
    return weight * np.asarray(text, dtype=np.float64) + (1.0 - weight) * np.asarray(image, dtype=np.float64)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, best first, ties by ascending index.

    Equal to ``np.argsort(-scores, kind="stable")[:k]`` but sorts only the
    pages scoring at or above the k-th score. Scores are never NaN: every
    stored and query vector is validated finite.
    """
    k = min(k, len(scores))
    if k == 0:  # an index file may hold zero pages
        return np.arange(0)
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    # flatnonzero yields ascending indices, so the stable sort keeps ties
    # in ingestion order.
    candidates = np.flatnonzero(neg <= kth)
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def _sweep(query: QueryRecord, index: IndexDirectory, modality: str, spec: ModeSpec, mode: str) -> np.ndarray:
    """One modality's per-page scores for ``query`` under ``spec``."""
    channel = f"{modality}-query"
    vec = query.channel(channel) if spec.strict else query.vector_for_sweep(modality)
    if vec is None:
        raise MissingChannel(mode, channel)
    matrix = index.images if modality == "image" else index.texts
    return modality_scores(vec, matrix).values if spec.normalize else inner_product_scores(vec, matrix)


def retrieve(query: QueryRecord, index: IndexDirectory, cfg: FusionConfig) -> RankedResult:
    """Score, fuse and rank one query against the index.

    ``MODE_SPECS[cfg.mode]`` says which modalities are swept, whether each
    sweep is squashed and z-scored, and which weight blends text with
    image; a single-modality mode ranks its one sweep as is.

    The per-entry breakdown carries raw scores for the raw modes and
    z-scored values for the normalized modes; a modality the mode never
    scores is reported as 0.0.
    """
    spec = MODE_SPECS[cfg.mode]
    scores = {m: _sweep(query, index, m, spec, cfg.mode) for m in spec.modalities}
    if spec.weight is None:
        (fused,) = scores.values()
        zeros = np.zeros_like(fused)
        scores = {"image": zeros, "text": zeros, **scores}
    else:
        fused = blend(scores["text"], scores["image"], getattr(cfg, spec.weight))
    image_col, text_col = scores["image"], scores["text"]

    order = _top_k(fused, cfg.top_k)
    entries = tuple(
        RankedEntry(
            rank=rank,
            page_id=index.ids[i],
            fused_score=float(fused[i]),
            image_score=float(image_col[i]),
            text_score=float(text_col[i]),
        )
        for rank, i in enumerate(order, start=1)
    )
    return RankedResult(query_id=query.query_id, entries=entries)


def run_queries(
    index: IndexDirectory,
    queries: Sequence[QueryRecord],
    cfg: FusionConfig,
    threads: int = 1,
) -> list[RankedResult]:
    """Retrieve every query, in parallel if asked, output sorted by query_id."""
    if threads > 1 and len(queries) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda q: retrieve(q, index, cfg), queries))
    else:
        results = [retrieve(q, index, cfg) for q in queries]
    results.sort(key=lambda r: r.query_id)
    return results


def write_run(results: Iterable[RankedResult], mode: str, fh: TextIO) -> None:
    """Write run lines as TSV, scores printed with 9 significant digits."""
    for result in results:
        for e in result.entries:
            fh.write(
                f"{result.query_id}\t{e.page_id}\t{e.rank}\t"
                f"{e.fused_score:.9g}\t{e.image_score:.9g}\t{e.text_score:.9g}\t{mode}\n"
            )


def read_run(lines: Iterable[str]) -> dict[str, list[str]]:
    """Parse a run file into query_id -> page_ids ordered by rank."""
    per_query: dict[str, list[tuple[int, str]]] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(RUN_COLUMNS):
            raise MalformedRunLine(line_no, f"expected {len(RUN_COLUMNS)} columns, got {len(parts)}")
        query_id, page_id, rank_s = parts[0], parts[1], parts[2]
        try:
            rank = int(rank_s)
            for score in parts[3:6]:
                float(score)
        except ValueError:
            raise MalformedRunLine(line_no, "non-numeric rank or score")
        if rank < 1:
            raise MalformedRunLine(line_no, f"rank must be >= 1, got {rank}")
        per_query.setdefault(query_id, []).append((rank, page_id))
    return {qid: [pid for _, pid in sorted(entries)] for qid, entries in per_query.items()}
