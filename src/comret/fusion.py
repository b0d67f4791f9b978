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

``score_queries`` is the one entry to scoring: given fusion mode names,
it checks the queries and sweeps each modality's matrix once per block of
QUERY_BLOCK queries (one matrix product), every modality of a block from
one queue of row blocks (``_kernels.inner_products``). Every fusion mode
and weight asked for blends and ranks from those same scores; diagnostics
pools them. ``rank_queries`` is the batch entry: per query and config, a
``Ranking`` of the top-k page rows and their score columns. ``retrieve``
ranks one query into ``RankedEntry`` objects.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import _kernels
from .core import MODE_SPECS, FusionConfig, ModeSpec, QueryRecord, RankedEntry, RankedResult
from .errors import ComretError
from .store import IndexDirectory

#: sigma at or below this is treated as a constant-score modality.
SIGMA_EPS = 1e-12

#: Queries per sweep: 32 columns share each upcast; 100k pages x 32 float64 scores is 26 MB.
QUERY_BLOCK = 32

RUN_COLUMNS = ("query_id", "page_id", "rank", "fused_score", "image_score", "text_score", "mode")


class ZScored(NamedTuple):
    values: np.ndarray
    mu: float
    sigma: float


def zscore_normalize(values: np.ndarray) -> ZScored:
    """Center and scale by the population mean and standard deviation
    (which divides by M, not M-1).

    If sigma is 0 within SIGMA_EPS the input carried no ranking
    information; the output is all zeros and sigma is recorded as 0.
    """
    x = np.asarray(values, dtype=np.float64)
    mu = float(x.mean())
    sigma = math.sqrt(float(np.mean((x - mu) ** 2)))
    if sigma <= SIGMA_EPS:
        return ZScored(np.zeros_like(x), mu, 0.0)
    return ZScored((x - mu) / sigma, mu, sigma)


def blend(text: np.ndarray, image: np.ndarray, weight: float) -> np.ndarray:
    """Weighted blend of two score channels: weight*text + (1-weight)*image."""
    if len(text) != len(image):
        raise ComretError(f"score lengths differ: {len(text)} vs {len(image)}")
    return weight * np.asarray(text, dtype=np.float64) + (1.0 - weight) * np.asarray(image, dtype=np.float64)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, best first, ties by ascending index.

    Equal to ``np.argsort(-scores, kind="stable")[:k]`` but sorts only the
    pages scoring at or above the k-th score. Scores are never NaN:
    ``score_queries`` refuses a raw score that is not finite.
    """
    k = min(k, len(scores))
    if k == 0:
        return np.arange(0)
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    # flatnonzero yields ascending indices, so the stable sort keeps ties
    # in ingestion order.
    candidates = np.flatnonzero(neg <= kth)
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


class QueryScores(NamedTuple):
    """One query's per-page scores: raw inner products for each modality
    swept, and the z-scored logistic of those the modes normalize."""

    query: QueryRecord
    raw: dict[str, np.ndarray]
    zscored: dict[str, ZScored]


def score_queries(
    index: IndexDirectory,
    queries: Sequence[QueryRecord],
    modes: Sequence[str],
    threads: int | None = None,
) -> Iterator[QueryScores]:
    """Per-page scores of every query, in input order, for the fusion modes
    ``modes``.

    ``MODE_SPECS`` says which modalities the modes sweep and which sweeps
    are squashed and z-scored. Each such modality is swept once per block
    of QUERY_BLOCK queries, with each query's ``vector_for_sweep`` vector,
    straight into the block's (queries, pages) scores. ``threads`` share
    the row blocks of all of a block's sweeps (None: every usable core); no
    score depends on their number. Before any sweep, each mode in turn
    checks that every query has the vectors it sweeps, then every channel
    of every query, swept or not, is checked against the index's dimension.
    After each block's sweep, a raw score that is not finite (a NaN or an
    infinity in the index or a query met it) raises one ComretError naming
    the query, the page and the modality.
    """
    for mode in dict.fromkeys(modes):
        _check_channels(queries, mode)
    specs = [MODE_SPECS[mode] for mode in modes]
    modalities = [m for m in ("image", "text") if any(m in s.modalities for s in specs)]
    normalized = [m for m in modalities if any(s.normalize and m in s.modalities for s in specs)]
    for query in queries:
        for channel, vec in query.channel_embs.items():
            if vec.shape != (index.dim,):
                where = f"query {query.query_id!r} channel {channel!r}"
                raise ComretError(f"{where}: expected dim {index.dim}, got {vec.shape[0]}")
    matrices = {"image": index.images.data, "text": index.texts.data}
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = queries[lo : lo + QUERY_BLOCK]
        sweeps = [
            (matrices[m], np.stack([q.vector_for_sweep(m) for q in block], axis=1, dtype=np.float64))
            for m in modalities
        ]
        raw = dict(zip(modalities, _kernels.inner_products(sweeps, threads)))
        for m, scores in raw.items():
            if not np.isfinite(scores).all():
                j, row = np.argwhere(~np.isfinite(scores))[0]
                raise ComretError(f"query {block[j].query_id!r}: {m} score of page {index.ids[row]!r} is not finite")
        squashed = {m: _kernels.logistic(raw[m]) for m in normalized}
        for j, query in enumerate(block):
            yield QueryScores(
                query,
                {m: scores[j] for m, scores in raw.items()},
                {m: zscore_normalize(scores[j]) for m, scores in squashed.items()},
            )
        del raw, squashed  # not alive while the next block is swept


def _check_channels(queries: Sequence[QueryRecord], mode: str) -> None:
    """Raise ComretError for the first query lacking a vector ``mode`` sweeps."""
    spec = MODE_SPECS[mode]
    for query in queries:
        for modality in spec.modalities:
            channel = f"{modality}-query"
            vec = query.channel(channel) if spec.strict else query.vector_for_sweep(modality)
            if vec is None:
                raise ComretError(f"mode {mode!r} requires query channel {channel!r}")


class Ranking(NamedTuple):
    """One query's top k under one config: the page rows, best first, and
    the fused, image and text scores at them.

    The image and text columns carry raw scores for the raw modes and
    z-scored values for the normalized modes; a modality the mode never
    scores is 0.0.
    """

    query_id: str
    rows: np.ndarray
    fused: np.ndarray
    image: np.ndarray
    text: np.ndarray

    def entries(self, ids: Sequence[str]) -> Iterator[tuple[int, str, float, float, float]]:
        """(rank, page id, fused, image, text) per row, as Python values."""
        columns = zip(self.rows.tolist(), self.fused.tolist(), self.image.tolist(), self.text.tolist())
        for rank, (row, fused, image, text) in enumerate(columns, start=1):
            yield rank, ids[row], fused, image, text


def rank_queries(
    index: IndexDirectory,
    queries: Sequence[QueryRecord],
    cfgs: Sequence[FusionConfig],
    threads: int | None = None,
) -> Iterator[tuple[Ranking, ...]]:
    """Rank every query under every config; yields, per query in input
    order, one ``Ranking`` per config. This is the batch entry: page ids
    are ``index.ids[row]``, and ``write_run`` writes rankings as a run.

    The modalities the configs need are swept once per block of queries
    and shared (``score_queries``): each config only blends and ranks.
    ``MODE_SPECS`` says which weight blends text with image; a
    single-modality mode ranks its one sweep as is.
    """
    specs = [MODE_SPECS[cfg.mode] for cfg in cfgs]
    for scores in score_queries(index, queries, [cfg.mode for cfg in cfgs], threads):
        yield tuple(_rank(scores, cfg, spec) for cfg, spec in zip(cfgs, specs))


def _rank(scores: QueryScores, cfg: FusionConfig, spec: ModeSpec) -> Ranking:
    """Blend (or pass through) one query's channels and take the top k."""
    channels = {m: scores.zscored[m].values if spec.normalize else scores.raw[m] for m in spec.modalities}
    if spec.weight is None:
        (fused,) = channels.values()
    else:
        fused = blend(channels["text"], channels["image"], getattr(cfg, spec.weight))
    rows = _top_k(fused, cfg.top_k)
    image, text = (channels[m][rows] if m in channels else np.zeros(len(rows)) for m in ("image", "text"))
    return Ranking(scores.query.query_id, rows, fused[rows], image, text)


def retrieve(query: QueryRecord, index: IndexDirectory, cfg: FusionConfig) -> RankedResult:
    """Score, fuse and rank one query against the index (see ``rank_queries``)."""
    ((ranking,),) = rank_queries(index, [query], [cfg])
    return RankedResult(ranking.query_id, tuple(RankedEntry(*e) for e in ranking.entries(index.ids)))


def write_run(rankings: Iterable[Ranking], ids: Sequence[str], mode: str, fh: TextIO) -> None:
    """Write run lines as TSV, page ids ``ids[row]``, scores printed with 9
    significant digits."""
    for ranking in rankings:
        for rank, page_id, fused, image, text in ranking.entries(ids):
            fh.write(f"{ranking.query_id}\t{page_id}\t{rank}\t{fused:.9g}\t{image:.9g}\t{text:.9g}\t{mode}\n")


def read_run(lines: Iterable[str]) -> dict[str, list[str]]:
    """Parse a run file into query_id -> page ids ordered by rank; a run
    without a line is refused."""
    per_query: dict[str, list[tuple[int, str]]] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(RUN_COLUMNS):
            raise ComretError(f"run line {line_no}: expected {len(RUN_COLUMNS)} columns, got {len(parts)}")
        query_id, page_id, rank_s = parts[0], parts[1], parts[2]
        try:
            rank = int(rank_s)
            for score in parts[3:6]:
                float(score)
        except ValueError:
            raise ComretError(f"run line {line_no}: non-numeric rank or score")
        if rank < 1:
            raise ComretError(f"run line {line_no}: rank must be >= 1, got {rank}")
        per_query.setdefault(query_id, []).append((rank, page_id))
    if not per_query:
        raise ComretError("run file is empty")
    return {qid: [pid for _, pid in sorted(entries)] for qid, entries in per_query.items()}
