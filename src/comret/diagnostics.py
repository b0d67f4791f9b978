"""Distribution diagnostics for the two normalized score channels.

Pools the z-scored image-channel and text-channel similarity values of
``ucmr`` over all (query, page) pairs, bins both over a shared range, and
reports their KL divergence in nats. Well-aligned modalities produce
nearly identical pooled distributions and a KL close to zero.

The scores come from ``fusion.score_queries``, as retrieval's do. Each
channel is z-scored per query, so its pool has mean 0 and a standard
deviation fixed by the share of sigma-zero queries; the report gives
each pool's range instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import QueryRecord
from .errors import ComretError
from .fusion import score_queries
from .store import IndexDirectory

#: Additive mass per bin before normalization; keeps every bin positive so
#: KL stays finite.
SMOOTHING_EPS = 1e-9

DEFAULT_BINS = 50

#: Most bins a histogram may have; each costs an int64 count and a float64 edge.
MAX_BINS = 1_000_000

#: Values binned at a time, so binning's temporaries stay small beside a pool.
BIN_CHUNK = 65536


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins with smoothed densities summing to 1."""

    bin_edges: np.ndarray  # B+1 ascending
    densities: np.ndarray  # B positive, sum 1


def _check_bins(num_bins: int) -> None:
    if num_bins < 1:
        raise ComretError(f"num_bins must be >= 1, got {num_bins}")
    if num_bins > MAX_BINS:
        raise ComretError(f"num_bins must be <= {MAX_BINS}, got {num_bins}")


def build_histogram(values: np.ndarray, num_bins: int, value_range: tuple[float, float]) -> Histogram:
    """Histogram over equal-width bins, out-of-range values clamped to the
    end bins, counts epsilon-smoothed and normalized to densities."""
    _check_bins(num_bins)
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise ComretError(f"invalid range [{lo}, {hi}]")
    x = np.asarray(values, dtype=np.float64)
    width = (hi - lo) / num_bins
    counts = np.zeros(num_bins, dtype=np.int64)
    for start in range(0, x.size, BIN_CHUNK):
        idx = np.floor((x[start : start + BIN_CHUNK] - lo) / width).astype(np.int64)
        np.clip(idx, 0, num_bins - 1, out=idx)
        counts += np.bincount(idx, minlength=num_bins)
    smoothed = counts + SMOOTHING_EPS
    edges = lo + width * np.arange(num_bins + 1, dtype=np.float64)
    edges[-1] = hi
    return Histogram(bin_edges=edges, densities=smoothed / smoothed.sum())


def kl_divergence(p: Histogram, q: Histogram) -> float:
    """KL(p || q) in nats; requires identical bin edges."""
    if p.bin_edges.shape != q.bin_edges.shape or not np.array_equal(p.bin_edges, q.bin_edges):
        raise ComretError("histograms have different bin edges")
    return float(np.sum(p.densities * np.log(p.densities / q.densities)))


@dataclass(frozen=True)
class DivergenceReport:
    image_hist: Histogram
    text_hist: Histogram
    kl_nats: float
    image_range: tuple[float, float]  # (min, max) of the pooled z-scores
    text_range: tuple[float, float]
    samples_per_modality: int
    sigma_zero: tuple[tuple[str, str], ...]  # (query_id, modality)

    def write_csv(self, fh: TextIO) -> None:
        fh.write("bin_left,bin_right,density_sim_i,density_sim_t\n")
        edges = self.image_hist.bin_edges
        for b in range(len(edges) - 1):
            fh.write(
                f"{edges[b]:.9g},{edges[b + 1]:.9g},"
                f"{self.image_hist.densities[b]:.9g},{self.text_hist.densities[b]:.9g}\n"
            )

    def summary(self) -> dict:
        keys = ("min", "max")
        return {
            "kl_nats": self.kl_nats,
            "bins": len(self.image_hist.densities),
            "samples_per_modality": self.samples_per_modality,
            "sim_i": dict(zip(keys, self.image_range)),
            "sim_t": dict(zip(keys, self.text_range)),
            "sigma_zero": [{"query_id": qid, "modality": mod} for qid, mod in self.sigma_zero],
        }

    def write_summary(self, fh: TextIO) -> None:
        json.dump(self.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def modality_divergence_report(
    index: IndexDirectory,
    queries: Sequence[QueryRecord],
    num_bins: int = DEFAULT_BINS,
    threads: int | None = None,
) -> DivergenceReport:
    """Pool per-(query, page) z-scored scores for both modalities and
    compare their empirical distributions.

    The channels and query vectors are those ``ucmr`` blends, checked and
    swept once per block of queries by ``score_queries``; ``threads``
    share each sweep's row blocks (None: every usable core). Sigma-zero
    flags are listed by query id, image before text.
    """
    if not queries:
        raise ComretError("need at least one query")
    _check_bins(num_bins)

    # One (Q, M) pool per modality, filled row by row as queries are scored.
    pools = {m: np.empty((len(queries), index.page_count)) for m in ("image", "text")}
    flags = []
    for row, scores in enumerate(score_queries(index, queries, ["ucmr"], threads)):
        for m, pool in pools.items():
            zscored = scores.zscored[m]
            pool[row] = zscored.values
            if zscored.sigma == 0.0:
                flags.append((scores.query.query_id, m))
    flags.sort(key=lambda flag: flag[0])

    pooled_i, pooled_t = pools["image"].ravel(), pools["text"].ravel()
    image_range = float(pooled_i.min()), float(pooled_i.max())
    text_range = float(pooled_t.min()), float(pooled_t.max())
    lo, hi = min(image_range[0], text_range[0]), max(image_range[1], text_range[1])
    if lo == hi:
        # Degenerate pools (e.g. every sigma is 0): widen so binning works.
        lo, hi = lo - 0.5, hi + 0.5

    hist_i = build_histogram(pooled_i, num_bins, (lo, hi))
    hist_t = build_histogram(pooled_t, num_bins, (lo, hi))
    return DivergenceReport(
        image_hist=hist_i,
        text_hist=hist_t,
        kl_nats=kl_divergence(hist_i, hist_t),
        image_range=image_range,
        text_range=text_range,
        samples_per_modality=int(pooled_i.size),
        sigma_zero=tuple(flags),
    )
