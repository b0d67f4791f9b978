"""Distribution diagnostics for the two normalized score channels.

Pools z-scored image-channel and text-channel similarity values over all
(query, page) pairs, bins both over a shared range, and reports their KL
divergence in nats. Well-aligned modalities produce nearly identical
pooled distributions and a KL close to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import QueryRecord
from .errors import BadRange, BinMismatch, EmptyInput, MissingChannel
from .fusion import population_mean_std, score_queries
from .store import IndexDirectory

#: Additive mass per bin before normalization; keeps every bin positive so
#: KL stays finite.
SMOOTHING_EPS = 1e-9

DEFAULT_BINS = 50


def score_stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, population std, min, max) of a non-empty value array."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise EmptyInput("score_stats needs at least one value")
    mu, sigma = population_mean_std(x)
    return mu, sigma, float(x.min()), float(x.max())


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins with smoothed densities summing to 1."""

    bin_edges: np.ndarray  # B+1 ascending
    densities: np.ndarray  # B positive, sum 1


def build_histogram(values: np.ndarray, num_bins: int, value_range: tuple[float, float]) -> Histogram:
    """Histogram over equal-width bins, out-of-range values clamped to the
    end bins, counts epsilon-smoothed and normalized to densities."""
    if num_bins < 1:
        raise BadRange(f"num_bins must be >= 1, got {num_bins}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise BadRange(f"invalid range [{lo}, {hi}]")
    x = np.asarray(values, dtype=np.float64)
    width = (hi - lo) / num_bins
    idx = np.floor((x - lo) / width).astype(np.int64)
    np.clip(idx, 0, num_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=num_bins).astype(np.float64)
    smoothed = counts + SMOOTHING_EPS
    edges = lo + width * np.arange(num_bins + 1, dtype=np.float64)
    edges[-1] = hi
    return Histogram(bin_edges=edges, densities=smoothed / smoothed.sum())


def kl_divergence(p: Histogram, q: Histogram) -> float:
    """KL(p || q) in nats; requires identical bin edges."""
    if p.bin_edges.shape != q.bin_edges.shape or not np.array_equal(p.bin_edges, q.bin_edges):
        raise BinMismatch("histograms have different bin edges")
    return float(np.sum(p.densities * np.log(p.densities / q.densities)))


@dataclass(frozen=True)
class DivergenceReport:
    image_hist: Histogram
    text_hist: Histogram
    kl_nats: float
    image_stats: tuple[float, float, float, float]
    text_stats: tuple[float, float, float, float]
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
        keys = ("mean", "std", "min", "max")
        return {
            "kl_nats": self.kl_nats,
            "bins": len(self.image_hist.densities),
            "samples_per_modality": self.samples_per_modality,
            "sim_i": dict(zip(keys, self.image_stats)),
            "sim_t": dict(zip(keys, self.text_stats)),
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

    Both modalities are swept once per block of queries (``score_queries``);
    ``threads`` split each sweep's page rows (None: every usable core).
    """
    if not queries:
        raise EmptyInput("need at least one query")
    if num_bins < 1:
        raise BadRange(f"num_bins must be >= 1, got {num_bins}")

    for query in queries:
        if query.vector_for_sweep("image") is None or query.vector_for_sweep("text") is None:
            raise MissingChannel("diagnostics", "image-query or text-query")
    both = ("image", "text")
    per_query = [
        (s.query.query_id, s.zscored["image"], s.zscored["text"])
        for s in score_queries(index, queries, both, both, threads)
    ]
    per_query.sort(key=lambda item: item[0])

    pooled_i = np.concatenate([z_i.values for _, z_i, _ in per_query])
    pooled_t = np.concatenate([z_t.values for _, _, z_t in per_query])
    flags = []
    for qid, z_i, z_t in per_query:
        if z_i.sigma == 0.0:
            flags.append((qid, "image"))
        if z_t.sigma == 0.0:
            flags.append((qid, "text"))

    lo = float(min(pooled_i.min(), pooled_t.min()))
    hi = float(max(pooled_i.max(), pooled_t.max()))
    if lo == hi:
        # Degenerate pools (e.g. every sigma is 0): widen so binning works.
        lo, hi = lo - 0.5, hi + 0.5

    hist_i = build_histogram(pooled_i, num_bins, (lo, hi))
    hist_t = build_histogram(pooled_t, num_bins, (lo, hi))
    return DivergenceReport(
        image_hist=hist_i,
        text_hist=hist_t,
        kl_nats=kl_divergence(hist_i, hist_t),
        image_stats=score_stats(pooled_i),
        text_stats=score_stats(pooled_t),
        samples_per_modality=int(pooled_i.size),
        sigma_zero=tuple(flags),
    )
