"""Reference answers, computed without the package.

Scores are a float64 brute-force product over the regenerated page rows,
chunk by chunk. Ranking is a stable descending sort, so ties go to the
page ingested first. Exact-duplicate pages are given their source page's
score, because the two rows are equal and only summation noise in the
reference product could tell them apart.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Plan

#: Tolerance for scores the program returns as floats (API results and
#: JSON), and for scores printed with 9 significant digits (run files).
SCORE_ATOL, SCORE_RTOL = 1e-9, 1e-9
PRINTED_ATOL, PRINTED_RTOL = 1e-9, 1e-7

SIGMA_EPS = 1e-12


def raw_scores(plan: Plan, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(queries, pages) float64 image and text inner products."""
    q = np.asarray(queries, dtype=np.float64).T
    raw_i = np.empty((q.shape[1], plan.shape.pages))
    raw_t = np.empty_like(raw_i)
    for lo, img, txt in plan.chunks():
        raw_i[:, lo : lo + len(img)] = (img.astype(np.float64) @ q).T
        raw_t[:, lo : lo + len(txt)] = (txt.astype(np.float64) @ q).T
    for dst, src in plan.dups.items():
        raw_i[:, dst] = raw_i[:, src]
        raw_t[:, dst] = raw_t[:, src]
    return raw_i, raw_t


def normalized(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm in float64, returned as float32."""
    m = rows.astype(np.float64)
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def zscored(raw: np.ndarray) -> np.ndarray:
    """Logistic squash, then population z-score (zeros if constant)."""
    s = 1.0 / (1.0 + np.exp(-raw))
    mu = s.mean()
    sigma = math.sqrt(float(np.mean((s - mu) ** 2)))
    return np.zeros_like(s) if sigma <= SIGMA_EPS else (s - mu) / sigma


def fused(mode: str, raw_i: np.ndarray, raw_t: np.ndarray, alpha: float = 0.5, beta: float = 0.1):
    """(fused, image column, text column) for one query, as the run reports them."""
    if mode == "image-only":
        return raw_i, raw_i, np.zeros_like(raw_i)
    if mode == "raw-linear":
        return alpha * raw_t + (1 - alpha) * raw_i, raw_i, raw_t
    if mode == "ucmr":
        z_i, z_t = zscored(raw_i), zscored(raw_t)
        return beta * z_t + (1 - beta) * z_i, z_i, z_t
    raise ValueError(f"no reference for mode {mode!r}")


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-scores, kind="stable")[:k]


def ranking(mode: str, raw_i: np.ndarray, raw_t: np.ndarray, k: int, beta: float = 0.1):
    """[(page index, fused, image, text)] for the top k."""
    f, i_col, t_col = fused(mode, raw_i, raw_t, beta=beta)
    return [(int(p), float(f[p]), float(i_col[p]), float(t_col[p])) for p in top_k(f, k)]


def close(got: float, want: float, atol: float = SCORE_ATOL, rtol: float = SCORE_RTOL) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


# --- metrics ---------------------------------------------------------------


def recall(ranked, gold, k):
    return len(set(ranked[:k]) & gold) / len(gold)


def mrr(ranked, gold, k):
    return next((1.0 / r for r, p in enumerate(ranked[:k], start=1) if p in gold), 0.0)


def ndcg(ranked, gold, k):
    dcg = sum(1.0 / math.log2(r + 1) for r, p in enumerate(ranked[:k], start=1) if p in gold)
    return dcg / sum(1.0 / math.log2(r + 1) for r in range(1, len(gold) + 1))


METRICS = {"recall": recall, "mrr": mrr, "ndcg": ndcg}


def macro(run: dict[str, list[str]], qrels: dict[str, set[str]], spec: str) -> float:
    """Mean of one "name@k" metric over the qrels queries (missing ones score 0)."""
    name, k = spec.split("@")
    values = [METRICS[name](run[q], qrels[q], int(k)) if q in run else 0.0 for q in sorted(qrels)]
    return sum(values) / len(values)


# --- distribution diagnostics ---------------------------------------------


def kl_nats(pooled_i: np.ndarray, pooled_t: np.ndarray, bins: int, eps: float = 1e-9) -> float:
    """KL(image || text) of equal-width histograms over the pooled range,
    out-of-range values clamped, each bin smoothed by ``eps`` mass."""
    lo = min(pooled_i.min(), pooled_t.min())
    hi = max(pooled_i.max(), pooled_t.max())
    width = (hi - lo) / bins

    def density(x):
        idx = np.clip(np.floor((x - lo) / width).astype(np.int64), 0, bins - 1)
        counts = np.bincount(idx, minlength=bins) + eps
        return counts / counts.sum()

    p, q = density(pooled_i), density(pooled_t)
    return float(np.sum(p * np.log(p / q)))
