"""Independent naive reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and the
math module (no NumPy vectorization, no imports from comret's scoring
paths) so it cannot share a bug with the code under test.
"""

from __future__ import annotations

import math

from comret.core import RankedEntry, RankedResult

# Contract bounds for the logistic squash: smallest normal double, largest
# double below 1.
SIGMOID_FLOOR = 2.2250738585072014e-308
SIGMOID_CEIL = 0.9999999999999999

SIGMA_EPS = 1e-12


def inner(query, row):
    total = 0.0
    for a, b in zip(query, row):
        total += float(a) * float(b)
    return total


def sigmoid(z):
    try:
        v = 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # exp(+huge)
        v = 0.0
    return min(max(v, SIGMOID_FLOOR), SIGMOID_CEIL)


def zscore(values):
    m = len(values)
    mu = sum(values) / m
    sigma = math.sqrt(sum((v - mu) ** 2 for v in values) / m)
    if sigma <= SIGMA_EPS:
        return [0.0] * m, mu, 0.0
    return [(v - mu) / sigma for v in values], mu, sigma


def normalized_fusion_ranking(query_img, query_txt, image_rows, text_rows, beta):
    """Full sigmoid -> z-score -> blend pipeline plus a stable full sort.

    Returns (ordered_indices, fused_scores_in_page_order).
    """
    raw_i = [inner(query_img, row) for row in image_rows]
    raw_t = [inner(query_txt, row) for row in text_rows]
    zt_i, _, _ = zscore([sigmoid(z) for z in raw_i])
    zt_t, _, _ = zscore([sigmoid(z) for z in raw_t])
    fused = [beta * t + (1.0 - beta) * i for t, i in zip(zt_t, zt_i)]
    order = sorted(range(len(fused)), key=lambda idx: (-fused[idx], idx))
    return order, fused


def raw_ranking(scores):
    return sorted(range(len(scores)), key=lambda idx: (-scores[idx], idx))


#: mode -> (modalities ranked, z-scored or raw, FusionConfig field weighting text).
RANK_MODES = {
    "image-only": (("image",), False, None),
    "text-only": (("text",), False, None),
    "raw-linear": (("image", "text"), False, "alpha"),
    "ucmr": (("image", "text"), True, "beta"),
    "ensemble-ucmr": (("image", "text"), True, "beta"),
}


def ranked_result(scores, ids, cfg):
    """Entry-based ranking of one query's ``fusion.QueryScores``: blend
    page by page, sort every page stably, build ``top_k`` entries. A
    modality the mode never scores is reported as 0.0."""
    modalities, zscored, weight = RANK_MODES[cfg.mode]
    channels = {m: (scores.zscored[m].values if zscored else scores.raw[m]).tolist() for m in modalities}
    if weight is None:
        (fused,) = channels.values()
    else:
        w = getattr(cfg, weight)
        fused = [w * t + (1.0 - w) * i for i, t in zip(channels["image"], channels["text"])]
    zeros = [0.0] * len(fused)
    image, text = channels.get("image", zeros), channels.get("text", zeros)
    entries = tuple(
        RankedEntry(rank, ids[i], fused[i], image[i], text[i])
        for rank, i in enumerate(raw_ranking(fused)[: cfg.top_k], start=1)
    )
    return RankedResult(scores.query.query_id, entries)


def write_run(results, mode, fh):
    """Run lines of ``RankedResult`` objects, scores with 9 significant digits."""
    for result in results:
        for e in result.entries:
            fh.write(
                f"{result.query_id}\t{e.page_id}\t{e.rank}\t"
                f"{e.fused_score:.9g}\t{e.image_score:.9g}\t{e.text_score:.9g}\t{mode}\n"
            )


def recall_at_k(ranked, gold, k):
    hits = 0
    seen = set()
    for pid in ranked[:k]:
        if pid in gold and pid not in seen:
            hits += 1
        seen.add(pid)
    return hits / len(gold)


def mrr_at_k(ranked, gold, k):
    for rank, pid in enumerate(ranked[:k], start=1):
        if pid in gold:
            return 1.0 / rank
    return 0.0


def ndcg_at_k(ranked, gold, k):
    # Ideal gain over all |gold| relevant pages, not truncated at k.
    dcg = 0.0
    seen = set()
    for rank, pid in enumerate(ranked[:k], start=1):
        if pid in gold and pid not in seen:
            dcg += 1.0 / math.log2(rank + 1)
        seen.add(pid)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, len(gold) + 1))
    return dcg / ideal


def metrics_without_repeats(ranked, gold, k):
    """recall, hit, MRR and nDCG at k of a ranking that may list a page
    more than once: every listing after a page's first is dropped, then
    the ranking is cut at k."""
    distinct = []
    for pid in ranked:
        if pid not in distinct:
            distinct.append(pid)
    return {
        "recall": recall_at_k(distinct, gold, k),
        "hit": 1.0 if any(pid in gold for pid in distinct[:k]) else 0.0,
        "mrr": mrr_at_k(distinct, gold, k),
        "ndcg": ndcg_at_k(distinct, gold, k),
    }


def softplus(a):
    # max(a, 0) + log1p(exp(-|a|)) is stable for any a
    return max(a, 0.0) + math.log1p(math.exp(-abs(a)))


def pair_loss_double_loop(query_embs, cand_embs, tau, eta):
    """Literal double-loop pairwise sigmoid loss with exact summation."""
    b = len(query_embs)
    terms = []
    for i in range(b):
        for j in range(b):
            z = inner(query_embs[i], cand_embs[j])
            gamma = 1.0 if i == j else -1.0
            terms.append(softplus(gamma * (-tau * z + eta)))
    return math.fsum(terms) / b


def kl_nats(p, q):
    total = 0.0
    for pb, qb in zip(p, q):
        total += pb * math.log(pb / qb)
    return total


def central_differences(fn, x0, eps=1e-5):
    """Central finite-difference gradient of a scalar function of a flat
    list of floats."""
    grad = []
    for idx in range(len(x0)):
        hi = list(x0)
        lo = list(x0)
        hi[idx] += eps
        lo[idx] -= eps
        grad.append((fn(hi) - fn(lo)) / (2.0 * eps))
    return grad
