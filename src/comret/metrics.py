"""Retrieval quality metrics over run files and gold qrels.

Relevance is binary. recall@k is the fraction of a query's gold pages
found in the top k (the stricter multi-gold reading); hit@k is the
any-hit variant and equals recall@k whenever a query has a single gold
page. nDCG uses the log2(rank+1) discount. Macro averages are plain
arithmetic means over queries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import ComretError

Qrels = dict[str, frozenset[str]]

METRIC_NAMES = ("recall", "hit", "ndcg", "mrr")


def read_qrels(lines: Iterable[str]) -> Qrels:
    """Parse TSV qrels: query_id, page_id, relevance in {0,1}.

    Zero-relevance lines are ignored; a query must end up with at least
    one relevant page to appear in the result.
    """
    qrels: dict[str, set[str]] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ComretError(f"line {line_no}: expected 3 columns, got {len(parts)}")
        query_id, page_id, rel_s = parts
        if not query_id or not page_id:
            raise ComretError(f"line {line_no}: empty query_id or page_id")
        if rel_s not in ("0", "1"):
            raise ComretError(f"line {line_no}: relevance must be 0 or 1, got {rel_s!r}")
        if rel_s == "1":
            qrels.setdefault(query_id, set()).add(page_id)
    return {qid: frozenset(pages) for qid, pages in qrels.items()}


def parse_metric_spec(spec: str) -> tuple[str, int]:
    """Parse "name@k" (case-insensitive) into (name, k)."""
    name, sep, k_s = spec.strip().lower().partition("@")
    try:
        k = int(k_s) if sep and name in METRIC_NAMES else 0
    except ValueError:
        k = 0
    if k < 1:
        raise ComretError(f"unknown metric spec {spec!r}")
    return name, k


def _dedup(ranked: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for pid in ranked:
        if pid not in seen:
            seen.add(pid)
            out.append(pid)
    return out


def recall_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Fraction of gold pages present in the top k."""
    if not gold:
        raise ComretError("recall needs a non-empty gold set")
    top = set(_dedup(ranked)[:k])
    return len(top & set(gold)) / len(gold)


def hit_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """1.0 if any gold page is in the top k, else 0.0."""
    if not gold:
        raise ComretError("hit needs a non-empty gold set")
    return 1.0 if set(_dedup(ranked)[:k]) & set(gold) else 0.0


def mrr_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Reciprocal rank of the first gold page within the top k, else 0.0."""
    if not gold:
        raise ComretError("mrr needs a non-empty gold set")
    for rank, pid in enumerate(_dedup(ranked)[:k], start=1):
        if pid in gold:
            return 1.0 / rank
    return 0.0


def ndcg_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Binary-gain nDCG with discount log2(rank + 1).

    The ideal gain covers all |gold| relevant pages (not truncated at k),
    which keeps nDCG@k nondecreasing in k; with |gold| <= k this is the
    usual normalization.
    """
    if not gold:
        raise ComretError("ndcg needs a non-empty gold set")
    dcg = 0.0
    for rank, pid in enumerate(_dedup(ranked)[:k], start=1):
        if pid in gold:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, len(gold) + 1))
    return dcg / idcg


_METRIC_FNS = {"recall": recall_at_k, "hit": hit_at_k, "ndcg": ndcg_at_k, "mrr": mrr_at_k}


@dataclass(frozen=True)
class MetricReport:
    """Per-query metric values plus macro averages.

    ``missing`` lists qrels queries absent from the run; they score 0 on
    every metric and are included in the macro averages.
    """

    specs: tuple[str, ...]
    per_query: dict[str, dict[str, float]]
    macro: dict[str, float]
    missing: tuple[str, ...]

    def to_tsv(self) -> str:
        lines = ["\t".join(["query_id", *self.specs])]
        for qid in self.per_query:
            row = self.per_query[qid]
            lines.append("\t".join([qid, *(f"{row[s]:.6f}" for s in self.specs)]))
        lines.append("\t".join(["ALL", *(f"{self.macro[s]:.6f}" for s in self.specs)]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "metrics": list(self.specs),
                "per_query": self.per_query,
                "macro": self.macro,
                "missing_queries": list(self.missing),
            },
            indent=2,
            sort_keys=True,
        )


def evaluate_run(
    run: Mapping[str, Sequence[str]],
    qrels: Qrels,
    specs: Sequence[str],
) -> MetricReport:
    """Score a parsed run (query_id -> ranked page ids) against qrels.

    Every run query must appear in the qrels. Qrels queries missing from
    the run are flagged and scored zero.
    """
    parsed = [(spec.strip().lower(), *parse_metric_spec(spec)) for spec in specs]
    if not qrels:
        raise ComretError("qrels contain no queries with relevant pages")
    for qid in run:
        if qid not in qrels:
            raise ComretError(f"run contains query {qid!r} absent from qrels")

    per_query: dict[str, dict[str, float]] = {}
    missing = []
    for qid in sorted(qrels):
        ranked = run.get(qid)
        if ranked is None:
            missing.append(qid)
            per_query[qid] = {spec: 0.0 for spec, _, _ in parsed}
        else:
            per_query[qid] = {spec: _METRIC_FNS[name](ranked, qrels[qid], k) for spec, name, k in parsed}

    n = len(per_query)
    macro = {spec: sum(row[spec] for row in per_query.values()) / n for spec, _, _ in parsed}
    return MetricReport(
        specs=tuple(spec for spec, _, _ in parsed),
        per_query=per_query,
        macro=macro,
        missing=tuple(missing),
    )


def write_report(report: MetricReport, fh: TextIO, as_json: bool = False) -> None:
    fh.write(report.to_json() + "\n" if as_json else report.to_tsv())
