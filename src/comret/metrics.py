"""Retrieval quality metrics over run files and gold qrels.

Relevance is binary. recall@k is the fraction of a query's gold pages
found in the top k (the stricter multi-gold reading); hit@k is the
any-hit variant and equals recall@k whenever a query has a single gold
page. nDCG uses the log2(rank+1) discount. Macro averages are plain
arithmetic means over queries.

A page listed again in one ranking keeps the rank of its first listing,
and its later listings take no place in the top k: every metric scores
the first k distinct pages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import ComretError

Qrels = dict[str, frozenset[str]]

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
        k = int(k_s) if sep and name in _METRIC_FNS else 0
    except ValueError:
        k = 0
    if k < 1:
        raise ComretError(f"unknown metric spec {spec!r}")
    return name, k


def _gold_ranks(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int, name: str) -> list[int]:
    """The 1-based ranks of the gold pages among the first k distinct pages of ``ranked``."""
    if not gold:
        raise ComretError(f"{name} needs a non-empty gold set")
    top = list(dict.fromkeys(ranked))[:k]
    return [rank for rank, pid in enumerate(top, start=1) if pid in gold]


def recall_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Fraction of gold pages present in the top k."""
    return len(_gold_ranks(ranked, gold, k, "recall")) / len(gold)


def hit_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """1.0 if any gold page is in the top k, else 0.0."""
    return 1.0 if _gold_ranks(ranked, gold, k, "hit") else 0.0


def mrr_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Reciprocal rank of the first gold page within the top k, else 0.0."""
    ranks = _gold_ranks(ranked, gold, k, "mrr")
    return 1.0 / ranks[0] if ranks else 0.0


def ndcg_at_k(ranked: Sequence[str], gold: frozenset[str] | set[str], k: int) -> float:
    """Binary-gain nDCG with discount log2(rank + 1).

    The ideal gain covers all |gold| relevant pages (not truncated at k),
    which keeps nDCG@k nondecreasing in k; with |gold| <= k this is the
    usual normalization.
    """
    dcg = 0.0
    for rank in _gold_ranks(ranked, gold, k, "ndcg"):
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
