"""Run every CLI subcommand on a fixed, seeded fixture and hash the outputs.

    python3 tools/cli_fixture.py --src src --out /tmp/fixture

prints one ``sha256  path`` line per output file (stdout, stderr and exit
code of each command, plus every file the commands write), sorted by path,
then the sha256 of that listing. Run it on two checkouts to show that a
change leaves every CLI output byte-identical. The wall-clock field
``elapsed=`` in ingest's summary is removed before hashing. Ingest writes
no ``manifest.json``; the hand-built index directories hold one, as a
directory that an older version wrote does, and every ``manifest.json``
is rewritten in one layout, without ``created_utc``, before hashing.

The fixture: 300 pages x 16 dims, a text channel on another scale, two
exact-duplicate pairs (ties; one copy sits in the last, partial 128-row
block of the sweep), texts in reverse order; 21 queries with distinct
image/text channels and qrels, the last aimed at the tail duplicate, plus
the same queries with the image channel only (fallback and the
ensemble-ucmr error) and the same queries in reverse order (a ``ucmr``
retrieve that must write its run sorted by query id). ``eval`` also scores
a run that ranks a non-gold page and then a gold page of ``q00`` twice
each: a page listed again keeps its first rank and takes no place in the
top k, so both gold pages count at k = 3. ``ablate`` and ``diagnose`` also run with several
threads, whose outputs must equal the single-threaded ones. ``ingest``
also runs on an images file whose second embedding starts with the
integer 2**70 + 2**46 + 1, which orjson reads as a float and json.loads
as an int; both round it twice on the way to float32, to the same bits.
Two more ingest inputs sit on the edge of the flat page-line path and must
succeed: an images file whose second line carries ``"meta": {"page": 2}``
(a container the path leaves to json.loads), and a pair of files in which
page ``p002`` is renamed to ``p002`` followed by 70 ``[`` (beyond the 64
brackets up to which the general reader lets orjson read a line; the flat
path reads it with orjson). Two more must succeed and write the same
``.cmeb`` bytes whichever way a line is read: a pair of files whose
embeddings are all integers (``p001``'s image row starts with 2**63,
-2**63 and 2**64 + 1), and a pair whose lines put the embedding before the
id, with page ``p003`` renamed to ``p003]t`` (so ``t`` lies between the
line's first ``[`` and last ``]``, and the line takes the type scan).
``train-toy`` with ``--lr 50`` on six 4-dim triplets must succeed with a
rising loss, and print it as one ``warning:`` line that names no path.
``train-toy`` also runs on mini-batches of 4 with momentum 0.9, and on
triplets whose image features have 9 dims against the queries' 6 (the
frozen image map is then a seeded Gaussian, not the identity).
These inputs must fail with exit code 1:
- ingest of an images file whose second embedding holds ``true``, one
  whose second embedding holds ``1e39`` (beyond float32), one whose
  second embedding holds ``NaN``, one whose second embedding holds an
  integer of 5,000 digits (beyond CPython's int-string conversion limit),
  one whose second line holds an ignored key nested 2,000 deep (which
  json.loads refuses and orjson alone would read), one holding page
  ``p001`` twice, one of 15 dims, and one with a zero row under
  ``--normalize``;
- ingest of an images file with a non-UTF-8 byte on line 151;
- ingest of a texts file whose second embedding holds ``true`` (parsed in
  ingest's worker process when more than one core is usable), of one
  whose second embedding is an array nested 100,000 deep (also parsed in
  the worker), of one missing seven of the images file's ids, of one
  holding page ``p001`` twice, and of one with a zero row under
  ``--normalize``;
- ingest of that texts file with the non-UTF-8 images file (the images
  error is reported);
- retrieve on an index whose ``images.cmeb`` header claims 2**64 - 1 rows
  of dim 0, one whose magic is wrong, one at format version 1, and one
  whose id footer claims a byte more than it holds;
- retrieve and diagnose on an index of zero pages (two 0-row ``.cmeb``
  files and ``M: 0``);
- a ``ucmr`` retrieve on a copy of the fixture index whose image row of
  page ``p001`` starts with a NaN (the index loads; the first query to
  meet the NaN is refused);
- retrieve on an index whose ``texts.cmeb`` holds the ids of
  ``images.cmeb`` in reverse row order, and on one whose ``texts.cmeb`` has
  a non-UTF-8 byte in an id (in both, the texts footer differs from the
  images one, so its ids are decoded and checked);
- retrieve of a query file whose second image channel is ``[{}]``, of one
  whose second image channel holds an integer of 5,000 digits, of one
  that holds query ``q01`` twice, and of an empty one;
- an image-only retrieve whose second query carries a 1-dim text channel
  that the mode never sweeps;
- eval with qrels holding a two-column line, with qrels whose every line
  has relevance 0, with qrels lacking query ``q00``, on a run line of
  five columns, on an empty run file, and with ``--metrics map@5``;
- diagnose with ``--bins 0`` and with ``--bins 10000000000000``;
- train-toy on a triplet file whose third ``t`` has 5 dims, on one whose
  third ``i`` is an array nested 100,000 deep, and with ``--lr nan`` and
  ``--lr inf``.

The ``--out`` directory is written as ``OUT`` in stdout and stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

MODES = ("image-only", "text-only", "raw-linear", "ucmr", "ensemble-ucmr")


#: JSON arrays that json.loads refuses with other errors than a syntax error.
LONG_INT = "[" + "7" * 5000 + "]"
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
EXTRA_DEEP = "[" * 2000 + "]" * 2000
#: 2**70 + 2**46 + 1, rounded twice on the way to float32.
BIG_INT = "1180591691086155481089"


def write_jsonl(path: Path, objects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def spoil_line(path: Path, line: int, old: str, new: str) -> None:
    """Rewrite ``path`` with the first ``old`` of its line ``line`` (0-based) replaced by raw JSON text ``new``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line] = lines[line].replace(old, new, 1)
    path.write_text("".join(lines), encoding="utf-8")


def write_index(
    root: Path, rows: np.ndarray, image_ids: list[bytes], text_ids: list[bytes], text_rows: np.ndarray | None = None
) -> None:
    """A hand-built index directory, so the ``.cmeb`` footers and payloads
    can be damaged; the texts file holds ``rows`` too unless ``text_rows``
    is given."""
    root.mkdir()
    text_rows = rows if text_rows is None else text_rows
    for name, ids, data in (("images.cmeb", image_ids, rows), ("texts.cmeb", text_ids, text_rows)):
        footer = b"\n".join(ids)
        header = b"CMEB" + struct.pack("<IIQ", 2, data.shape[1], data.shape[0])
        (root / name).write_bytes(header + data.astype("<f4").tobytes() + struct.pack("<Q", len(footer)) + footer)
    (root / "manifest.json").write_text(json.dumps({"dim": rows.shape[1], "M": rows.shape[0]}), encoding="utf-8")


def make_inputs(out: Path) -> None:
    rng = np.random.default_rng(7)
    pages, dim = 300, 16
    ids = [f"p{i:03d}" for i in range(pages)]
    image = rng.standard_normal((pages, dim))
    text = rng.standard_normal((pages, dim)) * 3.0
    image[5], text[5] = image[4], text[4]
    image[290], text[290] = image[10], text[10]  # a copy in the tail block (rows 256-299)
    images = [{"id": p, "embedding": image[i].tolist()} for i, p in enumerate(ids)]
    write_jsonl(out / "images.jsonl", images)
    write_jsonl(out / "images_bool.jsonl", images[:1] + [{"id": ids[1], "embedding": [True, *image[1][1:]]}] + images[2:])
    huge = {"id": ids[1], "embedding": [1e39, *image[1][1:]]}
    write_jsonl(out / "images_huge.jsonl", images[:1] + [huge] + images[2:])
    nan = {"id": ids[1], "embedding": [float("nan"), *image[1][1:]]}
    write_jsonl(out / "images_nan.jsonl", images[:1] + [nan] + images[2:])
    big_int = {"id": ids[1], "embedding": ["BIG", *image[1][1:]]}
    write_jsonl(out / "images_bigint.jsonl", images[:1] + [big_int] + images[2:])
    spoil_line(out / "images_bigint.jsonl", 1, '"BIG"', BIG_INT)
    write_jsonl(out / "images_extra_deep.jsonl", images[:1] + [{**images[1], "extra": "DEEP"}] + images[2:])
    spoil_line(out / "images_extra_deep.jsonl", 1, '"DEEP"', EXTRA_DEEP)
    write_jsonl(out / "images_extra_key.jsonl", images[:1] + [{**images[1], "meta": {"page": 2}}] + images[2:])
    write_jsonl(out / "images_dup.jsonl", images + images[1:2])
    write_jsonl(out / "images_dim.jsonl", [{**r, "embedding": r["embedding"][1:]} for r in images])
    write_jsonl(out / "images_zero.jsonl", images[:2] + [{"id": ids[2], "embedding": [0.0] * dim}] + images[3:])
    write_jsonl(out / "images_long_int.jsonl", images[:1] + [{**images[1], "embedding": "LONG"}] + images[2:])
    spoil_line(out / "images_long_int.jsonl", 1, '"LONG"', LONG_INT)
    lines = (out / "images.jsonl").read_bytes().splitlines(keepends=True)
    lines[150] = lines[150].replace(b'"id"', b'"\xffid"', 1)  # past the first read chunk
    (out / "images_not_utf8.jsonl").write_bytes(b"".join(lines))
    (out / "idx-corrupt").mkdir()
    (out / "idx-corrupt" / "images.cmeb").write_bytes(b"CMEB" + struct.pack("<IIQ", 2, 0, 2**64 - 1) + bytes(8))
    (out / "idx-empty").mkdir()
    for name in ("images.cmeb", "texts.cmeb"):
        (out / "idx-empty" / name).write_bytes(b"CMEB" + struct.pack("<IIQ", 2, dim, 0) + bytes(8))
    (out / "idx-empty" / "manifest.json").write_text(json.dumps({"dim": dim, "M": 0}), encoding="utf-8")
    (out / "idx-bad-magic").mkdir()
    (out / "idx-bad-magic" / "images.cmeb").write_bytes(b"CMEX" + struct.pack("<IIQ", 2, dim, 0) + bytes(8))
    (out / "idx-version-1").mkdir()
    (out / "idx-version-1" / "images.cmeb").write_bytes(b"CMEB" + struct.pack("<IIQ", 1, dim, 0) + bytes(8))
    head = [p.encode() for p in ids[:3]]
    write_index(out / "idx-ids-truncated", image[:3], head, head)
    cmeb = out / "idx-ids-truncated" / "images.cmeb"
    raw = cmeb.read_bytes()
    footer_at = 20 + 3 * dim * 4
    cmeb.write_bytes(raw[:footer_at] + struct.pack("<Q", len(raw) - footer_at - 8 + 1) + raw[footer_at + 8 :])
    write_index(out / "idx-texts-reordered", image[:3], head, head[::-1])
    write_index(out / "idx-texts-not-utf8", image[:3], head, [head[0], b"p\xff01", head[2]])
    nan_image = image.copy()
    nan_image[1, 0] = np.nan
    every_id = [p.encode() for p in ids]
    write_index(out / "idx-nan", nan_image, every_id, every_id, text_rows=text)
    texts = [{"id": ids[i], "embedding": text[i].tolist()} for i in reversed(range(pages))]
    write_jsonl(out / "texts.jsonl", texts)
    bad_text = {**texts[1], "embedding": [True, *texts[1]["embedding"][1:]]}
    write_jsonl(out / "texts_bool.jsonl", texts[:1] + [bad_text] + texts[2:])
    write_jsonl(out / "texts_missing.jsonl", texts[7:])
    write_jsonl(out / "texts_deep.jsonl", texts[:1] + [{**texts[1], "embedding": "DEEP"}] + texts[2:])
    spoil_line(out / "texts_deep.jsonl", 1, '"DEEP"', DEEP_ARRAY)
    write_jsonl(out / "texts_zero.jsonl", texts[:4] + [{"id": texts[4]["id"], "embedding": [0.0] * dim}] + texts[5:])
    write_jsonl(out / "texts_dup.jsonl", texts + texts[-2:-1])  # texts run p299 down to p000
    bracket_id = ids[2] + "[" * 70
    for name, rows in (("images", images), ("texts", texts)):
        renamed = [{**r, "id": bracket_id} if r["id"] == ids[2] else r for r in rows]
        write_jsonl(out / f"{name}_bracket_id.jsonl", renamed)
        first = [{"embedding": r["embedding"], "id": ids[3] + "]t" if r["id"] == ids[3] else r["id"]} for r in rows]
        write_jsonl(out / f"{name}_embedding_first.jsonl", first)
    int_rows = {name: np.rint(rows * 1000).astype(int).tolist() for name, rows in (("images", image), ("texts", text))}
    int_rows["images"][1][:3] = [2**63, -(2**63), 2**64 + 1]
    for name, order in (("images", range(pages)), ("texts", reversed(range(pages)))):
        write_jsonl(out / f"{name}_int.jsonl", [{"id": ids[i], "embedding": int_rows[name][i]} for i in order])
    queries, image_only, qrels = [], [], []
    for j in range(21):
        gold = 10 if j == 20 else int(rng.integers(pages))
        q_image = image[gold] + 0.5 * rng.standard_normal(dim)
        q_text = text[gold] / 3.0 + 0.5 * rng.standard_normal(dim)
        qid = f"q{j:02d}"
        queries.append({"query_id": qid, "text": f"q {j}", "gold": [ids[gold]],
                        "embeddings": {"image-query": q_image.tolist(), "text-query": q_text.tolist()}})
        image_only.append({"query_id": qid, "text": "", "embeddings": {"image-query": q_image.tolist()}})
        qrels.append(f"{qid}\t{ids[gold]}\t1\n")
        if j % 3 == 0:
            qrels.append(f"{qid}\t{ids[(gold + 1) % pages]}\t1\n")
    write_jsonl(out / "queries.jsonl", queries)
    write_jsonl(out / "queries_image.jsonl", image_only)
    write_jsonl(out / "queries_reversed.jsonl", queries[::-1])
    write_jsonl(out / "queries_dict.jsonl", queries[:1] + [{**queries[1], "embeddings": {"image-query": [{}]}}] + queries[2:])
    dim_channels = {"image-query": queries[1]["embeddings"]["image-query"], "text-query": [1.0]}
    write_jsonl(out / "queries_dim.jsonl", queries[:1] + [{**queries[1], "embeddings": dim_channels}] + queries[2:])
    write_jsonl(out / "queries_dup.jsonl", queries + queries[1:2])
    long_int = {"image-query": "LONG", "text-query": queries[1]["embeddings"]["text-query"]}
    write_jsonl(out / "queries_long_int.jsonl", queries[:1] + [{**queries[1], "embeddings": long_int}] + queries[2:])
    spoil_line(out / "queries_long_int.jsonl", 1, '"LONG"', LONG_INT)
    (out / "queries_empty.jsonl").write_text("", encoding="utf-8")
    (out / "qrels.tsv").write_text("".join(qrels), encoding="utf-8")
    (out / "qrels_columns.tsv").write_text("".join(qrels[:2] + ["q01\tp001\n"] + qrels[2:]), encoding="utf-8")
    (out / "qrels_irrelevant.tsv").write_text("".join(q.replace("\t1\n", "\t0\n") for q in qrels), encoding="utf-8")
    (out / "qrels_no_q00.tsv").write_text("".join(q for q in qrels if not q.startswith("q00\t")), encoding="utf-8")
    (out / "run_columns.tsv").write_text("q00\tp001\t1\t0.5\t0.5\n", encoding="utf-8")
    (out / "run_empty.tsv").write_text("", encoding="utf-8")
    gold = ids.index(qrels[0].split("\t")[1])  # q00 has two gold pages, gold and gold + 1
    repeated = [ids[(gold + 2) % pages], ids[(gold + 2) % pages], ids[gold], ids[gold], ids[(gold + 1) % pages]]
    lines = (f"q00\t{pid}\t{rank}\t0.5\t0.5\t0.5\tucmr\n" for rank, pid in enumerate(repeated, start=1))
    (out / "run_repeated.tsv").write_text("".join(lines), encoding="utf-8")
    triplets = [{key: rng.standard_normal(6).tolist() for key in "qit"} for _ in range(12)]
    write_jsonl(out / "triplets.jsonl", triplets)
    write_jsonl(out / "triplets_dim.jsonl", triplets[:2] + [{**triplets[2], "t": triplets[2]["t"][:5]}] + triplets[3:])
    write_jsonl(out / "triplets_deep.jsonl", triplets[:2] + [{**triplets[2], "i": "DEEP"}] + triplets[3:])
    spoil_line(out / "triplets_deep.jsonl", 2, '"DEEP"', DEEP_ARRAY)
    write_jsonl(out / "triplets_rises.jsonl", [{key: rng.standard_normal(4).tolist() for key in "qit"} for _ in range(6)])
    image_dim = [{k: rng.standard_normal(n).tolist() for k, n in (("q", 6), ("i", 9), ("t", 5))} for _ in range(10)]
    write_jsonl(out / "triplets_image_dim.jsonl", image_dim)


def commands(o: Path) -> list[tuple[str, list[str]]]:
    idx, idxn, q, q1, qrels = o / "idx", o / "idxn", o / "queries.jsonl", o / "queries_image.jsonl", o / "qrels.tsv"
    cmds = [
        ("ingest", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts.jsonl", "--out", idx]),
        ("ingest-normalize", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts.jsonl",
                              "--normalize", "--out", idxn]),
        ("ingest-bool", ["ingest", "--images", o / "images_bool.jsonl", "--texts", o / "texts.jsonl",
                         "--out", o / "idx-bool"]),
        ("ingest-not-utf8", ["ingest", "--images", o / "images_not_utf8.jsonl", "--texts", o / "texts.jsonl",
                             "--out", o / "idx-not-utf8"]),
        ("ingest-texts-bad", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts_bool.jsonl",
                              "--out", o / "idx-texts-bad"]),
        ("ingest-both-bad", ["ingest", "--images", o / "images_not_utf8.jsonl", "--texts", o / "texts_bool.jsonl",
                             "--out", o / "idx-both-bad"]),
        ("ingest-huge-value", ["ingest", "--images", o / "images_huge.jsonl", "--texts", o / "texts.jsonl",
                               "--out", o / "idx-huge-value"]),
        ("ingest-nan", ["ingest", "--images", o / "images_nan.jsonl", "--texts", o / "texts.jsonl",
                        "--out", o / "idx-nan"]),
        ("ingest-extra-deep", ["ingest", "--images", o / "images_extra_deep.jsonl", "--texts", o / "texts.jsonl",
                               "--out", o / "idx-extra-deep"]),
        ("ingest-bigint", ["ingest", "--images", o / "images_bigint.jsonl", "--texts", o / "texts.jsonl",
                           "--out", o / "idx-bigint"]),
        ("ingest-extra-key", ["ingest", "--images", o / "images_extra_key.jsonl", "--texts", o / "texts.jsonl",
                              "--out", o / "idx-extra-key"]),
        ("ingest-bracket-id", ["ingest", "--images", o / "images_bracket_id.jsonl",
                               "--texts", o / "texts_bracket_id.jsonl", "--out", o / "idx-bracket-id"]),
        ("ingest-int-rows", ["ingest", "--images", o / "images_int.jsonl", "--texts", o / "texts_int.jsonl",
                             "--out", o / "idx-int-rows"]),
        ("ingest-embedding-first", ["ingest", "--images", o / "images_embedding_first.jsonl",
                                    "--texts", o / "texts_embedding_first.jsonl", "--out", o / "idx-embedding-first"]),
        ("ingest-duplicate-id", ["ingest", "--images", o / "images_dup.jsonl", "--texts", o / "texts.jsonl",
                                 "--out", o / "idx-duplicate-id"]),
        ("ingest-missing-ids", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts_missing.jsonl",
                                "--out", o / "idx-missing-ids"]),
        ("ingest-texts-duplicate-id", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts_dup.jsonl",
                                       "--out", o / "idx-texts-duplicate-id"]),
        ("ingest-dim", ["ingest", "--images", o / "images_dim.jsonl", "--texts", o / "texts.jsonl",
                        "--out", o / "idx-dim"]),
        ("ingest-zero-row", ["ingest", "--images", o / "images_zero.jsonl", "--texts", o / "texts.jsonl",
                             "--normalize", "--out", o / "idx-zero-row"]),
        ("ingest-texts-zero-row", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts_zero.jsonl",
                                   "--normalize", "--out", o / "idx-texts-zero-row"]),
        ("ingest-long-int", ["ingest", "--images", o / "images_long_int.jsonl", "--texts", o / "texts.jsonl",
                             "--out", o / "idx-long-int"]),
        ("ingest-texts-deep", ["ingest", "--images", o / "images.jsonl", "--texts", o / "texts_deep.jsonl",
                               "--out", o / "idx-texts-deep"]),
        ("retrieve-bad-magic", ["retrieve", "--index", o / "idx-bad-magic", "--queries", q,
                                "--out", o / "run-bad-magic.tsv"]),
        ("retrieve-version-1", ["retrieve", "--index", o / "idx-version-1", "--queries", q,
                                "--out", o / "run-version-1.tsv"]),
        ("retrieve-ids-truncated", ["retrieve", "--index", o / "idx-ids-truncated", "--queries", q,
                                    "--out", o / "run-ids-truncated.tsv"]),
        ("retrieve-corrupt-header", ["retrieve", "--index", o / "idx-corrupt", "--queries", q,
                                     "--out", o / "run-corrupt-header.tsv"]),
        ("retrieve-empty-index", ["retrieve", "--index", o / "idx-empty", "--queries", q,
                                  "--out", o / "run-empty-index.tsv"]),
        ("diagnose-empty-index", ["diagnose", "--index", o / "idx-empty", "--queries", q,
                                  "--out", o / "diag-empty-index"]),
        ("retrieve-texts-reordered", ["retrieve", "--index", o / "idx-texts-reordered", "--queries", q,
                                      "--out", o / "run-texts-reordered.tsv"]),
        ("retrieve-texts-not-utf8", ["retrieve", "--index", o / "idx-texts-not-utf8", "--queries", q,
                                     "--out", o / "run-texts-not-utf8.tsv"]),
        ("retrieve-query-dict", ["retrieve", "--index", idx, "--queries", o / "queries_dict.jsonl",
                                 "--out", o / "run-query-dict.tsv"]),
        ("retrieve-query-dim", ["retrieve", "--index", idx, "--queries", o / "queries_dim.jsonl",
                                "--mode", "image-only", "--out", o / "run-query-dim.tsv"]),
        ("retrieve-query-duplicate", ["retrieve", "--index", idx, "--queries", o / "queries_dup.jsonl",
                                      "--out", o / "run-query-duplicate.tsv"]),
        ("retrieve-query-long-int", ["retrieve", "--index", idx, "--queries", o / "queries_long_int.jsonl",
                                     "--out", o / "run-query-long-int.tsv"]),
        ("retrieve-queries-reversed", ["retrieve", "--index", idx, "--queries", o / "queries_reversed.jsonl",
                                       "--mode", "ucmr", "--k", "7", "--out", o / "run-queries-reversed.tsv"]),
        ("retrieve-queries-empty", ["retrieve", "--index", idx, "--queries", o / "queries_empty.jsonl",
                                    "--out", o / "run-queries-empty.tsv"]),
        ("retrieve-nan-index", ["retrieve", "--index", o / "idx-nan", "--queries", q, "--mode", "ucmr",
                                "--out", o / "run-nan-index.tsv"]),
    ]
    for m in MODES:
        cmds += [
            (f"retrieve-{m}", ["retrieve", "--index", idx, "--queries", q, "--mode", m, "--k", "7",
                               "--out", o / f"run-{m}.tsv"]),
            (f"retrieve-weights-{m}", ["retrieve", "--index", idxn, "--queries", q, "--mode", m, "--alpha", "0.3",
                                       "--beta", "0.35", "--threads", "3", "--k", "5",
                                       "--out", o / f"run-weights-{m}.tsv"]),
            (f"retrieve-image-channel-{m}", ["retrieve", "--index", idx, "--queries", q1, "--mode", m,
                                             "--out", o / f"run-image-channel-{m}.tsv"]),
        ]
    cmds += [
        ("eval", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", qrels, "--metrics", "recall@5,ndcg@5,mrr@10,hit@3"]),
        ("eval-json", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", qrels, "--json"]),
        ("eval-qrels-columns", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", o / "qrels_columns.tsv"]),
        ("eval-qrels-irrelevant", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", o / "qrels_irrelevant.tsv"]),
        ("eval-qrels-no-q00", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", o / "qrels_no_q00.tsv"]),
        ("eval-run-columns", ["eval", "--run", o / "run_columns.tsv", "--qrels", qrels]),
        ("eval-run-empty", ["eval", "--run", o / "run_empty.tsv", "--qrels", qrels]),
        ("eval-repeated-page", ["eval", "--run", o / "run_repeated.tsv", "--qrels", qrels,
                                "--metrics", "recall@3,hit@3,mrr@3,ndcg@3"]),
        ("eval-unknown-metric", ["eval", "--run", o / "run-ucmr.tsv", "--qrels", qrels, "--metrics", "map@5"]),
        ("ablate", ["ablate", "--index", idx, "--queries", q, "--qrels", qrels, "--modes", ",".join(MODES),
                    "--beta-sweep", "0:1:0.25", "--metrics", "mrr@10,ndcg@5"]),
        ("ablate-threads", ["ablate", "--index", idx, "--queries", q, "--qrels", qrels, "--modes", ",".join(MODES),
                            "--beta-sweep", "0:1:0.25", "--metrics", "mrr@10,ndcg@5", "--threads", "2"]),
        ("diagnose", ["diagnose", "--index", idx, "--queries", q, "--bins", "20", "--threads", "2",
                      "--out", o / "diag"]),
        ("diagnose-threads", ["diagnose", "--index", idx, "--queries", q, "--bins", "20", "--threads", "3",
                              "--out", o / "diag-threads"]),
        ("diagnose-zero-bins", ["diagnose", "--index", idx, "--queries", q, "--bins", "0",
                                "--out", o / "diag-zero-bins"]),
        ("diagnose-huge-bins", ["diagnose", "--index", idx, "--queries", q, "--bins", "10000000000000",
                                "--out", o / "diag-huge-bins"]),
        ("train-toy", ["train-toy", "--triplets", o / "triplets.jsonl", "--steps", "30", "--seed", "3",
                       "--out", o / "train"]),
        ("train-toy-dim", ["train-toy", "--triplets", o / "triplets_dim.jsonl", "--steps", "30",
                           "--out", o / "train-dim"]),
        ("train-toy-deep", ["train-toy", "--triplets", o / "triplets_deep.jsonl", "--steps", "30",
                            "--out", o / "train-deep"]),
        ("train-toy-loss-rises", ["train-toy", "--triplets", o / "triplets_rises.jsonl", "--lr", "50",
                                  "--steps", "20", "--out", o / "train-loss-rises"]),
        ("train-toy-minibatch", ["train-toy", "--triplets", o / "triplets.jsonl", "--steps", "30", "--batch-size", "4",
                                 "--momentum", "0.9", "--seed", "7", "--out", o / "train-minibatch"]),
        ("train-toy-image-dim", ["train-toy", "--triplets", o / "triplets_image_dim.jsonl", "--steps", "30",
                                 "--seed", "5", "--out", o / "train-image-dim"]),
    ]
    cmds += [
        (f"train-toy-lr-{lr}", ["train-toy", "--triplets", o / "triplets.jsonl", "--steps", "3", "--lr", lr,
                                "--out", o / f"train-lr-{lr}"])
        for lr in ("nan", "inf")
    ]
    return [(name, [str(a) for a in argv]) for name, argv in cmds]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default="src", help="directory holding the comret package")
    parser.add_argument("--out", required=True, help="scratch directory, emptied first")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    make_inputs(out)
    inputs = {p.name for p in out.iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    for name, argv in commands(out):
        proc = subprocess.run([sys.executable, "-m", "comret.cli", *argv], env=env, capture_output=True, text=True)
        stdout = re.sub(r" elapsed=[0-9.]+s", "", proc.stdout) if name.startswith("ingest") else proc.stdout
        (out / f"{name}.stdout").write_text(stdout.replace(str(out), "OUT"), encoding="utf-8")
        (out / f"{name}.stderr").write_text(proc.stderr.replace(str(out), "OUT"), encoding="utf-8")
        (out / f"{name}.code").write_text(f"{proc.returncode}\n", encoding="utf-8")
    for manifest in out.glob("*/manifest.json"):
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data.pop("created_utc", None)
        manifest.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out)}\n"
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.relative_to(out).as_posix() not in inputs
    )
    sys.stdout.write(listing)
    print(f"listing sha256 {hashlib.sha256(listing.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
