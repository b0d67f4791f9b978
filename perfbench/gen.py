"""Seeded synthetic inputs for the workloads.

Every page row is a pure function of (seed, workload, channel, chunk), so
the same seed always yields the same inputs, and the oracle can regenerate
the matrices chunk by chunk instead of reading what the program wrote.

Shape of the data, following the paper's setting:

* Image rows are L2-normalized noise; image-channel inner products with a
  query sit around 0 with a spread of about 1/sqrt(dim).
* Text rows are L2-normalized noise plus a shared direction, so the text
  channel's raw scores sit on a different (higher, narrower) scale than
  the image channel's. This is what the per-channel z-score is for.
* Each query is a unified-encoder query (both channels hold one vector)
  built from its planted gold page's image and text rows plus noise, so
  the gold page usually ranks near the top without always ranking first.
* Optionally, a share of pages are exact copies of an earlier page in the
  same chunk. Gold pages of half the queries have such a copy, so rankings
  contain exact ties that only ingestion order can break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CHUNK = 4096
IMAGE, TEXT = 0, 1
# Weight of the shared direction in text rows (before normalization).
TEXT_SHIFT = 1.0


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs. ``tag`` separates the RNG streams."""

    tag: int
    pages: int
    dim: int
    queries: int
    dup_share: float = 0.0


def page_id(i: int) -> str:
    return f"doc{i // 20:05d}-p{i % 20:02d}"


def query_id(j: int) -> str:
    return f"q{j:04d}"


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.random((n, dim), dtype=np.float32)
    rows -= 0.5
    rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    return rows


@dataclass(frozen=True)
class Plan:
    """Everything about a workload's inputs that is not a page row."""

    shape: Shape
    seed: int
    dups: dict  # duplicate page index -> earlier page index in the same chunk
    gold: tuple  # gold page index per query
    text_direction: np.ndarray  # (dim,) float32 unit vector

    @property
    def ids(self) -> list[str]:
        return [page_id(i) for i in range(self.shape.pages)]

    def chunk(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Image and text rows of chunk ``c`` as float32 (rows, dim) arrays."""
        lo = c * CHUNK
        n = min(CHUNK, self.shape.pages - lo)
        image = _unit_rows(np.random.default_rng([self.seed, self.shape.tag, IMAGE, c]), n, self.shape.dim)
        text = _unit_rows(np.random.default_rng([self.seed, self.shape.tag, TEXT, c]), n, self.shape.dim)
        text += TEXT_SHIFT * self.text_direction
        text /= np.sqrt(np.einsum("ij,ij->i", text, text))[:, None]
        for dst, src in self.dups.items():
            if lo <= dst < lo + n:
                image[dst - lo] = image[src - lo]
                text[dst - lo] = text[src - lo]
        return image, text

    def chunks(self):
        for c in range((self.shape.pages + CHUNK - 1) // CHUNK):
            yield c * CHUNK, *self.chunk(c)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        image = np.empty((self.shape.pages, self.shape.dim), dtype=np.float32)
        text = np.empty_like(image)
        for lo, img, txt in self.chunks():
            image[lo : lo + len(img)] = img
            text[lo : lo + len(txt)] = txt
        return image, text

    def query_vectors(self, image: np.ndarray | None = None, text: np.ndarray | None = None) -> np.ndarray:
        """(queries, dim) float32 unified-encoder query vectors.

        Pass the full matrices when they are in memory; otherwise the gold
        pages' chunks are regenerated.
        """
        if image is None or text is None:
            chunks = {c: self.chunk(c) for c in sorted({g // CHUNK for g in self.gold})}
            rows = [(chunks[g // CHUNK][0][g % CHUNK], chunks[g // CHUNK][1][g % CHUNK]) for g in self.gold]
        else:
            rows = [(image[g], text[g]) for g in self.gold]
        rng = np.random.default_rng([self.seed, self.shape.tag, 3])
        out = np.empty((self.shape.queries, self.shape.dim), dtype=np.float32)
        for j, (img, txt) in enumerate(rows):
            noise = rng.random(self.shape.dim) - 0.5
            noise *= rng.uniform(6.0, 12.0) / np.linalg.norm(noise)
            vec = img.astype(np.float64) + txt + noise
            out[j] = vec / np.linalg.norm(vec)
        return out


def make_plan(shape: Shape, seed: int) -> Plan:
    rng = np.random.default_rng([seed, shape.tag, 7])
    direction = rng.random(shape.dim) - 0.5
    direction = (direction / np.linalg.norm(direction)).astype(np.float32)
    gold = rng.choice(shape.pages, size=shape.queries, replace=False)
    dups: dict[int, int] = {}
    if shape.dup_share > 0:
        # Half of the gold pages get an exact copy later in their chunk.
        for g in gold[::2]:
            chunk_end = min((g // CHUNK + 1) * CHUNK, shape.pages)
            if g + 1 < chunk_end:
                dups[int(rng.integers(g + 1, chunk_end))] = int(g)
        # The rest of the share is spread over random pages.
        golds = set(int(g) for g in gold)
        for dst in rng.choice(shape.pages, size=int(shape.dup_share * shape.pages), replace=False):
            dst = int(dst)
            lo = dst // CHUNK * CHUNK
            if dst > lo and dst not in golds and dst not in dups:
                dups[dst] = int(rng.integers(lo, dst))
        # A source must itself be an original page.
        dups = {d: s for d, s in dups.items() if s not in dups}
    return Plan(shape=shape, seed=seed, dups=dups, gold=tuple(int(g) for g in gold), text_direction=direction)


def write_queries(plan: Plan, vectors: np.ndarray, path, rows: range | None = None) -> None:
    """Query JSONL with both channels set (unified encoder) and the gold page."""
    ids = plan.ids
    with open(path, "w", encoding="utf-8") as fh:
        for j in rows if rows is not None else range(plan.shape.queries):
            vec = [float(v) for v in vectors[j]]
            obj = {
                "query_id": query_id(j),
                "text": f"synthetic query {j}",
                "embeddings": {"image-query": vec, "text-query": vec},
                "gold": [ids[plan.gold[j]]],
            }
            fh.write(json.dumps(obj) + "\n")


def write_qrels(plan: Plan, path, rows: range | None = None) -> None:
    ids = plan.ids
    with open(path, "w", encoding="utf-8") as fh:
        for j in rows if rows is not None else range(plan.shape.queries):
            fh.write(f"{query_id(j)}\t{ids[plan.gold[j]]}\t1\n")


# --- ingest inputs -------------------------------------------------------

#: Distinct float32 values an ingest embedding entry can take. Drawing from
#: a fixed table lets the generator format 10^7 numbers quickly while every
#: entry still prints with full float32 precision, as encoder output does.
VOCAB = 1 << 16


@lru_cache(maxsize=8)
def _vocab(seed: int, tag: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, tag, 11])
    values = (rng.standard_normal(VOCAB) * 0.05).astype(np.float32)
    text = np.array([repr(float(v)) for v in values], dtype=object)
    return values, text


def ingest_rows(shape: Shape, seed: int, channel: int, c: int) -> np.ndarray:
    """Vocabulary indices (rows, dim) of chunk ``c`` of one ingest file."""
    lo = c * CHUNK
    n = min(CHUNK, shape.pages - lo)
    rng = np.random.default_rng([seed, shape.tag, channel, c])
    return rng.integers(0, VOCAB, size=(n, shape.dim), dtype=np.int64)


def ingest_matrix(shape: Shape, seed: int, channel: int) -> np.ndarray:
    """The raw float32 rows of one ingest file, in page order."""
    values, _ = _vocab(seed, shape.tag)
    chunks = (shape.pages + CHUNK - 1) // CHUNK
    return np.concatenate([values[ingest_rows(shape, seed, channel, c)] for c in range(chunks)])


def text_file_order(shape: Shape, seed: int) -> np.ndarray:
    """The texts file lists pages in a shuffled order, so ingest must pair by id."""
    return np.random.default_rng([seed, shape.tag, 13]).permutation(shape.pages)


def write_ingest_files(shape: Shape, seed: int, images_path, texts_path) -> None:
    _, text = _vocab(seed, shape.tag)
    chunks = (shape.pages + CHUNK - 1) // CHUNK
    with open(images_path, "w", encoding="utf-8") as fh:
        for c in range(chunks):
            for off, row in enumerate(ingest_rows(shape, seed, IMAGE, c)):
                fh.write(f'{{"id": "{page_id(c * CHUNK + off)}", "embedding": [{", ".join(text[row])}]}}\n')
    order = text_file_order(shape, seed)
    rows = np.concatenate([ingest_rows(shape, seed, TEXT, c) for c in range(chunks)])
    with open(texts_path, "w", encoding="utf-8") as fh:
        for i in order:
            fh.write(f'{{"id": "{page_id(int(i))}", "embedding": [{", ".join(text[rows[i]])}]}}\n')
