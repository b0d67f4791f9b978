"""Core domain types shared by every other module.

Embeddings are stored as float32 (matching common encoder output) while
every reduction over them accumulates in float64. All types here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ComretError

EMBEDDING_DTYPE = np.float32

IMAGE_CHANNEL = "image-query"
TEXT_CHANNEL = "text-query"


@dataclass(frozen=True)
class ModeSpec:
    """What one fusion mode sweeps and how it combines the sweeps.

    modalities: the page matrices scored, image before text.
    strict: each sweep needs its modality's own query channel; otherwise
        ``QueryRecord.vector_for_sweep`` falls back to the other channel.
    normalize: logistic squash plus per-query z-score of each sweep.
    weight: the FusionConfig field weighting text in the blend, or None
        when a single modality is ranked as is.
    """

    modalities: tuple[str, ...]
    strict: bool
    normalize: bool
    weight: str | None


#: Every fusion mode, in the order they appear in comparison tables.
MODE_SPECS = {
    "image-only": ModeSpec(("image",), strict=False, normalize=False, weight=None),
    "text-only": ModeSpec(("text",), strict=False, normalize=False, weight=None),
    "raw-linear": ModeSpec(("image", "text"), strict=False, normalize=False, weight="alpha"),
    "ucmr": ModeSpec(("image", "text"), strict=False, normalize=True, weight="beta"),
    # The query is encoded twice, once per channel (dual-encoder ensemble).
    "ensemble-ucmr": ModeSpec(("image", "text"), strict=True, normalize=True, weight="beta"),
}

MODES = tuple(MODE_SPECS)


@dataclass(frozen=True)
class QueryRecord:
    """A query with one embedding per channel.

    With a unified encoder both channels hold the same vector; the two
    channels only differ in the dual-encoder ensemble setup where the
    query is encoded twice.
    """

    query_id: str
    channel_embs: Mapping[str, np.ndarray]

    def channel(self, name: str) -> np.ndarray | None:
        return self.channel_embs.get(name)

    def vector_for_sweep(self, modality: str) -> np.ndarray | None:
        """Query vector for scoring one modality's matrix.

        Prefers the modality's natural channel and falls back to the other
        one, which under the unified-encoder convention (both channels hold
        the same vector) always yields the single shared query embedding.
        """
        first, second = (IMAGE_CHANNEL, TEXT_CHANNEL) if modality == "image" else (TEXT_CHANNEL, IMAGE_CHANNEL)
        vec = self.channel_embs.get(first)
        return vec if vec is not None else self.channel_embs.get(second)


@dataclass(frozen=True)
class FusionConfig:
    """Fusion mode plus the blend weights and ranking depth.

    alpha weights the text modality in the raw linear blend; beta weights
    the text modality in the normalized blend. Defaults mirror the standard
    experimental setup (beta=0.1, top_k=3).
    """

    mode: str = "ucmr"
    alpha: float = 0.5
    beta: float = 0.1
    top_k: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ComretError(f"unknown fusion mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ComretError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ComretError(f"beta must be in [0,1], got {self.beta}")
        if self.top_k < 1:
            raise ComretError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class RankedEntry:
    rank: int
    page_id: str
    fused_score: float
    image_score: float
    text_score: float


@dataclass(frozen=True)
class RankedResult:
    """Top-k pages for one query, with per-modality score breakdown.

    For the raw modes the breakdown columns carry raw inner products; for
    the normalized modes they carry z-scored values. A modality that a mode
    never scores is reported as 0.0.
    """

    query_id: str
    entries: tuple[RankedEntry, ...]
