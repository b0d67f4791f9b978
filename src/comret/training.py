"""Desk-scale trainer for the pairwise sigmoid alignment objective.

A batch of b (query, image, text) feature triplets is embedded into the
query feature space: queries are used as they are, and so are images of
the queries' dims; texts, and images of other dims, go through a linear
map each. For each modality the b*b pair grid is scored
by inner product and every pair contributes a sigmoid-contrastive term

    softplus( gamma_ij * (-tau * z_ij + eta) ) / b

with gamma_ij = +1 on the diagonal (matched pairs) and -1 elsewhere; tau
and eta are a learnable temperature and bias initialized to 10 and -10.
The text-side and image-side losses are blended with weight ``lam`` on
text. Only the text map is trained; the image map stays frozen to
preserve its pretrained alignment, so the text-map gradient of the
blended loss is lam times the text-side gradient. tau stays positive by
training log(tau / TAU_INIT) from 0, so every run starts at TAU_INIT
exactly. A run returns its loss log; ``train-toy`` prints one ``warning:``
line when the final loss is not below the initial one. A run whose loss,
tau or eta stops being finite has diverged: it raises one ``ComretError``
naming the step, and NumPy's overflow warnings on the way there are
silenced, not printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .errors import ComretError
from .store import finite_vector, json_objects


#: The temperature and bias every training run starts from.
TAU_INIT = 10.0
ETA_INIT = -10.0


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.5
    learning_rate: float = 0.05
    steps: int = 200
    batch_size: int | None = None  # None = full batch
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ComretError(f"lambda must be in [0,1], got {self.lam}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ComretError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.steps < 0:
            raise ComretError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ComretError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ComretError(f"momentum must be in [0,1), got {self.momentum}")


@dataclass(frozen=True)
class TripletBatch:
    """Aligned (query, image, text) feature rows, one triplet per index."""

    query: np.ndarray
    image: np.ndarray
    text: np.ndarray

    def __post_init__(self):
        b = self.query.shape[0]
        if b < 1 or self.image.shape[0] != b or self.text.shape[0] != b:
            raise ComretError("triplet fields must have the same non-zero row count")

    @property
    def size(self) -> int:
        return self.query.shape[0]

    def take(self, idx: np.ndarray) -> "TripletBatch":
        return TripletBatch(self.query[idx], self.image[idx], self.text[idx])


@dataclass
class ToyEncoders:
    """Linear maps of image and text features into the query feature space.

    w_image is frozen, and None when the image features are used as they
    are; only w_text receives updates.
    """

    w_image: np.ndarray | None
    w_text: np.ndarray

    def embed(self, batch: TripletBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        image = batch.image if self.w_image is None else batch.image @ self.w_image
        return batch.query, image, batch.text @ self.w_text


def _pair_signs(b: int) -> np.ndarray:
    """b x b pair labels: +1 for the matched (diagonal) pair, -1 otherwise."""
    signs = -np.ones((b, b))
    np.fill_diagonal(signs, 1.0)
    return signs


def _pair_grid(query_embs: np.ndarray, cand_embs: np.ndarray, tau: float, eta: float):
    """The b x b score grid z, its pair signs and the softplus arguments signs * (-tau * z + eta)."""
    if query_embs.shape[1] != cand_embs.shape[1]:
        raise ComretError(f"candidate embeddings: expected dim {query_embs.shape[1]}, got {cand_embs.shape[1]}")
    z = query_embs @ cand_embs.T
    signs = _pair_signs(len(z))
    return z, signs, signs * (-tau * z + eta)


def pairwise_sigmoid_loss(query_embs: np.ndarray, cand_embs: np.ndarray, tau: float, eta: float) -> float:
    """Mean-per-row sum of softplus pair terms over the b*b score grid."""
    _, _, a = _pair_grid(query_embs, cand_embs, tau, eta)
    return float(np.logaddexp(0.0, a).sum() / len(a))


def combined_loss(
    batch: TripletBatch, encoders: ToyEncoders, lam: float, tau: float, eta: float
) -> tuple[float, float, float]:
    """(blended, text-side, image-side) loss for one batch."""
    q, i, t = encoders.embed(batch)
    loss_t = pairwise_sigmoid_loss(q, t, tau, eta)
    loss_i = pairwise_sigmoid_loss(q, i, tau, eta)
    return lam * loss_t + (1.0 - lam) * loss_i, loss_t, loss_i


class Gradients(NamedTuple):
    """Gradients of the blended loss w.r.t. the trained parameters."""

    w_text: np.ndarray
    tau: float
    eta: float


def _grid_gradients(query_embs: np.ndarray, cand_embs: np.ndarray, tau: float, eta: float):
    """Gradients of one modality's pair loss w.r.t. its score grid z, tau and eta."""
    z, signs, a = _pair_grid(query_embs, cand_embs, tau, eta)
    b = len(z)
    with np.errstate(over="ignore"):
        d_a = 1.0 / (1.0 + np.exp(-a)) * signs  # softplus'(a) = sigmoid(a), times d a / d(-tau * z + eta)
    return -(tau / b) * d_a, -float(np.sum(d_a * z)) / b, float(np.sum(d_a)) / b


def loss_gradients(
    batch: TripletBatch, encoders: ToyEncoders, lam: float, tau: float, eta: float
) -> Gradients:
    """Analytic gradients of combined_loss w.r.t. w_text, tau and eta.

    The image-side loss never touches w_text, so the w_text gradient is
    lam times the text-side gradient; w_image is frozen.
    """
    q, i_embs, t_embs = encoders.embed(batch)
    d_z, g_tau_t, g_eta_t = _grid_gradients(q, t_embs, tau, eta)
    _, g_tau_i, g_eta_i = _grid_gradients(q, i_embs, tau, eta)
    return Gradients(
        w_text=lam * (batch.text.T @ (d_z.T @ q)),
        tau=lam * g_tau_t + (1.0 - lam) * g_tau_i,
        eta=lam * g_eta_t + (1.0 - lam) * g_eta_i,
    )


def load_triplets(lines: Iterable[str]) -> TripletBatch:
    """Parse triplet JSONL: one {"q": [...], "i": [...], "t": [...]} per line."""
    rows: dict[str, list[np.ndarray]] = {"q": [], "i": [], "t": []}
    for line_no, obj in json_objects(lines):
        for key, column in rows.items():
            where = f'line {line_no} "{key}"'
            vec = finite_vector(obj.get(key), np.float64, line_no, f'"{key}"', where)
            if column and column[0].shape != vec.shape:
                raise ComretError(f"{where}: expected dim {column[0].shape[0]}, got {vec.shape[0]}")
            column.append(vec)
    if not rows["q"]:
        raise ComretError("triplet file contains no records")
    return TripletBatch(np.asarray(rows["q"]), np.asarray(rows["i"]), np.asarray(rows["t"]))


def init_encoders(batch: TripletBatch, seed: int = 0) -> ToyEncoders:
    """Frozen image map into the query feature space (None, the features
    as they are, when the dims agree; else a seeded Gaussian) and a zero
    text map."""
    d, fi = batch.query.shape[1], batch.image.shape[1]
    w_image = None
    if fi != d:
        w_image = np.random.default_rng(seed).standard_normal((fi, d)) / math.sqrt(fi)
        w_image.flags.writeable = False
    return ToyEncoders(w_image, np.zeros((batch.text.shape[1], d)))


class LogRow(NamedTuple):
    step: int
    loss: float
    loss_text: float
    loss_image: float
    tau: float
    eta: float


@dataclass
class TrainResult:
    log: list[LogRow]
    encoders: ToyEncoders
    mrr_at_1: float

    def report(self) -> dict:
        first, last = self.log[0], self.log[-1]
        return {
            "steps": last.step,
            "initial_loss": first.loss,
            "final_loss": last.loss,
            "loss_ratio": last.loss / first.loss if first.loss else None,  # JSON null, not NaN
            "self_retrieval_mrr_at_1": self.mrr_at_1,
            "tau": last.tau,
            "eta": last.eta,
        }


def self_retrieval_mrr_at_1(batch: TripletBatch, encoders: ToyEncoders) -> float:
    """Each query against every text embedding; 1 point when its own text
    ranks first (ties resolve to the lowest index)."""
    q, _, t = encoders.embed(batch)
    best = np.argmax(q @ t.T, axis=1)
    return float(np.mean(best == np.arange(batch.size)))


@np.errstate(all="ignore")  # a diverging run is refused at its first non-finite log row
def train_toy(batch: TripletBatch, cfg: TrainConfig) -> TrainResult:
    """Gradient descent on (w_text, log tau, eta) with a frozen image map.

    Full-batch by default; with cfg.batch_size set, mini-batches are drawn
    from a seeded shuffle each epoch. The log holds the full-batch loss at
    step 0 and after every update. A loss, tau or eta that is no longer
    finite raises a ``ComretError`` naming the step.
    """
    if batch.size < 2:
        raise ComretError("need at least 2 triplets to form negative pairs")
    encoders = init_encoders(batch, cfg.seed)
    theta = 0.0  # log(tau / TAU_INIT)
    eta = ETA_INIT
    lr = cfg.learning_rate

    def snapshot(step: int) -> LogRow:
        try:
            tau = TAU_INIT * math.exp(theta)
        except OverflowError:
            tau = math.inf
        row = LogRow(step, *combined_loss(batch, encoders, cfg.lam, tau, eta), tau, eta)
        if not all(map(math.isfinite, row[1:])):
            raise ComretError(f"training diverged at step {step}: loss {row.loss:.6g}, tau {tau:.6g}, eta {eta:.6g}")
        return row

    log = [snapshot(0)]

    rng = np.random.default_rng(cfg.seed)
    minibatch = cfg.batch_size is not None and cfg.batch_size < batch.size
    order: list[int] = []
    v_w = np.zeros_like(encoders.w_text)
    v_theta = 0.0
    v_eta = 0.0

    for step in range(1, cfg.steps + 1):
        if minibatch:
            if len(order) < cfg.batch_size:
                order = list(rng.permutation(batch.size))
            take, order = order[: cfg.batch_size], order[cfg.batch_size :]
            sub = batch.take(np.asarray(take))
        else:
            sub = batch
        tau = TAU_INIT * math.exp(theta)
        grads = loss_gradients(sub, encoders, cfg.lam, tau, eta)

        v_w = cfg.momentum * v_w + grads.w_text
        v_theta = cfg.momentum * v_theta + tau * grads.tau  # chain rule for log(tau / TAU_INIT)
        v_eta = cfg.momentum * v_eta + grads.eta
        encoders = ToyEncoders(encoders.w_image, encoders.w_text - lr * v_w)
        theta -= lr * v_theta
        eta -= lr * v_eta
        log.append(snapshot(step))

    return TrainResult(log=log, encoders=encoders, mrr_at_1=self_retrieval_mrr_at_1(batch, encoders))


def write_log_csv(log: list[LogRow], fh: TextIO) -> None:
    fh.write("step,loss,loss_text,loss_image,tau,eta\n")
    for row in log:
        fh.write(
            f"{row.step},{row.loss:.12g},{row.loss_text:.12g},"
            f"{row.loss_image:.12g},{row.tau:.12g},{row.eta:.12g}\n"
        )
