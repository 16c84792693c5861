"""Image-sentence retrieval: a linear embedding of both modalities trained
with a pairwise hinge ranking loss, and Recall@K / median-rank evaluation.

Images x and sentence vectors y are projected to a shared space by U and V
and scored by cosine similarity.  For each positive pair the loss draws k
contrastive sentences and k contrastive images from within the batch:

    sum_k max(0, alpha - s(Ux, Vy) + s(Ux, Vy_k))
  + sum_k max(0, alpha - s(Ux, Vy) + s(Ux_k, Vy))

Gradients are worked out by hand through the cosine and the hinges.  The
hinges of all n x k draws are formed at once by indexing the score matrix,
and each retrieval direction ranks every query with one stable sort, so
exactly tied scores keep candidate order.  A RankingModel is only U and V:
alpha and k live in RankTrainConfig, whose batch size must exceed k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (ConfigError, InputError, MetricError, NumericError,
                     ShapeError)
from .numerics import AdamState, adam_step, get_rng, seed_tuple, uniform_init

DEFAULT_RECALL_KS = (1, 5, 10)


@dataclass
class RankingModel:
    U: np.ndarray  # (embed_dim, image_dim)
    V: np.ndarray  # (embed_dim, sentence_dim)

    def __post_init__(self):
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ShapeError("U and V must be matrices")
        if self.U.shape[0] != self.V.shape[0] or self.U.shape[0] < 1:
            raise ShapeError(f"U and V must share a positive embedding dim, "
                             f"got {self.U.shape} and {self.V.shape}")


def init_ranking_model(image_dim: int, sentence_dim: int, embed_dim: int,
                       seed) -> RankingModel:
    rng = get_rng(seed_tuple(seed, "rank-init"))
    return RankingModel(U=uniform_init(embed_dim, image_dim, -0.1, 0.1, rng),
                        V=uniform_init(embed_dim, sentence_dim, -0.1, 0.1, rng))


def _embed_rows(X: np.ndarray, M: np.ndarray,
                what: str) -> tuple[np.ndarray, np.ndarray]:
    A = X @ M.T
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        raise MetricError(f"zero-norm embedded {what} at rows "
                          f"{np.flatnonzero(norms == 0.0)[:5].tolist()}")
    return A / norms[:, None], norms


def _contrastive_draws(n: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """For each i: k sentence indices then k image indices, all != i, drawn
    without replacement.  Draw order is fixed so a seed pins the samples."""
    sent = np.empty((n, k), dtype=int)
    img = np.empty((n, k), dtype=int)
    for i in range(n):
        s = rng.choice(n - 1, size=k, replace=False)
        m = rng.choice(n - 1, size=k, replace=False)
        sent[i] = s + (s >= i)
        img[i] = m + (m >= i)
    return sent, img


@dataclass
class RankTrainConfig:
    """The ranker's training settings, and the one home of their defaults."""

    batch_size: int = 100
    learning_rate: float = 0.001
    seed: int = 0
    dev_group_size: int = 1
    alpha: float = 0.2
    k_contrastive: int = 50

    def __post_init__(self):
        for name in ("alpha", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")
        if self.k_contrastive < 1:
            raise ConfigError(f"k_contrastive must be >= 1, "
                              f"got {self.k_contrastive}")
        if self.batch_size <= self.k_contrastive:
            raise ConfigError(f"batch_size {self.batch_size} must exceed "
                              f"k_contrastive {self.k_contrastive}")

    def check_pairs(self, n_pairs: int) -> None:
        """Raise ConfigError unless n_pairs pairs can supply the draws."""
        if n_pairs <= self.k_contrastive:
            raise ConfigError(f"training needs more than k_contrastive "
                              f"{self.k_contrastive} pairs, got {n_pairs}")


def ranking_grads(X: np.ndarray, Y: np.ndarray, model: RankingModel,
                  config: RankTrainConfig,
                  contrastive_seed) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and dL/dU, dL/dV, under config's margin and contrastive count.

    With G[i, j] the net weight on score S[i, j] from the active hinges, the
    cosine backward per row is da_i = (sum_j G_ij bhat_j - (G S)_ii' ahat_i)
    / ||a_i|| and symmetrically for b.
    """
    n = len(X)
    if n != len(Y):
        raise ShapeError(f"{n} images vs {len(Y)} sentences")
    config.check_pairs(n)
    Ahat, na = _embed_rows(X, model.U, "image")
    Bhat, nb = _embed_rows(Y, model.V, "sentence")
    S = Ahat @ Bhat.T
    sent, img = _contrastive_draws(n, config.k_contrastive, get_rng(contrastive_seed))
    # Hinge (i, c) of each kind: sentence draws score S[i, sent[i, c]],
    # image draws S[img[i, c], i]; each active hinge moves weight -1 onto the
    # positive score S[i, i] and +1 onto its contrastive score.
    rows = np.broadcast_to(np.arange(n)[:, None], sent.shape)
    pos = np.diagonal(S)[:, None]
    hinge_s = config.alpha - pos + S[rows, sent]
    hinge_i = config.alpha - pos + S[img, rows]
    act_s, act_i = hinge_s > 0.0, hinge_i > 0.0
    loss = float(hinge_s[act_s].sum() + hinge_i[act_i].sum())
    G = np.zeros((n, n))
    np.fill_diagonal(G, -(act_s.sum(axis=1) + act_i.sum(axis=1)))
    np.add.at(G, (np.concatenate([rows[act_s], img[act_i]]),
                  np.concatenate([sent[act_s], rows[act_i]])), 1.0)
    GS = G * S
    dA = (G @ Bhat - GS.sum(axis=1)[:, None] * Ahat) / na[:, None]
    dB = (G.T @ Ahat - GS.sum(axis=0)[:, None] * Bhat) / nb[:, None]
    return loss, {"U": dA.T @ X, "V": dB.T @ Y}


@dataclass
class RetrievalResult:
    recall_at: dict  # K -> percentage in [0, 100]
    median_rank: float


class RankTrainResult(NamedTuple):
    model: RankingModel
    history: list


def train_ranker(pairs: tuple[np.ndarray, np.ndarray], model: RankingModel,
                 epochs: int, dev: tuple[np.ndarray, np.ndarray],
                 config: RankTrainConfig) -> RankTrainResult:
    """Adam on the hinge ranking loss over shuffled minibatches, keeping the
    snapshot with the best dev Recall@1 (mean of both directions).

    Training needs more than k_contrastive pairs, and a trailing batch too
    small for the draws is skipped.  The model passed in is never modified;
    epochs = 0 returns it.
    """
    X, Y = np.asarray(pairs[0], float), np.asarray(pairs[1], float)
    Xd, Yd = np.asarray(dev[0], float), np.asarray(dev[1], float)
    if len(Xd) == 0:
        raise InputError("dev set is empty")
    n = len(X)
    if n != len(Y):
        raise ShapeError(f"{n} images vs {len(Y)} sentences")
    if epochs > 0:
        config.check_pairs(n)
    # Adam updates U and V in place: train copies of them, and copy again for
    # each best snapshot, so neither aliases the weights that keep training.
    best, best_score = model, -math.inf
    params = {"U": model.U.copy(), "V": model.V.copy()}
    model = RankingModel(**params)
    opt = AdamState.initial(params)
    history: list = []
    for epoch in range(epochs):
        perm = get_rng(seed_tuple(config.seed, "rank-epoch", epoch)).permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            if len(idx) <= config.k_contrastive:
                continue
            loss, grads = ranking_grads(X[idx], Y[idx], model, config,
                                        seed_tuple(config.seed, "contrast",
                                                   epoch, b))
            if not math.isfinite(loss):
                raise NumericError(f"non-finite ranking loss at epoch {epoch}; "
                                   f"training aborted")
            losses.append(loss)
            adam_step(params, grads, opt, config.learning_rate)
        res = evaluate_retrieval(Xd, Yd, model, config.dev_group_size, ks=(1,))
        score = (res["annotation"].recall_at[1] + res["search"].recall_at[1]) / 2.0
        history.append({"epoch": epoch, "dev_r1": score,
                        "mean_loss": float(np.mean(losses))})
        if score > best_score:
            best = RankingModel(model.U.copy(), model.V.copy())
            best_score = score
    return RankTrainResult(model=best, history=history)


def _rank_positions(S: np.ndarray) -> np.ndarray:
    """P[q, c]: the 1-based rank of candidate c in query row q's stable
    descending order of scores."""
    order = np.argsort(-S, axis=1, kind="stable")
    P = np.empty_like(order)
    np.put_along_axis(P, order, np.arange(1, S.shape[1] + 1), axis=1)
    return P


def _summarize(ranks: np.ndarray, ks: Sequence[int]) -> RetrievalResult:
    recall = {int(k): 100.0 * float(np.mean(ranks <= k)) for k in ks}
    return RetrievalResult(recall_at=recall, median_rank=float(np.median(ranks)))


def evaluate_retrieval(images: np.ndarray, captions: np.ndarray,
                       model: RankingModel, group_size: int,
                       ks: Sequence[int] = DEFAULT_RECALL_KS) -> dict:
    """Both retrieval directions; caption j belongs to image j // group_size.

    annotation: each image queries all captions and is scored by the rank of
    its best ground-truth caption.  search: each caption queries all images.
    Returns {"annotation": RetrievalResult, "search": RetrievalResult}.
    No images raise InputError: no rank exists to summarize.
    """
    X = np.asarray(images, dtype=np.float64)
    Y = np.asarray(captions, dtype=np.float64)
    if len(X) == 0:
        raise InputError("retrieval needs at least one image")
    if group_size < 1 or len(Y) != len(X) * group_size:
        raise InputError(f"need exactly {group_size} captions per image: "
                         f"{len(X)} images, {len(Y)} captions")
    Ahat, _ = _embed_rows(X, model.U, "image")
    Bhat, _ = _embed_rows(Y, model.V, "sentence")
    S = Ahat @ Bhat.T                           # (n_images, n_captions)
    # A query's rank is that of its best-ranked ground-truth candidate.
    n = len(X)
    ann = _rank_positions(S).reshape(n, n, group_size)[np.arange(n),
                                                       np.arange(n)].min(axis=1)
    sea = _rank_positions(S.T)[np.arange(len(Y)), np.arange(len(Y)) // group_size]
    return {"annotation": _summarize(ann, ks), "search": _summarize(sea, ks)}
