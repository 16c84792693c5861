"""Linear evaluation on frozen sentence vectors: pair features, the 5-bin
soft-target relatedness readout, multinomial logistic regression with
cross-validated L2, and the scalar metrics.

Relatedness scores y in [1, 5] become distributions over the bins r = 1..5
with mass y - floor(y) on bin floor(y) + 1 and the remainder on bin floor(y);
the probe is trained with cross-entropy against those soft targets and read
out as the expectation r^T p_hat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConvergenceError, InputError, MetricError, ParameterError,
                     ShapeError)
from .numerics import get_rng, log_softmax, seed_tuple, softmax

SCORE_BINS = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

DEFAULT_L2_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """concat(u * v, |u - v|) along the last axis; symmetric in its arguments.
    u and v are two vectors or two (n, d) blocks of row vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ShapeError(f"pair_features needs two vectors or row blocks of "
                         f"equal shape, got {u.shape} and {v.shape}")
    return np.concatenate([u * v, np.abs(u - v)], axis=-1)


def score_to_distribution(y: float) -> np.ndarray:
    """5-bin distribution whose expectation over bins [1..5] equals y."""
    y = float(y)
    if not 1.0 <= y <= 5.0:
        raise InputError(f"relatedness score must lie in [1, 5], got {y}")
    p = np.zeros(5)
    f = int(np.floor(y))
    if f == 5:
        p[4] = 1.0
    else:
        p[f - 1] = f - y + 1.0
        p[f] = y - f
    return p


@dataclass
class ProbeModel:
    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray     # (n_classes,)
    l2: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise InputError("probe parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def _as_targets(Y, n_classes: int | None) -> np.ndarray:
    """Hard labels or soft distributions -> (n, C) rows summing to 1."""
    Y = np.asarray(Y)
    if Y.ndim == 2:
        return np.asarray(Y, dtype=np.float64)
    labels = Y.astype(int)
    if labels.size and labels.min() < 0:
        raise InputError("class labels must be nonnegative")
    C = n_classes if n_classes is not None else int(labels.max()) + 1
    T = np.zeros((len(labels), C))
    T[np.arange(len(labels)), labels] = 1.0
    return T


def logreg_objective(w_flat: np.ndarray, X: np.ndarray, T: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy + (l2/2)||W||^2 (bias unregularized), with gradient."""
    n, F = X.shape
    C = T.shape[1]
    W = w_flat[:C * F].reshape(C, F)
    b = w_flat[C * F:]
    logits = X @ W.T + b
    loss = -float(np.sum(T * log_softmax(logits, axis=1))) / n \
        + 0.5 * l2 * float(np.sum(W * W))
    dlogits = (softmax(logits, axis=1) - T) / n
    dW = dlogits.T @ X + l2 * W
    db = dlogits.sum(axis=0)
    return loss, np.concatenate([dW.ravel(), db])


def fit_logreg(X: np.ndarray, Y, l2: float,
               n_classes: int | None = None) -> ProbeModel:
    """Deterministic batch fit (L-BFGS from zeros) to gradient norm < 1e-6.

    Y may be hard integer labels or rows of soft target distributions.
    scipy.optimize is imported here, not with the module: at module level it
    added about 23 MB and 0.3 s to the start-up of every command, and only the
    probes need it.
    """
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D, got {X.ndim}-D")
    if l2 < 0:
        raise ParameterError(f"l2 must be >= 0, got {l2}")
    T = _as_targets(Y, n_classes)
    if len(T) != len(X):
        raise ShapeError(f"{len(X)} feature rows vs {len(T)} target rows")
    n, F = X.shape
    C = T.shape[1]
    x0 = np.zeros(C * F + C)
    res = minimize(logreg_objective, x0, args=(X, T, l2), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
    x = res.x
    gnorm = float(np.linalg.norm(logreg_objective(x, X, T, l2)[1]))
    if gnorm >= 1e-6:
        res = minimize(logreg_objective, x, args=(X, T, l2), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 20000, "ftol": 0.0, "gtol": 1e-12})
        x = res.x
        gnorm = float(np.linalg.norm(logreg_objective(x, X, T, l2)[1]))
    if gnorm >= 1e-6:
        raise ConvergenceError(f"logistic regression stalled with gradient norm "
                               f"{gnorm:.3e} (l2={l2}, n={n}, features={F})")
    return ProbeModel(weights=x[:C * F].reshape(C, F).copy(), bias=x[C * F:].copy(),
                      l2=l2)


def predict_proba(model: ProbeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return softmax(X @ model.weights.T + model.bias, axis=1)


def predict(model: ProbeModel, X: np.ndarray) -> np.ndarray:
    return np.argmax(predict_proba(model, X), axis=1)


def predict_scores(model: ProbeModel, X: np.ndarray) -> np.ndarray:
    """Expected relatedness score r^T p_hat per row (5-bin probes only)."""
    if model.n_classes != 5:
        raise InputError(f"score readout needs a 5-bin probe, "
                         f"got {model.n_classes} classes")
    return predict_proba(model, X) @ SCORE_BINS


def stratified_folds(labels: np.ndarray, folds: int, seed) -> np.ndarray:
    """Seeded per-class round-robin fold ids; every class lands in >= 2 folds
    so no training split ever loses a class entirely."""
    labels = np.asarray(labels).astype(int)
    if folds < 2:
        raise ParameterError(f"need >= 2 folds, got {folds}")
    rng = get_rng(seed_tuple(seed, "cv-folds"))
    fold = np.empty(len(labels), dtype=int)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 2:
            raise InputError(f"class {c} has {len(idx)} sample(s); "
                             f"stratification needs at least 2")
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % folds
    return fold


def _pick_l2(scores_by_l2: dict[float, float]) -> float:
    # Highest score wins; exact ties go to the smaller penalty.
    return max(scores_by_l2, key=lambda l2: (scores_by_l2[l2], -l2))


def _search_l2(fold: np.ndarray, l2_grid: Sequence[float], fit, score) -> float:
    """Grid x folds search: for each penalty, fit(train_mask, l2) on every
    non-empty fold's complement and score(probe, test_mask) on the fold; the
    penalty with the highest mean score wins."""
    if not l2_grid:
        raise ParameterError("l2 grid is empty")
    means = {float(l2): float(np.mean([score(fit(fold != f, l2), fold == f)
                                       for f in np.unique(fold)]))
             for l2 in l2_grid}
    return _pick_l2(means)


def select_l2(X: np.ndarray, labels: np.ndarray, folds: int,
              l2_grid: Sequence[float], seed) -> float:
    """Plain stratified CV on hard labels; returns the accuracy-best penalty."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    C = int(labels.max()) + 1
    return _search_l2(
        stratified_folds(labels, folds, seed), l2_grid,
        lambda tr, l2: fit_logreg(X[tr], labels[tr], l2, n_classes=C),
        lambda m, te: accuracy(predict(m, X[te]), labels[te]))


def cross_validate(X: np.ndarray, Y: np.ndarray, folds: int,
                   l2_grid: Sequence[float], seed) -> dict:
    """Nested CV: the inner loop picks the penalty on each training split, the
    outer loop reports held-out accuracy.  Deterministic given the seed; the
    non-empty outer folds run in order, on the calling thread.  A fold id past
    the largest class's sample count holds no sample and gets no score."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(Y).astype(int)
    C = int(labels.max()) + 1
    fold = stratified_folds(labels, folds, seed)
    fold_l2, fold_scores = [], []
    for f in np.unique(fold):
        tr, te = fold != f, fold == f
        best = select_l2(X[tr], labels[tr], folds, l2_grid,
                         seed_tuple(seed, "cv-inner", f))
        m = fit_logreg(X[tr], labels[tr], best, n_classes=C)
        fold_l2.append(best)
        fold_scores.append(accuracy(predict(m, X[te]), labels[te]))
    counts = {l2: fold_l2.count(l2) for l2 in fold_l2}
    return {"best_l2": _pick_l2(counts), "fold_scores": fold_scores,
            "fold_l2": fold_l2, "mean_accuracy": float(np.mean(fold_scores))}


def fit_relatedness(X: np.ndarray, scores: np.ndarray, l2: float) -> ProbeModel:
    """Fit the 5-bin soft-target readout against real-valued gold scores."""
    T = np.vstack([score_to_distribution(y) for y in np.asarray(scores, float)])
    return fit_logreg(X, T, l2)


def select_l2_relatedness(X: np.ndarray, scores: np.ndarray, folds: int,
                          l2_grid: Sequence[float], seed) -> float:
    """CV over unstratified seeded folds, scored by held-out Pearson r (a fold
    whose correlation is undefined scores 0)."""
    X = np.asarray(X, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if folds < 2:
        raise ParameterError(f"need >= 2 folds, got {folds}")
    fold = get_rng(seed_tuple(seed, "cv-folds")).permutation(len(scores)) % folds

    def pearson_or_zero(m: ProbeModel, te: np.ndarray) -> float:
        try:
            return pearson(predict_scores(m, X[te]), scores[te])
        except MetricError:
            return 0.0
    return _search_l2(fold, l2_grid,
                      lambda tr, l2: fit_relatedness(X[tr], scores[tr], l2),
                      pearson_or_zero)


def _check_pair(a, b, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < min_len:
        raise InputError(f"need at least {min_len} points, got {len(a)}")
    return a, b


def pearson(a, b) -> float:
    a, b = _check_pair(a, b, min_len=2)
    da, db = a - a.mean(), b - b.mean()
    va, vb = float(da @ da), float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise MetricError("correlation undefined for zero-variance input")
    return float(da @ db) / np.sqrt(va * vb)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, a run of ties sharing their mean, as scipy.stats.rankdata
    gives them; importing scipy.stats would add ~20 MB to every command."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    first = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    last = np.r_[first[1:], len(x)] - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman(a, b) -> float:
    """Pearson correlation of average ranks (ties share their mean rank)."""
    a, b = _check_pair(a, b, min_len=2)
    return pearson(_average_ranks(a), _average_ranks(b))


def mse(a, b) -> float:
    a, b = _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def accuracy(pred, gold) -> float:
    pred, gold = _check_pair(pred, gold)
    return float(np.mean(pred == gold))


def f1(pred, gold) -> float:
    """Positive-class (label 1) F1; 0 when there are no positives anywhere."""
    pred, gold = _check_pair(pred, gold)
    tp = float(np.sum((pred == 1) & (gold == 1)))
    fp = float(np.sum((pred == 1) & (gold != 1)))
    fn = float(np.sum((pred != 1) & (gold == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def read_pair_dataset(path) -> tuple[list[str], list[str], np.ndarray]:
    """Tab-separated sentence_a, sentence_b, gold with one header line."""
    left: list[str] = []
    right: list[str] = []
    gold: list[float] = []
    with open(path, encoding="utf-8") as fh:
        next(fh, None)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 tab-separated "
                                 f"fields, found {len(parts)}")
            try:
                gold.append(float(parts[2]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad gold value "
                                 f"{parts[2]!r}") from exc
            left.append(parts[0])
            right.append(parts[1])
    if not left:
        raise InputError(f"{path}: no data rows")
    return left, right, np.asarray(gold)


def read_label_dataset(path) -> tuple[np.ndarray, list[str], list[str]]:
    """label TAB sentence rows; returns (int labels, sentences, label names)."""
    raw: list[str] = []
    sentences: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'label<TAB>sentence'")
            raw.append(parts[0])
            sentences.append(parts[1])
    if not raw:
        raise InputError(f"{path}: no data rows")
    names = sorted(set(raw))
    index = {n: i for i, n in enumerate(names)}
    return np.asarray([index[r] for r in raw]), sentences, names
