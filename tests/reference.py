"""Test oracles: plain reference implementations that the package's fast
paths are checked against, and the central-difference gradient check.

None of these run in the package itself.  Each is the straightforward form of
something the package computes in bulk: one GRU step (gru_forward runs all
steps over hoisted input products), the cosine score of one image-sentence
pair (ranking scores whole batches), and the expectation of one 5-bin
relatedness distribution (probes.predict_scores does it per row).
"""

import math
from typing import NamedTuple

import numpy as np

from skipgru.encoder import GruParams
from skipgru.errors import (InputError, MetricError, NumericError,
                            ParameterError, ShapeError)
from skipgru.numerics import ParamSet, sigmoid
from skipgru.probes import SCORE_BINS
from skipgru.ranking import RankingModel


def finite_diff_check(loss_fn, params: ParamSet, analytic: ParamSet, eps: float = 1e-5) -> float:
    """Central-difference check of `analytic` against `loss_fn`.

    Perturbs each coordinate of `params` in place (restoring it afterwards) and
    returns the max over coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        ana = np.asarray(analytic[name], dtype=np.float64)
        if ana.shape != arr.shape:
            raise ShapeError(f"analytic gradient for '{name}' has shape {ana.shape}, "
                             f"expected {arr.shape}")
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = float(loss_fn(params))
            arr[idx] = orig - eps
            down = float(loss_fn(params))
            arr[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(f"loss is non-finite near '{name}'{list(idx)}")
            numeric = (up - down) / (2.0 * eps)
            err = abs(ana[idx] - numeric) / max(1e-8, abs(ana[idx]) + abs(numeric))
            worst = max(worst, err)
    return worst


class GruStep(NamedTuple):
    """One step's state and gate activations."""

    h: np.ndarray
    r: np.ndarray
    z: np.ndarray
    hbar: np.ndarray


def gru_step(x: np.ndarray, h_prev: np.ndarray, p: GruParams) -> GruStep:
    """One GRU step; gates come out strictly inside (0, 1) for finite inputs."""
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x.shape != (p.embed_dim,):
        raise ShapeError(f"input has shape {x.shape}, expected ({p.embed_dim},)")
    if h_prev.shape != (p.hidden_dim,):
        raise ShapeError(f"state has shape {h_prev.shape}, expected ({p.hidden_dim},)")
    r = sigmoid(p.W_r @ x + p.U_r @ h_prev)
    z = sigmoid(p.W_z @ x + p.U_z @ h_prev)
    hbar = np.tanh(p.W @ x + p.U @ (r * h_prev))
    h = (1.0 - z) * h_prev + z * hbar
    return GruStep(h=h, r=r, z=z, hbar=hbar)


def pair_score(x: np.ndarray, y: np.ndarray, model: RankingModel) -> float:
    """cosine(Ux, Vy) in [-1, 1]."""
    a = model.U @ np.asarray(x, dtype=np.float64)
    b = model.V @ np.asarray(y, dtype=np.float64)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise MetricError("zero-norm embedded vector; cosine score undefined")
    return float(a @ b) / (na * nb)


def distribution_to_score(p_hat: np.ndarray) -> float:
    """Expectation r^T p_hat over the bins r = [1..5]."""
    p = np.asarray(p_hat, dtype=np.float64)
    if p.shape != (5,):
        raise InputError(f"expected a 5-bin distribution, got shape {p.shape}")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise InputError("p_hat must be nonnegative and sum to 1 within 1e-6")
    return float(SCORE_BINS @ p)
