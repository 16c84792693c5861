"""Dense float64 linear algebra, initializers, Adam, and gradient clipping.

A "matrix" throughout the package is a 2-D contiguous float64 ndarray; a
"parameter set" is a dict mapping names to float64 arrays.  All functions here
are pure: inputs are never mutated, and every stochastic operation takes an
explicit seed (an int, a tuple of ints, or a numpy Generator), so two runs with
the same seed are bit-identical.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import ParameterError, ShapeError

ParamSet = dict[str, np.ndarray]


def get_rng(seed) -> np.random.Generator:
    """Return a Generator for `seed`; Generators pass through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_tuple(*parts) -> tuple[int, ...]:
    """Entropy tuple for an independent named stream.

    String parts hash via crc32 so e.g. (seed, "epoch", 3) and (seed, "init")
    give unrelated generators; ints are masked to the unsigned 64-bit range
    default_rng accepts.  Tuple parts flatten in place, so a seed that is
    itself a seed_tuple composes without nesting.
    """
    out: list[int] = []
    for p in parts:
        if isinstance(p, str):
            out.append(zlib.crc32(p.encode("utf-8")))
        elif isinstance(p, tuple):
            out.extend(seed_tuple(*p))
        else:
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return tuple(out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|."""
    return expit(x)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction; rows sum to 1 exactly up to rounding."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(softmax(logits)) computed without forming small exponentials."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def orthogonal_init(rows: int, cols: int, seed) -> np.ndarray:
    """Orthogonal (rows, cols) matrix from the QR of a seeded Gaussian.

    The smaller-dimension Gram matrix of the result is the identity.  Signs of
    R's diagonal are folded into Q so the factorization, and hence the output,
    is unique for a given seed.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"orthogonal_init needs positive dims, got ({rows}, {cols})")
    rng = get_rng(seed)
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * np.where(d == 0.0, 1.0, np.sign(d))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)


def uniform_init(rows: int, cols: int, lo: float, hi: float, seed) -> np.ndarray:
    """Entries drawn i.i.d. uniform from [lo, hi)."""
    if lo >= hi:
        raise ParameterError(f"uniform_init needs lo < hi, got [{lo}, {hi}]")
    rng = get_rng(seed)
    return rng.uniform(lo, hi, size=(rows, cols))


def global_norm(params: ParamSet) -> float:
    """L2 norm of all parameter entries concatenated, in sorted key order."""
    total = 0.0
    for name in sorted(params):
        g = np.ravel(params[name])
        total += float(np.dot(g, g))
    return math.sqrt(total)


def clip_gradients(grads: ParamSet, threshold: float) -> ParamSet:
    """Rescale the whole set so its global L2 norm is at most `threshold`.

    Below the threshold the input dict is returned unchanged; above it, every
    array is scaled by threshold / norm.
    """
    if threshold <= 0:
        raise ParameterError(f"clip threshold must be positive, got {threshold}")
    norm = global_norm(grads)
    if norm <= threshold:
        return grads
    scale = threshold / norm
    return {name: g * scale for name, g in grads.items()}


@dataclass
class AdamState:
    """First/second moment buffers and hyperparameters for one parameter set."""

    step: int
    m: ParamSet
    v: ParamSet
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def initial(cls, params: ParamSet, alpha: float = 0.001, beta1: float = 0.9,
                beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(p) for k, p in params.items()}
        return cls(step=0, m=zeros(), v=zeros(), alpha=alpha, beta1=beta1,
                   beta2=beta2, epsilon=epsilon)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update; returns (new params, new state).

    m <- b1 m + (1 - b1) g,  v <- b2 v + (1 - b2) g^2, and
    p <- p - alpha (m / bc1) / (sqrt(v / bc2) + eps).  The new m, v and
    parameter are fresh arrays that each term is written into in place, with
    one scratch array per parameter, so the inputs are never mutated and the
    update builds no other temporaries.  The operations and their order are
    those of the formula, so the results are the same bits.
    """
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ShapeError("params, grads, and Adam buffers must share keys")
    for k in params:
        if params[k].shape != grads[k].shape or params[k].shape != state.m[k].shape:
            raise ShapeError(f"shape mismatch for '{k}': {params[k].shape} vs {grads[k].shape}")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        tmp = np.multiply(1.0 - b1, g)
        m = new_m[k] = np.multiply(b1, state.m[k])
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v = new_v[k] = np.multiply(b2, state.v[k])
        v += tmp
        step = new_p[k] = np.divide(v, bc2)
        np.sqrt(step, out=step)
        step += state.epsilon
        np.divide(m, bc1, out=tmp)
        tmp *= state.alpha
        np.divide(tmp, step, out=step)
        np.subtract(p, step, out=step)
    return new_p, replace(state, step=t, m=new_m, v=new_v)
