"""Conditional GRU decoders: language models over neighboring sentences.

Each decoder is a GRU whose reset gate, update gate, and candidate state are
additively biased by the encoder's sentence vector through matrices C_r, C_z,
and C:

    r^t = sigmoid(W_r^d x^{t-1} + U_r^d h^{t-1} + C_r h_enc)
    z^t = sigmoid(W_z^d x^{t-1} + U_z^d h^{t-1} + C_z h_enc)
    hbar^t = tanh(W^d x^{t-1} + U^d (r^t * h^{t-1}) + C h_enc)
    h^t = (1 - z^t) * h^{t-1} + z^t * hbar^t

The word distribution at step t is softmax(V h^t), sharing one output matrix V
between both decoders.  At t = 1 the input is a learned begin-of-decode
vector; afterwards it is the embedding of the ground-truth previous word
(teacher forcing).  There are no bias terms and V has no bias column.
DecoderPair.directions yields each decoder with its parameter-name prefix
(DECODER_PREFIXES), next then previous, so that callers run both decoders
through one loop.  Their weights are drawn by trainer.SkipGruModel.init,
and trainer.model_from_params is the one check of their shapes.

Both decoders run on the encoder's GRU kernel.  The conditioning terms
C_* h_enc are constant over a sentence, so they are added once to the input
pre-activations X @ W_*.T before the time loop.

A train step runs all of its decoder passes through decode_batch, which
owns the output layer, so that it runs once per group of passes rather than
once per pass:
- decode_batch allocates one logits buffer for the step and hands each pass
  the next free rows of it.
- sentence_log_prob_with_cache forms a pass's (T, vocab) logits in the rows
  it is handed and leaves there their softmax rows.
- output_layer_backward runs as soon as OUTPUT_CHUNK rows are pending, and
  after the last pass.  It subtracts the one-hot targets from the pending
  rows in place, then takes dlogits @ V, the passes' state gradients, and
  dlogits.T @ H, which it adds into V's gradient in place by one dgemm
  (numerics.add_matmul, on numpy's own OpenBLAS: a train step loads no
  scipy).  It forms no logits and takes no exp: each logit of
  a train step is formed once, in the forward pass.  No (rows, vocab) array
  exists beyond the buffer.
- decoder_backward then runs one decoder's passes from their state
  gradients as one right-padded (T, B) gru_backward, the next decoder's
  first: the per-step pre-activation gradients summed over time give the
  conditioning matrices' gradients and each pass's gradient into h_enc, and
  the input gradients are scatter-added into the embedding rows by one
  np.add.at.  It does no work on V.  It drops each pass's inputs and trace
  once packed, so a step holds each decoder's states once.

The forward pass takes V row-major (as loaded for inference) or column-major
(as trainer.train lays it out) without a copy; the backward pass takes only
the column-major V gradient that trainer.train sets up.  The sampler, whose
next input is the word it has just drawn, runs the kernel one step at a time
from the state it has reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .encoder import (GRU_KEYS, GruParams, GruTrace, gru_backward, gru_forward,
                      pad_batch)
from .errors import (InputError, ParameterError, RangeError, ShapeError,
                     StateError)
from .numerics import ParamSet, add_matmul, get_rng, softmax

COND_CONDITIONING_KEYS = ("C_r", "C_z", "C")
COND_KEYS = GRU_KEYS + COND_CONDITIONING_KEYS + ("begin",)

# Parameter-name prefix of each decoder: the next sentence's, then the
# previous sentence's.
DECODER_PREFIXES = ("dec_next.", "dec_prev.")

# Decoder rows pending in decode_batch's logits buffer at which it runs
# output_layer_backward over them.
OUTPUT_CHUNK = 64


@dataclass
class ConditionalGruParams(GruParams):
    """A GRU's six matrices plus the three conditioning matrices and the
    learned begin-of-decode input vector."""

    C_r: np.ndarray   # (hidden, enc_dim)
    C_z: np.ndarray
    C: np.ndarray
    begin: np.ndarray  # (embed,)

    KEYS: ClassVar[tuple[str, ...]] = COND_KEYS

    @property
    def enc_dim(self) -> int:
        return self.C_r.shape[1]


@dataclass
class DecoderPair:
    """Next- and previous-sentence decoders sharing one output matrix V."""

    next_params: ConditionalGruParams
    prev_params: ConditionalGruParams
    V: np.ndarray  # (vocab, hidden)

    def __post_init__(self):
        if self.next_params is self.prev_params:
            raise ParameterError("decoders must not share parameter storage")

    @property
    def directions(self) -> list[tuple[ConditionalGruParams, str]]:
        """(params, prefix) of each decoder: next, then previous."""
        return list(zip((self.next_params, self.prev_params), DECODER_PREFIXES))


def _check_conditioning(h_enc: np.ndarray,
                        p: ConditionalGruParams) -> np.ndarray:
    h_enc = np.asarray(h_enc, dtype=np.float64)
    if h_enc.shape != (p.enc_dim,):
        raise ShapeError(f"conditioning vector has shape {h_enc.shape}, "
                         f"expected ({p.enc_dim},)")
    return h_enc


def _check_target(target: Sequence[int], vocab_size: int) -> tuple[int, ...]:
    ids = tuple(int(t) for t in target)
    if not ids:
        raise RangeError("target sentence is empty")
    for t in ids:
        if t < 0 or t >= vocab_size:
            raise RangeError(f"token id {t} outside vocabulary of size {vocab_size}")
    return ids


@dataclass
class DecoderCache:
    """Teacher-forced forward activations needed by output_layer_backward
    and decoder_backward.  A cache serves one backward pass:
    decoder_backward sets X and trace to None once it has packed them."""

    target: tuple[int, ...]
    h_enc: np.ndarray
    X: np.ndarray        # (T, embed) inputs: begin, then target[:-1] embeddings
    trace: GruTrace


def sentence_log_prob_with_cache(target: Sequence[int], h_enc: np.ndarray,
                                 p: ConditionalGruParams, V: np.ndarray,
                                 embedding: np.ndarray, scratch: np.ndarray
                                 ) -> tuple[float, DecoderCache]:
    """The teacher-forced log-likelihood and the cache that the backward pass
    needs.  The (T, vocab) logits are formed in the leading rows of `scratch`,
    which are left holding the pass's softmax rows for output_layer_backward
    to read."""
    ids = _check_target(target, V.shape[0])
    h_enc = _check_conditioning(h_enc, p)
    X = np.vstack([p.begin, embedding[list(ids[:-1])]])
    # The conditioning terms are constant over the sentence: add them once.
    trace = gru_forward(X @ p.W_r.T + p.C_r @ h_enc, X @ p.W_z.T + p.C_z @ h_enc,
                        X @ p.W.T + p.C @ h_enc, p)
    # The loss reads z[target] - log(sum exp z) of the shifted logits z.
    z = np.matmul(trace.S[1:], V.T, out=scratch[:len(ids)])  # (T, vocab)
    z -= np.max(z, axis=1)[:, None]
    picked = z[np.arange(len(ids)), list(ids)]
    np.exp(z, out=z)
    sums = np.sum(z, axis=1)
    z /= sums[:, None]
    total = float((picked - np.log(sums)).sum())
    return total, DecoderCache(target=ids, h_enc=h_enc, X=X, trace=trace)


def sentence_log_prob(target: Sequence[int], h_enc: np.ndarray,
                      p: ConditionalGruParams, V: np.ndarray,
                      embedding: np.ndarray) -> float:
    """Teacher-forced log P(target | h_enc) = sum_t log softmax(V h^t)[w^t]; <= 0."""
    logp, _ = sentence_log_prob_with_cache(
        target, h_enc, p, V, embedding, np.empty((len(target), len(V))))
    return logp


def decode_batch(passes: Sequence[tuple[Sequence[int], np.ndarray,
                                        ConditionalGruParams]],
                 V: np.ndarray, embedding: np.ndarray, grads: ParamSet
                 ) -> tuple[list[float], list[DecoderCache], list[np.ndarray]]:
    """Run the teacher-forced forward pass of each (target, h_enc, params) in
    `passes`, in order, and the output layer's backward over them; returns
    each pass's log-likelihood, its cache and its (T, hidden) state gradients.

    V's gradient is added into grads["V"], group by group in pass order;
    nothing else in `grads` is touched.  The passes share one logits buffer:
    each allocating its own between the caches a batch keeps fragments the
    heap and raises the process's peak RSS.  At most OUTPUT_CHUNK - 1 rows
    wait in it when a pass begins.  An empty `passes` raises InputError.
    """
    if not passes:
        raise InputError("decode_batch needs at least one decoder pass")
    lengths = [len(target) for target, _, _ in passes]
    scratch = np.empty((min(sum(lengths), OUTPUT_CHUNK - 1 + max(lengths)),
                        V.shape[0]))
    log_probs, caches, dS = [], [], []
    rows = 0
    for target, h_enc, p in passes:
        lp, cache = sentence_log_prob_with_cache(target, h_enc, p, V,
                                                 embedding, scratch[rows:])
        log_probs.append(lp)
        caches.append(cache)
        rows += len(cache.target)
        if rows >= OUTPUT_CHUNK or len(caches) == len(passes):
            dS += output_layer_backward(caches[len(dS):], V, grads, scratch)
            rows = 0
    return log_probs, caches, dS


def output_layer_backward(caches: Sequence[DecoderCache], V: np.ndarray,
                          grads: ParamSet,
                          scratch: np.ndarray) -> list[np.ndarray]:
    """Add the output layer's gradient for the cached passes into grads["V"],
    and return each pass's (T, hidden) gradient of its negative
    log-likelihood with respect to its states h^1..h^T, in the order of
    `caches`.

    The passes' forward calls must have left their softmax rows in the
    leading rows of `scratch`, one pass after another in the order of
    `caches`; those rows are overwritten with the gradient of the loss with
    respect to the logits.  grads["V"] must be column-major, as trainer.train
    lays it out: BLAS updates it in place by one call.  Any other layout
    raises ParameterError before anything is written.
    """
    if not all(isinstance(c, DecoderCache) for c in caches):
        raise StateError("output_layer_backward needs the caches from "
                         "sentence_log_prob_with_cache")
    gV = grads["V"]
    if not gV.flags.f_contiguous:
        raise ParameterError("the V gradient must be a column-major "
                             "contiguous array")
    S = np.vstack([c.trace.S[1:] for c in caches])         # (rows, hidden)
    # Softmax cross-entropy: d(-log p)/dlogits = p - onehot(target), with p
    # the forward's softmax rows.
    G = scratch[:len(S)]
    G[np.arange(len(G)), np.concatenate([c.target for c in caches])] -= 1.0
    dS = G @ V
    # grads["V"] += G.T @ S, accumulated by BLAS in place (beta = 1) from
    # operands it reads without a copy.
    add_matmul(gV, G.T, S)
    return np.split(dS, np.cumsum([len(c.target) for c in caches[:-1]]))


def decoder_backward(caches: Sequence[DecoderCache], dS: Sequence[np.ndarray],
                     p: ConditionalGruParams, grads: ParamSet,
                     prefix: str) -> np.ndarray:
    """Add the gradients of one decoder's cached forward passes, run as one
    right-padded (T, B) recurrence, into `grads`, given dS, each pass's
    (T, hidden) state gradients from output_layer_backward, and return the
    (B, enc_dim) conditioning gradients that flow back into the encoder.

    The nine decoder matrices and "begin" are added under `prefix` (e.g.
    "dec_next."), and the input rows' gradients are scatter-added into "emb"
    in pass order (the other rows are not touched).  V's gradient is not
    touched.
    """
    if not all(isinstance(c, DecoderCache) and c.trace is not None
               for c in caches):
        raise StateError("decoder_backward needs the caches from "
                         "sentence_log_prob_with_cache, each used once")
    X = pad_batch([c.X for c in caches])
    trace = GruTrace(*map(pad_batch, zip(*(c.trace for c in caches))))
    for c in caches:
        c.X = c.trace = None
    back = gru_backward(X, trace, pad_batch(dS), p)
    da_r, da_z, da_h = back.DA_r.sum(0), back.DA_z.sum(0), back.DA_h.sum(0)
    H_enc = np.array([c.h_enc for c in caches])
    own = dict(back.params, C_r=da_r.T @ H_enc, C_z=da_z.T @ H_enc,
               C=da_h.T @ H_enc, begin=back.dX[0].sum(0))
    for k, v in own.items():
        grads[prefix + k] += v
    # Step t > 0 of pass b reads the embedding row of target[t - 1].
    np.add.at(grads["emb"], [w for c in caches for w in c.target[:-1]],
              np.concatenate([back.dX[1:len(c.target), b]
                              for b, c in enumerate(caches)]))
    return da_h @ p.C + da_r @ p.C_r + da_z @ p.C_z


def sample_sentence(h_enc: np.ndarray, p: ConditionalGruParams, V: np.ndarray,
                    embedding: np.ndarray, max_len: int, temperature: float,
                    seed, eos_id: int = 0) -> list[int]:
    """Autoregressive sampling from softmax(V h / temperature) until eos or
    max_len tokens.  temperature = 0 means greedy argmax (no randomness)."""
    if max_len < 1:
        raise ParameterError(f"max_len must be >= 1, got {max_len}")
    if not temperature >= 0:
        raise ParameterError(f"temperature must be >= 0, got {temperature}")
    h_enc = _check_conditioning(h_enc, p)
    c_r, c_z, c_h = p.C_r @ h_enc, p.C_z @ h_enc, p.C @ h_enc
    rng = get_rng(seed)
    h = np.zeros(p.hidden_dim)
    x = p.begin[None, :]
    out: list[int] = []
    for _ in range(max_len):
        # One kernel step from h; the next input is the word it samples.
        h = gru_forward(x @ p.W_r.T + c_r, x @ p.W_z.T + c_z, x @ p.W.T + c_h,
                        p, h0=h).h_final
        logits = V @ h
        if temperature == 0.0:
            w = int(np.argmax(logits))
        else:
            # Shift before dividing: at a tiny temperature the other logits
            # then go to -inf, not the top one to inf (and inf - inf = nan).
            # softmax's own shift is then by 0, so temperature 1 keeps the
            # bits of softmax(logits).
            with np.errstate(over="ignore"):
                scaled = (logits - np.max(logits)) / temperature
            w = int(rng.choice(V.shape[0], p=softmax(scaled)))
        out.append(w)
        if w == eos_id:
            break
        x = embedding[w][None, :]
    return out
