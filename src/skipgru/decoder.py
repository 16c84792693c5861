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

A train step runs each decoder end to end, through decode_batch and then
decoder_backward.  decode_batch owns the output layer, so that it runs once
per group of passes rather than once per pass:
- decode_batch makes the decoder's block (DecoderCache) and one logits
  buffer, and hands each pass its column of the block and the next free
  rows of the buffer.
- sentence_log_prob_with_cache writes a pass's inputs and trace into its
  column (gru_forward's `out`), forms its (T, vocab) logits in the rows it
  is handed and leaves there their softmax rows.
- output_layer_backward runs as soon as OUTPUT_CHUNK rows are pending, and
  after the last pass.  It subtracts the one-hot targets from the pending
  rows in place, then takes dlogits @ V, the passes' state gradients, which
  it writes into the block, and dlogits.T @ H, which it adds into V's
  gradient in place by one dgemm (numerics.add_matmul, on numpy's own
  OpenBLAS: a train step loads no scipy).  It forms no logits and takes no
  exp: each logit of a train step is formed once, in the forward pass.  No
  (rows, vocab) array exists beyond the buffer.
- decoder_backward then runs the block as one gru_backward: the per-step
  pre-activation gradients summed over time give the conditioning matrices'
  gradients and each pass's gradient into h_enc, and the input gradients
  are scatter-added into the embedding rows by one np.add.at.  It does no
  work on V.  The block is the only copy of the passes' states.

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

from .encoder import GRU_KEYS, GruParams, GruTrace, gru_backward, gru_forward
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
    """One decoder's passes over a batch as one zero-filled block,
    right-padded to (T, B), T the longest target.  Pass b's forward writes
    column b, and the output layer its state gradients.  The gate block is
    (T, B, 2, hidden), so each step of a pass writes contiguous memory."""

    targets: Sequence[Sequence[int]]
    H_enc: np.ndarray | None  # (B, enc_dim); None for sentence_log_prob
    X: np.ndarray        # (T, B, embed) inputs: begin, then target[:-1] embeddings
    S: np.ndarray        # (T + 1, B, hidden): S[0] = 0, S[t] = h^t
    RZ: np.ndarray       # (T, B, 2, hidden) gate block
    Hbar: np.ndarray     # (T, B, hidden)
    dS: np.ndarray       # (T, B, hidden) gradients of the loss wrt the states

    @classmethod
    def block(cls, targets: Sequence[Sequence[int]], H_enc: np.ndarray | None,
              p: ConditionalGruParams) -> "DecoderCache":
        T, B, hid = max(map(len, targets)), len(targets), p.hidden_dim
        return cls(targets, H_enc, np.zeros((T, B, len(p.begin))),
                   np.zeros((T + 1, B, hid)), np.zeros((T, B, 2, hid)),
                   np.zeros((T, B, hid)), np.zeros((T, B, hid)))

    @property
    def trace(self) -> GruTrace:
        return GruTrace(self.S, self.RZ[:, :, 0], self.RZ[:, :, 1], self.Hbar)


def sentence_log_prob_with_cache(target: Sequence[int], h_enc: np.ndarray,
                                 p: ConditionalGruParams, V: np.ndarray,
                                 embedding: np.ndarray, scratch: np.ndarray,
                                 cache: DecoderCache, b: int) -> float:
    """The teacher-forced log-likelihood of pass b of `cache`, whose inputs
    and trace go into column b of its block.  The (T, vocab) logits are
    formed in the leading rows of `scratch`, which are left holding the
    pass's softmax rows for output_layer_backward to read."""
    ids = _check_target(target, V.shape[0])
    h_enc = _check_conditioning(h_enc, p)
    T = len(ids)
    X = cache.X[:T, b]
    X[0] = p.begin
    np.take(embedding, ids[:-1], axis=0, out=X[1:])
    # The conditioning terms are constant over the sentence: add them once.
    trace = gru_forward(X @ p.W_r.T + p.C_r @ h_enc, X @ p.W_z.T + p.C_z @ h_enc,
                        X @ p.W.T + p.C @ h_enc, p,
                        out=(cache.S[:T + 1, b], cache.RZ[:T, b],
                             cache.Hbar[:T, b]))
    # The loss reads z[target] - log(sum exp z) of the shifted logits z.
    z = np.matmul(trace.S[1:], V.T, out=scratch[:T])  # (T, vocab)
    z -= np.max(z, axis=1)[:, None]
    picked = z[np.arange(T), list(ids)]
    np.exp(z, out=z)
    sums = np.sum(z, axis=1)
    z /= sums[:, None]
    return float((picked - np.log(sums)).sum())


def sentence_log_prob(target: Sequence[int], h_enc: np.ndarray,
                      p: ConditionalGruParams, V: np.ndarray,
                      embedding: np.ndarray) -> float:
    """Teacher-forced log P(target | h_enc) = sum_t log softmax(V h^t)[w^t]; <= 0."""
    return sentence_log_prob_with_cache(
        target, h_enc, p, V, embedding, np.empty((len(target), len(V))),
        DecoderCache.block([target], None, p), 0)


def decode_batch(targets: Sequence[Sequence[int]], H_enc: np.ndarray,
                 p: ConditionalGruParams, V: np.ndarray, embedding: np.ndarray,
                 grads: ParamSet) -> tuple[list[float], DecoderCache]:
    """Run one decoder's teacher-forced pass of each target, conditioned on
    the matching row of H_enc, in order, and the output layer's backward
    over them; returns the passes' log-likelihoods and their DecoderCache.

    V's gradient is added into grads["V"], group by group in pass order;
    nothing else in `grads` is touched.  The passes share one logits buffer
    (one each would fragment the heap), in which at most OUTPUT_CHUNK - 1
    rows wait when a pass begins.  An empty `targets` raises InputError.
    """
    if not targets:
        raise InputError("decode_batch needs at least one decoder pass")
    lengths = [len(target) for target in targets]
    scratch = np.empty((min(sum(lengths), OUTPUT_CHUNK - 1 + max(lengths)),
                        V.shape[0]))
    cache = DecoderCache.block(targets, H_enc, p)
    log_probs = []
    first = rows = 0
    for b, target in enumerate(targets):
        log_probs.append(sentence_log_prob_with_cache(
            target, H_enc[b], p, V, embedding, scratch[rows:], cache, b))
        rows += lengths[b]
        if rows >= OUTPUT_CHUNK or b == len(targets) - 1:
            output_layer_backward(cache, slice(first, b + 1), V, grads,
                                  scratch)
            first, rows = b + 1, 0
    return log_probs, cache


def output_layer_backward(cache: DecoderCache, passes: slice, V: np.ndarray,
                          grads: ParamSet, scratch: np.ndarray) -> None:
    """Add the output layer's gradient for the cache's `passes` into
    grads["V"], and write the gradient of each pass's negative
    log-likelihood with respect to its states h^1..h^T into cache.dS.

    The passes' forward calls must have left their softmax rows in the
    leading rows of `scratch`, one pass after another; those rows are
    overwritten with the gradient of the loss with respect to the logits.
    grads["V"] must be column-major, as trainer.train lays it out: BLAS
    updates it in place by one call.  Any other layout raises ParameterError
    before anything is written.
    """
    if not isinstance(cache, DecoderCache):
        raise StateError("output_layer_backward needs the cache from "
                         "decode_batch")
    gV = grads["V"]
    if not gV.flags.f_contiguous:
        raise ParameterError("the V gradient must be a column-major "
                             "contiguous array")
    targets = cache.targets[passes]
    # The real steps of each pass, in pass order (the views are pass-major).
    real = np.arange(len(cache.dS)) < np.array(list(map(len, targets)))[:, None]
    S = cache.S[1:, passes].swapaxes(0, 1)[real]           # (rows, hidden)
    # Softmax cross-entropy: d(-log p)/dlogits = p - onehot(target), with p
    # the forward's softmax rows.
    G = scratch[:len(S)]
    G[np.arange(len(G)), np.concatenate(targets)] -= 1.0
    cache.dS[:, passes].swapaxes(0, 1)[real] = G @ V
    # grads["V"] += G.T @ S, accumulated by BLAS in place (beta = 1) from
    # operands it reads without a copy.
    add_matmul(gV, G.T, S)


def decoder_backward(cache: DecoderCache, p: ConditionalGruParams,
                     grads: ParamSet, prefix: str) -> np.ndarray:
    """Add the gradients of one decoder's passes, run as one right-padded
    (T, B) recurrence over the cache's block, into `grads`, given the state
    gradients that output_layer_backward wrote into cache.dS, and return the
    (B, enc_dim) conditioning gradients that flow back into the encoder.

    The nine decoder matrices and "begin" are added under `prefix` (e.g.
    "dec_next."), and the input rows' gradients are scatter-added into "emb"
    in pass order (the other rows are not touched).  V's gradient is not
    touched.
    """
    if not isinstance(cache, DecoderCache):
        raise StateError("decoder_backward needs the cache from decode_batch")
    back = gru_backward(cache.X, cache.trace, cache.dS, p)
    da_r, da_z, da_h = back.DA_r.sum(0), back.DA_z.sum(0), back.DA_h.sum(0)
    own = dict(back.params, C_r=da_r.T @ cache.H_enc, C_z=da_z.T @ cache.H_enc,
               C=da_h.T @ cache.H_enc, begin=back.dX[0].sum(0))
    for k, v in own.items():
        grads[prefix + k] += v
    # Step t > 0 of pass b reads the embedding row of target[t - 1].
    np.add.at(grads["emb"], [w for t in cache.targets for w in t[:-1]],
              np.concatenate([back.dX[1:len(t), b]
                              for b, t in enumerate(cache.targets)]))
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
