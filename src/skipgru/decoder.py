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

A train step runs each decoder end to end, through decode_batch and then
decoder_backward.  decode_batch runs all of a decoder's passes as one
recurrence, and the output layer once per chunk of passes:
- decode_batch makes the decoder's block (DecoderCache) and one logits
  buffer.  sentence_log_prob_with_cache checks each pass's target and
  conditioning vector and writes its inputs into its column of the block.
- One gru_forward, the encoder's kernel, then runs the block right-padded
  to (T, B).  The conditioning terms C_* h_enc are constant over a pass, so
  each gate's (B, hidden) rows H_enc @ C_*.T are added once to the input
  pre-activations X @ W_*.T.  With teacher forcing the states do not depend
  on the logits.  sentence_log_prob is decode_batch of one pass.
- output_layer runs as soon as OUTPUT_CHUNK rows are pending, and after the
  last pass.  It gathers the chunk's states S once and forms their logits
  in one product into the buffer, then exponentiates them shifted by each
  row's max.  A pass's log-likelihood sums, over its rows, the target's
  shifted logit less the log of the row's sum.  The gradient wrt the logits
  is softmax - onehot(target) = Z / sums, where Z is the exponentiated rows
  less each row's sum at its target.  So it subtracts the sums at the
  targets in place and divides only the (rows, hidden) sides by them:
  (Z @ V) / sums are the state gradients, which it writes into the block,
  and Z.T @ (S / sums) is added into V's gradient in place by one dgemm
  (numerics.add_matmul, on numpy's own OpenBLAS: a train step loads no
  scipy).  Each logit of a train step is formed and exponentiated once, and
  no (rows, vocab) array exists beyond the buffer.  Without `grads` it
  skips its backward, so the loss is written once.
- decoder_backward then runs the block as one gru_backward: the per-step
  pre-activation gradients summed over time give the conditioning matrices'
  gradients and each pass's gradient into h_enc, and the input gradients
  are scatter-added into the embedding rows by one np.add.at.  It does no
  work on V.  The trace is the only copy of the passes' states.

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

# Decoder rows pending after a pass at which decode_batch runs output_layer
# over them.
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
    """One decoder's passes over a batch, right-padded to (T, B), T the
    longest target.  Pass b writes its inputs into column b of the
    zero-filled X, and the output layer its state gradients into the
    zero-filled dS; `trace` is the block's one gru_forward pass."""

    targets: Sequence[Sequence[int]]
    H_enc: np.ndarray    # (B, enc_dim)
    X: np.ndarray        # (T, B, embed) inputs: begin, then target[:-1] embeddings
    dS: np.ndarray       # (T, B, hidden) gradients of the loss wrt the states
    trace: GruTrace | None = None

    @classmethod
    def block(cls, targets: Sequence[Sequence[int]], H_enc: np.ndarray,
              p: ConditionalGruParams) -> "DecoderCache":
        T, B = max(map(len, targets)), len(targets)
        return cls(targets, H_enc, np.zeros((T, B, len(p.begin))),
                   np.zeros((T, B, p.hidden_dim)))


def sentence_log_prob_with_cache(target: Sequence[int], h_enc: np.ndarray,
                                 p: ConditionalGruParams, V: np.ndarray,
                                 embedding: np.ndarray, cache: DecoderCache,
                                 b: int) -> None:
    """Pass b of `cache`: check its target against V's vocabulary and its
    conditioning vector, and write its inputs into column b of the block.
    decode_batch runs it once per pass, then the block's recurrence and
    output layer.  The name is kept for perfbench, whose per-layer metrics
    observe it once per pass, until ROADMAP item 1 (b) replaces them."""
    ids = _check_target(target, V.shape[0])
    _check_conditioning(h_enc, p)
    X = cache.X[:len(ids), b]
    X[0] = p.begin
    np.take(embedding, ids[:-1], axis=0, out=X[1:])


def sentence_log_prob(target: Sequence[int], h_enc: np.ndarray,
                      p: ConditionalGruParams, V: np.ndarray,
                      embedding: np.ndarray) -> float:
    """Teacher-forced log P(target | h_enc) = sum_t log softmax(V h^t)[w^t]; <= 0."""
    return decode_batch([target], np.asarray(h_enc)[None], p, V,
                        embedding)[0][0]


def decode_batch(targets: Sequence[Sequence[int]], H_enc: np.ndarray,
                 p: ConditionalGruParams, V: np.ndarray, embedding: np.ndarray,
                 grads: ParamSet | None = None
                 ) -> tuple[list[float], DecoderCache]:
    """Run one decoder's teacher-forced passes of `targets`, conditioned on
    the rows of H_enc, as one padded recurrence, and the output layer over
    them in order; returns their log-likelihoods and DecoderCache.

    Given `grads`, V's gradient is added into grads["V"], chunk by chunk in
    pass order; nothing else in `grads` is touched.  The chunks share one
    logits buffer (one each would fragment the heap) of at most
    OUTPUT_CHUNK - 1 + max(T) rows.  An empty `targets` raises InputError.
    """
    if not targets:
        raise InputError("decode_batch needs at least one decoder pass")
    lengths = [len(target) for target in targets]
    scratch = np.empty((min(sum(lengths), OUTPUT_CHUNK - 1 + max(lengths)),
                        V.shape[0]))
    cache = DecoderCache.block(targets, H_enc, p)
    for b, target in enumerate(targets):
        sentence_log_prob_with_cache(target, H_enc[b], p, V, embedding, cache,
                                     b)
    X = cache.X
    cache.trace = gru_forward(X @ p.W_r.T + H_enc @ p.C_r.T,
                              X @ p.W_z.T + H_enc @ p.C_z.T,
                              X @ p.W.T + H_enc @ p.C.T, p)
    log_probs = []
    first = rows = 0
    for b, n in enumerate(lengths):
        rows += n
        if rows >= OUTPUT_CHUNK or b == len(targets) - 1:
            log_probs += output_layer(cache, slice(first, b + 1), V, scratch,
                                      grads)
            first, rows = b + 1, 0
    return log_probs, cache


def output_layer(cache: DecoderCache, passes: slice, V: np.ndarray,
                 scratch: np.ndarray, grads: ParamSet | None = None
                 ) -> list[float]:
    """The log-likelihoods of the cache's `passes`, whose block's forward
    has run, from their logits formed in one product into the leading rows of
    `scratch`.  Given `grads`, it also adds the output layer's gradient into
    grads["V"] and writes the gradient of each pass's negative
    log-likelihood with respect to its states h^1..h^T into cache.dS.

    grads["V"] must be column-major, as trainer.train lays it out: BLAS
    updates it in place by one call.  Any other layout raises ParameterError
    before anything is written.
    """
    if not isinstance(cache, DecoderCache):
        raise StateError("output_layer needs the cache of a decoder's passes")
    if grads is not None and not grads["V"].flags.f_contiguous:
        raise ParameterError("the V gradient must be a column-major "
                             "contiguous array")
    targets = cache.targets[passes]
    lengths = [len(target) for target in targets]
    # The real steps of each pass, in pass order (the views are pass-major).
    real = np.arange(len(cache.dS)) < np.array(lengths)[:, None]
    S = cache.trace.S[1:, passes].swapaxes(0, 1)[real]     # (rows, hidden)
    rows, ids = np.arange(len(S)), np.concatenate(targets)
    # Each row's z[target] - log(sum exp z) of the shifted logits z.
    z = np.matmul(S, V.T, out=scratch[:len(S)])            # (rows, vocab)
    z -= np.max(z, axis=1)[:, None]
    log_lik = z[rows, ids]
    np.exp(z, out=z)
    sums = np.sum(z, axis=1)
    log_lik -= np.log(sums)
    log_probs = [float(part.sum())
                 for part in np.split(log_lik, np.cumsum(lengths)[:-1])]
    if grads is not None:
        # Softmax cross-entropy: d(-log p)/dlogits = z / sums - onehot(target)
        # = Z / sums, with Z = z less each row's sum at its target.  The
        # division goes to the (rows, hidden) sides of both products.
        z[rows, ids] -= sums
        cache.dS[:, passes].swapaxes(0, 1)[real] = (z @ V) / sums[:, None]
        # grads["V"] += Z.T @ (S / sums), accumulated by BLAS in place
        # (beta = 1) from operands it reads without a copy.
        add_matmul(grads["V"], z.T, S / sums[:, None])
    return log_probs


def decoder_backward(cache: DecoderCache, p: ConditionalGruParams,
                     grads: ParamSet, prefix: str) -> np.ndarray:
    """Add the gradients of one decoder's passes, run as one right-padded
    (T, B) recurrence over the cache's block, into `grads`, given the state
    gradients that output_layer wrote into cache.dS, and return the
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
