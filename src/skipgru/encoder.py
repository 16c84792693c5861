"""GRU sentence encoder: unidirectional and bidirectional variants.

The recurrence has no bias terms anywhere:

    r^t = sigmoid(W_r x^t + U_r h^{t-1})
    z^t = sigmoid(W_z x^t + U_z h^{t-1})
    hbar^t = tanh(W x^t + U (r^t * h^{t-1}))
    h^t = (1 - z^t) * h^{t-1} + z^t * hbar^t

with h^0 = 0.  The final hidden state is the sentence vector.  The
bidirectional variant runs a second, separately parameterized GRU over the
reversed token sequence and concatenates both final states.  The terminal eos
token is consumed like any other token.  Both variants run one code path:
every pass walks EncoderModel.directions, one entry per GRU.  The weights
are drawn by trainer.SkipGruModel.init, which gives the recurrent matrices
(GRU_RECURRENT_KEYS) an orthogonal start.  The classes here check no shapes:
trainer.model_from_params, which builds every model, is the one check of
its arrays.

One kernel pair runs every GRU pass, here and in the decoders.  gru_forward
takes the input pre-activations of all steps at once (one matrix product per
gate, X @ W_*.T, computed before the time loop), so each step only adds the
three recurrent products U_* h^{t-1}.  Its inputs are (T, hidden) for one
sequence or (T, B, hidden) for a right-padded batch of B sequences, which
encode_batch uses to encode many sentences with one (B, hidden) matrix
product per gate and step over input products of distinct rows.  The r and z
pre-activations of a step sit in one gate block, (2, [B,] hidden): the U_r
and U_z products are written into its two halves, and one numerics.sigmoid
call takes the whole block in place.  The other per-step results are
written into the trace or into buffers made once per pass, and no weight
matrix is copied.

gru_backward is backpropagation through time written out by hand, so the
whole model trains without autodiff.  It takes the same (T, [B,] hidden)
layouts: its time loop only carries the state gradient, with one product
da @ U_* per gate and step, and records the gate pre-activation gradients
DA_* of every step; each weight gradient is then one matrix product over the
T·B rows after the loop (for example DA_h.T @ X for W), and so are the input
gradients.  Padding needs no mask: padded steps come after a sequence's last
real step, so with no gradient flowing into them the carried gradient stays
exactly zero there.  Each decoder runs one padded pass over the block its
passes wrote; encoder_backward runs one pass per sentence and direction and
scatter-adds the input gradients into its embedding rows, because a
sentence can repeat a token id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import InputError, RangeError, ShapeError, StateError
from .numerics import ParamSet, sigmoid

GRU_INPUT_KEYS = ("W_r", "W_z", "W")
GRU_RECURRENT_KEYS = ("U_r", "U_z", "U")
GRU_KEYS = GRU_INPUT_KEYS + GRU_RECURRENT_KEYS

# Parameter-name prefix of each encoder GRU in output order, forward first.
ENCODER_PREFIXES = ("enc.", "enc_rev.")


@dataclass
class GruParams:
    """The six weight matrices of one (unconditioned) GRU direction.

    KEYS names the fields in parameter-name and checkpoint order; a subclass
    that adds fields extends it.
    """

    W_r: np.ndarray  # (hidden, embed)
    W_z: np.ndarray
    W: np.ndarray
    U_r: np.ndarray  # (hidden, hidden)
    U_z: np.ndarray
    U: np.ndarray

    KEYS: ClassVar[tuple[str, ...]] = GRU_KEYS

    @property
    def hidden_dim(self) -> int:
        return self.W_r.shape[0]

    def as_dict(self, prefix: str = "") -> ParamSet:
        return {prefix + k: getattr(self, k) for k in self.KEYS}

    @classmethod
    def from_dict(cls, d: ParamSet, prefix: str = ""):
        return cls(**{k: np.asarray(d[prefix + k], dtype=np.float64)
                      for k in cls.KEYS})


class GruTrace(NamedTuple):
    """Stacked activations of one gru_forward pass, kept for gru_backward.

    R and Z are the two halves of the pass's gate block RZ, (T, 2, [B,]
    hidden): R = RZ[:, 0], Z = RZ[:, 1].
    """

    S: np.ndarray      # (T + 1, [B,] hidden): S[0] = h^0, S[t] = h^t
    R: np.ndarray      # (T, [B,] hidden)
    Z: np.ndarray
    Hbar: np.ndarray

    @property
    def h_final(self) -> np.ndarray:
        return self.S[-1]


def gru_forward(A_r: np.ndarray, A_z: np.ndarray, A_h: np.ndarray,
                p: GruParams, h0: np.ndarray | float = 0.0,
                out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> GruTrace:
    """Run the recurrence over precomputed input pre-activations.

    A_r, A_z, A_h are (T, hidden) for one sequence or (T, B, hidden) for B
    sequences stepped together: every term of each gate's argument except
    the recurrent one, e.g. X @ W_r.T for the encoder and X @ W_r.T + C_r h_enc
    for a decoder.  Only the U_* products depend on the previous state, so
    they are all that stays inside the time loop; they are written h @ U_*.T,
    a matrix-vector product for one sequence (bit-identical to U_* @ h) and
    one (B, hidden) x (hidden, hidden) product per step for B.  Only p's U_*
    matrices are read here, and none is copied.  The recurrence starts from
    h0, zero by default; the sampler, which feeds one step at a time, passes
    the state it has reached.  The trace's arrays have A_r's trailing shape.

    Step t writes the U_r and U_z products into the two halves of its gate
    block RZ[t] and takes the sigmoid of the whole block in one call, in
    place.  Every other result is written into the trace or into two
    buffers made once per call, so the loop allocates no array.  The trace
    goes into `out`, the caller's (S, RZ, Hbar) of shapes (T + 1, ...),
    (T, 2, ...) and (T, ...), or into arrays made here when it is None.
    """
    T, shape = A_r.shape[0], A_r.shape[1:]
    if out is None:
        out = (np.empty((T + 1,) + shape), np.empty((T, 2) + shape),
               np.empty(A_r.shape))
    S, RZ, Hbar = out
    S[0] = h0
    R, Z = RZ[:, 0], RZ[:, 1]
    U_rT, U_zT, UT = p.U_r.T, p.U_z.T, p.U.T
    # one is a 0-d array, which numpy takes faster than the float 1.0.
    a, b, one = np.empty(shape), np.empty(shape), np.array(1.0)
    for a_r, a_z, a_h, rz, r, z, hbar, h, h_next in zip(
            A_r, A_z, A_h, RZ, R, Z, Hbar, S, S[1:]):
        np.matmul(h, U_rT, out=r)
        r += a_r
        np.matmul(h, U_zT, out=z)
        z += a_z
        sigmoid(rz, out=rz)
        np.multiply(r, h, out=a)
        np.matmul(a, UT, out=hbar)
        hbar += a_h
        np.tanh(hbar, out=hbar)
        # h^t = (1 - z) * h^{t-1} + z * hbar, in that order.
        np.subtract(one, z, out=a)
        a *= h
        np.multiply(z, hbar, out=b)
        np.add(a, b, out=h_next)
    return GruTrace(S=S, R=R, Z=Z, Hbar=Hbar)


class GruGrads(NamedTuple):
    """What gru_backward returns for one pass."""

    params: ParamSet     # the six W_* / U_* gradients, summed over the batch
    dX: np.ndarray       # (T, [B,] embed) gradient into each step's input
    DA_r: np.ndarray     # (T, [B,] hidden) gradients of the gate pre-activations
    DA_z: np.ndarray
    DA_h: np.ndarray


def gru_backward(X: np.ndarray, trace: GruTrace, dH: np.ndarray,
                 p: GruParams) -> GruGrads:
    """Backpropagation through time for one gru_forward pass over inputs X,
    (T, embed) for one sequence or (T, B, embed) for a right-padded batch.

    dH, with the trace's shape, is the gradient flowing into each state h^t
    from outside the recurrence, and zero on padded steps.  The time loop
    only carries the state gradient and records the pre-activation gradients
    DA_*, in buffers made once per call; every weight gradient and the input
    gradients are then one matrix product each over the T·B rows.  A padded
    step leaves the state gradient and its DA_* rows exactly zero, so it
    needs no mask and adds nothing.  A batch of one keeps the bits of one
    sequence.
    """
    H_prev, R, Z, Hbar = trace.S[:-1], trace.R, trace.Z, trace.Hbar
    # Each step's local derivatives, formed for all steps at once in the
    # arrays that the loop then scales in place into DA_*.
    DA_h = Z * (1.0 - Hbar * Hbar)
    DA_z = (Hbar - H_prev) * Z * (1.0 - Z)
    DA_r = H_prev * R * (1.0 - R)
    # g carries the state gradient; drh, u and keep are the step's buffers.
    g, drh, u, keep = (np.zeros(R.shape[1:]) for _ in range(4))
    one = np.array(1.0)
    steps = list(zip(dH, DA_h, DA_r, DA_z, R, Z))
    for dh, da_h, da_r, da_z, r, z in reversed(steps):
        g += dh
        da_h *= g
        np.matmul(da_h, p.U, out=drh)
        da_r *= drh
        da_z *= g
        # g = g * (1 - z) + drh * r + da_r @ U_r + da_z @ U_z, in that order.
        np.subtract(one, z, out=keep)
        g *= keep
        drh *= r
        g += drh
        np.matmul(da_r, p.U_r, out=u)
        g += u
        np.matmul(da_z, p.U_z, out=u)
        g += u
    # The products run over the T·B rows.  U's runs first, so that its
    # (T, [B,] hidden) operand R * H_prev is freed before any other result.
    hid = R.shape[-1]
    As = [A.reshape(-1, hid) for A in (DA_r, DA_z, DA_h)]
    dU = As[2].T @ (R * H_prev).reshape(-1, hid)
    dX = As[2] @ p.W
    dX += As[0] @ p.W_r
    dX += As[1] @ p.W_z
    Xs, Hs = X.reshape(-1, X.shape[-1]), H_prev.reshape(-1, hid)
    params = {"W_r": As[0].T @ Xs, "W_z": As[1].T @ Xs, "W": As[2].T @ Xs,
              "U_r": As[0].T @ Hs, "U_z": As[1].T @ Hs, "U": dU}
    return GruGrads(params=params, dX=dX.reshape(X.shape),
                    DA_r=DA_r, DA_z=DA_z, DA_h=DA_h)


@dataclass
class EncoderModel:
    """Embedding table plus one GRU (uni) or a forward/backward pair (bi)."""

    embedding: np.ndarray  # (vocab, embed)
    forward: GruParams
    backward: GruParams | None = None

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim

    @property
    def output_dim(self) -> int:
        return self.hidden_dim * len(self.directions)

    @property
    def directions(self) -> list[tuple[GruParams, bool, str]]:
        """(params, reversed, prefix) of each GRU direction, in output order."""
        grus = [p for p in (self.forward, self.backward) if p is not None]
        return list(zip(grus, (False, True), ENCODER_PREFIXES))


def _check_tokens(tokens: Sequence[int], vocab_size: int) -> tuple[int, ...]:
    ids = tuple(int(t) for t in tokens)
    if not ids:
        raise InputError("cannot encode an empty token sequence")
    for t in ids:
        if t < 0 or t >= vocab_size:
            raise RangeError(f"token id {t} outside vocabulary of size {vocab_size}")
    return ids


@dataclass
class EncoderCache:
    """Forward activations needed by encoder_backward."""

    tokens: tuple[int, ...]
    X: np.ndarray             # (T, embed) embedding rows in token order
    traces: list[GruTrace]    # one per direction; the reverse one over X[::-1]


def encode_with_cache(tokens: Sequence[int],
                      model: EncoderModel) -> tuple[np.ndarray, EncoderCache]:
    ids = _check_tokens(tokens, model.vocab_size)
    X = model.embedding[list(ids)]
    traces = []
    for p, rev, _ in model.directions:
        Xd = X[::-1] if rev else X
        traces.append(gru_forward(Xd @ p.W_r.T, Xd @ p.W_z.T, Xd @ p.W.T, p))
    return (np.concatenate([trace.h_final for trace in traces]),
            EncoderCache(tokens=ids, X=X, traces=traces))


def encode_vectors(X: np.ndarray, model: EncoderModel) -> np.ndarray:
    """Encode from per-token input vectors instead of token ids (after
    vocabulary expansion, tokens resolve to vectors, not embedding rows): one
    sentence's encode_batch over its own rows, with an unbatched pass's bits."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.embed_dim:
        raise ShapeError(f"inputs must be (T, {model.embed_dim}), got {X.shape}")
    return encode_batch(X, np.arange(len(X))[:, None], [len(X)], model)[0]


def encode_batch(rows: np.ndarray, index: np.ndarray, lengths: Sequence[int],
                 model: EncoderModel) -> np.ndarray:
    """Encode B sentences from their (T, B) row matrix: index[t, b] is the
    row of `rows` that sentence b reads at step t < lengths[b], any row after.

    Each direction multiplies `rows` by W_r, W_z and W once, gathers the
    pre-activations by index and runs one gru_forward pass, whose trace lives
    only inside this call; sentence b's vector is S[T_b, b].  Padded steps
    come after a sentence's last, so no mask is needed; the reverse direction
    reads each sentence's rows reversed.  A row matches its sentence encoded
    alone within 1e-12 relative; one sentence over its own rows runs exactly
    encode_with_cache's products, so its bits match.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if 0 in lengths:
        raise InputError("cannot encode an empty input sequence")
    cols, steps = np.arange(len(lengths)), np.arange(len(index))[:, None]
    # Step t of a reversed sentence is its step T_b - 1 - t; padding stays.
    flip = np.where(steps < lengths, lengths - 1 - steps, steps)
    halves = []
    for p, rev, _ in model.directions:
        at = index[flip, cols] if rev else index
        gates = ((rows @ W.T).take(at, axis=0) for W in (p.W_r, p.W_z, p.W))
        halves.append(gru_forward(*gates, p).S[lengths, cols])
    return np.concatenate(halves, axis=1)


def encoder_backward(cache: EncoderCache, grad_output: np.ndarray,
                     model: EncoderModel, grads: ParamSet) -> None:
    """Add the gradients of a scalar loss with upstream `grad_output` =
    dL/d(encoding) into `grads`.

    grads holds every parameter's accumulator under its name: each direction's
    six matrices are added into its prefix's ("enc.W_r" ... "enc.U", then
    "enc_rev.*" when bidirectional), and the input rows, summed over the
    directions, are scatter-added into "emb" (the other rows are not touched).
    """
    if not isinstance(cache, EncoderCache):
        raise StateError("encoder_backward needs the cache from encode_with_cache")
    if len(cache.traces) != len(model.directions):
        raise StateError("cache direction structure does not match the model")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != (model.output_dim,):
        raise ShapeError(f"grad_output has shape {grad_output.shape}, "
                         f"expected ({model.output_dim},)")
    hid = model.hidden_dim
    # Only the final state h^T gets gradient from outside the recurrence.
    dH = np.zeros_like(cache.traces[0].R)
    dXs = []
    for i, (p, rev, prefix) in enumerate(model.directions):
        dH[-1] = grad_output[i * hid:(i + 1) * hid]
        g = gru_backward(cache.X[::-1] if rev else cache.X, cache.traces[i], dH, p)
        for k, v in g.params.items():
            grads[prefix + k] += v
        dXs.append(g.dX[::-1] if rev else g.dX)
    # Sentences repeat token ids, so the rows must be scatter-added.
    np.add.at(grads["emb"], list(cache.tokens), sum(dXs[1:], dXs[0]))
