"""Test oracles: plain reference implementations that the package's fast
paths are checked against, and the central-difference gradient check.

None of these run in the package itself.  Each is the straightforward form of
something the package computes in bulk:
- one GRU step and one conditioned decoder step (gru_forward runs all steps
  over hoisted input products), and the sampler built on the decoder step
  (decoder.sample_sentence steps the kernel instead);
- one triple's gradients as dense per-pass arrays: each encoder and decoder
  pass returns its own full (vocab, embed) embedding gradient and each decoder
  its own (vocab, hidden) V gradient from a (T, vocab) softmax of logits it
  forms again from the cached states (the package adds every pass into one
  accumulator per train step, and runs the output layer over groups of
  passes from the softmax rows that their forward passes left in a shared
  buffer);
- a model's initial weights from a chain of builders, one per GRU, encoder
  and decoder pair, that share one random stream (SkipGruModel.init draws
  each entry of trainer.param_shapes in turn);
- the cosine score of one image-sentence pair (ranking scores whole batches);
- the ranking loss with one loop iteration per hinge, and retrieval ranks
  with one sort per query (ranking builds both with array indexing);
- average ranks with ties, one run of ties at a time (probes forms them
  with array operations);
- the expectation of one 5-bin relatedness distribution
  (probes.predict_scores does it per row);
- the logistic-regression objective as a log-softmax pass for the loss and a
  separate softmax pass for the gradient, each taking its own row max, shift
  and exp (probes.logreg_objective shifts and exponentiates once for both);
- Adam as one expression per array, returning new parameters and moments
  (numerics.adam_step applies the same operations to the caller's arrays in
  place, block by block);
- encoding lines one at a time with the unrolled recurrence
  (vocab_expansion.encode_sentences runs length-sorted, padded batches);
- the words nearest_words ranks, one locate call per word
  (nearest_words forms their rows as one matrix);
- tokenizing one line at a time with rules that begin with a lookbehind, and
  a sentence's token ids from its own tokenize call (corpus tokenizes blocks
  of lines joined by "\n", with rules that begin at a literal).
"""

import math
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from skipgru.corpus import SENTENCE_CAP, SentenceTriple, Vocabulary
from skipgru.decoder import (COND_CONDITIONING_KEYS, COND_KEYS,
                             ConditionalGruParams, DecoderCache, DecoderPair,
                             sentence_log_prob_with_cache)
from skipgru.encoder import (GRU_INPUT_KEYS, GRU_RECURRENT_KEYS, EncoderCache,
                             EncoderModel, GruParams, GruTrace,
                             encode_with_cache, gru_backward)
from skipgru.errors import (InputError, MetricError, NumericError,
                            ParameterError, ShapeError)
from skipgru.numerics import (ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                              AdamState, ParamSet, get_rng, orthogonal_init,
                              seed_tuple, sigmoid, softmax, uniform_init)
from skipgru.probes import SCORE_BINS
from skipgru.ranking import RankingModel, RankTrainConfig, _contrastive_draws
from skipgru.trainer import INIT_RANGE, SkipGruModel, TrainConfig


_PUNCT = re.compile(r"([^\w\s'])")
_NT = re.compile(r"(?<=\w)(n't)\b")
_CLITIC = re.compile(r"(?<=\w)('ll|'re|'ve|'d|'s|'m)\b")
_LONE_APOSTROPHE = re.compile(r"(?<!\w)'|'(?!\w)")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens of one line with punctuation and contractions split
    off, each rule applied to the line alone."""
    t = text.lower()
    t = _PUNCT.sub(r" \1 ", t)
    t = _LONE_APOSTROPHE.sub(" ' ", t)
    t = _NT.sub(r" \1", t)
    t = _CLITIC.sub(r" \1", t)
    return t.split()


def encode_sentence(sentence: str, vocab: Vocabulary) -> tuple[int, ...]:
    """Token ids of the sentence's first SENTENCE_CAP tokens, plus eos."""
    tokens = tokenize(sentence)[:SENTENCE_CAP]
    return tuple(vocab.ids_for(tokens)) + (vocab.eos_id,)


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


def init_gru_params(embed_dim: int, hidden_dim: int, seed) -> GruParams:
    """Input matrices uniform [-0.1, 0.1); recurrent matrices orthogonal."""
    rng = get_rng(seed)
    fields = {}
    for key in GRU_INPUT_KEYS:
        fields[key] = uniform_init(hidden_dim, embed_dim, -INIT_RANGE, INIT_RANGE, rng)
    for key in GRU_RECURRENT_KEYS:
        fields[key] = orthogonal_init(hidden_dim, hidden_dim, rng)
    return GruParams(**fields)


def init_encoder(vocab_size: int, embed_dim: int, hidden_dim: int, mode: str,
                 seed) -> EncoderModel:
    rng = get_rng(seed)
    emb = uniform_init(vocab_size, embed_dim, -INIT_RANGE, INIT_RANGE, rng)
    fwd = init_gru_params(embed_dim, hidden_dim, rng)
    bwd = init_gru_params(embed_dim, hidden_dim, rng) if mode == "bi" else None
    return EncoderModel(embedding=emb, forward=fwd, backward=bwd)


def init_conditional_gru(embed_dim: int, hidden_dim: int, enc_dim: int,
                         seed) -> ConditionalGruParams:
    """The GRU matrices as init_gru_params draws them, then the conditioning
    matrices and the begin vector uniform [-0.1, 0.1) from the same stream."""
    rng = get_rng(seed)
    gru = init_gru_params(embed_dim, hidden_dim, rng)
    cond = {key: uniform_init(hidden_dim, enc_dim, -INIT_RANGE, INIT_RANGE, rng)
            for key in COND_CONDITIONING_KEYS}
    begin = uniform_init(1, embed_dim, -INIT_RANGE, INIT_RANGE, rng)[0]
    return ConditionalGruParams(**gru.as_dict(), **cond, begin=begin)


def init_decoder_pair(vocab_size: int, embed_dim: int, hidden_dim: int,
                      enc_dim: int, seed) -> DecoderPair:
    rng = get_rng(seed)
    nxt = init_conditional_gru(embed_dim, hidden_dim, enc_dim, rng)
    prv = init_conditional_gru(embed_dim, hidden_dim, enc_dim, rng)
    V = uniform_init(vocab_size, hidden_dim, -INIT_RANGE, INIT_RANGE, rng)
    return DecoderPair(next_params=nxt, prev_params=prv, V=V)


def init_model(vocab: Vocabulary, config: TrainConfig) -> SkipGruModel:
    """The encoder, then the decoder pair, drawn by the builders above from
    the one stream that SkipGruModel.init draws from."""
    rng = get_rng(seed_tuple(config.seed, "init"))
    enc = init_encoder(config.vocab_size, config.embed_dim, config.hidden_dim,
                       config.mode, rng)
    dec = init_decoder_pair(config.vocab_size, config.embed_dim,
                            config.hidden_dim, config.encoder_dim, rng)
    return SkipGruModel(config=config, vocab=vocab, encoder=enc, decoders=dec)


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
    if x.shape != p.W_r.shape[1:]:
        raise ShapeError(f"input has shape {x.shape}, expected {p.W_r.shape[1:]}")
    if h_prev.shape != (p.hidden_dim,):
        raise ShapeError(f"state has shape {h_prev.shape}, expected ({p.hidden_dim},)")
    r = sigmoid(p.W_r @ x + p.U_r @ h_prev)
    z = sigmoid(p.W_z @ x + p.U_z @ h_prev)
    hbar = np.tanh(p.W @ x + p.U @ (r * h_prev))
    h = (1.0 - z) * h_prev + z * hbar
    return GruStep(h=h, r=r, z=z, hbar=hbar)


def cond_gru_step(x: np.ndarray, h_prev: np.ndarray, h_enc: np.ndarray,
                  p: ConditionalGruParams) -> np.ndarray:
    """One conditioned decoder step; with h_enc = 0 this is the plain GRU step."""
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    h_enc = np.asarray(h_enc, dtype=np.float64)
    if x.shape != p.W_r.shape[1:]:
        raise ShapeError(f"input has shape {x.shape}, expected {p.W_r.shape[1:]}")
    if h_prev.shape != (p.hidden_dim,):
        raise ShapeError(f"state has shape {h_prev.shape}, expected ({p.hidden_dim},)")
    if h_enc.shape != (p.enc_dim,):
        raise ShapeError(f"conditioning vector has shape {h_enc.shape}, "
                         f"expected ({p.enc_dim},)")
    r = sigmoid(p.W_r @ x + p.U_r @ h_prev + p.C_r @ h_enc)
    z = sigmoid(p.W_z @ x + p.U_z @ h_prev + p.C_z @ h_enc)
    hbar = np.tanh(p.W @ x + p.U @ (r * h_prev) + p.C @ h_enc)
    return (1.0 - z) * h_prev + z * hbar


def sample_sentence(h_enc, p: ConditionalGruParams, V, embedding, max_len: int,
                    temperature: float, seed, eos_id: int = 0) -> list[int]:
    """The sampler one cond_gru_step at a time, drawing from the same stream."""
    rng = get_rng(seed)
    h, x, out = np.zeros(p.hidden_dim), p.begin, []
    for _ in range(max_len):
        h = cond_gru_step(x, h, h_enc, p)
        logits = V @ h
        if temperature == 0.0:
            w = int(np.argmax(logits))
        else:
            w = int(rng.choice(V.shape[0], p=softmax(logits / temperature)))
        out.append(w)
        if w == eos_id:
            break
        x = embedding[w]
    return out


def encoder_backward(cache: EncoderCache, grad_output: np.ndarray,
                     model: EncoderModel) -> ParamSet:
    """One encoder pass's gradients: a full-table "emb" (untouched rows stay
    zero), "enc.*", and "enc_rev.*" when bidirectional."""
    hid = model.hidden_dim
    demb = np.zeros_like(model.embedding)
    dH = np.zeros_like(cache.traces[0].R)
    dH[-1] = grad_output[:hid]
    fwd = gru_backward(cache.X, cache.traces[0], dH, model.forward)
    out: ParamSet = {"emb": demb}
    out.update({"enc." + k: v for k, v in fwd.params.items()})
    dX = fwd.dX
    if model.backward is not None:
        dH[-1] = grad_output[hid:]
        bwd = gru_backward(cache.X[::-1], cache.traces[1], dH, model.backward)
        out.update({"enc_rev." + k: v for k, v in bwd.params.items()})
        dX = dX + bwd.dX[::-1]
    np.add.at(demb, list(cache.tokens), dX)
    return out


def decoder_backward(cache: DecoderCache, b: int, p: ConditionalGruParams,
                     V: np.ndarray, embedding: np.ndarray
                     ) -> tuple[ParamSet, np.ndarray]:
    """Pass b's gradients (the nine matrices, "begin", a dense "V" and a
    full-table "emb") and its gradient into h_enc, from its unpadded column
    of the cache's block.  The softmax rows are recomputed from the cached
    states, not read from the forward's rows."""
    target, h_enc = cache.targets[b], cache.H_enc[b]
    T = len(target)
    X = cache.X[:T, b]
    S, R, Z, Hbar = cache.trace
    trace = GruTrace(S[:T + 1, b], R[:T, b], Z[:T, b], Hbar[:T, b])
    dlogits = softmax(trace.S[1:] @ V.T)
    dlogits[np.arange(T), list(target)] -= 1.0
    back = gru_backward(X, trace, dlogits @ V, p)
    grads = dict(back.params)
    da_r, da_z, da_h = back.DA_r.sum(0), back.DA_z.sum(0), back.DA_h.sum(0)
    grads.update(C_r=np.outer(da_r, h_enc), C_z=np.outer(da_z, h_enc),
                 C=np.outer(da_h, h_enc), begin=back.dX[0],
                 V=dlogits.T @ trace.S[1:], emb=np.zeros_like(embedding))
    np.add.at(grads["emb"], list(target[:-1]), back.dX[1:])
    g_henc = p.C.T @ da_h + p.C_r.T @ da_r + p.C_z.T @ da_z
    return grads, g_henc


def decode(target, h_enc, p: ConditionalGruParams, V, embedding
           ) -> tuple[float, DecoderCache]:
    """The package's forward pass of one target, in a one-pass block."""
    cache = DecoderCache.block([target], h_enc[None], p)
    lp = sentence_log_prob_with_cache(target, h_enc, p, V, embedding,
                                      np.empty((len(target), len(V))), cache, 0)
    return lp, cache


def triple_grads(model, triple: SentenceTriple) -> tuple[float, ParamSet]:
    """Loss and a fresh dense gradient set for one triple (a SkipGruModel)."""
    emb, V = model.embedding, model.decoders.V
    h, enc_cache = encode_with_cache(triple.curr, model.encoder)
    # The forward passes are the package's; their softmax rows go unread,
    # since decoder_backward forms its own softmax.
    dec = model.decoders
    lp_next, cache_n = decode(triple.next, h, dec.next_params, V, emb)
    lp_prev, cache_p = decode(triple.prev, h, dec.prev_params, V, emb)
    g_next, gh_next = decoder_backward(cache_n, 0, dec.next_params, V, emb)
    g_prev, gh_prev = decoder_backward(cache_p, 0, dec.prev_params, V, emb)
    g_enc = encoder_backward(enc_cache, gh_next + gh_prev, model.encoder)
    grads: ParamSet = {"emb": g_enc["emb"] + g_next["emb"] + g_prev["emb"]}
    grads.update((k, v) for k, v in g_enc.items() if k != "emb")
    for k in COND_KEYS:
        grads["dec_next." + k] = g_next[k]
        grads["dec_prev." + k] = g_prev[k]
    grads["V"] = g_next["V"] + g_prev["V"]
    return -(lp_next + lp_prev), grads


def pair_score(x: np.ndarray, y: np.ndarray, model: RankingModel) -> float:
    """cosine(Ux, Vy) in [-1, 1]."""
    a = model.U @ np.asarray(x, dtype=np.float64)
    b = model.V @ np.asarray(y, dtype=np.float64)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise MetricError("zero-norm embedded vector; cosine score undefined")
    return float(a @ b) / (na * nb)


def ranking_grads(X: np.ndarray, Y: np.ndarray, model: RankingModel,
                  config: RankTrainConfig,
                  contrastive_seed) -> tuple[float, dict[str, np.ndarray]]:
    """The hinge loss and its gradients, visiting one hinge at a time.

    Scores, draws and the cosine backward are computed as the package computes
    them; only the hinge terms and the weight table G are built in the loop,
    so the loss may differ by summation order and G must agree exactly.
    """
    A, B = X @ model.U.T, Y @ model.V.T
    na, nb = np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1)
    Ahat, Bhat = A / na[:, None], B / nb[:, None]
    S = Ahat @ Bhat.T
    n = len(X)
    sent, img = _contrastive_draws(n, config.k_contrastive,
                                   get_rng(contrastive_seed))
    G = np.zeros((n, n))
    loss = 0.0
    for i in range(n):
        pos = S[i, i]
        for j in sent[i]:
            term = config.alpha - pos + S[i, j]
            if term > 0.0:
                loss += term
                G[i, i] -= 1.0
                G[i, j] += 1.0
        for j in img[i]:
            term = config.alpha - pos + S[j, i]
            if term > 0.0:
                loss += term
                G[i, i] -= 1.0
                G[j, i] += 1.0
    GS = G * S
    dA = (G @ Bhat - GS.sum(axis=1)[:, None] * Ahat) / na[:, None]
    dB = (G.T @ Ahat - GS.sum(axis=0)[:, None] * Bhat) / nb[:, None]
    return float(loss), {"U": dA.T @ X, "V": dB.T @ Y}


def retrieval_ranks(images: np.ndarray, captions: np.ndarray,
                    model: RankingModel, group_size: int) -> dict:
    """Per direction, the rank of each query's best ground-truth candidate,
    one stable sort per query; caption j belongs to image j // group_size."""
    A, B = images @ model.U.T, captions @ model.V.T
    S = (A / np.linalg.norm(A, axis=1)[:, None]) @ \
        (B / np.linalg.norm(B, axis=1)[:, None]).T

    def best_truth(S, truth):
        out = []
        for q in range(len(S)):
            order = np.argsort(-S[q], kind="stable")
            pos = np.empty(S.shape[1], dtype=int)
            pos[order] = np.arange(1, S.shape[1] + 1)
            out.append(int(pos[truth[q]].min()))
        return np.array(out)

    n, g = len(images), group_size
    return {"annotation": best_truth(S, [range(i * g, (i + 1) * g)
                                         for i in range(n)]),
            "search": best_truth(S.T, [[j // g] for j in range(len(captions))])}


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks in sorted order; a run of equal values shares its mean."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def distribution_to_score(p_hat: np.ndarray) -> float:
    """Expectation r^T p_hat over the bins r = [1..5]."""
    p = np.asarray(p_hat, dtype=np.float64)
    if p.shape != (5,):
        raise InputError(f"expected a 5-bin distribution, got shape {p.shape}")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-6:
        raise InputError("p_hat must be nonnegative and sum to 1 within 1e-6")
    return float(SCORE_BINS @ p)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(softmax(logits)) computed without forming small exponentials."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def logreg_objective(w_flat: np.ndarray, X: np.ndarray, T: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy + (l2/2)||W||^2 and its gradient, the loss through
    log_softmax and the gradient through softmax of the same logits."""
    n, F = X.shape
    C = T.shape[1]
    W = w_flat[:C * F].reshape(C, F)
    b = w_flat[C * F:]
    logits = X @ W.T + b
    loss = -float(np.sum(T * log_softmax(logits, axis=1))) / n \
        + 0.5 * l2 * float(np.sum(W * W))
    dlogits = (softmax(logits) - T) / n
    dW = dlogits.T @ X + l2 * W
    db = dlogits.sum(axis=0)
    return loss, np.concatenate([dW.ravel(), db])


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState,
              alpha: float = ADAM_ALPHA) -> tuple[ParamSet, AdamState]:
    """The bias-corrected Adam update as one expression per array, each
    building its own temporaries, under the default betas and epsilon;
    returns (new params, new state) and leaves its inputs unchanged
    (numerics.adam_step applies the same operations, in the same order, to
    the parameters and moments in place)."""
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m = b1 * state.m[k] + (1.0 - b1) * g
        v = b2 * state.v[k] + (1.0 - b2) * (g * g)
        new_m[k] = m
        new_v[k] = v
        new_p[k] = p - alpha * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return new_p, replace(state, step=t, m=new_m, v=new_v)


def encode_lines(lines, lookups) -> np.ndarray:
    """Each line encoded alone, one gru_step per token of the unrolled
    recurrence (the reverse direction over the reversed tokens), each model's
    vector concatenated per line.  Tokens resolve through lookup.resolve, so a
    map-less lookup gives the native embedding or unk as ids do.  (The
    package encodes each distinct line once, in length-sorted padded batches
    over hoisted input products.)"""
    out = []
    for line in lines:
        vec = []
        for lk in lookups:
            model = lk.model
            X = [lk.resolve(t)[1] for t in tokenize(line)]
            X.append(model.embedding[model.vocab.eos_id])
            enc = model.encoder
            for p, seq in ((enc.forward, X), (enc.backward, X[::-1])):
                if p is None:
                    continue
                h = np.zeros(p.hidden_dim)
                for x in seq:
                    h = gru_step(x, h, p).h
                vec.append(h)
        out.append(np.concatenate(vec))
    return np.vstack(out)


def union_words(lookup) -> list[str]:
    """The native words, then (under a map) each external word that locates
    to its own index: not a cased copy such as "Holiday" of a native
    "holiday"."""
    ext = lookup.ext.tokens if lookup.map is not None else []
    return lookup.model.vocab.id_to_token[2:] + [
        t for i, t in enumerate(ext) if lookup.locate(t) == ("mapped", i)]
