"""The time-hoisted GRU kernel against a per-step reference.

The reference below is backpropagation through time written one step at a
time: every step recomputes its input and conditioning products, and every
weight and embedding gradient is accumulated inside the loop (np.outer per
step, one embedding row at a time).  encoder_backward, and a decoder pass's
decode_batch followed by its decoder_backward, compute the same sums
as matrix products after the loop and add them into a gradient accumulator,
so they may differ from it only by float64 rounding, and leave every other
parameter's accumulator at zero.

gru_forward and gru_backward are checked against their own single-sequence
passes: a right-padded (T, B) pass against B passes of one sentence, and
gru_forward for the memory it takes beyond its trace and for the arrays it
is handed to write its trace into.  A train step runs one gru_backward per
decoder over the block that decoder's passes wrote.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import (decoder_pass_backward, lay_out, make_model,
                      random_triple, randomize_params, zero_grads)
from skipgru import decoder, encoder, trainer
from skipgru.encoder import (GruParams, GruTrace, encode_with_cache,
                             encoder_backward, gru_backward, gru_forward)
from skipgru.numerics import AdamState, sigmoid

from reference import log_softmax

GATE_KEYS = ("W_r", "W_z", "W", "U_r", "U_z", "U")
REL_TOL = 1e-12


def ref_forward(X, p, h_enc=None):
    """Per-step forward: the states entering each step and the gates."""
    cond = {k: (getattr(p, k) @ h_enc if h_enc is not None else 0.0)
            for k in ("C_r", "C_z", "C")}
    h = np.zeros(p.U.shape[0])
    steps = []
    for x in X:
        r = sigmoid(p.W_r @ x + p.U_r @ h + cond["C_r"])
        z = sigmoid(p.W_z @ x + p.U_z @ h + cond["C_z"])
        hbar = np.tanh(p.W @ x + p.U @ (r * h) + cond["C"])
        steps.append((h, r, z, hbar))
        h = (1.0 - z) * h + z * hbar
    return steps, h


def ref_backward(X, steps, dH, p, h_enc=None):
    """Per-step BPTT; returns (weight grads, per-step dx, grad of h_enc)."""
    keys = GATE_KEYS + (("C_r", "C_z", "C") if h_enc is not None else ())
    grads = {k: np.zeros_like(getattr(p, k)) for k in keys}
    dxs = [None] * len(X)
    g_henc = np.zeros_like(h_enc) if h_enc is not None else None
    g = np.zeros(p.U.shape[0])
    for t in range(len(X) - 1, -1, -1):
        g = g + dH[t]
        x, (h_prev, r, z, hbar) = X[t], steps[t]
        da_h = g * z * (1.0 - hbar * hbar)
        drh = p.U.T @ da_h
        da_r = drh * h_prev * r * (1.0 - r)
        da_z = g * (hbar - h_prev) * z * (1.0 - z)
        for gate, da in (("", da_h), ("_r", da_r), ("_z", da_z)):
            grads["W" + gate] += np.outer(da, x)
            grads["U" + gate] += np.outer(da, r * h_prev if gate == "" else h_prev)
            if h_enc is not None:
                grads["C" + gate] += np.outer(da, h_enc)
                g_henc += getattr(p, "C" + gate).T @ da
        dxs[t] = p.W.T @ da_h + p.W_r.T @ da_r + p.W_z.T @ da_z
        g = g * (1.0 - z) + drh * r + p.U_r.T @ da_r + p.U_z.T @ da_z
    return grads, dxs, g_henc


def ref_encoder_grads(tokens, enc, grad_output):
    """(sentence vector, gradients) as encode_with_cache/encoder_backward."""
    out = {"emb": np.zeros_like(enc.embedding)}
    finals = []
    hid = enc.hidden_dim
    dirs = [("enc.", enc.forward, list(tokens), grad_output[:hid])]
    if enc.backward is not None:
        dirs.append(("enc_rev.", enc.backward, list(tokens)[::-1],
                     grad_output[hid:]))
    for prefix, p, ids, g_final in dirs:
        Xd = enc.embedding[ids]
        steps, h_final = ref_forward(Xd, p)
        finals.append(h_final)
        dH = np.zeros((len(ids), hid))
        dH[-1] = g_final
        grads, dxs, _ = ref_backward(Xd, steps, dH, p)
        out.update({prefix + k: v for k, v in grads.items()})
        for i, dx in zip(ids, dxs):
            out["emb"][i] += dx
    return np.concatenate(finals), out


def ref_decoder_grads(target, h_enc, p, V, emb):
    """(log-likelihood, gradients, grad of h_enc) as the decoder computes."""
    X = np.vstack([p.begin] + [emb[i] for i in target[:-1]])
    steps, h_last = ref_forward(X, p, h_enc)
    H = np.vstack([s[0] for s in steps[1:]] + [h_last])
    logp = log_softmax(H @ V.T, axis=1)
    dlogits = np.exp(logp)
    dlogits[np.arange(len(target)), list(target)] -= 1.0
    grads, dxs, g_henc = ref_backward(X, steps, dlogits @ V, p, h_enc)
    grads["begin"] = dxs[0]
    grads["V"] = dlogits.T @ H
    grads["emb"] = np.zeros_like(emb)
    for i, dx in zip(target[:-1], dxs[1:]):
        grads["emb"][i] += dx
    return logp[np.arange(len(target)), list(target)].sum(), grads, g_henc


def rel_err(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


SENTENCES = [(0,), (3, 0), (2, 4, 2, 2, 0), (5, 1, 7, 5, 3, 2, 6, 4, 5, 0)]


@pytest.mark.parametrize("mode", ["uni", "bi"])
@pytest.mark.parametrize("tokens", SENTENCES)
def test_encoder_backward_matches_per_step_reference(mode, tokens):
    m = randomize_params(make_model(vocab_size=8, embed_dim=4, hidden_dim=5,
                                    mode=mode), seed=len(tokens))
    grad_output = np.random.default_rng(3).normal(size=m.encoder.output_dim)
    vec, cache = encode_with_cache(tokens, m.encoder)
    got = zero_grads(m)
    encoder_backward(cache, grad_output, m.encoder, got)
    want_vec, want = ref_encoder_grads(tokens, m.encoder, grad_output)
    assert rel_err(vec, want_vec) < REL_TOL
    for k in got:
        if k in want:
            assert rel_err(got[k], want[k]) < REL_TOL, k
        else:
            assert not got[k].any(), k


@pytest.mark.parametrize("mode", ["uni", "bi"])
@pytest.mark.parametrize("target", SENTENCES)
def test_decoder_backward_matches_per_step_reference(mode, target):
    m = randomize_params(make_model(vocab_size=8, embed_dim=4, hidden_dim=5,
                                    mode=mode), seed=10 + len(target))
    h_enc = np.random.default_rng(4).uniform(-0.9, 0.9, size=m.encoder.output_dim)
    p, V, emb = m.decoders.next_params, m.decoders.V, m.embedding
    got = zero_grads(m)
    logp, _, got_henc = decoder_pass_backward(target, h_enc, p, V, emb, got,
                                              "dec_next.")
    want_logp, want, want_henc = ref_decoder_grads(target, h_enc, p, V, emb)
    assert abs(logp - want_logp) < REL_TOL * abs(want_logp)
    want = {(k if k in ("V", "emb") else "dec_next." + k): v
            for k, v in want.items()}
    for k in got:
        if k in want:
            assert rel_err(got[k], want[k]) < REL_TOL, k
        else:
            assert not got[k].any(), k
    assert rel_err(got_henc, want_henc) < REL_TOL



def _random_gru(embed_dim, hidden_dim, seed):
    rng = np.random.default_rng(seed)
    W = [rng.uniform(-0.7, 0.7, size=(hidden_dim, embed_dim))
         for _ in range(3)]
    U = [rng.uniform(-0.7, 0.7, size=(hidden_dim, hidden_dim))
         / np.sqrt(hidden_dim) for _ in range(3)]
    return GruParams(*W, *U)


@pytest.mark.parametrize("h0", [0.0, "random"])
def test_batched_pass_matches_single_passes(h0):
    # Each column of a right-padded (T, B) pass is its sentence's own pass up
    # to the summation order of the (B, hidden) products; a batch of one runs
    # the single pass's products, so its bits match.
    hid, lengths = 6, (1, 3, 7, 7, 12)
    p = _random_gru(4, hid, seed=7)
    rng = np.random.default_rng(8)
    singles = [[rng.normal(size=(n, hid)) * 2 for _ in range(3)]
               for n in lengths]
    starts = [rng.uniform(-1, 1, size=hid) if h0 == "random" else 0.0
              for _ in lengths]
    T, B = max(lengths), len(lengths)
    padded = [np.zeros((T, B, hid)) for _ in range(3)]
    for b, A in enumerate(singles):
        for gate in range(3):
            padded[gate][:lengths[b], b] = A[gate]
    batch = gru_forward(*padded, p, h0=np.vstack([np.zeros(hid) + s
                                                   for s in starts]))
    for b, (n, A, start) in enumerate(zip(lengths, singles, starts)):
        one = gru_forward(*A, p, h0=start)
        for got, want in zip(batch, one):
            assert rel_err(got[:len(want), b], want) < REL_TOL
        alone = gru_forward(*(a[:, None] for a in A), p,
                            h0=np.zeros((1, hid)) + start)
        for got, want in zip(alone, one):
            assert np.array_equal(got[:, 0], want)


def test_forward_allocates_no_weight_sized_array():
    # A pass may allocate its trace and a few state-sized buffers, but no
    # (hidden, hidden) array: that would be a copy of a recurrent matrix
    # (for example U_r and U_z stacked) on every call.
    hid = 512
    p = _random_gru(8, hid, seed=9)
    A = [np.random.default_rng(10).normal(size=(2, hid)) for _ in range(3)]
    gru_forward(*A, p)
    tracemalloc.start()
    try:
        trace = gru_forward(*A, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    trace_bytes = sum(a.nbytes for a in trace)
    assert peak - trace_bytes < p.U.nbytes


def test_forward_writes_its_trace_into_the_arrays_it_is_handed():
    # Handed column b of (T, B, ...) blocks, as a decoder pass hands its
    # column of the decoder's block, a one-sequence pass writes its trace
    # there with the bits of a pass that makes its own arrays, and leaves
    # every other entry of the blocks as it was.
    hid, T = 6, 5
    p = _random_gru(4, hid, seed=11)
    A = [np.random.default_rng(12).normal(size=(T, hid)) for _ in range(3)]
    S, RZ, Hbar = (np.zeros((T + 2, 3, hid)), np.zeros((T + 1, 3, 2, hid)),
                   np.zeros((T + 1, 3, hid)))
    trace = gru_forward(*A, p, out=(S[:T + 1, 1], RZ[:T, 1], Hbar[:T, 1]))
    for got, want, block in zip(trace, gru_forward(*A, p), (S, RZ, RZ, Hbar)):
        assert np.shares_memory(got, block)
        assert np.array_equal(got, want)
    for block, steps in ((S, T + 1), (RZ, T), (Hbar, T)):
        assert not block[:, [0, 2]].any() and not block[steps:].any()


def pad(arrays):
    """Right-pad (T_b, ...) arrays with zeros into one (T, B, ...) block, T
    the longest T_b: the batch layout of gru_forward and gru_backward."""
    out = np.zeros((max(map(len, arrays)), len(arrays)) + arrays[0].shape[1:])
    for b, a in enumerate(arrays):
        out[:len(a), b] = a
    return out


def _padded_backward_case(lengths, seed, hid=6, embed=4):
    """B single passes over random inputs, their traces and state
    gradients, and the same passes right-padded into one (T, B) batch."""
    p = _random_gru(embed, hid, seed=seed)
    rng = np.random.default_rng(seed + 1)
    Xs = [rng.normal(size=(n, embed)) for n in lengths]
    traces = [gru_forward(*(X @ W.T for W in (p.W_r, p.W_z, p.W)), p)
              for X in Xs]
    dHs = [rng.normal(size=(n, hid)) for n in lengths]
    padded = pad(Xs), GruTrace(*map(pad, zip(*traces))), pad(dHs)
    return p, list(zip(Xs, traces, dHs)), padded


def test_padded_backward_matches_single_passes():
    # Lengths 1 to 12; dH is nonzero only on real steps.  Each column of the
    # padded pass is its sequence's own backward pass up to the summation
    # order of the (B, hidden) products, its padded rows are zero, and each
    # weight gradient is the sum over the single passes.
    lengths = (1, 3, 7, 7, 12, 2, 9)
    p, singles, padded = _padded_backward_case(lengths, seed=21)
    batch = gru_backward(*padded, p)
    wants = [gru_backward(X, trace, dH, p) for X, trace, dH in singles]
    for b, (n, want) in enumerate(zip(lengths, wants)):
        for field in ("dX", "DA_r", "DA_z", "DA_h"):
            got = getattr(batch, field)[:, b]
            assert rel_err(got[:n], getattr(want, field)) < REL_TOL, field
            assert not got[n:].any(), field
    for k, got in batch.params.items():
        assert rel_err(got, sum(w.params[k] for w in wants)) < REL_TOL, k


def test_backward_batch_of_one_keeps_the_bits_of_a_single_pass():
    p, [(X, trace, dH)], _ = _padded_backward_case((9,), seed=22)
    one = gru_backward(X, trace, dH, p)
    alone = gru_backward(X[:, None], GruTrace(*(a[:, None] for a in trace)),
                         dH[:, None], p)
    for k in one.params:
        assert np.array_equal(alone.params[k], one.params[k]), k
    for field in ("dX", "DA_r", "DA_z", "DA_h"):
        assert np.array_equal(getattr(alone, field)[:, 0],
                              getattr(one, field)), field


def test_backward_extra_zero_padding_leaves_the_weight_gradients():
    p, _, padded = _padded_backward_case((4, 6, 2), seed=23)

    def extend(a, steps=3):
        return np.concatenate([a, np.zeros((steps,) + a.shape[1:])])
    X, trace, dH = padded
    want = gru_backward(X, trace, dH, p)
    got = gru_backward(extend(X), GruTrace(*map(extend, trace)), extend(dH), p)
    for k in want.params:
        assert np.array_equal(got.params[k], want.params[k]), k
    assert np.array_equal(got.dX[:len(X)], want.dX)
    assert not got.dX[len(X):].any()


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_train_step_runs_one_backward_pass_per_decoder(mode, monkeypatch):
    # Per train step: one gru_backward per encoder direction and triple, and
    # one per decoder over all of its passes, right-padded to (T, B); and
    # decoder_backward twice, next decoder first.
    backward_batches, decoder_calls = [], []
    real_gru_backward = gru_backward
    real_decoder_backward = trainer.decoder_backward

    def recording_gru_backward(X, trace, dH, p):
        backward_batches.append(X.shape[1:-1])
        return real_gru_backward(X, trace, dH, p)

    def recording_decoder_backward(cache, p, grads, prefix):
        decoder_calls.append((prefix, len(cache.targets)))
        return real_decoder_backward(cache, p, grads, prefix)
    for module in (encoder, decoder):
        monkeypatch.setattr(module, "gru_backward", recording_gru_backward)
    monkeypatch.setattr(trainer, "decoder_backward", recording_decoder_backward)
    rng = np.random.default_rng(24)
    batch = [random_triple(9, rng, max_len=6) for _ in range(5)]
    m = lay_out(randomize_params(make_model(vocab_size=9, embed_dim=3,
                                            hidden_dim=4, mode=mode), seed=25))
    trainer.train_step(m, batch, AdamState.initial(m.param_dict()), m.config)
    directions = len(m.encoder.directions)
    assert backward_batches == [(5,), (5,)] + [()] * (directions * len(batch))
    assert decoder_calls == [("dec_next.", 5), ("dec_prev.", 5)]
