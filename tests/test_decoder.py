"""Conditional GRU decoder: step equations, teacher-forced likelihood,
backward pass, and sampling.

Oracles: an independently coded step (re-derived from the update equations
inside the test), the reference step and step-at-a-time sampler of
reference.py, an unrolled likelihood recomputation, the finite-difference
checker, and a Monte-Carlo frequency check for the sampler.
"""

import numpy as np
import pytest
from skipgru import decoder, numerics
from skipgru.decoder import (DECODER_PREFIXES, ConditionalGruParams,
                             DecoderPair, decode_batch, decoder_backward,
                             output_layer, sample_sentence, sentence_log_prob)
from skipgru.encoder import GruParams, gru_forward
from skipgru.errors import (InputError, ParameterError, RangeError,
                            ShapeError, StateError)
from skipgru.numerics import sigmoid, softmax

import reference
from conftest import decoder_pass_backward, make_model
from reference import cond_gru_step, finite_diff_check, gru_step, log_softmax


def rand_cond_params(rng, embed=3, hidden=3, enc=3, scale=0.7):
    mats = {k: rng.uniform(-scale, scale, size=s) for k, s in [
        ("W_r", (hidden, embed)), ("W_z", (hidden, embed)),
        ("W", (hidden, embed)), ("U_r", (hidden, hidden)),
        ("U_z", (hidden, hidden)), ("U", (hidden, hidden)),
        ("C_r", (hidden, enc)), ("C_z", (hidden, enc)),
        ("C", (hidden, enc))]}
    return ConditionalGruParams(begin=rng.uniform(-scale, scale, size=embed),
                                **mats)


# ---------------------------------------------------------------------------
# one conditioned step: the kernel from a given state, and the reference step
# ---------------------------------------------------------------------------

def kernel_step(x, h_prev, h_enc, p):
    """One gru_forward step from h_prev with the conditioning added to the
    input pre-activations, as sample_sentence runs it."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    return gru_forward(X @ p.W_r.T + p.C_r @ h_enc, X @ p.W_z.T + p.C_z @ h_enc,
                       X @ p.W.T + p.C @ h_enc, p, h0=h_prev).S[-1]


def test_step_reduces_to_plain_gru_when_unconditioned(rng):
    p = rand_cond_params(rng)
    x, h_prev = rng.normal(size=3), rng.normal(size=3)
    plain = gru_step(x, h_prev, GruParams(W_r=p.W_r, W_z=p.W_z, W=p.W,
                                          U_r=p.U_r, U_z=p.U_z, U=p.U))
    assert np.max(np.abs(cond_gru_step(x, h_prev, np.zeros(3), p)
                         - plain.h)) < 1e-15
    assert np.max(np.abs(kernel_step(x, h_prev, np.zeros(3), p)
                         - plain.h)) < 1e-12


def test_step_scalar_conditioning_hand_computation():
    hidden = 2
    zero = np.zeros((hidden, 1))
    p = ConditionalGruParams(W_r=zero, W_z=zero, W=zero,
                             U_r=np.zeros((hidden, hidden)),
                             U_z=np.zeros((hidden, hidden)),
                             U=np.zeros((hidden, hidden)),
                             C_r=np.zeros((hidden, hidden)),
                             C_z=np.zeros((hidden, hidden)),
                             C=np.eye(hidden), begin=np.zeros(1))
    for step in (cond_gru_step, kernel_step):
        h = step(np.zeros(1), np.zeros(hidden), np.ones(hidden), p)
        assert np.max(np.abs(h - 0.5 * np.tanh(1.0))) < 1e-12   # ~0.38080


def _ref_cond_step(x, h_prev, h_enc, p):
    """Independent re-derivation of the conditioned update."""
    r = 1.0 / (1.0 + np.exp(-(p.W_r @ x + p.U_r @ h_prev + p.C_r @ h_enc)))
    z = 1.0 / (1.0 + np.exp(-(p.W_z @ x + p.U_z @ h_prev + p.C_z @ h_enc)))
    hbar = np.tanh(p.W @ x + p.U @ (r * h_prev) + p.C @ h_enc)
    return (1.0 - z) * h_prev + z * hbar


def test_step_matches_independent_oracle(rng):
    p = rand_cond_params(rng, embed=4, hidden=3, enc=2)
    x, h_prev, h_enc = (rng.normal(size=4), rng.normal(size=3),
                        rng.normal(size=2))
    want = _ref_cond_step(x, h_prev, h_enc, p)
    for step in (cond_gru_step, kernel_step):
        assert np.max(np.abs(step(x, h_prev, h_enc, p) - want)) < 1e-12


def test_step_shape_errors(rng):
    p = rand_cond_params(rng)
    with pytest.raises(ShapeError):
        cond_gru_step(np.zeros(5), np.zeros(3), np.zeros(3), p)
    with pytest.raises(ShapeError):
        cond_gru_step(np.zeros(3), np.zeros(3), np.zeros(9), p)
    V, emb = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    with pytest.raises(ShapeError):
        sample_sentence(np.zeros(9), p, V, emb, max_len=3, temperature=1.0,
                        seed=0)


# ---------------------------------------------------------------------------
# sentence_log_prob
# ---------------------------------------------------------------------------

def test_log_prob_uniform_model():
    # V = 0 makes every step a uniform softmax over the 2-word vocabulary.
    rng = np.random.default_rng(0)
    p = rand_cond_params(rng, embed=2, hidden=3, enc=3)
    V = np.zeros((2, 3))
    emb = rng.normal(size=(2, 2))
    target = (1, 1, 0)
    lp = sentence_log_prob(target, rng.normal(size=3), p, V, emb)
    assert abs(lp - 3 * np.log(0.5)) < 1e-12


def test_log_prob_nonpositive_and_prob_rows_normalized(rng):
    p = rand_cond_params(rng, embed=3, hidden=4, enc=2)
    V = rng.normal(size=(5, 4))
    emb = rng.normal(size=(5, 3))
    [want], cache = decode_batch([(2, 4, 1, 0)], rng.normal(size=(1, 2)), p,
                                 V, emb)
    # The output layer forms the logits of the block's states in the
    # leading rows of its scratch and no other row, and leaves them
    # exponentiated: each row over its sum is the softmax row, and the
    # log-likelihood is the sum of the logs of the target's entries.
    scratch = np.full((6, 5), np.nan)
    [lp] = output_layer(cache, slice(0, 1), V, scratch)
    assert lp == want and lp <= 0.0
    logits = cache.trace.S[1:, 0] @ V.T
    rows = scratch[:4] / scratch[:4].sum(axis=1)[:, None]
    assert np.all(np.isnan(scratch[4:]))
    assert np.max(np.abs(rows - softmax(logits))) < 1e-12
    assert np.max(np.abs(scratch[:4].max(axis=1) - 1.0)) == 0.0
    assert abs(lp - sum(np.log(rows[t, w])
                        for t, w in enumerate((2, 4, 1, 0)))) < 1e-12
    assert not cache.dS.any()


def test_log_prob_matches_unrolled_oracle(rng):
    p = rand_cond_params(rng, embed=3, hidden=3, enc=3)
    V = rng.normal(size=(6, 3))
    emb = rng.normal(size=(6, 3))
    h_enc = rng.normal(size=3)
    target = (2, 5, 3, 0)

    h = np.zeros(3)
    x = p.begin
    total = 0.0
    for w in target:
        h = _ref_cond_step(x, h, h_enc, p)
        total += float(log_softmax(V @ h)[w])
        x = emb[w]
    assert abs(sentence_log_prob(target, h_enc, p, V, emb) - total) < 1e-10


def test_log_prob_shift_invariant_logits(rng):
    # Adding a constant to every logit leaves the per-step softmax unchanged.
    p = rand_cond_params(rng)
    V = rng.normal(size=(4, 3))
    emb = rng.normal(size=(4, 3))
    h_enc = rng.normal(size=3)
    target = (2, 3, 0)

    def manual(shift):
        h, x, total = np.zeros(3), p.begin, 0.0
        for w in target:
            h = _ref_cond_step(x, h, h_enc, p)
            total += float(log_softmax(V @ h + shift)[w])
            x = emb[w]
        return total

    assert abs(manual(0.0) - manual(57.0)) < 1e-10
    assert abs(manual(0.0) -
               sentence_log_prob(target, h_enc, p, V, emb)) < 1e-10


def test_log_prob_range_errors(rng):
    p = rand_cond_params(rng)
    V = rng.normal(size=(4, 3))
    emb = rng.normal(size=(4, 3))
    with pytest.raises(RangeError):
        sentence_log_prob((9, 0), np.zeros(3), p, V, emb)
    with pytest.raises(RangeError):
        sentence_log_prob((), np.zeros(3), p, V, emb)


# ---------------------------------------------------------------------------
# decoder_backward
# ---------------------------------------------------------------------------

def zero_accumulator(p, V, emb):
    """Zero gradients for p's fields (no prefix), "V" (column-major) and
    "emb"."""
    return {k: np.zeros_like(v)
            for k, v in dict(p.as_dict(), V=np.asfortranarray(V),
                             emb=emb).items()}


def _fd_decoder(target):
    rng = np.random.default_rng(31)
    p = rand_cond_params(rng, embed=3, hidden=3, enc=2)
    V = rng.uniform(-0.7, 0.7, size=(5, 3))
    emb = rng.uniform(-0.7, 0.7, size=(5, 3))
    h_enc = rng.uniform(-0.7, 0.7, size=2)

    params = dict(p.as_dict(), V=V, emb=emb, h_enc=h_enc)

    def loss(ps):
        pp = ConditionalGruParams.from_dict(ps)
        return -sentence_log_prob(target, ps["h_enc"], pp, ps["V"],
                                  ps["emb"])

    grads = zero_accumulator(p, V, emb)
    _, _, g_henc = decoder_pass_backward(target, h_enc, p, V, emb, grads)
    return finite_diff_check(loss, params, dict(grads, h_enc=g_henc))


def test_backward_finite_difference_all_inputs():
    assert _fd_decoder((2, 4, 1, 0)) < 1e-5


def test_backward_finite_difference_repeated_inputs():
    # target[:-1] = (2, 4, 2, 2): three steps read embedding row 2.
    assert _fd_decoder((2, 4, 2, 2, 0)) < 1e-5


def test_backward_adds_into_column_major_v_accumulator(rng, monkeypatch):
    # Three passes run as one padded recurrence, and one output layer over
    # them forms their logits in one buffer, one pass after another:
    # BLAS accumulates into the column-major V gradient in place by one
    # call, whose output is the accumulator itself, and it ends with the
    # sums of the dense per-pass reference.  Each pass's state gradients
    # land in its column of the block, and its padded rows stay zero.
    results = []

    def recording_add_matmul(out, a, b):
        numerics.add_matmul(out, a, b)
        results.append(out)
    monkeypatch.setattr(decoder, "add_matmul", recording_add_matmul)
    p = rand_cond_params(rng, embed=3, hidden=3, enc=2)
    V, emb = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    targets = ((2, 4, 2, 0), (3, 0), (1, 1, 0))
    H_enc = rng.normal(size=(3, 2))
    lps, cache = decode_batch(targets, H_enc, p, V, emb)
    scratch = np.empty((sum(len(t) for t in targets), len(V)))
    start = rng.normal(size=V.shape)
    grads = zero_accumulator(p, V, emb)
    grads["V"][...] = start
    gV = grads["V"]
    log_probs = output_layer(cache, slice(0, 3), V, scratch, grads)
    # With its backward the output layer keeps the bits of its loss; a
    # pass of its own steps (1, hidden) rows, which may sum in another order.
    assert log_probs == lps
    alone = [sentence_log_prob(t, H_enc[b], p, V, emb)
             for b, t in enumerate(targets)]
    assert np.max(np.abs(np.subtract(log_probs, alone))) \
        < 1e-12 * np.max(np.abs(alone))
    assert grads["V"] is gV and len(results) == 1
    assert all(np.shares_memory(r, gV) for r in results)
    assert gV.flags.f_contiguous and not gV.flags.c_contiguous
    refs = [reference.decoder_backward(cache, b, p, V, emb)[0]["V"]
            for b in range(3)]
    want = start + sum(refs)
    assert np.max(np.abs(gV - want)) < 1e-12 * np.max(np.abs(want))
    for b, target in enumerate(targets):
        T = len(target)
        G = softmax(cache.trace.S[1:T + 1, b] @ V.T)
        G[np.arange(T), list(target)] -= 1.0
        assert np.max(np.abs(cache.dS[:T, b] - G @ V)) < 1e-12
        assert not cache.dS[T:, b].any()
    assert not any(np.any(g) for k, g in grads.items() if k != "V")


def test_backward_degenerate_vocab_zero_gradient(rng):
    # One-word vocabulary: every step has probability 1, the loss sits at its
    # minimum, and every gradient vanishes.
    p = rand_cond_params(rng, embed=2, hidden=3, enc=2)
    V = rng.normal(size=(1, 3))
    emb = rng.normal(size=(1, 2))
    grads = zero_accumulator(p, V, emb)
    lp, _, g_henc = decoder_pass_backward((0, 0, 0), rng.normal(size=2), p, V,
                                          emb, grads)
    assert abs(lp) < 1e-12
    assert all(np.max(np.abs(g)) < 1e-12 for g in grads.values())
    assert np.max(np.abs(g_henc)) < 1e-12


def test_backward_missing_cache_is_state_error(rng):
    p = rand_cond_params(rng)
    with pytest.raises(StateError):
        decoder_backward(None, p, {}, "")
    with pytest.raises(StateError):
        output_layer(None, slice(0, 1), np.zeros((4, 3)), np.empty((1, 4)),
                     {"V": np.zeros((4, 3), order="F")})


def test_decode_batch_of_no_passes_is_input_error(rng):
    grads = {"V": np.zeros((4, 3), order="F")}
    with pytest.raises(InputError):
        decode_batch([], np.zeros((0, 3)), rand_cond_params(rng),
                     rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), grads)
    assert not grads["V"].any()


# ---------------------------------------------------------------------------
# DecoderPair
# ---------------------------------------------------------------------------

def test_decoder_pair_rejects_shared_parameter_storage():
    p = rand_cond_params(np.random.default_rng(8), embed=3, hidden=4, enc=4)
    with pytest.raises(ParameterError):
        DecoderPair(next_params=p, prev_params=p, V=np.zeros((5, 4)))


def test_decoder_pair_init_shapes():
    pair = make_model(vocab_size=7, embed_dim=3, hidden_dim=4, mode="bi",
                      seed=9).decoders
    assert pair.V.shape == (7, 4)
    assert pair.next_params.C.shape == (4, 8)
    assert pair.prev_params.begin.shape == (3,)
    (nxt, next_prefix), (prv, prev_prefix) = pair.directions
    assert nxt is pair.next_params and prv is pair.prev_params
    assert (next_prefix, prev_prefix) == DECODER_PREFIXES
    assert not np.array_equal(pair.next_params.W, pair.prev_params.W)


# ---------------------------------------------------------------------------
# sample_sentence
# ---------------------------------------------------------------------------

def test_sample_greedy_is_deterministic(rng):
    p = rand_cond_params(rng, embed=3, hidden=3, enc=3)
    V = rng.normal(size=(5, 3))
    emb = rng.normal(size=(5, 3))
    h_enc = rng.normal(size=3)
    a = sample_sentence(h_enc, p, V, emb, max_len=6, temperature=0.0, seed=1)
    b = sample_sentence(h_enc, p, V, emb, max_len=6, temperature=0.0, seed=2)
    assert a == b and len(a) >= 1


def test_sample_seeded_reproducibility(rng):
    p = rand_cond_params(rng, embed=3, hidden=3, enc=3)
    V = rng.normal(size=(5, 3))
    emb = rng.normal(size=(5, 3))
    h_enc = rng.normal(size=3)
    a = sample_sentence(h_enc, p, V, emb, max_len=8, temperature=1.0, seed=42)
    b = sample_sentence(h_enc, p, V, emb, max_len=8, temperature=1.0, seed=42)
    assert a == b


def test_sample_forced_eos(rng):
    p = rand_cond_params(rng, embed=2, hidden=2, enc=2)
    V = np.array([[50.0, 50.0], [-50.0, -50.0]])    # eos logit dominates
    # h after one step has positive coordinates only if hbar > 0; force it.
    p = ConditionalGruParams(**{k: np.abs(getattr(p, k)) for k in
                                ("W_r", "W_z", "W", "U_r", "U_z", "U",
                                 "C_r", "C_z", "C")},
                             begin=np.abs(p.begin))
    out = sample_sentence(np.ones(2), p, V, np.ones((2, 2)), max_len=10,
                          temperature=1.0, seed=0)
    assert out == [0]


def test_sample_respects_max_len(rng):
    p = rand_cond_params(rng, embed=2, hidden=2, enc=2)
    V = np.array([[-50.0, -50.0], [50.0, 50.0]])    # eos never sampled
    out = sample_sentence(np.zeros(2), p, V, np.zeros((2, 2)), max_len=4,
                          temperature=0.0, seed=0)
    assert len(out) == 4 and 0 not in out


def test_sample_first_token_frequencies_match_softmax():
    rng = np.random.default_rng(77)
    p = rand_cond_params(rng, embed=2, hidden=3, enc=2)
    V = rng.normal(size=(3, 3))
    emb = rng.normal(size=(3, 2))
    h_enc = rng.normal(size=2)

    h1 = _ref_cond_step(p.begin, np.zeros(3), h_enc, p)
    want = softmax(V @ h1)
    counts = np.zeros(3)
    n = 10_000
    for s in range(n):
        first = sample_sentence(h_enc, p, V, emb, max_len=1,
                                temperature=1.0, seed=s)[0]
        counts[first] += 1
    assert np.max(np.abs(counts / n - want)) < 0.02


def test_sample_temperature_sharpens(rng):
    p = rand_cond_params(rng, embed=2, hidden=3, enc=2)
    V = rng.normal(size=(4, 3))
    emb = rng.normal(size=(4, 2))
    h_enc = rng.normal(size=2)
    greedy = sample_sentence(h_enc, p, V, emb, max_len=1, temperature=0.0,
                             seed=0)[0]
    cold = [sample_sentence(h_enc, p, V, emb, max_len=1, temperature=0.01,
                            seed=s)[0] for s in range(50)]
    assert all(w == greedy for w in cold)


@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0, 2.0])
def test_sample_matches_step_reference(rng, temperature):
    # The kernel sampler and the one-step-at-a-time sampler draw the same
    # words from the same seed.
    p = rand_cond_params(rng, embed=3, hidden=4, enc=2)
    V = rng.normal(size=(6, 4))
    emb = rng.normal(size=(6, 3))
    h_enc = rng.normal(size=2)
    for seed in range(8):
        assert sample_sentence(h_enc, p, V, emb, 12, temperature, seed) == \
            reference.sample_sentence(h_enc, p, V, emb, 12, temperature, seed)


def test_sample_parameter_errors(rng):
    p = rand_cond_params(rng)
    V = rng.normal(size=(4, 3))
    emb = rng.normal(size=(4, 3))
    with pytest.raises(ParameterError):
        sample_sentence(np.zeros(3), p, V, emb, max_len=0, temperature=1.0,
                        seed=0)
    for temperature in (-1.0, float("nan")):
        with pytest.raises(ParameterError):
            sample_sentence(np.zeros(3), p, V, emb, max_len=5,
                            temperature=temperature, seed=0)
