"""GRU encoder: step equations, full-sequence encoding, BPTT gradients.

Oracles: scalar hand computations of one step, an explicit unrolled
recurrence that re-applies gru_step token by token, and the central-difference
gradient checker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, make_vocab, randomize_params, zero_grads
from reference import finite_diff_check, gru_step
from skipgru.encoder import (EncoderModel, GruParams, encode_vectors,
                             encode_with_cache, encoder_backward)
from skipgru.errors import InputError, RangeError, ShapeError
from skipgru.trainer import model_from_params


def zero_params(embed, hidden):
    return GruParams(W_r=np.zeros((hidden, embed)),
                     W_z=np.zeros((hidden, embed)),
                     W=np.zeros((hidden, embed)),
                     U_r=np.zeros((hidden, hidden)),
                     U_z=np.zeros((hidden, hidden)),
                     U=np.zeros((hidden, hidden)))


# ---------------------------------------------------------------------------
# gru_step
# ---------------------------------------------------------------------------

def test_step_all_zero():
    out = gru_step(np.zeros(3), np.zeros(2), zero_params(3, 2))
    assert np.allclose(out.r, 0.5) and np.allclose(out.z, 0.5)
    assert np.array_equal(out.hbar, np.zeros(2))
    assert np.array_equal(out.h, np.zeros(2))


def test_step_zero_state_algebraic_identity(rng):
    # With h_prev = 0 the (1 - z) * h_prev term vanishes: h = z * tanh(W x).
    p = GruParams(*[rng.normal(size=s) for s in
                    [(2, 3)] * 3 + [(2, 2)] * 3])
    x = rng.normal(size=3)
    out = gru_step(x, np.zeros(2), p)
    want = out.z * np.tanh(p.W @ x)
    assert np.max(np.abs(out.h - want)) < 1e-12


def test_step_scalar_hand_computation():
    p = GruParams(W_r=np.zeros((1, 1)), W_z=np.zeros((1, 1)),
                  W=np.ones((1, 1)), U_r=np.zeros((1, 1)),
                  U_z=np.zeros((1, 1)), U=np.zeros((1, 1)))
    out = gru_step(np.ones(1), np.zeros(1), p)
    assert abs(out.r[0] - 0.5) < 1e-12 and abs(out.z[0] - 0.5) < 1e-12
    assert abs(out.hbar[0] - np.tanh(1.0)) < 1e-12
    assert abs(out.h[0] - 0.5 * np.tanh(1.0)) < 1e-12    # ~0.38080


def test_step_shape_error():
    with pytest.raises(ShapeError):
        gru_step(np.zeros(4), np.zeros(2), zero_params(3, 2))


@given(st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_step_gates_strictly_inside_unit_interval(seed):
    # Strict in exact arithmetic; float64 saturates past |a| ~ 37, so the
    # property is exercised at magnitudes the format can resolve.
    rng = np.random.default_rng(seed)
    p = GruParams(*[rng.normal(size=s) for s in
                    [(3, 2)] * 3 + [(3, 3)] * 3])
    out = gru_step(rng.normal(size=2) * 2, rng.normal(size=3), p)
    assert np.all(out.r > 0) and np.all(out.r < 1)
    assert np.all(out.z > 0) and np.all(out.z < 1)


@given(st.integers(0, 1000), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_hidden_state_stays_in_tanh_box(seed, length):
    # h is a per-coordinate convex mix of h_prev and tanh output, and h0 = 0,
    # so every coordinate stays inside [-1, 1] for the whole sequence.
    rng = np.random.default_rng(seed)
    p = GruParams(*[rng.normal(size=s) * 2 for s in
                    [(3, 2)] * 3 + [(3, 3)] * 3])
    h = np.zeros(3)
    for _ in range(length):
        h = gru_step(rng.normal(size=2) * 4, h, p).h
        assert np.all(np.abs(h) <= 1.0)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_single_eos_token_is_one_step():
    m = randomize_params(make_model(vocab_size=5, embed_dim=3, hidden_dim=2),
                         seed=4)
    out = gru_step(m.encoder.embedding[0], np.zeros(2), m.encoder.forward)
    assert np.max(np.abs(encode_with_cache((0,), m.encoder)[0] - out.h)) < 1e-12


def test_encode_zero_weights_zero_vector():
    m = make_model(vocab_size=5, embed_dim=3, hidden_dim=2)
    params = {k: np.zeros_like(v) for k, v in m.param_dict().items()}
    z = model_from_params(m.config, m.vocab, params)
    assert np.array_equal(encode_with_cache((2, 3, 0), z.encoder)[0],
                          np.zeros(2))


def test_encode_matches_unrolled_recurrence():
    m = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=4,
                                    seed=7), seed=7)
    tokens = (2, 5, 0)
    h = np.zeros(4)
    for t in tokens:
        h = gru_step(m.encoder.embedding[t], h, m.encoder.forward).h
    assert np.max(np.abs(encode_with_cache(tokens, m.encoder)[0] - h)) < 1e-12


def test_encode_empty_and_out_of_range():
    m = make_model(vocab_size=5)
    with pytest.raises(InputError):
        encode_with_cache((), m.encoder)
    with pytest.raises(RangeError):
        encode_with_cache((99, 0), m.encoder)


def test_encode_permutation_sensitive():
    m = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=3),
                         seed=11)
    a = encode_with_cache((2, 3, 4, 0), m.encoder)[0]
    b = encode_with_cache((4, 3, 2, 0), m.encoder)[0]
    assert np.max(np.abs(a - b)) > 1e-6


# ---------------------------------------------------------------------------
# bidirectional and combined
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["uni", "bi"])
@pytest.mark.parametrize("embed_dim,hidden_dim", [(3, 3), (64, 128)])
def test_encode_vectors_of_embedding_rows_is_encode_bit_for_bit(
        mode, embed_dim, hidden_dim):
    # encode_vectors is encode_batch of one sentence, which runs exactly the
    # products of encode_with_cache's pass: from the rows that token ids
    # index, it gives that pass's bits.
    m = randomize_params(make_model(vocab_size=50, embed_dim=embed_dim,
                                    hidden_dim=hidden_dim, mode=mode),
                         seed=hidden_dim, scale=2.0 / np.sqrt(hidden_dim))
    rng = np.random.default_rng(embed_dim)
    for length in range(1, 41):
        ids = rng.integers(0, 50, size=length)
        assert np.array_equal(encode_vectors(m.embedding[ids], m.encoder),
                              encode_with_cache(ids, m.encoder)[0]), length


def test_bi_concatenates_forward_and_reversed_final_states():
    m = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=2,
                                    mode="bi"), seed=3)
    tokens = (2, 6, 3, 0)
    vec = encode_with_cache(tokens, m.encoder)[0]
    assert vec.shape == (4,)

    def run(params, ids):
        h = np.zeros(2)
        for t in ids:
            h = gru_step(m.encoder.embedding[t], h, params).h
        return h

    assert np.max(np.abs(vec[:2] - run(m.encoder.forward, tokens))) < 1e-12
    assert np.max(np.abs(vec[2:] - run(m.encoder.backward,
                                       tokens[::-1]))) < 1e-12


def test_bi_forward_half_equals_uni_with_same_parameters():
    bi = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=2,
                                     mode="bi"), seed=9)
    uni_enc = EncoderModel(embedding=bi.encoder.embedding,
                           forward=bi.encoder.forward)
    tokens = (4, 2, 7, 0)
    assert np.array_equal(encode_with_cache(tokens, bi.encoder)[0][:2],
                          encode_with_cache(tokens, uni_enc)[0])


# ---------------------------------------------------------------------------
# encoder_backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream_gradient():
    m = randomize_params(make_model(vocab_size=6, embed_dim=3, hidden_dim=3),
                         seed=5)
    _, cache = encode_with_cache((2, 4, 0), m.encoder)
    grads = zero_grads(m)
    encoder_backward(cache, np.zeros(3), m.encoder, grads)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


def test_backward_missing_cache_is_state_error():
    from skipgru.errors import StateError
    m = make_model(vocab_size=6)
    with pytest.raises(StateError):
        encoder_backward(None, np.zeros(3), m.encoder, {})


def test_backward_untouched_embedding_rows_get_zero_gradient(rng):
    m = randomize_params(make_model(vocab_size=8, embed_dim=3, hidden_dim=3),
                         seed=6)
    _, cache = encode_with_cache((2, 3, 0), m.encoder)
    grads = zero_grads(m)
    encoder_backward(cache, rng.normal(size=3), m.encoder, grads)
    used = {0, 2, 3}
    for row in range(8):
        row_grad = grads["emb"][row]
        if row not in used:
            assert np.array_equal(row_grad, np.zeros(3))


def _fd_encoder(mode, seed, tokens=(2, 4, 3, 0)):
    m = randomize_params(make_model(vocab_size=6, embed_dim=3, hidden_dim=3,
                                    mode=mode), seed=seed)
    probe = np.random.default_rng(seed + 77).normal(size=m.encoder.output_dim)

    def loss(params):
        mm = model_from_params(m.config, m.vocab, params)
        return float(probe @ encode_with_cache(tokens, mm.encoder)[0])

    _, cache = encode_with_cache(tokens, m.encoder)
    analytic = zero_grads(m)
    encoder_backward(cache, probe, m.encoder, analytic)
    return finite_diff_check(loss, m.param_dict(), analytic)


def test_backward_finite_difference_uni():
    assert _fd_encoder("uni", seed=21) < 1e-5


def test_backward_finite_difference_bi():
    assert _fd_encoder("bi", seed=22) < 1e-5


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_backward_finite_difference_repeated_ids(mode):
    # Id 2 occurs three times: each occurrence adds to the same embedding row.
    assert _fd_encoder(mode, seed=23, tokens=(2, 4, 2, 2, 0)) < 1e-5


# ---------------------------------------------------------------------------
# initialization contracts
# ---------------------------------------------------------------------------

def test_init_recurrent_orthogonal_input_uniform():
    enc = make_model(vocab_size=10, embed_dim=3, hidden_dim=4, mode="bi",
                     seed=2).encoder
    assert np.all(np.abs(enc.embedding) <= 0.1)
    for p, _, _ in enc.directions:
        for u in (p.U_r, p.U_z, p.U):
            assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-6
        for w in (p.W_r, p.W_z, p.W):
            assert np.all(np.abs(w) <= 0.1)


def test_init_encoder_modes_and_determinism():
    e1, e2 = (make_model(vocab_size=10, embed_dim=3, hidden_dim=4,
                         seed=5).encoder for _ in range(2))
    assert np.array_equal(e1.embedding, e2.embedding)
    assert e1.backward is None and e1.output_dim == 4
    bi = make_model(vocab_size=10, embed_dim=3, hidden_dim=4, mode="bi",
                    seed=5).encoder
    assert bi.backward is not None and bi.output_dim == 8
