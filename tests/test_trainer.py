"""Triple objective, optimizer step, training loop, and checkpoints.

Oracles: the composition encode -> sentence_log_prob recomputed in the test,
uniform-model closed-form losses, finite differences for the joint gradient,
and byte-level file comparison for checkpoint and expansion-map round trips,
including files committed under tests/data by an earlier version.
"""

import ast
import dataclasses
import hashlib
import json
import pathlib
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipgru import decoder, numerics, trainer
from conftest import (CHECKPOINT_FIELD_TYPES, CHECKPOINT_KEY_EDITS,
                      EXPANSION_FIELD_TYPES, EXPANSION_KEY_EDITS,
                      MISMATCHED_HEADERS, decoder_pass_backward, edit_header,
                      lay_out, make_model, make_vocab, random_triple,
                      randomize_params, retyped, write_mismatched_checkpoint,
                      write_small_map, zero_grads)
import reference
from reference import finite_diff_check
from skipgru.corpus import SentenceTriple
from skipgru.decoder import (OUTPUT_CHUNK, DecoderCache, output_layer,
                             sentence_log_prob, sentence_log_prob_with_cache)
from skipgru.encoder import encode_with_cache
from skipgru.errors import (CheckpointError, ConfigError, InputError,
                            NumericError, ParameterError)
from skipgru.numerics import AdamState, global_norm
from skipgru.trainer import (METRICS_HEADER, TrainConfig, batch_grads,
                             load_checkpoint, load_model, model_from_params,
                             param_shapes, save_checkpoint, train, train_step,
                             triple_loss)
from skipgru.vocab_expansion import read_expansion, write_expansion

DATA = pathlib.Path(__file__).parent / "data"
PACKAGE = pathlib.Path(trainer.__file__).resolve().parent


def small_triple():
    return SentenceTriple(prev=(2, 3, 0), curr=(4, 2, 5, 0), next=(3, 0))


# ---------------------------------------------------------------------------
# triple_loss
# ---------------------------------------------------------------------------

def test_loss_uniform_model_closed_form():
    # Zero V makes both decoders uniform over the vocabulary.
    m = make_model(vocab_size=6, embed_dim=3, hidden_dim=3)
    params = m.param_dict()
    params["V"] = np.zeros_like(params["V"])
    m = model_from_params(m.config, m.vocab, params)
    t = small_triple()
    want = (len(t.prev) + len(t.next)) * np.log(6)
    assert abs(triple_loss(m, t) - want) < 1e-12


def test_loss_decomposes_into_two_decoders():
    m = randomize_params(make_model(vocab_size=6), seed=2)
    t = small_triple()
    h = encode_with_cache(t.curr, m.encoder)[0]
    nll_next = -sentence_log_prob(t.next, h, m.decoders.next_params,
                                  m.decoders.V, m.embedding)
    nll_prev = -sentence_log_prob(t.prev, h, m.decoders.prev_params,
                                  m.decoders.V, m.embedding)
    assert abs(triple_loss(m, t) - (nll_next + nll_prev)) < 1e-12


def test_loss_nonnegative(rng):
    m = randomize_params(make_model(vocab_size=7), seed=3)
    for _ in range(10):
        assert triple_loss(m, random_triple(7, rng)) >= 0.0


def test_grads_v_accumulates_both_decoders():
    # The shared output matrix collects gradient from both teacher-forced
    # passes; the joint V gradient must equal the per-decoder sum.
    m = randomize_params(make_model(vocab_size=6), seed=4)
    t = small_triple()
    grads = zero_grads(m)
    batch_grads(m, [t], grads)
    h = encode_with_cache(t.curr, m.encoder)[0]
    dec = m.decoders
    gn, gp = zero_grads(m), zero_grads(m)
    decoder_pass_backward(t.next, h, dec.next_params, dec.V, m.embedding, gn,
                          "dec_next.")
    decoder_pass_backward(t.prev, h, dec.prev_params, dec.V, m.embedding, gp,
                          "dec_prev.")
    assert np.max(np.abs(grads["V"] - (gn["V"] + gp["V"]))) < 1e-12


def _fd_triple(mode, seed,
               t=SentenceTriple(prev=(2, 0), curr=(3, 4, 0), next=(2, 3, 0))):
    m = randomize_params(make_model(vocab_size=5, embed_dim=2, hidden_dim=2,
                                    mode=mode), seed=seed)

    def loss(params):
        return triple_loss(model_from_params(m.config, m.vocab, params), t)

    grads = zero_grads(m)
    batch_grads(m, [t], grads)
    return finite_diff_check(loss, m.param_dict(), grads)


def test_full_model_gradient_uni():
    assert _fd_triple("uni", seed=41) < 1e-4


def test_full_model_gradient_bi():
    assert _fd_triple("bi", seed=42) < 1e-4


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_full_model_gradient_repeated_ids(mode):
    # Id 2 repeats within each sentence and across the three passes.
    t = SentenceTriple(prev=(2, 2, 0), curr=(2, 4, 2, 2, 0), next=(3, 2, 3, 0))
    assert _fd_triple(mode, seed=43, t=t) < 1e-4


# ---------------------------------------------------------------------------
# one gradient accumulator per step, against the dense per-triple reference
# ---------------------------------------------------------------------------

# Mixed lengths, eos-only sentences, and ids repeated within a sentence,
# across the three sentences of a triple, and across triples.
MIXED_BATCH = [
    SentenceTriple(prev=(0,), curr=(2, 2, 5, 2, 0), next=(3, 0)),
    SentenceTriple(prev=(4, 7, 4, 0), curr=(0,), next=(0,)),
    SentenceTriple(prev=(2, 3, 8, 6, 5, 3, 0), curr=(3, 4, 0),
                   next=(3, 3, 3, 2, 0)),
    SentenceTriple(prev=(5, 0), curr=(5, 6, 7, 8, 2, 4, 0), next=(8, 5, 0)),
]


def _rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))),
                                                    1e-300)


def _mixed_model(mode, seed, **overrides):
    return randomize_params(make_model(vocab_size=9, embed_dim=3, hidden_dim=4,
                                       mode=mode, **overrides), seed=seed)


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_batch_accumulation_matches_dense_per_triple_reference(mode):
    m = _mixed_model(mode, seed=44)
    grads = zero_grads(m)
    loss = batch_grads(m, MIXED_BATCH, grads)
    want, want_loss = zero_grads(m), 0.0
    for t in MIXED_BATCH:
        ref_loss, ref = reference.triple_grads(m, t)
        assert batch_grads(m, [t], zero_grads(m)) == ref_loss
        want_loss += ref_loss
        assert ref.keys() == want.keys()
        for k in want:
            want[k] += ref[k]
    # The batch's padded recurrence steps (B, hidden) blocks, which may sum
    # in another order than a pass of its own.
    assert _rel_err(loss, want_loss) < 1e-12
    for k in want:
        assert _rel_err(grads[k], want[k]) < 1e-12, k


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_accumulating_a_triple_twice_doubles_its_gradient(mode):
    m = _mixed_model(mode, seed=45)
    t = MIXED_BATCH[2]
    once, twice = zero_grads(m), zero_grads(m)
    batch_grads(m, [t], once)
    batch_grads(m, [t], twice)
    batch_grads(m, [t], twice)
    for k in once:
        if k in ("V", "emb"):
            # Several passes add into these: a rounded sum added twice may
            # differ from twice that sum in the last bit.
            assert _rel_err(twice[k], 2.0 * once[k]) < 1e-15, k
        else:
            # One addition per triple: x + x is exactly 2x.
            assert np.array_equal(twice[k], 2.0 * once[k]), k


def test_train_step_reduces_the_reference_gradients_of_its_batch():
    m = lay_out(_mixed_model("bi", seed=46, clip_threshold=1e9))
    # The step updates m in place, so the references come first.
    refs = [reference.triple_grads(m, t) for t in MIXED_BATCH]
    res = train_step(m, MIXED_BATCH, AdamState.initial(m.param_dict()), m.config)
    mean = {k: sum(g[k] for _, g in refs) / len(refs) for k in refs[0][1]}
    assert _rel_err(res.batch_loss,
                    sum(loss for loss, _ in refs) / len(refs)) < 1e-12
    assert abs(res.grad_norm - global_norm(mean)) < 1e-12 * global_norm(mean)


def _strided(a):
    """A copy of `a` that is neither row- nor column-major contiguous."""
    out = np.zeros((a.shape[0], 2 * a.shape[1]))[:, ::2]
    out[...] = a
    return out


@pytest.mark.parametrize("layout", [np.ascontiguousarray, _strided],
                         ids=["row-major", "strided"])
def test_step_and_output_layer_refuse_a_v_gradient_not_column_major(layout):
    # The output layer's backward adds into V's gradient only column-major,
    # the layout that train() gives V; BLAS would update any other layout in
    # a copy.  The gradient, the model and the optimizer stay unchanged.
    m = _mixed_model("uni", seed=47)
    dec = m.decoders
    h = encode_with_cache(MIXED_BATCH[0].curr, m.encoder)[0]
    target = MIXED_BATCH[0].next
    scratch = np.full((len(target), len(dec.V)), np.nan)
    cache = DecoderCache.block([target], h[None], dec.next_params)
    sentence_log_prob_with_cache(target, h, dec.next_params, dec.V,
                                 m.embedding, cache, 0)
    grads = zero_grads(m)
    grads["V"] = layout(np.random.default_rng(47).normal(size=dec.V.shape))
    assert not grads["V"].flags.f_contiguous
    before = {k: g.copy() for k, g in grads.items()}
    with pytest.raises(ParameterError):
        output_layer(cache, slice(0, 1), dec.V, scratch, grads)
    assert all(np.array_equal(grads[k], before[k]) for k in before)
    assert not cache.dS.any() and np.isnan(scratch).all()

    dec.V = layout(dec.V)
    opt = AdamState.initial(m.param_dict())
    state = [{k: a.copy() for k, a in d.items()}
             for d in (m.param_dict(), opt.m, opt.v)]
    with pytest.raises(ParameterError):
        train_step(m, MIXED_BATCH, opt, m.config)
    assert opt.step == 0
    for d, saved in zip((m.param_dict(), opt.m, opt.v), state):
        assert all(np.array_equal(d[k], saved[k]) for k in saved)


def test_triple_gradient_builds_no_vocabulary_sized_array():
    # At V=20000, E=64, H=128 one (V, H) array takes 20.5 MB.  The dense
    # per-pass reference builds several inside one triple; the accumulating
    # path adds into the step's arrays and builds only one logits buffer of
    # at most OUTPUT_CHUNK - 1 + max(T) rows, in which the output layer
    # forms, scores and back-propagates each chunk's logits.
    m = make_model(vocab_size=20000, embed_dim=64, hidden_dim=128)
    t = SentenceTriple(prev=(5, 17, 2, 9, 0), curr=(3, 19999, 40, 7, 3, 0),
                       next=(11, 12, 13, 11, 0))
    grads = zero_grads(m)
    tracemalloc.start()
    try:
        batch_grads(m, [t], grads)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        reference.triple_grads(m, t)
        ref_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m.decoders.V.nbytes
    assert ref_peak > 3 * m.decoders.V.nbytes


@pytest.mark.parametrize("mode,bound", [("uni", 15.0e6), ("bi", 18.5e6)],
                         ids=["uni", "bi"])
def test_batch_grads_peak_memory_at_the_recurrence_bound_shape(mode, bound):
    # V=2000, E=64, H=128, a batch of 32 triples of 16-31 tokens.  Each
    # decoder runs end to end: its passes write their inputs and traces in
    # place into one zero-filled (T, B) block, which its one padded backward
    # pass reads, and the block is dropped before the other decoder's is
    # made, so the batch holds one decoder's states at a time.  One
    # batch_grads peaks at 14.4 MB here in uni mode and 18.1 MB in bi.
    # With both decoders' per-pass traces kept and packed into padded copies
    # it peaked at 18.8 MB (22.1 MB in bi), and at 13.8 MB in uni with a
    # backward pass per sentence.
    m = lay_out(randomize_params(
        make_model(vocab_size=2000, embed_dim=64, hidden_dim=128, mode=mode),
        seed=60))
    rng = np.random.default_rng(61)

    def sentence():
        body = rng.integers(2, 2000, size=int(rng.integers(15, 31)))
        return tuple(int(t) for t in body) + (0,)
    batch = [SentenceTriple(sentence(), sentence(), sentence())
             for _ in range(32)]
    grads = zero_grads(m)
    tracemalloc.start()
    try:
        batch_grads(m, batch, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


# A batch of 21 next-decoder rows and 20 previous-decoder rows: MIXED_BATCH's
# 11 and 14, then a 10-token next and a 6-token previous sentence.
LONG_BATCH = MIXED_BATCH + [
    SentenceTriple(prev=(6, 2, 7, 7, 3, 0), curr=(4, 4, 0),
                   next=(2, 5, 3, 8, 8, 6, 2, 7, 4, 0))]

# A batch of 38 rows per decoder whose passes straddle a flush at
# STRADDLE_CHUNK = 16 rows in each decoder: LONG_BATCH's, then three more
# triples.  The next decoder's 10-token pass on rows 11-20 crosses row 16,
# and so does the previous decoder's 6-token pass on rows 14-19.  The next
# decoder's flushes then take 21 and 17 rows, and the previous decoder's
# 20, 17 and 1.
STRADDLE_BATCH = LONG_BATCH + [
    MIXED_BATCH[2],
    SentenceTriple(prev=(8, 3, 5, 5, 2, 6, 7, 4, 3, 0), curr=(2, 6, 0),
                   next=(7, 7, 2, 4, 6, 8, 3, 5, 2, 0)),
    MIXED_BATCH[0]]
STRADDLE_CHUNK = 16


def _decoder_rows(batch):
    """Each pass's row count, for the next decoder, then the previous."""
    return [[len(t.next) for t in batch], [len(t.prev) for t in batch]]


def _set_output_chunk(monkeypatch, chunk):
    # decode_batch sizes its logits buffer and places its flushes by it.
    monkeypatch.setattr(decoder, "OUTPUT_CHUNK", chunk)


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_fused_output_layer_matches_reference_across_chunks(mode,
                                                            monkeypatch):
    _set_output_chunk(monkeypatch, STRADDLE_CHUNK)
    for rows in _decoder_rows(STRADDLE_BATCH):
        ends = list(np.cumsum(rows))
        # In each decoder a pass crosses the chunk, and passes follow the
        # flush after it.
        assert any(a < STRADDLE_CHUNK < b < ends[-1]
                   for a, b in zip(ends[:-1], ends[1:]))
    m = _mixed_model(mode, seed=48)
    grads = zero_grads(m)
    loss = batch_grads(m, STRADDLE_BATCH, grads)
    want, want_loss = zero_grads(m), 0.0
    for t in STRADDLE_BATCH:
        ref_loss, ref = reference.triple_grads(m, t)
        want_loss += ref_loss
        for k in want:
            want[k] += ref[k]
    assert _rel_err(loss, want_loss) < 1e-12
    for k in want:
        assert _rel_err(grads[k], want[k]) < 1e-12, k


@pytest.mark.parametrize("batch", [MIXED_BATCH, LONG_BATCH, STRADDLE_BATCH],
                         ids=["mixed", "long", "straddle"])
def test_batch_loss_is_the_sum_of_the_sentence_log_probs(batch):
    m = _mixed_model("bi", seed=49)
    dec = m.decoders
    want = 0.0
    for t in batch:
        h = encode_with_cache(t.curr, m.encoder)[0]
        want += -(sentence_log_prob(t.next, h, dec.next_params, dec.V,
                                    m.embedding)
                  + sentence_log_prob(t.prev, h, dec.prev_params, dec.V,
                                      m.embedding))
    assert _rel_err(batch_grads(m, batch, zero_grads(m)), want) < 1e-12


@pytest.mark.parametrize("chunk", [OUTPUT_CHUNK, 5])
def test_step_flushes_the_output_layer_at_pass_boundaries(chunk, monkeypatch):
    # One train step runs each decoder's output layer as soon as `chunk`
    # rows are pending after one of its passes, and once after its last
    # pass: every decoder row goes through exactly one V-gradient dgemm, in
    # pass order, the next decoder's first, which adds G.T @ S for the
    # softmax gradient G of the chunk's states S; each call's passes end at
    # a pass boundary, every dgemm writes the step's one accumulator in
    # place, and each decoder's calls read one buffer.
    dgemms, calls = [], []

    def recording_add_matmul(out, a, b):
        want = out + a @ b
        numerics.add_matmul(out, a, b)
        dgemms.append((a @ b, out, np.allclose(out, want, rtol=1e-12,
                                               atol=1e-12)))

    def recording_sweep(cache, passes, V, scratch, grads=None):
        targets = cache.targets[passes]
        states = [cache.trace.S[1:len(t) + 1, b].copy()
                  for t, b in zip(targets, range(len(cache.targets))[passes])]
        calls.append((cache, targets, states, scratch))
        return real_sweep(cache, passes, V, scratch, grads)
    real_sweep = decoder.output_layer
    monkeypatch.setattr(decoder, "add_matmul", recording_add_matmul)
    monkeypatch.setattr(decoder, "output_layer", recording_sweep)
    _set_output_chunk(monkeypatch, chunk)
    batch = STRADDLE_BATCH
    m = lay_out(_mixed_model("uni", seed=50))
    V = m.decoders.V.copy()
    train_step(m, batch, AdamState.initial(m.param_dict()), m.config)

    assert [t for _, targets, _, _ in calls for t in targets] == \
        [t.next for t in batch] + [t.prev for t in batch]
    assert len(dgemms) == len(calls)
    for (_, targets, states, _), (got, _, _) in zip(calls, dgemms):
        S = np.vstack(states)
        G = numerics.softmax(S @ V.T)
        G[np.arange(len(G)), np.concatenate(targets)] -= 1.0
        assert _rel_err(got, G.T @ S) < 1e-12
    assert all(shared for _, _, shared in dgemms)
    assert all(c is dgemms[0][1] for _, c, _ in dgemms)
    assert dgemms[0][1].shape == m.decoders.V.shape
    caches = list({id(cache): cache for cache, _, _, _ in calls}.values())
    assert len(caches) == 2
    rows, buffers = [], []
    for cache, lengths in zip(caches, _decoder_rows(batch)):
        mine = [call for call in calls if call[0] is cache]
        assert cache.targets == [t for _, targets, _, _ in mine
                                 for t in targets]
        n = [sum(map(len, targets)) for _, targets, _, _ in mine]
        assert sum(n) == sum(lengths)
        for (_, targets, _, _), k in zip(mine[:-1], n[:-1]):
            assert k >= chunk > k - len(targets[-1])
        buffer = mine[0][3]
        assert all(scratch is buffer for _, _, _, scratch in mine)
        assert len(buffer) == min(sum(lengths), chunk - 1 + max(lengths))
        assert max(n) <= len(buffer)
        rows.append(n)
        buffers.append(len(buffer))
    if chunk == 64:
        assert rows == [[38], [38]] and buffers == [38, 38]


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_step_runs_each_decoder_end_to_end_in_its_block(mode, monkeypatch):
    # A train step finishes the next decoder, its passes, its one padded
    # forward over the block, its output layer and then its backward,
    # before the previous decoder's first pass, and by then the next
    # decoder's cache, its block and its trace are gone.  Every pass writes
    # its inputs into its column of its decoder's block, and the cache that
    # the output layer reads holds the trace that the forward returned.
    events, written, refs = [], [], []
    m = lay_out(_mixed_model(mode, seed=53))
    prefix = {id(p): name for p, name in m.decoders.directions}

    def recording_pass(target, h_enc, p, V, embedding, cache, b):
        if not refs or refs[-1][0]() is not cache:
            if refs:
                events.append(("dead", [ref() for ref in refs[-1]]))
            refs.append([weakref.ref(cache), weakref.ref(cache.X)])
        real_pass(target, h_enc, p, V, embedding, cache, b)
        T = len(target)
        written.append(np.array_equal(cache.X[:T, b], np.vstack(
            [p.begin, m.embedding[list(target[:-1])]])))
        events.append(("pass", prefix[id(p)]))

    def recording_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        refs[-1].append(weakref.ref(trace.S))
        events.append(("forward", args[0].shape))
        return trace

    def recording_output(cache, *args):
        events.append(("output", refs[-1][0]() is cache
                       and cache.trace.S is refs[-1][2]()))
        return real_output(cache, *args)

    def recording_backward(cache, p, grads, name):
        events.append(("backward", name))
        return real_backward(cache, p, grads, name)
    real_pass, real_output = (decoder.sentence_log_prob_with_cache,
                              decoder.output_layer)
    real_forward, real_backward = decoder.gru_forward, trainer.decoder_backward
    monkeypatch.setattr(decoder, "sentence_log_prob_with_cache", recording_pass)
    monkeypatch.setattr(decoder, "output_layer", recording_output)
    monkeypatch.setattr(decoder, "gru_forward", recording_forward)
    monkeypatch.setattr(trainer, "decoder_backward", recording_backward)
    train_step(m, STRADDLE_BATCH, AdamState.initial(m.param_dict()), m.config)
    B, H = len(STRADDLE_BATCH), m.config.hidden_dim
    T_next, T_prev = (max(map(len, rows)) for rows in
                      ([t.next for t in STRADDLE_BATCH],
                       [t.prev for t in STRADDLE_BATCH]))
    assert events == ([("pass", "dec_next.")] * B
                      + [("forward", (T_next, B, H)), ("output", True),
                         ("backward", "dec_next."),
                         ("dead", [None, None, None])]
                      + [("pass", "dec_prev.")] * B
                      + [("forward", (T_prev, B, H)), ("output", True),
                         ("backward", "dec_prev.")])
    assert len(written) == 2 * B and all(written)


class _CountingV(np.ndarray):
    """A view of V that records the rows of each product that forms logits:
    matmul (and so `@`) by its transpose, whose last axis is the
    vocabulary."""

    vocab_size = 0
    logit_rows: list[int] = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if (ufunc is np.matmul and isinstance(inputs[1], _CountingV)
                and inputs[1].shape[-1] == _CountingV.vocab_size):
            _CountingV.logit_rows.append(inputs[0].shape[0])
        inputs = [np.asarray(x) if isinstance(x, _CountingV) else x
                  for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) if isinstance(o, _CountingV)
                                  else o for o in out)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_step_forms_each_logit_once(monkeypatch):
    # Each decoder target row is multiplied by V once per train step, in the
    # output layer, which forms a chunk's logits in one product and reads
    # them for the loss and the backward instead of forming them again: per
    # decoder, one product per chunk, whose rows sum to its target rows.  At
    # STRADDLE_CHUNK the next decoder's chunks take 21 and 17 rows, and the
    # previous decoder's 20, 17 and 1.
    _set_output_chunk(monkeypatch, STRADDLE_CHUNK)
    m = lay_out(_mixed_model("bi", seed=52))
    assert m.config.vocab_size != m.config.hidden_dim
    monkeypatch.setattr(_CountingV, "vocab_size", m.config.vocab_size)
    monkeypatch.setattr(_CountingV, "logit_rows", [])
    m.decoders.V = m.decoders.V.view(_CountingV)
    train_step(m, STRADDLE_BATCH, AdamState.initial(m.param_dict()), m.config)
    assert _CountingV.logit_rows == [21, 17, 20, 17, 1]
    assert [sum(_CountingV.logit_rows[:2]), sum(_CountingV.logit_rows[2:])] \
        == list(map(sum, _decoder_rows(STRADDLE_BATCH)))


def test_decoder_caches_hold_no_vocabulary_sized_row(monkeypatch):
    # The output layer forms its logits in the decoder's buffer, not in its
    # cache: no array that a cache holds has a vocabulary-sized axis.
    kept = []

    def keeping(cache, *args):
        kept.append(cache)
        return real_sweep(cache, *args)
    real_sweep = decoder.output_layer
    monkeypatch.setattr(decoder, "output_layer", keeping)
    m = randomize_params(make_model(vocab_size=97, embed_dim=3, hidden_dim=4),
                         seed=51)
    batch_grads(m, STRADDLE_BATCH, zero_grads(m))
    caches = list({id(cache): cache for cache in kept}.values())
    assert len(caches) == 2
    for cache in caches:
        assert isinstance(cache, DecoderCache)
        arrays = [getattr(cache, f.name) for f in dataclasses.fields(cache)]
        arrays = [a for a in arrays + list(cache.trace)
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 7
        assert all(97 not in a.shape for a in arrays)


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def test_step_zero_learning_rate_is_noop():
    m = lay_out(randomize_params(make_model(vocab_size=6, alpha=0.0), seed=5))
    opt = AdamState.initial(m.param_dict())
    before = {k: v.copy() for k, v in m.param_dict().items()}
    res = train_step(m, [small_triple()], opt, m.config)
    after = m.param_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert res.batch_loss > 0


def test_step_updates_the_model_and_optimizer_it_is_given():
    m = lay_out(randomize_params(make_model(vocab_size=6, mode="bi"), seed=5))
    opt = AdamState.initial(m.param_dict())
    arrays = [m.param_dict(), dict(opt.m), dict(opt.v)]
    before = {k: v.copy() for k, v in arrays[0].items()}
    train_step(m, [small_triple()], opt, m.config)
    assert opt.step == 1
    for d, same in zip((m.param_dict(), opt.m, opt.v), arrays):
        assert all(d[k] is same[k] for k in same)
    assert not any(np.array_equal(before[k], arrays[0][k]) for k in before)


def test_clipping_step_holds_about_one_parameter_set():
    # At V=20000, E=64, H=128 the parameters take 33 MB, almost all of it emb
    # and V.  A step's own arrays are the gradient accumulator and per-pass
    # (T, V) rows; clipping and Adam write in place.  New parameters and
    # moments, or a scaled copy of the gradient, would each add a whole set.
    # V is column-major, as train() lays it out: a gradient norm or an Adam
    # step that copied V into row-major order would add 20 MB.
    batch = [SentenceTriple(prev=(5, 17, 2, 9, 0), curr=(3, 19999, 40, 7, 3, 0),
                            next=(11, 12, 13, 11, 0)),
             SentenceTriple(prev=(8, 6, 0), curr=(21, 4, 0),
                            next=(19998, 30, 31, 32, 33, 0))]
    m = lay_out(make_model(vocab_size=20000, embed_dim=64, hidden_dim=128,
                           clip_threshold=1e-6))
    opt = AdamState.initial(m.param_dict())
    train_step(m, batch, opt, m.config)
    one_set = sum(a.nbytes for a in m.param_dict().values())
    tracemalloc.start()
    try:
        res = train_step(m, batch, opt, m.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.clipped
    assert peak < 1.25 * one_set


def test_step_empty_batch():
    m = make_model(vocab_size=6)
    with pytest.raises(InputError):
        train_step(m, [], AdamState.initial(m.param_dict()), m.config)


def test_batch_grads_of_an_empty_batch_is_an_input_error():
    m = make_model(vocab_size=6)
    grads = zero_grads(m)
    with pytest.raises(InputError):
        batch_grads(m, [], grads)
    assert all(not g.any() for g in grads.values())


def test_step_nonfinite_loss_aborts():
    m = make_model(vocab_size=6)
    params = m.param_dict()
    params["emb"] = params["emb"] + np.nan
    bad = lay_out(model_from_params(m.config, m.vocab, params))
    with pytest.raises(NumericError):
        train_step(bad, [small_triple()], AdamState.initial(bad.param_dict()), bad.config)


def test_nonfinite_gradient_stops_before_update_and_checkpoint(tmp_path, rng,
                                                              monkeypatch):
    # A finite loss with an infinite gradient entry: clipping would turn every
    # parameter into NaN, and the step-3 checkpoint would persist them.
    triples = [random_triple(6, rng) for _ in range(4)]
    m = make_model(vocab_size=6, batch_size=2, max_steps=2, checkpoint_every=1,
                   seed=12)
    ckpt = tmp_path / "c.ckpt"
    res = train(m, triples, None, tmp_path / "m.csv", ckpt)
    saved = ckpt.read_bytes()
    before = {k: v.copy() for k, v in m.param_dict().items()}
    real_grads = trainer.triple_grads

    def inf_grads(model, batch, encoded, grads):
        loss = real_grads(model, batch, encoded, grads)
        grads["V"][0, 0] = np.inf
        return loss

    monkeypatch.setattr(trainer, "triple_grads", inf_grads)
    longer = model_from_params(dataclasses.replace(m.config, max_steps=4),
                               m.vocab, m.param_dict())
    with pytest.raises(NumericError, match="gradient norm"):
        train(longer, triples, res.opt, tmp_path / "m.csv", ckpt)
    assert ckpt.read_bytes() == saved
    after = m.param_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_step_clip_flag_iff_norm_exceeds_threshold():
    m = lay_out(randomize_params(make_model(vocab_size=6, clip_threshold=1e-3),
                                 seed=6))
    res = train_step(m, [small_triple()], AdamState.initial(m.param_dict()), m.config)
    assert res.clipped and res.grad_norm > 1e-3
    m2 = lay_out(randomize_params(make_model(vocab_size=6, clip_threshold=1e9),
                                  seed=6))
    res2 = train_step(m2, [small_triple()], AdamState.initial(m2.param_dict()), m2.config)
    assert not res2.clipped


def test_warm_step_measures_the_gradient_norm_once(monkeypatch):
    # The norm that the step checks and reports is the one it clips by: one
    # read of the whole gradient, not a second one inside clip_gradients.
    m = lay_out(randomize_params(make_model(vocab_size=6, clip_threshold=1e-3),
                                 seed=6))
    opt = AdamState.initial(m.param_dict())
    train_step(m, [small_triple()], opt, m.config)
    calls = []

    def counting(real):
        def global_norm(params):
            calls.append(real(params))
            return calls[-1]
        return global_norm
    monkeypatch.setattr(trainer, "global_norm", counting(trainer.global_norm))
    monkeypatch.setattr(numerics, "global_norm",
                        counting(numerics.global_norm))
    res = train_step(m, [small_triple()], opt, m.config)
    assert res.clipped and calls == [res.grad_norm]


def _losses(metrics_path) -> list[float]:
    """The loss column of a metrics CSV, in step order."""
    return [float(line.split(",")[1])
            for line in metrics_path.read_text().splitlines()[1:]]


def test_training_beats_uniform_baseline(tmp_path, rng):
    # 200 steps on a toy corpus must push batch loss below the uniform-model
    # level mean(len(prev) + len(next)) * log(vocab).
    vocab_size = 8
    triples = [random_triple(vocab_size, rng, max_len=3) for _ in range(50)]
    m = make_model(vocab_size=vocab_size, embed_dim=4, hidden_dim=6,
                   batch_size=16, max_steps=200, seed=1)
    train(m, triples, None, tmp_path / "m.csv", tmp_path / "m.ckpt")
    baseline = float(np.mean([len(t.prev) + len(t.next) for t in triples])
                     ) * np.log(vocab_size)
    assert _losses(tmp_path / "m.csv")[-1] < baseline


def test_training_deterministic_across_runs(tmp_path, rng):
    triples = [random_triple(6, rng) for _ in range(10)]

    def run():
        m = make_model(vocab_size=6, batch_size=4, max_steps=20, seed=9)
        train(m, triples, None, tmp_path / "m.csv", tmp_path / "m.ckpt")
        return m.param_dict()

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_memorizes_single_triple(tmp_path):
    # One triple for 500 steps: smoothed loss decreases and collapses to
    # under 10% of its starting value.
    t = small_triple()
    m = make_model(vocab_size=6, embed_dim=4, hidden_dim=8, batch_size=1,
                   max_steps=500, seed=3)
    train(m, [t], None, tmp_path / "m.csv", tmp_path / "m.ckpt")
    losses = np.array(_losses(tmp_path / "m.csv"))
    smooth = np.convolve(losses, np.ones(20) / 20, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-3)       # monotone after smoothing
    assert losses[-1] < 0.1 * losses[0]


def test_metrics_csv_contract(tmp_path, rng):
    triples = [random_triple(6, rng) for _ in range(6)]
    m = make_model(vocab_size=6, batch_size=3, max_steps=8, seed=2)
    path = tmp_path / "metrics.csv"
    train(m, triples, None, path, tmp_path / "m.ckpt")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 9                        # header + one row per step
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] in ("0", "1")


class _Stop(Exception):
    pass


def test_resume_writes_each_metrics_row_once(tmp_path, rng, monkeypatch):
    # Checkpoint at step 5, stop after step 7, resume to step 9: rows 6 and 7
    # of the stopped run are replaced by the resumed run's rows.
    triples = [random_triple(6, rng) for _ in range(8)]

    def fresh():
        return make_model(vocab_size=6, batch_size=2, max_steps=9,
                          checkpoint_every=5, seed=13)

    straight = tmp_path / "straight.csv"
    train(fresh(), triples, None, straight, tmp_path / "straight.ckpt")

    metrics, ckpt = tmp_path / "m.csv", tmp_path / "c.ckpt"
    real_step = trainer.train_step

    def stop_after_7(model, batch, opt, config):
        if opt.step == 7:
            raise _Stop
        return real_step(model, batch, opt, config)

    monkeypatch.setattr(trainer, "train_step", stop_after_7)
    with pytest.raises(_Stop):
        train(fresh(), triples, None, metrics, ckpt)
    monkeypatch.undo()
    model, opt = load_checkpoint(ckpt)
    assert opt.step == 5
    assert len(metrics.read_text().splitlines()) == 1 + 7
    train(model, triples, opt, metrics, ckpt)

    def without_wall_ms(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    rows = without_wall_ms(metrics)
    assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(1, 10)]
    assert rows == without_wall_ms(straight)


@pytest.mark.parametrize("torn", ["1", "1,0.5"])
def test_resume_drops_a_torn_last_metrics_row(tmp_path, rng, monkeypatch,
                                              torn):
    # A kill between buffer flushes leaves the start of a row, here one
    # whose leading digits read as a step at or before the checkpoint's.
    # The resumed run used to append its first row to it ("16,...").
    triples = [random_triple(6, rng) for _ in range(8)]

    def fresh():
        return make_model(vocab_size=6, batch_size=2, max_steps=9,
                          checkpoint_every=5, seed=13)

    straight = tmp_path / "straight.csv"
    train(fresh(), triples, None, straight, tmp_path / "straight.ckpt")

    metrics, ckpt = tmp_path / "m.csv", tmp_path / "c.ckpt"
    real_step = trainer.train_step

    def stop_after_5(model, batch, opt, config):
        if opt.step == 5:
            raise _Stop
        return real_step(model, batch, opt, config)

    monkeypatch.setattr(trainer, "train_step", stop_after_5)
    with pytest.raises(_Stop):
        train(fresh(), triples, None, metrics, ckpt)
    monkeypatch.undo()
    with open(metrics, "a") as fh:
        fh.write(torn)
    model, opt = load_checkpoint(ckpt)
    train(model, triples, opt, metrics, ckpt)

    def without_wall_ms(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert without_wall_ms(metrics) == without_wall_ms(straight)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_byte_identical(tmp_path, rng):
    triples = [random_triple(6, rng) for _ in range(5)]
    m = make_model(vocab_size=6, batch_size=2, max_steps=5, seed=4)
    opt = train(m, triples, None, tmp_path / "m.csv",
                tmp_path / "m.ckpt").opt
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, opt, p1)
    m2, opt2 = load_checkpoint(p1)
    save_checkpoint(m2, opt2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    a, b = m.param_dict(), m2.param_dict()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert opt2.step == opt.step
    assert m2.vocab.id_to_token == m.vocab.id_to_token


def test_training_keeps_v_column_major_and_checkpoints_row_major(tmp_path, rng):
    # A fresh and a resumed run both train with V and its moments
    # column-major; the checkpoint holds the bytes that the same values,
    # row-major, save to, and loading gives them back row-major.
    triples = [random_triple(6, rng) for _ in range(5)]
    ckpt, rows = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model = make_model(vocab_size=6, hidden_dim=4, batch_size=2, max_steps=3,
                       seed=4)
    res = train(model, triples, None, tmp_path / "m.csv", ckpt)
    for a in (model.decoders.V, res.opt.m["V"], res.opt.v["V"]):
        assert a.flags.f_contiguous and not a.flags.c_contiguous
    model, opt = load_checkpoint(ckpt)
    assert model.decoders.V.flags.c_contiguous and opt.m["V"].flags.c_contiguous
    config = dataclasses.replace(model.config, max_steps=5)
    model = model_from_params(config, model.vocab, model.param_dict())
    res = train(model, triples, opt, tmp_path / "m.csv", ckpt)
    assert res.opt is opt and opt.step == 5
    for a in (model.decoders.V, opt.m["V"], opt.v["V"]):
        assert a.flags.f_contiguous and not a.flags.c_contiguous
    row_major = lambda d: {k: np.ascontiguousarray(a) for k, a in d.items()}
    save_checkpoint(model_from_params(config, model.vocab,
                                      row_major(model.param_dict())),
                    dataclasses.replace(opt, m=row_major(opt.m),
                                        v=row_major(opt.v)), rows)
    assert ckpt.read_bytes() == rows.read_bytes()


def _references(tree, name: str) -> list[str]:
    """The top-level definition (or <module>) of every reference to `name`
    in a parsed module, once per reference."""
    return [getattr(stmt, "name", "<module>")
            for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name]


def test_v_is_laid_out_in_train_alone_and_accumulated_by_one_dgemm():
    # The layout of V is decided in one place: train() makes V and its
    # moments column-major, and the output layer's backward adds into that
    # layout through a single BLAS call.
    laid_out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        laid_out += [f"{path.stem}.{where}"
                     for where in _references(tree, "asfortranarray")]
    assert sorted(set(laid_out)) == ["trainer.train"]
    tree = ast.parse(pathlib.Path(decoder.__file__).read_text("utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "add_matmul" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]
    assert len(calls) == 1


def test_the_expanded_vocabulary_is_placed_by_locate_alone():
    # One rule places every word: the lowercase fallback is written once, in
    # ExpandedLookup.locate, and a word's vector has one accessor, resolve.
    tree = ast.parse((PACKAGE / "vocab_expansion.py").read_text("utf-8"))
    sites = []
    for stmt in tree.body:
        for part in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            where = ".".join(dict.fromkeys(getattr(node, "name", "<module>")
                                           for node in (stmt, part)))
            sites += [where for node in ast.walk(part)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "lower"]
    assert sites == ["ExpandedLookup.locate"]
    assert "vector" not in {node.name for node in ast.walk(tree)
                            if isinstance(node, ast.FunctionDef)}
    # The CLI places words through locate too: it reads no vocabulary index.
    tree = ast.parse((PACKAGE / "cli.py").read_text("utf-8"))
    assert "token_to_id" not in {getattr(node, "attr", None)
                                 for node in ast.walk(tree)}


def test_decode_batch_alone_runs_the_logits_buffer():
    # One function owns the protocol of the shared logits buffer:
    # decode_batch sizes it by OUTPUT_CHUNK and runs the output layer over
    # each chunk of passes in it.  The trainer names none of it, and no
    # cache keeps a per-row sum beside the rows.  The loss is written once:
    # the output layer alone takes an exp or a log, and sentence_log_prob
    # reaches it too, as decode_batch of its one pass.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    trainer_names = {getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None)
                     for node in ast.walk(trees["trainer"])}
    assert not trainer_names & {"OUTPUT_CHUNK", "logits_buffer",
                                "output_flushes", "output_layer"}
    tree = trees["decoder"]
    assert sorted(set(_references(tree, "OUTPUT_CHUNK"))) == \
        ["<module>", "decode_batch"]
    callers = [f"{stem}.{where}" for stem, t in trees.items()
               for where in _references(t, "output_layer")]
    assert callers == ["decoder.decode_batch"]
    assert _references(tree, "decode_batch") == ["sentence_log_prob"]
    assert _references(tree, "exp") == _references(tree, "log") == \
        ["output_layer"]
    buffers = [stmt.name for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "empty"
               and "OUTPUT_CHUNK" in ast.dump(node)]
    assert buffers == ["decode_batch"]
    assert "sums" not in {f.name for f in dataclasses.fields(DecoderCache)}


def _code_strings(tree) -> list[str]:
    """Every string constant of a parsed module outside its docstrings and
    other bare string statements."""
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in bare]


def test_one_path_per_job_in_a_train_step():
    # Both encoder directions run one loop over EncoderModel.directions, so
    # no encoder pass nor param_dict branches on the reverse GRU; each
    # parameter-name prefix is written once; Adam has one layout rule;
    # clip_gradients alone compares the norm with the clip threshold;
    # encode_batch is the one encoder function that runs the recurrence; and
    # train() always writes its metrics and its checkpoint.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = {(stem, node.name): node for stem, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for key in (("encoder", "encode_with_cache"), ("encoder", "encode_batch"),
                ("encoder", "encoder_backward"), ("trainer", "param_dict")):
        attrs = {node.attr for node in ast.walk(defs[key])
                 if isinstance(node, ast.Attribute)}
        assert not attrs & {"backward", "forward", "bwd", "fwd"}, key
    strings = [v for tree in trees.values() for v in _code_strings(tree)]
    for prefix in ("enc.", "enc_rev."):
        assert strings.count(prefix) == 1, prefix
    assert ("numerics", "_memory_order") not in defs
    compares = [ast.dump(node) for node in ast.walk(defs["trainer", "train_step"])
                if isinstance(node, ast.Compare)]
    assert not [c for c in compares if "clip_threshold" in c]
    recurrent = {name for (stem, name), node in defs.items()
                 if stem == "encoder" and any(
                     isinstance(call, ast.Call)
                     and getattr(call.func, "id", None) == "gru_forward"
                     for call in ast.walk(node))}
    assert recurrent == {"encode_batch"}
    for node in ast.walk(defs["trainer", "train"]):
        if isinstance(node, ast.Compare):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            nones = [n for n in ast.walk(node)
                     if isinstance(n, ast.Constant) and n.value is None]
            assert not (nones and names & {"metrics_path", "checkpoint_path"})


def test_checkpoint_save_writes_column_major_blobs_without_a_whole_copy(
        tmp_path):
    # At V=20000, H=128, V and each moment take 20.5 MB.  Saved column-major,
    # as train() keeps them, each goes out through row blocks of about 1 MiB,
    # to the bytes that row-major copies of the same values save to.
    m = randomize_params(make_model(vocab_size=20000, embed_dim=64,
                                    hidden_dim=128), seed=52)
    opt = AdamState.initial(m.param_dict())
    rng = np.random.default_rng(53)
    for moments in (opt.m, opt.v):
        moments["V"] = rng.uniform(0.0, 1.0, size=m.decoders.V.shape)
    rows = tmp_path / "rows.ckpt"
    save_checkpoint(m, opt, rows)
    m.decoders.V = np.asfortranarray(m.decoders.V)
    for moments in (opt.m, opt.v):
        moments["V"] = np.asfortranarray(moments["V"])
    cols = tmp_path / "cols.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(m, opt, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.decoders.V.flags.f_contiguous and not m.decoders.V.flags.c_contiguous
    assert peak < 5e6
    assert cols.read_bytes() == rows.read_bytes()


# The damaged-file tests run over both container kinds: a checkpoint and an
# expansion map, written and read through the same fileio container.

def _saved_containers(tmp_path):
    """(path, loader, kind name) for one fresh file of each container kind."""
    m = make_model(vocab_size=6)
    ckpt, lean, xmap = (tmp_path / n for n in ("c.ckpt", "m.ckpt", "x.map"))
    for path in (ckpt, lean):
        save_checkpoint(m, AdamState.initial(m.param_dict()), path)
    write_small_map(xmap)
    return [(ckpt, load_checkpoint, "checkpoint"),
            (lean, load_model, "checkpoint"),
            (xmap, read_expansion, "expansion-map")]


def _assert_rejected(path, load, kind):
    with pytest.raises(CheckpointError) as exc:
        load(path)
    where, _, why = str(exc.value).partition(": ")
    assert where == str(path) and kind in why


def _resealed(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


def test_checkpoint_truncation_detected(tmp_path):
    for path, load, kind in _saved_containers(tmp_path):
        path.write_bytes(path.read_bytes()[:-5])
        _assert_rejected(path, load, kind)


def test_checkpoint_corruption_detected(tmp_path):
    for path, load, kind in _saved_containers(tmp_path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        _assert_rejected(path, load, kind)


def test_checkpoint_bad_magic(tmp_path):
    for path, load, kind in _saved_containers(tmp_path):
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        _assert_rejected(path, load, kind)


def test_container_unsupported_version(tmp_path):
    # A valid checksum over a version this code does not know.
    for path, load, kind in _saved_containers(tmp_path):
        body = bytearray(path.read_bytes()[:-32])
        body[8:12] = struct.pack("<I", 2)
        path.write_bytes(_resealed(bytes(body)))
        _assert_rejected(path, load, kind)


def test_container_trailing_bytes(tmp_path):
    # One extra float64 after the last blob, under a valid checksum.
    for path, load, kind in _saved_containers(tmp_path):
        path.write_bytes(_resealed(path.read_bytes()[:-32] + b"\0" * 8))
        _assert_rejected(path, load, kind)


@pytest.mark.parametrize("case", sorted(MISMATCHED_HEADERS))
def test_header_params_must_match_the_config(tmp_path, case):
    # Each file has a valid checksum and blobs of the sizes its header
    # names; its parameter list disagrees with its config's names or shapes.
    path = tmp_path / "c.ckpt"
    write_mismatched_checkpoint(path, MISMATCHED_HEADERS[case])
    for load in (load_checkpoint, load_model):
        _assert_rejected(path, load, "checkpoint")


@pytest.mark.parametrize("key", sorted(CHECKPOINT_FIELD_TYPES))
def test_checkpoint_header_fields_are_checked_not_cast(tmp_path, key):
    # Each field used to pass through int(), float() or a comparison that
    # equates 3.0 with 3 and true with 1, and the file loaded.
    path = tmp_path / "c.ckpt"
    write_mismatched_checkpoint(path, retyped(key, CHECKPOINT_FIELD_TYPES[key]))
    for load in (load_checkpoint, load_model):
        _assert_rejected(path, load, "checkpoint")


@pytest.mark.parametrize("key", sorted(EXPANSION_FIELD_TYPES))
def test_expansion_header_fields_are_checked_not_cast(tmp_path, key):
    # "rank_deficient": "false" used to read as True, "shared_count": true
    # as 1 and "rnn_dim": 3.0 as 3.
    path = tmp_path / "x.map"
    write_small_map(path)
    edit_header(path, retyped(key, EXPANSION_FIELD_TYPES[key]))
    _assert_rejected(path, read_expansion, "expansion-map")


@pytest.mark.parametrize("case", sorted(CHECKPOINT_KEY_EDITS))
def test_checkpoint_header_key_sets_are_exact(tmp_path, case):
    # A config without seed or batch_size used to load with the defaults, so
    # a resume trained with other settings; an unknown top-level or adam key
    # loaded and was dropped on resave.
    path = tmp_path / "c.ckpt"
    write_mismatched_checkpoint(path, CHECKPOINT_KEY_EDITS[case])
    for load in (load_checkpoint, load_model):
        _assert_rejected(path, load, "checkpoint")


@pytest.mark.parametrize("case", sorted(EXPANSION_KEY_EDITS))
def test_expansion_header_key_set_is_exact(tmp_path, case):
    path = tmp_path / "x.map"
    write_small_map(path)
    edit_header(path, EXPANSION_KEY_EDITS[case])
    _assert_rejected(path, read_expansion, "expansion-map")


def test_checkpoint_with_a_negative_adam_step_is_refused(tmp_path):
    # It used to load, and training from it ran Adam at steps -2, -1 and 0,
    # whose bias corrections turned the parameters NaN.
    path = tmp_path / "c.ckpt"
    write_mismatched_checkpoint(path, retyped("adam.step", -3))
    for load in (load_checkpoint, load_model):
        _assert_rejected(path, load, "checkpoint")


def _set(name, shape):
    return lambda params, vocab: ({**params, name: np.zeros(shape)}, vocab)


# (mode, edit of a V=6, E=3, H=4 model's params and vocab, what the error
# names) for each way an array table can differ from param_shapes.
MALFORMED_PARAMS = {
    "W_width": ("uni", _set("enc.W_z", (4, 4)), "enc.W_z"),
    "U_not_square": ("uni", _set("dec_next.U", (4, 3)), "dec_next.U"),
    "C_uni_width_in_bi": ("bi", _set("dec_prev.C_r", (4, 4)), "dec_prev.C_r"),
    "begin_length": ("uni", _set("dec_prev.begin", (4,)), "dec_prev.begin"),
    "V_shape": ("uni", _set("V", (6, 3)), "'V'"),
    "emb_shape": ("bi", _set("emb", (5, 3)), "'emb'"),
    "vocab_size": ("uni", lambda params, vocab: (params, make_vocab(7)),
                   "vocabulary size"),
    "missing": ("uni", lambda params, vocab: (
        {k: v for k, v in params.items() if k != "enc.U"}, vocab), "enc.U"),
    "extra": ("bi", _set("dec_prev.extra", (1,)), "expected nothing"),
    "reordered": ("uni", lambda params, vocab: (dict(sorted(params.items())),
                                                vocab), "'emb'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_model_from_params_checks_every_array(case):
    mode, edit, named = MALFORMED_PARAMS[case]
    m = make_model(vocab_size=6, embed_dim=3, hidden_dim=4, mode=mode)
    params, vocab = edit(m.param_dict(), m.vocab)
    with pytest.raises(ConfigError, match=named):
        model_from_params(m.config, vocab, params)


def test_no_component_constructor_checks_shapes():
    # model_from_params is the one check of a model's arrays: the classes of
    # these modules raise no ShapeError as they are built, and only two keep
    # a check of their own (DecoderPair's shared storage, TrainConfig's
    # values).
    checked = []
    for stem in ("encoder", "decoder", "trainer"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if getattr(fn, "name", None) == "__post_init__":
                    checked.append(cls.name)
                    raised = [ast.unparse(n.exc) for n in ast.walk(fn)
                              if isinstance(n, ast.Raise) and n.exc]
                    assert not any("ShapeError" in r for r in raised), cls.name
    assert sorted(checked) == ["DecoderPair", "TrainConfig"]


def test_load_model_checks_the_moments_it_does_not_build(tmp_path):
    # The parameters are the first third of the blobs; every byte after
    # them belongs to the Adam moments, which load_model only hashes.
    m = make_model(vocab_size=6)
    path = tmp_path / "c.ckpt"
    save_checkpoint(m, AdamState.initial(m.param_dict()), path)
    good = path.read_bytes()
    body = len(good) - 32
    moments = 8 * 2 * sum(v.size for v in m.param_dict().values())
    for at in (body - moments, body - moments // 2, body - 1):
        blob = bytearray(good)
        blob[at] ^= 0x01
        path.write_bytes(bytes(blob))
        _assert_rejected(path, load_model, "checkpoint")
    for cut in (32, 32 + moments // 2):
        path.write_bytes(good[:-cut])
        _assert_rejected(path, load_model, "checkpoint")


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_load_model_equals_load_checkpoint(tmp_path, mode):
    m = randomize_params(make_model(vocab_size=7, embed_dim=3, hidden_dim=4,
                                    mode=mode), seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, AdamState.initial(m.param_dict()), path)
    for p in (path, DATA / "tiny.ckpt"):
        full, lean = load_checkpoint(p)[0], load_model(p)
        assert lean.config == full.config
        assert lean.vocab.id_to_token == full.vocab.id_to_token
        a, b = full.param_dict(), lean.param_dict()
        assert list(a) == list(b)
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_committed_files_resave_to_identical_bytes(tmp_path):
    # tests/data holds files written before the container moved into fileio.
    model, opt = load_checkpoint(DATA / "tiny.ckpt")
    save_checkpoint(model, opt, tmp_path / "tiny.ckpt")
    emap, ext = read_expansion(DATA / "tiny.map")
    write_expansion(emap, ext, tmp_path / "tiny.map")
    for name in ("tiny.ckpt", "tiny.map"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_expansion_map_with_a_repeated_token_is_malformed(tmp_path):
    # It used to raise InputError from ExternalEmbeddings, which names no
    # file, and the CLI exited 2 instead of 4.
    path = tmp_path / "tiny.map"
    path.write_bytes((DATA / "tiny.map").read_bytes())
    edit_header(path, retyped("tokens", ["w2", "w2", "w4", "w5", "x6", "x7"]))
    _assert_rejected(path, read_expansion, "expansion-map")
    with pytest.raises(CheckpointError, match="malformed expansion-map header"):
        read_expansion(path)


# Each committed container: its loader, and the save of what that loads.
COMMITTED = {"tiny.ckpt": (load_checkpoint, save_checkpoint),
             "tiny.map": (read_expansion, write_expansion)}
HEADER_EDITS = ("value", "retype", "drop", "add", "version", "length")
# Short strings over the letters of the fixtures' tokens and keys, so that an
# edit can repeat a token, and two letters that JSON escapes.
TEXT = st.text("wx2345<>kos_\u00e9\U0001f600", max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=5)


def _json_paths(node, at=()):
    """The path, as keys and list indices, of every value of a JSON tree."""
    yield at
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict)
                     else enumerate(node)):
            yield from _json_paths(v, at + (k,))


def _at(node, path):
    for k in path:
        node = node[k]
    return node


def _of_other_types(old):
    """JSON values of another type than old's, among them old's value in
    another type (3.0 for 3, 1 for true) and old spelled as a string."""
    values = [None, True, False, 0, 1, 0.5, "", json.dumps(old), [], [old],
              {}, {"": old}]
    if isinstance(old, (int, float)) and float(old).is_integer():
        values += [int(old), float(old)]
    return [v for v in values if type(v) is not type(old)]


def _like(old):
    """Values of old's own type, which a check of types alone lets through;
    any JSON value in place of an object or a list."""
    return {bool: st.booleans(), int: st.integers(), str: TEXT,
            float: st.floats(allow_nan=False, allow_infinity=False)
            }.get(type(old), JSON_VALUES)


def _mutant(raw: bytes, data) -> bytes:
    """`raw` with one header edit drawn from `data`, under a valid checksum.
    An edit of the header's JSON writes it back as canonical JSON."""
    version, length = struct.unpack_from("<IQ", raw, 8)
    head, blobs = raw[20:20 + length], raw[20 + length:-32]
    edit = data.draw(st.sampled_from(HEADER_EDITS))
    if edit == "version":
        version = data.draw(st.integers(0, 2**32 - 1))
    elif edit == "length":
        length = data.draw(st.integers(0, 2**64 - 1))
    else:
        header = {"": json.loads(head)}     # a root that an edit may replace
        fits = {"add": lambda p: isinstance(_at(header, p), dict),
                "drop": lambda p: len(p) > 1
                and isinstance(_at(header, p[:-1]), dict)}
        # Each top-level field is as likely as the long parameter list.
        sections = {}
        for p in list(_json_paths(header))[1:]:
            if fits.get(edit, lambda p: True)(p):
                sections.setdefault(p[:2], []).append(p)
        section = data.draw(st.sampled_from(list(sections.values())))
        path = data.draw(st.sampled_from(section))
        if edit == "add":
            node = _at(header, path)
            key = data.draw(TEXT.filter(lambda k: k not in node))
            node[key] = data.draw(JSON_VALUES)
        elif edit == "drop":
            del _at(header, path[:-1])[path[-1]]
        else:
            old = _at(header, path)
            new = (_like(old) if edit == "value"
                   else st.sampled_from(_of_other_types(old)))
            _at(header, path[:-1])[path[-1]] = data.draw(new)
        head = json.dumps(header[""], sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True).encode("ascii")
        length = len(head)
    body = raw[:8] + struct.pack("<IQ", version, length) + head + blobs
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("name", sorted(COMMITTED))
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_header_is_refused_or_resaves_to_its_bytes(tmp_path, name,
                                                           data):
    # A header changed in any one field, key, type or prefix word, under a
    # valid checksum, is refused as a damaged file, or it loads to what
    # saves back to the same bytes: nothing is cast, defaulted or dropped.
    load, save = COMMITTED[name]
    path, again = tmp_path / name, tmp_path / f"again.{name}"
    mutant = _mutant((DATA / name).read_bytes(), data)
    path.write_bytes(mutant)
    try:
        loaded = load(path)
    except CheckpointError:
        return
    save(*loaded, again)
    assert again.read_bytes() == mutant


def test_committed_checkpoint_matches_fresh_init():
    model, opt = load_checkpoint(DATA / "tiny.ckpt")
    c = model.config
    assert (c.vocab_size, c.embed_dim, c.hidden_dim, c.mode) == (6, 3, 4, "uni")
    assert opt.step == 0
    fresh = trainer.SkipGruModel.init(model.vocab, c).param_dict()
    saved = model.param_dict()
    assert list(saved) == list(fresh)
    assert all(np.max(np.abs(saved[k] - fresh[k])) <= 1e-12 for k in saved)


class _Crash(Exception):
    pass


def test_crash_mid_checkpoint_write_keeps_previous_file(tmp_path, rng,
                                                      monkeypatch):
    # The step-6 save fails after the parameter blobs are written: the step-3
    # checkpoint must survive unchanged, and resuming from it must reproduce
    # an uninterrupted run.
    triples = [random_triple(6, rng) for _ in range(8)]

    def fresh():
        return make_model(vocab_size=6, batch_size=2, max_steps=9,
                          checkpoint_every=3, seed=14)

    straight_csv = tmp_path / "straight.csv"
    straight = fresh()
    train(straight, triples, None, straight_csv, tmp_path / "straight.ckpt")

    run = tmp_path / "run"
    run.mkdir()
    ckpt, metrics = run / "c.ckpt", run / "m.csv"
    real_step = trainer.train_step
    seen = {}

    class CrashingMoments(dict):
        # Adam's first moments are the second blob group: by the time one is
        # read, the header and every parameter blob have gone to the open
        # temp file.
        def __getitem__(self, key):
            seen["partial"] = [p.name for p in run.iterdir()
                               if p.name.endswith(".tmp")]
            raise _Crash

    def crash_on_step_6_save(model, batch, opt, config):
        if opt.step == 5:
            seen["saved"] = ckpt.read_bytes()
            res = real_step(model, batch, opt, config)
            opt.m = CrashingMoments(opt.m)
            return res
        return real_step(model, batch, opt, config)

    monkeypatch.setattr(trainer, "train_step", crash_on_step_6_save)
    with pytest.raises(_Crash):
        train(fresh(), triples, None, metrics, ckpt)
    monkeypatch.undo()
    assert len(seen["partial"]) == 1
    assert ckpt.read_bytes() == seen["saved"]
    assert sorted(p.name for p in run.iterdir()) == ["c.ckpt", "m.csv"]

    model, opt = load_checkpoint(ckpt)
    assert opt.step == 3
    train(model, triples, opt, metrics, ckpt)
    a, b = straight.param_dict(), model.param_dict()
    assert all(np.array_equal(a[k], b[k]) for k in a)

    def without_wall_ms(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    rows = without_wall_ms(metrics)
    assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(1, 10)]
    assert rows == without_wall_ms(straight_csv)


def test_resume_equivalence(tmp_path, rng):
    # 10 steps, checkpoint, 10 more must equal 20 straight steps bit-for-bit.
    triples = [random_triple(6, rng) for _ in range(8)]

    def fresh(steps):
        return make_model(vocab_size=6, batch_size=4, max_steps=steps, seed=7)

    straight = fresh(20)
    train(straight, triples, None, tmp_path / "s.csv", tmp_path / "s.ckpt")
    straight = straight.param_dict()

    ckpt, metrics = tmp_path / "half.ckpt", tmp_path / "half.csv"
    train(fresh(10), triples, None, metrics, ckpt)
    m2, opt2 = load_checkpoint(ckpt)
    m2 = model_from_params(dataclasses.replace(m2.config, max_steps=20),
                           m2.vocab, m2.param_dict())
    train(m2, triples, opt2, metrics, ckpt)
    resumed = m2.param_dict()
    assert all(np.array_equal(straight[k], resumed[k]) for k in straight)


def test_every_run_writes_its_final_checkpoint_once(tmp_path, rng,
                                                    monkeypatch):
    triples = [random_triple(6, rng) for _ in range(8)]

    def fresh(steps):
        return make_model(vocab_size=6, batch_size=4, seed=7,
                          max_steps=steps, checkpoint_every=2)

    # The bytes of the end state, as the save after the loop writes them.
    final = tmp_path / "final.ckpt"
    end = fresh(4)
    save_checkpoint(end, train(end, triples, None, tmp_path / "end.csv",
                               tmp_path / "end.ckpt").opt, final)
    saves = []
    real_save = trainer.save_checkpoint

    def counting_save(model, opt, path):
        saves.append(opt.step)
        real_save(model, opt, path)

    monkeypatch.setattr(trainer, "save_checkpoint", counting_save)

    def run(model, opt=None):
        saves.clear()
        train(model, triples, opt, tmp_path / "m.csv", path)
        return saves

    path = tmp_path / "c.ckpt"
    assert run(fresh(4)) == [2, 4]
    assert path.read_bytes() == final.read_bytes()
    assert run(fresh(5)) == [2, 4, 5]
    assert run(fresh(0)) == [0]
    # A resume that is already at max_steps.
    assert run(*load_checkpoint(final)) == [4]
    assert path.read_bytes() == final.read_bytes()


# ---------------------------------------------------------------------------
# config and parameter bookkeeping
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(Exception):
        TrainConfig(embed_dim=3, hidden_dim=3, vocab_size=5, batch_size=0)
    with pytest.raises(Exception):
        TrainConfig(embed_dim=3, hidden_dim=3, vocab_size=5,
                    clip_threshold=0.0)
    with pytest.raises(Exception):
        TrainConfig(embed_dim=3, hidden_dim=3, vocab_size=5, mode="tri")


@pytest.mark.parametrize("field,value", [
    ("beta1", 1.0), ("beta2", 1.0), ("epsilon", 0.0), ("epsilon", np.nan),
    ("beta1", -0.1), ("beta2", np.nan), ("epsilon", np.inf)])
def test_config_refuses_adam_values_outside_their_range(field, value):
    # Adam divides by its bias corrections 1 - beta**t, zero at beta 1, and
    # by sqrt(v) + epsilon, zero at epsilon 0 on an untouched entry: beta1
    # 1.0, beta2 1.0 and epsilon 0.0 each trained a step into non-finite
    # parameters and checkpointed them, and epsilon nan wrote a checkpoint
    # that load_checkpoint then refused.
    with pytest.raises(ConfigError, match=field):
        TrainConfig(vocab_size=6, **{field: value})
    # The ends of each range that Adam can step with are accepted.
    TrainConfig(vocab_size=6, beta1=0.0, beta2=0.0, epsilon=5e-324)


def test_param_shapes_cover_param_dict():
    for mode in ("uni", "bi"):
        m = make_model(vocab_size=6, embed_dim=3, hidden_dim=4, mode=mode)
        assert ([(k, v.shape) for k, v in m.param_dict().items()]
                == list(param_shapes(m.config).items()))


def test_init_rejects_a_vocabulary_of_another_size():
    cfg = TrainConfig(vocab_size=9, embed_dim=3, hidden_dim=4)
    with pytest.raises(ConfigError, match="vocabulary size mismatch"):
        trainer.SkipGruModel.init(make_vocab(8), cfg)


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_init_matches_the_builder_chain(mode, seed):
    # SkipGruModel.init draws param_shapes in order from one stream; the
    # oracle draws the same stream GRU by GRU, then decoder by decoder.
    cfg = TrainConfig(vocab_size=9, embed_dim=3, hidden_dim=5, mode=mode,
                      seed=seed)
    got = trainer.SkipGruModel.init(make_vocab(9), cfg).param_dict()
    want = reference.init_model(make_vocab(9), cfg).param_dict()
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_one_table_declares_every_parameter():
    # param_shapes alone writes the parameter names: the builders that drew
    # the model piece by piece are gone, each decoder's prefix is one string
    # constant, and trainer reaches the decoders through their directions.
    removed = {"init_gru_params", "init_encoder", "init_conditional_gru",
               "init_decoder_pair", "param_order"}
    prefixes = {"dec_next.": 0, "dec_prev.": 0}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and ast.get_docstring(node) is not None}
        for node in ast.walk(tree):
            name = getattr(node, "name", None) or getattr(node, "id", None) \
                or getattr(node, "attr", None)
            assert name not in removed, (path.name, name)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                for prefix in prefixes:
                    prefixes[prefix] += prefix in node.value
        if path.stem == "trainer":
            attrs = {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)}
            assert not attrs & {"next_params", "prev_params"}
    assert prefixes == {"dec_next.": 1, "dec_prev.": 1}


def test_optimizer_buffers_survive_roundtrip(tmp_path, rng):
    triples = [random_triple(6, rng) for _ in range(4)]
    m = make_model(vocab_size=6, batch_size=2, max_steps=3, seed=11)
    res = train(m, triples, None, tmp_path / "m.csv", tmp_path / "m.ckpt")
    path = tmp_path / "o.ckpt"
    save_checkpoint(m, res.opt, path)
    m2, opt2 = load_checkpoint(path)
    for k in res.opt.m:
        assert np.array_equal(res.opt.m[k], opt2.m[k])
        assert np.array_equal(res.opt.v[k], opt2.v[k])
    # Adam's hyperparameters travel in the config, the step in the state.
    assert opt2.step == res.opt.step == 3
    assert m2.config == m.config
