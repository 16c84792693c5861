"""Shared test fixtures: tiny vocabularies, randomized models, triple makers.

Gradient-check instances replace the freshly initialized parameters (scale
0.1 and below) with O(1)-scale uniform draws.  At init scale many gradient
coordinates sit near the central-difference noise floor and the relative
error metric divides by a vanishing denominator; O(1) parameters keep every
coordinate well above that floor without changing what is being checked.
"""

import json
import shutil
import struct
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from skipgru.corpus import EOS_TOKEN, UNK_TOKEN, SentenceTriple, Vocabulary
from skipgru.decoder import decode_batch, decoder_backward
from skipgru.fileio import write_container
from skipgru.numerics import AdamState
from skipgru.trainer import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, SkipGruModel,
                             TrainConfig, model_from_params, param_shapes,
                             save_checkpoint)
from skipgru.vocab_expansion import (ExpansionMap, ExternalEmbeddings,
                                     write_expansion)

# Hypothesis keeps no example database, which it would write to .hypothesis/
# in the working directory, and caches the constants it reads from the sources
# in a temporary home directory that the run removes at its end.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="skipgru-hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)


def make_vocab(n_tokens: int) -> Vocabulary:
    """Vocabulary of size n_tokens: reserved pair plus w2, w3, ..."""
    tokens = [EOS_TOKEN, UNK_TOKEN] + [f"w{i}" for i in range(2, n_tokens)]
    return Vocabulary(tokens)


def make_model(vocab_size=6, embed_dim=3, hidden_dim=3, mode="uni",
               seed=0, **overrides) -> SkipGruModel:
    cfg = TrainConfig(embed_dim=embed_dim, hidden_dim=hidden_dim,
                      vocab_size=vocab_size, mode=mode, seed=seed, **overrides)
    return SkipGruModel.init(make_vocab(vocab_size), cfg)


def _config_disagrees(header):
    header["config"]["hidden_dim"] += 1


def _emb_too_wide(header):
    header["params"][0][1][1] += 1


def _params_reordered(header):
    params = header["params"]
    params[1], params[2] = params[2], params[1]


def _vocab_too_short(header):
    header["vocab"].pop()


def _adam_disagrees(header):
    header["adam"]["alpha"] = 0.5


# Header edits that leave a checkpoint's header at odds with its config: by
# a config value, by one shape, by the order of the names, by the length of
# the vocabulary, and by an Adam hyperparameter that differs from the
# config's copy.
MISMATCHED_HEADERS = {"adam": _adam_disagrees, "config": _config_disagrees,
                      "emb": _emb_too_wide, "order": _params_reordered,
                      "vocab": _vocab_too_short}

# The header's parameter list of write_mismatched_checkpoint's model.
_PARAMS = [[k, list(shape)] for k, shape in param_shapes(
    TrainConfig(vocab_size=6, embed_dim=3, hidden_dim=4)).items()]

# One header field per case, given a JSON value of another type that a cast
# would once have let through: a float or a bool for an int, a bool or a
# string for a float, a string for a bool, a number among strings.  The keys
# name the field, a dot stepping into a nested object.
CHECKPOINT_FIELD_TYPES = {
    "config.vocab_size": 6.0, "config.embed_dim": 3.0,
    "config.hidden_dim": 4.0, "config.batch_size": True,
    "config.max_steps": 0.0, "config.seed": True,
    "config.checkpoint_every": False, "config.clip_threshold": True,
    "config.alpha": True, "config.beta1": True, "config.beta2": "0.999",
    "config.epsilon": True, "adam.alpha": "0.001", "adam.beta1": True,
    "adam.beta2": True, "adam.epsilon": True, "adam.step": 2.7,
    "vocab": [EOS_TOKEN, UNK_TOKEN, 2, "w3", "w4", "w5"],
    "params": [["emb", [6, 3.0]], *_PARAMS[1:]],
}
EXPANSION_FIELD_TYPES = {
    "tokens": ["w2", "w3", 4], "rnn_dim": 3.0, "ext_dim": 2.0,
    "shared_count": True, "residual_rms": "0.5", "rank_deficient": "false",
}


def retyped(key, value):
    """A header edit that sets the field `key` (dotted) to `value`."""
    def edit(header):
        *outer, last = key.split(".")
        for k in outer:
            header = header[k]
        header[last] = value
    return edit


def dropped(key):
    """A header edit that removes the field `key` (dotted)."""
    def edit(header):
        *outer, last = key.split(".")
        for k in outer:
            header = header[k]
        del header[last]
    return edit


# Header edits that leave a key set other than the format's: each key of
# every object dropped ("-key"), and one unknown key added to each object
# ("+key").  A config key with a default used to be filled in when dropped,
# and an unknown top-level, adam or map key was ignored.
_CHECKPOINT_KEYS = (
    ["adam", "config", "params", "vocab"]
    + [f"adam.{k}" for k in ("alpha", "beta1", "beta2", "epsilon", "step")]
    + [f"config.{k}" for k in asdict(TrainConfig(vocab_size=6))])
CHECKPOINT_KEY_EDITS = {
    **{f"-{k}": dropped(k) for k in _CHECKPOINT_KEYS},
    "+extra": retyped("extra", 1),
    "+adam.momentum": retyped("adam.momentum", 0.9),
    "+config.dropout": retyped("config.dropout", 0.5)}
EXPANSION_KEY_EDITS = {
    **{f"-{k}": dropped(k) for k in ("tokens", "rnn_dim", "ext_dim",
                                     "shared_count", "residual_rms",
                                     "rank_deficient")},
    "+extra": retyped("extra", 1)}


def _read_header(raw: bytes) -> tuple[dict, int]:
    """A container's header and the offset of its first blob byte."""
    (length,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20:20 + length]), 20 + length


def write_mismatched_checkpoint(path, edit) -> None:
    """A checkpoint of a uni model (V=6, E=3, H=4) whose header `edit` has
    changed, with zero blobs of the shapes its parameter list names (the
    model's, if the edit drops the list) and a valid checksum: only a check
    of the header can refuse it."""
    m = make_model(vocab_size=6, embed_dim=3, hidden_dim=4)
    save_checkpoint(m, AdamState.initial(m.param_dict()), path)
    header, _ = _read_header(path.read_bytes())
    edit(header)
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                    [np.zeros([int(d) for d in shape])
                     for _, shape in header.get("params", _PARAMS) * 3])


def write_small_map(path) -> None:
    """An expansion map that fits make_model(embed_dim=3): W (3, 2) over the
    external words w2, w3 and x4."""
    ext = ExternalEmbeddings(tokens=["w2", "w3", "x4"],
                             vectors=np.arange(6.0).reshape(3, 2))
    write_expansion(ExpansionMap(W=np.ones((3, 2)), shared_count=2,
                                 residual_rms=0.5), ext, path)


def edit_header(path, edit) -> None:
    """Rewrite the container at `path` with its header changed by `edit`,
    its blob bytes as they were and a valid checksum."""
    raw = path.read_bytes()
    header, start = _read_header(raw)
    edit(header)
    version, _ = struct.unpack_from("<IQ", raw, 8)
    write_container(path, raw[:8], version, header,
                    [np.frombuffer(raw[start:-32], dtype="<f8")])


def randomize_params(model: SkipGruModel, seed=0, scale=0.7) -> SkipGruModel:
    """Same architecture, all parameters redrawn uniform in [-scale, scale]."""
    rng = np.random.default_rng(seed)
    params = {k: rng.uniform(-scale, scale, size=v.shape)
              for k, v in model.param_dict().items()}
    return model_from_params(model.config, model.vocab, params)


def zero_grads(model: SkipGruModel) -> dict[str, np.ndarray]:
    """A zero-filled gradient accumulator for every parameter of `model`, with
    V's column-major, the one layout that the output layer's backward takes."""
    grads = {k: np.zeros_like(v) for k, v in model.param_dict().items()}
    grads["V"] = np.zeros_like(grads["V"], order="F")
    return grads


def lay_out(model: SkipGruModel) -> SkipGruModel:
    """`model` with V column-major, as trainer.train lays it out before the
    steps it takes; a direct train_step call needs the same layout."""
    model.decoders.V = np.asfortranarray(model.decoders.V)
    return model


def decoder_pass_backward(target, h_enc, p, V, embedding, grads, prefix=""):
    """One decoder pass's forward and whole backward, as a train step runs
    them for a decoder of one pass: decode_batch, which runs the output
    layer, then the recurrence of its one-pass block.  Adds into `grads` and
    returns the log-likelihood, the cache and the gradient into h_enc."""
    [lp], cache = decode_batch([target], np.asarray(h_enc)[None], p, V,
                               embedding, grads)
    [g_henc] = decoder_backward(cache, p, grads, prefix)
    return lp, cache, g_henc


def random_triple(vocab_size: int, rng, max_len=4) -> SentenceTriple:
    """Random eos-terminated triple over ids [2, vocab_size)."""
    def sent():
        L = int(rng.integers(1, max_len + 1))
        body = rng.integers(2, vocab_size, size=L)
        return tuple(int(t) for t in body) + (0,)
    return SentenceTriple(prev=sent(), curr=sent(), next=sent())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
