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

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from skipgru.corpus import EOS_TOKEN, UNK_TOKEN, SentenceTriple, Vocabulary
from skipgru.decoder import decode_batch, decoder_backward
from skipgru.fileio import write_container
from skipgru.trainer import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, SkipGruModel,
                             TrainConfig, make_optimizer, model_from_params,
                             save_checkpoint)

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


# Header edits that leave a checkpoint's parameter list at odds with its
# config: by a config value, by one shape, and by the order of the names.
MISMATCHED_HEADERS = {"config": _config_disagrees, "emb": _emb_too_wide,
                      "order": _params_reordered}


def write_mismatched_checkpoint(path, edit) -> None:
    """A checkpoint of a uni model (V=6, E=3, H=4) whose header `edit` has
    changed, with zero blobs of the shapes its parameter list names and a
    valid checksum: only the check of that list against the config can
    refuse it."""
    m = make_model(vocab_size=6, embed_dim=3, hidden_dim=4)
    save_checkpoint(m, make_optimizer(m), path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC) + 4)
    start = len(CHECKPOINT_MAGIC) + 12
    header = json.loads(raw[start:start + length])
    edit(header)
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                    [np.zeros(shape) for _, shape in header["params"] * 3])


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
    them for a batch of one pass: decode_batch, which runs the output layer,
    then the recurrence.  Adds into `grads` and returns the log-likelihood,
    the cache and the gradient into h_enc."""
    [lp], [cache], [dS] = decode_batch([(target, h_enc, p)], V, embedding,
                                       grads)
    return lp, cache, decoder_backward(cache, dS, p, grads, prefix)


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
