"""Neighbor-reconstruction training: the twin-decoder objective, Adam steps
with gradient clipping, the epoch loop, and versioned binary checkpoints.

param_shapes(config) is the one table of the model's parameters: their
names, their order and their shapes.  SkipGruModel.init draws its entries in
that order from one seeded stream (the recurrent U_* matrices orthogonal,
every other weight uniform in [-0.1, 0.1)); param_dict lists them in that
order; and a checkpoint stores them in that order, under a header whose
parameter list must equal the table of its own config.  model_from_params,
which builds every model, is the one check of a model's arrays against the
table.  Both decoders, like both encoder directions, are reached through
their `directions`, so each parameter-name prefix is written once.

The loss for one triple (s_prev, s_curr, s_next) is

    -[log P(s_next | h) + log P(s_prev | h)],  h = encode(s_curr)

and a batch optimizes the mean over its triples (the corpus objective is the
sum; the mean keeps the learning rate independent of batch size).  The two
terms are independent given h.  A train step allocates one zero-filled
gradient per parameter, and batch_grads adds the whole batch's gradient into
it in three sequential parts:

  A. the encoder's forward pass of every triple in batch order;
  B. each decoder end to end, the next one's first: decoder.decode_batch
     runs its pass of every triple in batch order as one gru_forward over a
     right-padded (T, B) block, and the output layer once per chunk of
     passes, which forms the chunk's logits in one product, takes its
     log-likelihoods and adds its gradient into V's column-major gradient;
     decoder_backward runs one gru_backward over the block, which is
     dropped before the other decoder's is made;
  C. each triple's encoder_backward in batch order, from the sum of its two
     conditioning gradients.

The additions happen in a fixed order (V's in each decoder's chunk order, the
decoders' in part B's, and the encoder's triple by triple), so runs are
reproducible bit for bit given a seed, and a checkpointed run resumed
mid-stream matches an unbroken run exactly.

Clipping and Adam then write into the gradient, the model's parameter arrays
and the optimizer's moments in place, so a step holds four parameter-sized
sets (parameters, two moments, one gradient) and no more: training updates
the model and optimizer objects it is given.  Adam steps with the config's
hyperparameters, which a checkpoint's adam block must repeat.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import SentenceTriple, Vocabulary
from .decoder import (COND_CONDITIONING_KEYS, DECODER_PREFIXES,
                      ConditionalGruParams, DecoderPair, decode_batch,
                      decoder_backward, sentence_log_prob)
from .encoder import (ENCODER_PREFIXES, GRU_INPUT_KEYS, GRU_RECURRENT_KEYS,
                      EncoderCache, EncoderModel, GruParams, encode_with_cache,
                      encoder_backward)
from .errors import ConfigError, InputError, NumericError
from .fileio import check_keys, check_types, read_container, write_container
from .numerics import (ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                       AdamState, ParamSet, adam_step, clip_gradients, get_rng,
                       global_norm, orthogonal_init, seed_tuple)

CHECKPOINT_MAGIC = b"SKIPGRUC"
CHECKPOINT_VERSION = 1

METRICS_HEADER = "step,loss,grad_norm,clipped,wall_ms"

# Every weight that is not a recurrent U_* matrix starts uniform in
# [-INIT_RANGE, INIT_RANGE).
INIT_RANGE = 0.1


@dataclass
class TrainConfig:
    """A training run's settings, and the one home of their defaults.  Each
    field holds its annotated type: no bool or float passes for an int."""

    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 64
    batch_size: int = 128
    clip_threshold: float = 10.0
    alpha: float = ADAM_ALPHA
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPSILON
    max_steps: int = 0
    seed: int = 0
    mode: str = "uni"
    checkpoint_every: int = 0

    def __post_init__(self):
        check_types(vars(self), {f.name: f.type for f in fields(self)},
                    ConfigError)
        # Written so that NaN fails: every comparison with NaN is false.
        # Adam divides by 1 - beta**t, 0 at beta 1, and by sqrt(v) + epsilon,
        # 0 at epsilon 0 where a gradient has been 0.
        for name, ok, rule in (
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("max_steps", self.max_steps >= 0, ">= 0"),
                ("checkpoint_every", self.checkpoint_every >= 0, ">= 0"),
                ("clip_threshold", self.clip_threshold > 0, "> 0"),
                ("alpha", 0 <= self.alpha < math.inf, "finite and >= 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("epsilon", 0 < self.epsilon < math.inf, "finite and > 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.mode not in ("uni", "bi"):
            raise ConfigError(f"mode must be 'uni' or 'bi', got {self.mode!r}")
        if min(self.embed_dim, self.hidden_dim) < 1:
            raise ConfigError("embed_dim and hidden_dim must be positive")
        if self.vocab_size < 3:
            raise ConfigError(f"vocab_size must be >= 3, got {self.vocab_size}")

    @property
    def encoder_prefixes(self) -> tuple[str, ...]:
        return ENCODER_PREFIXES[:2 if self.mode == "bi" else 1]

    @property
    def encoder_dim(self) -> int:
        return self.hidden_dim * len(self.encoder_prefixes)


def param_shapes(config: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the canonical order: the order
    of param_dict, of the checkpoint blobs and of the init draws."""
    E, H = config.embed_dim, config.hidden_dim
    gru = {**dict.fromkeys(GRU_INPUT_KEYS, (H, E)),
           **dict.fromkeys(GRU_RECURRENT_KEYS, (H, H))}
    cond = {**gru, **dict.fromkeys(COND_CONDITIONING_KEYS, (H, config.encoder_dim)),
            "begin": (E,)}
    shapes = {"emb": (config.vocab_size, E)}
    for prefixes, keys in ((config.encoder_prefixes, gru), (DECODER_PREFIXES, cond)):
        for prefix in prefixes:
            shapes.update({prefix + k: shape for k, shape in keys.items()})
    shapes["V"] = (config.vocab_size, H)
    return shapes


@dataclass
class SkipGruModel:
    """Encoder, twin decoders, vocabulary, and the config that shaped them."""

    config: TrainConfig
    vocab: Vocabulary
    encoder: EncoderModel
    decoders: DecoderPair

    @property
    def embedding(self) -> np.ndarray:
        return self.encoder.embedding

    @classmethod
    def init(cls, vocab: Vocabulary, config: TrainConfig) -> "SkipGruModel":
        rng = get_rng(seed_tuple(config.seed, "init"))
        params = {name: orthogonal_init(*shape, rng)
                  if name.rpartition(".")[2] in GRU_RECURRENT_KEYS
                  else rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
                  for name, shape in param_shapes(config).items()}
        return model_from_params(config, vocab, params)

    def param_dict(self) -> ParamSet:
        params: ParamSet = {"emb": self.encoder.embedding}
        for p, _, prefix in self.encoder.directions:
            params.update(p.as_dict(prefix))
        for p, prefix in self.decoders.directions:
            params.update(p.as_dict(prefix))
        params["V"] = self.decoders.V
        return params


def model_from_params(config: TrainConfig, vocab: Vocabulary,
                      params: ParamSet) -> SkipGruModel:
    """The model of `params`, once their names, order and shapes equal
    param_shapes(config) and the vocabulary has config.vocab_size entries:
    the one check of a model's arrays.  The first entry that differs raises
    ConfigError."""
    if vocab.size != config.vocab_size:
        raise ConfigError(f"vocabulary size mismatch: config {config.vocab_size}, "
                          f"vocab {vocab.size}")
    found = ((name, np.shape(a)) for name, a in params.items())
    for i, (want, got) in enumerate(zip_longest(
            param_shapes(config).items(), found, fillvalue="nothing")):
        if want != got:
            raise ConfigError(f"parameter {i} is {got}, expected {want}")
    enc = EncoderModel(np.asarray(params["emb"], dtype=np.float64),
                       *(GruParams.from_dict(params, prefix)
                         for prefix in config.encoder_prefixes))
    dec = DecoderPair(*(ConditionalGruParams.from_dict(params, prefix)
                        for prefix in DECODER_PREFIXES),
                      V=np.asarray(params["V"], dtype=np.float64))
    return SkipGruModel(config=config, vocab=vocab, encoder=enc, decoders=dec)


def triple_loss(model: SkipGruModel, triple: SentenceTriple) -> float:
    """-[log P(next | h) + log P(prev | h)] with h = encode(curr); >= 0."""
    h = encode_with_cache(triple.curr, model.encoder)[0]
    lp_next, lp_prev = (
        sentence_log_prob(target, h, p, model.decoders.V, model.embedding)
        for target, (p, _) in zip((triple.next, triple.prev),
                                  model.decoders.directions))
    return -(lp_next + lp_prev)


def batch_grads(model: SkipGruModel, batch: Sequence[SentenceTriple],
                grads: ParamSet) -> float:
    """Add the gradient of the summed triple losses of `batch` into `grads`,
    one accumulator per parameter name (param_shapes), in the three parts of
    the module docstring.  Returns that sum, in batch order, of each triple's
    -(log P(next) + log P(prev)) from its forward pass.  An empty batch
    raises InputError."""
    encoded = [encode_with_cache(t.curr, model.encoder) for t in batch]
    return triple_grads(model, batch, encoded, grads)


def triple_grads(model: SkipGruModel, batch: Sequence[SentenceTriple],
                 encoded: Sequence[tuple[np.ndarray, EncoderCache]],
                 grads: ParamSet) -> float:
    """Parts B and C of batch_grads: add the batch's decoder and encoder
    gradients into `grads`, given each triple's (sentence vector, encoder
    cache) in batch order, and return the batch's summed loss."""
    dec = model.decoders
    H_enc = np.array([h for h, _ in encoded])
    log_probs, g_enc = [], []
    nexts, prevs = [t.next for t in batch], [t.prev for t in batch]
    for targets, (p, prefix) in zip((nexts, prevs), dec.directions):
        lp, cache = decode_batch(targets, H_enc, p, dec.V, model.embedding,
                                 grads)
        log_probs.append(lp)
        g_enc.append(decoder_backward(cache, p, grads, prefix))
        del cache  # before the next decoder's block is made
    for (_, cache), g in zip(encoded, g_enc[0] + g_enc[1]):
        encoder_backward(cache, g, model.encoder, grads)
    return -sum(n + q for n, q in zip(*log_probs))


class TrainStepResult(NamedTuple):
    batch_loss: float
    grad_norm: float
    clipped: bool


def train_step(model: SkipGruModel, batch: Sequence[SentenceTriple],
               opt: AdamState, config: TrainConfig) -> TrainStepResult:
    """One optimizer step on the mean triple loss over `batch`, applied in
    place to `model`'s parameter arrays and `opt`.  V must be column-major, as
    train() lays it out: for any other layout ParameterError is raised before
    the model or `opt` change.

    Returns the loss measured before the update.  One zero-filled gradient
    set is passed to batch_grads, which adds the batch's gradient in the
    fixed order of the module docstring, so runs are deterministic; it is
    then scaled to the batch mean, and its one global norm is checked,
    reported and used to clip it in place before it is handed to Adam.
    """
    params = model.param_dict()
    total: ParamSet = {k: np.zeros_like(v) for k, v in params.items()}
    mean_loss = batch_grads(model, batch, total) / len(batch)
    if not math.isfinite(mean_loss):
        raise NumericError(f"non-finite batch loss {mean_loss} at step "
                           f"{opt.step + 1}; training aborted")
    scale = 1.0 / len(batch)
    for k in total:
        total[k] *= scale
    norm = global_norm(total)
    if not math.isfinite(norm):
        raise NumericError(f"non-finite gradient norm {norm} at step "
                           f"{opt.step + 1}; training aborted")
    clipped = clip_gradients(total, config.clip_threshold, norm)
    adam_step(params, total, opt, config.alpha, config.beta1, config.beta2,
              config.epsilon)
    return TrainStepResult(batch_loss=mean_loss, grad_norm=norm,
                           clipped=clipped)


class TrainResult(NamedTuple):
    opt: AdamState
    first_loss: float | None   # None when the run takes no step
    final_loss: float | None


def train(model: SkipGruModel, triples: Sequence[SentenceTriple],
          opt: AdamState | None, metrics_path, checkpoint_path) -> TrainResult:
    """Run from opt.step up to config.max_steps over shuffled triples,
    training `model` and `opt` in place; a caller that needs the starting
    weights copies them first.  `opt` None starts a fresh run.  Returns the
    optimizer state (`opt`, or the one made for a fresh run) and the batch
    losses of the run's first and last steps.

    Each epoch is a fresh seeded permutation of the triples, consumed in
    batch_size slices; the current position is derived from opt.step alone, so
    resuming from a checkpoint continues the identical batch stream.  Appends
    one row per step to the metrics CSV at metrics_path (a new or empty file
    gets the header first; a resumed run drops the rows after opt.step), and
    writes the checkpoint at checkpoint_path every config.checkpoint_every
    steps and at the end; the end writes only if the last step did not, so
    every run writes its final state exactly once.

    On entry the output matrix V and its Adam moments are laid out
    column-major (the step's gradient follows V through zeros_like), which
    is the layout in which BLAS streams V fastest in every logits product,
    and the only one the output layer's backward accepts.  model.decoders.V,
    opt.m["V"] and opt.v["V"] may thus be new arrays with the same values;
    checkpoints store them row-major.
    """
    config = model.config
    if not triples:
        raise InputError("no training triples")
    model.decoders.V = np.asfortranarray(model.decoders.V)
    if opt is None:
        opt = AdamState.initial(model.param_dict())
    else:
        for moments in (opt.m, opt.v):
            moments["V"] = np.asfortranarray(moments["V"])
    n = len(triples)
    steps_per_epoch = -(-n // config.batch_size)
    first_loss = final_loss = None
    cached_epoch, perm = -1, None
    saved_step = None
    if opt.step > 0 and os.path.exists(metrics_path):
        _truncate_metrics(metrics_path, opt.step)
    with open(metrics_path, "a" if opt.step > 0 else "w") as metrics:
        if metrics.tell() == 0:
            metrics.write(METRICS_HEADER + "\n")
        while opt.step < config.max_steps:
            epoch = opt.step // steps_per_epoch
            if epoch != cached_epoch:
                rng = get_rng(seed_tuple(config.seed, "epoch", epoch))
                perm = rng.permutation(n)
                cached_epoch = epoch
            slot = opt.step % steps_per_epoch
            idx = perm[slot * config.batch_size:(slot + 1) * config.batch_size]
            batch = [triples[i] for i in idx]
            t0 = time.perf_counter()
            res = train_step(model, batch, opt, config)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if first_loss is None:
                first_loss = res.batch_loss
            final_loss = res.batch_loss
            metrics.write(f"{opt.step},{res.batch_loss:.17g},"
                          f"{res.grad_norm:.17g},{int(res.clipped)},"
                          f"{wall_ms:.3f}\n")
            if (config.checkpoint_every > 0
                    and opt.step % config.checkpoint_every == 0):
                # The rows up to the checkpoint reach the file before it.
                metrics.flush()
                save_checkpoint(model, opt, checkpoint_path)
                saved_step = opt.step
    if saved_step != opt.step:
        save_checkpoint(model, opt, checkpoint_path)
    return TrainResult(opt=opt, first_loss=first_loss, final_loss=final_loss)


def _truncate_metrics(path, step: int) -> None:
    """Cut a metrics CSV after the row of `step`, or before its first line
    without a newline if that comes first.  A run stopped after its last
    checkpoint has written rows that the run resumed from that checkpoint
    writes again, and a kill between buffer flushes leaves a torn last row."""
    size = 0
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            head = line.split(b",", 1)[0]
            if not line.endswith(b"\n") or i > 0 and not (
                    head.isdigit() and int(head) <= step):
                break
            size += len(line)
    os.truncate(path, size)


def save_checkpoint(model: SkipGruModel, opt: AdamState, path) -> None:
    """A fileio container: magic SKIPGRUC, the canonical-JSON header (config,
    vocabulary, parameter names and shapes, and an adam block of the
    config's Adam hyperparameters and opt.step), then the float64 blobs.

    Blob order: every parameter in declared order, then the Adam first-moment
    buffers, then the second-moment buffers.  Identical model state always
    produces identical bytes.
    """
    params, c = model.param_dict(), model.config
    header = {
        "adam": {"alpha": c.alpha, "beta1": c.beta1, "beta2": c.beta2,
                 "epsilon": c.epsilon, "step": opt.step},
        "config": asdict(c),
        "params": [[k, list(v.shape)] for k, v in params.items()],
        "vocab": model.vocab.id_to_token,
    }
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                    (group[k] for group in (params, opt.m, opt.v) for k in params))


def _parse_checkpoint_header(header):
    # Exact key sets: a key that load ignored would not survive a resave,
    # and a config key that is missing would take its default.
    check_keys(header, ("adam", "config", "params", "vocab"))
    check_keys(header["config"], [f.name for f in fields(TrainConfig)])
    config = TrainConfig(**header["config"])
    shapes = param_shapes(config)
    # Compared as text, so that 3.0 or true does not pass for 3 or 1.
    if repr(header["params"]) != repr([[k, list(v)] for k, v in shapes.items()]):
        raise ValueError("parameter names and shapes do not match the config")
    check_types(header, {"vocab": "list[str]"})
    if len(header["vocab"]) != config.vocab_size:
        raise ValueError(f"{len(header['vocab'])} vocabulary tokens, config "
                         f"vocab_size {config.vocab_size}")
    hyper = ("alpha", "beta1", "beta2", "epsilon")
    kinds = {**dict.fromkeys(hyper, "float"), "step": "int"}
    adam = header["adam"]
    check_keys(adam, kinds)
    check_types(adam, kinds)
    if adam["step"] < 0:
        raise ValueError(f"adam step must be >= 0, got {adam['step']}")
    # The one check of the block against the config, whose values Adam uses.
    for k in hyper:
        if adam[k] != getattr(config, k):
            raise ValueError(f"adam.{k} {adam[k]} differs from config.{k} "
                             f"{getattr(config, k)}")
    meta = (config, Vocabulary(header["vocab"]), list(shapes), adam["step"])
    return meta, list(shapes.values()) * 3


def load_model(path) -> SkipGruModel:
    """The model of a checkpoint, without building its Adam moments: what
    inference needs.  The moments' bytes still pass through the checksum, so
    this rejects every file that load_checkpoint rejects."""
    (config, vocab, names, _), params = read_container(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
        _parse_checkpoint_header, keep=lambda meta: len(meta[2]))
    return model_from_params(config, vocab, dict(zip(names, params)))


def load_checkpoint(path) -> tuple[SkipGruModel, AdamState]:
    """Inverse of save_checkpoint; never returns a partially restored model.
    Training resumes from this; inference loads through load_model."""
    (config, vocab, names, step), blobs = read_container(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
        _parse_checkpoint_header)
    n = len(names)
    params, m, v = (dict(zip(names, blobs[i * n:(i + 1) * n])) for i in range(3))
    model = model_from_params(config, vocab, params)
    return model, AdamState(step, m, v)
