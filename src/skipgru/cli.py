"""Command-line surface for the whole pipeline.

Subcommands: build-vocab, train, encode, expand, nn-word, nn-sent, eval-sick,
eval-paraphrase, eval-classify, eval-rank, generate.  Every run is
deterministic given its flags and seeds.  A run that writes an output file,
or is given --manifest, also writes one JSON manifest recording the config,
input digests, and outputs.  Exit codes: 0 success, 2 usage or
config problems, 3 numeric failures, 4 I/O failures.

A --config FILE of key=value lines can supply any flag's value, checked as
the flag would check it; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import corpus, probes, ranking, trainer, vocab_expansion
from .decoder import sample_sentence
from .encoder import encode
from .errors import (CheckpointError, ConfigError, ConvergenceError, InputError,
                     MetricError, NumericError, ParameterError, RangeError,
                     ShapeError, SkipGruError, StateError)
from .fileio import read_vectors, sha256_path, write_text, write_vectors
from .numerics import seed_tuple
from .probes import DEFAULT_L2_GRID

USAGE_ERRORS = (ConfigError, ParameterError, InputError, RangeError, ShapeError,
                StateError)
NUMERIC_ERRORS = (NumericError, ConvergenceError, MetricError)
IO_ERRORS = (CheckpointError, OSError, UnicodeDecodeError)

METRIC_CSV_HEADER = "task,variant,metric,value"


class Command(NamedTuple):
    """A subcommand as registered: main checks that its input files exist,
    runs func, and writes the manifest from its inputs and outputs."""

    parser: argparse.ArgumentParser
    func: Callable        # returns the run's seeds dict, or None for none
    inputs: tuple         # dests of the flags naming files the command reads
    outputs: tuple        # dests, or functions of args, naming files it writes


def _require_inputs(*paths) -> None:
    missing = [str(p) for p in paths if p is not None and not os.path.exists(str(p))]
    if missing:
        raise ConfigError("input path does not exist: " + ", ".join(missing))


def _write_manifest(args, inputs, outputs, seeds, t0) -> None:
    """Write the run's manifest next to its first output, or to --manifest.
    A run with no output file and no --manifest writes none, so such commands
    leave the working directory untouched.  An input container the run has
    read is not read again: sha256_path reuses the digest of that read."""
    path = args.manifest
    if path is None:
        if not outputs:
            return
        path = str(outputs[0]) + ".manifest.json"
    config = {}
    for k, v in sorted(vars(args).items()):
        if k in ("command", "manifest", "config_file"):
            continue
        config[k] = list(v) if isinstance(v, tuple) else v
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {str(p): sha256_path(p) for p in inputs if p is not None},
        "outputs": [str(p) for p in outputs],
        "seeds": seeds,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_l2_grid(raw: str) -> tuple:
    try:
        grid = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"bad --l2-grid value {raw!r}")
    if not grid:
        raise ConfigError("--l2-grid is empty")
    return grid


def _load_models(args):
    """One expansion lookup per checkpoint (--ckpt, and --ckpt2 in combine
    mode), each with its map if one is given.  Returns (lookups, variant)."""
    models = [trainer.load_model(path)
              for path in (args.ckpt, getattr(args, "ckpt2", None)) if path]
    if len(models) == 2 and (models[1].vocab.id_to_token
                             != models[0].vocab.id_to_token):
        raise ConfigError("--ckpt and --ckpt2 use different vocabularies")
    lookups = []
    for m, path in zip(models, [getattr(args, "expansion", None),
                                getattr(args, "expansion2", None)]):
        emap = ext = None
        if path:
            emap, ext = vocab_expansion.read_expansion(path)
        lookups.append(vocab_expansion.ExpandedLookup(m, ext, emap))
    variant = "combine" if len(models) == 2 else models[0].config.mode
    return lookups, variant


def _tokenize_distinct(lines) -> tuple[list[list[str]], np.ndarray]:
    """The tokens of each distinct line, in first-seen order, and for every
    line the index of its distinct line.  Equal tokens are one shared string,
    so the lists cost a pointer per token beyond the distinct words."""
    index: dict[str, int] = {}
    where = np.array([index.setdefault(line, len(index)) for line in lines],
                     dtype=np.intp)
    words: dict[str, str] = {}
    return [[words.setdefault(t, t) for t in corpus.tokenize(line)]
            for line in index], where


def _encode_distinct(distinct, where, lookups) -> np.ndarray:
    vecs = np.concatenate([
        vocab_expansion.encode_sentences(distinct, lk.model, lk)
        for lk in lookups], axis=1)
    return vecs[where]


def _encode_lines(lines, lookups) -> np.ndarray:
    """One row per line: the line's vector under each lookup, concatenated.

    Each distinct line is tokenized once and encoded once per model, in the
    batched, length-sorted passes of vocab_expansion.encode_sentences.  No
    lines give a (0, total output dim) array.
    """
    return _encode_distinct(*_tokenize_distinct(lines), lookups)


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def _write_metric_rows(path, rows) -> None:
    """rows: (task, variant, metric, value); value formatted stably."""
    def fmt(v):
        return v if isinstance(v, str) else f"{v:.10g}"
    lines = [METRIC_CSV_HEADER] + [f"{t},{va},{m},{fmt(v)}" for t, va, m, v in rows]
    text = "\n".join(lines) + "\n"
    if path is not None:
        write_text(path, text)
    sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def cmd_build_vocab(args) -> None:
    tally: Counter[str] = Counter()

    def sentences():
        for doc in corpus.read_documents(args.corpus):
            tally.update(documents=1, sentences=len(doc))
            yield from doc
    counts = corpus.count_tokens(sentences())
    vocab = corpus.build_vocab(counts, args.size)
    corpus.save_vocab(vocab, args.out)
    stats = {"documents": tally["documents"], "sentences": tally["sentences"],
             "words": sum(counts.values()), "unique_words": len(counts),
             "vocab_size": vocab.size}
    stats["mean_words_per_sentence"] = stats["words"] / stats["sentences"]
    print(json.dumps(stats, sort_keys=True))


def _metrics_path(args) -> str:
    return args.metrics or args.out + ".metrics.csv"


# The train flags that a resumed run takes from its checkpoint, with their
# defaults: each dest maps to (default, TrainConfig field).
RESUMED_FLAGS = {"seed": (0, "seed"), "mode": ("uni", "mode"),
                 "embed_dim": (64, "embed_dim"), "hidden_dim": (64, "hidden_dim"),
                 "batch": (128, "batch_size"), "clip": (10.0, "clip_threshold"),
                 "lr": (0.001, "alpha")}


def cmd_train(args) -> dict:
    vocab = corpus.load_vocab(args.vocab)
    triples = list(corpus.iter_triples(corpus.read_documents(args.corpus),
                                       vocab))
    if not triples:
        raise InputError("corpus contains no 3-sentence documents; "
                         "nothing to train on")
    if args.resume:
        _require_inputs(args.out)
        model, opt = trainer.load_checkpoint(args.out)
        if model.vocab.id_to_token != vocab.id_to_token:
            raise ConfigError(f"--vocab {args.vocab} is not the vocabulary of "
                              f"the checkpoint {args.out}")
        config = replace(model.config, max_steps=args.steps,
                         checkpoint_every=args.checkpoint_every)
        used = {dest: getattr(config, field)
                for dest, (_, field) in RESUMED_FLAGS.items()}
        for dest, (default, _) in RESUMED_FLAGS.items():
            given = getattr(args, dest)
            if given != default and given != used[dest]:
                raise ConfigError(f"--{dest.replace('_', '-')} {given} differs "
                                  f"from the checkpoint's {used[dest]}; a "
                                  f"resumed run keeps the checkpoint's value")
        model = replace(model, config=config)
        # The manifest records the settings the run uses, not the flags'.
        vars(args).update(used)
    else:
        config = trainer.TrainConfig(
            embed_dim=args.embed_dim, hidden_dim=args.hidden_dim,
            vocab_size=vocab.size, batch_size=args.batch, clip_threshold=args.clip,
            alpha=args.lr, max_steps=args.steps, seed=args.seed, mode=args.mode,
            checkpoint_every=args.checkpoint_every)
        model, opt = trainer.SkipGruModel.init(vocab, config), None
    result = trainer.train(model, triples, opt, metrics_path=_metrics_path(args),
                           checkpoint_path=args.out)
    summary = {"steps": result.opt.step, "triples": len(triples)}
    if result.first_loss is not None:
        summary["first_loss"] = result.first_loss
        summary["final_loss"] = result.final_loss
    print(json.dumps(summary, sort_keys=True))
    return {"seed": config.seed}


def cmd_encode(args) -> None:
    lookups, _ = _load_models(args)
    lines = _read_lines(args.input)
    distinct, where = _tokenize_distinct(lines)
    repeats = np.bincount(where, minlength=len(distinct))
    for lk in lookups:
        if lk.map is None:
            oov = sum(int(n) * sum(t not in lk.model.vocab for t in tokens)
                      for n, tokens in zip(repeats, distinct))
            if oov:
                print(f"warning: {oov} out-of-vocabulary token(s) fell back "
                      f"to unk (no expansion map given)", file=sys.stderr)
    vectors = _encode_distinct(distinct, where, lookups)
    write_vectors(args.out, vectors)
    if args.text_out:
        write_text(args.text_out, "".join(
            " ".join(f"{x:.8e}" for x in row) + "\n" for row in vectors))
    print(json.dumps({"sentences": len(lines), "dim": int(vectors.shape[1])},
                     sort_keys=True))


def cmd_expand(args) -> None:
    model = trainer.load_model(args.ckpt)
    ext, skipped = vocab_expansion.read_embeddings_text(args.embeddings)
    emap = vocab_expansion.fit_expansion(ext, model)
    vocab_expansion.write_expansion(emap, ext, args.out)
    print(json.dumps({"shared_count": emap.shared_count,
                      "residual_rms": emap.residual_rms,
                      "rank_deficient": emap.rank_deficient,
                      "skipped_multiword": skipped,
                      "expanded_vocab": len(set(ext.tokens)
                                            | set(model.vocab.id_to_token[2:]))},
                     sort_keys=True))


def cmd_nn_word(args) -> None:
    [lookup], _ = _load_models(args)
    for token, sim in vocab_expansion.nearest_words(args.query, lookup, args.k):
        print(f"{token}\t{sim:.6f}")


def cmd_nn_sent(args) -> None:
    lookups, _ = _load_models(args)
    lines = [line for line in _read_lines(args.bank) if line.strip()]
    if not lines:
        raise InputError(f"{args.bank}: no sentences")
    bank = vocab_expansion.SentenceBank(sentences=lines,
                                        vectors=_encode_lines(lines, lookups))
    query = _encode_lines([args.query], lookups)[0]
    for line, sim in bank.top_k(query, args.k):
        print(f"{sim:.6f}\t{line}")


def _read_pair_features(path, lookups) -> tuple[np.ndarray, np.ndarray]:
    """Pair features and gold values of one sentence-pair file."""
    left, right, gold = probes.read_pair_dataset(path)
    vecs = _encode_lines(left + right, lookups)
    return probes.pair_features(vecs[:len(left)], vecs[len(left):]), gold


def cmd_eval_sick(args) -> dict:
    lookups, variant = _load_models(args)
    grid = _parse_l2_grid(args.l2_grid)
    Xtr, ytr = _read_pair_features(args.train, lookups)
    Xte, yte = _read_pair_features(args.test, lookups)
    best = probes.select_l2_relatedness(Xtr, ytr, args.folds, grid, args.seed)
    probe = probes.fit_relatedness(Xtr, ytr, best)
    pred = probes.predict_scores(probe, Xte)
    rows = [("sick", variant, "best_l2", best)]
    for name, fn in (("pearson", probes.pearson), ("spearman", probes.spearman),
                     ("mse", probes.mse)):
        try:
            rows.append(("sick", variant, name, fn(pred, yte)))
        except MetricError as exc:
            print(f"warning: {name}: {exc}", file=sys.stderr)
            rows.append(("sick", variant, name, "nan"))
    _write_metric_rows(args.out, rows)
    return {"seed": args.seed}


def cmd_eval_paraphrase(args) -> dict:
    lookups, variant = _load_models(args)
    grid = _parse_l2_grid(args.l2_grid)
    Xtr, ytr = _read_pair_features(args.train, lookups)
    Xte, yte = _read_pair_features(args.test, lookups)
    ytr_i, yte_i = ytr.astype(int), yte.astype(int)
    best = probes.select_l2(Xtr, ytr_i, args.folds, grid, args.seed)
    probe = probes.fit_logreg(Xtr, ytr_i, best, n_classes=int(ytr_i.max()) + 1)
    pred = probes.predict(probe, Xte)
    rows = [("paraphrase", variant, "best_l2", best),
            ("paraphrase", variant, "accuracy", probes.accuracy(pred, yte_i)),
            ("paraphrase", variant, "f1", probes.f1(pred, yte_i))]
    _write_metric_rows(args.out, rows)
    return {"seed": args.seed}


def cmd_eval_classify(args) -> dict:
    lookups, variant = _load_models(args)
    grid = _parse_l2_grid(args.l2_grid)
    labels, sentences, names = probes.read_label_dataset(args.data)
    X = _encode_lines(sentences, lookups)
    res = probes.cross_validate(X, labels, args.folds, grid, args.seed)
    rows = [("classify", variant, "accuracy", res["mean_accuracy"]),
            ("classify", variant, "best_l2", res["best_l2"])]
    rows += [("classify", variant, f"fold{f}_accuracy", s)
             for f, s in enumerate(res["fold_scores"])]
    _write_metric_rows(args.out, rows)
    return {"seed": args.seed, "classes": names}


def cmd_eval_rank(args) -> dict:
    n_train, n_dev = args.train_items, args.dev_items
    for flag, count in (("--train-items", n_train), ("--dev-items", n_dev)):
        if count < 0:
            raise ConfigError(f"{flag} must be >= 0, got {count}")
    lookups, _ = _load_models(args)
    X = read_vectors(args.images)
    captions = _read_lines(args.captions)
    g = args.group_size
    if len(captions) != len(X) * g:
        raise InputError(f"{len(X)} images need {len(X) * g} caption lines "
                         f"({g} per image), found {len(captions)}")
    Y = _encode_lines(captions, lookups)
    n = len(X)
    if n_train + n_dev > n:
        raise ConfigError(f"train ({n_train}) + dev ({n_dev}) items exceed "
                          f"the {n} available")
    if args.init == "identity":
        if not (X.shape[1] == Y.shape[1] == args.embed_dim):
            raise ConfigError("--init identity needs image, sentence, and "
                              "embedding dims to be equal")
        model = ranking.RankingModel(U=np.eye(args.embed_dim),
                                     V=np.eye(args.embed_dim),
                                     alpha=args.alpha,
                                     k_contrastive=args.k_contrastive)
    else:
        model = ranking.init_ranking_model(X.shape[1], Y.shape[1],
                                           args.embed_dim, args.alpha,
                                           args.k_contrastive, args.seed)
    if args.epochs > 0 and n_train > 0:
        if n_dev == 0:
            raise ConfigError("training needs --dev-items > 0")
        tr_imgs = np.repeat(np.arange(n_train), g)
        pairs = (X[tr_imgs], Y[:n_train * g])
        dev_slice = slice(n_train, n_train + n_dev)
        dev = (X[dev_slice], Y[n_train * g:(n_train + n_dev) * g])
        config = ranking.RankTrainConfig(batch_size=args.batch,
                                         learning_rate=args.lr, seed=args.seed,
                                         dev_group_size=g)
        result = ranking.train_ranker(pairs, model, args.epochs, dev, config)
        model = result.model
        for row in result.history:
            print(f"epoch {row['epoch']}: dev R@1 {row['dev_r1']:.2f}, "
                  f"mean loss {row['mean_loss']:.4f}", file=sys.stderr)
    lo = n_train + n_dev
    split = "test" if lo < n else "dev"
    if split == "dev":
        lo = n_train
    Xe, Ye = X[lo:], Y[lo * g:]
    res = ranking.evaluate_retrieval(Xe, Ye, model, group_size=g)
    rows = []
    for direction in ("annotation", "search"):
        r = res[direction]
        for k in sorted(r.recall_at):
            rows.append(("rank", f"{direction}-{split}", f"R@{k}",
                         r.recall_at[k]))
        rows.append(("rank", f"{direction}-{split}", "medr", r.median_rank))
    _write_metric_rows(args.out, rows)
    return {"seed": args.seed}


def generate_story(model, seed_sentence: str, n_sentences: int,
                   temperature: float, seed, max_len: int = 100,
                   lookup=None) -> list[list[int]]:
    """The iterative generation loop: encode, sample the next sentence from
    the next-sentence decoder, re-encode the sample, repeat.

    Every returned sentence is eos-terminated; a sample cut off at max_len
    gets the eos appended so downstream re-encoding sees a complete sentence.
    """
    if n_sentences < 1:
        raise ParameterError(f"need at least 1 sentence, got {n_sentences}")
    h = vocab_expansion.encode_text(seed_sentence, model, lookup)
    out: list[list[int]] = []
    for i in range(n_sentences):
        ids = sample_sentence(h, model.decoders.next_params, model.decoders.V,
                              model.embedding, max_len, temperature,
                              seed_tuple(seed, "generate", i),
                              eos_id=model.vocab.eos_id)
        if ids[-1] != model.vocab.eos_id:
            ids.append(model.vocab.eos_id)
        out.append(ids)
        h = encode(ids, model.encoder)
    return out


def cmd_generate(args) -> dict:
    [lookup], _ = _load_models(args)
    story = generate_story(lookup.model, args.seed_sentence, args.sentences,
                           args.temperature, args.seed, args.max_len, lookup)
    for ids in story:
        print(corpus.detokenize(lookup.model.vocab.tokens_for(ids[:-1])))
    return {"seed": args.seed}


# ---------------------------------------------------------------- parser


# The files _add_model_flags names, for a command's declared inputs.
MODEL_INPUTS = ("ckpt", "ckpt2", "expansion", "expansion2")


def _add_model_flags(p):
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--ckpt2", default=None,
                   help="second checkpoint; outputs are concatenated")
    p.add_argument("--expansion2", default=None,
                   help="expansion map for --ckpt2")
    p.add_argument("--expansion", default=None,
                   help="vocabulary expansion map (from `expand`)")


def _add_eval_flags(p):
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--l2-grid", default=",".join(str(x) for x in DEFAULT_L2_GRID))
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="skipgru",
        description="Sentence-embedding toolkit: GRU encoder trained by "
                    "reconstructing neighboring sentences, with vocabulary "
                    "expansion and linear evaluation harnesses.")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict = {}

    def sub(name, func, inputs=(), outputs=(), **kw):
        p = subs.add_parser(name, **kw)
        p.add_argument("--config", dest="config_file", default=None,
                       help="key=value file supplying flag defaults")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: derived from the output; "
                            "none for commands without an output file)")
        registry[name] = Command(p, func, inputs, outputs)
        return p

    p = sub("build-vocab", cmd_build_vocab, ("corpus",), ("out",),
            help="build a frequency-ranked vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub("train", cmd_train, ("corpus", "vocab"), ("out", _metrics_path),
            help="train the sentence encoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", choices=("uni", "bi"),
                   default=RESUMED_FLAGS["mode"][0])
    p.add_argument("--embed-dim", type=int, default=RESUMED_FLAGS["embed_dim"][0])
    p.add_argument("--hidden-dim", type=int,
                   default=RESUMED_FLAGS["hidden_dim"][0])
    p.add_argument("--batch", type=int, default=RESUMED_FLAGS["batch"][0])
    p.add_argument("--clip", type=float, default=RESUMED_FLAGS["clip"][0])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=RESUMED_FLAGS["seed"][0])
    p.add_argument("--lr", type=float, default=RESUMED_FLAGS["lr"][0])
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--metrics", default=None,
                   help="metrics CSV (default: <out>.metrics.csv)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint at --out")
    p.add_argument("--out", required=True)

    p = sub("encode", cmd_encode, ("input", *MODEL_INPUTS), ("out", "text_out"),
            help="encode sentences to a vector file")
    _add_model_flags(p)
    p.add_argument("--input", required=True, help="one sentence per line")
    p.add_argument("--out", required=True)
    p.add_argument("--text-out", default=None,
                   help="also write vectors as text")

    p = sub("expand", cmd_expand, ("ckpt", "embeddings"), ("out",),
            help="fit the vocabulary-expansion map from external embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--embeddings", required=True,
                   help="textual word-vector file ('count dim' header)")
    p.add_argument("--out", required=True)

    p = sub("nn-word", cmd_nn_word, ("ckpt", "expansion"),
            help="nearest words in embedding space")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--expansion", default=None)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=10)

    p = sub("nn-sent", cmd_nn_sent, ("bank", *MODEL_INPUTS),
            help="nearest sentences from a bank")
    _add_model_flags(p)
    p.add_argument("--bank", required=True, help="one sentence per line")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)

    p = sub("eval-sick", cmd_eval_sick, ("train", "test", *MODEL_INPUTS), ("out",),
            help="semantic-relatedness probe (5-bin soft-target readout)")
    _add_model_flags(p)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_eval_flags(p)

    p = sub("eval-paraphrase", cmd_eval_paraphrase,
            ("train", "test", *MODEL_INPUTS), ("out",),
            help="paraphrase-detection probe")
    _add_model_flags(p)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_eval_flags(p)

    p = sub("eval-classify", cmd_eval_classify, ("data", *MODEL_INPUTS), ("out",),
            help="classification probe with nested cross-validation")
    _add_model_flags(p)
    p.add_argument("--data", required=True, help="label TAB sentence rows")
    _add_eval_flags(p)

    p = sub("eval-rank", cmd_eval_rank, ("images", "captions", *MODEL_INPUTS),
            ("out",),
            help="image-sentence retrieval with a trained linear embedding")
    _add_model_flags(p)
    p.add_argument("--images", required=True, help="image feature vector file")
    p.add_argument("--captions", required=True,
                   help="caption text, group-size lines per image")
    p.add_argument("--group-size", type=int, default=5)
    p.add_argument("--train-items", type=int, default=0)
    p.add_argument("--dev-items", type=int, default=0)
    p.add_argument("--embed-dim", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--k-contrastive", type=int, default=50)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("random", "identity"), default="random")
    p.add_argument("--out", default=None, help="metrics CSV path")

    p = sub("generate", cmd_generate, ("ckpt", "expansion"),
            help="iteratively sample a continuation, one sentence at a time")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--expansion", default=None)
    p.add_argument("--seed-sentence", required=True)
    p.add_argument("--sentences", type=int, default=20)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=100)

    return parser, registry


def _read_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config_file(sub: argparse.ArgumentParser, raw: dict) -> None:
    """Set the file's values as `sub`'s defaults, each checked as its flag
    would check it: by type and choices, or as a 1/0, true/false, yes/no or
    on/off boolean."""
    defaults = {}
    for key, sval in raw.items():
        action = next((a for a in sub._actions if a.dest == key), None)
        if action is None or key == "config_file":
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            value = {"1": True, "true": True, "yes": True, "on": True, "0": False,
                     "false": False, "no": False, "off": False}.get(sval.lower())
        elif action.type is not None:
            try:
                value = action.type(sval)
            except ValueError:
                value = None
        else:
            value = sval
        if value is None or action.choices and value not in action.choices:
            raise ConfigError(f"bad value {sval!r} for config key {key!r}")
        defaults[key] = value
        action.required = False  # the file satisfies this argument
    sub.set_defaults(**defaults)


def _find_config_arg(argv: list[str]):
    paths = []
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            paths.append(argv[i + 1])
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
    if len(paths) > 1:
        raise ConfigError("--config may be given only once")
    return paths[0] if paths else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        # Config defaults must land before parse_args so required flags that
        # the file supplies do not abort the parse; explicit flags still win.
        cfg_path = _find_config_arg(argv)
        if cfg_path is not None:
            if not argv or argv[0] not in registry:
                raise ConfigError("--config requires a subcommand")
            _require_inputs(cfg_path)
            _apply_config_file(registry[argv[0]].parser,
                               _read_config_file(cfg_path))
        args = parser.parse_args(argv)
        if args.config_file != cfg_path:
            # An abbreviated flag (--conf FILE) names a file never applied.
            raise ConfigError("--config must be spelled in full")
        cmd = registry[args.command]
        t0 = time.perf_counter()
        inputs = [getattr(args, k) for k in cmd.inputs]
        _require_inputs(*inputs)
        seeds = cmd.func(args) or {}
        outputs = [o(args) if callable(o) else getattr(args, o)
                   for o in cmd.outputs]
        _write_manifest(args, inputs, [o for o in outputs if o], seeds, t0)
        return 0
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except SkipGruError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
