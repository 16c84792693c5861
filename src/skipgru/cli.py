"""Command-line surface for the whole pipeline.

Subcommands: build-vocab, train, encode, expand, nn-word, nn-sent, eval-sick,
eval-paraphrase, eval-classify, eval-rank, generate.  Every run is
deterministic given its flags and seeds.  A run that writes an output file,
or is given --manifest, also writes one JSON manifest recording the config,
input digests, outputs, and an env block: numpy's version, its BLAS, and the
BLAS core and thread count the run used.  train --resume warns on stderr
when the manifest of the run it resumes names another BLAS core.  Exit
codes: 0 success, 2 usage or config problems, 3 numeric failures, 4 I/O
failures.

main sets numpy's OpenBLAS to one thread before it dispatches, so every
command runs one BLAS thread, and gives the same bytes, whatever
OPENBLAS_NUM_THREADS says.  A numpy built on another BLAS exits 2.

A --config FILE of key=value lines can supply any flag's value, checked as
the flag would check it; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import corpus, probes, ranking, trainer, vocab_expansion
from .decoder import sample_sentence
from .encoder import encode_vectors
from .errors import (CheckpointError, ConfigError, ConvergenceError, InputError,
                     MetricError, NumericError, ParameterError, SkipGruError)
from .fileio import read_vectors, sha256_path, write_text, write_vectors
from .numerics import (blas_core, blas_name, blas_threads, seed_tuple,
                       use_one_blas_thread)
from .probes import DEFAULT_L2_GRID

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
        "env": {"numpy": np.__version__, "blas": blas_name(),
                "blas_core": blas_core(), "blas_threads": blas_threads()},
    }
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_l2_grid(raw: str) -> tuple:
    try:
        grid = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"bad --l2-grid value {raw!r}")
    if not grid:
        raise ConfigError("--l2-grid is empty")
    if not all(math.isfinite(x) and x >= 0 for x in grid):
        raise ConfigError(f"--l2-grid values must be finite and >= 0, got {raw!r}")
    return grid


def _load_models(args):
    """One expansion lookup per checkpoint (--ckpt, and --ckpt2 in combine
    mode), each with its map if one is given.  Returns (lookups, variant)."""
    if getattr(args, "expansion2", None) and not getattr(args, "ckpt2", None):
        raise ConfigError("--expansion2 needs --ckpt2")
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
    so the lists cost a pointer per token beyond the distinct words: each
    block of tokenize_lines is interned before the next one is formed."""
    index: dict[str, int] = {}
    where = np.array([index.setdefault(line, len(index)) for line in lines],
                     dtype=np.intp)
    words: dict[str, str] = {}
    return [[words.setdefault(t, t) for t in tokens]
            for tokens in corpus.tokenize_lines(index)], where


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


# The train flags that a resumed run takes from its checkpoint: each dest
# maps to its TrainConfig field.  They have no argparse default, so None
# means not given, and TrainConfig's own defaults fill in a fresh run.
RESUMED_FLAGS = {"seed": "seed", "mode": "mode", "embed_dim": "embed_dim",
                 "hidden_dim": "hidden_dim", "batch": "batch_size",
                 "clip": "clip_threshold", "lr": "alpha"}


def _warn_if_blas_core_changed(args) -> None:
    """One stderr line when the manifest of the run being resumed, at the
    path this run writes its own, names a BLAS core other than the running
    one: the resumed run's bytes then differ from an unbroken run's."""
    try:
        with open(args.manifest or f"{args.out}.manifest.json",
                  encoding="utf-8") as fh:
            core = json.load(fh)["env"]["blas_core"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    if core != blas_core():
        print(f"warning: the checkpoint {args.out} was written on BLAS core "
              f"{core} and this run uses {blas_core()}; its bytes may differ "
              f"from an unbroken run's", file=sys.stderr)


def cmd_train(args) -> dict:
    vocab = corpus.load_vocab(args.vocab)
    triples = list(corpus.iter_triples(corpus.read_documents(args.corpus),
                                       vocab))
    if not triples:
        raise InputError("corpus contains no 3-sentence documents; "
                         "nothing to train on")
    given = {dest: getattr(args, dest) for dest in RESUMED_FLAGS
             if getattr(args, dest) is not None}
    counts = {"max_steps": args.steps, "checkpoint_every": args.checkpoint_every}
    if args.resume:
        _require_inputs(args.out)
        model, opt = trainer.load_checkpoint(args.out)
        if model.vocab.id_to_token != vocab.id_to_token:
            raise ConfigError(f"--vocab {args.vocab} is not the vocabulary of "
                              f"the checkpoint {args.out}")
        for dest, value in given.items():
            kept = getattr(model.config, RESUMED_FLAGS[dest])
            if value != kept:
                raise ConfigError(f"--{dest.replace('_', '-')} {value} differs "
                                  f"from the checkpoint's {kept}; a resumed "
                                  f"run keeps the checkpoint's value")
        config = replace(model.config, **counts)
        model = replace(model, config=config)
        _warn_if_blas_core_changed(args)
    else:
        config = trainer.TrainConfig(
            vocab_size=vocab.size, **counts,
            **{RESUMED_FLAGS[dest]: value for dest, value in given.items()})
        model, opt = trainer.SkipGruModel.init(vocab, config), None
    # The manifest records the settings the run uses, not the flags'.
    vars(args).update({dest: getattr(config, field)
                       for dest, field in RESUMED_FLAGS.items()})
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
    if bare := [lk for lk in lookups if lk.map is None]:    # one vocabulary
        unk = {t for t in set().union(*distinct)
               if bare[0].locate(t)[0] == vocab_expansion.UNK}
        oov = sum(int(n) * sum(t in unk for t in ts)
                  for n, ts in zip(np.bincount(where), distinct))
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
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    [lookup], _ = _load_models(args)
    for token, sim in vocab_expansion.nearest_words(args.query, lookup, args.k):
        print(f"{token}\t{sim:.6f}")


def cmd_nn_sent(args) -> None:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
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
    for path, y in ((args.train, ytr), (args.test, yte)):
        if not np.all(np.isfinite(y) & (y == np.round(y))):
            raise InputError(f"{path}: paraphrase labels must be integers")
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
    n_train, n_dev, g = args.train_items, args.dev_items, args.group_size
    for flag, count in (("--train-items", n_train), ("--dev-items", n_dev),
                        ("--epochs", args.epochs)):
        if count < 0:
            raise ConfigError(f"{flag} must be >= 0, got {count}")
    # Every setting is checked before a caption is encoded, also when
    # nothing trains.
    config = ranking.RankTrainConfig(
        batch_size=args.batch, learning_rate=args.lr, seed=args.seed,
        dev_group_size=g, alpha=args.alpha, k_contrastive=args.k_contrastive)
    training = args.epochs > 0 and n_train > 0
    if training:
        if n_dev == 0:
            raise ConfigError("training needs --dev-items > 0")
        config.check_pairs(n_train * g)
    lookups, _ = _load_models(args)
    X = read_vectors(args.images)
    n = len(X)
    if n_train + n_dev > n:
        raise ConfigError(f"train ({n_train}) + dev ({n_dev}) items exceed "
                          f"the {n} available")
    sentence_dim = sum(lk.model.encoder.output_dim for lk in lookups)
    if args.init == "identity":
        if not (X.shape[1] == sentence_dim == args.embed_dim):
            raise ConfigError("--init identity needs image, sentence, and "
                              "embedding dims to be equal")
        model = ranking.RankingModel(U=np.eye(args.embed_dim),
                                     V=np.eye(args.embed_dim))
    else:
        model = ranking.init_ranking_model(X.shape[1], sentence_dim,
                                           args.embed_dim, args.seed)
    captions = _read_lines(args.captions)
    if len(captions) != n * g:
        raise InputError(f"{n} images need {n * g} caption lines "
                         f"({g} per image), found {len(captions)}")
    Y = _encode_lines(captions, lookups)
    if training:
        pairs = (np.repeat(X[:n_train], g, axis=0), Y[:n_train * g])
        dev = (X[n_train:n_train + n_dev], Y[n_train * g:(n_train + n_dev) * g])
        result = ranking.train_ranker(pairs, model, args.epochs, dev, config)
        model = result.model
        for row in result.history:
            print(f"epoch {row['epoch']}: dev R@1 {row['dev_r1']:.2f}, "
                  f"mean loss {row['mean_loss']:.4f}", file=sys.stderr)
    split = "test" if n_train + n_dev < n else "dev"
    lo = n_train + n_dev if split == "test" else n_train
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
                   temperature: float, seed, max_len: int,
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
        h = encode_vectors(model.embedding[ids], model.encoder)
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
    p.add_argument("--mode", choices=("uni", "bi"))
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--clip", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
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
    p.add_argument("--alpha", type=float, default=ranking.RankTrainConfig.alpha)
    p.add_argument("--k-contrastive", type=int,
                   default=ranking.RankTrainConfig.k_contrastive)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=ranking.RankTrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=ranking.RankTrainConfig.batch_size)
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
            key = key.strip().replace("-", "_")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} "
                                  f"is set twice")
            values[key] = val.strip()
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
    # Path-like arguments are taken as the strings they name.
    argv = [os.fspath(a) for a in (sys.argv[1:] if argv is None else argv)]
    parser, registry = build_parser()
    try:
        use_one_blas_thread()
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
