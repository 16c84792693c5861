"""The benchmark's workloads: one closed-loop client driving the skipgru CLI
(`cli.main(argv)`, in process) and `vocab_expansion.nearest_sentences`.

Every workload runs the same user pipeline at its own shape and weight:

1. set-up, three times: `build-vocab`, then `train --steps 0` up to the entry
   of the training loop (vocab loading, corpus parsing, triple building,
   model init);
2. training: `train` for a step count derived from --seconds, with periodic
   checkpoints;
3. set-up of the frozen-vector side, three times: `expand` on the trained
   checkpoint, then loading the checkpoint and the map in process;
4. ROUNDS rounds of `encode` on a sentence bank, `eval-classify`,
   `eval-sick` and `eval-rank` on planted sets, with a chunk of
   `nearest_sentences` queries that use the expansion lookup after each
   command;
5. output checks, after the timed part.

An operation is one train step, one encode command, one query, or one eval
command.  An operation whose output fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import generate
import hostspeed
import tracing

from skipgru import (cli, corpus, decoder, encoder, fileio, numerics, probes,
                     ranking, trainer, vocab_expansion)

SKIPGRU_MODULES = (cli, corpus, encoder, decoder, numerics, trainer,
                   vocab_expansion, probes, ranking, fileio)

EMBED_DIM, HIDDEN_DIM, BATCH = 64, 128, 32
SETUP_REPEATS = 3
MIN_STEPS = 3
REPLAY_STEPS = 2                # steps rerun to check the loss trace
LOSS_SAMPLE = 16                # triples in the loss-decrease check
ENCODE_SAMPLE = 24              # bank rows re-encoded one by one
SELF_QUERY_EVERY = 5            # novel queries per bank-line query
QUERY_K = 5
MIN_QUERIES = 1000              # queries per run, at least
NOVEL_QUERIES = 800
# Encode and each eval run once per round and report the median over rounds:
# spread over the run, the repeats ride out the host's slow phases.
ROUNDS = 3

# Planted thresholds: correct code clears these by a wide margin.
CLASSIFY_MIN_ACCURACY = 0.8     # chance: 0.25
SICK_MIN_PEARSON = 0.5
RANK_MIN_R1 = 30.0              # percent; chance is under 7%


@dataclass(frozen=True)
class Workload:
    name: str
    shape: generate.Shape
    step_s: float               # nominal seconds per train step
    train_share: float          # share of --seconds spent training


WORKLOADS = {w.name: w for w in (
    # Recurrence-bound training: encoder and decoder backward dominate.
    Workload(
        name="train-long",
        shape=generate.Shape(
            vocab_size=2000, sent_len=(15, 30), corpus_sentences=2500,
            coverage_per_sentence=1, bank_lines=1500, queries=NOVEL_QUERIES,
            classify_items=300, sick_train=150, sick_test=100,
            rank_images=80),
        step_s=1.35, train_share=1.0),
    # Vocabulary-bound training: dense (V,E)/(V,H) gradients, Adam and
    # 100 MB checkpoints dominate; E and H stay at the train-long values so
    # the recurrence does not grow with V.
    Workload(
        name="train-wide-vocab",
        shape=generate.Shape(
            vocab_size=20000, sent_len=(4, 8), corpus_sentences=2000,
            coverage_per_sentence=3, bank_lines=1200, queries=NOVEL_QUERIES,
            classify_items=150, sick_train=100, sick_test=60,
            rank_images=60),
        step_s=2.8, train_share=1.0),
    # Frozen vectors at the train-long shape: a large bank, the queries and
    # 1k-sentence eval sets, after a short training run.
    Workload(
        name="downstream",
        shape=generate.Shape(
            vocab_size=2000, sent_len=(15, 30), corpus_sentences=2500,
            coverage_per_sentence=1, bank_lines=4000, queries=NOVEL_QUERIES,
            classify_items=1000, sick_train=400, sick_test=200,
            rank_images=200),
        step_s=1.35, train_share=0.45),
)}


def tiny(workload: Workload) -> Workload:
    """A few-second version of a workload, for the benchmark's self-tests."""
    shape = dataclasses.replace(
        workload.shape, vocab_size=300, sent_len=(5, 10), corpus_sentences=200,
        bank_lines=120, queries=40, classify_items=200, sick_train=100,
        sick_test=60, rank_images=40, ext_shared=150, ext_only=40)
    return dataclasses.replace(workload, shape=shape, step_s=math.inf)


class SetupError(RuntimeError):
    """A set-up command failed, so the workload cannot be measured."""


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ops: int) -> None:
        self.attempted += ops

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


@dataclass
class Intervals:
    """perf_counter() (start, end) pairs of everything a run times."""

    train_setup: list = field(default_factory=list)   # per repeat: pairs
    frozen_setup: list = field(default_factory=list)  # per repeat: one pair
    train_loop: tuple = (math.nan, math.nan)          # inside trainer.train
    steps: list = field(default_factory=list)         # each train_step call
    step_tokens: int = 0                              # prev+curr+next, eos in
    encode: list = field(default_factory=list)        # per round: pair
    evals: dict = field(default_factory=dict)         # metric -> pairs
    queries: list = field(default_factory=list)       # per chunk: pairs


@contextmanager
def hooks(iv: Intervals, speed):
    """Hooks on the two trainer attributes the program resolves: the entry
    and exit of trainer.train, and every train_step call with its tokens,
    after which a burst of host-speed samples is taken.  Restored on exit."""
    patches = tracing.Patcher()

    def train(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                iv.train_loop = (start, time.perf_counter())
        return wrapper

    def train_step(fn):
        def wrapper(model, batch, *args, **kwargs):
            start = time.perf_counter()
            result = fn(model, batch, *args, **kwargs)
            iv.steps.append((start, time.perf_counter()))
            iv.step_tokens += sum(len(t.prev) + len(t.curr) + len(t.next)
                                  for t in batch)
            if speed is not None:
                speed.sample(hostspeed.NEAR)
            return result
        return wrapper

    patches.patch(trainer, "train", train(trainer.train))
    patches.patch(trainer, "train_step", train_step(trainer.train_step))
    try:
        yield
    finally:
        patches.restore()


def steps_for(workload: Workload, seconds: float) -> int:
    """Train steps of a run: fixed by --seconds, never by a measured time, so
    two commits always do the same work."""
    return max(MIN_STEPS, round(workload.train_share * seconds / workload.step_s))


def read_metric_rows(path) -> dict[tuple[str, str], float]:
    """(variant, metric) -> value from a CLI metrics CSV."""
    with open(path, encoding="utf-8") as fh:
        return {(r["variant"], r["metric"]): float(r["value"])
                for r in csv.DictReader(fh)}


def read_train_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def within_float32(stored: np.ndarray, exact: np.ndarray) -> bool:
    """True when `stored` equals `exact` up to one float32 rounding."""
    tol = np.abs(exact) * 2.0 ** -23 + np.finfo(np.float32).tiny
    return stored.shape == exact.shape and bool(np.all(np.abs(stored - exact) <= tol))


def check_hits(query, is_self, hits, want) -> str | None:
    """Why a query's hits are wrong, or None."""
    sims = [s for _, s in hits]
    if len(hits) != want:
        return f"{len(hits)} hits, expected {want}"
    if not all(math.isfinite(s) and abs(s) <= 1.0 + 1e-9 for s in sims):
        return "similarity not finite or outside [-1, 1]"
    if any(a < b for a, b in zip(sims, sims[1:])):
        return "hits not in descending order"
    if is_self and hits[0][0] != query:
        return "a bank line did not rank itself first"
    return None


class QueryClient:
    """Closed-loop `nearest_sentences` client over one encoded bank."""

    def __init__(self, run: "Run", bank, schedule):
        self.owner = run
        self.bank = bank
        self.schedule = schedule
        self.want = min(QUERY_K, len(bank.sentences))
        self.sent = 0

    def send(self, count: int, until: float = -math.inf) -> None:
        """Send one chunk of `count` queries, going on until perf_counter()
        reaches `until`."""
        run, sched = self.owner, self.schedule
        done: list = []
        run.iv.queries.append(done)
        while len(done) < count or time.perf_counter() < until:
            query, is_self = sched[self.sent % len(sched)]
            self.sent += 1
            if run.speed is not None:
                run.speed.maybe_sample()
            problem = None
            with run.request_scope():
                t0 = time.perf_counter()
                try:
                    hits = vocab_expansion.nearest_sentences(
                        query, run.model, self.bank, QUERY_K, run.lookup)
                except Exception as exc:    # a crash is a failed query
                    hits, problem = None, repr(exc)
                done.append((t0, time.perf_counter()))
            run.ledger.add(1)
            if hits is not None:
                problem = check_hits(query, is_self, hits, self.want)
            if problem:
                run.ledger.fail(1, f"query {query!r}: {problem}")


class Run:
    """One workload run inside a scratch directory (the cwd).

    Every interval the run times is kept in `iv`; metrics() turns them into
    the end-to-end metrics, with host-speed normalization when a HostSpeed is
    given (the untraced run) and as raw wall times otherwise."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 tracer: tracing.Tracer | None = None,
                 speed: hostspeed.HostSpeed | None = None):
        self.w = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.tracer = tracer
        self.speed = speed
        self.ledger = Ledger()
        self.steps = steps_for(workload, seconds)
        self.iv = Intervals()
        self.rss_mb = math.nan
        self.bank_vectors = None
        self.encoded: list[str] = []        # vector files of successful encodes
        self._commands = 0

    # ---------------------------------------------------------- plumbing

    def request_scope(self):
        return self.tracer.request() if self.tracer else contextlib.nullcontext()

    def _sample(self) -> None:
        """A burst of calibration runs at a command boundary."""
        if self.speed is not None:
            self.speed.sample(hostspeed.NEAR)

    def command(self, *argv) -> tuple[int, tuple[float, float]]:
        """Run one CLI command in process; returns (exit code, (start, end)).
        Its output goes to a per-command log file in the scratch directory."""
        argv = [str(a) for a in argv]
        self._commands += 1
        tag = f"{self._commands:02d}-{argv[0]}"
        argv += ["--manifest", f"{tag}.manifest.json"]
        out = io.StringIO()
        self._sample()
        with self.request_scope(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:           # a crash is a failed operation
                traceback.print_exc()
                rc = -1
            t1 = time.perf_counter()
        self._sample()
        with open(f"{tag}.log", "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        if rc != 0:
            tail = out.getvalue().strip().splitlines()[-3:]
            self.ledger.problems.append(f"{argv[0]} exited {rc}: " + " | ".join(tail))
        return rc, (t0, t1)

    def _setup_command(self, *argv) -> tuple[float, float]:
        rc, span = self.command(*argv)
        if rc != 0:
            raise SetupError(f"set-up command {argv[0]} failed with code {rc}")
        return span

    # ----------------------------------------------------------- phases

    def execute(self, inputs: generate.Inputs) -> None:
        self.inputs = inputs
        iv = self.iv
        with hooks(iv, self.speed):
            for _ in range(SETUP_REPEATS):
                self._training_setup()
            self._train()
            for _ in range(SETUP_REPEATS):
                self._frozen_setup()
            # A query chunk after every command spreads the latency samples
            # over the whole frozen-vector part of the run.
            specs = self._eval_specs()
            chunks = ROUNDS * (len(specs) + 1)
            chunk = -(-MIN_QUERIES // chunks)
            client = None
            for r in range(ROUNDS):
                self._encode(r)
                if r == 0:
                    client = self._query_client()
                for spec in specs:
                    if client is not None:
                        client.send(chunk)
                    self._eval(*spec)
                if client is not None and r < ROUNDS - 1:
                    client.send(chunk)
            if client is not None:
                # The last chunk also fills what is left of the requested time.
                train_s = iv.train_loop[1] - iv.train_loop[0]
                client.send(chunk, until=iv.encode[0][0] + self.seconds - train_s)
        self.rss_mb = peak_rss_mb()

    def _training_setup(self) -> None:
        vocab = self._setup_command("build-vocab", "--corpus", self.inputs.corpus,
                                    "--size", self.w.shape.vocab_size,
                                    "--out", "vocab.txt")
        start, _ = self._setup_command(*self._train_argv(0, "init.ckpt", "init.csv"))
        # Up to the entry of the training loop.
        self.iv.train_setup.append([vocab, (start, self.iv.train_loop[0])])

    def _train_argv(self, steps: int, out: str, metrics: str, every: int = 0):
        return ("train", "--corpus", self.inputs.corpus, "--vocab", "vocab.txt",
                "--mode", "uni", "--embed-dim", EMBED_DIM,
                "--hidden-dim", HIDDEN_DIM, "--batch", BATCH, "--steps", steps,
                "--seed", self.seed, "--checkpoint-every", every,
                "--out", out, "--metrics", metrics)

    def _train(self) -> None:
        n = self.steps
        every = max(2, n // 3)          # checkpoint stalls inside the run
        self.ledger.add(n)
        rc, _ = self.command(*self._train_argv(n, "model.ckpt", "train.csv", every))
        if rc != 0:
            raise SetupError(f"train failed with code {rc}")
        self.train_rows = read_train_rows("train.csv")

    def _frozen_setup(self) -> None:
        self._sample()
        t0 = time.perf_counter()
        self._setup_command("expand", "--ckpt", "model.ckpt",
                            "--embeddings", self.inputs.embeddings,
                            "--out", "model.map")
        with self.request_scope():
            model, _ = trainer.load_checkpoint("model.ckpt")
            emap, ext = vocab_expansion.read_expansion("model.map")
            self.lookup = vocab_expansion.expand(model, ext, emap)
        self.model = model
        self.iv.frozen_setup.append((t0, time.perf_counter()))
        self._sample()

    def _encode(self, r: int) -> None:
        """Round r's encode of the bank to bank-<r>.bin; round 0's vectors
        are the bank that the queries search."""
        if r == 0:
            with open(self.inputs.bank, encoding="utf-8") as fh:
                self.bank_lines = [line.rstrip("\n") for line in fh]
        self.ledger.add(1)
        out = f"bank-{r}.bin"
        rc, span = self.command("encode", "--ckpt", "model.ckpt",
                                "--input", self.inputs.bank, "--out", out)
        self.iv.encode.append(span)
        if rc != 0:
            self.ledger.fail(1, f"encode round {r} failed")
        else:
            self.encoded.append(out)

    def _query_schedule(self):
        """Novel OOV-bearing queries; after every SELF_QUERY_EVERY of them, a
        bank line made only of in-vocabulary words (it must find itself)."""
        vocab = self.model.vocab
        candidates = [s for s in dict.fromkeys(self.bank_lines)
                      if all(t in vocab for t in corpus.tokenize(s))]
        rng = np.random.default_rng([self.seed, 7])
        picks = [candidates[i] for i in rng.permutation(len(candidates))]
        with open(self.inputs.queries, encoding="utf-8") as fh:
            novel = [line.rstrip("\n") for line in fh]
        sched, j = [], 0
        for i, q in enumerate(novel):
            sched.append((q, False))
            if i % SELF_QUERY_EVERY == SELF_QUERY_EVERY - 1 and picks:
                sched.append((picks[j % len(picks)], True))
                j += 1
        return sched

    def _query_client(self):
        """The client over round 0's vectors, or None when that encode failed
        (every query then counts as failed)."""
        if self.encoded[:1] != ["bank-0.bin"]:
            self.ledger.add(MIN_QUERIES)
            self.ledger.fail(MIN_QUERIES, "no bank vectors to query")
            return None
        with self.request_scope():
            self.bank_vectors = fileio.read_vectors("bank-0.bin")
        bank = vocab_expansion.SentenceBank(sentences=self.bank_lines,
                                            vectors=self.bank_vectors)
        return QueryClient(self, bank, self._query_schedule())

    def _eval_specs(self) -> list:
        """(metric, argv, pass test on the metrics CSV) per eval command."""
        inp, seed = self.inputs, self.seed
        n = self.w.shape.rank_images
        n_train, n_dev = (n * 3) // 5, n // 5
        return [
            ("eval_classify_s",
             ("eval-classify", "--ckpt", "model.ckpt", "--data", inp.classify,
              "--folds", 3, "--seed", seed, "--out", "classify.csv"),
             lambda m: m[("uni", "accuracy")] >= CLASSIFY_MIN_ACCURACY),
            ("eval_sick_s",
             ("eval-sick", "--ckpt", "model.ckpt", "--train", inp.sick_train,
              "--test", inp.sick_test, "--folds", 3, "--seed", seed,
              "--out", "sick.csv"),
             lambda m: m[("uni", "pearson")] >= SICK_MIN_PEARSON),
            ("eval_rank_s",
             ("eval-rank", "--ckpt", "model.ckpt", "--images", inp.images,
              "--captions", inp.captions, "--group-size", inp.rank_group,
              "--train-items", n_train, "--dev-items", n_dev,
              "--embed-dim", 64, "--epochs", 5, "--lr", 0.01,
              "--k-contrastive", 20, "--batch", 50, "--seed", seed,
              "--out", "rank.csv"),
             lambda m: min(m[("annotation-test", "R@1")],
                           m[("search-test", "R@1")]) >= RANK_MIN_R1),
        ]

    def _eval(self, metric: str, argv, passes) -> None:
        self.ledger.add(1)
        rc, span = self.command(*argv)
        self.iv.evals.setdefault(metric, []).append(span)
        out = argv[-1]
        try:
            ok = rc == 0 and passes(read_metric_rows(out))
        except (OSError, KeyError, ValueError) as exc:
            ok = False
            self.ledger.problems.append(f"{argv[0]}: unreadable metrics ({exc})")
        if not ok:
            self.ledger.fail(1, f"{argv[0]} missed its planted threshold "
                                f"(see {out})")

    # ---------------------------------------------------------- metrics

    def metrics(self, normalize: bool = True) -> dict[str, tuple[float, str]]:
        """End-to-end metrics from the recorded intervals; times are scaled
        to nominal host speed when normalize is set and a HostSpeed ran."""
        iv = self.iv
        if normalize and self.speed is not None:
            dur = self.speed.normalized
        else:
            def dur(t0, t1):
                return t1 - t0
        setup = (statistics.median(sum(dur(*p) for p in pairs)
                                   for pairs in iv.train_setup)
                 + statistics.median(dur(*p) for p in iv.frozen_setup))
        chunks = [np.array([dur(*p) for p in c]) * 1000.0 for c in iv.queries] \
            or [np.array([math.nan])]
        out = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "train_tokens_per_s": (iv.step_tokens / dur(*iv.train_loop), "1/s"),
            "train_step_ms_p50": (1000.0 * statistics.median(
                dur(*p) for p in iv.steps), "ms"),
            "encode_sentences_per_s": (len(self.bank_lines) / statistics.median(
                dur(*p) for p in iv.encode), "1/s"),
            "query_ms_p50": (float(np.percentile(np.concatenate(chunks), 50)), "ms"),
            # Per chunk, then the median over chunks: a host stall of a
            # fraction of a second inside one chunk does not move it.
            "query_ms_p99": (float(np.median([np.percentile(c, 99)
                                              for c in chunks])), "ms"),
        }
        for metric, pairs in iv.evals.items():
            out[metric] = (statistics.median(dur(*p) for p in pairs), "s")
        return out

    def timed_s(self) -> float:
        """Raw wall time of the timed part, calibration runs left out: the
        training loop, and encode to the last query."""
        iv = self.iv
        end = max([p[1] for p in iv.encode] + [p[1] for c in iv.queries for p in c]
                  + [p[1] for pairs in iv.evals.values() for p in pairs])
        parts = [iv.train_loop, (iv.encode[0][0], end)]
        busy = self.speed.busy if self.speed is not None else (lambda a, b: 0.0)
        return sum(b - a - busy(a, b) for a, b in parts)

    # ----------------------------------------------------------- checks

    def check(self) -> None:
        """Output checks on training and encoding, run after the timed part.
        A failed training check fails every train step."""
        n = self.steps
        problem = self._training_problem()
        if problem:
            self.ledger.fail(n, f"training: {problem}")
        for path in self.encoded:
            problem = self._encoding_problem(fileio.read_vectors(path))
            if problem:
                self.ledger.fail(1, f"encode to {path}: {problem}")

    def _training_problem(self) -> str | None:
        rows = self.train_rows
        if len(rows) != self.steps:
            return f"{len(rows)} metrics rows for {self.steps} steps"
        if not all(math.isfinite(r["loss"]) for r in rows):
            return "non-finite training loss"
        model, opt = trainer.load_checkpoint("model.ckpt")
        trainer.save_checkpoint(model, opt, "model-resaved.ckpt")
        with open("model.ckpt", "rb") as a, open("model-resaved.ckpt", "rb") as b:
            if a.read() != b.read():
                return "final checkpoint does not reload bit-identically"
        init, _ = trainer.load_checkpoint("init.ckpt")
        vocab = corpus.load_vocab("vocab.txt")
        triples = list(corpus.iter_triples(
            corpus.read_documents(self.inputs.corpus), vocab))
        rng = np.random.default_rng([self.seed, 11])
        sample = [triples[i] for i in rng.choice(len(triples), LOSS_SAMPLE,
                                                  replace=False)]
        before = np.mean([trainer.triple_loss(init, t) for t in sample])
        after = np.mean([trainer.triple_loss(model, t) for t in sample])
        if not after < before:
            return f"sample loss did not fall ({before:.6g} -> {after:.6g})"
        replay = min(REPLAY_STEPS, self.steps)
        rc, _ = self.command(*self._train_argv(replay, "replay.ckpt", "replay.csv"))
        if rc != 0:
            return "replay run failed"
        again = [r["loss"] for r in read_train_rows("replay.csv")]
        first = [r["loss"] for r in rows[:replay]]
        if len(again) != replay or not all(
                abs(a - b) <= 1e-9 * abs(b) for a, b in zip(again, first)):
            return f"same-seed loss trace differs: {first} vs {again}"
        return None

    def _encoding_problem(self, vecs) -> str | None:
        if vecs.shape != (len(self.bank_lines), HIDDEN_DIM):
            return f"vector file is {vecs.shape}, expected " \
                   f"({len(self.bank_lines)}, {HIDDEN_DIM})"
        rng = np.random.default_rng([self.seed, 13])
        for i in rng.choice(len(vecs), min(ENCODE_SAMPLE, len(vecs)), replace=False):
            exact = vocab_expansion.encode_text(self.bank_lines[i], self.model)
            if not within_float32(vecs[i], exact):
                return f"row {i} differs from encode_text beyond float32 rounding"
        return None
