"""Per-layer metrics of the traced run, named `<module>.<what>`.

`<module>.<function>_ms` is the inclusive time spent in that function over the
whole run, `_self_ms` the same minus the time of traced callees, `_calls` the
call count, and `<module>.self_ms` the self time of every traced function of
the module.  The cli is traced at `cli.main` only, so its layer self time is
reported as `cli.main_self_ms`.  Counts and sizes come from observers that
read each call's arguments after the call's span has closed.
"""

from __future__ import annotations

import os

import tracing
from skipgru import vocab_expansion

# (name, unit, better); every name is produced by per_layer_metrics().
PER_LAYER = [
    ("corpus.build_vocab_ms", "ms", "lower"),
    ("corpus.read_documents_ms", "ms", "lower"),
    ("corpus.iter_triples_ms", "ms", "lower"),
    ("encoder.encode_with_cache_ms", "ms", "lower"),
    ("encoder.encode_with_cache_calls", "count", "lower"),
    ("encoder.encoder_backward_ms", "ms", "lower"),
    ("encoder.encoder_backward_calls", "count", "lower"),
    ("encoder.encode_vectors_ms", "ms", "lower"),
    ("encoder.encode_vectors_calls", "count", "lower"),
    ("decoder.sentence_log_prob_with_cache_ms", "ms", "lower"),
    ("decoder.decoder_backward_ms", "ms", "lower"),
    ("decoder.output_gflop", "GFLOP", "lower"),
    ("numerics.adam_step_ms", "ms", "lower"),
    ("numerics.adam_mb", "MB", "lower"),
    ("numerics.clip_gradients_ms", "ms", "lower"),
    ("trainer.train_ms", "ms", "lower"),
    ("trainer.train_step_self_ms", "ms", "lower"),
    ("trainer.triple_grads_self_ms", "ms", "lower"),
    ("trainer.save_checkpoint_ms", "ms", "lower"),
    ("trainer.checkpoint_mb", "MB", "lower"),
    ("trainer.load_checkpoint_ms", "ms", "lower"),
    ("trainer.tokens_per_step", "count", "higher"),
    ("trainer.emb_rows_used_ratio", "ratio", "higher"),
    ("vocab_expansion.encode_text_ms", "ms", "lower"),
    ("vocab_expansion.encode_text_calls", "count", "lower"),
    ("vocab_expansion.nearest_sentences_ms", "ms", "lower"),
    ("vocab_expansion.fit_expansion_ms", "ms", "lower"),
    ("vocab_expansion.read_expansion_ms", "ms", "lower"),
    ("vocab_expansion.mapped_token_ratio", "ratio", "higher"),
    ("probes.cross_validate_ms", "ms", "lower"),
    ("probes.select_l2_relatedness_ms", "ms", "lower"),
    ("probes.fit_logreg_ms", "ms", "lower"),
    ("probes.fit_logreg_calls", "count", "lower"),
    ("probes.logreg_objective_calls", "count", "lower"),
    ("ranking.train_ranker_ms", "ms", "lower"),
    ("ranking.ranking_grads_ms", "ms", "lower"),
    ("ranking.evaluate_retrieval_ms", "ms", "lower"),
    ("ranking.adam_step_ms", "ms", "lower"),
    ("fileio.write_vectors_ms", "ms", "lower"),
    ("fileio.read_vectors_ms", "ms", "lower"),
    ("fileio.sha256_path_ms", "ms", "lower"),
    ("cli.main_self_ms", "ms", "lower"),
] + [(f"{layer}.self_ms", "ms", "lower")
     for layer in tracing.LAYERS if layer != "cli"] + [
    ("trace.spans", "count", "lower"),
    ("trace.wrapper_overhead_ms", "ms", "lower"),
]

# Functions reported with a `_ms` (inclusive) metric.
_INCLUSIVE = [name[:-3] for name, unit, _ in PER_LAYER
              if unit == "ms" and not name.endswith("self_ms")
              and not name.startswith("trace.")]


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _train_step(tracer, args, kwargs, result):
    model, batch = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "batch")
    ids: set[int] = set()
    tokens = 0
    for t in batch:
        for sent in t:
            ids.update(sent)
            tokens += len(sent)
    c = tracer.counters
    c["train.steps"] += 1
    c["train.tokens"] += tokens
    c["train.rows_used_ratio"] += len(ids) / model.config.vocab_size


def _decode(tracer, args, kwargs, result):
    # The output layer: logits (T,H)x(H,V), softmax, and in backward the
    # dlogits x H and dlogits x V products: about 6*T*H*V flops.
    target, V = _arg(args, kwargs, 0, "target"), _arg(args, kwargs, 3, "V")
    tracer.counters["decoder.output_flop"] += 6.0 * len(target) * V.shape[0] * V.shape[1]


def _adam(tracer, args, kwargs, result):
    # Reads params, grads and both moments; writes params and both moments.
    params = _arg(args, kwargs, 0, "params")
    tracer.counters["adam.bytes"] += 7 * 8 * sum(p.size for p in params.values())
    tracer.counters["adam.calls"] += 1


def _save(tracer, args, kwargs, result):
    tracer.counters["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))
    tracer.counters["checkpoint.saves"] += 1


OBSERVERS = {
    "trainer.train_step": _train_step,
    "decoder.sentence_log_prob_with_cache": _decode,
    "numerics.adam_step": _adam,
    "trainer.save_checkpoint": _save,
}

# Each train step is its own request.
NEW_REQUESTS = ("trainer.train_step",)


def install(tracer, modules) -> int:
    """Wrap the skipgru modules and count how the expansion lookup resolves
    tokens (no span: it runs once per token)."""
    n = tracer.install(modules, OBSERVERS, NEW_REQUESTS)
    cls = vocab_expansion.ExpandedLookup
    resolve = cls.resolve

    def counting_resolve(self, token):
        source, vec = resolve(self, token)
        tracer.counters["lookup.tokens"] += 1
        tracer.counters["lookup.mapped"] += source == vocab_expansion.MAPPED
        return source, vec
    tracer.patches.patch(cls, "resolve", counting_resolve)
    return n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer, wrapper_cost_s: float) -> dict[str, tuple[float, str]]:
    summary = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return summary.get(name, empty)

    c = tracer.counters
    steps = c["train.steps"]
    values = {f"{n}_ms": 1000.0 * row(n)["total_s"] for n in _INCLUSIVE}
    for n in ("encoder.encode_with_cache", "encoder.encoder_backward",
              "encoder.encode_vectors", "vocab_expansion.encode_text",
              "probes.fit_logreg", "probes.logreg_objective"):
        values[f"{n}_calls"] = row(n)["calls"]
    values.update({
        "decoder.output_gflop": _ratio(c["decoder.output_flop"], steps) / 1e9,
        "numerics.adam_mb": _ratio(c["adam.bytes"], c["adam.calls"]) / 1e6,
        "trainer.train_step_self_ms": 1000.0 * row("trainer.train_step")["self_s"],
        "trainer.triple_grads_self_ms": 1000.0 * row("trainer.triple_grads")["self_s"],
        "trainer.checkpoint_mb": _ratio(c["checkpoint.bytes"], c["checkpoint.saves"]) / 1e6,
        "trainer.tokens_per_step": _ratio(c["train.tokens"], steps),
        "trainer.emb_rows_used_ratio": _ratio(c["train.rows_used_ratio"], steps),
        "vocab_expansion.mapped_token_ratio": _ratio(c["lookup.mapped"],
                                                     c["lookup.tokens"]),
        "trace.spans": len(tracer.spans),
        "trace.wrapper_overhead_ms": 1000.0 * wrapper_cost_s * len(tracer.spans),
    })
    for layer, s in tracing.layer_self_seconds(summary).items():
        values["cli.main_self_ms" if layer == "cli" else f"{layer}.self_ms"] = 1000.0 * s
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
