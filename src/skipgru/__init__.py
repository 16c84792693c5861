"""Sentence embeddings for free text: a GRU encoder trained so that twin
conditional GRU decoders can reconstruct the sentences surrounding each
training sentence, plus vocabulary expansion and linear evaluation tooling.

Modules:
    numerics         float64 linear algebra, Adam, gradient clipping
    corpus           tokenization, vocabularies, sentence-triple streams
    encoder          uni/bi GRU sentence encoder; the GRU kernel with manual backprop
    decoder          conditional GRU language models over neighbor sentences
    trainer          the training objective, loop, and binary checkpoints
    vocab_expansion  least-squares map from external word vectors
    probes           relatedness/paraphrase/classification linear probes
    ranking          image-sentence retrieval with a hinge ranking loss
    cli              the `skipgru` command-line tool
"""

from .errors import (CheckpointError, ConfigError, ConvergenceError, InputError,
                     MetricError, NumericError, ParameterError, RangeError,
                     ShapeError, SkipGruError, StateError)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "ConfigError", "ConvergenceError", "InputError",
    "MetricError", "NumericError", "ParameterError", "RangeError",
    "ShapeError", "SkipGruError", "StateError", "__version__",
]
