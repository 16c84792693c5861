"""A planted corpus and the training trajectory that the trajectory gate pins.

The corpus has TOPICS disjoint topics of TOPIC_WORDS words each.  Every
document draws all its sentences from one topic, so the encoder's vector of
a sentence tells the decoders which words its neighbours use: a model that
learns the skip-thought objective here learns the topic.  The vocabulary has
VOCAB_SIZE entries: the reserved eos and unk, the topic words, and unused
words up to that size.

    PYTHONPATH=src python tests/planted.py

rewrites tests/data/trajectory.json from the current tree.  A change that
must move it says why in CHANGES.md.
"""

import json
import pathlib
import sys
import tempfile

import numpy as np

from skipgru.corpus import EOS_TOKEN, UNK_TOKEN, Vocabulary, iter_triples
from skipgru.trainer import SkipGruModel, TrainConfig, train

TOPICS, TOPIC_WORDS, VOCAB_SIZE = 10, 48, 500
DOCUMENTS, SENTENCES = 300, 8
SEED = 5
# (mode, steps, the steps whose batch loss is pinned)
RUNS = (("uni", 300, (100, 200, 300)), ("bi", 60, (30, 60)))
FIXTURE = pathlib.Path(__file__).parent / "data" / "trajectory.json"


def planted_corpus(seed: int = SEED) -> tuple[Vocabulary, list]:
    """The vocabulary and the training triples of the planted corpus."""
    words = [f"t{k}w{j}" for k in range(TOPICS) for j in range(TOPIC_WORDS)]
    unused = [f"x{i}" for i in range(VOCAB_SIZE - 2 - len(words))]
    vocab = Vocabulary([EOS_TOKEN, UNK_TOKEN] + words + unused)
    rng = np.random.default_rng(seed)
    documents = []
    for _ in range(DOCUMENTS):
        topic = words[TOPIC_WORDS * int(rng.integers(TOPICS)):][:TOPIC_WORDS]
        documents.append([
            " ".join(topic[j] for j in rng.integers(
                TOPIC_WORDS, size=int(rng.integers(3, 8))))
            for _ in range(SENTENCES)])
    return vocab, list(iter_triples(documents, vocab))


def trajectory(mode: str, steps: int, workdir) -> list[float]:
    """The batch loss of every step of a fresh run on the planted corpus, as
    the run's metrics CSV records it (17 significant digits)."""
    vocab, triples = planted_corpus()
    config = TrainConfig(vocab_size=vocab.size, embed_dim=32, hidden_dim=64,
                         batch_size=16, max_steps=steps, seed=SEED, mode=mode)
    metrics = pathlib.Path(workdir) / f"{mode}.metrics.csv"
    train(SkipGruModel.init(vocab, config), triples, metrics_path=metrics)
    rows = metrics.read_text(encoding="utf-8").splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


def pinned_losses(workdir) -> dict[str, dict[str, float]]:
    """{mode: {step: batch loss}} at the pinned steps of each run."""
    return {mode: {str(s): trajectory(mode, steps, workdir)[s - 1]
                   for s in pinned}
            for mode, steps, pinned in RUNS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        losses = pinned_losses(workdir)
    FIXTURE.write_text(json.dumps(losses, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    json.dump(losses, sys.stdout, indent=2, sort_keys=True)
    print()
