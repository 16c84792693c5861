"""Seeded input generator for the benchmark workloads.

Everything the program reads during a run is written here, from the workload
seed alone: a Zipf-distributed corpus with document structure, a sentence bank
with duplicate lines and out-of-vocabulary words, query sentences, a textual
external word-vector file, and three planted evaluation sets (classification,
SICK-format relatedness pairs, image vectors with captions).  The same seed
always gives byte-identical files.

Words are pronounceable letter strings built from a type index, so the
tokenizer keeps each one whole.  Type rank r is drawn with probability
proportional to 1 / (r + 1) (Zipf's law); every type of the corpus appears at
least once, so a vocabulary of the requested size can always be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# Type indices of words that only the external vector file knows.
_EXT_ONLY_BASE = 10_000_000


def word(index: int) -> str:
    """Distinct lowercase word for every nonnegative index (two or more
    syllables, letters only)."""
    n = index + len(_SYLLABLES)
    out = []
    while n:
        n, d = divmod(n, len(_SYLLABLES))
        out.append(_SYLLABLES[d])
    return "".join(reversed(out))


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's generated inputs."""

    vocab_size: int                 # requested vocabulary (build-vocab --size)
    sent_len: tuple[int, int]       # corpus sentence length range, inclusive
    corpus_sentences: int           # at least this many corpus sentences
    coverage_per_sentence: int      # unseen types forced into each sentence
    bank_lines: int
    queries: int                    # novel query sentences with OOV words
    classify_items: int
    sick_train: int
    sick_test: int
    rank_images: int                # captions = 5 per image
    ext_shared: int = 1200          # external words drawn from the corpus types
    ext_only: int = 600             # external words the corpus never uses

    @property
    def types(self) -> int:
        # More types than vocabulary slots, so some corpus words become unk.
        return self.vocab_size + self.vocab_size // 4


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    bank: Path
    queries: Path
    embeddings: Path
    classify: Path
    sick_train: Path
    sick_test: Path
    images: Path
    captions: Path
    rank_group: int


CLASSES = 4
RANK_GROUP = 5
DOC_LEN = (5, 12)               # sentences per corpus document
BANK_LEN = (5, 40)              # tokens per bank line
BANK_DUPLICATE_SHARE = 0.1
BANK_HEAD_SHARE = 0.3           # bank lines drawn from frequent types only
EXT_DIM = 32


class _Words:
    """Zipf sampler over the first `types` word types."""

    def __init__(self, types: int, rng: np.random.Generator):
        self.types = types
        self.rng = rng
        p = 1.0 / np.arange(1, types + 1, dtype=np.float64)
        self.cdf = np.cumsum(p / p.sum())

    def draw(self, n: int, limit: int | None = None) -> np.ndarray:
        u = self.rng.random(n)
        if limit is not None:
            u *= self.cdf[limit - 1]
        return np.minimum(np.searchsorted(self.cdf, u, side="right"),
                          self.types - 1)

    def sentence(self, lo: int, hi: int, limit: int | None = None) -> list[str]:
        n = int(self.rng.integers(lo, hi + 1))
        return [word(int(i)) for i in self.draw(n, limit)]


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _corpus(shape: Shape, words: _Words, rng) -> list[list[str]]:
    lo, hi = shape.sent_len
    cover = rng.permutation(shape.types)
    c = shape.coverage_per_sentence
    n = max(shape.corpus_sentences, -(-shape.types // c))
    sentences = []
    for j in range(n):
        toks = words.sentence(lo, hi)
        forced = cover[j * c:(j + 1) * c]
        for i, pos in zip(forced, rng.choice(len(toks), size=len(forced),
                                              replace=False)):
            toks[pos] = word(int(i))
        sentences.append(" ".join(toks))
    docs, i = [], 0
    while i < len(sentences):
        k = int(rng.integers(DOC_LEN[0], DOC_LEN[1] + 1))
        docs.append(sentences[i:i + k])
        i += k
    if len(docs[-1]) < 3:           # keep every document usable for triples
        docs[-2].extend(docs.pop())
    return docs


def _with_oov(toks: list[str], ext_only: list[str], count: int, rng) -> list[str]:
    for pos in rng.choice(len(toks), size=min(count, len(toks)), replace=False):
        toks[pos] = ext_only[int(rng.integers(len(ext_only)))]
    return toks


def generate(out_dir, shape: Shape, seed: int) -> Inputs:
    """Write every input file of one workload into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([int(seed), shape.vocab_size])
    words = _Words(shape.types, rng)
    head = max(50, shape.vocab_size // 4)       # types surely in the vocabulary
    ext_only = [word(_EXT_ONLY_BASE + i) for i in range(shape.ext_only)]

    docs = _corpus(shape, words, rng)
    corpus = out / "corpus.txt"
    _write_lines(corpus, ("\n".join(d) + "\n" for d in docs))

    bank = []
    for _ in range(shape.bank_lines):
        if rng.random() < BANK_HEAD_SHARE:
            toks = words.sentence(*BANK_LEN, limit=head)
        else:
            toks = words.sentence(*BANK_LEN)
            if rng.random() < 0.3:
                toks = _with_oov(toks, ext_only, 1, rng)
        bank.append(" ".join(toks))
    n_dup = int(BANK_DUPLICATE_SHARE * len(bank))
    for i in rng.choice(np.arange(1, len(bank)), size=n_dup, replace=False):
        bank[i] = bank[int(rng.integers(i))]
    bank_path = out / "bank.txt"
    _write_lines(bank_path, bank)

    queries = [" ".join(_with_oov(words.sentence(5, 20), ext_only,
                                  int(rng.integers(1, 4)), rng))
               for _ in range(shape.queries)]
    queries_path = out / "queries.txt"
    _write_lines(queries_path, queries)

    shared = rng.choice(shape.types, size=min(shape.ext_shared, shape.types),
                        replace=False)
    ext_words = [word(int(i)) for i in shared] + ext_only
    vecs = rng.normal(0.0, 0.3, size=(len(ext_words), EXT_DIM))
    emb_path = out / "external.vec"
    _write_lines(emb_path, [f"{len(ext_words)} {EXT_DIM}"]
                 + [w + " " + " ".join(f"{x:.6f}" for x in row)
                    for w, row in zip(ext_words, vecs)])

    # Classification: the label is carried by the sentence's last word.
    markers = [word(10 + c) for c in range(CLASSES)]
    rows = []
    for i in range(shape.classify_items):
        c = i % CLASSES
        toks = words.sentence(5, 15, limit=head) + [markers[c]]
        rows.append(f"c{c}\t{' '.join(toks)}")
    order = rng.permutation(len(rows))
    classify = out / "classify.tsv"
    _write_lines(classify, [rows[i] for i in order])

    # Relatedness: b is a with its last k words replaced; gold = 5 - k.
    def sick_rows(n):
        yield "sentence_a\tsentence_b\tscore"
        for _ in range(n):
            a = words.sentence(6, 12, limit=head)
            k = int(rng.integers(0, 5))
            b = a[:len(a) - k] + [word(int(i)) for i in words.draw(k, head)]
            yield f"{' '.join(a)}\t{' '.join(b)}\t{5 - k}"
    sick_train, sick_test = out / "sick_train.tsv", out / "sick_test.tsv"
    _write_lines(sick_train, sick_rows(shape.sick_train))
    _write_lines(sick_test, sick_rows(shape.sick_test))

    # Retrieval: each image has a key word pair that ends all its captions;
    # its feature vector is the sum of the two words' random codes plus noise.
    pool = 40
    codes = rng.normal(0.0, 1.0, size=(pool, 48))
    pairs = [(a, b) for a in range(pool) for b in range(pool) if a != b]
    keys = [pairs[i] for i in rng.choice(len(pairs), size=shape.rank_images,
                                          replace=False)]
    images = np.vstack([codes[a] + codes[b] for a, b in keys])
    images += rng.normal(0.0, 0.1, size=images.shape)
    images_path = out / "images.bin"
    with open(images_path, "wb") as fh:
        fh.write(np.asarray(images.shape, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(images, dtype="<f4").tobytes())
    captions = []
    for a, b in keys:
        for _ in range(RANK_GROUP):
            toks = words.sentence(4, 10, limit=head)
            captions.append(" ".join(toks + [word(20 + a), word(20 + b)]))
    captions_path = out / "captions.txt"
    _write_lines(captions_path, captions)

    return Inputs(corpus=corpus, bank=bank_path, queries=queries_path,
                  embeddings=emb_path, classify=classify, sick_train=sick_train,
                  sick_test=sick_test, images=images_path,
                  captions=captions_path, rank_group=RANK_GROUP)
