"""Tokenization, vocabulary construction, and contiguous sentence-triple streams.

Corpus files are UTF-8 text with one sentence per line; a blank line marks a
document boundary.  Triples are only formed from sentences that are contiguous
within one document.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError, ParameterError
from .fileio import write_text

EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

DEFAULT_SENTENCE_CAP = 100

# Rule-based tokenizer: lowercase, split punctuation into separate tokens,
# split clitic contractions ("don't" -> "do n't", "he'll" -> "he 'll").
_PUNCT = re.compile(r"([^\w\s'])")
_NT = re.compile(r"(?<=\w)(n't)\b")
_CLITIC = re.compile(r"(?<=\w)('ll|'re|'ve|'d|'s|'m)\b")
_LONE_APOSTROPHE = re.compile(r"(?<!\w)'|'(?!\w)")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens with punctuation and contractions split off."""
    t = text.lower()
    t = _PUNCT.sub(r" \1 ", t)
    # Quotes and possessives first, so clitic splits stay intact afterwards.
    t = _LONE_APOSTROPHE.sub(" ' ", t)
    t = _NT.sub(r" \1", t)
    t = _CLITIC.sub(r" \1", t)
    return t.split()


def detokenize(tokens: Iterable[str]) -> str:
    return " ".join(tokens)


@dataclass
class Vocabulary:
    """Bidirectional token/id map with reserved end-of-sentence and unknown ids."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)
    eos_id: int = field(init=False)
    unk_id: int = field(init=False)

    def __post_init__(self):
        if self.id_to_token[:2] != [EOS_TOKEN, UNK_TOKEN]:
            raise InputError(f"vocabulary must start with {EOS_TOKEN}, {UNK_TOKEN}")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise InputError("vocabulary contains duplicate tokens")
        self.eos_id = 0
        self.unk_id = 1

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def ids_for(self, tokens: Iterable[str]) -> list[int]:
        get = self.token_to_id.get
        unk = self.unk_id
        return [get(t, unk) for t in tokens]

    def tokens_for(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(sentences: Iterable[str], max_size: int) -> Vocabulary:
    """Vocabulary of the (max_size - 2) most frequent tokens plus the reserved two.

    Frequency ties are broken by first occurrence in the stream, so the result
    is deterministic for a given corpus order.
    """
    if max_size < 3:
        raise ParameterError(f"max_size must be at least 3, got {max_size}")
    counts: Counter[str] = Counter()
    for sentence in sentences:
        counts.update(tokenize(sentence))
    if not counts:
        raise InputError("empty corpus: no tokens to build a vocabulary from")
    # Counter preserves first-encounter order, so a stable sort on count alone
    # breaks ties by first occurrence.
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    kept = [tok for tok, _ in ranked[: max_size - 2]]
    return Vocabulary([EOS_TOKEN, UNK_TOKEN] + kept)


class SentenceTriple(NamedTuple):
    """Token-id sequences for three contiguous sentences, each eos-terminated."""

    prev: tuple[int, ...]
    curr: tuple[int, ...]
    next: tuple[int, ...]


def encode_sentence(sentence: str, vocab: Vocabulary,
                    cap: int = DEFAULT_SENTENCE_CAP) -> tuple[int, ...]:
    """Token ids for one sentence, truncated to `cap` tokens, plus terminal eos."""
    tokens = tokenize(sentence)[:cap]
    return tuple(vocab.ids_for(tokens)) + (vocab.eos_id,)


def iter_triples(documents: Iterable[list[str]], vocab: Vocabulary,
                 cap: int = DEFAULT_SENTENCE_CAP,
                 stats: dict | None = None) -> Iterator[SentenceTriple]:
    """Yield one triple per interior sentence of each document.

    Documents with fewer than three sentences yield nothing; if `stats` is
    given it is updated in place with documents / skipped_documents / triples
    counts.
    """
    if stats is not None:
        stats.setdefault("documents", 0)
        stats.setdefault("skipped_documents", 0)
        stats.setdefault("triples", 0)
    for doc in documents:
        if stats is not None:
            stats["documents"] += 1
        if len(doc) < 3:
            if stats is not None:
                stats["skipped_documents"] += 1
            continue
        encoded = [encode_sentence(s, vocab, cap) for s in doc]
        for i in range(1, len(doc) - 1):
            if stats is not None:
                stats["triples"] += 1
            yield SentenceTriple(encoded[i - 1], encoded[i], encoded[i + 1])


def corpus_stats(documents: Iterable[list[str]]) -> dict:
    """Sentence, word, and unique-word counts over the tokenized corpus."""
    sentences = 0
    words = 0
    unique: set[str] = set()
    for doc in documents:
        for sentence in doc:
            tokens = tokenize(sentence)
            sentences += 1
            words += len(tokens)
            unique.update(tokens)
    return {
        "sentences": sentences,
        "words": words,
        "unique_words": len(unique),
        "mean_words_per_sentence": (words / sentences) if sentences else 0.0,
    }


def save_vocab(vocab: Vocabulary, path) -> None:
    """One token per line; the line number is the token id."""
    write_text(path, "".join(token + "\n" for token in vocab.id_to_token))


def load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if len(tokens) < 2:
        raise InputError(f"{path}: vocabulary file has fewer than 2 tokens")
    return Vocabulary(tokens)


def read_documents(path) -> list[list[str]]:
    """Parse a corpus file: one sentence per line, blank line = document boundary."""
    documents: list[list[str]] = []
    current: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip() == "":
                if current:
                    documents.append(current)
                    current = []
            else:
                current.append(line)
    if current:
        documents.append(current)
    return documents
