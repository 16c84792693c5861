"""Tokenization, vocabulary construction, and contiguous sentence-triple streams.

Corpus files are UTF-8 text with one sentence per line; a blank line marks a
document boundary.  Triples are only formed from sentences that are contiguous
within one document.

build-vocab reads a corpus one document at a time and tokenizes it once, in
count_tokens: the same counts rank the vocabulary (build_vocab) and give the
corpus's word and unique-word stats.

Text is tokenized in blocks of up to TOKENIZE_BLOCK lines (tokenize_lines):
a block's lines are joined by "\n", lowercased once, rewritten once by each
rule and split back into lines, so each regex runs once per block rather
than once per line.  A "\n" inside a line first becomes a space.  The join
cannot change a line's tokens: every rule, \b, the lookarounds and
str.lower's final-sigma rule treat "\n" as they treat a space or the end of
the string, and no rule matches or inserts "\n".  tokenize is the block of
one line.  The apostrophe rules begin with a literal and check the word
character before it by lookbehind, so the regex engine skips from one
apostrophe (or "n't") to the next instead of trying every position.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError, ParameterError
from .fileio import write_text

EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

# Tokens kept per sentence; longer sentences are truncated before the eos.
SENTENCE_CAP = 100

# Rule-based tokenizer: lowercase, split punctuation into separate tokens,
# split clitic contractions ("don't" -> "do n't", "he'll" -> "he 'll").
_PUNCT = re.compile(r"([^\w\s'])")
_NT = re.compile(r"(n't)(?<=\wn't)\b")
_CLITIC = re.compile(r"('(?<=\w')(?:ll|re|ve|d|s|m))\b")
_LONE_APOSTROPHE = re.compile(r"'(?:(?<!\w')|(?!\w))")

# Lines tokenized together: the regex calls are paid once per block, and
# only one block's text and tokens are alive at a time.
TOKENIZE_BLOCK = 256


def _tokenize_block(lines: list[str]) -> list[list[str]]:
    """The tokens of each line, in one pass over the lines joined by "\n"."""
    if not lines:
        return []
    t = "\n".join([line.replace("\n", " ") for line in lines]).lower()
    t = _PUNCT.sub(r" \1 ", t)
    # Quotes and possessives first, so clitic splits stay intact afterwards.
    t = _LONE_APOSTROPHE.sub(" ' ", t)
    t = _NT.sub(r" \1", t)
    t = _CLITIC.sub(r" \1", t)
    return [line.split() for line in t.split("\n")]


def tokenize(text: str) -> list[str]:
    """Lowercased tokens with punctuation and contractions split off."""
    return _tokenize_block([text])[0]


def tokenize_lines(lines: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of each line, in order, tokenized TOKENIZE_BLOCK lines at a
    time: the next block is read only once the last one's tokens are taken."""
    lines = iter(lines)
    while block := list(islice(lines, TOKENIZE_BLOCK)):
        yield from _tokenize_block(block)


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


def count_tokens(sentences: Iterable[str]) -> Counter[str]:
    """Occurrences of every token, in first-seen order."""
    counts: Counter[str] = Counter()
    for tokens in tokenize_lines(sentences):
        counts.update(tokens)
    return counts


def build_vocab(counts: Counter[str], max_size: int) -> Vocabulary:
    """Vocabulary of the (max_size - 2) most frequent tokens plus the reserved two.

    Frequency ties are broken by the order of `counts`, which count_tokens
    keeps as first seen, so the result is deterministic for a corpus order.
    """
    if max_size < 3:
        raise ParameterError(f"max_size must be at least 3, got {max_size}")
    if not counts:
        raise InputError("empty corpus: no tokens to build a vocabulary from")
    # A stable sort on count alone keeps first-occurrence order within ties.
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    kept = [tok for tok, _ in ranked[: max_size - 2]]
    return Vocabulary([EOS_TOKEN, UNK_TOKEN] + kept)


class SentenceTriple(NamedTuple):
    """Token-id sequences for three contiguous sentences, each eos-terminated."""

    prev: tuple[int, ...]
    curr: tuple[int, ...]
    next: tuple[int, ...]


def iter_triples(documents: Iterable[list[str]],
                 vocab: Vocabulary) -> Iterator[SentenceTriple]:
    """Yield one triple per interior sentence of each document; documents
    with fewer than three sentences yield nothing."""
    eos = (vocab.eos_id,)
    for doc in documents:
        if len(doc) < 3:
            continue
        # Each sentence's first SENTENCE_CAP token ids, plus eos.
        encoded = [tuple(vocab.ids_for(tokens[:SENTENCE_CAP])) + eos
                   for tokens in tokenize_lines(doc)]
        for i in range(1, len(doc) - 1):
            yield SentenceTriple(encoded[i - 1], encoded[i], encoded[i + 1])


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


def read_documents(path) -> Iterator[list[str]]:
    """Yield the documents of a corpus file one at a time: one sentence per
    line, a blank line marks a document boundary."""
    current: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip() == "":
                if current:
                    yield current
                    current = []
            else:
                current.append(line)
    if current:
        yield current
