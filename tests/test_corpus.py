"""Tokenization, vocabulary construction, and triple streaming.

Oracles: hand-tokenized sentences, the per-line tokenizer of reference.py for
the block tokenizer, a Counter-based frequency oracle for the vocabulary cut,
and direct enumeration for triple counts.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from skipgru import corpus
from skipgru.corpus import (EOS_TOKEN, SENTENCE_CAP, TOKENIZE_BLOCK, UNK_TOKEN,
                            Vocabulary, build_vocab, count_tokens, detokenize,
                            iter_triples, load_vocab, read_documents,
                            save_vocab, tokenize, tokenize_lines)
from skipgru.errors import InputError, ParameterError


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_plain_sentence():
    assert tokenize("I got back home.") == ["i", "got", "back", "home", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_contraction():
    assert tokenize("don't stop") == ["do", "n't", "stop"]


def test_tokenize_more_contractions():
    assert tokenize("he'll go, I'm sure") == \
        ["he", "'ll", "go", ",", "i", "'m", "sure"]
    assert tokenize("it's Ann's book") == ["it", "'s", "ann", "'s", "book"]


def test_tokenize_quotes_and_punctuation():
    assert tokenize('she said "go!"') == ["she", "said", '"', "go", "!", '"']
    assert tokenize("wait... what?!") == \
        ["wait", ".", ".", ".", "what", "?", "!"]


def test_tokenize_whitespace_collapse():
    assert tokenize("  a \t b \n c  ") == ["a", "b", "c"]


def test_tokenize_deterministic():
    s = "The cat, the hat; don't ask why!"
    assert tokenize(s) == tokenize(s)


# Pieces that exercise every rule and every context the "\n" join could
# change: contractions and clitics after word characters, spaces and line
# edges; lone, doubled and inner apostrophes; a final sigma (lowercased by
# what follows it); "İ", which lowercases to two characters; underscores and
# digits (word characters); tabs and "\n" inside a line.
PIECES = ["n't", "N'T", "'ll", "'re", "'ve", "'d", "'s", "'m", "'LL", "'S",
          "'", "''", "o'clock", "don", "can", "won't", "Ann", "Σ", "ΑΣ", "σ",
          "İ", "_", "_x", "7", "a", "B", " ", "  ", "\t", "\n", ".", ",", '"',
          "?!", "-", "é"]
LINE = st.one_of(st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
                 st.text(max_size=12))


def _per_line(lines):
    return [reference.tokenize(line) for line in lines]


@given(st.lists(LINE, max_size=12))
# An inner apostrophe before "n't" (not split off, as "n't" follows no word
# character), a final sigma before "\n", and clitics after other apostrophes.
@example(["a'n't", "ΑΣ\nα", "ΑΣ", "Σ", "'tis n't", "İ'S", "x''s", "''"])
@settings(max_examples=300, deadline=None)
def test_block_tokenizer_matches_the_per_line_oracle(lines):
    want = _per_line(lines)
    assert list(tokenize_lines(lines)) == want
    assert corpus._tokenize_block(lines) == want
    assert [tokenize(line) for line in lines] == want


@given(st.lists(LINE, min_size=1, max_size=6),
       st.integers(TOKENIZE_BLOCK - 2, 2 * TOKENIZE_BLOCK + 2))
@settings(max_examples=30, deadline=None)
def test_batches_that_straddle_the_block_size_match_the_oracle(pool, n):
    lines = [pool[i % len(pool)] for i in range(n)]
    assert list(tokenize_lines(lines)) == _per_line(lines)


def test_tokenize_lines_of_no_lines_is_empty():
    assert list(tokenize_lines([])) == []
    assert list(tokenize_lines([""])) == [[]]


def test_tokenize_lines_reads_one_block_ahead():
    pulled = []

    def lines():
        for i in range(3 * TOKENIZE_BLOCK):
            pulled.append(i)
            yield f"w{i}"
    out = tokenize_lines(lines())
    assert next(out) == ["w0"]
    assert len(pulled) == TOKENIZE_BLOCK
    for _ in range(TOKENIZE_BLOCK - 1):
        next(out)
    assert len(pulled) == TOKENIZE_BLOCK
    assert next(out) == [f"w{TOKENIZE_BLOCK}"]
    assert len(pulled) == 2 * TOKENIZE_BLOCK


def test_count_tokens_holds_one_block_at_a_time():
    # 100 000 lines of 10 words from a 100-word vocabulary: the counts'
    # transient memory is a block's text and tokens, far below the text of
    # the whole stream joined.
    words = [f"word{i}" for i in range(100)]
    rng = np.random.default_rng(0)
    lines = [" ".join(words[i] for i in row)
             for row in rng.integers(0, 100, size=(100_000, 10))]
    joined = sum(len(line) + 1 for line in lines)
    tracemalloc.start()
    try:
        counts = count_tokens(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == Counter(w for line in lines for w in line.split())
    assert peak < joined / 10


# ---------------------------------------------------------------------------
# Vocabulary / build_vocab
# ---------------------------------------------------------------------------

def test_count_tokens_in_first_seen_order():
    counts = count_tokens(["b a .", "a c"])
    assert list(counts.items()) == [("b", 1), ("a", 2), (".", 1), ("c", 1)]


def test_build_vocab_all_fit():
    v = build_vocab(count_tokens(["a b", "a c"]), max_size=5)
    assert set(v.id_to_token) == {EOS_TOKEN, UNK_TOKEN, "a", "b", "c"}
    assert v.eos_id == 0 and v.unk_id == 1
    assert v.id_to_token[2] == "a"                 # most frequent first


def test_build_vocab_frequency_cutoff():
    v = build_vocab(count_tokens(["a a b"]), max_size=3)
    assert v.id_to_token == [EOS_TOKEN, UNK_TOKEN, "a"]
    assert v.ids_for(["b"])[0] == v.unk_id


def test_build_vocab_tie_broken_by_first_occurrence():
    v = build_vocab(count_tokens(["z q z q"]), max_size=4)
    assert v.id_to_token[2:] == ["z", "q"]


def test_build_vocab_empty_corpus():
    with pytest.raises(InputError):
        build_vocab(count_tokens([]), max_size=10)


def test_build_vocab_max_size_floor():
    with pytest.raises(ParameterError):
        build_vocab(count_tokens(["a"]), max_size=2)


def test_build_vocab_against_counting_oracle(rng):
    words = [f"t{i}" for i in range(120)]
    sents = [" ".join(rng.choice(words, size=8)) for _ in range(1000)]
    v = build_vocab(count_tokens(sents), max_size=50)
    counts = Counter(w for s in sents for w in tokenize(s))
    kept = set(v.id_to_token[2:])
    floor = min(counts[w] for w in kept)
    dropped = [w for w in counts if w not in kept]
    assert len(v.id_to_token) == 50
    assert all(counts[w] <= floor for w in dropped)


def test_vocabulary_inverse_maps():
    v = build_vocab(count_tokens(["x y z"]), max_size=6)
    for i, tok in enumerate(v.id_to_token):
        assert v.token_to_id[tok] == i
    assert v.size == len(v.id_to_token)


def test_vocabulary_reserved_token_check():
    with pytest.raises(InputError):
        Vocabulary(["a", "b", "c"])


def test_vocab_save_load_roundtrip(tmp_path):
    v = build_vocab(count_tokens(["the cat sat", "the dog ran"]), max_size=8)
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    v2 = load_vocab(path)
    assert v2.id_to_token == v.id_to_token


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

DOC_A = ["a b", "c d", "e f"]                  # 3 sentences -> 1 triple
DOC_B = ["a", "b", "c", "d"]                   # 4 sentences -> 2 triples


def _vocab_for(*docs):
    return build_vocab(count_tokens([s for d in docs for s in d]), max_size=30)


def test_triples_minimal_document():
    v = _vocab_for(DOC_A)
    out = list(iter_triples([DOC_A], v))
    assert len(out) == 1
    t = out[0]
    assert t.prev == tuple(v.ids_for(tokenize("a b"))) + (v.eos_id,)
    assert t.curr == tuple(v.ids_for(tokenize("c d"))) + (v.eos_id,)
    assert t.next == tuple(v.ids_for(tokenize("e f"))) + (v.eos_id,)


def test_triples_interior_count():
    v = _vocab_for(DOC_B)
    assert len(list(iter_triples([DOC_B], v))) == 2


def test_triples_never_cross_documents():
    v = _vocab_for(DOC_B, DOC_A)
    out = list(iter_triples([DOC_B, DOC_A], v))
    assert len(out) == 3
    # No triple may mix sentences of the two documents: the last sentence of
    # DOC_B ("d") and the first of DOC_A ("a b") never share a triple.
    d_id = v.ids_for(["d"])[0]
    for t in out:
        if t.curr[0] == d_id:
            assert t.next != tuple(v.ids_for(["a", "b"])) + (v.eos_id,)


def test_triples_skip_short_documents():
    v = _vocab_for(DOC_A)
    out = list(iter_triples([["one", "two"], DOC_A], v))
    assert len(out) == 1


def test_triples_unknown_words_become_unk():
    v = build_vocab(count_tokens(["a b c"]), max_size=5)
    out = list(iter_triples([["a b", "zzz b", "c a"]], v))
    assert v.unk_id in out[0].curr


def test_triple_sequences_eos_terminated():
    v = _vocab_for(DOC_B)
    for t in iter_triples([DOC_B], v):
        for seq in (t.prev, t.curr, t.next):
            assert seq[-1] == v.eos_id
            assert v.eos_id not in seq[:-1]
            assert all(i < v.size for i in seq)


def _encode(sentence, vocab):
    """The ids iter_triples gives a sentence: the middle of a document."""
    [triple] = iter_triples([["", sentence, ""]], vocab)
    assert triple.curr == reference.encode_sentence(sentence, vocab)
    return triple.curr


def test_encode_sentence_caps_length():
    v = build_vocab(count_tokens(["a b"]), max_size=5)
    ids = _encode(" ".join(["a"] * 200), v)
    assert len(ids) == 101 and ids[-1] == v.eos_id
    assert SENTENCE_CAP == 100


# ---------------------------------------------------------------------------
# file input
# ---------------------------------------------------------------------------

def test_read_documents_blank_line_boundary(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("s1\ns2\n\ns3\ns4\ns5\n", encoding="utf-8")
    docs = list(read_documents(p))
    assert docs == [["s1", "s2"], ["s3", "s4", "s5"]]


def test_read_documents_yields_a_document_before_reading_on(tmp_path):
    # The bad byte lies past the first 8 KiB read, so only a reader that
    # yields as it goes returns the first document before it fails.
    p = tmp_path / "c.txt"
    p.write_bytes(b"s1\ns2\n\n" + b"x" * 70000 + b"\n\xff\n")
    docs = read_documents(p)
    assert next(docs) == ["s1", "s2"]
    with pytest.raises(UnicodeDecodeError):
        next(docs)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

WORD = st.sampled_from(["alpha", "beta", "gamma", "delta", ".", ","])


@given(st.lists(WORD, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_roundtrip_for_in_vocab_text(words):
    v = build_vocab(count_tokens(["alpha beta gamma delta . ,"]), max_size=10)
    sent = " ".join(words)
    ids = _encode(sent, v)
    text = detokenize([v.id_to_token[i] for i in ids[:-1]])
    assert _encode(text, v) == ids


@given(st.lists(st.lists(WORD, min_size=1, max_size=5), min_size=1,
                max_size=6))
@settings(max_examples=50, deadline=None)
def test_triple_count_matches_enumeration(doc_sents):
    v = build_vocab(count_tokens(["alpha beta gamma delta . ,"]), max_size=10)
    docs = [[" ".join(w) for w in doc_sents]]
    want = max(0, len(doc_sents) - 2)
    assert len(list(iter_triples(docs, v))) == want


def test_unk_never_for_in_vocab_tokens():
    v = build_vocab(count_tokens(["p q r s"]), max_size=8)
    ids = _encode("p q r s p q", v)
    assert v.unk_id not in ids
