"""Vocabulary expansion: map an external word-embedding space into the trained
RNN embedding space with un-regularized least squares over shared words, then
encode sentences whose words were never seen in training.

The fitted map W solves min_W sum_shared ||W v_ext - v_rnn||^2.  One rule,
ExpandedLookup.locate, places each token: native RNN embedding, else W v_ext,
else the unk embedding, the exact token before its lowercased form at each
stage.  Every input row follows it; nearest_words ranks one row per word.

encode_text encodes one raw sentence (queries, generation); encode_sentences
encodes many tokenized ones (encode, the evals, sentence banks) in
length-sorted, padded chunks whose distinct input rows are multiplied once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import EOS_TOKEN, Vocabulary, tokenize
from .encoder import encode_batch, encode_vectors
from .errors import ConfigError, InputError, ShapeError
from .fileio import check_keys, check_types, read_container, write_container
from .trainer import SkipGruModel


@dataclass
class ExternalEmbeddings:
    tokens: list[str]
    vectors: np.ndarray  # (n_tokens, ext_dim)
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.tokens):
            raise InputError(f"need one vector row per token: {len(self.tokens)} "
                             f"tokens, vectors {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise InputError("external embedding vectors contain non-finite entries")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise InputError("external embedding tokens are not unique")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def read_embeddings_text(path) -> tuple[ExternalEmbeddings, int]:
    """Parse the textual interchange format: a "count dim" header line, then
    one token and dim floats per line.  Multi-word entries (embedded spaces or
    underscores) are skipped; returns (embeddings, skipped_count)."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise InputError(f"{path}: header must be 'count dim'")
        try:
            declared, dim = int(head[0]), int(head[1])
        except ValueError as exc:
            raise InputError(f"{path}: non-integer header") from exc
        if dim < 1:
            raise InputError(f"{path}: dim must be >= 1, got {dim}")
        tokens: list[str] = []
        rows: list[list[float]] = []
        skipped = 0
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) > dim + 1 or "_" in parts[0]:
                skipped += 1
                continue
            if len(parts) < dim + 1:
                raise InputError(f"{path}:{lineno}: expected {dim} floats after "
                                 f"the token, found {len(parts) - 1}")
            try:
                rows.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad float") from exc
            tokens.append(parts[0])
    if len(tokens) + skipped != declared:
        raise InputError(f"{path}: header declares {declared} entries, "
                         f"found {len(tokens) + skipped}")
    vectors = np.asarray(rows, dtype=np.float64).reshape(len(tokens), dim)
    return ExternalEmbeddings(tokens=tokens, vectors=vectors), skipped


@dataclass
class ExpansionMap:
    W: np.ndarray           # (rnn_embed_dim, ext_dim)
    shared_count: int
    residual_rms: float
    rank_deficient: bool = False


def shared_tokens(ext: ExternalEmbeddings, vocab: Vocabulary) -> list[str]:
    """Training-vocab tokens (reserved ids excluded) present verbatim in ext."""
    return [t for t in vocab.id_to_token[2:] if t in ext.index]


def fit_expansion(ext: ExternalEmbeddings, model: SkipGruModel) -> ExpansionMap:
    """Least-squares fit of W on the tokens both vocabularies share.

    Solved per output dimension from one SVD factorization (numpy lstsq),
    which doubles as the pseudoinverse fallback when the shared-token design
    matrix is rank deficient.
    """
    shared = shared_tokens(ext, model.vocab)
    if not shared:
        raise ConfigError("no tokens shared between the external embeddings "
                          "and the model vocabulary")
    if len(shared) < model.config.embed_dim:
        warnings.warn(f"only {len(shared)} shared tokens for a "
                      f"{model.config.embed_dim}-dim embedding space; "
                      f"the fitted map will be underdetermined")
    X = ext.vectors[[ext.index[t] for t in shared]]          # (s, ext_dim)
    Y = model.embedding[[model.vocab.token_to_id[t] for t in shared]]
    sol, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)      # sol: (ext_dim, rnn_dim)
    W = np.ascontiguousarray(sol.T)
    residual = X @ sol - Y
    rms = float(np.sqrt(np.mean(residual * residual)))
    return ExpansionMap(W=W, shared_count=len(shared), residual_rms=rms,
                        rank_deficient=bool(rank < min(X.shape)))


NATIVE, MAPPED, UNK = "native", "mapped", "unk"


@dataclass
class ExpandedLookup:
    """Token-to-vector resolver over the union vocabulary, by locate's rule;
    without a map (ext and map both None) it covers the native words only."""

    model: SkipGruModel
    ext: ExternalEmbeddings | None = None
    map: ExpansionMap | None = None

    def __post_init__(self):
        emb = self.model.embedding
        if self.map is not None and self.ext is None:
            raise InputError("an expansion map needs the external embeddings "
                             "it maps from")
        if self.map is not None and self.map.W.shape != (emb.shape[1], self.ext.dim):
            raise ShapeError(f"expansion map is {self.map.W.shape}, expected "
                             f"({emb.shape[1]}, {self.ext.dim})")

    def locate(self, token: str) -> tuple[str, int]:
        """(source, i): the native id, else (under a map) the external index,
        else the unk id; each stage tries token, then token.lower()."""
        for source, index in ((NATIVE, self.model.vocab.token_to_id),
                              (MAPPED, self.ext.index if self.map else {})):
            for cand in (token, token.lower()):
                if cand in index:
                    return source, index[cand]
        return UNK, self.model.vocab.unk_id

    def resolve(self, token: str) -> tuple[str, np.ndarray]:
        """(source, vector) where source is "native", "mapped", or "unk"."""
        source, i = self.locate(token)
        if source == MAPPED:
            return source, self.map.W @ self.ext.vectors[i]
        return source, self.model.embedding[i]


def expand(model: SkipGruModel, ext: ExternalEmbeddings,
           map: ExpansionMap) -> ExpandedLookup:
    return ExpandedLookup(model=model, ext=ext, map=map)


# Sentences per padded encoder pass in encode_sentences.  A fixed size keeps
# the vectors of a given input independent of any setting.
ENCODE_CHUNK = 32


def _row_matrix(chunk: list[list[str]], model: SkipGruModel,
                lookup: ExpandedLookup | None) -> tuple:
    """(rows, index, lengths) of sentences for encoder.encode_batch: distinct
    input rows (under a map, each word resolved once) and the (T, B) row
    matrix of the steps, padded with eos; one sentence keeps its own rows."""
    vocab, emb, first = model.vocab, model.embedding, {EOS_TOKEN: 0}
    steps = [first.setdefault(t, len(first)) for tokens in chunk for t in tokens]
    ids, vectors = vocab.ids_for(first), []
    for k, t in enumerate(first if lookup is not None and lookup.map else ()):
        source, vec = lookup.resolve(t)
        ids[k] = (len(emb) + len(vectors) if source == MAPPED
                  else lookup.locate(t)[1])
        vectors += [vec] if source == MAPPED else []
    lengths = np.array([len(tokens) + 1 for tokens in chunk])
    matrix = np.zeros((lengths.max(), len(chunk)), dtype=np.intp)
    matrix.T[np.arange(len(matrix)) < lengths[:, None] - 1] = steps
    keep, at = np.unique(ids, return_inverse=True)
    rows = np.vstack([emb[keep[:len(keep) - len(vectors)]], *vectors])
    if len(chunk) == 1:
        return rows[at[matrix[:, 0]]], np.arange(len(matrix))[:, None], lengths
    return rows, at[matrix], lengths


def encode_text(sentence: str, model: SkipGruModel,
                lookup: ExpandedLookup | None = None) -> np.ndarray:
    """Encode a raw sentence from its tokens' rows and the eos embedding; a
    lookup with a map gives out-of-vocabulary words their mapped rows."""
    tokens, emb, eos = tokenize(sentence), model.embedding, model.vocab.eos_id
    if lookup is None or lookup.map is None:
        X = emb[model.vocab.ids_for(tokens) + [eos]]
    else:
        X = np.vstack([lookup.resolve(t)[1] for t in tokens] + [emb[eos]])
    return encode_vectors(X, model.encoder)


def encode_sentences(sentences: Sequence[list[str]], model: SkipGruModel,
                     lookup: ExpandedLookup | None = None) -> np.ndarray:
    """(n, output_dim) vectors of n tokenized sentences, in input order; each
    token resolves as in encode_text.

    Sorted by token count, they are encoded ENCODE_CHUNK at a time, each chunk
    in one encoder.encode_batch pass over its row matrix: the products run over
    its distinct rows, and its trace lives only inside that pass.  A vector may
    differ from encode_text's in its last bits (at most 1e-12 relative), never
    between runs.
    """
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
    out = np.empty((len(sentences), model.encoder.output_dim))
    for start in range(0, len(order), ENCODE_CHUNK):
        chunk = order[start:start + ENCODE_CHUNK]
        out[chunk] = encode_batch(*_row_matrix([sentences[i] for i in chunk],
                                               model, lookup), model.encoder)
    return out


def nearest_words(query: str, lookup: ExpandedLookup,
                  k: int) -> list[tuple[str, float]]:
    """Top-k words by cosine similarity to the query in RNN embedding space:
    the native words, then each external word that locates to its own index
    (not "Holiday" beside "holiday"), less the one whose row the query has."""
    where = lookup.locate(query)
    if where[0] == UNK:
        raise InputError(f"query {query!r} is in neither vocabulary")
    ext, model = lookup.ext, lookup.model
    ids = [n for n in range(2, model.vocab.size) if (NATIVE, n) != where]
    own = [j for j, t in enumerate(ext.tokens if lookup.map else ())
           if lookup.locate(t) == (MAPPED, j) != where]
    words = [model.vocab.id_to_token[n] for n in ids]
    mapped = [ext.vectors[own] @ lookup.map.W.T] if own else []
    bank = SentenceBank(sentences=words + [ext.tokens[j] for j in own],
                        vectors=np.vstack([model.embedding[ids], *mapped]))
    return bank.top_k(lookup.resolve(query)[1], k)


@dataclass
class SentenceBank:
    """Texts and their vectors, ranked by cosine similarity to a query; the
    row norms (safe_norms: a zero row's as 1) are computed once, at build."""

    sentences: list[str]
    vectors: np.ndarray  # (n, dim)
    safe_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.sentences):
            raise InputError(f"need one vector row per sentence: "
                             f"{len(self.sentences)} sentences, "
                             f"vectors {self.vectors.shape}")
        norms = np.linalg.norm(self.vectors, axis=1)
        self.safe_norms = np.where(norms == 0.0, 1.0, norms)

    def top_k(self, q: np.ndarray, k: int) -> list[tuple[str, float]]:
        """(text, cosine similarity) of the k rows most similar to q, best
        first; ties keep row order.  A zero vector has similarity 0.  Only the
        rows at or above the k-th best are sorted: a full sort's hits and ties."""
        qn = float(np.linalg.norm(q))
        sims = (self.vectors @ q) / (self.safe_norms * (qn if qn > 0 else 1.0))
        rows = np.arange(len(sims))
        if 0 < k < len(sims):
            kth = -np.partition(-sims, k - 1)[k - 1]
            rows = np.flatnonzero(~(sims < kth))  # NaNs too: sorted last
        order = rows[np.argsort(-sims[rows], kind="stable")[:max(k, 0)]]
        return [(self.sentences[i], float(sims[i])) for i in order]


def nearest_sentences(query: str, model: SkipGruModel, bank: SentenceBank,
                      k: int, lookup: ExpandedLookup | None = None,
                      ) -> list[tuple[str, float]]:
    """Top-k bank sentences by cosine similarity to the encoded query."""
    if len(bank.sentences) == 0:
        raise InputError("sentence bank is empty")
    return bank.top_k(encode_text(query, model, lookup), k)


EXPANSION_MAGIC = b"SKIPGRUX"
EXPANSION_VERSION = 1


def write_expansion(map: ExpansionMap, ext: ExternalEmbeddings, path) -> None:
    """Self-contained map file: the fitted W plus the external tokens and
    vectors it applies to, as a fileio container (magic SKIPGRUX) whose
    blobs are W, then the external vectors."""
    header = {
        "ext_dim": int(ext.dim),
        "rank_deficient": bool(map.rank_deficient),
        "residual_rms": float(map.residual_rms),
        "rnn_dim": int(map.W.shape[0]),
        "shared_count": int(map.shared_count),
        "tokens": ext.tokens,
    }
    write_container(path, EXPANSION_MAGIC, EXPANSION_VERSION, header,
                    (map.W, ext.vectors))


def _parse_expansion_header(header):
    kinds = {"tokens": "list[str]", "rnn_dim": "int", "ext_dim": "int",
             "shared_count": "int", "residual_rms": "float",
             "rank_deficient": "bool"}
    check_keys(header, kinds)
    check_types(header, kinds)
    tokens, rnn_dim, ext_dim = (header[k] for k in ("tokens", "rnn_dim",
                                                    "ext_dim"))
    fit = {k: header[k]
           for k in ("shared_count", "residual_rms", "rank_deficient")}
    return (tokens, fit), [(rnn_dim, ext_dim), (len(tokens), ext_dim)]


def read_expansion(path) -> tuple[ExpansionMap, ExternalEmbeddings]:
    (tokens, fit), (W, vectors) = read_container(
        path, EXPANSION_MAGIC, EXPANSION_VERSION, "expansion-map",
        _parse_expansion_header)
    ext = ExternalEmbeddings(tokens=tokens, vectors=vectors)
    return ExpansionMap(W=W, **fit), ext
