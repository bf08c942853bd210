"""Translation-memory retrieval: BM25, hybrid fusion and reranking over an
English-gloss corpus."""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .glossnorm import char_trigrams, trigram_counts_cosine
from .records import read_json_lines

FUSE_ALPHA = 0.35
K_FIRST = 30
RERANK_WEIGHT = 0.85
FIRST_STAGE_WEIGHT = 0.15


# ---------------------------------------------------------------------------
# BM25 and the hybrid first stage


def word_tokens(text: str) -> list[str]:
    return re.findall(r"\w+", text.lower())


@dataclass
class Document:
    english: str
    gloss: str
    doc_id: str


class Corpus:
    """Inverted-index corpus over English text."""

    def __init__(self, documents: list[Document]):
        if not documents:
            raise ValueError("corpus must be non-empty")
        self.documents = documents
        self.tokens = [word_tokens(d.english) for d in documents]
        self.doc_lens = np.array([len(t) for t in self.tokens], dtype=np.float64)
        self.avgdl = float(self.doc_lens.mean()) if self.doc_lens.sum() else 1.0
        self.term_freqs = [Counter(t) for t in self.tokens]
        df: Counter = Counter()
        for tf in self.term_freqs:
            df.update(tf.keys())
        n = len(documents)
        self.idf = {t: math.log((n - d + 0.5) / (d + 0.5) + 1.0) for t, d in df.items()}

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def trigrams(self) -> list[Counter]:
        """Character-trigram counts of each document's English text."""
        return [char_trigrams(d.english) for d in self.documents]


def bm25_score(query_tokens: Sequence[str], corpus: Corpus, doc_index: int,
               k1: float = 1.5, b: float = 0.75) -> float:
    """Okapi BM25 with the +1 idf floor."""
    tf = corpus.term_freqs[doc_index]
    dl = corpus.doc_lens[doc_index]
    norm = k1 * (1.0 - b + b * dl / corpus.avgdl)
    score = 0.0
    for term in query_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        score += corpus.idf.get(term, 0.0) * f * (k1 + 1.0) / (f + norm)
    return score


class SparseScorer(Protocol):
    def score(self, query: str, corpus: Corpus) -> np.ndarray: ...


class TrigramSparseScorer:
    """Character-trigram TF-IDF stub standing in for a learned sparse encoder."""

    def score(self, query: str, corpus: Corpus) -> np.ndarray:
        """`trigram_tfidf_cosine` of the query with each document, from the
        corpus's trigram counts."""
        tq = char_trigrams(query)
        return np.array([trigram_counts_cosine(tq, td) for td in corpus.trigrams])


class OverlapReranker:
    """Normalized token-overlap stub standing in for a cross-encoder."""

    def score(self, query: str, candidates: list[Document]) -> np.ndarray:
        q = set(word_tokens(query))
        out = []
        for cand in candidates:
            c = set(word_tokens(cand.english))
            denom = max(len(q | c), 1)
            out.append(len(q & c) / denom)
        return np.array(out)


def min_max_normalize(scores: np.ndarray) -> np.ndarray:
    """Map the pool onto [0, 1]; a degenerate pool of equal scores maps to 1."""
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    if hi <= lo:
        return np.ones_like(scores)
    return (scores - lo) / (hi - lo)


@dataclass
class RetrievalCandidate:
    document: Document
    s_bm25: float
    s_sparse: float
    s_first: float
    s_rerank: float = 0.0
    s_final: float = 0.0


@dataclass
class RetrievalResult:
    candidates: list[RetrievalCandidate]
    flags: list[str] = field(default_factory=list)


def normalize_english(text: str) -> str:
    """Dedup key: lowercase, strip punctuation, collapse whitespace."""
    return " ".join(word_tokens(text))


def retrieve(
    query: str,
    corpus: Corpus,
    sparse: SparseScorer | None = None,
    k_out: int = 6,
) -> RetrievalResult:
    """Two-stage retrieval: fused BM25+sparse, rerank fusion, dedup, top-k."""
    sparse = sparse if sparse is not None else TrigramSparseScorer()
    q_tokens = word_tokens(query)
    bm25 = np.array([bm25_score(q_tokens, corpus, i) for i in range(len(corpus))])
    sp = np.asarray(sparse.score(query, corpus), dtype=np.float64)
    s_first = FUSE_ALPHA * min_max_normalize(bm25) + (1.0 - FUSE_ALPHA) * min_max_normalize(sp)

    order = np.argsort(-s_first, kind="stable")[:K_FIRST]
    pool = [corpus.documents[i] for i in order]
    s_rerank = np.asarray(OverlapReranker().score(query, pool), dtype=np.float64)
    candidates = []
    for rank, idx in enumerate(order):
        cand = RetrievalCandidate(
            document=corpus.documents[idx],
            s_bm25=float(bm25[idx]),
            s_sparse=float(sp[idx]),
            s_first=float(s_first[idx]),
            s_rerank=float(s_rerank[rank]),
        )
        cand.s_final = RERANK_WEIGHT * cand.s_rerank + FIRST_STAGE_WEIGHT * cand.s_first
        candidates.append(cand)
    candidates.sort(key=lambda c: -c.s_final)

    seen: set[str] = set()
    unique = []
    for cand in candidates:
        key = normalize_english(cand.document.english)
        if key in seen:
            continue
        seen.add(key)
        unique.append(cand)
    flags = []
    if len(unique) < k_out:
        flags.append("fewer-than-k")
    return RetrievalResult(unique[:k_out], flags)


# ---------------------------------------------------------------------------
# corpus file format


def load_corpus(path: str | Path) -> Corpus:
    """Line-delimited JSON records with english, gloss, and id fields.

    A line that is not a JSON object with english and gloss raises a
    ValueError naming the path and the 1-based line number."""
    documents = [Document(rec["english"], rec["gloss"], rec.get("id", str(line_no - 1)))
                 for line_no, rec in read_json_lines(path, ("english", "gloss"))]
    return Corpus(documents)


def save_corpus(path: str | Path, documents: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in documents:
            fh.write(json.dumps({"english": d.english, "gloss": d.gloss, "id": d.doc_id}, sort_keys=True) + "\n")

