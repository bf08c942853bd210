"""Translation-memory retrieval: BM25, hybrid fusion, and the retrieval-based
semantic evaluator for sentence-level motion."""
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
from .metrics import token_f1
from .motion import MotionSequence, PartLayout
from .records import read_json_lines

FUSE_ALPHA = 0.35
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


class Reranker(Protocol):
    def score(self, query: str, candidates: list[Document]) -> np.ndarray: ...


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
    reranker: Reranker | None = None,
    k_first: int = 30,
    k_out: int = 6,
    alpha: float = FUSE_ALPHA,
) -> RetrievalResult:
    """Two-stage retrieval: fused BM25+sparse, rerank fusion, dedup, top-k."""
    sparse = sparse if sparse is not None else TrigramSparseScorer()
    reranker = reranker if reranker is not None else OverlapReranker()
    q_tokens = word_tokens(query)
    bm25 = np.array([bm25_score(q_tokens, corpus, i) for i in range(len(corpus))])
    sp = np.asarray(sparse.score(query, corpus), dtype=np.float64)
    s_first = alpha * min_max_normalize(bm25) + (1.0 - alpha) * min_max_normalize(sp)

    order = np.argsort(-s_first, kind="stable")[:k_first]
    pool = [corpus.documents[i] for i in order]
    s_rerank = np.asarray(reranker.score(query, pool), dtype=np.float64)
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


# ---------------------------------------------------------------------------
# retrieval-based semantic evaluation


@dataclass(frozen=True)
class SemanticEvalConfig:
    lambda_u: float = 0.55
    lambda_g: float = 0.40
    lambda_c: float = 0.05
    top_k: int = 10


class StatisticsEncoder:
    """Default motion encoder: unit-normalized per-part mean/std statistics."""

    def __init__(self, layout: PartLayout | None = None):
        self.layout = layout if layout is not None else PartLayout.base()

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        stats = []
        for group in ("body", "face", "hand"):
            part = frames[:, self.layout.group_indices(group)]
            stats.append(part.mean(axis=0))
            stats.append(part.std(axis=0))
        vec = np.concatenate(stats)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec


@dataclass
class SentenceMemoryItem:
    motion: np.ndarray
    gloss: list[str]
    text: str
    item_id: str


def build_gloss_prototypes(clips_by_gloss: dict[str, list[np.ndarray]], encoder) -> dict[str, np.ndarray]:
    """One unit vector per gloss: the renormalized mean of its clip embeddings."""
    prototypes = {}
    for gloss, clips in clips_by_gloss.items():
        vecs = np.stack([encoder(c) for c in clips])
        mean = vecs.mean(axis=0)
        norm = np.linalg.norm(mean)
        prototypes[gloss] = mean / norm if norm > 0 else mean
    return prototypes


def segment_frames(frames: np.ndarray, k: int) -> list[np.ndarray]:
    """Split into k near-equal temporal parts (every part non-empty when T >= k)."""
    t = frames.shape[0]
    edges = np.linspace(0, t, k + 1).round().astype(int)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        hi = max(hi, lo + 1) if lo < t else t
        out.append(frames[lo:hi] if hi > lo else frames[max(lo - 1, 0):max(lo, 1)])
    return out


@dataclass
class SemanticEvalResult:
    best: SentenceMemoryItem
    best_score: float
    scores: list[float]
    ranked_ids: list[str]
    retrieved_gloss: list[str]
    reference_rank: int | None = None


def semantic_eval(
    motion: np.ndarray | MotionSequence,
    sentence_memory: list[SentenceMemoryItem],
    gloss_prototypes: dict[str, np.ndarray],
    encoder=None,
    cfg: SemanticEvalConfig = SemanticEvalConfig(),
    reference_id: str | None = None,
) -> SemanticEvalResult:
    """Hybrid score over retrieved sentence candidates.

    Combines the min-max normalized sentence similarity over the top-k pool,
    token F1 between segment-level gloss evidence and the candidate gloss, and
    the mean best-match prototype cosine as retrieval confidence.
    """
    if not sentence_memory:
        raise ValueError("sentence memory is empty")
    if not gloss_prototypes:
        raise ValueError("gloss prototype memory is empty")
    frames = motion.frames if isinstance(motion, MotionSequence) else np.asarray(motion)
    encoder = encoder if encoder is not None else StatisticsEncoder()
    query_vec = encoder(frames)
    sims = np.array([float(query_vec @ encoder(item.motion)) for item in sentence_memory])
    top = np.argsort(-sims, kind="stable")[: cfg.top_k]
    s_u = min_max_normalize(sims[top])

    proto_names = list(gloss_prototypes)
    proto_mat = np.stack([gloss_prototypes[g] for g in proto_names])

    scores = []
    evidences = []
    for pool_rank, mem_idx in enumerate(top):
        item = sentence_memory[mem_idx]
        k = max(len(item.gloss), 1)
        seg_vecs = np.stack([encoder(seg) for seg in segment_frames(frames, k)])
        cos = seg_vecs @ proto_mat.T
        best_idx = cos.argmax(axis=1)
        evidence = [proto_names[i] for i in best_idx]
        confidence = float(cos.max(axis=1).mean())
        f1 = token_f1(evidence, item.gloss)
        score = cfg.lambda_u * float(s_u[pool_rank]) + cfg.lambda_g * f1 + cfg.lambda_c * confidence
        scores.append(score)
        evidences.append(evidence)

    best_rank = int(np.argmax(scores))
    ranked = np.argsort(-np.asarray(scores), kind="stable")
    ranked_ids = [sentence_memory[top[i]].item_id for i in ranked]
    reference_rank = None
    if reference_id is not None and reference_id in ranked_ids:
        reference_rank = ranked_ids.index(reference_id) + 1
    return SemanticEvalResult(
        best=sentence_memory[top[best_rank]],
        best_score=float(scores[best_rank]),
        scores=[float(s) for s in scores],
        ranked_ids=ranked_ids,
        retrieved_gloss=evidences[best_rank],
        reference_rank=reference_rank,
    )
