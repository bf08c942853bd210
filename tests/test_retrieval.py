from __future__ import annotations

import math
import re

import numpy as np
import pytest

from trigram_oracle import pairwise_trigram_cosine
from signweave.retrieval import (
    Corpus,
    Document,
    OverlapReranker,
    RetrievalResult,
    TrigramSparseScorer,
    bm25_score,
    load_corpus,
    min_max_normalize,
    normalize_english,
    retrieve,
    save_corpus,
    word_tokens,
)


def three_doc_corpus():
    return Corpus([
        Document("the quick brown fox", "QUICK FOX", "d0"),
        Document("the lazy dog sleeps", "LAZY DOG SLEEP", "d1"),
        Document("a fox jumps over the dog", "FOX JUMP DOG", "d2"),
    ])


class TestBm25:
    def test_absent_term_contributes_zero(self):
        corpus = three_doc_corpus()
        assert bm25_score(["zebra"], corpus, 0) == 0.0

    def test_two_doc_hand_computed(self):
        # equal-length docs: |d| = avgdl, df=1, tf=1 -> score = IDF = ln 2
        corpus = Corpus([
            Document("alpha beta gamma delta", "", "a"),
            Document("omega psi chi phi", "", "b"),
        ])
        got = bm25_score(["alpha"], corpus, 0)
        assert got == pytest.approx(math.log(2.0), abs=1e-9)

    def test_tf_monotone_with_diminishing_increments(self):
        docs = [Document(" ".join(["fox"] * n + ["pad"] * (12 - n)), "", str(n)) for n in range(1, 7)]
        docs.append(Document("nothing relevant here at all pad pad pad pad pad pad pad", "", "z"))
        corpus = Corpus(docs)
        scores = [bm25_score(["fox"], corpus, i) for i in range(6)]
        diffs = np.diff(scores)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)


class TestMinMax:
    def test_maps_to_unit_interval(self):
        out = min_max_normalize(np.array([3.0, 7.0, 5.0]))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_degenerate_pool_maps_to_one(self):
        out = min_max_normalize(np.array([4.0, 4.0]))
        assert np.all(out == 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        assert np.allclose(min_max_normalize(3.7 * x + 2.0), min_max_normalize(x), atol=1e-12)


class TestRetrieve:
    def test_exact_duplicate_ranked_first(self):
        corpus = three_doc_corpus()
        result = retrieve("the lazy dog sleeps", corpus)
        assert result.candidates[0].document.doc_id == "d1"

    def test_single_candidate_degenerate(self):
        corpus = Corpus([Document("only one document", "GLOSS", "solo")])
        result = retrieve("only one", corpus)
        assert result.candidates[0].s_first == pytest.approx(1.0)
        assert "fewer-than-k" in result.flags

    def test_duplicates_collapse(self):
        docs = [
            Document("I like tea", "LIKE TEA", "a"),
            Document("i like tea", "LIKE TEA", "b"),
            Document("I like tea!", "LIKE TEA", "c"),
            Document("we drink coffee", "DRINK COFFEE", "d"),
        ]
        result = retrieve("like tea", Corpus(docs))
        keys = [normalize_english(c.document.english) for c in result.candidates]
        assert len(keys) == len(set(keys))
        assert len(result.candidates) == 2

    def test_fused_ranking_invariant_to_affine_sparse_rescale(self):
        corpus = three_doc_corpus()

        class ScaledSparse:
            def __init__(self, a, b):
                self.a, self.b = a, b
                self.inner = TrigramSparseScorer()

            def score(self, query, corpus):
                return self.a * self.inner.score(query, corpus) + self.b

        base = retrieve("fox and dog", corpus, sparse=ScaledSparse(1.0, 0.0))
        scaled = retrieve("fox and dog", corpus, sparse=ScaledSparse(25.0, -3.0))
        assert [c.document.doc_id for c in base.candidates] == [c.document.doc_id for c in scaled.candidates]
        for x, y in zip(base.candidates, scaled.candidates):
            assert x.s_final == pytest.approx(y.s_final, abs=1e-12)

    def test_s_final_combination(self):
        corpus = three_doc_corpus()
        result = retrieve("fox", corpus)
        for cand in result.candidates:
            assert cand.s_final == pytest.approx(0.85 * cand.s_rerank + 0.15 * cand.s_first, abs=1e-12)

    def test_sparse_scores_match_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        words = "the quick brown fox jumps over a lazy dog Dog's home #OK".split()
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 9)))) for _ in range(40)] + [""]
        corpus = Corpus([Document(t, t.upper(), f"d{i}") for i, t in enumerate(texts)])
        for query in ["the lazy fox", "", "HOME dog", texts[3]]:
            expected = [pairwise_trigram_cosine(query, t) for t in texts]
            assert TrigramSparseScorer().score(query, corpus).tolist() == expected

    def test_deterministic(self):
        corpus = three_doc_corpus()
        a = retrieve("dog jumps", corpus)
        b = retrieve("dog jumps", corpus)
        assert [c.document.doc_id for c in a.candidates] == [c.document.doc_id for c in b.candidates]


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        docs = three_doc_corpus().documents
        path = tmp_path / "memory.jsonl"
        save_corpus(path, docs)
        corpus = load_corpus(path)
        assert [d.doc_id for d in corpus.documents] == ["d0", "d1", "d2"]
        assert corpus.documents[1].gloss == "LAZY DOG SLEEP"

    @pytest.mark.parametrize("bad_line", ['{"gloss": "DOG", "id": "d9"}', '{"english": "a dog",',
                                          '["a dog", "DOG"]'],
                             ids=["no-english", "broken-json", "not-an-object"])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad_line):
        path = tmp_path / "memory.jsonl"
        save_corpus(path, three_doc_corpus().documents)
        path.write_text(path.read_text() + "\n" + bad_line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 5: ")):
            load_corpus(path)
