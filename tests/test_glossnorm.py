from __future__ import annotations

import numpy as np
import pytest

from trigram_oracle import pairwise_trigram_cosine
from signweave.glossnorm import (
    FilterReport,
    GlossToken,
    KIND_ANNOTATIVE,
    KIND_CLASSIFIER,
    KIND_FINGERSPELL,
    KIND_LEXICAL,
    KIND_LOAN,
    KIND_META,
    KIND_NAME,
    KIND_POINTER,
    KIND_POSSESSIVE,
    KIND_REFLEXIVE,
    collapse_fingerspell,
    detokenize,
    filter_pair,
    normalize,
    normalize_line,
    tokenize,
    trigram_tfidf_cosine,
)

CONVENTION_EXAMPLES = [
    ("THANK-YOU", KIND_LEXICAL),
    ("fs-J-O-H-N", KIND_FINGERSPELL),
    ("#-E-A-R-L-Y", KIND_LOAN),
    ("ns-P-A-R-I-S", KIND_NAME),
    ("ns-fs-P-A-R-I-S", KIND_NAME),
    ("IX-1p", KIND_POINTER),
    ("IX-2p", KIND_POINTER),
    ("IX-3p", KIND_POINTER),
    ("POSS-1p", KIND_POSSESSIVE),
    ("POSS-2p", KIND_POSSESSIVE),
    ("POSS-3p", KIND_POSSESSIVE),
    ("SELF-1p", KIND_REFLEXIVE),
    ("SELF-2p", KIND_REFLEXIVE),
    ("SELF-3p", KIND_REFLEXIVE),
]


class TestTokenize:
    @pytest.mark.parametrize("surface,kind", CONVENTION_EXAMPLES)
    def test_convention_table(self, surface, kind):
        tokens = tokenize(surface)
        assert len(tokens) == 1
        assert tokens[0].kind == kind

    def test_locus_suffix(self):
        tok = tokenize("IX-3p:i")[0]
        assert tok.kind == KIND_POINTER
        assert tok.locus == "i"
        assert tok.base_surface() == "IX-3p"

    def test_loc_person_code(self):
        tok = tokenize("IX-loc:j")[0]
        assert tok.kind == KIND_POINTER
        assert tok.base_surface() == "IX-loc"

    def test_honorific(self):
        assert tokenize("IX-honorific")[0].kind == KIND_POINTER

    def test_classifier_variants(self):
        for surface in ['DCL"crawl up"', "TCL", "PCL:5", "SCL-thin", "BCL"]:
            assert tokenize(surface)[0].kind == KIND_CLASSIFIER, surface

    def test_annotative_forms(self):
        assert tokenize('5"wow"')[0].kind == KIND_ANNOTATIVE
        assert tokenize("[false-start]")[0].kind == KIND_ANNOTATIVE

    def test_meta(self):
        assert tokenize("NEXT-TOPIC")[0].kind == KIND_META
        assert tokenize("CURRENT-TOPIC")[0].kind == KIND_META

    def test_unknown_is_lexical(self):
        assert tokenize("BOOK")[0].kind == KIND_LEXICAL
        assert tokenize("IX-weird")[0].kind == KIND_LEXICAL

    def test_round_trip(self):
        line = "IX-3p:i TEND CHAT WITH fs-J-O-H-N #-E-A-R-L-Y ns-P-A-R-I-S"
        assert detokenize(tokenize(line)) == line


class TestNormalize:
    def test_drops_and_strips(self):
        tokens = tokenize('IX-3p:i DCL"crawl" BOOK')
        out = normalize(tokens)
        assert [t.surface for t in out] == ["IX-3p", "BOOK"]

    def test_meta_dropped(self):
        assert normalize(tokenize("NEXT-TOPIC")) == []

    def test_idempotent(self):
        tokens = tokenize('IX-3p:i POSS-1p:k 5"wow" [onset] SELF-2p BCL BOOK fs-A-B')
        once = normalize(tokens)
        twice = normalize(once)
        assert once == twice

    def test_idempotent_fuzzed(self):
        rng = np.random.default_rng(0)
        pools = [
            "BOOK", "HOUSE", "IX-1p", "IX-3p:i", "IX-loc:j", "POSS-3p:i", "SELF-2p",
            "fs-J-O-H-N", "#-E-A-R-L-Y", "ns-P-A-R-I-S", "ns-fs-P-A-R-I-S",
            'DCL"crawl"', "TCL:3", "[false-start]", '5"wow"', "NEXT-TOPIC", "CURRENT-TOPIC",
        ]
        for _ in range(1000):
            n = rng.integers(0, 12)
            line = " ".join(rng.choice(pools, size=n))
            once = normalize(tokenize(line))
            assert normalize(once) == once

    def test_never_introduces_tokens(self):
        tokens = tokenize("IX-3p:i BOOK TCL NEXT-TOPIC fs-A")
        out = normalize(tokens)
        assert len(out) <= len(tokens)
        retained = {t.base_surface() for t in tokens}
        assert all(t.surface in retained for t in out)


class TestCollapse:
    def test_name_fingerspell(self):
        out = collapse_fingerspell(tokenize("ns-fs-P-A-R-I-S"))
        assert out[0].surface == "PARIS"

    def test_short_fingerspell(self):
        assert collapse_fingerspell(tokenize("fs-A"))[0].surface == "A"
        assert collapse_fingerspell(tokenize("fs-X-Y"))[0].surface == "XY"

    def test_lexical_unchanged(self):
        tokens = tokenize("BOOK IX-3p")
        assert collapse_fingerspell(tokens) == tokens


class TestFilterPair:
    def test_empty_gloss(self):
        report = filter_pair("hello world", [])
        assert report.decision == "discard"
        assert report.reasons == ["empty"]

    def test_length_ratio_rule(self):
        english = " ".join(["word"] * 25)
        gloss = tokenize("BOOK HOUSE")
        report = filter_pair(english, gloss)
        assert report.decision == "discard"
        assert "length-ratio" in report.reasons

    def test_identical_strings_keep(self):
        text = "MOTHER STILL WORK"
        report = filter_pair(text, tokenize(text))
        assert report.decision == "keep"
        assert trigram_tfidf_cosine(text, text) == pytest.approx(1.0, abs=1e-12)

    def test_trigram_cosine_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        alphabet = list("abcdeHOUSE -#'")
        texts = ["", " ", "A", "ab", "MOTHER STILL WORK", "mother still work"]
        texts += ["".join(rng.choice(alphabet, size=int(rng.integers(1, 30)))) for _ in range(40)]
        for a in texts:
            for b in texts[::3]:
                assert trigram_tfidf_cosine(a, b) == pairwise_trigram_cosine(a, b)

    def test_dissimilar_strings_flagged(self):
        report = filter_pair("zzzz qqqq xxxx", tokenize("ABABA KKKKK"))
        assert report.decision == "discard"
        assert "similarity" in report.reasons

    def test_discard_requires_reasons(self):
        with pytest.raises(ValueError):
            FilterReport("discard", [])


class TestLineInterface:
    def test_normalize_line(self):
        assert normalize_line('IX-3p:i DCL"x" BOOK NEXT-TOPIC') == "IX-3p BOOK"
