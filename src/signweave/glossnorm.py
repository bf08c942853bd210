"""Parser and normalizer for SignStream-style gloss sequences, plus pair filters."""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

KIND_LEXICAL = "lexical"
KIND_POINTER = "pointer"
KIND_POSSESSIVE = "possessive"
KIND_REFLEXIVE = "reflexive"
KIND_FINGERSPELL = "fingerspell"
KIND_LOAN = "loan"
KIND_NAME = "name"
KIND_CLASSIFIER = "classifier"
KIND_ANNOTATIVE = "annotative"
KIND_META = "meta"

CLASSIFIER_FAMILIES = ("DCL", "TCL", "PCL", "SCL", "BCL")
META_TOKENS = {"NEXT-TOPIC", "CURRENT-TOPIC"}
PERSON_CODES = ("1p", "2p", "3p", "loc", "honorific")

_INDEXED_RE = re.compile(
    r"^(?P<head>(IX|POSS|SELF)-(?:1p|2p|3p|loc|honorific))(?::(?P<locus>\S+))?$"
)


@dataclass(frozen=True)
class GlossToken:
    surface: str
    kind: str
    locus: str | None = None

    def base_surface(self) -> str:
        """Surface with any locus suffix stripped."""
        if self.locus is None:
            return self.surface
        return self.surface[: -(len(self.locus) + 1)]


def classify(surface: str) -> GlossToken:
    """Assign the token kind from the prefix grammar of the gloss conventions."""
    if surface in META_TOKENS:
        return GlossToken(surface, KIND_META)
    for family in CLASSIFIER_FAMILIES:
        if surface == family or (surface.startswith(family) and not surface[len(family)].isalnum()):
            return GlossToken(surface, KIND_CLASSIFIER)
    if surface.startswith("[") and surface.endswith("]"):
        return GlossToken(surface, KIND_ANNOTATIVE)
    if '"' in surface:
        return GlossToken(surface, KIND_ANNOTATIVE)
    if surface.startswith("ns-fs-") or surface.startswith("ns-"):
        return GlossToken(surface, KIND_NAME)
    if surface.startswith("fs-"):
        return GlossToken(surface, KIND_FINGERSPELL)
    if surface.startswith("#"):
        return GlossToken(surface, KIND_LOAN)
    m = _INDEXED_RE.match(surface)
    if m:
        kind = {"IX": KIND_POINTER, "POSS": KIND_POSSESSIVE, "SELF": KIND_REFLEXIVE}[m.group(2)]
        return GlossToken(surface, kind, m.group("locus"))
    return GlossToken(surface, KIND_LEXICAL)


def tokenize(line: str) -> list[GlossToken]:
    """Whitespace split followed by prefix classification; unknown forms are lexical."""
    return [classify(part) for part in line.split()]


def detokenize(tokens: list[GlossToken]) -> str:
    return " ".join(t.surface for t in tokens)


def normalize(tokens: list[GlossToken]) -> list[GlossToken]:
    """Drop annotative/classifier/meta tokens and strip locus suffixes.

    Grammatical markers (IX-*, POSS-*, SELF-*, fs-*, #*, ns-*, ns-fs-*) are
    retained; the result is idempotent under repeated application.
    """
    out = []
    for tok in tokens:
        if tok.kind in (KIND_ANNOTATIVE, KIND_CLASSIFIER, KIND_META):
            continue
        if tok.locus is not None:
            out.append(GlossToken(tok.base_surface(), tok.kind, None))
        else:
            out.append(tok)
    return out


def collapse_fingerspell(tokens: list[GlossToken]) -> list[GlossToken]:
    """Evaluation-mode normalization of fingerspelled forms into single tokens.

    ns-fs-P-A-R-I-S becomes PARIS and fs-X-Y becomes XY; other tokens pass
    through unchanged.
    """
    out = []
    for tok in tokens:
        surface = tok.surface
        if surface.startswith("ns-fs-"):
            out.append(GlossToken(surface[len("ns-fs-"):].replace("-", ""), KIND_LEXICAL))
        elif surface.startswith("fs-"):
            out.append(GlossToken(surface[len("fs-"):].replace("-", ""), KIND_LEXICAL))
        else:
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# pair filtering


@dataclass(frozen=True)
class FilterConfig:
    max_english_words: int = 20
    min_gloss_tokens: int = 3
    similarity_threshold: float = 0.05
    semantic_hook: Callable[[str, list[str]], bool] | None = None


@dataclass
class FilterReport:
    decision: str  # keep | discard
    reasons: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.decision == "discard" and not self.reasons:
            raise ValueError("discard decisions must carry reasons")


def _char_trigrams(text: str) -> Counter:
    padded = f" {text.lower()} "
    return Counter(padded[i : i + 3] for i in range(max(len(padded) - 2, 0)))


def trigram_tfidf_cosine(a: str, b: str) -> float:
    """Cosine of character-trigram TF-IDF vectors over the two-document corpus."""
    ta, tb = _char_trigrams(a), _char_trigrams(b)
    if not ta or not tb:
        return 0.0
    vocab = set(ta) | set(tb)
    # smooth idf over the pair treated as a two-document corpus
    idf = {}
    for term in vocab:
        df = (term in ta) + (term in tb)
        idf[term] = math.log(3.0 / (1.0 + df)) + 1.0
    va = {t: ta[t] * idf[t] for t in ta}
    vb = {t: tb[t] * idf[t] for t in tb}
    dot = sum(va[t] * vb[t] for t in va if t in vb)
    na = math.sqrt(sum(v * v for v in va.values()))
    nb = math.sqrt(sum(v * v for v in vb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def filter_pair(english: str, gloss: list[GlossToken], cfg: FilterConfig = FilterConfig()) -> FilterReport:
    """Heuristic filters for noisy English-gloss pairs (gloss already normalized)."""
    reasons = []
    if not gloss:
        reasons.append("empty")
    else:
        n_words = len(english.split())
        if n_words > cfg.max_english_words and len(gloss) <= cfg.min_gloss_tokens:
            reasons.append("length-ratio")
        gloss_text = detokenize(gloss)
        if trigram_tfidf_cosine(english, gloss_text) < cfg.similarity_threshold:
            reasons.append("similarity")
        if cfg.semantic_hook is not None:
            if not cfg.semantic_hook(english, [t.surface for t in gloss]):
                reasons.append("external")
    if reasons:
        return FilterReport("discard", reasons)
    return FilterReport("keep")


def normalize_line(line: str) -> str:
    """Convenience wrapper for the line-oriented text interface."""
    return detokenize(normalize(tokenize(line)))
