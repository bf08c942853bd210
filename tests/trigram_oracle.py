"""The per-pair character-trigram TF-IDF cosine as first written: both
trigram counts and the pair's idf table rebuilt for every call."""
from __future__ import annotations

import math
from collections import Counter


def pairwise_trigram_cosine(a: str, b: str) -> float:
    def trigrams(text: str) -> Counter:
        padded = f" {text.lower()} "
        return Counter(padded[i : i + 3] for i in range(max(len(padded) - 2, 0)))

    ta, tb = trigrams(a), trigrams(b)
    if not ta or not tb:
        return 0.0
    idf = {}
    for term in set(ta) | set(tb):
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
