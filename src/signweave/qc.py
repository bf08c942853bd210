"""The duration quality-control rule and the dominant/non-dominant split."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import _BLOCK_ELEMENTS, _dtw_wavefront
from .motion import GlossClip


@dataclass(frozen=True)
class QcConfig:
    max_duration_seconds: float = 10.0


@dataclass
class QcResult:
    keep: bool
    reasons: list[str] = field(default_factory=list)


def qc_filters(clip: GlossClip, cfg: QcConfig = QcConfig()) -> QcResult:
    """Apply the duration rule: a clip longer than the limit is discarded whole."""
    if clip.motion.duration_seconds > cfg.max_duration_seconds:
        return QcResult(False, ["duration"])
    return QcResult(True)


# ---------------------------------------------------------------------------
# dominant / non-dominant split


def _feature_costs(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """cost[i, j] = Euclidean distance between feature frames, over sqrt(D)."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if query.ndim != 2 or reference.ndim != 2:
        raise ValueError("query and reference must be (T, D) feature frames")
    if query.shape[0] == 0:
        raise ValueError("empty query")
    if reference.shape[0] == 0:
        raise ValueError("empty reference")
    if query.shape[1] != reference.shape[1]:
        raise ValueError(f"feature dimensions differ: query {query.shape[1]}, "
                         f"reference {reference.shape[1]}")
    t_q, t_r, d = query.shape[0], reference.shape[0], query.shape[1]
    costs = np.empty((t_q, t_r))
    # a few query rows at a time; each row's squares are summed with one
    # contiguous last-axis reduce, as np.linalg.norm sums them, so the costs
    # keep their bits without a full (T_q, T_r, D) difference array
    step = max(_BLOCK_ELEMENTS // (t_r * d), 1)
    tile = np.empty((min(step, t_q), t_r, d))
    for lo in range(0, t_q, step):
        hi = min(lo + step, t_q)
        diff = tile[: hi - lo]
        np.subtract(query[lo:hi, None, :], reference[None, :, :], out=diff)
        diff *= diff
        np.add.reduce(diff, axis=-1, out=costs[lo:hi])
    np.sqrt(costs, out=costs)
    costs /= np.sqrt(d)
    return costs


def _subsequence_cost(cost: np.ndarray) -> float:
    [(path, total)] = _dtw_wavefront(cost[None], subsequence=True)
    return total / len(path)


def subsequence_dtw_distance(query: np.ndarray, reference: np.ndarray) -> float:
    """Path-normalized DTW cost of the query against its best subsegment of
    the reference (free start and end on the reference axis)."""
    return _subsequence_cost(_feature_costs(query, reference))


def pairwise_similarity(clips: list[np.ndarray]) -> np.ndarray:
    """Symmetric similarity: negative mean of the two directed subsequence costs.

    The frame distances are symmetric, so one cost matrix and its transpose
    serve both directions of a pair.
    """
    n = len(clips)
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            cost = _feature_costs(clips[i], clips[j])
            d = 0.5 * (_subsequence_cost(cost) + _subsequence_cost(cost.T))
            sim[i, j] = sim[j, i] = -d
    return sim


def dominant_split(clips: list[np.ndarray], k: int = 3, z_threshold: float = -1.5) -> list[bool]:
    """Label each clip of one gloss as dominant (True) or non-dominant.

    Per-clip KNN mean similarity under subsequence DTW; clips whose z-scored
    similarity falls below the threshold are non-dominant.
    """
    n = len(clips)
    if n == 0:
        return []
    if n == 1:
        return [True]
    sim = pairwise_similarity(clips)
    knn_means = []
    for i in range(n):
        others = np.delete(sim[i], i)
        top = np.sort(others)[::-1][: min(k, n - 1)]
        knn_means.append(top.mean())
    knn_means = np.asarray(knn_means)
    std = knn_means.std()
    if std < 1e-12:
        return [True] * n
    z = (knn_means - knn_means.mean()) / std
    return [bool(v >= z_threshold) for v in z]
