"""Alignment and quality metrics: DTW errors, Procrustes variants, length
ratio, Frechet gesture distance, and ranking metrics."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .motion import PartLayout


# ---------------------------------------------------------------------------
# DTW alignment

# path steps as (di, dj): up advances a only, left advances b only
_UP, _DIAG, _LEFT = (1, 0), (1, 1), (0, 1)

# float64 elements of one (J, rows, T_b) tile of per-point distances: a few
# hundred KB, so a tile and the planes summed from it stay in the L2 cache
_BLOCK_ELEMENTS = 1 << 15


def _dtw_wavefront(costs: np.ndarray, subsequence: bool = False) -> list[tuple[np.ndarray, float]]:
    """Least accumulated cost path through each (T_a, T_b) matrix of an
    (S, T_a, T_b) stack.

    The dynamic program (Sakoe & Chiba 1978) advances one anti-diagonal
    i + j = k at a time: every cell of a diagonal depends only on the two
    diagonals before it, so each step is three array operations, taken for
    all S matrices at once.

    Plain mode aligns (0, 0) to (T_a - 1, T_b - 1) and breaks ties diagonal,
    then up, then left. Subsequence mode leaves start and end free on the b
    axis, breaks ties up, then diagonal, then left, and ends at the first
    column of least cost. Returns, per matrix, the path as an (n, 2) array of
    (i, j) and the cost accumulated along it.

    Plain mode puts the shorter sequence on the row axis, which sizes the
    accumulated costs: it aligns the transposed matrices with up and left
    swapped in the tie order, so each cell sums and picks as it would
    unswapped, and swaps the paths' columns back.
    """
    if not subsequence and costs.shape[1] > costs.shape[2]:
        found = _dtw_wavefront_rows(costs.transpose(0, 2, 1), (_DIAG, _LEFT, _UP), False)
        return [(path[:, ::-1].copy(), total) for path, total in found]
    return _dtw_wavefront_rows(costs, (_UP, _DIAG, _LEFT) if subsequence else (_DIAG, _UP, _LEFT), subsequence)


def _dtw_wavefront_rows(costs: np.ndarray, order, subsequence: bool) -> list[tuple[np.ndarray, float]]:
    """`_dtw_wavefront` with the matrices as given and ties broken in `order`."""
    n_sub, t_a, t_b = costs.shape
    n_diag = t_a + t_b - 1
    # a skewed layout with one row per diagonal and the matrices last: cell
    # (i, j) of matrix s is acc[i + j + 2, i + 1, s], so the cell one step
    # (di, dj) back is di + dj rows up and di columns left. The first two rows
    # and the first column are the virtual cells just outside the grid,
    # infinite unless a path may start there. Each grid cell holds its cost
    # until its diagonal's turn, then its accumulated cost.
    acc = np.full((n_diag + 2, t_a + 1, n_sub), np.inf)
    if subsequence:
        acc[:, 0] = 0.0   # the row before i = 0, at every j
    else:
        acc[0, 0] = 0.0   # the cell before (0, 0)
    for i in range(t_a):
        acc[i + 2 : i + t_b + 2, i + 1] = costs[:, i].T
    best = np.empty((t_a, n_sub))
    (i0, j0), (i1, j1), (i2, j2) = order
    for k in range(n_diag):
        lo, hi = max(0, k - t_b + 1), min(k, t_a - 1) + 1
        low = best[: hi - lo]
        np.minimum(acc[k + 2 - i0 - j0, lo + 1 - i0 : hi + 1 - i0],
                   acc[k + 2 - i1 - j1, lo + 1 - i1 : hi + 1 - i1], out=low)
        np.minimum(low, acc[k + 2 - i2 - j2, lo + 1 - i2 : hi + 1 - i2], out=low)
        cells = acc[k + 2, lo + 1 : hi + 1]
        np.add(low, cells, out=cells)
    ends = acc[t_a + 1 : n_diag + 2, t_a].argmin(axis=0) if subsequence else [t_b - 1] * n_sub
    cell = memoryview(acc)  # reads one cell as a Python float, cheaper than numpy indexing
    out = []
    for s, end in enumerate(ends):
        i, j = t_a - 1, int(end)
        total = cell[i + j + 2, i + 1, s]
        path = []
        while i >= 0 and j >= 0:
            path.append((i, j))
            # the step the forward pass took: the first least predecessor in
            # tie order, read back from the stored accumulated costs
            k, c = i + j + 2, i + 1
            v0 = cell[k - i0 - j0, c - i0, s]
            v1 = cell[k - i1 - j1, c - i1, s]
            v2 = cell[k - i2 - j2, c - i2, s]
            di, dj = order[0] if v0 <= v1 and v0 <= v2 else order[1] if v1 <= v2 else order[2]
            i, j = i - di, j - dj
        out.append((np.array(path[::-1], dtype=np.intp), total))
    return out


def _point_sequences(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[1:] != b.shape[1:]:
        raise ValueError("inputs must be (T, J, 3) with matching point counts")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty sequences")
    return a, b


def _subset_costs(a: np.ndarray, b: np.ndarray, subsets) -> np.ndarray:
    """frame_cost_matrix restricted to each point subset, as an (S, T_a, T_b)
    stack from one pass over the per-point distances.

    The pass takes a tile of a few rows of a at a time, with the point axis
    outermost: a subset's cost is the sum of its per-point distance planes in
    index order, over its size.
    """
    t_a, t_b, n_points = a.shape[0], b.shape[0], a.shape[1]
    picks = [np.arange(n_points)[subset] for subset in subsets]
    at = np.ascontiguousarray(a.transpose(2, 1, 0))   # (3, J, T_a)
    bt = np.ascontiguousarray(b.transpose(2, 1, 0))   # (3, J, T_b)
    costs = np.empty((len(picks), t_a, t_b))
    step = max(_BLOCK_ELEMENTS // max(n_points * t_b, 1), 1)
    dist_tile = np.empty((n_points, min(step, t_a), t_b))
    diff_tile = np.empty_like(dist_tile)
    for lo in range(0, t_a, step):
        hi = min(lo + step, t_a)
        dist, diff = dist_tile[:, : hi - lo], diff_tile[:, : hi - lo]
        # squares summed coordinate by coordinate, in the order np.linalg.norm sums them
        np.subtract(at[0, :, lo:hi, None], bt[0, :, None, :], out=dist)
        dist *= dist
        for c in range(1, at.shape[0]):
            np.subtract(at[c, :, lo:hi, None], bt[c, :, None, :], out=diff)
            diff *= diff
            dist += diff
        np.sqrt(dist, out=dist)
        for cost, idx in zip(costs, picks):
            np.add.reduce(dist[idx], axis=0, out=cost[lo:hi])
    costs /= np.array([idx.size for idx in picks], dtype=np.float64)[:, None, None]
    return costs


def frame_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cost[i, j] = mean Euclidean distance over points between frames i and j.

    a, b have shape (T, J, 3).
    """
    return _subset_costs(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
                         [slice(None)])[0]


def dtw_alignments(a: np.ndarray, b: np.ndarray, subsets) -> list[tuple[np.ndarray, float]]:
    """DTW alignment of a to b on each point subset of the J axis.

    The per-point distances are computed once for all subsets, and the
    alignments advance together. Each entry is the path as an (n, 2) array of
    frame pairs and its accumulated cost, as `dtw_align` finds them.
    """
    a, b = _point_sequences(a, b)
    return _dtw_wavefront(_subset_costs(a, b, subsets))


def dtw_align(a: np.ndarray, b: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Optimal monotone alignment path under steps (1,0), (0,1), (1,1).

    Ties prefer the diagonal step. Returns the path from (0,0) to the final
    frame pair and the accumulated cost along it.
    """
    [(path, total)] = dtw_alignments(a, b, [slice(None)])
    return [(int(i), int(j)) for i, j in path], total


def procrustes_path_error(a: np.ndarray, b: np.ndarray, path: np.ndarray) -> float:
    """Mean per-point error along an alignment path after registering each
    frame pair (a[i], b[j]) with its own similarity transform."""
    p, q = a[path[:, 0]], b[path[:, 1]]
    rot, scale, trans, _ = procrustes_batch(p, q)
    aligned = scale[:, None, None] * (p @ rot.transpose(0, 2, 1)) + trans[:, None, :]
    return float(np.linalg.norm(aligned - q, axis=-1).mean(axis=-1).mean())


# ---------------------------------------------------------------------------
# Procrustes similarity registration


def procrustes_batch(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`procrustes` of each stacked pair of point sets p[n], q[n] of shape (J, d).

    Returns rotations (N, d, d), scales (N,), translations (N, d) and
    fallback flags (N,), from one stacked SVD (Umeyama 1991).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 3:
        raise ValueError("point sets must share shape (N, J, d)")
    n, d = p.shape[1], p.shape[2]
    mu_p = p.mean(axis=1)
    mu_q = q.mean(axis=1)
    pc = p - mu_p[:, None, :]
    qc = q - mu_q[:, None, :]
    var_p = (pc**2).sum(axis=(1, 2)) / n
    cov = qc.transpose(0, 2, 1) @ pc / n
    u, sv, vt = np.linalg.svd(cov)
    # rank counted as np.linalg.matrix_rank counts it, from the same singular values
    rank = (sv > sv.max(axis=-1, keepdims=True) * d * np.finfo(np.float64).eps).sum(axis=-1)
    fallback = (var_p < 1e-18) | (rank < d - 1)
    sign = np.ones_like(sv)
    sign[np.linalg.det(u) * np.linalg.det(vt) < 0, -1] = -1.0
    rot = (u * sign[:, None, :]) @ vt
    scale = (sv * sign).sum(axis=-1) / np.where(fallback, 1.0, var_p)
    trans = mu_q - scale[:, None] * (rot @ mu_p[:, :, None])[:, :, 0]
    # rank-deficient point configurations fall back to translation only
    rot[fallback] = np.eye(d)
    scale[fallback] = 1.0
    trans[fallback] = (mu_q - mu_p)[fallback]
    return rot, scale, trans, fallback


def procrustes(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, bool]:
    """Similarity transform (R, s, t) minimizing sum ||s R p_j + t - q_j||^2.

    Returns (rotation, scale, translation, fallback). Rank-deficient point
    configurations fall back to translation only.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError("point sets must share shape (J, d)")
    rot, scale, trans, fallback = procrustes_batch(p[None], q[None])
    return rot[0], float(scale[0]), trans[0], bool(fallback[0])


# ---------------------------------------------------------------------------
# aggregate motion metrics


def length_ratio(pred_lengths: Sequence[float], gt_lengths: Sequence[float]) -> float:
    """Mean of per-sample pred/gt length ratios."""
    pred = np.asarray(pred_lengths, dtype=np.float64)
    gt = np.asarray(gt_lengths, dtype=np.float64)
    if pred.shape != gt.shape or pred.size == 0:
        raise ValueError("length lists must be paired and non-empty")
    if np.any(gt <= 0):
        raise ValueError("ground-truth lengths must be positive")
    return float((pred / gt).mean())


def _sym_matrix_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fgd(feats_a: np.ndarray, feats_b: np.ndarray, eps: float = 1e-6) -> float:
    """Frechet distance between Gaussian fits of two feature sets (N x F).

    Both sets are taken in C order, so the same numbers give the same bits
    whatever the memory layout they arrive in."""
    feats_a = np.ascontiguousarray(feats_a, dtype=np.float64)
    feats_b = np.ascontiguousarray(feats_b, dtype=np.float64)
    if feats_a.ndim != 2 or feats_b.ndim != 2 or feats_a.shape[1] != feats_b.shape[1]:
        raise ValueError("feature sets must be N x F with matching F")
    f = feats_a.shape[1]
    mu_a, mu_b = feats_a.mean(axis=0), feats_b.mean(axis=0)
    cov_a = np.cov(feats_a, rowvar=False).reshape(f, f) + eps * np.eye(f)
    cov_b = np.cov(feats_b, rowvar=False).reshape(f, f) + eps * np.eye(f)
    # tr((A B)^{1/2}) computed symmetrically as tr((A^{1/2} B A^{1/2})^{1/2})
    root_a = _sym_matrix_sqrt(cov_a)
    cross = _sym_matrix_sqrt(root_a @ cov_b @ root_a)
    dist = float(((mu_a - mu_b) ** 2).sum() + np.trace(cov_a + cov_b - 2.0 * cross))
    return max(dist, 0.0)


# ---------------------------------------------------------------------------
# ranking metrics


def reciprocal_rank(ranked_ids: Sequence[str], reference_id: str | None) -> float:
    if reference_id is None:
        return 0.0
    for rank, rid in enumerate(ranked_ids, start=1):
        if rid == reference_id:
            return 1.0 / rank
    return 0.0


def ranking_metrics(
    rank_lists: Sequence[Sequence[str]],
    references: Sequence[str | None],
    ks: Sequence[int] = (1, 5, 10),
) -> dict[str, float]:
    """MRR and Recall@k aggregated over queries; absent references score 0."""
    if len(rank_lists) != len(references):
        raise ValueError("one reference per ranked list required")
    n = len(rank_lists)
    if n == 0:
        raise ValueError("no queries")
    rrs = [reciprocal_rank(ranked, ref) for ranked, ref in zip(rank_lists, references)]
    out = {"mrr": float(np.mean(rrs))}
    for k in ks:
        hits = [1.0 if ref is not None and ref in list(ranked)[:k] else 0.0
                for ranked, ref in zip(rank_lists, references)]
        out[f"r@{k}"] = float(np.mean(hits))
    return out


# ---------------------------------------------------------------------------
# feature-to-points adapter


class SyntheticSkeletonAdapter:
    """Deterministic stand-in for forward kinematics in end-to-end tests.

    Body and hand parameter triples are read directly as pseudo-joint
    positions; expression coefficients map to face vertices through a fixed
    random linear basis (a stand-in for blendshapes).
    """

    def __init__(self, layout: PartLayout | None = None, face_vertices: int = 16, seed: int = 1234):
        self.layout = layout if layout is not None else PartLayout.base()
        rng = np.random.default_rng(seed)
        expr_dim = 50
        self._basis = rng.normal(0.0, 1.0 / np.sqrt(expr_dim), size=(face_vertices, 3, expr_dim))
        body_idx = self.layout.indices("body")
        hand_idx = np.concatenate([self.layout.indices("rhand"), self.layout.indices("lhand")])
        self._body_idx = body_idx
        self._hand_idx = hand_idx
        self._expr_idx = self.layout.indices("expression")
        self._jaw_idx = self.layout.indices("jaw")
        n_body = len(body_idx) // 3
        n_hand = len(hand_idx) // 3
        self.body_joints = np.arange(n_body)
        self.hand_joints = np.arange(n_body, n_body + n_hand)
        jaw_start = n_body + n_hand
        self.face_vertices = np.arange(jaw_start, jaw_start + 1 + face_vertices)
        self.num_points = jaw_start + 1 + face_vertices

    def to_points(self, frames: np.ndarray) -> np.ndarray:
        """(T, D) features -> (T, J, 3) pseudo-points."""
        frames = np.asarray(frames, dtype=np.float64)
        t = frames.shape[0]
        body = frames[:, self._body_idx].reshape(t, -1, 3)
        hands = frames[:, self._hand_idx].reshape(t, -1, 3)
        jaw = frames[:, self._jaw_idx].reshape(t, 1, 3)
        expr = frames[:, self._expr_idx]
        face = np.einsum("vce,te->tvc", self._basis, expr)
        return np.concatenate([body, hands, jaw, face], axis=1)
