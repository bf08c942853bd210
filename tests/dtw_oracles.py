"""Cell-by-cell reference implementations of the DTW and Procrustes metrics.

These are the loops the vectorized kernels in `signweave.metrics` and
`signweave.qc` replaced. Tests compare the kernels against them: paths and
accumulated costs must agree exactly, Procrustes errors to 1e-12.
"""
from __future__ import annotations

import numpy as np


def loop_dtw(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Plain DTW from (0, 0) to the last cell; ties prefer diagonal, up, left."""
    t_a, t_b = cost.shape
    acc = np.full((t_a + 1, t_b + 1), np.inf)
    acc[0, 0] = 0.0
    move = np.zeros((t_a, t_b), dtype=np.int8)  # 0 diag, 1 up (i-1), 2 left (j-1)
    for i in range(t_a):
        for j in range(t_b):
            options = (acc[i, j], acc[i, j + 1], acc[i + 1, j])
            best = int(np.argmin(options))  # argmin returns the first minimum: diagonal wins ties
            acc[i + 1, j + 1] = options[best] + cost[i, j]
            move[i, j] = best
    path = []
    i, j = t_a - 1, t_b - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        m = move[i, j]
        if m == 0:
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
        if i < 0 or j < 0:
            raise RuntimeError("traceback left the grid")
    path.reverse()
    return path, float(acc[t_a, t_b])


def loop_subsequence(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Subsequence DTW, free start and end on the second axis; ties prefer
    up, diagonal, left. Returns the path and its accumulated cost; the
    distance is the cost over the path length."""
    t_q, t_r = cost.shape
    acc = np.full((t_q, t_r), np.inf)
    steps = np.zeros((t_q, t_r), dtype=np.int32)
    back = np.zeros((t_q, t_r), dtype=np.int8)  # 0 up, 1 diag, 2 left
    acc[0, :] = cost[0, :]
    steps[0, :] = 1
    for i in range(1, t_q):
        for j in range(t_r):
            options = [(acc[i - 1, j], steps[i - 1, j], 0)]
            if j > 0:
                options.append((acc[i - 1, j - 1], steps[i - 1, j - 1], 1))
                options.append((acc[i, j - 1], steps[i, j - 1], 2))
            best_cost, best_steps, best_move = min(options, key=lambda o: o[0])
            acc[i, j] = best_cost + cost[i, j]
            steps[i, j] = best_steps + 1
            back[i, j] = best_move
    end = int(np.argmin(acc[-1]))
    path = []
    i, j = t_q - 1, end
    while True:
        path.append((i, j))
        if i == 0:
            break
        m = back[i, j]
        i, j = (i - 1, j) if m == 0 else (i - 1, j - 1) if m == 1 else (i, j - 1)
    path.reverse()
    assert len(path) == steps[-1, end]
    return path, float(acc[-1, end])


def full_feature_costs(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """QC's frame costs from one full (T_q, T_r, D) difference array."""
    d = query.shape[1]
    return np.linalg.norm(query[:, None, :] - reference[None, :, :], axis=-1) / np.sqrt(d)


def loop_subsequence_distance(query: np.ndarray, reference: np.ndarray) -> float:
    cost = full_feature_costs(query, reference)
    path, total = loop_subsequence(cost)
    return total / len(path)


def loop_procrustes(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, bool]:
    """Per-pair similarity registration with a separate matrix_rank check."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = p.shape[0]
    mu_p = p.mean(axis=0)
    mu_q = q.mean(axis=0)
    pc = p - mu_p
    qc = q - mu_q
    var_p = (pc**2).sum() / n
    cov = qc.T @ pc / n
    if var_p < 1e-18 or np.linalg.matrix_rank(cov) < p.shape[1] - 1:
        return np.eye(p.shape[1]), 1.0, mu_q - mu_p, True
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(p.shape[1])
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[-1] = -1.0
    rot = u @ np.diag(sign) @ vt
    scale = float((d * sign).sum() / var_p)
    trans = mu_q - scale * rot @ mu_p
    return rot, scale, trans, False


def loop_dtw_error(a: np.ndarray, b: np.ndarray, subset: np.ndarray,
                   procrustes_align: bool = False) -> float:
    """DTW error on a point subset: the plain error is the cost per path
    step, the aligned one the mean error after per-pair registration."""
    a = np.asarray(a, dtype=np.float64)[:, subset, :]
    b = np.asarray(b, dtype=np.float64)[:, subset, :]
    cost = np.linalg.norm(a[:, None, :, :] - b[None, :, :, :], axis=-1).mean(axis=-1)
    path, total = loop_dtw(cost)
    if not procrustes_align:
        return total / len(path)
    errs = []
    for i, j in path:
        rot, scale, trans, _ = loop_procrustes(a[i], b[j])
        aligned = scale * (a[i] @ rot.T) + trans
        errs.append(float(np.linalg.norm(aligned - b[j], axis=-1).mean()))
    return float(np.mean(errs))


def blocked_subset_costs(a: np.ndarray, b: np.ndarray, subsets, block_elements: int = 1 << 19
                         ) -> list[np.ndarray]:
    """The per-subset cost pass the tiled one replaced: (rows, T_b, J) blocks
    of per-point distances, each subset's cost their mean over its points.

    For index-array subsets numpy lays the gathered points out outermost, so
    the mean sums them in index order; the tiled pass must match it bit for
    bit wherever T_b >= 2.
    """
    t_a, t_b = a.shape[0], b.shape[0]
    costs = [np.empty((t_a, t_b)) for _ in subsets]
    step = max(block_elements // max(t_b * a.shape[1], 1), 1)
    for lo in range(0, t_a, step):
        sq = np.zeros((min(step, t_a - lo), t_b, a.shape[1]))
        for c in range(a.shape[2]):
            diff = a[lo : lo + step, None, :, c] - b[None, :, :, c]
            diff *= diff
            sq += diff
        dist = np.sqrt(sq)
        for cost, subset in zip(costs, subsets):
            cost[lo : lo + step] = dist[:, :, subset].mean(axis=-1)
    return costs
