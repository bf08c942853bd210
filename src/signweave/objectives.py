"""Loss kernels: anatomy-factorized conditional flow matching, positive-weighted
boundary BCE with rate calibration, and the CTC forward loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neuralkit as nk
from .neuralkit import Tensor

PART_NAMES = ("body", "face", "hand")


@dataclass
class BoundaryTargets:
    y_sent: np.ndarray  # (L,) binary
    y_turn: np.ndarray  # (L,) binary
    valid: np.ndarray   # (L,) bool

    def __post_init__(self):
        self.y_sent = np.asarray(self.y_sent, dtype=np.float64)
        self.y_turn = np.asarray(self.y_turn, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if not (self.y_sent.shape == self.y_turn.shape == self.valid.shape):
            raise ValueError("target arrays must share shape")
        if not self.valid.any():
            raise ValueError("no valid blocks")


def fm_loss(
    v_pred: dict[str, Tensor | np.ndarray],
    x0: dict[str, np.ndarray],
    x1: dict[str, np.ndarray],
    lambda_hand: float = 1.0,
) -> tuple[Tensor, dict[str, Tensor]]:
    """Component-wise flow matching: mean squared error of the predicted
    velocity against x1 - x0, combined as body + face + lambda_hand * hand."""
    components = {}
    for name in PART_NAMES:
        if name not in v_pred:
            raise ValueError(f"missing component {name}")
        pred = nk.as_tensor(v_pred[name])
        target = np.asarray(x1[name]) - np.asarray(x0[name])
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch for {name}: {pred.shape} vs {target.shape}")
        components[name] = ((pred - Tensor(target)) ** 2).mean()
    total = components["body"] + components["face"] + components["hand"] * lambda_hand
    return total, components


def boundary_loss(
    logits_sent: Tensor | np.ndarray,
    logits_turn: Tensor | np.ndarray,
    targets: BoundaryTargets,
    alpha_sent: float = 20.0,
    alpha_turn: float = 12.0,
    lambda_rate: float = 0.05,
) -> Tensor:
    """Positive-weighted BCE over valid blocks plus the boundary-rate
    calibration term on mean predicted vs target frequencies."""
    z_sent = nk.as_tensor(logits_sent)
    z_turn = nk.as_tensor(logits_turn)
    valid = targets.valid
    n_valid = float(valid.sum())

    def weighted_bce(z: Tensor, y: np.ndarray, alpha: float) -> Tensor:
        log_p = -((-z).softplus())
        log_1mp = -(z.softplus())
        term = Tensor(alpha * y) * log_p + Tensor(1.0 - y) * log_1mp
        kept = nk.where(valid, term, Tensor(np.zeros(valid.shape)))
        return -(kept.sum() * (1.0 / n_valid))

    bce = weighted_bce(z_sent, targets.y_sent, alpha_sent) + weighted_bce(z_turn, targets.y_turn, alpha_turn)

    def mean_prob(z: Tensor) -> Tensor:
        p = z.sigmoid()
        kept = nk.where(valid, p, Tensor(np.zeros(valid.shape)))
        return kept.sum() * (1.0 / n_valid)

    y_bar_sent = float(targets.y_sent[valid].mean())
    y_bar_turn = float(targets.y_turn[valid].mean())
    rate = (mean_prob(z_sent) - y_bar_sent) ** 2 + (mean_prob(z_turn) - y_bar_turn) ** 2
    return bce + rate * lambda_rate


# ---------------------------------------------------------------------------
# CTC


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def min_ctc_length(target: list[int]) -> int:
    """Shortest frame count that can emit the target under CTC collapsing."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(logprobs: np.ndarray, target: list[int], blank: int | None = None) -> float:
    """Negative log probability of the target under the CTC forward algorithm.

    logprobs has shape (L, V+1) with the blank as the last column by default.
    Returns +inf when L is too short to emit the target.
    """
    logprobs = np.asarray(logprobs, dtype=np.float64)
    length, n_classes = logprobs.shape
    blank = n_classes - 1 if blank is None else blank
    target = list(target)
    for g in target:
        if not 0 <= g < n_classes or g == blank:
            raise ValueError(f"invalid target symbol {g}")
    if length < min_ctc_length(target):
        return math.inf
    if not target:
        return float(-logprobs[:, blank].sum())

    expanded = [blank]
    for g in target:
        expanded.extend([g, blank])
    s_len = len(expanded)
    alpha = np.full(s_len, -np.inf)
    alpha[0] = logprobs[0, blank]
    alpha[1] = logprobs[0, expanded[1]]
    for t in range(1, length):
        prev = alpha
        alpha = np.full(s_len, -np.inf)
        for s in range(s_len):
            options = [prev[s]]
            if s >= 1:
                options.append(prev[s - 1])
            if s >= 2 and expanded[s] != blank and expanded[s] != expanded[s - 2]:
                options.append(prev[s - 2])
            best = _logsumexp(options)
            if best > -math.inf:
                alpha[s] = best + logprobs[t, expanded[s]]
    return float(-_logsumexp([alpha[s_len - 1], alpha[s_len - 2]]))
