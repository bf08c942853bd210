"""Masked part-weighted reconstruction and velocity losses (Smooth-L1)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neuralkit as nk
from ..neuralkit import Tensor
from ..motion import PartLayout

DENOM_EPS = 1e-8


@dataclass(frozen=True)
class LossConfig:
    omega_body: float = 1.0
    omega_face: float = 3.0
    omega_hand: float = 15.0
    lambda_vel: float = 0.5
    huber_beta: float = 1.0
    min_snr_gamma: float = 5.0

    def __post_init__(self):
        if min(self.omega_body, self.omega_face, self.omega_hand) <= 0:
            raise ValueError("part weights must be positive")

    def part_weights(self, layout: PartLayout) -> np.ndarray:
        return layout.part_weights(self.omega_body, self.omega_face, self.omega_hand)


def smooth_l1(u: Tensor | np.ndarray, beta: float = 1.0) -> Tensor:
    """Elementwise Huber: u^2 / (2 beta) inside |u| < beta, |u| - beta/2 outside."""
    u = nk.as_tensor(u)
    quad = (u**2) * (0.5 / beta)
    lin = u.abs() - 0.5 * beta
    return nk.where(np.abs(u.data) < beta, quad, lin)


def masked_recon_loss(
    x0_hat: Tensor | np.ndarray,
    x0: np.ndarray,
    mask: np.ndarray,
    part_weights: np.ndarray,
    beta: float = 1.0,
) -> Tensor:
    """Weighted mean of the Smooth-L1 error over the supervised frames.

    An all-zero mask yields 0 through the denominator guard.
    """
    x0_hat = nk.as_tensor(x0_hat)
    dtype = x0_hat.dtype
    mask = np.asarray(mask, dtype=np.float64)
    weights = mask[:, None] * np.asarray(part_weights, dtype=np.float64)[None, :]
    denom = max(float(weights.sum()), DENOM_EPS)
    err = smooth_l1(x0_hat - Tensor(np.asarray(x0, dtype=dtype)), beta)
    return (err * Tensor(weights.astype(dtype))).sum() * (1.0 / denom)


def velocity_loss(
    x0_hat: Tensor | np.ndarray,
    x0: np.ndarray,
    mask: np.ndarray,
    part_weights: np.ndarray,
    beta: float = 1.0,
) -> Tensor:
    """Smooth-L1 on first differences, masked to pairs of supervised frames."""
    x0_hat = nk.as_tensor(x0_hat)
    dtype = x0_hat.dtype
    x0 = np.asarray(x0, dtype=dtype)
    mask = np.asarray(mask, dtype=np.float64)
    diff_mask = mask[:-1] * mask[1:]
    d_hat = x0_hat[1:, :] - x0_hat[:-1, :]
    d_ref = np.diff(x0, axis=0)
    weights = diff_mask[:, None] * np.asarray(part_weights, dtype=np.float64)[None, :]
    denom = max(float(weights.sum()), DENOM_EPS)
    err = smooth_l1(d_hat - Tensor(d_ref), beta)
    return (err * Tensor(weights.astype(dtype))).sum() * (1.0 / denom)


def combined_loss(
    x0_hat: Tensor | np.ndarray,
    x0: np.ndarray,
    mask: np.ndarray,
    part_weights: np.ndarray,
    weight_t: float,
    cfg: LossConfig = LossConfig(),
) -> Tensor:
    """w(t) * (recon + lambda_vel * velocity); the training objective per sample."""
    recon = masked_recon_loss(x0_hat, x0, mask, part_weights, cfg.huber_beta)
    vel = velocity_loss(x0_hat, x0, mask, part_weights, cfg.huber_beta)
    return (recon + vel * cfg.lambda_vel) * weight_t


def packed_loss(
    x0_hat: Tensor,
    x0: np.ndarray,
    lengths: list[int],
    part_weights: np.ndarray,
    weights_t: list[float],
    cfg: LossConfig = LossConfig(),
) -> Tensor:
    """Mean over items of `combined_loss`, for items laid end to end whose
    frames are all supervised (mask 1), item i holding lengths[i] rows.

    Both terms are weighted sums over all rows at once: each row carries its
    item's w(t) over its item's denominator and the item count. A velocity
    pair that would span two items gets weight 0.
    """
    dtype = x0_hat.dtype
    lengths = np.asarray(lengths)
    part_weights = np.asarray(part_weights, dtype=np.float64)
    scale = np.asarray(weights_t, dtype=np.float64) / len(lengths)
    recon = scale / np.maximum(lengths * part_weights.sum(), DENOM_EPS)
    vel = scale * cfg.lambda_vel / np.maximum((lengths - 1) * part_weights.sum(), DENOM_EPS)
    row_w = np.repeat(recon, lengths)[:, None] * part_weights[None, :]
    pair_w = np.repeat(vel, lengths)[:-1]
    pair_w[np.cumsum(lengths)[:-1] - 1] = 0.0
    pair_w = pair_w[:, None] * part_weights[None, :]
    x0 = np.asarray(x0, dtype=dtype)
    err = smooth_l1(x0_hat - Tensor(x0), cfg.huber_beta)
    err_vel = smooth_l1(x0_hat[1:, :] - x0_hat[:-1, :] - Tensor(np.diff(x0, axis=0)), cfg.huber_beta)
    return (err * Tensor(row_w.astype(dtype))).sum() + (err_vel * Tensor(pair_w.astype(dtype))).sum()
