"""Deterministic DDIM refinement with per-step boundary recomposition."""
from __future__ import annotations

import numpy as np

from .masks import BoundaryMask
from .schedule import DiffusionSchedule


def ddim_refine(
    x_tilde: np.ndarray,
    mask: BoundaryMask,
    denoiser,
    schedule: DiffusionSchedule,
    steps: int = 50,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Refine the boundary region of duration-adjusted pairs laid end to end
    as `mask` lays them out (one pair or several).

    The reverse process starts from noise only inside the mask; unmasked frames
    stay pinned to x_tilde throughout and in the returned composition. Every
    update is row-wise, so packed pairs refine as they would one by one, up to
    the denoiser's rounding.

    The denoiser exposes sampler(cond, mask), as `Denoiser` does:
    predict(x_t, t), the clean-motion prediction of `mask.rows` for one run,
    so the run conditions the denoiser once and no step copies the unmasked
    frames. A denoiser that exposes only predict_x0(x_t, t, cond, mask), a
    prediction of every frame, is read at `mask.rows`.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    m = mask.values[:, None]
    if len(mask.values) != x_tilde.shape[0]:
        raise ValueError("mask length must match the pair length")
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = rng.standard_normal(x_tilde.shape)
    plan = schedule.respaced_steps(steps)

    x = m * noise + (1.0 - m) * x_tilde
    # temporal-context frames stay pinned to the duration-adjusted input
    x0_comp = x_tilde.copy()
    predict = (denoiser.sampler(x_tilde, mask) if hasattr(denoiser, "sampler") else
               lambda x_t, t: np.asarray(denoiser.predict_x0(x_t, t, x_tilde, mask), dtype=np.float64)[mask.rows])
    for i, t in enumerate(plan):
        x0_comp[mask.rows] = predict(x, t)
        ab_t = schedule.alpha_bar[t]
        eps = (x - np.sqrt(ab_t) * x0_comp) / np.sqrt(1.0 - ab_t)
        t_prev = plan[i + 1] if i + 1 < len(plan) else 0
        ab_prev = schedule.alpha_bar[t_prev]
        x = np.sqrt(ab_prev) * x0_comp + np.sqrt(1.0 - ab_prev) * eps
    return x0_comp


def linear_transition_baseline(a: np.ndarray, b: np.ndarray, transition_frames: int = 4) -> tuple[np.ndarray, int]:
    """Concatenation with linearly interpolated transition frames at the boundary.

    Returns the composed pair and the boundary index (the midpoint of the
    inserted transition).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if transition_frames < 0:
        raise ValueError("transition_frames must be >= 0")
    if transition_frames == 0:
        return np.concatenate([a, b], axis=0), a.shape[0]
    alphas = np.arange(1, transition_frames + 1) / (transition_frames + 1)
    trans = (1.0 - alphas)[:, None] * a[-1][None, :] + alphas[:, None] * b[0][None, :]
    out = np.concatenate([a, trans, b], axis=0)
    return out, a.shape[0] + transition_frames // 2
