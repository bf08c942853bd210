"""Energy-based trimming that isolates the core lexical articulation of a clip.

The trimming score is a quantile-normalized motion energy, scanned with a
continuity-confirmed threshold criterion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .motion import GlossClip, MotionSequence, savgol_smooth, temporal_diff


LAMBDA_V = 1.0  # weight of the energy's velocity term (`TrimConfig.lambda_a` weighs acceleration)
N_CONSECUTIVE = 3  # frames a run stays above the threshold to confirm an onset or offset
SG_WINDOW, SG_ORDER = 7, 2  # Savitzky-Golay smoothing before the energy is taken
Q_LO, Q_HI = 0.05, 0.95  # energy quantiles that normalization maps to 0 and 1


@dataclass(frozen=True)
class TrimConfig:
    lambda_a: float = 0.5
    theta_act: float = 0.35
    margin: int = 3
    t_min: int = 8
    b_min: int = 5

    def __post_init__(self):
        if not 0.0 <= self.theta_act <= 1.0:
            raise ValueError(f"trim.theta_act must lie in [0, 1], got {self.theta_act}")
        if self.margin < 0:
            raise ValueError(f"trim.margin must be at least 0, got {self.margin}")


@dataclass
class TrimResult:
    t_start: int
    t_end: int
    t_on: int
    t_off: int
    energy: np.ndarray
    flags: list[str] = field(default_factory=list)

    @property
    def span(self) -> tuple[int, int]:
        return self.t_start, self.t_end


def motion_energy(x: MotionSequence, cfg: TrimConfig = TrimConfig()) -> np.ndarray:
    """Raw per-frame energy from first- and second-order differences.

    Callers should smooth the sequence first (see savgol_smooth).
    """
    d = x.dim
    d1 = temporal_diff(x.frames, 1)
    d2 = temporal_diff(x.frames, 2)
    return (LAMBDA_V / d) * np.sum(d1**2, axis=1) + (cfg.lambda_a / d) * np.sum(d2**2, axis=1)


def normalize_energy(energy: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Quantile-scaled energy in [0, 1]."""
    flags: list[str] = []
    q_lo = np.quantile(energy, Q_LO)
    q_hi = np.quantile(energy, Q_HI)
    if q_hi <= q_lo:
        flags.append("degenerate-energy")
        scaled = np.zeros_like(energy)
    else:
        scaled = np.clip((energy - q_lo) / (q_hi - q_lo), 0.0, 1.0)
    return scaled, flags


def detect_boundaries(energy: np.ndarray, cfg: TrimConfig = TrimConfig()) -> tuple[int, int, bool]:
    """Continuity-confirmed onset and offset indices.

    Onset is the end of the first N_CONSECUTIVE-frame run above threshold in
    the normalized energy; offset is the start of the last such run.
    Returns (t_on, t_off, fallback) with the full range on fallback.
    """
    t = len(energy)
    if t < N_CONSECUTIVE:
        return 0, t - 1, True
    # runs[s]: frames s to s + N_CONSECUTIVE - 1 all lie at or above the threshold
    runs = np.lib.stride_tricks.sliding_window_view(energy >= cfg.theta_act, N_CONSECUTIVE).all(axis=1)
    if not runs.any():
        return 0, t - 1, True
    t_on = int(np.argmax(runs)) + N_CONSECUTIVE - 1
    t_off = int(len(runs) - 1 - np.argmax(runs[::-1]))
    return t_on, t_off, False


def trim(clip: GlossClip, cfg: TrimConfig = TrimConfig()) -> TrimResult:
    """Estimate the retained articulation span of an isolated clip."""
    motion = clip.motion
    t = motion.num_frames
    flags: list[str] = []
    if SG_WINDOW <= t:
        smoothed = savgol_smooth(motion, SG_WINDOW, SG_ORDER)
    else:
        smoothed = motion
        flags.append("smoothing-skipped")
    energy = motion_energy(smoothed, cfg)
    scaled, scale_flags = normalize_energy(energy)
    flags.extend(scale_flags)

    t_on, t_off, fb = detect_boundaries(scaled, cfg)
    if fb or t_off < t_on:
        flags.append("boundary-fallback")
        return TrimResult(0, t - 1, 0, t - 1, scaled, flags)

    t_start, t_end, margin_flags = apply_margins(t_on, t_off, t, cfg)
    flags.extend(margin_flags)
    if "span-too-short" in margin_flags:
        return TrimResult(0, t - 1, t_on, t_off, scaled, flags)
    return TrimResult(t_start, t_end, t_on, t_off, scaled, flags)


def apply_margins(t_on: int, t_off: int, t: int, cfg: TrimConfig = TrimConfig()) -> tuple[int, int, list[str]]:
    """Widen the detected span by the margin and apply the minimum-length rules.

    Lead-in and lead-out regions are removed only when longer than b_min
    frames; spans shorter than t_min fall back to the full range.
    """
    flags: list[str] = []
    t_start = max(0, t_on - cfg.margin)
    t_end = min(t - 1, t_off + cfg.margin)
    if t_start <= cfg.b_min:
        t_start = 0
    if (t - 1 - t_end) <= cfg.b_min:
        t_end = t - 1
    if t_end - t_start + 1 < cfg.t_min:
        flags.append("span-too-short")
        return 0, t - 1, flags
    return t_start, t_end, flags
