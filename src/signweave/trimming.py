"""Energy-based trimming that isolates the core lexical articulation of a clip.

The trimming score is a quantile-normalized motion energy, scanned with a
continuity-confirmed threshold criterion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .motion import GlossClip, MotionSequence, savgol_smooth, temporal_diff


@dataclass(frozen=True)
class TrimConfig:
    lambda_v: float = 1.0
    lambda_a: float = 0.5
    theta_act: float = 0.35
    n_consecutive: int = 3
    margin: int = 3
    t_min: int = 8
    b_min: int = 5
    sg_window: int = 7
    sg_order: int = 2
    q_lo: float = 0.05
    q_hi: float = 0.95

    def __post_init__(self):
        for name in ["theta_act", "q_lo", "q_hi"]:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.n_consecutive < 1 or self.margin < 0:
            raise ValueError("n_consecutive >= 1 and margin >= 0 required")


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
    return (cfg.lambda_v / d) * np.sum(d1**2, axis=1) + (cfg.lambda_a / d) * np.sum(d2**2, axis=1)


def normalize_energy(energy: np.ndarray, cfg: TrimConfig = TrimConfig()) -> tuple[np.ndarray, list[str]]:
    """Quantile-scaled energy in [0, 1]."""
    flags: list[str] = []
    q_lo = np.quantile(energy, cfg.q_lo)
    q_hi = np.quantile(energy, cfg.q_hi)
    if q_hi <= q_lo:
        flags.append("degenerate-energy")
        scaled = np.zeros_like(energy)
    else:
        scaled = np.clip((energy - q_lo) / (q_hi - q_lo), 0.0, 1.0)
    return scaled, flags


def _stable_runs(energy: np.ndarray, theta: float, n: int) -> np.ndarray:
    """Boolean array marking window starts t where energy[t : t+n] >= theta throughout."""
    above = energy >= theta
    t = len(energy)
    if t < n:
        return np.zeros(0, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(above, n)
    return windows.all(axis=1)


def detect_boundaries(energy: np.ndarray, cfg: TrimConfig = TrimConfig()) -> tuple[int, int, bool]:
    """Continuity-confirmed onset and offset indices.

    Onset is the end of the first n-frame run above threshold in the
    normalized energy; offset is the start of the last such run.
    Returns (t_on, t_off, fallback) with the full range on fallback.
    """
    t = len(energy)
    n = cfg.n_consecutive
    runs = _stable_runs(energy, cfg.theta_act, n)
    if not runs.any():
        return 0, t - 1, True
    t_on = int(np.argmax(runs)) + n - 1
    t_off = int(len(runs) - 1 - np.argmax(runs[::-1]))
    return t_on, t_off, False


def trim(clip: GlossClip, cfg: TrimConfig = TrimConfig()) -> TrimResult:
    """Estimate the retained articulation span of an isolated clip."""
    motion = clip.motion
    t = motion.num_frames
    flags: list[str] = []
    if cfg.sg_window <= t:
        smoothed = savgol_smooth(motion, cfg.sg_window, cfg.sg_order)
    else:
        smoothed = motion
        flags.append("smoothing-skipped")
    energy = motion_energy(smoothed, cfg)
    scaled, scale_flags = normalize_energy(energy, cfg)
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
