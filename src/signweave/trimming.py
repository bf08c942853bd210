"""Energy-based trimming that isolates the core lexical articulation of a clip.

The trimming score is a quantile-normalized motion energy, optionally gated by
an arm-posture cue, scanned with a continuity-confirmed threshold criterion.
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
    tau_post_on: float = 0.6
    tau_post_off: float = 0.25
    n_consecutive: int = 3
    margin: int = 3
    t_min: int = 8
    b_min: int = 5
    sg_window: int = 7
    sg_order: int = 2
    q_lo: float = 0.05
    q_hi: float = 0.95

    def __post_init__(self):
        for name in ["theta_act", "tau_post_on", "tau_post_off", "q_lo", "q_hi"]:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.n_consecutive < 1 or self.margin < 0:
            raise ValueError("n_consecutive >= 1 and margin >= 0 required")


@dataclass
class PostureTrack:
    """Per-frame joint positions (meters) used for the arm-posture gate."""

    pelvis: np.ndarray
    neck: np.ndarray
    lshoulder: np.ndarray
    rshoulder: np.ndarray
    lwrist: np.ndarray
    rwrist: np.ndarray

    def __post_init__(self):
        t = self.pelvis.shape[0]
        for name in ["neck", "lshoulder", "rshoulder", "lwrist", "rwrist"]:
            arr = getattr(self, name)
            if arr.shape != (t, 3):
                raise ValueError(f"{name} must have shape ({t}, 3)")

    @property
    def num_frames(self) -> int:
        return self.pelvis.shape[0]

    def wrist_elevation(self) -> np.ndarray:
        """max over sides of (wrist_y - shoulder_y) / torso height, per frame."""
        h = np.maximum(np.abs(self.neck[:, 1] - self.pelvis[:, 1]), 1e-6)
        r_left = (self.lwrist[:, 1] - self.lshoulder[:, 1]) / h
        r_right = (self.rwrist[:, 1] - self.rshoulder[:, 1]) / h
        return np.maximum(r_left, r_right)


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


def normalize_and_gate(
    energy: np.ndarray,
    posture: PostureTrack | None,
    cfg: TrimConfig = TrimConfig(),
    direction: str = "on",
) -> tuple[np.ndarray, list[str]]:
    """Quantile-scaled energy in [0, 1] multiplied by the direction-specific posture gate."""
    if direction not in ("on", "off"):
        raise ValueError("direction must be 'on' or 'off'")
    flags: list[str] = []
    q_lo = np.quantile(energy, cfg.q_lo)
    q_hi = np.quantile(energy, cfg.q_hi)
    if q_hi <= q_lo:
        flags.append("degenerate-energy")
        scaled = np.zeros_like(energy)
    else:
        scaled = np.clip((energy - q_lo) / (q_hi - q_lo), 0.0, 1.0)
    if posture is not None:
        if posture.num_frames != energy.shape[0]:
            raise ValueError("posture track length must match energy length")
        tau = cfg.tau_post_on if direction == "on" else cfg.tau_post_off
        gate = (posture.wrist_elevation() >= tau).astype(np.float64)
        scaled = scaled * gate
    return scaled, flags


def _stable_runs(gated: np.ndarray, theta: float, n: int) -> np.ndarray:
    """Boolean array marking window starts t where gated[t : t+n] >= theta throughout."""
    above = gated >= theta
    t = len(gated)
    if t < n:
        return np.zeros(0, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(above, n)
    return windows.all(axis=1)


def detect_boundaries(
    e_on: np.ndarray,
    e_off: np.ndarray,
    cfg: TrimConfig = TrimConfig(),
) -> tuple[int, int, bool]:
    """Continuity-confirmed onset and offset indices.

    Onset is the end of the first n-frame run above threshold in the onset-gated
    curve; offset is the start of the last such run in the offset-gated curve.
    Returns (t_on, t_off, fallback) with the full range on fallback.
    """
    t = len(e_on)
    n = cfg.n_consecutive
    runs_on = _stable_runs(e_on, cfg.theta_act, n)
    runs_off = _stable_runs(e_off, cfg.theta_act, n)
    if not runs_on.any() or not runs_off.any():
        return 0, t - 1, True
    t_on = int(np.argmax(runs_on)) + n - 1
    t_off = int(len(runs_off) - 1 - np.argmax(runs_off[::-1]))
    return t_on, t_off, False


def trim(
    clip: GlossClip,
    posture: PostureTrack | None = None,
    cfg: TrimConfig = TrimConfig(),
) -> TrimResult:
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
    e_on, f_on = normalize_and_gate(energy, posture, cfg, "on")
    e_off, f_off = normalize_and_gate(energy, posture, cfg, "off")
    flags.extend(sorted(set(f_on + f_off)))

    t_on, t_off, fb = detect_boundaries(e_on, e_off, cfg)
    if fb or t_off < t_on:
        flags.append("boundary-fallback")
        return TrimResult(0, t - 1, 0, t - 1, e_on, flags)

    t_start, t_end, margin_flags = apply_margins(t_on, t_off, t, cfg)
    flags.extend(margin_flags)
    if "span-too-short" in margin_flags:
        return TrimResult(0, t - 1, t_on, t_off, e_on, flags)
    return TrimResult(t_start, t_end, t_on, t_off, e_on, flags)


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
