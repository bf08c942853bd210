"""Canonical motion representation: part layout, sequences, resampling, smoothing.

All rotations are axis-angle in radians, expression coefficients are unitless,
and timing is fixed at 25 fps.
"""
from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

BASE_DIM = 206
DEFAULT_FPS = 25

MOTION_MAGIC = b"SVMX"
MOTION_VERSION = 1


@dataclass(frozen=True)
class PartLayout:
    """Index ranges (start, stop) of each anatomical part along the feature axis.

    Ranges must be disjoint, contiguous, and cover exactly ``dim``.
    """

    body: tuple[int, int]
    expression: tuple[int, int]
    jaw: tuple[int, int]
    rhand: tuple[int, int]
    lhand: tuple[int, int]

    def __post_init__(self):
        widths = {
            "body": 63,
            "expression": 50,
            "jaw": 3,
            "rhand": 45,
            "lhand": 45,
        }
        ranges = []
        for name, width in widths.items():
            rng = getattr(self, name)
            if rng[1] - rng[0] != width:
                raise ValueError(f"range for {name} must span {width} dims, got {rng}")
            ranges.append(rng)
        ranges.sort()
        pos = 0
        for start, stop in ranges:
            if start != pos:
                raise ValueError(f"part ranges must be contiguous, gap/overlap at {start}")
            pos = stop
        if pos != self.dim:
            raise ValueError("part ranges do not cover the feature axis")

    @property
    def dim(self) -> int:
        return BASE_DIM

    @classmethod
    def base(cls) -> "PartLayout":
        """206-dim layout: body, expression, jaw, right hand, left hand."""
        return cls(
            body=(0, 63),
            expression=(63, 113),
            jaw=(113, 116),
            rhand=(116, 161),
            lhand=(161, 206),
        )

    def indices(self, name: str) -> np.ndarray:
        rng = getattr(self, name)
        return np.arange(rng[0], rng[1])

    def group_indices(self, group: str) -> np.ndarray:
        """Indices of a coarse loss group: 'body', 'face' or 'hand'.

        Face covers expression + jaw, hand covers both hands, body covers
        the local body rotations.
        """
        parts = {
            "body": ["body"],
            "face": ["expression", "jaw"],
            "hand": ["rhand", "lhand"],
        }[group]
        idx = [self.indices(p) for p in parts]
        return np.sort(np.concatenate(idx))

    def part_weights(self, body: float, face: float, hand: float) -> np.ndarray:
        """Per-dimension weight vector assembled from the three group weights."""
        w = np.empty(self.dim, dtype=np.float64)
        w[self.group_indices("body")] = body
        w[self.group_indices("face")] = face
        w[self.group_indices("hand")] = hand
        return w


def checked_frames(frames: np.ndarray) -> np.ndarray:
    """`frames` as a float64 T x D matrix; a ValueError unless T >= 1 and
    every value is finite."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError(f"frames must be a T x D matrix with T >= 1, got {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames contain non-finite values")
    return frames


@dataclass
class MotionSequence:
    """A T x D matrix of frame-wise motion features at a fixed frame rate."""

    frames: np.ndarray
    fps: int = DEFAULT_FPS

    def __post_init__(self):
        self.frames = checked_frames(self.frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def duration_seconds(self) -> float:
        return self.num_frames / self.fps

    def copy(self) -> "MotionSequence":
        return MotionSequence(self.frames.copy(), self.fps)


@dataclass
class GlossClip:
    """A labeled isolated-sign motion clip with its core articulation span."""

    gloss: str
    motion: MotionSequence
    core_span: tuple[int, int]
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        s, e = self.core_span
        if not (0 <= s <= e < self.motion.num_frames):
            raise ValueError(f"core_span {self.core_span} out of range for T={self.motion.num_frames}")


def resample_frames(frames: np.ndarray, t_out: int) -> np.ndarray:
    """Piecewise-linear resampling of a T x D array over normalized time [0, 1]."""
    if t_out < 1:
        raise ValueError("t_out must be >= 1")
    t_in = frames.shape[0]
    if t_out == t_in:
        return frames.copy()
    if t_in == 1:
        return np.repeat(frames, t_out, axis=0)
    x_in = np.linspace(0.0, 1.0, t_in)
    x_out = np.linspace(0.0, 1.0, t_out)
    fp = np.asarray(frames, dtype=np.float64)
    # np.interp per column, for all columns at once: bracket j with
    # x_in[j] <= x < x_in[j + 1], then slope * (x - x_in[j]) + fp[j]
    j = np.searchsorted(x_in, x_out, side="right") - 1
    seg = np.minimum(j, t_in - 2)
    slopes = (fp[1:] - fp[:-1]) / (x_in[1:] - x_in[:-1])[:, None]
    out = slopes[seg] * (x_out - x_in[seg])[:, None] + fp[seg]
    # as in np.interp, a sample on a knot (the last sample always is) takes
    # the knot's value
    on_knot = x_out == x_in[j]
    out[on_knot] = fp[j[on_knot]]
    return out.astype(frames.dtype, copy=False)


def _savgol_weights(offsets: np.ndarray, order: int, eval_at: float = 0.0) -> np.ndarray:
    """Least-squares polynomial-fit weights over the given window offsets."""
    a = np.vander(offsets.astype(np.float64), order + 1, increasing=True)
    # row of the pseudo-inverse that evaluates the fitted polynomial at eval_at
    coeffs = np.linalg.lstsq(a, np.eye(len(offsets)), rcond=None)[0]
    powers = np.array([eval_at**k for k in range(order + 1)])
    return powers @ coeffs


def savgol_smooth(x: MotionSequence, window: int = 7, order: int = 2) -> MotionSequence:
    """Savitzky-Golay smoothing with one-sided truncated-window fits at the edges.

    Returns the input unchanged (with a warning) when the window exceeds T.
    """
    if window % 2 == 0:
        raise ValueError("window must be odd")
    if order >= window:
        raise ValueError("order must be smaller than window")
    t = x.num_frames
    if window > t:
        log.warning("savgol window %d exceeds T=%d; returning input unchanged", window, t)
        return x.copy()
    half = window // 2
    frames = x.frames
    out = np.empty_like(frames)
    interior = _savgol_weights(np.arange(-half, half + 1), order)
    for i in range(t):
        lo = max(0, i - half)
        hi = min(t - 1, i + half)
        if hi - lo + 1 == window:
            out[i] = interior @ frames[lo : hi + 1]
        else:
            w = _savgol_weights(np.arange(lo - i, hi - i + 1), order)
            out[i] = w @ frames[lo : hi + 1]
    return MotionSequence(out, x.fps)


def temporal_diff(frames: np.ndarray, order: int = 1) -> np.ndarray:
    """Forward temporal differences padded with the nearest valid values to length T.

    Order 1 yields x[t+1] - x[t]; order 2 differences the order-1 result.
    Sequences shorter than order+1 frames produce all zeros.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    frames = np.asarray(frames, dtype=np.float64)
    t = frames.shape[0]
    if t < order + 1:
        return np.zeros_like(frames)
    d = np.diff(frames, n=order, axis=0)
    pad = np.repeat(d[-1:], t - d.shape[0], axis=0)
    return np.concatenate([d, pad], axis=0)


def write_motion(path: str | Path, seq: MotionSequence, version: int = MOTION_VERSION) -> None:
    """Write the little-endian binary motion format (magic, version, T, D, fps, f32 data)."""
    frames32 = np.ascontiguousarray(seq.frames, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MOTION_MAGIC)
        fh.write(struct.pack("<IIII", version, seq.num_frames, seq.dim, seq.fps))
        fh.write(frames32.tobytes())


def read_motion(path: str | Path) -> MotionSequence:
    """Read a file `write_motion` wrote. A file that is not SVMX, has another
    version, declares no frames, no features or a zero frame rate, ends early,
    runs on past its frames or holds a non-finite value raises a ValueError
    naming the path."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if header[:4] != MOTION_MAGIC[: len(header)]:
            raise ValueError(f"bad magic {header[:4]!r} in {path}")
        if len(header) != 20:
            raise ValueError(f"truncated motion file {path}: the header ends after "
                             f"{len(header)} of 20 bytes")
        version, t, d, fps = struct.unpack("<IIII", header[4:])
        if version != MOTION_VERSION:
            raise ValueError(f"unsupported motion file version {version} in {path}")
        if not (t and d and fps):
            raise ValueError(f"empty motion file {path}: T={t}, D={d}, fps={fps}")
        # the data size against the file's, before reading: a corrupt header
        # can declare more bytes than any file holds
        size, stored = 4 * t * d, os.fstat(fh.fileno()).st_size - 20
        if stored < size:
            raise ValueError(f"truncated motion file {path}: {stored} of {size} data bytes")
        if stored > size:
            raise ValueError(f"motion file {path} runs on past its data: {stored} bytes "
                             f"where T={t}, D={d} need {size}")
        frames = np.frombuffer(fh.read(size), dtype="<f4").reshape(t, d).astype(np.float64)
    if not np.isfinite(frames).all():
        raise ValueError(f"non-finite frame values in motion file {path}")
    return MotionSequence(frames, fps=fps)
