"""Binary temporal inpainting masks around gloss boundaries."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neuralkit as nk

RADIUS_MIN = 10
RADIUS_MAX = 30


@dataclass(frozen=True, eq=False)
class BoundaryMask:
    """The boundary masks of pairs laid end to end, and their layout.

    `values` is 1.0 on every frame within its pair's radius of its pair's
    boundary and 0.0 elsewhere. Pair s holds frames offsets[s]:offsets[s + 1],
    `lengths[s]` of them, with its boundary at in-pair frame `boundaries[s]`;
    `positions` is each frame's index inside its pair, and `rows` the frames
    inside the mask, ascending."""

    values: np.ndarray
    lengths: tuple[int, ...]
    boundaries: tuple[int, ...]
    offsets: np.ndarray
    positions: np.ndarray
    rows: np.ndarray


def boundary_mask(lengths, boundaries, radii) -> BoundaryMask:
    """The mask of pairs of `lengths` frames laid end to end in this order,
    set where a frame is within its pair's radius of its pair's boundary.
    `radii` is one radius for every pair or a sequence of one per pair."""
    lengths = tuple(int(n) for n in lengths)
    boundaries = tuple(int(b) for b in boundaries)
    if len(boundaries) != len(lengths):
        raise ValueError(f"{len(boundaries)} boundaries for {len(lengths)} pairs")
    if any(n <= 0 for n in lengths):
        raise ValueError("empty pair")
    radii = np.broadcast_to(np.asarray(radii, dtype=np.intp), (len(lengths),))
    if np.any(radii < 0):
        raise ValueError("radius must be >= 0")
    offsets = nk.segment_offsets(lengths)
    positions = nk.segment_positions(offsets)
    inside = np.abs(positions - np.repeat(boundaries, lengths)) <= np.repeat(radii, lengths)
    return BoundaryMask(inside.astype(np.float64), lengths, boundaries, offsets, positions, np.flatnonzero(inside))


def make_boundary_mask(t_a: int, t_b: int, radius: int) -> BoundaryMask:
    """One pair's mask: set where |i - t_a| <= radius."""
    return boundary_mask((t_a + t_b,), (t_a,), radius)


def sample_radius(rng: np.random.Generator, r_min: int = RADIUS_MIN, r_max: int = RADIUS_MAX) -> int:
    """Training-time radius, uniform over the integer range inclusive."""
    return int(rng.integers(r_min, r_max + 1))
