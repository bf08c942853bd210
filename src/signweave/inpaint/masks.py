"""Binary temporal inpainting masks around gloss boundaries."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RADIUS_MIN = 10
RADIUS_MAX = 30
INFERENCE_RADIUS = 10


@dataclass
class InpaintMask:
    values: np.ndarray      # binary, length T_a + T_b
    boundary_index: int
    radius: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = np.abs(np.arange(len(self.values)) - self.boundary_index) <= self.radius
        if not np.array_equal(self.values > 0.5, expected):
            raise ValueError("mask values do not match the boundary/radius definition")

    @property
    def lengths(self) -> tuple[int, ...]:
        """One segment: the whole pair."""
        return (len(self.values),)


@dataclass(frozen=True)
class PackedMask:
    """The boundary masks of several pairs laid end to end: `values` over all
    their frames, and each pair's frame count in `lengths`."""

    values: np.ndarray
    lengths: tuple[int, ...]


def pack_masks(masks: list[InpaintMask]) -> PackedMask:
    """The masks of pairs that are laid end to end in this order."""
    return PackedMask(np.concatenate([m.values for m in masks]), tuple(len(m.values) for m in masks))


def make_boundary_mask(t_a: int, t_b: int, radius: int) -> InpaintMask:
    """Mask is set where |i - t_a| <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    total = t_a + t_b
    if total == 0:
        raise ValueError("empty pair")
    idx = np.arange(total)
    values = (np.abs(idx - t_a) <= radius).astype(np.float64)
    return InpaintMask(values, t_a, radius)


def sample_radius(rng: np.random.Generator, r_min: int = RADIUS_MIN, r_max: int = RADIUS_MAX) -> int:
    """Training-time radius, uniform over the integer range inclusive."""
    return int(rng.integers(r_min, r_max + 1))
