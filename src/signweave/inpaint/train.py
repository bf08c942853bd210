"""Training loop for the boundary-inpainting denoiser."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neuralkit as nk
from ..neuralkit import Tensor
from .denoiser import Denoiser
from .losses import LossConfig, packed_loss
from .masks import RADIUS_MAX, RADIUS_MIN, boundary_mask, sample_radius
from .schedule import DiffusionSchedule, min_snr_weight, q_sample


@dataclass
class PairItem:
    """One training pair: clean pseudo input and duration-aligned target."""

    x_tilde: np.ndarray
    x0: np.ndarray
    boundary_index: int

    def __post_init__(self):
        if self.x_tilde.shape != self.x0.shape:
            raise ValueError("pseudo input and aligned target must have equal shapes")
        if not 0 < self.boundary_index < self.x_tilde.shape[0]:
            raise ValueError("boundary index must be interior")


@dataclass
class InpaintTrainConfig:
    lr: float = 3e-4
    weight_decay: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    grad_clip: float = 1.0
    ema_decay: float = 0.9999
    batch_size: int = 16
    steps: int = 1500
    radius_min: int = RADIUS_MIN
    radius_max: int = RADIUS_MAX
    seed: int = 0


def packed_step_loss(
    items: list[PairItem],
    denoiser: Denoiser,
    schedule: DiffusionSchedule,
    loss_cfg: LossConfig,
    draws: list[tuple[int, int, np.ndarray]],
    part_weights: np.ndarray,
) -> Tensor:
    """Mean objective over items, each at its own (t, radius, noise) draw.

    The loss reads only the frames inside each item's boundary mask, one
    contiguous run, so the items are packed: one denoiser forward over all of
    them laid end to end predicts those rows only, and one loss scores them
    (the same frames and velocity pairs as on the full pairs). A step builds
    one graph, whatever the batch size.
    """
    ts = [t for t, _, _ in draws]
    mask = boundary_mask([item.x0.shape[0] for item in items], [item.boundary_index for item in items],
                         [radius for _, radius, _ in draws])
    x_t = np.concatenate([q_sample(item.x0, t, noise, schedule) for item, (t, _, noise) in zip(items, draws)])
    c = denoiser.condition(np.concatenate([item.x_tilde for item in items]), mask)
    x0_hat = denoiser.forward(x_t, ts, c, rows=mask.rows)
    x0 = np.concatenate([item.x0 for item in items])[mask.rows]
    runs = np.diff(np.searchsorted(mask.rows, mask.offsets))  # each item's masked rows, one contiguous run
    weights_t = [min_snr_weight(t, schedule, loss_cfg.min_snr_gamma) for t in ts]
    return packed_loss(x0_hat, x0, runs, part_weights, weights_t, loss_cfg)


def sample_step_loss(
    item: PairItem,
    denoiser: Denoiser,
    schedule: DiffusionSchedule,
    loss_cfg: LossConfig,
    t: int,
    radius: int,
    noise: np.ndarray,
    part_weights: np.ndarray,
) -> Tensor:
    """Single-sample objective at a fixed timestep/radius/noise draw: the
    one-item case of `packed_step_loss`."""
    return packed_step_loss([item], denoiser, schedule, loss_cfg, [(t, radius, noise)], part_weights)


def batch_loss(
    batch: list[PairItem],
    denoiser: Denoiser,
    schedule: DiffusionSchedule,
    loss_cfg: LossConfig,
    rng: np.random.Generator,
    radius_range: tuple[int, int] = (RADIUS_MIN, RADIUS_MAX),
) -> Tensor:
    """Mean objective over a batch with per-item t, radius, and noise draws,
    drawn item by item in that order, then scored packed."""
    draws = []
    for item in batch:
        t = int(rng.integers(1, schedule.num_steps + 1))
        radius = sample_radius(rng, *radius_range)
        draws.append((t, radius, rng.standard_normal(item.x0.shape)))
    return packed_step_loss(batch, denoiser, schedule, loss_cfg, draws, loss_cfg.part_weights(denoiser.layout))


def train_inpainter(
    pairs: list[PairItem],
    denoiser: Denoiser,
    schedule: DiffusionSchedule | None = None,
    cfg: InpaintTrainConfig = InpaintTrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
) -> list[float]:
    """Seeded single-coordinator training (`nk.fit`) over batches drawn with
    replacement; returns the per-step loss history."""
    if schedule is None:
        schedule = DiffusionSchedule()
    rng = np.random.default_rng(cfg.seed)
    n = len(pairs)
    draws = (rng.integers(0, n, size=min(cfg.batch_size, n)) for _ in range(cfg.steps))

    def loss_of(idx):
        return batch_loss([pairs[i] for i in idx], denoiser, schedule, loss_cfg, rng, (cfg.radius_min, cfg.radius_max))

    return nk.fit(denoiser.params, draws, loss_of, cfg.steps, cfg.lr, cfg.weight_decay, cfg.grad_clip, cfg.betas,
                  cfg.ema_decay)
