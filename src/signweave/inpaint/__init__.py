"""Boundary-refinement diffusion: masks, noising, losses, denoiser, DDIM composition."""
from .schedule import DiffusionSchedule, min_snr_weight, q_sample
from .masks import RADIUS_MAX, RADIUS_MIN, BoundaryMask, boundary_mask, make_boundary_mask, sample_radius
from .losses import LossConfig, combined_loss, masked_recon_loss, smooth_l1, velocity_loss
from .denoiser import Denoiser, DenoiserConfig
from .sampler import ddim_refine, linear_transition_baseline
from .train import InpaintTrainConfig, PairItem, batch_loss, sample_step_loss, train_inpainter

__all__ = [
    "BoundaryMask",
    "DiffusionSchedule",
    "Denoiser",
    "DenoiserConfig",
    "InpaintTrainConfig",
    "LossConfig",
    "PairItem",
    "RADIUS_MAX",
    "RADIUS_MIN",
    "batch_loss",
    "boundary_mask",
    "combined_loss",
    "ddim_refine",
    "linear_transition_baseline",
    "make_boundary_mask",
    "masked_recon_loss",
    "min_snr_weight",
    "q_sample",
    "sample_radius",
    "sample_step_loss",
    "smooth_l1",
    "train_inpainter",
    "velocity_loss",
]
