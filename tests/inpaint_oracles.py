"""The denoiser's training objective as it was first written: the full pair
is predicted, and the loss masks out every frame outside the boundary mask.

`signweave.inpaint.sample_step_loss` predicts and scores only the frames
inside the mask; tests compare the two, loss and parameter gradients.
"""
from __future__ import annotations

import numpy as np

from signweave.inpaint import combined_loss, make_boundary_mask, min_snr_weight, q_sample


def full_row_step_loss(item, denoiser, schedule, loss_cfg, t, radius, noise, part_weights):
    mask = make_boundary_mask(item.boundary_index, item.x0.shape[0] - item.boundary_index, radius)
    x_t = q_sample(item.x0, t, noise, schedule)
    x0_hat = denoiser.forward(x_t, t, item.x_tilde, mask.values)
    w_t = min_snr_weight(t, schedule, loss_cfg.min_snr_gamma)
    return combined_loss(x0_hat, item.x0, mask.values, part_weights, w_t, loss_cfg)
