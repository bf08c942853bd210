"""AdamW optimizer with decoupled weight decay, a cosine LR schedule, and the
one training loop built from them, which stops on a non-finite loss."""
from __future__ import annotations

import numpy as np

from .nn import ParameterSet


class AdamW:
    """AdamW (Loshchilov & Hutter, arXiv:1711.05101).

    The moments of each tensor live in that tensor's dtype and are updated in
    place, so fp32 parameters train in fp32 throughout. Each step assigns a
    new array to every parameter it updates. Nothing built from the old
    values sees the step: `Denoiser.sampler` conditions once per DDIM run,
    so a sampler must be built again after a step.
    """

    def __init__(
        self,
        params: ParameterSet,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(params[name].data) for name in params.names()}
        self._v = {name: np.zeros_like(params[name].data) for name in params.names()}

    def step(self, lr: float | None = None) -> None:
        # Python floats, so that no numpy float64 scalar promotes fp32 arrays
        lr = float(self.lr if lr is None else lr)
        b1, b2 = (float(b) for b in self.betas)
        self.step_count += 1
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name in self.params.names():
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            # (m / bc1) / (sqrt(v / bc2) + eps), with two temporaries
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / bc1
            update /= denom
            update *= lr
            new = p.data - update
            if self.weight_decay > 0.0:
                new -= lr * self.weight_decay * p.data
            p.data = new


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Cosine decay from base_lr at step 0 to min_lr at the last step, as a
    Python float: a numpy float64 would promote the fp32 arrays it scales."""
    if total_steps <= 1:
        return float(base_lr)
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return float(min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * frac)))


def fit(params: ParameterSet, batches, loss_of, total_steps: int, lr: float, weight_decay: float, grad_clip: float,
        betas: tuple[float, float] = (0.9, 0.999), ema_decay: float | None = None) -> list[float]:
    """AdamW over `batches`, the example indices of each step; returns the
    per-step losses. A step scores `loss_of(batch)`, backpropagates, clips
    the gradient norm, steps at `cosine_lr(step, total_steps, lr)`, clears
    the gradients and, given `ema_decay`, updates the EMA. A NaN or infinite
    loss raises a ValueError naming the step and the batch before its step.
    """
    opt = AdamW(params, lr=lr, betas=betas, weight_decay=weight_decay)
    losses = []
    params.zero_grad()
    for step, batch in enumerate(batches):
        loss = loss_of(batch)
        if not np.all(np.isfinite(loss.data)):
            raise ValueError(f"non-finite loss {loss.item()} at step {step} "
                             f"(batch indices {np.asarray(batch).tolist()})")
        loss.backward()
        params.clip_grad_norm(grad_clip)
        opt.step(lr=cosine_lr(step, total_steps, lr))
        params.zero_grad()  # the step has used them: no gradient outlives it
        if ema_decay is not None:
            params.ema_update(ema_decay)
        losses.append(loss.item())
    return losses
