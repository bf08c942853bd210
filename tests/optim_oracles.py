"""Reference implementation of the optimizer step.

`Fp64MomentAdamW` is the AdamW step `signweave.neuralkit.AdamW` replaced: it
keeps both moments in float64 whatever the parameter dtype and computes each
update in float64 before casting it back. Tests compare the optimizer against
it: exactly for float64 parameters, within float32 rounding for float32 ones.
"""
from __future__ import annotations

import numpy as np


class Fp64MomentAdamW:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(params[name].data, dtype=np.float64) for name in params.names()}
        self._v = {name: np.zeros_like(params[name].data, dtype=np.float64) for name in params.names()}

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.step_count += 1
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name in self.params.names():
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            new = p.data.astype(np.float64) - lr * update
            if self.weight_decay > 0.0:
                new -= lr * self.weight_decay * p.data.astype(np.float64)
            p.data = new.astype(p.data.dtype)
