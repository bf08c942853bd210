"""The fp32 models train in fp32: one padded training step of each of them,
through its real training loop, leaves no float64 array behind."""
from __future__ import annotations

import numpy as np
import pytest

from signweave import duration
from signweave import neuralkit as nk
from signweave.duration import (
    DurationModelConfig,
    DurationTrainConfig,
    GlossDurationPredictor,
    PairExample,
    SentenceDurationPredictor,
    SentenceExample,
    pair_feature_dim,
    token_feature_dim,
)
from signweave.inpaint import Denoiser, DenoiserConfig, DiffusionSchedule, InpaintTrainConfig, PairItem
from signweave.inpaint import train as inpaint_train
from signweave.neuralkit import optim

MOTION_DIM = 5


@pytest.fixture
def recorded(monkeypatch):
    """Every optimizer the trainers make, and every loss they compute."""
    seen = {"optimizers": [], "losses": []}

    class RecordingAdamW(nk.AdamW):
        """Also records the dtype of each gradient a step reads: the trainers
        clear the gradients once the step has used them."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.grad_dtypes = {}
            seen["optimizers"].append(self)

        def step(self, lr=None):
            for name in self.params.names():
                grad = self.params[name].grad
                assert grad is not None, name
                self.grad_dtypes[name] = grad.dtype
            super().step(lr)

    def recording(fn):
        def wrapped(*args, **kwargs):
            loss = fn(*args, **kwargs)
            seen["losses"].append(loss)
            return loss
        return wrapped

    monkeypatch.setattr(optim, "AdamW", RecordingAdamW)  # the name `nk.fit` builds its optimizer from
    monkeypatch.setattr(duration, "duration_loss", recording(duration.duration_loss))
    monkeypatch.setattr(inpaint_train, "batch_loss", recording(inpaint_train.batch_loss))
    return seen


def record_forward(model) -> list:
    """Wrap the model's forward so that its outputs are kept."""
    outputs = []
    forward = model.forward

    def wrapped(*args, **kwargs):
        out = forward(*args, **kwargs)
        outputs.extend(out if isinstance(out, tuple) else (out,))
        return out

    model.forward = wrapped
    return outputs


def assert_float32_throughout(params, recorded, outputs):
    (opt,) = recorded["optimizers"]
    assert opt.step_count == 1
    assert outputs and all(t.dtype == np.float32 for t in outputs)
    assert recorded["losses"] and all(loss.dtype == np.float32 for loss in recorded["losses"])
    for name in params.names():
        p = params[name]
        assert p.grad is None, name
        dtypes = {"parameter": p.data.dtype, "gradient": opt.grad_dtypes[name],
                  "first moment": opt._m[name].dtype, "second moment": opt._v[name].dtype}
        # only a set trained with an EMA keeps shadows
        if params.keeps_ema:
            dtypes["EMA shadow"] = params.ema_value(name).dtype
        for what, dtype in dtypes.items():
            assert dtype == np.float32, f"{name} {what} is {dtype}"


def test_gloss_predictor_step(recorded):
    rng = np.random.default_rng(0)
    examples = [PairExample(rng.normal(size=pair_feature_dim(MOTION_DIM)), float(rng.normal(scale=0.3)),
                            rng.dirichlet(np.ones(2))) for _ in range(6)]
    model = GlossDurationPredictor(DurationModelConfig(motion_dim=MOTION_DIM, hidden=8, mlp_layers=2))
    outputs = record_forward(model)
    duration.train_gloss_predictor(examples, model, DurationTrainConfig(epochs=1, batch_size=6))
    assert not model.params.keeps_ema
    assert_float32_throughout(model.params, recorded, outputs)


def test_sentence_predictor_padded_step(recorded):
    rng = np.random.default_rng(1)
    examples = [SentenceExample(rng.normal(size=(k, token_feature_dim(MOTION_DIM))), float(rng.normal(scale=0.3)),
                                rng.dirichlet(np.ones(k))) for k in (1, 4, 2, 6)]
    cfg = DurationModelConfig(motion_dim=MOTION_DIM, hidden=8, sent_layers=2, sent_heads=2, sent_ffn=16)
    model = SentenceDurationPredictor(cfg)
    outputs = record_forward(model)
    duration.train_sentence_predictor(examples, model, DurationTrainConfig(epochs=1, batch_size=4))
    assert not model.params.keeps_ema
    assert_float32_throughout(model.params, recorded, outputs)


def test_denoiser_step(recorded):
    rng = np.random.default_rng(2)
    pairs = []
    for length in (18, 27):
        x_tilde = rng.normal(size=(length, 206)) * 0.3
        pairs.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.05, length // 2))
    denoiser = Denoiser(DenoiserConfig(latent=8, layers=1, heads=2, ffn=16, hand_head_depth=2))
    outputs = record_forward(denoiser)
    inpaint_train.train_inpainter(pairs, denoiser, DiffusionSchedule(),
                                  InpaintTrainConfig(steps=1, batch_size=4, radius_min=3, radius_max=6))
    assert denoiser.params.keeps_ema
    assert_float32_throughout(denoiser.params, recorded, outputs)
