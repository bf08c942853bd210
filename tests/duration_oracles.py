"""Per-predictor reference implementations of the duration training loops.

These are the two epoch loops, each with its own inlined copy of the pinball
and cross-entropy loss, that `signweave.duration._fit` and `duration_loss`
replaced. Tests compare the shared loop against them: parameters and loss
history must agree bit for bit.
"""
from __future__ import annotations

import numpy as np

from signweave import neuralkit as nk
from signweave.duration import (
    LOG_EPS,
    DurationTrainConfig,
    GlossDurationPredictor,
    PairExample,
    SentenceDurationPredictor,
    SentenceExample,
    _pinball_t,
)
from signweave.neuralkit import Tensor


def loop_train_gloss_predictor(
    examples: list[PairExample],
    model: GlossDurationPredictor,
    cfg: DurationTrainConfig = DurationTrainConfig(),
) -> list[float]:
    """Minimize the duration loss over gloss pairs; returns per-epoch means."""
    rng = np.random.default_rng(cfg.seed)
    opt = nk.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    feats = np.stack([ex.features for ex in examples]).astype(model.params.dtype)
    scales = np.array([ex.scale for ex in examples])
    allocs = np.stack([ex.allocation for ex in examples])
    n = len(examples)
    steps_total = cfg.epochs * max(1, n // cfg.batch_size)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            scale, alloc = model.forward(feats[idx])
            dtype = model.params.dtype
            residual = Tensor(scales[idx][:, None].astype(dtype)) - scale
            pin = _pinball_t(residual, cfg.tau).mean()
            logs = nk.maximum_const(alloc, LOG_EPS).log()
            ce = -(logs * Tensor(allocs[idx].astype(dtype))).sum(axis=-1).mean()
            loss = pin + ce * cfg.lambda_split
            model.params.zero_grad()
            loss.backward()
            model.params.clip_grad_norm(cfg.grad_clip)
            opt.step(lr=nk.cosine_lr(step, steps_total, cfg.lr))
            step += 1
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return history


def loop_train_sentence_predictor(
    examples: list[SentenceExample],
    model: SentenceDurationPredictor,
    cfg: DurationTrainConfig = DurationTrainConfig(tau=0.60, epochs=60),
) -> list[float]:
    rng = np.random.default_rng(cfg.seed)
    opt = nk.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    n = len(examples)
    steps_total = cfg.epochs * max(1, n // cfg.batch_size)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            batch = [examples[i] for i in idx]
            k_max = max(ex.tokens.shape[0] for ex in batch)
            f_dim = batch[0].tokens.shape[1]
            tokens = np.zeros((len(batch), k_max, f_dim))
            valid = np.zeros((len(batch), k_max), dtype=bool)
            w_target = np.zeros((len(batch), k_max))
            s_target = np.zeros((len(batch), 1))
            for i, ex in enumerate(batch):
                k = ex.tokens.shape[0]
                tokens[i, :k] = ex.tokens
                valid[i, :k] = True
                w_target[i, :k] = ex.allocation
                s_target[i, 0] = ex.scale
            scale, alloc = model.forward(tokens, valid)
            dtype = model.params.dtype
            pin = _pinball_t(Tensor(s_target.astype(dtype)) - scale, cfg.tau).mean()
            logs = nk.maximum_const(alloc, LOG_EPS).log()
            masked = nk.where(valid, logs * Tensor(w_target.astype(dtype)),
                              Tensor(np.zeros(valid.shape, dtype=dtype)))
            ce = -masked.sum(axis=-1).mean()
            loss = pin + ce * cfg.lambda_split
            model.params.zero_grad()
            loss.backward()
            model.params.clip_grad_norm(cfg.grad_clip)
            opt.step(lr=nk.cosine_lr(step, steps_total, cfg.lr))
            step += 1
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return history
