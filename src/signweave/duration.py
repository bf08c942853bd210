"""Gloss-pair and sentence-level duration prediction with quantile-regression targets.

Both predictors estimate a log-scale rescaling factor and a per-gloss duration
allocation; integer plans are derived with sum-preserving rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neuralkit as nk
from .neuralkit import ParameterSet, Tensor

SCALE_CLAMP = 3.0
K_MAX = 32
LOG_EPS = 1e-12


@dataclass
class DurationPrediction:
    scale: float          # log-scale, clamped to [-SCALE_CLAMP, SCALE_CLAMP]
    allocation: np.ndarray  # simplex over K glosses

    def __post_init__(self):
        self.allocation = np.asarray(self.allocation, dtype=np.float64)
        if abs(self.scale) > SCALE_CLAMP + 1e-9:
            raise ValueError(f"scale {self.scale} outside clamp bound")
        if np.any(self.allocation < -1e-12) or abs(self.allocation.sum() - 1.0) > 1e-6:
            raise ValueError("allocation must be a simplex")


@dataclass
class GlossPlan:
    lengths: list[int]
    total: int

    def __post_init__(self):
        if sum(self.lengths) != self.total:
            raise ValueError("plan lengths must sum to the total")


def target_scale(t_src: int, t_tgt: int) -> float:
    """log(T_tgt / T_src)."""
    if t_src < 1 or t_tgt < 1:
        raise ValueError("lengths must be >= 1")
    return math.log(t_tgt / t_src)


def target_allocation(gloss_spans: list[tuple[int, int]], sentence_range: tuple[int, int] | None = None) -> np.ndarray:
    """Normalized per-gloss length shares with inter-gloss gaps split at midpoints.

    Spans are inclusive (start, end) frame indices, ordered and non-overlapping.
    Frames outside the outermost spans (when sentence_range is given) are
    assigned to the first/last gloss.
    """
    k = len(gloss_spans)
    if k == 0:
        raise ValueError("need at least one gloss span")
    if k == 1:
        return np.array([1.0])
    starts = np.array([s for s, _ in gloss_spans], dtype=np.float64)
    ends = np.array([e for _, e in gloss_spans], dtype=np.float64)
    if np.any(starts[1:] <= ends[:-1]):
        raise ValueError("spans must be ordered and non-overlapping")
    # effective boundaries: midpoints of the inter-gloss gaps
    mids = (ends[:-1] + starts[1:] + 1.0) / 2.0
    lo = sentence_range[0] if sentence_range else starts[0]
    hi = sentence_range[1] + 1 if sentence_range else ends[-1] + 1
    edges = np.concatenate([[lo], mids, [hi]])
    lengths = np.diff(edges)
    return lengths / lengths.sum()


def pinball_loss(u: float | np.ndarray, tau: float) -> float | np.ndarray:
    """Quantile (pinball) loss: tau * u for u >= 0, (tau - 1) * u otherwise."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    u = np.asarray(u, dtype=np.float64)
    out = np.where(u >= 0, tau * u, (tau - 1.0) * u)
    return float(out) if out.ndim == 0 else out


def _pinball_t(u: Tensor, tau: float) -> Tensor:
    return nk.where(u.data >= 0, u * tau, u * (tau - 1.0))


def duration_loss(
    s_hat: Tensor | float,
    w_hat: Tensor | np.ndarray,
    s_target: float | np.ndarray,
    w_target: np.ndarray,
    tau: float,
    lambda_split: float = 1.0,
    valid: np.ndarray | None = None,
) -> Tensor:
    """Pinball on the scale residual plus cross-entropy on the allocation, each
    averaged over the batch.

    Takes one example (scalar scale, (K,) allocation) or a batch ((B, 1)
    scales, (B, K) allocations); `valid` (B, K) drops padded slots from the
    cross-entropy, whose log is clamped at LOG_EPS. Targets are used at the
    dtype they come in: fp32 predictions and targets give an fp32 loss.
    """
    s_hat = nk.as_tensor(s_hat)
    w_hat = nk.as_tensor(w_hat)
    pin = _pinball_t(Tensor(s_target) - s_hat, tau).mean()
    terms = nk.maximum_const(w_hat, LOG_EPS).log() * Tensor(w_target)
    if valid is not None:
        terms = nk.where(valid, terms, Tensor(np.zeros(terms.shape, dtype=terms.dtype)))
    ce = -terms.sum(axis=-1).mean()
    return pin + ce * lambda_split


# ---------------------------------------------------------------------------
# feature extraction


def pair_features(a: np.ndarray, b: np.ndarray, window: int = 5) -> np.ndarray:
    """Fixed statistics for a gloss pair: segment summaries, boundary window
    means, boundary-jump magnitude, and length statistics."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a.shape[1]
    t_a, t_b = a.shape[0], b.shape[0]
    tail = a[max(0, t_a - window):].mean(axis=0)
    head = b[:window].mean(axis=0)
    jump = np.linalg.norm(a[-1] - b[0]) / np.sqrt(d)
    stats = [
        a.mean(axis=0), a.std(axis=0),
        b.mean(axis=0), b.std(axis=0),
        tail, head,
        np.array([jump, math.log(t_a), math.log(t_b), t_a / (t_a + t_b)]),
    ]
    return np.concatenate(stats)


def pair_feature_dim(motion_dim: int) -> int:
    return 6 * motion_dim + 4


def sentence_token_features(segments: list[np.ndarray]) -> np.ndarray:
    """One token per gloss segment: per-segment summaries plus length features."""
    k = len(segments)
    total = sum(s.shape[0] for s in segments)
    rows = []
    for i, seg in enumerate(segments):
        seg = np.asarray(seg, dtype=np.float64)
        rows.append(np.concatenate([
            seg.mean(axis=0), seg.std(axis=0),
            np.array([math.log(seg.shape[0]), seg.shape[0] / total, (i + 1) / k]),
        ]))
    return np.stack(rows)


def token_feature_dim(motion_dim: int) -> int:
    return 2 * motion_dim + 3


# ---------------------------------------------------------------------------
# predictors


@dataclass(frozen=True)
class DurationModelConfig:
    motion_dim: int = 206
    hidden: int = 256
    mlp_layers: int = 4
    sent_layers: int = 3
    sent_heads: int = 4
    sent_ffn: int = 512
    window: int = 5
    k_max: int = K_MAX
    dtype: type = np.float32


class GlossDurationPredictor:
    """MLP over pair features predicting the scale and a two-way split.

    Output heads are zero-initialized so a fresh model produces identity
    rescaling and a uniform allocation.
    """

    def __init__(self, cfg: DurationModelConfig = DurationModelConfig(), seed: int = 0):
        self.cfg = cfg
        self.params = ParameterSet(dtype=cfg.dtype)
        rng = np.random.default_rng(seed)
        in_dim = pair_feature_dim(cfg.motion_dim)
        dims = [in_dim] + [cfg.hidden] * cfg.mlp_layers
        self._layers = []
        for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
            self._layers.append(nk.init_dense(self.params, f"mlp.{i}", fi, fo, rng))
        self._scale_head = nk.init_dense(self.params, "scale_head", cfg.hidden, 1, rng, zero=True)
        self._alloc_head = nk.init_dense(self.params, "alloc_head", cfg.hidden, 2, rng, zero=True)

    def forward(self, features: np.ndarray) -> tuple[Tensor, Tensor]:
        """features: (F,) or (B, F). Returns (scale, allocation) tensors."""
        h = nk.tensor(np.asarray(features, dtype=self.params.dtype))
        for w, b in self._layers:
            h = nk.gelu(nk.dense(h, w, b))
        scale = nk.clamp(nk.dense(h, *self._scale_head), -SCALE_CLAMP, SCALE_CLAMP)
        alloc = nk.softmax(nk.dense(h, *self._alloc_head), axis=-1)
        return scale, alloc

    def predict(self, features: np.ndarray) -> DurationPrediction:
        scale, alloc = self.forward(features)
        s = float(np.squeeze(scale.data))
        w = np.asarray(alloc.data, dtype=np.float64).reshape(-1)
        return DurationPrediction(s, w / w.sum())


class SentenceDurationPredictor:
    """Token-based Transformer encoder over per-gloss tokens (padding-masked)."""

    def __init__(self, cfg: DurationModelConfig = DurationModelConfig(), seed: int = 0):
        self.cfg = cfg
        self.params = ParameterSet(dtype=cfg.dtype)
        rng = np.random.default_rng(seed)
        h = cfg.hidden
        self._proj = nk.init_dense(self.params, "proj", token_feature_dim(cfg.motion_dim), h, rng)
        self._blocks = []
        for i in range(cfg.sent_layers):
            blk = {
                "ln1": nk.init_layer_norm(self.params, f"blk{i}.ln1", h),
                "qkv": nk.init_dense(self.params, f"blk{i}.qkv", h, 3 * h, rng),
                "out": nk.init_dense(self.params, f"blk{i}.out", h, h, rng),
                "ln2": nk.init_layer_norm(self.params, f"blk{i}.ln2", h),
                "ff1": nk.init_dense(self.params, f"blk{i}.ff1", h, cfg.sent_ffn, rng),
                "ff2": nk.init_dense(self.params, f"blk{i}.ff2", cfg.sent_ffn, h, rng),
            }
            self._blocks.append(blk)
        self._ln_final = nk.init_layer_norm(self.params, "ln_final", h)
        self._scale_head = nk.init_dense(self.params, "scale_head", h, 1, rng, zero=True)
        self._alloc_head = nk.init_dense(self.params, "alloc_head", h, 1, rng, zero=True)

    def _encode(self, tokens: Tensor, valid: np.ndarray) -> Tensor:
        cfg = self.cfg
        h = cfg.hidden
        heads = cfg.sent_heads
        dh = h // heads
        b, k = tokens.shape[0], tokens.shape[1]
        positions = np.arange(k)
        x = nk.dense(tokens, *self._proj)
        key_mask = valid[:, None, None, :]  # (B, 1, 1, K)
        for blk in self._blocks:
            normed = nk.layer_norm(x, *blk["ln1"])
            qkv = nk.dense(normed, *blk["qkv"])
            qkv = qkv.reshape(b, k, 3, heads, dh).transpose(2, 0, 3, 1, 4)  # (3, B, H, K, dh)
            q, kk, v = qkv[0], qkv[1], qkv[2]
            q = nk.rope_apply(q, positions)
            kk = nk.rope_apply(kk, positions)
            attn = nk.scaled_dot_attention(q, kk, v, key_padding_mask=key_mask)
            attn = attn.transpose(0, 2, 1, 3).reshape(b, k, h)
            x = x + nk.dense(attn, *blk["out"])
            normed = nk.layer_norm(x, *blk["ln2"])
            x = x + nk.dense(nk.gelu(nk.dense(normed, *blk["ff1"])), *blk["ff2"])
        return nk.layer_norm(x, *self._ln_final)

    def forward(self, tokens: np.ndarray, valid: np.ndarray) -> tuple[Tensor, Tensor]:
        """tokens: (B, K, F) padded; valid: (B, K) bool. Returns scale (B, 1),
        allocation (B, K) with zeros on padded slots."""
        tokens = np.asarray(tokens, dtype=self.params.dtype)
        valid = np.asarray(valid, dtype=bool)
        if tokens.shape[1] > self.cfg.k_max:
            raise ValueError(f"at most {self.cfg.k_max} glosses supported, got {tokens.shape[1]}")
        x = self._encode(nk.tensor(tokens), valid)
        vmask = Tensor(valid.astype(tokens.dtype)[:, :, None])
        counts = valid.sum(axis=1, keepdims=True).astype(tokens.dtype)
        pooled = (x * vmask).sum(axis=1) * Tensor(1.0 / counts)
        scale = nk.clamp(nk.dense(pooled, *self._scale_head), -SCALE_CLAMP, SCALE_CLAMP)
        logits = nk.dense(x, *self._alloc_head).reshape(tokens.shape[0], tokens.shape[1])
        pad_bias = np.where(valid, 0.0, -1e9)
        alloc = nk.softmax(logits + Tensor(pad_bias.astype(tokens.dtype)), axis=-1)
        return scale, alloc

    def predict(self, segments: list[np.ndarray]) -> DurationPrediction:
        k = len(segments)
        if k > self.cfg.k_max:
            raise ValueError(f"at most {self.cfg.k_max} glosses supported, got {k}")
        tokens = sentence_token_features(segments)[None]
        valid = np.ones((1, k), dtype=bool)
        scale, alloc = self.forward(tokens, valid)
        w = np.asarray(alloc.data[0], dtype=np.float64)
        return DurationPrediction(float(np.squeeze(scale.data)), w / w.sum())


# ---------------------------------------------------------------------------
# integer planning


def integer_plan(t_src: int, pred: DurationPrediction, min_len: int = 4) -> GlossPlan:
    """Round the real-valued allocation to integers with an exact sum.

    Largest-remainder rounding preserves the total; glosses below min_len are
    raised with the deficit taken from the largest allocations.
    """
    if t_src < 1:
        raise ValueError("t_src must be >= 1")
    k = len(pred.allocation)
    total = int(math.floor(t_src * math.exp(pred.scale) + 0.5))
    total = max(total, k * min_len, 1)
    raw = np.clip(pred.allocation, 0.0, None) * total
    base = np.floor(raw).astype(int)
    remainder = raw - base
    missing = total - int(base.sum())
    order = sorted(range(k), key=lambda i: (-remainder[i], i))
    for i in order[:missing]:
        base[i] += 1
    # min-length repair: deficit comes out of the largest allocations
    lengths = base.tolist()
    for i in range(k):
        if lengths[i] < min_len:
            lengths[i] = min_len
    excess = sum(lengths) - total
    while excess > 0:
        j = max(range(k), key=lambda i: (lengths[i], -i))
        if lengths[j] <= min_len:
            break
        take = min(excess, lengths[j] - min_len)
        lengths[j] -= take
        excess -= take
    return GlossPlan(lengths, total)


# ---------------------------------------------------------------------------
# training


@dataclass
class DurationTrainConfig:
    tau: float = 0.55
    lambda_split: float = 1.0
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 50
    grad_clip: float = 1.0
    seed: int = 0


@dataclass
class PairExample:
    features: np.ndarray
    scale: float
    allocation: np.ndarray


@dataclass
class SentenceExample:
    tokens: np.ndarray      # (K, F)
    scale: float
    allocation: np.ndarray  # (K,)


def train_gloss_predictor(
    examples: list[PairExample],
    model: GlossDurationPredictor,
    cfg: DurationTrainConfig = DurationTrainConfig(),
) -> list[float]:
    """Minimize the duration loss over gloss pairs; returns per-epoch means."""
    dtype = model.params.dtype
    feats = np.stack([ex.features for ex in examples]).astype(dtype)
    scales = np.array([ex.scale for ex in examples])[:, None].astype(dtype)
    allocs = np.stack([ex.allocation for ex in examples]).astype(dtype)
    return _fit(model, cfg, len(examples), lambda idx: ((feats[idx],), scales[idx], allocs[idx], None))


def train_sentence_predictor(
    examples: list[SentenceExample],
    model: SentenceDurationPredictor,
    cfg: DurationTrainConfig = DurationTrainConfig(tau=0.60, epochs=60),
) -> list[float]:
    """Minimize the duration loss over sentences, padded per batch to the
    longest one; returns per-epoch means."""
    dtype = model.params.dtype

    def batch(idx):
        chosen = [examples[i] for i in idx]
        k_max = max(ex.tokens.shape[0] for ex in chosen)
        tokens = np.zeros((len(chosen), k_max, chosen[0].tokens.shape[1]))
        valid = np.zeros((len(chosen), k_max), dtype=bool)
        w_target = np.zeros((len(chosen), k_max))
        s_target = np.zeros((len(chosen), 1))
        for i, ex in enumerate(chosen):
            k = ex.tokens.shape[0]
            tokens[i, :k] = ex.tokens
            valid[i, :k] = True
            w_target[i, :k] = ex.allocation
            s_target[i, 0] = ex.scale
        return (tokens, valid), s_target.astype(dtype), w_target.astype(dtype), valid

    return _fit(model, cfg, len(examples), batch)


def _fit(model, cfg: DurationTrainConfig, n: int, batch) -> list[float]:
    """AdamW with a cosine learning rate and gradient clipping over shuffled
    minibatches of n examples; returns the per-epoch mean losses.

    `batch(idx)` returns the model inputs of the examples idx, their scale and
    allocation targets cast to the parameter dtype, and the valid mask or None.
    The targets follow the parameters, not the predictions: the padding bias
    of a padded sentence batch promotes its predictions to fp64.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = nk.AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    steps_total = cfg.epochs * max(1, n // cfg.batch_size)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch_size):
            inputs, s_target, w_target, valid = batch(order[lo : lo + cfg.batch_size])
            scale, alloc = model.forward(*inputs)
            loss = duration_loss(scale, alloc, s_target, w_target, cfg.tau, cfg.lambda_split, valid)
            model.params.zero_grad()
            loss.backward()
            model.params.clip_grad_norm(cfg.grad_clip)
            opt.step(lr=nk.cosine_lr(step, steps_total, cfg.lr))
            step += 1
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return history
