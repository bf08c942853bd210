"""Per-frame reference implementation of the synthetic corpus generator.

These are the all-columns `GlossModel.evaluate` and the per-frame boundary
blend that `signweave.synth` replaced with one sine per distinct frequency
and one array blend per gloss boundary. `loop_synth_generate` draws from the
random generator in the same order as `synth_generate`. Tests compare the two
byte for byte: models, clips, sentences and pair specs.
"""
from __future__ import annotations

import numpy as np

from signweave.motion import PartLayout
from signweave.synth import AMPLITUDE_JITTER, RETRACT_FRAMES, STYLE_NOISE, TIMING_WARP, VARIANT_STRETCH


def loop_smoothstep(v):
    v = np.clip(v, 0.0, 1.0)
    return 3.0 * v**2 - 2.0 * v**3


def loop_evaluate(model: dict, u: np.ndarray, amp_scale=None, offset_shift=None) -> np.ndarray:
    """offset + amp * sin(2 pi f u), with the sine taken over every column."""
    amp = model["amp"] if amp_scale is None else model["amp"] * amp_scale
    offset = model["offset"] if offset_shift is None else model["offset"] + offset_shift
    return offset[None, :] + amp[None, :] * np.sin(2.0 * np.pi * model["freq"][None, :] * u[:, None])


def loop_bump(left: dict, right: dict, scale: float) -> np.ndarray:
    magnitude = np.sqrt(left["amp"] * right["amp"])
    pattern = np.sin(left["offset"] - right["offset"] + left["freq"] + right["freq"])
    return scale * magnitude * pattern


def loop_sentence_frames(models: list[dict], lengths: list[int], width: int,
                         coart_scale: float = 0.0) -> np.ndarray:
    """Concatenated glosses; each boundary window blended one frame at a time."""
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)
    total = int(sum(lengths))
    frames = np.concatenate([loop_evaluate(m, np.linspace(0.0, 1.0, n)) for m, n in zip(models, lengths)])
    half = width // 2
    for k in range(len(models) - 1):
        boundary = starts[k] + lengths[k]
        lo = max(boundary - half, starts[k])
        hi = min(boundary + half, total)
        bump = loop_bump(models[k], models[k + 1], coart_scale)
        for idx in range(lo, hi):
            progress = (idx - lo + 0.5) / max(hi - lo, 1)
            w = loop_smoothstep(progress)
            u_left = (idx - starts[k]) / max(lengths[k] - 1, 1)
            u_right = (idx - boundary) / max(lengths[k + 1] - 1, 1)
            left = loop_evaluate(models[k], np.array([u_left]))[0]
            right = loop_evaluate(models[k + 1], np.array([u_right]))[0]
            frames[idx] = (1.0 - w) * left + w * right + bump * np.sin(np.pi * progress)
    return frames


def _loop_model(rng, spec, layout) -> dict:
    d = layout.dim
    offset = np.zeros(d)
    amp = np.zeros(d)
    for group, (amp_lo, amp_hi, off_scale) in {"body": (0.10, 0.35, 0.30), "face": (0.03, 0.15, 0.10),
                                               "hand": (0.30, 0.80, 0.50)}.items():
        idx = layout.group_indices(group)
        amp[idx] = rng.uniform(amp_lo, amp_hi, size=len(idx))
        offset[idx] = rng.uniform(-off_scale, off_scale, size=len(idx))
    freq = rng.choice([0.5, 1.0, 1.5, 2.0], size=d)
    duration = int(rng.integers(spec.canonical_duration[0], spec.canonical_duration[1] + 1))
    return {"duration": duration, "offset": offset, "amp": amp, "freq": freq}


def _loop_clip(model: dict, rng, spec) -> tuple[np.ndarray, tuple[int, int]]:
    d = model["offset"].shape[0]
    stretch = rng.uniform(*VARIANT_STRETCH)
    core_len = max(int(round(model["duration"] * stretch)), 8)
    u = np.linspace(0.0, 1.0, core_len)
    warp = rng.uniform(-TIMING_WARP, TIMING_WARP)
    u = (1.0 - warp) * u + warp * loop_smoothstep(u)
    amp_scale = 1.0 + rng.normal(0.0, AMPLITUDE_JITTER, size=d)
    offset_shift = rng.normal(0.0, 0.02, size=d)
    core = loop_evaluate(model, u, amp_scale, offset_shift)
    core += rng.normal(0.0, STYLE_NOISE, size=d)[None, :] * np.sin(np.pi * u)[:, None]
    prep_len = int(rng.integers(spec.prep_frames[0], spec.prep_frames[1] + 1))
    retract_len = int(rng.integers(RETRACT_FRAMES[0], RETRACT_FRAMES[1] + 1))
    ramp_in = loop_smoothstep(np.arange(prep_len) / prep_len)[:, None] * core[0][None, :]
    ramp_out = loop_smoothstep(1.0 - (np.arange(retract_len) + 1) / retract_len)[:, None] * core[-1][None, :]
    return np.concatenate([ramp_in, core, ramp_out], axis=0), (prep_len, prep_len + core_len - 1)


def loop_synth_generate(spec, rounds: int = 2) -> dict:
    """The corpus as plain data: models by name, (frames, core span) clips by
    name, (glosses, frames, spans, tempo) sentences, and pair-spec tuples."""
    rng = np.random.default_rng(spec.seed)
    layout = PartLayout.base()
    names = [f"V{i:02d}" for i in range(spec.vocab_size)]
    models = {name: _loop_model(rng, spec, layout) for name in names}
    clips = {name: [_loop_clip(models[name], rng, spec) for _ in range(spec.variants_per_gloss)]
             for name in names}
    sentences = []
    for _ in range(spec.n_sentences):
        k = int(rng.integers(spec.sentence_length[0], spec.sentence_length[1] + 1))
        glosses = list(rng.choice(names, size=k))
        tempo = float(rng.uniform(*spec.sentence_tempo))
        lengths = [max(int(round(models[g]["duration"] * tempo)), 8) for g in glosses]
        frames = loop_sentence_frames([models[g] for g in glosses], lengths, spec.transition_width,
                                      spec.coarticulation_scale)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)
        spans = [(int(s), int(s + n - 1)) for s, n in zip(starts, lengths)]
        sentences.append((glosses, frames, spans, tempo))
    pairs = []
    for si, (glosses, _, _, _) in enumerate(sentences):
        for r in range(rounds):
            variants = [int(rng.integers(0, spec.variants_per_gloss)) for _ in glosses]
            for k in range(len(glosses) - 1):
                pairs.append((f"s{si:04d}.r{r}", k, glosses[k], glosses[k + 1], variants[k], variants[k + 1]))
    return {"models": models, "clips": clips, "sentences": sentences, "pairs": pairs}
