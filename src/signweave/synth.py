"""Synthetic corpus generator for desk-scale experiments.

Each synthetic gloss is a smooth parametric trajectory over the full feature
layout. Continuous ground-truth sentences blend adjacent glosses inside a
transition window of known width; isolated variants add preparation and
retraction ramps, tempo stretch, timing warp, and amplitude jitter, mirroring
the length mismatch between composed pseudo inputs and real targets.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .motion import GlossClip, MotionSequence, PartLayout, checked_frames
from .records import DialogueRecord, DialogueTurn, Sentence, WordRecord, parts_from_frames

# how an isolated variant departs from its gloss model (`_variant_clip`)
VARIANT_STRETCH = (1.15, 1.60)  # (low, high) tempo stretch of the core
RETRACT_FRAMES = (6, 14)  # (low, high) length of the retraction ramp
AMPLITUDE_JITTER = 0.06  # standard deviation of the per-feature amplitude scale
STYLE_NOISE = 0.015  # standard deviation of the per-feature style offset
TIMING_WARP = 0.25  # largest timing warp either way


@dataclass(frozen=True)
class SynthSpec:
    vocab_size: int = 30
    variants_per_gloss: int = 14
    n_sentences: int = 500
    sentence_length: tuple[int, int] = (3, 8)
    canonical_duration: tuple[int, int] = (22, 40)
    sentence_tempo: tuple[float, float] = (0.70, 0.95)
    prep_frames: tuple[int, int] = (6, 14)
    transition_width: int = 8
    # strength of the pair-specific co-articulation bump inside transitions;
    # isolated clips never contain it, so it must be learned from pair context
    coarticulation_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("vocab_size", 1), ("variants_per_gloss", 1), ("n_sentences", 0),
                            ("transition_width", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"synth.{name} must be at least {least}, got {getattr(self, name)}")
        if self.sentence_length[0] < 1:
            raise ValueError(f"synth.sentence_length must start at 1 or more, got {self.sentence_length}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple) and value[0] > value[1]:
                raise ValueError(f"synth.{f.name} is a (low, high) range, got {value}")


def smoothstep(v: np.ndarray | float) -> np.ndarray | float:
    v = np.clip(v, 0.0, 1.0)
    return 3.0 * v**2 - 2.0 * v**3


@dataclass
class GlossModel:
    """Parametric trajectory of one synthetic gloss: offset + amp * sin(2 pi f u).

    Frequencies are half-integer so the curve starts and ends at the offset
    pose, which keeps boundary transitions well defined.
    """

    name: str
    duration: int
    offset: np.ndarray
    amp: np.ndarray
    freq: np.ndarray

    def __post_init__(self):
        # A gloss draws its frequencies from a few values, so the sine is
        # taken once per distinct frequency and gathered into the columns
        # (with np.take: `wave[:, index]` would return a Fortran-ordered array).
        self._freqs, self._freq_index = np.unique(self.freq, return_inverse=True)

    def evaluate(self, u: np.ndarray, amp_scale: np.ndarray | None = None,
                 offset_shift: np.ndarray | None = None) -> np.ndarray:
        amp = self.amp if amp_scale is None else self.amp * amp_scale
        offset = self.offset if offset_shift is None else self.offset + offset_shift
        wave = np.take(np.sin(2.0 * np.pi * self._freqs[None, :] * u[:, None]), self._freq_index, axis=1)
        return offset[None, :] + amp[None, :] * wave


def _make_gloss_model(name: str, rng: np.random.Generator, spec: SynthSpec,
                      layout: PartLayout) -> GlossModel:
    d = layout.dim
    offset = np.zeros(d)
    amp = np.zeros(d)
    ranges = {
        "body": (0.10, 0.35, 0.30),
        "face": (0.03, 0.15, 0.10),
        "hand": (0.30, 0.80, 0.50),
    }
    for group, (amp_lo, amp_hi, off_scale) in ranges.items():
        idx = layout.group_indices(group)
        amp[idx] = rng.uniform(amp_lo, amp_hi, size=len(idx))
        offset[idx] = rng.uniform(-off_scale, off_scale, size=len(idx))
    freq = rng.choice([0.5, 1.0, 1.5, 2.0], size=d)
    duration = int(rng.integers(spec.canonical_duration[0], spec.canonical_duration[1] + 1))
    return GlossModel(name, duration, offset, amp, freq)


@dataclass
class SentenceSample:
    """One continuous ground-truth sentence. Its frames are built from its
    gloss models and span lengths on the first read of `frames`, since a
    pipeline rerun that hits its caches reads few or none of them."""

    sentence_id: str
    glosses: list[str]
    gloss_spans: list[tuple[int, int]]
    tempo: float
    models: list[GlossModel] = field(repr=False, compare=False)
    transition_width: int
    coarticulation_scale: float

    @cached_property
    def frames(self) -> np.ndarray:
        lengths = [end - start + 1 for start, end in self.gloss_spans]
        return _sentence_frames(self.models, lengths, self.transition_width, self.coarticulation_scale)

    @property
    def text(self) -> str:
        return " ".join(g.lower() for g in self.glosses)


@dataclass
class PairSpec:
    """One decomposed pseudo gloss pair pointing into the lexicon."""

    sentence_id: str
    pair_index: int
    gloss_a: str
    gloss_b: str
    variant_a: int
    variant_b: int


@dataclass
class SynthCorpus:
    spec: SynthSpec
    models: dict[str, GlossModel]
    clips: dict[str, list[GlossClip]]
    sentences: list[SentenceSample]
    pair_specs: list[PairSpec]
    layout: PartLayout = field(default_factory=PartLayout.base)

    def word_records(self) -> Iterator[WordRecord]:
        """One W record per clip, by gloss, each built when it is asked for."""
        for gloss in sorted(self.clips):
            for clip in self.clips[gloss]:
                yield WordRecord(
                    gloss=gloss,
                    source_info={"id": clip.source["id"], "origin": "synthetic"},
                    segment={"crop_interval": [0, clip.motion.num_frames - 1], "bbox": [0, 0, 1, 1]},
                    enrichment={"meaning": gloss.lower()},
                    is_dominant=True,
                    core_span=clip.core_span,
                    **parts_from_frames(clip.motion.frames),
                )

    def dialogue_records(self) -> Iterator[DialogueRecord]:
        """Pack consecutive sentences into user/assistant turn pairs, one
        dialogue record at a time, each built when it is asked for."""
        for i in range(0, len(self.sentences), 2):
            turns = []
            for j, role in zip((i, i + 1), ("user", "assistant")):
                if j >= len(self.sentences):
                    break
                s = self.sentences[j]
                turns.append(DialogueTurn(role, [Sentence(
                    text=s.text,
                    glosses=list(s.glosses),
                    frames=parts_from_frames(s.frames),
                    gloss_spans=list(s.gloss_spans),
                )]))
            yield DialogueRecord(turns)


class ClipMotion(MotionSequence):
    """A variant clip's motion: its preparation ramp, core and retraction
    ramp. The length is known from the draws, so the clip's span check and
    qc read no frame; the frames are built from the draws on the first read
    of `frames`, since a pipeline rerun that hits its caches reads few or
    none of them. Its `fps` is `MotionSequence`'s default."""

    def __init__(self, model: GlossModel, core_len: int, warp: float, amp_scale: np.ndarray,
                 offset_shift: np.ndarray, style: np.ndarray, prep_len: int, retract_len: int):
        self.model, self.core_len, self.warp = model, core_len, warp
        self.amp_scale, self.offset_shift, self.style = amp_scale, offset_shift, style
        self.prep_len, self.retract_len = prep_len, retract_len

    @cached_property
    def frames(self) -> np.ndarray:
        u = np.linspace(0.0, 1.0, self.core_len)
        u = (1.0 - self.warp) * u + self.warp * smoothstep(u)
        core = self.model.evaluate(u, self.amp_scale, self.offset_shift)
        core += self.style[None, :] * np.sin(np.pi * u)[:, None]
        ramp_in = smoothstep(np.arange(self.prep_len) / self.prep_len)[:, None] * core[0][None, :]
        ramp_out = (smoothstep(1.0 - (np.arange(self.retract_len) + 1) / self.retract_len)[:, None]
                    * core[-1][None, :])
        return checked_frames(np.concatenate([ramp_in, core, ramp_out], axis=0))

    @property
    def num_frames(self) -> int:
        return self.prep_len + self.core_len + self.retract_len


def _variant_clip(model: GlossModel, variant: int, rng: np.random.Generator, spec: SynthSpec) -> GlossClip:
    """One isolated variant of a gloss. Its draws come in a fixed order:
    stretch, warp, amplitude scale, offset shift, style noise, then the prep
    and retract lengths."""
    d = model.offset.shape[0]
    stretch = rng.uniform(*VARIANT_STRETCH)
    core_len = max(int(round(model.duration * stretch)), 8)
    warp = rng.uniform(-TIMING_WARP, TIMING_WARP)
    amp_scale = 1.0 + rng.normal(0.0, AMPLITUDE_JITTER, size=d)
    offset_shift = rng.normal(0.0, 0.02, size=d)
    style = rng.normal(0.0, STYLE_NOISE, size=d)
    prep_len = int(rng.integers(spec.prep_frames[0], spec.prep_frames[1] + 1))
    retract_len = int(rng.integers(RETRACT_FRAMES[0], RETRACT_FRAMES[1] + 1))
    motion = ClipMotion(model, core_len, warp, amp_scale, offset_shift, style, prep_len, retract_len)
    return GlossClip(model.name, motion, (prep_len, prep_len + core_len - 1),
                     {"id": f"{model.name}.v{variant}", "variant": variant})


def coarticulation_bump(left: GlossModel, right: GlossModel, scale: float) -> np.ndarray:
    """Deterministic pair-specific articulation offset active inside transitions.

    Models the anticipatory adaptation between adjacent signs: a compromise
    configuration that depends on both glosses, not a positional blend.
    """
    magnitude = np.sqrt(left.amp * right.amp)
    pattern = np.sin(left.offset - right.offset + left.freq + right.freq)
    return scale * magnitude * pattern


@lru_cache(maxsize=None)
def _blend_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame blend weight and bump envelope of an n-frame transition window.

    Computed one frame at a time on numpy scalars: numpy's array `v**3` can
    differ in the last bit from the scalar power, which would move the corpus.
    n never exceeds the transition width, so the cache stays small.
    """
    progress = [(i + 0.5) / n for i in range(n)]
    w = np.array([smoothstep(p) for p in progress])
    envelope = np.array([np.sin(np.pi * p) for p in progress])
    w.flags.writeable = envelope.flags.writeable = False
    return w, envelope


def _sentence_frames(models: list[GlossModel], lengths: list[int], width: int,
                     coart_scale: float = 0.0) -> np.ndarray:
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)
    total = int(sum(lengths))
    frames = np.concatenate([
        m.evaluate(np.linspace(0.0, 1.0, n)) for m, n in zip(models, lengths)
    ])
    half = width // 2
    # A window can reach past the next boundary when glosses are shorter than
    # the width; later boundaries overwrite earlier ones.
    for k in range(len(models) - 1):
        boundary = starts[k] + lengths[k]
        lo = max(boundary - half, starts[k])
        hi = min(boundary + half, total)
        idx = np.arange(lo, hi)
        w, envelope = _blend_weights(hi - lo)
        left = models[k].evaluate((idx - starts[k]) / max(lengths[k] - 1, 1))
        right = models[k + 1].evaluate((idx - boundary) / max(lengths[k + 1] - 1, 1))
        bump = coarticulation_bump(models[k], models[k + 1], coart_scale)
        frames[lo:hi] = ((1.0 - w)[:, None] * left + w[:, None] * right
                         + bump[None, :] * envelope[:, None])
    return frames


def synth_generate(spec: SynthSpec, rounds: int = 2) -> SynthCorpus:
    """Deterministic corpus: lexicon clips, blended continuous sentences, and
    decomposed pseudo gloss pairs (rounds compositions per sentence).

    Generating draws every random number; building frames draws none. So a
    clip's frames are left for the first read of its `motion.frames`
    (`ClipMotion`), and a sentence's for the first read of
    `SentenceSample.frames`."""
    rng = np.random.default_rng(spec.seed)
    layout = PartLayout.base()
    names = [f"V{i:02d}" for i in range(spec.vocab_size)]
    models = {name: _make_gloss_model(name, rng, spec, layout) for name in names}

    clips = {
        name: [_variant_clip(models[name], v, rng, spec) for v in range(spec.variants_per_gloss)]
        for name in names
    }

    sentences = []
    for si in range(spec.n_sentences):
        k = int(rng.integers(spec.sentence_length[0], spec.sentence_length[1] + 1))
        glosses = list(rng.choice(names, size=k))
        tempo = float(rng.uniform(*spec.sentence_tempo))
        lengths = [max(int(round(models[g].duration * tempo)), 8) for g in glosses]
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)
        spans = [(int(s), int(s + n - 1)) for s, n in zip(starts, lengths)]
        sentences.append(SentenceSample(f"s{si:04d}", glosses, spans, tempo, [models[g] for g in glosses],
                                        spec.transition_width, spec.coarticulation_scale))

    pair_specs = []
    for sample in sentences:
        for r in range(rounds):
            variants = {i: int(rng.integers(0, spec.variants_per_gloss)) for i in range(len(sample.glosses))}
            for k in range(len(sample.glosses) - 1):
                pair_specs.append(PairSpec(
                    sentence_id=f"{sample.sentence_id}.r{r}",
                    pair_index=k,
                    gloss_a=sample.glosses[k],
                    gloss_b=sample.glosses[k + 1],
                    variant_a=variants[k],
                    variant_b=variants[k + 1],
                ))
    return SynthCorpus(spec, models, clips, sentences, pair_specs, layout)
