"""Stage orchestration: synthetic corpus, QC, trimming, predictor and denoiser
training, pair composition, sentence stitching, and evaluation.

Stages persist their outputs under the work directory with a manifest that
records the config hash, the seed, the files written and the report so far.
A stage hits, and is reused, when its manifest's hash matches the config,
every file it lists exists, and every stage before it hit; a rerun whose
stages all hit returns the stored report without loading anything. Every
file is written whole or not at all, the manifest last.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .duration import (
    DurationModelConfig,
    DurationTrainConfig,
    GlossDurationPredictor,
    GlossPlan,
    PairExample,
    SentenceDurationPredictor,
    SentenceExample,
    integer_plan,
    pair_features,
    sentence_token_features,
    target_allocation,
    target_scale,
    train_gloss_predictor,
    train_sentence_predictor,
)
from .inpaint import (
    Denoiser,
    DenoiserConfig,
    DiffusionSchedule,
    InpaintTrainConfig,
    PairItem,
    ddim_refine,
    linear_transition_baseline,
    make_boundary_mask,
    train_inpainter,
)
from .metrics import SyntheticSkeletonAdapter, dtw_alignments, fgd, length_ratio, procrustes_path_error
from .motion import MotionSequence, resample_frames, write_motion
from .neuralkit import load_checkpoint, restore_into, save_checkpoint
from .qc import QcConfig, qc_filters
from .records import export_canonical
from .stitch import assemble_sentence
from .synth import SynthCorpus, SynthSpec, synth_generate
from .trimming import TrimConfig, trim

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    work_dir: str = "work"
    seed: int = 0
    synth: SynthSpec = field(default_factory=SynthSpec)
    pair_rounds: int = 2
    holdout_fraction: float = 0.08
    trim: TrimConfig = field(default_factory=TrimConfig)
    qc: QcConfig = field(default_factory=QcConfig)
    dur_model: DurationModelConfig = field(default_factory=DurationModelConfig)
    dur_gloss: DurationTrainConfig = field(default_factory=lambda: DurationTrainConfig(tau=0.55, epochs=30))
    dur_sent: DurationTrainConfig = field(default_factory=lambda: DurationTrainConfig(tau=0.60, epochs=40))
    min_gloss_len: int = 4
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    inpaint_train: InpaintTrainConfig = field(default_factory=lambda: InpaintTrainConfig(ema_decay=0.995))
    ddim_steps: int = 50
    inference_radius: int = 10
    baseline_transition_frames: int = 4


# stage order with the config fields each stage depends on (cumulative hashing)
STAGE_FIELDS = [
    ("synth", ["seed", "synth", "pair_rounds", "holdout_fraction"]),
    ("qc", ["qc"]),
    ("trim", ["trim"]),
    ("duration", ["dur_model", "dur_gloss", "dur_sent", "min_gloss_len"]),
    ("inpaint", ["denoiser", "inpaint_train"]),
    ("compose", ["ddim_steps", "inference_radius", "baseline_transition_frames"]),
    ("eval", []),
]

STAGES = tuple(name for name, _ in STAGE_FIELDS)

# the stages `run_pipeline` can stop after; synth, qc and trim run as one
# prepare step before them
RUN_STAGES = ("duration", "inpaint", "compose", "eval")

# Part of every stage hash. Bump it whenever a change alters what a stage
# writes, so that a work directory from older code is recomputed, not reused.
SCHEMA_VERSION = 1


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, np.generic):
        return value.item()
    if callable(value):
        return getattr(value, "__name__", "callable")
    return value


def config_to_dict(config: PipelineConfig) -> dict:
    return _jsonable(config)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Rebuild a config from `config_to_dict` output, or any subset of its keys.

    A nested section takes the keys it gives and keeps `PipelineConfig()`'s
    values (what `show-config` prints) for the rest."""
    defaults = PipelineConfig()
    kwargs = {}
    for key, value in raw.items():
        if key not in _field_names(defaults):
            raise ValueError(f"unknown config key {key}")
        current = getattr(defaults, key)
        if not dataclasses.is_dataclass(current):
            kwargs[key] = value
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config key {key} names a nested config and needs an object")
        clean = {}
        for k, v in value.items():
            if k not in _field_names(current):
                raise ValueError(f"unknown config key {key}.{k}")
            if isinstance(v, list):
                v = tuple(v)
            if k == "dtype":
                v = {"float32": np.float32, "float64": np.float64}[v]
            clean[k] = v
        kwargs[key] = dataclasses.replace(current, **clean)
    return PipelineConfig(**kwargs)


def _field_names(obj) -> set[str]:
    return {f.name for f in dataclasses.fields(obj)}


def stage_hash(config: PipelineConfig, stage: str) -> str:
    """Hash of every config field the stage (and its predecessors) depends
    on, and of SCHEMA_VERSION."""
    payload = {"schema_version": SCHEMA_VERSION}
    for name, fields in STAGE_FIELDS:
        for f in fields:
            payload[f] = _jsonable(getattr(config, f))
        if name == stage:
            break
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def apply_overrides(config: PipelineConfig, overrides: list[str]) -> PipelineConfig:
    """Apply dotted key=value overrides, coercing to the current field type."""
    for item in overrides:
        key, _, raw = item.partition("=")
        if not raw:
            raise ValueError(f"override {item!r} must look like key.path=value")
        *path, leaf = key.split(".")
        target = config
        for part in path:
            target = getattr(target, part) if part in _field_names(target) else None
            if not dataclasses.is_dataclass(target):
                raise ValueError(f"unknown config key {key}")
        if leaf not in _field_names(target):
            raise ValueError(f"unknown config key {key}")
        current = getattr(target, leaf)
        if dataclasses.is_dataclass(current):
            raise ValueError(f"config key {key} names a nested config; set {key}.<field>=value")
        if isinstance(current, bool):
            value = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        elif isinstance(current, tuple):
            value = tuple(type(current[0])(v) for v in raw.split(","))
        else:
            value = raw
        if type(target).__dataclass_params__.frozen:
            raise ValueError(f"field {key} belongs to a frozen config; set it in the config file")
        setattr(target, leaf, value)
    return config


@contextmanager
def atomic_path(path: Path):
    """A temporary path beside `path` to write to; on a clean exit it
    replaces `path` in one step, so `path` is never a partial file. On an
    exception the temporary file is removed and `path` is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


class StageStore:
    """Per-stage manifests under the work directory.

    A store checks stages in order. A stage hits when its manifest's
    config_hash matches, every output the manifest lists exists, and every
    stage checked before it on this store hit. The first check of a stage
    decides it for the store, so that `run_pipeline`'s up-front check and the
    stage's own check agree. Checking creates no directory.
    """

    def __init__(self, work_dir: str | Path):
        self.root = Path(work_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._hits: dict[str, bool] = {}

    def manifest_path(self, stage: str) -> Path:
        return self.root / stage / "manifest.json"

    def manifest(self, stage: str) -> dict | None:
        """The stage's manifest, or None when it is missing or not a JSON object."""
        try:
            manifest = json.loads(self.manifest_path(stage).read_text())
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def is_done(self, stage: str, config_hash: str) -> bool:
        if stage not in self._hits:
            manifest = self.manifest(stage) or {}
            outputs = manifest.get("outputs")
            self._hits[stage] = (
                all(self._hits.values())
                and manifest.get("config_hash") == config_hash
                and isinstance(outputs, list)
                and all(isinstance(o, str) and (self.root / stage / o).is_file() for o in outputs)
            )
        return self._hits[stage]

    def begin(self, stage: str) -> Path:
        """Start recomputing `stage` and return its directory. The stage and
        every later one miss from now on, and their manifests are deleted
        before any output is written, so that an interrupted recompute never
        leaves a manifest over a mix of old and new files."""
        for name in STAGES[STAGES.index(stage):]:
            self._hits[name] = False
            self.manifest_path(name).unlink(missing_ok=True)
        d = self.root / stage
        d.mkdir(parents=True, exist_ok=True)
        return d

    def write_manifest(self, stage: str, config_hash: str, seed: int, outputs: list[str],
                       extra: dict | None = None) -> None:
        manifest = {"stage": stage, "config_hash": config_hash, "seed": seed, "outputs": outputs}
        if extra:
            manifest.update(extra)
        _write_text(self.manifest_path(stage), json.dumps(manifest, sort_keys=True, indent=1))


# ---------------------------------------------------------------------------
# stage implementations


@dataclass
class PreparedData:
    corpus: SynthCorpus
    cores: dict[str, np.ndarray]          # clip id -> trimmed core frames
    train_ids: list[str]
    eval_ids: list[str]
    trim_fallbacks: int = 0

    @cached_property
    def round_variants(self) -> dict[str, dict[int, int]]:
        """Round id (sentence id + ".r<n>") -> {gloss index: clip variant},
        for the rounds that have pair specs, in pair-spec order."""
        variants: dict[str, dict[int, int]] = {}
        for spec in self.corpus.pair_specs:
            by_index = variants.setdefault(spec.sentence_id, {})
            by_index[spec.pair_index] = spec.variant_a
            by_index[spec.pair_index + 1] = spec.variant_b
        return variants


def _split_sentences(corpus: SynthCorpus, holdout: float, seed: int) -> tuple[list[str], list[str]]:
    ids = [s.sentence_id for s in corpus.sentences]
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(ids))
    n_eval = max(int(round(len(ids) * holdout)), 1)
    eval_idx = set(order[:n_eval].tolist())
    train = [ids[i] for i in range(len(ids)) if i not in eval_idx]
    held = [ids[i] for i in range(len(ids)) if i in eval_idx]
    return train, held


def write_corpus(corpus: SynthCorpus, directory: Path) -> int:
    """Write the corpus as canonical `words.json` (W) and `dialogues.json`
    (U) records, each file atomically; return the number of word records."""
    words = corpus.word_records()
    for name, records, schema in (("words.json", words, "W"),
                                  ("dialogues.json", corpus.dialogue_records(), "U")):
        with atomic_path(directory / name) as tmp:
            export_canonical(records, tmp, schema)
    return len(words)


def prepare_data(config: PipelineConfig, store: StageStore) -> PreparedData:
    """Stages synth + qc + trim. The corpus is regenerated on every call, as
    it is deterministic and cheap: about 20 ms at 6 glosses x 3 variants x 24
    sentences and 0.5 s for the default corpus, on one core of a 2-core
    machine. A stage that hits skips its writes, and a trim hit reads its
    spans back."""
    t0 = time.time()
    corpus = synth_generate(config.synth, rounds=config.pair_rounds)
    h_synth = stage_hash(config, "synth")
    if not store.is_done("synth", h_synth):
        write_corpus(corpus, store.begin("synth"))
        store.write_manifest("synth", h_synth, config.seed,
                             ["words.json", "dialogues.json"],
                             {"sentences": len(corpus.sentences), "pairs": len(corpus.pair_specs)})
    log.info("synth ready in %.1fs", time.time() - t0)

    h_qc = stage_hash(config, "qc")
    kept = 0
    for gloss, clips in corpus.clips.items():
        filtered = []
        for clip in clips:
            result = qc_filters(clip, config.qc)
            if result.keep:
                filtered.append(result.clip)
                kept += 1
        corpus.clips[gloss] = filtered
    if not store.is_done("qc", h_qc):
        store.begin("qc")
        store.write_manifest("qc", h_qc, config.seed, [], {"kept_clips": kept})

    h_trim = stage_hash(config, "trim")
    clip_ids = [clip.source["id"] for clips in corpus.clips.values() for clip in clips]
    spans = _read_spans(store.root / "trim" / "spans.json", clip_ids) if store.is_done("trim", h_trim) else None
    if spans is not None:
        fallbacks = (store.manifest("trim") or {}).get("fallbacks", 0)
    else:
        # spans that do not decode are a miss too; a clip whose trim falls
        # back keeps its annotated core span
        trim_dir = store.begin("trim")
        fallbacks = 0
        spans = {}
        for clips in corpus.clips.values():
            for clip in clips:
                result = trim(clip, None, config.trim)
                fell_back = "boundary-fallback" in result.flags or "span-too-short" in result.flags
                fallbacks += int(fell_back)
                span = clip.core_span if fell_back else result.span
                spans[clip.source["id"]] = [int(span[0]), int(span[1])]
        _write_text(trim_dir / "spans.json", json.dumps(spans, sort_keys=True))
        store.write_manifest("trim", h_trim, config.seed, ["spans.json"], {"fallbacks": fallbacks})

    cores = {}
    for gloss, clips in corpus.clips.items():
        for clip in clips:
            cid = clip.source["id"]
            s, e = spans[cid]
            cores[cid] = clip.motion.frames[s : e + 1]
    train_ids, eval_ids = _split_sentences(corpus, config.holdout_fraction, config.seed)
    return PreparedData(corpus, cores, train_ids, eval_ids, fallbacks)


def _read_spans(path: Path, clip_ids: list[str]) -> dict[str, list[int]] | None:
    """The trim spans stored at `path`, or None unless it holds an object
    with a [start, end] pair of integers for every clip id."""
    try:
        spans = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(spans, dict):
        return None
    for cid in clip_ids:
        span = spans.get(cid)
        if not (isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)):
            return None
    return spans


def _pairs(data: PreparedData, held_out: bool):
    """(spec, sample, a, b) for each pair spec of the training sentences, or of
    the held-out ones: the spec, its sentence and the two trimmed cores."""
    by_id = {s.sentence_id: s for s in data.corpus.sentences}
    train_set = set(data.train_ids)
    for spec in data.corpus.pair_specs:
        sid = spec.sentence_id.rsplit(".r", 1)[0]
        if (sid not in train_set) != held_out:
            continue
        a = data.cores[f"{spec.gloss_a}.v{spec.variant_a}"]
        b = data.cores[f"{spec.gloss_b}.v{spec.variant_b}"]
        yield spec, by_id[sid], a, b


def _pair_examples(data: PreparedData, window: int, held_out: bool) -> list[PairExample]:
    """Pair examples of the training sentences, or of the held-out ones."""
    examples = []
    for spec, sample, a, b in _pairs(data, held_out):
        sa, ea = sample.gloss_spans[spec.pair_index]
        sb, eb = sample.gloss_spans[spec.pair_index + 1]
        la, lb = ea - sa + 1, eb - sb + 1
        feats = pair_features(a, b, window)
        scale = target_scale(a.shape[0] + b.shape[0], la + lb)
        alloc = np.array([la, lb], dtype=np.float64)
        examples.append(PairExample(feats, scale, alloc / alloc.sum()))
    return examples


def build_duration_examples(data: PreparedData, window: int) -> tuple[list[PairExample], list[SentenceExample]]:
    """Training pair examples and sentence examples from the corpus; the
    held-out pairs are built by `evaluate_duration`.

    A training sentence gives one sentence example per round that has pair
    specs, built from that round's clip variants."""
    by_id = {s.sentence_id: s for s in data.corpus.sentences}
    train_set = set(data.train_ids)
    sent_examples: list[SentenceExample] = []
    for round_id, variants in data.round_variants.items():
        sid = round_id.rsplit(".r", 1)[0]
        if sid not in train_set:
            continue
        sample = by_id[sid]
        segments = [data.cores[f"{g}.v{variants[i]}"] for i, g in enumerate(sample.glosses)]
        tokens = sentence_token_features(segments)
        t_src = sum(seg.shape[0] for seg in segments)
        scale = target_scale(t_src, sample.frames.shape[0])
        alloc = target_allocation(sample.gloss_spans)
        sent_examples.append(SentenceExample(tokens, scale, alloc))
    return _pair_examples(data, window, held_out=False), sent_examples


def _restored(model, path: Path):
    """`model`, built without drawing its parameters, with the checkpoint
    at `path` restored into them."""
    restore_into(model.params, load_checkpoint(path))
    return model


def _save_checkpoint(path: Path, params) -> None:
    with atomic_path(path) as tmp:
        save_checkpoint(tmp, params)


def train_duration_stage(config: PipelineConfig, store: StageStore, data: PreparedData):
    h = stage_hash(config, "duration")
    if store.is_done("duration", h):
        stage_dir = store.root / "duration"
        return (_restored(GlossDurationPredictor(config.dur_model, seed=None), stage_dir / "gloss.ckpt"),
                _restored(SentenceDurationPredictor(config.dur_model, seed=None), stage_dir / "sent.ckpt"))
    stage_dir = store.begin("duration")
    gloss_model = GlossDurationPredictor(config.dur_model, seed=config.seed)
    sent_model = SentenceDurationPredictor(config.dur_model, seed=config.seed)
    train_pairs, sent_examples = build_duration_examples(data, config.dur_model.window)
    t0 = time.time()
    train_gloss_predictor(train_pairs, gloss_model, config.dur_gloss)
    train_sentence_predictor(sent_examples, sent_model, config.dur_sent)
    _save_checkpoint(stage_dir / "gloss.ckpt", gloss_model.params)
    _save_checkpoint(stage_dir / "sent.ckpt", sent_model.params)
    store.write_manifest("duration", h, config.seed, ["gloss.ckpt", "sent.ckpt"],
                         {"train_pairs": len(train_pairs), "sentences": len(sent_examples),
                          "seconds": round(time.time() - t0, 1)})
    return gloss_model, sent_model


def duration_adjust_pair(a: np.ndarray, b: np.ndarray, gloss_model: GlossDurationPredictor,
                         window: int, min_len: int) -> tuple[np.ndarray, GlossPlan]:
    pred = gloss_model.predict(pair_features(a, b, window))
    plan = integer_plan(a.shape[0] + b.shape[0], pred, min_len)
    adjusted = np.concatenate([resample_frames(a, plan.lengths[0]), resample_frames(b, plan.lengths[1])])
    return adjusted, plan


def build_inpaint_items(config: PipelineConfig, data: PreparedData,
                        gloss_model: GlossDurationPredictor) -> list[PairItem]:
    items = []
    for spec, sample, a, b in _pairs(data, held_out=False):
        adjusted, plan = duration_adjust_pair(a, b, gloss_model, config.dur_model.window,
                                              config.min_gloss_len)
        sa, ea = sample.gloss_spans[spec.pair_index]
        sb, eb = sample.gloss_spans[spec.pair_index + 1]
        target = np.concatenate([
            resample_frames(sample.frames[sa : ea + 1], plan.lengths[0]),
            resample_frames(sample.frames[sb : eb + 1], plan.lengths[1]),
        ])
        items.append(PairItem(adjusted, target, plan.lengths[0]))
    return items


def train_inpaint_stage(config: PipelineConfig, store: StageStore, data: PreparedData,
                        gloss_model: GlossDurationPredictor) -> tuple[Denoiser | None, DiffusionSchedule]:
    """The trained denoiser, or None with `inpaint_train.steps` <= 0. A stage
    whose manifest matches but whose checkpoint was removed misses, and
    composes with the linear fallback (None) rather than retraining."""
    schedule = DiffusionSchedule()
    h = stage_hash(config, "inpaint")
    ckpt = store.root / "inpaint" / "denoiser.ckpt"
    if store.is_done("inpaint", h):
        if config.inpaint_train.steps <= 0:
            return None, schedule
        return _restored(Denoiser(config.denoiser, seed=None), ckpt), schedule
    if (store.manifest("inpaint") or {}).get("config_hash") == h:
        log.warning("inpaint manifest present but %s is missing; composing with the linear fallback", ckpt)
        return None, schedule
    store.begin("inpaint")
    if config.inpaint_train.steps <= 0:
        store.write_manifest("inpaint", h, config.seed, [])
        return None, schedule
    denoiser = Denoiser(config.denoiser, seed=config.seed)
    items = build_inpaint_items(config, data, gloss_model)
    t0 = time.time()
    history = train_inpainter(items, denoiser, schedule, config.inpaint_train)
    _save_checkpoint(ckpt, denoiser.params)
    store.write_manifest("inpaint", h, config.seed, ["denoiser.ckpt"],
                         {"train_items": len(items), "final_loss": history[-1] if history else None,
                          "seconds": round(time.time() - t0, 1)})
    return denoiser, schedule


@dataclass
class ComposedSentence:
    sentence_id: str
    ours: MotionSequence
    baseline: MotionSequence
    fallback: bool = False


def compose_and_stitch(
    config: PipelineConfig,
    data: PreparedData,
    gloss_model: GlossDurationPredictor,
    sent_model: SentenceDurationPredictor,
    denoiser: Denoiser | None,
    schedule: DiffusionSchedule,
    sentence_ids: list[str] | None = None,
) -> list[ComposedSentence]:
    """Refine each adjacent pair and assemble sentence-level motion.

    When no denoiser is available, the refined path falls back to the linear
    transition baseline (recorded per sentence). The baseline path always uses
    plain concatenation with four transition frames and no duration plan.
    """
    by_id = {s.sentence_id: s for s in data.corpus.sentences}
    ids = sentence_ids if sentence_ids is not None else data.eval_ids

    ema_swap = None
    if denoiser is not None:
        ema_swap = denoiser.params.swap_in_ema()
    out = []
    try:
        for sid in ids:
            sample = by_id[sid]
            variants = data.round_variants.get(f"{sid}.r0", {})
            segments = [data.cores[f"{g}.v{variants.get(i, 0)}"] for i, g in enumerate(sample.glosses)]
            k = len(segments)
            digest = int(hashlib.sha256(sid.encode("utf-8")).hexdigest()[:8], 16)
            rng = np.random.default_rng(config.seed + digest)

            refined_pairs = []
            baseline_pairs = []
            fallback = denoiser is None
            for i in range(k - 1):
                a, b = segments[i], segments[i + 1]
                base_frames, base_boundary = linear_transition_baseline(
                    a, b, config.baseline_transition_frames)
                baseline_pairs.append((base_frames, base_boundary))
                if denoiser is None:
                    refined_pairs.append((base_frames, base_boundary))
                    continue
                adjusted, plan = duration_adjust_pair(a, b, gloss_model,
                                                      config.dur_model.window, config.min_gloss_len)
                mask = make_boundary_mask(plan.lengths[0], plan.lengths[1], config.inference_radius)
                refined = ddim_refine(adjusted, mask, denoiser, schedule,
                                      steps=config.ddim_steps, rng=rng)
                refined_pairs.append((refined, plan.lengths[0]))

            if k == 1:
                # single-gloss sentences bypass pairing entirely
                pred = sent_model.predict(segments)
                plan = integer_plan(segments[0].shape[0], pred, config.min_gloss_len)
                ours = assemble_sentence([(segments[0], 0)], GlossPlan([plan.total], plan.total))
                baseline = MotionSequence(segments[0].copy())
            else:
                pred = sent_model.predict(segments)
                t_src = sum(seg.shape[0] for seg in segments)
                plan = integer_plan(t_src, pred, config.min_gloss_len)
                ours = assemble_sentence(refined_pairs, plan)
                baseline = assemble_sentence(baseline_pairs, _natural_plan(baseline_pairs, k))
            out.append(ComposedSentence(sid, ours, baseline, fallback))
    finally:
        if denoiser is not None and ema_swap is not None:
            denoiser.params.restore(ema_swap)
    return out


def _natural_plan(pairs: list[tuple[np.ndarray, int]], k: int) -> GlossPlan:
    """Stitching plan without the sentence-duration predictor: natural lengths."""
    lengths = []
    for gi in range(k):
        if gi == 0:
            lengths.append(pairs[0][1])
        elif gi == k - 1:
            frames, boundary = pairs[-1]
            lengths.append(frames.shape[0] - boundary)
        else:
            right_len = pairs[gi - 1][0].shape[0] - pairs[gi - 1][1]
            left_len = pairs[gi][1]
            lengths.append((right_len + left_len + 1) // 2)
    return GlossPlan(lengths, sum(lengths))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_composed(
    composed: list[ComposedSentence],
    data: PreparedData,
    adapter: SyntheticSkeletonAdapter | None = None,
    dump_paths: bool = False,
) -> dict:
    """Sentence-level metrics table for the refined and baseline outputs.

    With dump_paths, the DTW alignment path of each output against its
    reference is included for debugging.
    """
    adapter = adapter if adapter is not None else SyntheticSkeletonAdapter()
    by_id = {s.sentence_id: s for s in data.corpus.sentences}
    joints = np.concatenate([adapter.body_joints, adapter.hand_joints])
    # metric -> point subset; the plain and Procrustes-aligned overall errors
    # share the overall alignment
    subsets = {
        "dtw_mpjpe_body": adapter.body_joints,
        "dtw_mpjpe_hands": adapter.hand_joints,
        "dtw_mpjpe_overall": joints,
        "dtw_mpvpe_face": adapter.face_vertices,
    }
    rows = []
    paths = []
    pooled: dict[str, list[np.ndarray]] = {"ours": [], "baseline": [], "reference": []}
    lengths: dict[str, list[float]] = {"ours": [], "baseline": [], "reference": []}
    for item in composed:
        sample = by_id[item.sentence_id]
        ref_pts = adapter.to_points(sample.frames)
        pooled["reference"].append(sample.frames)
        lengths["reference"].append(sample.frames.shape[0])
        for method, seq in (("ours", item.ours), ("baseline", item.baseline)):
            pts = adapter.to_points(seq.frames)
            aligned = dict(zip(subsets, dtw_alignments(pts, ref_pts, list(subsets.values()))))
            row = {"sentence_id": item.sentence_id, "method": method}
            row.update({key: total / len(path) for key, (path, total) in aligned.items()})
            path, total = aligned["dtw_mpjpe_overall"]
            row["dtw_pa_mpjpe"] = procrustes_path_error(pts[:, joints], ref_pts[:, joints], path)
            row.update({"pred_frames": seq.num_frames, "ref_frames": sample.frames.shape[0],
                        "fallback": item.fallback})
            rows.append(row)
            pooled[method].append(seq.frames)
            lengths[method].append(seq.num_frames)
            if dump_paths:
                paths.append({
                    "sentence_id": item.sentence_id,
                    "method": method,
                    "total_cost": total,
                    "path": path.tolist(),
                })
    summary = {}
    for method in ("ours", "baseline"):
        method_rows = [r for r in rows if r["method"] == method]
        summary[method] = {
            key: float(np.mean([r[key] for r in method_rows]))
            for key in ("dtw_mpjpe_body", "dtw_mpjpe_hands", "dtw_mpjpe_overall",
                        "dtw_mpvpe_face", "dtw_pa_mpjpe")
        }
        summary[method]["length_ratio"] = length_ratio(lengths[method], lengths["reference"])
        summary[method]["fgd"] = fgd(np.concatenate(pooled[method]), np.concatenate(pooled["reference"]))
    out = {"rows": rows, "summary": summary}
    if dump_paths:
        out["paths"] = paths
    return out


def evaluate_duration(data: PreparedData, gloss_model: GlossDurationPredictor, window: int) -> dict:
    """Held-out scale-prediction error against the identity baseline."""
    eval_pairs = _pair_examples(data, window, held_out=True)
    if not eval_pairs:
        return {"model_mae": float("nan"), "identity_mae": float("nan"), "pairs": 0}
    model_errors = []
    identity_errors = []
    for ex in eval_pairs:
        pred = gloss_model.predict(ex.features)
        model_errors.append(abs(pred.scale - ex.scale))
        identity_errors.append(abs(ex.scale))
    model_mae = float(np.mean(model_errors))
    identity_mae = float(np.mean(identity_errors))
    return {
        "model_mae": model_mae,
        "identity_mae": identity_mae,
        "improvement": 1.0 - model_mae / identity_mae if identity_mae > 0 else float("nan"),
        "pairs": len(eval_pairs),
    }


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _stored_report(config: PipelineConfig, store: StageStore, until: str, dump_paths: bool) -> dict | None:
    """The report `until`'s manifest stored, when every stage through `until`
    hits; with dump_paths, only if the eval manifest lists paths.jsonl."""
    for stage in STAGES[: STAGES.index(until) + 1]:
        if not store.is_done(stage, stage_hash(config, stage)):
            return None
    manifest = store.manifest(until) or {}
    if dump_paths and "paths.jsonl" not in manifest.get("outputs", []):
        return None
    report = manifest.get("report")
    return report if isinstance(report, dict) else None


def _stage_report(config: PipelineConfig, stage: str, report: dict) -> dict:
    """The report so far as `stage`'s manifest stores it: under the stage's
    own hash, without timings."""
    return {k: v for k, v in report.items() if k != "timings"} | {"config_hash": stage_hash(config, stage)}


def _record_report(config: PipelineConfig, store: StageStore, stage: str, report: dict) -> None:
    """Add the report so far to the manifest a training stage wrote, unless
    it holds that report already."""
    manifest = store.manifest(stage)
    stored = _stage_report(config, stage, report)
    if manifest is not None and manifest.get("report") != stored:
        manifest["report"] = stored
        _write_text(store.manifest_path(stage), json.dumps(manifest, sort_keys=True, indent=1))


def run_pipeline(config: PipelineConfig, until: str = "eval", dump_paths: bool = False) -> dict:
    """Run the stages in order through `until` and return the report so far.

    When every stage through `until` hits (see StageStore; with dump_paths,
    the eval stage must also have written paths.jsonl), the report that
    stage stored is returned with this run's timings, and nothing is loaded.
    Otherwise prepare, duration and inpaint are reused up to the first stage
    that misses, and that stage and every later one are recomputed; compose
    and eval are always recomputed together, because eval scores the
    in-memory frames, which the float32 SVMX files do not hold exactly.
    The report after duration already holds the held-out duration
    evaluation. The eval stage also writes metrics.jsonl and report.json
    under eval/, and paths.jsonl with the DTW alignment paths when dump_paths
    is set.
    """
    if until not in RUN_STAGES:
        raise ValueError(f"unknown stage {until!r}; expected one of {', '.join(RUN_STAGES)}")
    store = StageStore(config.work_dir)
    timings: dict[str, float] = {}
    t0 = time.time()

    def lap(stage: str) -> None:
        nonlocal t0
        timings[stage] = round(time.time() - t0, 2)
        t0 = time.time()

    stored = _stored_report(config, store, until, dump_paths)
    if stored is not None:
        lap("cached")
        return stored | {"timings": timings}

    report = {"config_hash": stage_hash(config, until), "seed": config.seed, "timings": timings}
    data = prepare_data(config, store)
    report.update(trim_fallbacks=data.trim_fallbacks, eval_sentences=len(data.eval_ids))
    lap("prepare")

    gloss_model, sent_model = train_duration_stage(config, store, data)
    report["duration_eval"] = evaluate_duration(data, gloss_model, config.dur_model.window)
    _record_report(config, store, "duration", report)
    lap("duration")
    if until == "duration":
        return report

    denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
    _record_report(config, store, "inpaint", report)
    lap("inpaint")
    if until == "inpaint":
        return report

    compose_dir = store.begin("compose")
    composed = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
    outputs = []
    for item in composed:
        for method in ("ours", "baseline"):
            name = f"{item.sentence_id}.{method}.svmx"
            with atomic_path(compose_dir / name) as tmp:
                write_motion(tmp, getattr(item, method))
            outputs.append(name)
    report["denoiser_fallback"] = any(c.fallback for c in composed)
    store.write_manifest("compose", stage_hash(config, "compose"), config.seed, outputs,
                         {"fallback": report["denoiser_fallback"],
                          "report": _stage_report(config, "compose", report)})
    lap("compose")
    if until == "compose":
        return report

    eval_dir = store.begin("eval")
    eval_result = evaluate_composed(composed, data, dump_paths=dump_paths)
    report["sentence"] = eval_result["summary"]
    lap("eval")
    outputs = ["metrics.jsonl", "report.json"]
    _write_text(eval_dir / "metrics.jsonl", _jsonl(eval_result["rows"]))
    if dump_paths:
        _write_text(eval_dir / "paths.jsonl", _jsonl(eval_result["paths"]))
        outputs.append("paths.jsonl")
    else:
        # the paths of an earlier run would not belong to these outputs
        (eval_dir / "paths.jsonl").unlink(missing_ok=True)
    _write_text(eval_dir / "report.json", json.dumps(report, sort_keys=True, indent=1))
    store.write_manifest("eval", stage_hash(config, "eval"), config.seed, outputs,
                         {"report": _stage_report(config, "eval", report)})
    return report
