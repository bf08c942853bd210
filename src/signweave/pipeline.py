"""Stage orchestration: synthetic corpus, QC, trimming, predictor and denoiser
training, pair composition, sentence stitching, and evaluation.

Stages persist their outputs under the work directory with a manifest that
records the config hash, the seed, the files written and the report fields
the stage adds. `StageStore.run` reuses a stage when its manifest's hash
matches the config, every file it lists exists and decodes, and every stage
before it hit, and recomputes it otherwise; a rerun whose stages all hit
builds its report from the manifests without loading anything. Every file is
written whole or not at all.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from collections.abc import Mapping
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
    boundary_mask,
    ddim_refine,
    linear_transition_baseline,
    train_inpainter,
)
from .metrics import SyntheticSkeletonAdapter, dtw_alignments, fgd, length_ratio, procrustes_path_error
from .motion import GlossClip, MotionSequence, PartLayout, resample_frames, write_motion
from .neuralkit import load_checkpoint, restore_into, save_checkpoint
from .qc import QcConfig, qc_filters
from .records import export_canonical
from .stitch import assemble_sentence
from .synth import SentenceSample, SynthCorpus, SynthSpec, synth_generate
from .trimming import TrimConfig, trim


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

    def __post_init__(self):
        # the duration features are built from the motion frames, whose
        # width the part layout fixes
        dim = PartLayout.base().dim
        if self.dur_model.motion_dim != dim:
            raise ValueError(f"config key dur_model.motion_dim must be {dim}, got {self.dur_model.motion_dim!r}")


# interpolated frames the linear baseline inserts at each gloss boundary
BASELINE_TRANSITION_FRAMES = 4

# stage order with the config fields each stage depends on (cumulative hashing)
STAGE_FIELDS = [
    ("synth", ["seed", "synth", "pair_rounds", "holdout_fraction"]),
    ("qc", ["qc"]),
    ("trim", ["trim"]),
    ("baseline", []),
    ("duration", ["dur_model", "dur_gloss", "dur_sent", "min_gloss_len"]),
    ("inpaint", ["denoiser", "inpaint_train"]),
    ("compose", ["ddim_steps", "inference_radius"]),
    ("eval", []),
]

STAGES = tuple(name for name, _ in STAGE_FIELDS)

# the stages `run_pipeline` can stop after: those after synth, qc, trim and
# baseline, which run as one prepare step
RUN_STAGES = STAGES[STAGES.index("baseline") + 1:]

# Part of every stage hash. Bump it whenever a change alters what a stage
# writes, so that a work directory from older code is recomputed, not reused.
SCHEMA_VERSION = 3


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # field by field: `dataclasses.asdict` would deep-copy every section
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, type):
        return value.__name__
    return value


# the model dtypes a config file may name, by the name `config_to_dict` writes
DTYPES = {"float32": np.float32, "float64": np.float64}


def config_to_dict(config: PipelineConfig) -> dict:
    return _jsonable(config)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Rebuild a config from `config_to_dict` output, or any subset of its keys.

    A nested section takes the keys it gives and keeps `PipelineConfig()`'s
    values (what `show-config` prints) for the rest. A bad key or value
    raises a ValueError naming the key (see `_checked`)."""
    return _checked("", raw, PipelineConfig())


def _checked(key: str, value, default):
    """The JSON `value` as the config value at `key`, whose default is
    `default`. A value has its default's type, except that a model dtype is
    named as `config_to_dict` writes it, a tuple is a list of as many items,
    and an int stands for a float and is kept as given; a bool is not an int."""
    if dataclasses.is_dataclass(default):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key} names a nested config and needs an object" if key
                             else "a config must be a JSON object")
        checked = {}
        for k, v in value.items():
            path = f"{key}.{k}" if key else k
            if k not in _field_names(default):
                raise ValueError(f"unknown config key {path}")
            checked[k] = _checked(path, v, getattr(default, k))
        return dataclasses.replace(default, **checked)
    if isinstance(default, type):
        if not (isinstance(value, str) and value in DTYPES):
            raise ValueError(f"config key {key} must be one of {', '.join(DTYPES)}, got {value!r}")
        return DTYPES[value]
    if isinstance(default, tuple):
        if not (isinstance(value, list) and len(value) == len(default)):
            raise ValueError(f"config key {key} must be a list of {len(default)} items, got {value!r}")
        return tuple(_checked(key, v, d) for v, d in zip(value, default))
    if type(value) is type(default) or (type(default) is float and type(value) is int):
        return value
    raise ValueError(f"config key {key} must be of type {type(default).__name__}, got {value!r}")


def _field_names(obj) -> set[str]:
    return {f.name for f in dataclasses.fields(obj)}


def _stage_payloads(config: PipelineConfig):
    """(stage, the fields it and its predecessors depend on) in stage order;
    one dict grows in place, so a pass serializes each field once."""
    payload = {"schema_version": SCHEMA_VERSION}
    for name, fields in STAGE_FIELDS:
        for f in fields:
            payload[f] = _jsonable(getattr(config, f))
        yield name, payload


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def stage_hash(config: PipelineConfig, stage: str) -> str:
    """Hash of every config field the stage (and its predecessors) depends
    on, and of SCHEMA_VERSION."""
    return next(_digest(payload) for name, payload in _stage_payloads(config) if name == stage)


def apply_overrides(config: PipelineConfig, overrides: list[str]) -> PipelineConfig:
    """Apply dotted key=value overrides to `config` in place and return it.

    Each override is read as the config file object {"key": {"path": value}}
    and checked as `config_from_dict` checks one (`_checked`), against the
    current values. The value is JSON, or the text as given where JSON does
    not parse or the field is text or a model dtype; a tuple's items are
    separated by commas. A bad key or value leaves `config` as it was."""
    for item in overrides:
        key, _, raw = item.partition("=")
        if not raw:
            raise ValueError(f"override {item!r} must look like key.path=value")
        parts = key.split(".")
        current = config
        for part in parts:
            current = getattr(current, part, None) if dataclasses.is_dataclass(current) else None
        if isinstance(current, tuple):
            value = [_override_value(v) for v in raw.split(",")]
        elif isinstance(current, (str, type)):
            value = raw
        else:
            value = _override_value(raw)
        for part in reversed(parts):
            value = {part: value}
        setattr(config, parts[0], getattr(_checked("", value, config), parts[0]))
    return config


def _override_value(raw: str):
    """The JSON value `raw` stands for, or `raw` itself when it is not JSON."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw


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


def _read_json(path: Path):
    """The JSON value stored at `path`, or None when it is missing or does not decode."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class StageStore:
    """Per-stage manifests under the work directory, and `run`, which reuses
    or recomputes a stage.

    A store checks stages in order. A stage hits when its manifest's
    config_hash matches, every output the manifest lists exists, and every
    stage checked before it on this store hit. The first check of a stage
    decides it for the store, so that `run_pipeline`'s up-front check and the
    stage's own check agree. Checking creates no directory. The store keeps
    each manifest as it last read or wrote it, and `timings` (see `run`).
    """

    def __init__(self, work_dir: str | Path):
        self.root = Path(work_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._hits: dict[str, bool] = {}
        self._manifests: dict[str, dict | None] = {}
        self.timings: dict[str, float] = {}

    def manifest_path(self, stage: str) -> Path:
        return self.root / stage / "manifest.json"

    def manifest(self, stage: str) -> dict | None:
        """The stage's manifest, or None when it is missing or not a JSON object."""
        if stage not in self._manifests:
            manifest = _read_json(self.manifest_path(stage))
            self._manifests[stage] = manifest if isinstance(manifest, dict) else None
        return self._manifests[stage]

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

    def done_through(self, config: PipelineConfig, until: str) -> bool:
        """Whether every stage through `until` hits under `config`, checked
        in order with the hashes of one pass over the config."""
        for stage, payload in _stage_payloads(config):
            if not self.is_done(stage, _digest(payload)):
                return False
            if stage == until:
                return True

    def begin(self, stage: str) -> Path:
        """Start recomputing `stage` and return its directory. The stage and
        every later one miss from now on, and their manifests are deleted
        before any output is written, so that an interrupted recompute never
        leaves a manifest over a mix of old and new files."""
        for name in STAGES[STAGES.index(stage):]:
            self._hits[name] = False
            self._manifests[name] = None
            self.manifest_path(name).unlink(missing_ok=True)
        d = self.root / stage
        d.mkdir(parents=True, exist_ok=True)
        return d

    def run(self, stage: str, config: PipelineConfig, compute, load=None):
        """The stage's value under `config`. A hit reads it back with
        `load(stage_dir)`; a stage without `load`, or whose stored output does
        not decode (`load` returns None), misses. On a miss, after `begin`,
        `compute(stage_dir)` writes the outputs and returns the value with the
        manifest's `outputs`, `report` (the stage's run report fields) and
        other facts; the manifest is written last. The seconds the stage took
        go into its manifest and `timings`."""
        t0 = time.perf_counter()
        config_hash = stage_hash(config, stage)
        value = load(self.root / stage) if load is not None and self.is_done(stage, config_hash) else None
        if value is None:
            value, fields = compute(self.begin(stage))
            manifest = {"stage": stage, "config_hash": config_hash, "seed": config.seed,
                        **fields, "seconds": round(time.perf_counter() - t0, 2)}
            _write_text(self.manifest_path(stage), json.dumps(manifest, sort_keys=True, indent=1))
            self._manifests[stage] = manifest
        self.timings[stage] = round(time.perf_counter() - t0, 2)
        return value

    def report(self, config: PipelineConfig, until: str) -> dict:
        """The run report through `until`: the hash `until`'s manifest holds,
        the seed, the report fields of every stage through `until`, merged in
        stage order, and `timings`. Every one of those stages hit or was written."""
        report = {"config_hash": self.manifest(until)["config_hash"], "seed": config.seed}
        for stage in STAGES[: STAGES.index(until) + 1]:
            report.update((self.manifest(stage) or {}).get("report", {}))
        return report | {"timings": dict(self.timings)}


# ---------------------------------------------------------------------------
# stage implementations


class TrimmedCores(Mapping):
    """Clip id -> trimmed core frames, over the kept clips in corpus order. A
    core is sliced from its clip's frames on its first read, so a clip that
    nothing reads is never built."""

    def __init__(self, clips: dict[str, GlossClip], spans: dict[str, list[int]]):
        self._clips, self._spans = clips, spans
        self._cores: dict[str, np.ndarray] = {}

    def __getitem__(self, cid: str) -> np.ndarray:
        core = self._cores.get(cid)
        if core is None:
            clip = self._clips[cid]
            s, e = self._spans[cid]
            core = self._cores[cid] = clip.motion.frames[s : e + 1]
        return core

    def __contains__(self, cid) -> bool:
        return cid in self._clips

    def __iter__(self):
        return iter(self._clips)

    def __len__(self) -> int:
        return len(self._clips)


@dataclass
class PreparedData:
    corpus: SynthCorpus
    cores: TrimmedCores
    train_ids: list[str]
    eval_ids: list[str]
    # the linear baseline's scores on the held-out sentences (`baseline_stage`)
    baseline: dict = field(default_factory=dict)

    @cached_property
    def by_id(self) -> dict[str, SentenceSample]:
        """Sentence id -> sentence, for every sentence of the corpus."""
        return {s.sentence_id: s for s in self.corpus.sentences}

    @cached_property
    def round_variants(self) -> dict[str, dict[int, int]]:
        """Round id (sentence id + ".r<n>") -> {gloss index: clip variant},
        for the rounds that have pair specs, in pair-spec order."""
        return _round_variants(self.corpus.pair_specs)


def _round_variants(pair_specs) -> dict[str, dict[int, int]]:
    variants: dict[str, dict[int, int]] = {}
    for spec in pair_specs:
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
    (U) records, each file atomically and one record at a time; return the
    number of word records, one per clip."""
    for name, records, schema in (("words.json", corpus.word_records(), "W"),
                                  ("dialogues.json", corpus.dialogue_records(), "U")):
        with atomic_path(directory / name) as tmp:
            export_canonical(records, tmp, schema)
    return sum(len(clips) for clips in corpus.clips.values())


def prepare_data(config: PipelineConfig, store: StageStore) -> PreparedData:
    """Stages synth, qc, trim and baseline. Synth and qc regenerate the corpus
    and filter its clips on a hit too, as both are deterministic and cheap;
    their hits skip only the writes, and a trim or baseline hit reads its
    stored output back. Generating draws each clip's variation and each
    sentence's gloss spans, and builds a clip's or a sentence's frames on
    their first read only; qc reads clip lengths alone. The synth stage's
    export reads every clip and sentence, trimming every kept clip, inpaint
    training the training sentences and their clips' cores, and baseline and
    eval scoring the held-out ones; so a reload of a finished work directory
    builds none. Generating takes about 4 ms at 6 glosses x 3 variants x 24
    sentences (30 ms with every clip's and sentence's frames) and 0.09 s for
    the default corpus (0.34 s), on one core of a 2-core machine."""
    def generate(stage_dir=None):
        corpus = synth_generate(config.synth, rounds=config.pair_rounds)
        return corpus, *_split_sentences(corpus, config.holdout_fraction, config.seed)

    def write_synth(stage_dir):
        corpus, _, eval_ids = value = generate()
        write_corpus(corpus, stage_dir)
        return value, {"outputs": ["words.json", "dialogues.json"], "report": {"eval_sentences": len(eval_ids)},
                       "sentences": len(corpus.sentences), "pairs": len(corpus.pair_specs)}

    corpus, train_ids, eval_ids = store.run("synth", config, write_synth, generate)

    total = sum(len(clips) for clips in corpus.clips.values())
    for gloss, clips in corpus.clips.items():
        corpus.clips[gloss] = [clip for clip in clips if qc_filters(clip, config.qc).keep]
    kept = sum(len(clips) for clips in corpus.clips.values())
    if kept < total:
        _check_composed_clips_kept(corpus, eval_ids, config.qc)
    store.run("qc", config, lambda d: (kept, {"outputs": [], "kept_clips": kept}), lambda d: kept)

    def write_trim(stage_dir):
        # a clip whose trim falls back keeps its annotated core span
        spans, fallbacks = {}, 0
        for clips in corpus.clips.values():
            for clip in clips:
                result = trim(clip, config.trim)
                fell_back = "boundary-fallback" in result.flags or "span-too-short" in result.flags
                fallbacks += int(fell_back)
                span = clip.core_span if fell_back else result.span
                spans[clip.source["id"]] = [int(span[0]), int(span[1])]
        _write_text(stage_dir / "spans.json", json.dumps(spans, sort_keys=True))
        return spans, {"outputs": ["spans.json"], "report": {"trim_fallbacks": fallbacks}}

    by_id = {clip.source["id"]: clip for clips in corpus.clips.values() for clip in clips}
    spans = store.run("trim", config, write_trim, lambda d: _read_spans(d / "spans.json", list(by_id)))
    data = PreparedData(corpus, TrimmedCores(by_id, spans), train_ids, eval_ids)
    data.baseline = baseline_stage(config, store, data)
    return data


def _read_spans(path: Path, clip_ids: list[str]) -> dict[str, list[int]] | None:
    """The trim spans stored at `path`, or None unless it holds an object
    with a [start, end] pair of integers for every clip id."""
    spans = _read_json(path)
    if not isinstance(spans, dict):
        return None
    for cid in clip_ids:
        span = spans.get(cid)
        if not (isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)):
            return None
    return spans


def baseline_stage(config: PipelineConfig, store: StageStore, data: PreparedData) -> dict:
    """The linear baseline's scores on the held-out sentences: the rows, DTW
    paths and summary that `score_sentences` gives. The baseline depends on
    the trimmed cores alone, so it is scored once per prepared corpus, not on
    every eval."""
    def compute(stage_dir):
        scores = score_sentences("baseline", {
            sid: linear_baseline(_sentence_segments(data, data.by_id[sid])) for sid in data.eval_ids}, data)
        _write_text(stage_dir / "scores.json", json.dumps(scores))
        return scores, {"outputs": ["scores.json"]}

    return store.run("baseline", config, compute, lambda d: _read_scores(d / "scores.json", data.eval_ids))


def _read_scores(path: Path, sentence_ids: list[str]) -> dict | None:
    """The scores stored at `path`, or None unless they hold a row and a path
    for each of the sentence ids, in order, and a summary of every metric."""
    scores = _read_json(path)
    if not (isinstance(scores, dict) and isinstance(scores.get("summary"), dict)
            and set(scores["summary"]) == set(SUMMARY_KEYS)):
        return None
    for key, needed in (("rows", ROW_KEYS), ("paths", ("total_cost", "path"))):
        entries = scores.get(key)
        if not (isinstance(entries, list) and len(entries) == len(sentence_ids)):
            return None
        for entry, sid in zip(entries, sentence_ids):
            if not (isinstance(entry, dict) and entry.get("sentence_id") == sid
                    and all(k in entry for k in needed)):
                return None
    return scores


def _pairs(data: PreparedData, held_out: bool):
    """(spec, sample, a, b) for each pair spec of the training sentences, or of
    the held-out ones: the spec, its sentence and the two trimmed cores."""
    train_set = set(data.train_ids)
    for spec in data.corpus.pair_specs:
        sid = spec.sentence_id.rsplit(".r", 1)[0]
        if (sid not in train_set) != held_out:
            continue
        a = data.cores[f"{spec.gloss_a}.v{spec.variant_a}"]
        b = data.cores[f"{spec.gloss_b}.v{spec.variant_b}"]
        yield spec, data.by_id[sid], a, b


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
    train_set = set(data.train_ids)
    sent_examples: list[SentenceExample] = []
    for round_id, variants in data.round_variants.items():
        sid = round_id.rsplit(".r", 1)[0]
        if sid not in train_set:
            continue
        sample = data.by_id[sid]
        segments = [data.cores[f"{g}.v{variants[i]}"] for i, g in enumerate(sample.glosses)]
        tokens = sentence_token_features(segments)
        t_src = sum(seg.shape[0] for seg in segments)
        scale = target_scale(t_src, sample.gloss_spans[-1][1] + 1)
        alloc = target_allocation(sample.gloss_spans)
        sent_examples.append(SentenceExample(tokens, scale, alloc))
    return _pair_examples(data, window, held_out=False), sent_examples


def _restored(model, path: Path):
    """`model`, built without drawing its parameters, with the checkpoint
    at `path` restored into them; None when the checkpoint does not decode."""
    try:
        restore_into(model.params, load_checkpoint(path))
    except (OSError, KeyError, ValueError):
        return None
    return model


def _save_checkpoint(path: Path, params) -> None:
    with atomic_path(path) as tmp:
        save_checkpoint(tmp, params)


def train_duration_stage(config: PipelineConfig, store: StageStore, data: PreparedData):
    """The trained gloss and sentence predictors. Training also scores the
    gloss predictor on the held-out pairs, and the manifest stores that
    evaluation, so that a hit only loads the checkpoints."""
    def load(stage_dir):
        models = (_restored(GlossDurationPredictor(config.dur_model, seed=None), stage_dir / "gloss.ckpt"),
                  _restored(SentenceDurationPredictor(config.dur_model, seed=None), stage_dir / "sent.ckpt"))
        return models if all(m is not None for m in models) else None

    def compute(stage_dir):
        gloss_model = GlossDurationPredictor(config.dur_model, seed=config.seed)
        sent_model = SentenceDurationPredictor(config.dur_model, seed=config.seed)
        train_pairs, sent_examples = build_duration_examples(data, config.dur_model.window)
        train_gloss_predictor(train_pairs, gloss_model, config.dur_gloss)
        train_sentence_predictor(sent_examples, sent_model, config.dur_sent)
        _save_checkpoint(stage_dir / "gloss.ckpt", gloss_model.params)
        _save_checkpoint(stage_dir / "sent.ckpt", sent_model.params)
        return (gloss_model, sent_model), {
            "outputs": ["gloss.ckpt", "sent.ckpt"],
            "report": {"duration_eval": evaluate_duration(data, gloss_model, config.dur_model.window)},
            "train_pairs": len(train_pairs), "sentences": len(sent_examples)}

    return store.run("duration", config, compute, load)


def duration_adjust_pair(a: np.ndarray, b: np.ndarray, gloss_model: GlossDurationPredictor,
                         window: int, min_len: int) -> tuple[np.ndarray, GlossPlan]:
    pred = gloss_model.predict(pair_features(a, b, window))
    plan = integer_plan(a.shape[0] + b.shape[0], pred, min_len)
    adjusted = np.concatenate([resample_frames(a, plan.lengths[0]), resample_frames(b, plan.lengths[1])])
    return adjusted, plan


def build_inpaint_items(config: PipelineConfig, data: PreparedData,
                        gloss_model: GlossDurationPredictor) -> list[PairItem]:
    """The training pairs of the inpainting stage. Each duration-adjusted
    input is kept in the denoiser's dtype, which `Denoiser.condition` casts
    it to anyway; the target stays float64 for `q_sample`."""
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
        items.append(PairItem(adjusted.astype(config.denoiser.dtype), target, plan.lengths[0]))
    return items


def train_inpaint_stage(config: PipelineConfig, store: StageStore, data: PreparedData,
                        gloss_model: GlossDurationPredictor) -> tuple[Denoiser | None, DiffusionSchedule]:
    """The trained denoiser, or None with `inpaint_train.steps` <= 0, and the
    diffusion schedule. A removed or undecodable checkpoint is a miss like
    any other, so the denoiser is trained again."""
    schedule = DiffusionSchedule()
    if config.inpaint_train.steps <= 0:
        return store.run("inpaint", config, lambda d: ((None, schedule), {"outputs": []}),
                         lambda d: (None, schedule))

    def load(stage_dir):
        denoiser = _restored(Denoiser(config.denoiser, seed=None), stage_dir / "denoiser.ckpt")
        return None if denoiser is None else (denoiser, schedule)

    def compute(stage_dir):
        denoiser = Denoiser(config.denoiser, seed=config.seed)
        items = build_inpaint_items(config, data, gloss_model)
        history = train_inpainter(items, denoiser, schedule, config.inpaint_train)
        _save_checkpoint(stage_dir / "denoiser.ckpt", denoiser.params)
        return (denoiser, schedule), {"outputs": ["denoiser.ckpt"], "train_items": len(items),
                                      "final_loss": history[-1] if history else None}

    return store.run("inpaint", config, compute, load)


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
) -> list[ComposedSentence]:
    """Refine each adjacent pair of every held-out sentence and assemble
    sentence-level motion, with the sentence's linear baseline beside it.

    When no denoiser is available, the refined path falls back to the linear
    transition baseline's pairs (recorded per sentence).
    """
    ema_swap = denoiser.params.swap_in_ema() if denoiser is not None else None
    out = []
    try:
        for sid in data.eval_ids:
            segments = _sentence_segments(data, data.by_id[sid])
            digest = int(hashlib.sha256(sid.encode("utf-8")).hexdigest()[:8], 16)
            rng = np.random.default_rng(config.seed + digest)

            adjusted, boundaries, noise = [], [], []
            if denoiser is not None:
                for a, b in zip(segments, segments[1:]):
                    frames, plan = duration_adjust_pair(a, b, gloss_model,
                                                        config.dur_model.window, config.min_gloss_len)
                    adjusted.append(frames)
                    boundaries.append(plan.lengths[0])
                    noise.append(rng.standard_normal(frames.shape))

            pred = sent_model.predict(segments)
            plan = integer_plan(sum(seg.shape[0] for seg in segments), pred, config.min_gloss_len)
            if len(segments) == 1:
                # single-gloss sentences bypass pairing entirely
                ours = assemble_sentence([(segments[0], 0)], GlossPlan([plan.total], plan.total))
            elif adjusted:
                # one DDIM run over the sentence's pairs laid end to end; the
                # noise is each pair's draw in pair order, as one run per pair
                # would draw it
                mask = boundary_mask([len(frames) for frames in adjusted], boundaries, config.inference_radius)
                refined = ddim_refine(np.concatenate(adjusted), mask, denoiser, schedule,
                                      steps=config.ddim_steps, noise=np.concatenate(noise))
                ours = assemble_sentence(list(zip(np.split(refined, mask.offsets[1:-1]), mask.boundaries)), plan)
            else:
                ours = assemble_sentence(_baseline_pairs(segments), plan)
            out.append(ComposedSentence(sid, ours, linear_baseline(segments), denoiser is None))
    finally:
        if denoiser is not None:
            denoiser.params.restore(ema_swap)
    return out


def compose_stage(config: PipelineConfig, store: StageStore, data: PreparedData,
                  gloss_model: GlossDurationPredictor, sent_model: SentenceDurationPredictor,
                  denoiser: Denoiser | None, schedule: DiffusionSchedule) -> list[ComposedSentence]:
    """The held-out sentences composed, each written as SVMX beside its linear
    baseline. With no `load`, a run that reaches compose recomputes it: eval
    scores the in-memory frames, which the float32 SVMX files do not hold."""
    def compute(stage_dir):
        composed = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
        outputs = []
        for item in composed:
            for method in ("ours", "baseline"):
                name = f"{item.sentence_id}.{method}.svmx"
                with atomic_path(stage_dir / name) as tmp:
                    write_motion(tmp, getattr(item, method))
                outputs.append(name)
        return composed, {"outputs": outputs,
                          "report": {"denoiser_fallback": any(c.fallback for c in composed)}}

    return store.run("compose", config, compute)


def _sentence_clip_ids(round_variants: dict[str, dict[int, int]], sample) -> list[str]:
    """The clips a held-out sentence is composed from: its glosses in the
    clip variants of its first round (variant 0 where it has no pair spec)."""
    variants = round_variants.get(f"{sample.sentence_id}.r0", {})
    return [f"{g}.v{variants.get(i, 0)}" for i, g in enumerate(sample.glosses)]


def _sentence_segments(data: PreparedData, sample) -> list[np.ndarray]:
    """The trimmed cores of a held-out sentence's glosses (`_sentence_clip_ids`)."""
    return [data.cores[cid] for cid in _sentence_clip_ids(data.round_variants, sample)]


def _check_composed_clips_kept(corpus: SynthCorpus, eval_ids: list[str], qc: QcConfig) -> None:
    """Raise a ValueError when qc discarded a clip that a pair spec or a
    held-out sentence is composed from. Both pick their clip variants when
    the corpus is generated, before qc runs, so no stage could build them."""
    kept = {clip.source["id"] for clips in corpus.clips.values() for clip in clips}
    users = [(f"{gloss}.v{variant}", f"pair {spec.pair_index} of {spec.sentence_id}")
             for spec in corpus.pair_specs
             for gloss, variant in ((spec.gloss_a, spec.variant_a), (spec.gloss_b, spec.variant_b))]
    by_id = {s.sentence_id: s for s in corpus.sentences}
    round_variants = _round_variants(corpus.pair_specs)
    users += [(cid, f"held-out sentence {sid}")
              for sid in eval_ids for cid in _sentence_clip_ids(round_variants, by_id[sid])]
    for cid, user in users:
        if cid not in kept:
            raise ValueError(f"qc discarded clip {cid}, which {user} is composed from: it is longer than "
                             f"qc.max_duration_seconds ({qc.max_duration_seconds} s)")


def _baseline_pairs(segments: list[np.ndarray]) -> list[tuple[np.ndarray, int]]:
    return [linear_transition_baseline(a, b, BASELINE_TRANSITION_FRAMES)
            for a, b in zip(segments, segments[1:])]


def linear_baseline(segments: list[np.ndarray]) -> MotionSequence:
    """A sentence's linear baseline: the cores concatenated with linearly
    interpolated transition frames at each boundary, at their natural
    lengths, with no duration plan."""
    if len(segments) == 1:
        return MotionSequence(segments[0].copy())
    pairs = _baseline_pairs(segments)
    return assemble_sentence(pairs, _natural_plan(pairs))


def _natural_plan(pairs: list[tuple[np.ndarray, int]]) -> GlossPlan:
    """Stitching plan without the sentence-duration predictor: natural
    lengths, an inner gloss taking the mean of its two pairs' lengths for it,
    rounded up."""
    heads = [boundary for _, boundary in pairs]
    tails = [frames.shape[0] - boundary for frames, boundary in pairs]
    lengths = [heads[0]] + [(t + h + 1) // 2 for t, h in zip(tails, heads[1:])] + [tails[-1]]
    return GlossPlan(lengths, sum(lengths))


# ---------------------------------------------------------------------------
# evaluation

# a row's per-sentence errors, and a method's summary: their means, the length
# ratio and FGD
ERROR_KEYS = ("dtw_mpjpe_body", "dtw_mpjpe_hands", "dtw_mpjpe_overall", "dtw_mpvpe_face", "dtw_pa_mpjpe")
ROW_KEYS = ERROR_KEYS + ("pred_frames", "ref_frames")
SUMMARY_KEYS = ERROR_KEYS + ("length_ratio", "fgd")


def score_sentences(method: str, outputs: dict[str, MotionSequence], data: PreparedData) -> dict:
    """One method's outputs, by sentence id, scored against their reference
    sentences: a row and a DTW alignment path per sentence, in order, and the
    method's summary."""
    adapter = SyntheticSkeletonAdapter()
    joints = np.concatenate([adapter.body_joints, adapter.hand_joints])
    # metric -> point subset; the plain and Procrustes-aligned overall errors
    # share the overall alignment
    subsets = {
        "dtw_mpjpe_body": adapter.body_joints,
        "dtw_mpjpe_hands": adapter.hand_joints,
        "dtw_mpjpe_overall": joints,
        "dtw_mpvpe_face": adapter.face_vertices,
    }
    rows, paths = [], []
    for sid, seq in outputs.items():
        ref = data.by_id[sid].frames
        pts, ref_pts = adapter.to_points(seq.frames), adapter.to_points(ref)
        aligned = dict(zip(subsets, dtw_alignments(pts, ref_pts, list(subsets.values()))))
        row = {"sentence_id": sid, "method": method}
        row.update({key: total / len(path) for key, (path, total) in aligned.items()})
        path, total = aligned["dtw_mpjpe_overall"]
        row["dtw_pa_mpjpe"] = procrustes_path_error(pts[:, joints], ref_pts[:, joints], path)
        row.update({"pred_frames": seq.num_frames, "ref_frames": ref.shape[0]})
        rows.append(row)
        paths.append({"sentence_id": sid, "method": method, "total_cost": total, "path": path.tolist()})
    summary = {key: float(np.mean([r[key] for r in rows])) for key in ERROR_KEYS}
    refs = [data.by_id[sid].frames for sid in outputs]
    summary["length_ratio"] = length_ratio([seq.num_frames for seq in outputs.values()],
                                           [ref.shape[0] for ref in refs])
    summary["fgd"] = fgd(np.concatenate([seq.frames for seq in outputs.values()]), np.concatenate(refs))
    return {"rows": rows, "paths": paths, "summary": summary}


def evaluate_composed(composed: list[ComposedSentence], data: PreparedData) -> dict:
    """Sentence-level metrics table for the refined outputs and the linear
    baseline, with the DTW alignment path of each output against its
    reference. Only the refined outputs are scored here: the baseline's rows,
    paths and summary are the ones the baseline stage stored
    (`data.baseline`), and its rows take each sentence's `fallback` from
    compose. `composed` must hold the held-out sentences in order.
    """
    baseline = data.baseline
    if [c.sentence_id for c in composed] != [r["sentence_id"] for r in baseline["rows"]]:
        raise ValueError("the composed sentences are not the held-out sentences the baseline scored")
    ours = score_sentences("ours", {c.sentence_id: c.ours for c in composed}, data)
    rows, paths = [], []
    for i, item in enumerate(composed):
        for scores in (ours, baseline):
            rows.append(scores["rows"][i] | {"fallback": item.fallback})
            paths.append(scores["paths"][i])
    return {"rows": rows, "paths": paths, "summary": {"ours": ours["summary"], "baseline": baseline["summary"]}}


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


def eval_stage(config: PipelineConfig, store: StageStore, data: PreparedData,
               composed: list[ComposedSentence]) -> None:
    """Score the composed sentences (`evaluate_composed`) into metrics.jsonl
    and their DTW alignment paths into paths.jsonl; then write the run report
    to report.json. Like compose, eval has no `load`."""
    def compute(stage_dir):
        # the manifest lists report.json, which is written after it: until then
        # the stage misses, and no report.json of an earlier run is left to count
        (stage_dir / "report.json").unlink(missing_ok=True)
        result = evaluate_composed(composed, data)
        _write_text(stage_dir / "metrics.jsonl", _jsonl(result["rows"]))
        _write_text(stage_dir / "paths.jsonl", _jsonl(result["paths"]))
        return result, {"outputs": ["metrics.jsonl", "report.json", "paths.jsonl"],
                        "report": {"sentence": result["summary"]}}

    store.run("eval", config, compute)
    report = json.dumps(store.report(config, "eval"), sort_keys=True, indent=1)
    _write_text(store.root / "eval" / "report.json", report)


def _steps(config: PipelineConfig, store: StageStore):
    """Run the steps in stage order, yielding each stage after prepare's
    (synth, qc, trim and baseline) as it is done."""
    data = prepare_data(config, store)
    gloss_model, sent_model = train_duration_stage(config, store, data)
    yield "duration"
    denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
    yield "inpaint"
    composed = compose_stage(config, store, data, gloss_model, sent_model, denoiser, schedule)
    yield "compose"
    eval_stage(config, store, data, composed)
    yield "eval"


def run_pipeline(config: PipelineConfig, until: str = "eval") -> dict:
    """Run the stages in order through `until` and return `StageStore.report`.

    When every stage through `until` hits (see StageStore), nothing is loaded
    and the `timings` are {"cached": seconds}. Otherwise `StageStore.run`
    reuses or recomputes each stage through `until`, and the `timings` name
    them."""
    if until not in RUN_STAGES:
        raise ValueError(f"unknown stage {until!r}; expected one of {', '.join(RUN_STAGES)}")
    t0 = time.perf_counter()
    store = StageStore(config.work_dir)
    if store.done_through(config, until):
        store.timings["cached"] = round(time.perf_counter() - t0, 2)
    else:
        for stage in _steps(config, store):
            if stage == until:
                break
    return store.report(config, until)
