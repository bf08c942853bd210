"""Stage orchestration: synthetic corpus, QC, trimming, predictor and denoiser
training, pair composition, sentence stitching, and evaluation.

Stages persist their outputs under the work directory with a manifest that
records the config hash, the seed, the files written and the report fields
the stage adds. A stage hits, and is reused, when its manifest's hash matches
the config, every file it lists exists, and every stage before it hit; a
rerun whose stages all hit builds its report from the manifests without
loading anything. Every file is written whole or not at all, and a stage
whose manifest lists a file that is not in place misses.
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
    pack_masks,
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

# the stages `run_pipeline` can stop after; synth, qc, trim and baseline run
# as one prepare step before them
RUN_STAGES = ("duration", "inpaint", "compose", "eval")

# Part of every stage hash. Bump it whenever a change alters what a stage
# writes, so that a work directory from older code is recomputed, not reused.
SCHEMA_VERSION = 3


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # field by field: `dataclasses.asdict` would deep-copy every section
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, np.generic):
        return value.item()
    return value


# the model dtypes a config file may name, by the name `config_to_dict` writes
DTYPES = {"float32": np.float32, "float64": np.float64}


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
                if not (isinstance(v, str) and v in DTYPES):
                    raise ValueError(f"config key {key}.dtype must be one of "
                                     f"{', '.join(DTYPES)}, got {v!r}")
                v = DTYPES[v]
            clean[k] = v
        kwargs[key] = dataclasses.replace(current, **clean)
    return PipelineConfig(**kwargs)


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
    stage's own check agree. Checking creates no directory. The store keeps
    each manifest as it last read or wrote it.
    """

    def __init__(self, work_dir: str | Path):
        self.root = Path(work_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._hits: dict[str, bool] = {}
        self._manifests: dict[str, dict | None] = {}

    def manifest_path(self, stage: str) -> Path:
        return self.root / stage / "manifest.json"

    def manifest(self, stage: str) -> dict | None:
        """The stage's manifest, or None when it is missing or not a JSON object."""
        if stage not in self._manifests:
            try:
                manifest = json.loads(self.manifest_path(stage).read_text())
            except (OSError, ValueError):
                manifest = None
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

    def hit(self, stage: str, config: PipelineConfig) -> bool:
        """Whether `stage` hits under `config` (see is_done)."""
        return self.is_done(stage, stage_hash(config, stage))

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

    def write_manifest(self, stage: str, config: PipelineConfig, outputs: list[str],
                       report: dict | None = None, **facts) -> None:
        """Write the stage's manifest under its hash and seed: the outputs it
        lists, the fields the stage adds to the run report, and other facts."""
        manifest = {"stage": stage, "config_hash": stage_hash(config, stage), "seed": config.seed,
                    "outputs": outputs, **facts}
        if report is not None:
            manifest["report"] = report
        _write_text(self.manifest_path(stage), json.dumps(manifest, sort_keys=True, indent=1))
        self._manifests[stage] = manifest

    def report(self, config: PipelineConfig, until: str) -> dict:
        """The run report through `until`: the hash `until`'s manifest holds,
        the seed, and the report fields of every stage through `until`,
        merged in stage order. Every one of those stages hit or was written."""
        report = {"config_hash": self.manifest(until)["config_hash"], "seed": config.seed}
        for stage in STAGES[: STAGES.index(until) + 1]:
            report.update((self.manifest(stage) or {}).get("report", {}))
        return report


# ---------------------------------------------------------------------------
# stage implementations


@dataclass
class PreparedData:
    corpus: SynthCorpus
    cores: dict[str, np.ndarray]          # clip id -> trimmed core frames
    train_ids: list[str]
    eval_ids: list[str]
    # the linear baseline's scores on the held-out sentences (`baseline_stage`)
    baseline: dict = field(default_factory=dict)

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
    """Stages synth + qc + trim + baseline. The corpus is regenerated on every
    call, as it is deterministic and cheap: about 20 ms at 6 glosses x 3
    variants x 24 sentences and 0.5 s for the default corpus, on one core of a
    2-core machine. A stage that hits skips its writes, and a trim or
    baseline hit reads its stored output back."""
    t0 = time.time()
    corpus = synth_generate(config.synth, rounds=config.pair_rounds)
    train_ids, eval_ids = _split_sentences(corpus, config.holdout_fraction, config.seed)
    if not store.hit("synth", config):
        write_corpus(corpus, store.begin("synth"))
        store.write_manifest("synth", config, ["words.json", "dialogues.json"],
                             {"eval_sentences": len(eval_ids)},
                             sentences=len(corpus.sentences), pairs=len(corpus.pair_specs))
    log.info("synth ready in %.1fs", time.time() - t0)

    for gloss, clips in corpus.clips.items():
        corpus.clips[gloss] = [clip for clip in clips if qc_filters(clip, config.qc).keep]
    kept = sum(len(clips) for clips in corpus.clips.values())
    if not store.hit("qc", config):
        store.begin("qc")
        store.write_manifest("qc", config, [], kept_clips=kept)

    clip_ids = [clip.source["id"] for clips in corpus.clips.values() for clip in clips]
    spans = _read_spans(store.root / "trim" / "spans.json", clip_ids) if store.hit("trim", config) else None
    if spans is None:
        # spans that do not decode are a miss too; a clip whose trim falls
        # back keeps its annotated core span
        trim_dir = store.begin("trim")
        fallbacks = 0
        spans = {}
        for clips in corpus.clips.values():
            for clip in clips:
                result = trim(clip, config.trim)
                fell_back = "boundary-fallback" in result.flags or "span-too-short" in result.flags
                fallbacks += int(fell_back)
                span = clip.core_span if fell_back else result.span
                spans[clip.source["id"]] = [int(span[0]), int(span[1])]
        _write_text(trim_dir / "spans.json", json.dumps(spans, sort_keys=True))
        store.write_manifest("trim", config, ["spans.json"], {"trim_fallbacks": fallbacks})

    cores = {}
    for gloss, clips in corpus.clips.items():
        for clip in clips:
            cid = clip.source["id"]
            s, e = spans[cid]
            cores[cid] = clip.motion.frames[s : e + 1]
    data = PreparedData(corpus, cores, train_ids, eval_ids)
    data.baseline = baseline_stage(config, store, data)
    return data


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


def baseline_stage(config: PipelineConfig, store: StageStore, data: PreparedData) -> dict:
    """The linear baseline's scores on the held-out sentences: the rows, DTW
    paths and summary that `score_sentences` gives. The baseline depends on
    the trimmed cores alone, so it is scored once per prepared corpus, not on
    every eval; a stored file that does not decode is a miss."""
    path = store.root / "baseline" / "scores.json"
    scores = _read_scores(path, data.eval_ids) if store.hit("baseline", config) else None
    if scores is None:
        stage_dir = store.begin("baseline")
        by_id = {s.sentence_id: s for s in data.corpus.sentences}
        scores = score_sentences("baseline", {
            sid: linear_baseline(_sentence_segments(data, by_id[sid])) for sid in data.eval_ids}, data)
        _write_text(stage_dir / "scores.json", json.dumps(scores))
        store.write_manifest("baseline", config, ["scores.json"])
    return scores


def _read_scores(path: Path, sentence_ids: list[str]) -> dict | None:
    """The scores stored at `path`, or None unless they hold a row and a path
    for each of the sentence ids, in order, and a summary of every metric."""
    try:
        scores = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
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
    """The trained gloss and sentence predictors. Training also scores the
    gloss predictor on the held-out pairs, and the manifest stores that
    evaluation, so that a hit only loads the checkpoints."""
    if store.hit("duration", config):
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
    store.write_manifest("duration", config, ["gloss.ckpt", "sent.ckpt"],
                         {"duration_eval": evaluate_duration(data, gloss_model, config.dur_model.window)},
                         train_pairs=len(train_pairs), sentences=len(sent_examples),
                         seconds=round(time.time() - t0, 1))
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
    ckpt = store.root / "inpaint" / "denoiser.ckpt"
    if store.hit("inpaint", config):
        if config.inpaint_train.steps <= 0:
            return None, schedule
        return _restored(Denoiser(config.denoiser, seed=None), ckpt), schedule
    if (store.manifest("inpaint") or {}).get("config_hash") == stage_hash(config, "inpaint"):
        log.warning("inpaint manifest present but %s is missing; composing with the linear fallback", ckpt)
        return None, schedule
    store.begin("inpaint")
    if config.inpaint_train.steps <= 0:
        store.write_manifest("inpaint", config, [])
        return None, schedule
    denoiser = Denoiser(config.denoiser, seed=config.seed)
    items = build_inpaint_items(config, data, gloss_model)
    t0 = time.time()
    history = train_inpainter(items, denoiser, schedule, config.inpaint_train)
    _save_checkpoint(ckpt, denoiser.params)
    store.write_manifest("inpaint", config, ["denoiser.ckpt"], train_items=len(items),
                         final_loss=history[-1] if history else None, seconds=round(time.time() - t0, 1))
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
) -> list[ComposedSentence]:
    """Refine each adjacent pair of every held-out sentence and assemble
    sentence-level motion, with the sentence's linear baseline beside it.

    When no denoiser is available, the refined path falls back to the linear
    transition baseline's pairs (recorded per sentence).
    """
    by_id = {s.sentence_id: s for s in data.corpus.sentences}
    ema_swap = None
    if denoiser is not None:
        ema_swap = denoiser.params.swap_in_ema()
    out = []
    try:
        for sid in data.eval_ids:
            segments = _sentence_segments(data, by_id[sid])
            k = len(segments)
            digest = int(hashlib.sha256(sid.encode("utf-8")).hexdigest()[:8], 16)
            rng = np.random.default_rng(config.seed + digest)

            adjusted, masks, noise = [], [], []
            if denoiser is not None:
                for a, b in zip(segments, segments[1:]):
                    frames, plan = duration_adjust_pair(a, b, gloss_model,
                                                        config.dur_model.window, config.min_gloss_len)
                    adjusted.append(frames)
                    masks.append(make_boundary_mask(plan.lengths[0], plan.lengths[1], config.inference_radius))
                    noise.append(rng.standard_normal(frames.shape))

            pred = sent_model.predict(segments)
            plan = integer_plan(sum(seg.shape[0] for seg in segments), pred, config.min_gloss_len)
            if k == 1:
                # single-gloss sentences bypass pairing entirely
                ours = assemble_sentence([(segments[0], 0)], GlossPlan([plan.total], plan.total))
            elif adjusted:
                # one DDIM run over the sentence's pairs laid end to end; the
                # noise is each pair's draw in pair order, as one run per pair
                # would draw it
                packed = pack_masks(masks)
                refined = ddim_refine(np.concatenate(adjusted), packed, denoiser, schedule,
                                      steps=config.ddim_steps, noise=np.concatenate(noise))
                parts = np.split(refined, np.cumsum(packed.lengths)[:-1])
                ours = assemble_sentence([(part, m.boundary_index) for part, m in zip(parts, masks)], plan)
            else:
                ours = assemble_sentence(_baseline_pairs(segments), plan)
            out.append(ComposedSentence(sid, ours, linear_baseline(segments), denoiser is None))
    finally:
        if denoiser is not None and ema_swap is not None:
            denoiser.params.restore(ema_swap)
    return out


def _sentence_segments(data: PreparedData, sample) -> list[np.ndarray]:
    """The trimmed cores of a held-out sentence's glosses, in the clip
    variants of its first round (variant 0 where it has no pair spec)."""
    variants = data.round_variants.get(f"{sample.sentence_id}.r0", {})
    return [data.cores[f"{g}.v{variants.get(i, 0)}"] for i, g in enumerate(sample.glosses)]


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
    return assemble_sentence(pairs, _natural_plan(pairs, len(segments)))


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
    rows, paths = [], []
    for sid, seq in outputs.items():
        ref = by_id[sid].frames
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
    refs = [by_id[sid].frames for sid in outputs]
    summary["length_ratio"] = length_ratio([seq.num_frames for seq in outputs.values()],
                                           [ref.shape[0] for ref in refs])
    summary["fgd"] = fgd(np.concatenate([seq.frames for seq in outputs.values()]), np.concatenate(refs))
    return {"rows": rows, "paths": paths, "summary": summary}


def evaluate_composed(
    composed: list[ComposedSentence],
    data: PreparedData,
    dump_paths: bool = False,
) -> dict:
    """Sentence-level metrics table for the refined outputs and the linear
    baseline. Only the refined outputs are scored here: the baseline's rows,
    paths and summary are the ones the baseline stage stored
    (`data.baseline`), and its rows take each sentence's `fallback` from
    compose. `composed` must hold the held-out sentences in order.

    With dump_paths, the DTW alignment path of each output against its
    reference is included for debugging.
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
    out = {"rows": rows, "summary": {"ours": ours["summary"], "baseline": baseline["summary"]}}
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


def run_pipeline(config: PipelineConfig, until: str = "eval", dump_paths: bool = False) -> dict:
    """Run the stages in order through `until` and return `StageStore.report`
    with this run's timings.

    When every stage through `until` hits (see StageStore; with dump_paths,
    the eval stage must also have written paths.jsonl), nothing is loaded.
    Otherwise prepare, duration and inpaint are reused up to the first stage
    that misses, and that stage and every later one are recomputed; compose
    and eval are always recomputed together, because eval scores the
    in-memory frames, which the float32 SVMX files do not hold exactly. The
    eval stage also writes metrics.jsonl and report.json under eval/, and
    paths.jsonl with the DTW alignment paths when dump_paths is set.
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

    def report() -> dict:
        return store.report(config, until) | {"timings": timings}

    if store.done_through(config, until) and not (
            dump_paths and until == "eval" and "paths.jsonl" not in store.manifest("eval")["outputs"]):
        lap("cached")
        return report()

    data = prepare_data(config, store)
    lap("prepare")

    gloss_model, sent_model = train_duration_stage(config, store, data)
    lap("duration")
    if until == "duration":
        return report()

    denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
    lap("inpaint")
    if until == "inpaint":
        return report()

    compose_dir = store.begin("compose")
    composed = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
    outputs = []
    for item in composed:
        for method in ("ours", "baseline"):
            name = f"{item.sentence_id}.{method}.svmx"
            with atomic_path(compose_dir / name) as tmp:
                write_motion(tmp, getattr(item, method))
            outputs.append(name)
    store.write_manifest("compose", config, outputs, {"denoiser_fallback": any(c.fallback for c in composed)})
    lap("compose")
    if until == "compose":
        return report()

    eval_dir = store.begin("eval")
    # the manifest lists report.json, which is written after it: until then
    # the stage misses, and no report.json of an earlier run is left to count
    (eval_dir / "report.json").unlink(missing_ok=True)
    eval_result = evaluate_composed(composed, data, dump_paths=dump_paths)
    lap("eval")
    outputs = ["metrics.jsonl", "report.json"]
    _write_text(eval_dir / "metrics.jsonl", _jsonl(eval_result["rows"]))
    if dump_paths:
        _write_text(eval_dir / "paths.jsonl", _jsonl(eval_result["paths"]))
        outputs.append("paths.jsonl")
    else:
        # the paths of an earlier run would not belong to these outputs
        (eval_dir / "paths.jsonl").unlink(missing_ok=True)
    store.write_manifest("eval", config, outputs, {"sentence": eval_result["summary"]})
    result = report()
    _write_text(eval_dir / "report.json", json.dumps(result, sort_keys=True, indent=1))
    return result
