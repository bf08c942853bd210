"""Stage orchestration: synthetic corpus, QC, trimming, predictor and denoiser
training, pair composition, sentence stitching, and evaluation.

Stages persist their outputs under the work directory with a manifest that
records the relevant config hash and seed, making reruns resumable and
deterministic.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
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

WORKERS_ENV = "SIGNWEAVE_WORKERS"


@dataclass
class PipelineConfig:
    work_dir: str = "work"
    seed: int = 0
    synth: SynthSpec = field(default_factory=SynthSpec)
    pair_rounds: int = 2
    holdout_fraction: float = 0.08
    trim: TrimConfig = field(default_factory=TrimConfig)
    use_annotated_spans: bool = False
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

    @property
    def workers(self) -> int:
        return max(int(os.environ.get(WORKERS_ENV, "1")), 1)


# stage order with the config fields each stage depends on (cumulative hashing)
STAGE_FIELDS = [
    ("synth", ["seed", "synth", "pair_rounds", "holdout_fraction"]),
    ("qc", ["qc"]),
    ("trim", ["trim", "use_annotated_spans"]),
    ("duration", ["dur_model", "dur_gloss", "dur_sent", "min_gloss_len"]),
    ("inpaint", ["denoiser", "inpaint_train"]),
    ("compose", ["ddim_steps", "inference_radius", "baseline_transition_frames"]),
    ("eval", []),
]

# the stages `run_pipeline` can stop after; synth, qc and trim run as one
# prepare step before them
RUN_STAGES = ("duration", "inpaint", "compose", "eval")


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
    """Hash of every config field the stage (and its predecessors) depends on."""
    payload = {}
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


class StageStore:
    """Per-stage manifest bookkeeping under the work directory."""

    def __init__(self, work_dir: str | Path):
        self.root = Path(work_dir)
        self.root.mkdir(parents=True, exist_ok=True)

    def stage_dir(self, stage: str) -> Path:
        d = self.root / stage
        d.mkdir(parents=True, exist_ok=True)
        return d

    def manifest_path(self, stage: str) -> Path:
        return self.stage_dir(stage) / "manifest.json"

    def is_done(self, stage: str, config_hash: str) -> bool:
        path = self.manifest_path(stage)
        if not path.exists():
            return False
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError:
            return False
        return manifest.get("config_hash") == config_hash

    def write_manifest(self, stage: str, config_hash: str, seed: int, outputs: list[str],
                       extra: dict | None = None) -> None:
        manifest = {"stage": stage, "config_hash": config_hash, "seed": seed, "outputs": outputs}
        if extra:
            manifest.update(extra)
        self.manifest_path(stage).write_text(json.dumps(manifest, sort_keys=True, indent=1))


# ---------------------------------------------------------------------------
# stage implementations


def _trim_one(args) -> tuple[tuple[int, int], bool]:
    """Worker task: core span for one clip (annotated span on fallback)."""
    clip, cfg, use_annotated = args
    if use_annotated:
        return clip.core_span, False
    result = trim(clip, None, cfg)
    if "boundary-fallback" in result.flags or "span-too-short" in result.flags:
        return clip.core_span, True
    return result.span, False


def _map_items(fn, items, workers: int):
    """Map over independent items, optionally on a process pool."""
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(len(items) // (workers * 4), 1)))


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


def prepare_data(config: PipelineConfig, store: StageStore) -> PreparedData:
    """Stages synth + qc + trim; cheap enough to recompute deterministically."""
    t0 = time.time()
    corpus = synth_generate(config.synth, rounds=config.pair_rounds)
    synth_dir = store.stage_dir("synth")
    h_synth = stage_hash(config, "synth")
    if not store.is_done("synth", h_synth):
        export_canonical(corpus.word_records(), synth_dir / "words.json", "W")
        export_canonical(corpus.dialogue_records(), synth_dir / "dialogues.json", "U")
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
        store.write_manifest("qc", h_qc, config.seed, [], {"kept_clips": kept})

    h_trim = stage_hash(config, "trim")
    trim_dir = store.stage_dir("trim")
    spans_path = trim_dir / "spans.json"
    fallbacks = 0
    spans: dict[str, list[int]] = {}
    if store.is_done("trim", h_trim) and spans_path.exists():
        spans = {k: v for k, v in json.loads(spans_path.read_text()).items()}
    else:
        all_clips = [clip for clips in corpus.clips.values() for clip in clips]
        results = _map_items(_trim_one,
                             [(clip, config.trim, config.use_annotated_spans) for clip in all_clips],
                             config.workers)
        for clip, (span, fell_back) in zip(all_clips, results):
            fallbacks += int(fell_back)
            spans[clip.source["id"]] = [int(span[0]), int(span[1])]
        spans_path.write_text(json.dumps(spans, sort_keys=True))
        store.write_manifest("trim", h_trim, config.seed, ["spans.json"], {"fallbacks": fallbacks})

    cores = {}
    for gloss, clips in corpus.clips.items():
        for clip in clips:
            cid = clip.source["id"]
            s, e = spans[cid]
            cores[cid] = clip.motion.frames[s : e + 1]
    train_ids, eval_ids = _split_sentences(corpus, config.holdout_fraction, config.seed)
    return PreparedData(corpus, cores, train_ids, eval_ids, fallbacks)


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


def build_duration_examples(data: PreparedData, window: int) -> tuple[list[PairExample], list[PairExample], list[SentenceExample]]:
    """Pair examples (train + held-out) and sentence examples from the corpus.

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
    return (_pair_examples(data, window, held_out=False), _pair_examples(data, window, held_out=True),
            sent_examples)


def train_duration_stage(config: PipelineConfig, store: StageStore, data: PreparedData):
    h = stage_hash(config, "duration")
    stage_dir = store.stage_dir("duration")
    gloss_model = GlossDurationPredictor(config.dur_model, seed=config.seed)
    sent_model = SentenceDurationPredictor(config.dur_model, seed=config.seed)
    gloss_ckpt = stage_dir / "gloss.ckpt"
    sent_ckpt = stage_dir / "sent.ckpt"
    if store.is_done("duration", h) and gloss_ckpt.exists() and sent_ckpt.exists():
        restore_into(gloss_model.params, load_checkpoint(gloss_ckpt))
        restore_into(sent_model.params, load_checkpoint(sent_ckpt))
        return gloss_model, sent_model
    train_pairs, _, sent_examples = build_duration_examples(data, config.dur_model.window)
    t0 = time.time()
    train_gloss_predictor(train_pairs, gloss_model, config.dur_gloss)
    train_sentence_predictor(sent_examples, sent_model, config.dur_sent)
    save_checkpoint(gloss_ckpt, gloss_model.params)
    save_checkpoint(sent_ckpt, sent_model.params)
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
    schedule = DiffusionSchedule()
    h = stage_hash(config, "inpaint")
    stage_dir = store.stage_dir("inpaint")
    ckpt = stage_dir / "denoiser.ckpt"
    if config.inpaint_train.steps <= 0:
        return None, schedule
    if store.is_done("inpaint", h):
        if not ckpt.exists():
            # a completed stage whose checkpoint was removed: fall back to the
            # linear-transition baseline rather than retraining silently
            log.warning("inpaint manifest present but %s is missing; composing with the linear fallback", ckpt)
            return None, schedule
        denoiser = Denoiser(config.denoiser, seed=config.seed)
        restore_into(denoiser.params, load_checkpoint(ckpt))
        return denoiser, schedule
    denoiser = Denoiser(config.denoiser, seed=config.seed)
    items = build_inpaint_items(config, data, gloss_model)
    t0 = time.time()
    history = train_inpainter(items, denoiser, schedule, config.inpaint_train)
    save_checkpoint(ckpt, denoiser.params)
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


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def run_pipeline(config: PipelineConfig, until: str = "eval", dump_paths: bool = False) -> dict:
    """Run the stages in order through `until` and return the report so far.

    prepare, duration and inpaint reuse outputs whose manifest matches the
    config; compose and eval are recomputed on every run. The report after
    duration already holds the held-out duration evaluation. The eval stage
    also writes metrics.jsonl and report.json under eval/, and paths.jsonl
    with the DTW alignment paths when dump_paths is set.
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

    report = {"config_hash": stage_hash(config, until), "seed": config.seed, "timings": timings}
    data = prepare_data(config, store)
    report.update(trim_fallbacks=data.trim_fallbacks, eval_sentences=len(data.eval_ids))
    lap("prepare")

    gloss_model, sent_model = train_duration_stage(config, store, data)
    report["duration_eval"] = evaluate_duration(data, gloss_model, config.dur_model.window)
    lap("duration")
    if until == "duration":
        return report

    denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
    lap("inpaint")
    if until == "inpaint":
        return report

    composed = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
    compose_dir = store.stage_dir("compose")
    for item in composed:
        write_motion(compose_dir / f"{item.sentence_id}.ours.svmx", item.ours)
        write_motion(compose_dir / f"{item.sentence_id}.baseline.svmx", item.baseline)
    report["denoiser_fallback"] = any(c.fallback for c in composed)
    store.write_manifest("compose", stage_hash(config, "compose"), config.seed,
                         [f"{c.sentence_id}.ours.svmx" for c in composed],
                         {"fallback": report["denoiser_fallback"]})
    lap("compose")
    if until == "compose":
        return report

    eval_result = evaluate_composed(composed, data, dump_paths=dump_paths)
    report["sentence"] = eval_result["summary"]
    lap("eval")
    eval_dir = store.stage_dir("eval")
    _write_jsonl(eval_dir / "metrics.jsonl", eval_result["rows"])
    if dump_paths:
        _write_jsonl(eval_dir / "paths.jsonl", eval_result["paths"])
    (eval_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    store.write_manifest("eval", stage_hash(config, "eval"), config.seed,
                         ["metrics.jsonl", "report.json"])
    return report
