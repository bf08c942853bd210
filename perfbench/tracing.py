"""Span recorder for traced benchmark runs.

Spans are recorded from the benchmark's side only: `install` replaces public
functions and methods of signweave with thin wrappers, at every name a caller
looks them up by (a function imported into `signweave.pipeline` is patched
there as well as in its own module), and `uninstall` puts the originals back.
Per-op `Tensor` arithmetic is never wrapped. Untraced runs install nothing.

Each span is `[name, start, end, parent, run]`: `parent` is the index of the
enclosing span (-1 at top level) and `run` the benchmark iteration it belongs
to. Spans stay in memory and are written once, at the end of the run. Hooks
add deterministic counts computed from argument shapes and file sizes (DTW
cells, denoiser rows, bytes written, fp64 outputs).
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


# the spans directly under `run_pipeline` that make up each of its stages
PIPELINE_STAGES = {
    "prepare": ("pipeline.prepare_data",),
    "duration": ("pipeline.train_duration_stage",),
    "inpaint": ("pipeline.train_inpaint_stage",),
    "compose": ("pipeline.compose_and_stitch", "motion.write_motion"),
    "eval": ("pipeline.evaluate_composed", "pipeline.evaluate_duration"),
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return traced

    def install(self, sites) -> None:
        """Patch every (span name, owners, attribute, hook) site."""
        for name, owners, attr, hook in sites:
            present = [o for o in owners if attr in vars(o)]
            self.missing += [f"{getattr(o, '__name__', o)}.{attr}" for o in owners if o not in present]
            wrappers: dict[int, object] = {}
            for owner in present:
                original = vars(owner)[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, hook)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus
        the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def stage_seconds(self) -> dict[str, float]:
        """Seconds of each `run_pipeline` stage in the first pass of an
        iteration, as the median over iterations. A stage is the direct
        child spans of `run_pipeline` that make it up."""
        first: dict[int, int] = {}
        for idx, (name, _, _, _, run) in enumerate(self.spans):
            if name == "pipeline.run_pipeline":
                first.setdefault(run, idx)
        per_stage = {stage: [0.0] * len(first) for stage in PIPELINE_STAGES}
        slot = {idx: i for i, idx in enumerate(first.values())}
        for name, start, end, parent, _ in self.spans:
            for stage, names in PIPELINE_STAGES.items():
                if parent in slot and name in names:
                    per_stage[stage][slot[parent]] += end - start
        return {stage: statistics.median(v) if v else 0.0 for stage, v in per_stage.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# hooks: deterministic counts from arguments, results and files


def _file_bytes(key, path_arg):
    def hook(rec, result, *args, **kwargs):
        rec.count(key, os.path.getsize(args[path_arg]))
    return hook


def _stage_hit(rec, result, *args, **kwargs):
    rec.count("stage_hits", bool(result))


def _sent_forward(rec, result, *args, **kwargs):
    rec.count("sent_forward_fp64", any(t.data.dtype == np.float64 for t in result))


def _denoiser_forward(rec, result, self, x_t, *args, **kwargs):
    rec.count("forward_rows", int(np.prod(np.shape(x_t)[:-1])))
    rec.count("denoiser_fp64", result.data.dtype == np.float64)


def _dtw_cells(key):
    def hook(rec, result, a, b, *args, **kwargs):
        rec.count(key, len(a) * len(b))
    return hook


def _trim(rec, result, *args, **kwargs):
    rec.count("trim_fallbacks", "boundary-fallback" in result.flags or "span-too-short" in result.flags)


def _qc(rec, result, *args, **kwargs):
    rec.count("qc_kept", bool(result.keep))


def _retrieve(rec, result, query, corpus, *args, **kwargs):
    rec.count("bm25_docs_scored", len(corpus))


def patch_sites():
    """Everything the traced run wraps, as (span name, owners, attribute, hook)."""
    from importlib import import_module

    from signweave import glossnorm, metrics, motion, pipeline, qc, records, retrieval, synth, trimming
    from signweave.duration import GlossDurationPredictor, SentenceDurationPredictor
    from signweave.inpaint.denoiser import Denoiser
    from signweave.neuralkit.optim import AdamW
    from signweave.neuralkit.tensor import Tensor

    # submodules by path: their packages export functions of the same names
    train = import_module("signweave.inpaint.train")
    checkpoint = import_module("signweave.neuralkit.checkpoint")

    p = pipeline
    return [
        ("pipeline.run_pipeline", [p], "run_pipeline", None),
        ("pipeline.prepare_data", [p], "prepare_data", None),
        ("pipeline.train_duration_stage", [p], "train_duration_stage", None),
        ("pipeline.train_inpaint_stage", [p], "train_inpaint_stage", None),
        ("pipeline.compose_and_stitch", [p], "compose_and_stitch", None),
        ("pipeline.evaluate_composed", [p], "evaluate_composed", None),
        ("pipeline.evaluate_duration", [p], "evaluate_duration", None),
        ("pipeline.StageStore.is_done", [p.StageStore], "is_done", _stage_hit),
        ("synth.synth_generate", [p, synth], "synth_generate", None),
        ("records.export_canonical", [p, records], "export_canonical", _file_bytes("export_bytes", 1)),
        ("records.ingest", [records], "ingest", None),
        ("qc.qc_filters", [p, qc], "qc_filters", _qc),
        ("qc.dominant_split", [qc], "dominant_split", None),
        ("qc.subsequence_dtw_distance", [qc], "subsequence_dtw_distance", _dtw_cells("subseq_cells")),
        ("trimming.trim", [p, trimming], "trim", _trim),
        ("duration.build_duration_examples", [p], "build_duration_examples", None),
        ("duration.train_gloss_predictor", [p], "train_gloss_predictor", None),
        ("duration.train_sentence_predictor", [p], "train_sentence_predictor", None),
        ("duration.SentenceDurationPredictor.forward", [SentenceDurationPredictor], "forward",
         _sent_forward),
        ("duration.GlossDurationPredictor.predict", [GlossDurationPredictor], "predict", None),
        ("duration.SentenceDurationPredictor.predict", [SentenceDurationPredictor], "predict", None),
        ("neuralkit.AdamW.step", [AdamW], "step", None),
        ("neuralkit.Tensor.backward", [Tensor], "backward", None),
        ("neuralkit.save_checkpoint", [p, checkpoint], "save_checkpoint",
         _file_bytes("checkpoint_bytes", 0)),
        ("neuralkit.load_checkpoint", [p, checkpoint], "load_checkpoint", None),
        ("inpaint.train_inpainter", [p, train], "train_inpainter", None),
        ("inpaint.batch_loss", [train], "batch_loss", None),
        ("inpaint.Denoiser.forward", [Denoiser], "forward", _denoiser_forward),
        ("inpaint.Denoiser.predict_x0", [Denoiser], "predict_x0", None),
        ("inpaint.ddim_refine", [p], "ddim_refine", None),
        ("stitch.assemble_sentence", [p], "assemble_sentence", None),
        ("motion.write_motion", [p, motion], "write_motion", _file_bytes("svmx_bytes", 0)),
        ("metrics.dtw_error", [p, metrics], "dtw_error", None),
        ("metrics.dtw_align", [p, metrics], "dtw_align", _dtw_cells("dtw_cells")),
        ("metrics.procrustes", [metrics], "procrustes", None),
        ("metrics.fgd", [p, metrics], "fgd", None),
        ("glossnorm.normalize_line", [glossnorm], "normalize_line", None),
        ("retrieval.retrieve", [retrieval], "retrieve", _retrieve),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: SpanRecorder, runs: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, per benchmark iteration.

    `_s` values and counts are per iteration; `_ms`/`_us` values are per call;
    ratios and shares are over all calls.
    """
    rows = rec.self_times()
    c = rec.counts

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def per_call_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"pipeline.{stage}_s": seconds for stage, seconds in rec.stage_seconds().items()}
    out.update({
        "pipeline.stage_hit_ratio": ratio(c["stage_hits"], calls("pipeline.StageStore.is_done")),
        "neuralkit.adamw_step_ms": per_call_ms("neuralkit.AdamW.step"),
        "neuralkit.adamw_steps": calls("neuralkit.AdamW.step") / runs,
        "neuralkit.backward_ms": per_call_ms("neuralkit.Tensor.backward"),
        "neuralkit.checkpoint_save_ms": per_call_ms("neuralkit.save_checkpoint"),
        "neuralkit.checkpoint_load_ms": per_call_ms("neuralkit.load_checkpoint"),
        "neuralkit.checkpoint_bytes": c["checkpoint_bytes"] / runs,
        "duration.gloss_train_s": total("duration.train_gloss_predictor") / runs,
        "duration.sent_train_s": total("duration.train_sentence_predictor") / runs,
        "duration.sent_forward_ms": per_call_ms("duration.SentenceDurationPredictor.forward"),
        "duration.predict_calls": (calls("duration.GlossDurationPredictor.predict")
                                   + calls("duration.SentenceDurationPredictor.predict")) / runs,
        "duration.example_builds": calls("duration.build_duration_examples") / runs,
        "duration.sent_forward_fp64_share": ratio(
            c["sent_forward_fp64"], calls("duration.SentenceDurationPredictor.forward")),
        "inpaint.train_steps": calls("inpaint.batch_loss") / runs,
        "inpaint.train_step_ms": 1e3 * ratio(total("inpaint.train_inpainter"), calls("inpaint.batch_loss")),
        "inpaint.denoiser_forward_calls": calls("inpaint.Denoiser.forward") / runs,
        "inpaint.denoiser_forward_ms": per_call_ms("inpaint.Denoiser.forward"),
        "inpaint.denoiser_fp64_share": ratio(c["denoiser_fp64"], calls("inpaint.Denoiser.forward")),
        "inpaint.forward_rows": c["forward_rows"] / runs,
        "inpaint.ddim_pairs": calls("inpaint.ddim_refine") / runs,
        "inpaint.ddim_pair_ms": per_call_ms("inpaint.ddim_refine"),
        "inpaint.predict_x0_calls": calls("inpaint.Denoiser.predict_x0") / runs,
        "stitch.assemble_calls": calls("stitch.assemble_sentence") / runs,
        "stitch.assemble_ms": per_call_ms("stitch.assemble_sentence"),
        "metrics.dtw_calls": calls("metrics.dtw_align") / runs,
        "metrics.dtw_ms": per_call_ms("metrics.dtw_align"),
        "metrics.dtw_cells": c["dtw_cells"] / runs,
        "metrics.dtw_cells_per_s": ratio(c["dtw_cells"], total("metrics.dtw_align")),
        "metrics.procrustes_calls": calls("metrics.procrustes") / runs,
        "metrics.procrustes_ms": per_call_ms("metrics.procrustes"),
        "metrics.fgd_ms": per_call_ms("metrics.fgd"),
        "qc.filter_ms": per_call_ms("qc.qc_filters"),
        "qc.kept_ratio": ratio(c["qc_kept"], calls("qc.qc_filters")),
        "qc.subseq_dtw_calls": calls("qc.subsequence_dtw_distance") / runs,
        "qc.subseq_dtw_ms": per_call_ms("qc.subsequence_dtw_distance"),
        "qc.subseq_dtw_cells": c["subseq_cells"] / runs,
        "trimming.clips": calls("trimming.trim") / runs,
        "trimming.trim_ms": per_call_ms("trimming.trim"),
        "trimming.fallback_ratio": ratio(c["trim_fallbacks"], calls("trimming.trim")),
        "synth.generate_s": total("synth.synth_generate") / runs,
        "records.export_s": total("records.export_canonical") / runs,
        "records.export_bytes": c["export_bytes"] / runs,
        "records.ingest_s": total("records.ingest") / runs,
        "motion.svmx_writes": calls("motion.write_motion") / runs,
        "motion.svmx_write_ms": per_call_ms("motion.write_motion"),
        "motion.svmx_bytes": c["svmx_bytes"] / runs,
        "glossnorm.lines": calls("glossnorm.normalize_line") / runs,
        "glossnorm.line_us": 1e3 * per_call_ms("glossnorm.normalize_line"),
        "retrieval.queries": calls("retrieval.retrieve") / runs,
        "retrieval.query_ms": per_call_ms("retrieval.retrieve"),
        "retrieval.bm25_docs_scored": c["bm25_docs_scored"] / runs,
        "trace.overhead_s": overhead_s,
    })
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_bytes", "B"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"
