from __future__ import annotations

import dataclasses
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

import signweave.pipeline as pipeline
import signweave.synth as synth_module
from dtw_oracles import loop_dtw, loop_dtw_error
from signweave.duration import (DurationModelConfig, DurationTrainConfig, GlossDurationPredictor,
                                SentenceDurationPredictor, integer_plan)
from signweave.inpaint import Denoiser, DenoiserConfig, InpaintTrainConfig
from signweave.pipeline import (
    RUN_STAGES,
    STAGES,
    PipelineConfig,
    StageStore,
    atomic_path,
    _pair_examples,
    apply_overrides,
    build_duration_examples,
    build_inpaint_items,
    compose_and_stitch,
    config_from_dict,
    config_to_dict,
    evaluate_composed,
    evaluate_duration,
    prepare_data,
    run_pipeline,
    stage_hash,
    train_duration_stage,
    train_inpaint_stage,
)
from signweave.metrics import SyntheticSkeletonAdapter
from signweave.neuralkit import AdamW, load_checkpoint, restore_into, save_checkpoint
from signweave.qc import qc_filters
from signweave.synth import SynthSpec


def tiny_config(work_dir, steps=60, seed=7):
    return PipelineConfig(
        work_dir=str(work_dir),
        seed=seed,
        synth=SynthSpec(vocab_size=5, variants_per_gloss=3, n_sentences=12, seed=seed),
        pair_rounds=1,
        holdout_fraction=0.2,
        dur_gloss=DurationTrainConfig(tau=0.55, epochs=6),
        dur_sent=DurationTrainConfig(tau=0.60, epochs=8),
        denoiser=DenoiserConfig(latent=16, layers=1, heads=2, ffn=32, hand_head_depth=1),
        inpaint_train=InpaintTrainConfig(steps=steps, batch_size=4, ema_decay=0.98, lr=1e-3),
        ddim_steps=4,
    )


class TestConfig:
    def test_stage_hash_distinguishes_relevant_fields(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path)
        assert stage_hash(a, "synth") == stage_hash(b, "synth")
        b.ddim_steps = 9
        assert stage_hash(a, "synth") == stage_hash(b, "synth")
        assert stage_hash(a, "compose") != stage_hash(b, "compose")

    def test_default_stage_hashes_are_pinned(self):
        """A change to how the config is serialized must not invalidate
        existing work directories: the default config's hashes stay these
        (SCHEMA_VERSION 3; the qc and trim sections hold only the fields
        their rules read; the dur_model and denoiser sections hold no gloss
        limit and no denoiser motion width; the synth section holds no fps,
        variant_stretch, retract_frames, amplitude_jitter, style_noise or
        timing_warp, the trim section no lambda_v, n_consecutive, sg_window,
        sg_order, q_lo or q_hi, the dur_gloss and dur_sent sections no
        lambda_split or grad_clip, and the inpaint_train section no grad_clip
        or betas, all of them module constants). The baseline stage adds no
        field, so its hash is trim's."""
        assert {stage: stage_hash(PipelineConfig(), stage) for stage in STAGES} == {
            "synth": "f5e31116d0050dfa",
            "qc": "d2bb35d00c556a4e",
            "trim": "7c47bb1b6bbd926e",
            "baseline": "7c47bb1b6bbd926e",
            "duration": "67a7d1b55b98ff78",
            "inpaint": "b82ea75115aac811",
            "compose": "15f85f8ad0ebf03b",
            "eval": "15f85f8ad0ebf03b",
        }

    def test_apply_overrides(self, tmp_path):
        config = tiny_config(tmp_path)
        apply_overrides(config, ["ddim_steps=9", "inpaint_train.lr=0.002", "holdout_fraction=0.5"])
        assert config.ddim_steps == 9
        assert config.inpaint_train.lr == 0.002
        assert config.holdout_fraction == 0.5

    def test_frozen_section_fields_take_overrides(self, tmp_path):
        """A field of a frozen section is set as a config file sets it: the
        section is replaced by a checked copy, and a bad value names its key
        and leaves the config as it was."""
        config = tiny_config(tmp_path)
        synth = config.synth
        apply_overrides(config, ["synth.vocab_size=3", "denoiser.dtype=float64", "trim.margin=2",
                                 "qc.max_duration_seconds=9.5", "dur_model.window=3", "synth.prep_frames=4,9"])
        assert config.synth == dataclasses.replace(synth, vocab_size=3, prep_frames=(4, 9)) and synth.vocab_size == 5
        assert config.denoiser.dtype is np.float64 and config.trim.margin == 2
        assert config.qc.max_duration_seconds == 9.5 and config.dur_model.window == 3
        before = config_to_dict(config)
        for override, message in (("ddim_steps=abc", "config key ddim_steps must be of type int, got 'abc'"),
                                  ("synth.vocab_size=0", "synth.vocab_size must be at least 1, got 0"),
                                  ("denoiser.dtype=float16", "config key denoiser.dtype must be one of")):
            with pytest.raises(ValueError, match=re.escape(message)):
                apply_overrides(config, [override])
        assert config_to_dict(config) == before


class TestDataPreparation:
    def test_prepare_and_split(self, tmp_path):
        config = tiny_config(tmp_path)
        data = prepare_data(config, StageStore(config.work_dir))
        assert len(data.train_ids) + len(data.eval_ids) == 12
        assert len(data.eval_ids) >= 1
        assert set(data.train_ids).isdisjoint(data.eval_ids)
        assert len(data.cores) == 5 * 3

    @pytest.mark.parametrize("rounds, user", [(1, r"pair \d+ of s\d{4}\.r0"), (0, r"held-out sentence s\d{4}")])
    def test_qc_discarding_a_composed_clip_is_an_error(self, tmp_path, rounds, user):
        """Pairs and held-out sentences pick their clip variants before qc
        runs: qc that discards one of them is a ValueError naming the clip,
        a user of it and the qc limit, raised before the qc manifest. With no
        pair rounds, a held-out sentence takes each gloss's variant 0."""
        config = tiny_config(tmp_path)
        config.pair_rounds = rounds
        config.qc = dataclasses.replace(config.qc, max_duration_seconds=2.0)
        store = StageStore(config.work_dir)
        with pytest.raises(ValueError) as err:
            prepare_data(config, store)
        message = str(err.value)
        match = re.fullmatch(rf"qc discarded clip (V\d\d\.v\d), which {user} is composed from: it is "
                             r"longer than qc\.max_duration_seconds \(2\.0 s\)", message)
        assert match, message
        corpus = synth_module.synth_generate(config.synth, rounds=config.pair_rounds)
        clip = next(c for clips in corpus.clips.values() for c in clips if c.source["id"] == match[1])
        assert clip.motion.duration_seconds > 2.0
        assert store.manifest_path("synth").is_file() and not store.manifest_path("qc").exists()

    def test_duration_examples_cover_pairs(self, tmp_path):
        config = tiny_config(tmp_path)
        data = prepare_data(config, StageStore(config.work_dir))
        train_pairs, sentences = build_duration_examples(data, config.dur_model.window)
        eval_pairs = _pair_examples(data, config.dur_model.window, held_out=True)
        total_pairs = sum(len(s.glosses) - 1 for s in data.corpus.sentences)
        assert len(train_pairs) + len(eval_pairs) == total_pairs  # one round
        assert len(sentences) == len(data.train_ids)
        for ex in train_pairs[:5]:
            assert np.isfinite(ex.features).all()
            assert abs(ex.allocation.sum() - 1.0) < 1e-9

    def test_inpaint_items_aligned(self, tmp_path):
        config = tiny_config(tmp_path)
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        gloss_model, _ = train_duration_stage(config, store, data)
        items = build_inpaint_items(config, data, gloss_model)
        assert items
        for item in items:
            assert item.x_tilde.shape == item.x0.shape
            # the conditioning reads x_tilde in the denoiser's dtype, q_sample x0 in float64
            assert item.x_tilde.dtype == config.denoiser.dtype and item.x0.dtype == np.float64
            assert 0 < item.boundary_index < item.x0.shape[0]


class TestEndToEnd:
    def test_run_pipeline_and_resume(self, tmp_path):
        config = tiny_config(tmp_path / "work")
        report = run_pipeline(config)
        assert report["eval_sentences"] >= 1
        assert not report["denoiser_fallback"]
        assert (tmp_path / "work" / "eval" / "report.json").exists()
        rows = [json.loads(l) for l in (tmp_path / "work" / "eval" / "metrics.jsonl").read_text().splitlines()]
        assert {r["method"] for r in rows} == {"ours", "baseline"}

        # rerun with the same config: every stage hits and the report is the stored one
        assert _without_timings(run_pipeline(config)) == _without_timings(report)

    def test_one_gloss_sentences_are_composed_and_scored(self, tmp_path):
        """Held-out sentences of one gloss take compose's no-pair path; both
        methods are scored, and ours has its sentence plan's length."""
        config = tiny_config(tmp_path / "work", steps=4)
        config.synth = dataclasses.replace(config.synth, sentence_length=(1, 2))
        config.holdout_fraction = 0.34
        report = run_pipeline(config)
        assert report["denoiser_fallback"] is False
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        _, sent_model = train_duration_stage(config, store, data)
        by_id = {s.sentence_id: s for s in data.corpus.sentences}
        assert sorted({len(by_id[sid].glosses) for sid in data.eval_ids}) == [1, 2]
        rows = [json.loads(line) for line in
                (tmp_path / "work" / "eval" / "metrics.jsonl").read_text().splitlines()]
        assert [(r["sentence_id"], r["method"]) for r in rows] == [
            (sid, method) for sid in data.eval_ids for method in ("ours", "baseline")]
        for row in rows:
            assert all(np.isfinite(row[key]) for key in pipeline.ERROR_KEYS)
            segments = pipeline._sentence_segments(data, by_id[row["sentence_id"]])
            if row["method"] == "ours":
                plan = integer_plan(sum(len(seg) for seg in segments), sent_model.predict(segments),
                                    config.min_gloss_len)
                assert row["pred_frames"] == plan.total
            elif len(segments) == 1:
                assert row["pred_frames"] == len(segments[0])

    def test_missing_denoiser_falls_back_to_linear(self, tmp_path):
        config = tiny_config(tmp_path / "work", steps=0)
        report = run_pipeline(config)
        assert report["denoiser_fallback"] is True
        # with the fallback, both paths assemble from linear-transition pairs
        summary = report["sentence"]
        assert summary["ours"]["dtw_mpjpe_overall"] > 0

    def test_compose_outputs_exist(self, tmp_path):
        config = tiny_config(tmp_path / "work")
        run_pipeline(config)
        compose_dir = tmp_path / "work" / "compose"
        files = list(compose_dir.glob("*.svmx"))
        assert files


class TestDeterminism:
    def test_two_fresh_runs_identical(self, tmp_path):
        r1 = run_pipeline(tiny_config(tmp_path / "a"))
        r2 = run_pipeline(tiny_config(tmp_path / "b"))
        assert r1["sentence"] == r2["sentence"]
        assert r1["duration_eval"] == r2["duration_eval"]

    def test_sentence_composed_alone_is_byte_identical(self, tmp_path):
        """DDIM packs the pairs of one sentence, never of several: a sentence's
        frames do not depend on which other sentences are held out."""
        config = tiny_config(tmp_path / "work", steps=4)
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        gloss_model, sent_model = train_duration_stage(config, store, data)
        denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
        together = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
        assert len(together) >= 2 and not any(c.fallback for c in together)
        for composed in reversed(together):
            alone = dataclasses.replace(data, eval_ids=[composed.sentence_id])
            [again] = compose_and_stitch(config, alone, gloss_model, sent_model, denoiser, schedule)
            assert again.ours.frames.tobytes() == composed.ours.frames.tobytes()


def _without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def _forbid(monkeypatch, *names):
    """Make each named function of the pipeline module raise when called."""
    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")
        monkeypatch.setattr(pipeline, name, forbidden)


def _spy(monkeypatch, name) -> list:
    """Count the calls of a function of the pipeline module."""
    calls = []
    original = getattr(pipeline, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, spy)
    return calls


def _scored_methods(monkeypatch) -> list:
    """Record the method of each `score_sentences` call."""
    methods = []
    score_sentences = pipeline.score_sentences

    def spy(method, *args, **kwargs):
        methods.append(method)
        return score_sentences(method, *args, **kwargs)

    monkeypatch.setattr(pipeline, "score_sentences", spy)
    return methods


TRAINING = ("train_gloss_predictor", "train_sentence_predictor", "train_inpainter")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A work directory after one full run, and the run's report."""
    work = tmp_path_factory.mktemp("finished") / "work"
    return work, run_pipeline(tiny_config(work))


@pytest.fixture(scope="module")
def clean_ddim2_run(tmp_path_factory):
    """A fresh run with ddim_steps=2: its work directory and report."""
    config = tiny_config(tmp_path_factory.mktemp("clean") / "work")
    config.ddim_steps = 2
    return Path(config.work_dir), run_pipeline(config)


@pytest.fixture
def rerun(finished_run, tmp_path):
    """A copy of the finished work directory, its config, and the first report."""
    work, report = finished_run
    shutil.copytree(work, tmp_path / "work")
    return tiny_config(tmp_path / "work"), report


class TestResume:
    @pytest.mark.parametrize("until", ["duration", "inpaint", "compose", "eval"])
    def test_unchanged_rerun_loads_nothing(self, rerun, monkeypatch, until):
        config, first = rerun
        _forbid(monkeypatch, "prepare_data", "train_duration_stage", "train_inpaint_stage",
                "compose_and_stitch", "evaluate_composed", "synth_generate", "load_checkpoint")
        report = run_pipeline(config, until=until)
        expected = {k: v for k, v in first.items() if k in report and k != "timings"}
        assert _without_timings(report) == expected | {"config_hash": stage_hash(config, until)}
        assert ("denoiser_fallback" in report) == (until in ("compose", "eval"))
        assert ("sentence" in report) == (until == "eval")

    def test_fresh_run_writes_each_manifest_once(self, tmp_path, monkeypatch):
        written = []
        write_text = pipeline._write_text

        def counted(path, text):
            written.append(path)
            write_text(path, text)

        monkeypatch.setattr(pipeline, "_write_text", counted)
        run_pipeline(tiny_config(tmp_path / "work"))
        assert sorted(p.parent.name for p in written if p.name == "manifest.json") == sorted(STAGES)

    def test_full_hit_parses_each_manifest_once(self, rerun, monkeypatch):
        config, _ = rerun
        reads = []
        read_text = Path.read_text

        def counted(self, *args, **kwargs):
            if self.name == "manifest.json":
                reads.append(self.parent.name)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        run_pipeline(config)
        assert sorted(reads) == sorted(STAGES)

    def test_rerun_without_compose_and_eval_reuses_duration_eval(self, rerun, monkeypatch):
        config, first = rerun
        for stage in ("compose", "eval"):
            shutil.rmtree(Path(config.work_dir) / stage)
        _forbid(monkeypatch, "evaluate_duration", *TRAINING)
        assert _without_timings(run_pipeline(config)) == _without_timings(first)

    def test_rerun_without_compose_and_eval_scores_only_ours(self, rerun, monkeypatch):
        config, first = rerun
        work = Path(config.work_dir)
        before = {name: (work / "eval" / name).read_bytes() for name in ("metrics.jsonl", "report.json")}
        for stage in ("compose", "eval"):
            shutil.rmtree(work / stage)
        scored = _scored_methods(monkeypatch)
        assert _without_timings(run_pipeline(config)) == _without_timings(first)
        assert scored == ["ours"]
        assert (work / "eval" / "metrics.jsonl").read_bytes() == before["metrics.jsonl"]
        report = json.loads((work / "eval" / "report.json").read_text())
        assert _without_timings(report) == _without_timings(json.loads(before["report.json"]))

    @pytest.mark.parametrize("damage", ["remove the stage", "truncate the scores", "drop a row"])
    def test_missing_or_undecodable_baseline_is_scored_again(self, rerun, monkeypatch, damage):
        config, first = rerun
        work = Path(config.work_dir)
        scores = work / "baseline" / "scores.json"
        good = scores.read_bytes()
        metrics = (work / "eval" / "metrics.jsonl").read_bytes()
        if damage == "remove the stage":
            shutil.rmtree(work / "baseline")
        elif damage == "truncate the scores":
            scores.write_bytes(good[: len(good) // 2])
        else:
            stored = json.loads(good)
            stored["rows"].pop()
            scores.write_text(json.dumps(stored))
        if damage != "remove the stage":
            # a full hit decodes no stored output; a run that prepares does
            shutil.rmtree(work / "eval")
        scored = _scored_methods(monkeypatch)
        # as with trim, the recomputed stage breaks the chain: every later stage misses
        trained = [_spy(monkeypatch, name) for name in TRAINING]
        assert _without_timings(run_pipeline(config)) == _without_timings(first)
        assert sorted(scored) == ["baseline", "ours"]
        assert all(trained)
        assert scores.read_bytes() == good
        assert (work / "eval" / "metrics.jsonl").read_bytes() == metrics

    def test_standalone_stages_then_run_pipeline(self, tmp_path, finished_run):
        """The stages called one by one, as a caller that only wants the
        trained models does, leave a directory whose reports match a plain run."""
        _, first = finished_run
        config = tiny_config(tmp_path / "work")
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        gloss_model, _ = train_duration_stage(config, store, data)
        train_inpaint_stage(config, store, data, gloss_model)
        later = {"duration": {"denoiser_fallback", "sentence"}, "inpaint": {"denoiser_fallback", "sentence"},
                 "compose": {"sentence"}, "eval": set()}
        for until in RUN_STAGES:
            expected = {k: v for k, v in _without_timings(first).items() if k not in later[until]}
            report = run_pipeline(config, until=until)
            assert _without_timings(report) == expected | {"config_hash": stage_hash(config, until)}

    def test_rerun_without_denoiser_hits(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path / "work", steps=0)
        first = run_pipeline(config)
        assert first["denoiser_fallback"] is True
        assert json.loads((tmp_path / "work" / "inpaint" / "manifest.json").read_text())["outputs"] == []
        _forbid(monkeypatch, "prepare_data", "compose_and_stitch")
        assert _without_timings(run_pipeline(config)) == _without_timings(first)

    def test_changed_ddim_steps_reuses_training(self, rerun, clean_ddim2_run, monkeypatch):
        config, first = rerun
        _forbid(monkeypatch, *TRAINING)
        composed, evaluated = _spy(monkeypatch, "compose_and_stitch"), _spy(monkeypatch, "evaluate_composed")
        config.ddim_steps = 2
        report = run_pipeline(config)
        assert composed and evaluated
        assert report["config_hash"] == stage_hash(config, "eval") != first["config_hash"]
        assert _without_timings(report) == _without_timings(clean_ddim2_run[1])
        for stage in ("compose", "eval"):
            manifest = json.loads((Path(config.work_dir) / stage / "manifest.json").read_text())
            assert manifest["config_hash"] == stage_hash(config, stage)

    @pytest.mark.parametrize("victim", ["eval/metrics.jsonl", "compose/*.baseline.svmx", "eval/paths.jsonl"])
    def test_missing_output_recomputes_compose_and_eval(self, rerun, monkeypatch, victim):
        config, first = rerun
        path = sorted(Path(config.work_dir).glob(victim))[0]
        before = path.read_bytes()
        path.unlink()
        _forbid(monkeypatch, *TRAINING)
        composed, evaluated = _spy(monkeypatch, "compose_and_stitch"), _spy(monkeypatch, "evaluate_composed")
        report = run_pipeline(config)
        assert len(composed) == len(evaluated) == 1
        assert path.read_bytes() == before
        assert _without_timings(report) == _without_timings(first)

    def test_schema_version_bump_misses_every_stage(self, rerun, monkeypatch):
        config, first = rerun
        monkeypatch.setattr(pipeline, "SCHEMA_VERSION", pipeline.SCHEMA_VERSION + 1)
        checks = []
        is_done = StageStore.is_done

        def recorded(self, stage, config_hash):
            checks.append(is_done(self, stage, config_hash))
            return checks[-1]

        monkeypatch.setattr(StageStore, "is_done", recorded)
        trained = [_spy(monkeypatch, name) for name in TRAINING]
        report = run_pipeline(config)
        assert checks and not any(checks)
        assert all(trained)
        for stage in STAGES:
            manifest = json.loads((Path(config.work_dir) / stage / "manifest.json").read_text())
            assert manifest["config_hash"] == stage_hash(config, stage)
        assert report["config_hash"] != first["config_hash"]
        assert _without_timings(report) | {"config_hash": None} == _without_timings(first) | {"config_hash": None}

    def test_dump_paths_on_a_finished_directory(self, rerun, monkeypatch):
        """Eval always writes the DTW paths and lists them among its outputs:
        a finished directory holds them, and an unchanged rerun hits."""
        config, _ = rerun
        eval_dir = Path(config.work_dir) / "eval"
        entries = [json.loads(line) for line in (eval_dir / "paths.jsonl").read_text().splitlines()]
        assert entries and entries[0]["path"][0] == [0, 0]
        assert "paths.jsonl" in json.loads((eval_dir / "manifest.json").read_text())["outputs"]
        _forbid(monkeypatch, "prepare_data")
        run_pipeline(config)
        assert (eval_dir / "paths.jsonl").is_file()

    @pytest.mark.parametrize("stage,text", [("eval", "[]"), ("duration", "3"), ("inpaint", "{not json")])
    def test_corrupt_manifest_is_a_miss(self, rerun, monkeypatch, stage, text):
        config, first = rerun
        (Path(config.work_dir) / stage / "manifest.json").write_text(text)
        evaluated = _spy(monkeypatch, "evaluate_composed")
        report = run_pipeline(config)
        assert evaluated
        assert _without_timings(report) == _without_timings(first)
        manifest = json.loads((Path(config.work_dir) / stage / "manifest.json").read_text())
        assert manifest["config_hash"] == stage_hash(config, stage)

    def test_undecodable_spans_are_recomputed(self, rerun):
        config, _ = rerun
        spans = Path(config.work_dir) / "trim" / "spans.json"
        good = spans.read_bytes()
        spans.write_text('{"truncated": [1,')
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        assert spans.read_bytes() == good
        assert data.cores
        # the recomputed trim breaks the chain: the later stages miss
        assert not store.is_done("duration", stage_hash(config, "duration"))

    def test_crash_mid_recompute_leaves_no_manifest(self, rerun, clean_ddim2_run, monkeypatch):
        config, _ = rerun
        config.ddim_steps = 2
        write_motion = pipeline.write_motion
        written = []

        def failing(path, seq):
            if written:
                Path(path).write_bytes(b"SVMX")  # a partial file, then the failure
                raise OSError("disk full")
            written.append(path)
            write_motion(path, seq)

        monkeypatch.setattr(pipeline, "write_motion", failing)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(config)
        work = Path(config.work_dir)
        assert not [s for s in ("compose", "eval") if (work / s / "manifest.json").exists()]
        assert not list(work.rglob("*.tmp"))

        monkeypatch.setattr(pipeline, "write_motion", write_motion)
        composed = _spy(monkeypatch, "compose_and_stitch")
        report = run_pipeline(config)
        clean_work, clean_report = clean_ddim2_run
        assert composed
        assert _without_timings(report) == _without_timings(clean_report)
        for path in sorted((clean_work / "compose").glob("*.svmx")):
            assert (work / "compose" / path.name).read_bytes() == path.read_bytes()

    def test_fp64_denoiser_resumes_bit_for_bit(self, tmp_path, monkeypatch):
        """The checkpoint keeps the fp64 parameters, so a rerun that loads
        them composes the sentences the training run composed."""
        config = tiny_config(tmp_path / "work", steps=8)
        config.denoiser = dataclasses.replace(config.denoiser, dtype=np.float64)
        run_pipeline(config)
        work = Path(config.work_dir)
        first = (work / "eval" / "metrics.jsonl").read_bytes()
        for stage in ("compose", "eval"):
            shutil.rmtree(work / stage)
        _forbid(monkeypatch, *TRAINING)
        run_pipeline(config)
        assert (work / "eval" / "metrics.jsonl").read_bytes() == first

    def test_resumed_stages_draw_nothing(self, rerun, monkeypatch):
        config, _ = rerun
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)

        def no_draws(*args, **kwargs):
            raise AssertionError("a resumed stage drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        gloss_model, sent_model = train_duration_stage(config, store, data)
        denoiser, _ = train_inpaint_stage(config, store, data, gloss_model)
        monkeypatch.undo()
        ckpts = [(gloss_model, "duration/gloss.ckpt"), (sent_model, "duration/sent.ckpt"),
                 (denoiser, "inpaint/denoiser.ckpt")]
        for model, name in ckpts:
            loaded = pipeline.load_checkpoint(Path(config.work_dir) / name)
            assert model.params.names() == list(loaded)
            for pname, (data_, ema) in loaded.items():
                assert np.array_equal(model.params[pname].data, data_)
                # only the denoiser keeps EMA shadows
                assert (ema is not None) == model.params.keeps_ema == (model is denoiser)
                if ema is not None:
                    assert np.array_equal(model.params.ema_value(pname), ema)


def _trained_outputs(work: Path) -> dict[str, bytes]:
    """The bytes of the checkpoints, the composed sentences and the metrics."""
    paths = [*sorted(work.glob("*/*.ckpt")), *sorted(work.glob("compose/*.svmx")),
             work / "eval" / "metrics.jsonl"]
    return {path.relative_to(work).as_posix(): path.read_bytes() for path in paths}


def _count_sentence_frames(monkeypatch) -> list:
    """The gloss lengths of each `_sentence_frames` call: one call per
    sentence whose frames are built."""
    calls = []
    original = synth_module._sentence_frames

    def counted(models, lengths, *args, **kwargs):
        calls.append(tuple(lengths))
        return original(models, lengths, *args, **kwargs)

    monkeypatch.setattr(synth_module, "_sentence_frames", counted)
    return calls


def _lengths(sample) -> tuple[int, ...]:
    return tuple(end - start + 1 for start, end in sample.gloss_spans)


class TestLazySentenceFrames:
    """A sentence's frames are built on their first read: a fresh run reads
    every sentence once (the synth stage exports them), a reload of a
    finished work directory reads none, and eval reads the held-out ones."""

    def test_fresh_run_builds_each_sentence_once(self, tmp_path, monkeypatch):
        calls = _count_sentence_frames(monkeypatch)
        config = tiny_config(tmp_path / "work", steps=4)
        run_pipeline(config)
        corpus = synth_module.synth_generate(config.synth, rounds=config.pair_rounds)
        assert calls == [_lengths(s) for s in corpus.sentences]

    def test_compose_and_eval_build_the_held_out_sentences(self, rerun, monkeypatch):
        config, first = rerun
        work = Path(config.work_dir)
        for stage in ("compose", "eval"):
            shutil.rmtree(work / stage)
        calls = _count_sentence_frames(monkeypatch)
        report = run_pipeline(config)
        assert _without_timings(report) == _without_timings(first)
        by_id = {s.sentence_id: s for s in prepare_data(config, StageStore(config.work_dir)).corpus.sentences}
        eval_ids = [row["sentence_id"] for row in map(json.loads, (work / "eval" / "metrics.jsonl").read_text()
                                                      .splitlines()) if row.get("method") == "ours"]
        assert eval_ids and calls == [_lengths(by_id[sid]) for sid in eval_ids]


def _built_clips(data) -> set[str]:
    return {clip.source["id"] for clips in data.corpus.clips.values() for clip in clips
            if "frames" in vars(clip.motion)}


class TestLazyClipFrames:
    """A clip's frames are built on their first read too, and `data.cores`
    slices a core on its first read: a reload of a finished work directory
    evaluates no gloss model, and compose and eval build the held-out
    sentences' clips alone."""

    def test_reload_builds_nothing(self, rerun, monkeypatch):
        config, _ = rerun
        calls = []
        evaluate = synth_module.GlossModel.evaluate

        def counted(model, *args, **kwargs):
            calls.append(model.name)
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(synth_module.GlossModel, "evaluate", counted)
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        gloss_model, _ = train_duration_stage(config, store, data)
        train_inpaint_stage(config, store, data, gloss_model)
        assert calls == []

    def test_compose_and_eval_build_the_held_out_clips(self, rerun):
        config, _ = rerun
        work = Path(config.work_dir)
        metrics = (work / "eval" / "metrics.jsonl").read_bytes()
        for stage in ("compose", "eval"):
            shutil.rmtree(work / stage)
        store = StageStore(config.work_dir)
        data = prepare_data(config, store)
        gloss_model, sent_model = train_duration_stage(config, store, data)
        denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
        composed = pipeline.compose_stage(config, store, data, gloss_model, sent_model, denoiser, schedule)
        pipeline.eval_stage(config, store, data, composed)
        assert (work / "eval" / "metrics.jsonl").read_bytes() == metrics
        # a held-out sentence is composed from the clip variants of its first round
        held_out = set()
        for sid in data.eval_ids:
            variants = data.round_variants.get(f"{sid}.r0", {})
            held_out |= {f"{g}.v{variants.get(i, 0)}" for i, g in enumerate(data.by_id[sid].glosses)}
        assert _built_clips(data) == held_out and len(held_out) < len(data.cores)

    def test_cores_match_an_eager_build(self, rerun):
        config, _ = rerun
        data = prepare_data(config, StageStore(config.work_dir))
        assert _built_clips(data) == set()
        corpus = synth_module.synth_generate(config.synth, rounds=config.pair_rounds)
        spans = json.loads((Path(config.work_dir) / "trim" / "spans.json").read_text())
        eager = {}
        for clip in (clip for clips in corpus.clips.values() for clip in clips):
            if qc_filters(clip, config.qc).keep:
                s, e = spans[clip.source["id"]]
                eager[clip.source["id"]] = clip.motion.frames[s : e + 1]
        assert list(data.cores) == list(data.cores.keys()) == list(eager) and len(data.cores) == len(eager)
        assert all(cid in data.cores for cid in eager) and "V00.v99" not in data.cores
        with pytest.raises(KeyError):
            data.cores["V00.v99"]
        assert _built_clips(data) == set()
        for cid, core in eager.items():
            got = data.cores[cid]
            assert got is data.cores[cid]
            assert got.strides == core.strides and got.tobytes() == core.tobytes()


def _as_version_2(path: Path) -> None:
    """Rewrite a checkpoint in format version 2, which stored an EMA record
    (here a copy of the value) for every parameter of every set."""
    loaded = load_checkpoint(path)
    out = [b"SWCK", struct.pack("<II", 2, len(loaded))]
    for name, (data, _) in loaded.items():
        raw = name.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw, struct.pack("<II", data.dtype.itemsize, data.ndim),
                struct.pack(f"<{data.ndim}I", *data.shape), data.tobytes(), data.tobytes()]
    path.write_bytes(b"".join(out))


class TestStageProtocol:
    """`StageStore.run` is the one rule: a stage whose stored output is gone
    or does not decode misses like any other, and the run report times every
    stage it ran."""

    def test_removed_checkpoint_is_retrained(self, rerun, monkeypatch):
        config, first = rerun
        work = Path(config.work_dir)
        before = _trained_outputs(work)
        (work / "inpaint" / "denoiser.ckpt").unlink()
        _forbid(monkeypatch, "train_gloss_predictor", "train_sentence_predictor")
        retrained = _spy(monkeypatch, "train_inpainter")
        report = run_pipeline(config)
        assert retrained == ["train_inpainter"]
        assert report["denoiser_fallback"] is False
        assert _without_timings(report) == _without_timings(first)
        assert _trained_outputs(work) == before

    @pytest.mark.parametrize("ckpt", ["duration/gloss.ckpt", "inpaint/denoiser.ckpt"])
    def test_undecodable_checkpoint_is_retrained(self, rerun, monkeypatch, ckpt):
        config, first = rerun
        work = Path(config.work_dir)
        before = _trained_outputs(work)
        (work / ckpt).write_bytes(before[ckpt][:100])
        # a full hit decodes no stored output; a run that composes does
        shutil.rmtree(work / "eval")
        trained = {name: _spy(monkeypatch, name) for name in TRAINING}
        report = run_pipeline(config)
        # a retrained stage breaks the chain: the inpainter is retrained either way
        assert [name for name, calls in trained.items() if calls] == (
            list(TRAINING) if ckpt.startswith("duration") else ["train_inpainter"])
        assert _without_timings(report) == _without_timings(first)
        assert _trained_outputs(work) == before

    def test_version_2_checkpoint_is_retrained_to_the_same_bytes(self, rerun, monkeypatch):
        config, first = rerun
        work = Path(config.work_dir)
        before = _trained_outputs(work)
        _as_version_2(work / "duration" / "sent.ckpt")
        shutil.rmtree(work / "eval")
        trained = {name: _spy(monkeypatch, name) for name in TRAINING}
        report = run_pipeline(config)
        assert all(trained.values())
        assert _without_timings(report) == _without_timings(first)
        assert _trained_outputs(work) == before

    def test_timings_name_each_stage_that_ran(self, finished_run, rerun):
        _, fresh = finished_run
        config, _ = rerun
        work = Path(config.work_dir)
        assert set(fresh["timings"]) == set(STAGES)
        assert set(json.loads((work / "eval" / "report.json").read_text())["timings"]) == set(STAGES)
        assert set(run_pipeline(config)["timings"]) == {"cached"}
        for stage in ("compose", "eval"):
            shutil.rmtree(work / stage)
        assert set(run_pipeline(config, until="compose")["timings"]) == set(STAGES[: STAGES.index("compose") + 1])


MODEL_BUILDS = [
    (lambda seed: GlossDurationPredictor(DurationModelConfig(hidden=16), seed=seed), "mlp.0.weight"),
    (lambda seed: SentenceDurationPredictor(DurationModelConfig(hidden=16, sent_ffn=32), seed=seed),
     "proj.weight"),
    (lambda seed: Denoiser(DenoiserConfig(latent=16, layers=1, heads=2, ffn=32), seed=seed),
     "in_proj.weight"),
]
MODEL_IDS = ["gloss", "sentence", "denoiser"]


class TestPlaceholderModels:
    """seed=None builds the parameters a checkpoint restore replaces, without
    drawing them: read-only zero placeholders that own no memory. A seeded
    build draws as before and owns writable arrays, zero heads included."""

    @pytest.mark.parametrize("build,first", MODEL_BUILDS, ids=MODEL_IDS)
    def test_placeholder_matches_seeded_layout(self, build, first):
        seeded, placeholder = build(3), build(None)
        assert seeded.params.names() == placeholder.params.names()
        for name in seeded.params.names():
            a, b = seeded.params[name].data, placeholder.params[name].data
            assert a.shape == b.shape and a.dtype == b.dtype and a.flags.writeable
            assert not b.flags.writeable and not any(b.strides) and not b.any()
            if placeholder.params.keeps_ema:
                assert placeholder.params.ema_value(name) is b
        # the first draw of a seeded build is the generator's first normal block
        w = seeded.params[first].data
        expected = np.random.default_rng(3).normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)
        assert np.array_equal(w, expected.astype(w.dtype))

    @pytest.mark.parametrize("build", [build for build, _ in MODEL_BUILDS], ids=MODEL_IDS)
    def test_restored_model_steps_like_the_saved_one(self, build, tmp_path):
        saved, restored = build(3), build(None)
        rng = np.random.default_rng(4)
        for name in saved.params.names():
            data = saved.params[name].data
            saved.params[name].data = data + rng.normal(size=data.shape).astype(data.dtype)
        if saved.params.keeps_ema:
            saved.params.ema_update(decay=0.5)
        save_checkpoint(tmp_path / "model.ckpt", saved.params)
        restore_into(restored.params, load_checkpoint(tmp_path / "model.ckpt"))

        def same() -> bool:
            return all(saved.params[name].data.tobytes() == restored.params[name].data.tobytes()
                       and (not saved.params.keeps_ema or saved.params.ema_value(name).tobytes()
                            == restored.params.ema_value(name).tobytes())
                       for name in saved.params.names())

        assert same() and all(restored.params[name].data.flags.writeable for name in restored.params.names())
        grads = {name: rng.normal(size=saved.params[name].data.shape) for name in saved.params.names()}
        for model in (saved, restored):
            for name, grad in grads.items():
                model.params[name].grad = grad.astype(model.params.dtype)
            AdamW(model.params, lr=1e-2, weight_decay=0.01).step()
            if model.params.keeps_ema:
                model.params.ema_update(decay=0.5)
        assert same()


def test_atomic_path_keeps_the_old_file_on_failure(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_path(target) as tmp:
            tmp.write_text("half")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    with atomic_path(target) as tmp:
        tmp.write_text("new")
    assert target.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.fixture(scope="module")
def composed_case(tmp_path_factory):
    """Held-out sentences composed with the linear fallback (no denoiser)."""
    config = tiny_config(tmp_path_factory.mktemp("eval") / "work", steps=0)
    store = StageStore(config.work_dir)
    data = prepare_data(config, store)
    gloss_model, sent_model = train_duration_stage(config, store, data)
    denoiser, schedule = train_inpaint_stage(config, store, data, gloss_model)
    composed = compose_and_stitch(config, data, gloss_model, sent_model, denoiser, schedule)
    return config, data, gloss_model, composed


class TestEvaluation:
    def test_rows_and_paths_match_loop_oracle(self, composed_case):
        _, data, _, composed = composed_case
        result = evaluate_composed(composed, data)
        adapter = SyntheticSkeletonAdapter()
        joints = np.concatenate([adapter.body_joints, adapter.hand_joints])
        subsets = {"dtw_mpjpe_body": adapter.body_joints, "dtw_mpjpe_hands": adapter.hand_joints,
                   "dtw_mpjpe_overall": joints, "dtw_mpvpe_face": adapter.face_vertices}
        by_id = {s.sentence_id: s for s in data.corpus.sentences}
        outputs = {(c.sentence_id, m): getattr(c, m) for c in composed for m in ("ours", "baseline")}
        assert len(result["rows"]) == len(result["paths"]) == len(outputs)
        for row, dumped in zip(result["rows"], result["paths"]):
            key = (row["sentence_id"], row["method"])
            assert key == (dumped["sentence_id"], dumped["method"])
            pts = adapter.to_points(outputs[key].frames)
            ref_pts = adapter.to_points(by_id[key[0]].frames)
            for name, subset in subsets.items():
                assert row[name] == pytest.approx(loop_dtw_error(pts, ref_pts, subset), abs=1e-12)
            assert row["dtw_pa_mpjpe"] == pytest.approx(
                loop_dtw_error(pts, ref_pts, joints, procrustes_align=True), abs=1e-12)
            cost = np.linalg.norm(pts[:, None, joints] - ref_pts[None, :, joints], axis=-1).mean(axis=-1)
            expected_path, expected_total = loop_dtw(cost)
            assert [tuple(step) for step in dumped["path"]] == expected_path
            assert dumped["total_cost"] == pytest.approx(expected_total, abs=1e-12)

    def test_dumped_path_cost_is_overall_error(self, composed_case):
        _, data, _, composed = composed_case
        result = evaluate_composed(composed, data)
        for row, dumped in zip(result["rows"], result["paths"]):
            assert dumped["total_cost"] / len(dumped["path"]) == row["dtw_mpjpe_overall"]

    def test_duration_eval_uses_held_out_pairs(self, composed_case):
        config, data, gloss_model, _ = composed_case
        window = config.dur_model.window
        eval_pairs = _pair_examples(data, window, held_out=True)
        errors = [abs(gloss_model.predict(ex.features).scale - ex.scale) for ex in eval_pairs]
        report = evaluate_duration(data, gloss_model, window)
        assert report["pairs"] == len(eval_pairs) > 0
        assert report["model_mae"] == float(np.mean(errors))
        assert report["identity_mae"] == float(np.mean([abs(ex.scale) for ex in eval_pairs]))


class TestConfigKeys:
    @pytest.mark.parametrize("override", ["synth=3", "inpaint_train=1", "ddim_step=3",
                                          "inpaint_train.stepz=3", "seed.x=1", "workers=2",
                                          "synth.prep_frames=4"])
    def test_bad_override_key_rejected(self, tmp_path, override):
        # a nested config object, a name that is no config field, or a tuple
        # of the wrong length
        config = tiny_config(tmp_path)
        before = config_to_dict(config)
        with pytest.raises(ValueError, match="config key"):
            apply_overrides(config, [override])
        assert config_to_dict(config) == before

    @pytest.mark.parametrize("raw", [{"ddim_step": 5}, {"synth": {"vocab": 3}}, {"synth": 3},
                                     {"use_annotated_spans": True}, {"trim": {"theta_low": 0.4}},
                                     {"denoiser": {"dropout": 0.1}},
                                     {"denoiser": {"residual_conditioning": False}},
                                     {"baseline_transition_frames": 4},
                                     *({"synth": {key: value}} for key, value in (
                                         ("fps", 25), ("variant_stretch", [1.15, 1.6]), ("retract_frames", [6, 14]),
                                         ("amplitude_jitter", 0.06), ("style_noise", 0.015), ("timing_warp", 0.25))),
                                     *({"trim": {key: value}} for key, value in (
                                         ("lambda_v", 1.0), ("n_consecutive", 3), ("sg_window", 7), ("sg_order", 2),
                                         ("q_lo", 0.05), ("q_hi", 0.95))),
                                     *({section: {key: 1.0}} for section in ("dur_gloss", "dur_sent")
                                       for key in ("lambda_split", "grad_clip")),
                                     {"inpaint_train": {"grad_clip": 1.0}},
                                     {"inpaint_train": {"betas": [0.9, 0.999]}}])
    def test_config_from_dict_rejects_bad_keys(self, raw):
        with pytest.raises(ValueError, match="config key"):
            config_from_dict(raw)

    def test_config_dict_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_dict(config_to_dict(PipelineConfig())) == PipelineConfig()

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(tiny_config(tmp_path / "work"), until="stitch")
        assert not (tmp_path / "work").exists()
