from __future__ import annotations

import json

import numpy as np
import pytest

from dtw_oracles import loop_dtw, loop_dtw_error
from signweave.duration import DurationTrainConfig
from signweave.inpaint import DenoiserConfig, InpaintTrainConfig
from signweave.pipeline import (
    PipelineConfig,
    StageStore,
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

    def test_apply_overrides(self, tmp_path):
        config = tiny_config(tmp_path)
        apply_overrides(config, ["ddim_steps=9", "inpaint_train.lr=0.002", "holdout_fraction=0.5"])
        assert config.ddim_steps == 9
        assert config.inpaint_train.lr == 0.002
        assert config.holdout_fraction == 0.5

    def test_frozen_field_override_rejected(self, tmp_path):
        config = tiny_config(tmp_path)
        with pytest.raises(ValueError):
            apply_overrides(config, ["synth.vocab_size=3"])


class TestDataPreparation:
    def test_prepare_and_split(self, tmp_path):
        config = tiny_config(tmp_path)
        data = prepare_data(config, StageStore(config.work_dir))
        assert len(data.train_ids) + len(data.eval_ids) == 12
        assert len(data.eval_ids) >= 1
        assert set(data.train_ids).isdisjoint(data.eval_ids)
        assert len(data.cores) == 5 * 3

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

        # rerun with the same config: stage manifests match and outputs agree
        report2 = run_pipeline(config)
        assert report2["config_hash"] == report["config_hash"]
        assert report2["sentence"]["ours"]["dtw_mpjpe_overall"] == pytest.approx(
            report["sentence"]["ours"]["dtw_mpjpe_overall"], abs=1e-12)

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


class TestWorkersAndFallback:
    def test_removed_checkpoint_falls_back(self, tmp_path):
        config = tiny_config(tmp_path / "work")
        run_pipeline(config)
        ckpt = tmp_path / "work" / "inpaint" / "denoiser.ckpt"
        assert ckpt.exists()
        ckpt.unlink()
        report = run_pipeline(config)
        assert report["denoiser_fallback"] is True


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
        result = evaluate_composed(composed, data, dump_paths=True)
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
        result = evaluate_composed(composed, data, dump_paths=True)
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
                                          "inpaint_train.stepz=3", "seed.x=1", "workers=2"])
    def test_bad_override_key_rejected(self, tmp_path, override):
        # a nested config object or a name that is no config field
        config = tiny_config(tmp_path)
        before = config_to_dict(config)
        with pytest.raises(ValueError, match="config key"):
            apply_overrides(config, [override])
        assert config_to_dict(config) == before

    @pytest.mark.parametrize("raw", [{"ddim_step": 5}, {"synth": {"vocab": 3}}, {"synth": 3},
                                     {"use_annotated_spans": True}, {"trim": {"theta_low": 0.4}}])
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
