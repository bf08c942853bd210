from __future__ import annotations

import json

import numpy as np
import pytest

from signweave.motion import GlossClip, MotionSequence, PartLayout
from dtw_oracles import loop_subsequence_distance
from synth_oracles import loop_evaluate, loop_synth_generate
from signweave.qc import (
    QcConfig,
    dominant_split,
    pairwise_similarity,
    qc_filters,
    subsequence_dtw_distance,
)
from signweave.records import (
    IngestError,
    export_canonical,
    frames_from_parts,
    ingest,
    parts_from_frames,
    word_record_to_clip,
)
from signweave.synth import GlossModel, SynthSpec, smoothstep, synth_generate


def make_word_dict(t=12, gloss="HELLO", seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t, 206))
    parts = parts_from_frames(frames)
    return {
        "gloss": gloss,
        "source_info": {"id": f"{gloss}.v0"},
        "segment": {"crop_interval": [0, t - 1], "bbox": [0, 0, 100, 100]},
        "enrichment": {"meaning": gloss.lower()},
        "is_dominant": True,
        "core_span": [2, t - 3],
        **parts,
    }, frames


class TestWordRecords:
    def test_well_formed_record_becomes_clip(self, tmp_path):
        raw, frames = make_word_dict()
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        records = ingest(path, "W")
        clip = word_record_to_clip(records[0])
        assert clip.gloss == "HELLO"
        assert clip.core_span == (2, 9)
        assert np.allclose(clip.motion.frames, frames, atol=1e-12)

    def test_bad_body_length_names_key(self, tmp_path):
        raw, _ = make_word_dict()
        raw["body"] = raw["body"][:-1]
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(IngestError, match="body"):
            ingest(path, "W")

    def test_inconsistent_frame_counts_rejected(self, tmp_path):
        raw, _ = make_word_dict()
        raw["rhands"] = raw["rhands"][:-45]
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(IngestError, match="rhands"):
            ingest(path, "W")

    def test_strict_mode_rejects_unknown_keys(self, tmp_path):
        raw, _ = make_word_dict()
        raw["surprise"] = 1
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(IngestError, match="surprise"):
            ingest(path, "W")
        assert len(ingest(path, "W", strict=False)) == 1

    def test_core_span_out_of_range(self, tmp_path):
        raw, _ = make_word_dict(t=5)
        raw["core_span"] = [0, 7]
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(IngestError, match="core_span"):
            ingest(path, "W")

    def test_round_trip_is_byte_identical(self, tmp_path):
        raws = [make_word_dict(seed=s)[0] for s in range(3)]
        src = tmp_path / "words.json"
        src.write_text(json.dumps(raws))
        first = tmp_path / "export1.json"
        second = tmp_path / "export2.json"
        export_canonical(ingest(src, "W"), first, "W")
        export_canonical(ingest(first, "W"), second, "W")
        assert first.read_bytes() == second.read_bytes()

    def test_parts_round_trip(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(7, 206))
        back = frames_from_parts(parts_from_frames(frames))
        assert np.allclose(back, frames, atol=1e-15)


class TestDialogueRecords:
    def test_parse_and_roles(self, tmp_path):
        rng = np.random.default_rng(2)
        sent = {
            "text": "hello there",
            "glosses": ["HELLO", "THERE"],
            "gloss_spans": [[0, 4], [5, 9]],
            **parts_from_frames(rng.normal(size=(10, 206))),
        }
        record = {"conversation": [
            {"role": "user", "sentences": [sent]},
            {"role": "assistant", "sentences": [sent]},
        ]}
        path = tmp_path / "dialogues.json"
        path.write_text(json.dumps([record]))
        out = ingest(path, "U")
        assert len(out[0].conversation) == 2
        assert out[0].conversation[0].role == "user"
        assert out[0].conversation[0].sentences[0].gloss_spans == [(0, 4), (5, 9)]

    def test_invalid_role_rejected(self, tmp_path):
        record = {"conversation": [{"role": "narrator", "sentences": []}]}
        path = tmp_path / "dialogues.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(IngestError, match="role"):
            ingest(path, "U")


class TestQc:
    def test_eleven_second_clip_discarded(self):
        clip = GlossClip("LONG", MotionSequence(np.zeros((275, 206)), fps=25), (0, 274))
        result = qc_filters(clip)
        assert not result.keep
        assert result.reasons == ["duration"]

    def test_ten_second_clip_kept(self):
        clip = GlossClip("OK", MotionSequence(np.zeros((250, 206)), fps=25), (0, 249))
        assert qc_filters(clip).keep

    def test_yaw_and_condition(self):
        layout = PartLayout.augmented()
        frames = np.zeros((6, 212))
        # frame 2: only body yaw high -> kept; frame 4: both high -> dropped
        frames[2, layout.indices("global_orient")] = [0.0, 0.8, 0.0]
        frames[4, layout.indices("global_orient")] = [0.0, 0.8, 0.0]
        frames[4, layout.indices("neck")] = [0.0, 0.9, 0.0]
        clip = GlossClip("X", MotionSequence(frames, fps=25), (0, 5))
        result = qc_filters(clip)
        assert result.keep
        assert "yaw" in result.reasons
        assert result.clip.motion.num_frames == 5
        assert 2 in result.kept_frames and 4 not in result.kept_frames

    def test_zero_rotations_kept(self):
        clip = GlossClip("Z", MotionSequence(np.zeros((20, 212)), fps=25), (0, 19))
        result = qc_filters(clip)
        assert result.keep and result.reasons == []

    def test_identity_hook_drops_frames(self):
        clip = GlossClip("H", MotionSequence(np.ones((10, 206)), fps=25), (0, 9))
        cfg = QcConfig(identity_hook=lambda c: np.concatenate([np.ones(8), np.zeros(2)]))
        result = qc_filters(clip, cfg)
        assert result.keep
        assert "identity" in result.reasons
        assert result.clip.motion.num_frames == 8


class TestDominantSplit:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        clip = rng.normal(size=(14, 6))
        assert subsequence_dtw_distance(clip, clip) == pytest.approx(0.0, abs=1e-12)

    def test_subsegment_match_is_free(self):
        rng = np.random.default_rng(4)
        inner = rng.normal(size=(10, 4))
        padded = np.concatenate([rng.normal(size=(5, 4)) + 3, inner, rng.normal(size=(4, 4)) - 3])
        assert subsequence_dtw_distance(inner, padded) == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair_both_dominant(self):
        rng = np.random.default_rng(5)
        clip = rng.normal(size=(12, 5))
        assert dominant_split([clip, clip.copy()]) == [True, True]

    def test_outlier_flagged(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(16, 5))
        cluster = [base + rng.normal(0, 0.01, size=base.shape) for _ in range(5)]
        outlier = rng.normal(size=(16, 5)) * 3.0
        labels = dominant_split(cluster + [outlier], k=3)
        assert labels[:5] == [True] * 5
        assert labels[5] is False

    def test_single_clip_dominant(self):
        assert dominant_split([np.zeros((5, 3))]) == [True]

    @pytest.mark.parametrize("query, reference, message", [
        (np.zeros((0, 4)), np.zeros((6, 4)), "empty query"),
        (np.zeros((5, 4)), np.zeros((0, 4)), "empty reference"),
        (np.zeros((5, 4)), np.zeros((6, 3)), "feature dimensions differ"),
    ], ids=["empty-query", "empty-reference", "dim-mismatch"])
    def test_invalid_inputs_rejected(self, query, reference, message):
        with pytest.raises(ValueError, match=message):
            subsequence_dtw_distance(query, reference)

    def test_distance_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            query = rng.normal(size=(int(rng.integers(1, 14)), 5))
            reference = rng.normal(size=(int(rng.integers(1, 14)), 5))
            assert subsequence_dtw_distance(query, reference) == loop_subsequence_distance(query, reference)

    def test_similarity_matches_both_directed_loops(self):
        rng = np.random.default_rng(8)
        clips = [rng.normal(size=(int(rng.integers(3, 12)), 4)) for _ in range(5)]
        sim = pairwise_similarity(clips)
        for i in range(5):
            for j in range(i + 1, 5):
                expected = -0.5 * (loop_subsequence_distance(clips[i], clips[j])
                                   + loop_subsequence_distance(clips[j], clips[i]))
                assert sim[i, j] == sim[j, i] == expected


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(vocab_size=4, variants_per_gloss=3, n_sentences=5, seed=11)
        a = synth_generate(spec)
        b = synth_generate(spec)
        assert np.array_equal(a.sentences[0].frames, b.sentences[0].frames)
        assert np.array_equal(a.clips["V00"][1].motion.frames, b.clips["V00"][1].motion.frames)
        assert a.pair_specs == b.pair_specs

    def test_blend_only_inside_transition_window(self):
        spec = SynthSpec(vocab_size=3, variants_per_gloss=2, n_sentences=8, transition_width=8, seed=12)
        corpus = synth_generate(spec)
        sample = corpus.sentences[0]
        models = [corpus.models[g] for g in sample.glosses]
        lengths = [e - s + 1 for s, e in sample.gloss_spans]
        half = spec.transition_width // 2
        first_pure = models[0].evaluate(np.linspace(0, 1, lengths[0]))
        assert np.allclose(sample.frames[: lengths[0] - half], first_pure[: lengths[0] - half], atol=1e-12)
        last_start = sample.gloss_spans[-1][0]
        last_pure = models[-1].evaluate(np.linspace(0, 1, lengths[-1]))
        assert np.allclose(sample.frames[last_start + half :], last_pure[half:], atol=1e-12)

    def test_pseudo_pairs_longer_than_targets_on_average(self):
        spec = SynthSpec(vocab_size=6, variants_per_gloss=4, n_sentences=30, seed=13)
        corpus = synth_generate(spec)
        by_id = {s.sentence_id: s for s in corpus.sentences}
        pseudo, target = [], []
        for ps in corpus.pair_specs:
            sample = by_id[ps.sentence_id.rsplit(".r", 1)[0]]
            a = corpus.clips[ps.gloss_a][ps.variant_a]
            b = corpus.clips[ps.gloss_b][ps.variant_b]
            pseudo.append((a.core_span[1] - a.core_span[0] + 1) + (b.core_span[1] - b.core_span[0] + 1))
            sa = sample.gloss_spans[ps.pair_index]
            sb = sample.gloss_spans[ps.pair_index + 1]
            target.append((sa[1] - sa[0] + 1) + (sb[1] - sb[0] + 1))
        assert np.mean(pseudo) > np.mean(target)

    def test_word_records_ingestible(self, tmp_path):
        import json as _json

        from signweave.records import word_record_to_dict

        spec = SynthSpec(vocab_size=2, variants_per_gloss=2, n_sentences=2, seed=14)
        corpus = synth_generate(spec)
        path = tmp_path / "lexicon.json"
        path.write_text(_json.dumps([word_record_to_dict(r) for r in corpus.word_records()]))
        records = ingest(path, "W")
        assert len(records) == 4

    def test_dialogue_records_cover_sentences(self):
        spec = SynthSpec(vocab_size=3, variants_per_gloss=2, n_sentences=5, seed=15)
        corpus = synth_generate(spec)
        dialogues = corpus.dialogue_records()
        total = sum(len(t.sentences) for d in dialogues for t in d.conversation)
        assert total == 5

    def test_smoothstep_bounds(self):
        v = np.linspace(-1, 2, 50)
        s = smoothstep(v)
        assert s.min() == 0.0 and s.max() == 1.0


def _bytes_equal(a: np.ndarray, b: np.ndarray) -> bool:
    # the memory layout too: BLAS results downstream (np.cov in FGD) depend on it
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("spec, rounds", [
    # the two benchmark sizes (train_fresh, compose_eval)
    (SynthSpec(vocab_size=6, variants_per_gloss=3, n_sentences=20), 1),
    (SynthSpec(vocab_size=6, variants_per_gloss=3, n_sentences=24), 1),
    (SynthSpec(vocab_size=5, variants_per_gloss=3, n_sentences=12, transition_width=21, seed=4), 1),
    (SynthSpec(vocab_size=5, variants_per_gloss=2, n_sentences=8, transition_width=0, seed=5), 1),
    # windows wider than the shortest gloss overlap and overwrite each other
    (SynthSpec(vocab_size=5, variants_per_gloss=2, n_sentences=10, transition_width=30,
               canonical_duration=(8, 10), seed=6), 1),
    (SynthSpec(vocab_size=4, variants_per_gloss=2, n_sentences=8, coarticulation_scale=0.0, seed=7), 1),
    (SynthSpec(vocab_size=4, variants_per_gloss=2, n_sentences=6, sentence_length=(1, 1), seed=8), 1),
    (SynthSpec(vocab_size=4, variants_per_gloss=3, n_sentences=8, seed=9), 2),
], ids=["train_fresh", "compose_eval", "odd_width", "no_width", "wide_width", "no_coarticulation",
        "one_gloss", "two_rounds"])
def test_synth_matches_per_frame_oracle(spec, rounds):
    corpus = synth_generate(spec, rounds=rounds)
    oracle = loop_synth_generate(spec, rounds=rounds)
    assert list(corpus.models) == list(oracle["models"])
    for name, model in corpus.models.items():
        ref = oracle["models"][name]
        assert model.duration == ref["duration"]
        assert all(_bytes_equal(getattr(model, k), ref[k]) for k in ("offset", "amp", "freq"))
    assert list(corpus.clips) == list(oracle["clips"])
    for name, clips in corpus.clips.items():
        assert len(clips) == len(oracle["clips"][name])
        for clip, (frames, span) in zip(clips, oracle["clips"][name]):
            assert _bytes_equal(clip.motion.frames, frames) and clip.core_span == span
    assert len(corpus.sentences) == len(oracle["sentences"])
    for sample, (glosses, frames, spans, tempo) in zip(corpus.sentences, oracle["sentences"]):
        assert sample.glosses == glosses and sample.tempo == tempo
        assert _bytes_equal(sample.frames, frames) and sample.gloss_spans == spans
    assert [(p.sentence_id, p.pair_index, p.gloss_a, p.gloss_b, p.variant_a, p.variant_b)
            for p in corpus.pair_specs] == oracle["pairs"]


def test_evaluate_matches_all_columns_oracle():
    corpus = synth_generate(SynthSpec(vocab_size=3, variants_per_gloss=1, n_sentences=0, seed=21))
    rng = np.random.default_rng(22)
    u = np.concatenate([np.linspace(0.0, 1.0, 37), rng.uniform(-0.5, 1.5, size=11)])
    for model in corpus.models.values():
        ref = {"offset": model.offset, "amp": model.amp, "freq": model.freq}
        amp_scale = 1.0 + rng.normal(0.0, 0.06, size=model.freq.shape)
        offset_shift = rng.normal(0.0, 0.02, size=model.freq.shape)
        assert _bytes_equal(model.evaluate(u), loop_evaluate(ref, u))
        assert _bytes_equal(model.evaluate(u, amp_scale, offset_shift),
                            loop_evaluate(ref, u, amp_scale, offset_shift))
        assert _bytes_equal(model.evaluate(u[:1], amp_scale=amp_scale), loop_evaluate(ref, u[:1], amp_scale))


def test_evaluate_with_one_frequency_per_column():
    rng = np.random.default_rng(23)
    freq = rng.uniform(0.1, 3.0, size=9)
    model = GlossModel("X", 10, rng.normal(size=9), rng.normal(size=9), freq)
    u = np.linspace(0.0, 1.0, 13)
    ref = {"offset": model.offset, "amp": model.amp, "freq": freq}
    assert _bytes_equal(model.evaluate(u), loop_evaluate(ref, u))


def test_smallest_synth_spec_builds():
    corpus = synth_generate(SynthSpec(vocab_size=1, variants_per_gloss=1, n_sentences=0,
                                      sentence_length=(1, 1), transition_width=0))
    assert len(corpus.clips["V00"]) == 1 and corpus.sentences == [] and corpus.pair_specs == []
