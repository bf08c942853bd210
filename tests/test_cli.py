from __future__ import annotations

import json

import numpy as np
import pytest

from signweave.cli import main
from signweave.motion import MotionSequence, read_motion, write_motion
from signweave.pipeline import RUN_STAGES, StageStore, apply_overrides, config_from_dict, prepare_data, stage_hash
from signweave.records import parts_from_frames
from signweave.retrieval import Document, save_corpus


@pytest.fixture()
def tiny_config_file(tmp_path):
    config = {
        "work_dir": str(tmp_path / "work"),
        "seed": 3,
        "synth": {"vocab_size": 4, "variants_per_gloss": 2, "n_sentences": 6, "seed": 3},
        "pair_rounds": 1,
        "holdout_fraction": 0.34,
        "dur_gloss": {"tau": 0.55, "epochs": 4},
        "dur_sent": {"tau": 0.60, "epochs": 4},
        "denoiser": {"latent": 16, "layers": 1, "heads": 2, "ffn": 32, "hand_head_depth": 1},
        "inpaint_train": {"steps": 20, "batch_size": 4, "ema_decay": 0.95, "lr": 0.001},
        "ddim_steps": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_synth_ingest_qc_trim_round(tmp_path, tiny_config_file, capsys):
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    assert (out_dir / "words.json").exists()
    assert main(["ingest", "--path", str(out_dir / "words.json"), "--schema", "W"]) == 0
    assert main(["ingest", "--path", str(out_dir / "dialogues.json"), "--schema", "U"]) == 0

    qc_out = tmp_path / "qc.jsonl"
    assert main(["qc", "--path", str(out_dir / "words.json"), "--out", str(qc_out)]) == 0
    rows = [json.loads(l) for l in qc_out.read_text().splitlines()]
    assert all(r["keep"] for r in rows)

    trim_out = tmp_path / "spans.json"
    assert main(["trim", "--path", str(out_dir / "words.json"), "--out", str(trim_out)]) == 0
    spans = json.loads(trim_out.read_text())
    assert len(spans) == len(rows)


def test_glossnorm_command(tmp_path, capsys):
    src = tmp_path / "lines.txt"
    src.write_text('IX-3p:i DCL"crawl" BOOK\nns-fs-P-A-R-I-S GOOD\n')
    out = tmp_path / "out.txt"
    assert main(["glossnorm", "--input", str(src), "--out", str(out), "--collapse-fingerspell"]) == 0
    assert out.read_text().splitlines() == ["IX-3p BOOK", "PARIS GOOD"]


def test_retrieve_command(tmp_path, capsys):
    corpus_path = tmp_path / "memory.jsonl"
    save_corpus(corpus_path, [
        Document("I like tea", "IX-1p LIKE TEA", "a"),
        Document("we drink coffee", "IX-1p DRINK COFFEE", "b"),
        Document("the cat sleeps", "CAT SLEEP", "c"),
    ])
    assert main(["retrieve", "--corpus", str(corpus_path), "--query", "like tea", "--k", "2"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["id"] == "a"

    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"query": "drink coffee", "reference_id": "b"}) + "\n")
    assert main(["retrieve", "--corpus", str(corpus_path), "--eval-queries", str(queries)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["mrr"] == 1.0 and table["r@1"] == 1.0


def test_retrieve_malformed_corpus_is_a_usage_error(tmp_path, capsys):
    corpus_path = tmp_path / "bad.jsonl"
    corpus_path.write_text(json.dumps({"gloss": "TEA", "id": "a"}) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", "--corpus", str(corpus_path), "--query", "hi"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: signweave")
    assert f"error: {corpus_path}, line 1: expected a JSON object with english" in captured.err


@pytest.mark.parametrize("command, lines, message", [
    ("eval-queries", [{"query": "drink coffee", "reference_id": "b"}, {"reference_id": "a"}],
     "line 2: expected a JSON object with query field"),
    ("pairs", ["", {"english": "hello"}], "line 2: expected a JSON object with english and gloss fields"),
    ("pairs", ['{"english": "hello", "gloss"'], "line 1: not valid JSON"),
    ("missing-corpus", [], "No such file or directory"),
])
def test_jsonl_input_errors_are_usage_errors(tmp_path, capsys, command, lines, message):
    corpus_path = tmp_path / "memory.jsonl"
    save_corpus(corpus_path, [Document("we drink coffee", "IX-1p DRINK COFFEE", "b")])
    path = tmp_path / "input.jsonl"
    path.write_text("".join((l if isinstance(l, str) else json.dumps(l)) + "\n" for l in lines))
    argv = {
        "eval-queries": ["retrieve", "--corpus", str(corpus_path), "--eval-queries", str(path)],
        "pairs": ["glossnorm", "--pairs", str(path)],
        "missing-corpus": ["retrieve", "--corpus", str(tmp_path / "missing.jsonl"), "--query", "hi"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: signweave")
    where = tmp_path / "missing.jsonl" if command == "missing-corpus" else f"{path}, "
    assert str(where) in captured.err and message in captured.err


@pytest.mark.parametrize("case, culprit, message", [
    ("glossnorm-input", "missing.txt", "No such file or directory"),
    ("ingest-path", "missing.json", "No such file or directory"),
    ("qc-path", "missing.json", "No such file or directory"),
    ("trim-path", "missing.json", "No such file or directory"),
    ("stitch-manifest", "missing.json", "No such file or directory"),
    ("stitch-plan", "missing.json", "No such file or directory"),
    ("stitch-motion-file", "gone.svmx", "No such file or directory"),
    ("manifest-without-pairs", "pairs.json", "expected a JSON object with a pairs list"),
    ("plan-without-lengths", "plan.json", "expected a JSON object with a lengths list"),
    ("pair-without-boundary", "pairs.json", "pair 0 is not an object with a file and an integer boundary"),
])
def test_input_file_errors_are_usage_errors(tmp_path, capsys, case, culprit, message):
    write_motion(tmp_path / "p0.svmx", MotionSequence(np.zeros((10, 206))))
    manifest = tmp_path / "pairs.json"
    entries = [{"file": "gone.svmx" if case == "stitch-motion-file" else "p0.svmx",
                "boundary": None if case == "pair-without-boundary" else 4}]
    manifest.write_text(json.dumps({"entries": entries} if case == "manifest-without-pairs" else {"pairs": entries}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"sizes": [5, 5]} if case == "plan-without-lengths" else {"lengths": [5, 5]}))
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "s.svmx")
    stitch = ["stitch", "--pairs-manifest", str(manifest), "--plan", str(plan), "--out", out]
    argv = {
        "glossnorm-input": ["glossnorm", "--input", str(tmp_path / "missing.txt")],
        "ingest-path": ["ingest", "--path", missing, "--schema", "W"],
        "qc-path": ["qc", "--path", missing, "--out", str(tmp_path / "qc.jsonl")],
        "trim-path": ["trim", "--path", missing, "--out", str(tmp_path / "spans.json")],
        "stitch-manifest": ["stitch", "--pairs-manifest", missing, "--plan", str(plan), "--out", out],
        "stitch-plan": ["stitch", "--pairs-manifest", str(manifest), "--plan", missing, "--out", out],
        "stitch-motion-file": stitch,
        "manifest-without-pairs": stitch,
        "plan-without-lengths": stitch,
        "pair-without-boundary": stitch,
    }[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: signweave")
    assert str(tmp_path / culprit) in captured.err and message in captured.err
    assert not (tmp_path / "qc.jsonl").exists() and not (tmp_path / "s.svmx").exists()


def test_stitch_command(tmp_path):
    rng = np.random.default_rng(0)
    pair1 = rng.normal(size=(10, 206))
    pair2 = rng.normal(size=(12, 206))
    write_motion(tmp_path / "p0.svmx", MotionSequence(pair1))
    write_motion(tmp_path / "p1.svmx", MotionSequence(pair2))
    manifest = tmp_path / "pairs.json"
    manifest.write_text(json.dumps({"pairs": [
        {"file": "p0.svmx", "boundary": 4},
        {"file": "p1.svmx", "boundary": 6},
    ]}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"lengths": [5, 6, 7]}))
    out = tmp_path / "sentence.svmx"
    assert main(["stitch", "--pairs-manifest", str(manifest), "--plan", str(plan), "--out", str(out)]) == 0
    assert read_motion(out).num_frames == 18


def test_pipeline_command_and_overrides(tmp_path, tiny_config_file, capsys):
    assert main(["pipeline", "--config", str(tiny_config_file), "--set", "ddim_steps=2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "sentence" in report and "duration_eval" in report


def test_show_config_round_trip(tiny_config_file, capsys):
    assert main(["show-config", "--config", str(tiny_config_file)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["ddim_steps"] == 3
    assert shown["synth"]["vocab_size"] == 4


def test_glossnorm_pair_filter_reports(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join([
        json.dumps({"english": "my mother still works", "gloss": "POSS-1p MOTHER STILL WORK mother works"}),
        json.dumps({"english": " ".join(["word"] * 25), "gloss": "BOOK HOUSE"}),
        json.dumps({"english": "something", "gloss": "[false-start]"}),
    ]))
    out = tmp_path / "reports.jsonl"
    assert main(["glossnorm", "--pairs", str(pairs), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[0]["decision"] == "keep"
    assert "length-ratio" in rows[1]["reasons"]
    assert rows[2]["reasons"] == ["empty"]


def test_qc_dominant_split_flag(tmp_path, tiny_config_file, capsys):
    out_dir = tmp_path / "corpus"
    main(["synth", "--config", str(tiny_config_file), "--out", str(out_dir)])
    capsys.readouterr()
    qc_out = tmp_path / "qc_dom.jsonl"
    assert main(["qc", "--path", str(out_dir / "words.json"), "--out", str(qc_out),
                 "--dominant-split"]) == 0
    rows = [json.loads(l) for l in qc_out.read_text().splitlines()]
    assert all("is_dominant" in r for r in rows)


def test_eval_dump_paths(tmp_path, tiny_config_file, capsys):
    assert main(["eval", "--config", str(tiny_config_file), "--dump-paths"]) == 0
    work = json.loads(tiny_config_file.read_text())["work_dir"]
    from pathlib import Path

    paths_file = Path(work) / "eval" / "paths.jsonl"
    assert paths_file.exists()
    entries = [json.loads(l) for l in paths_file.read_text().splitlines()]
    assert entries and entries[0]["path"][0] == [0, 0]


def test_show_config_output_reloads_identically(tmp_path, tiny_config_file, capsys):
    assert main(["show-config", "--config", str(tiny_config_file)]) == 0
    shown = capsys.readouterr().out
    dumped = tmp_path / "shown.json"
    dumped.write_text(shown)
    assert main(["show-config", "--config", str(dumped)]) == 0
    assert capsys.readouterr().out == shown
    config = json.loads(shown)
    assert config["dur_model"]["dtype"] == "float32" and config["denoiser"]["dtype"] == "float32"
    assert config["qc"]["identity_hook"] is None


def _loaded_config(config_file, work_dir, overrides=()):
    config = config_from_dict(json.loads(config_file.read_text()))
    apply_overrides(config, list(overrides))
    config.work_dir = str(work_dir)
    return config


@pytest.mark.parametrize("command, stage", [("train-duration", "duration"),
                                            ("train-inpainter", "inpaint"),
                                            ("compose", "compose")])
def test_stage_command_stops_at_its_stage(tmp_path, tiny_config_file, capsys, command, stage):
    work = tmp_path / "stage_work"
    assert main([command, "--config", str(tiny_config_file), "--work-dir", str(work)]) == 0
    report = json.loads(capsys.readouterr().out)
    config = _loaded_config(tiny_config_file, work)
    assert report["config_hash"] == stage_hash(config, stage)
    assert "duration_eval" in report and "sentence" not in report
    manifest = json.loads((work / stage / "manifest.json").read_text())
    assert manifest["config_hash"] == stage_hash(config, stage)
    later = RUN_STAGES[RUN_STAGES.index(stage) + 1:]
    assert not [s for s in later if (work / s).exists()]


def test_eval_override_reaches_every_eval_output(tmp_path, tiny_config_file, capsys):
    work = tmp_path / "eval_work"
    common = ["--config", str(tiny_config_file), "--work-dir", str(work)]
    assert main(["pipeline", *common]) == 0
    first = json.loads((work / "eval" / "report.json").read_text())
    assert main(["eval", *common, "--set", "ddim_steps=1"]) == 0
    config = _loaded_config(tiny_config_file, work, ["ddim_steps=1"])
    assert first["config_hash"] != stage_hash(config, "eval")
    report = json.loads((work / "eval" / "report.json").read_text())
    assert report["config_hash"] == stage_hash(config, "eval")
    for stage in ("compose", "eval"):
        manifest = json.loads((work / stage / "manifest.json").read_text())
        assert manifest["config_hash"] == stage_hash(config, stage)
    rows = [json.loads(l) for l in (work / "eval" / "metrics.jsonl").read_text().splitlines()]
    ours = [r["dtw_mpjpe_overall"] for r in rows if r["method"] == "ours"]
    assert report["sentence"]["ours"]["dtw_mpjpe_overall"] == float(np.mean(ours))


def test_partial_config_section_keeps_pipeline_defaults(tmp_path, capsys):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"inpaint_train": {"steps": 500}, "dur_gloss": {"lr": 0.01}}))
    assert main(["show-config", "--config", str(partial)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert main(["show-config"]) == 0
    defaults = json.loads(capsys.readouterr().out)
    assert shown == defaults | {"inpaint_train": defaults["inpaint_train"] | {"steps": 500},
                                "dur_gloss": defaults["dur_gloss"] | {"lr": 0.01}}
    assert shown["inpaint_train"]["ema_decay"] == 0.995 and shown["dur_gloss"]["epochs"] == 30


@pytest.mark.parametrize("command, flags, message", [
    ("show-config", ["--set", "synth=3"], "config key synth names a nested config"),
    ("pipeline", ["--set", "ddim_step=3"], "unknown config key ddim_step"),
    ("train-duration", ["--config", "bad.json"], "unknown config key dur_gloss.stepz"),
])
def test_bad_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"dur_gloss": {"stepz": 3}}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--work-dir", "work"] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: signweave") and f"error: {message}" in captured.err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("synth, message", [
    ({"vocab_size": 0}, "synth.vocab_size must be at least 1, got 0"),
    ({"variants_per_gloss": 0}, "synth.variants_per_gloss must be at least 1, got 0"),
    ({"n_sentences": -1}, "synth.n_sentences must be at least 0, got -1"),
    ({"transition_width": -1}, "synth.transition_width must be at least 0, got -1"),
    ({"sentence_length": [0, 4]}, "synth.sentence_length must start at 1 or more, got (0, 4)"),
    ({"sentence_length": [5, 3]}, "synth.sentence_length is a (low, high) range, got (5, 3)"),
    ({"prep_frames": [9, 2]}, "synth.prep_frames is a (low, high) range, got (9, 2)"),
    ({"sentence_tempo": [0.9, 0.7]}, "synth.sentence_tempo is a (low, high) range, got (0.9, 0.7)"),
], ids=["vocab", "variants", "sentences", "width", "length-zero", "length-reversed", "prep-reversed",
        "tempo-reversed"])
@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_degenerate_synth_config_is_a_usage_error(tmp_path, monkeypatch, capsys, command, synth, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"synth": synth}))
    out = ["--out", "corpus"] if command == "synth" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--work-dir", "work", "--config", "bad.json"] + out)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: signweave") and f"error: {message}" in captured.err
    assert not (tmp_path / "work").exists() and not (tmp_path / "corpus").exists()


def test_synth_command_writes_the_pipeline_corpus(tmp_path, tiny_config_file, capsys):
    """`signweave synth` writes the same bytes as the pipeline's synth stage,
    and leaves no temporary file behind."""
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.startswith("wrote 8 word records and 6 sentences")
    config = config_from_dict(json.loads(tiny_config_file.read_text()))
    prepare_data(config, StageStore(config.work_dir))
    synth_dir = tmp_path / "work" / "synth"
    assert sorted(p.name for p in out_dir.iterdir()) == ["dialogues.json", "words.json"]
    for name in ("words.json", "dialogues.json"):
        assert (out_dir / name).read_bytes() == (synth_dir / name).read_bytes()
