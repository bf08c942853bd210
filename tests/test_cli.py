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
    assert main(["retrieve", "--corpus", str(corpus_path), "--query", "hi"]) == 2
    assert capsys.readouterr() == ("", f"signweave retrieve: error: {corpus_path}, line 1: "
                                       "expected a JSON object with english and gloss fields\n")


@pytest.mark.parametrize("command, lines, message", [
    ("eval-queries", [{"query": "drink coffee", "reference_id": "b"}, {"reference_id": "a"}],
     "{path}, line 2: expected a JSON object with query field"),
    ("pairs", ["", {"english": "hello"}], "{path}, line 2: expected a JSON object with english and gloss fields"),
    ("pairs", ['{"english": "hello", "gloss"'], "{path}, line 1: not valid JSON (Expecting ':' delimiter)"),
    ("missing-corpus", [], "[Errno 2] No such file or directory: '{missing}'"),
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
    assert main(argv) == 2
    message = message.format(path=path, missing=tmp_path / "missing.jsonl")
    assert capsys.readouterr() == ("", f"signweave {argv[0]}: error: {message}\n")


MISSING = "[Errno 2] No such file or directory: '{}'"


@pytest.mark.parametrize("case, culprit, message", [
    ("glossnorm-input", "missing.txt", MISSING),
    ("ingest-path", "missing.json", MISSING),
    ("qc-path", "missing.json", MISSING),
    ("trim-path", "missing.json", MISSING),
    ("stitch-manifest", "missing.json", MISSING),
    ("stitch-plan", "missing.json", MISSING),
    ("stitch-motion-file", "gone.svmx", MISSING),
    ("manifest-without-pairs", "pairs.json", "{}: expected a JSON object with a pairs list"),
    ("plan-without-lengths", "plan.json", "{}: expected a JSON object with a lengths list"),
    ("pair-without-boundary", "pairs.json", "{}: pair 0 is not an object with a file and an integer boundary"),
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
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"signweave {argv[0]}: error: {message.format(tmp_path / culprit)}\n")
    assert not (tmp_path / "qc.jsonl").exists() and not (tmp_path / "s.svmx").exists()


@pytest.mark.parametrize("case", ["config", "glossnorm-input", "glossnorm-pairs", "retrieve-corpus",
                                  "retrieve-eval-queries", "stitch-manifest", "stitch-plan", "ingest-path"])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, case):
    """Every text input that does not decode is named in one error line,
    with the byte that does not decode."""
    corpus = tmp_path / "memory.jsonl"
    save_corpus(corpus, [Document("we drink coffee", "IX-1p DRINK COFFEE", "b")])
    write_motion(tmp_path / "p0.svmx", MotionSequence(np.zeros((10, 206))))
    manifest, plan = tmp_path / "pairs.json", tmp_path / "plan.json"
    manifest.write_text(json.dumps({"pairs": [{"file": "p0.svmx", "boundary": 4}]}))
    plan.write_text(json.dumps({"lengths": [5, 5]}))
    bad = tmp_path / "nu.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    out = str(tmp_path / "s.svmx")
    argv = {
        "config": ["show-config", "--config", str(bad)],
        "glossnorm-input": ["glossnorm", "--input", str(bad)],
        "glossnorm-pairs": ["glossnorm", "--pairs", str(bad)],
        "retrieve-corpus": ["retrieve", "--corpus", str(bad), "--query", "coffee"],
        "retrieve-eval-queries": ["retrieve", "--corpus", str(corpus), "--eval-queries", str(bad)],
        "stitch-manifest": ["stitch", "--pairs-manifest", str(bad), "--plan", str(plan), "--out", out],
        "stitch-plan": ["stitch", "--pairs-manifest", str(manifest), "--plan", str(bad), "--out", out],
        "ingest-path": ["ingest", "--path", str(bad), "--schema", "W"],
    }[case]
    assert main(argv) == 2
    message = f"{bad}: not UTF-8 text (byte 0xff: invalid start byte)"
    assert capsys.readouterr() == ("", f"signweave {argv[0]}: error: {message}\n")
    assert not (tmp_path / "s.svmx").exists()


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
    """eval always writes the DTW alignment paths beside the metrics."""
    assert main(["eval", "--config", str(tiny_config_file)]) == 0
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
    ("show-config", ["--set", "synth=3"], "config key synth names a nested config and needs an object"),
    ("pipeline", ["--set", "ddim_step=3"], "unknown config key ddim_step"),
    ("train-duration", ["--config", "bad.json"], "unknown config key dur_gloss.stepz"),
    ("train-duration", ["--config", "hook.json"], "unknown config key qc.identity_hook"),
    ("pipeline", ["--config", "dtype.json"],
     "config key denoiser.dtype must be one of float32, float64, got 'float16'"),
    # a value of the wrong type, at the top level or in a section
    ("show-config", ["--config", "qc_str.json"],
     "config key qc.max_duration_seconds must be of type float, got 'ten'"),
    ("show-config", ["--config", "ddim_str.json"], "config key ddim_steps must be of type int, got '50'"),
    ("show-config", ["--config", "seed_bool.json"], "config key seed must be of type int, got True"),
    ("show-config", ["--config", "length3.json"],
     "config key synth.sentence_length must be a list of 2 items, got [3, 8, 9]"),
    ("show-config", ["--config", "tempo_str.json"],
     "config key synth.sentence_tempo must be of type float, got '0.9'"),
    ("pipeline", ["--config", "qc_str.json"], "config key qc.max_duration_seconds must be of type float, got 'ten'"),
    # --set values are checked by the same rule
    ("show-config", ["--set", "ddim_steps=abc"], "config key ddim_steps must be of type int, got 'abc'"),
    ("pipeline", ["--set", "synth.sentence_length=3"],
     "config key synth.sentence_length must be a list of 2 items, got [3]"),
    ("show-config", ["--set", "denoiser=1"], "config key denoiser names a nested config and needs an object"),
    # the part layout fixes the motion width, and sentences have no gloss limit
    ("train-duration", ["--set", "dur_model.motion_dim=5"], "config key dur_model.motion_dim must be 206, got 5"),
    ("pipeline", ["--config", "motion_dim.json"], "config key dur_model.motion_dim must be 206, got 34"),
    ("train-inpainter", ["--set", "denoiser.motion_dim=206"], "unknown config key denoiser.motion_dim"),
    ("train-duration", ["--set", "dur_model.k_max=2"], "unknown config key dur_model.k_max"),
    # a config file that cannot be read, or that is not JSON, is named
    ("show-config", ["--config", "missing.json"], "[Errno 2] No such file or directory: 'missing.json'"),
    ("pipeline", ["--config", "not_json.json"], "not_json.json: not valid JSON (Expecting value)"),
    # a value that is now a module constant is no config key
    ("show-config", ["--set", "synth.style_noise=0.1"], "unknown config key synth.style_noise"),
    ("train-inpainter", ["--set", "inpaint_train.betas=0.9,0.99"], "unknown config key inpaint_train.betas"),
    # an EMA decay of 1 leaves the shadows compose samples with untrained, and one above 1 diverges
    ("show-config", ["--set", "inpaint_train.ema_decay=1.5"], "inpaint_train.ema_decay must lie in [0, 1), got 1.5"),
    ("train-inpainter", ["--set", "inpaint_train.ema_decay=1"], "inpaint_train.ema_decay must lie in [0, 1), got 1"),
    ("pipeline", ["--config", "ema_negative.json"], "inpaint_train.ema_decay must lie in [0, 1), got -0.5"),
    # the trim section's checks name their keys
    ("show-config", ["--set", "trim.theta_act=2"], "trim.theta_act must lie in [0, 1], got 2"),
    ("show-config", ["--set", "trim.margin=-1"], "trim.margin must be at least 0, got -1"),
])
def test_bad_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"dur_gloss": {"stepz": 3}}))
    (tmp_path / "hook.json").write_text(json.dumps({"qc": {"identity_hook": "x"}}))
    (tmp_path / "dtype.json").write_text(json.dumps({"denoiser": {"dtype": "float16"}}))
    (tmp_path / "qc_str.json").write_text(json.dumps({"qc": {"max_duration_seconds": "ten"}}))
    (tmp_path / "ddim_str.json").write_text(json.dumps({"ddim_steps": "50"}))
    (tmp_path / "seed_bool.json").write_text(json.dumps({"seed": True}))
    (tmp_path / "length3.json").write_text(json.dumps({"synth": {"sentence_length": [3, 8, 9]}}))
    (tmp_path / "tempo_str.json").write_text(json.dumps({"synth": {"sentence_tempo": [0.7, "0.9"]}}))
    (tmp_path / "motion_dim.json").write_text(json.dumps({"dur_model": {"motion_dim": 34}}))
    (tmp_path / "not_json.json").write_text("qc.max_duration_seconds = 10\n")
    (tmp_path / "ema_negative.json").write_text(json.dumps({"inpaint_train": {"ema_decay": -0.5}}))
    assert main([command, "--work-dir", "work"] + flags) == 2
    assert capsys.readouterr() == ("", f"signweave {command}: error: {message}\n")
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
    assert main([command, "--work-dir", "work", "--config", "bad.json"] + out) == 2
    assert capsys.readouterr() == ("", f"signweave {command}: error: {message}\n")
    assert not (tmp_path / "work").exists() and not (tmp_path / "corpus").exists()


def test_overrides_reach_frozen_sections(tmp_path, tiny_config_file, capsys):
    """--set takes a field of any section, frozen or not, as the config file
    takes it: a model dtype by name and a tuple as comma-separated items."""
    argv = ["show-config", "--config", str(tiny_config_file), "--set", "synth.vocab_size=5",
            "--set", "denoiser.dtype=float64", "--set", "trim.margin=2", "--set", "qc.max_duration_seconds=9.5",
            "--set", "dur_model.hidden=32", "--set", "synth.prep_frames=4,9"]
    assert main(argv) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["synth"]["vocab_size"] == 5 and shown["synth"]["prep_frames"] == [4, 9]
    assert shown["denoiser"]["dtype"] == "float64" and shown["trim"]["margin"] == 2
    assert shown["qc"]["max_duration_seconds"] == 9.5 and shown["dur_model"]["hidden"] == 32
    # the other fields of an overridden section keep the file's values
    assert shown["synth"]["n_sentences"] == 6 and shown["denoiser"]["latent"] == 16


def test_int_config_value_stands_for_a_float(tmp_path, capsys):
    """An int where the default is a float is kept as given, so the stage
    hashes of existing config files stay what they were."""
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"qc": {"max_duration_seconds": 10}, "synth": {"sentence_tempo": [1, 2]}}))
    assert main(["show-config", "--config", str(path)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["qc"]["max_duration_seconds"] == 10 and type(shown["qc"]["max_duration_seconds"]) is int
    config = config_from_dict(json.loads(path.read_text()))
    assert config.synth.sentence_tempo == (1, 2) and config.qc.max_duration_seconds == 10


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


@pytest.fixture()
def words_without_ids(tmp_path, tiny_config_file, capsys):
    """A W file of records of one gloss without `source_info.id`: five copies
    of one clip after another gloss's clip relabelled as that gloss."""
    main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "corpus")])
    capsys.readouterr()
    words = json.loads((tmp_path / "corpus" / "words.json").read_text())
    gloss = words[0]["gloss"]
    other = next(w for w in words if w["gloss"] != gloss)
    records = [dict(other, gloss=gloss)] + [words[0]] * 5
    records = [dict(r, source_info={k: v for k, v in r["source_info"].items() if k != "id"}) for r in records]
    path = tmp_path / "no_ids.json"
    path.write_text(json.dumps(records))
    return path, gloss


def test_trim_keeps_records_without_id(tmp_path, words_without_ids, capsys):
    path, gloss = words_without_ids
    out = tmp_path / "spans.json"
    assert main(["trim", "--path", str(path), "--out", str(out)]) == 0
    assert "trimmed 6 clips" in capsys.readouterr().out
    spans = json.loads(out.read_text())
    assert sorted(spans) == [f"{gloss}#{i}" for i in range(6)]
    assert spans[f"{gloss}#1"] == spans[f"{gloss}#5"] != spans[f"{gloss}#0"]


def test_trim_repeated_id_is_a_usage_error(tmp_path, words_without_ids, capsys):
    path, _ = words_without_ids
    records = json.loads(path.read_text())
    for record in records[2:4]:
        record["source_info"]["id"] = "take-1"
    path.write_text(json.dumps(records))
    assert main(["trim", "--path", str(path), "--out", str(tmp_path / "spans.json")]) == 2
    message = f"{path}: record 3 has the span key 'take-1' of record 2"
    assert capsys.readouterr() == ("", f"signweave trim: error: {message}\n")
    assert not (tmp_path / "spans.json").exists()


def test_qc_dominant_split_labels_records_without_id(tmp_path, words_without_ids, capsys):
    """Labels are kept by record position: the relabelled clip, first in the
    file, is the one non-dominant clip, although no record has an id."""
    path, _ = words_without_ids
    out = tmp_path / "qc.jsonl"
    assert main(["qc", "--path", str(path), "--out", str(out), "--dominant-split"]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == [None] * 6
    assert [r["is_dominant"] for r in rows] == [False] + [True] * 5


def test_ingest_export_reproduces_the_corpus(tmp_path, tiny_config_file, capsys):
    """A canonical re-export of the corpus `synth` wrote is the same bytes,
    and leaves no temporary file behind."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(corpus)]) == 0
    again = tmp_path / "again"
    again.mkdir()
    for name, schema in (("words.json", "W"), ("dialogues.json", "U")):
        assert main(["ingest", "--path", str(corpus / name), "--schema", schema,
                     "--export", str(again / name)]) == 0
        assert (again / name).read_bytes() == (corpus / name).read_bytes()
    assert sorted(p.name for p in again.iterdir()) == ["dialogues.json", "words.json"]


@pytest.mark.parametrize("command", ["train-duration", "train-inpainter", "compose", "eval", "pipeline"])
def test_unwritable_work_dir_is_a_one_line_error(tmp_path, tiny_config_file, capsys, command):
    """A work directory that cannot be made, here below a regular file, ends
    a stage command with exit status 73 and one line naming it."""
    (tmp_path / "a-file").write_text("")
    work = str(tmp_path / "a-file" / "w")
    assert main([command, "--config", str(tiny_config_file), "--work-dir", work]) == 73
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"signweave {command}: error: cannot write {work}: ")


def test_stage_value_error_is_a_one_line_usage_error(tmp_path, capsys):
    """A config that a stage rejects once it runs, here a qc limit that
    discards a clip a training sentence is composed from, ends the command
    with exit status 2 and one line, not a traceback."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"synth": {"vocab_size": 5, "variants_per_gloss": 3, "n_sentences": 12, "seed": 7}}))
    argv = ["train-duration", "--config", str(config), "--set", "qc.max_duration_seconds=2.0",
            "--work-dir", str(tmp_path / "work")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("signweave train-duration: error: qc discarded clip ")
    assert captured.err.endswith("it is longer than qc.max_duration_seconds (2.0 s)\n")


@pytest.mark.parametrize("command", ["ingest", "qc", "trim", "glossnorm", "stitch", "synth"])
def test_unwritable_output_is_a_one_line_error(tmp_path, tiny_config_file, capsys, command):
    """An output path that cannot be written ends the command with exit
    status 73 and one line on stderr naming the path, not a traceback."""
    assert main(["synth", "--config", str(tiny_config_file), "--out", str(tmp_path / "corpus")]) == 0
    words = str(tmp_path / "corpus" / "words.json")
    write_motion(tmp_path / "p0.svmx", MotionSequence(np.zeros((10, 206))))
    (tmp_path / "pairs.json").write_text(json.dumps({"pairs": [{"file": "p0.svmx", "boundary": 4}]}))
    (tmp_path / "plan.json").write_text(json.dumps({"lengths": [5, 5]}))
    (tmp_path / "lines.txt").write_text("BOOK GOOD\n")
    (tmp_path / "a-file").write_text("")
    # a directory that does not exist, or a path below a regular file
    out = str(tmp_path / ("a-file" if command == "synth" else "missing") / "out")
    argv = {
        "ingest": ["ingest", "--path", words, "--schema", "W", "--export", out],
        "qc": ["qc", "--path", words, "--out", out],
        "trim": ["trim", "--path", words, "--out", out],
        "glossnorm": ["glossnorm", "--input", str(tmp_path / "lines.txt"), "--out", out],
        "stitch": ["stitch", "--pairs-manifest", str(tmp_path / "pairs.json"),
                   "--plan", str(tmp_path / "plan.json"), "--out", out],
        "synth": ["synth", "--config", str(tiny_config_file), "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 73
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"signweave {command}: error: cannot write {out}: ")
