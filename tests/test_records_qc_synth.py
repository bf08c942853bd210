from __future__ import annotations

import io
import json
import re
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest

import signweave.qc as qc
import signweave.records as records_module
from signweave.motion import GlossClip, MotionSequence
from dtw_oracles import full_feature_costs, loop_subsequence_distance
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
    dialogue_to_dict,
    export_canonical,
    frames_from_parts,
    ingest,
    parts_from_frames,
    word_record_to_clip,
    word_record_to_dict,
)
from signweave.synth import GlossModel, SynthSpec, smoothstep, synth_generate


def part_lists(frames):
    """The four motion parts of `frames` as JSON lists."""
    return {key: values.tolist() for key, values in parts_from_frames(frames).items()}


def make_word_dict(t=12, gloss="HELLO", seed=0):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t, 206))
    parts = part_lists(frames)
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
            **part_lists(rng.normal(size=(10, 206))),
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


def _sentence_dict(t=6, **changes):
    sent = {"text": "hi there", "glosses": ["HI", "THERE"], "gloss_spans": [[0, 2], [3, t - 1]],
            **part_lists(np.zeros((t, 206)))}
    return {k: v for k, v in (sent | changes).items() if v is not None}


def _malformed_word(key, value):
    raw, _ = make_word_dict()
    raw[key] = value
    return raw


@pytest.mark.parametrize("schema, record, strict, record_id", [
    ("W", [1], True, 0),
    ("W", _malformed_word("core_span", 5), True, "HELLO.v0"),
    ("W", _malformed_word("core_span", [1]), True, "HELLO.v0"),
    ("W", _malformed_word("body", 5), True, "HELLO.v0"),
    ("W", _malformed_word("source_info", "x"), True, 0),
    ("W", _malformed_word("body", ["0.5"] * 126), True, "HELLO.v0"),
    ("U", {"conversation": 5}, True, 0),
    ("U", {"conversation": ["hello"]}, True, 0),
    ("U", {"conversation": [{"role": "user", "sentences": [_sentence_dict(text=None)]}]}, False, 0),
    ("U", {"conversation": [{"role": "user", "sentences": [_sentence_dict(glosses=None)]}]}, True, 0),
    ("W", _malformed_word("gloss", None), True, "HELLO.v0"),
    ("W", _malformed_word("gloss", 7), True, "HELLO.v0"),
    ("W", _malformed_word("is_dominant", "no"), True, "HELLO.v0"),
    ("W", _malformed_word("is_dominant", 1), True, "HELLO.v0"),
    ("U", {"conversation": [{"role": "user", "sentences": [_sentence_dict(text=5)]}]}, True, 0),
    ("U", {"conversation": [{"role": "user", "sentences": [_sentence_dict(glosses=["HI", None])]}]}, True, 0),
], ids=["word-not-object", "core-span-int", "core-span-short", "body-int", "source-info-string",
        "body-strings", "conversation-int", "turn-string", "lenient-no-text", "spans-no-glosses",
        "gloss-null", "gloss-int", "dominant-string", "dominant-int", "text-int", "gloss-list-null"])
def test_malformed_record_is_a_clear_error(tmp_path, capsys, schema, record, strict, record_id):
    """A malformed record raises a ValueError that names the file and the
    record, and the commands that ingest it exit 2 without a traceback."""
    path = tmp_path / "records.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(ValueError) as err:
        ingest(path, schema, strict=strict)
    assert f"{path}, record {record_id}" in str(err.value)

    from signweave.cli import main

    lenient = [] if strict else ["--lenient"]
    commands = [["ingest", "--schema", schema]]
    if schema == "W":
        commands += [["qc", "--out", str(tmp_path / "qc.jsonl")], ["trim", "--out", str(tmp_path / "spans.json")]]
    for command in commands:
        assert main(command + ["--path", str(path)] + lenient) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"signweave {command[0]}: error: {err.value}\n"


def _dialogue_dict(seed=0):
    rng = np.random.default_rng(seed)
    sent = {"text": "hi there", "glosses": ["HI", "THERE"], "gloss_spans": [[0, 2], [3, 5]],
            **part_lists(rng.normal(size=(6, 206)))}
    return {"conversation": [{"role": "user", "sentences": [sent]}, {"role": "assistant", "sentences": [sent]}]}


def _as_json(record, schema):
    """An ingested record as the JSON value it was parsed from."""
    to_dict = word_record_to_dict if schema == "W" else dialogue_to_dict
    return json.loads(json.dumps(to_dict(record), default=np.ndarray.tolist))


def _spaced(text):
    """`text` with JSON whitespace around every delimiter and the whole value
    (the records' strings hold no delimiter)."""
    return " \n" + re.sub(r"([][{},:])", "\r\n \\1\t ", text) + "\n\t"


class TestRecordParser:
    """`ingest` parses the top-level array record by record; it reads the
    records `json.load` reads, and rejects what `json.load` rejects with the
    same reason."""

    @pytest.mark.parametrize("schema", ["W", "U"])
    @pytest.mark.parametrize("layout", ["compact", "indented", "spaced", "empty", "empty-spaced"])
    def test_layouts_give_json_load_records(self, tmp_path, schema, layout):
        raws = [make_word_dict(seed=s)[0] if schema == "W" else _dialogue_dict(seed=s) for s in range(3)]
        text = {
            "compact": json.dumps(raws, separators=(",", ":")),
            "indented": json.dumps(raws, indent=2),
            "spaced": _spaced(json.dumps(raws)),
            "empty": "[]",
            "empty-spaced": " \n[ \t\r\n]\n",
        }[layout]
        path = tmp_path / "records.json"
        path.write_text(text)
        expected = json.loads(text)
        records = ingest(path, schema)
        assert [_as_json(r, schema) for r in records] == expected
        assert len(records) == (0 if layout.startswith("empty") else 3)

    @pytest.mark.parametrize("case", ["object", "number", "number-spaced", "data-after-array",
                                      "array-after-array", "truncated-in-record", "truncated-after-record",
                                      "missing-comma", "empty-file", "bare-open"])
    def test_errors_keep_their_messages(self, tmp_path, case):
        raws = [make_word_dict(seed=s)[0] for s in range(2)]
        records = json.dumps(raws, separators=(",", ":"))
        text = {
            "object": '{"gloss": "HELLO"}',
            "number": "5",
            "number-spaced": " 5 \n",
            "data-after-array": records + " x",
            "array-after-array": records + " []",
            "truncated-in-record": records[: len(records) // 2],
            "truncated-after-record": records[:-1],
            "missing-comma": "[" + json.dumps(raws[0]) + " " + json.dumps(raws[1]) + "]",
            "empty-file": "",
            "bare-open": "[",
        }[case]
        path = tmp_path / "records.json"
        path.write_text(text)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            expected = f"{path}: not valid JSON ({err.msg})"
        else:
            assert not isinstance(data, list)
            expected = f"{path}: expected a JSON array of records"
        with pytest.raises(ValueError) as err:
            ingest(path, "W")
        assert str(err.value) == expected

    def test_ints_become_float64_and_export_as_floats(self, tmp_path):
        raw, _ = make_word_dict(t=6)
        raw["body"] = [0] * 63 * 6
        raw["rhands"] = [i - 135 for i in range(45 * 6)]
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        (record,) = ingest(path, "W")
        for key in ("body", "facial_expression", "rhands", "lhands"):
            values = getattr(record, key)
            assert values.dtype == np.float64 and values.ndim == 1
            assert values.tolist() == [float(v) for v in raw[key]]
        out = tmp_path / "export.json"
        export_canonical([record], out, "W")
        exported = json.loads(out.read_text())[0]
        assert all(type(v) is float for v in exported["body"] + exported["rhands"])
        assert '"body":[0.0,0.0,' in out.read_text()
        again = tmp_path / "again.json"
        export_canonical(ingest(out, "W"), again, "W")
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("value, message", [
        (True, "body must be an array of numbers"),
        (10**400, "body holds a number outside the float64 range"),
    ], ids=["bool", "huge-int"])
    def test_non_float_values_rejected(self, tmp_path, value, message):
        raw, _ = make_word_dict(t=6)
        raw["body"] = [value] + raw["body"][1:]
        path = tmp_path / "words.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(IngestError, match=f"^{re.escape(f'{path}, record HELLO.v0: {message}')}$"):
            ingest(path, "W")


class TestRecordParserSmallWindow(TestRecordParser):
    """The same parses and messages when `ingest` reads the file 16 bytes at
    a time, so that every record crosses a window edge."""

    @pytest.fixture(autouse=True)
    def small_window(self, monkeypatch):
        monkeypatch.setattr(records_module, "_WINDOW", 16)


# strings that end a record's scan early if quotes, backslashes or brackets
# inside them were miscounted; the non-ASCII ones are split across windows
TRICKY_STRINGS = ['say \\"hi\\"', "a\\", "\\\\\\", '"', "}]", "{[", "{{[[\"]}", "é€𝄞 ü", "\\u00e9\\\\\""]


def _tricky_words():
    """Two one-frame W records whose strings hold TRICKY_STRINGS."""
    parts = part_lists(np.zeros((1, 206)))
    return [{"gloss": gloss, "source_info": {"id": f"{gloss}.v{i}", "notes": TRICKY_STRINGS},
             "segment": {}, "is_dominant": True, "enrichment": {"}": "]", "[": {"{": [gloss, "\\"]}}, "core_span": [0, 0], **parts}
            for i, gloss in enumerate(TRICKY_STRINGS[-2:])]


class TestRecordWindow:
    """`ingest` reads the file a window at a time and finds each record's end
    by a scan over its strings and brackets; what it parses and the messages
    it gives do not depend on where the windows fall."""

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 16, 1 << 20])
    @pytest.mark.parametrize("ascii_only", [True, False])
    def test_strings_with_quotes_brackets_and_non_ascii(self, tmp_path, monkeypatch, window, ascii_only):
        monkeypatch.setattr(records_module, "_WINDOW", window)
        text = json.dumps(_tricky_words(), ensure_ascii=ascii_only)
        path = tmp_path / "words.json"
        path.write_text(text, encoding="utf-8")
        records = ingest(path, "W")
        assert [_as_json(r, "W") for r in records] == json.loads(text)
        assert [r.gloss for r in records] == TRICKY_STRINGS[-2:]

    @pytest.mark.parametrize("window", [1, 16])
    def test_each_record_is_parsed_by_the_window_that_ends_it(self, monkeypatch, window):
        """The scan finds each record's end where it is: a record is parsed
        before the window after its last character is read."""
        monkeypatch.setattr(records_module, "_WINDOW", window)
        words = _tricky_words()
        text = json.dumps(words, ensure_ascii=False)
        ends, pos = [], 1
        for _ in words:
            _, pos = json.JSONDecoder().raw_decode(text, pos)
            ends.append(pos)
            pos += 2
        fh = io.StringIO(text)
        for k, word in enumerate(records_module._array_items(fh, "P")):
            assert word == words[k]
            assert fh.tell() < ends[k] + window

    @pytest.mark.parametrize("window", [3, 16])
    def test_cut_anywhere_gives_the_json_loads_message(self, tmp_path, monkeypatch, window):
        """The file cut short at each character that is not part of a motion
        value: inside strings, between escapes, at brackets."""
        monkeypatch.setattr(records_module, "_WINDOW", window)
        text = json.dumps(_tricky_words(), ensure_ascii=False)
        path = tmp_path / "words.json"
        cuts = [i for i in range(len(text)) if text[i] not in "0.," or text[i - 1] not in "0.,"]
        for cut in cuts:
            path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(json.JSONDecodeError) as want:
                json.loads(text[:cut])
            with pytest.raises(ValueError) as got:
                ingest(path, "W")
            assert str(got.value) == f"{path}: not valid JSON ({want.value.msg})", cut

    @pytest.mark.parametrize("window", [1, 3, 1 << 20])
    @pytest.mark.parametrize("prefix, bad, reason", [
        ('[{"gloss": "A', b"\xff", "invalid start byte"),
        ('[{"gloss": "é€', b"\xe2\x82(", "invalid continuation byte"),
        ('[{"gloss": "𝄞', b"\xf0\x9d", "unexpected end of data"),
    ], ids=["start-byte", "continuation", "end-of-file"])
    def test_non_utf8_names_the_path(self, tmp_path, monkeypatch, capsys, window, prefix, bad, reason):
        """A file that is not UTF-8 is an error naming the path, wherever the
        windows fall, and `signweave ingest` reports it as a usage error."""
        monkeypatch.setattr(records_module, "_WINDOW", window)
        path = tmp_path / "words.json"
        path.write_bytes(prefix.encode("utf-8") + bad + (b'"}]' if reason != "unexpected end of data" else b""))
        message = f"{path}: not UTF-8 text (byte 0x{bad[0]:02x}: {reason})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest(path, "W")

        from signweave.cli import main

        assert main(["ingest", "--schema", "W", "--path", str(path)]) == 2
        assert capsys.readouterr().err == f"signweave ingest: error: {message}\n"

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        """The memory an ingest holds beyond the records it returns is one
        record's parse and one window, not the file: 16 records take at most
        1.3 times what 4 records of the same size take. The window is cut to
        64 K characters so that 4 records already span several."""
        monkeypatch.setattr(records_module, "_WINDOW", 1 << 16)
        raws = [make_word_dict(t=100, seed=s)[0] for s in range(16)]
        transient = {}
        for n in (4, 16):
            path = tmp_path / f"words{n}.json"
            path.write_text(json.dumps(raws[:n]))
            assert path.stat().st_size > 16 * records_module._WINDOW
            tracemalloc.start()
            try:
                records = ingest(path, "W")
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(records) == n
            transient[n] = peak - kept
        assert transient[16] <= 1.3 * transient[4], transient


class TestStreamingExport:
    def test_records_are_iterators_of_float64_arrays(self):
        corpus = synth_generate(SynthSpec(vocab_size=2, variants_per_gloss=2, n_sentences=3, seed=4))
        words, dialogues = corpus.word_records(), corpus.dialogue_records()
        assert iter(words) is words and iter(dialogues) is dialogues
        word, dialogue = next(words), next(dialogues)
        parts = [word.body, word.facial_expression, word.rhands, word.lhands,
                 *dialogue.conversation[0].sentences[0].frames.values()]
        assert all(isinstance(p, np.ndarray) and p.dtype == np.float64 and p.ndim == 1 for p in parts)

    @pytest.mark.parametrize("schema, source", [("W", "synth"), ("U", "synth"), ("W", "one-frame")])
    def test_each_record_is_written_before_the_next_is_asked_for(self, tmp_path, schema, source):
        """Also for records far smaller than a file buffer (one frame, 4 KB)."""
        if source == "synth":
            corpus = synth_generate(SynthSpec(vocab_size=3, variants_per_gloss=2, n_sentences=5, seed=4))
            records = list(corpus.word_records() if schema == "W" else corpus.dialogue_records())
        else:
            raws = [make_word_dict(t=1, seed=s)[0] | {"core_span": [0, 0]} for s in range(4)]
            (tmp_path / "small.json").write_text(json.dumps(raws))
            records = ingest(tmp_path / "small.json", "W")
        reference = tmp_path / "reference.json"
        export_canonical(records, reference, schema)
        text = reference.read_text()
        # where each record's text ends in the file, found by a plain JSON parse
        ends, pos = [], 1
        for _ in records:
            _, pos = json.JSONDecoder().raw_decode(text, pos)
            ends.append(pos)
            pos += 1
        assert text[pos - 1 :] == "]"

        path = tmp_path / "streamed.json"
        sizes = []

        def checked():
            for k, record in enumerate(records):
                if k:
                    sizes.append(path.stat().st_size)
                    assert sizes[-1] == ends[k - 1]
                yield record

        export_canonical(checked(), path, schema)
        assert len(sizes) == len(records) - 1 and path.read_bytes() == reference.read_bytes()

    def test_write_corpus_counts_word_records(self, tmp_path):
        from signweave.pipeline import write_corpus

        corpus = synth_generate(SynthSpec(vocab_size=3, variants_per_gloss=2, n_sentences=5, seed=4))
        assert write_corpus(corpus, tmp_path) == 6 == len(ingest(tmp_path / "words.json", "W"))
        assert len(ingest(tmp_path / "dialogues.json", "U")) == 3


class TestQc:
    def test_eleven_second_clip_discarded(self):
        clip = GlossClip("LONG", MotionSequence(np.zeros((275, 206)), fps=25), (0, 274))
        result = qc_filters(clip)
        assert not result.keep
        assert result.reasons == ["duration"]

    def test_ten_second_clip_kept(self):
        clip = GlossClip("OK", MotionSequence(np.zeros((250, 206)), fps=25), (0, 249))
        assert qc_filters(clip).keep

    def test_zero_rotations_kept(self):
        clip = GlossClip("Z", MotionSequence(np.zeros((20, 212)), fps=25), (0, 19))
        result = qc_filters(clip)
        assert result.keep and result.reasons == []

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

    @pytest.mark.parametrize("block", [200, 1 << 15])
    @pytest.mark.parametrize("t_q, t_r, d", [(64, 55, 206), (7, 3, 5), (1, 9, 206), (30, 1, 4)])
    def test_tiled_costs_match_full_difference_array_bitwise(self, monkeypatch, block, t_q, t_r, d):
        rng = np.random.default_rng(t_q * t_r + d)
        query, reference = rng.normal(size=(t_q, d)), rng.normal(size=(t_r, d))
        monkeypatch.setattr(qc, "_BLOCK_ELEMENTS", block)
        got = qc._feature_costs(query, reference)
        assert got.tobytes() == full_feature_costs(query, reference).tobytes()

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
        path.write_text(_json.dumps([word_record_to_dict(r) for r in corpus.word_records()],
                                    default=np.ndarray.tolist))
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


def test_sentence_frames_are_built_on_first_read_only():
    corpus = synth_generate(SynthSpec(vocab_size=4, variants_per_gloss=2, n_sentences=5, seed=3))
    sample = corpus.sentences[2]
    assert "frames" not in vars(sample)
    first = sample.frames
    assert sample.frames is first
    assert first.shape == (sample.gloss_spans[-1][1] + 1, corpus.layout.dim)
    assert all("frames" not in vars(s) for s in corpus.sentences if s is not sample)


def test_clip_lengths_are_known_before_any_build():
    spec = SynthSpec(vocab_size=4, variants_per_gloss=3, n_sentences=5, seed=3)
    corpus = synth_generate(spec)
    oracle = loop_synth_generate(spec)
    clips = [clip for clips in corpus.clips.values() for clip in clips]
    expected = [frames.shape[0] for clips in oracle["clips"].values() for frames, _ in clips]
    # a limit at the median length keeps some clips and discards others
    cfg = QcConfig(max_duration_seconds=sorted(expected)[len(expected) // 2] / spec.fps)
    kept = [qc_filters(clip, cfg).keep for clip in clips]
    assert [clip.motion.num_frames for clip in clips] == expected
    assert [clip.motion.duration_seconds for clip in clips] == [n / spec.fps for n in expected]
    assert kept == [n / spec.fps <= cfg.max_duration_seconds for n in expected] and 0 < sum(kept) < len(kept)
    assert all("frames" not in vars(clip.motion) for clip in clips)
    first = clips[4].motion.frames
    assert clips[4].motion.frames is first and first.shape == (expected[4], corpus.layout.dim)
    assert sum("frames" in vars(clip.motion) for clip in clips) == 1


@pytest.mark.parametrize("order", ["reversed", "interleaved"])
def test_clip_frames_match_the_oracle_in_any_read_order(order):
    spec = SynthSpec(vocab_size=5, variants_per_gloss=3, n_sentences=8, seed=9)
    corpus = synth_generate(spec)
    oracle = loop_synth_generate(spec)
    clip_reads = [(clip.motion, "frames", frames) for name, clips in corpus.clips.items()
                  for clip, (frames, _) in zip(clips, oracle["clips"][name])]
    sentence_reads = [(sample, "frames", ref[1]) for sample, ref in zip(corpus.sentences, oracle["sentences"])]
    # the clips last to first, after a sentence each while the sentences last
    reads = clip_reads[::-1]
    if order == "interleaved":
        reads = [read for pair in zip_longest(sentence_reads, reads) for read in pair if read is not None]
    for owner, attr, expected in reads:
        assert _bytes_equal(getattr(owner, attr), expected)


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
