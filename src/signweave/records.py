"""Ingest and export of the word-level and dialogue-level JSON annotation schemas."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .motion import DEFAULT_FPS, GlossClip, MotionSequence, PartLayout

WORD_KEYS = {
    "gloss", "source_info", "segment", "enrichment", "is_dominant",
    "core_span", "facial_expression", "body", "rhands", "lhands",
}
SENTENCE_KEYS = {"text", "glosses", "body", "facial_expression", "rhands", "lhands", "gloss_spans"}

PART_FRAME_DIMS = {"body": 63, "facial_expression": 53, "rhands": 45, "lhands": 45}


class IngestError(ValueError):
    def __init__(self, record_id: str, message: str):
        super().__init__(f"record {record_id}: {message}")
        self.record_id = record_id


@dataclass
class WordRecord:
    gloss: str
    source_info: dict
    segment: dict
    enrichment: dict
    is_dominant: bool
    core_span: tuple[int, int]
    facial_expression: list[float]
    body: list[float]
    rhands: list[float]
    lhands: list[float]

    @property
    def num_frames(self) -> int:
        return len(self.body) // PART_FRAME_DIMS["body"]


@dataclass
class Sentence:
    text: str
    glosses: list[str]
    frames: dict[str, list[float]]
    gloss_spans: list[tuple[int, int]] | None = None


@dataclass
class DialogueTurn:
    role: str
    sentences: list[Sentence]


@dataclass
class DialogueRecord:
    conversation: list[DialogueTurn]


def _check_flat_arrays(arrays: dict[str, list[float]], record_id: str) -> int:
    t = None
    for key, per_frame in PART_FRAME_DIMS.items():
        values = arrays.get(key)
        if values is None:
            raise IngestError(record_id, f"missing key {key}")
        if len(values) % per_frame != 0:
            raise IngestError(record_id, f"{key} length {len(values)} is not divisible by {per_frame}")
        frames = len(values) // per_frame
        if t is None:
            t = frames
        elif frames != t:
            raise IngestError(record_id, f"{key} implies {frames} frames, expected {t}")
    if t == 0:
        raise IngestError(record_id, "empty motion arrays")
    return t


def _parse_word_record(raw: dict, record_id: str, strict: bool) -> WordRecord:
    if strict:
        unknown = set(raw) - WORD_KEYS
        if unknown:
            raise IngestError(record_id, f"unknown keys {sorted(unknown)}")
    missing = {"gloss", "core_span", "body", "facial_expression", "rhands", "lhands"} - set(raw)
    if missing:
        raise IngestError(record_id, f"missing keys {sorted(missing)}")
    t = _check_flat_arrays(raw, record_id)
    span = tuple(int(v) for v in raw["core_span"])
    if not (0 <= span[0] <= span[1] < t):
        raise IngestError(record_id, f"core_span {span} outside [0, {t})")
    return WordRecord(
        gloss=str(raw["gloss"]),
        source_info=raw.get("source_info", {}),
        segment=raw.get("segment", {}),
        enrichment=raw.get("enrichment", {}),
        is_dominant=bool(raw.get("is_dominant", True)),
        core_span=span,
        facial_expression=list(raw["facial_expression"]),
        body=list(raw["body"]),
        rhands=list(raw["rhands"]),
        lhands=list(raw["lhands"]),
    )


def _parse_sentence(raw: dict, record_id: str, strict: bool) -> Sentence:
    if strict:
        unknown = set(raw) - SENTENCE_KEYS
        if unknown:
            raise IngestError(record_id, f"unknown sentence keys {sorted(unknown)}")
    t = _check_flat_arrays(raw, record_id)
    spans = None
    if raw.get("gloss_spans") is not None:
        spans = [tuple(int(v) for v in s) for s in raw["gloss_spans"]]
        if len(spans) != len(raw["glosses"]):
            raise IngestError(record_id, "gloss_spans must pair with glosses")
        for s, e in spans:
            if not (0 <= s <= e < t):
                raise IngestError(record_id, f"gloss span ({s}, {e}) outside [0, {t})")
    return Sentence(
        text=str(raw["text"]),
        glosses=[str(g) for g in raw["glosses"]],
        frames={k: list(raw[k]) for k in PART_FRAME_DIMS},
        gloss_spans=spans,
    )


def _parse_dialogue(raw: dict, record_id: str, strict: bool) -> DialogueRecord:
    if "conversation" not in raw:
        raise IngestError(record_id, "missing key conversation")
    turns = []
    for i, turn in enumerate(raw["conversation"]):
        role = turn.get("role")
        if role not in ("user", "assistant"):
            raise IngestError(record_id, f"turn {i} has invalid role {role!r}")
        sentences = [
            _parse_sentence(s, f"{record_id}.turn{i}.sent{j}", strict)
            for j, s in enumerate(turn.get("sentences", []))
        ]
        turns.append(DialogueTurn(role, sentences))
    return DialogueRecord(turns)


def ingest(path: str | Path, schema: str, strict: bool = True):
    """Load and validate a word-level ('W') or dialogue-level ('U') JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON ({err.msg})") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    records = []
    for i, raw in enumerate(data):
        record_id = str(raw.get("source_info", {}).get("id", i)) if isinstance(raw, dict) else str(i)
        if schema == "W":
            records.append(_parse_word_record(raw, record_id, strict))
        elif schema == "U":
            records.append(_parse_dialogue(raw, record_id, strict))
        else:
            raise ValueError(f"unknown schema {schema!r}")
    return records


def read_json_lines(path: str | Path, fields: tuple[str, ...]) -> list[tuple[int, dict]]:
    """The non-blank lines of a line-delimited JSON file as (1-based line
    number, object) pairs.

    A line that is not a JSON object carrying every one of `fields` raises a
    ValueError naming the path and the line number."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}, line {line_no}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{where}: not valid JSON ({err.msg})") from None
            if not isinstance(rec, dict) or not set(fields) <= rec.keys():
                wanted = " and ".join(fields) + (" fields" if len(fields) > 1 else " field")
                raise ValueError(f"{where}: expected a JSON object with {wanted}")
            rows.append((line_no, rec))
    return rows


# ---------------------------------------------------------------------------
# conversions to the motion model


def frames_from_parts(parts: dict[str, list[float]]) -> np.ndarray:
    """Assemble the 206-dim feature matrix from the four flat arrays.

    facial_expression carries the 50 expression coefficients followed by the
    3 jaw values per frame.
    """
    t = len(parts["body"]) // PART_FRAME_DIMS["body"]
    body = np.asarray(parts["body"], dtype=np.float64).reshape(t, 63)
    fe = np.asarray(parts["facial_expression"], dtype=np.float64).reshape(t, 53)
    rh = np.asarray(parts["rhands"], dtype=np.float64).reshape(t, 45)
    lh = np.asarray(parts["lhands"], dtype=np.float64).reshape(t, 45)
    return np.concatenate([body, fe[:, :50], fe[:, 50:], rh, lh], axis=1)


def parts_from_frames(frames: np.ndarray) -> dict[str, list[float]]:
    layout = PartLayout.base()
    frames = np.asarray(frames, dtype=np.float64)
    body = frames[:, layout.indices("body")]
    expr = frames[:, layout.indices("expression")]
    jaw = frames[:, layout.indices("jaw")]
    rh = frames[:, layout.indices("rhand")]
    lh = frames[:, layout.indices("lhand")]
    fe = np.concatenate([expr, jaw], axis=1)
    return {
        "body": body.reshape(-1).tolist(),
        "facial_expression": fe.reshape(-1).tolist(),
        "rhands": rh.reshape(-1).tolist(),
        "lhands": lh.reshape(-1).tolist(),
    }


def word_record_to_clip(record: WordRecord, fps: int = DEFAULT_FPS) -> GlossClip:
    frames = frames_from_parts({
        "body": record.body,
        "facial_expression": record.facial_expression,
        "rhands": record.rhands,
        "lhands": record.lhands,
    })
    source = dict(record.source_info)
    source.setdefault("is_dominant", record.is_dominant)
    return GlossClip(record.gloss, MotionSequence(frames, fps), record.core_span, source)


def word_record_to_dict(record: WordRecord) -> dict:
    return {
        "gloss": record.gloss,
        "source_info": record.source_info,
        "segment": record.segment,
        "enrichment": record.enrichment,
        "is_dominant": record.is_dominant,
        "core_span": list(record.core_span),
        "facial_expression": record.facial_expression,
        "body": record.body,
        "rhands": record.rhands,
        "lhands": record.lhands,
    }


def sentence_to_dict(sentence: Sentence) -> dict:
    out = {"text": sentence.text, "glosses": sentence.glosses}
    out.update(sentence.frames)
    if sentence.gloss_spans is not None:
        out["gloss_spans"] = [list(s) for s in sentence.gloss_spans]
    return out


def dialogue_to_dict(record: DialogueRecord) -> dict:
    return {
        "conversation": [
            {"role": turn.role, "sentences": [sentence_to_dict(s) for s in turn.sentences]}
            for turn in record.conversation
        ]
    }


def export_canonical(records, path: str | Path, schema: str) -> None:
    """Deterministic export: sorted keys, compact separators, one array.

    Records are serialized one at a time to keep peak memory bounded.
    """
    if schema == "W":
        to_dict = word_record_to_dict
    elif schema == "U":
        to_dict = dialogue_to_dict
    else:
        raise ValueError(f"unknown schema {schema!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for i, record in enumerate(records):
            if i:
                fh.write(",")
            fh.write(json.dumps(to_dict(record), sort_keys=True, separators=(",", ":")))
        fh.write("]")
