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
    """A record that does not match its schema; the message starts with
    where the record is: the file and the record id."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


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


_NUMBERS = {int, float}


def _check_flat_arrays(arrays: dict, where: str) -> int:
    t = None
    for key, per_frame in PART_FRAME_DIMS.items():
        values = arrays[key]
        if not isinstance(values, list) or not set(map(type, values)) <= _NUMBERS:
            raise IngestError(where, f"{key} must be an array of numbers")
        if len(values) % per_frame != 0:
            raise IngestError(where, f"{key} length {len(values)} is not divisible by {per_frame}")
        frames = len(values) // per_frame
        if t is None:
            t = frames
        elif frames != t:
            raise IngestError(where, f"{key} implies {frames} frames, expected {t}")
    if t == 0:
        raise IngestError(where, "empty motion arrays")
    return t


def _span(value, t: int, name: str, where: str) -> tuple[int, int]:
    """`value` as a (start, end) pair of integers with 0 <= start <= end < t."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise IngestError(where, f"{name} must be a [start, end] pair of integers, not {value!r}")
    if not 0 <= value[0] <= value[1] < t:
        raise IngestError(where, f"{name} {tuple(value)} outside [0, {t})")
    return tuple(value)


def _check_keys(raw, required: set[str], allowed: set[str], strict: bool, where: str) -> None:
    if not isinstance(raw, dict):
        raise IngestError(where, f"expected a JSON object, not {type(raw).__name__}")
    unknown = set(raw) - allowed
    if strict and unknown:
        raise IngestError(where, f"unknown keys {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise IngestError(where, f"missing keys {sorted(missing)}")


def _typed(raw: dict, key: str, kind: type, where: str):
    """raw[key], an empty `kind` when absent; a value of another type raises."""
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        raise IngestError(where, f"{key} must be {'an object' if kind is dict else 'an array'}")
    return value


def _scalar(raw: dict, key: str, kind: type, where: str, default=None):
    """raw[key] (or the default when absent), which must be exactly a `kind`:
    no null, and no number or string standing in for a bool."""
    value = raw.get(key, default)
    if type(value) is not kind:
        raise IngestError(where, f"{key} must be a {'string' if kind is str else 'boolean'}, not {value!r}")
    return value


def _parse_word_record(raw: dict, where: str, strict: bool) -> WordRecord:
    _check_keys(raw, {"gloss", "core_span", *PART_FRAME_DIMS}, WORD_KEYS, strict, where)
    t = _check_flat_arrays(raw, where)
    return WordRecord(
        gloss=_scalar(raw, "gloss", str, where),
        source_info=_typed(raw, "source_info", dict, where),
        segment=_typed(raw, "segment", dict, where),
        enrichment=_typed(raw, "enrichment", dict, where),
        is_dominant=_scalar(raw, "is_dominant", bool, where, default=True),
        core_span=_span(raw["core_span"], t, "core_span", where),
        facial_expression=raw["facial_expression"],
        body=raw["body"],
        rhands=raw["rhands"],
        lhands=raw["lhands"],
    )


def _parse_sentence(raw: dict, where: str, strict: bool) -> Sentence:
    _check_keys(raw, {"text", "glosses", *PART_FRAME_DIMS}, SENTENCE_KEYS, strict, where)
    t = _check_flat_arrays(raw, where)
    glosses = _typed(raw, "glosses", list, where)
    if not all(type(g) is str for g in glosses):
        raise IngestError(where, f"glosses must be strings, not {glosses!r}")
    spans = None
    if raw.get("gloss_spans") is not None:
        spans = [_span(s, t, "gloss span", where) for s in _typed(raw, "gloss_spans", list, where)]
        if len(spans) != len(glosses):
            raise IngestError(where, "gloss_spans must pair with glosses")
    return Sentence(
        text=_scalar(raw, "text", str, where),
        glosses=glosses,
        frames={k: raw[k] for k in PART_FRAME_DIMS},
        gloss_spans=spans,
    )


def _parse_dialogue(raw: dict, where: str, strict: bool) -> DialogueRecord:
    _check_keys(raw, {"conversation"}, {"conversation"}, False, where)
    turns = []
    for i, turn in enumerate(_typed(raw, "conversation", list, where)):
        if not isinstance(turn, dict):
            raise IngestError(where, f"turn {i} must be an object")
        role = turn.get("role")
        if role not in ("user", "assistant"):
            raise IngestError(where, f"turn {i} has invalid role {role!r}")
        sentences = [
            _parse_sentence(s, f"{where}.turn{i}.sent{j}", strict)
            for j, s in enumerate(_typed(turn, "sentences", list, f"{where}.turn{i}"))
        ]
        turns.append(DialogueTurn(role, sentences))
    return DialogueRecord(turns)


def ingest(path: str | Path, schema: str, strict: bool = True):
    """Load and validate a word-level ('W') or dialogue-level ('U') JSON file.

    A record that does not match the schema raises an IngestError (a
    ValueError) naming the path and the record."""
    parse = {"W": _parse_word_record, "U": _parse_dialogue}.get(schema)
    if parse is None:
        raise ValueError(f"unknown schema {schema!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON ({err.msg})") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    records = []
    for i, raw in enumerate(data):
        source = raw.get("source_info") if isinstance(raw, dict) else None
        record_id = source.get("id", i) if isinstance(source, dict) else i
        records.append(parse(raw, f"{path}, record {record_id}", strict))
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
