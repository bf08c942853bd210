"""Ingest and export of the word-level and dialogue-level JSON annotation schemas."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
    """One W record. Its four motion parts are flat float64 arrays, as are
    a `Sentence`'s `frames`: 8 B a value, where a list of floats takes 32."""

    gloss: str
    source_info: dict
    segment: dict
    enrichment: dict
    is_dominant: bool
    core_span: tuple[int, int]
    facial_expression: np.ndarray
    body: np.ndarray
    rhands: np.ndarray
    lhands: np.ndarray

    @property
    def num_frames(self) -> int:
        return len(self.body) // PART_FRAME_DIMS["body"]


@dataclass
class Sentence:
    text: str
    glosses: list[str]
    frames: dict[str, np.ndarray]
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


def _part_arrays(raw: dict, where: str) -> dict[str, np.ndarray]:
    """The four checked motion lists of `raw` as flat float64 arrays; an int
    becomes the float nearest to it."""
    parts = {}
    for key in PART_FRAME_DIMS:
        try:
            parts[key] = np.array(raw[key], dtype=np.float64)
        except OverflowError:
            raise IngestError(where, f"{key} holds a number outside the float64 range") from None
    return parts


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
        **_part_arrays(raw, where),
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
        frames=_part_arrays(raw, where),
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


# JSON's whitespace: space, tab, line feed and carriage return
_WHITESPACE = re.compile(r"[ \t\n\r]*")
# characters of the file read at a time
_WINDOW = 1 << 20


def _string_end(text: str, i: int) -> int:
    """The index just past the JSON string that opens at text[i], or -1 when
    text ends first. A quote after an odd run of backslashes is text."""
    end = text.find('"', i + 1)
    while end >= 0:
        start = end
        while text[start - 1] == "\\":
            start -= 1
        if (end - start) % 2 == 0:
            return end + 1
        end = text.find('"', end + 1)
    return -1


def _bracket_end(text: str, i: int, depth: int, open_: str, close: str) -> tuple[int, int]:
    """Scan the array or object whose `open_` brackets are open to `depth`
    at text[i], outside any string. Returns (the index just past the bracket
    that closes it, 0), or, when text ends first, (where to scan on from,
    the depth there). Only the record's own kind of bracket is counted."""
    n = len(text)

    def after(char: str, j: int) -> int:
        k = text.find(char, j)
        return n if k < 0 else k

    quote, opening, closing = after('"', i), after(open_, i), after(close, i)
    while True:
        k = min(quote, opening, closing)
        if k == n:
            return n, depth
        if k == closing:
            depth -= 1
            if depth == 0:
                return k + 1, 0
            closing = after(close, k + 1)
        elif k == opening:
            depth += 1
            opening = after(open_, k + 1)
        else:
            end = _string_end(text, k)
            if end < 0:
                return k, depth
            if opening < end:
                opening = after(open_, end)
            if closing < end:
                closing = after(close, end)
            quote = after('"', end)


def _array_items(fh, path) -> Iterator:
    """The values of the JSON array in the text file `fh`, parsed one at a
    time, so that a caller can shrink each before the next is parsed.

    The file is read `_WINDOW` characters at a time. An object or array
    value is parsed once the scan of its strings and its own brackets
    (`_bracket_end`) finds its end, and the text before it is dropped as the
    next window is read: the text held is one value and one window. Any
    other value, which no record schema accepts, is parsed from the rest of
    the file. Text that is not JSON raises a ValueError `<path>: not valid
    JSON (<reason>)`, with the reason `json.loads` would give; JSON that is
    not an array raises `<path>: expected a JSON array of records`."""
    def invalid(msg: str) -> ValueError:
        return ValueError(f"{path}: not valid JSON ({msg})")

    decode = json.JSONDecoder().raw_decode
    text, pos = "", 0

    def more() -> bool:
        """Drop the text before pos and read the next window; False at the
        end of the file."""
        nonlocal text, pos
        chunk = fh.read(_WINDOW)
        if not chunk:
            return False
        text, pos = text[pos:] + chunk, 0
        return True

    def skip() -> None:
        """Move pos past whitespace, to a character or to the end of the file."""
        nonlocal pos
        pos = _WHITESPACE.match(text, pos).end()
        while pos == len(text) and more():
            pos = _WHITESPACE.match(text, pos).end()

    def read_value() -> None:
        """Read windows until the value at pos ends in text, or the file ends."""
        first = text[pos : pos + 1]
        if first not in ("[", "{"):
            while more():
                pass
            return
        close = "]" if first == "[" else "}"
        resume, depth = pos + 1, 1  # where the bracket scan goes on, and its depth there
        while True:
            resume, depth = _bracket_end(text, resume, depth, first, close)
            if depth == 0:
                return
            resume -= pos  # more() moves the text so that pos is 0
            if not more():
                return

    skip()
    if not text.startswith("[", pos):
        try:
            json.loads(text[pos:] + fh.read())
        except json.JSONDecodeError as err:
            raise invalid(err.msg) from None
        raise ValueError(f"{path}: expected a JSON array of records")
    pos += 1
    skip()
    if not text.startswith("]", pos):
        while True:
            read_value()
            try:
                item, pos = decode(text, pos)
            except json.JSONDecodeError as err:
                raise invalid(err.msg) from None
            yield item
            skip()
            if not text.startswith(",", pos):
                break
            pos += 1
            skip()
        if not text.startswith("]", pos):
            raise invalid("Expecting ',' delimiter")
    pos += 1
    skip()
    if pos != len(text):
        raise invalid("Extra data")


def ingest(path: str | Path, schema: str, strict: bool = True):
    """Load and validate a word-level ('W') or dialogue-level ('U') JSON file.

    The file is read about a megabyte at a time and its records are parsed
    one at a time (`_array_items`): each is validated on its parsed lists,
    then its motion parts become float64 arrays before the next record is
    parsed. So the text held is one record and one window, and the file's
    values are never all held as Python floats. A record that does not
    match the schema raises an IngestError (a ValueError) naming the path
    and the record; a file that is not UTF-8 text, or text that is not a
    JSON array of records, raises a ValueError naming the path, at the
    point where the parse reaches it."""
    parse = {"W": _parse_word_record, "U": _parse_dialogue}.get(schema)
    if parse is None:
        raise ValueError(f"unknown schema {schema!r}")
    records = []
    # newline="": the parse sees the file's own line ends, as json.loads would
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            for i, raw in enumerate(_array_items(fh, path)):
                source = raw.get("source_info") if isinstance(raw, dict) else None
                record_id = source.get("id", i) if isinstance(source, dict) else i
                records.append(parse(raw, f"{path}, record {record_id}", strict))
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x}: {err.reason})") from None
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


def frames_from_parts(parts: dict[str, np.ndarray]) -> np.ndarray:
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


def parts_from_frames(frames: np.ndarray) -> dict[str, np.ndarray]:
    """The four flat float64 part arrays of (T, 206) feature frames."""
    layout = PartLayout.base()
    frames = np.asarray(frames, dtype=np.float64)
    body = frames[:, layout.indices("body")]
    expr = frames[:, layout.indices("expression")]
    jaw = frames[:, layout.indices("jaw")]
    rh = frames[:, layout.indices("rhand")]
    lh = frames[:, layout.indices("lhand")]
    fe = np.concatenate([expr, jaw], axis=1)
    return {
        "body": body.reshape(-1),
        "facial_expression": fe.reshape(-1),
        "rhands": rh.reshape(-1),
        "lhands": lh.reshape(-1),
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


def export_canonical(records: Iterable, path: str | Path, schema: str) -> None:
    """Deterministic export: sorted keys, compact separators, one array.

    Records are taken from `records` and written one at a time, so an
    iterator that builds each record on demand keeps peak memory bounded: the
    next record is asked for only after this one's bytes are in the file. A
    motion array becomes a list of Python floats only while its record is
    written (the `default=` hook), so the bytes are those of the list.
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
            fh.write(json.dumps(to_dict(record), sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist))
            fh.flush()
        fh.write("]")
