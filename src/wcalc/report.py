"""Report container and the three emitters (canonical JSON, CSV, text).

The JSON form is byte-stable: sorted keys, fixed separators, trailing
newline, no timestamps.  Two runs with the same config produce identical
bytes, which is what the golden-file tests pin down.

emit_json writes exactly the bytes of json.dumps(d, sort_keys=True,
indent=2, ensure_ascii=False) plus a newline, UTF-8 encoded, where d is
Report.to_dict().  It writes them itself: json.dumps never uses its C
encoder once indent is set, and joins the whole text before encoding it,
so the report would be held as pieces, as a str and as bytes at once.
The writer instead flushes every _FLUSH_PIECES pieces: it joins them,
encodes them and writes the UTF-8 chunk into one io.BytesIO, whose
getvalue() hands the buffer over without a copy.  So besides the records,
emitting a report holds little more than its own bytes.
"""

from __future__ import annotations

import csv
import io
import json

from .config import Config

SCHEMA_NAME = "wcalc-report"
VERSION = "0.2.0"

_FORMATS = ("json", "csv", "text")


class Report:
    __slots__ = ("config", "records")

    def __init__(self, config: Config, records: list | None = None) -> None:
        self.config = config
        self.records = [] if records is None else records

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_NAME,
            "version": VERSION,
            "config": self.config.to_dict(),
            "records": list(self.records),
        }


def _scalar(v) -> bool:
    return v is None or isinstance(v, (str, int, float, bool))


_encode_str = json.encoder.encode_basestring
# float.__repr__ of the values json writes as NaN, Infinity, -Infinity
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# pieces the JSON writer gathers before it flushes them; emitting the
# 617 KB matrix_search report holds 1.19x its bytes at 512, 1.10x at
# 256 (about 2% slower) and 2.0x at 4096
_FLUSH_PIECES = 512


def _float_text(v: float) -> str:
    text = float.__repr__(v)
    return _NONFINITE.get(text, text)


def _subclass_text(v) -> str | None:
    """JSON text of a str, int or float subclass, as its base type; None
    for a value json cannot write."""
    if isinstance(v, str):
        return _encode_str(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float_text(v)
    return None


# JSON text of a scalar by its exact type; other types go to _subclass_text
_TEXT_OF_TYPE = {
    str: _encode_str,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key_text(k) -> str:
    """A dict key as json.dumps writes it: a str as itself, an int, float,
    bool or None as its scalar text, quoted."""
    text = _TEXT_OF_TYPE.get(type(k), _subclass_text)(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return text if isinstance(k, str) else f'"{text}"'


def _write(v, level: int, pieces: list[str], out: io.BytesIO) -> None:
    """Append the JSON text of the container v, indented at level, to
    pieces, and flush them into out, UTF-8 encoded, once there are
    _FLUSH_PIECES."""
    put = pieces.append
    text_of = _TEXT_OF_TYPE.get
    other = _subclass_text
    if isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + "]"
        texts = [text_of(type(x), other)(x) for x in v]
        if None not in texts:
            put(f"[{inner}{(',' + inner).join(texts)}{close}")
            return
        sep = "[" + inner
        for x, text in zip(v, texts):
            if text is None:
                put(sep)
                _write(x, level + 1, pieces, out)
            else:
                put(sep + text)
            sep = "," + inner
        put(close)
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for k, x in sorted(v.items()):
            key = _encode_str(k) if type(k) is str else _key_text(k)
            text = text_of(type(x), other)(x)
            if text is None:
                put(f"{sep}{key}: ")
                _write(x, level + 1, pieces, out)
            else:
                put(f"{sep}{key}: {text}")
            sep = "," + inner
        put("\n" + "  " * level + "}")
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} "
                        f"is not JSON serializable")
    if len(pieces) >= _FLUSH_PIECES:
        out.write("".join(pieces).encode("utf-8"))
        pieces.clear()


def _json_bytes(value) -> bytes:
    """The UTF-8 bytes of json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"; tuples are lists, dict items are sorted
    on their original keys, and any other type raises TypeError."""
    pieces: list[str] = []
    out = io.BytesIO()
    text = _TEXT_OF_TYPE.get(type(value), _subclass_text)(value)
    if text is None:
        _write(value, 0, pieces, out)
    else:
        pieces.append(text)
    pieces.append("\n")
    out.write("".join(pieces).encode("utf-8"))
    return out.getvalue()


def emit_json(report: Report) -> bytes:
    return _json_bytes(report.to_dict())


def emit_csv(report: Report) -> bytes:
    keys: set[str] = set()
    for rec in report.records:
        keys.update(k for k, v in rec.items() if _scalar(v))
    head = ["index"] + (["query"] if "query" in keys else []) \
        + sorted(keys - {"query"})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(head)
    for i, rec in enumerate(report.records):
        row = []
        for col in head:
            if col == "index":
                row.append(i)
                continue
            v = rec.get(col)
            row.append("" if v is None or not _scalar(v) else v)
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _summarize(rec: dict) -> str:
    if "error" in rec:
        err = rec["error"]
        return f"error[{err.get('type')}]: {err.get('message')}"
    if "statuses" in rec:
        return ", ".join(rec["statuses"])
    if "status" in rec:
        return rec["status"]
    for key in ("value", "real"):
        if key in rec:
            return repr(rec[key])
    return "ok"

def emit_text(report: Report) -> bytes:
    lines = [f"{SCHEMA_NAME} {VERSION}  horizon={report.config.horizon}"]
    for i, rec in enumerate(report.records):
        lines.append(f"[{i}] {rec.get('query', '')}")
        lines.append(f"    {_summarize(rec)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        return emit_json(report)
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "text":
        return emit_text(report)
    raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


def collect_statuses(records) -> list[str]:
    """Every verdict status mentioned anywhere in the records, in order."""
    out: list[str] = []
    for rec in records:
        if "status" in rec and isinstance(rec["status"], str):
            out.append(rec["status"])
        for s in rec.get("statuses", []):
            out.append(s)
    return out


def has_errors(records) -> bool:
    return any("error" in rec for rec in records)
