"""Report emitters: canonical JSON, CSV flattening, text rendering."""

import csv
import enum
import io
import json
import types
import pathlib
import tracemalloc

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from wcalc import Config, Report, dsl, emit, emit_csv, emit_json, emit_text
from wcalc import report as report_module
from wcalc.report import _FLUSH_PIECES, _json_bytes, collect_statuses, has_errors

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json")
    .read_text())

RECORDS = [
    {"query": "check lc(g) horizon 64;", "kind": "check", "op": "lc",
     "status": "Holds", "horizon": 64, "witness": None,
     "evidence": {"scanned": 64}},
    {"query": "eval omega(w, 2.5);", "kind": "eval", "op": "omega",
     "value": 1.25, "attained_at": 2},
    {"query": "check mg(b);", "kind": "check", "op": "mg",
     "statuses": ["Holds", "Undetermined"]},
    {"query": "seq bad = gevrey(s=-1);", "kind": "binding", "name": "bad",
     "error": {"type": "InvalidParameterError", "message": "need s > 0"}},
]


def make_report(records=RECORDS) -> Report:
    return Report(Config(), list(records))


def test_json_is_canonical_and_stable():
    blob = emit_json(make_report())
    assert blob.endswith(b"\n")
    data = json.loads(blob)
    assert data["schema"] == "wcalc-report"
    assert data["config"]["horizon"] == 512
    assert data["records"][0]["query"] == RECORDS[0]["query"]
    # sorted keys + fixed indentation make the bytes reproducible
    assert blob == emit_json(make_report())
    text = blob.decode()
    assert '  "config"' in text
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_json_matches_schema():
    jsonschema.validate(json.loads(emit_json(make_report())), SCHEMA)
    jsonschema.validate(json.loads(emit_json(make_report([]))), SCHEMA)


def test_error_records_keep_the_precondition_witness():
    """gevrey(s=0.01) passes lc and normalized, but its roots do not
    diverge by horizon 64: the queries that need its sc certificate become
    error records that carry the certificate as their witness."""
    text = (pathlib.Path(__file__).parent / "data" / "evidence.wsq").read_text()
    records = dsl.execute(dsl.parse(text), Config())
    errors = {r["query"]: r["error"] for r in records if "error" in r}
    assert sorted(errors) == ["compare bigO(e, g) horizon 64;",
                              "compare bigO(g, e) horizon 64;",
                              "compare smallO(g, e) horizon 64;"]
    for err in errors.values():
        assert err["type"] == "PreconditionError"
        assert err["witness"] == {"lc": "Holds", "normalized": "Holds",
                                  "roots_divergent": False}
    assert "witness" in SCHEMA["properties"]["records"]["items"][
        "properties"]["error"]["properties"]
    jsonschema.validate(json.loads(emit_json(Report(Config(), records))), SCHEMA)


def test_empty_report_is_valid():
    data = json.loads(emit_json(make_report([])))
    assert data["records"] == []


def test_csv_flattens_scalar_fields():
    rows = list(csv.reader(emit_csv(make_report()).decode().splitlines()))
    head = rows[0]
    assert head[0] == "index" and head[1] == "query"
    assert head[2:] == sorted(head[2:])
    assert "status" in head and "value" in head
    # nested dicts are dropped rather than mangled into cells
    assert "evidence" not in head and "error" not in head
    assert len(rows) == 1 + len(RECORDS)
    first = rows[1]
    assert first[0] == "0"
    assert first[head.index("status")] == "Holds"
    second = rows[2]
    assert second[head.index("value")] == "1.25"
    assert second[head.index("status")] == ""


def test_csv_single_record_has_header_and_row():
    lines = emit_csv(make_report([{"query": "check lc(g);",
                                   "status": "Holds"}])).decode().splitlines()
    assert len(lines) == 2


def test_text_rendering():
    text = emit_text(make_report()).decode()
    lines = text.splitlines()
    assert lines[0] == "wcalc-report 0.2.0  horizon=512"
    assert "[0] check lc(g) horizon 64;" in text
    assert "    Holds" in text
    assert "Holds, Undetermined" in text
    assert "error[InvalidParameterError]" in text
    assert "1.25" in text


def test_emit_dispatch():
    rep = make_report()
    assert emit(rep, "json") == emit_json(rep)
    assert emit(rep, "csv") == emit_csv(rep)
    assert emit(rep, "text") == emit_text(rep)
    with pytest.raises(ValueError):
        emit(rep, "yaml")


def test_status_collection_and_error_scan():
    assert collect_statuses(RECORDS) == ["Holds", "Holds", "Undetermined"]
    assert has_errors(RECORDS)
    assert not has_errors(RECORDS[:3])


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps, its oracle


def _dumps(v) -> bytes:
    return (json.dumps(v, sort_keys=True, indent=2, ensure_ascii=False)
            + "\n").encode("utf-8")


def _outcome(fn, v):
    """The bytes fn writes for v, or the type of what it raises."""
    try:
        return fn(v)
    except Exception as exc:  # both sides must raise the same type
        return type(exc)


def _written(v) -> bytes:
    return _json_bytes(v)


_ODD_TEXT = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\u2029'
                    "a é€😀\U0010ffff")
_TEXT = st.one_of(st.text(), _ODD_TEXT)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    # every float, and the subnormal range on its own
    st.floats(), st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    _TEXT)
# one key type per dict: json.dumps sorts keys, so mixed types raise
_KEYS = (_TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        *(st.dictionaries(k, children, max_size=6) for k in _KEYS))


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


class _Count(enum.IntEnum):
    TWO = 2


class _Half(float):
    def __repr__(self):
        return "half"


class _Name(str):
    def __repr__(self):
        return "name"


def _many_records(flushes: int) -> dict:
    """A report-shaped value that takes more than flushes * _FLUSH_PIECES
    pieces: a record is its separator, five items and its closing brace."""
    return {"schema": "wcalc-report", "records": [
        {"query": f"check lc(m{i}) horizon 64;", "status": "Holds",
         "horizon": 64, "witness": None, "evidence": {"scanned": i / 7.0}}
        for i in range(flushes * _FLUSH_PIECES // 5)]}


def _nested(depth: int):
    v = {"x": []}
    for i in range(depth):
        v = [v, (i,), {}] if i % 2 else {str(i): v, "e": []}
    return v


@settings(max_examples=200, deadline=None)
@given(_VALUES)
@example(float("nan"))
@example([float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308,
          1e16, 1e22, 0.1, 1.7976931348623157e308])
@example({1.5: 0, -0.0: 1, float("inf"): 2, float("nan"): 3})
@example({True: [], False: {}})
@example({None: ()})
@example({-(2 ** 200): 2 ** 200, 7: True})
@example(["\"\\\x00\x1f\x7f\u2028 é 😀"])
@example(_nested(60))
@example(_many_records(10))
# subclasses are written as their base type, whatever their repr
@example([_Count.TWO, {_Count.TWO: _Half(0.5)}, {_Half(1.5): _Name("n")},
          {_Name("k"): (_Count.TWO,)}])
def test_writer_matches_json_dumps(value):
    assert _written(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [b"x"], {"a": bytearray(b"")}, {(1, 2): 0}, {1: 0, "a": 1},
    {None: 0, 1: 1}, object(), ["\ud800"],
], ids=["set", "bytes", "bytearray", "tuple-key", "int-and-str-keys",
        "none-and-int-keys", "object", "lone-surrogate"])
def test_writer_raises_what_json_dumps_raises(value):
    got = _outcome(_written, value)
    assert isinstance(got, type) and got is _outcome(_dumps, value)


@pytest.mark.parametrize("script", sorted(
    p.name for p in (pathlib.Path(__file__).parent / "data").glob("*.wsq")))
def test_script_reports_match_json_dumps(script):
    text = (pathlib.Path(__file__).parent / "data" / script).read_text()
    rep = Report(Config(), dsl.execute(dsl.parse(text), Config()))
    assert emit_json(rep) == _dumps(rep.to_dict())


def test_many_records_example_spans_ten_flushes(monkeypatch):
    writes = []

    class Counting(io.BytesIO):
        def write(self, chunk):
            writes.append(len(chunk))
            return super().write(chunk)

    monkeypatch.setattr(report_module, "io", types.SimpleNamespace(BytesIO=Counting))
    value = _many_records(10)
    assert _written(value) == _dumps(value)
    # ten flushes, then the final write of what is left
    assert len(writes) >= 11


def test_emit_json_peak_memory_stays_below_one_and_a_half_report_sizes():
    # json.dumps needs about 5x its output here (4.9x on a matrix_search
    # report): the pieces, the joined str and the bytes copy live at once.
    # The writer holds one buffer plus at most _FLUSH_PIECES pieces and
    # their chunk (1.27x at 512 pieces a flush, 2.28x at 4096)
    records = [{"query": f"check mg(m{i}) horizon 512;", "status": "Holds",
                "horizon": 512, "witness": None,
                "evidence": {"defects": [i / 7.0 + j / 3.0 for j in range(16)],
                             "trend": "flat", "stabilized": True,
                             "log_constant": i * 0.1}}
               for i in range(700)]
    rep = Report(Config(), records)
    tracemalloc.start()
    try:
        out = emit_json(rep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 400_000 < len(out) < 700_000
    assert peak < 1.5 * len(out)
    # only the output outlives the call: no reference cycle keeps the
    # buffer alive until the next garbage collection
    assert held < 1.1 * len(out)
