"""The shared JSON-lines reader and writer: the line parser against
json.loads, the canonical encoder against json.dumps, the streaming writer's
bytes and failures, and verify_records against the parse pass and the
memory that it holds."""

import hashlib
import json
import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.records import (
    SchemaError,
    canonical_json,
    config_digest,
    iter_lines,
    iter_rows,
    parse_line,
    read_json,
    read_meta,
    read_records,
    verify_records,
    write_records,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
dumped = st.builds(lambda value, ascii: json.dumps(value, ensure_ascii=ascii), json_values, st.booleans())
# Lines the scanner alone would get wrong: a BOM, lone or paired surrogate
# escapes, an integer over the digit limit, bare constants, truncation.
EDGE_LINES = [
    "\ufeff{}", '"\\ud800"', '"\\udc00\\ud800"', '"\\ud83d\\ude00"', "1" * 5000, "-" + "9" * 4400,
    "NaN", "-Infinity", "Infinity", "nan", "{", '{"a": 1', "[1,]", "", " ", "\x1c{}", "{}\u3000",
]


def outcome(parse, line):
    """What a parser makes of a line: the value's repr (so that NaN equals
    NaN and key order counts), or the exception's type and message."""
    try:
        return "value", repr(parse(line))
    except Exception as exc:  # any exception json.loads raises must be raised alike
        return type(exc), str(exc)


@given(
    st.one_of(
        st.text(),
        dumped,
        st.tuples(st.sampled_from(["", " ", "\t", "\ufeff"]), dumped,
                  st.sampled_from(["", " \n", "x", "{}", "1", ",", "]", "\ufeff"]) | st.text(max_size=3)).map("".join),
        st.sampled_from(EDGE_LINES),
    )
)
@settings(max_examples=500, deadline=None)
def test_parse_line_matches_json_loads(line):
    assert outcome(parse_line, line) == outcome(json.loads, line)


finite_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**256), max_value=2**256)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(finite_json_values)
@settings(max_examples=500, deadline=None)
def test_canonical_json_matches_sorted_compact_json_dumps(value):
    """The prebuilt encoder writes what json.dumps writes with sorted keys,
    compact separators and unescaped non-ASCII text."""
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite_floats(tmp_path, value):
    """NaN and Infinity are not JSON (RFC 8259), so no record or meta line
    may hold them: the write fails and leaves no file."""
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        canonical_json({"config": {"temperature": value}})
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError):
        write_records(path, [{"sample_id": "a", "score": value}], {"seed": 0}, "demo")
    assert list(tmp_path.iterdir()) == []


def test_canonical_json_unserialisable_value_message():
    with pytest.raises(TypeError) as expected:
        json.dumps({"a": {1}})
    with pytest.raises(TypeError) as raised:
        canonical_json({"a": {1}})
    assert str(raised.value) == str(expected.value) == "Object of type set is not JSON serializable"


def test_iter_rows_numbers_lines_and_skips_blanks(tmp_path):
    path = tmp_path / "rows.jsonl"
    body = b'\n  {"a": NaN}  \n{"b": [1, 2]}\n'
    meta = {"record_type": "meta", "count": 2, "config": {}, "config_digest": config_digest({}),
            "records_digest": hashlib.sha256(body).hexdigest()}
    path.write_bytes(json.dumps(meta).encode() + b"\n" + body)
    rows = list(iter_rows(path))
    assert [n for n, _ in rows] == [3, 4]
    assert repr(rows[0][1]) == "{'a': nan}" and rows[1][1] == {"b": [1, 2]}


def test_iter_rows_yields_records_only(tmp_path):
    """Line 1's meta line is never yielded; a meta-shaped line anywhere else
    is a record, counted by the meta line and yielded."""
    path = tmp_path / "rows.jsonl"
    shaped = {"record_type": "meta", "count": 0}
    write_records(path, [shaped, {"b": 1}], {}, "demo")
    assert list(iter_rows(path)) == [(2, shaped), (3, {"b": 1})]
    path.write_text("\n" + json.dumps(shaped) + "\n")  # no meta line: line 1 is blank
    assert list(iter_rows(path)) == [(2, shaped)]


def test_iter_rows_copies_the_meta_line_into_meta(tmp_path):
    """From the one pass that yields the records, before the first of them."""
    path = tmp_path / "rows.jsonl"
    write_records(path, [{"b": 1}], {"seed": 0}, "demo")
    meta = {}
    rows = iter_rows(path, meta)
    assert next(rows) == (2, {"b": 1}) and meta == read_meta(path) != {}
    path.write_text('{"b": 1}\n')
    meta = {}
    assert list(iter_rows(path, meta)) == [(1, {"b": 1})] and meta == {}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("read", [read_records, verify_records], ids=["read_records", "verify_records"])
def test_a_pipe_reads_as_its_file_does(tmp_path, read):
    """A pipe can be read only once, so the records digest is taken in the
    pass that parses the records: a second read would see nothing."""
    path = tmp_path / "rows.jsonl"
    write_records(path, [{"b": 1}, {"c": 2}], {"seed": 0}, "demo")
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes())  # fits the pipe's buffer
        os.close(w)
        assert read(f"/dev/fd/{r}") == read(path)
    finally:
        os.close(r)


META_LINE = '{"record_type": "meta", "count": 5, "config": {}}'


@pytest.mark.parametrize(
    "data, expected",
    [
        (META_LINE + '\n{"a": 1}\n', json.loads(META_LINE)),
        (META_LINE + "\nnot json\n[1]\n", json.loads(META_LINE)),  # line 1 alone is read, and not checked
        (META_LINE, json.loads(META_LINE)),
        ('{"a": 1}\n' + META_LINE + "\n", {}),
        ("\n" + META_LINE + "\n", {}),
        ('{"record_type": "meta", "count": \n', {}),
        ("[1, 2]\n", {}),
        ('{"record_type": "data"}\n', {}),
        (b"\xff" + META_LINE.encode(), {}),
        ("", {}),
    ],
    ids=["meta", "meta-then-corrupt", "meta-without-newline", "no-meta", "blank-line-1", "corrupt-line-1",
         "not-an-object", "other-record-type", "not-utf8", "empty"],
)
def test_read_meta_reads_line_1_only(tmp_path, data, expected):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    assert read_meta(path) == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_read_meta_does_not_read_a_fifo(tmp_path):
    """A FIFO's lines can be read only once, by the reader of its records, so
    read_meta leaves it alone: the meta line written to it stays unread."""
    fifo = tmp_path / "rows.jsonl"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDWR)  # a writer, so that no open of the FIFO blocks
    try:
        os.write(fd, META_LINE.encode() + b"\n")
        assert read_meta(fifo) == {}
        assert os.read(fd, 1 << 10) == META_LINE.encode() + b"\n"
    finally:
        os.close(fd)


def test_iter_lines_ends_lines_at_newline_and_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\r\nb\rc\n\xc3\xa9\nlast")
    assert list(iter_lines(path)) == [(1, "a\r\n"), (2, "b\rc\n"), (3, "\u00e9\n"), (4, "last")]
    for tail in (b"\xc3\n", b"\xc3"):  # a character cut short at the end of its line, and of the file
        path.write_bytes(b"ok\n" * 3 + tail)
        with pytest.raises(SchemaError, match=r"lines.txt: line 4: not valid UTF-8: .* position 0"):
            list(iter_lines(path))


@pytest.mark.parametrize(
    "read, where",
    [(lambda path: list(iter_rows(path)), "line 2: "), (verify_records, "line 2: "), (read_json, "")],
    ids=["iter_rows", "verify_records", "read_json"],
)
def test_json_nested_too_deep_is_a_schema_error_naming_the_file(tmp_path, read, where):
    """json raises RecursionError, not ValueError, for arrays nested past the
    recursion limit; 100,000 levels is past any limit a process would set."""
    path = tmp_path / "deep.json"
    first = '{"a": 1}\n' if where else ""  # a JSON-lines file, whose second line is the deep one
    path.write_text(first + '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value).startswith(f"{path}: {where}not valid JSON: maximum recursion depth exceeded")


def verify_outcome(path) -> tuple:
    """verify_records' problems, or the words of the SchemaError it raises."""
    try:
        return tuple(verify_records(path))
    except SchemaError as exc:
        return (str(exc),)


def parse_pass_outcome(path) -> tuple:
    """The same, from a pass of iter_rows: the problems it raises at once (one
    for a bad line), and no meta line as verify_records words it."""
    meta = {}
    try:
        list(iter_rows(path, meta))
    except SchemaError as exc:
        return exc.args
    return () if meta else (f"{path}: no meta line",)


def _forged(body: bytes) -> bytes:
    """``body`` under a meta line that a foreign writer made to match its bytes
    and its newline count."""
    meta = {"record_type": "meta", "kind": "demo", "count": body.count(b"\n"), "config": {},
            "config_digest": config_digest({}), "records_digest": hashlib.sha256(body).hexdigest()}
    return json.dumps(meta).encode() + b"\n" + body


ROWS = [{"sample_id": "a", "text": "café à gauche"}, {"sample_id": "b", "n": [1, 2.5, None]}]
# Each makes the meta line of a file that write_records wrote wrong, or removes it.
WRONG_META = {
    "count": lambda data: data.replace(b'"count":', b'"count":9', 1),  # 92 records, or 90
    "records digest": lambda data: data.replace(b'"records_digest":"', b'"records_digest":"0', 1),
    "config digest": lambda data: data.replace(b'"config_digest":"', b'"config_digest":"0', 1),
    "NaN config": lambda data: data.replace(b'"config":{"seed":0}', b'"config":{"seed":NaN}', 1),
    "corrupt line 1": lambda data: b"{" + data,
    "no meta line": lambda data: data.split(b"\n", 1)[1],
    "CRLF endings": lambda data: data.replace(b"\n", b"\r\n"),
}
FORGED_BODIES = {
    "records": b'{"a":1}\n{"b":2}\n',
    "empty": b"",
    "non-UTF-8 byte": b'{"a":1}\n{"text":"\xff"}\n',
    "no final newline": b'{"a":1}\n{"b":2}',
    "non-UTF-8 without final newline": b'{"a":1}\n{"text":"\xc3',
    "non-UTF-8 byte at the end of a block": b'"' + b"a" * 65534 + b'\xc3"\n',
}
# Bodies whose bytes match the forged digest, but which hold a line that no
# reader takes: verify passes them, and the parse pass refuses them.
UNREAD_BODIES = {
    "blank line": b'{"a":1}\n\n{"b":2}\n',
    "whitespace-only line": b'{"a":1}\n \t\n',
    "array": b"[1]\n",
    "string": b'"x"\n',
    "not JSON": b'{"a":1}\nnot json\n',
    "after a character split across two blocks": b'"' + b"a" * 65534 + "é".encode() + b'"\n[1]\n',
}


@pytest.mark.parametrize("rows", [ROWS, []], ids=["rows", "no rows"])
@pytest.mark.parametrize("change", [None, *WRONG_META], ids=["as written", *WRONG_META])
def test_verify_agrees_with_the_parse_pass(tmp_path, rows, change):
    """verify_records checks a file from its bytes and parses it only when that
    check fails: its outcome is the parse pass's, with every problem in order."""
    path = tmp_path / "rows.jsonl"
    write_records(path, rows, {"seed": 0}, "demo")
    if change:
        path.write_bytes(WRONG_META[change](path.read_bytes()))
    assert verify_outcome(path) == parse_pass_outcome(path)
    # a lone meta line may end in CRLF: no body byte changed
    assert (verify_outcome(path) == ()) == (change is None or (change == "CRLF endings" and not rows))


@pytest.mark.parametrize("body", FORGED_BODIES.values(), ids=FORGED_BODIES)
def test_verify_agrees_with_the_parse_pass_on_forged_files(tmp_path, body):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(_forged(body))
    assert verify_outcome(path) == parse_pass_outcome(path)
    assert (verify_outcome(path) == ()) == (body in (FORGED_BODIES["records"], b""))


@pytest.mark.parametrize("body", UNREAD_BODIES.values(), ids=UNREAD_BODIES)
def test_verify_passes_a_forged_body_that_no_reader_takes(tmp_path, body):
    """The one class where the two differ: under a digest that matches, a line
    that is blank or not a JSON object is not parsed by verify_records."""
    path = tmp_path / "rows.jsonl"
    path.write_bytes(_forged(body))
    assert verify_outcome(path) == ()
    assert parse_pass_outcome(path) != ()


def _peak_bytes(fn, path) -> int:
    tracemalloc.start()
    try:
        fn(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_holds_no_records(tmp_path):
    """verify_records counts rows as they stream past: its peak stays far below
    that of read_records, which holds every row of the same file."""
    path = tmp_path / "big.jsonl"
    write_records(
        path,
        ({"sample_id": f"s{i:05d}", "prompt": "Is the cup left of the plate?", "gt": "yes" if i % 3 else "no"}
         for i in range(20_000)),
        {"seed": 0},
        "demo",
    )
    assert verify_records(path) == []
    verify_peak = _peak_bytes(verify_records, path)
    read_peak = _peak_bytes(read_records, path)
    assert verify_peak * 20 < read_peak, (verify_peak, read_peak)


record_lists = st.lists(st.dictionaries(st.text(max_size=6), finite_json_values, max_size=4), max_size=20)


@given(record_lists, st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_write_records_writes_the_same_bytes_from_a_list_and_a_generator(tmp_path_factory, rows, repeat):
    """Records repeated up to 200 times, so that a write can span several of
    write_records' thousand-line batches. It returns the number of records,
    and the body is one line of sorted, compact json.dumps text per record."""
    rows = rows * repeat
    out = tmp_path_factory.mktemp("write")
    assert write_records(out / "list.jsonl", rows, {"seed": 0}, "demo") == len(rows)
    assert write_records(out / "gen.jsonl", (row for row in rows), {"seed": 0}, "demo") == len(rows)
    written = (out / "gen.jsonl").read_bytes()
    assert (out / "list.jsonl").read_bytes() == written
    meta_line, body = written.split(b"\n", 1)
    assert body == "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n" for row in rows
    ).encode("utf-8")
    meta = json.loads(meta_line)
    assert (meta["count"], meta["records_digest"]) == (len(rows), hashlib.sha256(body).hexdigest())


def test_generator_that_raises_keeps_previous_file(tmp_path):
    """write_records writes each batch as the generator yields it: a generator
    that fails after several batches leaves the previous file, and no other."""
    path = tmp_path / "out.jsonl"
    write_records(path, [{"sample_id": "old"}], {"seed": 0}, "demo")
    before = path.read_bytes()

    def rows():
        for i in range(5000):
            yield {"sample_id": f"s{i}"}
        raise RuntimeError("builder failed")

    with pytest.raises(RuntimeError, match="builder failed"):
        write_records(path, rows(), {"seed": 0}, "demo")
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
