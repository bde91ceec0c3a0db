"""Line-delimited record files with embedded provenance.

Every output file starts with one meta line carrying the effective config,
its digest, and a digest over the bytes of the record lines, so any file can
be verified and any run reproduced from its own header. Serialization is
canonical (sorted keys, fixed separators): identical inputs give identical
bytes. Files are written aside and renamed into place, so a failed write
leaves the previous file as it was.

Every text or JSON input file is decoded here too, by ``iter_lines``,
``iter_rows`` or ``read_json``: a line that is not UTF-8, or text that is not
JSON, is a SchemaError naming the file, and the line where there is one.
``iter_rows`` yields a JSON-lines file's records, never its meta line, and
checks a file whose line 1 is a meta line against it, raising the first
problem; it reads the file once, so a pipe or a FIFO can be read too.
``verify_records`` checks a regular file from its bytes and parses its lines
only when that check fails, to list every problem as ``iter_rows`` finds
them. ``read_meta`` reads line 1 alone and checks nothing.
"""

import codecs
import hashlib
import json
import os
import shutil
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import islice
from pathlib import Path


class SchemaError(ValueError):
    """Input that does not have the documented shape (CLI exit code 3)."""


# json's C encoder, built once: JSONEncoder.encode builds a new one, with a
# markers dict and a float closure, on every call. Its arguments are markers
# (None: records are trees, so no cycle check), default, string encoder,
# indent, key and item separators, sort_keys, skipkeys and allow_nan.
# allow_nan=False keeps NaN and Infinity, which are not JSON, out of every file.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ":", ",", True, False, False
)


def canonical_json(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)``
    for a value without NaN or infinite floats, which raise ValueError."""
    return "".join(_encode(value, 0))


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


@contextmanager
def _replacing(path):
    """Open a binary file to write that replaces ``path`` only once it is complete."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_records(path, records: Iterable[dict], config: dict, kind: str) -> int:
    """Write records with a leading meta line; returns the number of records.

    ``records`` may be any iterable, such as a generator: records are
    encoded, hashed and written as they come, into a nameless body file
    beside ``path``, so that a caller need not hold them all at once. The
    meta line, which holds their count and digest, is then written, followed
    by a copy of the body. If ``records`` raises, nothing is left of either
    file."""
    records = iter(records)
    with _replacing(path) as fh, tempfile.TemporaryFile(dir=Path(path).parent) as body:
        body_digest, count = hashlib.sha256(), 0
        # a thousand lines at a time: one encode, hash update and write per
        # line took 84 ms for the 20,766 lines of the spatial-oracle
        # benchmark's bench, against 73 ms in batches
        while lines := [canonical_json(rec) for rec in islice(records, 1024)]:
            data = ("\n".join(lines) + "\n").encode("utf-8")
            body_digest.update(data)
            body.write(data)
            count += len(lines)
        meta = {
            "record_type": "meta",
            "kind": kind,
            "count": count,
            "config": config,
            "config_digest": config_digest(config),
            "records_digest": body_digest.hexdigest(),
        }
        fh.write((canonical_json(meta) + "\n").encode("utf-8"))
        body.seek(0)
        shutil.copyfileobj(body, fh)
    return count


def line_error(path, line_no: int, exc: ValueError | RecursionError | KeyError) -> SchemaError:
    """The SchemaError for a line of a JSON-lines file that is not valid JSON
    (json raises a plain ValueError for an integer over Python's digit limit,
    and RecursionError for arrays or objects nested too deep) or lacks a
    required field."""
    if isinstance(exc, KeyError):
        return SchemaError(f"{path}: line {line_no}: missing field {exc}")
    if isinstance(exc, json.JSONDecodeError):
        return SchemaError(f"{path}: line {line_no}: not valid JSON: {exc.msg} at column {exc.colno}")
    return SchemaError(f"{path}: line {line_no}: not valid JSON: {exc}")


def iter_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file, numbered
    from 1, with its ending kept. Lines end at ``\\n`` only. A line that is not
    UTF-8 raises SchemaError naming the file and that line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: line {line_no}: not valid UTF-8: {exc}") from exc


def read_json(path):
    """The value of a whole-document JSON file, read as by ``iter_lines``. Text
    that is not JSON, holds an integer over Python's digit limit or nests too
    deep raises SchemaError naming the file."""
    text = "".join(line for _, line in iter_lines(path))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


# json.loads runs this scanner behind a BOM test, two whitespace matches and
# two calls of Python code; parse_line goes to it directly.
_scan_once = json.JSONDecoder().scan_once


def parse_line(line: str):
    """``json.loads(line)``, by way of the C scanner: the same value, or the
    same exception with the same message, since any line the scanner does not
    consume whole is parsed again by ``json.loads``."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    if end != len(line):
        return json.loads(line)
    return value


class _MetaMismatch(SchemaError):
    """A record file that does not match its meta line: one argument per problem, shown as the first."""

    def __str__(self):
        return self.args[0]


def iter_rows(path, meta: dict | None = None) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, row)`` for each record of a JSON-lines file: each
    non-blank line but a meta line 1, one at a time, with lines as
    ``iter_lines`` gives them. A line that is not a JSON object, as left by a
    truncated or corrupt file, raises SchemaError naming the file and line;
    after the last record, so does the first claim of a meta line that fails.

    The file is read once, in this pass: the records digest is taken over
    the bytes as they are parsed. Where line 1 is a meta line, it is copied
    into ``meta``, if given, before the first record is yielded."""
    # iter_lines' loop, written out: reading through iter_lines made query
    # and evaluate about 3% slower on the spatial-oracle benchmark.
    found, count, body_digest = None, 0, hashlib.sha256()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            body_digest.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: line {line_no}: not valid UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                row = parse_line(line)
            except (ValueError, RecursionError) as exc:
                raise line_error(path, line_no, exc) from exc
            if not isinstance(row, dict):
                raise SchemaError(f"{path}: line {line_no}: not a JSON object")
            if line_no == 1 and row.get("record_type") == "meta":
                found = row
                body_digest = hashlib.sha256()  # the records digest covers the bytes after the meta line
                if meta is not None:
                    meta.update(row)
                continue
            count += 1
            yield line_no, row
    if found is not None and (problems := _meta_problems(path, found, count, body_digest.hexdigest())):
        raise _MetaMismatch(*problems)


def _meta_problems(path, meta: dict, count: int, records_digest: str) -> list[str]:
    """What a meta line claims that the file does not bear out, given the
    file's record count and the SHA-256 of its bytes after the meta line."""
    problems = []
    if meta.get("count") != count:
        problems.append(f"{path}: meta count {meta.get('count')} != {count} records")
    if records_digest != meta.get("records_digest"):
        problems.append(f"{path}: records digest mismatch")
    try:
        if config_digest(meta.get("config", {})) != meta.get("config_digest"):
            problems.append(f"{path}: config digest mismatch")
    except ValueError as exc:  # NaN or Infinity, which parse_line accepts and no digest covers
        problems.append(f"{path}: meta config is not JSON: {exc}")
    return problems


def _meta_line(first: bytes) -> dict:
    """``first``, a file's line 1, parsed if it is a meta line, else ``{}``."""
    try:
        row = parse_line(first.decode("utf-8").strip())
    except (ValueError, RecursionError):  # a blank, corrupt or non-UTF-8 line 1
        return {}
    return row if isinstance(row, dict) and row.get("record_type") == "meta" else {}


def read_meta(path) -> dict:
    """The meta line of a record file: line 1, if it is one, else ``{}``.
    Nothing is checked; ``iter_rows`` checks the meta line against the file.
    Only a regular file is opened: a FIFO's or a pipe's lines can be read only
    once, by the reader of its records, and opening a FIFO with no writer
    would block."""
    if not os.path.isfile(path):
        return {}
    with open(path, "rb") as fh:
        return _meta_line(fh.readline())


def read_records(path) -> tuple[dict, list[dict]]:
    """Read a record file; returns (meta, records). Files without a meta line
    get an empty meta dict. Raises SchemaError as ``iter_rows`` does."""
    meta = {}
    records = [row for _, row in iter_rows(path, meta)]
    return meta, records


def _bytes_bear_out_meta(path) -> bool:
    """Whether a file's line 1 is a meta line whose claims its bytes bear out,
    read without parsing them: UTF-8 that ends with a newline, one record per
    line, and the records and config digests."""
    with open(path, "rb") as fh:
        meta = _meta_line(fh.readline())
        if not meta:
            return False
        body_digest, newlines, last = hashlib.sha256(), 0, b"\n"
        utf8 = codecs.getincrementaldecoder("utf-8")()
        # 64 KiB at a time: verifying a 20,000-row file in 1 MiB blocks took
        # 2.1 MB at peak, against 0.2 MB
        while block := fh.read(1 << 16):
            body_digest.update(block)
            newlines += block.count(b"\n")
            try:
                utf8.decode(block)  # a character cut short at the end fails the newline test
            except UnicodeDecodeError:
                return False
            last = block
    return last.endswith(b"\n") and not _meta_problems(path, meta, newlines, body_digest.hexdigest())


def verify_records(path) -> list[str]:
    """Check a record file against its meta line: the record count, the config
    digest, and the records digest over the stored bytes after the meta line,
    so that any re-serialisation fails. Returns a list of problems (empty =
    ok); a line that is not UTF-8 or not a JSON object raises SchemaError.

    A regular file is checked from its bytes first, and passes if they bear
    out its meta line. So a body that matches its digest passes without being
    parsed, even with a line that is blank or not a JSON object, which only a
    foreign writer can make and every reader still refuses. Any other file is
    read by ``iter_rows``, which words each problem: its records are counted
    as they are parsed and none is kept. A pipe or a FIFO is read that way
    alone, since it cannot be read twice."""
    if os.path.isfile(path) and _bytes_bear_out_meta(path):
        return []
    meta = {}
    try:
        for _ in iter_rows(path, meta):
            pass
    except _MetaMismatch as exc:
        return list(exc.args)
    return [] if meta else [f"{path}: no meta line"]


def write_json(path, value: dict) -> None:
    with _replacing(path) as fh:
        fh.write((json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))
