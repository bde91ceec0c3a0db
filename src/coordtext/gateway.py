"""Boundary to external vision-language models.

Requests travel over one of two interchangeable transports: a synchronous
JSON-over-HTTP wire, or a file-batch drop box (write ``*.req.jsonl``, poll
for ``*.resp.jsonl`` plus a ``.done`` marker) that keeps GPU-side runners
fully external. Batches never abort on individual failures; every request
gets exactly one response, in request order.

Both wires send the same request object, and check each reply object the
same way: an ``error`` makes an error response, and otherwise its ``text``
must be a string. Every error response, a wire's, a retry's or a mock's,
comes from ``_error``.

Two mock models support offline pipelines: an oracle that answers from
ground truth in canonical phrasing, and a seeded uniform-random baseline.
Each is one function in ``MOCKS`` from a request's dataset record and the
run's seed to its response, made when the records are read, and
``MockTransport`` hands those responses out on the same ``query_batch``
path as real models. The sampling configuration is transmitted with
every request but never applied locally; generation happens inside the
external model. ``HttpTransport`` speaks HTTP/1.1 itself over pooled
``socket`` connections, importing ``socket`` (and ``ssl`` for ``https``) on
construction, so the mock and file-batch paths never load them. A
request body holds ``json.dumps``' bytes, encoded by json's C encoder
directly, and both wires decode a reply as ``json.loads`` does, with
``records.parse_line``. The request file of a file batch is written aside
and renamed by ``records.replacing``, as every record file is.
"""

import hashlib
import json
import math
import random as random_module
import re
import threading
import time
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from . import prompts
from .records import parse_line, replacing
from .seeding import derive_seed


class ModelRequest(NamedTuple):
    request_id: str
    media_ref: str
    prompt: str


class ModelResponse(NamedTuple):
    request_id: str
    text: str
    status: str = "ok"  # "ok" | "error"
    error_detail: str | None = None


class _SamplingConfig(NamedTuple):
    temperature: float
    max_new_tokens: int


class SamplingConfig(_SamplingConfig):
    __slots__ = ()

    def __new__(cls, temperature: float, max_new_tokens: int):
        if not (temperature > 0 and math.isfinite(temperature)):
            raise ValueError(f"temperature must be a finite number above 0, got {temperature}")
        if max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        return tuple.__new__(cls, (temperature, max_new_tokens))

    def to_dict(self) -> dict:
        return {"temperature": self.temperature, "max_new_tokens": self.max_new_tokens}


# longest sleep between two attempts of one request that query_batch accepts
MAX_RETRY_DELAY_S = 3600.0


class TransientTransportError(RuntimeError):
    """Failure worth retrying: connection refused, timeout, 5xx."""


def _error(request_id: str, detail: str) -> ModelResponse:
    return ModelResponse(request_id, "", status="error", error_detail=detail)


def _payload(request: ModelRequest, cfg: SamplingConfig) -> dict:
    """What both wires send for one request."""
    return {
        "request_id": request.request_id,
        "media_ref": request.media_ref,
        "prompt": request.prompt,
        "sampling": cfg.to_dict(),
    }


# json.dumps' encoder with its default settings (ASCII output, ", " and ": "
# separators, NaN allowed), built once; its arguments are markers (None: a
# payload is a fresh tree, so no cycle check), default, string encoder,
# indent, key and item separators, sort_keys, skipkeys and allow_nan.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ": ", ", ", False, False, True
)


def _loads(data: bytes):
    """``json.loads(data)``: the same value, or the same exception. A reply
    that is UTF-8 text is parsed by ``records.parse_line``, as a record line
    is; anything else (a BOM, UTF-16 or UTF-32, lone surrogates, an error)
    goes through ``json.loads`` itself. The nesting limit is the
    interpreter's recursion limit counted from the caller, so this reads one
    level deeper than ``json.loads`` called in its place."""
    try:
        return parse_line(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return json.loads(data)


def _reply_response(request: ModelRequest, reply: dict) -> ModelResponse:
    """The response a reply object makes on either wire: its ``error``, or
    its ``text``, which must be a string; anything else is an error response.
    An ``"error": null`` is no error, as batch runners that write every field
    send it beside the text of a success."""
    if reply.get("error") is not None:
        return _error(request.request_id, str(reply["error"]) or "reply carries an empty error")
    text = reply.get("text")
    if text is None:
        return _error(request.request_id, "reply carries neither text nor error")
    if not isinstance(text, str):
        return _error(request.request_id, f"reply text is not a string: {text!r:.80}")
    return ModelResponse(request.request_id, text)


# http.client's limits on a reply's header: bytes per line, and lines
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_RE = re.compile(rb"HTTP/1\.(\d) +(\d{3})(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE_RE = re.compile(rb"[0-9A-Fa-f]+")
_READ_PIECE = 1 << 20  # a huge Content-Length is read piece by piece, never preallocated
_FRAMING_HEADERS = (b"connection", b"content-length", b"transfer-encoding")


class _WireError(Exception):
    """A reply that breaks HTTP/1.1 framing: bad status line or header, or cut short."""


class _NoReply(Exception):
    """The connection was reset, or closed, before any byte of a reply."""


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _WireError(f"{what} longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise _WireError(f"reply cut short in its {what}")
    return line


def _read_headers(reader) -> dict[bytes, str]:
    """Header (or chunked trailer) lines up to the blank line; returns the
    ones framing depends on by lower-cased name, repeats joined by ", "."""
    readline = reader.readline
    headers: dict[bytes, str] = {}
    name = None
    for _ in range(_MAX_HEADERS + 1):
        line = readline(_MAX_LINE + 1)  # _read_line's checks, inline: this runs for every header line
        if len(line) > _MAX_LINE:
            raise _WireError(f"header line longer than {_MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            raise _WireError("reply cut short in its header line")
        if line in (b"\r\n", b"\n"):
            return headers
        if line[0] in b" \t":  # obsolete folding continues the previous header
            if name in headers:
                headers[name] = f"{headers[name]} {line.strip().decode('latin-1')}".strip()
            continue
        raw_name, sep, value = line.partition(b":")
        name = raw_name.strip().lower()
        if not sep or not name:
            raise _WireError(f"malformed header line {line[:80]!r}")
        if name in _FRAMING_HEADERS:
            value_text = value.strip().decode("latin-1")
            headers[name] = f"{headers[name]}, {value_text}" if name in headers else value_text
    raise _WireError(f"more than {_MAX_HEADERS} header lines")


def _read_exact(reader, size: int) -> bytes:
    piece = reader.read(min(size, _READ_PIECE))
    if len(piece) == size:  # the whole body in one read, as almost every reply comes
        return piece
    pieces = []
    while piece:
        pieces.append(piece)
        size -= len(piece)
        if not size:
            return b"".join(pieces)
        piece = reader.read(min(size, _READ_PIECE))
    raise _WireError(f"reply body cut short, {size} bytes missing")


def _read_chunked(reader) -> bytes:
    pieces = []
    while True:
        size_text = _read_line(reader, "chunk size line").split(b";", 1)[0].strip()
        if not _CHUNK_SIZE_RE.fullmatch(size_text):
            raise _WireError(f"malformed chunk size {size_text[:80]!r}")
        size = int(size_text, 16)
        if size == 0:
            _read_headers(reader)  # trailers, ignored
            return b"".join(pieces)
        pieces.append(_read_exact(reader, size))
        if _read_line(reader, "chunk ending") not in (b"\r\n", b"\n"):
            raise _WireError("chunk data longer than its size")


def _read_reply(reader, status_line: bytes) -> tuple[int, bytes, bool]:
    """Read one reply whose first line has been read; returns (status, body,
    whether the connection may carry another request)."""
    while True:
        match = _STATUS_RE.fullmatch(status_line) if len(status_line) <= _MAX_LINE else None
        status = int(match[2]) if match else 0
        if status < 100:
            raise _WireError(f"malformed status line {status_line[:80]!r}")
        headers = _read_headers(reader)
        if status >= 200:
            break
        status_line = _read_line(reader, "status line")  # after an interim 1xx reply
    connection = headers.get(b"connection", "").lower()
    keep = "close" not in connection and (match[1] != b"0" or "keep-alive" in connection)
    if b"transfer-encoding" in headers:
        if headers[b"transfer-encoding"].lower() != "chunked":
            raise _WireError(f"unsupported transfer-encoding {headers[b'transfer-encoding']!r}")
        body = _read_chunked(reader)
    elif status in (204, 304):
        body = b""
    elif b"content-length" in headers:
        length = headers[b"content-length"]
        if not length.isdigit() or not length.isascii():
            raise _WireError(f"malformed content-length {length!r}")
        body = _read_exact(reader, int(length))
    else:
        body, keep = reader.read(), False
    return status, body, keep


def _close(connection) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


class HttpTransport:
    """POST each request as JSON to a single endpoint; one reply per request.

    Speaks HTTP/1.1 over ``socket`` connections, wrapped by ``ssl`` for
    ``https`` endpoints, whose certificates are verified by ``ssl``'s default
    context. Each request is one write; each reply is framed by chunked
    transfer coding, then by Content-Length, and otherwise runs to the end of
    the connection (a 204 or 304 has no body). Idle keep-alive connections
    wait in a list that threads share without a lock, as ``list.pop`` and
    ``list.append`` are each atomic: ``send`` takes one, or opens one, and
    puts it back after a complete reply unless the server said it will close
    it, so each request in flight holds one connection. Proxy settings in
    the environment are not read, redirects are not followed and the URL may
    hold no credentials.

    ``http.client`` is not used because it is slower: with it in place of
    this wire code and every reply check kept, the median ``query_s`` of
    ``presence-http`` rose from 0.262 to 0.471 reference seconds
    (``perfbench/run.py --seconds 8``, seeds 8101-8110, slower in 10 of 10
    pairs; Python 3.11.7, the pipeline pinned to one of 2 shared CPUs).
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        import socket

        parts = urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL")
        if parts.username is not None:
            raise ValueError("credentials in the endpoint URL are not supported")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if re.search(r"[^\x21-\x7e]", parts.netloc + target):  # not printable ASCII
            raise ValueError(f"endpoint {endpoint!r} holds characters a request line cannot carry")
        self.timeout = timeout
        self._socket = socket
        self._ssl_context = None
        if parts.scheme == "https":
            import ssl

            self._ssl_context = ssl.create_default_context()
        self._host = parts.hostname
        self._address = (parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {parts.netloc}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._idle = []

    def close(self) -> None:
        """Close every idle connection; a later ``send`` opens new ones."""
        while True:
            try:
                connection = self._idle.pop()
            except IndexError:
                return
            _close(connection)

    def _connect(self):
        sock = self._socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(self._socket.IPPROTO_TCP, self._socket.TCP_NODELAY, 1)
            if self._ssl_context is not None:
                sock = self._ssl_context.wrap_socket(sock, server_hostname=self._host)
        except OSError:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    def _exchange(self, connection, message: bytes) -> tuple[int, bytes, bool]:
        sock, reader = connection
        try:
            sock.sendall(message)
            status_line = reader.readline(_MAX_LINE + 1)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _NoReply(f"{type(exc).__name__}: {exc}") from exc
        if not status_line:
            raise _NoReply("server closed the connection without a reply")
        return _read_reply(reader, status_line)

    def send(self, request: ModelRequest, cfg: SamplingConfig) -> ModelResponse:
        body = "".join(_encode(_payload(request, cfg), 0)).encode("ascii")
        message = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = None
        reused = connection is not None
        while True:
            try:
                if connection is None:
                    connection = self._connect()
                status, data, keep = self._exchange(connection, message)
                break
            except _NoReply as exc:
                _close(connection)
                # A reused connection that fails before any byte of a reply was
                # closed by the server while idle: try once more on a new one.
                if reused:
                    connection, reused = None, False
                    continue
                raise TransientTransportError(str(exc)) from exc
            except (OSError, _WireError) as exc:
                if connection is not None:
                    _close(connection)
                raise TransientTransportError(f"{type(exc).__name__}: {exc}") from exc
        if keep:
            self._idle.append(connection)
        else:
            _close(connection)
        if status >= 500:
            raise TransientTransportError(f"server error {status}")
        if status != 200:
            raise ValueError(f"request rejected with status {status}")
        try:
            answer = _loads(data)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"malformed server reply: {exc}") from exc
        if not isinstance(answer, dict):
            raise ValueError("malformed server reply: not a JSON object")
        if answer.get("request_id") != request.request_id:
            raise ValueError(f"reply id {answer.get('request_id')!r} does not match request")
        return _reply_response(request, answer)


class FileBatchTransport:
    """Write a request file into a shared directory and poll for the response file.

    The external runner consumes ``<stem>.req.jsonl`` and must write
    ``<stem>.resp.jsonl`` followed by ``<stem>.done``. The stem is a hash of
    the request file's bytes, so a reply left by a batch with other prompts
    or sampling is never taken for this one's. A response line that is not a
    JSON object is skipped; the requests it leaves unanswered become errors
    that name it. A ``.done`` without its response file makes every request
    an error that names the missing file.
    """

    def __init__(self, directory, poll_interval: float = 0.05, timeout: float = 60.0):
        self.directory = Path(directory)
        self.poll_interval = poll_interval
        self.timeout = timeout

    def send_batch(self, requests_: list[ModelRequest], cfg: SamplingConfig) -> list[ModelResponse]:
        payload = "".join(json.dumps(_payload(r, cfg), sort_keys=True) + "\n" for r in requests_).encode("utf-8")
        stem = "batch-" + hashlib.sha256(payload).hexdigest()[:16]
        resp_path = self.directory / f"{stem}.resp.jsonl"
        done_path = self.directory / f"{stem}.done"
        # written aside and renamed, so that a runner never reads half a request file
        with replacing(self.directory / f"{stem}.req.jsonl") as fh:
            fh.write(payload)
        deadline = time.monotonic() + self.timeout
        while not done_path.exists():
            if time.monotonic() > deadline:
                return [_error(r.request_id, f"no response file within {self.timeout}s") for r in requests_]
            time.sleep(self.poll_interval)
        try:
            lines = resp_path.read_bytes().splitlines()
        except FileNotFoundError:
            return [_error(r.request_id, f"{done_path.name} is present but {resp_path} is missing") for r in requests_]
        by_id = {}
        first_bad = None
        for line_no, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                row = _loads(line)
            except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
                row = None
            if isinstance(row, dict):
                request_id = row.get("request_id")
                if isinstance(request_id, str):  # a list or object id would not hash, and answers no request
                    by_id[request_id] = row
            elif first_bad is None:
                first_bad = line_no
        missing = "missing from response file"
        if first_bad is not None:
            missing += f", whose line {first_bad} is not a JSON object"
        return [
            _reply_response(r, by_id[r.request_id]) if r.request_id in by_id else _error(r.request_id, missing)
            for r in requests_
        ]


def query_batch(
    requests_: list[ModelRequest],
    transport,
    cfg: SamplingConfig,
    max_inflight: int = 4,
    attempts: int = 3,
    backoff: float = 0.1,
    sleep=time.sleep,
) -> list[ModelResponse]:
    """One response per request, order-aligned, retrying transient failures.

    Each request has its own id: ``cli`` refuses a records file with no
    records or a repeated ``sample_id`` before it calls this. A transport with
    ``send_batch`` answers the whole batch itself, in request order. Otherwise
    ``min(max_inflight, len(requests_))`` worker threads each send one request
    at a time, and each request is attempted up to ``attempts`` times with
    exponential backoff; failures become per-request error responses, never
    exceptions, so a batch always completes. Settings that could send nothing,
    or sleep a negative, infinite or NaN time, or a last delay
    ``backoff * 2**(attempts - 2)`` above ``MAX_RETRY_DELAY_S``, raise
    ValueError before anything is sent.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    if not math.isfinite(backoff):
        raise ValueError(f"backoff must be finite, got {backoff}")
    if backoff < 0:
        raise ValueError(f"backoff must be non-negative, got {backoff}")
    if attempts > 1:
        try:  # ldexp scales by a power of two exactly, whatever the size of attempts
            last_delay = math.ldexp(backoff, attempts - 2)
        except OverflowError:
            last_delay = math.inf
        if last_delay > MAX_RETRY_DELAY_S:
            raise ValueError(
                f"backoff {backoff} with {attempts} attempts makes a retry delay"
                f" above the {MAX_RETRY_DELAY_S:g} s maximum"
            )
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be at least 1, got {max_inflight}")

    if hasattr(transport, "send_batch"):
        return transport.send_batch(requests_, cfg)

    def send_one(request: ModelRequest) -> ModelResponse:
        delay = backoff
        last = "unknown failure"
        for attempt in range(attempts):
            try:
                return transport.send(request, cfg)
            except TransientTransportError as exc:
                last = str(exc)
                if attempt + 1 < attempts:
                    sleep(delay)
                    delay *= 2
            except Exception as exc:  # permanent: malformed reply, rejection
                return _error(request.request_id, str(exc))
        return _error(request.request_id, f"gave up after {attempts} attempts: {last}")

    # Workers take the next request from one shared iterator until none is left,
    # so a batch costs a thread per slot in flight, not a future per request.
    # Each step of an enumerate over a list runs in C without releasing the
    # interpreter lock, so two workers never take the same request and need
    # no lock of their own.
    results: list[ModelResponse | None] = [None] * len(requests_)
    pending = enumerate(requests_)
    failures = []

    def worker() -> None:
        try:
            for index, request in pending:
                results[index] = send_one(request)
        except BaseException as exc:  # re-raised by the caller's thread below
            failures.append(exc)

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(min(max_inflight, len(requests_)))]
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    finally:
        if hasattr(transport, "close"):
            transport.close()
    if failures:
        raise failures[0]
    return results


# ---------------- mock models ---------------- #

_SPATIAL_QUESTION_RE = re.compile(r"Which side of (.+) is (.+) located\?$")


def oracle_answer(record: dict) -> str:
    """Canonical correct answer for one dataset record."""
    objective = record["objective"]
    if objective == prompts.LOCPRED:
        return f"It is located at {record['location_text']}."
    if objective == prompts.NEGPRED:
        return "There is no such object in the image"
    if objective in (prompts.REVLOC, prompts.REGION_DESCRIPTION):
        return record["descriptor"]
    if objective in (prompts.SPATIAL_DIRECT, prompts.SPATIAL_ICL):
        final_question = record["prompt"].rsplit("Q: ", 1)[-1].strip()
        match = _SPATIAL_QUESTION_RE.fullmatch(final_question)
        ref = match.group(1) if match else "it"
        return f"The {record['descriptor']} is located to the {record['gt_keyword']} of {ref}."
    if objective == prompts.HALLUCINATION:
        return "Yes" if record["gt"] == "yes" else "No"
    if objective == prompts.VQA:
        return f"The answer is {record['target']}."
    if objective == prompts.CAPTION_REQUEST:
        return f"a {record['descriptor']} placed near the other objects in the image"
    raise ValueError(f"no oracle answer for objective {objective!r}")


RANDOM_SPACES = {
    "lr": ("left", "right"),
    "ab": ("above", "below"),
    "yes_no": ("Yes", "No"),
}


def random_mock(sample_id: str, seed: int, space: str) -> str:
    """Chance-level baseline: the answer to ``sample_id``, a seeded uniform
    draw over the answer space, one of lr / ab / yes_no."""
    rng = random_module.Random(derive_seed(seed, sample_id))
    if space in RANDOM_SPACES:
        choice = rng.choice(RANDOM_SPACES[space])
        return choice if space == "yes_no" else f"It is to the {choice}."
    raise ValueError(f"unknown answer space {space!r}")


def answer_space_for_record(record: dict) -> str:
    objective = record.get("objective")
    row = prompts.OBJECTIVES.get(objective) if isinstance(objective, str) else None
    space = row.answers if row else "lr"
    if space != "axis":
        return space
    axis = record.get("axis", "lr")
    # only a string can name a space; anything else is named by its type, which names no space
    return axis if isinstance(axis, str) else f"axis of type {type(axis).__name__}"


def oracle_response(sample_id: str, record: dict, seed: int) -> ModelResponse:
    """The oracle's response to ``sample_id`` from its dataset record:
    ``oracle_answer(record)``, or an error response when it has none. The
    oracle draws nothing, so ``seed`` is not used."""
    try:
        return ModelResponse(sample_id, oracle_answer(record))
    except KeyError as exc:
        return _error(sample_id, f"record lacks {exc}")
    except ValueError as exc:
        return _error(sample_id, str(exc))


def random_response(sample_id: str, record: dict, seed: int) -> ModelResponse:
    """The random mock's response to ``sample_id``: a seeded draw from its
    record's ``answer_space_for_record``, or an error response for a space
    ``random_mock`` cannot draw from."""
    try:
        return ModelResponse(sample_id, random_mock(sample_id, seed, answer_space_for_record(record)))
    except ValueError as exc:
        return _error(sample_id, str(exc))


# Each mock model: its response to a request from the request's dataset
# record and the run's seed. ``query --mock`` offers these names.
MOCKS = {"oracle": oracle_response, "random": random_response}


class MockTransport:
    """In-process model on the ``query_batch`` path: ``responses`` maps each
    request id to a mock's response, made from its dataset record when the
    records were read, and ``send_batch`` hands them out in request order."""

    def __init__(self, responses: dict[str, ModelResponse]):
        self.responses = responses

    def send_batch(self, requests_: list[ModelRequest], cfg: SamplingConfig) -> list[ModelResponse]:
        return [self.responses[r.request_id] for r in requests_]
