"""Gateway tests: transport alignment and retries, mock models."""

import json
import math
import os
import socketserver
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordtext import gateway
from coordtext.builders import build_spatial_bench
from coordtext.coords import ReprScheme, decode_bbox
from coordtext.fixtures import spatial_fixture
from coordtext.gateway import (
    MAX_RETRY_DELAY_S,
    FileBatchTransport,
    HttpTransport,
    MockTransport,
    ModelRequest,
    ModelResponse,
    SamplingConfig,
    TransientTransportError,
    oracle_answer,
    oracle_response,
    query_batch,
    random_mock,
    random_response,
)
from test_coords import quantization_error_bound

REQS = [ModelRequest(f"r{i}", f"im{i}.jpg", f"prompt {i}") for i in range(3)]
CFG = SamplingConfig(temperature=0.2, max_new_tokens=128)
# nested past any recursion limit: json raises RecursionError, not ValueError
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class CallableTransport:
    """An in-process transport: ``fn(request, cfg)`` answers each request."""

    def __init__(self, fn):
        self.fn = fn

    def send(self, request: ModelRequest, cfg: SamplingConfig) -> ModelResponse:
        return self.fn(request, cfg)


def echo_transport(request, cfg):
    return ModelResponse(request.request_id, f"echo:{request.prompt}")


# ---------------- batching ---------------- #


def test_sampling_config_validation():
    assert CFG.temperature == 0.2
    with pytest.raises(ValueError, match="temperature"):
        SamplingConfig(temperature=0, max_new_tokens=128)
    for value in (math.nan, math.inf):  # NaN would reach the meta line as a bare NaN
        with pytest.raises(ValueError, match="temperature must be a finite number above 0"):
            SamplingConfig(temperature=value, max_new_tokens=128)
    with pytest.raises(ValueError, match="max_new_tokens"):
        SamplingConfig(temperature=0.2, max_new_tokens=0)


def test_batch_alignment():
    out = query_batch(REQS, CallableTransport(echo_transport), CFG)
    assert [r.request_id for r in out] == ["r0", "r1", "r2"]
    assert all(r.status == "ok" for r in out)
    assert out[1].text == "echo:prompt 1"


def test_partial_failure_completes_batch():
    """A permanent failure becomes that request's error response, also when
    its message is empty."""
    for message in ("rejected payload", ""):

        def flaky(request, cfg):
            if request.request_id == "r1":
                raise ValueError(message)
            return echo_transport(request, cfg)

        out = query_batch(REQS, CallableTransport(flaky), CFG)
        assert [r.status for r in out] == ["ok", "error", "ok"]
        assert out[1].error_detail == message


def test_transient_failures_retried_with_backoff():
    calls = {"n": 0}
    sleeps = []

    def flaky(request, cfg):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransientTransportError("connection reset")
        return echo_transport(request, cfg)

    out = query_batch([REQS[0]], CallableTransport(flaky), CFG, backoff=0.05, sleep=sleeps.append)
    assert out[0].status == "ok"
    assert calls["n"] == 3
    assert sleeps == [0.05, 0.1]


def test_retries_exhausted_become_error():
    def always_down(request, cfg):
        raise TransientTransportError("still down")

    sleeps = []
    out = query_batch(REQS, CallableTransport(always_down), CFG, attempts=3, sleep=sleeps.append)
    assert all(r.status == "error" for r in out)
    assert "gave up after 3 attempts" in out[0].error_detail
    assert len(sleeps) == 2 * len(REQS)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"attempts": 0}, "attempts"),
        ({"backoff": -1.0}, "backoff"),
        ({"max_inflight": 0}, "max_inflight"),
        ({"backoff": math.nan}, "backoff must be finite"),
        ({"backoff": math.inf}, "backoff must be finite"),
        ({"attempts": 2, "backoff": 1e300}, "above the 3600 s maximum"),
        ({"attempts": 14, "backoff": 1.0}, "above the 3600 s maximum"),
        ({"attempts": 1100, "backoff": 5e-324}, "above the 3600 s maximum"),
        ({"attempts": 10**100, "backoff": 1e-300}, "above the 3600 s maximum"),
    ],
)
def test_invalid_retry_settings_raise_before_sending(settings, message):
    sent = []
    with pytest.raises(ValueError, match=message):
        query_batch(REQS, CallableTransport(lambda request, cfg: sent.append(request)), CFG, **settings)
    assert sent == []


def test_largest_retry_delay_up_to_the_maximum_is_accepted():
    """The last of attempts - 1 sleeps is backoff * 2**(attempts - 2); at the
    maximum, or with no backoff however many attempts, the batch runs."""
    assert MAX_RETRY_DELAY_S == 3600.0

    def always_down(request, cfg):
        raise TransientTransportError("refused")

    for attempts, backoff in ((2, MAX_RETRY_DELAY_S), (13, MAX_RETRY_DELAY_S / 2**11), (1, 1e300)):
        sleeps = []
        out = query_batch(REQS[:1], CallableTransport(always_down), CFG, attempts=attempts, backoff=backoff, sleep=sleeps.append)
        assert out[0].status == "error" and len(sleeps) == attempts - 1
        assert sleeps[-1:] in ([], [MAX_RETRY_DELAY_S])
    # any number of attempts with no backoff: the sends end on a permanent error
    out = query_batch(REQS[:1], CallableTransport(lambda request, cfg: 1 / 0), CFG, attempts=10**100, backoff=0.0)
    assert out[0].status == "error"


# ---------------- HTTP transport ---------------- #


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler: ``server.answer(body)`` gives (status, reply),
    where a bytes reply is sent as the raw body. The server counts the TCP
    connections it accepted and those still open."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else delayed ACKs stall each reply's separately written body

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.open -= 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert body["sampling"]["temperature"] == pytest.approx(0.2)
        status, reply = self.server.answer(body)
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # closing without a "Connection: close" header, as a server may drop an idle client
        self.close_connection = self.server.close_after_reply

    def log_message(self, *args):
        pass


@contextmanager
def http_server(answer, close_after_reply=False):
    """A threaded HTTP server on 127.0.0.1 answering POSTs with ``answer``; yields (endpoint, server)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.answer, server.close_after_reply = answer, close_after_reply
    server.lock, server.connections, server.open = threading.Lock(), 0, 0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def echo_or_refuse(body):
    rid = body["request_id"]
    if rid == "r1":
        return 200, {"request_id": rid, "error": "model refused"}
    return 200, {"request_id": rid, "text": f"http:{body['prompt']}"}


@pytest.fixture()
def http_endpoint():
    with http_server(echo_or_refuse) as (endpoint, _):
        yield endpoint


def test_http_transport_roundtrip(http_endpoint):
    out = query_batch(REQS, HttpTransport(http_endpoint), CFG)
    assert [r.status for r in out] == ["ok", "error", "ok"]
    assert out[0].text == "http:prompt 0"
    assert out[1].error_detail == "model refused"


def test_http_transport_unreachable_endpoint():
    transport = HttpTransport("http://127.0.0.1:9/", timeout=0.2)
    out = query_batch([REQS[0]], transport, CFG, attempts=2, sleep=lambda s: None)
    assert out[0].status == "error"


def test_http_retry_after_503_reuses_pooled_connection():
    attempts = {}

    def answer(body):
        rid = body["request_id"]
        attempts[rid] = attempts.get(rid, 0) + 1
        if rid == "r0" and attempts[rid] == 1:
            return 503, {"request_id": rid, "error": "busy"}
        return 200, {"request_id": rid, "text": "ok"}

    with http_server(answer) as (endpoint, server):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1, sleep=lambda s: None)
    assert [r.status for r in out] == ["ok", "ok", "ok"]
    assert attempts == {"r0": 2, "r1": 1, "r2": 1}
    assert server.connections == 1


def test_http_server_closing_idle_connections_costs_no_attempt():
    """A pooled connection the server closed while idle is replaced inside one send."""
    def answer(body):
        return 200, {"request_id": body["request_id"], "text": "ok"}

    with http_server(answer, close_after_reply=True) as (endpoint, server):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1, attempts=1)
    assert [r.status for r in out] == ["ok", "ok", "ok"]
    assert server.connections == 3


@pytest.mark.parametrize(
    "reply, message",
    [(b"[1]", "malformed server reply: not a JSON object"), (b"not json", "malformed server reply: Expecting value")],
)
def test_http_malformed_reply_is_per_request_error(reply, message):
    with http_server(lambda body: (200, reply)) as (endpoint, _):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1)
    assert all(r.status == "error" and r.error_detail.startswith(message) for r in out)


def test_http_reply_nested_too_deep_is_per_request_error():
    with http_server(lambda body: (200, DEEP_JSON.encode())) as (endpoint, _):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1, attempts=1)
    assert all(r.status == "error" and "maximum recursion depth exceeded" in r.error_detail for r in out)


@pytest.mark.parametrize(
    "endpoint, message",
    [
        ("ftp://x/", "not an http:// or https:// URL"),
        ("http://user:pw@x/", "credentials in the endpoint URL"),
        ("http://x/a b", "characters a request line cannot carry"),
    ],
)
def test_http_transport_rejects_unsupported_endpoints(endpoint, message):
    with pytest.raises(ValueError, match=message):
        HttpTransport(endpoint)


def test_query_batch_closes_http_connections():
    with http_server(echo_or_refuse) as (endpoint, server):
        transport = HttpTransport(endpoint)  # kept alive, so that only query_batch can close its connections
        query_batch(REQS, transport, CFG, max_inflight=2)
        deadline = time.monotonic() + 5  # the server sees the close when its handler reads EOF
        while server.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.open == 0 and server.connections >= 1


# ---------------- HTTP wire edge cases ---------------- #


class _RawHandler(socketserver.StreamRequestHandler):
    """Reads POSTs off one connection and writes ``server.reply(body)``'s bytes
    verbatim; bytes that do not open a POST (a TLS handshake, say) get a bare
    400 and a close."""

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.open -= 1

    def handle(self):
        while (start := self.rfile.read(5)) == b"POST ":
            message = [start]
            length = 0
            while (line := self.rfile.readline(65537)) not in (b"\r\n", b"\n", b""):
                message.append(line)
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            message += [line, self.rfile.read(length)]
            body = json.loads(message[-1])
            with self.server.lock:
                self.server.attempts.append(body["request_id"])
                self.server.messages.append(b"".join(message))
            reply, close = self.server.reply(body)
            self.wfile.write(reply)
            if close:
                return
        if start:
            self.wfile.write(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")


@contextmanager
def raw_http_server(reply):
    """A server on 127.0.0.1 answering each POST with ``reply(body)``: (raw
    reply bytes, whether to close the connection after them). Yields
    (endpoint, server); the server counts connections, accepted and still
    open, and lists the request id and the bytes of every attempt."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawHandler)
    server.daemon_threads = True
    server.reply, server.lock, server.connections, server.open = reply, threading.Lock(), 0, 0
    server.attempts, server.messages = [], []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _answer(body) -> bytes:
    return json.dumps({"request_id": body["request_id"], "text": "wire:" + body["prompt"]}).encode()


def _chunked(body):
    data = _answer(body)
    chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in (data[:7], data[7:]))
    return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n" + chunks + b"0\r\nX-Trailer: 1\r\n\r\n"


def _continue_first(body):
    data = _answer(body)
    return b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(data), data)


def _connection_close(body):
    data = _answer(body)
    return b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s" % (len(data), data)


def _http10_to_close(body):
    return b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _answer(body)


@pytest.mark.parametrize(
    "reply, close, connections",
    [(_chunked, False, 1), (_continue_first, False, 1), (_connection_close, True, 3), (_http10_to_close, True, 3)],
    ids=["chunked, Content-Length ignored", "100 Continue first", "Connection: close", "HTTP/1.0 read to close"],
)
def test_http_wire_framings(reply, close, connections):
    """Each framing yields the reply; a connection is reused unless the reply ends it."""
    with raw_http_server(lambda body: (reply(body), close)) as (endpoint, server):
        out = query_batch(REQS, HttpTransport(endpoint, timeout=5), CFG, max_inflight=1, attempts=1)
    assert [r.text for r in out] == [f"wire:prompt {i}" for i in range(3)]
    assert server.connections == connections and server.attempts == ["r0", "r1", "r2"]


def test_http_204_reply_is_per_request_error():
    """A 204 carries no body, so the client does not wait for one."""
    with raw_http_server(lambda body: (b"HTTP/1.1 204 No Content\r\n\r\n", False)) as (endpoint, server):
        out = query_batch(REQS, HttpTransport(endpoint, timeout=5), CFG, max_inflight=1)
    assert all(r.status == "error" and r.error_detail == "request rejected with status 204" for r in out)
    assert server.connections == 1 and server.attempts == ["r0", "r1", "r2"]


@pytest.mark.parametrize(
    "reply, close",
    [
        (b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"request_id"', True),
        (b"HTCPCP/1.0 418 I'm a teapot\r\nContent-Length: 0\r\n\r\n", False),
        (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\nContent-Length: 2\r\n\r\n{}", False),
    ],
    ids=["body cut short", "garbage status line", "oversized header line"],
)
def test_http_broken_reply_is_transient(reply, close):
    with raw_http_server(lambda body: (reply, close)) as (endpoint, server):
        out = query_batch(REQS, HttpTransport(endpoint, timeout=5), CFG, max_inflight=1, attempts=2, sleep=lambda s: None)
    assert all(r.status == "error" and r.error_detail.startswith("gave up after 2 attempts") for r in out)
    assert sorted(server.attempts) == ["r0", "r0", "r1", "r1", "r2", "r2"]


def test_https_against_plain_http_port_is_per_request_error():
    with raw_http_server(lambda body: (_connection_close(body), True)) as (endpoint, server):
        tls = endpoint.replace("http://", "https://")
        out = query_batch(REQS, HttpTransport(tls, timeout=5), CFG, max_inflight=2, attempts=2, sleep=lambda s: None)
    assert all(r.status == "error" and r.error_detail.startswith("gave up after 2 attempts") for r in out)
    assert server.attempts == [] and server.connections == 6


def test_query_batch_workers_send_each_request_once_in_order():
    """Eight workers share one iterator of 2,000 requests under a tiny switch
    interval: each request is sent once and its response lands in its slot."""
    sent = []

    def answer(request, cfg):
        sent.append(request.request_id)  # list.append is atomic
        return ModelResponse(request.request_id, "echo:" + request.prompt)

    requests = [ModelRequest(f"q{i}", "m", f"p{i}") for i in range(2000)]
    result = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(query_batch(requests, CallableTransport(answer), CFG, max_inflight=8)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not runner.is_alive()
    (out,) = result
    assert [(r.request_id, r.text) for r in out] == [(q.request_id, "echo:" + q.prompt) for q in requests]
    assert sorted(sent) == sorted(q.request_id for q in requests)


# A prompt and ids that json escapes: non-ASCII text inside and beyond the
# BMP, a quote, a backslash and control characters.
WIRE_REQS = [
    ModelRequest("r-\u00e9", "im/0 \u2713", 'Is there a "caf\u00e9" \\ here?\x07\n\u2603 \U0001f600'),
    ModelRequest("r2", "", ""),
]


def _keep_alive(body) -> bytes:
    data = _answer(body)
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(data), data)


def test_http_request_bytes_on_the_wire():
    """Each request is its head and ``json.dumps`` of its payload, byte for byte."""
    with raw_http_server(lambda body: (_keep_alive(body), False)) as (endpoint, server):
        transport = HttpTransport(endpoint + "v1/generate?x=1", timeout=5)
        out = query_batch(WIRE_REQS, transport, CFG, max_inflight=1, attempts=1)
    assert [r.text for r in out] == ["wire:" + q.prompt for q in WIRE_REQS]
    host = endpoint[len("http://"):-1].encode()
    for request, message in zip(WIRE_REQS, server.messages, strict=True):
        payload = {
            "request_id": request.request_id,
            "media_ref": request.media_ref,
            "prompt": request.prompt,
            "sampling": {"temperature": 0.2, "max_new_tokens": 128},
        }
        body = json.dumps(payload).encode("utf-8")
        head = (
            b"POST /v1/generate?x=1 HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % (host, len(body))
        )
        assert message == head + body
    assert server.messages[0].endswith(
        b'{"request_id": "r-\\u00e9", "media_ref": "im/0 \\u2713", "prompt": "Is there a \\"caf\\u00e9\\" \\\\ here?'
        b'\\u0007\\n\\u2603 \\ud83d\\ude00", "sampling": {"temperature": 0.2, "max_new_tokens": 128}}'
    )


def test_file_batch_request_file_bytes(tmp_path):
    """The request file's name and bytes, pinned: its stem hashes those bytes."""
    out = query_batch(WIRE_REQS, FileBatchTransport(tmp_path, poll_interval=0.001, timeout=0.01), CFG)
    assert [r.error_detail for r in out] == ["no response file within 0.01s"] * 2
    assert [p.name for p in tmp_path.iterdir()] == ["batch-06bbf3fa266d5fbc.req.jsonl"]
    assert (tmp_path / "batch-06bbf3fa266d5fbc.req.jsonl").read_bytes() == (
        b'{"media_ref": "im/0 \\u2713", "prompt": "Is there a \\"caf\\u00e9\\" \\\\ here?\\u0007\\n\\u2603 \\ud83d\\ude00",'
        b' "request_id": "r-\\u00e9", "sampling": {"max_new_tokens": 128, "temperature": 0.2}}\n'
        b'{"media_ref": "", "prompt": "", "request_id": "r2", "sampling": {"max_new_tokens": 128, "temperature": 0.2}}\n'
    )


def test_file_batch_failed_rename_leaves_no_request_file(tmp_path, monkeypatch):
    """The request file is written aside and renamed into a directory made
    for it; a rename that fails raises and leaves neither the file nor its
    ``.tmp`` behind."""

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    directory = tmp_path / "batches"
    with pytest.raises(OSError, match="rename refused"):
        query_batch(REQS, FileBatchTransport(directory, poll_interval=0.001, timeout=0.01), CFG)
    assert directory.is_dir() and list(directory.iterdir()) == []


def test_http_pool_under_contention_sends_each_request_once():
    """More workers than cores share one connection pool and one request
    iterator under a tiny switch interval, and every seventh reply closes its
    connection: each request is sent once, its response lands in its slot,
    and every connection the pool kept is closed at the end."""
    def reply(body):
        close = body["request_id"].endswith("7")
        return (_connection_close(body) if close else _keep_alive(body)), close

    requests = [ModelRequest(f"q{i}", "m", f"p{i}") for i in range(600)]
    workers = 2 * len(os.sched_getaffinity(0)) + 1
    result = []
    with raw_http_server(reply) as (endpoint, server):
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            transport = HttpTransport(endpoint, timeout=10)
            runner = threading.Thread(
                target=lambda: result.append(query_batch(requests, transport, CFG, max_inflight=workers, attempts=1))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not runner.is_alive()
        deadline = time.monotonic() + 10  # the server sees a close when its handler reads EOF
        while server.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.open == 0
    (out,) = result
    assert [(r.request_id, r.text) for r in out] == [(q.request_id, "wire:" + q.prompt) for q in requests]
    assert sorted(server.attempts) == sorted(q.request_id for q in requests)


# ---------------- reply decoding ---------------- #

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_ENCODINGS = ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le", "utf-32-be"]


@st.composite
def _reply_bodies(draw):
    """JSON text (NaN and infinities too), or any text, with whitespace or
    trailing data around it, in any encoding json reads, sometimes cut or
    spliced with stray bytes."""
    text = draw(st.one_of(st.builds(json.dumps, _JSON_VALUES, ensure_ascii=st.booleans()), st.text(max_size=8)))
    text = draw(st.sampled_from(["", " ", "\r\n\t "])) + text + draw(st.sampled_from(["", " \n", " 1", "}", "x", "[]"]))
    data = text.encode(draw(st.sampled_from(_ENCODINGS)), "surrogatepass")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + draw(st.integers(0, 2)):]
    return data


def _decoded(decode, data):
    try:
        return "value", repr(decode(data))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.binary() | _reply_bodies())
@example(b"")
@example(b'\xef\xbb\xbf{"request_id": "r0", "text": "Yes"}')  # UTF-8 BOM
@example('{"request_id": "r0", "text": "Yes"}'.encode("utf-16"))
@example('{"text": "\u00e9"}'.encode("utf-32-be"))
@example(b'  {"request_id": "r0", "text": "Yes"}\r\n')
@example(b"[NaN, Infinity, -Infinity, -0.0, 1e400]")
@example(b'{"request_id": "r0"} {"text": "x"}')  # trailing data
@example(b"1 2")
@example(b'{"text": "\xff"}')  # not UTF-8
@example(b'"\xed\xa0\x80"')  # a lone surrogate, which json.loads lets through
@example(b'"\x00"')
@example(DEEP_JSON.encode())
@example(b"[" * 100_000)
def test_reply_decoder_matches_json_loads(data):
    """Every reply on either wire is decoded to json.loads's value, or raises
    json.loads's exception with its message."""
    assert _decoded(gateway._loads, data) == _decoded(json.loads, data)


# ---------------- file-batch transport ---------------- #


def _respond_to_batches(directory, answer, stop):
    """Answer each request file; ``answer`` returns a reply dict, or a string written as the raw line.
    With ``answer`` None, only the ``.done`` marker is written."""
    while not stop.is_set():
        for req_file in directory.glob("*.req.jsonl"):
            stem = req_file.name[: -len(".req.jsonl")]
            done = directory / f"{stem}.done"
            if done.exists():
                continue
            if answer is not None:
                rows = [json.loads(line) for line in req_file.read_text().splitlines() if line.strip()]
                with open(directory / f"{stem}.resp.jsonl", "w") as fh:
                    for row in rows:
                        reply = answer(row)
                        fh.write((reply if isinstance(reply, str) else json.dumps(reply)) + "\n")
            done.touch()
        stop.wait(0.01)


@contextmanager
def batch_runner(directory, answer):
    """A file-batch runner thread answering with ``answer`` while the block runs."""
    stop = threading.Event()
    responder = threading.Thread(target=_respond_to_batches, args=(directory, answer, stop), daemon=True)
    responder.start()
    try:
        yield
    finally:
        stop.set()
        responder.join(timeout=10)
    assert not responder.is_alive()


def test_file_batch_transport(tmp_path):
    with batch_runner(tmp_path, lambda row: {"request_id": row["request_id"], "text": "file:" + row["prompt"]}):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [r.text for r in out] == ["file:prompt 0", "file:prompt 1", "file:prompt 2"]


def test_file_batch_missing_response_ids(tmp_path):
    def drop_last(row):
        if row["request_id"] == "r2":
            return {"request_id": "ignored-extra", "text": "stray"}
        return {"request_id": row["request_id"], "text": "ok"}

    with batch_runner(tmp_path, drop_last):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [r.status for r in out] == ["ok", "ok", "error"]
    assert "missing from response file" in out[2].error_detail


def test_file_batch_ignores_reply_to_other_payload(tmp_path):
    """A reply left by a batch with the same ids but other prompts or sampling is not reused."""
    def answer(tag):
        return lambda row: {"request_id": row["request_id"], "text": f"{tag}:{row['prompt']}:{row['sampling']['temperature']}"}

    with batch_runner(tmp_path, answer("old")):
        query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    reworded = [ModelRequest(r.request_id, r.media_ref, r.prompt + "?") for r in REQS]
    with batch_runner(tmp_path, answer("new")):
        out = query_batch(reworded, FileBatchTransport(tmp_path, timeout=10), CFG)
        assert [r.text for r in out] == [f"new:prompt {i}?:0.2" for i in range(3)]
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), SamplingConfig(temperature=0.5, max_new_tokens=128))
        assert [r.text for r in out] == [f"new:prompt {i}:0.5" for i in range(3)]


@pytest.mark.parametrize(
    "bad_line", ['{"request_id": "r1", "te', "[1, 2]", pytest.param(DEEP_JSON, id="nested too deep")]
)
def test_file_batch_malformed_response_line_is_per_request_error(tmp_path, bad_line):
    def answer(row):
        return bad_line if row["request_id"] == "r1" else {"request_id": row["request_id"], "text": "ok"}

    with batch_runner(tmp_path, answer):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [r.status for r in out] == ["ok", "error", "ok"]
    assert out[1].error_detail == "missing from response file, whose line 2 is not a JSON object"


# A reply object whose text is not a string, on either wire, and the error response it makes.
BAD_REPLIES = [
    ({"text": 5}, "reply text is not a string: 5"),
    ({"text": None}, "reply carries neither text nor error"),
    ({}, "reply carries neither text nor error"),
    ({"error": ""}, "reply carries an empty error"),
]


@pytest.mark.parametrize("reply, detail", BAD_REPLIES)
def test_http_reply_without_string_text_is_per_request_error(reply, detail):
    """HTTP used to pass a non-string text through as an ok response."""
    with http_server(lambda body: (200, {"request_id": body["request_id"], **reply})) as (endpoint, _):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1)
    assert [(r.status, r.text, r.error_detail) for r in out] == [("error", "", detail)] * 3


@pytest.mark.parametrize("reply, detail", BAD_REPLIES)
def test_file_batch_reply_without_string_text_is_per_request_error(tmp_path, reply, detail):
    """The file-batch wire used to pass a non-string text through, read a
    missing one as "", and raise out of the batch on an empty error."""
    with batch_runner(tmp_path, lambda row: {"request_id": row["request_id"], **reply}):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [(r.status, r.text, r.error_detail) for r in out] == [("error", "", detail)] * 3


# A reply with ``"error": null``, as OpenAI-style batch output writes a success, and what it makes.
NULL_ERROR_REPLIES = [
    ({"text": "Yes", "error": None}, ("ok", "Yes", None)),
    ({"error": None}, ("error", "", "reply carries neither text nor error")),
]


@pytest.mark.parametrize("reply, made", NULL_ERROR_REPLIES)
def test_http_reply_with_null_error_is_no_error(reply, made):
    """A null error used to make an error response reading "None", losing the text beside it."""
    with http_server(lambda body: (200, {"request_id": body["request_id"], **reply})) as (endpoint, _):
        out = query_batch(REQS, HttpTransport(endpoint), CFG, max_inflight=1)
    assert [(r.status, r.text, r.error_detail) for r in out] == [made] * 3


@pytest.mark.parametrize("reply, made", NULL_ERROR_REPLIES)
def test_file_batch_reply_with_null_error_is_no_error(tmp_path, reply, made):
    """A null error used to make an error response reading "None", losing the text beside it."""
    with batch_runner(tmp_path, lambda row: {"request_id": row["request_id"], **reply}):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [(r.status, r.text, r.error_detail) for r in out] == [made] * 3


def test_file_batch_reply_with_unhashable_id_answers_no_request(tmp_path):
    """A reply whose request_id is a list used to raise TypeError out of the batch."""
    def answer(row):
        return {"request_id": [row["request_id"]] if row["request_id"] == "r1" else row["request_id"], "text": "ok"}

    with batch_runner(tmp_path, answer):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert [r.status for r in out] == ["ok", "error", "ok"]
    assert out[1].error_detail == "missing from response file"


def test_query_batch_dir_reply_without_string_text_is_never_scored(tmp_path, capsys):
    """query used to write a file-batch reply's ``"text": 5`` into the
    responses file as an answer, and evaluate then refused the whole file."""
    from coordtext.cli import main
    from coordtext.records import read_records, write_records

    records, responses, batch_dir = tmp_path / "hal.jsonl", tmp_path / "resp.jsonl", tmp_path / "batches"
    rows = [{"sample_id": f"h:{i}", "prompt": "Is there a lamp?", "objective": "hallucination", "gt": "yes"} for i in range(3)]
    write_records(records, rows, {"seed": 0}, "hallucination")

    def answer(row):
        return {"request_id": row["request_id"], "text": 5 if row["request_id"] == "h:1" else "Yes"}

    with batch_runner(batch_dir, answer):
        assert main(["query", "--records", str(records), "--batch-dir", str(batch_dir), "--out", str(responses)]) == 0
    assert "error for h:1: reply text is not a string: 5" in capsys.readouterr().err
    assert read_records(responses)[1][1] == {"item_id": "h:1", "status": "error", "text": ""}
    report = tmp_path / "report.json"
    assert main(["evaluate", "--records", str(records), "--responses", str(responses), "--report", str(report)]) == 0
    assert "missing response for h:1" in capsys.readouterr().err
    assert json.loads(report.read_text())["missing"] == 1


def test_file_batch_done_without_response_file_is_per_request_error(tmp_path):
    with batch_runner(tmp_path, None):
        out = query_batch(REQS, FileBatchTransport(tmp_path, timeout=10), CFG)
    assert all(r.status == "error" for r in out)
    (req_file,) = tmp_path.glob("*.req.jsonl")
    missing = tmp_path / req_file.name.replace(".req.jsonl", ".resp.jsonl")
    assert out[0].error_detail == f"{req_file.name[: -len('.req.jsonl')]}.done is present but {missing} is missing"


def test_file_batch_timeout(tmp_path):
    out = query_batch([REQS[0]], FileBatchTransport(tmp_path, timeout=0.1, poll_interval=0.02), CFG)
    assert out[0].status == "error" and "no response file" in out[0].error_detail


def test_file_batch_rerun_collects_a_reply_that_came_after_the_timeout(tmp_path):
    """A runner slower than the wait: the batch times out, the reply lands
    under the request file's stem, and the same requests sent again hash to
    that stem and collect it."""
    transport = FileBatchTransport(tmp_path, timeout=0.1, poll_interval=0.02)
    timed_out = query_batch(REQS, transport, CFG)
    assert all(r.status == "error" and "no response file" in r.error_detail for r in timed_out)
    (req_file,) = tmp_path.glob("*.req.jsonl")
    stem = req_file.name[: -len(".req.jsonl")]
    rows = [json.loads(line) for line in req_file.read_text().splitlines()]
    replies = (json.dumps({"request_id": row["request_id"], "text": "late:" + row["prompt"]}) + "\n" for row in rows)
    (tmp_path / f"{stem}.resp.jsonl").write_text("".join(replies))
    (tmp_path / f"{stem}.done").touch()
    out = query_batch(REQS, transport, CFG)
    assert [(r.status, r.text) for r in out] == [("ok", "late:prompt 0"), ("ok", "late:prompt 1"), ("ok", "late:prompt 2")]
    assert list(tmp_path.glob("*.req.jsonl")) == [req_file]


# ---------------- mocks ---------------- #


def test_oracle_mock_spatial_keywords():
    items, _ = build_spatial_bench(spatial_fixture(40, seed=0), seed=1)
    assert items
    items = items[:20]
    transport = MockTransport({item.item_id: oracle_response(item.item_id, item.to_record(), 0) for item in items})
    reqs = [ModelRequest(item.item_id, item.image_id, item.to_record()["prompt"]) for item in items]
    for item, resp in zip(items, query_batch(reqs, transport, CFG)):
        assert resp.status == "ok"
        assert item.gt_keyword in resp.text
        opposite = {"left": "right", "right": "left", "above": "below", "below": "above"}[item.gt_keyword]
        assert opposite not in resp.text


def test_oracle_mock_location_roundtrip():
    from coordtext.builders import build_ift_dataset
    from coordtext.fixtures import CATEGORIES, annotation_fixture

    scheme = ReprScheme.ivb(224)
    images = annotation_fixture(20, seed=4)
    by_id = {im.image_id: im for im in images}
    samples, _ = build_ift_dataset(images, scheme, "bbox", {"locpred": 1}, seed=2, vocabulary=list(CATEGORIES))
    assert samples
    samples = samples[:25]
    records = {s.sample_id: s.to_record(scheme) for s in samples}
    transport = MockTransport({sample_id: oracle_response(sample_id, r, 0) for sample_id, r in records.items()})
    reqs = [ModelRequest(s.sample_id, s.image_id, s.prompt) for s in samples]
    for sample, resp in zip(samples, query_batch(reqs, transport, CFG)):
        location_text = records[sample.sample_id]["location_text"]
        assert resp.text == f"It is located at {location_text}."
        image = by_id[sample.image_id]
        decoded = decode_bbox(location_text, scheme, image.dims)
        gt = next(o.bbox for o in image.objects if sample.sample_id.split(":")[1] == o.instance_id)
        bound = quantization_error_bound(scheme, image.dims)
        for i, (a, b) in enumerate(zip(gt, decoded)):
            assert abs(a - b) <= bound[i % 2] + 1e-9


def test_oracle_mock_hallucination():
    from coordtext.builders import HallucinationItem

    item = HallucinationItem("m1:hal:00", "m1", "image", "lamp", "no", 0)
    transport = MockTransport({item.item_id: oracle_response(item.item_id, item.to_record(), 0)})
    assert query_batch([ModelRequest("m1:hal:00", "m1", "q")], transport, CFG) == [ModelResponse("m1:hal:00", "No")]


def test_random_transport_draws_from_each_record_space():
    items, _ = build_spatial_bench(spatial_fixture(40, seed=0), seed=1)
    records = {item.item_id: item.to_record() for item in items}
    reqs = [ModelRequest(item_id, "m", "p") for item_id in records]
    out = query_batch(reqs, MockTransport({i: random_response(i, r, 7) for i, r in records.items()}), CFG)
    assert [r.text for r in out] == [random_mock(q.request_id, 7, records[q.request_id]["axis"]) for q in reqs]
    bad_record = {"objective": "spatial_direct", "axis": "xy"}
    bad = query_batch(reqs[:1], MockTransport({reqs[0].request_id: random_response(reqs[0].request_id, bad_record, 7)}), CFG)
    assert bad[0].status == "error" and "unknown answer space" in bad[0].error_detail


def test_oracle_answer_unknown_objective():
    with pytest.raises(ValueError, match="no oracle answer"):
        oracle_answer({"objective": "mystery"})


@pytest.mark.parametrize("space", ["location", "axis", ""])
def test_random_mock_refuses_a_space_it_does_not_know(space):
    """The chance baseline answers in the lr, ab and yes_no spaces only: no
    objective asks it for a location, and a record resolves ``axis`` to lr
    or ab before the mock is asked."""
    with pytest.raises(ValueError, match=f"^unknown answer space {space!r}$"):
        random_mock("q", seed=3, space=space)


def test_random_mock_balance_and_determinism():
    n = 10_000
    answers = [random_mock(f"q{i}", seed=7, space="lr") for i in range(n)]
    lefts = sum("left" in a for a in answers)
    assert abs(lefts / n - 0.5) <= 0.02
    again = [random_mock(f"q{i}", seed=7, space="lr") for i in range(n)]
    assert answers == again
    yn = {random_mock(f"q{i}", seed=1, space="yes_no") for i in range(200)}
    assert yn == {"Yes", "No"}
