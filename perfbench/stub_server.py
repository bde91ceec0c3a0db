"""Stub model server for the presence-http workload, run as its own process.

It speaks the gateway's wire protocol: POST {request_id, media_ref, prompt,
sampling} and get {request_id, text}. Each presence question is answered
with the oracle's answer, looked up in the answer key the benchmark wrote
next to the annotations. The first attempt of about 1% of request ids
(chosen by a seeded hash, see ``is_faulty``) gets a 503, so the client's
retry path runs. Attempts are counted here, on the server side, and served
on ``GET /stats``; ``POST /reset`` clears the counts between pipeline runs.

Usage: python3 stub_server.py ANSWER_KEY_JSON PORT_FILE FAULT_SEED
ANSWER_KEY_JSON holds the category vocabulary and, per image id, the present
categories (see ``inputs.write_presence_inputs``). The server binds an
ephemeral port on 127.0.0.1 and writes it to PORT_FILE once it listens.
"""

import hashlib
import json
import os
import re
import socketserver
import sys
import threading
from http import HTTPStatus


def is_faulty(request_id: str, seed: int) -> bool:
    """True for the 1% of request ids whose first attempt gets a 503."""
    digest = hashlib.sha256(f"fault:{seed}:{request_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 100 == 0


class StubState:
    def __init__(self, vocabulary: list[str], present: dict[str, list[str]], fault_seed: int):
        self.present = {k: set(v) for k, v in present.items()}
        vocabulary = sorted(vocabulary, key=len, reverse=True)
        self.object_re = re.compile(r"\b(" + "|".join(re.escape(c) for c in vocabulary) + r")\b")
        self.fault_seed = fault_seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.faults = 0

    def answer(self, body: dict) -> tuple[int, dict]:
        rid = body["request_id"]
        with self.lock:
            attempt = self.attempts.get(rid, 0) + 1
            self.attempts[rid] = attempt
            inject = attempt == 1 and is_faulty(rid, self.fault_seed)
            if inject:
                self.faults += 1
        if inject:
            return 503, {"request_id": rid, "error": "injected fault"}
        objects = self.object_re.findall(body["prompt"])
        if len(objects) != 1 or body["media_ref"] not in self.present:
            return 200, {"request_id": rid, "error": f"cannot answer {body['prompt']!r}"}
        return 200, {"request_id": rid, "text": "Yes" if objects[0] in self.present[body["media_ref"]] else "No"}

    def stats(self) -> dict:
        with self.lock:
            return {"requests": len(self.attempts), "attempts": sum(self.attempts.values()), "faults": self.faults}


class Handler(socketserver.StreamRequestHandler):
    """Minimal HTTP/1.1 keep-alive handler: one request line, headers, a
    Content-Length body, and each reply sent in one write. It costs a
    fraction of http.server's per-request CPU, which would otherwise compete
    with the client on the same cores and be timed as gateway work."""

    # Without TCP_NODELAY, delayed ACKs stall every small reply by tens of ms,
    # and the benchmark would time the stub instead of the gateway.
    disable_nagle_algorithm = True
    state: StubState

    def handle(self):
        while True:
            request_line = self.rfile.readline(65536)
            if not request_line:
                return
            method, path, _ = request_line.split(b" ", 2)
            length = 0
            while (line := self.rfile.readline(65536)) not in (b"\r\n", b"\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = self.rfile.read(length)
            if method == b"GET":
                status, payload = 200, self.state.stats()
            elif path == b"/reset":
                self.state.reset()
                status, payload = 200, {}
            else:
                status, payload = self.state.answer(json.loads(body))
            data = json.dumps(payload).encode()
            head = f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: application/json\r\n"
            self.wfile.write(f"{head}Content-Length: {len(data)}\r\n\r\n".encode() + data)


def main(argv) -> int:
    key_path, port_file, fault_seed = argv
    with open(key_path, encoding="utf-8") as fh:
        key = json.load(fh)
    Handler.state = StubState(key["vocabulary"], key["present"], int(fault_seed))
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    tmp = port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, port_file)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
