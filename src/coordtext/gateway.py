"""Boundary to external vision-language models.

Requests travel over one of two interchangeable transports: a synchronous
JSON-over-HTTP wire, or a file-batch drop box (write ``*.req.jsonl``, poll
for ``*.resp.jsonl`` plus a ``.done`` marker) that keeps GPU-side runners
fully external. Batches never abort on individual failures; every request
gets exactly one response, in request order.

Two mock models support offline pipelines: an oracle that answers from
ground truth in canonical phrasing, and a seeded uniform-random baseline.
They are in-process transports on the same ``query_batch`` path as real
models, answering each request from its dataset record. The sampling
configuration is transmitted with every request but never applied locally;
generation happens inside the external model. Only ``HttpTransport``
imports ``requests``, so the mock and file-batch paths never load it.
"""

import hashlib
import json
import random as random_module
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .coords import BBox, ImageDims, PointLoc, ReprScheme, encode_bbox, encode_point
from .prompts import CAPTION_REQUEST, LOCPRED, NEGPRED, REVLOC
from .seeding import derive_seed


@dataclass(frozen=True)
class ModelRequest:
    request_id: str
    media_ref: str
    prompt: str


@dataclass(frozen=True)
class ModelResponse:
    request_id: str
    text: str
    status: str = "ok"  # "ok" | "error"
    error_detail: str | None = None

    def __post_init__(self):
        if self.status == "error" and not self.error_detail:
            raise ValueError("error responses need error_detail")


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.2
    max_new_tokens: int = 128

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")

    def to_dict(self) -> dict:
        return {"temperature": self.temperature, "max_new_tokens": self.max_new_tokens}


class TransientTransportError(RuntimeError):
    """Failure worth retrying: connection refused, timeout, 5xx."""


def _error(request: ModelRequest, detail: str) -> ModelResponse:
    return ModelResponse(request.request_id, "", status="error", error_detail=detail)


class HttpTransport:
    """POST each request as JSON to a single endpoint; one reply per request."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        import requests

        self.endpoint = endpoint
        self.timeout = timeout
        self.session = requests.Session()

    def send(self, request: ModelRequest, cfg: SamplingConfig) -> ModelResponse:
        import requests

        payload = {
            "request_id": request.request_id,
            "media_ref": request.media_ref,
            "prompt": request.prompt,
            "sampling": cfg.to_dict(),
        }
        try:
            reply = self.session.post(self.endpoint, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransientTransportError(str(exc)) from exc
        if reply.status_code >= 500:
            raise TransientTransportError(f"server error {reply.status_code}")
        if reply.status_code != 200:
            raise ValueError(f"request rejected with status {reply.status_code}")
        try:
            body = reply.json()
        except ValueError as exc:
            raise ValueError(f"malformed server reply: {exc}") from exc
        if body.get("request_id") != request.request_id:
            raise ValueError(f"reply id {body.get('request_id')!r} does not match request")
        if "error" in body:
            return _error(request, str(body["error"]))
        if "text" not in body:
            raise ValueError("reply carries neither text nor error")
        return ModelResponse(request.request_id, body["text"])


class FileBatchTransport:
    """Write a request file into a shared directory and poll for the response file.

    The external runner consumes ``<stem>.req.jsonl`` and must write
    ``<stem>.resp.jsonl`` followed by ``<stem>.done``. The stem is a hash of
    the request file's bytes, so a reply left by a batch with other prompts
    or sampling is never taken for this one's. A response line that is not a
    JSON object is skipped; the requests it leaves unanswered become errors
    that name it.
    """

    def __init__(self, directory, poll_interval: float = 0.05, timeout: float = 60.0):
        self.directory = Path(directory)
        self.poll_interval = poll_interval
        self.timeout = timeout

    def send_batch(self, requests_: list[ModelRequest], cfg: SamplingConfig) -> list[ModelResponse]:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = "".join(
            json.dumps(
                {"request_id": r.request_id, "media_ref": r.media_ref, "prompt": r.prompt, "sampling": cfg.to_dict()},
                sort_keys=True,
            )
            + "\n"
            for r in requests_
        )
        stem = "batch-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        req_path = self.directory / f"{stem}.req.jsonl"
        resp_path = self.directory / f"{stem}.resp.jsonl"
        done_path = self.directory / f"{stem}.done"
        # written aside and renamed, so that a runner never reads half a request file
        tmp_path = self.directory / f"{stem}.req.jsonl.tmp"
        tmp_path.write_text(payload, encoding="utf-8")
        tmp_path.replace(req_path)
        deadline = time.monotonic() + self.timeout
        while not done_path.exists():
            if time.monotonic() > deadline:
                return [_error(r, f"no response file within {self.timeout}s") for r in requests_]
            time.sleep(self.poll_interval)
        by_id = {}
        first_bad = None
        for line_no, line in enumerate(resp_path.read_bytes().splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                row = None
            if isinstance(row, dict):
                by_id[row.get("request_id")] = row
            elif first_bad is None:
                first_bad = line_no
        missing = "missing from response file"
        if first_bad is not None:
            missing += f", whose line {first_bad} is not a JSON object"
        out = []
        for r in requests_:
            row = by_id.get(r.request_id)
            if row is None:
                out.append(_error(r, missing))
            elif "error" in row:
                out.append(_error(r, str(row["error"])))
            else:
                out.append(ModelResponse(r.request_id, row.get("text", "")))
        return out


class CallableTransport:
    """Adapter for in-process models and tests: fn(request, cfg) -> ModelResponse."""

    def __init__(self, fn):
        self.fn = fn

    def send(self, request: ModelRequest, cfg: SamplingConfig) -> ModelResponse:
        return self.fn(request, cfg)


def query_batch(
    requests_: list[ModelRequest],
    transport,
    cfg: SamplingConfig = SamplingConfig(),
    max_inflight: int = 4,
    attempts: int = 3,
    backoff: float = 0.1,
    sleep=time.sleep,
) -> list[ModelResponse]:
    """One response per request, order-aligned, retrying transient failures.

    Each request is attempted up to ``attempts`` times with exponential
    backoff; failures become per-request error responses, never exceptions,
    so a batch always completes.
    """
    if not requests_:
        raise ValueError("empty batch")
    ids = [r.request_id for r in requests_]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate request ids in batch: {dupes}")

    if hasattr(transport, "send_batch"):
        responses = transport.send_batch(requests_, cfg)
        if [r.request_id for r in responses] != ids:
            raise ValueError("batch transport broke response alignment")
        return responses

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
                return _error(request, str(exc))
        return _error(request, f"gave up after {attempts} attempts: {last}")

    with ThreadPoolExecutor(max_workers=max(1, max_inflight)) as pool:
        return list(pool.map(send_one, requests_))


# ---------------- mock models ---------------- #

_SPATIAL_QUESTION_RE = re.compile(r"Which side of (.+) is (.+) located\?$")


def spatial_answer(query_name: str, keyword: str, ref_name: str) -> str:
    return f"The {query_name} is located to the {keyword} of {ref_name}."


def oracle_answer(record: dict) -> str:
    """Canonical correct answer for one dataset record."""
    objective = record["objective"]
    if objective == LOCPRED:
        return f"It is located at {record['location_text']}."
    if objective == NEGPRED:
        return "There is no such object in the image"
    if objective in (REVLOC, "region_description"):
        return record["descriptor"]
    if objective in ("spatial_direct", "spatial_icl"):
        final_question = record["prompt"].rsplit("Q: ", 1)[-1].strip()
        match = _SPATIAL_QUESTION_RE.fullmatch(final_question)
        ref = match.group(1) if match else "it"
        return spatial_answer(record["descriptor"], record["gt_keyword"], ref)
    if objective == "hallucination":
        return "Yes" if record["gt"] == "yes" else "No"
    if objective == "vqa":
        return f"The answer is {record['target']}."
    if objective == CAPTION_REQUEST:
        return f"a {record['descriptor']} placed near the other objects in the image"
    raise ValueError(f"no oracle answer for objective {objective!r}")


RANDOM_SPACES = {
    "lr": ("left", "right"),
    "ab": ("above", "below"),
    "yes_no": ("Yes", "No"),
}


def random_mock(
    request: ModelRequest,
    seed: int,
    space: str,
    scheme: ReprScheme | None = None,
    form: str | None = None,
    dims: ImageDims | None = None,
) -> ModelResponse:
    """Chance-level baseline: seeded uniform draw over the answer space.

    ``space`` is one of lr / ab / yes_no / location; the location space
    emits a uniform random box or point encoded under ``scheme``.
    """
    rng = random_module.Random(derive_seed(seed, request.request_id))
    if space in RANDOM_SPACES:
        choice = rng.choice(RANDOM_SPACES[space])
        if space == "yes_no":
            return ModelResponse(request.request_id, choice)
        return ModelResponse(request.request_id, f"It is to the {choice}.")
    if space == "location":
        if scheme is None or form is None or dims is None:
            raise ValueError("location space needs scheme, form, and dims")
        if form == "point":
            loc = encode_point(PointLoc(rng.uniform(0, dims.width), rng.uniform(0, dims.height)), dims, scheme)
        else:
            x1, x2 = sorted(rng.uniform(0, dims.width) for _ in range(2))
            y1, y2 = sorted(rng.uniform(0, dims.height) for _ in range(2))
            loc = encode_bbox(BBox(x1, y1, x2, y2), dims, scheme)
        return ModelResponse(request.request_id, f"It is located at {loc.text}.")
    raise ValueError(f"unknown answer space {space!r}")


def answer_space_for_record(record: dict) -> str:
    objective = record.get("objective")
    if objective in ("spatial_direct", "spatial_icl"):
        return record.get("axis", "lr")
    if objective == "hallucination":
        return "yes_no"
    return "lr"


class _MockTransport:
    """In-process model: ``answer(request, record)`` from each request's dataset
    record, sequentially through ``send_batch``. A request with no record, or
    one its record cannot answer, gets an error response."""

    def __init__(self, records_by_id: dict[str, dict]):
        self.records_by_id = records_by_id

    def send_batch(self, requests_: list[ModelRequest], cfg: SamplingConfig) -> list[ModelResponse]:
        out = []
        for request in requests_:
            record = self.records_by_id.get(request.request_id)
            if record is None:
                out.append(_error(request, "no dataset record with this id"))
                continue
            try:
                out.append(self.answer(request, record))
            except KeyError as exc:
                out.append(_error(request, f"record lacks {exc}"))
            except ValueError as exc:
                out.append(_error(request, str(exc)))
        return out


class OracleTransport(_MockTransport):
    """Ground-truth-perfect model: the canonical correct answer for each record."""

    def answer(self, request: ModelRequest, record: dict) -> ModelResponse:
        return ModelResponse(request.request_id, oracle_answer(record))


class RandomTransport(_MockTransport):
    """Chance-level baseline: a seeded uniform draw over each record's answer space."""

    def __init__(self, records_by_id: dict[str, dict], seed: int):
        super().__init__(records_by_id)
        self.seed = seed

    def answer(self, request: ModelRequest, record: dict) -> ModelResponse:
        return random_mock(request, self.seed, answer_space_for_record(record))
