"""Run one coordtext CLI command with the public entry points of every layer wrapped.

Usage: python3 trace_stage.py OUT_JSON RUN_ID -- <coordtext command and flags>

Coarse calls (file loads, builders, record I/O, batches, scorers) become
spans with a parent link; every span of one pipeline run carries the same
run id. Hot per-item functions (``derive_seed``, ``encode_*``, renderers,
``porter_stem``, ...) run more than 50k times per pipeline, so they only
add to a per-name counter of calls and seconds. Everything stays in memory
and is written to OUT_JSON when the command returns. No file of the
program is changed: the wrappers replace module attributes at run time.
"""

import json
import os
import sys
from time import perf_counter

# (layer metric, module, attribute) for functions whose calls become spans.
SPANS = (
    ("annotations.load", "annotations", "load_coco_annotations"),
    ("annotations.load", "annotations", "load_caption_records"),
    ("annotations.load", "annotations", "load_video_detections"),
    ("builders.build", "builders", "build_spatial_bench"),
    ("builders.build", "builders", "build_ift_dataset"),
    ("builders.build", "builders", "build_hallucination_set"),
    ("builders.build", "builders", "ingest_pseudo_captions"),
    ("records.write", "records", "write_records"),
    ("records.write", "records", "write_json"),
    ("records.read", "records", "read_records"),
    ("records.verify", "records", "verify_records"),
    ("gateway.query_batch", "gateway", "query_batch"),
    ("evals.score", "evals", "score_spatial"),
    ("evals.score", "evals", "score_keyword_vqa"),
    ("evals.score", "evals", "score_hallucination"),
    ("evals.score", "evals", "score_region_description"),
)

# (layer metric, module, attribute) for hot functions that only count.
COUNTERS = (
    ("seeding.derive_seed", "seeding", "derive_seed"),
    ("coords.encode", "coords", "encode_point"),
    ("coords.encode", "coords", "encode_bbox"),
    ("prompts.render", "prompts", "render_locpred"),
    ("prompts.render", "prompts", "render_negpred"),
    ("prompts.render", "prompts", "render_revloc"),
    ("prompts.render", "prompts", "render_spatial_query"),
    ("prompts.render", "prompts", "spatial_icl_example"),
    ("prompts.render", "prompts", "render_hallucination_query"),
    ("prompts.render", "prompts", "render_caption_request"),
    ("prompts.parse", "prompts", "parse_response"),
    ("builders.to_record", "builders", "ConversationSample.to_record"),
    ("builders.to_record", "builders", "SpatialBenchItem.to_record"),
    ("builders.to_record", "builders", "HallucinationItem.to_record"),
    ("meteor.score", "meteor", "score_meteor"),
    ("gateway.mock", "gateway", "oracle_answer"),
    ("gateway.mock", "gateway", "random_mock"),
    ("gateway.mock", "gateway", "answer_space_for_record"),
)

_ITEM_BUILDERS = ("build_spatial_bench", "build_ift_dataset", "build_hallucination_set")


class Tracer:
    """Spans, counters and a few totals for one CLI process.

    ``covered`` sums the time of traced calls made directly under the root
    span, so that the root's self time is its duration minus ``covered``.
    ``depth`` is only touched on the main thread: the one wrapper that runs
    on gateway worker threads (``HttpTransport.send``) leaves it alone.
    """

    def __init__(self, run_id: str, stage: str):
        self.run_id = run_id
        self.stage = stage
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.depth = 0
        self.covered = 0.0
        self.counters: dict[str, list] = {}
        self.totals: dict[str, float] = {}
        self.sends: list[tuple[str, float]] = []
        self.stem_words: set[str] = set()

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                      "run_id": self.run_id, "stage": self.stage, "name": name}
            self.spans.append(record)
            self.stack.append(record["id"])
            self.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.depth -= 1
                self.stack.pop()
                record["start"], record["end"] = start, end
                if self.depth == 1:
                    self.covered += end - start
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            self.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if self.depth == 1:
                    self.covered += elapsed

        return wrapper

    def stem(self, fn):
        stat = self.counters.setdefault("meteor.stem", [0, 0.0])
        words = self.stem_words

        def wrapper(word):
            start = perf_counter()
            try:
                return fn(word)
            finally:
                stat[1] += perf_counter() - start
                stat[0] += 1
                words.add(word)

        return wrapper

    def send(self, fn):
        sends = self.sends

        def wrapper(transport, request, cfg):
            start = perf_counter()
            try:
                return fn(transport, request, cfg)
            finally:
                sends.append((request.request_id, 1000 * (perf_counter() - start)))  # list.append is atomic

        return wrapper

    def dump(self, path, import_s: float, exit_code: int) -> None:
        root = self.spans[0]
        payload = {
            "run_id": self.run_id,
            "stage": self.stage,
            "exit_code": exit_code,
            "import_s": import_s,
            "self_s": root["end"] - root["start"] - self.covered,
            "spans": self.spans,
            "counters": self.counters,
            "totals": self.totals,
            "sends": self.sends,
            "stem_distinct": len(self.stem_words),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _rebind(original, wrapper) -> None:
    """Point every coordtext binding of ``original`` at ``wrapper``: module
    attributes, ``from x import y`` copies, and values of module-level dicts
    such as the CLI's scorer table."""
    for name, module in list(sys.modules.items()):
        if name == "coordtext" or name.startswith("coordtext."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper


def install(tracer: Tracer) -> None:
    import coordtext

    def target(module_name, attr):
        owner = sys.modules[f"coordtext.{module_name}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        return owner, attr

    def after_span(attr):
        if attr in ("write_records", "write_json"):
            return lambda args, kwargs, result: tracer.add("records.write.mb", _file_mb(args[0]))
        if attr == "read_records":
            return lambda args, kwargs, result: tracer.add("records.read.mb", _file_mb(args[0]))
        if attr in _ITEM_BUILDERS:
            return lambda args, kwargs, result: tracer.add("builders.items_out", len(result[0]))
        if attr == "query_batch":
            return lambda args, kwargs, result: tracer.add(
                "gateway.errors", sum(1 for r in result if r.status == "error"))
        if attr.startswith("score_"):
            return lambda args, kwargs, result: tracer.add("evals.missing", result[0].missing)
        return None

    for name, module_name, attr in SPANS:
        owner, attr = target(module_name, attr)
        original = getattr(owner, attr)
        _rebind(original, tracer.span(name, original, after_span(attr)))
    for name, module_name, attr in COUNTERS:
        owner, attr = target(module_name, attr)
        original = getattr(owner, attr)
        wrapper = tracer.counter(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
    meteor = coordtext.meteor
    _rebind(meteor.porter_stem, tracer.stem(meteor.porter_stem))
    http = coordtext.gateway.HttpTransport
    http.send = tracer.send(http.send)


def main(argv) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_stage.py OUT_JSON RUN_ID -- COMMAND...")
    start = perf_counter()
    import coordtext.cli

    import_s = perf_counter() - start
    stage = " ".join(a for a in cli_args[:2] if not a.startswith("-"))
    tracer = Tracer(run_id, stage)
    install(tracer)
    code = 1
    try:
        code = tracer.span("cli.main", coordtext.cli.main)(cli_args)
    finally:
        tracer.dump(out_path, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
