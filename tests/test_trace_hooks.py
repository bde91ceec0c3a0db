"""The benchmark tracer (perfbench/trace_stage.py) wraps coordtext functions by
module and attribute name. A rename would break ``run.py --trace 1`` without
failing anything else, so these tests hold the names and the call paths."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import coordtext
from coordtext.records import write_records

TRACE_STAGE = Path(__file__).resolve().parents[1] / "perfbench" / "trace_stage.py"


def _load_trace_stage():
    spec = importlib.util.spec_from_file_location("trace_stage", TRACE_STAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    trace_stage = _load_trace_stage()
    unresolved = []
    for _, module_name, attr in trace_stage.SPANS + trace_stage.COUNTERS:
        owner = sys.modules.get(f"coordtext.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"coordtext.{module_name}.{attr}")
    assert unresolved == []
    assert callable(coordtext.meteor.porter_stem) and callable(coordtext.gateway.HttpTransport.send)


def _child_env() -> dict:
    src = str(Path(coordtext.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_every_traced_module():
    """trace_stage.install looks every wrapped module up in sys.modules right
    after ``import coordtext.cli``, so in a fresh interpreter that import
    alone must load them all. (In this process, other tests have imported
    everything already, so test_traced_names_resolve cannot see a gap.)"""
    trace_stage = _load_trace_stage()
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; import coordtext.cli; print(json.dumps(sorted(sys.modules)))"],
        check=True, env=_child_env(), capture_output=True, text=True,
    )
    wanted = {f"coordtext.{module_name}" for _, module_name, _ in trace_stage.SPANS + trace_stage.COUNTERS}
    assert sorted(wanted - set(json.loads(proc.stdout))) == []


def _traced(tmp_path, *cli_args) -> dict:
    """Run one CLI command under trace_stage.py; returns the trace it writes."""
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(TRACE_STAGE), str(trace), "run", "--", *map(str, cli_args)],
        check=True, env=_child_env(), capture_output=True,
    )
    payload = json.loads(trace.read_text())
    assert payload["exit_code"] == 0
    return payload


def test_traced_oracle_query_counts_mock_calls(tmp_path):
    """The mock transports look the answer functions up as module globals, so
    the tracer's wrappers see every call, inside the query_batch span."""
    records = tmp_path / "presence.jsonl"
    rows = [{"sample_id": f"m:{i}", "prompt": "p", "objective": "hallucination", "gt": "yes"} for i in range(3)]
    write_records(records, rows, {"seed": 0}, "hallucination")
    for mock, counted in (("oracle", 3), ("random", 6)):
        payload = _traced(tmp_path, "query", "--records", records, "--mock", mock, "--out", tmp_path / "responses.jsonl")
        assert payload["counters"]["gateway.mock"][0] == counted  # random: answer space and draw per item
        assert "gateway.query_batch" in {span["name"] for span in payload["spans"]}


def test_traced_region_evaluate_counts_every_stem_lookup(tmp_path, monkeypatch):
    """The stem cache sits inside porter_stem, so the tracer's wrapper counts
    every lookup that align makes, cache hits included, and sees fewer
    distinct words than lookups."""
    from coordtext import meteor

    descriptors = ["red chair", "chairs", "wooden table", "tables near chairs"]
    rows = [
        {"sample_id": f"r:{i}", "prompt": "p", "objective": "revloc", "descriptor": descriptors[i % 4]}
        for i in range(12)
    ]
    texts = ["reds chairing", "chair", "woodens tabled", "tabling nearing chair"]
    responses = [{"item_id": row["sample_id"], "text": texts[i % 4]} for i, row in enumerate(rows)]
    write_records(tmp_path / "region.jsonl", rows, {"seed": 0}, "ift")
    write_records(tmp_path / "responses.jsonl", responses, {"seed": 0}, "responses")

    calls = []
    stem = meteor.porter_stem
    monkeypatch.setattr(meteor, "porter_stem", lambda word: calls.append(word) or stem(word))
    for row, response in zip(rows, responses):
        meteor.score_meteor(row["descriptor"], response["text"])
    monkeypatch.undo()

    payload = _traced(tmp_path, "evaluate", "--task", "region",
                      "--records", tmp_path / "region.jsonl", "--responses", tmp_path / "responses.jsonl")
    assert payload["counters"]["meteor.stem"][0] == len(calls) > 0
    assert payload["stem_distinct"] == len(set(calls)) < len(calls)


def test_traced_ift_build_counts_every_encode_render_and_seed(tmp_path):
    """Each ift record takes one derive_seed, one encode and one render call,
    and builders calls them as module globals, so the tracer's wrappers count
    every one: a fast path inside the builder cannot route around them."""
    from coordtext.cli import main
    from coordtext.records import read_records

    assert main(["fixtures", "--out", str(tmp_path / "fx"), "--seed", "0"]) == 0
    out = tmp_path / "ift.jsonl"
    payload = _traced(tmp_path, "build", "ift", "--annotations", tmp_path / "fx" / "coco_50.json",
                      "--captions", tmp_path / "fx" / "captions_50.jsonl", "--mix", "revloc=1", "--out", out)
    count = read_records(out)[0]["count"]
    assert count > 0
    for name in ("coords.encode", "prompts.render", "seeding.derive_seed"):
        assert payload["counters"][name][0] == count, name
