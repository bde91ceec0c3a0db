"""CLI tests: exit codes, end-to-end pipelines, and byte-level reproducibility."""

import ast
import builtins
import gc
import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coordtext import cli, records
from coordtext.cli import main
from coordtext.gateway import answer_space_for_record
from coordtext.prompts import OBJECTIVES, REGION_DESCRIPTION
from coordtext.records import read_records, write_json, write_records


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    assert main(["fixtures", "--out", str(out), "--seed", "0"]) == 0
    return out


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------- codec commands ---------------- #


def test_encode_golden(capsys):
    code, out, _ = run(["encode", "--bbox", "10,120,30,145", "--dims", "512x512", "--scheme", "ivb", "--nb", "224"], capsys)
    assert code == 0 and out.strip() == "(4, 52, 13, 63)"


def test_decode_golden(capsys):
    code, out, _ = run(["decode", "--text", "(0.5000, 0.5000)", "--form", "point", "--scheme", "nfp", "--dims", "512x512"], capsys)
    assert code == 0 and out.strip() == "256 256"


def test_encode_invariant_violation_exits_2(capsys):
    code, _, err = run(["encode", "--bbox", "30,120,10,145", "--dims", "512x512", "--scheme", "ivb"], capsys)
    assert code == 2 and "x1 > x2" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--bbox", "nan,120,30,145"), ("--bbox", "10,120,inf,145"), ("--point", "nan,5"), ("--point", "5,-inf")],
)
def test_encode_non_finite_location_exits_2(capsys, flag, value):
    """NaN and infinity used to fail deep in the codec, as "cannot convert
    NaN to integer ratio" or "x1 > x2 in (inf, ...)"."""
    code, out, err = run(["encode", flag, value, "--dims", "512x512", "--scheme", "ivb"], capsys)
    assert code == 2 and out == "" and err == f"error: {flag} values must be finite, got {value!r}\n"


def test_encode_requires_exactly_one_location(capsys):
    code, _, err = run(["encode", "--dims", "512x512", "--scheme", "ivb"], capsys)
    assert code == 2
    code, _, _ = run(
        ["encode", "--bbox", "1,2,3,4", "--point", "1,2", "--dims", "512x512", "--scheme", "ivb"], capsys
    )
    assert code == 2


def test_decode_malformed_text_exits_2(capsys):
    code, _, err = run(["decode", "--text", "(4, cat)", "--form", "point", "--scheme", "ivb", "--dims", "512x512"], capsys)
    assert code == 2 and "cat" in err


def test_decode_diga_deviation_outside_square_exits_2(capsys):
    code, out, err = run(["decode", "--scheme", "diga", "--form", "point", "--dims", "10x10", "--text", "(0, 0, 99999, 0)"], capsys)
    assert code == 2 and not out and "diga deviation too large" in err


# ---------------- build ---------------- #


def test_build_ift_counts_match_oracle(fx, tmp_path, capsys):
    out = tmp_path / "ift.jsonl"
    code, _, _ = run(
        ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--seed", "3", "--out", str(out)], capsys
    )
    assert code == 0
    meta, rows = read_records(out)
    data = json.loads((fx / "coco_50.json").read_text())
    cats = {c["id"]: c["name"] for c in data["categories"]}
    per_image = Counter()
    for a in data["annotations"]:
        per_image[(a["image_id"], cats[a["category_id"]])] += 1
    eligible = sum(1 for count in per_image.values() if count == 1)
    by_objective = Counter(r["objective"] for r in rows)
    assert by_objective["locpred"] == eligible
    assert by_objective["revloc"] == eligible
    assert by_objective["negpred"] == eligible
    assert meta["count"] == len(rows)
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["emitted_count"] == len(rows)


def test_build_ift_rerun_byte_identical(fx, tmp_path, capsys):
    args = ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(fx / "captions_50.jsonl"), "--seed", "3"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert sha(a) == sha(b)


def test_build_missing_annotations_exits_1(tmp_path, capsys):
    code, _, err = run(
        ["build", "ift", "--annotations", str(tmp_path / "none.json"), "--out", str(tmp_path / "o.jsonl")], capsys
    )
    assert code == 1 and "cannot read" in err


def test_build_invalid_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["build", "ift", "--annotations", str(bad), "--out", str(tmp_path / "o.jsonl")], capsys)
    assert code == 3 and "schema error" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, "10", True])
def test_build_skips_coco_box_that_is_not_finite_numbers(fx, tmp_path, capsys, value):
    """A COCO box coordinate that json reads as NaN or Infinity, or that is not
    a number, skips that annotation as invalid_bbox rather than failing the build."""
    data = json.loads((fx / "coco_50.json").read_text())
    data["annotations"][0]["bbox"] = [value, 10, 20, 20]
    bad = tmp_path / "coco.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "ift.jsonl"
    code, _, err = run(["build", "ift", "--annotations", str(bad), "--out", str(out)], capsys)
    assert code == 0, err
    assert json.loads(out.with_suffix(".report.json").read_text())["exclusions"]["invalid_bbox"] >= 1


def test_build_record_field_sets(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    run(["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1", "--out", str(bench)], capsys)
    _, rows = read_records(bench)
    base = {"sample_id", "image_id", "objective", "prompt", "target", "location_text", "scheme", "form", "descriptor", "seed"}
    assert set(rows[0]) == base | {"axis", "gt_keyword", "icl_context"}
    hal = tmp_path / "hal.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "1", "--out", str(hal)], capsys)
    _, rows = read_records(hal)
    assert set(rows[0]) == base | {"medium", "gt"}
    ift = tmp_path / "ift.jsonl"
    run(["build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(ift)], capsys)
    _, rows = read_records(ift)
    assert set(rows[0]) == base


def test_ift_records_rerender_from_file_metadata(fx, tmp_path, capsys):
    """Prompts and targets reconstruct byte-exactly from record fields alone."""
    from coordtext.coords import LocationText, ReprScheme
    from coordtext.prompts import render_locpred, render_negpred, render_revloc

    out = tmp_path / "ift.jsonl"
    run(
        ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(fx / "captions_50.jsonl"),
         "--form", "point", "--seed", "11", "--out", str(out)],
        capsys,
    )
    _, rows = read_records(out)
    assert rows
    for row in rows:
        scheme = ReprScheme.from_dict(row["scheme"])
        loc = LocationText(row["location_text"], scheme, row["form"]) if row["location_text"] else None
        if row["objective"] == "locpred":
            pair = render_locpred(row["descriptor"], row["form"], loc, row["seed"])
        elif row["objective"] == "revloc":
            pair = render_revloc(loc, row["descriptor"], row["seed"])
        else:
            pair = render_negpred(row["descriptor"], row["form"], row["seed"])
        assert pair.prompt == row["prompt"] and pair.target == row["target"]


def test_build_video_static(fx, tmp_path, capsys):
    out = tmp_path / "tracks.jsonl"
    code, _, _ = run(["build", "video-static", "--videos", str(fx / "videos.jsonl"), "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_records(out)
    assert rows and all(set(r) >= {"video_id", "category", "averaged_box", "is_static"} for r in rows)


# ---------------- query + evaluate ---------------- #


def _pipeline(fx, tmp_path, capsys, build_args, task=None, mock="oracle"):
    records = tmp_path / "records.jsonl"
    responses = tmp_path / "responses.jsonl"
    report = tmp_path / "report.json"
    assert run(build_args + ["--out", str(records)], capsys)[0] == 0
    assert run(["query", "--records", str(records), "--mock", mock, "--seed", "5", "--out", str(responses)], capsys)[0] == 0
    eval_args = ["evaluate", "--records", str(records), "--responses", str(responses), "--report", str(report)]
    if task:
        eval_args += ["--task", task]
    code, out, _ = run(eval_args, capsys)
    assert code == 0
    return json.loads(report.read_text()), out


def test_oracle_pipeline_spatial(fx, tmp_path, capsys):
    report, out = _pipeline(
        fx, tmp_path, capsys, ["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1"]
    )
    assert report["accuracy"] == 1.0
    assert out.startswith("All 100.0")
    assert all(v == 1.0 for v in report["per_split"].values())


def test_oracle_pipeline_hallucination(fx, tmp_path, capsys):
    report, _ = _pipeline(
        fx, tmp_path, capsys, ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2"]
    )
    assert report["accuracy"] == 1.0 and report["f1"] == 1.0


def test_oracle_pipeline_vqa(fx, tmp_path, capsys):
    responses = tmp_path / "r.jsonl"
    assert run(["query", "--records", str(fx / "vqa.jsonl"), "--mock", "oracle", "--out", str(responses)], capsys)[0] == 0
    code, out, _ = run(["evaluate", "--records", str(fx / "vqa.jsonl"), "--responses", str(responses)], capsys)
    assert code == 0 and out.startswith("All 100.0")


def test_caption_collection_loop(fx, tmp_path, capsys):
    """Caption requests -> mock captioner -> captions attached to a new dataset."""
    requests = tmp_path / "capreq.jsonl"
    caps = tmp_path / "caps.jsonl"
    ift = tmp_path / "ift.jsonl"
    assert run(["build", "pseudo-captions", "--annotations", str(fx / "coco_50.json"), "--out", str(requests)], capsys)[0] == 0
    assert run(["query", "--records", str(requests), "--mock", "oracle", "--out", str(caps)], capsys)[0] == 0
    code, _, _ = run(
        ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(caps), "--mix", "revloc=1", "--out", str(ift)],
        capsys,
    )
    assert code == 0
    _, rows = read_records(ift)
    _, cap_rows = read_records(requests)
    captioned_ids = {r["sample_id"].split(":cap:")[0] + ":" + r["sample_id"].split(":cap:")[1] for r in cap_rows}
    described = [r for r in rows if r["descriptor"] not in {"", None} and " " in r["descriptor"]]
    assert described, "mock captions should replace bare categories"


def test_query_random_reproducible(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert run(["query", "--records", str(bench), "--mock", "random", "--seed", "7", "--out", str(r1)], capsys)[0] == 0
    assert run(["query", "--records", str(bench), "--mock", "random", "--seed", "7", "--out", str(r2)], capsys)[0] == 0
    assert sha(r1) == sha(r2)


def test_evaluate_empty_responses_exits_4(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(["evaluate", "--records", str(bench), "--responses", str(empty)], capsys)
    assert code == 4


def test_evaluate_majority_missing_exits_4(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    responses = tmp_path / "resp.jsonl"
    run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(responses)], capsys)
    meta, rows = read_records(responses)
    write_records(responses, rows[: len(rows) // 4], meta["config"], meta["kind"])  # a quarter of the responses
    code, _, err = run(["evaluate", "--records", str(bench), "--responses", str(responses)], capsys)
    assert code == 4 and "lack responses" in err


def _mark_errored(responses, count):
    """Rewrite ``responses`` (re-digested) with its first ``count`` rows made
    into ``status: error`` rows, as a transport failure leaves them."""
    meta, rows = read_records(responses)
    for row in rows[:count]:
        row.update(status="error", text="")
    write_records(responses, rows, meta["config"], meta["kind"])
    return [row["item_id"] for row in rows[:count]]


def test_evaluate_majority_errored_exits_4(fx, tmp_path, capsys):
    """Rows marked status: error are transport failures, not wrong answers:
    with 108 of 180 errored, evaluate aborts as it does on missing responses."""
    bench, responses = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(responses)], capsys)
    assert len(read_records(responses)[1]) == 180
    _mark_errored(responses, 108)
    report = tmp_path / "report.json"
    code, out, err = run(["evaluate", "--records", str(bench), "--responses", str(responses), "--report", str(report)], capsys)
    assert code == 4 and "108/180 records lack responses" in err
    assert "108 response(s) marked status: error" in err
    assert "All" not in out and not report.exists()


def test_evaluate_minority_errored_tallied_as_missing(fx, tmp_path, capsys):
    bench, responses = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    report, dump = tmp_path / "report.json", tmp_path / "dump.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(responses)], capsys)
    errored = set(_mark_errored(responses, 30))
    code, _, err = run(
        ["evaluate", "--records", str(bench), "--responses", str(responses), "--report", str(report), "--dump", str(dump)],
        capsys,
    )
    assert code == 0 and "30 response(s) marked status: error" in err
    payload = json.loads(report.read_text())
    assert payload["missing"] == 30 and payload["accuracy"] == 150 / 180
    assert {r["item_id"] for r in read_records(dump)[1] if r["missing"]} == errored


def test_evaluate_checks_responses_digest(fx, tmp_path, capsys):
    bench, resp = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(resp)], capsys)
    lines = resp.read_text().splitlines()
    lines[1] = lines[1].replace('"text":"', '"text":"Not so. ', 1)  # the answer edited after the fact
    resp.write_text("\n".join(lines) + "\n")
    code, out, err = run(["evaluate", "--records", str(bench), "--responses", str(resp), "--report", str(tmp_path / "r.json")], capsys)
    assert code == 3 and f"{resp}: records digest mismatch" in err
    assert not (tmp_path / "r.json").exists() and not out


def test_evaluate_dump_recount(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    resp = tmp_path / "resp.jsonl"
    report_path = tmp_path / "report.json"
    dump = tmp_path / "dump.jsonl"
    run(["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1", "--out", str(bench)], capsys)
    run(["query", "--records", str(bench), "--mock", "random", "--seed", "3", "--out", str(resp)], capsys)
    code, _, _ = run(
        ["evaluate", "--records", str(bench), "--responses", str(resp), "--report", str(report_path), "--dump", str(dump)],
        capsys,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    _, dump_rows = read_records(dump)
    recount = sum(r["correct"] for r in dump_rows) / len(dump_rows)
    assert math.isclose(recount, report["accuracy"], rel_tol=0, abs_tol=1e-12)


# ---------------- stats, verify, config ---------------- #


def test_stats_reproduces_fixture_counts(fx, tmp_path, capsys):
    out = tmp_path / "stats.json"
    code, printed, _ = run(["stats", "--corpus", str(fx / "corpus_80k.txt"), "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["total"] == 80_000
    assert payload["phrases"]["the left"]["count"] == 171
    assert payload["phrases"]["left"]["count"] == 1619
    assert "'the left': 171 (0.21%)" in printed


def test_verify_detects_tamper(fx, tmp_path, capsys):
    bench = tmp_path / "bench.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    assert run(["verify", str(bench)], capsys)[0] == 0
    lines = bench.read_text().splitlines()
    lines[1] = lines[1].replace('"gt":"yes"', '"gt":"no"', 1) if '"gt":"yes"' in lines[1] else lines[1].replace('"gt":"no"', '"gt":"yes"', 1)
    bench.write_text("\n".join(lines) + "\n")
    code, _, err = run(["verify", str(bench)], capsys)
    assert code == 3 and "digest mismatch" in err


REDUMPS = {
    "json.dumps defaults": lambda line: json.dumps(json.loads(line)),
    "blank line inserted": lambda line: line + "\n",
    "ascii-escaped": lambda line: json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")),
}


@pytest.mark.parametrize("variant", [*REDUMPS, "final newline stripped"])
def test_verify_is_byte_exact(tmp_path, capsys, variant):
    """A body that parses to the same records but is not the bytes written fails."""
    path = tmp_path / "demo.jsonl"
    rows = [{"sample_id": "a", "text": "café à gauche"}, {"sample_id": "b", "text": "x"}]
    write_records(path, rows, {"seed": 0}, "demo")
    assert run(["verify", str(path)], capsys)[0] == 0
    text = path.read_text(encoding="utf-8")
    if variant == "final newline stripped":
        text = text[:-1]
    else:
        lines = text.splitlines()
        lines[1] = REDUMPS[variant](lines[1])
        text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    assert read_records(path)[1] == rows
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and f"{path}: records digest mismatch" in err


def test_evaluate_checks_records_digest(fx, tmp_path, capsys):
    bench, resp = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2", "--out", str(bench)], capsys)
    run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(resp)], capsys)
    lines = bench.read_text().splitlines()
    lines[1] = lines[1].replace('"gt":"yes"', '"gt":"no"', 1) if '"gt":"yes"' in lines[1] else lines[1].replace('"gt":"no"', '"gt":"yes"', 1)
    bench.write_text("\n".join(lines) + "\n")
    code, out, err = run(["evaluate", "--records", str(bench), "--responses", str(resp), "--report", str(tmp_path / "r.json")], capsys)
    assert code == 3 and f"{bench}: records digest mismatch" in err
    assert not (tmp_path / "r.json").exists() and not out


@pytest.mark.parametrize("row", ['{"prompt":"x"}', '{"sample_id":"a"}'])
def test_query_record_without_id_or_prompt_exits_3(tmp_path, capsys, row):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record_type":"meta"}\n' + row + "\n")
    code, _, err = run(["query", "--records", str(path), "--mock", "oracle", "--out", str(tmp_path / "out.jsonl")], capsys)
    assert code == 3 and f"{path}: record 1: missing" in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["query --mock oracle", "query --mock random", "evaluate"])
def test_duplicate_sample_id_exits_3(spatial_run, tmp_path, capsys, command):
    bench, resp = spatial_run
    meta, rows = read_records(bench)
    dup = tmp_path / "dup.jsonl"
    write_records(dup, rows + rows[1:2], meta["config"], meta["kind"])
    out = tmp_path / "out"
    if command == "evaluate":
        args = ["evaluate", "--records", str(dup), "--responses", str(resp), "--report", str(out)]
    else:
        args = command.split() + ["--records", str(dup), "--out", str(out)]
    code, _, err = run(args, capsys)
    assert code == 3
    assert f"{dup}: record {len(rows) + 1}: duplicate sample_id {rows[1]['sample_id']!r}" in err
    assert not out.exists()


def test_evaluate_duplicate_item_id_exits_3(spatial_run, tmp_path, capsys):
    """A repeated item_id in a responses file is rejected, not resolved by keeping the last row."""
    bench, resp = spatial_run
    meta, rows = read_records(resp)
    dup = tmp_path / "dup.jsonl"
    write_records(dup, rows + [{"item_id": rows[0]["item_id"], "text": "no idea"}], meta["config"], meta["kind"])
    report = tmp_path / "report.json"
    code, out, err = run(["evaluate", "--records", str(bench), "--responses", str(dup), "--report", str(report)], capsys)
    assert code == 3
    assert f"{dup}: record {len(rows) + 1}: duplicate item_id {rows[0]['item_id']!r}" in err
    assert "All" not in out and not report.exists()


def test_query_oracle_unanswerable_record_is_per_item_error(tmp_path, capsys):
    path = tmp_path / "locpred.jsonl"
    path.write_text('{"record_type":"meta"}\n{"sample_id":"a","prompt":"x","objective":"locpred"}\n')
    out = tmp_path / "out.jsonl"
    code, _, err = run(["query", "--records", str(path), "--mock", "oracle", "--out", str(out)], capsys)
    assert code == 1  # every request failed
    assert "error for a: record lacks 'location_text'" in err
    _, rows = read_records(out)
    assert rows == [{"item_id": "a", "status": "error", "text": ""}]


def _drop_field(path, index, field):
    """Rewrite ``path`` with ``field`` removed from record ``index`` (0 = first after the meta line)."""
    meta, rows = read_records(path)
    del rows[index][field]
    write_records(path, rows, meta["config"], meta["kind"])


@pytest.mark.parametrize("target, field", [("responses", "text"), ("records", "sample_id")])
def test_evaluate_record_without_field_exits_3(spatial_run, tmp_path, capsys, target, field):
    bench, resp = spatial_run
    files = {"records": tmp_path / "bench.jsonl", "responses": tmp_path / "resp.jsonl"}
    files["records"].write_bytes(bench.read_bytes())
    files["responses"].write_bytes(resp.read_bytes())
    _drop_field(files[target], 2, field)
    code, _, err = run(["evaluate", "--records", str(files["records"]), "--responses", str(files["responses"])], capsys)
    assert code == 3 and f"{files[target]}: record 3: missing {field}" in err


class _DiskFull:
    """A file whose first write stores half its text, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("writer", ["write_records", "write_json"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.jsonl"

    def write(value):
        if writer == "write_records":
            write_records(path, [value], {"seed": 0}, "demo")
        else:
            write_json(path, value)

    write({"sample_id": "old"})
    before = path.read_bytes()
    assert sorted(tmp_path.iterdir()) == [path]
    monkeypatch.setattr(records, "open", lambda *a, **kw: _DiskFull(builtins.open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write({"sample_id": "new"})
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


# SHA-256 of every file the fixture pipeline below writes; a change that alters
# any output byte must update these on purpose.
GOLDEN_DIGESTS = {
    "capreq.jsonl": "241284240a002e47f8aae1060445a005b4bdd7ad2c3de977f5c7f7b07758bcf2",
    "capreq.report.json": "6b52f5d08214930d4d994372f978080b45771fe0fd6870e29df5ba801f955c22",
    "dump.jsonl": "adcc5e3176e7d52e87b085e25193a669833148448d6fed047f785aef88e1c774",
    "eval.json": "66291b59e261de45c3e26d7bc1dca87cb06e026f7c641e641f91a52f9a1e0da9",
    "ift.jsonl": "6505e21fc570f7dbee911ad418d2327616b4df1e26ce26969112186ca49c2b18",
    "ift.report.json": "1c7c30365e5bb4f47600492a206fb25dd8d474d54b788af66003961d8afbf3a7",
    "presence.jsonl": "f06754a83bbc00fe77ef65e5d379482dd9e3178f8cc8bd95f93b25fbc354a704",
    "presence.report.json": "efe92f9fe89ca68c3de90fdef185334a3ab607a2393a1db3b8db58a75383776f",
    "responses.jsonl": "27b240874bc9a9038ba5536a03a280859fceac7e2bcadb257a57b75d5f029b58",
    "spatial.jsonl": "0fd6bf77aa50b0b1e4dd6c68b072ef993c6c2b8681a7c05aaf7a20d89ff94407",
    "spatial.report.json": "e7fd9acdd7a1251dfaefadb1b992dc352fd97dff501b1be36242c4c31f39a6e7",
    "tracks.jsonl": "e46fa6c9cf9a539e2b07d831463c4d05c0b039c1704d566aed42ff0a68a3c93a",
    "tracks.report.json": "77b039fb93505b92cdf1c20f3c4101ac48e9c2321a53113c24694ee874eb429d",
}


def test_fixture_pipeline_golden_digests(tmp_path, monkeypatch, capsys):
    """Every build kind, an oracle query and a dumped evaluation, run on relative
    paths (configs embed them) so that the bytes do not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    assert main(["fixtures", "--out", "fx", "--seed", "0"]) == 0
    for args in (
        ["build", "ift", "--annotations", "fx/coco_50.json", "--seed", "3", "--out", "ift.jsonl"],
        ["build", "spatial-bench", "--annotations", "fx/coco_200.json", "--seed", "1", "--out", "spatial.jsonl"],
        ["build", "hallucination", "--annotations", "fx/coco_50.json", "--seed", "2", "--out", "presence.jsonl"],
        ["build", "pseudo-captions", "--annotations", "fx/coco_50.json", "--out", "capreq.jsonl"],
        ["build", "video-static", "--videos", "fx/videos.jsonl", "--out", "tracks.jsonl"],
        ["query", "--records", "spatial.jsonl", "--mock", "oracle", "--out", "responses.jsonl"],
        ["evaluate", "--records", "spatial.jsonl", "--responses", "responses.jsonl",
         "--report", "eval.json", "--dump", "dump.jsonl"],
    ):
        assert main(args) == 0, args
    written = {p.name: sha(p) for p in tmp_path.iterdir() if p.is_file()}
    assert written == GOLDEN_DIGESTS


# SHA-256 of the report and dump of the region pipeline below.
REGION_GOLDEN_DIGESTS = {
    "region_dump.jsonl": "aa49b3d635ea66002849aada69d5c9ffe7d5b355836079cdd1b95900c8852a3a",
    "region_eval.json": "dc16f51b55e6c0ae4d5da880fa07e1ccc6239fb8c1d19f0dcea982dba3094b44",
}


def test_region_pipeline_golden_digests(tmp_path, monkeypatch, capsys):
    """Region descriptions scored against responses that re-inflect the
    descriptor's words, so that alignment runs its stem stage."""
    monkeypatch.chdir(tmp_path)
    assert main(["fixtures", "--out", "fx", "--seed", "0"]) == 0
    assert main(["build", "ift", "--annotations", "fx/coco_50.json", "--mix", "revloc=1", "--out", "region.jsonl"]) == 0
    _, rows = read_records(tmp_path / "region.jsonl")
    suffixes = ("", "s", "ing", "ed", "ers", "ness")
    responses = []
    for i, row in enumerate(rows):
        words = [w + suffixes[(i + j) % len(suffixes)] for j, w in enumerate(row["descriptor"].split())]
        text = " ".join(words) if i % 3 else f"a {' '.join(reversed(words))} on the left"
        responses.append({"item_id": row["sample_id"], "text": text})
    write_records(tmp_path / "region_responses.jsonl", responses, {"kind": "region_golden"}, "responses")
    capsys.readouterr()
    assert main(["evaluate", "--records", "region.jsonl", "--responses", "region_responses.jsonl",
                 "--report", "region_eval.json", "--dump", "region_dump.jsonl"]) == 0
    assert capsys.readouterr().out.startswith("meteor_mean ")
    assert {name: sha(tmp_path / name) for name in REGION_GOLDEN_DIGESTS} == REGION_GOLDEN_DIGESTS


@pytest.fixture(scope="module")
def spatial_run(fx, tmp_path_factory):
    out = tmp_path_factory.mktemp("spatial_run")
    bench, resp = out / "bench.jsonl", out / "resp.jsonl"
    assert main(["build", "spatial-bench", "--annotations", str(fx / "coco_50.json"), "--seed", "1", "--out", str(bench)]) == 0
    assert main(["query", "--records", str(bench), "--mock", "oracle", "--out", str(resp)]) == 0
    return bench, resp


def test_query_endpoint_other_scheme_exits_2(spatial_run, tmp_path, capsys):
    bench, _ = spatial_run
    code, _, err = run(["query", "--records", str(bench), "--endpoint", "ftp://x/", "--out", str(tmp_path / "r.jsonl")], capsys)
    assert code == 2 and "'ftp://x/' is not an http:// or https:// URL" in err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        (["--attempts", "0"], "attempts must be at least 1, got 0"),
        (["--attempts", "2", "--backoff", "-1"], "backoff must be non-negative, got -1.0"),
        (["--max-inflight", "0"], "max_inflight must be at least 1, got 0"),
        (["--attempts", "2", "--backoff", "nan"], "backoff must be finite, got nan"),
        (["--attempts", "2", "--backoff", "inf"], "backoff must be finite, got inf"),
        (["--attempts", "2", "--backoff", "1e300"], "backoff 1e+300 with 2 attempts makes a retry delay above the 3600 s maximum"),
        (["--attempts", str(10**30), "--backoff", "1e-300"], f"backoff 1e-300 with {10**30} attempts makes a retry delay"),
    ],
)
def test_query_invalid_retry_settings_exit_2(spatial_run, tmp_path, capsys, settings, message):
    """Settings that would send nothing, or sleep a negative time or longer
    than the maximum delay, are refused before any request; the port-9
    endpoint is never contacted. A backoff of 1e300 used to end in an
    OverflowError traceback from ``sleep`` with exit 1."""
    bench, _ = spatial_run
    out = tmp_path / "r.jsonl"
    code, _, err = run(["query", "--records", str(bench), "--endpoint", "http://127.0.0.1:9/", *settings, "--out", str(out)], capsys)
    assert code == 2 and f"error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_query_non_finite_temperature_exits_2(spatial_run, tmp_path, capsys, value):
    """A NaN temperature used to reach the meta line as a bare ``NaN``, which
    is not JSON, and verify passed it."""
    bench, _ = spatial_run
    out = tmp_path / "r.jsonl"
    code, _, err = run(["query", "--records", str(bench), "--mock", "oracle", "--temperature", value, "--out", str(out)], capsys)
    assert code == 2 and f"error: temperature must be a finite number above 0, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("mix", ["locpred=nan", "locpred=inf,negpred=1"])
def test_build_ift_non_finite_mix_exits_2(fx, tmp_path, capsys, mix):
    """NaN or infinite ratios used to get past the ratio check and fail later,
    as a bare int conversion error or an OverflowError traceback."""
    out = tmp_path / "ift.jsonl"
    code, _, err = run(["build", "ift", "--annotations", str(fx / "coco_50.json"), "--mix", mix, "--out", str(out)], capsys)
    assert code == 2 and "error: bad --mix entry 'locpred=" in err and "ratio must be finite" in err
    assert not out.exists()


def test_build_ift_mix_ratio_above_the_maximum_exits_2(fx, tmp_path, capsys, monkeypatch):
    """A huge finite ratio used to build total * ratio task tuples before
    anything else; it is refused while the flags are parsed, so the builder
    never runs."""
    monkeypatch.setattr(cli, "build_ift_dataset", lambda *a, **k: pytest.fail("builder ran"))
    out = tmp_path / "ift.jsonl"
    code, _, err = run(["build", "ift", "--annotations", str(fx / "coco_50.json"), "--mix", "locpred=1e9", "--out", str(out)], capsys)
    assert code == 2 and "error: bad --mix entry 'locpred=1e9', ratio must be at most 100" in err
    assert not out.exists()


def test_build_ift_mix_ratio_at_the_maximum_builds(fx, tmp_path, capsys):
    out = tmp_path / "ift.jsonl"
    args = ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(out)]
    assert run([*args, "--mix", "locpred=1"], capsys)[0] == 0
    once = len(read_records(out)[1])
    assert run([*args, "--mix", "locpred=100"], capsys)[0] == 0
    assert len(read_records(out)[1]) == 100 * once


@pytest.mark.parametrize("task", ["hallucination", "region"])
def test_evaluate_task_that_does_not_fit_the_records_exits_3(spatial_run, tmp_path, capsys, task):
    """A spatial bench scored as hallucination used to end in a bare
    KeyError, and as region it printed a METEOR score of side answers
    against object names; now the first objective that does not fit is named."""
    bench, resp = spatial_run
    report = tmp_path / "report.json"
    _, rows = read_records(bench)
    code, out, err = run(
        ["evaluate", "--records", str(bench), "--responses", str(resp), "--task", task, "--report", str(report)], capsys
    )
    assert code == 3 and out == "" and not report.exists()
    assert f"schema error: {bench}: record 1: objective {rows[0]['objective']!r} is not a {task} objective" in err
    assert run(["evaluate", "--records", str(bench), "--responses", str(resp), "--task", "spatial"], capsys)[0] == 0


def test_main_turns_the_collector_off_for_the_command_only(spatial_run, tmp_path, capsys, monkeypatch):
    """Records hold no reference cycles, so a command runs with the cyclic GC
    off; main gives it back on every exit path, as the caller had it."""
    bench, resp = spatial_run
    during = []
    encode = cli.encode_bbox
    monkeypatch.setattr(cli, "encode_bbox", lambda *a: during.append(gc.isenabled()) or encode(*a))
    assert gc.isenabled()
    assert run(["encode", "--bbox", "10,120,30,145", "--dims", "512x512"], capsys)[0] == 0
    assert during == [False] and gc.isenabled()
    assert run(["encode", "--bbox", "30,120,10,145", "--dims", "512x512"], capsys)[0] == 2
    assert gc.isenabled()
    assert run(["evaluate", "--records", str(bench), "--responses", str(resp), "--task", "region"], capsys)[0] == 3
    assert gc.isenabled()
    monkeypatch.setattr(cli, "encode_bbox", lambda *a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["encode", "--bbox", "10,120,30,145", "--dims", "512x512"])
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(["encode", "--point", "1,2", "--dims", "512x512"], capsys)[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def truncate_mid_line(src, dst):
    """Copy ``src`` cut 10 bytes short, as ``head -c`` leaves an interrupted copy."""
    data = src.read_bytes()
    dst.write_bytes(data[:-10])
    return data[:-10].count(b"\n") + 1  # the line left unterminated


@pytest.mark.parametrize("command", ["verify", "query", "evaluate"])
def test_truncated_record_file_is_schema_error(spatial_run, tmp_path, capsys, command):
    bench, resp = spatial_run
    if command == "evaluate":
        cut = tmp_path / "resp.jsonl"
        line = truncate_mid_line(resp, cut)
        args = ["evaluate", "--records", str(bench), "--responses", str(cut)]
    else:
        cut = tmp_path / "bench.jsonl"
        line = truncate_mid_line(bench, cut)
        args = ["verify", str(cut)] if command == "verify" else [
            "query", "--records", str(cut), "--mock", "oracle", "--out", str(tmp_path / "out.jsonl")]
    code, _, err = run(args, capsys)
    assert code == 3
    assert f"{cut}: line {line}: not valid JSON" in err


# first lines that each lack a field the loader needs, and the field named
MISSING_FIELD_LINES = {
    "captions_50.jsonl": [
        ('{"caption": "a cup", "instance_id": "1"}', "image_id"),
        ('{"caption": "a cup", "image_id": "1"}', "instance_id"),
    ],
    "videos.jsonl": [
        ('{"video_id": "v1"}', "frames"),
        ('{"frames": {}}', "video_id"),
        ('{"video_id": "v1", "frames": {"0": [{"bbox": [0, 0, 9, 9]}]}}', "category"),
        ('{"video_id": "v1", "frames": {"0": [{"category": "cup"}]}}', "bbox"),
    ],
}


@pytest.mark.parametrize(
    "flag, name, args",
    [
        ("--captions", "captions_50.jsonl", ["build", "ift", "--annotations", "{fx}/coco_50.json"]),
        ("--videos", "videos.jsonl", ["build", "video-static"]),
        ("--videos", "videos.jsonl", ["build", "hallucination", "--annotations", "{fx}/coco_50.json"]),
    ],
)
@pytest.mark.parametrize("corruption", ["truncated", "not an object", "missing field"])
def test_corrupt_input_jsonl_is_schema_error(fx, tmp_path, capsys, flag, name, args, corruption):
    bad = tmp_path / name
    if corruption == "truncated":
        line = truncate_mid_line(fx / name, bad)
        cases = [(None, f"{bad}: line {line}: not valid JSON")]
    elif corruption == "not an object":
        cases = [("[1, 2]", f"{bad}: line 1: not a JSON object")]
    else:
        cases = [(first, f"{bad}: line 1: missing field {field!r}") for first, field in MISSING_FIELD_LINES[name]]
    argv = [a.format(fx=fx) for a in args] + [flag, str(bad), "--out", str(tmp_path / "out.jsonl")]
    for first, message in cases:
        if first is not None:
            bad.write_bytes(first.encode() + b"\n" + (fx / name).read_bytes())
        code, _, err = run(argv, capsys)
        assert code == 3 and message in err


# first lines of a video-detections file whose fields have the wrong type or value, and the message
BAD_VIDEO_LINES = [
    ('{"video_id": "v1", "frames": []}', "frames is not a JSON object"),
    ('{"video_id": "v1", "frames": {"first": []}}', "frame index 'first' is not a number"),
    ('{"video_id": "v1", "frames": {"0": {}}}', "frame 0 is not a JSON array"),
    ('{"video_id": "v1", "frames": {"0": ["cup"]}}', "detection is not a JSON object"),
    ('{"video_id": "v1", "frames": {"0": [{"category": 3, "bbox": [0, 0, 9, 9]}]}}', "category is not a string"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": "0 0 9 9"}]}}', "bbox is not an array of 4 numbers"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [0, 0, 9]}]}}', "bbox is not an array of 4 numbers"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [0, 0, "9", 9]}]}}', "bbox is not an array of 4 numbers"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [NaN, 0, 9, 9]}]}}', "bbox is not an array of 4 numbers"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [-1, 0, 9, 9]}]}}', "bad bbox: negative coordinate in (-1, 0, 9, 9)"),
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [5, 0, 1, 9]}]}}', "bad bbox: x1 > x2 in (5, 0, 1, 9)"),
]


@pytest.mark.parametrize("args", [["build", "video-static"], ["build", "hallucination", "--annotations", "{fx}/coco_50.json"]])
def test_video_detections_wrong_type_is_schema_error(fx, tmp_path, capsys, args):
    bad = tmp_path / "videos.jsonl"
    argv = [a.format(fx=fx) for a in args] + ["--videos", str(bad), "--out", str(tmp_path / "out.jsonl")]
    for first, message in BAD_VIDEO_LINES:
        bad.write_bytes(first.encode() + b"\n" + (fx / "videos.jsonl").read_bytes())
        code, _, err = run(argv, capsys)
        assert code == 3 and f"{bad}: line 1: {message}" in err, first


# first lines of a captions file whose fields have the wrong type, and the message
BAD_CAPTION_LINES = [
    ('{"item_id": 5, "text": "a cup"}', "item_id is not a string"),
    ('{"item_id": "1:cap:2", "text": 5}', "text is not a string"),
    ('{"image_id": "1", "instance_id": "2", "caption": 5}', "caption is not a string"),
]


def test_caption_field_wrong_type_is_schema_error(fx, tmp_path, capsys):
    bad = tmp_path / "captions.jsonl"
    rest = (fx / "captions_50.jsonl").read_bytes().split(b"\n", 1)[1]
    argv = ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(bad),
            "--out", str(tmp_path / "out.jsonl")]
    for first, message in BAD_CAPTION_LINES:
        bad.write_bytes(first.encode() + b"\n" + rest)
        code, _, err = run(argv, capsys)
        assert code == 3 and f"{bad}: line 1: {message}" in err, first
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [(b'[1, 2]\n', "line 2: not a JSON object"), (b'{"text": "\xff"}\n', "not valid UTF-8")],
)
def test_verify_rejects_corrupt_lines(spatial_run, tmp_path, capsys, corrupt, message):
    bench, _ = spatial_run
    lines = bench.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(lines[0] + corrupt + b"".join(lines[1:]))
    code, _, err = run(["verify", str(bench), str(bad)], capsys)
    assert code == 3 and f"{bad}: " in err and message in err and f"{bench}:" not in err


@pytest.mark.parametrize("order", ["mismatch first", "corrupt first"])
def test_verify_reports_every_file(tmp_path, capsys, order):
    """A corrupt line is its file's problem: the files around it are still checked."""
    tampered, corrupt, good = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    for path in (tampered, corrupt, good):
        write_records(path, [{"sample_id": "s", "text": "x"}], {"seed": 0}, "demo")
    tampered.write_text(tampered.read_text().replace('"text":"x"', '"text":"y"'))
    with corrupt.open("a") as fh:
        fh.write("[1]\n")
    files = [tampered, corrupt] if order == "mismatch first" else [corrupt, tampered]
    code, out, err = run(["verify", *map(str, files), str(good)], capsys)
    problems = {tampered: f"{tampered}: records digest mismatch", corrupt: f"schema error: {corrupt}: line 3: not a JSON object"}
    assert code == 3 and not out
    assert err.splitlines() == [problems[path] for path in files]


def test_verify_checks_files_after_one_it_cannot_read(tmp_path, capsys):
    good, missing, tampered = tmp_path / "a.jsonl", tmp_path / "missing.jsonl", tmp_path / "c.jsonl"
    for path in (good, tampered):
        write_records(path, [{"sample_id": "s", "text": "x"}], {"seed": 0}, "demo")
    tampered.write_text(tampered.read_text().replace('"text":"x"', '"text":"y"'))
    code, out, err = run(["verify", str(good), str(missing), str(tampered)], capsys)
    assert code == 1 and not out
    assert err.splitlines() == [f"cannot read {missing}: No such file or directory", f"{tampered}: records digest mismatch"]


LAZY_IMPORT_CHILD = """
import sys

from coordtext.cli import main

fx, out = sys.argv[1], sys.argv[2]
heavy = {"numpy", "requests", "http.client", "socket"}
deferred = {"coordtext.fixtures", "coordtext.pooling"}
class_machinery = {"dataclasses", "inspect"}
unloaded = heavy | deferred | class_machinery
assert not unloaded & set(sys.modules), "import coordtext.cli"
for args in (
    ["build", "spatial-bench", "--annotations", fx + "/coco_50.json", "--out", out + "/bench.jsonl"],
    ["query", "--records", out + "/bench.jsonl", "--mock", "oracle", "--out", out + "/resp.jsonl"],
    ["evaluate", "--records", out + "/bench.jsonl", "--responses", out + "/resp.jsonl"],
    ["verify", out + "/bench.jsonl", out + "/resp.jsonl"],
):
    assert main(args) == 0, args
    assert not unloaded & set(sys.modules), args

from coordtext.gateway import HttpTransport

HttpTransport("http://127.0.0.1:9/")
assert "socket" in sys.modules and not {"numpy", "requests", "http.client"} & set(sys.modules), "HttpTransport"

assert main(["build", "video-static", "--videos", fx + "/videos.jsonl", "--out", out + "/tracks.jsonl"]) == 0
assert "numpy" not in sys.modules, "build video-static"

from coordtext.annotations import load_instance_categories, load_label_grid
from coordtext.builders import panoptic_to_bboxes
from coordtext.pooling import spatiotemporal_pool

boxes = panoptic_to_bboxes(load_label_grid(fx + "/panoptic.grid.txt"), load_instance_categories(fx + "/panoptic.categories.json"))
assert boxes.instances
assert spatiotemporal_pool([[[1.0]], [[3.0]]]) == [[2.0], [1.0], [3.0]]
assert not {"numpy", "requests", "http.client"} & set(sys.modules), "panoptic boxes and pooling"
"""


def test_pipeline_stages_load_neither_numpy_nor_requests(fx, tmp_path):
    """build, query --mock, evaluate and verify load neither socket nor the
    fixtures and pooling modules, which the paths that need them load on
    first use. No path loads numpy, requests or http.client. The value
    types are named tuples, so no stage loads dataclasses or inspect."""
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_CHILD, str(fx), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


NUMPY_BLOCKED_CHILD = """
import sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError

from coordtext.annotations import load_instance_categories, load_label_grid
from coordtext.builders import panoptic_to_bboxes
from coordtext.cli import main
from coordtext.pooling import TokenGrid, spatiotemporal_pool

out = sys.argv[1]
assert main(["fixtures", "--out", out]) == 0
boxes = panoptic_to_bboxes(load_label_grid(out + "/panoptic.grid.txt"), load_instance_categories(out + "/panoptic.categories.json"))
assert boxes.instances and boxes.present_categories
grid = TokenGrid([[[1.0, 2.0]], [[3.0, 4.0]]])
assert grid.n_frames == 2 and spatiotemporal_pool(grid) == [[2.0, 3.0], [1.0, 2.0], [3.0, 4.0]]
"""


def test_fixtures_panoptic_boxes_and_pooling_run_without_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_CHILD, str(tmp_path / "fx")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_src_imports_only_the_standard_library():
    """coordtext has no runtime dependencies: every module imports only the
    standard library and coordtext itself."""
    src = Path(cli.__file__).parent
    imported = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert {"argparse", "json"} <= set(imported)
    outside = {name: where for name, where in imported.items() if name not in sys.stdlib_module_names}
    assert set(outside) <= {"coordtext"}, outside


def test_config_file_defaults_and_flag_override(fx, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "mix": "locpred=1"}))
    out1 = tmp_path / "a.jsonl"
    code, _, _ = run(
        ["--config", str(cfg), "build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(out1)], capsys
    )
    assert code == 0
    meta, rows = read_records(out1)
    assert meta["config"]["seed"] == 9 and meta["config"]["mix"] == "locpred=1"
    assert {r["objective"] for r in rows} == {"locpred"}
    out2 = tmp_path / "b.jsonl"
    code, _, _ = run(
        ["--config", str(cfg), "build", "ift", "--annotations", str(fx / "coco_50.json"), "--seed", "4", "--out", str(out2)],
        capsys,
    )
    assert code == 0
    meta2, _ = read_records(out2)
    assert meta2["config"]["seed"] == 4  # explicit flag wins


@pytest.mark.parametrize("config, key", [({"fn": 1}, "fn"), ({"command": "verify"}, "command"), ({"sede": 4}, "sede")])
def test_config_key_that_is_no_flag_exits_2(fx, tmp_path, capsys, config, key):
    """{"fn": 1} used to end in a TypeError traceback, as the key replaced the command's function."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.jsonl"
    cfg.write_text(json.dumps(config))
    code, stdout, err = run(["--config", str(cfg), "build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {cfg}: {key!r} is not a flag of any command\n"


@pytest.mark.parametrize(
    "config, problem",
    [
        ({"scheme": "zzz"}, "'scheme' must be one of nfp, ivb, diga for --scheme, got 'zzz'"),
        ({"form": "box"}, "'form' must be one of point, bbox for --form, got 'box'"),
        ({"seed": 1.5}, "'seed' must be an integer for --seed, got 1.5"),
        ({"seed": True}, "'seed' must be an integer for --seed, got True"),
        ({"seed": "abc"}, "'seed' must be an integer for --seed, got 'abc'"),
        ({"seed": None}, "'seed' must be an integer for --seed, got None"),
        ({"nb": [224]}, "'nb' must be an integer for --nb, got [224]"),
        ({"mix": 1}, "'mix' must be a string for --mix, got 1"),
        ({"captions": False}, "'captions' must be a string for --captions, got False"),
    ],
)
def test_config_value_its_flag_would_refuse_exits_2(fx, tmp_path, capsys, config, problem):
    """{"scheme": "zzz"} used to build a diga dataset whose meta said "zzz",
    and {"seed": 1.5} or {"seed": true} to write that seed."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.jsonl"
    cfg.write_text(json.dumps(config))
    code, stdout, err = run(["--config", str(cfg), "build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {cfg}: {problem}\n"


def test_config_store_true_flag_takes_only_a_json_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    decode = ["--config", str(cfg), "decode", "--text", "(1,2,3,4)", "--form", "bbox", "--scheme", "ivb", "--dims", "224x224"]
    for value in (1, "true", None):
        cfg.write_text(json.dumps({"lenient": value}))
        code, out, err = run(decode, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {cfg}: 'lenient' must be true or false for --lenient, got {value!r}\n"
    cfg.write_text(json.dumps({"lenient": True}))
    assert run(decode, capsys)[:2] == (0, "1.5 2.5 3.5 4.5\n")  # the strict parser refuses missing spaces
    cfg.write_text(json.dumps({"lenient": False}))
    assert run(decode, capsys)[0] == 2


def test_config_values_that_pass_as_flags_are_accepted(fx, tmp_path, capsys):
    """A number string, an int for a float flag and a key of another
    command's flag (ignored, as before) all pass."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.jsonl"
    cfg.write_text(json.dumps({"seed": "7", "scheme": "nfp", "temperature": 1, "lenient": "ignored"}))
    code, _, err = run(["--config", str(cfg), "build", "ift", "--annotations", str(fx / "coco_50.json"), "--out", str(out)], capsys)
    assert code == 0, err
    meta, _ = read_records(out)
    assert meta["config"]["seed"] == 7 and meta["config"]["scheme"] == "nfp"


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "coordtext.cli", "encode", "--bbox", "10,120,30,145", "--dims", "512x512", "--scheme", "diga"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0, 4, 3, 11, 6, 0)"


# ---------------- the objective table and evaluate's boundary ---------------- #


def _evaluate_task_choices():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    return set(next(a for a in commands["evaluate"]._actions if a.dest == "task").choices)


def test_objective_table_covers_every_emitted_objective(fx, tmp_path, capsys):
    """Every objective a builder or fixture emits has a row; --task offers
    exactly the tasks of the table, each with a scorer and one truth field;
    and the rows keep each objective's task, truth field and mock answers."""
    builds = [
        ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--mix", "locpred=1,negpred=1,revloc=1"],
        ["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1"],
        ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2"],
        ["build", "pseudo-captions", "--annotations", str(fx / "coco_50.json")],
    ]
    emitted = {row["objective"] for row in read_records(fx / "vqa.jsonl")[1]}
    for k, args in enumerate(builds):
        out = tmp_path / f"{k}.jsonl"
        assert run([*args, "--out", str(out)], capsys)[0] == 0
        emitted |= {row["objective"] for row in read_records(out)[1]}
    assert emitted == set(OBJECTIVES) - {REGION_DESCRIPTION}
    rows = {name: tuple(row) for name, row in OBJECTIVES.items()}
    assert rows == {
        "locpred": (None, "location_text", "lr"),
        "negpred": (None, None, "lr"),
        "revloc": ("region", "descriptor", "lr"),
        "region_description": ("region", "descriptor", "lr"),
        "spatial_direct": ("spatial", "gt_keyword", "axis"),
        "spatial_icl": ("spatial", "gt_keyword", "axis"),
        "hallucination": ("hallucination", "gt", "yes_no"),
        "vqa": ("vqa", "target", "lr"),
        "caption_request": (None, None, "lr"),
    }
    tasks = {row.task for row in OBJECTIVES.values()} - {None}
    assert _evaluate_task_choices() == set(cli._SCORERS) == tasks
    for task in tasks:
        assert len({row.truth for row in OBJECTIVES.values() if row.task == task}) == 1, task


@pytest.mark.parametrize(
    "record, space",
    [
        ({"objective": "spatial_direct", "axis": "ab"}, "ab"),
        ({"objective": "spatial_icl", "axis": "lr"}, "lr"),
        ({"objective": "spatial_direct"}, "lr"),
        ({"objective": "hallucination", "axis": "ab"}, "yes_no"),
        ({"objective": "locpred"}, "lr"),
        ({"objective": "vqa"}, "lr"),
        ({"objective": "no such objective"}, "lr"),
        ({"objective": ["spatial_direct"], "axis": "ab"}, "lr"),
        ({}, "lr"),
    ],
)
def test_random_mock_answer_space_comes_from_the_table(record, space):
    assert answer_space_for_record(record) == space


# a records file for each task, as (build command, record field of the ground truth)
SCORED_BUILDS = {
    "spatial": (["build", "spatial-bench", "--annotations", "{fx}/coco_50.json", "--seed", "1"], "gt_keyword"),
    "hallucination": (["build", "hallucination", "--annotations", "{fx}/coco_50.json", "--seed", "2"], "gt"),
    "region": (["build", "ift", "--annotations", "{fx}/coco_50.json", "--mix", "revloc=1"], "descriptor"),
    "vqa": (None, "target"),
}


@pytest.fixture(scope="module")
def scored_runs(fx, tmp_path_factory):
    """Records and oracle responses for each task, by task."""
    out = tmp_path_factory.mktemp("scored_runs")
    runs = {}
    for task, (args, _) in SCORED_BUILDS.items():
        records, responses = out / f"{task}.jsonl", out / f"{task}.resp.jsonl"
        if args is None:
            records.write_bytes((fx / "vqa.jsonl").read_bytes())
        else:
            assert main([a.format(fx=fx) for a in args] + ["--out", str(records)]) == 0
        assert main(["query", "--records", str(records), "--mock", "oracle", "--out", str(responses)]) == 0
        runs[task] = records, responses
    return runs


def _set_field(path, index, field, value):
    """Rewrite ``path`` with ``field`` of record ``index`` set to ``value`` (0 = first after the meta line)."""
    meta, rows = read_records(path)
    rows[index][field] = value
    write_records(path, rows, meta["config"], meta["kind"])


def _evaluate_copies(scored_runs, task, tmp_path):
    records, responses = scored_runs[task]
    copies = tmp_path / "records.jsonl", tmp_path / "responses.jsonl"
    copies[0].write_bytes(records.read_bytes())
    copies[1].write_bytes(responses.read_bytes())
    return copies


def _evaluate(copies, tmp_path, capsys, *flags):
    report = tmp_path / "report.json"
    args = ["evaluate", "--records", str(copies[0]), "--responses", str(copies[1]), "--report", str(report), *flags]
    code, out, err = run(args, capsys)
    assert not report.exists() and out == ""
    return code, err


@pytest.mark.parametrize("task", sorted(SCORED_BUILDS))
@pytest.mark.parametrize("given", [False, True], ids=["inferred", "given"])
def test_evaluate_record_without_its_ground_truth_exits_3(scored_runs, tmp_path, capsys, task, given):
    """A record without the field that holds its ground truth used to end in
    a KeyError traceback (exit 1); now the record and the field are named."""
    copies = _evaluate_copies(scored_runs, task, tmp_path)
    field = SCORED_BUILDS[task][1]
    _drop_field(copies[0], 2, field)
    code, err = _evaluate(copies, tmp_path, capsys, *(["--task", task] if given else []))
    assert code == 3 and f"schema error: {copies[0]}: record 3: missing {field}" in err


@pytest.mark.parametrize("task", sorted(SCORED_BUILDS))
@pytest.mark.parametrize("value", [5, None, ["left"]])
def test_evaluate_ground_truth_that_is_not_a_string_exits_3(scored_runs, tmp_path, capsys, task, value):
    """A number as a hallucination gt used to be scored as a wrong answer
    (exit 0); as any other truth it ended in a traceback."""
    copies = _evaluate_copies(scored_runs, task, tmp_path)
    field = SCORED_BUILDS[task][1]
    _set_field(copies[0], 2, field, value)
    code, err = _evaluate(copies, tmp_path, capsys)
    assert code == 3 and f"schema error: {copies[0]}: record 3: {field} is not a string" in err


@pytest.mark.parametrize(
    "task, value, message",
    [
        ("spatial", "front", "gt_keyword 'front' is not one of left, right, above, below"),
        ("spatial", "Left", "gt_keyword 'Left' is not one of left, right, above, below"),
        ("hallucination", "maybe", "gt 'maybe' is not one of yes, no"),
        ("hallucination", "Yes", "gt 'Yes' is not one of yes, no"),
    ],
)
def test_evaluate_ground_truth_outside_the_scorers_values_exits_3(scored_runs, tmp_path, capsys, task, value, message):
    """A side keyword such as "front" used to end in ``KeyError: 'front'``,
    and a presence gt of "maybe" was scored as a wrong answer, with a report
    written and exit 0."""
    copies = _evaluate_copies(scored_runs, task, tmp_path)
    _set_field(copies[0], 2, SCORED_BUILDS[task][1], value)
    code, err = _evaluate(copies, tmp_path, capsys)
    assert code == 3 and f"schema error: {copies[0]}: record 3: {message}" in err


@pytest.mark.parametrize(
    "target, field, value",
    [
        ("records", "sample_id", ["a"]),
        ("records", "sample_id", 7),
        ("records", "objective", ["spatial_direct"]),
        ("responses", "item_id", ["a"]),
        ("responses", "text", 5),
        ("responses", "text", None),
    ],
)
def test_evaluate_id_or_text_that_is_not_a_string_exits_3(scored_runs, tmp_path, capsys, target, field, value):
    """A list sample_id or item_id used to end in ``TypeError: unhashable
    type``, and a number as text in an AttributeError from the scorer."""
    copies = _evaluate_copies(scored_runs, "spatial", tmp_path)
    path = copies[0] if target == "records" else copies[1]
    _set_field(path, 2, field, value)
    code, err = _evaluate(copies, tmp_path, capsys)
    assert code == 3 and f"schema error: {path}: record 3: {field} is not a string" in err


@pytest.mark.parametrize("mock", ["oracle", "random"])
@pytest.mark.parametrize(
    "row, field",
    [
        ('{"sample_id":["b"],"prompt":"y"}', "sample_id"),
        ('{"sample_id":"b","prompt":5,"objective":"spatial_direct","descriptor":"cup","gt_keyword":"left"}', "prompt"),
    ],
)
def test_query_id_or_prompt_that_is_not_a_string_exits_3(tmp_path, capsys, mock, row, field):
    """A list sample_id used to end in ``TypeError: unhashable type``, and a
    number as a side question's prompt in an AttributeError from the oracle."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record_type":"meta"}\n{"sample_id":"a","prompt":"x"}\n' + row + "\n")
    out = tmp_path / "out.jsonl"
    code, _, err = run(["query", "--records", str(path), "--mock", mock, "--out", str(out)], capsys)
    assert code == 3 and f"schema error: {path}: record 2: {field} is not a string" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[1]\n", "not a JSON object"),
        (b'"seed"\n', "not a JSON object"),
        (b'{"seed": "\xff"}\n', "'utf-8' codec can't decode byte 0xff"),
        (b'{"seed": \n', "Expecting value"),
    ],
)
def test_config_file_that_is_not_a_json_object_exits_3(tmp_path, capsys, content, message):
    """A JSON value other than an object used to end in ``TypeError: ...
    must be a mapping``, and bytes that are not UTF-8 in a UnicodeDecodeError."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = run(["--config", str(cfg), "encode", "--bbox", "10,120,30,145", "--dims", "512x512"], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"schema error: {cfg}: ") and message in err


def test_config_file_that_cannot_be_read_exits_1(tmp_path, capsys):
    """A directory given as --config used to end in an IsADirectoryError traceback."""
    code, out, err = run(["--config", str(tmp_path), "encode", "--bbox", "10,120,30,145", "--dims", "512x512"], capsys)
    assert code == 1 and out == "" and err.startswith("i/o error: ") and str(tmp_path) in err
    missing = tmp_path / "missing.json"
    code, _, err = run(["--config", str(missing), "encode", "--bbox", "10,120,30,145", "--dims", "512x512"], capsys)
    assert code == 1 and f"cannot read {missing}: No such file or directory" in err


def test_gateway_max_inflight_is_read_by_query_only(spatial_run, tmp_path, capsys, monkeypatch):
    """GATEWAY_MAX_INFLIGHT=abc used to stop every command, verify included,
    with a ValueError traceback while the parser was built. Now only query
    converts it, and a bad value is a usage error."""
    bench, resp = spatial_run
    out = tmp_path / "r.jsonl"
    query = ["query", "--records", str(bench), "--mock", "oracle", "--out", str(out)]
    monkeypatch.setenv("GATEWAY_MAX_INFLIGHT", "abc")
    assert run(["verify", str(bench), str(resp)], capsys)[0] == 0
    with pytest.raises(SystemExit) as exit_info:
        main(query)
    assert exit_info.value.code == 2
    assert "argument --max-inflight: invalid int value: 'abc'" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("GATEWAY_MAX_INFLIGHT", "3")
    assert run(query, capsys)[0] == 0
    assert read_records(out)[0]["config"]["max_inflight"] == 3
