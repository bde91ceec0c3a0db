"""CLI tests: exit codes, end-to-end pipelines, and byte-level reproducibility."""

import ast
import builtins
import gc
import hashlib
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from coordtext import builders, cli, coords, evals, gateway, records
from coordtext.cli import main
from coordtext.gateway import answer_space_for_record
from coordtext.prompts import OBJECTIVES, REGION_DESCRIPTION
from coordtext.records import read_records, write_json, write_records
from test_gateway import http_server


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


@pytest.mark.parametrize(
    "args, message",
    [
        (["encode", "--bbox", "10,120,30,145", "--decimals", "641"], "nfp takes at most 640 decimal places, got 641"),
        (["encode", "--bbox", "10,120,30,145", "--decimals", "4301"], "nfp takes at most 640 decimal places, got 4301"),
        (
            ["decode", "--text", "(0.5, 0.5)", "--form", "point", "--decimals", "5000000000"],
            "nfp takes at most 640 decimal places, got 5000000000",
        ),
    ],
    ids=["encode 641", "encode 4301", "decode 5e9"],
)
def test_nfp_decimals_above_the_maximum_exit_2(capsys, args, message):
    """Decimals past the maximum used to fail in Python's int-to-text
    conversion (exit 2 naming no flag) or as an OverflowError traceback from
    re (exit 1)."""
    code, out, err = run([*args, "--scheme", "nfp", "--dims", "512x512"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------- build ---------------- #


@pytest.mark.parametrize("grid, patch", [(-16, -14), (-24, -14), (0, 14)])
def test_build_ift_diga_grid_or_patch_below_one_exits_2(fx, tmp_path, capsys, grid, patch):
    """A negative grid and patch whose product is 224 or 336 used to pass the
    square check and write records whose diga text decode refuses."""
    out = tmp_path / "ift.jsonl"
    code, _, err = run(
        ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--scheme", "diga",
         "--grid", str(grid), "--patch", str(patch), "--out", str(out)],
        capsys,
    )
    assert code == 2 and err == f"error: diga grid and patch must be positive, got grid {grid}, patch {patch}\n"
    assert not out.exists()


def test_build_hallucination_negative_per_media_exits_2(fx, tmp_path, capsys):
    """A negative count used to reach random.sample, whose message named no count."""
    out = tmp_path / "hal.jsonl"
    code, _, err = run(
        ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--per-media", "-1", "--out", str(out)],
        capsys,
    )
    assert code == 2 and err == "error: per_media must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, tally",
    [("bbox", "not a box", "invalid_bbox"), ("image_id", "no such image", "unknown_image"),
     ("category_id", 10**6, "unknown_category")],
)
def test_build_hallucination_report_tallies_skipped_annotations(fx, tmp_path, capsys, field, value, tally):
    """The report of build hallucination --annotations tallies the annotations
    that the COCO loader skipped, as every other build from annotations does;
    those of --disjoint-from, which only names base classes, are not tallied."""
    data = json.loads((fx / "coco_50.json").read_text())
    data["annotations"][0][field] = value
    bad = tmp_path / "coco.json"
    bad.write_text(json.dumps(data))
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("pylon\nawning\n")
    out = tmp_path / "hal.jsonl"
    report = out.with_suffix(".report.json")
    code, _, err = run(["build", "hallucination", "--annotations", str(bad), "--out", str(out)], capsys)
    assert code == 0, err
    assert json.loads(report.read_text())["exclusions"][tally] == 1
    argv = ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--vocab-file", str(vocab),
            "--disjoint-from", str(bad), "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert tally not in json.loads(report.read_text())["exclusions"]


@pytest.mark.parametrize("frames", ["0", "-3"])
def test_build_video_static_frames_below_one_exits_2(fx, tmp_path, capsys, frames):
    """A frame count below 1 used to exit 2 blaming the first detection's frame
    (``frame index 0 outside [0, 0)``), and a file whose videos hold no
    detections, or that holds no video, was accepted with exit 0. The count
    is checked before the file is read."""
    no_detections = tmp_path / "no_detections.jsonl"
    no_detections.write_text('{"video_id": "v1", "frames": {}}\n', encoding="utf-8")
    no_videos = tmp_path / "no_videos.jsonl"
    no_videos.write_text("", encoding="utf-8")
    for videos in (fx / "videos.jsonl", no_detections, no_videos):
        out = tmp_path / "tracks.jsonl"
        code, _, err = run(["build", "video-static", "--videos", str(videos), "--frames", frames, "--out", str(out)], capsys)
        assert code == 2 and err == f"error: frame count must be at least 1, got {frames} (--frames)\n"
        assert not out.exists()


@pytest.mark.parametrize("captions", [False, True], ids=["annotations", "captions"])
def test_build_ift_counts_match_oracle(fx, tmp_path, capsys, captions):
    """The report counts the images loaded and the records written. With
    --captions, the caption step drops every image that repeats a category
    and tallies it; its counts used to be added to the build's."""
    out = tmp_path / "ift.jsonl"
    argv = ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--seed", "3", "--out", str(out)]
    code, _, _ = run(argv + (["--captions", str(fx / "captions_50.jsonl")] if captions else []), capsys)
    assert code == 0
    meta, rows = read_records(out)
    data = json.loads((fx / "coco_50.json").read_text())
    cats = {c["id"]: c["name"] for c in data["categories"]}
    per_image = Counter()
    for a in data["annotations"]:
        per_image[(a["image_id"], cats[a["category_id"]])] += 1
    repeating = {image_id for (image_id, _), count in per_image.items() if count > 1}
    eligible = sum(
        1 for (image_id, _), count in per_image.items() if count == 1 and not (captions and image_id in repeating)
    )
    by_objective = Counter(r["objective"] for r in rows)
    assert by_objective["locpred"] == eligible
    assert by_objective["revloc"] == eligible
    assert by_objective["negpred"] == eligible
    assert meta["count"] == len(rows)
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["input_count"] == len(data["images"])
    assert report["emitted_count"] == len(rows)
    assert report["exclusions"].get("images_with_duplicate_category", 0) == (len(repeating) if captions else 0)


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
        if row["objective"] == "locpred":
            pair = render_locpred(row["descriptor"], row["form"], row["location_text"], row["seed"])
        elif row["objective"] == "revloc":
            pair = render_revloc(row["location_text"], row["descriptor"], row["seed"])
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
    first = read_records(bench)[1][0]["sample_id"]
    assert code == 4 and f"missing response for {first}\n" in err and "records lack responses" in err


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


def test_evaluate_refuses_responses_to_other_records(fx, tmp_path, capsys):
    """Seeds 0 and 1 give the same sample ids and ground truth, but other
    questions; the oracle's answers to seed 0 used to score "All 100.0" as
    answers to seed 1. The responses' meta config names the records that
    query read, and their records digests differ."""
    bench0, bench1, resp = tmp_path / "h0.jsonl", tmp_path / "h1.jsonl", tmp_path / "resp.jsonl"
    for seed, bench in enumerate((bench0, bench1)):
        args = ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", str(seed)]
        assert run([*args, "--out", str(bench)], capsys)[0] == 0
    assert run(["query", "--records", str(bench0), "--mock", "oracle", "--out", str(resp)], capsys)[0] == 0
    digests = [read_records(bench)[0]["records_digest"] for bench in (bench0, bench1)]
    assert digests[0] != digests[1]
    report = tmp_path / "report.json"
    code, out, err = run(["evaluate", "--records", str(bench1), "--responses", str(resp), "--report", str(report)], capsys)
    assert code == 3 and not out and not report.exists()
    assert err == (f"schema error: {resp} answers {bench0}, records digest {digests[0]},"
                   f" not {bench1}, records digest {digests[1]}\n")
    code, out, err = run(["evaluate", "--records", str(bench0), "--responses", str(resp)], capsys)
    assert (code, out, err) == (0, "All 100.0\n", "")


@pytest.mark.parametrize(
    "config", [{"records": "moved-away.jsonl"}, {"paraphrase_of": "oracle.jsonl"}, {"records": "nul\x00.jsonl"}]
)
def test_evaluate_says_when_it_cannot_check_the_pairing(fx, tmp_path, capsys, config):
    """Responses whose config names no record file that can be read here
    are scored, with one stderr line saying the pairing is unchecked. A path
    with a NUL byte names no file."""
    bench, resp = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    assert run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--out", str(bench)], capsys)[0] == 0
    assert run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(resp)], capsys)[0] == 0
    write_records(resp, read_records(resp)[1], config, "responses")
    code, out, err = run(["evaluate", "--records", str(bench), "--responses", str(resp)], capsys)
    assert code == 0 and out.startswith("All 100.0")
    source = config.get("records")
    assert err == f"{resp}: pairing with {bench} unchecked: no records digests to compare (its config's records: {source!r})\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_evaluate_does_not_read_a_fifo_named_as_the_records(fx, tmp_path, capsys):
    """Only a regular file is read for the pairing check: opening a FIFO that
    no process writes to would block evaluate for good."""
    bench, resp, fifo = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl", tmp_path / "fifo.jsonl"
    assert run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--out", str(bench)], capsys)[0] == 0
    assert run(["query", "--records", str(bench), "--mock", "oracle", "--out", str(resp)], capsys)[0] == 0
    write_records(resp, read_records(resp)[1], {"records": str(fifo)}, "responses")
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "coordtext.cli", "evaluate", "--records", str(bench), "--responses", str(resp)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("All 100.0")
    assert proc.stderr == (f"{resp}: pairing with {bench} unchecked: no records digests to compare"
                           f" (its config's records: {str(fifo)!r})\n")


def _cli_in(cwd, *argv, timeout=30):
    """Run the CLI in a child process whose working directory is ``cwd``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "coordtext.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


@contextmanager
def _fed_fifo(path, data: bytes):
    """A FIFO at ``path`` that a thread fills with ``data`` once a reader opens it."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield
    finally:
        if writer.is_alive():  # a writer no one read to the end: open and drop a reader to release it
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)


FIFO_RUNS = {
    "verify records": (["verify", "s.jsonl"], "s.jsonl", None),
    "verify responses": (["verify", "r.jsonl"], "r.jsonl", None),
    "query records": (["query", "--records", "s.jsonl", "--mock", "oracle", "--out", "out.jsonl"], "s.jsonl", "out.jsonl"),
    "evaluate records": (["evaluate", "--records", "s.jsonl", "--responses", "r.jsonl", "--report", "out.json"],
                         "s.jsonl", "out.json"),
    "evaluate responses": (["evaluate", "--records", "s.jsonl", "--responses", "r.jsonl", "--report", "out.json"],
                           "r.jsonl", "out.json"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("name", FIFO_RUNS)
def test_a_record_file_may_be_a_fifo(fx, tmp_path, capsys, name):
    """Each record file is read once, so a FIFO (or a pipe, as from a shell's
    ``<(cat s.jsonl)``) serves as well as the regular file it carries: the
    same exit code, stdout and output bytes. Reading a record file a second
    time for its digest made verify block on a FIFO and report a digest
    mismatch on a pipe."""
    argv, piped, out = FIFO_RUNS[name]
    regular, fifo_dir = tmp_path / "regular", tmp_path / "fifo"
    regular.mkdir()
    fifo_dir.mkdir()
    assert run(["build", "spatial-bench", "--annotations", str(fx / "coco_50.json"), "--out", str(regular / "s.jsonl")],
               capsys)[0] == 0
    assert run(["query", "--records", str(regular / "s.jsonl"), "--mock", "oracle", "--out", str(regular / "r.jsonl")],
               capsys)[0] == 0
    for kept in {"s.jsonl", "r.jsonl"} - {piped}:
        (fifo_dir / kept).write_bytes((regular / kept).read_bytes())
    expected = _cli_in(regular, *argv)
    with _fed_fifo(fifo_dir / piped, (regular / piped).read_bytes()):
        proc = _cli_in(fifo_dir, *argv)
    assert expected.returncode == proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.stdout
    if out:
        assert (fifo_dir / out).read_bytes() == (regular / out).read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_fed_a_tampered_body_fails_verify(fx, tmp_path, capsys):
    bench = tmp_path / "s.jsonl"
    assert run(["build", "spatial-bench", "--annotations", str(fx / "coco_50.json"), "--out", str(bench)], capsys)[0] == 0
    meta, first, *rest = bench.read_bytes().splitlines(keepends=True)
    with _fed_fifo(tmp_path / "fifo.jsonl", b"".join([meta, first.replace(b'"seed":', b'"seed": '), *rest])):
        proc = _cli_in(tmp_path, "verify", "fifo.jsonl")
    assert proc.returncode == 3 and proc.stderr == "fifo.jsonl: records digest mismatch\n"


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
    assert [json.loads(line) for line in text.splitlines()[1:] if line] == rows
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
    write_records(path, [json.loads(row)], {"seed": 0}, "demo")
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
    write_records(path, [{"sample_id": "a", "prompt": "x", "objective": "locpred"}], {"seed": 0}, "demo")
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


def test_scheduling_flags_keep_the_answers_bytes(fx, tmp_path, capsys):
    """How many requests are in flight and how often one is tried change the
    meta line's config, never the answers: each setting writes the same
    records digest, also when some requests are answered only on a retry."""
    bench = tmp_path / "bench.jsonl"
    assert run(["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--out", str(bench)], capsys)[0] == 0
    flaky = {row["sample_id"] for row in read_records(bench)[1][::100]}
    digests, configs = set(), []
    for inflight in ("1", "4"):
        for attempts in ("2", "3"):
            tries, lock = Counter(), threading.Lock()

            def answer(body):
                rid = body["request_id"]
                with lock:
                    tries[rid] += 1
                    first = tries[rid] == 1
                if rid in flaky and first:
                    return 503, {"request_id": rid, "error": "busy"}
                return 200, {"request_id": rid, "text": f"{rid}: {body['prompt'][-24:]}"}

            out = tmp_path / f"r-{inflight}-{attempts}.jsonl"
            with http_server(answer) as (endpoint, _):
                code, _, err = run(["query", "--records", str(bench), "--endpoint", endpoint, "--max-inflight", inflight,
                                    "--attempts", attempts, "--backoff", "0.001", "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            assert {rid for rid, n in tries.items() if n > 1} == flaky and max(tries.values()) == 2
            meta = records.read_meta(out)
            digests.add(meta["records_digest"])
            configs.append((meta["config"]["max_inflight"], meta["config"]["attempts"]))
    assert len(digests) == 1
    assert configs == [(1, 2), (1, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_query_non_finite_temperature_exits_2(spatial_run, tmp_path, capsys, value):
    """A NaN temperature used to reach the meta line as a bare ``NaN``, which
    is not JSON, and verify passed it."""
    bench, _ = spatial_run
    out = tmp_path / "r.jsonl"
    code, _, err = run(["query", "--records", str(bench), "--mock", "oracle", "--temperature", value, "--out", str(out)], capsys)
    assert code == 2 and f"error: temperature must be a finite number above 0, got {value}" in err
    assert not out.exists()


# each signal that main handles, with its exit code and stderr line
SIGNALS = pytest.mark.parametrize(
    "signum, code, line",
    [(signal.SIGINT, 130, "interrupted by SIGINT"), (signal.SIGTERM, 143, "terminated by SIGTERM")],
    ids=["SIGINT", "SIGTERM"],
)


@SIGNALS
def test_query_stopped_by_a_signal_exits_with_its_code(spatial_run, tmp_path, signum, code, line):
    """A query waiting on a server that accepts its connection and never
    replies is signalled: it exits 128 + the signal's number with one stderr
    line, and leaves neither its output nor a temporary file. SIGINT used to
    end in a KeyboardInterrupt traceback, and neither code was documented."""
    bench, _ = spatial_run
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(30)
        endpoint = f"http://127.0.0.1:{server.getsockname()[1]}/"
        argv = ["query", "--records", str(bench), "--endpoint", endpoint, "--max-inflight", "1",
                "--attempts", "1", "--out", str(out_dir / "r.jsonl")]
        with subprocess.Popen([sys.executable, "-m", "coordtext.cli", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            try:
                connection, _ = server.accept()  # the child has sent its first request
                with connection:
                    child.send_signal(signum)
                    stdout, stderr = child.communicate(timeout=30)
            finally:
                child.kill()  # does nothing once the child has exited
    assert (child.returncode, stdout, stderr) == (code, "", line + "\n")
    assert list(out_dir.iterdir()) == []


@SIGNALS
def test_file_batch_query_stopped_by_a_signal_keeps_its_request_file(spatial_run, tmp_path, signum, code, line):
    """In file-batch mode query waits for the runner's reply in the main
    thread; stopped there, it exits the same way, writes no output, and
    leaves its request file for the runner and for a rerun."""
    bench, _ = spatial_run
    out, batch = tmp_path / "r.jsonl", tmp_path / "batch"
    argv = ["query", "--records", str(bench), "--batch-dir", str(batch), "--out", str(out)]
    with subprocess.Popen([sys.executable, "-m", "coordtext.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            deadline = time.monotonic() + 30
            while not any(batch.glob("*.req.jsonl")) and time.monotonic() < deadline:
                time.sleep(0.01)
            child.send_signal(signum)
            stdout, stderr = child.communicate(timeout=30)
        finally:
            child.kill()  # does nothing once the child has exited
    assert (child.returncode, stdout, stderr) == (code, "", line + "\n")
    assert not out.exists()
    assert [path.name.endswith(".req.jsonl") for path in batch.iterdir()] == [True]


def test_main_restores_the_sigterm_handler(capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert run(["encode", "--point", "1,2", "--dims", "8x8"], capsys)[0] == 0
    assert run(["encode", "--point", "1,2", "--dims", "0x8"], capsys)[0] == 2
    assert signal.getsignal(signal.SIGTERM) is before


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
    monkeypatch.setattr(builders, "build_ift_dataset", lambda *a, **k: pytest.fail("builder ran"))
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


@pytest.mark.parametrize(
    "mix, problem",
    [
        ("bogus=1", "entry 'bogus=1', objective must be one of locpred, negpred, revloc"),
        ("locpred=1,mystery=2", "entry 'mystery=2', objective must be one of locpred, negpred, revloc"),
        ("locpred=-1", "entry 'locpred=-1', ratio must not be negative"),
        ("locpred=101", "entry 'locpred=101', ratio must be at most 100"),
        ("locpred=0", "'locpred=0', ratios must add up to more than 0"),
        ("locpred=0,negpred=0,revloc=0", "'locpred=0,negpred=0,revloc=0', ratios must add up to more than 0"),
        ("locpred=1,locpred=2", "entry 'locpred=2', objective locpred is already given"),
        ("locpred=1,negpred=1, locpred =0", "entry ' locpred =0', objective locpred is already given"),
        ("locpred=abc", "entry 'locpred=abc', ratio must be a number"),
        ("negpred=1,revloc=1e", "entry 'revloc=1e', ratio must be a number"),
    ],
)
def test_build_ift_mix_refusal_names_the_flag(fx, tmp_path, capsys, monkeypatch, mix, problem):
    """An unknown objective, a negative ratio and ratios adding up to 0 used
    to pass the flag's parsing and exit 2 with the builder's messages
    (``unknown objectives in mix``, ``mix ratios must lie in [0, 100] with a
    positive sum``), which named no flag. ``--mix`` alone checks them now.
    A repeated objective used to build with its last ratio, and a ratio that
    is no number exited 2 with float's message, which named neither the
    flag nor the entry."""
    monkeypatch.setattr(builders, "build_ift_dataset", lambda *a, **k: pytest.fail("builder ran"))
    out = tmp_path / "ift.jsonl"
    code, printed, err = run(["build", "ift", "--annotations", str(fx / "coco_50.json"), "--mix", mix, "--out", str(out)], capsys)
    assert (code, printed, err) == (2, "", f"error: bad --mix {problem}\n")
    assert not out.exists()


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
    encode = coords.encode_bbox
    monkeypatch.setattr(coords, "encode_bbox", lambda *a: during.append(gc.isenabled()) or encode(*a))
    assert gc.isenabled()
    assert run(["encode", "--bbox", "10,120,30,145", "--dims", "512x512"], capsys)[0] == 0
    assert during == [False] and gc.isenabled()
    assert run(["encode", "--bbox", "30,120,10,145", "--dims", "512x512"], capsys)[0] == 2
    assert gc.isenabled()
    assert run(["evaluate", "--records", str(bench), "--responses", str(resp), "--task", "region"], capsys)[0] == 3
    assert gc.isenabled()
    monkeypatch.setattr(coords, "encode_bbox", lambda *a: 1 / 0)
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
@pytest.mark.parametrize("corruption", ["truncated", "not an object", "nested too deep", "missing field"])
def test_corrupt_input_jsonl_is_schema_error(fx, tmp_path, capsys, flag, name, args, corruption):
    bad = tmp_path / name
    if corruption == "truncated":
        line = truncate_mid_line(fx / name, bad)
        cases = [(None, f"{bad}: line {line}: not valid JSON")]
    elif corruption == "not an object":
        cases = [("[1, 2]", f"{bad}: line 1: not a JSON object")]
    elif corruption == "nested too deep":
        cases = [("[" * 100_000 + "]" * 100_000, f"{bad}: line 1: not valid JSON: maximum recursion depth exceeded")]
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
    ('{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": [0, 0, 1%s, 1]}]}}' % ("0" * 400),
     "bad bbox: int too large to convert to float"),
    ('{"video_id": null, "frames": {}}', "video_id is not a string or an integer"),
    ('{"video_id": ["a"], "frames": {}}', "video_id is not a string or an integer"),
    ('{"video_id": "v1", "frames": {"1": [{"category": "cup", "bbox": [0, 0, 9, 9]}], '
     '"01": [{"category": "pen", "bbox": [0, 0, 9, 9]}]}}', "frame index '01' repeats frame index '1'"),
]


@pytest.mark.parametrize("args", [["build", "video-static"], ["build", "hallucination", "--annotations", "{fx}/coco_50.json"]])
def test_video_detections_wrong_type_is_schema_error(fx, tmp_path, capsys, args):
    bad = tmp_path / "videos.jsonl"
    argv = [a.format(fx=fx) for a in args] + ["--videos", str(bad), "--out", str(tmp_path / "out.jsonl")]
    for first, message in BAD_VIDEO_LINES:
        bad.write_bytes(first.encode() + b"\n" + (fx / "videos.jsonl").read_bytes())
        code, _, err = run(argv, capsys)
        assert code == 3 and f"{bad}: line 1: {message}" in err, first


@pytest.mark.parametrize("args", [["build", "video-static"], ["build", "hallucination", "--annotations", "{fx}/coco_50.json"]])
def test_video_detections_repeated_video_id_exits_3(fx, tmp_path, capsys, args):
    """A second line with a video's id used to replace the first line's
    detections without a word."""
    videos, out = tmp_path / "videos.jsonl", tmp_path / "out.jsonl"
    videos.write_bytes(b'{"video_id": "vid00000", "frames": {}}\n' + (fx / "videos.jsonl").read_bytes())
    code, _, err = run([a.format(fx=fx) for a in args] + ["--videos", str(videos), "--out", str(out)], capsys)
    assert (code, err) == (3, f"schema error: {videos}: line 2: video_id 'vid00000' repeats line 1\n")
    assert not out.exists()


def test_video_static_averaged_box_past_a_float_s_range_exits_3(tmp_path, capsys):
    """Two finite boxes whose mean overflows used to exit 2 with "Out of range
    float values are not JSON compliant", naming nothing. (An integer past a
    float's range, which ended in an OverflowError traceback, is a
    BAD_VIDEO_LINES row.) A large integer that a float holds stays an integer."""
    videos, out = tmp_path / "videos.jsonl", tmp_path / "tracks.jsonl"
    argv = ["build", "video-static", "--videos", str(videos), "--out", str(out)]

    def write(*boxes):
        frames = {str(f): [{"category": "cup", "bbox": box}] for f, box in enumerate(boxes)}
        videos.write_text(json.dumps({"video_id": "v1", "frames": frames}) + "\n")

    write([0, 0, 1.7e308, 1], [0, 0, 1.7e308, 1])
    problem = "video 'v1': category 'cup': averaged box is past a float's range"
    assert run(argv, capsys) == (3, "", f"schema error: {videos}: {problem}\n")
    assert not out.exists()
    write([0, 0, 10**300, 1])
    assert run(argv, capsys)[0] == 0
    assert read_records(out)[1][0]["frames"]["0"] == [0, 0, 10**300, 1]


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


@pytest.mark.parametrize("field", ["image_id", "instance_id"])
def test_caption_id_that_is_not_a_string_or_integer_exits_3(fx, tmp_path, capsys, field):
    """str() used to turn a null id into "None", and the build went on."""
    bad = tmp_path / "captions.jsonl"
    row = {"image_id": "im0000", "instance_id": "im0000.o0", "caption": "a cup", field: None}
    rest = (fx / "captions_50.jsonl").read_bytes().split(b"\n", 1)[1]
    bad.write_bytes(json.dumps(row).encode() + b"\n" + rest)
    out = tmp_path / "out.jsonl"
    code, _, err = run(["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(bad),
                        "--out", str(out)], capsys)
    assert code == 3 and f"{bad}: line 1: {field} is not a string or an integer" in err
    assert not out.exists()


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
import json
import sys
import types

from coordtext.cli import main

fx, out, (args, idle) = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
heavy = {"numpy", "requests", "http.client", "socket"}
deferred = {"coordtext.fixtures"}
class_machinery = {"dataclasses", "inspect"}
unloaded = heavy | deferred | class_machinery
layers = {"annotations", "builders", "coords", "evals", "gateway", "meteor", "prompts", "records", "seeding"}


def not_run():
    # a layer is registered at import and becomes a plain module when it first runs
    return {name for name in layers if type(sys.modules["coordtext." + name]) is not types.ModuleType}


assert not unloaded & set(sys.modules), "import coordtext.cli"
assert not_run() == layers - {"records"}, ("import coordtext.cli", sorted(layers - not_run()))
assert main(args) == 0, args
assert not unloaded & set(sys.modules), args
assert set(idle) <= not_run(), (args, sorted(layers - not_run()))

from coordtext.gateway import HttpTransport

HttpTransport("http://127.0.0.1:9/")
assert "socket" in sys.modules and not {"numpy", "requests", "http.client"} & set(sys.modules), "HttpTransport"

assert main(["build", "video-static", "--videos", fx + "/videos.jsonl", "--out", out + "/tracks.jsonl"]) == 0
assert "numpy" not in sys.modules, "build video-static"
"""

# Each stage of a pipeline, in order, with the layers it must leave unrun.
LAZY_STAGES = (
    (["build", "spatial-bench", "--annotations", "{fx}/coco_50.json", "--out", "{out}/bench.jsonl"],
     ["evals", "gateway", "meteor"]),
    (["query", "--records", "{out}/bench.jsonl", "--mock", "oracle", "--out", "{out}/resp.jsonl"],
     ["annotations", "builders", "coords", "evals", "meteor"]),
    (["evaluate", "--records", "{out}/bench.jsonl", "--responses", "{out}/resp.jsonl"],
     ["annotations", "builders", "coords", "gateway"]),
    (["verify", "{out}/bench.jsonl", "{out}/resp.jsonl"],
     ["annotations", "builders", "coords", "evals", "gateway", "meteor", "prompts", "seeding"]),
)


def test_pipeline_stages_load_neither_numpy_nor_requests(fx, tmp_path):
    """Each stage, in a fresh interpreter, runs only the layers it calls:
    verify runs records alone, and query --mock and evaluate leave the codec
    (coords) unrun. build, query --mock, evaluate and verify load
    neither socket nor the fixtures module, which the paths that need them
    load on first use. No path loads numpy, requests or http.client. The
    value types are named tuples, so no stage loads dataclasses or inspect."""
    for args, idle in LAZY_STAGES:
        args = [arg.format(fx=fx, out=tmp_path) for arg in args]
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_CHILD, str(fx), str(tmp_path), json.dumps([args, idle])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


PACKAGE_LAYERS = ("annotations", "builders", "coords", "evals", "gateway", "meteor", "prompts", "records", "seeding")
# In a fresh interpreter, the names that ``import coordtext`` defines in the
# package: not private, not set by the import system, not a module of the
# standard library that the package imports.
PACKAGE_NAMES_CHILD = """
import json, types, coordtext
IMPORT_SYSTEM = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__",
                 "__path__", "__spec__"}
print(json.dumps(sorted(
    name for name, value in vars(coordtext).items()
    if not (name.startswith("_") and not name.startswith("__")) and name not in IMPORT_SYSTEM
    and not (isinstance(value, types.ModuleType) and not value.__name__.startswith("coordtext."))
)))
"""


def test_the_package_holds_its_layers_and_version_only():
    """The package is its layers: its public attributes are the nine
    registered layers and ``__version__``, so each public name is imported
    from the layer that defines it. fixtures, which no stage uses, is a
    plain submodule import; another name is an ImportError."""
    proc = subprocess.run([sys.executable, "-c", PACKAGE_NAMES_CHILD], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted([*PACKAGE_LAYERS, "__version__"])
    import coordtext

    assert isinstance(coordtext.__version__, str)
    for name in PACKAGE_LAYERS:
        assert getattr(coordtext, name) is sys.modules[f"coordtext.{name}"]
    from coordtext import fixtures

    assert fixtures is sys.modules["coordtext.fixtures"] and callable(fixtures.annotation_fixture)
    with pytest.raises(ImportError):
        from coordtext import encode_bbox  # noqa: F401


def test_parser_literals_equal_the_values_their_layers_own():
    """Building the parser runs no layer, so its choices and bounds are
    literals in cli; each equals the value of the layer that owns it."""
    assert cli.MOCK_NAMES == tuple(gateway.MOCKS)
    assert cli.TASK_NAMES == tuple(sorted({row.task for row in OBJECTIVES.values()} - {None}))
    assert cli.MAX_RETRY_DELAY_S == gateway.MAX_RETRY_DELAY_S
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    query = {a.dest: a for a in commands["query"]._actions}
    assert tuple(query["mock"].choices) == cli.MOCK_NAMES
    assert query["backoff"].help.endswith(f"at most {gateway.MAX_RETRY_DELAY_S:g} s")
    ift = next(a for a in commands["build"]._actions if a.dest == "build_command").choices["ift"]
    assert next(a for a in ift._actions if a.dest == "mix").help.endswith(f"at most {cli.MAX_MIX_RATIO:g}")
    assert tuple(next(a for a in commands["evaluate"]._actions if a.dest == "task").choices) == cli.TASK_NAMES


NUMPY_BLOCKED_CHILD = """
import sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError

from coordtext.cli import main

assert main(["fixtures", "--out", sys.argv[1]]) == 0
"""


def test_fixtures_run_without_numpy(tmp_path):
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


# Definitions in src that nothing else in src names, each with the reason it stays
UNCALLED_DEFINITIONS = {
    "records.read_records": "perfbench's runner and tracer read whole record files with it",
}

# Types whose ``__new__`` checks its arguments, each with a command that trips
# the check and the message the type raises; a check that only tests can trip
# does not stay. ``{records}`` is a built record file, ``{out}`` an output path.
CHECKED_TYPES = {
    "coords.ImageDims": (["encode", "--point", "1,2", "--dims", "0x10"], "image dims must be positive, got 0x10"),
    "coords.BBox": (["encode", "--bbox", "5,0,1,1", "--dims", "10x10"], "x1 > x2 in (5.0, 0.0, 1.0, 1.0)"),
    "coords.PointLoc": (["encode", "--point=-1,2", "--dims", "10x10"], "negative coordinate in (-1.0, 2.0)"),
    "coords.ReprScheme": (
        ["encode", "--bbox", "0,0,1,1", "--dims", "10x10", "--scheme", "ivb", "--nb", "1"], "ivb needs at least 2 bins"
    ),
    "gateway.SamplingConfig": (
        ["query", "--records", "{records}", "--mock", "oracle", "--temperature", "0", "--out", "{out}"],
        "temperature must be a finite number above 0, got 0.0",
    ),
}


def test_every_definition_in_src_is_named_elsewhere_in_src():
    """No code exists only for tests to call: each top-level function and
    class of src/coordtext, and each method but the dunders, is named
    somewhere in src/coordtext outside its own definition."""
    src = Path(cli.__file__).parent
    definitions, names = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", path, node))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{path.stem}.{node.name}.{item.name}", path, item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((node.attr, path, node.lineno))
    uncalled = {
        qualified for qualified, path, node in definitions
        if not any(
            name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
            for name, where, line in names
        )
    }
    assert uncalled == set(UNCALLED_DEFINITIONS)


def test_only_the_listed_types_define_new():
    """A class of src/coordtext defines ``__new__`` only where CHECKED_TYPES
    lists it: every other value type is a plain named tuple."""
    src = Path(cli.__file__).parent
    defined = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__new__" for item in node.body
            ):
                defined.add(f"{path.stem}.{node.name}")
    assert defined == set(CHECKED_TYPES)


@pytest.mark.parametrize("name", sorted(CHECKED_TYPES))
def test_each_checked_type_is_reached_by_its_command(spatial_run, tmp_path, capsys, name):
    """The command exits 2 with the type's own message, so a type check that
    no command can reach fails here."""
    argv, message = CHECKED_TYPES[name]
    out = tmp_path / "out.jsonl"
    code, printed, err = run([arg.format(records=spatial_run[0], out=out) for arg in argv], capsys)
    assert (code, printed) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert not out.exists()


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "coordtext.cli", "encode", "--bbox", "10,120,30,145", "--dims", "512x512", "--scheme", "diga"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0, 4, 3, 11, 6, 0)"


# a command line of each command that parses, by the command's name; {out} is the path it would write
COMMAND_ARGVS = {
    "encode": ["encode", "--bbox", "10,120,30,145", "--dims", "512x512"],
    "decode": ["decode", "--text", "(4, 52, 13, 63)", "--form", "bbox", "--dims", "512x512"],
    "build ift": ["build", "ift", "--annotations", "{fx}/coco_50.json", "--out", "{out}"],
    "build spatial-bench": ["build", "spatial-bench", "--annotations", "{fx}/coco_50.json", "--out", "{out}"],
    "build hallucination": ["build", "hallucination", "--annotations", "{fx}/coco_50.json", "--out", "{out}"],
    "build pseudo-captions": ["build", "pseudo-captions", "--annotations", "{fx}/coco_50.json", "--out", "{out}"],
    "build video-static": ["build", "video-static", "--videos", "{fx}/videos.jsonl", "--out", "{out}"],
    "stats": ["stats", "--corpus", "{fx}/corpus_80k.txt", "--out", "{out}"],
    "query": ["query", "--records", "{fx}/vqa.jsonl", "--mock", "oracle", "--out", "{out}"],
    "evaluate": ["evaluate", "--records", "{fx}/vqa.jsonl", "--responses", "{fx}/vqa.jsonl", "--report", "{out}"],
    "fixtures": ["fixtures", "--out", "{out}"],
    "verify": ["verify", "{fx}/vqa.jsonl"],
}


@pytest.mark.parametrize("where", ["before", *COMMAND_ARGVS])
def test_config_flag_is_a_usage_error(fx, tmp_path, capsys, where):
    """Flags are set on the command line only; each output's meta line holds
    the config it ran with. ``--config`` before the command is taken for the
    command, and after it, no command knows it."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.jsonl"
    cfg.write_text(json.dumps({"seed": 9}))
    if where == "before":
        argv, message = ["--config", str(cfg), *COMMAND_ARGVS["build spatial-bench"]], "argument command: invalid choice: "
    else:
        argv, message = [*COMMAND_ARGVS[where], "--config", str(cfg)], f"unrecognized arguments: --config {cfg}"
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(fx=fx, out=out) for a in argv])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == "" and message in captured.err
    assert not out.exists()


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
    assert _evaluate_task_choices() == tasks
    for task in sorted(tasks):  # each with a scorer: evaluate scores a record of the task
        objective = next(name for name, row in OBJECTIVES.items() if row.task == task)
        truth = (evals.TRUTH_VALUES.get(task) or ("a red chair",))[0]
        bench, resp = tmp_path / f"{task}.jsonl", tmp_path / f"{task}-responses.jsonl"
        row = {"sample_id": "s", "prompt": "p", "objective": objective, OBJECTIVES[objective].truth: truth}
        write_records(bench, [row], {"seed": 0}, task)
        write_records(resp, [{"item_id": "s", "text": truth}], {"records": str(bench)}, "responses")
        assert run(["evaluate", "--records", str(bench), "--responses", str(resp), "--task", task], capsys)[0] == 0, task
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
        ({"objective": "spatial_direct", "axis": ["lr"]}, "axis of type list"),
    ],
)
def test_random_mock_answer_space_comes_from_the_table(record, space):
    assert answer_space_for_record(record) == space


@pytest.mark.parametrize("axis", [["lr"], {"lr": 1}, 5], ids=["list", "object", "number"])
def test_query_random_axis_that_is_not_a_string_is_a_per_request_error(tmp_path, capsys, axis):
    """A list or object axis used to end in ``TypeError: unhashable type`` from the random mock."""
    good = {"sample_id": "a", "prompt": "x", "objective": "spatial_direct", "axis": "ab"}
    path = tmp_path / "bench.jsonl"
    write_records(path, [good, {**good, "sample_id": "b", "axis": axis}], {"seed": 0}, "demo")
    out = tmp_path / "out.jsonl"
    code, _, err = run(["query", "--records", str(path), "--mock", "random", "--out", str(out)], capsys)
    assert code == 0
    assert f"error for b: unknown answer space 'axis of type {type(axis).__name__}'" in err
    _, rows = read_records(out)
    assert "status" not in rows[0] and rows[1] == {"item_id": "b", "status": "error", "text": ""}


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
        ("region", "日本", "descriptor '日本' holds no word METEOR scores ([a-z0-9])"),
        ("region", "", "descriptor '' holds no word METEOR scores ([a-z0-9])"),
        ("region", "¿ — !", "descriptor '¿ — !' holds no word METEOR scores ([a-z0-9])"),
    ],
)
def test_evaluate_ground_truth_outside_the_scorers_values_exits_3(scored_runs, tmp_path, capsys, task, value, message):
    """A side keyword such as "front" used to end in ``KeyError: 'front'``,
    and a presence gt of "maybe" was scored as a wrong answer, with a report
    written and exit 0. A region truth without a word METEOR tokenizes ended
    in exit 2, ``reference must contain at least one token``, naming no file."""
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
    write_records(path, [{"sample_id": "a", "prompt": "x"}, json.loads(row)], {"seed": 0}, "demo")
    out = tmp_path / "out.jsonl"
    code, _, err = run(["query", "--records", str(path), "--mock", mock, "--out", str(out)], capsys)
    assert code == 3 and f"schema error: {path}: record 2: {field} is not a string" in err
    assert not out.exists()


# ---------------- record files: one check ---------------- #


def _edit_line(src, dst, index, edit):
    """Copy ``src`` to ``dst`` with line ``index`` (0: the meta line) changed by ``edit``, every other byte kept."""
    lines = src.read_text(encoding="utf-8").split("\n")
    lines[index] = edit(lines[index])
    dst.write_text("\n".join(lines), encoding="utf-8")


def _refused_as_verify_words(path, argv, outputs, capsys):
    """``argv`` exits 3 with verify's first problem for ``path``, printing and writing nothing."""
    _, _, verify_err = run(["verify", str(path)], capsys)
    code, printed, err = run(argv, capsys)
    assert (code, printed, err) == (3, "", f"schema error: {verify_err.splitlines()[0]}\n")
    assert not any(out.exists() for out in outputs)
    return verify_err


def test_query_refuses_records_edited_after_they_were_written(spatial_run, tmp_path, capsys):
    """query used to answer from a side question whose truth had been flipped."""
    bench, _ = spatial_run
    bad, out = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    opposite = {"left": "right", "right": "left", "above": "below", "below": "above"}
    keyword = json.loads(bench.read_text(encoding="utf-8").split("\n")[1])["gt_keyword"]
    _edit_line(bench, bad, 1, lambda line: line.replace(f'"gt_keyword":"{keyword}"', f'"gt_keyword":"{opposite[keyword]}"'))
    argv = ["query", "--records", str(bad), "--mock", "oracle", "--out", str(out)]
    assert _refused_as_verify_words(bad, argv, [out], capsys) == f"{bad}: records digest mismatch\n"


def test_evaluate_refuses_records_whose_meta_line_was_edited(spatial_run, tmp_path, capsys):
    """evaluate checked the records digest alone, so an edited count and seed scored ``All 100.0``."""
    bench, resp = spatial_run
    bad, report, dump = tmp_path / "bench.jsonl", tmp_path / "report.json", tmp_path / "dump.jsonl"
    meta, rows = read_records(bench)
    _edit_line(bench, bad, 0, lambda line: line.replace(f'"count":{len(rows)}', '"count":9').replace('"seed":1', '"seed":2'))
    argv = ["evaluate", "--records", str(bad), "--responses", str(resp), "--report", str(report), "--dump", str(dump)]
    err = _refused_as_verify_words(bad, argv, [report, dump], capsys)
    assert err == f"{bad}: meta count 9 != {len(rows)} records\n{bad}: config digest mismatch\n"


def test_build_ift_refuses_captions_edited_after_they_were_written(fx, tmp_path, capsys):
    """build ift --captions used to write an edited caption into the dataset."""
    requests, caps, bad, ift = (tmp_path / name for name in ("capreq.jsonl", "caps.jsonl", "bad.jsonl", "ift.jsonl"))
    run(["build", "pseudo-captions", "--annotations", str(fx / "coco_50.json"), "--out", str(requests)], capsys)
    run(["query", "--records", str(requests), "--mock", "oracle", "--out", str(caps)], capsys)
    _edit_line(caps, bad, 1, lambda line: line.replace('"text":"', '"text":"a forged ', 1))
    argv = ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(bad), "--out", str(ift)]
    err = _refused_as_verify_words(bad, argv, [ift, ift.with_suffix(".report.json")], capsys)
    assert err == f"{bad}: records digest mismatch\n"


@pytest.mark.parametrize("command, edit, problem", [
    ("query", lambda row: row.pop("prompt"), "record 1: missing prompt"),
    ("evaluate", lambda row: row.update(gt_keyword="x"), "record 1: gt_keyword 'x' is not one of"),
])
def test_file_problem_is_reported_before_a_record_problem(spatial_run, tmp_path, capsys, command, edit, problem):
    """query and evaluate read their records as a stream, but a record file
    that does not match its meta line is still reported before a problem of
    one of its records, as when every record was read first."""
    bench, resp = spatial_run
    fixed, bad, out = tmp_path / "fixed.jsonl", tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
    meta, rows = read_records(bench)
    edit(rows[0])
    write_records(fixed, rows, meta["config"], meta["kind"])  # under a meta line that matches them
    bad.write_bytes(bench.read_bytes().split(b"\n", 1)[0] + b"\n" + fixed.read_bytes().split(b"\n", 1)[1])
    if command == "query":
        argv = ["query", "--records", "{}", "--mock", "oracle", "--out", str(out)]
    else:
        argv = ["evaluate", "--records", "{}", "--responses", str(resp), "--dump", str(out)]
    code, _, err = run([arg.format(fixed) for arg in argv], capsys)
    assert code == 3 and err.startswith(f"schema error: {fixed}: {problem}")
    assert _refused_as_verify_words(bad, [arg.format(bad) for arg in argv], [out], capsys) == (
        f"{bad}: records digest mismatch\n")


def test_evaluate_reports_a_responses_file_problem_before_a_record_problem(spatial_run, tmp_path, capsys):
    bench, resp = spatial_run
    records, bad = tmp_path / "bench.jsonl", tmp_path / "resp.jsonl"
    meta, rows = read_records(bench)
    write_records(records, [dict(rows[0], gt_keyword="x"), *rows[1:]], meta["config"], meta["kind"])
    _edit_line(resp, bad, 1, lambda line: line.replace('"text":"', '"text":"a forged ', 1))
    code, printed, err = run(["evaluate", "--records", str(records), "--responses", str(bad)], capsys)
    assert (code, printed, err) == (3, "", f"schema error: {bad}: records digest mismatch\n")


def test_meta_config_holding_nan_is_a_problem_of_its_file(tmp_path, capsys):
    """A NaN in a meta line's config, which the line parser accepts, used to
    end verify and query with ``error: Out of range float values are not JSON
    compliant``, exit 2, naming no file; verify checked no file after it."""
    good, nan, tampered = tmp_path / "a.jsonl", tmp_path / "nan.jsonl", tmp_path / "c.jsonl"
    for path in (good, nan, tampered):
        write_records(path, [{"sample_id": "s", "prompt": "p", "objective": "vqa", "target": "x"}], {"seed": 0}, "demo")
    nan.write_text(nan.read_text().replace('"config":{"seed":0}', '"config":{"seed":NaN}'))
    tampered.write_text(tampered.read_text().replace('"target":"x"', '"target":"y"'))
    problem = f"{nan}: meta config is not JSON: Out of range float values are not JSON compliant"
    code, out, err = run(["verify", str(good), str(nan), str(tampered)], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == [problem, f"{tampered}: records digest mismatch"]
    responses = tmp_path / "resp.jsonl"
    assert run(["query", "--records", str(nan), "--mock", "oracle", "--out", str(responses)], capsys) == (
        3, "", f"schema error: {problem}\n")
    assert not responses.exists()


def test_integer_over_the_digit_limit_is_a_problem_of_its_file(tmp_path, capsys, fx):
    """json raises a plain ValueError for an integer literal over Python's
    4,300-digit limit. It used to end verify, query and build with that bare
    message, exit 2, naming no file; verify checked no file after it."""
    huge = "1" * 5000
    big, tampered = tmp_path / "big.jsonl", tmp_path / "c.jsonl"
    for path in (big, tampered):
        write_records(path, [{"sample_id": "s", "prompt": "p", "objective": "vqa", "target": "x"}], {"seed": 0}, "demo")
    big.write_text(big.read_text().replace('"target":"x"', f'"target":"x","n":{huge}'))
    tampered.write_text(tampered.read_text().replace('"target":"x"', '"target":"y"'))
    limit = "Exceeds the limit (4300 digits) for integer string conversion"
    code, out, err = run(["verify", str(big), str(tampered)], capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 2
    assert err.startswith(f"schema error: {big}: line 2: not valid JSON: {limit}")
    assert err.splitlines()[1] == f"{tampered}: records digest mismatch"
    responses = tmp_path / "resp.jsonl"
    code, out, err = run(["query", "--records", str(big), "--mock", "oracle", "--out", str(responses)], capsys)
    assert (code, out) == (3, "") and err.startswith(f"schema error: {big}: line 2: not valid JSON: {limit}")
    assert not responses.exists()
    coco = tmp_path / "big.json"
    coco.write_text((fx / "coco_50.json").read_text().replace('"images"', f'"n": {huge}, "images"', 1))
    code, out, err = run(["build", "spatial-bench", "--annotations", str(coco), "--out", str(tmp_path / "b.jsonl")], capsys)
    assert (code, out) == (3, "") and err.startswith(f"schema error: {coco}: not valid JSON: {limit}")


def test_json_nested_too_deep_is_a_problem_of_its_file(tmp_path, capsys):
    """json's C scanner raises RecursionError for arrays nested past the
    recursion limit. It used to end verify, query and build in a traceback,
    exit 1; verify checked no file after it. The depth is far past any
    recursion limit, so that the outcome does not depend on it."""
    depth = 100_000
    deep_value = "[" * depth + "]" * depth
    deep, tampered = tmp_path / "deep.jsonl", tmp_path / "c.jsonl"
    for path in (deep, tampered):
        write_records(path, [{"sample_id": "s", "prompt": "p", "objective": "vqa", "target": "x"}], {"seed": 0}, "demo")
    deep.write_text(deep.read_text().replace('"target":"x"', f'"target":"x","a":{deep_value}'))
    tampered.write_text(tampered.read_text().replace('"target":"x"', '"target":"y"'))
    problem = f"schema error: {deep}: line 2: not valid JSON: maximum recursion depth exceeded"
    code, out, err = run(["verify", str(deep), str(tampered)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(problem) and err.splitlines()[1:] == [f"{tampered}: records digest mismatch"]
    responses = tmp_path / "resp.jsonl"
    code, out, err = run(["query", "--records", str(deep), "--mock", "oracle", "--out", str(responses)], capsys)
    assert (code, out) == (3, "") and err.startswith(problem)
    assert not responses.exists()
    coco, bench = tmp_path / "deep.json", tmp_path / "b.jsonl"
    coco.write_text(f'{{"a":{deep_value}}}')
    code, out, err = run(["build", "spatial-bench", "--annotations", str(coco), "--out", str(bench)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"schema error: {coco}: not valid JSON: maximum recursion depth exceeded")
    assert not bench.exists()


def test_query_and_evaluate_hold_little_more_than_each_record_needs(tmp_path):
    """query keeps of each record its request and the oracle's response, and
    evaluate its sample_id and ground truth, so that neither holds the rows as
    dicts. On these 8,000 presence records (1.5 MB) the peak of traced Python
    allocations is 2.9 times the file for query and 3.1 times for evaluate,
    and was 8.8 and 8.6 times when every row was held: the bound of 4.5 times
    leaves a margin of 45% over the higher streaming peak."""
    import tracemalloc

    records, responses, dump = tmp_path / "presence.jsonl", tmp_path / "responses.jsonl", tmp_path / "dump.jsonl"
    write_records(records, (
        {"sample_id": f"im{i // 4:05d}:hal:{i % 4:02d}", "image_id": f"im{i // 4:05d}", "objective": "hallucination",
         "prompt": f"Is there a {'red chair' if i % 2 else 'wooden table'} in this image?",
         "gt": "yes" if i % 3 else "no", "target": "Yes", "descriptor": "chair", "seed": i * 7919}
        for i in range(8000)), {"seed": 0}, "hallucination")
    size = records.stat().st_size
    for argv in (["query", "--records", str(records), "--mock", "oracle", "--out", str(responses)],
                 ["evaluate", "--records", str(records), "--responses", str(responses), "--dump", str(dump)]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * size, (argv[0], peak / size)


# ---------------- input files: one reader ---------------- #


@pytest.mark.parametrize("n_lines", [3, 5001])
def test_verify_names_the_line_that_is_not_utf8(tmp_path, capsys, n_lines):
    """A text layer that decoded a buffer at a time named the last line handed
    out before that buffer: ``after line 0`` for 3 lines, ``after line 4734``
    for 5,001, with a position inside the buffer."""
    bad = tmp_path / "bad.jsonl"
    write_records(bad, [{"n": n} for n in range(n_lines - 2)], {"seed": 0}, "demo")
    with bad.open("ab") as fh:
        fh.write(b'{"text": "\xff"}\n')
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 3
    assert err.startswith(f"schema error: {bad}: line {n_lines}: not valid UTF-8: ")
    assert "can't decode byte 0xff in position 10" in err


# (argv with {bad} for the input, that input's bytes, the line the message names)
NOT_UTF8_INPUTS = {
    "templates": (
        ["build", "spatial-bench", "--annotations", "{fx}/coco_50.json", "--templates", "{bad}", "--out", "{out}"],
        b"[hallucination]\nIs there a \xff {obj}?\n", "line 2: ",
    ),
    "corpus": (["stats", "--corpus", "{bad}"], b"to the left\nthe \xff right\n", "line 2: "),
    "vocab-file": (
        ["build", "hallucination", "--annotations", "{fx}/coco_50.json", "--vocab-file", "{bad}", "--out", "{out}"],
        b"kettle\n\xffpan\n", "line 2: ",
    ),
    "captions": (
        ["build", "ift", "--annotations", "{fx}/coco_50.json", "--captions", "{bad}", "--out", "{out}"],
        b'{"image_id": "1", "instance_id": "1", "caption": "a"}\n{"caption": "\xff"}\n', "line 2: ",
    ),
    "annotations": (["build", "spatial-bench", "--annotations", "{bad}", "--out", "{out}"], b'{"images": "\xff"}', "line 1: "),
    "disjoint-from": (
        ["build", "hallucination", "--annotations", "{fx}/coco_50.json", "--disjoint-from", "{bad}", "--out", "{out}"],
        b'{"categories": [{"id": 1, "name": "\xff"}]}', "line 1: ",
    ),
}


def test_repeated_vocabulary_name_exits_3_naming_both_lines(fx, tmp_path, capsys):
    """``zebra`` on three lines of a --vocab-file used to ask "Is there zebra
    in this image?" twice about one image."""
    vocab, out = tmp_path / "vocab.txt", tmp_path / "out.jsonl"
    vocab.write_text("zebra\nlamp\n\n zebra \nzebra\n")
    argv = ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--vocab-file", str(vocab),
            "--out", str(out)]
    assert run(argv, capsys) == (3, "", f"schema error: {vocab}: line 4: 'zebra' repeats line 1\n")
    assert not out.exists()


@pytest.mark.parametrize("name", NOT_UTF8_INPUTS)
def test_input_that_is_not_utf8_exits_3_naming_the_file(fx, tmp_path, capsys, name):
    """Templates, a corpus, a vocabulary and annotations that are not UTF-8
    used to exit 2 with the codec's message alone, naming no file."""
    args, content, line = NOT_UTF8_INPUTS[name]
    bad, out = tmp_path / "input.bad", tmp_path / "out.jsonl"
    bad.write_bytes(content)
    code, printed, err = run([a.format(fx=fx, bad=bad, out=out) for a in args], capsys)
    assert code == 3 and printed == ""
    assert err.startswith(f"schema error: {bad}: {line}not valid UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


def test_text_inputs_end_lines_at_newline(fx, tmp_path, capsys):
    """Each line-based reader strips ``\\r\\n`` where it stripped ``\\n``, so a
    CRLF file gives the values of its LF twin."""
    texts = {
        "corpus": "to the left\nthe right side\n\nleft\n",
        "vocab": "kettle\n  pan \n\nladle\n",
        "templates": "[hallucination]\nIs a {obj} in this {medium}?\n",
    }
    outputs = {}
    for ending in ("\n", "\r\n"):
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}{len(ending)}.txt"
            paths[name].write_bytes(text.replace("\n", ending).encode())
        _, printed, _ = run(["stats", "--corpus", str(paths["corpus"]), "--out", str(tmp_path / "stats.json")], capsys)
        total = json.loads((tmp_path / "stats.json").read_text())["total"]
        bench = tmp_path / f"presence{len(ending)}.jsonl"
        code, _, err = run(["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--vocab-file",
                            str(paths["vocab"]), "--templates", str(paths["templates"]), "--out", str(bench)], capsys)
        assert code == 0, err
        outputs[ending] = (printed, total, read_records(bench)[1])
    assert outputs["\r\n"] == outputs["\n"]
    printed, total, rows = outputs["\n"]
    assert total == 4 and "'left': 2 (50.00%)" in printed
    assert {row["descriptor"] for row in rows} >= {"kettle", "pan", "ladle"}
    assert all(row["prompt"].startswith("Is a ") for row in rows)


def _coco_case(edit):
    """A valid COCO document changed in place by ``edit``."""
    def make():
        data = {
            "images": [{"id": 1, "width": 64, "height": 48, "file_name": "1.jpg"}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [4, 4, 8, 8]}],
            "categories": [{"id": 1, "name": "lamp"}],
        }
        edit(data)
        return data
    return make


# malformed COCO documents and the problem each is refused for
BAD_COCO_FILES = [
    (lambda: [1], "not a JSON object"),
    (_coco_case(lambda d: d.update(images={"id": 1})), "images is not a JSON array"),
    (_coco_case(lambda d: d.update(categories="lamp")), "categories is not a JSON array"),
    (_coco_case(lambda d: d.update(annotations=None)), "annotations is not a JSON array"),
    (_coco_case(lambda d: d["images"].append(7)), "images[1] is not a JSON object"),
    (_coco_case(lambda d: d["categories"].insert(0, "lamp")), "categories[0] is not a JSON object"),
    (_coco_case(lambda d: d["images"][0].update(id=[1])), "images[0]: id is not a string or an integer"),
    (_coco_case(lambda d: d["images"][0].update(id=1.0)), "images[0]: id is not a string or an integer"),
    (_coco_case(lambda d: d["categories"][0].update(id=True)), "categories[0]: id is not a string or an integer"),
    (_coco_case(lambda d: d["categories"][0].update(id={"a": 1})), "categories[0]: id is not a string or an integer"),
    (_coco_case(lambda d: d["categories"][0].update(name=5)), "categories[0]: name is not a string"),
    (_coco_case(lambda d: d["categories"][0].update(name="")), "categories[0]: name is empty"),
    (_coco_case(lambda d: d["images"][0].update(width="abc")), "images[0]: width is not a positive integer"),
    (_coco_case(lambda d: d["images"][0].update(width=0)), "images[0]: width is not a positive integer"),
    (_coco_case(lambda d: d["images"][0].update(width=5.7)), "images[0]: width is not a positive integer"),
    (_coco_case(lambda d: d["images"][0].update(height=-3)), "images[0]: height is not a positive integer"),
    (_coco_case(lambda d: d["images"][0].update(height=None)), "images[0]: height is not a positive integer"),
    (_coco_case(lambda d: d["images"][0].pop("width")), "images[0]: missing required field 'width'"),
    (_coco_case(lambda d: d["images"][0].pop("id")), "images[0]: missing required field 'id'"),
    (_coco_case(lambda d: d["categories"][0].pop("name")), "categories[0]: missing required field 'name'"),
    (_coco_case(lambda d: d["categories"][0].pop("id")), "categories[0]: missing required field 'id'"),
    (_coco_case(lambda d: d["annotations"][0].pop("id")), "annotations[0]: missing required field 'id'"),
    (_coco_case(lambda d: d["categories"].append({"id": 99, "name": "lamp"})),
     "categories[1]: name 'lamp' repeats the name of categories[0]"),
    (_coco_case(lambda d: d["images"].append(dict(d["images"][0], width=10, height=10))),
     "images[1]: id 1 repeats the id of images[0]"),
    (_coco_case(lambda d: d["images"].append(dict(d["images"][0], id="1"))),
     "images[1]: id '1' repeats the id of images[0]"),
    (_coco_case(lambda d: d["categories"].append({"id": 1, "name": "bird"})),
     "categories[1]: id 1 repeats the id of categories[0]"),
]


@pytest.mark.parametrize("make, problem", BAD_COCO_FILES, ids=[problem for _, problem in BAD_COCO_FILES])
def test_coco_file_of_the_wrong_shape_exits_3(tmp_path, capsys, make, problem):
    """``[1]`` used to end in an AttributeError traceback, an id of ``[1]`` in
    ``unhashable type``, a width of ``"abc"`` or ``0`` in exit 2 naming no
    file, and a width of 5.7 was cut to 5 and built. A missing field named
    no entry. Two categories named ``lamp`` asked one question twice."""
    bad, out = tmp_path / "coco.json", tmp_path / "out.jsonl"
    bad.write_text(json.dumps(make()))
    code, printed, err = run(["build", "spatial-bench", "--annotations", str(bad), "--out", str(out)], capsys)
    assert (code, printed, err) == (3, "", f"schema error: {bad}: {problem}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["ift", "hallucination", "pseudo-captions"])
def test_empty_category_name_exits_3_in_every_build(tmp_path, capsys, command):
    """An empty category name used to pass the loader, and these builds
    stopped in a renderer with exit 2 and ``... must be non-empty``, naming no
    file; spatial-bench, which BAD_COCO_FILES runs, built the file."""
    bad, out = tmp_path / "coco.json", tmp_path / "out.jsonl"
    bad.write_text(json.dumps(_coco_case(lambda d: d["categories"][0].update(name=""))()))
    code, printed, err = run(["build", command, "--annotations", str(bad), "--out", str(out)], capsys)
    assert (code, printed, err) == (3, "", f"schema error: {bad}: categories[0]: name is empty\n")
    assert not out.exists()


def test_region_truth_without_a_word_exits_3_naming_the_record(tmp_path, capsys):
    """A category named 日本 builds region records whose descriptor holds no
    token METEOR finds; evaluate used to stop while scoring, with exit 2 and
    ``reference must contain at least one token``, naming no file."""
    coco, records, responses = tmp_path / "coco.json", tmp_path / "region.jsonl", tmp_path / "resp.jsonl"
    coco.write_text(json.dumps(_coco_case(lambda d: d["categories"][0].update(name="日本"))()))
    assert run(["build", "ift", "--annotations", str(coco), "--mix", "revloc=1", "--out", str(records)], capsys)[0] == 0
    assert run(["query", "--records", str(records), "--mock", "oracle", "--out", str(responses)], capsys)[0] == 0
    code, printed, err = run(["evaluate", "--records", str(records), "--responses", str(responses)], capsys)
    assert (code, printed) == (3, "")
    assert err == f"schema error: {records}: record 1: descriptor '日本' holds no word METEOR scores ([a-z0-9])\n"


# template files that are refused, and the line and problem each is refused for
BAD_TEMPLATE_FILES = [
    ("[hallucination]\nIs a {category} here?\n", "line 2: placeholder {category} is not one of {obj}, {medium}"),
    ("[hallucination]\nIs a {} here?\n", "line 2: placeholder {} is positional"),
    ("[hallucination]\nIs a {obj} in {0}?\n", "line 2: placeholder {0} is positional"),
    ("[hallucination]\nIs a {obj.__class__} here?\n", "line 2: placeholder {obj.__class__} reads an attribute or an index"),
    ("[revloc_prompts]\nWhat is at {loc[0]}?\n", "line 2: placeholder {loc[0]} reads an attribute or an index"),
    ("[spatial_direct]\nIs {obj1:{width}} left of {obj2}?\n", "line 2: placeholder {width} is not one of {obj1}, {obj2}"),
    ("[hallucination]\nIs a {obj here?\n", "line 2: not a format string: expected '}' before end of string"),
    ("[hallucination]\nIs a {obj!z} here?\n", "line 2: not a format string: Unknown conversion specifier z"),
    ("[hallucination]\nIs a {obj:d} here?\n", "line 2: not a format string: Unknown format code 'd' for object of type 'str'"),
    ("[mystery]\nIs a {obj} here?\n", "line 1: unknown template section 'mystery'"),
    ("\nIs a {obj} here?\n[hallucination]\n", "line 2: template line before any section header: 'Is a {obj} here?'"),
    ("[hallucination]\nIs a {obj} here?\nIs the {obj} in the {medium}?\n",
     "line 3: section 'hallucination' must hold exactly one template"),
    ("[revloc_prompts]\n[hallucination]\nIs a {obj} here?\n", "line 1: section 'revloc_prompts' holds no template"),
    ("[locpred_prompts]\nWhere is {category}, as a {repr}?\n[negpred_prompts]\nFind {category} as a {repr}.\n",
     "line 3: unknown template section 'negpred_prompts'"),
    ("[negpred_prompts]\nFind {category} as a {repr}.\n", "line 1: unknown template section 'negpred_prompts'"),
    ("[hallucination]\nIs it in the {medium}?\n", "line 2: template lacks {obj}"),
    ("[spatial_direct]\nWhich side is it on?\n", "line 2: template lacks {obj1}, {obj2}"),
    ("[spatial_icl_answer]\nThe {obj1} is near {obj2}.\n", "line 2: template lacks {keyword}"),
    ("[locpred_prompts]\nWhere is the {category}?\nGive the {repr}.\n", "line 3: template lacks {category}"),
    ("[revloc_prompts]\nWhat is here?\n", "line 2: template lacks {loc}"),
    ("[locpred_target]\nIt is there.\n", "line 2: template lacks {loc}"),
    ("[revloc_target]\nIt is a thing.\n", "line 2: template lacks {category}"),
    ("[caption_request]\nDescribe it.\n", "line 2: template lacks {category}"),
]


@pytest.mark.parametrize("text, problem", BAD_TEMPLATE_FILES, ids=[problem for _, problem in BAD_TEMPLATE_FILES])
def test_template_file_that_would_not_render_exits_3(fx, tmp_path, capsys, text, problem):
    """An unknown placeholder used to end in a KeyError traceback mid-build,
    ``{0}`` in an IndexError, ``{obj.__class__}`` put Python internals into
    prompts, and a malformed file exited 2 naming neither file nor line. A
    template without the placeholders naming its item was built: a
    hallucination question without {obj} asked the same of its "yes" and "no"
    items. Negative queries draw from the location prompts, so a
    [negpred_prompts] section is unknown."""
    bad, out = tmp_path / "templates.txt", tmp_path / "out.jsonl"
    bad.write_text(text, encoding="utf-8")
    argv = ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--templates", str(bad), "--out", str(out)]
    assert run(argv, capsys) == (3, "", f"schema error: {bad}: {problem}\n")
    assert not out.exists()


# SHA-256 of every file that ``coordtext fixtures --seed 0`` writes
FIXTURE_DIGESTS = {
    "captions_50.jsonl": "5afe5581949784702c4032731fb197c8de53298c6734fa162b97f8c7dceb016a",
    "coco_200.json": "418fdb74a934ef4efd9c85e4fe0129313a6c4d27b43e0555bff254461624f37d",
    "coco_50.json": "d0808f0d98c56ecebdcda87108aca0047f983620b036c0a4141cbd17461c5133",
    "corpus_80k.txt": "9b4bdca06d6ed143dc278ba1c1d66cdb69aa20750ed3473e26a9facad8e7c83f",
    "videos.jsonl": "f85f3fad7909f15b583621c76678e90bb9d4e1c38b9a79d670e57bee7e0311fa",
    "vqa.jsonl": "a9d5c6c4c6da4032d53d30ae4b6937b493e14354a28e684ed14188abf2342cd3",
}


def test_fixtures_golden_digests(fx):
    assert {p.name: sha(p) for p in fx.iterdir()} == FIXTURE_DIGESTS


def _calls(node, scope=()):
    """Yield ``(scope, call)`` for each call under ``node``; ``scope`` names its enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call):
            yield ".".join(inner), child
        yield from _calls(child, inner)


def _open_mode(call: ast.Call):
    """The mode of an ``open(path, mode)`` or ``path.open(mode)`` call, if it is a literal."""
    index = 1 if isinstance(call.func, ast.Name) else 0
    mode = call.args[index] if len(call.args) > index else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode.value if isinstance(mode, ast.Constant) else "r"


def test_every_input_file_is_read_through_records():
    """Outside records.py every ``open`` writes, and no module reads a file or
    splits its text itself: records' iter_lines, iter_rows and read_json name
    the file and line of a bad byte. The one exemption is FileBatchTransport's
    read of a runner's reply, whose policy skips a bad line. Nor does another
    module look at a meta line or its digest: records checks a record file
    against its meta line for every reader."""
    src = Path(cli.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "record_type" in text and path.name != "records.py":
            reads.append((path.name, "", "record_type"))
        for scope, call in _calls(ast.parse(text, str(path))):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "stored_records_digest" and path.name != "records.py":
                reads.append((path.name, scope, name))
            elif name == "open" and path.name != "records.py":
                if not set(_open_mode(call)) & set("wax"):
                    reads.append((path.name, scope, "open"))
            elif name in ("read_text", "read_bytes", "splitlines"):
                reads.append((path.name, scope, name))
            elif name == "load" and isinstance(func.value, ast.Name) and func.value.id == "json":
                reads.append((path.name, scope, "json.load"))
    assert sorted(reads) == [
        ("gateway.py", "FileBatchTransport.send_batch", "read_bytes"),
        ("gateway.py", "FileBatchTransport.send_batch", "splitlines"),
    ]
