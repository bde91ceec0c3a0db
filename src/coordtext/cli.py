"""Command-line entry point: every pipeline stage behind one binary.

Exit codes are stable: 0 success, 1 I/O failure, 2 argument or value error,
3 schema or digest violation, 4 evaluation alignment failure, 130 stopped by
SIGINT, 143 stopped by SIGTERM. Every output
file embeds the effective config and its digest (see records.py), and rerun
with identical inputs and flags reproduces identical bytes.

Environment defaults: GATEWAY_ENDPOINT, GATEWAY_BATCH_DIR.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import signal
import sys
from collections import Counter
from pathlib import Path

# Submodules run on first use (see the package docstring), so a command runs
# only the layers it calls; every command reads or writes records.
from . import annotations as ann_io
from . import builders, coords, evals, gateway, meteor, prompts, seeding
from .records import (
    SchemaError,
    config_digest,
    iter_lines,
    iter_rows,
    read_meta,
    verify_records,
    write_json,
    write_records,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_ARGS = 2
EXIT_SCHEMA = 3
EXIT_ALIGNMENT = 4
# 128 + the signal's number, as a shell reports a process that the signal ended
EXIT_SIGINT = 130
EXIT_SIGTERM = 143

DEFAULT_PHRASES = "left,right,the left,the right,left side,right side,to the left,to the right"

# Building the parser runs no submodule, so the choices and bounds it names
# are literals here; tests/test_cli.py holds each equal to its owner's value.
MOCK_NAMES = ("oracle", "random")  # gateway.MOCKS
TASK_NAMES = ("hallucination", "region", "spatial", "vqa")  # the tasks of prompts.OBJECTIVES
MAX_RETRY_DELAY_S = 3600.0  # gateway.MAX_RETRY_DELAY_S
# largest --mix ratio: an objective cycles over the eligible pairs at most this many times
MAX_MIX_RATIO = 100.0


def _parse_dims(text: str) -> coords.ImageDims:
    try:
        w, h = text.lower().split("x")
        return coords.ImageDims(int(w), int(h))
    except ValueError as exc:  # CodecError is a ValueError
        raise ValueError(f"bad --dims {text!r}, expected WxH: {exc}") from exc


def _parse_scheme(args) -> coords.ReprScheme:
    if args.scheme == "nfp":
        return coords.ReprScheme.nfp(decimals=args.decimals)
    if args.scheme == "ivb":
        return coords.ReprScheme.ivb(n_bins=args.nb)
    return coords.ReprScheme.diga(grid=args.grid, patch=args.patch)


def _parse_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise ValueError(f"bad --mix entry {part!r}, expected name=ratio")
        name = name.strip()
        if name not in builders.IFT_OBJECTIVES:
            raise ValueError(f"bad --mix entry {part!r}, objective must be one of {', '.join(builders.IFT_OBJECTIVES)}")
        if name in mix:
            raise ValueError(f"bad --mix entry {part!r}, objective {name} is already given")
        try:
            ratio = float(value)
        except ValueError:
            raise ValueError(f"bad --mix entry {part!r}, ratio must be a number") from None
        if not math.isfinite(ratio):
            raise ValueError(f"bad --mix entry {part!r}, ratio must be finite")
        if ratio < 0:
            raise ValueError(f"bad --mix entry {part!r}, ratio must not be negative")
        if ratio > MAX_MIX_RATIO:
            raise ValueError(f"bad --mix entry {part!r}, ratio must be at most {MAX_MIX_RATIO:g}")
        mix[name] = ratio
    if not sum(mix.values()):
        raise ValueError(f"bad --mix {text!r}, ratios must add up to more than 0")
    return mix


def _parse_coordinates(flag: str, text: str, count: int) -> list[float]:
    """``count`` comma-separated finite numbers, the value of ``flag``."""
    values = [float(v) for v in text.split(",")]
    if len(values) != count:
        raise ValueError(f"{flag} needs {count} values, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _add_scheme_flags(parser):
    parser.add_argument("--scheme", choices=["nfp", "ivb", "diga"], default="ivb")
    parser.add_argument("--decimals", type=int, default=4, help="nfp decimal places")
    parser.add_argument("--nb", type=int, default=224, help="ivb bins per axis")
    parser.add_argument("--grid", type=int, default=16, help="diga anchors per axis")
    parser.add_argument("--patch", type=int, default=14, help="diga pixels per anchor cell")


def _load_templates(args):
    if getattr(args, "templates", None):
        return prompts.load_template_overrides(args.templates)
    return prompts.DEFAULT_TEMPLATES


def _effective_config(args, names: list[str]) -> dict:
    cfg = {name: getattr(args, name) for name in names}
    if getattr(args, "templates", None):
        cfg["templates"] = str(args.templates)
    return cfg


# ---------------- codec commands ---------------- #


def cmd_encode(args) -> int:
    dims = _parse_dims(args.dims)
    scheme = _parse_scheme(args)
    if (args.bbox is None) == (args.point is None):
        raise ValueError("exactly one of --bbox or --point is required")
    if args.bbox is not None:
        text = coords.encode_bbox(coords.BBox(*_parse_coordinates("--bbox", args.bbox, 4)), dims, scheme)
    else:
        text = coords.encode_point(coords.PointLoc(*_parse_coordinates("--point", args.point, 2)), dims, scheme)
    print(text)
    return EXIT_OK


def cmd_decode(args) -> int:
    dims = _parse_dims(args.dims)
    scheme = _parse_scheme(args)
    decode = coords.decode_point if args.form == "point" else coords.decode_bbox
    decoded = decode(args.text, scheme, dims, lenient=args.lenient)
    print(" ".join(f"{v:g}" for v in decoded.as_tuple()))
    return EXIT_OK


# ---------------- build commands ---------------- #


def _write_build_outputs(args, records, report, config, kind) -> int:
    out = Path(args.out)
    count = write_records(out, records, config, kind)
    report_dict = report.to_dict()
    report_dict["config_digest"] = config_digest(config)
    write_json(out.with_suffix(".report.json"), report_dict)
    print(f"{kind}: wrote {count} records to {out}")
    return EXIT_OK


def cmd_build_ift(args) -> int:
    load = ann_io.load_coco_annotations(args.annotations)
    images = load.images
    templates = _load_templates(args)
    if args.captions:
        caption_records = ann_io.load_caption_records(args.captions)
        images, ingest_report = builders.ingest_pseudo_captions(images, caption_records)
    scheme = _parse_scheme(args)
    mix = _parse_mix(args.mix)
    samples, report = builders.build_ift_dataset(
        images, scheme, args.form, mix, args.seed, load.vocabulary, templates=templates,
    )
    report.exclusions.update(load.skipped)
    if args.captions:  # the images loaded go in, and the caption step's exclusions join the builder's
        report = report._replace(input_count=ingest_report.input_count)
        report.exclusions.update(ingest_report.exclusions)
    config = _effective_config(args, ["annotations", "captions", "scheme", "form", "mix", "seed"])
    config["scheme_params"] = scheme.to_dict()
    return _write_build_outputs(args, (s.to_record(scheme) for s in samples), report, config, "ift")


def cmd_build_spatial(args) -> int:
    load = ann_io.load_coco_annotations(args.annotations)
    templates = _load_templates(args)
    items, report = builders.build_spatial_bench(load.images, args.seed, templates=templates)
    report.exclusions.update(load.skipped)
    config = _effective_config(args, ["annotations", "seed"])
    return _write_build_outputs(args, (it.to_record(templates) for it in items), report, config, "spatial")


def cmd_build_hallucination(args) -> int:
    media = []
    vocabulary = None
    if args.annotations:
        load = ann_io.load_coco_annotations(args.annotations)
        media.extend(load.images)
        vocabulary = load.vocabulary
    if args.videos:
        detections = ann_io.load_video_detections(args.videos)
        for video_id in sorted(detections):
            cats = sorted({cat for dets in detections[video_id].values() for cat, _ in dets})
            media.append(ann_io.MediaCategories(video_id, "video", tuple(cats)))
    if not media:
        raise ValueError("need --annotations and/or --videos")
    if args.vocab_file:
        vocabulary = ann_io.load_vocabulary(args.vocab_file)
    if vocabulary is None:
        raise ValueError("need --vocab-file when building from videos only")
    disjoint = None
    if args.disjoint_from:
        disjoint = ann_io.load_coco_annotations(args.disjoint_from).vocabulary
    items, report = builders.build_hallucination_set(media, vocabulary, args.seed, args.per_media, disjoint_from=disjoint)
    if args.annotations:
        report.exclusions.update(load.skipped)
    templates = _load_templates(args)
    config = _effective_config(args, ["annotations", "videos", "vocab_file", "disjoint_from", "seed", "per_media"])
    return _write_build_outputs(args, (it.to_record(templates) for it in items), report, config, "hallucination")


def cmd_build_pseudo_captions(args) -> int:
    load = ann_io.load_coco_annotations(args.annotations)
    images, report = builders.ingest_pseudo_captions(load.images, [])
    templates = _load_templates(args)

    def records():
        for image in images:
            for obj in sorted(image.objects, key=lambda o: o.instance_id):
                sample_id = f"{image.image_id}:cap:{obj.instance_id}"
                prompt = prompts.render_caption_request(obj.category, templates)
                yield builders.dataset_record(sample_id, image.image_id, prompts.CAPTION_REQUEST, prompt, "",
                                              obj.category, seeding.derive_seed(args.seed, sample_id))

    report = report._replace(emitted_count=sum(len(image.objects) for image in images))
    report.exclusions.update(load.skipped)
    config = _effective_config(args, ["annotations", "seed"])
    return _write_build_outputs(args, records(), report, config, "caption_requests")


def cmd_build_video_static(args) -> int:
    if args.frames < 1:  # checked before the file is read, whether or not it holds a video
        raise ValueError(f"frame count must be at least 1, got {args.frames} (--frames)")
    detections = ann_io.load_video_detections(args.videos)
    tracks = []
    exclusions = Counter()
    for video_id in sorted(detections):
        video_tracks, tallies = builders.build_video_static_objects(detections[video_id], n_f=args.frames, video_id=video_id)
        for track in video_tracks:
            if not all(map(math.isfinite, track.averaged_box)):  # finite boxes whose sum overflows
                problem = f"video {video_id!r}: category {track.category!r}: averaged box is past a float's range"
                raise SchemaError(f"{args.videos}: {problem}")
        exclusions.update(tallies)
        tracks.extend((video_id, track) for track in video_tracks)
    records = (
        {
            "sample_id": f"{video_id}:track:{track.category}",
            "video_id": video_id,
            "category": track.category,
            "frames": {str(f): list(b.as_tuple()) for f, b in track.per_frame_boxes.items()},
            "averaged_box": list(track.averaged_box.as_tuple()),
            "is_static": track.is_static,
        }
        for video_id, track in tracks
    )
    report = builders.BuildReport(len(detections), len(tracks), exclusions)
    config = _effective_config(args, ["videos", "frames"])
    return _write_build_outputs(args, records, report, config, "video_tracks")


def cmd_stats(args) -> int:
    corpus_path = Path(args.corpus)
    conversations = [line.rstrip("\r\n") for _, line in iter_lines(corpus_path)]
    phrases = [p.strip() for p in args.phrases.split(",") if p.strip()]
    stats = builders.corpus_keyword_stats(conversations, phrases)
    payload = {
        "corpus": str(corpus_path),
        "total": len(conversations),
        "phrases": {p: {"count": c, "fraction": f} for p, (c, f) in stats.items()},
        "config_digest": config_digest({"corpus": str(corpus_path), "phrases": phrases}),
    }
    if args.out:
        write_json(args.out, payload)
    for phrase, (count, fraction) in stats.items():
        print(f"{phrase!r}: {count} ({100 * fraction:.2f}%)")
    return EXIT_OK


# ---------------- query ---------------- #


def _text_field(path, n: int, row: dict, field: str) -> str:
    """``row[field]``, a string; else a SchemaError naming the file, the record number and the field."""
    value = row.get(field)
    if isinstance(value, str):
        return value
    if field not in row:
        raise SchemaError(f"{path}: record {n}: missing {field}")
    raise SchemaError(f"{path}: record {n}: {field} is not a string")


def _stream_records(path, keep) -> tuple[int, SchemaError | None]:
    """Pass each record of a record file to ``keep(n, row)``, numbered from 1,
    until ``keep`` raises SchemaError; returns the number of records and that
    error or None.

    The error is returned, not raised, after every line has been read: a
    problem of the whole file, which ``iter_rows`` raises after its last row,
    is the one to report first."""
    count, problem = 0, None
    for _, row in iter_rows(path):
        count += 1
        if problem is None:
            try:
                keep(count, row)
            except SchemaError as exc:
                problem = exc
    return count, problem


def _sample_ids(path, *fields: str):
    """``sample_id(n, row)``: the sample_id of dataset record ``n``. A record
    without a string sample_id or string ``fields``, or one that repeats a
    sample_id, is a SchemaError naming the file and the record number."""
    seen = {}  # not a set: for 21k ids a set takes 2.1 MB, a dict 0.6 MB

    def sample_id(n: int, row: dict) -> str:
        value = _text_field(path, n, row, "sample_id")
        for field in fields:
            _text_field(path, n, row, field)
        if value in seen:
            raise SchemaError(f"{path}: record {n}: duplicate sample_id {value!r}")
        seen[value] = n
        return value

    return sample_id


def cmd_query(args) -> int:
    """Each record is kept as its request and, under ``--mock``, the mock's response to it."""
    mock = gateway.MOCKS.get(args.mock)
    requests, answers = [], {}
    sample_id_of = _sample_ids(args.records, "prompt")

    def keep(n: int, row: dict) -> None:
        sample_id = sample_id_of(n, row)
        requests.append(gateway.ModelRequest(sample_id, str(row.get("image_id", "")), row["prompt"]))
        if mock:
            answers[sample_id] = mock(sample_id, row, args.seed)

    count, problem = _stream_records(args.records, keep)
    if not count:
        raise SchemaError(f"{args.records}: no records")
    if problem:
        raise problem
    cfg = gateway.SamplingConfig(temperature=args.temperature, max_new_tokens=args.max_new_tokens)
    if mock:
        transport = gateway.MockTransport(answers)
    elif args.endpoint:
        transport = gateway.HttpTransport(args.endpoint)
    elif args.batch_dir:
        transport = gateway.FileBatchTransport(args.batch_dir)
    else:
        raise ValueError("need --mock, --endpoint, or --batch-dir (or GATEWAY_ENDPOINT / GATEWAY_BATCH_DIR)")
    results = gateway.query_batch(
        requests, transport, cfg,
        max_inflight=args.max_inflight, attempts=args.attempts, backoff=args.backoff,
    )
    errors = [r for r in results if r.status == "error"]
    for r in errors:
        print(f"error for {r.request_id}: {r.error_detail}", file=sys.stderr)
    responses = (
        {"item_id": r.request_id, "text": r.text, **({"status": "error"} if r.status == "error" else {})}
        for r in results
    )
    config = _effective_config(
        args,
        ["records", "mock", "seed", "endpoint", "batch_dir", "max_inflight", "attempts", "backoff", "temperature", "max_new_tokens"],
    )
    written = write_records(args.out, responses, config, "responses")
    print(f"wrote {written} responses to {args.out}")
    return EXIT_IO if len(errors) == len(results) else EXIT_OK


# ---------------- evaluate ---------------- #


def _read_responses(path) -> dict[str, str]:
    """The response text by item_id of a responses file that matches its meta
    line.

    A row that query marked ``status: error`` carries no answer of the model:
    it is left out, so that its item is tallied as missing, not scored."""
    responses = {}
    errored = set()

    def keep(n: int, row: dict) -> None:
        if "item_id" in row:
            text = _text_field(path, n, row, "text")
            item_id = _text_field(path, n, row, "item_id")
            if item_id in responses or item_id in errored:
                raise SchemaError(f"{path}: record {n}: duplicate item_id {item_id!r}")
            if row.get("status") == "error":
                errored.add(item_id)
            else:
                responses[item_id] = text

    _, problem = _stream_records(path, keep)
    if problem:
        raise problem
    if errored:
        print(f"{len(errored)} response(s) marked status: error, counted as missing", file=sys.stderr)
    return responses


def _check_pairing(records_path, records_digest, responses_path) -> None:
    """A SchemaError when the responses answer other records than those scored.

    A query output's meta config names the records file it read, as typed.
    Where that path, taken from the current directory, is a regular file
    whose line 1 is a meta line, its records digest must be
    ``records_digest``. Where it is not, or the config names no path (as for
    responses made by other tools), stderr says that the pairing is
    unchecked."""
    config = read_meta(responses_path).get("config")
    source = config.get("records") if isinstance(config, dict) else None
    digest = None
    if isinstance(source, str):
        try:
            digest = read_meta(source).get("records_digest")
        except OSError:
            pass
    if digest is None or records_digest is None:
        print(f"{responses_path}: pairing with {records_path} unchecked: no records digests to compare"
              f" (its config's records: {source!r})", file=sys.stderr)
    elif digest != records_digest:
        raise SchemaError(
            f"{responses_path} answers {source}, records digest {digest},"
            f" not {records_path}, records digest {records_digest}"
        )


def cmd_evaluate(args) -> int:
    """Each record is kept as its sample_id and ground truth, each response as
    its text. A record whose objective has a task needs the ground truth that
    its row of ``OBJECTIVES`` names, with a value the task's judgement knows;
    without --task, every record's objective must name the same task."""
    path, task = args.records, args.task or None
    sample_id_of = _sample_ids(path)
    truths, objectives, tasks = [], set(), set()

    def keep(n: int, row: dict) -> None:
        sample_id = sample_id_of(n, row)
        name = _text_field(path, n, row, "objective") if "objective" in row else ""
        objective = prompts.OBJECTIVES.get(name)
        row_task = objective.task if objective else None
        if task is not None and row_task != task:
            raise SchemaError(f"{path}: record {n}: objective {name!r} is not a {task} objective")
        objectives.add(name)
        tasks.add(row_task)
        if row_task is not None:
            truth = _text_field(path, n, row, objective.truth)
            allowed = evals.TRUTH_VALUES.get(row_task)
            if allowed and truth not in allowed:
                raise SchemaError(f"{path}: record {n}: {objective.truth} {truth!r} is not one of {', '.join(allowed)}")
            if row_task == "region" and not meteor.TOKEN_RE.search(truth.lower()):
                raise SchemaError(f"{path}: record {n}: {objective.truth} {truth!r} holds no word METEOR scores ([a-z0-9])")
            truths.append((sample_id, truth))

    count, problem = _stream_records(path, keep)
    responses = _read_responses(args.responses)
    if not count:
        raise SchemaError(f"{path}: no records")
    if problem:
        raise problem
    records_digest = read_meta(path).get("records_digest")
    _check_pairing(path, records_digest, args.responses)
    if task is None:
        if None in tasks or len(tasks) != 1:
            raise ValueError(f"cannot infer a single task from objectives {sorted(objectives)}; pass --task")
        task = tasks.pop()
    missing = [sample_id for sample_id, _ in truths if sample_id not in responses]
    for sample_id in missing[:10]:
        print(f"missing response for {sample_id}", file=sys.stderr)
    if len(missing) * 2 > count:
        print(f"{len(missing)}/{count} records lack responses", file=sys.stderr)
        return EXIT_ALIGNMENT
    options = {"strict": not args.containment_only} if task == "spatial" else {}
    # evals' attributes, looked up now: a table built at import would run evals
    # for every command, and names looked up by string would hide the callers
    scorers = {
        "spatial": evals.score_spatial,
        "vqa": evals.score_keyword_vqa,
        "hallucination": evals.score_hallucination,
        "region": evals.score_region_description,
    }
    report, items = scorers[task](truths, responses, **options)
    config = _effective_config(args, ["records", "responses", "task", "containment_only"])
    report = report._replace(config_digest=config_digest(config), dataset_digest=records_digest)
    if task == "region":
        print(f"meteor_mean {100 * report.meteor_mean:.2f}")
    else:
        headline = f"All {100 * report.accuracy:.1f}"
        for split, value in sorted(report.per_split.items()):
            headline += f"  {split.capitalize()} {100 * value:.1f}"
        print(headline)
    if args.report:
        write_json(args.report, report.to_dict())
    if args.dump:
        write_records(args.dump, (r.to_dict() for r in items), config, "eval_dump")
    return EXIT_OK


# ---------------- fixtures & verify ---------------- #


def cmd_fixtures(args) -> int:
    from . import fixtures

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images_50 = fixtures.annotation_fixture(50, seed=args.seed + 1)
    fixtures.write_coco_json(images_50, out / "coco_50.json")
    images_200 = fixtures.spatial_fixture(200, seed=args.seed)
    fixtures.write_coco_json(images_200, out / "coco_200.json")
    captions = fixtures.caption_fixture(images_50, seed=args.seed + 2)
    fixtures.write_jsonl(captions, out / "captions_50.jsonl")
    with open(out / "corpus_80k.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(fixtures.keyword_corpus(seed=7)) + "\n")
    fixtures.write_video_detections(fixtures.video_detection_fixture(seed=args.seed + 4), out / "videos.jsonl")
    vqa = fixtures.vqa_fixture(60, seed=args.seed + 5)
    write_records(out / "vqa.jsonl", vqa, {"seed": args.seed + 5, "kind": "vqa_fixture"}, "vqa")
    print(f"fixtures written to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    problems = []
    unreadable = False
    for path in args.files:
        try:
            problems.extend(verify_records(path))
        except SchemaError as exc:
            problems.append(f"schema error: {exc}")
        except OSError as exc:
            unreadable = True
            problems.append(_os_error_text(exc))
    for problem in problems:
        print(problem, file=sys.stderr)
    if unreadable:
        return EXIT_IO
    if problems:
        return EXIT_SCHEMA
    print(f"verified {len(args.files)} file(s)")
    return EXIT_OK


# ---------------- parser ---------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coordtext", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a pixel-space location as text")
    p.add_argument("--bbox", help="x1,y1,x2,y2 in pixels")
    p.add_argument("--point", help="cx,cy in pixels")
    p.add_argument("--dims", required=True, help="image dims WxH")
    _add_scheme_flags(p)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode coordinate text back to pixels")
    p.add_argument("--text", required=True)
    p.add_argument("--form", choices=["point", "bbox"], required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--lenient", action="store_true", help="accept missing parentheses and loose spacing")
    _add_scheme_flags(p)
    p.set_defaults(fn=cmd_decode)

    build = sub.add_parser("build", help="construct datasets").add_subparsers(dest="build_command", required=True)

    p = build.add_parser("ift", help="instruction-tuning conversations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--captions", help="pseudo-caption JSONL to attach first")
    p.add_argument("--form", choices=["point", "bbox"], default="bbox")
    p.add_argument("--mix", default="locpred=1,negpred=1,revloc=1",
                   help=f"objective=ratio of the eligible objects, each ratio at most {MAX_MIX_RATIO:g}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates", help="template override file")
    p.add_argument("--out", required=True)
    _add_scheme_flags(p)
    p.set_defaults(fn=cmd_build_ift)

    p = build.add_parser("spatial-bench", help="side-question benchmark")
    p.add_argument("--annotations", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_spatial)

    p = build.add_parser("hallucination", help="object-presence benchmark")
    p.add_argument("--annotations")
    p.add_argument("--videos", help="video detections JSONL")
    p.add_argument("--vocab-file", dest="vocab_file", help="one category per line (novel-category mode)")
    p.add_argument("--disjoint-from", dest="disjoint_from", help="annotations whose categories must not overlap --vocab-file")
    p.add_argument("--per-media", dest="per_media", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_hallucination)

    p = build.add_parser("pseudo-captions", help="caption-collection prompts for eligible instances")
    p.add_argument("--annotations", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_pseudo_captions)

    p = build.add_parser("video-static", help="static-object tracks from per-frame detections")
    p.add_argument("--videos", required=True)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_video_static)

    p = sub.add_parser("stats", help="corpus keyword statistics")
    p.add_argument("--corpus", required=True, help="one conversation per line")
    p.add_argument("--phrases", default=DEFAULT_PHRASES)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("query", help="answer dataset prompts via a model or mock")
    p.add_argument("--records", required=True)
    p.add_argument("--mock", choices=MOCK_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--endpoint", default=os.environ.get("GATEWAY_ENDPOINT"))
    p.add_argument("--batch-dir", dest="batch_dir", default=os.environ.get("GATEWAY_BATCH_DIR"))
    p.add_argument("--max-inflight", dest="max_inflight", type=int, default=4)
    p.add_argument("--attempts", type=int, default=3, help="tries per request before giving up")
    p.add_argument("--backoff", type=float, default=0.1,
                   help=f"initial retry delay, doubled per attempt; the last at most {MAX_RETRY_DELAY_S:g} s")
    p.add_argument("--temperature", type=float, default=0.2)
    p.add_argument("--max-new-tokens", dest="max_new_tokens", type=int, default=128)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("evaluate", help="score responses against dataset records")
    p.add_argument("--records", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--task", choices=TASK_NAMES)
    p.add_argument("--containment-only", dest="containment_only", action="store_true",
                   help="spatial: bare keyword containment, opposing keyword allowed")
    p.add_argument("--report")
    p.add_argument("--dump")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("fixtures", help="write synthetic offline fixtures")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("verify", help="recompute embedded digests of record files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_verify)

    return parser


def _os_error_text(exc: OSError) -> str:
    if isinstance(exc, FileNotFoundError):
        return f"cannot read {exc.filename}: {exc.strerror}"
    return f"i/o error: {exc}"


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread; not an Exception, so that no
    handler for one catches it."""


def _raise_terminated(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    """Run one command and return its exit code. Call it from the main thread:
    it installs a SIGTERM handler for the command, and restores the previous
    one as it returns."""
    parser = build_parser()
    previous_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    # Records are trees of dicts, lists and scalars, freed by reference
    # counting; the cyclic collector would only rescan every live record.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:  # CodecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as exc:
        print(_os_error_text(exc), file=sys.stderr)
        return EXIT_IO
    # An output is written aside and renamed into place, so a command stopped
    # before the rename leaves neither the output nor its temporary file.
    except KeyboardInterrupt:
        print("interrupted by SIGINT", file=sys.stderr)
        return EXIT_SIGINT
    except _Terminated:
        print("terminated by SIGTERM", file=sys.stderr)
        return EXIT_SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if gc_was_enabled:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
