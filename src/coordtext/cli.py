"""Command-line entry point: every pipeline stage behind one binary.

Exit codes are stable: 0 success, 1 I/O failure, 2 argument or value error,
3 schema or digest violation, 4 evaluation alignment failure. Every output
file embeds the effective config and its digest (see records.py), and rerun
with identical inputs and flags reproduces identical bytes.

Environment defaults: GATEWAY_ENDPOINT, GATEWAY_BATCH_DIR,
GATEWAY_MAX_INFLIGHT.
"""

import argparse
import gc
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import annotations as ann_io
from .builders import (
    MAX_MIX_RATIO,
    BuildReport,
    build_hallucination_set,
    build_ift_dataset,
    build_spatial_bench,
    build_video_static_objects,
    corpus_keyword_stats,
    dataset_record,
    ingest_pseudo_captions,
)
from .coords import (
    BBox,
    CodecError,
    ImageDims,
    LocationText,
    PointLoc,
    ReprScheme,
    decode_bbox,
    decode_point,
    encode_bbox,
    encode_point,
)
from .evals import (
    TRUTH_VALUES,
    score_hallucination,
    score_keyword_vqa,
    score_region_description,
    score_spatial,
)
from .gateway import (
    MAX_RETRY_DELAY_S,
    FileBatchTransport,
    HttpTransport,
    ModelRequest,
    OracleTransport,
    RandomTransport,
    SamplingConfig,
    query_batch,
)
from .prompts import CAPTION_REQUEST, DEFAULT_TEMPLATES, OBJECTIVES, load_template_overrides, render_caption_request
from .records import (
    SchemaError,
    config_digest,
    read_records,
    stored_records_digest,
    verify_records,
    write_json,
    write_records,
)
from .seeding import derive_seed

EXIT_OK = 0
EXIT_IO = 1
EXIT_ARGS = 2
EXIT_SCHEMA = 3
EXIT_ALIGNMENT = 4

DEFAULT_PHRASES = "left,right,the left,the right,left side,right side,to the left,to the right"


def _parse_dims(text: str) -> ImageDims:
    try:
        w, h = text.lower().split("x")
        return ImageDims(int(w), int(h))
    except (ValueError, CodecError) as exc:
        raise ValueError(f"bad --dims {text!r}, expected WxH: {exc}") from exc


def _parse_scheme(args) -> ReprScheme:
    if args.scheme == "nfp":
        return ReprScheme.nfp(decimals=args.decimals)
    if args.scheme == "ivb":
        return ReprScheme.ivb(n_bins=args.nb)
    return ReprScheme.diga(grid=args.grid, patch=args.patch)


def _parse_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise ValueError(f"bad --mix entry {part!r}, expected name=ratio")
        ratio = float(value)
        if not math.isfinite(ratio):
            raise ValueError(f"bad --mix entry {part!r}, ratio must be finite")
        if ratio > MAX_MIX_RATIO:
            raise ValueError(f"bad --mix entry {part!r}, ratio must be at most {MAX_MIX_RATIO:g}")
        mix[name.strip()] = ratio
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
        return load_template_overrides(args.templates)
    return DEFAULT_TEMPLATES


def _effective_config(args, names: list[str]) -> dict:
    cfg = {name: getattr(args, name) for name in names}
    if getattr(args, "templates", None):
        cfg["templates"] = str(args.templates)
    return cfg


def _load_annotations(path):
    try:
        return ann_io.load_coco_annotations(path)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise SchemaError(f"{path}: missing required field {exc}") from exc


# ---------------- codec commands ---------------- #


def cmd_encode(args) -> int:
    dims = _parse_dims(args.dims)
    scheme = _parse_scheme(args)
    if (args.bbox is None) == (args.point is None):
        raise ValueError("exactly one of --bbox or --point is required")
    if args.bbox is not None:
        loc = encode_bbox(BBox(*_parse_coordinates("--bbox", args.bbox, 4)), dims, scheme)
    else:
        loc = encode_point(PointLoc(*_parse_coordinates("--point", args.point, 2)), dims, scheme)
    print(loc.text)
    return EXIT_OK


def cmd_decode(args) -> int:
    dims = _parse_dims(args.dims)
    scheme = _parse_scheme(args)
    loc = LocationText(args.text, scheme, args.form)
    if args.form == "point":
        decoded = decode_point(loc, dims, lenient=args.lenient)
    else:
        decoded = decode_bbox(loc, dims, lenient=args.lenient)
    print(" ".join(f"{v:g}" for v in decoded.as_tuple()))
    return EXIT_OK


# ---------------- build commands ---------------- #


def _write_build_outputs(args, records, report, config, kind) -> int:
    out = Path(args.out)
    write_records(out, records, config, kind)
    report_dict = report.to_dict()
    report_dict["config_digest"] = config_digest(config)
    write_json(out.with_suffix(".report.json"), report_dict)
    print(f"{kind}: wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_build_ift(args) -> int:
    load = _load_annotations(args.annotations)
    images = load.images
    templates = _load_templates(args)
    if args.captions:
        caption_records = ann_io.load_caption_records(args.captions)
        images, ingest_report = ingest_pseudo_captions(images, caption_records)
    scheme = _parse_scheme(args)
    mix = _parse_mix(args.mix)
    samples, report = build_ift_dataset(
        images, scheme, args.form, mix, args.seed,
        vocabulary=load.vocabulary, templates=templates,
    )
    if args.captions:
        report = ingest_report.merge(report)
    report.exclusions.update(load.skipped)
    config = _effective_config(args, ["annotations", "captions", "scheme", "form", "mix", "seed"])
    config["scheme_params"] = scheme.to_dict()
    return _write_build_outputs(args, [s.to_record(scheme) for s in samples], report, config, "ift")


def cmd_build_spatial(args) -> int:
    load = _load_annotations(args.annotations)
    templates = _load_templates(args)
    items, report = build_spatial_bench(load.images, args.seed, templates=templates)
    report.exclusions.update(load.skipped)
    config = _effective_config(args, ["annotations", "seed"])
    return _write_build_outputs(args, [it.to_record(templates) for it in items], report, config, "spatial")


def cmd_build_hallucination(args) -> int:
    media = []
    vocabulary = None
    if args.annotations:
        load = _load_annotations(args.annotations)
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
        vocabulary = [line.strip() for line in Path(args.vocab_file).read_text(encoding="utf-8").splitlines() if line.strip()]
    if vocabulary is None:
        raise ValueError("need --vocab-file when building from videos only")
    disjoint = None
    if args.disjoint_from:
        disjoint = _load_annotations(args.disjoint_from).vocabulary
    items, report = build_hallucination_set(
        media, vocabulary, args.seed, n_present=args.per_media, n_absent=args.per_media, disjoint_from=disjoint
    )
    templates = _load_templates(args)
    config = _effective_config(args, ["annotations", "videos", "vocab_file", "disjoint_from", "seed", "per_media"])
    return _write_build_outputs(args, [it.to_record(templates) for it in items], report, config, "hallucination")


def cmd_build_pseudo_captions(args) -> int:
    load = _load_annotations(args.annotations)
    images, report = ingest_pseudo_captions(load.images, [])
    templates = _load_templates(args)
    records = []
    for image in images:
        for obj in sorted(image.objects, key=lambda o: o.instance_id):
            sample_id = f"{image.image_id}:cap:{obj.instance_id}"
            prompt = render_caption_request(obj.category, templates)
            records.append(
                dataset_record(sample_id, image.image_id, CAPTION_REQUEST, prompt, "", obj.category,
                               derive_seed(args.seed, sample_id))
            )
    report = report._replace(emitted_count=len(records))
    report.exclusions.update(load.skipped)
    config = _effective_config(args, ["annotations", "seed"])
    return _write_build_outputs(args, records, report, config, "caption_requests")


def cmd_build_video_static(args) -> int:
    detections = ann_io.load_video_detections(args.videos)
    records = []
    exclusions = Counter()
    for video_id in sorted(detections):
        tracks, tallies = build_video_static_objects(detections[video_id], n_f=args.frames, video_id=video_id)
        exclusions.update(tallies)
        for track in tracks:
            records.append(
                {
                    "sample_id": f"{video_id}:track:{track.category}",
                    "video_id": video_id,
                    "category": track.category,
                    "frames": {str(f): list(b.as_tuple()) for f, b in track.per_frame_boxes.items()},
                    "averaged_box": list(track.averaged_box.as_tuple()),
                    "is_static": track.is_static,
                }
            )
    report = BuildReport(len(detections), len(records), exclusions)
    config = _effective_config(args, ["videos", "frames"])
    return _write_build_outputs(args, records, report, config, "video_tracks")


def cmd_stats(args) -> int:
    corpus_path = Path(args.corpus)
    with open(corpus_path, encoding="utf-8") as fh:
        conversations = [line.rstrip("\n") for line in fh]
    phrases = [p.strip() for p in args.phrases.split(",") if p.strip()]
    stats = corpus_keyword_stats(conversations, phrases)
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


def _numbered_records(path, rows: list[dict], *fields: str):
    """Yield ``(n, row)`` for each dataset record, numbered from 1. A record
    without a string sample_id or string ``fields``, or one that repeats a
    sample_id, is a SchemaError naming the file and the record number."""
    seen = {}  # not a set: for 21k ids a set takes 2.1 MB, a dict 0.6 MB
    for n, row in enumerate(rows, 1):
        sample_id = _text_field(path, n, row, "sample_id")
        for field in fields:
            _text_field(path, n, row, field)
        if sample_id in seen:
            raise SchemaError(f"{path}: record {n}: duplicate sample_id {sample_id!r}")
        seen[sample_id] = n
        yield n, row


def cmd_query(args) -> int:
    _, rows = read_records(args.records)
    if not rows:
        raise SchemaError(f"{args.records}: no records")
    by_id = {row["sample_id"]: row for _, row in _numbered_records(args.records, rows, "prompt")}
    requests = [ModelRequest(row["sample_id"], str(row.get("image_id", "")), row["prompt"]) for row in rows]
    cfg = SamplingConfig(temperature=args.temperature, max_new_tokens=args.max_new_tokens)
    if args.mock == "oracle":
        transport = OracleTransport(by_id)
    elif args.mock == "random":
        transport = RandomTransport(by_id, args.seed)
    elif args.endpoint:
        transport = HttpTransport(args.endpoint)
    elif args.batch_dir:
        transport = FileBatchTransport(args.batch_dir)
    else:
        raise ValueError("need --mock, --endpoint, or --batch-dir (or GATEWAY_ENDPOINT / GATEWAY_BATCH_DIR)")
    results = query_batch(
        requests, transport, cfg,
        max_inflight=args.max_inflight, attempts=args.attempts, backoff=args.backoff,
    )
    errors = [r for r in results if r.status == "error"]
    for r in errors:
        print(f"error for {r.request_id}: {r.error_detail}", file=sys.stderr)
    responses = [
        {"item_id": r.request_id, "text": r.text, **({"status": "error"} if r.status == "error" else {})}
        for r in results
    ]
    config = _effective_config(
        args,
        ["records", "mock", "seed", "endpoint", "batch_dir", "max_inflight", "attempts", "backoff", "temperature", "max_new_tokens"],
    )
    write_records(args.out, responses, config, "responses")
    print(f"wrote {len(responses)} responses to {args.out}")
    return EXIT_IO if len(errors) == len(results) else EXIT_OK


# ---------------- evaluate ---------------- #

_SCORERS = {
    "spatial": score_spatial,
    "vqa": score_keyword_vqa,
    "hallucination": score_hallucination,
    "region": score_region_description,
}


def _check_records(path, rows, task: str | None) -> str:
    """Check evaluate's records in one pass; returns ``task``, or else the one
    task that scores every record's objective. A record whose objective has a
    task needs the ground truth that its row of ``OBJECTIVES`` names."""
    objectives, tasks = set(), set()
    for n, row in _numbered_records(path, rows):
        name = _text_field(path, n, row, "objective") if "objective" in row else ""
        objective = OBJECTIVES.get(name)
        row_task = objective.task if objective else None
        if task is not None and row_task != task:
            raise SchemaError(f"{path}: record {n}: objective {name!r} is not a {task} objective")
        objectives.add(name)
        tasks.add(row_task)
        if row_task is not None:
            truth = _text_field(path, n, row, objective.truth)
            allowed = TRUTH_VALUES.get(row_task)
            if allowed and truth not in allowed:
                raise SchemaError(f"{path}: record {n}: {objective.truth} {truth!r} is not one of {', '.join(allowed)}")
    if task is None:
        if None in tasks or len(tasks) != 1:
            raise ValueError(f"cannot infer a single task from objectives {sorted(objectives)}; pass --task")
        task = tasks.pop()
    return task


def _read_checked(path) -> tuple[dict, list[dict]]:
    """``read_records``, refusing a file whose records do not match its meta line's digest."""
    meta, rows = read_records(path)
    if meta and stored_records_digest(path) != meta.get("records_digest"):
        raise SchemaError(f"{path}: records digest mismatch")
    return meta, rows


def _read_responses(path) -> dict[str, str]:
    """Response text by item_id, from a responses file whose digest checks out.

    A row that query marked ``status: error`` carries no answer of the model:
    it is left out, so that its item is tallied as missing, not scored. The
    rows are dropped on return, so that scoring runs without them."""
    _, rows = _read_checked(path)
    responses = {}
    errored = set()
    for n, row in enumerate(rows, 1):
        if "item_id" in row:
            text = _text_field(path, n, row, "text")
            item_id = _text_field(path, n, row, "item_id")
            if item_id in responses or item_id in errored:
                raise SchemaError(f"{path}: record {n}: duplicate item_id {item_id!r}")
            if row.get("status") == "error":
                errored.add(item_id)
            else:
                responses[item_id] = text
    if errored:
        print(f"{len(errored)} response(s) marked status: error, counted as missing", file=sys.stderr)
    return responses


def cmd_evaluate(args) -> int:
    record_meta, rows = _read_checked(args.records)
    responses = _read_responses(args.responses)
    if not rows:
        raise SchemaError(f"{args.records}: no records")
    task = _check_records(args.records, rows, args.task or None)
    if not responses:
        print("no responses to evaluate", file=sys.stderr)
        return EXIT_ALIGNMENT
    missing = [row["sample_id"] for row in rows if row["sample_id"] not in responses]
    for sample_id in missing[:10]:
        print(f"missing response for {sample_id}", file=sys.stderr)
    if len(missing) * 2 > len(rows):
        print(f"{len(missing)}/{len(rows)} records lack responses", file=sys.stderr)
        return EXIT_ALIGNMENT
    options = {"strict": not args.containment_only} if task == "spatial" else {}
    report, items = _SCORERS[task](rows, responses, **options)
    config = _effective_config(args, ["records", "responses", "task", "containment_only"])
    report = report._replace(config_digest=config_digest(config), dataset_digest=record_meta.get("records_digest"))
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
    with open(out / "captions_50.jsonl", "w", encoding="utf-8") as fh:
        for rec in captions:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out / "corpus_80k.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(fixtures.keyword_corpus(seed=7)) + "\n")
    mask, category_map = fixtures.panoptic_fixture(seed=args.seed + 3)
    fixtures.write_panoptic_files(mask, category_map, out / "panoptic.grid.txt", out / "panoptic.categories.json")
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
    parser.add_argument(
        "--config",
        help="JSON file of flag defaults (dest names as keys); explicit flags win",
    )
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
    p.add_argument("--mock", choices=["oracle", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--endpoint", default=os.environ.get("GATEWAY_ENDPOINT"))
    p.add_argument("--batch-dir", dest="batch_dir", default=os.environ.get("GATEWAY_BATCH_DIR"))
    # a string default, so that argparse converts it only when query runs
    p.add_argument("--max-inflight", dest="max_inflight", type=int, default=os.environ.get("GATEWAY_MAX_INFLIGHT", "4"))
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
    p.add_argument("--task", choices=sorted({objective.task for objective in OBJECTIVES.values()} - {None}))
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


def _iter_parsers(parser, args=None):
    """``parser`` and its subparsers; only those of the command in ``args`` when it is given."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            children = action.choices.values() if args is None else [action.choices[getattr(args, action.dest)]]
            for child in dict.fromkeys(children):
                yield from _iter_parsers(child, args)


def _flags(parsers) -> dict:
    """dest -> action of every flag of ``parsers``, --help aside."""
    return {
        a.dest: a for p in parsers for a in p._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }


# by a flag's kind: what a --config value for it must be, and the JSON types it may have
_CONFIG_VALUES = {
    "switch": ("true or false", (bool,)),
    None: ("a string", (str,)),
    int: ("an integer", (str, int)),
    float: ("a number", (str, int, float)),
}


def _config_problem(parser, args, defaults: dict) -> str | None:
    """Why a --config value would not pass as its flag of the command in ``args``, or None.

    Every key must be some command's flag. A value for a flag of the running
    command must have a JSON type its flag's kind allows (a ``store_true``
    flag takes only a boolean), and its flag's type and choices must accept it.
    """
    known, running = _flags(_iter_parsers(parser)), _flags(_iter_parsers(parser, args))
    for key, value in defaults.items():
        if key not in known:
            return f"{key!r} is not a flag of any command"
        action = running.get(key)
        if action is None:
            continue
        flag = action.option_strings[-1]
        wanted, json_types = _CONFIG_VALUES["switch" if isinstance(action, argparse._StoreTrueAction) else action.type]
        refusal = f"{key!r} must be {wanted} for {flag}, got {value!r}"
        if type(value) not in json_types:
            return refusal
        try:
            converted = action.type(value) if action.type else value
        except ValueError:
            return refusal
        if action.choices is not None and converted not in action.choices:
            return f"{key!r} must be one of {', '.join(action.choices)} for {flag}, got {value!r}"
    return None


def _os_error_text(exc: OSError) -> str:
    if isinstance(exc, FileNotFoundError):
        return f"cannot read {exc.filename}: {exc.strerror}"
    return f"i/o error: {exc}"


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config, encoding="utf-8") as fh:
                file_defaults = json.load(fh)
        except OSError as exc:
            print(_os_error_text(exc), file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:  # not JSON, or not UTF-8
            print(f"schema error: {known.config}: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        if not isinstance(file_defaults, dict):
            print(f"schema error: {known.config}: not a JSON object", file=sys.stderr)
            return EXIT_SCHEMA
        problem = _config_problem(parser, parser.parse_args(rest), file_defaults)
        if problem:
            print(f"error: {known.config}: {problem}", file=sys.stderr)
            return EXIT_ARGS
        for p in _iter_parsers(parser):
            p.set_defaults(**file_defaults)
    args = parser.parse_args(rest)
    # Records are trees of dicts, lists and scalars, freed by reference
    # counting; the cyclic collector would only rescan every live record.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (CodecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as exc:
        print(_os_error_text(exc), file=sys.stderr)
        return EXIT_IO
    finally:
        if gc_was_enabled:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
