"""Acceptance gate: one test per shipping criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime budget is pinned here; the final
criterion needs real external annotations and is skipped offline.
Criterion 10 (token pooling) is retired: pooling a model's visual tokens
happens inside the model, and no stage of this pipeline has tokens to pool.
The other criteria keep their numbers.
"""

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from coordtext.builders import build_hallucination_set, build_ift_dataset, build_spatial_bench
from coordtext.cli import main
from coordtext.coords import (
    BBox,
    ImageDims,
    PointLoc,
    ReprScheme,
    decode_bbox,
    decode_point,
    encode_bbox,
    encode_point,
)
from coordtext.evals import score_hallucination
from coordtext.fixtures import CATEGORIES, annotation_fixture, keyword_corpus, spatial_fixture
from coordtext.gateway import random_mock
from coordtext.meteor import score_meteor
from coordtext.records import read_records
from test_builders import bruteforce_bench_keys, _item_key, media_fixture
from test_coords import coordinate_token_costs, encoded_anchor, numeric_token_cost, quantization_error_bound
from test_meteor import HAND_PAIRS, oracle_meteor

DIMS_512 = ImageDims(512, 512)
SWEEP_DIMS = [ImageDims(224, 224), ImageDims(336, 336), ImageDims(512, 512), ImageDims(640, 480)]
SCHEMES = [ReprScheme.nfp(), ReprScheme.ivb(224), ReprScheme.diga(16)]


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS criterion {number}: {name} ({elapsed:.2f}s < {budget_s:g}s)")


def _random_locations(rng, dims, count):
    locations = []
    for _ in range(count):
        if rng.random() < 0.5:
            locations.append(PointLoc(rng.uniform(0, dims.width), rng.uniform(0, dims.height)))
        else:
            x1, x2 = sorted(rng.uniform(0, dims.width) for _ in range(2))
            y1, y2 = sorted(rng.uniform(0, dims.height) for _ in range(2))
            locations.append(BBox(x1, y1, x2, y2))
    return locations


def test_criterion_1_golden_vectors():
    with criterion(1, "worked-example encodings reproduce byte-exactly", 1.0):
        box = BBox(10, 120, 30, 145)
        point = PointLoc(20, 132.5)
        assert encode_bbox(box, DIMS_512, ReprScheme.nfp()) == "(0.0195, 0.2344, 0.0586, 0.2832)"
        assert encode_bbox(box, DIMS_512, ReprScheme.ivb(224)) == "(4, 52, 13, 63)"
        assert encode_bbox(box, DIMS_512, ReprScheme.diga(16)) == "(0, 4, 3, 11, 6, 0)"
        assert encode_point(point, DIMS_512, ReprScheme.nfp()) == "(0.0391, 0.2588)"
        assert encode_point(point, DIMS_512, ReprScheme.ivb(224)) == "(8, 57)"
        diga_point = encode_point(point, DIMS_512, ReprScheme.diga(16))
        assert encoded_anchor(point, DIMS_512, ReprScheme.diga(16)) == (0, 4)
        decoded = decode_point(diga_point, ReprScheme.diga(16), DIMS_512)
        bound = quantization_error_bound(ReprScheme.diga(16), DIMS_512)
        assert abs(decoded.cx - point.cx) <= bound[0] + 1e-9
        assert abs(decoded.cy - point.cy) <= bound[1] + 1e-9


def test_criterion_2_token_cost_golden_and_bounds():
    with criterion(2, "token-cost rule and per-coordinate bounds over 10k encodings", 5.0):
        assert numeric_token_cost("12.34") == 5
        rng = random.Random(20)
        nfp, ivb = ReprScheme.nfp(), ReprScheme.ivb(224)
        for dims in SWEEP_DIMS:
            for loc in _random_locations(rng, dims, 2500):
                enc, form = (encode_bbox, "bbox") if isinstance(loc, BBox) else (encode_point, "point")
                assert all(c <= 6 for c in coordinate_token_costs(enc(loc, dims, nfp), nfp, form))
                assert all(c <= 3 for c in coordinate_token_costs(enc(loc, dims, ivb), ivb, form))


def test_criterion_3_roundtrip_error_bound():
    with criterion(3, "10k x 3 schemes x 4 dims round-trip within quantization bound", 10.0):
        rng = random.Random(30)
        violations = 0
        for dims in SWEEP_DIMS:
            for loc in _random_locations(rng, dims, 10_000 // len(SWEEP_DIMS) + 1):
                for scheme in SCHEMES:
                    bound = quantization_error_bound(scheme, dims)
                    if isinstance(loc, PointLoc):
                        decoded = decode_point(encode_point(loc, dims, scheme), scheme, dims)
                    else:
                        decoded = decode_bbox(encode_bbox(loc, dims, scheme), scheme, dims)
                    for i, (a, b) in enumerate(zip(loc.as_tuple(), decoded.as_tuple())):
                        if abs(a - b) > bound[i % 2] + 1e-9:
                            violations += 1
        assert violations == 0


def _bruteforce_anchor(p: PointLoc, dims: ImageDims, grid=16, patch=14):
    side = grid * patch
    x = p.cx * side / dims.width
    y = p.cy * side / dims.height
    best = None
    for pi in range(grid):
        cx = pi * patch + patch / 2
        for qi in range(grid):
            cy = qi * patch + patch / 2
            key = ((x - cx) ** 2 + (y - cy) ** 2, pi, qi)
            if best is None or key < best:
                best = key
    return (best[1], best[2])


def test_criterion_4_anchor_bruteforce_oracle():
    with criterion(4, "encoded anchor equals brute-force argmin on 10k points plus ties", 10.0):
        scheme = ReprScheme.diga(16)
        rng = random.Random(40)
        mismatches = 0
        for _ in range(10_000):
            dims = rng.choice(SWEEP_DIMS)
            p = PointLoc(rng.uniform(0, dims.width), rng.uniform(0, dims.height))
            if encoded_anchor(p, dims, scheme) != _bruteforce_anchor(p, dims):
                mismatches += 1
        tie_dims = ImageDims(224, 224)
        for k in range(1, 16):
            for p in (PointLoc(14 * k, 7), PointLoc(7, 14 * k), PointLoc(14 * k, 14 * k)):
                if encoded_anchor(p, tie_dims, scheme) != _bruteforce_anchor(p, tie_dims):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_5_builder_oracle_equivalence():
    with criterion(5, "builders equal independent brute-force checkers", 30.0):
        images = spatial_fixture(200, seed=0)
        items, _ = build_spatial_bench(images, seed=1)
        assert {_item_key(it) for it in items} == bruteforce_bench_keys(images)
        for item in items:
            axis_center = lambda b: (b.x1 + b.x2) / 2 if item.axis == "lr" else (b.y1 + b.y2) / 2
            low = "left" if item.axis == "lr" else "above"
            high = "right" if item.axis == "lr" else "below"
            expected = low if axis_center(item.obj_query[1]) < axis_center(item.obj_ref[1]) else high
            assert item.gt_keyword == expected

        ift_images = annotation_fixture(100, seed=2)
        from collections import Counter

        eligible = sum(
            1 for im in ift_images for _, n in Counter(o.category for o in im.objects).items() if n == 1
        )
        samples, _ = build_ift_dataset(
            ift_images, ReprScheme.ivb(224), "bbox", {"locpred": 1, "negpred": 1, "revloc": 1}, seed=3,
            vocabulary=list(CATEGORIES),
        )
        counts = Counter(s.objective for s in samples)
        assert counts["locpred"] == counts["revloc"] == counts["negpred"] == eligible


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    assert main(["fixtures", "--out", str(out / "fx"), "--seed", "0"]) == 0
    return out


def _run_pipeline(out, name, build_args, mock="oracle", seed=5):
    records = out / f"{name}.jsonl"
    responses = out / f"{name}.resp.jsonl"
    report = out / f"{name}.report.json"
    dump = out / f"{name}.dump.jsonl"
    if build_args is not None:
        assert main(build_args + ["--out", str(records)]) == 0
    assert main(["query", "--records", str(records), "--mock", mock, "--seed", str(seed), "--out", str(responses)]) == 0
    assert (
        main(
            ["evaluate", "--records", str(records), "--responses", str(responses), "--report", str(report), "--dump", str(dump)]
        )
        == 0
    )
    return json.loads(report.read_text()), dump


def test_criterion_6_end_to_end_oracle_identity(pipeline_dir):
    with criterion(6, "oracle answers score exactly 1.0 on every built benchmark", 30.0):
        fx = pipeline_dir / "fx"
        spatial_report, _ = _run_pipeline(
            pipeline_dir, "spatial", ["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1"]
        )
        assert spatial_report["accuracy"] == 1.0
        hal_report, _ = _run_pipeline(
            pipeline_dir, "hal", ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2"]
        )
        assert hal_report["accuracy"] == 1.0
        (pipeline_dir / "vqa.jsonl").write_bytes((fx / "vqa.jsonl").read_bytes())
        vqa_report, _ = _run_pipeline(pipeline_dir, "vqa", None)
        assert vqa_report["accuracy"] == 1.0
        region_report, dump = _run_pipeline(
            pipeline_dir,
            "region",
            [
                "build", "ift", "--annotations", str(fx / "coco_50.json"),
                "--captions", str(fx / "captions_50.jsonl"), "--mix", "revloc=1", "--seed", "3",
            ],
        )
        _, dump_rows = read_records(dump)
        assert dump_rows
        for row in dump_rows:
            self_reference = score_meteor(row["gt"], row["gt"])
            assert abs(row["score"] - self_reference) <= 1e-9


def test_criterion_7_chance_calibration():
    with criterion(7, "random baseline within the 99% binomial band on 10k balanced items", 30.0):
        media = media_fixture(2500, seed=13)
        items, _ = build_hallucination_set(media, list(CATEGORIES), seed=4, per_media=2)
        records = [it.to_record() for it in items]
        assert len(records) == 10_000
        assert sum(1 for r in records if r["gt"] == "yes") == 5_000
        truths = [(r["sample_id"], r["gt"]) for r in records]
        for seed in (0, 1, 2, 3, 4):
            responses = {sample_id: random_mock(sample_id, seed, "yes_no") for sample_id, _ in truths}
            report, _ = score_hallucination(truths, responses)
            assert 0.487 <= report.accuracy <= 0.513, f"seed {seed}: {report.accuracy}"


def test_criterion_8_presence_metric_identities():
    with criterion(8, "precision/recall/F1/yes-ratio identities", 5.0):
        media = media_fixture(50, seed=3)
        items, _ = build_hallucination_set(media, list(CATEGORIES), seed=4, per_media=2)
        truths = [(it.item_id, it.gt) for it in items]
        always_yes, _ = score_hallucination(truths, {sample_id: "Yes" for sample_id, _ in truths})
        assert always_yes.precision == 0.5
        assert always_yes.recall == 1.0
        assert always_yes.f1 == pytest.approx(2 / 3, abs=0)
        assert always_yes.yes_ratio == 1.0
        rng = random.Random(8)
        for trial in range(5):
            responses = {sample_id: rng.choice(["Yes", "No", "unclear"]) for sample_id, _ in truths}
            report, _ = score_hallucination(truths, responses)
            if report.precision is not None and report.recall is not None and report.f1 is not None:
                assert report.f1 == pytest.approx(
                    2 * report.precision * report.recall / (report.precision + report.recall), abs=1e-12
                )


def test_criterion_9_meteor_checks():
    with criterion(9, "similarity-metric formula traces and alignment oracle", 5.0):
        assert score_meteor("lamp chair mug", "vase drum clock") == 0.0
        assert score_meteor("cat", "cat") == pytest.approx(0.5, abs=1e-12)
        six = "the cat sat on a mat"
        assert score_meteor(six, six) == pytest.approx(1 - 0.5 * (1 / 6) ** 3, abs=1e-9)
        for reference, hypothesis in HAND_PAIRS:
            assert score_meteor(reference, hypothesis) == pytest.approx(
                oracle_meteor(reference, hypothesis), abs=1e-6
            )


def test_criterion_11_cli_determinism(pipeline_dir):
    with criterion(11, "identical configs give byte-identical build and mock-query files", 60.0):
        fx = pipeline_dir / "fx"

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        jobs = [
            ("ift", ["build", "ift", "--annotations", str(fx / "coco_50.json"), "--captions", str(fx / "captions_50.jsonl"), "--seed", "3"]),
            ("bench", ["build", "spatial-bench", "--annotations", str(fx / "coco_200.json"), "--seed", "1"]),
            ("hal", ["build", "hallucination", "--annotations", str(fx / "coco_50.json"), "--seed", "2"]),
            ("tracks", ["build", "video-static", "--videos", str(fx / "videos.jsonl")]),
        ]
        for name, args in jobs:
            first = pipeline_dir / f"det_{name}_1.jsonl"
            second = pipeline_dir / f"det_{name}_2.jsonl"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert digest(first) == digest(second), name
        bench = pipeline_dir / "det_bench_1.jsonl"
        for mock in ("oracle", "random"):
            first = pipeline_dir / f"det_resp_{mock}_1.jsonl"
            second = pipeline_dir / f"det_resp_{mock}_2.jsonl"
            assert main(["query", "--records", str(bench), "--mock", mock, "--seed", "7", "--out", str(first)]) == 0
            assert main(["query", "--records", str(bench), "--mock", mock, "--seed", "7", "--out", str(second)]) == 0
            assert digest(first) == digest(second), mock


def test_criterion_12_corpus_keyword_stats():
    with criterion(12, "keyword statistics reproduce the shipped corpus counts exactly", 5.0):
        from coordtext.builders import corpus_keyword_stats

        corpus = keyword_corpus(seed=7)
        stats = corpus_keyword_stats(corpus, ["the left", "left", "right"])
        assert stats["the left"] == (171, 171 / 80_000)
        assert round(stats["the left"][1] * 100, 2) == 0.21
        assert stats["left"] == (1619, 1619 / 80_000)
        assert stats["right"] == (5001, 5001 / 80_000)


@pytest.mark.skipif(
    "COORDTEXT_COCO_ANNOTATIONS" not in os.environ,
    reason="stretch criterion needs real external annotations (COORDTEXT_COCO_ANNOTATIONS)",
)
def test_criterion_13_stretch_real_annotations():
    from coordtext.annotations import load_coco_annotations

    load = load_coco_annotations(os.environ["COORDTEXT_COCO_ANNOTATIONS"])
    items, report = build_spatial_bench(load.images, seed=0)
    print("stretch build report:", report.to_dict())
    assert abs(len(items) - 26_716) <= 0.1 * 26_716
