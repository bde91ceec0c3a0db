"""Builder tests: every operation is checked against an independent brute-force oracle."""

import hashlib
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.annotations import AnnotatedImage, CaptionRecord, MediaCategories, ObjectAnn
from coordtext.builders import (
    CENTER_BAND,
    BuildReport,
    ConversationSample,
    SpatialBenchItem,
    build_hallucination_set,
    build_ift_dataset,
    build_spatial_bench,
    build_video_static_objects,
    corpus_keyword_stats,
    discover_negative_categories,
    ingest_pseudo_captions,
    unique_instance_objects,
)
from coordtext.coords import BBox, ImageDims, ReprScheme, decode_bbox, decode_point, encode_bbox, encode_point
from coordtext.fixtures import (
    CATEGORIES,
    annotation_fixture,
    caption_fixture,
    keyword_corpus,
    spatial_fixture,
)
from coordtext.prompts import (
    DEFAULT_TEMPLATES,
    LOCPRED,
    NEGPRED,
    REVLOC,
    SPATIAL_DIRECT,
    SPATIAL_ICL,
    render_locpred,
    render_negpred,
    render_revloc,
    render_spatial_query,
    spatial_icl_example,
)
from coordtext.seeding import derive_seed

IVB = ReprScheme.ivb(224)


def media_fixture(n: int = 40, seed: int = 3, medium: str = "video", n_categories: int = 6) -> list[MediaCategories]:
    """Category-presence media units with a fixed present-category count per unit."""
    rng = random.Random(seed)
    units = []
    for i in range(n):
        cats = tuple(sorted(rng.sample(CATEGORIES, n_categories)))
        units.append(MediaCategories(f"vid{i:05d}", medium, cats))
    return units


def _image(image_id, cats, dims=(512, 512), centers=None):
    objects = []
    for k, cat in enumerate(cats):
        if centers:
            cx, cy = centers[k]
        else:
            cx, cy = 100 + 60 * k, 120 + 40 * k
        objects.append(ObjectAnn(f"{image_id}.o{k}", cat, BBox(cx - 20, cy - 15, cx + 20, cy + 15)))
    return AnnotatedImage(image_id, ImageDims(*dims), tuple(objects))


# ---------------- unique-instance filter ---------------- #


def test_filter_unique_instances_rule():
    img = _image("a", ["lamp", "chair", "chair"])
    assert [o.category for o in unique_instance_objects(img)] == ["lamp"]
    img2 = _image("b", ["lamp", "chair", "mug"])
    assert sorted(o.category for o in unique_instance_objects(img2)) == ["chair", "lamp", "mug"]


def test_filter_unique_instances_matches_bruteforce():
    images = annotation_fixture(50, seed=1)
    got = {(im.image_id, o.category) for im in images for o in unique_instance_objects(im)}
    expected = set()
    for im in images:
        counts = Counter(o.category for o in im.objects)
        for cat, n in counts.items():
            if n == 1:
                expected.add((im.image_id, cat))
    assert got == expected


def test_discover_negatives():
    img = _image("a", ["lamp"])
    assert discover_negative_categories(img, ["lamp", "chair", "mug"]) == ["chair", "mug"]
    full = _image("b", ["lamp", "chair"])
    assert discover_negative_categories(full, ["lamp", "chair"]) == []
    assert discover_negative_categories(img, []) == []


def test_discover_negatives_matches_set_complement():
    for im in annotation_fixture(20, seed=9):
        got = discover_negative_categories(im, list(CATEGORIES))
        present = {o.category for o in im.objects}
        assert got == [c for c in CATEGORIES if c not in present]
        assert set(got) == set(CATEGORIES) - present


# ---------------- conversation dataset ---------------- #


def test_single_pair_yields_locpred_and_revloc():
    img = _image("a", ["lamp"])
    samples, report = build_ift_dataset([img], IVB, "bbox", {"locpred": 1, "revloc": 1}, seed=0, vocabulary=["lamp"])
    assert [s.objective for s in samples] == [LOCPRED, REVLOC]
    assert report.emitted_count == 2


def test_ift_counts_match_counting_oracle():
    images = annotation_fixture(100, seed=2)
    mix = {"locpred": 1.0, "negpred": 0.5, "revloc": 1.0}
    samples, report = build_ift_dataset(images, IVB, "bbox", mix, seed=3, vocabulary=list(CATEGORIES))
    eligible = sum(
        1 for im in images for cat, n in Counter(o.category for o in im.objects).items() if n == 1
    )
    counts = Counter(s.objective for s in samples)
    assert counts[LOCPRED] == eligible
    assert counts[REVLOC] == eligible
    assert counts[NEGPRED] == int(math.floor(eligible * 0.5 + 0.5))
    assert report.emitted_count == len(samples)
    assert report.input_count == 100


def test_negpred_descriptor_absent_from_image():
    images = annotation_fixture(100, seed=2)
    by_id = {im.image_id: im for im in images}
    samples, _ = build_ift_dataset(images, IVB, "bbox", {"negpred": 1}, seed=3, vocabulary=list(CATEGORIES))
    assert samples
    for s in samples:
        assert s.descriptor not in by_id[s.image_id].present_categories()
        assert s.location is None


def test_ift_descriptor_prefers_caption():
    img = _image("a", ["lamp"])
    captioned = AnnotatedImage(img.image_id, img.dims, img.objects, captions={"a.o0": "a tall lamp"})
    samples, _ = build_ift_dataset([captioned], IVB, "bbox", {"locpred": 1, "revloc": 1}, seed=0, vocabulary=["lamp"])
    assert all(s.descriptor == "a tall lamp" for s in samples)
    assert samples[1].target == "There is a a tall lamp."  # revloc target wraps the caption verbatim


@pytest.mark.parametrize("form", ["point", "bbox"])
@pytest.mark.parametrize("scheme", [ReprScheme.nfp(), IVB, ReprScheme.diga(16)], ids=["nfp", "ivb", "diga"])
def test_ift_samples_carry_a_location_exactly_for_locpred_and_revloc(scheme, form):
    """ConversationSample takes its fields as given, so the builder keeps
    them whole: a non-empty descriptor (an empty pseudo-caption falls back to
    the category), and a location of the requested scheme and form on exactly
    the locpred and revloc samples, which decodes on its image."""
    images = annotation_fixture(40, seed=5)
    blank = _image("blank", ["lamp"])
    images.append(AnnotatedImage(blank.image_id, blank.dims, blank.objects, captions={"blank.o0": ""}))
    by_id = {im.image_id: im for im in images}
    mix = {"locpred": 1, "negpred": 1, "revloc": 1}
    samples, _ = build_ift_dataset(images, scheme, form, mix, seed=11, vocabulary=list(CATEGORIES))
    assert {s.objective for s in samples} == {LOCPRED, NEGPRED, REVLOC}
    decode = decode_point if form == "point" else decode_bbox
    for s in samples:
        assert s.descriptor and s.form == form
        if s.objective == NEGPRED:
            assert s.location is None
        else:
            decode(s.location, scheme, by_id[s.image_id].dims)
    assert {s.descriptor for s in samples if s.image_id == "blank" and s.objective != NEGPRED} == {"lamp"}


def test_ift_samples_rerender_from_metadata():
    images = annotation_fixture(40, seed=5)
    samples, _ = build_ift_dataset(
        images, IVB, "point", {"locpred": 1, "negpred": 1, "revloc": 1}, seed=11, vocabulary=list(CATEGORIES)
    )
    for s in samples:
        if s.objective == LOCPRED:
            pair = render_locpred(s.descriptor, s.form, s.location, s.seed)
        elif s.objective == REVLOC:
            pair = render_revloc(s.location, s.descriptor, s.seed)
        else:
            pair = render_negpred(s.descriptor, s.form, s.seed)
        assert (pair.prompt, pair.target) == (s.prompt, s.target)


def test_ift_deterministic_and_order_invariant():
    images = annotation_fixture(40, seed=5)
    args = (IVB, "bbox", {"locpred": 1, "negpred": 1, "revloc": 1})
    a, _ = build_ift_dataset(images, *args, seed=11, vocabulary=list(CATEGORIES))
    b, _ = build_ift_dataset(list(reversed(images)), *args, seed=11, vocabulary=list(CATEGORIES))
    c, _ = build_ift_dataset(images, *args, seed=11, vocabulary=list(CATEGORIES))
    assert a == b == c


# ---------------- reference builders ---------------- #
# derive_seed, the unique-instance filter, caption ingest and the ift builder
# as they were before their per-object work was cut: a Counter and a linear
# object scan per caption, a seed joined from five parts, checked constructors.


def reference_derive_seed(*parts) -> int:
    key = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def reference_unique_instance_objects(image):
    counts = image.category_counts()
    return [o for o in sorted(image.objects, key=lambda o: o.instance_id) if counts[o.category] == 1]


def reference_ingest_pseudo_captions(images, caption_records):
    images = sorted(images, key=lambda im: im.image_id)
    exclusions = Counter()
    kept = {}
    for image in images:
        counts = image.category_counts()
        if counts and max(counts.values()) > 1:
            exclusions["images_with_duplicate_category"] += 1
            continue
        kept[image.image_id] = image
    captions = {}
    for rec in caption_records:
        image = kept.get(rec.image_id)
        if image is None or all(o.instance_id != rec.instance_id for o in image.objects):
            exclusions["captions_dangling"] += 1
            continue
        per_image = captions.setdefault(rec.image_id, {})
        if rec.instance_id in per_image:
            exclusions["captions_duplicate"] += 1
            continue
        per_image[rec.instance_id] = rec.caption
    out = []
    for image_id, image in kept.items():
        attached = captions.get(image_id)
        if attached:
            merged = dict(image.captions or {})
            merged.update(attached)
            image = AnnotatedImage(image.image_id, image.dims, image.objects, captions=merged)
        out.append(image)
    return out, BuildReport(len(images), len(out), exclusions)


def reference_build_ift_dataset(images, scheme, form, mix, seed, vocabulary, templates=DEFAULT_TEMPLATES):
    images = sorted(images, key=lambda im: im.image_id)
    exclusions = Counter()
    eligible = []
    for image in images:
        objs = reference_unique_instance_objects(image)
        if not objs:
            exclusions["images_without_eligible_objects"] += 1
        eligible.extend((image, obj) for obj in objs)
    if not eligible:
        return [], BuildReport(len(images), 0, exclusions)
    total = len(eligible)

    def make_sample(task):
        objective, index = task
        image, obj = eligible[index % total]
        cycle = index // total
        sample_seed = reference_derive_seed(seed, image.image_id, obj.instance_id, objective, cycle)
        sample_id = f"{image.image_id}:{obj.instance_id}:{objective}:{cycle}"
        if objective == NEGPRED:
            negatives = discover_negative_categories(image, vocabulary)
            if not negatives:
                return None
            descriptor = random.Random(sample_seed).choice(negatives)
            pair = render_negpred(descriptor, form, sample_seed, templates)
            location = None
        else:
            descriptor = image.caption_for(obj.instance_id) or obj.category
            if form == "point":
                location = encode_point(obj.bbox.center(), image.dims, scheme)
            else:
                location = encode_bbox(obj.bbox, image.dims, scheme)
            if objective == LOCPRED:
                pair = render_locpred(descriptor, form, location, sample_seed, templates)
            else:
                pair = render_revloc(location, descriptor, sample_seed, templates)
        return ConversationSample(
            sample_id=sample_id, image_id=image.image_id, objective=objective, prompt=pair.prompt,
            target=pair.target, location=location, descriptor=descriptor, form=form, seed=sample_seed,
        )

    tasks = []
    for objective in (LOCPRED, NEGPRED, REVLOC):
        count = int(math.floor(total * mix.get(objective, 0.0) + 0.5))
        tasks.extend((objective, i) for i in range(count))
    samples = [s for s in map(make_sample, tasks) if s is not None]
    dropped = sum(1 for o, _ in tasks if o == NEGPRED) - sum(1 for s in samples if s.objective == NEGPRED)
    if dropped:
        exclusions["negatives_without_candidates"] += dropped
    samples.sort(key=lambda s: (s.image_id, s.sample_id))
    return samples, BuildReport(len(images), len(samples), exclusions)


@given(
    st.integers(-3, 10**20), st.lists(st.one_of(st.integers(-3, 10**20), st.text(max_size=6)), min_size=1, max_size=5)
)
@settings(max_examples=300, deadline=None)
def test_derive_seed_matches_reference(seed, parts):
    """A key joined from parts with ":", as the ift builder's sample ids are,
    gives the seed of the parts joined."""
    assert derive_seed(seed, ":".join(map(str, parts))) == reference_derive_seed(seed, *parts)


# Small pools, so that images share ids and categories repeat within an image;
# an id or category holding ":" tests the joined sample ids and seeds.
_image_ids = st.sampled_from(["a", "b", "a:b", "c", "10"])
_instance_ids = st.sampled_from(["o0", "o1", "o:2", "o3", "x"])
_categories = st.sampled_from(["lamp", "mug", "pan", "cup"])


@st.composite
def annotated_images(draw):
    dims = ImageDims(draw(st.integers(1, 900)), draw(st.integers(1, 900)))
    objects = []
    for instance_id in draw(st.lists(_instance_ids, unique=True, max_size=4)):
        x1, x2 = sorted(draw(st.floats(0, dims.width)) for _ in range(2))
        y1, y2 = sorted(draw(st.integers(0, dims.height)) for _ in range(2))
        objects.append(ObjectAnn(instance_id, draw(_categories), BBox(x1, y1, x2, y2)))
    captions = draw(st.none() | st.dictionaries(_instance_ids, st.sampled_from(["old", ""]), max_size=2))
    return AnnotatedImage(draw(_image_ids), dims, tuple(objects), captions)


_caption_records = st.lists(
    st.builds(CaptionRecord, _image_ids, _instance_ids, st.sampled_from(["a tall lamp", "a mug", ""])), max_size=8
)


@given(st.lists(annotated_images(), max_size=6), _caption_records)
@settings(max_examples=300, deadline=None)
def test_ingest_and_unique_instance_filter_match_reference(images, records):
    out, report = ingest_pseudo_captions(images, records)
    expected_out, expected_report = reference_ingest_pseudo_captions(images, records)
    assert (repr(out), report.to_dict()) == (repr(expected_out), expected_report.to_dict())
    for image in images:
        assert unique_instance_objects(image) == reference_unique_instance_objects(image)


@given(
    st.lists(annotated_images(), max_size=5),
    st.sampled_from([IVB, ReprScheme.nfp(), ReprScheme.diga()]),
    st.sampled_from(["bbox", "point"]),
    st.fixed_dictionaries({}, optional={o: st.sampled_from([0, 0.5, 1, 2.5]) for o in (LOCPRED, NEGPRED, REVLOC)})
    .filter(lambda mix: sum(mix.values()) > 0),
    st.integers(0, 2**70),
    st.none() | st.lists(_categories, min_size=1, unique=True),
)
@settings(max_examples=300, deadline=None)
def test_ift_builder_matches_reference(images, scheme, form, mix, seed, vocabulary):
    if vocabulary is None:  # the vocabulary of a COCO file that names only the categories its objects have
        vocabulary = sorted({c for image in images for c in image.present_categories()})
    samples, report = build_ift_dataset(images, scheme, form, mix, seed, vocabulary=vocabulary)
    expected, expected_report = reference_build_ift_dataset(images, scheme, form, mix, seed, vocabulary=vocabulary)
    assert (repr(samples), report.to_dict()) == (repr(expected), expected_report.to_dict())


# ---------------- spatial bench ---------------- #


def _axis_center(obj, axis):
    b = obj.bbox
    return (b.x1 + b.x2) / 2 if axis == "lr" else (b.y1 + b.y2) / 2


def bruteforce_bench_keys(images):
    """Independent constraint checker; returns expected item keys."""
    expected = set()
    for image in images:
        objs = sorted(image.objects, key=lambda o: o.instance_id)
        if len(objs) != 3 or len({o.category for o in objs}) != 3:
            continue
        for axis in ("lr", "ab"):
            dim = image.dims.width if axis == "lr" else image.dims.height
            centers = {o.instance_id: _axis_center(o, axis) for o in objs}
            if any(0.4 * dim <= c <= 0.6 * dim for c in centers.values()):
                continue
            low, high = ("left", "right") if axis == "lr" else ("above", "below")
            kw = {oid: (low if c < dim / 2 else high) for oid, c in centers.items()}
            if len(set(kw.values())) < 2:
                continue
            for ref in objs:
                for query in objs:
                    if ref is query or kw[ref.instance_id] == kw[query.instance_id]:
                        continue
                    expected.add(
                        (image.image_id, axis, "direct", ref.category, query.category, kw[query.instance_id])
                    )
            for lone in objs:
                if sum(1 for o in objs if kw[o.instance_id] == kw[lone.instance_id]) != 1:
                    continue
                crowd = [o for o in objs if o is not lone]
                for example in crowd:
                    ref = next(o for o in crowd if o is not example)
                    expected.add(
                        (
                            image.image_id,
                            axis,
                            "icl",
                            ref.category,
                            lone.category,
                            kw[lone.instance_id],
                            example.category,
                        )
                    )
    return expected


def _item_key(item):
    if item.icl_context is None:
        return (item.image_id, item.axis, "direct", item.obj_ref[0], item.obj_query[0], item.gt_keyword)
    m = re.fullmatch(r"Which side of .+ is (.+) located\?", item.icl_context[0][0])
    return (
        item.image_id,
        item.axis,
        "icl",
        item.obj_ref[0],
        item.obj_query[0],
        item.gt_keyword,
        m.group(1),
    )


def test_spatial_bench_matches_bruteforce_checker():
    images = spatial_fixture(200, seed=0)
    items, report = build_spatial_bench(images, seed=1)
    assert {_item_key(it) for it in items} == bruteforce_bench_keys(images)
    assert len({it.item_id for it in items}) == len(items)
    assert report.input_count == 200
    assert report.emitted_count == len(items) > 0
    assert report.exclusions["not_triplet"] > 0


def test_spatial_gt_matches_geometry():
    images = spatial_fixture(200, seed=0)
    items, _ = build_spatial_bench(images, seed=1)
    for item in items:
        qc = (item.obj_query[1].x1 + item.obj_query[1].x2) / 2 if item.axis == "lr" else (
            item.obj_query[1].y1 + item.obj_query[1].y2
        ) / 2
        rc = (item.obj_ref[1].x1 + item.obj_ref[1].x2) / 2 if item.axis == "lr" else (
            item.obj_ref[1].y1 + item.obj_ref[1].y2
        ) / 2
        low = "left" if item.axis == "lr" else "above"
        high = "right" if item.axis == "lr" else "below"
        assert item.gt_keyword == (low if qc < rc else high)


def test_spatial_bench_band_exclusion():
    qualifying = _image("q", ["lamp", "chair", "mug"], centers=[(51.2, 60), (102.4, 100), (460.8, 400)])
    banded = _image("w", ["lamp", "chair", "mug"], centers=[(256, 60), (102.4, 100), (460.8, 400)])
    items_q, _ = build_spatial_bench([qualifying], seed=0)
    items_w, report = build_spatial_bench([banded], seed=0)
    assert any(it.axis == "lr" for it in items_q)
    assert not any(it.axis == "lr" for it in items_w)
    assert report.exclusions["lr_center_band"] == 1


def test_spatial_icl_prompt_layout():
    images = spatial_fixture(60, seed=4)
    items, _ = build_spatial_bench(images, seed=1)
    icl_items = [it for it in items if it.icl_context]
    assert icl_items
    for item in icl_items[:10]:
        prompt = item.to_record()["prompt"]
        assert prompt.count("Q:") == 3 and prompt.count("A:") == 2
        # the first worked answer states the queried object's own side keyword
        assert item.gt_keyword in item.icl_context[0][1]


def test_spatial_bench_deterministic():
    images = spatial_fixture(80, seed=2)
    a, _ = build_spatial_bench(images, seed=7)
    b, _ = build_spatial_bench(list(reversed(images)), seed=7)
    assert a == b


def reference_spatial_bench(images, seed, templates=DEFAULT_TEMPLATES):
    """The spatial builder as written before it computed its axes inline: one
    keyword-built item per qualifying pair, axes through accessor lambdas."""

    def axis_accessors(axis):
        if axis == "lr":
            return (lambda b: (b.x1 + b.x2) / 2), (lambda dims: dims.width), ("left", "right")
        return (lambda b: (b.y1 + b.y2) / 2), (lambda dims: dims.height), ("above", "below")

    images = sorted(images, key=lambda im: im.image_id)
    exclusions = Counter()
    items = []
    for image in images:
        objs = sorted(image.objects, key=lambda o: o.instance_id)
        if len(objs) != 3 or len({o.category for o in objs}) != 3:
            exclusions["not_triplet"] += 1
            continue
        for axis in ("lr", "ab"):
            center_of, dim_of, keywords = axis_accessors(axis)
            dim = dim_of(image.dims)
            centers = [center_of(o.bbox) for o in objs]
            if any(CENTER_BAND[0] * dim <= c <= CENTER_BAND[1] * dim for c in centers):
                exclusions[f"{axis}_center_band"] += 1
                continue
            sides = [keywords[0] if c < dim / 2 else keywords[1] for c in centers]
            if len(set(sides)) < 2:
                exclusions[f"{axis}_same_side"] += 1
                continue
            ordinal = 0
            for i, ref in enumerate(objs):
                for j, query in enumerate(objs):
                    if i == j or sides[i] == sides[j]:
                        continue
                    item_id = f"{image.image_id}:{axis}:direct:{ordinal:02d}"
                    items.append(SpatialBenchItem(
                        item_id=item_id, image_id=image.image_id, axis=axis,
                        obj_query=(query.category, query.bbox), obj_ref=(ref.category, ref.bbox),
                        gt_keyword=sides[j], icl_context=None, seed=derive_seed(seed, item_id),
                    ))
                    ordinal += 1
            ordinal = 0
            for a, lone in enumerate(objs):
                if sum(1 for s in sides if s == sides[a]) != 1:
                    continue
                others = [k for k in range(3) if k != a]
                for b in others:
                    c = next(k for k in others if k != b)
                    example_pair = (
                        spatial_icl_example(objs[a].category, objs[b].category, sides[a], templates),
                        spatial_icl_example(objs[b].category, objs[a].category, sides[b], templates),
                    )
                    item_id = f"{image.image_id}:{axis}:icl:{ordinal:02d}"
                    items.append(SpatialBenchItem(
                        item_id=item_id, image_id=image.image_id, axis=axis,
                        obj_query=(objs[a].category, objs[a].bbox), obj_ref=(objs[c].category, objs[c].bbox),
                        gt_keyword=sides[a], icl_context=example_pair, seed=derive_seed(seed, item_id),
                    ))
                    ordinal += 1
    items.sort(key=lambda it: it.item_id)
    return items, BuildReport(len(images), len(items), exclusions)


def reference_spatial_record(item, templates=DEFAULT_TEMPLATES) -> dict:
    return {
        "sample_id": item.item_id,
        "image_id": item.image_id,
        "objective": SPATIAL_ICL if item.icl_context else SPATIAL_DIRECT,
        "prompt": render_spatial_query(item.obj_ref[0], item.obj_query[0], icl=item.icl_context, templates=templates),
        "target": item.gt_keyword,
        "location_text": None,
        "scheme": None,
        "form": None,
        "descriptor": item.obj_query[0],
        "seed": item.seed,
        "axis": item.axis,
        "gt_keyword": item.gt_keyword,
        "icl_context": [list(pair) for pair in item.icl_context] if item.icl_context else None,
    }


@st.composite
def _axis_span(draw, dim: int):
    """An (x1, x2) span of an axis of length ``dim``, of integers or floats:
    below, above or across the central band, or centered exactly on a band
    edge or on the axis middle. Most lie off the band, so that most axes
    qualify and an edge case meets two qualifying objects."""
    kind = draw(st.sampled_from(["below", "above"] * 3 + ["across", "band-low", "band-high", "middle"]))
    low_edge, high_edge = CENTER_BAND[0] * dim, CENTER_BAND[1] * dim
    if draw(st.booleans()):  # integers
        ends = {"below": st.integers(0, math.ceil(low_edge) - 1), "above": st.integers(math.floor(high_edge) + 1, dim),
                "across": st.integers(0, dim)}.get(kind)
    else:
        ends = {"below": st.floats(0, low_edge, exclude_max=True), "above": st.floats(high_edge, dim, exclude_min=True),
                "across": st.floats(0, dim)}.get(kind)
    if ends is not None:
        return tuple(sorted(draw(st.lists(ends, min_size=2, max_size=2))))
    center = {"band-low": CENTER_BAND[0] * dim, "band-high": CENTER_BAND[1] * dim, "middle": dim / 2}[kind]
    if center == int(center) and draw(st.booleans()):
        half = draw(st.integers(0, min(int(center), dim - int(center))))
        return int(center) - half, int(center) + half
    return center, center


@st.composite
def spatial_images(draw, image_id: str):
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n = draw(st.sampled_from([2, 3, 3, 3, 4]))
    categories = draw(st.permutations(["cat", "dog", "cup", "car"]))[:n]
    if draw(st.booleans()):
        categories[-1] = categories[0]
    order = draw(st.permutations(range(n)))  # instance order differs from listing order
    objects = []
    for k in order:
        (x1, x2), (y1, y2) = draw(_axis_span(width)), draw(_axis_span(height))
        objects.append(ObjectAnn(f"o{k}", categories[k], BBox(x1, y1, x2, y2)))
    return AnnotatedImage(image_id, ImageDims(width, height), tuple(objects))


SPATIAL_OVERRIDE = DEFAULT_TEMPLATES._replace(
    spatial_direct="Is the {obj2} left, right, above or below the {obj1}?",
    spatial_icl_answer="{keyword}: the {obj1} to the {obj2}",
)


@given(
    st.lists(st.sampled_from(["im1", "im10", "im2", "a", "a:b"]), unique=True, max_size=5).flatmap(
        lambda ids: st.tuples(*(spatial_images(image_id) for image_id in ids))
    ),
    st.integers(0, 2**64),
    st.sampled_from([DEFAULT_TEMPLATES, SPATIAL_OVERRIDE]),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_spatial_bench_matches_reference(images, seed, templates):
    """Equal items, report and records, band edges and the axis middle included."""
    items, report = build_spatial_bench(list(images), seed, templates)
    expected_items, expected_report = reference_spatial_bench(images, seed, templates)
    assert items == expected_items
    assert report == expected_report
    assert [it.to_record(templates) for it in items] == [reference_spatial_record(it, templates) for it in expected_items]


# ---------------- hallucination ---------------- #


def test_hallucination_two_plus_two():
    img = _image("a", ["lamp", "chair", "mug", "plant", "radio"])
    items, _ = build_hallucination_set([img], list(CATEGORIES), seed=0, per_media=2)
    assert len(items) == 4
    assert sum(1 for it in items if it.gt == "yes") == 2
    assert sum(1 for it in items if it.gt == "no") == 2
    assert all(it.medium == "image" for it in items)


def test_hallucination_membership_oracle():
    media = list(media_fixture(50, seed=3)) + list(annotation_fixture(50, seed=12))
    items, _ = build_hallucination_set(media, list(CATEGORIES), seed=9, per_media=2)
    present_by_media = {}
    for m in media:
        if isinstance(m, MediaCategories):
            present_by_media[m.media_id] = set(m.categories)
        else:
            present_by_media[m.image_id] = m.present_categories()
    assert items
    for it in items:
        if it.gt == "yes":
            assert it.obj in present_by_media[it.media_id]
        else:
            assert it.obj not in present_by_media[it.media_id]


def test_hallucination_empty_present_tallied():
    empty = AnnotatedImage("e", ImageDims(64, 64), ())
    items, report = build_hallucination_set([empty], list(CATEGORIES), seed=0, per_media=2)
    assert all(it.gt == "no" for it in items) and len(items) == 2
    assert report.exclusions["media_without_present_categories"] == 1


def test_hallucination_novel_vocab_disjointness():
    media = media_fixture(5, seed=3)
    with pytest.raises(ValueError, match="overlap"):
        build_hallucination_set(media, ["lamp", "pylon"], seed=0, per_media=2, disjoint_from=list(CATEGORIES))
    novel = ["pylon", "awning", "gazebo"]
    items, _ = build_hallucination_set(media, novel, seed=0, per_media=2, disjoint_from=list(CATEGORIES))
    assert all(it.gt == "no" for it in items)  # novel categories never in fixture media


def test_hallucination_refuses_a_negative_count():
    media = media_fixture(3, seed=3)
    with pytest.raises(ValueError, match="^per_media must be non-negative, got -1$"):
        build_hallucination_set(media, list(CATEGORIES), seed=0, per_media=-1)
    items, _ = build_hallucination_set(media, list(CATEGORIES), seed=0, per_media=0)
    assert items == []


def test_hallucination_deterministic():
    media = media_fixture(30, seed=3)
    a, _ = build_hallucination_set(media, list(CATEGORIES), seed=5, per_media=2)
    b, _ = build_hallucination_set(list(reversed(media)), list(CATEGORIES), seed=5, per_media=2)
    assert a == b


# ---------------- pseudo-caption ingestion ---------------- #


def test_ingest_attaches_and_reports_dangling():
    img = _image("a", ["lamp", "chair"])
    records = [
        CaptionRecord("a", "a.o0", "a tall lamp"),
        CaptionRecord("a", "missing", "nope"),
        CaptionRecord("ghost", "a.o0", "nope"),
    ]
    out, report = ingest_pseudo_captions([img], records)
    assert out[0].caption_for("a.o0") == "a tall lamp"
    assert out[0].caption_for("a.o1") is None
    assert report.exclusions == {"captions_dangling": 2}  # an attached caption is no exclusion


def test_ingest_filters_duplicate_category_images():
    dup = _image("d", ["lamp", "lamp"])
    ok = _image("k", ["lamp", "chair"])
    out, report = ingest_pseudo_captions([dup, ok], [])
    assert [im.image_id for im in out] == ["k"]
    assert report.exclusions["images_with_duplicate_category"] == 1


def test_ingest_matches_join_oracle():
    images = annotation_fixture(95, seed=8)
    records = [CaptionRecord(**r) for r in caption_fixture(images, seed=2)]
    out, report = ingest_pseudo_captions(images, records)
    kept = {
        im.image_id for im in images if not im.objects or max(Counter(o.category for o in im.objects).values()) == 1
    }
    instance_index = {
        (im.image_id, o.instance_id) for im in images if im.image_id in kept for o in im.objects
    }
    expected_attached = sum(1 for r in records if (r.image_id, r.instance_id) in instance_index)
    assert "captions_attached" not in report.exclusions
    attached = sum(len(im.captions or {}) for im in out)
    assert attached == expected_attached


# ---------------- video static objects ---------------- #


def _frames_from_centers(centers, w=20, h=10, cat="lamp"):
    return {
        f: [(cat, BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))]
        for f, (cx, cy) in enumerate(centers)
    }


def test_single_frame_object_is_static():
    frames = {3: [("lamp", BBox(10, 10, 30, 20))]}
    tracks, _ = build_video_static_objects(frames)
    assert tracks[0].is_static and tracks[0].averaged_box == BBox(10, 10, 30, 20)


def test_drifting_object_not_static():
    centers = [(100 + 40 * f, 100) for f in range(8)]
    tracks, _ = build_video_static_objects(_frames_from_centers(centers))
    assert not tracks[0].is_static


def test_static_rule_at_five_pixel_boundary():
    near = _frames_from_centers([(100 - 4.9, 100), (100, 100), (100 + 4.9, 100)])
    far = _frames_from_centers([(100 - 5.1, 100), (100, 100), (100 + 5.1, 100)])
    exact = _frames_from_centers([(100 - 5.0, 100), (100, 100), (100 + 5.0, 100)])
    assert build_video_static_objects(near)[0][0].is_static
    assert not build_video_static_objects(far)[0][0].is_static
    assert build_video_static_objects(exact)[0][0].is_static  # "within 5 px" includes the boundary


def test_averaged_box_is_coordinate_mean():
    frames = {
        0: [("lamp", BBox(10, 10, 30, 20))],
        1: [("lamp", BBox(12, 14, 32, 24))],
    }
    tracks, _ = build_video_static_objects(frames)
    assert tracks[0].averaged_box == BBox(11, 12, 31, 22)


def test_video_track_maths_equals_numpy_reference():
    """The averaged box and static flag equal numpy's mean and norm bit for
    bit, on tracks of 1-8 float or integer boxes, and on pairs of centers
    about 5 px from their mean, where ``math.hypot`` would flip the rule."""
    rng = random.Random(11)
    for k in range(3000):
        w, h = rng.uniform(0, 40), rng.uniform(0, 40)
        if k % 2:
            dx = rng.uniform(0, 5)
            dy = math.sqrt(25 - dx * dx)
            cx, cy = 100 + rng.uniform(0, 1), 50 + rng.uniform(0, 1)
            centers = [(cx - dx, cy - dy), (cx + dx, cy + dy)]
        else:
            spread = rng.uniform(0, 12)
            centers = [(100 + rng.uniform(0, spread), 50 + rng.uniform(0, spread)) for _ in range(rng.randint(1, 8))]
        boxes = [(x - w / 2, y - h / 2, x + w / 2, y + h / 2) for x, y in centers]
        if k % 4 == 0:
            boxes = [tuple(round(v) for v in box) for box in boxes]
        (track,), _ = build_video_static_objects({f: [("lamp", BBox(*box))] for f, box in enumerate(boxes)})
        coords = np.array(boxes, dtype=float)
        centers = np.stack([(coords[:, 0] + coords[:, 2]) / 2, (coords[:, 1] + coords[:, 3]) / 2], axis=1)
        dists = np.linalg.norm(centers - centers.mean(axis=0), axis=1)
        assert track.averaged_box == tuple(coords.mean(axis=0).tolist())
        assert track.is_static == (len(boxes) == 1 or bool(np.all(dists <= 5.0)))


def test_duplicate_category_in_frame_excluded():
    frames = {0: [("lamp", BBox(0, 0, 10, 10)), ("lamp", BBox(50, 50, 60, 60))]}
    tracks, tallies = build_video_static_objects(frames)
    assert tracks == []
    assert tallies["categories_with_duplicate_instances"] == 1


def test_video_frame_index_validation():
    with pytest.raises(ValueError, match="frame index"):
        build_video_static_objects({9: []}, n_f=8)


# ---------------- corpus stats ---------------- #


def test_corpus_stats_frozen_counts():
    corpus = keyword_corpus(seed=7)
    assert len(corpus) == 80_000
    stats = corpus_keyword_stats(
        corpus,
        ["left", "right", "the left", "the right", "left side", "right side", "to the left", "to the right"],
    )
    assert stats["left"] == (1619, 1619 / 80_000)
    assert stats["right"] == (5001, 5001 / 80_000)
    assert stats["the left"][0] == 171
    assert stats["the right"][0] == 1314
    assert stats["left side"][0] == 75
    assert stats["right side"][0] == 110
    assert stats["to the left"][0] == 80
    assert stats["to the right"][0] == 93
    assert round(stats["left"][1] * 100, 2) == 2.02
    assert round(stats["the left"][1] * 100, 2) == 0.21


def test_corpus_stats_empty_and_case():
    assert corpus_keyword_stats([], ["left"]) == {"left": (0, 0.0)}
    stats = corpus_keyword_stats(["The LEFT side", "none"], ["left"])
    assert stats["left"] == (1, 0.5)
    with pytest.raises(ValueError):
        corpus_keyword_stats(["x"], [])

