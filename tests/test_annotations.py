"""Input parsing tests: COCO-style files, caption records, video detections."""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.annotations import (
    AnnotatedImage,
    CaptionRecord,
    CocoLoad,
    ObjectAnn,
    _coco_array,
    _coco_entries,
    _is_id,
    _is_number,
    _require,
    load_caption_records,
    load_coco_annotations,
    load_video_detections,
    load_vocabulary,
)
from coordtext.coords import BBox, CodecError, ImageDims
from coordtext.records import SchemaError, config_digest, iter_rows, line_error, read_json, write_records
from coordtext.fixtures import annotation_fixture, write_coco_json


def test_coco_loader_converts_xywh_to_corners(tmp_path):
    boxes = {"a": [10, 120, 20, 25], "b": [0, 0, 512, 512], "c": [5.5, 1.25, 2.5, 3.0]}
    data = {
        "images": [{"id": "im", "width": 512, "height": 512}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [{"id": k, "image_id": "im", "category_id": 1, "bbox": box} for k, box in boxes.items()],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    [image] = load_coco_annotations(path).images
    assert {o.instance_id: tuple(o.bbox) for o in image.objects} == {
        "a": (10, 120, 30, 145), "b": (0, 0, 512, 512), "c": (5.5, 1.25, 8.0, 4.25)
    }


def test_coco_roundtrip_preserves_geometry(tmp_path):
    images = annotation_fixture(25, seed=6)
    path = tmp_path / "coco.json"
    write_coco_json(images, path)
    load = load_coco_annotations(path)
    assert load.skipped == {}
    by_id = {im.image_id: im for im in load.images}
    assert set(by_id) == {im.image_id for im in images}
    for original in images:
        loaded = by_id[original.image_id]
        assert loaded.dims == original.dims
        got = {o.instance_id: (o.category, o.bbox) for o in loaded.objects}
        expected = {o.instance_id: (o.category, o.bbox) for o in original.objects}
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key][0] == expected[key][0]
            assert got[key][1] == pytest.approx(expected[key][1])


def test_coco_loader_skips_and_tallies(tmp_path):
    data = {
        "images": [{"id": "a", "width": 100, "height": 100, "file_name": "a.jpg"}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [
            {"id": "ok", "image_id": "a", "category_id": 1, "bbox": [10, 10, 20, 20]},
            {"id": "ghost-image", "image_id": "zzz", "category_id": 1, "bbox": [0, 0, 5, 5]},
            {"id": "ghost-cat", "image_id": "a", "category_id": 99, "bbox": [0, 0, 5, 5]},
            {"id": "oversized", "image_id": "a", "category_id": 1, "bbox": [90, 90, 50, 50]},
            {"id": "negative", "image_id": "a", "category_id": 1, "bbox": [10, 10, -5, 5]},
            {"id": "short", "image_id": "a", "category_id": 1, "bbox": [1, 2]},
        ],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    load = load_coco_annotations(path)
    assert load.vocabulary == ["lamp"]
    assert [o.instance_id for o in load.images[0].objects] == ["ok"]
    assert load.skipped["unknown_image"] == 1
    assert load.skipped["unknown_category"] == 1
    assert load.skipped["invalid_bbox"] == 3


@pytest.mark.parametrize(
    "ann, tally",
    [
        ([1, 1, 1], "not_an_object"),
        ("ann", "not_an_object"),
        ({"id": "x", "image_id": [1], "category_id": 1, "bbox": [0, 0, 5, 5]}, "unknown_image"),
        ({"id": "x", "image_id": {"a": 1}, "category_id": 1, "bbox": [0, 0, 5, 5]}, "unknown_image"),
        ({"id": "x", "image_id": 1.0, "category_id": 1, "bbox": [0, 0, 5, 5]}, "unknown_image"),
        ({"id": "x", "image_id": 1, "category_id": [1], "bbox": [0, 0, 5, 5]}, "unknown_category"),
        ({"id": "x", "image_id": 1, "category_id": True, "bbox": [0, 0, 5, 5]}, "unknown_category"),
    ],
)
def test_coco_loader_skips_annotation_that_is_not_an_object_or_has_a_bad_id(tmp_path, ann, tally):
    """Each used to end in a traceback (``unhashable type``, or a list that has
    no ``get``), or to match image or category 1 by equality with 1.0 or true."""
    data = {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [ann, {"id": "ok", "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20]}],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    load = load_coco_annotations(path)
    assert [o.instance_id for o in load.images[0].objects] == ["ok"]
    assert load.skipped == {tally: 1}


@pytest.mark.parametrize("ids", [("x", "x"), (1, "1")], ids=["same string", "int and its string"])
def test_coco_loader_skips_an_image_whose_instance_ids_repeat(tmp_path, ids):
    """The loader is where instance ids are checked (AnnotatedImage takes its
    objects as given): an image naming one instance twice is skipped and
    tallied, and an integer id stands for its digits."""
    data = {
        "images": [{"id": "a", "width": 100, "height": 100}, {"id": "b", "width": 100, "height": 100}],
        "categories": [{"id": 1, "name": "lamp"}, {"id": 2, "name": "mug"}],
        "annotations": [
            {"id": ids[0], "image_id": "a", "category_id": 1, "bbox": [0, 0, 10, 10]},
            {"id": ids[1], "image_id": "a", "category_id": 2, "bbox": [20, 20, 10, 10]},
            {"id": ids[0], "image_id": "b", "category_id": 1, "bbox": [0, 0, 10, 10]},
        ],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    load = load_coco_annotations(path)
    assert [image.image_id for image in load.images] == ["b"]
    assert [o.instance_id for o in load.images[0].objects] == [str(ids[0])]
    assert load.skipped == {"duplicate_instance_ids": 1}


def test_load_caption_records_both_formats(tmp_path):
    path = tmp_path / "caps.jsonl"
    write_records(
        path,
        [
            {"image_id": "a", "instance_id": "a.o0", "caption": "a tall lamp"},
            {"item_id": "b:cap:b.o1", "text": "a striped mug"},
            {"item_id": "weird", "text": "ignored, no marker"},
        ],
        {"seed": 0},
        "responses",
    )
    records = load_caption_records(path)
    assert [(r.image_id, r.instance_id, r.caption) for r in records] == [
        ("a", "a.o0", "a tall lamp"),
        ("b", "b.o1", "a striped mug"),
    ]


def test_load_video_detections(tmp_path):
    path = tmp_path / "videos.jsonl"
    path.write_text(
        json.dumps({"video_id": "v1", "frames": {"0": [{"category": "lamp", "bbox": [1, 2, 3, 4]}], "7": []}})
        + "\n"
    )
    videos = load_video_detections(path)
    assert set(videos) == {"v1"}
    assert videos["v1"][0] == [("lamp", BBox(1, 2, 3, 4))]
    assert videos["v1"][7] == []


def test_video_detections_meta_line_is_checked_and_skipped(tmp_path):
    """A detections file written with a meta line reads as its body does, and
    one edited after it was written is refused, as a record file is."""
    row = {"video_id": "v1", "frames": {"0": [{"category": "lamp", "bbox": [1, 2, 3, 4]}]}}
    bare, with_meta = tmp_path / "bare.jsonl", tmp_path / "meta.jsonl"
    bare.write_text(json.dumps(row) + "\n")
    write_records(with_meta, [row], {"seed": 0}, "videos")
    assert load_video_detections(with_meta) == load_video_detections(bare)
    with_meta.write_text(with_meta.read_text().replace("lamp", "lump"))
    with pytest.raises(SchemaError) as info:
        load_video_detections(with_meta)
    assert str(info.value) == f"{with_meta}: records digest mismatch"


@pytest.mark.parametrize("bad_id", [None, [1, 2], 1.5, True, {"n": 1}])
def test_coco_annotation_id_that_is_not_a_string_or_integer_is_skipped(tmp_path, bad_id):
    """``null`` used to become instance id "None", and ``[1, 2]`` "[1, 2]"."""
    data = {
        "images": [{"id": "im1", "width": 100, "height": 100}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [
            {"id": bad_id, "image_id": "im1", "category_id": 1, "bbox": [10, 10, 20, 20]},
            {"id": 7, "image_id": "im1", "category_id": 1, "bbox": [50, 50, 20, 20]},
        ],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    load = load_coco_annotations(path)
    assert [o.instance_id for o in load.images[0].objects] == ["7"]
    assert load.skipped == {"invalid_id": 1}


@pytest.mark.parametrize(
    "value, is_number, is_id",
    [
        (0, True, True),
        (-2, True, True),
        (1.5, True, False),
        (10**400, True, True),  # an integer past a float's range is a JSON number
        (float("nan"), False, False),
        (float("inf"), False, False),
        (True, False, False),
        (False, False, False),
        (None, False, False),
        ("3", False, True),
        ([1], False, False),
        ({}, False, False),
    ],
)
def test_numbers_and_ids_are_json_types_and_a_bool_is_neither(value, is_number, is_id):
    """A bool compares equal to 0 or 1, and NaN fails every bound silently: neither may pass as a coordinate or id."""
    assert (_is_number(value), _is_id(value)) == (is_number, is_id)


def _coco_with_two_of_each():
    return {
        "images": [{"id": "a", "width": 64, "height": 48}, {"id": "b", "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "lamp"}, {"id": 2, "name": "mug"}],
        "annotations": [
            {"id": "a.o0", "image_id": "a", "category_id": 1, "bbox": [4, 4, 8, 8]},
            {"id": "b.o0", "image_id": "b", "category_id": 2, "bbox": [4, 4, 8, 8]},
        ],
    }


@pytest.mark.parametrize(
    "key, field",
    [("images", "id"), ("images", "width"), ("images", "height"), ("categories", "id"), ("categories", "name"),
     ("annotations", "id")],
)
def test_coco_entry_missing_a_field_is_named_by_its_index(tmp_path, key, field):
    """The second entry lacks the field: the message names it, where it used to name no entry."""
    data = _coco_with_two_of_each()
    del data[key][1][field]
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as info:
        load_coco_annotations(path)
    assert str(info.value) == f"{path}: {key}[1]: missing required field {field!r}"


def test_coco_category_name_repeated_is_named_with_its_first_entry(tmp_path):
    data = _coco_with_two_of_each()
    data["categories"].append({"id": 99, "name": "lamp"})
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as info:
        load_coco_annotations(path)
    assert str(info.value) == f"{path}: categories[2]: name 'lamp' repeats the name of categories[0]"


def test_coco_category_names_that_differ_in_case_are_distinct(tmp_path):
    data = _coco_with_two_of_each()
    data["categories"] = [{"id": 2, "name": "mug"}, {"id": 1, "name": "lamp"}, {"id": 3, "name": "Lamp"}]
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    load = load_coco_annotations(path)
    assert load.vocabulary == ["mug", "lamp", "Lamp"]
    assert [[o.category for o in image.objects] for image in load.images] == [["lamp"], ["mug"]]


def test_coco_box_past_a_float_s_range_is_an_invalid_bbox(tmp_path):
    """A float plus an integer too large for a float used to raise OverflowError out of the load."""
    data = {
        "images": [{"id": "im1", "width": 100, "height": 100}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [{"id": "a", "image_id": "im1", "category_id": 1, "bbox": [1.0, 0, 10**400, 1]}],
    }
    path = tmp_path / "coco.json"
    path.write_text(json.dumps(data))
    assert load_coco_annotations(path).skipped == {"invalid_bbox": 1}


# ---------------- video detections ---------------- #


def _video_file(tmp_path, bbox_json: str) -> Path:
    """Two lines of detections; the second holds one box written as ``bbox_json``."""
    path = tmp_path / "videos.jsonl"
    path.write_text(
        json.dumps({"video_id": "v0", "frames": {"0": [{"category": "cup", "bbox": [0, 0, 9, 9]}]}}) + "\n"
        + '{"video_id": "v1", "frames": {"0": [{"category": "cup", "bbox": %s}]}}\n' % bbox_json
    )
    return path


@pytest.mark.parametrize(
    "bbox",
    [[0, 0, 9, 9], [0.5, 0.25, 3.0, 1.5], [3, 3, 3, 3], [0, 0, 10**300, 1], [0, 0, 1.7e308, 1]],
)
def test_video_detection_box_keeps_its_values_and_their_types(tmp_path, bbox):
    """An integer coordinate stays an integer, one a float holds included, so a track's frames write back as read."""
    videos = load_video_detections(_video_file(tmp_path, json.dumps(bbox)))
    [(category, box)] = videos["v1"][0]
    assert category == "cup"
    assert list(box) == bbox and [type(v) for v in box] == [type(v) for v in bbox]


@pytest.mark.parametrize(
    "bbox, problem",
    [
        ("[true, 0, 9, 9]", "bbox is not an array of 4 numbers"),
        ("[0, 0, 9, null]", "bbox is not an array of 4 numbers"),
        ("[0, 0, 9, 9, 9]", "bbox is not an array of 4 numbers"),
        ("[]", "bbox is not an array of 4 numbers"),
        ('{"x1": 0}', "bbox is not an array of 4 numbers"),
        ("[0, Infinity, 9, 9]", "bbox is not an array of 4 numbers"),
        ("[0, 0, -Infinity, 9]", "bbox is not an array of 4 numbers"),
        ("[0, 5, 9, 1]", "bad bbox: y1 > y2 in (0, 5, 9, 1)"),
        ("[0, -0.5, 9, 9]", "bad bbox: negative coordinate in (0, -0.5, 9, 9)"),
        ("[0.5, 0, 3, 1%s]" % ("0" * 400), "bad bbox: int too large to convert to float"),
    ],
)
def test_video_detection_box_that_is_not_a_box_is_a_schema_error_naming_its_line(tmp_path, bbox, problem):
    """An integer past a float's range used to raise OverflowError out of the averaging."""
    path = _video_file(tmp_path, bbox)
    with pytest.raises(SchemaError) as info:
        load_video_detections(path)
    assert str(info.value) == f"{path}: line 2: {problem}"


@pytest.mark.parametrize(
    "row, field",
    [
        ({"frames": {}}, "video_id"),
        ({"video_id": "v1"}, "frames"),
        ({"video_id": "v1", "frames": {"0": [{"bbox": [0, 0, 9, 9]}]}}, "category"),
        ({"video_id": "v1", "frames": {"0": [{"category": "cup"}]}}, "bbox"),
    ],
)
def test_video_detections_line_missing_a_field_is_a_schema_error_naming_it(tmp_path, row, field):
    path = tmp_path / "videos.jsonl"
    path.write_text(json.dumps({"video_id": "v0", "frames": {}}) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(SchemaError) as info:
        load_video_detections(path)
    assert str(info.value) == f"{path}: line 2: missing field {field!r}"


@pytest.mark.parametrize(
    "lines, problem",
    [
        (['{"video_id": 1, "frames": {}}', '{"video_id": "1", "frames": {}}'], "line 2: video_id '1' repeats line 1"),
        (['{"video_id": true, "frames": {}}'], "line 1: video_id is not a string or an integer"),
    ],
    ids=["int and str id", "bool id"],
)
def test_video_id_is_a_string_or_an_integer_named_once(tmp_path, lines, problem):
    """An integer id stands for its digits, so it repeats the same string; a
    bool is no id. (The CLI tests cover a null, list and repeated id.)"""
    path = tmp_path / "videos.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SchemaError) as info:
        load_video_detections(path)
    assert str(info.value) == f"{path}: {problem}"


# ---------------- vocabulary ---------------- #


def test_vocabulary_is_stripped_names_in_file_order_without_blank_lines(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"  zebra\nlamp \n\n\t\nkettle\r\nmug")
    assert load_vocabulary(path) == ["zebra", "lamp", "kettle", "mug"]


@pytest.mark.parametrize(
    "text, problem",
    [
        ("zebra\nzebra\n", "line 2: 'zebra' repeats line 1"),
        ("zebra\nlamp\n\n zebra \nzebra\n", "line 4: 'zebra' repeats line 1"),
        ("lamp\nzebra\nzebra\nlamp\n", "line 3: 'zebra' repeats line 2"),
        ("lamp\r\nlamp\r\n", "line 2: 'lamp' repeats line 1"),
        ("traffic light\n\ttraffic light\t\n", "line 2: 'traffic light' repeats line 1"),
    ],
)
def test_vocabulary_name_repeated_is_a_schema_error_naming_both_lines(tmp_path, text, problem):
    """A repeated name used to ask one presence question twice about an image."""
    path = tmp_path / "vocab.txt"
    path.write_bytes(text.encode())
    with pytest.raises(SchemaError) as info:
        load_vocabulary(path)
    assert str(info.value) == f"{path}: {problem}"


def test_vocabulary_names_that_differ_in_case_or_inner_space_are_distinct(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("Lamp\nlamp\ntraffic light\ntraffic  light\n")
    assert load_vocabulary(path) == ["Lamp", "lamp", "traffic light", "traffic  light"]


@pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\r\n"])
def test_vocabulary_of_blank_lines_is_empty(tmp_path, text):
    path = tmp_path / "vocab.txt"
    path.write_bytes(text.encode())
    assert load_vocabulary(path) == []


# (loader, bytes whose second line is not UTF-8, or whose only line is for a whole-document file)
NOT_UTF8_FILES = {
    "vocabulary": (load_vocabulary, b"kettle\n\xffpan\n", 2),
    "captions": (
        load_caption_records,
        b'{"image_id": "1", "instance_id": "1", "caption": "a"}\n{"caption": "\xff"}\n', 2,
    ),
    "video detections": (load_video_detections, b'{"video_id": "v0", "frames": {}}\n{"video_id": "\xff"}\n', 2),
    "coco": (load_coco_annotations, b'{"images": [],\n "categories": [{"id": 1, "name": "\xff"}]}', 2),
}


@pytest.mark.parametrize("name", NOT_UTF8_FILES)
def test_input_that_is_not_utf8_is_a_schema_error_naming_its_line(tmp_path, name):
    load, content, line = NOT_UTF8_FILES[name]
    path = tmp_path / "input.bad"
    path.write_bytes(content)
    with pytest.raises(SchemaError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: line {line}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff")


# ---------------- reference parsers ---------------- #
# The COCO and caption parsers as they were before each check was written out
# once in the parse loop, kept to show that the loaders accept, tally and refuse alike.


def reference_load_coco_annotations(path) -> CocoLoad:
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: not a JSON object")
    return _reference_parse_coco(path, data)


def _reference_parse_coco(path, data: dict) -> CocoLoad:
    categories, vocabulary = {}, []
    for n, cat in _coco_entries(path, data, "categories", ("id", "name")):
        if not isinstance(cat["name"], str):
            raise SchemaError(f"{path}: categories[{n}]: name is not a string")
        if cat["name"] == "":
            raise SchemaError(f"{path}: categories[{n}]: name is empty")
        if cat["name"] in vocabulary:
            first = vocabulary.index(cat["name"])
            raise SchemaError(f"{path}: categories[{n}]: name {cat['name']!r} repeats the name of categories[{first}]")
        categories[cat["id"]] = cat["name"]
        vocabulary.append(cat["name"])
    dims_by_image = {}
    for n, img in _coco_entries(path, data, "images", ("id", "width", "height")):
        for side in ("width", "height"):
            if type(img[side]) is not int or img[side] < 1:
                raise SchemaError(f"{path}: images[{n}]: {side} is not a positive integer")
        dims_by_image[img["id"]] = ImageDims(img["width"], img["height"])

    skipped: Counter = Counter()
    objects_by_image: dict = {img_id: [] for img_id in dims_by_image}
    for n, ann in enumerate(_coco_array(path, data, "annotations")):
        if not isinstance(ann, dict):
            skipped["not_an_object"] += 1
            continue
        image_id = ann.get("image_id")
        if not _is_id(image_id) or image_id not in dims_by_image:
            skipped["unknown_image"] += 1
            continue
        category_id = ann.get("category_id")
        if not _is_id(category_id) or category_id not in categories:
            skipped["unknown_category"] += 1
            continue
        bbox = ann.get("bbox")
        if not isinstance(bbox, list) or len(bbox) != 4 or not all(map(_is_number, bbox)):
            skipped["invalid_bbox"] += 1
            continue
        x, y, w, h = bbox
        try:
            box = BBox(x, y, x + w, y + h)
            box.validate_within(dims_by_image[image_id])
        except CodecError:
            skipped["invalid_bbox"] += 1
            continue
        if "id" not in ann:
            raise SchemaError(f"{path}: annotations[{n}]: missing required field 'id'")
        objects_by_image[image_id].append(
            ObjectAnn(instance_id=str(ann["id"]), category=categories[category_id], bbox=box)
        )

    images = []
    for image_id in sorted(dims_by_image, key=str):
        objects = tuple(objects_by_image[image_id])
        if max(Counter(obj.instance_id for obj in objects).values(), default=1) > 1:
            skipped["duplicate_instance_ids"] += 1
            continue
        images.append(AnnotatedImage(image_id=str(image_id), dims=dims_by_image[image_id], objects=objects))
    return CocoLoad(images=images, vocabulary=vocabulary, skipped=skipped)


def reference_load_caption_records(path) -> list[CaptionRecord]:
    records = []
    for line_no, row in iter_rows(path):
        for field in ("caption", "item_id", "text"):
            _require(isinstance(row.get(field, ""), str), path, line_no, f"{field} is not a string")
        if "caption" in row:
            try:
                records.append(CaptionRecord(str(row["image_id"]), str(row["instance_id"]), row["caption"]))
            except KeyError as exc:
                raise line_error(path, line_no, exc) from exc
            continue
        item_id = row.get("item_id", "")
        if ":cap:" in item_id and row.get("text"):
            image_id, _, instance_id = item_id.partition(":cap:")
            records.append(CaptionRecord(image_id, instance_id, row["text"]))
    return records


def _outcomes(text: str, *loaders) -> list[str]:
    """What each loader makes of one file holding ``text``: the repr of its
    value, which shows int and float coordinates apart, or its SchemaError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for load in loaders:
            try:
                outcomes.append(repr(load(path)))
            except SchemaError as exc:
                outcomes.append(f"SchemaError: {exc}")
        return outcomes


# Malformed COCO: ids, sizes and box numbers of every JSON type, weighted
# towards values that pass, and boxes near an image's edges.
_ids = st.one_of(st.sampled_from(["a", "b", "1"]), st.integers(0, 2), st.sampled_from([True, 1.0, None, [1]]))
_sizes = st.one_of(st.sampled_from([1, 7, 40]), st.sampled_from([0, -3, 7.0, True, None, "7"]))
_numbers = st.one_of(
    st.integers(-2, 45),
    st.floats(-1, 45),
    st.sampled_from([0, 0.0, -0.0, 7, 40, 7.0, 40.0, 5e-324, 1e308, -1e308, 10**30]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, None, "3", [1]]),
)
# boxes whose far corner lands on, just inside or just past a 40 x 7 or 7 x 40 image's edge
_edge_boxes = st.builds(
    lambda x, y, size, nudge: [x, y, size[0] - x + nudge, size[1] - y + nudge],
    st.one_of(st.integers(0, 7), st.floats(0, 7)), st.one_of(st.integers(0, 7), st.floats(0, 7)),
    st.sampled_from([(40, 7), (7, 40), (1, 1)]), st.sampled_from([0, 0, 0.0, 1e-9, -1e-9, 1, -1]),
)
# an edge box with one value that is not a finite number: a bool, which compares as an int, too
_spoilt_edge_boxes = st.builds(
    lambda box, i, value: box[:i] + [value] + box[i + 1:],
    _edge_boxes, st.integers(0, 3), st.sampled_from([True, False, float("nan"), float("inf"), "1", None]),
)
_bboxes = st.one_of(
    st.lists(_numbers, min_size=4, max_size=4), _edge_boxes, st.lists(_numbers, max_size=5),
    st.sampled_from([None, "box", {}]),
)
_annotation = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "id": st.one_of(st.sampled_from(["a", "b", "a.o1"]), st.integers(0, 3)),
            "image_id": _ids, "category_id": _ids, "bbox": _bboxes,
        },
    ),
    st.sampled_from([[1, 2], "ann", 3, None]),
)
_image = st.one_of(
    st.fixed_dictionaries({"id": _ids}, optional={"width": _sizes, "height": _sizes}),
    st.sampled_from([[1], "img"]),
)
_category = st.one_of(
    st.fixed_dictionaries({"id": _ids}, optional={"name": st.sampled_from(["lamp", "mug", "", 3, None])}),
    st.sampled_from([["cat"], 1]),
)
_coco = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "images": st.one_of(st.lists(_image, max_size=4), st.just({})),
            "categories": st.one_of(st.lists(_category, max_size=4), st.just("cats")),
            "annotations": st.one_of(st.lists(_annotation, max_size=8), st.just(None)),
        },
    ),
    st.sampled_from([[], "coco", 1]),
)


@given(_coco)
@settings(max_examples=600, deadline=None)
def test_coco_loader_matches_reference(data):
    assert len(set(_outcomes(json.dumps(data), load_coco_annotations, reference_load_coco_annotations))) == 1


# An annotation of an image and category that the file below has, most of the time.
_annotation_of_known_ids = st.fixed_dictionaries(
    {
        "id": st.one_of(st.sampled_from(["a", "b", "a.o1"]), st.integers(0, 3)),
        "image_id": st.one_of(st.sampled_from(["a", 1]), _ids),
        "category_id": st.one_of(st.sampled_from(["b", 2]), _ids),
        "bbox": st.one_of(_edge_boxes, _spoilt_edge_boxes, st.lists(_numbers, min_size=4, max_size=4), _bboxes),
    }
)


@given(st.lists(st.one_of(_annotation_of_known_ids, _annotation), max_size=12))
@settings(max_examples=400, deadline=None)
def test_coco_loader_matches_reference_on_valid_images(annotations):
    """Every image and category is valid, so each load gets through to its annotations' tallies."""
    data = {
        "images": [{"id": image_id, "width": 40, "height": 7} for image_id in ("a", "b", 1, 2)],
        "categories": [{"id": category_id, "name": f"c{category_id}"} for category_id in ("a", "b", 0, 1, 2)],
        "annotations": annotations,
    }
    outcomes = _outcomes(json.dumps(data), load_coco_annotations, reference_load_coco_annotations)
    assert outcomes[0] == outcomes[1]


def test_coco_loader_matches_reference_on_every_box_at_an_edge():
    """Each box of a matrix that touches, nearly touches or passes a 40 x 7
    image's edges, as given and with each value in turn spoilt, is one
    annotation: the loaders keep and tally the same ones."""
    corners = [(0, 0), (1, 2), (0.5, 0.25), (39, 6), (40, 7), (0, 7), (40, 0), (5e-324, 5e-324)]
    nudges = [0, 0.0, 1e-9, -1e-9, 1, -1, 5e-324]
    spoilers = [True, False, float("nan"), float("inf"), float("-inf"), "1", None, 10**300]
    boxes = []
    for x, y in corners:
        for nudge in nudges:
            box = [x, y, 40 - x + nudge, 7 - y + nudge]
            boxes.append(box)
            boxes.extend(box[:i] + [value] + box[i + 1:] for i in range(4) for value in spoilers)
    data = {
        "images": [{"id": "a", "width": 40, "height": 7}],
        "categories": [{"id": 1, "name": "lamp"}],
        "annotations": [{"id": n, "image_id": "a", "category_id": 1, "bbox": box} for n, box in enumerate(boxes)],
    }
    got, expected = _outcomes(json.dumps(data), load_coco_annotations, reference_load_coco_annotations)
    assert got == expected
    assert "invalid_bbox" in got and "ObjectAnn" in got


_field_values = st.one_of(
    st.sampled_from(["", "a tall lamp", "im1:cap:im1.o0", "x:cap:"]), st.integers(0, 3), st.none()
)
_caption_rows = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "caption": _field_values, "item_id": _field_values, "text": _field_values,
                "image_id": st.one_of(st.sampled_from(["im1", ""]), st.integers(0, 3)),
                "instance_id": st.one_of(st.sampled_from(["im1.o0", "o"]), st.integers(0, 3)),
            },
        ),
        st.sampled_from([[1], "row", None]),
    ),
    max_size=6,
)


@given(_caption_rows, st.booleans())
@settings(max_examples=400, deadline=None)
def test_caption_loader_matches_reference(rows, meta):
    text = "".join(json.dumps(row) + "\n" for row in rows)
    if meta:  # a meta line that is right for the rows below it
        meta_row = {"record_type": "meta", "count": len(rows), "config": {}, "config_digest": config_digest({}),
                    "records_digest": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        text = json.dumps(meta_row) + "\n" + text
    outcomes = _outcomes(text, load_caption_records, reference_load_caption_records)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "row, problem",
    [
        ({"image_id": None, "instance_id": "o", "caption": "c"}, "image_id is not a string or an integer"),
        ({"image_id": "im1", "instance_id": [1, 2], "caption": "c"}, "instance_id is not a string or an integer"),
        ({"image_id": True, "instance_id": "o", "caption": "c"}, "image_id is not a string or an integer"),
        ({"image_id": "im1", "instance_id": 1.5, "caption": "c"}, "instance_id is not a string or an integer"),
    ],
)
def test_caption_id_that_is_not_a_string_or_integer_is_a_schema_error(tmp_path, row, problem):
    """``str()`` used to turn a null id into "None"."""
    path = tmp_path / "captions.jsonl"
    path.write_text(json.dumps({"image_id": 1, "instance_id": 2, "caption": "ok"}) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(SchemaError) as info:
        load_caption_records(path)
    assert str(info.value) == f"{path}: line 2: {problem}"
