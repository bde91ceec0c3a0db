"""Input parsing tests: COCO-style files, caption records, video detections, panoptic label grids."""

import json

import pytest

from coordtext.annotations import (
    AnnotatedImage,
    ObjectAnn,
    load_caption_records,
    load_coco_annotations,
    load_instance_categories,
    load_label_grid,
    load_video_detections,
    xywh_to_xyxy,
)
from coordtext.builders import PanopticBoxes, panoptic_to_bboxes
from coordtext.coords import BBox, ImageDims
from coordtext.records import SchemaError, write_records
from coordtext.fixtures import annotation_fixture, write_coco_json


def test_xywh_to_xyxy():
    assert xywh_to_xyxy([10, 120, 20, 25]) == (10, 120, 30, 145)
    assert xywh_to_xyxy([0, 0, 512, 512]) == (0, 0, 512, 512)
    assert xywh_to_xyxy([5.5, 1.25, 2.5, 3.0]) == (5.5, 1.25, 8.0, 4.25)


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
        got = {o.instance_id: (o.category, o.bbox.as_tuple()) for o in loaded.objects}
        expected = {o.instance_id: (o.category, o.bbox.as_tuple()) for o in original.objects}
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


def test_annotated_image_rejects_duplicate_instance_ids():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError, match="duplicate instance ids"):
        AnnotatedImage("a", ImageDims(20, 20), (ObjectAnn("x", "lamp", box), ObjectAnn("x", "mug", box)))


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


def test_label_grid_reads_rows_of_ints(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# ids\n0 3 3\n\n-1 0 +2  # last row\n")
    assert load_label_grid(path) == [[0, 3, 3], [-1, 0, 2]]


@pytest.mark.parametrize(
    "text, problem",
    [
        ("1 2 3\n4 5\n", "line 2: 2 ids where the first row has 3"),
        ("1 2\n\n3 4 5\n", "line 3: 3 ids where the first row has 2"),
        ("1 2\n3 x\n", "line 2: id is not an integer: invalid literal for int() with base 10: 'x'"),
        ("1 2.5\n", "line 1: id is not an integer: invalid literal for int() with base 10: '2.5'"),
    ],
)
def test_label_grid_ragged_row_or_non_integer_id_is_a_schema_error(tmp_path, text, problem):
    """numpy's loadtxt raised a ValueError that named no file."""
    path = tmp_path / "grid.txt"
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        load_label_grid(path)
    assert str(info.value) == f"{path}: {problem}"


def test_label_grid_that_is_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"1 2\n3 \xff\n")
    with pytest.raises(SchemaError, match=r"grid.txt: line 2: not valid UTF-8: .* position 2"):
        load_label_grid(path)


@pytest.mark.parametrize(
    "text, problem",
    [
        ('[1, "lamp"]', "not a JSON object"),
        ('{"1": "lamp", "two": "mug"}', "key 'two' is not an integer"),
        ('{"1": "lamp", "2": 7}', "category of '2' is not a string"),
        ('{"1": "lamp",', "not valid JSON: Expecting property name enclosed in double quotes"),
    ],
)
def test_panoptic_sidecar_of_the_wrong_shape_is_a_schema_error(tmp_path, text, problem):
    """A key that is not an integer used to be int()'s bare ValueError, naming no file."""
    path = tmp_path / "categories.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        load_instance_categories(path)
    assert str(info.value).startswith(f"{path}: {problem}")


@pytest.mark.parametrize("text", ["", "\n \n", "# no rows\n"])
def test_empty_label_grid_has_no_instances(tmp_path, text):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    assert load_label_grid(path) == []
    assert panoptic_to_bboxes(load_label_grid(path), {}) == PanopticBoxes([], set(), 0)
