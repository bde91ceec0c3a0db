"""Input parsing tests: COCO-style files, caption records, video detections, panoptic label grids."""

import json

import pytest

from coordtext.annotations import (
    AnnotatedImage,
    ObjectAnn,
    load_caption_records,
    load_coco_annotations,
    load_label_grid,
    load_video_detections,
    xywh_to_xyxy,
)
from coordtext.builders import PanopticBoxes, panoptic_to_bboxes
from coordtext.coords import BBox, ImageDims
from coordtext.records import SchemaError
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


def test_annotated_image_rejects_duplicate_instance_ids():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError, match="duplicate instance ids"):
        AnnotatedImage("a", ImageDims(20, 20), (ObjectAnn("x", "lamp", box), ObjectAnn("x", "mug", box)))


def test_load_caption_records_both_formats(tmp_path):
    path = tmp_path / "caps.jsonl"
    path.write_text(
        "\n".join(
            [
                json.dumps({"record_type": "meta", "kind": "responses"}),
                json.dumps({"image_id": "a", "instance_id": "a.o0", "caption": "a tall lamp"}),
                json.dumps({"item_id": "b:cap:b.o1", "text": "a striped mug"}),
                json.dumps({"item_id": "weird", "text": "ignored, no marker"}),
            ]
        )
        + "\n"
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
    path.write_bytes(b"1 2\n3 \xff\n")  # decoded a buffer at a time, so no line of it is read
    with pytest.raises(SchemaError, match=r"grid.txt: after line 0: not valid UTF-8"):
        load_label_grid(path)


@pytest.mark.parametrize("text", ["", "\n \n", "# no rows\n"])
def test_empty_label_grid_has_no_instances(tmp_path, text):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    assert load_label_grid(path) == []
    assert panoptic_to_bboxes(load_label_grid(path), {}) == PanopticBoxes([], set(), 0)
