"""Fixture writers: their bytes against the ``json.dump``/``json.dumps`` writers
they replaced, kept here as references."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.annotations import AnnotatedImage, ObjectAnn
from coordtext.coords import BBox, ImageDims
from coordtext.fixtures import CATEGORIES, video_detection_fixture, write_coco_json, write_jsonl, write_video_detections


def reference_write_coco_json(images, path, vocabulary=CATEGORIES) -> None:
    cat_ids = {name: idx + 1 for idx, name in enumerate(vocabulary)}
    data = {
        "images": [
            {"id": im.image_id, "width": im.dims.width, "height": im.dims.height, "file_name": f"{im.image_id}.jpg"}
            for im in images
        ],
        "annotations": [],
        "categories": [{"id": idx, "name": name} for name, idx in cat_ids.items()],
    }
    for im in images:
        for obj in im.objects:
            b = obj.bbox
            data["annotations"].append(
                {
                    "id": obj.instance_id,
                    "image_id": im.image_id,
                    "category_id": cat_ids[obj.category],
                    "bbox": [b.x1, b.y1, b.x2 - b.x1, b.y2 - b.y1],
                }
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def reference_write_jsonl(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def reference_write_video_detections(videos: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for video_id in sorted(videos):
            frames = {str(f): dets for f, dets in sorted(videos[video_id].items())}
            fh.write(json.dumps({"video_id": video_id, "frames": frames}, sort_keys=True) + "\n")


def _bytes_of(write) -> bytes:
    """What ``write(path)`` puts in a new file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out"
        write(path)
        return path.read_bytes()


# names with quotes, backslashes, control and non-ASCII characters, beside plain ones
_names = st.one_of(st.sampled_from(CATEGORIES), st.text(alphabet='ab"\\\n é猫🐈', min_size=1, max_size=6), st.text(max_size=8))


def _coordinate(limit: int):
    return st.one_of(st.integers(0, limit), st.floats(0, limit, allow_nan=False))


@st.composite
def _images(draw, vocabulary):
    images = []
    for i in range(draw(st.integers(0, 5))):
        dims = ImageDims(draw(st.integers(1, 640)), draw(st.integers(1, 640)))
        objects = []
        for k in range(draw(st.integers(0, 4))):
            x1, x2 = sorted((draw(_coordinate(dims.width)), draw(_coordinate(dims.width))))
            y1, y2 = sorted((draw(_coordinate(dims.height)), draw(_coordinate(dims.height))))
            category = draw(st.sampled_from(vocabulary))
            objects.append(ObjectAnn(f"{draw(_names)}.o{k}", category, BBox(x1, y1, x2, y2)))
        images.append(AnnotatedImage(f"{draw(_names)}{i}", dims, tuple(objects)))
    return images


@st.composite
def _coco_inputs(draw):
    vocabulary = draw(st.one_of(st.none(), st.lists(_names, min_size=1, max_size=5)))
    images = draw(_images(vocabulary or CATEGORIES))
    return images, vocabulary


@given(_coco_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_write_coco_json_writes_json_dump_s_bytes(inputs):
    images, vocabulary = inputs
    extra = () if vocabulary is None else (vocabulary,)
    expected = _bytes_of(lambda path: reference_write_coco_json(images, path, *extra))
    assert _bytes_of(lambda path: write_coco_json(images, path, *extra)) == expected


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=12,
)


@given(st.lists(st.dictionaries(_names, _json_values, max_size=4), max_size=4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_write_jsonl_writes_json_dumps_lines(rows):
    """NaN and infinities included: both write them as json.dumps does."""
    assert _bytes_of(lambda path: write_jsonl(rows, path)) == _bytes_of(lambda path: reference_write_jsonl(rows, path))


def test_write_video_detections_writes_the_previous_bytes():
    for seed in range(8):
        videos = video_detection_fixture(n=5, seed=seed, n_frames=12)
        expected = _bytes_of(lambda path: reference_write_video_detections(videos, path))
        assert _bytes_of(lambda path: write_video_detections(videos, path)) == expected
