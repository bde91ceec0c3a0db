"""Annotation domain types and input-file parsing.

Four external inputs are understood:

* COCO-style JSON: top-level ``images`` [{id, width, height, file_name}],
  ``annotations`` [{id, image_id, category_id, bbox: [x, y, w, h]}], and
  ``categories`` [{id, name}]. Boxes arrive as xywh and are converted to
  xyxy on load.
* Pseudo-caption JSONL: one {image_id, instance_id, caption} per line.
* Video-detection JSONL: one {video_id, frames: {idx: [{category, bbox}]}}
  per line, boxes as xyxy.
* Vocabulary text: one category name per line.

Malformed annotation rows are skipped and tallied; a malformed image,
category or file, or an annotation without an ``id``, is a SchemaError naming
the file.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .coords import BBox, CodecError, ImageDims
from .records import SchemaError, iter_lines, iter_rows, line_error, read_json


class ObjectAnn(NamedTuple):
    instance_id: str
    category: str
    bbox: BBox


class AnnotatedImage(NamedTuple):
    """One image and its objects, whose instance ids differ and whose boxes
    fit ``dims``: the COCO loader checks both."""

    image_id: str
    dims: ImageDims
    objects: tuple[ObjectAnn, ...]
    captions: dict[str, str] | None = None

    def category_counts(self) -> Counter:
        return Counter(o.category for o in self.objects)

    def present_categories(self) -> set[str]:
        return {o.category for o in self.objects}

    def caption_for(self, instance_id: str) -> str | None:
        if self.captions is None:
            return None
        return self.captions.get(instance_id)


class MediaCategories(NamedTuple):
    """Category-presence view of one media unit (video or image)."""

    media_id: str
    medium: str
    categories: tuple[str, ...]


# The types json gives an id and a number. A bool is neither, though it is an int.
_ID_TYPES = (str, int)
_NUMBER_TYPES = (int, float)


def _is_number(value) -> bool:
    """A finite JSON number. json gives NaN and Infinity as floats; a bool is not a number here."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


class CocoLoad(NamedTuple):
    images: list[AnnotatedImage]
    vocabulary: list[str]  # category names in file order
    skipped: Counter


def _is_id(value) -> bool:
    """An id: a JSON string or integer (a bool is neither)."""
    return type(value) in _ID_TYPES


def _coco_array(path, data: dict, key: str) -> list:
    """``data[key]``: a JSON array, empty when absent."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: {key} is not a JSON array")
    return entries


def _coco_entries(path, data: dict, key: str, fields: tuple[str, ...]):
    """Yield ``(n, entry)`` for each image or category of the ``key`` array,
    refusing one that lacks a field of ``fields`` or repeats an id."""
    first_index = {}
    for n, entry in enumerate(_coco_array(path, data, key)):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: {key}[{n}] is not a JSON object")
        for field in fields:
            if field not in entry:
                raise SchemaError(f"{path}: {key}[{n}]: missing required field {field!r}")
        if not _is_id(entry["id"]):
            raise SchemaError(f"{path}: {key}[{n}]: id is not a string or an integer")
        first = first_index.setdefault(str(entry["id"]), n)
        if first != n:
            raise SchemaError(f"{path}: {key}[{n}]: id {entry['id']!r} repeats the id of {key}[{first}]")
        yield n, entry


def load_coco_annotations(path) -> CocoLoad:
    """Parse a COCO-style annotation file into AnnotatedImage values.

    A file that is not a JSON object, an image or category that is not an
    object or lacks a field, an id that is neither a string nor an integer or
    that repeats an earlier one's after ``str()``, a category name that is not
    a string, is empty or repeats an earlier one's, an image width or height
    that is not a positive integer, or an annotation that passes its checks
    but has no ``id`` is a SchemaError naming the file and the entry.
    Annotations that are not objects, that name unknown images or categories,
    with a ``bbox`` that is not four finite numbers, with non-positive
    extents, or outside their image are skipped and tallied.
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: not a JSON object")
    categories, first_by_name = {}, {}
    for n, cat in _coco_entries(path, data, "categories", ("id", "name")):
        name = cat["name"]
        if not isinstance(name, str):
            raise SchemaError(f"{path}: categories[{n}]: name is not a string")
        if not name:  # the prompts would ask about nothing
            raise SchemaError(f"{path}: categories[{n}]: name is empty")
        first = first_by_name.setdefault(name, n)
        if first != n:  # a repeated name would ask one question twice, or draw it twice as a negative
            raise SchemaError(f"{path}: categories[{n}]: name {name!r} repeats the name of categories[{first}]")
        categories[cat["id"]] = name
    dims_by_image = {}
    for n, img in _coco_entries(path, data, "images", ("id", "width", "height")):
        for side in ("width", "height"):
            if type(img[side]) is not int or img[side] < 1:
                raise SchemaError(f"{path}: images[{n}]: {side} is not a positive integer")
        dims_by_image[img["id"]] = ImageDims._make((img["width"], img["height"]))

    # Each check is written out here, once: the values that pass are built with
    # _make, which skips the ImageDims and BBox constructors' second check of
    # the same invariants.
    skipped: Counter = Counter()
    objects_by_image: dict = {img_id: [] for img_id in dims_by_image}
    for n, ann in enumerate(_coco_array(path, data, "annotations")):
        if not isinstance(ann, dict):
            skipped["not_an_object"] += 1
            continue
        image_id = ann.get("image_id")
        if type(image_id) not in _ID_TYPES or image_id not in dims_by_image:
            skipped["unknown_image"] += 1
            continue
        category_id = ann.get("category_id")
        if type(category_id) not in _ID_TYPES or category_id not in categories:
            skipped["unknown_category"] += 1
            continue
        bbox = ann.get("bbox")
        if type(bbox) is not list or len(bbox) != 4:
            skipped["invalid_bbox"] += 1
            continue
        x, y, w, h = bbox
        if not (
            type(x) in _NUMBER_TYPES and type(y) in _NUMBER_TYPES
            and type(w) in _NUMBER_TYPES and type(h) in _NUMBER_TYPES
        ):
            skipped["invalid_bbox"] += 1
            continue
        try:
            x2, y2 = x + w, y + h  # xywh to corners
        except OverflowError:  # a float plus an int past a float's range, which fits no image
            x2 = y2 = math.inf
        width, height = dims_by_image[image_id]
        # a chained comparison is false for NaN, and infinity fails a bound
        if not (0 <= x <= x2 <= width and 0 <= y <= y2 <= height):
            skipped["invalid_bbox"] += 1
            continue
        try:
            instance_id = ann["id"]
        except KeyError:
            raise SchemaError(f"{path}: annotations[{n}]: missing required field 'id'") from None
        if type(instance_id) is not str:
            if type(instance_id) is not int:
                skipped["invalid_id"] += 1
                continue
            instance_id = str(instance_id)
        objects_by_image[image_id].append(ObjectAnn(instance_id, categories[category_id], BBox._make((x, y, x2, y2))))

    images = []
    for image_id in sorted(dims_by_image, key=str):
        objects = tuple(objects_by_image[image_id])
        if len({obj.instance_id for obj in objects}) != len(objects):
            skipped["duplicate_instance_ids"] += 1
            continue
        images.append(AnnotatedImage(str(image_id), dims_by_image[image_id], objects))
    return CocoLoad(images=images, vocabulary=list(first_by_name), skipped=skipped)


class CaptionRecord(NamedTuple):
    image_id: str
    instance_id: str
    caption: str


def load_caption_records(path) -> list[CaptionRecord]:
    """Read pseudo-caption JSONL; also accepts query-response lines whose
    item_id embeds ``{image_id}:cap:{instance_id}``. A ``caption``,
    ``item_id`` or ``text`` that is present but not a string, or an
    ``image_id`` or ``instance_id`` that is neither a string nor an integer, is
    a SchemaError naming the file and line."""
    records = []
    for line_no, row in iter_rows(path):
        caption, item_id, text = row.get("caption", ""), row.get("item_id", ""), row.get("text", "")
        if type(caption) is not str or type(item_id) is not str or type(text) is not str:
            for field, value in (("caption", caption), ("item_id", item_id), ("text", text)):
                _require(type(value) is str, path, line_no, f"{field} is not a string")
        if "caption" in row:
            try:
                image_id, instance_id = row["image_id"], row["instance_id"]
            except KeyError as exc:
                raise line_error(path, line_no, exc) from exc
            if type(image_id) is not str or type(instance_id) is not str:
                image_id = _row_id(path, line_no, "image_id", image_id)
                instance_id = _row_id(path, line_no, "instance_id", instance_id)
            records.append(CaptionRecord(image_id, instance_id, caption))
        elif ":cap:" in item_id and text:
            image_id, _, instance_id = item_id.partition(":cap:")
            records.append(CaptionRecord(image_id, instance_id, text))
    return records


def _row_id(path, line_no: int, field: str, value) -> str:
    """An id field of a JSON-lines row, as a string: a string, or an integer's digits."""
    _require(_is_id(value), path, line_no, f"{field} is not a string or an integer")
    return str(value)


def load_vocabulary(path) -> list[str]:
    """Read category names, one per line, stripped; blank lines are skipped. A
    name that repeats an earlier line's is a SchemaError naming both lines."""
    first_line = {}
    for line_no, line in iter_lines(path):
        name = line.strip()
        if name:
            first = first_line.setdefault(name, line_no)
            _require(first == line_no, path, line_no, f"{name!r} repeats line {first}")
    return list(first_line)


def _require(ok: bool, path, line_no: int, problem: str) -> None:
    if not ok:
        raise SchemaError(f"{path}: line {line_no}: {problem}")


def _detection(path, line_no: int, det) -> tuple[str, BBox]:
    """One ``{category, bbox: [x1, y1, x2, y2]}`` of a video-detections line, type-checked."""
    _require(isinstance(det, dict), path, line_no, "detection is not a JSON object")
    category, bbox = det["category"], det["bbox"]
    _require(isinstance(category, str), path, line_no, "category is not a string")
    _require(
        isinstance(bbox, list) and len(bbox) == 4 and all(map(_is_number, bbox)),
        path, line_no, "bbox is not an array of 4 numbers",
    )
    try:
        for value in bbox:
            float(value)  # an int past a float's range raises OverflowError; the box keeps the int
        return category, BBox(*bbox)
    except (CodecError, OverflowError) as exc:  # negative or inverted corners, or a huge int
        raise SchemaError(f"{path}: line {line_no}: bad bbox: {exc}") from exc


def load_video_detections(path) -> dict[str, dict[int, list[tuple[str, BBox]]]]:
    """Read per-video detections: one {video_id, frames: {idx: [{category, bbox}]}} per line.

    Boxes are xyxy in pixel space. A ``video_id`` that is neither a string
    nor an integer, or that repeats an earlier line's after ``str()``, and a
    frame index that repeats another of its line after ``int()`` are
    SchemaErrors naming the file and line.
    """
    videos: dict[str, dict[int, list[tuple[str, BBox]]]] = {}
    first_line = {}
    for line_no, row in iter_rows(path):
        try:
            _require(isinstance(row["frames"], dict), path, line_no, "frames is not a JSON object")
            frames, keys = {}, {}
            for idx, dets in row["frames"].items():
                _require(idx.isascii() and idx.isdigit(), path, line_no, f"frame index {idx!r} is not a number")
                _require(isinstance(dets, list), path, line_no, f"frame {idx} is not a JSON array")
                frame = int(idx)
                key = keys.setdefault(frame, idx)
                _require(key == idx, path, line_no, f"frame index {idx!r} repeats frame index {key!r}")
                frames[frame] = [_detection(path, line_no, d) for d in dets]
            video_id = _row_id(path, line_no, "video_id", row["video_id"])
            first = first_line.setdefault(video_id, line_no)
            _require(first == line_no, path, line_no, f"video_id {video_id!r} repeats line {first}")
            videos[video_id] = frames
        except KeyError as exc:
            raise line_error(path, line_no, exc) from exc
    return videos
