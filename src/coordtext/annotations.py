"""Annotation domain types and input-file parsing.

Three external inputs are understood:

* COCO-style JSON: top-level ``images`` [{id, width, height, file_name}],
  ``annotations`` [{id, image_id, category_id, bbox: [x, y, w, h]}], and
  ``categories`` [{id, name}]. Boxes arrive as xywh and are converted to
  xyxy on load.
* Pseudo-caption JSONL: one {image_id, instance_id, caption} per line.
* Panoptic label grids: a text file of whitespace-separated integer instance
  ids, one grid row per line, plus a JSON sidecar mapping id -> category.

Malformed annotation rows are skipped and tallied, never fatal.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .coords import BBox, CodecError, ImageDims
from .records import SchemaError, iter_rows, line_error

if TYPE_CHECKING:
    import numpy as np


class ObjectAnn(NamedTuple):
    instance_id: str
    category: str
    bbox: BBox


class _AnnotatedImage(NamedTuple):
    image_id: str
    dims: ImageDims
    objects: tuple[ObjectAnn, ...]
    captions: dict[str, str] | None


class AnnotatedImage(_AnnotatedImage):
    __slots__ = ()

    def __new__(
        cls, image_id: str, dims: ImageDims, objects: tuple[ObjectAnn, ...], captions: dict[str, str] | None = None
    ):
        ids = [o.instance_id for o in objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate instance ids in image {image_id}")
        for obj in objects:
            obj.bbox.validate_within(dims)
        return tuple.__new__(cls, (image_id, dims, objects, captions))

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


def _is_number(value) -> bool:
    """A finite JSON number. json gives NaN and Infinity as floats; a bool is not a number here."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def xywh_to_xyxy(box: list[float]) -> tuple[float, float, float, float]:
    """COCO-style [x, y, w, h] to corner coordinates."""
    x, y, w, h = box
    return (x, y, x + w, y + h)


class _CocoLoad(NamedTuple):
    images: list[AnnotatedImage]
    vocabulary: list[str]  # category names in file order
    skipped: Counter


class CocoLoad(_CocoLoad):
    __slots__ = ()

    def __new__(cls, images: list[AnnotatedImage], vocabulary: list[str], skipped: Counter | None = None):
        return tuple.__new__(cls, (images, vocabulary, Counter() if skipped is None else skipped))


def load_coco_annotations(path) -> CocoLoad:
    """Parse a COCO-style annotation file into AnnotatedImage values.

    Annotations referencing unknown images or categories, with a ``bbox``
    that is not four finite numbers, with non-positive extents, or landing
    outside their image are skipped and tallied.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    categories = {c["id"]: c["name"] for c in data.get("categories", [])}
    vocabulary = [c["name"] for c in data.get("categories", [])]
    dims_by_image = {}
    for img in data.get("images", []):
        dims_by_image[img["id"]] = ImageDims(int(img["width"]), int(img["height"]))

    skipped: Counter = Counter()
    objects_by_image: dict = {img_id: [] for img_id in dims_by_image}
    for ann in data.get("annotations", []):
        image_id = ann.get("image_id")
        if image_id not in dims_by_image:
            skipped["unknown_image"] += 1
            continue
        if ann.get("category_id") not in categories:
            skipped["unknown_category"] += 1
            continue
        bbox = ann.get("bbox")
        if not isinstance(bbox, list) or len(bbox) != 4 or not all(map(_is_number, bbox)):
            skipped["invalid_bbox"] += 1
            continue
        x1, y1, x2, y2 = xywh_to_xyxy(bbox)
        try:
            box = BBox(x1, y1, x2, y2)
            box.validate_within(dims_by_image[image_id])
        except CodecError:
            skipped["invalid_bbox"] += 1
            continue
        objects_by_image[image_id].append(
            ObjectAnn(instance_id=str(ann["id"]), category=categories[ann["category_id"]], bbox=box)
        )

    images = []
    for image_id in sorted(dims_by_image, key=str):
        try:
            images.append(
                AnnotatedImage(
                    image_id=str(image_id),
                    dims=dims_by_image[image_id],
                    objects=tuple(objects_by_image[image_id]),
                )
            )
        except ValueError:
            skipped["duplicate_instance_ids"] += 1
    return CocoLoad(images=images, vocabulary=vocabulary, skipped=skipped)


class CaptionRecord(NamedTuple):
    image_id: str
    instance_id: str
    caption: str


def load_caption_records(path) -> list[CaptionRecord]:
    """Read pseudo-caption JSONL; also accepts query-response lines whose
    item_id embeds ``{image_id}:cap:{instance_id}``. A ``caption``,
    ``item_id`` or ``text`` that is present but not a string is a SchemaError."""
    records = []
    for line_no, row in iter_rows(path):
        if row.get("record_type") == "meta":
            continue
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


def load_label_grid(path) -> np.ndarray:
    """Read a panoptic label grid: whitespace-separated ids, one row per line."""
    import numpy as np

    return np.loadtxt(path, dtype=np.int64, ndmin=2)


def load_instance_categories(path) -> dict[int, str]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {int(k): v for k, v in raw.items()}


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
        return category, BBox(*bbox)
    except CodecError as exc:  # negative or inverted corners
        raise SchemaError(f"{path}: line {line_no}: bad bbox: {exc}") from exc


def load_video_detections(path) -> dict[str, dict[int, list[tuple[str, BBox]]]]:
    """Read per-video detections: one {video_id, frames: {idx: [{category, bbox}]}} per line.

    Boxes are xyxy in pixel space.
    """
    videos: dict[str, dict[int, list[tuple[str, BBox]]]] = {}
    for line_no, row in iter_rows(path):
        if row.get("record_type") == "meta":
            continue
        try:
            _require(isinstance(row["frames"], dict), path, line_no, "frames is not a JSON object")
            frames = {}
            for idx, dets in row["frames"].items():
                _require(idx.isascii() and idx.isdigit(), path, line_no, f"frame index {idx!r} is not a number")
                _require(isinstance(dets, list), path, line_no, f"frame {idx} is not a JSON array")
                frames[int(idx)] = [_detection(path, line_no, d) for d in dets]
            videos[str(row["video_id"])] = frames
        except KeyError as exc:
            raise line_error(path, line_no, exc) from exc
    return videos
