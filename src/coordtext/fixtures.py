"""Deterministic synthetic fixtures.

Everything here is generated from a seed so the full test and acceptance
suite runs offline; the CLI ``fixtures`` command materializes the same files
for interactive use. Category names deliberately avoid the side and yes/no
keywords that the scorers look for.
"""

import json
import random

from .annotations import AnnotatedImage, ObjectAnn
from .builders import dataset_record
from .coords import BBox, ImageDims
from .prompts import VQA

CATEGORIES = (
    "lamp",
    "chair",
    "mug",
    "plant",
    "radio",
    "kettle",
    "drum",
    "vase",
    "clock",
    "boot",
    "fern",
    "sofa",
)

_DIMS_CHOICES = ((512, 512), (640, 480), (448, 448))


def _random_box_around(rng: random.Random, cx: float, cy: float, dims: ImageDims) -> BBox:
    hw = rng.uniform(4, min(40.0, cx, dims.width - cx))
    hh = rng.uniform(4, min(40.0, cy, dims.height - cy))
    return BBox(cx - hw, cy - hh, cx + hw, cy + hh)


def _zone_center(rng: random.Random, dim: int, low_side: bool) -> float:
    # clearly outside the central 20% band, with margin for the box extent
    return rng.uniform(0.08, 0.32) * dim if low_side else rng.uniform(0.68, 0.92) * dim


def spatial_fixture(n: int = 200, seed: int = 0) -> list[AnnotatedImage]:
    """Images mixing side-bench archetypes: qualifying triplets, objects in the
    central band, single-sided triplets, and non-triplet layouts."""
    rng = random.Random(seed)
    images = []
    for i in range(n):
        image_id = f"sp{i:04d}"
        dims = ImageDims(*rng.choice(_DIMS_CHOICES))
        archetype = rng.choice(["qualify", "qualify", "qualify", "band", "same_side", "not_triplet"])
        cats = rng.sample(CATEGORIES, 4)
        objects = []
        if archetype == "not_triplet":
            count = rng.choice([1, 2, 4])
            duplicate = count >= 2 and rng.random() < 0.5
            for k in range(count):
                cat = cats[0] if duplicate and k < 2 else cats[min(k, 3)]
                cx = rng.uniform(30, dims.width - 30)
                cy = rng.uniform(30, dims.height - 30)
                objects.append(ObjectAnn(f"{image_id}.o{k}", cat, _random_box_around(rng, cx, cy, dims)))
        else:
            for k in range(3):
                if archetype == "band" and k == 0:
                    cx = rng.uniform(0.45, 0.55) * dims.width
                    cy = _zone_center(rng, dims.height, rng.random() < 0.5)
                elif archetype == "same_side":
                    cx = _zone_center(rng, dims.width, True)
                    cy = _zone_center(rng, dims.height, True)
                else:
                    cx = _zone_center(rng, dims.width, rng.random() < 0.5)
                    cy = _zone_center(rng, dims.height, rng.random() < 0.5)
                objects.append(ObjectAnn(f"{image_id}.o{k}", cats[k], _random_box_around(rng, cx, cy, dims)))
        images.append(AnnotatedImage(image_id, dims, tuple(objects)))
    return images


def annotation_fixture(n: int = 50, seed: int = 1) -> list[AnnotatedImage]:
    """General-purpose annotated images: unique and duplicated categories, empty images."""
    rng = random.Random(seed)
    images = []
    for i in range(n):
        image_id = f"im{i:04d}"
        dims = ImageDims(*rng.choice(_DIMS_CHOICES))
        objects = []
        count = rng.choice([0, 1, 2, 2, 3, 3, 4, 5])
        cats = [rng.choice(CATEGORIES) for _ in range(count)]
        for k, cat in enumerate(cats):
            cx = rng.uniform(45, dims.width - 45)
            cy = rng.uniform(45, dims.height - 45)
            objects.append(ObjectAnn(f"{image_id}.o{k}", cat, _random_box_around(rng, cx, cy, dims)))
        images.append(AnnotatedImage(image_id, dims, tuple(objects)))
    return images


def caption_fixture(images: list[AnnotatedImage], seed: int = 2) -> list[dict]:
    """Pseudo-caption records for roughly two thirds of unique-category instances."""
    rng = random.Random(seed)
    adjectives = ("tall", "small", "dusty", "striped", "shiny", "worn")
    placements = ("near the window", "on the table", "beside the door", "under the shelf")
    records = []
    for image in images:
        counts = image.category_counts()
        for obj in image.objects:
            if counts[obj.category] == 1 and rng.random() < 0.67:
                caption = f"a {rng.choice(adjectives)} {obj.category} {rng.choice(placements)}"
                records.append(
                    {"image_id": image.image_id, "instance_id": obj.instance_id, "caption": caption}
                )
    return records


def vqa_fixture(n: int = 60, seed: int = 4) -> list[dict]:
    """Keyword-VQA records: short questions with one-word ground-truth answers."""
    rng = random.Random(seed)
    answers = ("2", "3", "4", "red", "blue", "green", "lamp", "chair", "mug")
    questions = (
        "How many {a} items appear here?",
        "What color is the largest object?",
        "Which object sits closest to the camera?",
    )
    records = []
    for i in range(n):
        answer = rng.choice(answers)
        prompt = rng.choice(questions).format(a=answer)
        records.append(dataset_record(f"vqa{i:04d}", f"im{i:04d}", VQA, prompt, answer, answer, seed))
    return records


def video_detection_fixture(n: int = 12, seed: int = 6, n_frames: int = 8) -> dict:
    """Per-video detections with static, drifting, and single-frame objects."""
    rng = random.Random(seed)
    videos = {}
    for i in range(n):
        frames: dict[int, list] = {f: [] for f in range(n_frames)}
        for cat in rng.sample(CATEGORIES, rng.randint(1, 4)):
            kind = rng.choice(["static", "drift", "single"])
            cx, cy = rng.uniform(60, 400), rng.uniform(60, 300)
            w, h = rng.uniform(20, 60), rng.uniform(20, 60)
            if kind == "single":
                chosen = [rng.randrange(n_frames)]
            else:
                chosen = sorted(rng.sample(range(n_frames), rng.randint(2, n_frames)))
            for step, f in enumerate(chosen):
                if kind == "drift":
                    dx, dy = 9.0 * step, 7.0 * step
                else:
                    dx, dy = rng.uniform(-2, 2), rng.uniform(-2, 2)
                frames[f].append(
                    {
                        "category": cat,
                        "bbox": [cx + dx - w / 2, cy + dy - h / 2, cx + dx + w / 2, cy + dy + h / 2],
                    }
                )
        videos[f"vid{i:05d}"] = frames
    return videos


# ---------------- keyword corpus ---------------- #

# per-line phrase profiles and how many corpus lines carry each
_CORPUS_PROFILE = (
    # template, count; braces filled with keyword-free nouns
    ("the {a} moved to the left of the {b}", 80),
    ("on the left edge sits a {a} and a {b}", 91),
    ("its left side shows a {a} above the {b}", 75),
    ("what was left unsaid about the {a} and the {b}", 1373),
    ("the {a} drifted to the right of the {b}", 93),
    ("everyone has the right to keep a {a} and a {b}", 1221),
    ("right side up goes the {a} onto the {b}", 110),
    ("the {a} felt right at home beside the {b}", 3577),
)
CORPUS_SIZE = 80_000
_CORPUS_FILLER = "the {a} rests near the {b} in the corner"


def keyword_corpus(seed: int = 7) -> list[str]:
    """80,000 short conversations with frozen side-keyword membership counts.

    Counts per phrase (substring, case-insensitive, one per conversation):
    left 1619, right 5001, "the left" 171, "the right" 1314, "left side" 75,
    "right side" 110, "to the left" 80, "to the right" 93.
    """
    rng = random.Random(seed)
    templates = []
    for template, count in _CORPUS_PROFILE:
        templates.extend([template] * count)
    templates.extend([_CORPUS_FILLER] * (CORPUS_SIZE - len(templates)))
    rng.shuffle(templates)
    lines = []
    for template in templates:
        a, b = rng.sample(CATEGORIES, 2)
        lines.append(template.format(a=a, b=b))
    return lines


# ---------------- serialization helpers ---------------- #


def _json_encoder():
    """``json.dump(value, fh, sort_keys=True)``'s encoder, run in json's C code,
    which ``json.dump`` never uses. Build one per file: a failed call can leave
    its circular-reference markers behind."""
    return json.encoder.c_make_encoder(
        {}, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ": ", ", ", True, False, True
    )


def _write_array(fh, encode, entries) -> None:
    separator = ""
    for entry in entries:
        fh.write(separator)
        fh.writelines(encode(entry, 0))
        separator = ", "


def _coco_annotations(images: list[AnnotatedImage], cat_ids: dict[str, int]):
    for im in images:
        for obj in im.objects:
            x1, y1, x2, y2 = obj.bbox
            yield {"id": obj.instance_id, "image_id": im.image_id, "category_id": cat_ids[obj.category],
                   "bbox": [x1, y1, x2 - x1, y2 - y1]}


def write_coco_json(images: list[AnnotatedImage], path, vocabulary=CATEGORIES) -> None:
    """Write images in the COCO-style input format (boxes as xywh).

    The bytes are ``json.dump(data, fh, sort_keys=True)``'s for the whole
    document, but each entry is encoded as it is reached, so the document is
    never held: its three keys are written by hand, in sorted order.
    """
    cat_ids = {name: idx + 1 for idx, name in enumerate(vocabulary)}
    encode = _json_encoder()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"annotations": [')
        _write_array(fh, encode, _coco_annotations(images, cat_ids))
        fh.write('], "categories": [')
        _write_array(fh, encode, ({"id": idx, "name": name} for name, idx in cat_ids.items()))
        fh.write('], "images": [')
        _write_array(fh, encode, (
            {"id": im.image_id, "width": im.dims.width, "height": im.dims.height, "file_name": f"{im.image_id}.jpg"}
            for im in images
        ))
        fh.write("]}")


def write_jsonl(rows, path) -> None:
    """One ``json.dumps(row, sort_keys=True)`` line per row."""
    encode = _json_encoder()
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.writelines(encode(row, 0))
            fh.write("\n")


def write_video_detections(videos: dict, path) -> None:
    write_jsonl(
        (
            {"video_id": video_id, "frames": {str(f): dets for f, dets in sorted(videos[video_id].items())}}
            for video_id in sorted(videos)
        ),
        path,
    )
