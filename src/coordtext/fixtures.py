"""Deterministic synthetic fixtures.

Everything here is generated from a seed so the full test and acceptance
suite runs offline; the CLI ``fixtures`` command materializes the same files
for interactive use. Category names deliberately avoid the side and yes/no
keywords that the scorers look for.
"""

import json
import random

from .annotations import AnnotatedImage, ObjectAnn
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
        records.append(
            {
                "sample_id": f"vqa{i:04d}",
                "image_id": f"im{i:04d}",
                "objective": VQA,
                "prompt": rng.choice(questions).format(a=answer),
                "target": answer,
                "location_text": None,
                "scheme": None,
                "form": None,
                "descriptor": answer,
                "seed": seed,
            }
        )
    return records


def panoptic_fixture(seed: int = 5, height: int = 60, width: int = 80):
    """A label grid painted with overlapping rectangles plus its category sidecar."""
    rng = random.Random(seed)
    mask = [[0] * width for _ in range(height)]
    category_map = {}
    for instance_id in range(1, rng.randint(3, 9)):
        y0 = rng.randrange(0, height - 2)
        x0 = rng.randrange(0, width - 2)
        y1 = min(height, y0 + rng.randint(1, height // 2))
        x1 = min(width, x0 + rng.randint(1, width // 2))
        for row in mask[y0:y1]:
            row[x0:x1] = [instance_id] * (x1 - x0)
        category_map[instance_id] = rng.choice(CATEGORIES)
    return mask, category_map


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


def write_coco_json(images: list[AnnotatedImage], path, vocabulary=CATEGORIES) -> None:
    """Write images in the COCO-style input format (boxes as xywh)."""
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


def write_panoptic_files(mask, category_map, grid_path, sidecar_path) -> None:
    with open(grid_path, "w", encoding="utf-8") as fh:
        for row in mask:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in category_map.items()}, fh, sort_keys=True)


def write_video_detections(videos: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for video_id in sorted(videos):
            frames = {str(f): dets for f, dets in sorted(videos[video_id].items())}
            fh.write(json.dumps({"video_id": video_id, "frames": frames}, sort_keys=True) + "\n")
