"""Dataset construction from annotations and ingested pseudo-labels.

Every builder is deterministic under a fixed seed: outputs are emitted in a
canonical order (image id, then sample ordinal) and all sampling uses seeds
derived per sample, so reruns produce identical bytes whatever the input
order. Every dataset record is built by ``dataset_record``. Each filter
tallies what it drops into a build report.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import attrgetter
from typing import NamedTuple

from .annotations import AnnotatedImage, MediaCategories
from .coords import BBox, ReprScheme, encode_bbox, encode_point
from .prompts import (
    DEFAULT_TEMPLATES,
    HALLUCINATION,
    LOCPRED,
    NEGPRED,
    REVLOC,
    SPATIAL_DIRECT,
    SPATIAL_ICL,
    TemplateSet,
    render_hallucination_query,
    render_locpred,
    render_negpred,
    render_revloc,
    render_spatial_query,
    spatial_icl_example,
)
from .seeding import derive_seed

IFT_OBJECTIVES = (LOCPRED, NEGPRED, REVLOC)

# fraction of each axis treated as the central exclusion band
CENTER_BAND = (0.4, 0.6)
STATIC_CENTER_RANGE_PX = 5.0


class BuildReport(NamedTuple):
    """Counts of what went in, what came out, and what each filter dropped."""

    input_count: int
    emitted_count: int
    exclusions: Counter

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "emitted_count": self.emitted_count,
            "exclusions": dict(sorted(self.exclusions.items())),
        }


def dataset_record(
    sample_id: str, image_id: str, objective: str, prompt: str, target: str, descriptor: str, seed: int,
    *, location_text: str | None = None, scheme: dict | None = None, form: str | None = None, **extra,
) -> dict:
    """One dataset record: the fields every record carries, plus a task's own in ``extra``."""
    return {
        "sample_id": sample_id,
        "image_id": image_id,
        "objective": objective,
        "prompt": prompt,
        "target": target,
        "location_text": location_text,
        "scheme": scheme,
        "form": form,
        "descriptor": descriptor,
        "seed": seed,
        **extra,
    }


# ---------------- instance filters ---------------- #


def unique_instance_objects(image: AnnotatedImage):
    """Objects whose category occurs exactly once in the image, in instance order."""
    objects = sorted(image.objects, key=attrgetter("instance_id"))
    categories = [o.category for o in objects]
    if len(set(categories)) == len(categories):  # as after ingest_pseudo_captions: no category repeats
        return objects
    counts = Counter(categories)
    return [o for o in objects if counts[o.category] == 1]


def discover_negative_categories(image: AnnotatedImage, vocabulary: Sequence[str]) -> list[str]:
    """Vocabulary entries absent from the image, preserving vocabulary order."""
    present = image.present_categories()
    return [cat for cat in vocabulary if cat not in present]


# ---------------- conversation dataset ---------------- #


class ConversationSample(NamedTuple):
    """One instruction-tuning sample; ``location``, the text of the object's
    location, is set exactly for locpred and revloc samples."""

    sample_id: str
    image_id: str
    objective: str
    prompt: str
    target: str
    location: str | None
    descriptor: str
    form: str
    seed: int

    def to_record(self, scheme: ReprScheme) -> dict:
        return dataset_record(
            self.sample_id, self.image_id, self.objective, self.prompt, self.target, self.descriptor, self.seed,
            location_text=self.location, scheme=scheme.to_dict(), form=self.form,
        )


def build_ift_dataset(
    images: Iterable[AnnotatedImage],
    scheme: ReprScheme,
    form: str,
    mix: dict[str, float],
    seed: int,
    vocabulary: Sequence[str],
    templates: TemplateSet = DEFAULT_TEMPLATES,
) -> tuple[list[ConversationSample], BuildReport]:
    """Location/negative/reverse conversation samples from unique-instance objects.

    ``mix`` maps objective name to a ratio of the eligible (image, object)
    pair count, each checked where ``cli`` parses ``--mix``; ratio 1.0 visits
    every pair once, larger ratios cycle. The descriptor is the instance's
    pseudo-caption when present, else its category; negatives draw a
    seeded-uniform category of ``vocabulary`` that the image lacks.
    """
    images = sorted(images, key=attrgetter("image_id"))
    exclusions = Counter()
    eligible: list[tuple[AnnotatedImage, object]] = []
    for image in images:
        objs = unique_instance_objects(image)
        if not objs:
            exclusions["images_without_eligible_objects"] += 1
        eligible.extend((image, obj) for obj in objs)
    if not eligible:
        return [], BuildReport(len(images), 0, exclusions)

    total = len(eligible)

    def make_sample(objective: str, index: int) -> ConversationSample | None:
        image, obj = eligible[index % total]
        cycle = index // total
        sample_id = f"{image.image_id}:{obj.instance_id}:{objective}:{cycle}"
        # derive_seed hashes f"{seed}:{sample_id}", so this is the seed of
        # the ":"-joined (seed, image id, instance id, objective, cycle)
        sample_seed = derive_seed(seed, sample_id)
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
            sample_id, image.image_id, objective, pair.prompt, pair.target, location, descriptor, form, sample_seed
        )

    samples = []
    for objective in IFT_OBJECTIVES:
        count = int(math.floor(total * mix.get(objective, 0.0) + 0.5))
        samples.extend(make_sample(objective, i) for i in range(count))
    dropped = samples.count(None)  # negatives of images whose categories cover the vocabulary
    if dropped:
        exclusions["negatives_without_candidates"] += dropped
        samples = [s for s in samples if s is not None]
    samples.sort(key=attrgetter("image_id", "sample_id"))
    return samples, BuildReport(len(images), len(samples), exclusions)


# ---------------- spatial reasoning benchmark ---------------- #


class SpatialBenchItem(NamedTuple):
    item_id: str
    image_id: str
    axis: str  # "lr" | "ab"
    obj_query: tuple[str, BBox]
    obj_ref: tuple[str, BBox]
    gt_keyword: str
    icl_context: tuple[tuple[str, str], tuple[str, str]] | None
    seed: int

    @property
    def objective(self) -> str:
        return SPATIAL_ICL if self.icl_context else SPATIAL_DIRECT

    def prompt(self, templates: TemplateSet = DEFAULT_TEMPLATES) -> str:
        return render_spatial_query(self.obj_ref[0], self.obj_query[0], icl=self.icl_context, templates=templates)

    def to_record(self, templates: TemplateSet = DEFAULT_TEMPLATES) -> dict:
        return dataset_record(
            self.item_id, self.image_id, self.objective, self.prompt(templates), self.gt_keyword,
            self.obj_query[0], self.seed,
            axis=self.axis,
            gt_keyword=self.gt_keyword,
            icl_context=[list(pair) for pair in self.icl_context] if self.icl_context else None,
        )


def _axis_accessors(axis: str):
    if axis == "lr":
        return (lambda b: (b.x1 + b.x2) / 2), (lambda dims: dims.width), ("left", "right")
    return (lambda b: (b.y1 + b.y2) / 2), (lambda dims: dims.height), ("above", "below")


def _side_keyword(center: float, dim: float, keywords: tuple[str, str]) -> str:
    return keywords[0] if center < dim / 2 else keywords[1]


def build_spatial_bench(
    images: Iterable[AnnotatedImage],
    seed: int,
    templates: TemplateSet = DEFAULT_TEMPLATES,
) -> tuple[list[SpatialBenchItem], BuildReport]:
    """Side-question items from images holding a distinct-category object triplet.

    Per axis, an image qualifies when (1) it has exactly three objects of
    three distinct categories, (2) every object center lies outside the
    central 20% band of the axis, and (3) the two half-planes are both
    occupied. Every opposite-side ordered pair becomes a direct item; each
    lone-side object paired against each same-side pair becomes an
    in-context item whose two worked examples use the remaining object.
    """
    images = sorted(images, key=lambda im: im.image_id)
    exclusions = Counter()
    items: list[SpatialBenchItem] = []
    for image in images:
        objs = sorted(image.objects, key=lambda o: o.instance_id)
        if len(objs) != 3 or len({o.category for o in objs}) != 3:
            exclusions["not_triplet"] += 1
            continue
        for axis in ("lr", "ab"):
            center_of, dim_of, keywords = _axis_accessors(axis)
            dim = dim_of(image.dims)
            centers = [center_of(o.bbox) for o in objs]
            if any(CENTER_BAND[0] * dim <= c <= CENTER_BAND[1] * dim for c in centers):
                exclusions[f"{axis}_center_band"] += 1
                continue
            sides = [_side_keyword(c, dim, keywords) for c in centers]
            if len(set(sides)) < 2:
                exclusions[f"{axis}_same_side"] += 1
                continue
            ordinal = 0
            for i, ref in enumerate(objs):
                for j, query in enumerate(objs):
                    if i == j or sides[i] == sides[j]:
                        continue
                    item_id = f"{image.image_id}:{axis}:direct:{ordinal:02d}"
                    items.append(
                        SpatialBenchItem(
                            item_id=item_id,
                            image_id=image.image_id,
                            axis=axis,
                            obj_query=(query.category, query.bbox),
                            obj_ref=(ref.category, ref.bbox),
                            gt_keyword=sides[j],
                            icl_context=None,
                            seed=derive_seed(seed, item_id),
                        )
                    )
                    ordinal += 1
            # in-context items: the lone-side object is queried against each
            # object on the crowded side; the remaining one feeds the examples
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
                    items.append(
                        SpatialBenchItem(
                            item_id=item_id,
                            image_id=image.image_id,
                            axis=axis,
                            obj_query=(objs[a].category, objs[a].bbox),
                            obj_ref=(objs[c].category, objs[c].bbox),
                            gt_keyword=sides[a],
                            icl_context=example_pair,
                            seed=derive_seed(seed, item_id),
                        )
                    )
                    ordinal += 1
    items.sort(key=lambda it: it.item_id)
    return items, BuildReport(len(images), len(items), exclusions)


# ---------------- hallucination benchmark ---------------- #


class HallucinationItem(NamedTuple):
    item_id: str
    media_id: str
    medium: str  # "image" | "video"
    obj: str
    gt: str  # "yes" | "no"
    seed: int

    def to_record(self, templates: TemplateSet = DEFAULT_TEMPLATES) -> dict:
        return dataset_record(
            self.item_id, self.media_id, HALLUCINATION, render_hallucination_query(self.obj, self.medium, templates),
            "Yes" if self.gt == "yes" else "No", self.obj, self.seed,
            medium=self.medium, gt=self.gt,
        )


def _as_media(unit) -> MediaCategories:
    if isinstance(unit, AnnotatedImage):
        return MediaCategories(unit.image_id, "image", tuple(sorted(unit.present_categories())))
    return unit


def build_hallucination_set(
    media: Iterable[AnnotatedImage | MediaCategories],
    vocabulary: Sequence[str],
    seed: int,
    per_media: int,
    disjoint_from: Sequence[str] | None = None,
) -> tuple[list[HallucinationItem], BuildReport]:
    """Presence questions: per media unit, up to ``per_media`` present and as
    many absent categories.

    With ``disjoint_from`` the vocabulary is a novel-category list and must
    not overlap the given base classes.
    """
    if not vocabulary:
        raise ValueError("vocabulary must be non-empty")
    if per_media < 0:
        raise ValueError(f"per_media must be non-negative, got {per_media}")
    if disjoint_from is not None:
        overlap = sorted(set(vocabulary) & set(disjoint_from))
        if overlap:
            raise ValueError(f"novel vocabulary overlaps base classes: {overlap}")

    units = sorted((_as_media(u) for u in media), key=lambda u: u.media_id)
    exclusions = Counter()
    items: list[HallucinationItem] = []
    vocab_set = set(vocabulary)
    for unit in units:
        present = sorted(set(unit.categories) & vocab_set)
        absent = [c for c in vocabulary if c not in set(unit.categories)]
        if not present:
            exclusions["media_without_present_categories"] += 1
        rng = random.Random(derive_seed(seed, unit.media_id))
        chosen_present = sorted(rng.sample(present, min(per_media, len(present))))
        chosen_absent = sorted(rng.sample(absent, min(per_media, len(absent))))
        ordinal = 0
        for obj, gt in [(c, "yes") for c in chosen_present] + [(c, "no") for c in chosen_absent]:
            item_id = f"{unit.media_id}:hal:{ordinal:02d}"
            items.append(
                HallucinationItem(
                    item_id=item_id,
                    media_id=unit.media_id,
                    medium=unit.medium,
                    obj=obj,
                    gt=gt,
                    seed=derive_seed(seed, item_id),
                )
            )
            ordinal += 1
    items.sort(key=lambda it: it.item_id)
    return items, BuildReport(len(units), len(items), exclusions)


# ---------------- pseudo-caption ingestion ---------------- #


def ingest_pseudo_captions(
    images: Iterable[AnnotatedImage], caption_records
) -> tuple[list[AnnotatedImage], BuildReport]:
    """Attach object-level captions to images whose categories are all unique.

    Images with a repeated category are dropped first; records that match no
    surviving (image, instance) pair are tallied as dangling.
    """
    images = sorted(images, key=attrgetter("image_id"))
    exclusions = Counter()
    kept: dict[str, AnnotatedImage] = {}
    instance_ids: dict[str, set[str]] = {}  # of each kept image
    for image in images:
        objects = image.objects
        if len({o.category for o in objects}) != len(objects):
            exclusions["images_with_duplicate_category"] += 1
            continue
        kept[image.image_id] = image
        instance_ids[image.image_id] = {o.instance_id for o in objects}

    captions: dict[str, dict[str, str]] = {}
    for image_id, instance_id, caption in caption_records:
        if instance_id not in instance_ids.get(image_id, ()):
            exclusions["captions_dangling"] += 1
            continue
        per_image = captions.setdefault(image_id, {})
        if instance_id in per_image:
            exclusions["captions_duplicate"] += 1
            continue
        per_image[instance_id] = caption

    out = []
    for image_id, image in kept.items():
        if image_id in captions:
            merged = dict(image.captions or {})
            merged.update(captions[image_id])
            image = image._replace(captions=merged)
        out.append(image)
    return out, BuildReport(len(images), len(out), exclusions)


# ---------------- video static objects ---------------- #


class VideoObjectTrack(NamedTuple):
    video_id: str
    category: str
    per_frame_boxes: dict[int, BBox]
    averaged_box: BBox
    is_static: bool


def _mean(values) -> float:
    """Left to right, as numpy reduces a column; ``sum`` compensates floats from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def build_video_static_objects(
    per_frame_detections: dict[int, list[tuple[str, BBox]]],
    n_f: int = 8,
    video_id: str = "",
) -> tuple[list[VideoObjectTrack], Counter]:
    """Per-category tracks over n_f uniformly sampled frames.

    A category seen twice in any frame is excluded outright. A track is
    static when present in a single frame, or when every per-frame center
    sits within STATIC_CENTER_RANGE_PX of the mean center. The averaged box
    is the coordinate-wise mean over frames where the object appears.
    """
    tallies: Counter = Counter()
    by_category: dict[str, dict[int, BBox]] = {}
    ambiguous: set[str] = set()
    for frame, detections in per_frame_detections.items():
        if not 0 <= frame < n_f:
            raise ValueError(f"frame index {frame} outside [0, {n_f})")
        for category, box in detections:
            frames = by_category.setdefault(category, {})
            if frame in frames:
                ambiguous.add(category)
            else:
                frames[frame] = box

    tracks = []
    for category in sorted(by_category):
        if category in ambiguous:
            tallies["categories_with_duplicate_instances"] += 1
            continue
        frames = by_category[category]
        boxes = [frames[f] for f in sorted(frames)]
        coords = [b.as_tuple() for b in boxes]
        avg = [_mean(column) for column in zip(*coords)]
        centers = [((x1 + x2) / 2, (y1 + y2) / 2) for x1, y1, x2, y2 in coords]
        cx, cy = (_mean(column) for column in zip(*centers))
        # sqrt(dx*dx + dy*dy), not math.hypot, rounds as the numpy norm the pinned digests came from
        is_static = len(boxes) == 1 or all(
            math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) <= STATIC_CENTER_RANGE_PX for x, y in centers
        )
        tracks.append(
            VideoObjectTrack(
                video_id=video_id,
                category=category,
                per_frame_boxes=dict(sorted(frames.items())),
                averaged_box=BBox(*avg),
                is_static=is_static,
            )
        )
    return tracks, tallies


# ---------------- corpus statistics ---------------- #


def corpus_keyword_stats(
    conversations: Iterable[str], phrases: Sequence[str]
) -> dict[str, tuple[int, float]]:
    """Per-phrase conversation counts: case-insensitive substring membership.

    A conversation counts once per phrase no matter how often the phrase
    repeats inside it. Fractions are of the total conversation count.
    """
    if not phrases:
        raise ValueError("phrases must be non-empty")
    lowered_phrases = [(p, p.lower()) for p in phrases]
    counts = Counter()
    total = 0
    for text in conversations:
        total += 1
        lowered = text.lower()
        for phrase, needle in lowered_phrases:
            if needle in lowered:
                counts[phrase] += 1
    return {phrase: (counts[phrase], counts[phrase] / total if total else 0.0) for phrase, _ in lowered_phrases}
