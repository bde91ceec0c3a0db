"""The value-type contract: every record-like type of the package is an
immutable named tuple with its fields, defaults, equality, hash, repr and
argument checks."""

import importlib
import math
import re
from collections import Counter

import pytest

from coordtext.annotations import AnnotatedImage, CaptionRecord, CocoLoad, MediaCategories, ObjectAnn
from coordtext.builders import (
    BuildReport,
    ConversationSample,
    HallucinationItem,
    SpatialBenchItem,
    VideoObjectTrack,
)
from coordtext.coords import BBox, CodecError, ImageDims, PointLoc, ReprScheme
from coordtext.evals import EvalRecord, MetricsReport
from coordtext.gateway import ModelRequest, ModelResponse, SamplingConfig
from coordtext.prompts import (
    CAPTION_PROMPT,
    HALLUCINATION_QUESTION,
    LOCATION_PROMPTS,
    LOCPRED_TARGET,
    NEGPRED_TARGET,
    REVLOC_PROMPTS,
    REVLOC_TARGET,
    SPATIAL_ICL_ANSWER,
    SPATIAL_QUESTION,
    Objective,
    RenderedPair,
    TemplateSet,
)

BOX = BBox(1, 2, 3, 4)
DIMS = ImageDims(10, 10)
OBJ = ObjectAnn("o1", "cat", BOX)
TEMPLATE_FIELDS = {
    "locpred_prompts": LOCATION_PROMPTS,
    "revloc_prompts": REVLOC_PROMPTS,
    "locpred_target": LOCPRED_TARGET,
    "negpred_target": NEGPRED_TARGET,
    "revloc_target": REVLOC_TARGET,
    "spatial_direct": SPATIAL_QUESTION,
    "spatial_icl_answer": SPATIAL_ICL_ANSWER,
    "hallucination": HALLUCINATION_QUESTION,
    "caption_request": CAPTION_PROMPT,
}

# Every field of every type, in field order, with a value that passes its checks.
SAMPLES = [
    (ImageDims, {"width": 640, "height": 480}),
    (BBox, {"x1": 1, "y1": 2.5, "x2": 3, "y2": 4}),
    (PointLoc, {"cx": 1.5, "cy": 2}),
    (ReprScheme, {"kind": "diga", "decimals": 4, "n_bins": 224, "grid": 24, "patch": 14}),
    (ObjectAnn, {"instance_id": "o1", "category": "cat", "bbox": BOX}),
    (AnnotatedImage, {"image_id": "img", "dims": DIMS, "objects": (OBJ,), "captions": None}),
    (MediaCategories, {"media_id": "v1", "medium": "video", "categories": ("cat", "dog")}),
    (CocoLoad, {"images": [], "vocabulary": ["cat"], "skipped": Counter(invalid_bbox=1)}),
    (CaptionRecord, {"image_id": "img", "instance_id": "o1", "caption": "a cat"}),
    (BuildReport, {"input_count": 3, "emitted_count": 2, "exclusions": Counter(not_triplet=1)}),
    (
        ConversationSample,
        {
            "sample_id": "img:o1:locpred:0", "image_id": "img", "objective": "locpred", "prompt": "Where?",
            "target": "It is located at (1, 2, 3, 4)", "location": "(1, 2, 3, 4)", "descriptor": "cat", "form": "bbox",
            "seed": 5,
        },
    ),
    (
        SpatialBenchItem,
        {
            "item_id": "img:lr:direct:00", "image_id": "img", "axis": "lr", "obj_query": ("cat", BOX),
            "obj_ref": ("dog", BOX), "gt_keyword": "left", "icl_context": (("q", "a"), ("q2", "a2")), "seed": 7,
        },
    ),
    (HallucinationItem, {"item_id": "v1:hal:00", "media_id": "v1", "medium": "video", "obj": "cat", "gt": "yes", "seed": 3}),
    (
        VideoObjectTrack,
        {"video_id": "v1", "category": "cat", "per_frame_boxes": {0: BOX}, "averaged_box": BOX, "is_static": True},
    ),
    (TemplateSet, {**TEMPLATE_FIELDS, "caption_request": "Describe the {category}."}),
    (Objective, {"task": "spatial", "truth": "gt_keyword", "answers": "axis"}),
    (RenderedPair, {"prompt": "Where?", "target": "There"}),
    (ModelRequest, {"request_id": "r1", "media_ref": "img", "prompt": "Where?"}),
    (ModelResponse, {"request_id": "r1", "text": "", "status": "error", "error_detail": "refused"}),
    (SamplingConfig, {"temperature": 0.5, "max_new_tokens": 16}),
    (
        EvalRecord,
        {
            "item_id": "i1", "task": "hallucination", "gt": "yes", "response": "Yes.", "correct": True,
            "score": None, "missing": False, "prediction": "yes",
        },
    ),
    (
        MetricsReport,
        {
            "task": "spatial", "n": 2, "per_split": {"left": 1.0, "right": 0.0}, "missing": 1,
            "flags": {"mode": "strict"}, "accuracy": 0.5, "precision": None, "recall": None, "f1": None,
            "yes_ratio": None, "meteor_mean": None, "config_digest": "c" * 64, "dataset_digest": None,
        },
    ),
]

# Types holding a list, dict or Counter: equal, never hashable.
UNHASHABLE = {CocoLoad, BuildReport, VideoObjectTrack, MetricsReport}

MODULES = ("annotations", "builders", "coords", "evals", "gateway", "prompts")


def _samples():
    return [pytest.param(cls, fields, id=cls.__name__) for cls, fields in SAMPLES]


def test_every_value_type_is_covered():
    """SAMPLES holds every public tuple type the package defines, 22 in all."""
    defined = set()
    for name in MODULES:
        module = importlib.import_module(f"coordtext.{name}")
        defined.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
            and not obj.__name__.startswith("_")
        )
    assert defined == {cls for cls, _ in SAMPLES} and len(SAMPLES) == 22


@pytest.mark.parametrize("cls, fields", _samples())
def test_positional_and_keyword_construction_agree(cls, fields):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value and getattr(by_position, name) is value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, fields", _samples())
def test_equal_fields_give_equal_objects_with_the_same_hash(cls, fields):
    a, b = cls(**fields), cls(**{name: _copy(value) for name, value in fields.items()})
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    differing = 0
    for name, value in fields.items():
        try:
            other = cls(**{**fields, name: _different(value)})
        except (ValueError, AttributeError):  # the changed value fails a check: nothing to compare
            continue
        assert a != other, name
        differing += 1
    assert differing


@pytest.mark.parametrize("cls, fields", _samples())
def test_assigning_a_field_raises_attribute_error(cls, fields):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls, fields", _samples())
def test_repr_names_every_field_in_order(cls, fields):
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


def test_repr_text():
    assert repr(BBox(1, 2.5, 3, 4)) == "BBox(x1=1, y1=2.5, x2=3, y2=4)"
    assert repr(BuildReport(0, 0, Counter())) == "BuildReport(input_count=0, emitted_count=0, exclusions=Counter())"


DEFAULTS = [
    (ReprScheme, {"kind": "ivb"}, {"decimals": 4, "n_bins": 224, "grid": 16, "patch": 14}),
    (AnnotatedImage, {"image_id": "img", "dims": DIMS, "objects": ()}, {"captions": None}),
    (TemplateSet, {}, TEMPLATE_FIELDS),
    (ModelResponse, {"request_id": "r", "text": "Yes"}, {"status": "ok", "error_detail": None}),
    (
        EvalRecord,
        {"item_id": "i", "task": "region_description", "gt": "a cat", "response": "", "score": 0.0},
        {"correct": None, "missing": False, "prediction": None},
    ),
    (
        MetricsReport,
        {"task": "vqa", "n": 0, "per_split": {}, "missing": 0, "flags": {}},
        {
            "accuracy": None, "precision": None, "recall": None, "f1": None, "yes_ratio": None,
            "meteor_mean": None, "config_digest": None, "dataset_digest": None,
        },
    ),
]


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS, ids=[d[0].__name__ for d in DEFAULTS])
def test_defaults(cls, given, defaults):
    a, b = cls(**given), cls(**given)
    for name, value in defaults.items():
        assert getattr(a, name) == value and type(getattr(a, name)) is type(value)
        if isinstance(value, (dict, list, set)):  # a new one per instance, never shared
            assert getattr(a, name) is not getattr(b, name)


# (constructor, the exception it raises, its exact message); where two checks
# fail, the first in the type's check order wins
CHECKS = [
    (lambda: ImageDims(0, 5), CodecError, "image dims must be positive, got 0x5"),
    (lambda: ImageDims(5, -1), CodecError, "image dims must be positive, got 5x-1"),
    (lambda: BBox(-1, 0, 1, 1), CodecError, "negative coordinate in (-1, 0, 1, 1)"),
    (lambda: BBox(5, -1, 1, 0), CodecError, "negative coordinate in (5, -1, 1, 0)"),
    (lambda: BBox(3, 5, 1, 1), CodecError, "x1 > x2 in (3, 5, 1, 1)"),
    (lambda: BBox(0, 3, 1, 1), CodecError, "y1 > y2 in (0, 3, 1, 1)"),
    (lambda: PointLoc(-1, 2), CodecError, "negative coordinate in (-1, 2)"),
    (lambda: PointLoc(cx=2, cy=-0.5), CodecError, "negative coordinate in (2, -0.5)"),
    (lambda: ReprScheme.nfp(decimals=0), CodecError, "nfp needs at least 1 decimal place"),
    (lambda: ReprScheme.ivb(n_bins=1), CodecError, "ivb needs at least 2 bins"),
    (lambda: ReprScheme(**{"kind": "ivb", "n_bins": 0}), CodecError, "ivb needs at least 2 bins"),
    (lambda: ReprScheme.diga(grid=10), CodecError, "diga square side must be 224 or 336, got 140"),
    (lambda: ReprScheme.nfp(decimals=641), CodecError, "nfp takes at most 640 decimal places, got 641"),
    (lambda: ReprScheme.diga(-16, -14), CodecError, "diga grid and patch must be positive, got grid -16, patch -14"),
    (lambda: ReprScheme.diga(-1, -224), CodecError, "diga grid and patch must be positive, got grid -1, patch -224"),
    (lambda: ReprScheme.diga(16, 0), CodecError, "diga grid and patch must be positive, got grid 16, patch 0"),
    (lambda: SamplingConfig(temperature=0, max_new_tokens=0), ValueError, "temperature must be a finite number above 0, got 0"),
    (lambda: SamplingConfig(temperature=math.nan, max_new_tokens=128), ValueError, "temperature must be a finite number above 0, got nan"),
    (lambda: SamplingConfig(temperature=0.2, max_new_tokens=0), ValueError, "max_new_tokens must be positive"),
]


@pytest.mark.parametrize("make, error, message", CHECKS)
def test_argument_checks_raise_the_same_error(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error


def test_an_instance_is_a_tuple_of_its_fields():
    """The one behaviour named tuples add: iteration, and equality with a
    plain tuple of the same fields."""
    assert tuple(BBox(1, 2, 3, 4)) == (1, 2, 3, 4) == BBox(1, 2, 3, 4)
    x1, y1, x2, y2 = BBox(1, 2, 3, 4)
    assert (x1, y1, x2, y2) == BBox(1, 2, 3, 4).as_tuple()
    assert ImageDims(3, 4) == PointLoc(3, 4)


def _copy(value):
    """An equal value that is not the same object, where the type allows one."""
    if isinstance(value, (list, dict, set, Counter)):
        return type(value)(value)
    return value


def _different(value):
    """A value unequal to ``value``; a value type changes in its first field."""
    if value is None:
        return "x"
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if hasattr(value, "_fields"):
        return type(value)(_different(value[0]), *value[1:])
    if isinstance(value, Counter):
        return value + Counter(other=1)
    if isinstance(value, dict):
        return {**value, "other": 0}
    return type(value)([*value, "x"])
