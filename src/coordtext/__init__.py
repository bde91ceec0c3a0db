"""Textual-coordinate dataset construction and evaluation toolkit for visual LLMs.

Importing the package registers its nine layers in ``sys.modules`` and as
attributes of the package, but runs none of them: each runs on first
attribute access (``importlib.util.LazyLoader``). So a command runs only the
layers it calls: ``coordtext verify`` never runs the builders. The
public names below resolve through ``__getattr__`` (PEP 562), which runs the
owning layer then.

Python 3.11's LazyLoader is not safe when two threads make a layer's first
access at once. So threads touch only layers that have run: the one place
that starts them, ``gateway.query_batch``, runs workers that call only
``gateway``, which has run by then, and the standard library. A transport
passed to it must keep to that: its ``send`` makes no layer's first access.
"""

import importlib.util
import sys


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


annotations = _register("annotations")
builders = _register("builders")
coords = _register("coords")
evals = _register("evals")
gateway = _register("gateway")
meteor = _register("meteor")
prompts = _register("prompts")
records = _register("records")
seeding = _register("seeding")

# Each public name by the layer that defines it.
_OWNERS = {
    "annotations": ("AnnotatedImage", "CaptionRecord", "MediaCategories", "ObjectAnn", "load_coco_annotations"),
    "builders": (
        "BuildReport",
        "ConversationSample",
        "HallucinationItem",
        "SpatialBenchItem",
        "VideoObjectTrack",
        "build_hallucination_set",
        "build_ift_dataset",
        "build_spatial_bench",
        "build_video_static_objects",
        "corpus_keyword_stats",
        "discover_negative_categories",
        "ingest_pseudo_captions",
    ),
    "coords": (
        "BBox",
        "CodecError",
        "ImageDims",
        "LocationText",
        "PointLoc",
        "ReprScheme",
        "TokenCost",
        "decode_bbox",
        "decode_point",
        "encode_bbox",
        "encode_point",
        "numeric_token_cost",
        "quantization_error_bound",
        "token_cost",
    ),
    "evals": (
        "EvalRecord",
        "MetricsReport",
        "aggregate_report",
        "score_hallucination",
        "score_keyword_vqa",
        "score_region_description",
        "score_spatial",
    ),
    "gateway": (
        "FileBatchTransport",
        "HttpTransport",
        "MockTransport",
        "ModelRequest",
        "ModelResponse",
        "SamplingConfig",
        "query_batch",
        "random_mock",
    ),
    "meteor": ("score_meteor",),
    "prompts": (
        "DEFAULT_TEMPLATES",
        "ParsedResponse",
        "RenderedPair",
        "TemplateSet",
        "parse_response",
        "render_caption_request",
        "render_hallucination_query",
        "render_locpred",
        "render_negpred",
        "render_revloc",
        "render_spatial_query",
    ),
}
_OWNER_OF = {name: owner for owner, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, from the layer that defines it; the layer runs now if it has not yet."""
    owner = _OWNER_OF.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)
