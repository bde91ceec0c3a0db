"""Textual-coordinate dataset construction and evaluation toolkit for visual LLMs."""

from .annotations import AnnotatedImage, CaptionRecord, MediaCategories, ObjectAnn, load_coco_annotations
from .builders import (
    BuildReport,
    ConversationSample,
    HallucinationItem,
    SpatialBenchItem,
    VideoObjectTrack,
    build_hallucination_set,
    build_ift_dataset,
    build_spatial_bench,
    build_video_static_objects,
    corpus_keyword_stats,
    discover_negative_categories,
    ingest_pseudo_captions,
)
from .coords import (
    BBox,
    CodecError,
    ImageDims,
    LocationText,
    PointLoc,
    ReprScheme,
    TokenCost,
    decode_bbox,
    decode_point,
    encode_bbox,
    encode_point,
    nearest_anchor,
    numeric_token_cost,
    quantization_error_bound,
    token_cost,
)
from .evals import (
    EvalRecord,
    MetricsReport,
    aggregate_report,
    score_hallucination,
    score_keyword_vqa,
    score_region_description,
    score_spatial,
)
from .gateway import (
    FileBatchTransport,
    HttpTransport,
    MockTransport,
    ModelRequest,
    ModelResponse,
    SamplingConfig,
    query_batch,
    random_mock,
)
from .meteor import score_meteor
from .prompts import (
    DEFAULT_TEMPLATES,
    ParsedResponse,
    RenderedPair,
    TemplateSet,
    parse_response,
    render_caption_request,
    render_hallucination_query,
    render_locpred,
    render_negpred,
    render_revloc,
    render_spatial_query,
)

__version__ = "0.1.0"
