"""Template fidelity goldens, seeded rendering, and response-parsing rules."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.coords import (
    BBox,
    ImageDims,
    LocationText,
    PointLoc,
    ReprScheme,
    decode_bbox,
    decode_point,
    encode_bbox,
    encode_point,
)
from coordtext.prompts import (
    DEFAULT_TEMPLATES,
    REPR_PLACEHOLDER,
    load_template_overrides,
    parse_response,
    render_caption_request,
    render_hallucination_query,
    render_locpred,
    render_negpred,
    render_revloc,
    render_spatial_query,
    spatial_icl_example,
)

IVB = ReprScheme.ivb(224)
BOX_TEXT = LocationText("(4, 52, 13, 63)", IVB, "bbox")
POINT_TEXT = LocationText("(8, 57)", IVB, "point")

# frozen copies of the expected template bytes; any drift in the embedded
# constants is a regression
GOLDEN_LOCATION_PROMPTS = (
    "Where is the object described {category} located in image in terms of {repr}?",
    "What is the location of object described {category} in terms of {repr}?",
    "Localize the object described {category} in terms of {repr}?",
    "Provide a {repr} for the the object described {category}?",
    "Generate a {repr} for the the object described {category}?",
)
GOLDEN_REVLOC_PROMPTS = (
    "Describe the object located at {loc}?",
    "Provide a caption for object at {loc}?",
    "What is at location {loc} in image?",
)


def test_template_golden_bytes():
    t = DEFAULT_TEMPLATES
    assert t.locpred_prompts == GOLDEN_LOCATION_PROMPTS
    assert t.revloc_prompts == GOLDEN_REVLOC_PROMPTS
    assert t.locpred_target == "It is located at {loc}"
    assert t.negpred_target == "There is no such object in the image"
    assert t.revloc_target == "There is a {category}."
    assert t.spatial_direct == "Which side of {obj1} is {obj2} located?"
    assert t.hallucination == "Is there {obj} in this {medium}?"
    assert t.caption_request == (
        "Describe the {category} in this image using one short sentence, "
        "referring to its visual features and spatial position relative to other objects in image."
    )


def test_locpred_render():
    pair = render_locpred("cat", "bbox", BOX_TEXT, seed=0)
    assert pair.prompt == "Where is the object described cat located in image in terms of (x1,y1,x2,y2) bbox?"
    assert pair.target == "It is located at (4, 52, 13, 63)"
    assert pair == render_locpred("cat", "bbox", BOX_TEXT, seed=0)


def test_point_placeholder():
    pair = render_locpred("cat", "point", POINT_TEXT, seed=2)
    assert "(cx,cy) point" in pair.prompt


def test_negpred_target_and_indistinguishability():
    for seed in range(25):
        neg = render_negpred("zebra", "bbox", seed)
        pos = render_locpred("zebra", "bbox", BOX_TEXT, seed)
        assert neg.prompt == pos.prompt
        assert neg.target == "There is no such object in the image"


def test_empty_descriptor_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        render_negpred("", "bbox", 0)
    with pytest.raises(ValueError, match="non-empty"):
        render_locpred("", "bbox", BOX_TEXT, 0)
    with pytest.raises(ValueError, match="non-empty"):
        render_revloc(POINT_TEXT, "", 1)
    with pytest.raises(ValueError, match="non-empty"):
        render_caption_request("")
    with pytest.raises(ValueError, match="non-empty"):
        render_hallucination_query("", "image")


def test_revloc_render():
    pair = render_revloc(POINT_TEXT, "black cat on a sofa", seed=1)
    assert pair.prompt == "Provide a caption for object at (8, 57)?"
    assert pair.target == "There is a black cat on a sofa."


def _location_prompts(category: str, form: str) -> list[str]:
    return [p.format(category=category, repr=REPR_PLACEHOLDER[form]) for p in DEFAULT_TEMPLATES.locpred_prompts]


def test_small_seed_bijection():
    # seeds 0..2 reach each revloc template exactly once, 0..4 each location template
    revloc = [p.format(loc=POINT_TEXT.text) for p in DEFAULT_TEMPLATES.revloc_prompts]
    assert sorted(render_revloc(POINT_TEXT, "cat", s).prompt for s in range(3)) == sorted(revloc)
    located = sorted(render_locpred("cat", "bbox", BOX_TEXT, s).prompt for s in range(5))
    assert located == sorted(_location_prompts("cat", "bbox")) and len(set(located)) == 5


def test_template_selection_uniform_over_seed_sweep():
    counts = Counter(render_locpred("cat", "bbox", BOX_TEXT, s).prompt for s in range(5000))
    for prompt in _location_prompts("cat", "bbox"):
        assert abs(counts[prompt] - 1000) <= 150


def test_spatial_direct():
    assert render_spatial_query("dog", "table") == "Which side of dog is table located?"


def test_spatial_icl_layout():
    ex1 = spatial_icl_example("dog", "table", "left")
    ex2 = spatial_icl_example("table", "dog", "right")
    assert ex1 == (
        "Which side of dog is table located?",
        "The dog is located to the left of table.",
    )
    prompt = render_spatial_query("lamp", "dog", icl=(ex1, ex2))
    assert prompt.count("Q:") == 3
    assert prompt.count("A:") == 2
    assert prompt.endswith("Q: Which side of lamp is dog located?")


def test_hallucination_query():
    assert render_hallucination_query("a giraffe", "image") == "Is there a giraffe in this image?"
    assert render_hallucination_query("a piano", "video") == "Is there a piano in this video?"


def test_caption_request():
    assert render_caption_request("dog") == (
        "Describe the dog in this image using one short sentence, "
        "referring to its visual features and spatial position relative to other objects in image."
    )


def test_caption_request_preserves_surroundings():
    # splicing in the category must not disturb any other template byte
    rendered = render_caption_request("dog")
    head, tail = DEFAULT_TEMPLATES.caption_request.split("{category}")
    assert rendered == head + "dog" + tail


# ---------------- parsing ---------------- #


def test_parse_yes_no():
    assert parse_response("Yes") == "yes"
    assert parse_response("No, I cannot see one.") == "no"
    # "no" inside a word must not count
    assert parse_response("A normal canoe.") is None
    assert parse_response("yes and no") is None


def test_parse_free_text_fallback():
    """An answer with neither yes nor no as a whole word has no presence answer."""
    for raw in ("I am not sure.", "The dog is located to the left of the table.", "Left of the cat, right of the car."):
        assert parse_response(raw) is None


@pytest.mark.parametrize(
    "raw, answer",
    [
        ("It is located at (4, 52, 13, 63).", None),
        ("coords: 4, 52", None),
        (DEFAULT_TEMPLATES.negpred_target, "no"),
        ("the thing is not present here", None),
        ("Yes, at (4, 52, 13, 63).", "yes"),
        ("NO. Box (1, 2)", "no"),
    ],
    ids=["location", "bare tuple", "negpred target", "not", "yes with a location", "no with a tuple"],
)
def test_parse_response_reads_only_the_presence_words(raw, answer):
    """A location in an answer is no presence answer, and a denial counts as
    "no" only where "no" is a word of it."""
    assert parse_response(raw) == answer


@given(st.text(max_size=200) | st.lists(st.sampled_from(["yes", "No", "noyes", ", ", " ", "YES.", "x"])).map("".join))
@settings(max_examples=600, deadline=None)
def test_parse_response_total(raw):
    assert parse_response(raw) in ("yes", "no", None)


@pytest.mark.parametrize("scheme", [ReprScheme.nfp(), ReprScheme.ivb(224), ReprScheme.diga(16)], ids=["nfp", "ivb", "diga"])
def test_locpred_target_holds_a_location_text_that_decodes(scheme):
    """A locpred target is its template around the encoded text, so the text
    cut out of the target decodes to what the location itself decodes to."""
    dims = ImageDims(512, 512)
    prefix, suffix = DEFAULT_TEMPLATES.locpred_target.split("{loc}")
    for loc, decode in (
        (encode_bbox(BBox(10, 120, 30, 145), dims, scheme), decode_bbox),
        (encode_point(PointLoc(20, 132.5), dims, scheme), decode_point),
    ):
        target = render_locpred("cat", loc.form, loc, seed=3).target
        assert target.startswith(prefix) and target.endswith(suffix)
        text = target[len(prefix): len(target) - len(suffix)]
        assert decode(LocationText(text, scheme, loc.form), dims) == decode(loc, dims)


# ---------------- overrides ---------------- #


def test_load_template_overrides(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_text(
        "[locpred_prompts]\n"
        "Find {category} as {repr}?\n"
        "Spot {category} as {repr}?\n"
        "[revloc_target]\n"
        "Here is a {category}.\n",
        encoding="utf-8",
    )
    t = load_template_overrides(path)
    assert t.locpred_prompts == ("Find {category} as {repr}?", "Spot {category} as {repr}?")
    assert t.revloc_target == "Here is a {category}."
    assert t.locpred_target == "It is located at {loc}"
    pair = render_locpred("cat", "bbox", BOX_TEXT, seed=1, templates=t)
    assert pair.prompt == "Spot cat as (x1,y1,x2,y2) bbox?"
    negative = render_negpred("cat", "bbox", seed=1, templates=t)
    assert negative.prompt == pair.prompt


def test_load_template_overrides_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[mystery]\nfoo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown template section"):
        load_template_overrides(path)
