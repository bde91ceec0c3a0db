"""Template fidelity goldens, seeded rendering, and response-parsing rules."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.coords import BBox, ImageDims, LocationText, PointLoc, ReprScheme, decode_bbox, encode_bbox, encode_point
from coordtext.prompts import (
    DEFAULT_TEMPLATES,
    HALLUCINATION,
    LOCPRED,
    NEGPRED,
    REVLOC,
    SPATIAL_DIRECT,
    extract_location,
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
    assert pair.template_index == 0
    assert pair == render_locpred("cat", "bbox", BOX_TEXT, seed=0)


def test_point_placeholder():
    pair = render_locpred("cat", "point", POINT_TEXT, seed=2)
    assert "(cx,cy) point" in pair.prompt


def test_locpred_form_mismatch():
    with pytest.raises(ValueError, match="form"):
        render_locpred("cat", "point", BOX_TEXT, seed=0)


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


def test_small_seed_bijection():
    # seeds 0..2 reach each revloc template exactly once, 0..4 each location template
    assert sorted(render_revloc(POINT_TEXT, "cat", s).template_index for s in range(3)) == [0, 1, 2]
    assert sorted(render_locpred("cat", "bbox", BOX_TEXT, s).template_index for s in range(5)) == list(range(5))


def test_template_selection_uniform_over_seed_sweep():
    counts = Counter(render_locpred("cat", "bbox", BOX_TEXT, s).template_index for s in range(5000))
    for idx in range(5):
        assert abs(counts[idx] - 1000) <= 150


def test_spatial_direct():
    assert render_spatial_query("dog", "table", "lr") == "Which side of dog is table located?"
    assert render_spatial_query("dog", "table", "ab") == "Which side of dog is table located?"


def test_spatial_identical_objects_rejected():
    with pytest.raises(ValueError, match="distinct"):
        render_spatial_query("dog", "dog", "lr")


def test_spatial_icl_layout():
    ex1 = spatial_icl_example("dog", "table", "left")
    ex2 = spatial_icl_example("table", "dog", "right")
    assert ex1 == (
        "Which side of dog is table located?",
        "The dog is located to the left of table.",
    )
    prompt = render_spatial_query("lamp", "dog", "lr", icl=(ex1, ex2))
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


def test_parse_canonical_location_roundtrip():
    parsed = parse_response("It is located at (4, 52, 13, 63).", LOCPRED, IVB, "bbox")
    assert parsed.kind == "location"
    assert parsed.location.text == "(4, 52, 13, 63)"
    decode_bbox(parsed.location, ImageDims(512, 512))


def test_parse_location_skips_wrong_arity():
    parsed = parse_response("Box (1, 2) no wait (4, 52, 13, 63)!", LOCPRED, IVB, "bbox")
    assert parsed.kind == "location"
    assert parsed.location.text == "(4, 52, 13, 63)"


def test_parse_bare_tuple():
    parsed = parse_response("coords: 4, 52", LOCPRED, IVB, "point")
    assert parsed.kind == "location"
    assert parsed.location.text == "(4, 52)"


def test_parse_negation():
    parsed = parse_response("There is no such object in the image", NEGPRED, IVB, "bbox")
    assert parsed.kind == "negative"
    assert parse_response("the thing is not present here", LOCPRED, IVB, "bbox").kind == "negative"


def test_parse_yes_no():
    assert parse_response("Yes", HALLUCINATION).polarity == "yes"
    assert parse_response("No, I cannot see one.", HALLUCINATION).polarity == "no"
    # "no" inside a word must not count
    assert parse_response("A normal canoe.", HALLUCINATION).kind == "free_text"
    assert parse_response("yes and no", HALLUCINATION).kind == "free_text"


def test_parse_free_text_fallback():
    """A side answer is free text to the parser: score_spatial judges it on its own."""
    for raw in ("I am not sure.", "The dog is located to the left of the table.", "Left of the cat, right of the car."):
        parsed = parse_response(raw, SPATIAL_DIRECT)
        assert parsed == ("free_text", raw, None, None)


SCHEMES = (ReprScheme.nfp(), IVB, ReprScheme.diga(16))
# coordinate-like tokens of every scheme, in and out of range, and junk
coordinate_tokens = st.one_of(
    st.integers(-5, 300).map(str),
    st.floats(0, 1.2).map(lambda f: f"{f:.3f}"),
    st.sampled_from(["", "x", "1.5", "0.1234", " 7 "]),
)
coordinate_like = st.builds(
    lambda before, tokens, sep, parens, after: before + ("({})" if parens else "{}").format(sep.join(tokens)) + after,
    st.text(max_size=20), st.lists(coordinate_tokens, min_size=1, max_size=7), st.sampled_from([", ", ",", " , "]),
    st.booleans(), st.text(max_size=20),
)


def located_text(scheme, form):
    """Text around a well-formed location of ``scheme`` and ``form`` on a 512x512 image."""
    dims = ImageDims(512, 512)

    def render(before, x, y, w, h, after):
        if form == "point":
            loc = encode_point(PointLoc(x, y), dims, scheme)
        else:
            loc = encode_bbox(BBox(x, y, x + w, y + h), dims, scheme)
        return before + loc.text + after

    corner, extent = st.integers(0, 255), st.integers(1, 256)
    return st.builds(render, st.text(max_size=20), corner, corner, extent, extent, st.text(max_size=20))


@given(
    st.data(),
    st.sampled_from([LOCPRED, NEGPRED, SPATIAL_DIRECT, HALLUCINATION, REVLOC]),
    st.sampled_from(SCHEMES),
    st.sampled_from(["point", "bbox"]),
)
@settings(max_examples=600, deadline=None)
def test_parse_response_total(data, expect, scheme, form):
    raw = data.draw(st.text(max_size=200) | coordinate_like | located_text(scheme, form), label="raw")
    parsed = parse_response(raw, expect, scheme, form)
    assert parsed.raw == raw
    assert parsed.kind in ("location", "negative", "yes_no", "free_text")
    if parsed.kind == "location":
        assert (parsed.location.scheme, parsed.location.form) == (scheme, form)
        assert extract_location(parsed.location.text, scheme, form) == parsed.location


def test_extract_location_rejects_out_of_range_bins():
    assert extract_location("at (999, 999)", IVB, "point") is None


def test_parse_response_rejects_diga_deviation_outside_square():
    parsed = parse_response("It is at (0, 0, 99999, 0)", LOCPRED, ReprScheme.diga(16), "point")
    assert parsed.kind != "location"


@pytest.mark.parametrize(
    "scheme, huge, valid",
    [(IVB, "(" + "1" * 5000 + ", 2)", "(4, 5)"), (ReprScheme.diga(16), "(0, 0, " + "9" * 400 + ", 0)", "(4, 5, 1, 2)")],
    ids=["5000-digit bin", "1e400 deviation"],
)
def test_parse_response_skips_unconvertible_tuple(scheme, huge, valid):
    """A tuple whose numbers int() or a float cannot hold is skipped like any invalid one."""
    parsed = parse_response(f"first {huge}, then {valid}", LOCPRED, scheme, "point")
    assert parsed.kind == "location" and parsed.location.text == valid


def test_render_parse_closed_loop():
    dims = ImageDims(512, 512)
    from coordtext.coords import BBox, decode_point, encode_bbox, encode_point, PointLoc

    for scheme in (ReprScheme.nfp(), ReprScheme.ivb(224), ReprScheme.diga(16)):
        box = encode_bbox(BBox(10, 120, 30, 145), dims, scheme)
        pair = render_locpred("cat", "bbox", box, seed=3)
        parsed = parse_response(pair.target, LOCPRED, scheme, "bbox")
        assert parsed.kind == "location" and parsed.location.text == box.text
        pt = encode_point(PointLoc(20, 132.5), dims, scheme)
        pair = render_locpred("cat", "point", pt, seed=3)
        parsed = parse_response(pair.target, LOCPRED, scheme, "point")
        assert parsed.kind == "location" and parsed.location.text == pt.text
        decode_point(parsed.location, dims)


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
    assert negative.prompt == pair.prompt and negative.template_index == pair.template_index == 1


def test_load_template_overrides_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[mystery]\nfoo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown template section"):
        load_template_overrides(path)
