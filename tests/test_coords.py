"""Codec tests: golden vectors, rational-arithmetic oracles, round-trip bounds."""

import math
import random
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordtext.coords import (
    MAX_DECIMALS,
    BBox,
    CodecError,
    ImageDims,
    PointLoc,
    ReprScheme,
    decode_bbox,
    decode_point,
    encode_bbox,
    encode_point,
    split_coordinate_text,
)

DIMS_512 = ImageDims(512, 512)
GOLDEN_BOX = BBox(10, 120, 30, 145)
GOLDEN_POINT = PointLoc(20, 132.5)

SWEEP_DIMS = [ImageDims(224, 224), ImageDims(336, 336), ImageDims(512, 512), ImageDims(640, 480)]
SCHEMES = [ReprScheme.nfp(), ReprScheme.ivb(224), ReprScheme.diga(16), ReprScheme.diga(16, 21)]


# ---------------- independent oracles ---------------- #


def oracle_nfp(value, dim, decimals=4) -> str:
    """Decimal-module reference for normalize + round-half-up formatting."""
    d = (Decimal(str(value)) / Decimal(dim)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)
    return f"{d:.{decimals}f}"

def oracle_ivb(value, dim, n_bins=224) -> int:
    k = math.floor(Fraction(str(value)) * n_bins / dim)
    return min(k, n_bins - 1)

def oracle_anchor(p: PointLoc, dims: ImageDims, grid=16, patch=14) -> tuple[int, int]:
    """Brute-force argmin over every anchor center, ties to lowest (p, q)."""
    side = grid * patch
    x = Fraction(str(p.cx)) * side / dims.width
    y = Fraction(str(p.cy)) * side / dims.height
    ranked = sorted(
        ((x - (pi * patch + Fraction(patch, 2))) ** 2 + (y - (qi * patch + Fraction(patch, 2))) ** 2, pi, qi)
        for pi in range(grid)
        for qi in range(grid)
    )
    return (ranked[0][1], ranked[0][2])

def encoded_anchor(p: PointLoc, dims: ImageDims, scheme: ReprScheme) -> tuple[int, int]:
    """Grid indices (column, row) of the anchor that ``encode_point``'s diga text names."""
    column, row, _, _ = encode_point(p, dims, scheme).strip("()").split(", ")
    return (int(column), int(row))


def quantization_error_bound(scheme: ReprScheme, dims: ImageDims) -> tuple[float, float]:
    """Worst-case absolute round-trip error in pixels, per axis (x, y): the
    bound that the round-trip tests and acceptance criterion 3 hold each
    scheme to."""

    def per_dim(dim: int) -> float:
        if scheme.kind == "nfp":
            return 0.5 * 10**-scheme.decimals * dim
        if scheme.kind == "ivb":
            return dim / scheme.n_bins
        return 0.5 * dim / scheme.square_side

    return (per_dim(dims.width), per_dim(dims.height))


class TokenCost(NamedTuple):
    """Token count of a location string under the character-level numeric rule."""

    coordinates: int
    overhead: int

    @property
    def total(self) -> int:
        return self.coordinates + self.overhead


def numeric_token_cost(token: str) -> int:
    """Tokens needed for one numeric string: every digit, decimal point, and sign is one."""
    return sum(1 for ch in token if ch.isdigit() or ch in ".+-")


def coordinate_token_costs(text: str, scheme: ReprScheme, form: str) -> list[int]:
    """Per-coordinate token costs of a location string: the rule that the
    token-cost tests and acceptance criterion 2 hold each scheme to."""
    tokens = split_coordinate_text(text, scheme, form, lenient=True)
    return [numeric_token_cost(tok) for tok in tokens]


def token_cost(text: str, scheme: ReprScheme, form: str) -> TokenCost:
    """Token cost of a location string.

    Coordinate tokens follow the numeric rule; the enclosing parentheses and
    each comma separator count one token apiece and are reported as overhead.
    """
    costs = coordinate_token_costs(text, scheme, form)
    stripped = text.strip()
    parens = 2 if stripped.startswith("(") and stripped.endswith(")") else 0
    return TokenCost(coordinates=sum(costs), overhead=parens + stripped.count(","))


# ---------------- golden vectors ---------------- #


def test_golden_bbox_nfp():
    assert encode_bbox(GOLDEN_BOX, DIMS_512, ReprScheme.nfp()) == "(0.0195, 0.2344, 0.0586, 0.2832)"

def test_golden_bbox_ivb():
    assert encode_bbox(GOLDEN_BOX, DIMS_512, ReprScheme.ivb(224)) == "(4, 52, 13, 63)"

def test_golden_bbox_diga():
    assert encode_bbox(GOLDEN_BOX, DIMS_512, ReprScheme.diga(16)) == "(0, 4, 3, 11, 6, 0)"

def test_golden_point_forms():
    assert encode_point(GOLDEN_POINT, DIMS_512, ReprScheme.nfp()) == "(0.0391, 0.2588)"
    assert encode_point(GOLDEN_POINT, DIMS_512, ReprScheme.ivb(224)) == "(8, 57)"

def test_full_image_box_nfp():
    assert encode_bbox(BBox(0, 0, 512, 512), DIMS_512, ReprScheme.nfp()) == "(0.0000, 0.0000, 1.0000, 1.0000)"

def test_midpoint_nfp():
    assert encode_point(PointLoc(256, 256), DIMS_512, ReprScheme.nfp()) == "(0.5000, 0.5000)"

def test_point_nfp_matches_decimal_oracle():
    assert oracle_nfp(20, 512) == "0.0391"
    assert oracle_nfp(132.5, 512) == "0.2588"

def test_point_ivb_matches_rational_oracle():
    assert oracle_ivb(20, 512) == 8
    assert oracle_ivb(132.5, 512) == 57


# ---------------- anchors ---------------- #


def test_golden_anchor():
    assert encoded_anchor(GOLDEN_POINT, DIMS_512, ReprScheme.diga(16)) == (0, 4)

def test_anchor_exact_center():
    assert encoded_anchor(PointLoc(7, 63), ImageDims(224, 224), ReprScheme.diga(16)) == (0, 4)

def test_anchor_four_way_tie():
    # (14, 14) is equidistant to four anchors; the brute-force oracle agrees
    p = PointLoc(14, 14)
    d = ImageDims(224, 224)
    assert encoded_anchor(p, d, ReprScheme.diga(16)) == (0, 0)
    assert oracle_anchor(p, d) == (0, 0)

def test_anchor_matches_bruteforce_randomized():
    rng = random.Random(11)
    scheme = ReprScheme.diga(16)
    for _ in range(400):
        dims = rng.choice(SWEEP_DIMS)
        p = PointLoc(rng.uniform(0, dims.width), rng.uniform(0, dims.height))
        assert encoded_anchor(p, dims, scheme) == oracle_anchor(p, dims)

def test_anchor_matches_bruteforce_on_manufactured_ties():
    scheme = ReprScheme.diga(16)
    d = ImageDims(224, 224)
    for k in range(1, 16):
        for p in (PointLoc(14 * k, 7), PointLoc(7, 14 * k), PointLoc(14 * k, 14 * k)):
            assert encoded_anchor(p, d, scheme) == oracle_anchor(p, d)

def test_anchor_grid24():
    scheme = ReprScheme.diga(24)
    d = ImageDims(336, 336)
    assert scheme.square_side == 336
    for p in (PointLoc(7, 7), PointLoc(335, 335), PointLoc(168, 168)):
        assert encoded_anchor(p, d, scheme) == oracle_anchor(p, d, grid=24)

# ---------------- decode ---------------- #


def test_decode_midpoint_nfp():
    assert decode_point("(0.5000, 0.5000)", ReprScheme.nfp(), DIMS_512).as_tuple() == (256.0, 256.0)

def test_decode_ivb_bin_centers():
    got = decode_bbox("(4, 52, 13, 63)", ReprScheme.ivb(224), DIMS_512)
    expected = [float((k + Fraction(1, 2)) * 512 / 224) for k in (4, 52, 13, 63)]
    assert list(got.as_tuple()) == expected
    bx, _ = quantization_error_bound(ReprScheme.ivb(224), DIMS_512)
    for orig, dec in zip(GOLDEN_BOX.as_tuple(), got.as_tuple()):
        assert abs(orig - dec) <= bx

def test_decode_diga_within_bound():
    got = decode_bbox("(0, 4, 3, 11, 6, 0)", ReprScheme.diga(16), DIMS_512)
    bx, _ = quantization_error_bound(ReprScheme.diga(16), DIMS_512)
    for orig, dec in zip(GOLDEN_BOX.as_tuple(), got.as_tuple()):
        assert abs(orig - dec) <= bx + 1e-9

def test_decode_rejects_wrong_arity():
    with pytest.raises(CodecError, match="expected 4"):
        decode_bbox("(4, 52, 13)", ReprScheme.ivb(224), DIMS_512)

def test_decode_rejects_bin_overflow():
    with pytest.raises(CodecError, match="224"):
        decode_point("(4, 224)", ReprScheme.ivb(224), DIMS_512)

def test_decode_rejects_bad_anchor():
    with pytest.raises(CodecError, match="anchor column index 16"):
        decode_point("(16, 4, 0, 0)", ReprScheme.diga(16), DIMS_512)

def test_decode_rejects_non_numeric():
    with pytest.raises(CodecError, match="cat"):
        decode_point("(4, cat)", ReprScheme.ivb(224), DIMS_512)


def test_decode_reports_degenerate_box():
    with pytest.raises(CodecError, match="degenerate decode"):
        decode_bbox("(0.6000, 0.1000, 0.2000, 0.4000)", ReprScheme.nfp(), DIMS_512)

def test_decode_nfp_rejects_above_one():
    with pytest.raises(CodecError, match="exceeds 1"):
        decode_point("(1.2000, 0.1000)", ReprScheme.nfp(), DIMS_512)

def test_lenient_decode_accepts_bare_tuples():
    with pytest.raises(CodecError, match="parentheses"):
        decode_point("4 ,52", ReprScheme.ivb(224), DIMS_512)
    got = decode_point("4 ,52", ReprScheme.ivb(224), DIMS_512, lenient=True)
    strict = decode_point("(4, 52)", ReprScheme.ivb(224), DIMS_512)
    assert got == strict


# integer strings beyond what int() converts or a float holds
HUGE_NUMBERS = ["9" * 400, "-" + "9" * 400, "1" * 5000]
any_scheme = st.one_of(
    st.builds(ReprScheme.nfp, st.integers(1, 6)),
    st.builds(ReprScheme.ivb, st.integers(2, 1000)),
    st.sampled_from([ReprScheme.diga(16), ReprScheme.diga(24)]),
)
any_dims = st.builds(ImageDims, st.integers(1, 8192), st.integers(1, 8192))
junk_token = st.one_of(
    st.sampled_from(["", "x", "1.5", "0.1234", " 7 ", "-0", "\u0663"]),
    st.text(max_size=6),
)


def number_token(scheme):
    """A token with the scheme's syntax, in range or not, huge integers included."""
    if scheme.kind == "nfp":
        return st.floats(0, 1.2).map(lambda f: f"{f:.{scheme.decimals}f}")
    return st.one_of(st.integers(0, 24).map(str), st.integers(-20, 400).map(str), st.sampled_from(HUGE_NUMBERS))


def coordinate_like(scheme, form):
    """Tuple-like text, often with as many tokens as the scheme and form need."""
    arity = (2 if form == "point" else 4) + (2 if scheme.kind == "diga" else 0)
    token = st.one_of(number_token(scheme), number_token(scheme), junk_token)
    tokens = st.one_of(st.lists(token, min_size=arity, max_size=arity), st.lists(token, max_size=7))
    return st.builds(
        lambda opening, values, sep, closing: opening + sep.join(values) + closing,
        st.sampled_from(["(", "", " ( ", "(("]), tokens,
        st.sampled_from([", ", ",", " , ", " ,\n"]), st.sampled_from([")", "", ") ", "))"]),
    )


def encoded_text(scheme, form):
    """Canonical text of a random location, with or without its parentheses."""

    def render(dims, fx, fy, fw, fh, bare):
        x, y = fx * dims.width, fy * dims.height
        if form == "point":
            text = encode_point(PointLoc(x, y), dims, scheme)
        else:
            box = BBox(x, y, min(dims.width, x + fw * dims.width), min(dims.height, y + fh * dims.height))
            text = encode_bbox(box, dims, scheme)
        return text[1:-1] if bare else text

    unit = st.floats(0, 1)
    return st.builds(render, any_dims, unit, unit, unit, unit, st.booleans())


@given(st.data(), any_scheme, st.sampled_from(["point", "bbox"]), any_dims)
@settings(max_examples=400, deadline=None)
def test_lenient_decode_returns_location_or_codec_error(data, scheme, form, dims):
    text = data.draw(st.one_of(st.text(max_size=40), coordinate_like(scheme, form), encoded_text(scheme, form)))
    decode, kind = (decode_point, PointLoc) if form == "point" else (decode_bbox, BBox)
    try:
        loc = decode(text, scheme, dims, lenient=True)
    except CodecError:
        return
    assert isinstance(loc, kind)


@pytest.mark.parametrize(
    "scheme, text",
    [
        (ReprScheme.ivb(224), "(" + "1" * 5000 + ", 2)"),
        (ReprScheme.diga(16), "(0, 0, " + "9" * 400 + ", 0)"),
        (ReprScheme.diga(16), "(0, 0, -" + "9" * 400 + ", 0)"),
    ],
    ids=["ivb 5000 digits", "diga deviation 1e400", "diga deviation -1e400"],
)
def test_decode_rejects_unconvertible_numbers(scheme, text):
    with pytest.raises(CodecError, match="too long|too large"):
        decode_point(text, scheme, DIMS_512)


# ---------------- invariants ---------------- #


def _random_location(rng, dims):
    if rng.random() < 0.5:
        return PointLoc(rng.uniform(0, dims.width), rng.uniform(0, dims.height))
    x1, x2 = sorted(rng.uniform(0, dims.width) for _ in range(2))
    y1, y2 = sorted(rng.uniform(0, dims.height) for _ in range(2))
    return BBox(x1, y1, x2, y2)

def _roundtrip_error(loc, dims, scheme):
    if isinstance(loc, PointLoc):
        dec = decode_point(encode_point(loc, dims, scheme), scheme, dims)
    else:
        dec = decode_bbox(encode_bbox(loc, dims, scheme), scheme, dims)
    return [
        (abs(o - d), axis)
        for axis, (o, d) in enumerate(zip(loc.as_tuple(), dec.as_tuple()))
    ]

def test_roundtrip_error_within_bound():
    rng = random.Random(3)
    for _ in range(1500):
        dims = rng.choice(SWEEP_DIMS)
        loc = _random_location(rng, dims)
        for scheme in SCHEMES:
            bound = quantization_error_bound(scheme, dims)
            for err, axis in _roundtrip_error(loc, dims, scheme):
                assert err <= bound[axis % 2] + 1e-9

def test_edge_touching_boxes_roundtrip():
    for dims in SWEEP_DIMS:
        full = BBox(0, 0, dims.width, dims.height)
        for scheme in SCHEMES:
            bound = quantization_error_bound(scheme, dims)
            for err, axis in _roundtrip_error(full, dims, scheme):
                assert err <= bound[axis % 2] + 1e-9

def test_encode_deterministic():
    a = encode_bbox(GOLDEN_BOX, DIMS_512, ReprScheme.diga(16))
    b = encode_bbox(BBox(10, 120, 30, 145), ImageDims(512, 512), ReprScheme.diga(16))
    assert a == b


# ---------------- preconditions ---------------- #


def test_bbox_invariants():
    with pytest.raises(CodecError, match="x1 > x2"):
        BBox(30, 120, 10, 145)
    with pytest.raises(CodecError, match="y1 > y2"):
        BBox(10, 145, 30, 120)
    with pytest.raises(CodecError, match="negative"):
        BBox(-1, 0, 10, 10)

def test_encode_rejects_out_of_image():
    with pytest.raises(CodecError, match="exceeds image"):
        encode_bbox(BBox(0, 0, 600, 10), DIMS_512, ReprScheme.nfp())
    with pytest.raises(CodecError, match="exceeds image"):
        encode_point(PointLoc(513, 0), DIMS_512, ReprScheme.ivb(224))

def test_dims_must_be_positive():
    with pytest.raises(CodecError):
        ImageDims(0, 10)

def test_scheme_validation():
    with pytest.raises(CodecError):
        ReprScheme(kind="nfp", decimals=0)
    with pytest.raises(CodecError):
        ReprScheme(kind="ivb", n_bins=1)
    with pytest.raises(CodecError):
        ReprScheme(kind="diga", grid=10, patch=10)

def test_most_decimals_round_trip_at_the_lowest_int_text_limit():
    """MAX_DECIMALS decimals encode and decode even when Python's int/str
    conversion limit is set as low as it goes."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    try:
        scheme = ReprScheme.nfp(MAX_DECIMALS)
        for dims in SWEEP_DIMS:
            box = BBox(1, 2, dims.width / 3, dims.height - 0.5)
            decoded = decode_bbox(encode_bbox(box, dims, scheme), scheme, dims)
            assert all(abs(a - b) <= 1e-9 for a, b in zip(decoded, box))
    finally:
        sys.set_int_max_str_digits(limit)


def test_scheme_dict_roundtrip():
    for scheme in (ReprScheme.nfp(6), ReprScheme.ivb(336), ReprScheme.diga(24)):
        assert ReprScheme(**scheme.to_dict()) == scheme


# ---------------- token costs ---------------- #


def test_numeric_token_cost_rule():
    assert numeric_token_cost("12.34") == 5
    assert numeric_token_cost("0.0195") == 6
    assert numeric_token_cost("52") == 2
    assert numeric_token_cost("-5") == 2

def test_token_cost_split():
    nfp = token_cost(encode_bbox(GOLDEN_BOX, DIMS_512, ReprScheme.nfp()), ReprScheme.nfp(), "bbox")
    assert nfp.coordinates == 24 and nfp.overhead == 5 and nfp.total == 29
    ivb = token_cost(encode_point(GOLDEN_POINT, DIMS_512, ReprScheme.ivb(224)), ReprScheme.ivb(224), "point")
    assert ivb.coordinates == 3 and ivb.overhead == 3

def test_token_cost_bounds_randomized():
    rng = random.Random(5)
    for _ in range(800):
        dims = rng.choice(SWEEP_DIMS)
        loc = _random_location(rng, dims)
        enc, form = (encode_bbox, "bbox") if isinstance(loc, BBox) else (encode_point, "point")
        for cost in coordinate_token_costs(enc(loc, dims, ReprScheme.nfp()), ReprScheme.nfp(), form):
            assert cost <= 2 + 4
        for cost in coordinate_token_costs(enc(loc, dims, ReprScheme.ivb(224)), ReprScheme.ivb(224), form):
            assert cost <= 3

def test_error_bound_values():
    assert quantization_error_bound(ReprScheme.nfp(), DIMS_512)[0] == pytest.approx(0.0256)
    assert quantization_error_bound(ReprScheme.ivb(224), DIMS_512)[0] == pytest.approx(512 / 224)
    assert quantization_error_bound(ReprScheme.diga(16), DIMS_512)[0] == pytest.approx(0.5 * 512 / 224)
    bx, by = quantization_error_bound(ReprScheme.ivb(224), ImageDims(640, 480))
    assert bx == pytest.approx(640 / 224) and by == pytest.approx(480 / 224)


# ---------------- reference encoders ---------------- #
# The encoders as they were before each coordinate's arithmetic was written
# out in encode_point and encode_bbox: one helper call per coordinate.


def _ref_ratio(value) -> tuple[int, int]:
    if isinstance(value, int):
        return value, 1
    return value.as_integer_ratio()


def _ref_round_half_up(num: int, den: int) -> int:
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def _ref_nfp_coord(value, dim: int, decimals: int) -> str:
    num, den = _ref_ratio(value)
    scale = 10**decimals
    scaled = _ref_round_half_up(num * scale, den * dim)
    whole, part = divmod(scaled, scale)
    return f"{whole}.{part:0{decimals}d}"


def _ref_ivb_coord(value, dim: int, n_bins: int) -> int:
    num, den = _ref_ratio(value)
    return min((num * n_bins) // (den * dim), n_bins - 1)


def _ref_axis_anchor(num: int, den: int, grid: int, patch: int) -> int:
    cell = num // (den * patch)
    if cell >= 1 and num == cell * den * patch:
        cell -= 1
    return min(max(cell, 0), grid - 1)


def _ref_deviation(num: int, den: int, anchor_idx: int, patch: int, from_anchor: bool) -> int:
    center_num = (2 * anchor_idx + 1) * patch * den
    diff = 2 * num - center_num if from_anchor else center_num - 2 * num
    return _ref_round_half_up(diff, 2 * den)


def _ref_format_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def reference_encode_point(p: PointLoc, dims: ImageDims, scheme: ReprScheme) -> str:
    p.validate_within(dims)
    if scheme.kind == "nfp":
        return _ref_format_tuple(
            [_ref_nfp_coord(p.cx, dims.width, scheme.decimals), _ref_nfp_coord(p.cy, dims.height, scheme.decimals)]
        )
    if scheme.kind == "ivb":
        return _ref_format_tuple(
            [_ref_ivb_coord(p.cx, dims.width, scheme.n_bins), _ref_ivb_coord(p.cy, dims.height, scheme.n_bins)]
        )
    side, grid, patch = scheme.square_side, scheme.grid, scheme.patch
    xn, xd = _ref_ratio(p.cx)
    yn, yd = _ref_ratio(p.cy)
    xn, xd = xn * side, xd * dims.width
    yn, yd = yn * side, yd * dims.height
    pi = _ref_axis_anchor(xn, xd, grid, patch)
    qi = _ref_axis_anchor(yn, yd, grid, patch)
    d1 = _ref_deviation(xn, xd, pi, patch, from_anchor=True)
    d2 = _ref_deviation(yn, yd, qi, patch, from_anchor=True)
    return _ref_format_tuple([pi, qi, d1, d2])


def reference_encode_bbox(b: BBox, dims: ImageDims, scheme: ReprScheme) -> str:
    b.validate_within(dims)
    if scheme.kind == "nfp":
        return _ref_format_tuple(
            [
                _ref_nfp_coord(b.x1, dims.width, scheme.decimals),
                _ref_nfp_coord(b.y1, dims.height, scheme.decimals),
                _ref_nfp_coord(b.x2, dims.width, scheme.decimals),
                _ref_nfp_coord(b.y2, dims.height, scheme.decimals),
            ]
        )
    if scheme.kind == "ivb":
        return _ref_format_tuple(
            [
                _ref_ivb_coord(b.x1, dims.width, scheme.n_bins),
                _ref_ivb_coord(b.y1, dims.height, scheme.n_bins),
                _ref_ivb_coord(b.x2, dims.width, scheme.n_bins),
                _ref_ivb_coord(b.y2, dims.height, scheme.n_bins),
            ]
        )
    side, grid, patch = scheme.square_side, scheme.grid, scheme.patch
    x1n, x1d = _ref_ratio(b.x1)
    y1n, y1d = _ref_ratio(b.y1)
    x2n, x2d = _ref_ratio(b.x2)
    y2n, y2d = _ref_ratio(b.y2)
    x1n, x1d = x1n * side, x1d * dims.width
    y1n, y1d = y1n * side, y1d * dims.height
    x2n, x2d = x2n * side, x2d * dims.width
    y2n, y2d = y2n * side, y2d * dims.height
    cxn, cxd = x1n * x2d + x2n * x1d, 2 * x1d * x2d
    cyn, cyd = y1n * y2d + y2n * y1d, 2 * y1d * y2d
    pi = _ref_axis_anchor(cxn, cxd, grid, patch)
    qi = _ref_axis_anchor(cyn, cyd, grid, patch)
    d1 = _ref_deviation(x1n, x1d, pi, patch, from_anchor=False)
    d2 = _ref_deviation(y1n, y1d, qi, patch, from_anchor=False)
    d3 = _ref_deviation(x2n, x2d, pi, patch, from_anchor=True)
    d4 = _ref_deviation(y2n, y2d, qi, patch, from_anchor=True)
    return _ref_format_tuple([pi, qi, d1, d2, d3, d4])


every_scheme = st.one_of(
    st.builds(ReprScheme.nfp, st.integers(1, 8)),
    st.builds(ReprScheme.ivb, st.integers(2, 1000)),
    st.sampled_from([ReprScheme.diga(16), ReprScheme.diga(24), ReprScheme.diga(16, 21), ReprScheme.diga(8, 28)]),
)


def ordinate(scheme, dim):
    """A coordinate in [0, dim]: any float or integer, or one on a bin, anchor, rounding or image edge."""
    steps = {"nfp": 2 * 10**scheme.decimals, "ivb": scheme.n_bins, "diga": 2 * scheme.square_side}[scheme.kind]
    on_edge = st.integers(0, steps).map(lambda k: k * dim / steps)
    exact_edge = st.integers(0, math.gcd(dim, steps)).map(lambda j: j * (dim // math.gcd(dim, steps)))
    edges = st.sampled_from([0, 0.0, dim, float(dim)])
    return st.one_of(st.floats(0, dim), st.integers(0, dim), on_edge, exact_edge, edges)


@given(st.data(), every_scheme, any_dims)
@settings(max_examples=600, deadline=None)
def test_encoders_match_reference(data, scheme, dims):
    x1, x2 = sorted(data.draw(ordinate(scheme, dims.width)) for _ in range(2))
    y1, y2 = sorted(data.draw(ordinate(scheme, dims.height)) for _ in range(2))
    box, point = BBox(x1, y1, x2, y2), PointLoc(x1, y2)
    assert encode_bbox(box, dims, scheme) == reference_encode_bbox(box, dims, scheme)
    assert encode_point(point, dims, scheme) == reference_encode_point(point, dims, scheme)
    assert encode_point(box.center(), dims, scheme) == reference_encode_point(box.center(), dims, scheme)
