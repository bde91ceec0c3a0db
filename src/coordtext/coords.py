"""Conversion between pixel-space locations and textual coordinate strings.

Three interchangeable representation schemes are supported:

* ``nfp`` -- normalized floating point: each coordinate is divided by the
  matching image dimension and printed with a fixed number of decimals.
* ``ivb`` -- integer-valued binning: each coordinate is mapped to one of
  ``n_bins`` uniform bins along its axis and printed as the bin index.
* ``diga`` -- deviation from grid anchors: the image is rescaled to a fixed
  square covered by a ``grid x grid`` lattice of anchor cells; the anchor
  nearest the object center is named by its (column, row) index and the
  remaining values are integer pixel deviations from that anchor center.

A location's text is a plain string: ``encode_point`` and ``encode_bbox``
return it, and ``decode_point`` and ``decode_bbox`` take it with its scheme.
Encoding quantizes, and decoding maps bins and anchors back to their
centers, so a round trip moves each coordinate by at most half a
quantization step. All quantization is done in exact rational arithmetic so
the emitted text never depends on platform float behaviour.
"""

import re
from typing import NamedTuple


class CodecError(ValueError):
    """Raised for invalid locations, schemes, or coordinate text."""


# Each value type is an immutable named tuple. A type with invariants
# subclasses its bare field tuple, and its ``__new__`` checks the arguments
# before it builds the tuple; ``_replace`` and ``_make`` skip the checks.


class _ImageDims(NamedTuple):
    width: int
    height: int


class ImageDims(_ImageDims):
    """Pixel dimensions of a source image."""

    __slots__ = ()

    def __new__(cls, width: int, height: int):
        if width <= 0 or height <= 0:
            raise CodecError(f"image dims must be positive, got {width}x{height}")
        return tuple.__new__(cls, (width, height))


class _BBox(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class BBox(_BBox):
    """Axis-aligned box in absolute pixels, (x1, y1) top-left, (x2, y2) bottom-right."""

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float):
        if min(x1, y1, x2, y2) < 0:
            raise CodecError(f"negative coordinate in {(x1, y1, x2, y2)}")
        if x1 > x2:
            raise CodecError(f"x1 > x2 in {(x1, y1, x2, y2)}")
        if y1 > y2:
            raise CodecError(f"y1 > y2 in {(x1, y1, x2, y2)}")
        return tuple.__new__(cls, (x1, y1, x2, y2))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def center(self) -> "PointLoc":
        return PointLoc((self.x1 + self.x2) / 2, (self.y1 + self.y2) / 2)

    def validate_within(self, dims: ImageDims) -> None:
        if self.x2 > dims.width or self.y2 > dims.height:
            raise CodecError(f"box {self.as_tuple()} exceeds image {dims.width}x{dims.height}")


class _PointLoc(NamedTuple):
    cx: float
    cy: float


class PointLoc(_PointLoc):
    """A single location in absolute pixels, usually an object center."""

    __slots__ = ()

    def __new__(cls, cx: float, cy: float):
        if cx < 0 or cy < 0:
            raise CodecError(f"negative coordinate in ({cx}, {cy})")
        return tuple.__new__(cls, (cx, cy))

    def as_tuple(self) -> tuple[float, float]:
        return (self.cx, self.cy)

    def validate_within(self, dims: ImageDims) -> None:
        if self.cx > dims.width or self.cy > dims.height:
            raise CodecError(f"point ({self.cx}, {self.cy}) exceeds image {dims.width}x{dims.height}")


# most nfp decimals: the lowest that Python's int/str conversion limit can be
# set to (sys.int_info.str_digits_check_threshold), so any setting admits them
MAX_DECIMALS = 640


class _ReprScheme(NamedTuple):
    kind: str  # "nfp" | "ivb" | "diga", the choices of --scheme
    decimals: int
    n_bins: int
    grid: int
    patch: int


class ReprScheme(_ReprScheme):
    """Parameters of one textual coordinate representation.

    Only the fields matching ``kind`` are meaningful: ``decimals`` (1 to
    ``MAX_DECIMALS``) for nfp, ``n_bins`` for ivb, positive ``grid``/``patch``
    for diga, whose square side ``grid * patch`` must be 224 or 336.
    """

    __slots__ = ()

    def __new__(cls, kind: str, decimals: int = 4, n_bins: int = 224, grid: int = 16, patch: int = 14):
        if kind == "nfp" and decimals < 1:
            raise CodecError("nfp needs at least 1 decimal place")
        if kind == "nfp" and decimals > MAX_DECIMALS:
            raise CodecError(f"nfp takes at most {MAX_DECIMALS} decimal places, got {decimals}")
        if kind == "ivb" and n_bins < 2:
            raise CodecError("ivb needs at least 2 bins")
        if kind == "diga" and (grid < 1 or patch < 1):
            raise CodecError(f"diga grid and patch must be positive, got grid {grid}, patch {patch}")
        if kind == "diga" and grid * patch not in (224, 336):
            raise CodecError(f"diga square side must be 224 or 336, got {grid * patch}")
        return tuple.__new__(cls, (kind, decimals, n_bins, grid, patch))

    @classmethod
    def nfp(cls, decimals: int = 4) -> "ReprScheme":
        return cls(kind="nfp", decimals=decimals)

    @classmethod
    def ivb(cls, n_bins: int = 224) -> "ReprScheme":
        return cls(kind="ivb", n_bins=n_bins)

    @classmethod
    def diga(cls, grid: int = 16, patch: int = 14) -> "ReprScheme":
        return cls(kind="diga", grid=grid, patch=patch)

    @property
    def square_side(self) -> int:
        return self.grid * self.patch

    def to_dict(self) -> dict:
        if self.kind == "nfp":
            return {"kind": "nfp", "decimals": self.decimals}
        if self.kind == "ivb":
            return {"kind": "ivb", "n_bins": self.n_bins}
        return {"kind": "diga", "grid": self.grid, "patch": self.patch}


# Quantization works on exact (numerator, denominator) views of the input
# numbers (``as_integer_ratio``, which ints and floats both have), so bin and
# anchor decisions never wobble at cell boundaries. The encoders write each
# coordinate's arithmetic out: a helper call per coordinate cost more than the
# arithmetic itself. Every location reaching them is non-negative, as BBox and
# PointLoc refuse negative coordinates.


def _axis_anchor(num: int, den: int, grid: int, patch: int) -> int:
    """Index of the grid cell whose center is nearest to num/den, lower index on ties."""
    cell = num // (den * patch)
    if cell >= 1 and num == cell * den * patch:
        cell -= 1  # cell boundary: equidistant to both neighbours, keep the lower
    return min(max(cell, 0), grid - 1)


def _round_half_up(num: int, den: int) -> int:
    """Round num/den (den > 0) to the nearest integer, halves away from zero."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def encode_point(p: PointLoc, dims: ImageDims, scheme: ReprScheme) -> str:
    """The text of a point location under the given scheme."""
    p.validate_within(dims)
    width, height = dims
    xn, xd = p.cx.as_integer_ratio()
    yn, yd = p.cy.as_integer_ratio()
    kind = scheme.kind
    if kind == "nfp":
        # value / dim to ``decimals`` places, halves up
        places = scheme.decimals
        scale = 10**places
        xd, yd = xd * width, yd * height
        x = (2 * scale * xn + xd) // (2 * xd)
        y = (2 * scale * yn + yd) // (2 * yd)
        return f"({x // scale}.{x % scale:0{places}d}, {y // scale}.{y % scale:0{places}d})"
    elif kind == "ivb":
        # the bin holding value / dim; a coordinate on the far edge belongs to the last bin
        n = scheme.n_bins
        x, y = n * xn // (xd * width), n * yn // (yd * height)
        return f"({x if x < n else n - 1}, {y if y < n else n - 1})"
    else:
        side, grid, patch = scheme.square_side, scheme.grid, scheme.patch
        xn, xd = xn * side, xd * width
        yn, yd = yn * side, yd * height
        pi = _axis_anchor(xn, xd, grid, patch)
        qi = _axis_anchor(yn, yd, grid, patch)
        # deviations from the anchor center (2 * idx + 1) * patch / 2
        d1 = _round_half_up(2 * xn - (2 * pi + 1) * patch * xd, 2 * xd)
        d2 = _round_half_up(2 * yn - (2 * qi + 1) * patch * yd, 2 * yd)
        return f"({pi}, {qi}, {d1}, {d2})"


def encode_bbox(b: BBox, dims: ImageDims, scheme: ReprScheme) -> str:
    """The text of a box location under the given scheme."""
    b.validate_within(dims)
    width, height = dims
    x1n, x1d = b.x1.as_integer_ratio()
    y1n, y1d = b.y1.as_integer_ratio()
    x2n, x2d = b.x2.as_integer_ratio()
    y2n, y2d = b.y2.as_integer_ratio()
    kind = scheme.kind
    if kind == "nfp":
        places = scheme.decimals
        scale = 10**places
        x1d, y1d, x2d, y2d = x1d * width, y1d * height, x2d * width, y2d * height
        x1 = (2 * scale * x1n + x1d) // (2 * x1d)
        y1 = (2 * scale * y1n + y1d) // (2 * y1d)
        x2 = (2 * scale * x2n + x2d) // (2 * x2d)
        y2 = (2 * scale * y2n + y2d) // (2 * y2d)
        return (
            f"({x1 // scale}.{x1 % scale:0{places}d}, {y1 // scale}.{y1 % scale:0{places}d}, "
            f"{x2 // scale}.{x2 % scale:0{places}d}, {y2 // scale}.{y2 % scale:0{places}d})"
        )
    elif kind == "ivb":
        n = scheme.n_bins
        x1, y1 = n * x1n // (x1d * width), n * y1n // (y1d * height)
        x2, y2 = n * x2n // (x2d * width), n * y2n // (y2d * height)
        return (
            f"({x1 if x1 < n else n - 1}, {y1 if y1 < n else n - 1}, "
            f"{x2 if x2 < n else n - 1}, {y2 if y2 < n else n - 1})"
        )
    else:
        side, grid, patch = scheme.square_side, scheme.grid, scheme.patch
        x1n, x1d = x1n * side, x1d * width
        y1n, y1d = y1n * side, y1d * height
        x2n, x2d = x2n * side, x2d * width
        y2n, y2d = y2n * side, y2d * height
        pi = _axis_anchor(x1n * x2d + x2n * x1d, 2 * x1d * x2d, grid, patch)
        qi = _axis_anchor(y1n * y2d + y2n * y1d, 2 * y1d * y2d, grid, patch)
        # deviations measured outward: anchor-to-top-left, bottom-right-to-anchor
        cx, cy = (2 * pi + 1) * patch, (2 * qi + 1) * patch
        d1 = _round_half_up(cx * x1d - 2 * x1n, 2 * x1d)
        d2 = _round_half_up(cy * y1d - 2 * y1n, 2 * y1d)
        d3 = _round_half_up(2 * x2n - cx * x2d, 2 * x2d)
        d4 = _round_half_up(2 * y2n - cy * y2d, 2 * y2d)
        return f"({pi}, {qi}, {d1}, {d2}, {d3}, {d4})"


_INT_RE = re.compile(r"-?\d+")


def _nfp_re(decimals: int) -> re.Pattern:
    return re.compile(rf"[01]\.\d{{{decimals}}}")


def _arity(scheme: ReprScheme, form: str) -> int:
    base = 2 if form == "point" else 4
    return base + (2 if scheme.kind == "diga" else 0)


def split_coordinate_text(text: str, scheme: ReprScheme, form: str, lenient: bool = False) -> list[str]:
    """Split location text into raw coordinate tokens, validating the grammar.

    Canonical grammar is parenthesized, comma-plus-space separated. In lenient
    mode the parentheses may be missing and whitespace is arbitrary; token
    syntax is still enforced.
    """
    arity = _arity(scheme, form)
    token_re = _nfp_re(scheme.decimals) if scheme.kind == "nfp" else _INT_RE
    if lenient:
        inner = text.strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        tokens = [t.strip() for t in inner.split(",")]
    else:
        canonical = re.fullmatch(r"\((.*)\)", text.strip())
        if canonical is None:
            raise CodecError(f"missing parentheses in {text!r}")
        tokens = canonical.group(1).split(", ")
    if len(tokens) != arity:
        raise CodecError(f"expected {arity} coordinates for {scheme.kind} {form}, got {len(tokens)} in {text!r}")
    for tok in tokens:
        if token_re.fullmatch(tok) is None:
            raise CodecError(f"bad {scheme.kind} coordinate token {tok!r}")
    return tokens


def _to_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # more digits than int() converts
        raise CodecError(f"coordinate token of {len(tok)} characters is too long") from exc


def _decode_values(tokens: list[str], scheme: ReprScheme, dims: ImageDims, form: str) -> list[float]:
    """Map validated tokens back to pixel coordinates (x-axis first, alternating)."""
    if scheme.kind == "nfp":
        scale = 10**scheme.decimals
        out = []
        for i, tok in enumerate(tokens):
            whole, part = tok.split(".")
            scaled = int(whole) * scale + _to_int(part)
            if scaled > scale:
                raise CodecError(f"normalized coordinate {tok!r} exceeds 1")
            dim = dims.width if i % 2 == 0 else dims.height
            out.append(scaled * dim / scale)
        return out
    if scheme.kind == "ivb":
        out = []
        for i, tok in enumerate(tokens):
            k = _to_int(tok)
            if not 0 <= k < scheme.n_bins:
                raise CodecError(f"bin index {tok!r} outside [0, {scheme.n_bins - 1}]")
            dim = dims.width if i % 2 == 0 else dims.height
            out.append((2 * k + 1) * dim / (2 * scheme.n_bins))
        return out
    # diga: anchor indices then deviations; work with doubled ordinates to stay integral
    pi, qi = _to_int(tokens[0]), _to_int(tokens[1])
    for name, idx in (("column", pi), ("row", qi)):
        if not 0 <= idx < scheme.grid:
            raise CodecError(f"anchor {name} index {idx} outside [0, {scheme.grid - 1}]")
    acx2 = (2 * pi + 1) * scheme.patch
    acy2 = (2 * qi + 1) * scheme.patch
    devs = [2 * _to_int(t) for t in tokens[2:]]
    side = scheme.square_side
    if form == "point":
        doubled = [acx2 + devs[0], acy2 + devs[1]]
    else:
        doubled = [acx2 - devs[0], acy2 - devs[1], acx2 + devs[2], acy2 + devs[3]]
    out = []
    for i, v in enumerate(doubled):
        # The encoder rounds each deviation to a whole pixel of the square, so an
        # ordinate it wrote lies at most half a pixel (1 doubled) outside [0, side].
        if not -1 <= v <= 2 * side + 1:
            raise CodecError(f"diga deviation too large: an ordinate falls outside the {side}-pixel square")
        dim = dims.width if i % 2 == 0 else dims.height
        out.append(min(max(v, 0), 2 * side) * dim / (2 * side))
    return out


def decode_point(text: str, scheme: ReprScheme, dims: ImageDims, lenient: bool = False) -> PointLoc:
    """Reconstruct the pixel-space point that ``text`` encodes under ``scheme``."""
    tokens = split_coordinate_text(text, scheme, "point", lenient=lenient)
    return PointLoc(*_decode_values(tokens, scheme, dims, "point"))


def decode_bbox(text: str, scheme: ReprScheme, dims: ImageDims, lenient: bool = False) -> BBox:
    """Reconstruct the pixel-space box that ``text`` encodes under ``scheme``.

    A decoded box with x1 > x2 or y1 > y2 is reported as a degenerate decode,
    never silently repaired.
    """
    tokens = split_coordinate_text(text, scheme, "bbox", lenient=lenient)
    x1, y1, x2, y2 = _decode_values(tokens, scheme, dims, "bbox")
    if x1 > x2 or y1 > y2:
        raise CodecError(f"degenerate decode ({x1}, {y1}, {x2}, {y2}) from {text!r}")
    return BBox(x1, y1, x2, y2)

