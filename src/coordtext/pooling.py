"""Spatio-temporal pooling of per-frame visual tokens for video inputs."""

import math
from operator import add, is_
from typing import NamedTuple


def _kept(seq, items: list) -> list:
    """``seq`` itself when it is a list whose items were all kept, else the new list ``items``."""
    return seq if type(seq) is list and all(map(is_, seq, items)) else items


def _row(row) -> list[float]:
    # math.isfinite raises TypeError for anything that is not a real number
    if not all(map(math.isfinite, row)):
        raise ValueError("token grid holds non-finite values")
    return _kept(row, list(map(float, row)))  # float() returns a float itself


class _TokenGrid(NamedTuple):
    values: list[list[list[float]]]


class TokenGrid(_TokenGrid):
    """Per-frame visual tokens: (n_frames, spatial_positions, feature_dim) nested lists of floats.

    Any nested sequence of real numbers is accepted, an ndarray included; a
    list of lists of float lists is kept as given, as value types keep their
    fields.
    """

    __slots__ = ()

    def __new__(cls, values):
        try:
            grid = _kept(values, [_kept(frame, [_row(row) for row in frame]) for frame in values])
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"token grid must be (frames, positions, dim) real numbers: {exc}") from None
        shape = (len(grid), len(grid[0]) if grid else 0, len(grid[0][0]) if grid and grid[0] else 0)
        if min(shape) < 1:
            raise ValueError(f"token grid must be (frames, positions, dim) with positive sizes, got {shape}")
        if any(len(frame) != shape[1] or any(len(row) != shape[2] for row in frame) for frame in grid):
            raise ValueError("token grid must be (frames, positions, dim) with equal sizes, got a ragged grid")
        return tuple.__new__(cls, (grid,))

    @property
    def n_frames(self) -> int:
        return len(self.values)

    @property
    def n_spatial(self) -> int:
        return len(self.values[0])


def _balanced_mean(vectors: list[list[float]]) -> list[float]:
    """Elementwise mean of equal-length vectors via a balanced pairwise sum, divided once.

    The balanced tree keeps sums of identical addends exact for power-of-two
    counts, so constant grids pool to the constant.
    """
    n = len(vectors)
    acc = vectors
    while len(acc) > 1:
        paired = [list(map(add, acc[i], acc[i + 1])) for i in range(0, len(acc) - 1, 2)]
        if len(acc) % 2:
            paired.append(acc[-1])
        acc = paired
    return [x / n for x in acc[0]]


def spatiotemporal_pool(grid) -> list[list[float]]:
    """Reduce (frames, positions, dim) tokens to (positions + frames, dim).

    Row s < positions is the temporal mean of spatial token s; the remaining
    rows are per-frame spatial means, in frame order.
    """
    if not isinstance(grid, TokenGrid):
        grid = TokenGrid(grid)
    frames = grid.values
    spatial = [_balanced_mean([frame[s] for frame in frames]) for s in range(grid.n_spatial)]
    temporal = [_balanced_mean(frame) for frame in frames]
    return spatial + temporal
