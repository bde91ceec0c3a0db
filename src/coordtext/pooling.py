"""Spatio-temporal pooling of per-frame visual tokens for video inputs.

numpy is imported on first use, so that importing the package (and every
CLI command that pools nothing) does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np


class _TokenGrid(NamedTuple):
    values: np.ndarray


class TokenGrid(_TokenGrid):
    """Per-frame visual tokens: shape (n_frames, spatial_positions, feature_dim)."""

    __slots__ = ()

    def __new__(cls, values):
        import numpy as np

        v = np.asarray(values)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"token grid must be (frames, positions, dim) with positive sizes, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("token grid holds non-finite values")
        return tuple.__new__(cls, (v,))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_spatial(self) -> int:
        return self.values.shape[1]


def _balanced_mean(a: np.ndarray) -> np.ndarray:
    """Mean over axis 0 via a balanced pairwise sum in float64, divided once.

    The balanced tree keeps sums of identical addends exact for power-of-two
    counts, so constant grids pool to the constant.
    """
    import numpy as np

    n = a.shape[0]
    acc = a.astype(np.float64, copy=True)
    while acc.shape[0] > 1:
        m = acc.shape[0]
        even = (m // 2) * 2
        paired = acc[0:even:2] + acc[1:even:2]
        if m % 2:
            paired = np.concatenate([paired, acc[-1:]], axis=0)
        acc = paired
    return acc[0] / n


def spatiotemporal_pool(grid: TokenGrid | np.ndarray) -> np.ndarray:
    """Reduce (frames, positions, dim) tokens to (positions + frames, dim).

    Row s < positions is the temporal mean of spatial token s; the remaining
    rows are per-frame spatial means, in frame order.
    """
    import numpy as np

    if not isinstance(grid, TokenGrid):
        grid = TokenGrid(grid)
    v = grid.values
    spatial = _balanced_mean(v)  # (S, d): mean over frames
    temporal = _balanced_mean(np.swapaxes(v, 0, 1))  # (n_f, d): mean over positions
    return np.concatenate([spatial, temporal], axis=0)
