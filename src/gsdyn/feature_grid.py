"""Factorized 4D space-time feature encoder.

Six 2D feature planes over the axis pairs {xy, xz, yz, xt, yt, zt} are
sampled bilinearly at a (position, t) query and the per-plane samples are
concatenated in that fixed order.  Exact gradients of the sampling are
provided for training.

Sampling is one sparse linear map.  A grid stores its planes' cells
stacked plane after plane as one (cells, C) array F, ``HexPlaneGrid.cells``,
and a batch of N queries builds a CSR matrix S of shape (6N, cells) whose
row n*6 + k holds query n's four bilinear corner weights on plane k.  The
features are S @ F, read from the grid's storage without a copy, the plane
gradients S^T @ U for an upstream U, and the query gradients come from an
operator with the same corners whose entries are the weights' derivatives
along each plane axis.  The corners of a query batch (:class:`Corners`) are
found once, by :func:`lookup`, which can write them into buffers that the
caller keeps; :func:`sampling_operator` builds S from them, and
:func:`lookup_grad` takes that S, or builds it, and builds the derivative
operator from the same corners.  It finds the corners again only when none
are passed.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np
from scipy import sparse

PLANE_ORDER = ("xy", "xz", "yz", "xt", "yt", "zt")
# axis indices into (x, y, z, t)
PLANE_AXES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
_AXES = np.array(PLANE_AXES)
_AXIS_SELECT = np.eye(4)[_AXES.ravel()]  # (12, 4): one-hot query axis of each plane axis


class HexPlaneGrid:
    """Six feature planes over the box [bounds_lo, bounds_hi] of space and
    the normalized time axis [0, 1].

    The planes' cells are stacked plane after plane, in PLANE_ORDER, as the
    rows of one (cells, C) array ``cells``; ``planes[k]`` is a (rows, cols,
    C) view of plane k's rows, so a write through either changes both.
    Every plane shares the same channel count.  Out-of-bounds queries are
    clamped to the boundary, which gives a defined, smooth continuation for
    rollouts that leave the trained window.
    """

    def __init__(self, planes, bounds_lo, bounds_hi):
        if len(planes) != 6:
            raise ValueError("grid needs exactly six planes")
        if len({p.shape[2] for p in planes}) != 1:
            raise ValueError("all planes must share one channel count")
        for name, p in zip(PLANE_ORDER, planes):
            if p.shape[0] < 2 or p.shape[1] < 2:
                raise ValueError(f"plane {name}: resolution must be at least 2x2")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"plane {name}: non-finite entries")
        self.resolution = np.array([p.shape[:2] for p in planes], dtype=np.int32)  # (6, 2)
        self.cells = np.concatenate([np.reshape(p, (-1, p.shape[2])) for p in planes], dtype=float)
        self.bounds_lo = np.asarray(bounds_lo, dtype=float)
        self.bounds_hi = np.asarray(bounds_hi, dtype=float)

    @property
    def channels(self) -> int:
        return self.cells.shape[1]

    @property
    def feature_size(self) -> int:
        return 6 * self.channels

    def planes_of(self, cells) -> list:
        """The six (rows, cols, C) plane views of a (cells, C) array laid out like ``cells``."""
        ends = np.cumsum(self.resolution.prod(axis=1))
        return [cells[e - r0 * r1 : e].reshape(r0, r1, -1) for e, (r0, r1) in zip(ends, self.resolution)]

    @property
    def planes(self) -> list:
        return self.planes_of(self.cells)

    def with_cells(self, cells) -> "HexPlaneGrid":
        """This grid over ``cells``, a (cells, C) array that it keeps as its storage."""
        grid = copy.copy(self)
        grid.cells = cells
        return grid


def create_grid(
    bounds_lo,
    bounds_hi,
    spatial_resolution: int = 32,
    time_resolution: int = 16,
    channels: int = 8,
    seed: int = 0,
) -> HexPlaneGrid:
    """Fresh grid with uniform [-0.1, 0.1] entries from a seeded RNG."""
    rng = np.random.default_rng(seed)
    planes = []
    for a, b in PLANE_AXES:
        r0 = spatial_resolution if a < 3 else time_resolution
        r1 = spatial_resolution if b < 3 else time_resolution
        planes.append(rng.uniform(-0.1, 0.1, size=(r0, r1, channels)))
    return HexPlaneGrid(planes=planes, bounds_lo=bounds_lo, bounds_hi=bounds_hi)


class Corners(NamedTuple):
    """Bilinear corners of every (query, plane) pair of a batch of N queries.

    cols (N, 6, 4) indexes the stacked plane cells at the corners 00, 10,
    01, 11 of each query's cell on each plane, the first digit stepping
    along the plane's first axis.  fu and fv (N, 6) are the offsets inside
    the cell along the plane's two axes, and ju and jv their derivatives by
    the query coordinate, 0 where the query is clamped.
    """

    cols: np.ndarray
    fu: np.ndarray
    fv: np.ndarray
    ju: np.ndarray
    jv: np.ndarray


def empty_corners(n: int) -> Corners:
    """Uninitialized corner buffers for a batch of n queries."""
    return Corners(np.empty((n, 6, 4), dtype=np.int32), *(np.empty((n, 6)) for _ in range(4)))


def _corners(grid: HexPlaneGrid, positions, t: float, out: Corners = None) -> Corners:
    """The :class:`Corners` of a query batch, written into ``out`` when given."""
    positions = np.asarray(positions, dtype=float)
    if not (np.all(np.isfinite(positions)) and np.isfinite(t)):
        raise FloatingPointError("feature grid: non-finite query")
    if out is None:
        out = empty_corners(len(positions))
    # axis-major arrays, one row per query axis (4, N) or plane (6, N): a
    # plane's coordinates are then gathered as whole rows
    r0, r1 = grid.resolution[:, :1], grid.resolution[:, 1:]
    lo = np.append(grid.bounds_lo, 0.0)[:, None]
    span = np.append(grid.bounds_hi, 1.0)[:, None] - lo
    u = (np.vstack([positions.T, np.full(len(positions), t)]) - lo) / span
    slope = ((u > 0.0) & (u < 1.0)) / span
    u = np.clip(u, 0.0, 1.0)
    su = u[_AXES[:, 0]] * (r0 - 1)
    sv = u[_AXES[:, 1]] * (r1 - 1)
    i0 = np.minimum(np.floor(su).astype(np.int32), r0 - 2)
    j0 = np.minimum(np.floor(sv).astype(np.int32), r1 - 2)
    c00 = np.cumsum(r0 * r1, axis=0, dtype=np.int32) - r0 * r1 + i0 * r1 + j0
    np.stack([c00, c00 + r1, c00 + 1, c00 + r1 + 1], axis=-1, out=out.cols.transpose(1, 0, 2))
    np.subtract(su, i0, out=out.fu.T)
    np.subtract(sv, j0, out=out.fv.T)
    np.multiply(slope[_AXES[:, 0]], r0 - 1, out=out.ju.T)
    np.multiply(slope[_AXES[:, 1]], r1 - 1, out=out.jv.T)
    return out


def _operator(cols, weights, n_cells: int):
    """CSR matrix with one row per four consecutive ``weights``, placed at
    the stacked-cell columns ``cols``."""
    return sparse.csr_matrix(
        (weights.ravel(), cols.ravel(), np.arange(0, weights.size + 1, 4, dtype=np.int32)),
        shape=(weights.size // 4, n_cells),
    )


def _weights(fu, fv):
    """(N, 6, 4) bilinear weights of the corners 00, 10, 01, 11."""
    return np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=-1)


def sampling_operator(grid: HexPlaneGrid, corners: Corners):
    """The (6N, cells) sampling operator S of a batch's corners: S @ grid.cells
    holds the batch's features, one row per (query, plane)."""
    return _operator(corners.cols, _weights(corners.fu, corners.fv), len(grid.cells))


def lookup(grid: HexPlaneGrid, positions, t: float, corners: Corners = None) -> np.ndarray:
    """(N, 6*C) feature vectors at (positions, t): six bilinear plane samples, concatenated.

    positions is an (N, 3) batch; positions are clamped into the grid bounds
    before normalization.  With ``corners`` (buffers from
    :func:`empty_corners` for N queries) the batch's corners are written
    there, for :func:`lookup_grad` to reuse.
    """
    corners = _corners(grid, positions, t, corners)
    return (sampling_operator(grid, corners) @ grid.cells).reshape(-1, grid.feature_size)


def lookup_grad(grid: HexPlaneGrid, positions, t: float, upstream, corners: Corners = None, operator=None):
    """Exact gradients of :func:`lookup`.

    positions is (N, 3) and upstream (N, 6*C).  Returns (g_cells,
    g_position, g_t): g_cells is laid out like grid.cells, with nonzero
    rows only at the <= 4 touched nodes per plane per query
    (``grid.planes_of`` splits it by plane); g_position / g_t are the
    gradients w.r.t. the query.  ``corners`` are the ones :func:`lookup`
    wrote for this query; they are found again from (positions, t) when
    None.  ``operator`` is their :func:`sampling_operator`, built here when
    None.
    """
    if corners is None:
        corners = _corners(grid, positions, t)
    if operator is None:
        operator = sampling_operator(grid, corners)
    cols, fu, fv, ju, jv = corners
    n_cells = len(grid.cells)
    up = np.asarray(upstream, dtype=float).reshape(-1, grid.channels)
    g_cells = operator.T @ up

    # derivatives of the corner weights by the query coordinate along each
    # plane's two axes: one operator row per (query, plane, axis)
    a0, a1 = (1 - fv) * ju, fv * ju
    b0, b1 = (1 - fu) * jv, fu * jv
    d_weights = np.stack([-a0, a0, -a1, a1, -b0, -b1, b0, b1], axis=-1)
    d_op = _operator(np.concatenate([cols, cols], axis=-1), d_weights, n_cells)
    g_axis = np.einsum("nac,nc->na", (d_op @ grid.cells).reshape(-1, 2, grid.channels), up)
    g_query = g_axis.reshape(len(cols), 12) @ _AXIS_SELECT
    return g_cells, g_query[:, :3], g_query[:, 3]


def _tv_differences(grid: HexPlaneGrid):
    """Per plane: the differences of vertically and horizontally adjacent
    entries, and their total count."""
    for plane in grid.planes:
        dh = plane[1:, :, :] - plane[:-1, :, :]
        dv = plane[:, 1:, :] - plane[:, :-1, :]
        yield dh, dv, dh.size + dv.size


def tv_loss(grid: HexPlaneGrid) -> float:
    """Total-variation penalty: per plane, the mean of squared differences
    between horizontally and vertically adjacent entries; summed over planes.
    """
    return float(sum((np.sum(dh**2) + np.sum(dv**2)) / count for dh, dv, count in _tv_differences(grid)))


def tv_grad(grid: HexPlaneGrid) -> np.ndarray:
    """Gradient of :func:`tv_loss` w.r.t. every plane entry, laid out like grid.cells."""
    grads = np.zeros_like(grid.cells)
    for g, (dh, dv, count) in zip(grid.planes_of(grads), _tv_differences(grid)):
        g[1:, :, :] += 2.0 * dh / count
        g[:-1, :, :] -= 2.0 * dh / count
        g[:, 1:, :] += 2.0 * dv / count
        g[:, :-1, :] -= 2.0 * dv / count
    return grads
