"""Factorized 4D space-time feature encoder.

Six 2D feature planes over the axis pairs {xy, xz, yz, xt, yt, zt} are
sampled bilinearly at a (position, t) query and the per-plane samples are
concatenated in that fixed order.  Exact gradients of the sampling are
provided for training.

Sampling is one sparse linear map.  A grid stores its planes' cells
stacked plane after plane as one (cells, C) array F, ``HexPlaneGrid.cells``,
and a batch of N queries uses a CSR matrix S of shape (6N, cells) whose
row n*6 + k holds query n's four bilinear corner weights on plane k.  The
features are S @ F, the plane gradients S^T @ U for an upstream U, and the
query gradients come from an operator D with the same corners whose
entries are the weights' derivatives along each plane axis.  A grid
derives its sampling geometry once, when it is made.  A lookup finds the
floor and fraction once per distinct (query axis, resolution) row and once
for the batch's one t, and can write the corners (:class:`Corners`) into
buffers that the caller keeps; :func:`lookup_grad` reuses them and S, and
finds the clamp slopes from the query, so a forward pass never computes
them.

S, S^T and D depend on the batch only through its size, so a grid builds
them once per batch size (it keeps the operators of one size at a time)
and each call writes its weights into their buffers and points their
column indices at its corners.  So a grid samples one batch at a time: it
is not re-entrant across threads.
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
    clamped to the boundary, a defined, smooth continuation for rollouts
    that leave the trained window.  The sampling geometry is derived once,
    here, from the bounds and the resolution, which are read-only.  The
    sampling operators of the last batch size sampled are kept with the
    grid and re-pointed at each batch, so a grid samples one batch at a
    time.
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
        self.cells = np.concatenate([np.reshape(p, (-1, p.shape[2])) for p in planes], dtype=float)
        self._resolution = np.array([p.shape[:2] for p in planes], dtype=np.int32)
        self._bounds_lo, self._bounds_hi = np.array(bounds_lo, dtype=float), np.array(bounds_hi, dtype=float)
        for a in (self._resolution, self._bounds_lo, self._bounds_hi):
            a.setflags(write=False)
        # Sampling geometry.  A plane's first axis is spatial; its second is
        # spatial on xy, xz and yz and time on xt, yt and zt.  Each spatial
        # plane axis reads one of the distinct (query axis, resolution) rows.
        r0, r1 = self._resolution.T
        rows, row_of = np.unique(np.stack([np.r_[_AXES[:, 0], _AXES[:3, 1]], np.r_[r0, r1[:3]]], axis=1), axis=0,
                                 return_inverse=True)
        self._row_u, self._row_v, (self._axis, res) = row_of[:6], row_of[6:], rows.T
        self._lo, self._span = self._bounds_lo[self._axis], (self._bounds_hi - self._bounds_lo)[self._axis]
        self._scale, self._top = (res - 1).astype(float), (res - 2).astype(np.int32)  # a row's r - 1, and last cell
        self._t_scale, self._t_top = (r1[3:] - 1).astype(float), r1[3:] - 2  # the same for xt's, yt's, zt's time
        self._offset = (np.cumsum(r0 * r1) - r0 * r1).astype(np.int32)  # each plane's first stacked cell
        self._operators = None  # the _Operators of the last batch size sampled

    resolution = property(lambda self: self._resolution, doc="(6, 2): each plane's rows and columns")
    bounds_lo = property(lambda self: self._bounds_lo)
    bounds_hi = property(lambda self: self._bounds_hi)

    @property
    def channels(self) -> int:
        return self.cells.shape[1]

    @property
    def feature_size(self) -> int:
        return 6 * self.channels

    def planes_of(self, cells) -> list:
        """The six (rows, cols, C) plane views of a (cells, C) array laid out like ``cells``."""
        return [cells[o : o + r0 * r1].reshape(r0, r1, -1) for o, (r0, r1) in zip(self._offset, self.resolution)]

    @property
    def planes(self) -> list:
        return self.planes_of(self.cells)

    def with_cells(self, cells) -> "HexPlaneGrid":
        """This grid, geometry included, over ``cells``, a (cells, C) array that it keeps as its storage."""
        grid = copy.copy(self)
        grid.cells = cells
        grid._operators = None
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
    the cell along the plane's two axes.  Their derivatives by the query
    are not kept: :func:`lookup_grad` finds them from the query.
    """

    cols: np.ndarray
    fu: np.ndarray
    fv: np.ndarray


def empty_corners(n: int) -> Corners:
    """Uninitialized corner buffers for a batch of n queries."""
    return Corners(np.empty((n, 6, 4), dtype=np.int32), np.empty((n, 6)), np.empty((n, 6)))


def _corners(grid: HexPlaneGrid, positions, t: float, out: Corners = None) -> Corners:
    """The :class:`Corners` of a query batch, written into ``out`` when given."""
    positions = np.asarray(positions, dtype=float)
    if not (np.isfinite(positions).all() and np.isfinite(t)):
        raise FloatingPointError("feature grid: non-finite query")
    if out is None:
        out = empty_corners(len(positions))
    # floor and fraction once per spatial row, and once per time axis for
    # the one t of the batch; s is clamped to >= 0, so the cast is its floor
    s = np.clip((positions[:, grid._axis] - grid._lo) / grid._span, 0.0, 1.0) * grid._scale
    i = np.minimum(s.astype(np.int32), grid._top)
    s -= i
    st = min(max(t, 0.0), 1.0) * grid._t_scale  # np.clip(t, 0.0, 1.0), which keeps -0.0
    it = np.minimum(st.astype(np.int32), grid._t_top)
    out.fu[:] = s[:, grid._row_u]
    out.fv[:, :3] = s[:, grid._row_v]
    out.fv[:, 3:] = st - it
    r1 = grid.resolution[:, 1]
    c00 = i[:, grid._row_u] * r1
    c00[:, :3] += i[:, grid._row_v]
    c00 += grid._offset
    c00[:, 3:] += it
    out.cols[..., 0] = c00
    np.add(c00, r1, out=out.cols[..., 1])
    np.add(c00, 1, out=out.cols[..., 2])
    np.add(out.cols[..., 1], 1, out=out.cols[..., 3])
    return out


def _operator(cols, weights, n_cells: int):
    """CSR matrix with one row per four consecutive entries of ``weights``,
    placed at the stacked-cell columns ``cols``; it holds both buffers
    themselves, so writes into them change the matrix."""
    m = sparse.csr_matrix(
        (weights.ravel(), cols.ravel(), np.arange(0, weights.size + 1, 4, dtype=np.int32)),
        shape=(weights.size // 4, n_cells),
    )
    m.data, m.indices = weights.reshape(-1), cols.reshape(-1)
    return m


class _Operators:
    """S (CSR), S^T (CSC) and D (CSR) of n queries over n_cells stacked cells.

    Shapes and row pointers are fixed by n.  A call writes S's weights into
    ``weights``, points S's and S^T's column indices at its corners' cols,
    and writes D's weights and columns into the (n, 6, 8) ``d_weights`` and
    ``d_cols``, one row of D per (query, plane, plane axis).
    """

    def __init__(self, n: int, n_cells: int):
        self.n = n
        self.weights = np.empty((n, 6, 4))
        self.d_weights, self.d_cols = np.empty((n, 6, 8)), np.zeros((n, 6, 8), dtype=np.int32)
        self.S = _operator(np.zeros((n, 6, 4), dtype=np.int32), self.weights, n_cells)
        self.ST = self.S.T
        self.D = _operator(self.d_cols, self.d_weights, n_cells)


def _operators_of(grid: HexPlaneGrid, n: int) -> _Operators:
    """The grid's operators for a batch of n queries, built when n is not the last batch size."""
    if grid._operators is None or grid._operators.n != n:
        grid._operators = _Operators(n, len(grid.cells))
    return grid._operators


def _weights(fu, fv, out):
    """(N, 6, 4) bilinear weights of the corners 00, 10, 01, 11, written into ``out``."""
    gu, gv = 1 - fu, 1 - fv
    for k, (a, b) in enumerate(((gu, gv), (fu, gv), (gu, fv), (fu, fv))):
        np.multiply(a, b, out=out[..., k])


def sampling_operator(grid: HexPlaneGrid, corners: Corners):
    """The (6N, cells) sampling operator S of a batch's corners: S @ grid.cells
    holds the batch's features, one row per (query, plane).

    S is the grid's operator for N queries, pointed at these corners; it
    stays theirs until the grid samples another batch.
    """
    ops = _operators_of(grid, len(corners.cols))
    _weights(corners.fu, corners.fv, ops.weights)
    ops.S.indices = ops.ST.indices = corners.cols.reshape(-1)
    return ops.S


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
    None.  ``operator`` is their :func:`sampling_operator`, made since the
    grid last sampled another batch; it is made here when not given.
    """
    if corners is None:
        corners = _corners(grid, positions, t)
    cols, fu, fv = corners
    n = len(cols)
    ops = _operators_of(grid, n)
    if operator is not ops.S:
        sampling_operator(grid, corners)
    # the derivatives of fu and fv by the query coordinate, 0 where it is clamped
    u = (np.asarray(positions, dtype=float)[:, grid._axis] - grid._lo) / grid._span
    slope = ((u > 0.0) & (u < 1.0)) / grid._span * grid._scale
    ju, jv = slope[:, grid._row_u], np.empty((n, 6))
    jv[:, :3] = slope[:, grid._row_v]
    jv[:, 3:] = float(0.0 < t < 1.0) * grid._t_scale
    up = np.asarray(upstream, dtype=float).reshape(-1, grid.channels)
    g_cells = ops.ST @ up

    # D's row (query, plane, axis) holds the corner weights' derivatives by
    # the query coordinate along that axis: -a0, a0, -a1, a1 along the first
    # and -b0, -b1, b0, b1 along the second, with a0, a1 = (1 - fv) ju, fv ju
    # and b0, b1 = (1 - fu) jv, fu jv
    d = ops.d_weights
    for plus, minus, (a, b) in ((1, 0, (1 - fv, ju)), (3, 2, (fv, ju)), (6, 4, (1 - fu, jv)), (7, 5, (fu, jv))):
        np.multiply(a, b, out=d[..., plus])
        np.negative(d[..., plus], out=d[..., minus])
    ops.d_cols.reshape(n, 6, 2, 4)[:] = cols[:, :, None, :]
    g_axis = np.einsum("nac,nc->na", (ops.D @ grid.cells).reshape(-1, 2, grid.channels), up)
    g_query = g_axis.reshape(n, 12) @ _AXIS_SELECT
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
