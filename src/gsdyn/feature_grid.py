"""Factorized 4D space-time feature encoder.

Six 2D feature planes over the axis pairs {xy, xz, yz, xt, yt, zt} are
sampled bilinearly at a (position, t) query and the per-plane samples are
concatenated in that fixed order.  Exact gradients of the sampling are
provided for training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arrayio

PLANE_ORDER = ("xy", "xz", "yz", "xt", "yt", "zt")
# axis indices into (x, y, z, t)
PLANE_AXES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


@dataclass
class HexPlaneGrid:
    """Six feature planes plus the box used to normalize query coordinates.

    planes[k] has shape (rows, cols, channels); every plane shares the same
    channel count.  Out-of-bounds queries are clamped to the boundary, which
    gives a defined, smooth continuation for rollouts that leave the trained
    window.
    """

    planes: list  # six (R0, R1, C) arrays
    bounds_lo: np.ndarray  # (3,)
    bounds_hi: np.ndarray  # (3,)
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if len(self.planes) != 6:
            raise ValueError("grid needs exactly six planes")
        channels = {p.shape[2] for p in self.planes}
        if len(channels) != 1:
            raise ValueError("all planes must share one channel count")
        for name, p in zip(PLANE_ORDER, self.planes):
            if p.shape[0] < 2 or p.shape[1] < 2:
                raise ValueError(f"plane {name}: resolution must be at least 2x2")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"plane {name}: non-finite entries")

    @property
    def channels(self) -> int:
        return self.planes[0].shape[2]

    @property
    def feature_size(self) -> int:
        return 6 * self.channels

    def copy(self) -> "HexPlaneGrid":
        return HexPlaneGrid(
            planes=[p.copy() for p in self.planes],
            bounds_lo=self.bounds_lo.copy(),
            bounds_hi=self.bounds_hi.copy(),
            t0=self.t0,
            t1=self.t1,
        )


def create_grid(
    bounds_lo,
    bounds_hi,
    spatial_resolution: int = 32,
    time_resolution: int = 16,
    channels: int = 8,
    t0: float = 0.0,
    t1: float = 1.0,
    seed: int = 0,
    init_scale: float = 0.1,
) -> HexPlaneGrid:
    """Fresh grid with uniform [-init_scale, init_scale] entries from a seeded RNG."""
    rng = np.random.default_rng(seed)
    planes = []
    for a, b in PLANE_AXES:
        r0 = spatial_resolution if a < 3 else time_resolution
        r1 = spatial_resolution if b < 3 else time_resolution
        planes.append(rng.uniform(-init_scale, init_scale, size=(r0, r1, channels)))
    return HexPlaneGrid(
        planes=planes,
        bounds_lo=np.asarray(bounds_lo, dtype=float),
        bounds_hi=np.asarray(bounds_hi, dtype=float),
        t0=t0,
        t1=t1,
    )


def _coords(grid: HexPlaneGrid, positions: np.ndarray, t: float):
    """Continuous plane coordinates in [0, R-1] per axis, plus clamp masks.

    Returns (coords (N, 4), active (N, 4)) where active marks queries that
    were not clamped (their positional gradient survives).
    """
    span = np.concatenate([grid.bounds_hi - grid.bounds_lo, [grid.t1 - grid.t0]])
    lo = np.concatenate([grid.bounds_lo, [grid.t0]])
    q = np.concatenate([positions, np.full((positions.shape[0], 1), t)], axis=1)
    u = (q - lo) / span
    active = (u > 0.0) & (u < 1.0)
    return np.clip(u, 0.0, 1.0), active


def _plane_sample(plane, u, v):
    """Bilinear sample at continuous coords (u, v) in [0, 1]^2.

    Returns values (N, C) plus the pieces needed for the VJP.
    """
    r0, r1, _ = plane.shape
    su = u * (r0 - 1)
    sv = v * (r1 - 1)
    i0 = np.minimum(np.floor(su).astype(int), r0 - 2)
    j0 = np.minimum(np.floor(sv).astype(int), r1 - 2)
    fu = su - i0
    fv = sv - j0
    p00 = plane[i0, j0]
    p10 = plane[i0 + 1, j0]
    p01 = plane[i0, j0 + 1]
    p11 = plane[i0 + 1, j0 + 1]
    fu_ = fu[:, None]
    fv_ = fv[:, None]
    val = (1 - fu_) * (1 - fv_) * p00 + fu_ * (1 - fv_) * p10 + (1 - fu_) * fv_ * p01 + fu_ * fv_ * p11
    cache = (i0, j0, fu, fv, p00, p10, p01, p11)
    return val, cache


def lookup(grid: HexPlaneGrid, positions, t: float) -> np.ndarray:
    """(N, 6*C) feature vectors at (positions, t): six bilinear plane samples, concatenated.

    positions is an (N, 3) batch; positions are clamped into the grid bounds
    before normalization.
    """
    positions = np.asarray(positions, dtype=float)
    if not (np.all(np.isfinite(positions)) and np.isfinite(t)):
        raise ValueError("lookup: non-finite query")
    coords, _ = _coords(grid, positions, t)
    out = []
    for plane, (a, b) in zip(grid.planes, PLANE_AXES):
        val, _ = _plane_sample(plane, coords[:, a], coords[:, b])
        out.append(val)
    return np.concatenate(out, axis=1)


def lookup_grad(grid: HexPlaneGrid, positions, t: float, upstream):
    """Exact gradients of :func:`lookup`.

    positions is (N, 3) and upstream (N, 6*C).  Returns
    (plane_grads, g_position, g_t): plane_grads mirrors grid.planes with
    nonzero entries only at the <= 4 touched nodes per plane per query;
    g_position / g_t are the gradients w.r.t. the query.
    """
    positions = np.asarray(positions, dtype=float)
    up = np.asarray(upstream, dtype=float)
    if not (np.all(np.isfinite(positions)) and np.isfinite(t)):
        raise ValueError("lookup_grad: non-finite query")

    coords, active = _coords(grid, positions, t)
    span = np.concatenate([grid.bounds_hi - grid.bounds_lo, [grid.t1 - grid.t0]])
    c = grid.channels
    plane_grads = [np.zeros_like(p) for p in grid.planes]
    g_coords = np.zeros_like(coords)

    for k, (plane, (a, b)) in enumerate(zip(grid.planes, PLANE_AXES)):
        u_k = up[:, k * c : (k + 1) * c]
        _, (i0, j0, fu, fv, p00, p10, p01, p11) = _plane_sample(plane, coords[:, a], coords[:, b])
        fu_ = fu[:, None]
        fv_ = fv[:, None]
        g = plane_grads[k]
        np.add.at(g, (i0, j0), (1 - fu_) * (1 - fv_) * u_k)
        np.add.at(g, (i0 + 1, j0), fu_ * (1 - fv_) * u_k)
        np.add.at(g, (i0, j0 + 1), (1 - fu_) * fv_ * u_k)
        np.add.at(g, (i0 + 1, j0 + 1), fu_ * fv_ * u_k)
        # chain d(sample)/d(scaled coord) into normalized coords and the query
        dval_dsu = (1 - fv_) * (p10 - p00) + fv_ * (p11 - p01)
        dval_dsv = (1 - fu_) * (p01 - p00) + fu_ * (p11 - p10)
        r0, r1, _ = plane.shape
        g_coords[:, a] += np.sum(u_k * dval_dsu, axis=1) * (r0 - 1)
        g_coords[:, b] += np.sum(u_k * dval_dsv, axis=1) * (r1 - 1)

    # clamped queries have zero positional gradient
    g_coords = np.where(active, g_coords / span, 0.0)
    g_position = g_coords[:, :3]
    g_t = g_coords[:, 3]
    return plane_grads, g_position, g_t


def tv_loss(grid: HexPlaneGrid) -> float:
    """Total-variation penalty: per plane, the mean of squared differences
    between horizontally and vertically adjacent entries; summed over planes.
    """
    total = 0.0
    for plane in grid.planes:
        dh = plane[1:, :, :] - plane[:-1, :, :]
        dv = plane[:, 1:, :] - plane[:, :-1, :]
        count = dh.size + dv.size
        total += (np.sum(dh**2) + np.sum(dv**2)) / count
    return float(total)


def tv_grad(grid: HexPlaneGrid):
    """Gradient of :func:`tv_loss` w.r.t. every plane entry."""
    grads = []
    for plane in grid.planes:
        g = np.zeros_like(plane)
        dh = plane[1:, :, :] - plane[:-1, :, :]
        dv = plane[:, 1:, :] - plane[:, :-1, :]
        count = dh.size + dv.size
        g[1:, :, :] += 2.0 * dh / count
        g[:-1, :, :] -= 2.0 * dh / count
        g[:, 1:, :] += 2.0 * dv / count
        g[:, :-1, :] -= 2.0 * dv / count
        grads.append(g)
    return grads


def save_grid(grid: HexPlaneGrid, path) -> None:
    meta = {
        "kind": "hexplane_grid",
        "plane_order": list(PLANE_ORDER),
        "resolutions": [list(p.shape[:2]) for p in grid.planes],
        "channels": grid.channels,
        "t0": grid.t0,
        "t1": grid.t1,
    }
    arrays = {f"plane_{name}": p for name, p in zip(PLANE_ORDER, grid.planes)}
    arrays["bounds_lo"] = grid.bounds_lo
    arrays["bounds_hi"] = grid.bounds_hi
    arrayio.save_bundle(path, meta, arrays)


def load_grid(path) -> HexPlaneGrid:
    meta, arrays = arrayio.load_bundle(path)
    if meta.get("kind") != "hexplane_grid":
        raise ValueError(f"{path}: not a grid checkpoint")
    return HexPlaneGrid(
        planes=[arrays[f"plane_{name}"] for name in PLANE_ORDER],
        bounds_lo=arrays["bounds_lo"],
        bounds_hi=arrays["bounds_hi"],
        t0=float(meta["t0"]),
        t1=float(meta["t1"]),
    )
