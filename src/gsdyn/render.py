"""Evaluation-only CPU splat rasterizer and image metrics.

A frame is an (H, W, 3) float array, row-major RGB with channels in [0, 1].
Rendering one projects the whole cloud in one vectorized pass through a pinhole
camera, with the affine (Jacobian) approximation for covariance transport as
in EWA splatting.  The kept Gaussians are sorted front to back by depth, then
index; each covers the box of its 3-sigma pixel footprint.  One vectorized
pass evaluates alpha over a block of consecutive boxes, padded to the block's
largest and to at most BLOCK_PIXELS pixels in all.  Only the blend reads the
transmittance T, so only it stays a loop over the Gaussians in depth order:
add T * alpha * colour, then T *= 1 - alpha.  Each pixel gets the same
operations in the same order as when every footprint was evaluated alone, so
frames keep their bits; colour summed per pixel in any other order would not.
Forward pass only: no gradients flow through rendering.  SSIM's 11x11
Gaussian window is separable: two 11-tap passes, along rows and then
columns, filter the moment images x, y, x^2, y^2, xy of all channels at once.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quaternions
from .scene import CameraSpec, GaussianCloud

PSNR_CAP_DB = 99.0
ALPHA_MAX = 0.999
FOOTPRINT_SIGMAS = 3.0
BLOCK_PIXELS = 16384  # cap on a block's padded footprint pixels, the size of its temporaries


def _view_basis(camera: CameraSpec):
    forward = camera.look_at - camera.eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, camera.up)
    right = right / np.linalg.norm(right)
    up = np.cross(right, forward)
    # rows: camera axes; depth grows along the viewing direction
    return np.stack([right, up, forward])


def project(cloud: GaussianCloud, camera: CameraSpec):
    """Project every Gaussian of the cloud to a 2D mean, 2x2 covariance and depth.

    Returns (mean2d (N, 2) pixel coordinates, cov2d (N, 2, 2), depth (N,),
    keep (N,) bool).  keep is False behind the near plane and where the
    projected covariance degenerates (det < 1e-24); the means and
    covariances of those rows carry no meaning.
    """
    basis = _view_basis(camera)
    # one matrix-vector product per row, rounded as for a single Gaussian
    pc = (basis @ (cloud.positions - camera.eye)[:, :, None])[:, :, 0]
    depth = pc[:, 2]
    front = depth > camera.near
    z = np.where(front, depth, 1.0)  # finite stand-in depth for the rows discarded anyway
    focal = camera.height / (2.0 * np.tan(camera.vertical_fov / 2.0))
    cx = camera.width / 2.0
    cy = camera.height / 2.0
    mean2d = np.stack([cx + focal * pc[:, 0] / z, cy - focal * pc[:, 1] / z], axis=1)

    rot = quaternions.to_matrix(quaternions.normalize(cloud.rotations))
    s = np.exp(cloud.log_scales)
    cov_world = rot @ (s[:, :, None] ** 2 * np.eye(3)) @ rot.transpose(0, 2, 1)
    cov_cam = basis @ cov_world @ basis.T
    # pinhole Jacobian, image y pointing down; float_power rounds z^2 as the
    # scalar z**2 of the per-Gaussian formula does (z * z can differ in the last bit)
    z2 = np.float_power(z, 2)
    jac = np.zeros((len(cloud), 2, 3))
    jac[:, 0, 0] = focal / z
    jac[:, 0, 2] = -focal * pc[:, 0] / z2
    jac[:, 1, 1] = -focal / z
    jac[:, 1, 2] = focal * pc[:, 1] / z2
    cov2d = jac @ cov_cam @ jac.transpose(0, 2, 1)
    keep = front & ~(np.linalg.det(cov2d) < 1e-24)
    return mean2d, cov2d, depth, keep


def rasterize(cloud: GaussianCloud, camera: CameraSpec) -> np.ndarray:
    """Front-to-back alpha compositing of the whole cloud over black.

    Depth sort is by view-space center depth with index tie-breaking, so
    rendering is invariant to the input Gaussian order.
    """
    if len(cloud) == 0:
        raise ValueError("cannot rasterize an empty cloud")
    h, w = camera.height, camera.width
    image = np.zeros((h, w, 3))
    transmittance = np.ones((h, w, 1))

    mean2d, cov2d, depth, keep = project(cloud, camera)
    order = np.flatnonzero(keep)
    order = order[np.lexsort((order, depth[order]))]
    order = order[~(cloud.opacities[order] <= 0.0)]
    radii = FOOTPRINT_SIGMAS * np.sqrt(np.maximum(np.linalg.eigvalsh(cov2d[order])[:, -1], 0.0))
    inverses = np.linalg.inv(cov2d[order])
    mean_x, mean_y = mean2d[order].T
    # pixel bounds [x0, x1) x [y0, y1) of each 3-sigma footprint, clipped to the image
    bounds = np.stack([
        np.maximum(np.floor(mean_x - radii), 0.0), np.minimum(np.ceil(mean_x + radii) + 1.0, w),
        np.maximum(np.floor(mean_y - radii), 0.0), np.minimum(np.ceil(mean_y + radii) + 1.0, h),
    ], axis=1)
    hit = (bounds[:, 0] < bounds[:, 1]) & (bounds[:, 2] < bounds[:, 3])
    # per Gaussian, as (G, 1, 1, 1) columns: mean, quadratic-form coefficients (2 * inv01 premultiplied), opacity
    mx, my, a, b, c, opacity = np.stack([
        mean_x, mean_y, inverses[:, 0, 0], 2.0 * inverses[:, 0, 1], inverses[:, 1, 1], cloud.opacities[order],
    ])[:, hit, None, None, None]
    x0, x1, y0, y1 = bounds[hit].astype(int).T
    boxes = list(zip(y0.tolist(), y1.tolist(), x0.tolist(), x1.tolist(), cloud.colors[order[hit]]))
    starts, rows, cols = [], 0, 0  # blocks of consecutive footprints, padded to at most BLOCK_PIXELS pixels
    for g, (ya, yb, xa, xb, _) in enumerate(boxes):
        rows, cols = max(rows, yb - ya), max(cols, xb - xa)
        if not starts or (g + 1 - starts[-1]) * rows * cols > BLOCK_PIXELS:
            starts.append(g)
            rows, cols = yb - ya, xb - xa
    for s, e in zip(starts, starts[1:] + [len(boxes)]):
        # pixel-centre offsets (i + 0.5 - mean) on each box, padded to the block's largest rows and columns
        dx = x0[s:e, None, None, None] + np.arange((x1 - x0)[s:e].max())[:, None] + 0.5 - mx[s:e]
        dy = y0[s:e, None, None, None] + np.arange((y1 - y0)[s:e].max())[:, None, None] + 0.5 - my[s:e]
        qform = a[s:e] * dx**2 + b[s:e] * dy * dx + c[s:e] * dy**2
        alpha = np.minimum(opacity[s:e] * np.exp(-0.5 * qform), ALPHA_MAX)
        passed = 1.0 - alpha
        for k, (ya, yb, xa, xb, color) in enumerate(boxes[s:e]):
            t_patch = transmittance[ya:yb, xa:xb]
            patch = image[ya:yb, xa:xb]
            patch += t_patch * alpha[k, :yb - ya, :xb - xa] * color
            t_patch *= passed[k, :yb - ya, :xb - xa]
    return np.clip(image, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Metrics


def _check_dims(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"image dimension mismatch: {a.shape} vs {b.shape}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 * log10(1 / MSE) over all channels, capped at 99 dB."""
    _check_dims(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def _ssim_window() -> np.ndarray:
    """The normalized 1-D Gaussian taps; their outer product is the 2-D window."""
    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Windowed SSIM (11x11 Gaussian window, sigma 1.5), mean over windows
    and channels; valid windows only."""
    _check_dims(a, b)
    if min(a.shape[:2]) < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}-pixel SSIM window")
    g = _ssim_window()
    x, y = np.moveaxis(a, 2, 0), np.moveaxis(b, 2, 0)  # (3, H, W)
    moments = np.stack([x, y, x * x, y * y, x * y])
    for _ in range(2):  # filter along rows, then (axes swapped) along columns
        moments = np.swapaxes(sliding_window_view(moments, SSIM_WINDOW, axis=-1) @ g, -1, -2)
    mu_x, mu_y, mu_xx, mu_yy, mu_xy = moments  # (3, H - 10, W - 10) each
    var_x = mu_xx - mu_x**2
    var_y = mu_yy - mu_y**2
    cov = mu_xy - mu_x * mu_y
    s = ((2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (mu_x**2 + mu_y**2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
    )
    return float(np.mean(s.mean(axis=(1, 2))))


def dssim_of(ssim_value: float) -> float:
    """Structural dissimilarity (1 - SSIM) / 2 from an SSIM value."""
    return (1.0 - ssim_value) / 2.0


# ---------------------------------------------------------------------------
# PPM (P6) I/O — bit-exact: max value 255, round half up from [0, 1]


def write_ppm(image: np.ndarray, path) -> None:
    data = np.floor(image * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P6":
            raise ValueError(f"{path}: not a binary PPM (P6) file")
        dims = f.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError(f"{path}: unsupported max value {maxval}")
        data = np.frombuffer(f.read(w * h * 3), dtype=np.uint8).reshape(h, w, 3)
    return data.astype(float) / 255.0
