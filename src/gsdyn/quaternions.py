"""Unit-quaternion helpers for rotation integration.

Quaternions are stored as (w, x, y, z) numpy arrays.  Rotational motion is
parameterized by angular-velocity 3-vectors applied through the exponential
map, which keeps the representation drift-free under repeated updates.
"""

import numpy as np


def normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def multiply(a, b):
    """Hamilton product a*b, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def exp_map(v):
    """Map a rotation 3-vector (axis * angle) to a unit quaternion.

    Uses the sinc-stable small-angle expansion so gradients and values are
    finite at v = 0.
    """
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    half = 0.5 * theta
    small = theta < 1e-8
    # sin(half)/theta with series fallback near zero
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 0.5 - theta**2 / 48.0, np.sin(half) / np.where(theta == 0, 1.0, theta))
    w = np.cos(half)
    xyz = k * v
    return np.concatenate([w, xyz], axis=-1)


def to_matrix(q):
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
        ],
        axis=-2,
    )


def apply_increment(q, delta_v):
    """Left-multiply q by the exponential of tangent increment delta_v, renormalized."""
    return normalize(multiply(exp_map(delta_v), q))
