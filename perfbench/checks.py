"""Output checks, each against a computation made apart from gsdyn.

Every check reads what the program wrote (scene JSON, trajectory CSV,
metrics CSV, PPM frames) with its own parser, or drives gsdyn only through
public functions (``train.load_checkpoint``, ``integrate.anchor_aware_rollout``,
``NeuralVelocityField.forward`` / ``backward`` / ``parameters``), and compares
the result with a closed form or a numpy recomputation.  A check returns a
:class:`Check`; ``selftest.py`` shows that each one fails on a perturbed
output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate as sp_integrate


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    measured: float
    limit: float

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.measured:.3g} (limit {self.limit:.3g})"


def at_most(name, measured, limit):
    measured = float(measured)
    return Check(name, bool(np.isfinite(measured) and measured <= limit), measured, float(limit))


def below(name, measured, limit):
    measured = float(measured)
    return Check(name, bool(np.isfinite(measured) and measured < limit), measured, float(limit))


# ---------------------------------------------------------------------------
# readers that do not go through gsdyn


def read_scene(path):
    """(initial positions (N, 3), frame times (F,), frame positions (F, N, 3))."""
    with open(path) as f:
        doc = json.load(f)
    p0 = np.array([g["position"] for g in doc["gaussians"]], dtype=float)
    traj = doc["trajectories"]
    return p0, np.array(traj["times"], dtype=float), np.array(traj["positions"], dtype=float)


def read_trajectory(path):
    """(times (F,), positions (F, N, 3)) from a frame_index,time,gaussian_index,x,y,z CSV."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    data = np.array([[float(v) for v in r] for r in rows])
    frames = int(data[:, 0].max()) + 1
    n = int(data[:, 2].max()) + 1
    positions = np.full((frames, n, 3), np.nan)
    positions[data[:, 0].astype(int), data[:, 2].astype(int)] = data[:, 3:6]
    times = np.full(frames, np.nan)
    times[data[:, 0].astype(int)] = data[:, 1]
    return times, positions


def read_metrics(path):
    """(header, per-frame rows as float arrays) of an eval metrics.csv."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:-1]  # the last row holds the means
    return header, [np.array([float(v) for v in r[3:]]) for r in body]


def read_ppm(path):
    with open(path, "rb") as f:
        blob = f.read()
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P6" or int(maxval) != 255 or len(pixels) != w * h * 3:
        raise ValueError(f"{path}: malformed P6 file")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# closed forms


def vortex_positions(p0, times, omega, k, u0):
    """Independent solution of gsdyn's vortex field.

    In x and y the motion is a rotation by omega * t with the radius decaying
    as exp(-k t).  In z it is z0 plus the integral over s in [0, t] of
    u0 * exp(-r0^2 exp(-2 k s)), taken by ``scipy.integrate.quad``.
    """
    times = np.asarray(times, dtype=float)
    x0, y0, z0 = p0[:, 0], p0[:, 1], p0[:, 2]
    out = np.empty((len(times), len(p0), 3))
    decay = np.exp(-k * times)[:, None]
    c, s = np.cos(omega * times)[:, None], np.sin(omega * times)[:, None]
    out[:, :, 0] = decay * (c * x0 - s * y0)
    out[:, :, 1] = decay * (s * x0 + c * y0)
    r2 = x0**2 + y0**2
    for i in range(len(p0)):
        z, prev = z0[i], times[0]
        for fi, t in enumerate(times):
            if t > prev:
                z += sp_integrate.quad(
                    lambda s_, r2i=r2[i]: u0 * np.exp(-r2i * np.exp(-2.0 * k * s_)), prev, t,
                    epsabs=1e-14, epsrel=1e-13,
                )[0]
                prev = t
            out[fi, i, 2] = z
    return out


def spin_positions(p0, times, center, omega):
    """Rotation about the vertical axis through ``center`` by omega * t."""
    d = p0[:, :2] - np.asarray(center[:2])
    out = np.repeat(p0[None, :, :], len(times), axis=0)
    for fi, t in enumerate(times):
        c, s = np.cos(omega * t), np.sin(omega * t)
        out[fi, :, 0] = center[0] + c * d[:, 0] - s * d[:, 1]
        out[fi, :, 1] = center[1] + s * d[:, 0] + c * d[:, 1]
    return out


def mean_error(a, b):
    """Mean over frames and Gaussians of the Euclidean position error."""
    return float(np.mean(np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)))


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


# ---------------------------------------------------------------------------
# checks shared by the workloads


def frames_match(name, scene_path, closed_form, tol=1e-9):
    """Generated ground-truth frames equal a closed form within ``tol``."""
    p0, times, positions = read_scene(scene_path)
    return at_most(name, max_abs(positions, closed_form(p0, times)), tol)


def held_out_predictions(checkpoint, frame_times):
    """anchor_aware_rollout of a checkpoint at every frame time it did not supervise.

    Returns (held-out times, predicted (F, N, 3), anchor times, anchor positions).
    """
    from gsdyn import integrate, train

    field, anchors, meta = train.load_checkpoint(checkpoint)
    supervised = np.array(meta["extra"]["supervised_times"])
    held = [t for t in frame_times if np.min(np.abs(supervised - t)) > 1e-9]
    config = integrate.IntegratorConfig(step_count=100)
    pred = np.stack([integrate.anchor_aware_rollout(anchors, t, config, field).positions for t in held])
    anchor_times = np.array([a.time for a in anchors])
    anchor_positions = np.stack([a.cloud.positions for a in anchors])
    return np.array(held), pred, anchor_times, anchor_positions


def hold_still(held_times, anchor_times, anchor_positions):
    """Baseline prediction: the nearest past anchor, not moved."""
    idx = [int(np.max(np.nonzero(anchor_times <= t + 1e-12)[0])) for t in held_times]
    return anchor_positions[idx]


def trajectory_output(name, csv_path, p0, t0, t1, frames):
    """A simulate trajectory starts exactly at the scene's positions on the requested time lattice."""
    times, positions = read_trajectory(csv_path)
    want_t = np.linspace(t0, t1, frames)
    if positions.shape != (frames, len(p0), 3):
        return Check(name, False, float("nan"), 0.0)
    dev = max(max_abs(times, want_t), max_abs(positions[0], p0))
    ok = dev <= 1e-12 and bool(np.all(np.isfinite(positions)))
    return Check(name, ok, dev, 1e-12)


def frames_written(name, frame_dir, count):
    """``count`` P6 frames, each with something drawn on it."""
    paths = sorted(Path(frame_dir).glob("frame_*.ppm"))
    drawn = sum(int(read_ppm(p).max() > 0) for p in paths)
    return Check(name, len(paths) == count and drawn == count, float(drawn), float(count))


def gradient_check(name, checkpoint, rows, seed=0, h=1e-6):
    """NeuralVelocityField.backward against central differences of forward.

    The scalar is <upstream, forward(x, t)> for a fixed random upstream, and
    the relative error is |analytic - fd| / max(|fd|, 1e-3), as in the
    acceptance gradient check.  The scalar is linear in the grid planes and
    smooth in the MLP weights, so sampled entries of every parameter group
    are compared directly.  In position it is smooth only inside a bilinear
    cell: a coordinate whose differences at h and 10h disagree has a cell
    edge within 10h and is skipped, and at least three quarters of the
    position coordinates must be compared.
    """
    from gsdyn import train

    field, _, _ = train.load_checkpoint(checkpoint)
    rng = np.random.default_rng(seed)
    x = np.array(rows, dtype=float)
    t = 0.37
    out, cache = field.forward(x, t, want_cache=True)
    up = rng.standard_normal(out.shape)
    param_grads, g_pos = field.backward(cache, up)

    def central(arr, j, step):
        orig = arr[j]
        arr[j] = orig + step
        hi = float(np.sum(up * field.forward(x, t)))
        arr[j] = orig - step
        lo = float(np.sum(up * field.forward(x, t)))
        arr[j] = orig
        return (hi - lo) / (2 * step)

    worst = 0.0
    for p, g in zip(field.parameters(), param_grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        touched = np.flatnonzero(flat_g)
        for j in rng.choice(touched, size=min(4, len(touched)), replace=False):
            fd = central(flat_p, j, h)
            worst = max(worst, abs(flat_g[j] - fd) / max(abs(fd), 1e-3))
    flat_x, flat_gx = x.reshape(-1), g_pos.reshape(-1)
    compared = 0
    for j in range(flat_x.size):
        fd = central(flat_x, j, h)
        if abs(fd - central(flat_x, j, 10 * h)) > 1e-5 * max(abs(fd), 1e-3):
            continue
        compared += 1
        worst = max(worst, abs(flat_gx[j] - fd) / max(abs(fd), 1e-3))
    if compared < 0.75 * flat_x.size:
        return Check(name, False, float("nan"), 1e-4)
    return below(name, worst, 1e-4)
