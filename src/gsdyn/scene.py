"""Core scene types: Gaussian clouds, cameras, neighbor queries, file I/O.

A cloud stores its primitives struct-of-arrays, one array per attribute with
one row per Gaussian, and every operation on it is vectorized over the rows;
there is no per-primitive type.  All types are immutable values: evolving a
scene means constructing a new cloud, so clouds are safe to share read-only
across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np


QUAT_NORM_TOL = 1e-6


class SceneError(Exception):
    """Base class for scene file problems."""


class SceneParseError(SceneError):
    """Raised when a scene file cannot be parsed against the schema."""


class SceneValidationError(SceneError):
    """Raised when a parsed scene violates a state invariant.

    The message names the offending field and index.
    """


def _vec(x, n, name):
    a = np.asarray(x, dtype=float)
    if a.shape != (n,):
        raise SceneValidationError(f"{name}: expected {n}-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SceneValidationError(f"{name}: non-finite value")
    return a


@dataclass(frozen=True)
class GaussianCloud:
    """An ordered set of Gaussian primitives at one normalized time in [0, 1].

    Index i refers to the same primitive across all times; every evolution
    operation preserves length and ordering.
    """

    positions: np.ndarray  # (N, 3)
    rotations: np.ndarray  # (N, 4)
    log_scales: np.ndarray  # (N, 3)
    colors: np.ndarray  # (N, 3)
    opacities: np.ndarray  # (N,)
    time: float = 0.0

    def __len__(self) -> int:
        return self.positions.shape[0]

    def validate(self) -> "GaussianCloud":
        """Check every row; the error names the first bad row and, within it,
        the first bad attribute in the order position, rotation, log_scale,
        color, opacity."""
        def nonfinite(a):
            return ~np.isfinite(a).all(axis=1)

        with np.errstate(over="ignore"):
            checks = (
                ("position", nonfinite(self.positions), "non-finite value"),
                ("rotation", nonfinite(self.rotations), "non-finite value"),
                ("rotation", np.abs(np.linalg.norm(self.rotations, axis=1) - 1.0) > QUAT_NORM_TOL,
                 f"quaternion norm not within {QUAT_NORM_TOL} of 1"),
                ("log_scale", nonfinite(self.log_scales), "non-finite value"),
                ("log_scale", nonfinite(np.exp(self.log_scales)), "exp overflows"),
                ("color", nonfinite(self.colors), "non-finite value"),
                ("color", ((self.colors < 0) | (self.colors > 1)).any(axis=1), "component outside [0, 1]"),
                ("opacity", ~((self.opacities >= 0.0) & (self.opacities <= 1.0)), None),
            )
        bad = np.stack([mask for _, mask, _ in checks], axis=1)  # (N, checks)
        if bad.any():
            i, c = divmod(int(np.argmax(bad)), len(checks))  # row-major: first row, then first check
            name, _, message = checks[c]
            if message is None:
                message = f"value {float(self.opacities[i])} outside [0, 1]"
            raise SceneValidationError(f"gaussians[{i}].{name}: {message}")
        if not (0.0 <= self.time <= 1.0):
            raise SceneValidationError(f"time: value {self.time} outside [0, 1]")
        return self

    def with_positions(self, positions, rotations=None, log_scales=None, time=None) -> "GaussianCloud":
        """This cloud with the given state arrays; what is None stays as it is."""
        return replace(
            self,
            positions=np.asarray(positions, dtype=float),
            rotations=self.rotations if rotations is None else np.asarray(rotations, dtype=float),
            log_scales=self.log_scales if log_scales is None else np.asarray(log_scales, dtype=float),
            time=self.time if time is None else time,
        )


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole camera for evaluation rendering."""

    eye: np.ndarray
    look_at: np.ndarray
    up: np.ndarray
    vertical_fov: float  # radians
    width: int
    height: int
    near: float = 1e-3

    def validate(self, name: str = "camera") -> "CameraSpec":
        eye = _vec(self.eye, 3, f"{name}.eye")
        at = _vec(self.look_at, 3, f"{name}.look_at")
        up = _vec(self.up, 3, f"{name}.up")
        fwd = at - eye
        if np.linalg.norm(fwd) == 0:
            raise SceneValidationError(f"{name}.look_at: coincides with eye")
        if np.linalg.norm(np.cross(fwd, up)) < 1e-12:
            raise SceneValidationError(f"{name}.up: parallel to viewing direction")
        if not (0.0 < self.vertical_fov < np.pi):
            raise SceneValidationError(f"{name}.vertical_fov: outside (0, pi)")
        if self.width <= 0 or self.height <= 0:
            raise SceneValidationError(f"{name}: non-positive image dimensions")
        if self.near <= 0:
            raise SceneValidationError(f"{name}.near: must be > 0")
        return self


@dataclass(frozen=True)
class SceneData:
    """A loaded scene file: cloud plus optional supervision and cameras."""

    cloud: GaussianCloud
    cameras: list = field(default_factory=list)
    trajectory_times: np.ndarray = None  # (F,)
    trajectory_positions: np.ndarray = None  # (F, N, 3)

    @property
    def has_trajectories(self) -> bool:
        return self.trajectory_times is not None


_ROW_VECTORS = (("position", 3), ("rotation", 4), ("log_scale", 3), ("color", 3))  # JSON keys and widths


def load_scene(path) -> SceneData:
    """Load and validate a JSON scene file.

    Raises :class:`SceneParseError` on malformed files and
    :class:`SceneValidationError` on invariant violations; both name the
    offending field and index.  Keys it does not read, such as the
    ``bounds`` box that older files carry, are ignored.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SceneParseError(f"cannot parse scene file {path}: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("gaussians"), list):
        raise SceneParseError("scene file must be an object with a 'gaussians' list")
    if not isinstance(doc.get("cameras", []), list):
        raise SceneParseError("cameras: expected a list of cameras")
    if not doc["gaussians"]:
        raise SceneValidationError("gaussians: the scene holds no Gaussian")

    columns = {name: [] for name, _ in _ROW_VECTORS}
    opacities = []
    for i, g in enumerate(doc["gaussians"]):
        try:
            row = [np.asarray(g[name], dtype=float) for name, _ in _ROW_VECTORS]
            opacities.append(float(g["opacity"]))
        except (KeyError, TypeError, ValueError) as e:
            raise SceneParseError(f"gaussians[{i}]: {e}") from e
        for (name, width), a in zip(_ROW_VECTORS, row):
            if a.shape != (width,):
                raise SceneValidationError(f"gaussians[{i}].{name}: expected {width}-vector, got shape {a.shape}")
            columns[name].append(a)
    arrays = {name: np.array(columns[name], dtype=float) for name, _ in _ROW_VECTORS}

    try:
        time = float(doc.get("time", 0.0))
    except (TypeError, ValueError) as e:
        raise SceneParseError(f"time: {e}") from e
    cloud = GaussianCloud(
        positions=arrays["position"],
        rotations=arrays["rotation"],
        log_scales=arrays["log_scale"],
        colors=arrays["color"],
        opacities=np.array(opacities, dtype=float),
        time=time,
    ).validate()

    cameras = []
    for i, c in enumerate(doc.get("cameras", [])):
        try:
            cam = CameraSpec(
                eye=np.asarray(c["eye"], dtype=float),
                look_at=np.asarray(c["look_at"], dtype=float),
                up=np.asarray(c["up"], dtype=float),
                vertical_fov=float(c["vertical_fov"]),
                width=int(c["width"]),
                height=int(c["height"]),
                near=float(c.get("near", 1e-3)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: an infinite size
            raise SceneParseError(f"cameras[{i}]: {e}") from e
        cameras.append(cam.validate(name=f"cameras[{i}]"))

    times = positions = None
    if "trajectories" in doc and doc["trajectories"] is not None:
        traj = doc["trajectories"]
        try:
            times = np.asarray(traj["times"], dtype=float)
            positions = np.asarray(traj["positions"], dtype=float)
        except (KeyError, TypeError, ValueError) as e:
            raise SceneParseError(f"trajectories: {e}") from e
        if times.ndim != 1:
            raise SceneValidationError(f"trajectories.times: expected a list of times, got shape {times.shape}")
        if positions.ndim != 3 or positions.shape[0] != times.shape[0] or positions.shape[1] != len(cloud) or positions.shape[2] != 3:
            raise SceneValidationError(
                f"trajectories.positions: shape {positions.shape} does not match "
                f"{times.shape[0]} frames x {len(cloud)} gaussians x 3"
            )
        bad = ~((times >= 0.0) & (times <= 1.0))  # NaN fails both comparisons
        if bad.any():
            i = int(np.argmax(bad))
            raise SceneValidationError(f"trajectories.times[{i}]: value {times[i]} is not a time in [0, 1]")
        bad = np.diff(times) <= 0.0
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise SceneValidationError(f"trajectories.times[{i}]: {times[i]} does not exceed the time before it")
        if not np.isfinite(positions).all():
            f, g = np.argwhere(~np.isfinite(positions))[0][:2]
            raise SceneValidationError(f"trajectories.positions: non-finite value in frame {f}, gaussian {g}")

    return SceneData(
        cloud=cloud,
        cameras=cameras,
        trajectory_times=times,
        trajectory_positions=positions,
    )


def save_scene(scene: SceneData, path) -> None:
    """Write a SceneData back to the JSON schema read by :func:`load_scene`.

    Floats are serialized at full repr precision so a round trip reproduces
    the cloud to better than 1e-12 (bitwise, in practice).  The document is
    written on one line: ``indent`` and ``json.dump`` to a file both select
    the json module's pure-Python encoder, which takes about two and a half
    times as long as its C encoder on a scene's trajectory lists.  The
    loader reads indented files of the same schema to the same bits.
    """
    cloud = scene.cloud
    keys = [name for name, _ in _ROW_VECTORS] + ["opacity"]
    rows = zip(*(a.tolist() for a in (cloud.positions, cloud.rotations, cloud.log_scales, cloud.colors,
                                       cloud.opacities)))
    doc = {
        "time": cloud.time,
        "gaussians": [dict(zip(keys, row)) for row in rows],
        "cameras": [
            {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in vars(c).items()}
            for c in scene.cameras
        ],
    }
    if scene.has_trajectories:
        doc["trajectories"] = {
            "times": scene.trajectory_times.tolist(),
            "positions": scene.trajectory_positions.tolist(),
        }
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")


KNN_BLOCK = 256  # rows of the distance array that knn holds at once


def knn(cloud: GaussianCloud, k: int) -> np.ndarray:
    """K nearest neighbors of every Gaussian by squared position distance.

    Returns an (N, k) int array.  Self is excluded; ties break toward the
    lower index.  The search is exact and goes through the rows in blocks
    of KNN_BLOCK, each against the whole cloud: a row's k-th smallest
    distance is found by partition, and the candidates at or under it are
    ordered by (distance, index).
    """
    n = len(cloud)
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than cloud size {n}")
    p = cloud.positions
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, KNN_BLOCK):
        block = slice(start, min(start + KNN_BLOCK, n))
        d2 = np.sum((p[block, None, :] - p[None, :, :]) ** 2, axis=-1)
        rows = np.arange(len(d2))
        d2[rows, rows + start] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        r, c = np.nonzero(d2 <= kth)  # row-major: each row's candidates in one run
        c = c[np.lexsort((c, d2[r, c], r))]
        counts = np.bincount(r, minlength=len(d2))
        out[block] = c[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return out


def export_trajectory_csv(times, positions, path) -> None:
    """Write a trajectory as CSV rows (frame_index, time, gaussian_index, x, y, z).

    Floats are written with ``repr``, so a read returns the same bits; lines
    end with ``\\r\\n`` as ``csv.writer`` ends them.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    lines = ["frame_index,time,gaussian_index,x,y,z"]
    for fi, (t, frame) in enumerate(zip(times.tolist(), positions.tolist())):
        prefix = f"{fi},{t!r},"
        lines.extend(f"{prefix}{gi},{x!r},{y!r},{z!r}" for gi, (x, y, z) in enumerate(frame))
    lines.append("")
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines))


def import_trajectory_csv(path):
    """Read a trajectory CSV written by :func:`export_trajectory_csv`, one row per (frame, Gaussian) pair;
    returns (times (F,), positions (F, N, 3))."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        if next(r, [])[:3] != ["frame_index", "time", "gaussian_index"]:
            raise SceneParseError(f"unexpected trajectory CSV header in {path}")
        rows = []
        for row in r:
            if len(row) < 6:
                raise SceneParseError(f"{path}, line {r.line_num}: expected 6 columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise SceneParseError(f"empty trajectory CSV {path}")
    # numpy converts each str with Python's int() and float(): same values, same errors
    columns = list(zip(*rows))
    try:
        fi, gi = np.array(columns[0], dtype=int), np.array(columns[2], dtype=int)
        row_times, xyz = np.array(columns[1], dtype=float), np.array(columns[3:6], dtype=float).T
    except (ValueError, OverflowError) as e:  # OverflowError: an index beyond int64
        raise SceneParseError(f"{path}: {e}") from e
    if not (np.isfinite(row_times).all() and np.isfinite(xyz).all()):
        raise SceneParseError(f"{path}: a time or position is not finite")
    n_frames, n_gaussians = int(fi.max()) + 1, int(gi.max()) + 1
    # the row count is checked first, so a stray huge index cannot size the bincount
    if (min(fi.min(), gi.min()) < 0 or len(rows) != n_frames * n_gaussians
            or np.any(np.bincount(fi * n_gaussians + gi) != 1)):
        raise SceneParseError(f"{path}: need one row for each of {n_frames} frames x {n_gaussians} gaussians; "
                              f"an index is negative, or a pair is missing or repeated")
    times = np.zeros(n_frames)
    positions = np.zeros((n_frames, n_gaussians, 3))
    times[fi] = row_times
    if not np.array_equal(times[fi], row_times, equal_nan=True):
        raise SceneParseError(f"{path}: the rows of a frame disagree on its time")
    positions[fi, gi] = xyz
    return times, positions
