"""Loss assembly, gradients through unrolled integration, and the training loop.

Training supervises Gaussian-center trajectories at sparse frames (the
rasterizer is evaluation-only).  The total objective is

    total = data + lambda_coh * coherence + lambda_anchor * anchor + lambda_tv * tv

Gradients are exact reverse-mode derivatives of the discrete computation
graph (discretize-then-differentiate, no adjoint ODE).  The training plan
cuts each segment into legs between its supervised frames, built by
:func:`integrate.legs_between` as for anchored queries.  The coherence term
is a one-step leg of COHERENCE_STEP from the canonical cloud.
:func:`unroll_segment` records every RK4 stage of its legs on a tape, a
list of one ``NeuralVelocityField.new_cache`` per stage, that
:func:`backward_through_rollout` replays in reverse along the same legs.
A stage holds what the backward pass cannot cheaply rebuild, 1,240 B a row at
(64, 64): the query, its grid corners and the MLP's hidden-layer outputs; the
MLP's input and the corners' clamp slopes are rebuilt from the first two.
:func:`fit` refills one tape, as long as its longest segment, for every
segment, the coherence leg and every epoch, so only one segment's record is
alive at a time.  The differentiable state per Gaussian is (position,
rotation-tangent, log-scale increment); the tangent channels accumulate
linearly, so the anchor loss in tangent space stays an exact quadratic.
The field's parameters are one vector, ``field.theta``; the gradients of an
epoch and Adam's two moments are vectors with its layout, so an Adam step
is a few whole-vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import arrayio, feature_grid
from .anchors import AnchorSet, state_deviation
from .fields import TIME_FREQUENCIES, NeuralVelocityField, VelocityField, mlp_sizes
from .integrate import RK4_NODES, RK4_WEIGHTS, legs_between, rk4_increments
from .scene import GaussianCloud, SceneData, knn

COHERENCE_EPS = 1e-8  # the unspecified denominator epsilon
COHERENCE_STEP = 0.02  # length of the one RK4 step the coherence term looks ahead
COHERENCE_BATCH = 256  # clouds larger than this score a random subset of rows per epoch
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainingConfig:
    lambda_coh: float = 0.01
    lambda_anchor: float = 0.1
    lambda_tv: float = 1e-4
    learning_rate: float = 5e-3
    epochs: int = 1500
    frame_stride: int = 1  # train on every k-th frame
    train_fraction: float = 1.0  # supervise only frames with t <= fraction
    knn_k: int = 8
    coherence_variant: str = "relative"  # "literal" or "relative"
    seed: int = 0
    steps_per_unit: int = 32  # steps per unit time of every leg (integrate.span_steps)
    hidden: tuple = (64, 64)
    grid_spatial_resolution: int = 32
    grid_time_resolution: int = 16
    grid_channels: int = 8

    def __post_init__(self):
        if min(self.lambda_coh, self.lambda_anchor, self.lambda_tv) < 0:
            raise ValueError("loss weights must be nonnegative")
        if not (0.0 < self.train_fraction <= 1.0):
            raise ValueError("train_fraction must be in (0, 1]")
        if self.frame_stride < 1:
            raise ValueError("frame_stride must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.coherence_variant not in ("literal", "relative"):
            raise ValueError(f"unknown coherence variant {self.coherence_variant!r}")


@dataclass(frozen=True)
class LossReport:
    total: float
    data: float
    coherence: float
    anchor: float
    tv: float
    epoch: int = 0


def total_loss(data: float, coherence: float, anchor: float, tv: float, config: TrainingConfig) -> LossReport:
    """The four terms and their weighted sum, ``total``."""
    for name, v in (("data", data), ("coherence", coherence), ("anchor", anchor), ("tv", tv)):
        if not math.isfinite(v):
            raise TrainingError(f"non-finite loss term: {name}")
    total = data + config.lambda_coh * coherence + config.lambda_anchor * anchor + config.lambda_tv * tv
    return LossReport(total=total, data=data, coherence=coherence, anchor=anchor, tv=tv)


def adam_step(field: NeuralVelocityField, grads, moments, config: TrainingConfig, step_index: int):
    """Standard bias-corrected Adam update of ``field.theta``, in place.

    grads is a vector laid out like theta, and moments is (m, v), two such
    vectors; pass None on the first call.  A non-finite gradient raises
    :class:`TrainingError`, naming its parameter group, before theta
    changes.  Returns the moments.
    """
    theta = field.theta
    if grads.shape != theta.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape} vs grad {grads.shape}")
    if not np.all(np.isfinite(grads)):
        first = np.flatnonzero(~np.isfinite(grads))[0]
        raise TrainingError(f"non-finite gradient in parameter group {field.group_of(first)}")
    if moments is None:
        moments = (np.zeros_like(theta), np.zeros_like(theta))
    m, v = moments
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grads**2
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index
    theta -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return moments


# ---------------------------------------------------------------------------
# Differentiable unrolled integration (neural field only)

def _backward_rk4_step(field: NeuralVelocityField, caches, h, g_p, g_theta, g_scale, grads):
    """Reverse one RK4 step of size h recorded in the four stage ``caches``:
    upstream (g_p, g_theta, g_scale) on the step's outputs -> gradient on
    the step's input position; params accumulate into ``grads``.
    Tangent/scale gradients pass through unchanged (linear accumulation)."""
    g_p_total = g_p.copy()
    g_next = None  # gradient on the input position of stage i + 1
    for i in range(3, -1, -1):
        w6 = h * RK4_WEIGHTS[i] / 6.0
        u_k = w6 * g_p
        if i < 3:
            u_k = u_k + RK4_NODES[i + 1] * h * g_next  # stage i + 1 starts at p + c h k_i
        upstream = np.concatenate([u_k, w6 * g_theta, w6 * g_scale], axis=1)
        _, g_next = field.backward(caches[i], upstream, grads)
        g_p_total += g_next
    return g_p_total


def unroll_segment(field: NeuralVelocityField, p0, legs, tape=None):
    """Integrate positions from p0 along ``legs``, integrate legs (t0, h,
    steps) with a checkpoint at the end of each.

    Returns (checkpoints, tape) where checkpoints is a list of (positions,
    rotation-tangents, scale-increments) at each checkpoint; tangents and
    increments are relative to p0.  The tape is a list of
    ``field.new_cache`` buffers, one per RK4 stage in step order, each
    holding the stage's query, grid corners and hidden-layer outputs: ``tape``
    refilled in place from its first stage, or a new list when None.  A
    tape grows only when the legs take more stages than it holds, and is
    emptied first when its buffers hold another row count, so one tape
    serves every segment, the coherence leg and every epoch of a fit.
    """
    p = np.asarray(p0, dtype=float)
    n = p.shape[0]
    tape = [] if tape is None else tape
    if tape and len(tape[0].positions) != n:
        tape.clear()
    theta = np.zeros((n, 3))
    scale = np.zeros((n, 3))
    first = 0
    checkpoints = []
    for t0, h, steps in legs:
        for s in steps:
            stop = first + len(RK4_NODES)
            while len(tape) < stop:
                tape.append(field.new_cache(n))
            dp, dtheta, dscale = rk4_increments(field, p, None, t0 + s * h, h, s, tape=tape[first:stop])
            first = stop
            p = p + dp
            theta = theta + dtheta
            scale = scale + dscale
        checkpoints.append((p.copy(), theta.copy(), scale.copy()))
    return checkpoints, tape


def backward_through_rollout(field: NeuralVelocityField, tape, legs, checkpoint_grads, grads=None):
    """Exact reverse-mode gradients through an unrolled segment.

    tape and legs are those of the :func:`unroll_segment` call to reverse;
    checkpoint_grads aligns with its checkpoints, one per leg, and each
    entry is (g_position, g_tangent, g_scale) or None.  Returns parameter
    gradients aligned with ``field.parameters()`` (accumulated into
    ``grads`` when given), a vector laid out like ``field.theta``.
    """
    if len(checkpoint_grads) != len(legs):
        raise TrainingError(f"legs hold {len(legs)} checkpoints, got {len(checkpoint_grads)} gradients")
    if grads is None:
        grads = field.zero_grads()
    n = len(tape[0].positions)
    g_p = np.zeros((n, 3))
    g_theta = np.zeros((n, 3))
    g_scale = np.zeros((n, 3))
    first = len(RK4_NODES) * sum(len(steps) for _, _, steps in legs)
    for (_, h, steps), ck in zip(reversed(legs), reversed(checkpoint_grads)):
        for acc, g in zip((g_p, g_theta, g_scale), ck or ()):
            if g is not None:
                acc += g
        for _ in steps:
            first -= len(RK4_NODES)
            stages = tape[first : first + len(RK4_NODES)]
            g_p = _backward_rk4_step(field, stages, h, g_p, g_theta, g_scale, grads)
    return grads


# ---------------------------------------------------------------------------
# Coherence regularizer


def _pair_weights(positions, neighbors):
    """(N, k) distance weights w_ij = exp(-||x_i - x_j|| / sigma), sigma = mean/2."""
    d_all = np.linalg.norm(positions[:, None, :] - positions[neighbors], axis=-1)
    mean_d = float(d_all.mean())
    if mean_d == 0.0:
        raise TrainingError("coincident points: sigma degenerates to 0")
    return np.exp(-d_all / (0.5 * mean_d))


def coherence_loss(
    cloud: GaussianCloud,
    neighbors: np.ndarray,
    field: VelocityField,
    h: float,
    variant: str = "literal",
) -> float:
    """Distance-weighted penalty on neighbor positions after one RK4 step.

    Second-order fields start the step at rest (zero auxiliary velocity) and
    carry the auxiliary velocity through the stages, as a rollout does.
    literal: sum w_ij * ||xh_i - xh_j||^2 / (sum w_ij + eps), exactly the
    displayed form (nonzero even for a static scene).  relative: the
    numerator compares post-step neighbor offsets against the canonical
    offsets, so any uniform translation scores zero.
    """
    if h <= 0:
        raise ValueError("coherence step h must be positive")
    p, neighbors = cloud.positions, np.asarray(neighbors)
    xh = p + rk4_increments(field, p, np.zeros_like(p), cloud.time, h)[0]
    return _coherence(p, xh, neighbors, _pair_weights(p, neighbors), variant)[0]


def _coherence(p, xh, neighbors, weights, variant, rows=None):
    """Coherence value over the given rows (all by default) and its gradient
    w.r.t. the post-step positions xh; weights are every row's
    :func:`_pair_weights`.  Returns (value, g_xh)."""
    if rows is None:
        rows = np.arange(p.shape[0])
    w = weights[rows]
    nb = neighbors[rows]
    diff = xh[rows][:, None, :] - xh[nb]
    if variant == "relative":
        diff = diff - (p[rows][:, None, :] - p[nb])
    elif variant != "literal":
        raise ValueError(f"unknown coherence variant {variant!r}")
    den = float(np.sum(w)) + COHERENCE_EPS
    g = np.zeros_like(xh)
    contrib = 2.0 * w[:, :, None] * diff / den
    np.add.at(g, rows, contrib.sum(axis=1))
    np.add.at(g, nb, -contrib)
    return float(np.sum(w * np.sum(diff**2, axis=-1))) / den, g


# ---------------------------------------------------------------------------
# Training plan and loop


@dataclass
class _Segment:
    p_start: np.ndarray  # (N, 3) ground-truth anchor positions
    legs: list  # integrate legs (t0, h, steps), one per checkpoint
    data_targets: list  # (N, 3) per checkpoint
    anchor_end: list  # bool per checkpoint


@dataclass
class _Plan:
    cloud: GaussianCloud
    segments: list
    anchors: AnchorSet  # ground-truth clouds at the anchor frames
    supervised_times: np.ndarray
    neighbors: np.ndarray  # (N, k) coherence graph of the canonical cloud
    weights: np.ndarray  # (N, k) its _pair_weights, fixed for the fit


@dataclass
class FitResult:
    field: NeuralVelocityField
    anchors: AnchorSet
    history: list
    supervised_times: np.ndarray


def _build_plan(scene: SceneData, config: TrainingConfig) -> _Plan:
    if not scene.has_trajectories:
        raise TrainingError("scene provides no ground-truth trajectories")
    times = scene.trajectory_times
    keep = np.arange(0, len(times), config.frame_stride)
    keep = keep[times[keep] <= config.train_fraction + 1e-12]
    if len(keep) < 2:
        raise TrainingError(f"only {len(keep)} supervised frames after stride/fraction filtering; need >= 2")
    sup_t = times[keep]
    sup_p = scene.trajectory_positions[keep]
    sup_times = sup_t.tolist()

    # anchors at start / midpoint / end of the training window, snapped to
    # supervised frames; the final anchor is dropped in extrapolation runs
    mid_idx = int(np.argmin(np.abs(sup_t - 0.5 * (sup_t[0] + sup_t[-1]))))
    anchor_idx = [0, mid_idx, len(sup_t) - 1]
    if config.train_fraction < 1.0:
        anchor_idx = anchor_idx[:-1]
    anchor_idx = sorted(set(anchor_idx))

    # a segment runs from each anchor to the next; the last one runs on to
    # the final supervised frame, past the last anchor in extrapolation runs
    bounds = sorted({*anchor_idx, len(sup_t) - 1})
    segments = [
        _Segment(
            p_start=sup_p[a],
            legs=legs_between(sup_times[a : b + 1], config.steps_per_unit),
            data_targets=list(sup_p[a + 1 : b + 1]),
            anchor_end=[j in anchor_idx for j in range(a + 1, b + 1)],
        )
        for a, b in zip(bounds, bounds[1:])
    ]
    anchors = AnchorSet()
    for i in anchor_idx:
        anchors.insert(scene.cloud.with_positions(sup_p[i]), sup_times[i])
    neighbors = knn(scene.cloud, min(config.knn_k, len(scene.cloud) - 1))
    return _Plan(cloud=scene.cloud, segments=segments, anchors=anchors, supervised_times=sup_t,
                 neighbors=neighbors, weights=_pair_weights(scene.cloud.positions, neighbors))


def _epoch_losses_and_grads(field: NeuralVelocityField, plan: _Plan, config: TrainingConfig, coh_rows=None,
                            tape=None):
    """One full forward and backward pass over the plan.

    Every segment, then the coherence leg, is recorded on ``tape`` (see
    :func:`unroll_segment`) and reversed before the next one runs.
    """
    grads = field.zero_grads()
    data_sum = 0.0
    anchor_sum = 0.0
    denom = (len(plan.supervised_times) - 1) * len(plan.cloud)  # every supervised frame but the first

    for seg in plan.segments:
        checkpoints, tape = unroll_segment(field, seg.p_start, seg.legs, tape)
        ck_grads = []
        for (p, theta, scale), target, is_anchor in zip(checkpoints, seg.data_targets, seg.anchor_end):
            dp = p - target
            data_sum += float(np.sum(dp**2))
            gp = 2.0 * dp / denom
            gt = gs = None
            if is_anchor:
                anchor_sum += state_deviation(dp, theta, scale)
                gp = gp + config.lambda_anchor * 2.0 * dp
                gt = config.lambda_anchor * 2.0 * theta
                gs = config.lambda_anchor * 2.0 * scale
            ck_grads.append((gp, gt, gs))
        backward_through_rollout(field, tape, seg.legs, ck_grads, grads)
    data = data_sum / denom

    # coherence: a one-step leg from the canonical cloud
    p0 = plan.cloud.positions
    leg = [(plan.cloud.time, COHERENCE_STEP, range(1))]
    [(p_next, _, _)], tape = unroll_segment(field, p0, leg, tape)
    coherence, g_xh = _coherence(p0, p_next, plan.neighbors, plan.weights, config.coherence_variant, coh_rows)
    if config.lambda_coh > 0:
        backward_through_rollout(field, tape, leg, [(config.lambda_coh * g_xh, None, None)], grads)

    tv = feature_grid.tv_loss(field.grid)
    if config.lambda_tv > 0:
        grads[-field.grid.cells.size :] += config.lambda_tv * feature_grid.tv_grad(field.grid).ravel()

    return total_loss(data, coherence, anchor_sum, tv, config), grads


def fit(scene: SceneData, config: TrainingConfig = TrainingConfig()) -> FitResult:
    """Train a neural velocity field on a scene's sparse-frame trajectories.

    Deterministic for a fixed (scene, config, seed): same seed twice gives a
    bitwise-identical loss history.
    """
    plan = _build_plan(scene, config)
    n = len(scene.cloud)

    # grid bounds cover the supervised motion range with margin, so rollouts
    # that leave the window hit the clamped (constant) continuation late
    all_p = scene.trajectory_positions.reshape(-1, 3)
    extent = all_p.max(axis=0) - all_p.min(axis=0)
    pad = 0.25 * np.maximum(extent, 0.1) + 0.1
    grid = feature_grid.create_grid(
        all_p.min(axis=0) - pad,
        all_p.max(axis=0) + pad,
        spatial_resolution=config.grid_spatial_resolution,
        time_resolution=config.grid_time_resolution,
        channels=config.grid_channels,
        seed=config.seed,
    )
    # zero output layer: initial velocities are exactly zero
    field = NeuralVelocityField(grid, hidden=config.hidden, seed=config.seed + 1, output_scale=0.0)

    rng = np.random.default_rng(config.seed + 2)
    moments = None
    history = []
    tape = []
    for epoch in range(config.epochs):
        coh_rows = None
        if n > COHERENCE_BATCH:
            coh_rows = np.sort(rng.choice(n, size=COHERENCE_BATCH, replace=False))
        report, grads = _epoch_losses_and_grads(field, plan, config, coh_rows, tape=tape)
        moments = adam_step(field, grads, moments, config, epoch + 1)
        history.append(replace(report, epoch=epoch))

    return FitResult(field=field, anchors=plan.anchors, history=history, supervised_times=plan.supervised_times)


# ---------------------------------------------------------------------------
# Checkpoint bundle (mlp weights + grid planes + anchors)


def save_checkpoint(path, field: NeuralVelocityField, anchor_set: AnchorSet, extra_meta: dict = None):
    meta = {
        "kind": "gsdyn_checkpoint",
        "hidden": [w.shape[1] for w in field.weights[:-1]],
        "time_frequencies": TIME_FREQUENCIES,
        "grid": {"t0": 0.0, "t1": 1.0, "channels": field.grid.channels},
        "n_layers": len(field.weights),
        "n_anchors": len(anchor_set),
        "anchor_times": [a.time for a in anchor_set],
    }
    if extra_meta:
        meta["extra"] = extra_meta
    arrays = dict(zip(field.parameter_names(), field.parameters()))
    arrays["bounds_lo"] = field.grid.bounds_lo
    arrays["bounds_hi"] = field.grid.bounds_hi
    if len(anchor_set) > 0:
        arrays["anchor_positions"] = np.stack([a.cloud.positions for a in anchor_set])
        arrays["anchor_rotations"] = np.stack([a.cloud.rotations for a in anchor_set])
        arrays["anchor_log_scales"] = np.stack([a.cloud.log_scales for a in anchor_set])
        arrays["anchor_colors"] = anchor_set[0].cloud.colors
        arrays["anchor_opacities"] = anchor_set[0].cloud.opacities
    arrayio.save_bundle(path, meta, arrays)


def finite_times(value) -> bool:
    """Whether a checkpoint header value is a list of finite numbers, as its time lists are."""
    return isinstance(value, list) and all(type(t) in (int, float) and math.isfinite(t) for t in value)


def load_checkpoint(path):
    """Returns (field, anchor set, meta); the set is empty when the header lists no anchors.

    Of the header's meta, an object, it reads ``kind``; ``hidden``, a list
    of positive integers; ``anchor_times``, finite numbers, one per row of
    the ``anchor_positions`` array; and ``n_anchors``, their count.  Any
    other value raises ValueError naming the key.  ``time_frequencies`` and
    ``grid`` are written but not read: the time encoding's width is fixed
    and the grid's time axis is [0, 1].  Each named parameter array is
    copied into its view of ``field.theta``; an array that is missing, or
    whose shape differs from its view, raises ValueError naming it.  The
    weight arrays are checked against ``hidden`` before the field is
    allocated at its widths.
    """
    meta, bundle = arrayio.load_bundle(path)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint header 'meta' must be a JSON object, got {meta!r}")
    if meta.get("kind") != "gsdyn_checkpoint":
        raise ValueError(f"{path}: not a training checkpoint")

    class Arrays(dict):
        def __missing__(self, name):
            raise ValueError(f"{path}: checkpoint has no array {name!r}")

    def bad(key, form):
        return ValueError(f"{path}: checkpoint header {key!r} must be {form}, got {meta.get(key)!r}")

    def check_shape(name, shape):
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: array {name!r} has shape {arrays[name].shape}, expected {shape}")

    arrays = Arrays(bundle)
    hidden = meta.get("hidden")
    if not (isinstance(hidden, list) and all(type(w) is int and w > 0 for w in hidden)):
        raise bad("hidden", "a list of positive integers")
    times = meta.get("anchor_times")
    if not finite_times(times):
        raise bad("anchor_times", "a list of finite numbers")
    rows = len(bundle.get("anchor_positions", ()))
    if len(times) != rows:
        raise bad("anchor_times", f"one time per row of 'anchor_positions' ({rows})")
    if meta.get("n_anchors") != rows:
        raise bad("n_anchors", f"the number of anchor times ({rows})")
    grid = feature_grid.HexPlaneGrid(
        planes=[arrays[f"plane_{n}"] for n in feature_grid.PLANE_ORDER],
        bounds_lo=arrays["bounds_lo"],
        bounds_hi=arrays["bounds_hi"],
    )
    sizes = mlp_sizes(grid, hidden)
    for i, shape in enumerate(zip(sizes[:-1], sizes[1:])):
        check_shape(f"mlp_w{i}", shape)
    field = NeuralVelocityField(grid, hidden=tuple(hidden))
    for name, view in zip(field.parameter_names(), field.parameters()):
        check_shape(name, view.shape)
        view[...] = arrays[name]
    anchor_set = AnchorSet()
    for i, t_a in enumerate(times):
        cloud = GaussianCloud(
            positions=arrays["anchor_positions"][i],
            rotations=arrays["anchor_rotations"][i],
            log_scales=arrays["anchor_log_scales"][i],
            colors=arrays["anchor_colors"],
            opacities=arrays["anchor_opacities"],
        )
        anchor_set.insert(cloud, t_a)
    return field, anchor_set, meta
