"""Fixed-step ODE solvers and rollouts for Gaussian clouds.

Euler and classical RK4 steps advance position, rotation (in the
angular-velocity tangent parameterization, composed via the quaternion
exponential after the combined step), and log-scale.  Second-order fields
additionally carry a per-Gaussian auxiliary velocity.  Post-step events
(e.g. floor bounce) are applied once per accepted step, never per stage.

Negative step sizes integrate backward; forward-then-backward round trips on
smooth fields cancel to solver accuracy, which is what makes learned
dynamics reversible in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quaternions
from .anchors import AnchorSet, nearest_future_anchor, nearest_past_anchor
from .fields import BatchDerivative, VelocityField
from .scene import GaussianCloud


class IntegrationError(Exception):
    """Raised when a step produces non-finite state.

    Carries enough context to locate the failure: step index, stage name,
    and the first offending Gaussian index.
    """

    def __init__(self, message, step_index=None, stage=None, gaussian_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.stage = stage
        self.gaussian_index = gaussian_index


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "euler" or "rk4"
    step_count: int = 100  # rollout: steps over [t0, t1]; anchored queries: steps per unit time
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.step_count < 1:
            raise ValueError("step_count must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    """Recorded snapshots of an integrated cloud.

    times are strictly monotone (increasing forward, decreasing backward).
    positions are always recorded; rotations/log-scales and auxiliary
    velocities optionally.  ``template`` keeps the constant attributes
    (color, opacity) so snapshots can be rebuilt as clouds.
    """

    times: np.ndarray  # (F,)
    positions: np.ndarray  # (F, N, 3)
    rotations: Optional[np.ndarray] = None  # (F, N, 4)
    log_scales: Optional[np.ndarray] = None  # (F, N, 3)
    aux_velocities: Optional[np.ndarray] = None  # (F, N, 3)
    template: Optional[GaussianCloud] = None

    def __len__(self):
        return len(self.times)

    def cloud_at(self, index: int) -> GaussianCloud:
        if self.template is None:
            raise ValueError("trajectory has no template cloud")
        return self.template.evolved(
            positions=self.positions[index],
            rotations=None if self.rotations is None else self.rotations[index],
            log_scales=None if self.log_scales is None else self.log_scales[index],
            time=float(self.times[index]),
        )


def _check_finite(arrs, step_index, stage):
    for a in arrs:
        if a is None:
            continue
        bad = ~np.isfinite(a)
        if np.any(bad):
            gi = int(np.argwhere(bad.any(axis=tuple(range(1, a.ndim))))[0, 0]) if a.ndim > 1 else None
            raise IntegrationError(
                f"non-finite state at step {step_index}, stage {stage}, gaussian {gi}",
                step_index=step_index,
                stage=stage,
                gaussian_index=gi,
            )


def _eval(field, p, v, t, step_index, stage):
    d = field.evaluate_batch(p, v, t, step_index=step_index)
    _check_finite([d.d_position, d.d_rotation, d.d_log_scale, d.d_velocity], step_index, stage)
    return d


def euler_step_arrays(field, p, q, ls, v, t, h, step_index=0):
    """One explicit Euler step on the batch arrays; returns (p, q, ls, v)."""
    if h == 0:
        raise ValueError("step size must be nonzero")
    d = _eval(field, p, v, t, step_index, "euler")
    p2 = p + h * d.d_position
    q2 = quaternions.apply_increment(q, h * d.d_rotation)
    ls2 = ls + h * d.d_log_scale
    v2 = v + h * d.d_velocity if d.d_velocity is not None else v
    p2, v2 = field.apply_events(p2, v2, t + h, step_index=step_index)
    _check_finite([p2, q2, ls2, v2], step_index, "post-euler")
    return p2, q2, ls2, v2


RK4_NODES = (0.0, 0.5, 0.5, 1.0)  # stage times t + c h; stage i advances from k_{i-1} by c_i h
RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)  # the step adds (h/6) sum_i b_i k_i
_RK4_STAGE_NAMES = ("k1", "k2", "k3", "k4")


def rk4_increments(field, p, v, t, h, step_index=0, tape=None):
    """The classical RK4 increments (h/6)(k1 + 2 k2 + 2 k3 + k4) of one step.

    Returns (d_position, d_rotation, d_log_scale, d_velocity); d_velocity is
    None for first-order fields, and v may then be None.  Rotation and
    log-scale derivatives are combined with the same stage weights as
    position.  With a ``tape`` list the field must be neural: its stages run
    through ``NeuralVelocityField.forward``, and each stage's cache is
    appended to the tape for the backward pass.
    """
    ks = []
    stage_p, stage_v = p, v
    for c, name in zip(RK4_NODES, _RK4_STAGE_NAMES):
        if ks:
            stage_p = p + c * h * ks[-1].d_position
            stage_v = v if ks[-1].d_velocity is None else v + c * h * ks[-1].d_velocity
        if tape is None:
            ks.append(_eval(field, stage_p, stage_v, t + c * h, step_index, name))
        else:
            out, cache = field.forward(stage_p, t + c * h, want_cache=True)
            tape.append(cache)
            ks.append(BatchDerivative(out[:, 0:3], out[:, 3:6], out[:, 6:9]))

    w = h / 6.0

    def combine(parts):
        total = RK4_WEIGHTS[0] * parts[0]
        for b, part in zip(RK4_WEIGHTS[1:], parts[1:]):
            total = total + b * part
        return w * total

    dv = None if ks[0].d_velocity is None else combine([k.d_velocity for k in ks])
    return (combine([k.d_position for k in ks]), combine([k.d_rotation for k in ks]),
            combine([k.d_log_scale for k in ks]), dv)


def rk4_step_arrays(field, p, q, ls, v, t, h, step_index=0):
    """One classical RK4 step on the batch arrays; returns (p, q, ls, v).

    The rotation tangent increment is applied once via the quaternion
    exponential after the stage combination (angular velocity treated as
    constant within the step).
    """
    if h == 0:
        raise ValueError("step size must be nonzero")
    dp, dtheta, dls, dv = rk4_increments(field, p, v, t, h, step_index)
    p2 = p + dp
    q2 = quaternions.apply_increment(q, dtheta)
    ls2 = ls + dls
    v2 = v if dv is None else v + dv
    p2, v2 = field.apply_events(p2, v2, t + h, step_index=step_index)
    _check_finite([p2, q2, ls2, v2], step_index, "post-rk4")
    return p2, q2, ls2, v2


_STEPPERS = {"euler": euler_step_arrays, "rk4": rk4_step_arrays}


def rollout(
    cloud: GaussianCloud,
    t0: float,
    t1: float,
    config: IntegratorConfig,
    field: VelocityField,
    velocities: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate the whole cloud from t0 to t1 with uniform steps.

    h = (t1 - t0) / step_count; t1 < t0 integrates backward.  Snapshots are
    recorded every record_stride steps plus both endpoints.
    """
    if t0 == t1:
        raise ValueError("rollout needs t0 != t1")
    n = len(cloud)
    h = (t1 - t0) / config.step_count
    stepper = _STEPPERS[config.method]

    p = cloud.positions.copy()
    q = cloud.rotations.copy()
    ls = cloud.log_scales.copy()
    v = np.zeros((n, 3)) if velocities is None else np.asarray(velocities, dtype=float).copy()

    times = [t0]
    rec_p, rec_q, rec_ls, rec_v = [p.copy()], [q.copy()], [ls.copy()], [v.copy()]
    for s in range(config.step_count):
        t = t0 + s * h
        p, q, ls, v = stepper(field, p, q, ls, v, t, h, step_index=s)
        if (s + 1) % config.record_stride == 0 or s + 1 == config.step_count:
            times.append(t0 + (s + 1) * h)
            rec_p.append(p.copy())
            rec_q.append(q.copy())
            rec_ls.append(ls.copy())
            rec_v.append(v.copy())
    return Trajectory(
        times=np.array(times),
        positions=np.array(rec_p),
        rotations=np.array(rec_q),
        log_scales=np.array(rec_ls),
        aux_velocities=np.array(rec_v) if field.second_order else None,
        template=cloud,
    )


def anchored_states(
    anchor_set: AnchorSet,
    times,
    config: IntegratorConfig,
    field: VelocityField,
) -> list:
    """States at each of ``times``, integrating only from nearest admissible anchors.

    Forward queries start from the nearest past anchor; queries before the
    first anchor integrate backward from the nearest future one.  A span
    never crosses an intervening anchor, so the effective integration
    horizon stays short.  The times that share an anchor and a direction
    are integrated in one pass away from the anchor, each sub-span between
    consecutive times taking max(1, round(|span| * step_count)) steps.
    Returns one cloud per time, in the order given.
    """
    if len(anchor_set) == 0:
        raise ValueError("anchor set is empty")
    starts = []
    for t in times:
        try:
            starts.append(nearest_past_anchor(anchor_set, t))
        except ValueError:
            starts.append(nearest_future_anchor(anchor_set, t))
    order = sorted(range(len(times)), key=lambda i: (starts[i].time, times[i] < starts[i].time,
                                                     abs(times[i] - starts[i].time)))
    states = [None] * len(times)
    group = None
    for i in order:
        anchor, t = starts[i], times[i]
        if (anchor.time, t < anchor.time) != group:
            group = (anchor.time, t < anchor.time)
            cloud, velocities, t_prev = anchor.cloud, anchor.velocities, anchor.time
        if t != t_prev:
            steps = max(1, round(abs(t - t_prev) * config.step_count))
            cfg = IntegratorConfig(method=config.method, step_count=steps, record_stride=steps)
            traj = rollout(cloud, t_prev, t, cfg, field, velocities=velocities)
            cloud = traj.cloud_at(len(traj) - 1)
            velocities = None if traj.aux_velocities is None else traj.aux_velocities[-1]
            t_prev = t
        states[i] = cloud
    return states


def anchor_aware_rollout(
    anchor_set: AnchorSet,
    t: float,
    config: IntegratorConfig,
    field: VelocityField,
) -> GaussianCloud:
    """State at time t, integrated from the nearest admissible anchor (see :func:`anchored_states`)."""
    return anchored_states(anchor_set, [t], config, field)[0]
