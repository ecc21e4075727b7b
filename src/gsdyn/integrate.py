"""Fixed-step explicit Runge-Kutta solvers and rollouts for Gaussian clouds.

One stepper, :func:`step_arrays`, advances position, rotation (in the
angular-velocity tangent parameterization, composed via the quaternion
exponential after the combined step), and log-scale, the last two only for
fields that move them; second-order fields additionally carry a per-Gaussian
auxiliary velocity.  Its increments come from one stage loop driven by a
Butcher tableau: Euler is the one-stage method (c = (0), b = (1)), classical
RK4 the four-stage one.  Post-step events (e.g. floor bounce) are applied
once per accepted step, never per stage.

Time is walked in legs ``(t0, h, steps)``: step s of the range ``steps``
runs from t0 + s h with step_index=s, and the leg ends at t0 + steps.stop h.
:func:`rollout_legs` and :func:`legs_between` are the only leg builders.

Negative step sizes integrate backward; forward-then-backward round trips on
smooth fields cancel to solver accuracy, which is what makes learned
dynamics reversible in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quaternions
from .anchors import AnchorSet
from .fields import VelocityField
from .scene import GaussianCloud


class IntegrationError(Exception):
    """Raised when a step produces non-finite state.

    Carries enough context to locate the failure: step index, the time of
    the failing stage, stage name, and the first offending Gaussian index.
    """

    def __init__(self, message, step_index=None, stage=None, gaussian_index=None, t=None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t
        self.stage = stage
        self.gaussian_index = gaussian_index


RK4_NODES = (0.0, 0.5, 0.5, 1.0)  # stage times t + c h; stage i advances from k_{i-1} by c_i h
RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)  # the step adds (h/6) sum_i b_i k_i
_TABLEAUS = {"euler": ((0.0,), (1.0,)), "rk4": (RK4_NODES, RK4_WEIGHTS)}  # method -> (nodes c, weights b)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "euler" or "rk4"
    step_count: int = 100  # rollout_legs: steps over [t0, t1]; anchored queries: steps per unit time (legs_between)
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in _TABLEAUS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.step_count < 1:
            raise ValueError("step_count must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


def span_steps(span: float, steps_per_unit) -> int:
    """Steps over a time span: max(1, round(|span| * steps_per_unit)), 0 for
    a zero span.  The one step rule of training, rollouts and anchored queries."""
    return max(1, round(abs(span) * steps_per_unit)) if span else 0


def legs_between(times, steps_per_unit) -> list:
    """The leg from each of ``times`` to the next, of :func:`span_steps` steps."""
    legs = []
    for a, b in zip(times, times[1:]):
        n = span_steps(b - a, steps_per_unit)
        legs.append((a, (b - a) / max(1, n), range(n)))
    return legs


def rollout_legs(t0: float, t1: float, config: IntegratorConfig) -> list:
    """The legs of a rollout over [t0, t1]: record_stride steps each, the
    last one shorter when record_stride does not divide step_count."""
    n, k = config.step_count, config.record_stride
    h = (t1 - t0) / n
    return [(t0, h, range(s, min(s + k, n))) for s in range(0, n, k)]


@dataclass
class Trajectory:
    """Recorded snapshots of an integrated cloud.

    times are strictly monotone (increasing forward, decreasing backward).
    Auxiliary velocities are recorded for second-order fields only.
    ``template`` keeps the constant attributes (color, opacity) so snapshots
    can be rebuilt as clouds.
    """

    times: np.ndarray  # (F,)
    positions: np.ndarray  # (F, N, 3)
    rotations: np.ndarray  # (F, N, 4)
    log_scales: np.ndarray  # (F, N, 3)
    aux_velocities: Optional[np.ndarray]  # (F, N, 3), None for first-order fields
    template: GaussianCloud

    def __len__(self):
        return len(self.times)

    def cloud_at(self, index: int) -> GaussianCloud:
        return self.template.with_positions(self.positions[index], self.rotations[index], self.log_scales[index],
                                            time=float(self.times[index]))


def _check_finite(arrs, step_index, stage, t):
    for a in arrs:
        if not np.isfinite(a).all():
            gi = int(np.argwhere(~np.isfinite(a))[0, 0]) if a.ndim > 1 else None  # entries come in row order
            raise IntegrationError(
                f"non-finite state at step {step_index} (t={t:.6g}), stage {stage}, gaussian {gi}",
                step_index=step_index,
                stage=stage,
                gaussian_index=gi,
                t=float(t),
            )


def rk4_increments(field, p, v, t, h, step_index=0, tape=None, method="rk4"):
    """The increments (h / sum b) sum_i b_i k_i of one explicit Runge-Kutta step.

    ``method`` picks the tableau: classical RK4 by default, or Euler.  Stage
    i is evaluated at t + c_i h from the state advanced by c_i h k_{i-1}.
    Returns (d_position, d_rotation, d_log_scale) for first-order fields,
    and appends d_velocity for second-order fields.  Only the channels the
    field moves are checked and combined, all with the stage weights of
    position: d_velocity only if ``field.second_order`` (v may otherwise
    be None), and d_rotation and d_log_scale only if ``field.moves_pose``,
    which are None otherwise.  With a ``tape`` the field must be neural:
    the tape holds one ``NeuralVelocityField.new_cache`` per stage, and
    stage i's forward pass is recorded into tape[i] for the backward pass.
    """
    nodes, weights = _TABLEAUS[method]
    moved = (0, 1, 2) if field.moves_pose else (0,)
    if field.second_order:
        moved += (3,)
    ks = []
    stage_p, stage_v = p, v
    for i, c in enumerate(nodes):
        if ks:
            stage_p = p + c * h * ks[-1][0]
            stage_v = v + c * h * ks[-1][3] if field.second_order else v
        if tape is None:
            k = field.evaluate_batch(stage_p, stage_v, t + c * h, step_index=step_index)
            _check_finite([k[j] for j in moved], step_index, f"k{i + 1}", t + c * h)
        else:
            out = field.forward(stage_p, t + c * h, cache=tape[i])
            k = (out[:, 0:3], out[:, 3:6], out[:, 6:9])
        ks.append(k)

    w = h / sum(weights)

    def combine(parts):
        total = weights[0] * parts[0]
        for b, part in zip(weights[1:], parts[1:]):
            total += b * part
        return w * total

    return tuple(combine([k[j] for k in ks]) if j in moved else None
                 for j in range(4 if field.second_order else 3))


def step_arrays(field, p, q, ls, v, t, h, step_index=0, method="rk4"):
    """One explicit Runge-Kutta step on the batch arrays; returns (p, q, ls, v).

    Position always moves; the auxiliary velocity v moves for second-order
    fields, and the rotation q and log-scale ls for fields that
    ``moves_pose``; the others are returned as given.  The rotation
    tangent increment is applied once via the quaternion exponential after
    the stage combination (angular velocity treated as constant within the
    step).
    """
    if h == 0:
        raise ValueError("step size must be nonzero")
    dp, dtheta, dls, *dv = rk4_increments(field, p, v, t, h, step_index, method=method)
    p2 = p + dp
    v2 = v + dv[0] if dv else v
    p2, v2 = field.apply_events(p2, v2, t + h, step_index=step_index)
    if not field.moves_pose:
        _check_finite([p2, v2], step_index, f"post-{method}", t + h)
        return p2, q, ls, v2
    q2 = quaternions.apply_increment(q, dtheta)
    ls2 = ls + dls
    _check_finite([p2, q2, ls2, v2], step_index, f"post-{method}", t + h)
    return p2, q2, ls2, v2


def rollout(
    cloud: GaussianCloud,
    t0: float,
    t1: float,
    config: IntegratorConfig,
    field: VelocityField,
    velocities: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate the whole cloud from t0 to t1 with uniform steps.

    h = (t1 - t0) / step_count; t1 < t0 integrates backward.  The cloud
    walks the legs of :func:`rollout_legs`; snapshots are its start state
    and each leg's end state.
    """
    if t0 == t1:
        raise ValueError("rollout needs t0 != t1")
    legs = rollout_legs(t0, t1, config)
    v = np.zeros((len(cloud), 3)) if velocities is None else np.asarray(velocities, dtype=float)
    state = (cloud.positions, cloud.rotations, cloud.log_scales, v)
    # step_arrays returns new arrays, or the ones it was given for the
    # channels the field never moves; a cloud's arrays are never written, so
    # the records need no copies
    times, records = [t0 + 0 * legs[0][1]], [state]
    for start, h, steps in legs:
        for s in steps:
            state = step_arrays(field, *state, start + s * h, h, step_index=s, method=config.method)
        times.append(start + steps.stop * h)
        records.append(state)
    p, q, ls, v = zip(*records)
    return Trajectory(
        times=np.array(times),
        positions=np.array(p),
        rotations=np.array(q),
        log_scales=np.array(ls),
        aux_velocities=np.array(v) if field.second_order else None,
        template=cloud,
    )


def anchored_states(
    anchor_set: AnchorSet,
    times,
    config: IntegratorConfig,
    field: VelocityField,
) -> list:
    """States at each of ``times``, integrating only from nearest admissible anchors.

    A query starts from the nearest anchor at or before it; a query before
    the first anchor integrates backward from that anchor.  A span never
    crosses an intervening anchor, so the effective integration horizon
    stays short.  The times that share an anchor and a direction are walked
    in one pass away from the anchor, along the :func:`legs_between` them
    at step_count steps per unit time, from rest at the anchor; each nonempty
    leg is one :func:`rollout`.  Returns one cloud per time, in the order given.
    """
    if len(anchor_set) == 0:
        raise ValueError("anchor set is empty")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"query times must be finite, got {times[~np.isfinite(times)][0]}")
    anchor_times = anchor_set.times
    start = np.maximum(np.searchsorted(anchor_times, times, side="right") - 1, 0)
    backward = times < anchor_times[start]
    states = [None] * len(times)
    for a, back in sorted(set(zip(start.tolist(), backward.tolist()))):
        anchor = anchor_set[a]
        group = sorted(np.flatnonzero((start == a) & (backward == back)), key=lambda i: abs(times[i] - anchor.time))
        cloud, velocities = anchor.cloud, None
        for i, (t0, _, steps) in zip(group, legs_between([anchor.time, *times[group]], config.step_count)):
            if steps:
                cfg = IntegratorConfig(method=config.method, step_count=len(steps), record_stride=len(steps))
                traj = rollout(cloud, t0, times[i], cfg, field, velocities=velocities)
                cloud = traj.cloud_at(-1)
                velocities = None if traj.aux_velocities is None else traj.aux_velocities[-1]
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
