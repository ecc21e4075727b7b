"""Velocity fields: the dynamical law driving Gaussian evolution.

A field maps (state, auxiliary velocity, time) to a state time-derivative,
a :class:`BatchDerivative` of four (N, 3) channels.
Three families live here: the neural field (an MLP conditioned on factorized
space-time features), ten analytic fields, and composition wrappers that add
or spatially blend fields into new ones.  Evaluation is pure; per-Gaussian
auxiliary velocity for second-order fields is owned by the rollout, not the
field.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import feature_grid


class FieldError(Exception):
    """Raised for invalid field parameters or evaluation failures."""


class BatchDerivative(NamedTuple):
    """Time-derivative of a batch of Gaussian states: four (N, 3) channels.

    d_rotation is an angular velocity (applied via the exponential map by
    the integrator).  d_velocity is the auxiliary acceleration of
    second-order fields, where d_position is the auxiliary velocity itself;
    first-order fields return zeros there, which the integrator never reads.
    Fields whose ``moves_pose`` is False likewise return zeros in d_rotation
    and d_log_scale, which the integrator never reads either.  Color and
    opacity never change under the dynamics.
    """

    d_position: np.ndarray
    d_rotation: np.ndarray
    d_log_scale: np.ndarray
    d_velocity: np.ndarray


def _zeros(n):
    return np.zeros((n, 3))


def _finite(value) -> bool:
    """Whether value is a number, or nested lists of numbers, all finite;
    strings and booleans are not numbers."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged lists
        return False
    return a.dtype.kind in "iuf" and bool(np.all(np.isfinite(a)))


class VelocityField:
    """Abstract evaluator producing state time-derivatives.

    Subclasses implement :meth:`evaluate_batch`, which maps (N, 3) positions
    and auxiliary velocities at time t to a :class:`BatchDerivative`.
    ``second_order`` marks fields whose dynamics read and write an
    auxiliary per-Gaussian velocity.  ``moves_pose`` marks fields that may
    return a nonzero d_rotation or d_log_scale; it is True unless a
    subclass says otherwise, and where it is False the integrator keeps
    each Gaussian's rotation and log-scale as they are.
    """

    second_order: bool = False
    moves_pose: bool = True

    def evaluate_batch(self, positions, velocities, t, step_index=0) -> BatchDerivative:
        raise NotImplementedError

    def apply_events(self, positions, velocities, t: float = 0.0, step_index: int = 0):
        """Post-step event handler (e.g. floor bounce); identity by default.

        Called once after each accepted integration step, never per stage.
        A field without events returns the given arrays themselves, so a
        caller that writes into the result must copy it first.
        """
        return positions, velocities


class ZeroField(VelocityField):
    moves_pose = False

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        n = positions.shape[0]
        return BatchDerivative(_zeros(n), _zeros(n), _zeros(n), _zeros(n))


# ---------------------------------------------------------------------------
# Analytic fields


_DEFAULT_PARAMS = {
    "gravity_bounce": {"g": -9.8, "z0": 0.0, "gamma": 0.8},
    "drift": {"delta": 1.0},
    "spin": {"center": (0.0, 0.0, 0.0), "omega": 1.0},
    "swirl": {"s0": 1.0, "s1": 1.0, "eta": 0.0},
    "diffusion_gas": {"sigma": 0.1, "d": (0.0, 0.0, 0.0)},
    "vortex": {"omega": 1.0, "k": 0.1, "u0": 0.5},
    "wave": {"A": 1.0, "f": 1.0, "c": 1.0},
    "wind_curl": {"w": 1.0, "c": 0.5, "eta": 0.0},
    "orbital": {"center": (0.0, 0.0, 0.0), "G": 1.0, "mu": 0.0},
    "reaction_diffusion": {"noise_scale": 1.0},
}
ANALYTIC_KINDS = tuple(_DEFAULT_PARAMS)
_SECOND_ORDER_KINDS = {"gravity_bounce", "orbital", "diffusion_gas", "reaction_diffusion"}
_EVENT_KINDS = {"gravity_bounce", "diffusion_gas", "reaction_diffusion"}
_NOISE_KINDS = {"swirl", "wind_curl", "diffusion_gas", "reaction_diffusion"}
# a noise draw is keyed on (seed << 20) + step in 64 bits, so seeds from 2^44
# on would wrap onto smaller ones
NOISE_SEED_BOUND = 2**44


class AnalyticField(VelocityField):
    """One of the ten closed-form fields, selected by ``kind``.

    Stochastic kinds (swirl, wind_curl, diffusion_gas, reaction_diffusion)
    draw their noise from a counter-based generator keyed by (seed, step
    index), so evaluation is deterministic; their seed must be below
    ``NOISE_SEED_BOUND``.  The draw is not tied to a Gaussian or to a
    global time: row i of a batch takes the i-th draw, so it depends on the
    row's position in the batch, and the step index is the caller's, which
    restarts at 0 in every rollout (and so in every sub-span of an anchored
    query).  Noise is held constant across the stages of a single
    integration step.  No kind rotates or rescales.  Each evaluation writes
    d_position into one (N, 3) array; the vortex is evaluated in Cartesian
    form.  Only gravity_bounce, diffusion_gas and reaction_diffusion have
    post-step events; the other kinds' :meth:`apply_events` returns its
    inputs.
    """

    moves_pose = False

    def __init__(self, kind: str, seed: int = 0, **params):
        if kind not in ANALYTIC_KINDS:
            raise FieldError(f"unknown analytic field kind {kind!r}")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise FieldError(f"{kind}: 'seed' must be a non-negative integer, got {seed!r}")
        if kind in _NOISE_KINDS and seed >= NOISE_SEED_BOUND:
            raise FieldError(f"{kind}: 'seed' must be below 2**44 = {NOISE_SEED_BOUND}, got {seed}")
        self.kind = kind
        self.seed = int(seed)
        self.params = dict(_DEFAULT_PARAMS[kind])
        unknown = set(params) - set(self.params)
        if unknown:
            raise FieldError(f"{kind}: unknown parameters {sorted(unknown)}")
        for key, value in params.items():
            # a parameter is shaped like its default; drift's delta may also be a 3-vector
            shapes = [np.shape(self.params[key])] + ([(3,)] if (kind, key) == ("drift", "delta") else [])
            if not (_finite(value) and np.shape(value) in shapes):
                forms = " or ".join("a finite 3-vector" if shape else "a finite number" for shape in shapes)
                raise FieldError(f"{kind}: parameter {key!r} must be {forms}, got {value!r}")
        self.params.update(params)
        self.second_order = kind in _SECOND_ORDER_KINDS
        if kind == "gravity_bounce" and not (0.0 < self.params["gamma"] < 1.0):
            raise FieldError("gravity_bounce: gamma must be in (0, 1)")

    def _noise(self, n: int, step_index: int, scale: float) -> np.ndarray:
        """(N, 3) normal draw of standard deviation ``scale``, keyed by (seed, step_index)."""
        bits = np.random.Philox(key=(np.uint64(self.seed) << np.uint64(20)) + np.uint64(step_index & 0xFFFFF))
        return scale * np.random.Generator(bits).standard_normal((n, 3))

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        p = np.asarray(positions, dtype=float)
        n = p.shape[0]
        v = _zeros(n) if velocities is None else np.asarray(velocities, dtype=float)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        prm = self.params
        # a second-order state moves with its auxiliary velocity; diffusion_gas
        # and reaction_diffusion add nothing here, as their velocity kicks
        # happen in the post-step event
        d_pos = v.copy() if self.second_order else _zeros(n)
        d_vel = _zeros(n)

        if self.kind == "gravity_bounce":
            d_vel[:, 2] = prm["g"]
        elif self.kind == "drift":
            delta = prm["delta"]
            d_pos[:] = np.array([delta, 0.0, 0.0]) if np.isscalar(delta) else np.asarray(delta, dtype=float)
        elif self.kind == "spin":
            cx, cy, _ = np.asarray(prm["center"], dtype=float)
            w = prm["omega"]
            d_pos[:, 0], d_pos[:, 1] = -w * (y - cy), w * (x - cx)
        elif self.kind == "swirl":
            s0, s1 = prm["s0"], prm["s1"]
            eta = self._noise(n, step_index, prm["eta"])
            d_pos[:, 0] = s0 * np.cos(2.5 * y + 1.5 * t)
            d_pos[:, 1] = s1 * np.sin(3 * x + 2 * t) * np.cos(2.5 * z - 1.5 * t) + eta[:, 1]
            d_pos[:, 2] = s1 * np.cos(3 * x - 2.5 * t) * np.sin(3 * y + 2.5 * t) + eta[:, 2]
        elif self.kind == "vortex":
            w, k, u0 = prm["omega"], prm["k"], prm["u0"]
            d_pos[:, 0] = -w * y - k * x
            d_pos[:, 1] = w * x - k * y
            d_pos[:, 2] = u0 * np.exp(-(x * x + y * y))
        elif self.kind == "wave":
            a, f, c = prm["A"], prm["f"], prm["c"]
            d_pos[:, 1] = a * np.sin(2 * np.pi * f * (x - c * t))
            d_pos[:, 2] = a * np.cos(2 * np.pi * f * (y - c * t))
        elif self.kind == "wind_curl":
            w, c = prm["w"], prm["c"]
            eta = self._noise(n, step_index, prm["eta"])
            d_pos[:, 0] = w + c * np.sin(2 * y + t)
            d_pos[:, 1] = c * np.cos(2 * x - 0.5 * t)
            d_pos[:, 2] = eta[:, 2] * np.sin(3 * z + 2 * t)
        elif self.kind == "orbital":
            center = np.asarray(prm["center"], dtype=float)
            r = p - center
            rn = np.linalg.norm(r, axis=1)
            if np.any(rn < 1e-12):
                raise FieldError("orbital field evaluated at its center (singularity); offset the query")
            d_vel = -prm["G"] * r / rn[:, None] ** 3 - prm["mu"] * v

        return BatchDerivative(d_pos, _zeros(n), _zeros(n), d_vel)

    def apply_events(self, positions, velocities, t=0.0, step_index=0):
        """The post-step event of gravity_bounce, diffusion_gas and
        reaction_diffusion, on copies of the arrays; the other kinds have
        none and return their inputs themselves."""
        if self.kind not in _EVENT_KINDS:
            return positions, velocities
        p = np.asarray(positions, dtype=float).copy()
        v = np.asarray(velocities, dtype=float).copy()
        prm = self.params
        if self.kind == "gravity_bounce":
            below = p[:, 2] < prm["z0"]
            p[below, 2] = prm["z0"]
            v[below, 2] = -prm["gamma"] * v[below, 2]
        elif self.kind == "diffusion_gas":
            drift = np.asarray(prm["d"], dtype=float)
            v[:] = 0.97 * v + 0.03 * self._noise(len(p), step_index, prm["sigma"]) + drift
        elif self.kind == "reaction_diffusion":
            v[:] = 0.9 * v + 0.1 * self._noise(len(p), step_index, prm["noise_scale"])
            v[:, 0] += 0.2 * np.sin(3 * p[:, 1] + t)
            v[:, 1] += 0.2 * np.sin(3 * p[:, 2] - t)
            v[:, 2] += 0.2 * np.sin(3 * p[:, 0] + t)
        return p, v


# ---------------------------------------------------------------------------
# Neural field


TIME_FREQUENCIES = 4  # the time encoding's sinusoid pairs


def mlp_sizes(grid: feature_grid.HexPlaneGrid, hidden) -> list:
    """Widths of the neural field's MLP layers over ``grid``, input first:
    grid features, position and time encoding in, ``hidden``, 9 out."""
    return [grid.feature_size + 3 + 2 * TIME_FREQUENCIES, *hidden, 9]


def time_encoding(t: float) -> np.ndarray:
    """Sinusoidal encoding [sin(2^j pi t), cos(2^j pi t)] for j < TIME_FREQUENCIES."""
    freqs = (2.0 ** np.arange(TIME_FREQUENCIES)) * np.pi
    return np.concatenate([np.sin(freqs * t), np.cos(freqs * t)])


class ForwardCache:
    """What :meth:`NeuralVelocityField.backward` reads of one forward pass.

    t and positions (N, 3) are the query, corners its grid corners (cell
    columns and in-cell offsets), and hidden[i] the tanh output of hidden
    layer i.  The backward pass rebuilds the MLP's input from the query and
    its corners, and the clamp slopes from the query.  The buffers are
    allocated once and refilled by every forward pass given this cache.
    """

    def __init__(self, n: int, widths, corners: feature_grid.Corners = None):
        self.t = 0.0
        self.positions = np.empty((n, 3))
        self.hidden = [np.empty((n, w)) for w in widths]
        self.corners = feature_grid.empty_corners(n) if corners is None else corners


class NeuralVelocityField(VelocityField):
    """MLP dynamical law conditioned on grid features.

    Input is feature vector + position + sinusoidal time encoding; output is
    a 9-vector (d_position, d_rotation, d_log_scale).  Strictly first-order:
    no acceleration channel.

    Every trainable number lives in one float64 vector ``theta``: W0, b0,
    W1, b1, ..., then the grid's stacked plane cells.  ``weights``,
    ``biases`` and the grid's cells are views into it.  The field copies the
    given grid's cells into ``theta`` and leaves that grid as it was.
    Gradients are vectors with the same layout, which :meth:`views` splits.
    """

    def __init__(
        self,
        grid: feature_grid.HexPlaneGrid,
        hidden=(64, 64),
        seed: int = 0,
        output_scale: float = 0.0,
    ):
        sizes = mlp_sizes(grid, hidden)
        self._shapes = [s for nin, nout in zip(sizes[:-1], sizes[1:]) for s in ((nin, nout), (nout,))]
        self._shapes += [(r0, r1, grid.channels) for r0, r1 in grid.resolution]
        self._ends = np.cumsum([math.prod(s) for s in self._shapes])
        self.theta = np.zeros(self._ends[-1])
        groups = self.views(self.theta)
        n_mlp = 2 * (len(sizes) - 1)  # weight and bias groups
        self.weights, self.biases = groups[0:n_mlp:2], groups[1:n_mlp:2]
        rng = np.random.default_rng(seed)
        for i, (nin, nout) in enumerate(zip(sizes[:-1], sizes[1:])):
            scale = output_scale if i == len(sizes) - 2 else 1.0
            self.weights[i][:] = rng.standard_normal((nin, nout)) * scale / np.sqrt(nin)
        cells = self.theta[-grid.cells.size :].reshape(grid.cells.shape)
        cells[:] = grid.cells
        self.grid = grid.with_cells(cells)

    def views(self, vec):
        """Views of a vector laid out like ``theta``, one per parameter group
        in :meth:`parameters` order."""
        return [vec[e - math.prod(s) : e].reshape(s) for e, s in zip(self._ends, self._shapes)]

    def parameters(self):
        """The parameter groups W0, b0, W1, b1, ..., then the six grid planes:
        views into ``theta``."""
        return self.views(self.theta)

    def parameter_names(self):
        mlp = [f"mlp_{kind}{i}" for i in range(len(self.weights)) for kind in "wb"]
        return mlp + [f"plane_{n}" for n in feature_grid.PLANE_ORDER]

    def group_of(self, index: int) -> str:
        """Name of the parameter group that holds ``theta[index]``."""
        return self.parameter_names()[int(np.searchsorted(self._ends, index, side="right"))]

    def zero_grads(self):
        """A zero gradient vector, laid out like ``theta``."""
        return np.zeros_like(self.theta)

    def new_cache(self, n: int, corners: feature_grid.Corners = None) -> "ForwardCache":
        """Empty buffers for :meth:`forward` to record a batch of n rows
        into, around the given corner buffers if any."""
        return ForwardCache(n, [w.shape[1] for w in self.weights[:-1]], corners)

    def _mlp_input(self, feats, positions, t):
        """The MLP input rows: grid features, position, time encoding."""
        x = np.empty((len(positions), self.weights[0].shape[0]))
        c = self.grid.feature_size
        x[:, :c] = feats
        x[:, c : c + 3] = positions
        x[:, c + 3 :] = time_encoding(t)
        return x

    def forward(self, positions, t, want_cache: bool = False, cache: "ForwardCache" = None):
        """MLP output (N, 9), a fresh array; optionally returns the cache
        needed by :meth:`backward`.

        The pass is recorded into ``cache`` in place when one is given (a
        :meth:`new_cache` for N rows), and into fresh buffers otherwise.
        """
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        if cache is not None and len(cache.positions) != n:
            raise FieldError(f"forward: cache holds {len(cache.positions)} rows, got {n}")
        # A fresh cache's buffers are allocated after the lookup has freed
        # its temporaries.  Allocated before, they left those temporaries at
        # the top of the heap, where glibc's malloc gave them back to the
        # system on every call: a 500-Gaussian neural rollout made four times
        # the page faults and took a third longer.
        corners = feature_grid.empty_corners(n) if cache is None else cache.corners
        feats = feature_grid.lookup(self.grid, positions, t, corners=corners)
        if cache is None:
            cache = self.new_cache(n, corners)
        cache.t = t
        cache.positions[:] = positions
        z = self._mlp_input(feats, positions, t)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(z, w, out=cache.hidden[i] if i != last else None)
            z += b
            if not np.isfinite(z).all():
                raise FloatingPointError(f"non-finite activation in mlp layer {i}")
            if i != last:
                np.tanh(z, out=z)
        if want_cache:
            return z, cache
        return z

    def backward(self, cache, upstream, grads=None):
        """Reverse-mode gradients of :meth:`forward`.

        upstream: (N, 9) gradient on the output.  The parameter gradients,
        summed over the batch, are added into ``grads`` (a vector laid out
        like ``theta``; a fresh :meth:`zero_grads` when None), so the
        gradient of a batch sum equals the sum of per-item gradients.
        Returns (:meth:`views` of grads, aligned with :meth:`parameters`,
        g_positions).
        """
        positions = cache.positions
        upstream = np.asarray(upstream, dtype=float)
        out_shape = (len(positions), self.weights[-1].shape[1])
        if upstream.shape != out_shape:
            raise FieldError(f"backward: upstream shape {upstream.shape} does not match cached batch {out_shape}")
        if grads is None:
            grads = self.zero_grads()
        groups = self.views(grads)
        # the input, rebuilt from the kept corners: the same operator and
        # cells as the forward pass give the same features, bit for bit
        operator = feature_grid.sampling_operator(self.grid, cache.corners)
        feats = (operator @ self.grid.cells).reshape(len(positions), -1)
        inputs = [self._mlp_input(feats, positions, cache.t), *cache.hidden]
        g = upstream
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i != last:  # tanh' = 1 - h^2, in one buffer
                d = np.square(inputs[i + 1])
                np.subtract(1.0, d, out=d)
                g = np.multiply(g, d, out=d)
            groups[2 * i] += inputs[i].T @ g
            groups[2 * i + 1] += g.sum(axis=0)
            g = g @ self.weights[i].T
        # split the input gradient: grid features, raw position, time encoding
        c = self.grid.feature_size
        g_cells, g_pos_grid, _ = feature_grid.lookup_grad(
            self.grid, positions, cache.t, g[:, :c], corners=cache.corners, operator=operator
        )
        grads[-g_cells.size :] += g_cells.ravel()
        return groups, g[:, c : c + 3] + g_pos_grid

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        out = self.forward(np.asarray(positions, dtype=float), t)
        return BatchDerivative(out[:, 0:3], out[:, 3:6], out[:, 6:9], _zeros(out.shape[0]))


# ---------------------------------------------------------------------------
# Composition algebra


def _combine(field, a, b, op):
    """BatchDerivative of op(a's channel, b's channel) on each channel
    ``field`` moves; on the others, which the integrator never reads, a's."""
    moved = (True, field.moves_pose, field.moves_pose, field.second_order)
    return BatchDerivative(*(op(xa, xb) if m else xa for m, xa, xb in zip(moved, a, b)))


class SummedField(VelocityField):
    """The additive injection base + lam * ext, componentwise on the
    derivative channels it moves (see :class:`BatchDerivative`).

    Post-step events run through base, then through ext unless lam is 0,
    so that lam = 0 reproduces the base field exactly.
    """

    def __init__(self, base: VelocityField, ext: VelocityField, lam: float):
        self.base = base
        self.ext = ext
        self.lam = float(lam)
        self.second_order = base.second_order or ext.second_order
        self.moves_pose = base.moves_pose or ext.moves_pose

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        a = self.base.evaluate_batch(positions, velocities, t, step_index)
        b = self.ext.evaluate_batch(positions, velocities, t, step_index)
        return _combine(self, a, b, lambda xa, xb: xa + self.lam * xb)

    def apply_events(self, positions, velocities, t=0.0, step_index=0):
        p, v = self.base.apply_events(positions, velocities, t, step_index)
        if self.lam == 0.0:
            return p, v
        return self.ext.apply_events(p, v, t, step_index)


class MaskedBlendField(VelocityField):
    """mask(x) * injected + (1 - mask(x)) * base, on the derivative channels
    it moves (see :class:`BatchDerivative`).

    The mask selects the injected field; invert the mask to select the base.
    A hard {0, 1} mask partitions the cloud exactly (bitwise) between the two
    children.  Post-step events run through the child that dominates each
    Gaussian's mask value.
    """

    def __init__(self, base: VelocityField, injected: VelocityField, mask: Callable):
        self.base = base
        self.injected = injected
        self.mask = mask
        self.second_order = base.second_order or injected.second_order
        self.moves_pose = base.moves_pose or injected.moves_pose

    def _mask_values(self, positions):
        w = np.asarray(self.mask(positions), dtype=float).reshape(-1)
        if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN too
            raise FieldError("mask returned a value outside [0, 1]")
        return w

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        positions = np.asarray(positions, dtype=float)
        w = self._mask_values(positions)[:, None]
        a = self.base.evaluate_batch(positions, velocities, t, step_index)
        b = self.injected.evaluate_batch(positions, velocities, t, step_index)
        # exact limits: a {0,1} mask reproduces the child field bitwise
        hard0, hard1, keep = w == 0.0, w == 1.0, 1.0 - w

        def mix(xa, xb):
            out = keep * xa + w * xb
            np.copyto(out, xa, where=hard0)
            np.copyto(out, xb, where=hard1)
            return out

        return _combine(self, a, b, mix)

    def apply_events(self, positions, velocities, t=0.0, step_index=0):
        w = self._mask_values(positions)
        pa, va = self.base.apply_events(positions, velocities, t, step_index)
        pb, vb = self.injected.apply_events(positions, velocities, t, step_index)
        sel = (w > 0.5)[:, None]
        return np.where(sel, pb, pa), np.where(sel, vb, va)


# ---------------------------------------------------------------------------
# Geometric masks


def smoothstep(edge0: float, edge1: float, x):
    u = np.clip((x - edge0) / (edge1 - edge0), 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def sphere_mask(center, radius: float, edge_width: float = 0.0) -> Callable:
    """1 inside the sphere, 0 outside, smoothstep falloff over edge_width."""
    center = np.asarray(center, dtype=float)

    def mask(positions):
        d = np.linalg.norm(np.asarray(positions, dtype=float) - center, axis=-1)
        if edge_width <= 0.0:
            return (d <= radius).astype(float)
        return 1.0 - smoothstep(radius - edge_width, radius, d)

    return mask


def box_mask(lo, hi, edge_width: float = 0.0) -> Callable:
    """1 inside the axis-aligned box, 0 outside, smoothstep edge per axis."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def mask(positions):
        p = np.asarray(positions, dtype=float)
        if edge_width <= 0.0:
            inside = np.all((p >= lo) & (p <= hi), axis=-1)
            return inside.astype(float)
        a = smoothstep(lo - edge_width, lo, p)
        b = 1.0 - smoothstep(hi, hi + edge_width, p)
        return np.prod(a * b, axis=-1)

    return mask


# ---------------------------------------------------------------------------
# Composition-tree parsing (scene/config file blocks)


def _check_keys(spec, what: str, *keys):
    """Raise FieldError unless spec is a JSON object holding every key."""
    if not isinstance(spec, dict):
        raise FieldError(f"{what} must be a JSON object, got {type(spec).__name__}")
    for key in keys:
        if key not in spec:
            raise FieldError(f"{what} needs the key {key!r}")


def build_mask(spec: dict) -> Callable:
    _check_keys(spec, "mask", "shape")
    shape = spec["shape"]
    for key, dims in (("center", (3,)), ("lo", (3,)), ("hi", (3,)), ("radius", ()), ("edge_width", ())):
        if key in spec and not (_finite(spec[key]) and np.shape(spec[key]) == dims):
            raise FieldError(f"mask: {key!r} must be {'a finite 3-vector' if dims else 'a finite number'}, "
                             f"got {spec[key]!r}")
    if shape == "sphere":
        _check_keys(spec, "sphere mask", "center", "radius")
        return sphere_mask(spec["center"], spec["radius"], spec.get("edge_width", 0.0))
    if shape == "box":
        _check_keys(spec, "box mask", "lo", "hi")
        return box_mask(spec["lo"], spec["hi"], spec.get("edge_width", 0.0))
    raise FieldError(f"unknown mask shape {shape!r}")


def build_field(spec: dict, neural_loader: Callable = None) -> VelocityField:
    """Build a field from its JSON composition tree.

    Leaves: {"kind": <analytic kind>, "params": {...}, "seed": n},
    {"kind": "zero"}, or {"kind": "neural", "checkpoint": path} (resolved via
    neural_loader).  Interior nodes: {"op": "add", "lam": x, "children":
    [base, ext]} or {"op": "blend", "mask": {...}, "children": [base,
    injected]}.  A node that is not an object or lacks a key it needs
    raises :class:`FieldError` naming the key.
    """
    _check_keys(spec, "field")
    if "op" in spec:
        children = spec.get("children", [])
        if not isinstance(children, list) or len(children) != 2:
            raise FieldError(f"composition op {spec['op']!r} needs exactly two children")
        a = build_field(children[0], neural_loader)
        b = build_field(children[1], neural_loader)
        if spec["op"] == "add":
            lam = spec.get("lam", 1.0)
            if not _finite(lam) or np.ndim(lam) != 0:
                raise FieldError(f"add: 'lam' must be a finite number, got {lam!r}")
            return SummedField(a, b, lam)
        if spec["op"] == "blend":
            _check_keys(spec, "blend", "mask")
            return MaskedBlendField(a, b, build_mask(spec["mask"]))
        raise FieldError(f"unknown composition op {spec['op']!r}")
    kind = spec.get("kind")
    if kind == "zero":
        return ZeroField()
    if kind == "neural":
        _check_keys(spec, "neural field", "checkpoint")
        if neural_loader is None:
            raise FieldError("neural leaf present but no checkpoint loader provided")
        return neural_loader(spec["checkpoint"])
    _check_keys(spec.get("params", {}), f"{kind} params")
    return AnalyticField(kind, seed=spec.get("seed", 0), **spec.get("params", {}))
