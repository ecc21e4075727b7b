"""Property tests of the feature-plane sampler and of gradient accumulation."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdyn import feature_grid as fg, train
from gsdyn.anchors import AnchorSet
from gsdyn.fields import NeuralVelocityField

# dyadic bounds and 2^k + 1 resolutions put interior cell edges exactly on
# representable coordinates, so a query can sit on an edge, and every edge
# of a coarser resolution is an edge of a finer one
LOWS = (-1.0, -0.5, 0.0, 0.25)
EXTENTS = (0.5, 1.0, 2.0)
RESOLUTIONS = (2, 3, 5, 9)
EPS = 2.0**-24


def reference_lookup(grid, positions, t):
    """Dense per-plane bilinear sampler, one plane at a time."""
    lo = np.append(grid.bounds_lo, 0.0)
    span = np.append(grid.bounds_hi - grid.bounds_lo, 1.0)
    q = np.concatenate([positions, np.full((len(positions), 1), t)], axis=1)
    u = np.clip((q - lo) / span, 0.0, 1.0)
    out = []
    for plane, (a, b) in zip(grid.planes, fg.PLANE_AXES):
        r0, r1, _ = plane.shape
        su = u[:, a] * (r0 - 1)
        sv = u[:, b] * (r1 - 1)
        i0 = np.minimum(np.floor(su).astype(int), r0 - 2)
        j0 = np.minimum(np.floor(sv).astype(int), r1 - 2)
        fu = (su - i0)[:, None]
        fv = (sv - j0)[:, None]
        out.append(
            (1 - fu) * (1 - fv) * plane[i0, j0]
            + fu * (1 - fv) * plane[i0 + 1, j0]
            + (1 - fu) * fv * plane[i0, j0 + 1]
            + fu * fv * plane[i0 + 1, j0 + 1]
        )
    return np.concatenate(out, axis=1)


@st.composite
def grids(draw):
    """A grid over drawn spatial bounds and the time axis [0, 1] whose six
    planes each draw their own resolution, with entries in [-1, 1].  It is
    made from its planes, or is ``with_cells`` of such a grid over other
    cells, or is loaded from a checkpoint."""
    lo = np.array([draw(st.sampled_from(LOWS)) for _ in range(3)])
    ext = np.array([draw(st.sampled_from(EXTENTS)) for _ in range(3)])
    channels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shapes = [(draw(st.sampled_from(RESOLUTIONS)), draw(st.sampled_from(RESOLUTIONS)), channels) for _ in range(6)]
    grid = fg.HexPlaneGrid([rng.uniform(-1.0, 1.0, shape) for shape in shapes], lo, lo + ext)
    source = draw(st.sampled_from(["planes", "with_cells", "checkpoint"]))
    if source == "with_cells":
        grid = grid.with_cells(rng.uniform(-1.0, 1.0, grid.cells.shape))
    elif source == "checkpoint":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "checkpoint.gsd")
            train.save_checkpoint(path, NeuralVelocityField(grid, hidden=(2,)), AnchorSet())
            grid = train.load_checkpoint(path)[0].grid
    return grid


def finest_resolutions(grid):
    """The finest resolution along each query axis x, y, z, t over the planes that sample it."""
    finest = [0] * 4
    for (a, b), (r0, r1) in zip(fg.PLANE_AXES, grid.resolution):
        finest[a], finest[b] = max(finest[a], r0), max(finest[b], r1)
    return finest


def draw_coordinate(draw, lo, hi, resolution):
    """A coordinate inside a cell, on an interior cell edge, on a bound, at
    +0.0 or -0.0, or clamped outside the bounds; ``resolution`` is the
    finest one along the axis."""
    kind = draw(st.sampled_from(["inside", "edge", "bound", "zero", "outside"]))
    if kind == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    if kind == "inside" or (kind == "edge" and resolution == 2):
        u = (draw(st.integers(0, resolution - 2)) + draw(st.floats(0.01, 0.99))) / (resolution - 1)
    elif kind == "edge":
        u = draw(st.integers(1, resolution - 2)) / (resolution - 1)
    elif kind == "bound":
        u = draw(st.sampled_from([0.0, 1.0]))
    else:
        d = draw(st.floats(0.01, 1.0))
        u = draw(st.sampled_from([-d, 1.0 + d]))
    return lo + u * (hi - lo)


def kind_of(value, lo, hi, resolution):
    """Where a coordinate sits: "outside" the bounds, on a "bound", on an
    "edge" of the finest cells, or "inside" one of them."""
    u = (value - lo) / (hi - lo)
    if u < 0.0 or u > 1.0:
        return "outside"
    if u in (0.0, 1.0):
        return "bound"
    return "edge" if float(u * (resolution - 1)).is_integer() else "inside"


@st.composite
def queries(draw):
    """(grid, positions (N, 3), t, kinds (N, 4))."""
    grid = draw(grids())
    finest = finest_resolutions(grid)
    bounds = [*zip(grid.bounds_lo, grid.bounds_hi), (0.0, 1.0)]
    n = draw(st.integers(1, 4))
    t = draw_coordinate(draw, 0.0, 1.0, finest[3])
    positions = np.array([[draw_coordinate(draw, *bounds[a], finest[a]) for a in range(3)] for _ in range(n)])
    kinds = [[kind_of(v, *bounds[a], finest[a]) for a, v in enumerate([*row, t])] for row in positions]
    return grid, positions, t, kinds


def per_row_objective(grid, positions, t, upstream):
    return np.sum(upstream * fg.lookup(grid, positions, t), axis=1)


@settings(max_examples=100, deadline=None)
@given(queries())
def test_lookup_equals_per_plane_reference(case):
    grid, positions, t, _ = case
    assert fg.lookup(grid, positions, t).tobytes() == reference_lookup(grid, positions, t).tobytes()


def test_grid_bounds_and_resolution_are_read_only():
    lo, hi = np.zeros(3), np.ones(3)
    grid = fg.HexPlaneGrid([np.zeros((3, 3, 1))] * 6, lo, hi)
    for name in ("bounds_lo", "bounds_hi", "resolution"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 2
        with pytest.raises(AttributeError):
            setattr(grid, name, np.full(3, 2.0))
    lo[0] = -1.0  # the grid keeps its own copy; the caller's array stays writable
    assert grid.bounds_lo[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(queries(), st.integers(0, 2**16))
def test_lookup_grad_matches_finite_differences(case, seed):
    """Central differences inside a cell; on an interior cell edge the sampler
    uses the cell above it, so the reference there is the forward difference;
    outside the bounds the lookup is clamped and the gradient is exactly 0,
    and on a bound it is 0 too, the clamped side's difference."""
    grid, positions, t, kinds = case
    rng = np.random.default_rng(seed)
    upstream = rng.uniform(-1, 1, (len(positions), grid.feature_size))
    g_cells, g_pos, g_t = fg.lookup_grad(grid, positions, t, upstream)
    g_query = np.concatenate([g_pos, g_t[:, None]], axis=1)
    bounds = [*zip(grid.bounds_lo, grid.bounds_hi), (0.0, 1.0)]

    def objective(shift):
        p = positions + shift[:3]
        return per_row_objective(grid, p, t + shift[3], upstream)

    base = objective(np.zeros(4))
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = EPS
        up, down = objective(e), objective(-e)
        for i, row in enumerate(kinds):
            if row[axis] == "outside":
                assert g_query[i, axis] == 0.0
                assert up[i] == down[i] == base[i]
                continue
            if row[axis] == "bound":
                assert g_query[i, axis] == 0.0
                coordinate = t if axis == 3 else positions[i, axis]
                assert (down if coordinate == bounds[axis][0] else up)[i] == base[i]
                continue
            fd = (up[i] - base[i]) / EPS if row[axis] == "edge" else (up[i] - down[i]) / (2 * EPS)
            np.testing.assert_allclose(g_query[i, axis], fd, rtol=1e-6, atol=1e-6)

    # the lookup is linear in the planes: a central difference along any
    # direction equals the inner product with the plane gradients
    direction = [rng.uniform(-1, 1, p.shape) for p in grid.planes]
    moved = []
    for sign in (1.0, -1.0):
        g = grid.with_cells(grid.cells.copy())
        for plane, d in zip(g.planes, direction):
            plane += sign * EPS * d
        moved.append(np.sum(upstream * fg.lookup(g, positions, t)))
    fd = (moved[0] - moved[1]) / (2 * EPS)
    exact = sum(np.sum(pg * d) for pg, d in zip(grid.planes_of(g_cells), direction))
    np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(grids(), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**16))
def test_backward_adds_fresh_result_into_given_buffer(grid, n, hidden, seed):
    rng = np.random.default_rng(seed)
    field = NeuralVelocityField(grid, hidden=(hidden,), seed=seed, output_scale=1.0)
    lo, hi = grid.bounds_lo, grid.bounds_hi
    positions = rng.uniform(lo - 0.1, hi + 0.1, (n, 3))
    _, cache = field.forward(positions, 0.5, want_cache=True)
    upstream = rng.standard_normal((n, 9))
    fresh = field.zero_grads()
    _, g_fresh = field.backward(cache, upstream, grads=fresh)
    start = rng.standard_normal(field.theta.size)
    buf = start.copy()
    out, g_pos = field.backward(cache, upstream, grads=buf)
    assert [g.shape for g in out] == [p.shape for p in field.parameters()]
    assert all(np.shares_memory(g, buf) for g in out)
    np.testing.assert_array_equal(buf, start + fresh)
    np.testing.assert_array_equal(g_pos, g_fresh)


@settings(max_examples=40, deadline=None)
@given(queries(), st.integers(0, 2**16))
def test_kept_corners_give_the_recomputed_gradients(case, seed):
    grid, positions, t, _ = case
    upstream = np.random.default_rng(seed).uniform(-1, 1, (len(positions), grid.feature_size))
    corners = fg.empty_corners(len(positions))
    np.testing.assert_array_equal(fg.lookup(grid, positions, t, corners=corners), fg.lookup(grid, positions, t))
    kept = fg.lookup_grad(grid, positions, t, upstream, corners=corners)
    found = fg.lookup_grad(grid, positions, t, upstream)
    for a, b in zip(kept[0], found[0]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(kept[1], found[1])
    np.testing.assert_array_equal(kept[2], found[2])


@settings(max_examples=30, deadline=None)
@given(grids(), st.integers(1, 6), st.lists(st.integers(1, 8), min_size=1, max_size=2), st.integers(0, 2**16))
def test_forward_into_reused_cache_matches_fresh(grid, n, hidden, seed):
    rng = np.random.default_rng(seed)
    field = NeuralVelocityField(grid, hidden=tuple(hidden), seed=seed, output_scale=1.0)
    lo, hi = grid.bounds_lo, grid.bounds_hi
    cache = field.new_cache(n)
    field.forward(rng.uniform(lo - 0.1, hi + 0.1, (n, 3)), rng.uniform(0.0, 1.0), cache=cache)
    positions = rng.uniform(lo - 0.1, hi + 0.1, (n, 3))
    t = rng.uniform(0.0, 1.0)
    out, same = field.forward(positions, t, want_cache=True, cache=cache)
    assert same is cache
    fresh_out, fresh = field.forward(positions, t, want_cache=True)
    np.testing.assert_array_equal(out, fresh_out)
    upstream = rng.standard_normal((n, 9))
    grads, g_pos = field.backward(cache, upstream)
    fresh_grads, fresh_g_pos = field.backward(fresh, upstream)
    for a, b in zip(grads, fresh_grads):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(g_pos, fresh_g_pos)
