"""Property tests of the feature-plane sampler and of gradient accumulation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from gsdyn import feature_grid as fg
from gsdyn.fields import NeuralVelocityField

# dyadic bounds and 2^k + 1 resolutions put interior cell edges exactly on
# representable coordinates, so a query can sit on an edge
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
    """A grid over drawn spatial bounds and the time axis [0, 1]."""
    lo = np.array([draw(st.sampled_from(LOWS)) for _ in range(3)])
    ext = np.array([draw(st.sampled_from(EXTENTS)) for _ in range(3)])
    grid = fg.create_grid(
        lo,
        lo + ext,
        spatial_resolution=draw(st.sampled_from(RESOLUTIONS)),
        time_resolution=draw(st.sampled_from(RESOLUTIONS)),
        channels=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    grid.cells *= 10.0  # entries in [-1, 1]
    return grid


def draw_coordinate(draw, lo, hi, resolution):
    """A coordinate inside a cell, on an interior cell edge, or clamped
    outside the bounds; returns (value, kind)."""
    kinds = ["inside", "outside"] + (["edge"] if resolution > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "inside":
        u = (draw(st.integers(0, resolution - 2)) + draw(st.floats(0.01, 0.99))) / (resolution - 1)
    elif kind == "edge":
        u = draw(st.integers(1, resolution - 2)) / (resolution - 1)
    else:
        d = draw(st.floats(0.01, 1.0))
        u = draw(st.sampled_from([-d, 1.0 + d]))
    return lo + u * (hi - lo), kind


@st.composite
def queries(draw):
    """(grid, positions (N, 3), t, kinds (N, 4))."""
    grid = draw(grids())
    n = draw(st.integers(1, 4))
    spatial = grid.planes[0].shape[0]
    positions = np.zeros((n, 3))
    kinds = []
    t, t_kind = draw_coordinate(draw, 0.0, 1.0, grid.planes[3].shape[1])
    for i in range(n):
        row = []
        for axis in range(3):
            positions[i, axis], kind = draw_coordinate(draw, grid.bounds_lo[axis], grid.bounds_hi[axis], spatial)
            row.append(kind)
        kinds.append(row + [t_kind])
    return grid, positions, t, kinds


def per_row_objective(grid, positions, t, upstream):
    return np.sum(upstream * fg.lookup(grid, positions, t), axis=1)


@settings(max_examples=60, deadline=None)
@given(queries())
def test_lookup_equals_per_plane_reference(case):
    grid, positions, t, _ = case
    np.testing.assert_array_equal(fg.lookup(grid, positions, t), reference_lookup(grid, positions, t))


@settings(max_examples=60, deadline=None)
@given(queries(), st.integers(0, 2**16))
def test_lookup_grad_matches_finite_differences(case, seed):
    """Central differences inside a cell; on an interior cell edge the sampler
    uses the cell above it, so the reference there is the forward difference;
    outside the bounds the lookup is clamped and the gradient is exactly 0."""
    grid, positions, t, kinds = case
    rng = np.random.default_rng(seed)
    upstream = rng.uniform(-1, 1, (len(positions), grid.feature_size))
    g_cells, g_pos, g_t = fg.lookup_grad(grid, positions, t, upstream)
    g_query = np.concatenate([g_pos, g_t[:, None]], axis=1)

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
