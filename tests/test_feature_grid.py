"""Factorized space-time feature grid: sampling, gradients, TV penalty."""

import numpy as np
import pytest
from scipy import sparse

from gsdyn import feature_grid as fg
from gsdyn.fields import NeuralVelocityField


def constant_grid(value, channels=2, res=4):
    planes = [np.full((res, res, channels), value) for _ in range(6)]
    return fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))


def random_grid(seed=0, res=5, channels=3):
    return fg.create_grid(np.zeros(3), np.ones(3), spatial_resolution=res,
                          time_resolution=res, channels=channels, seed=seed)


class TestLookup:
    def test_constant_planes_give_repeated_constant(self):
        grid = constant_grid(0.7, channels=2)
        out = fg.lookup(grid, np.array([[0.3, 0.9, 0.1]]), 0.4)
        np.testing.assert_allclose(out, np.full((1, 12), 0.7))

    def test_cell_center_is_mean_of_corners(self):
        # one 2x2 single-channel plane [[0,1],[2,3]]; query the cell center
        planes = [np.zeros((2, 2, 1)) for _ in range(6)]
        planes[0] = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])
        grid = fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))
        out = fg.lookup(grid, np.array([[0.5, 0.5, 0.5]]), 0.5)
        assert out[0, 0] == pytest.approx(1.5)

    def test_query_at_grid_node(self):
        grid = random_grid(seed=1, res=5)
        # position mapping puts normalized coord u onto scaled coord u*(R-1);
        # u = 0.5 lands exactly on node 2 of a 5-node axis
        p = np.array([[0.5, 0.5, 0.5]])
        out = fg.lookup(grid, p, 0.5)
        for k in range(6):
            np.testing.assert_allclose(out[0, k * 3 : (k + 1) * 3], grid.planes[k][2, 2], atol=1e-12)

    def test_batch_matches_single(self):
        grid = random_grid(seed=2)
        pts = np.random.default_rng(0).uniform(0, 1, size=(6, 3))
        batch = fg.lookup(grid, pts, 0.3)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], fg.lookup(grid, pts[i : i + 1], 0.3)[0])

    def test_out_of_bounds_clamped(self):
        grid = random_grid(seed=3)
        inside = fg.lookup(grid, np.array([[0.0, 0.5, 0.5]]), 0.5)
        outside = fg.lookup(grid, np.array([[-2.0, 0.5, 0.5]]), 0.5)
        np.testing.assert_array_equal(inside, outside)

    def test_nonfinite_query_rejected(self):
        grid = random_grid()
        with pytest.raises(FloatingPointError):
            fg.lookup(grid, np.array([[np.nan, 0.0, 0.0]]), 0.5)

    def test_bilinear_closed_form_interior(self):
        # restrict to the xy plane and compare against a direct bilinear evaluator
        grid = random_grid(seed=4, res=4, channels=1)
        for k in range(1, 6):
            grid.planes[k][:] = 0.0
        rng = np.random.default_rng(5)
        plane = grid.planes[0][:, :, 0]
        for _ in range(20):
            x, y = rng.uniform(0.05, 0.95, size=2)
            su, sv = x * 3, y * 3
            i, j = int(su), int(sv)
            fu, fv = su - i, sv - j
            expected = ((1 - fu) * (1 - fv) * plane[i, j] + fu * (1 - fv) * plane[i + 1, j]
                        + (1 - fu) * fv * plane[i, j + 1] + fu * fv * plane[i + 1, j + 1])
            out = fg.lookup(grid, np.array([[x, y, 0.5]]), 0.5)
            assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_continuity_under_small_perturbation(self):
        grid = random_grid(seed=6)
        p = np.array([[0.4, 0.6, 0.3]])
        a = fg.lookup(grid, p, 0.5)
        b = fg.lookup(grid, p + 1e-7, 0.5)
        assert np.max(np.abs(a - b)) < 1e-5


class TestLookupGrad:
    def test_node_query_full_gradient_on_single_node(self):
        grid = random_grid(seed=7, res=5, channels=2)
        upstream = np.ones((1, 12))
        g_cells, _, _ = fg.lookup_grad(grid, np.array([[0.5, 0.5, 0.5]]), 0.5, upstream)
        for g in grid.planes_of(g_cells):
            nz = np.argwhere(np.any(g != 0, axis=2))
            np.testing.assert_array_equal(nz, [[2, 2]])
            np.testing.assert_allclose(g[2, 2], 1.0)

    def test_cell_center_quarter_weights(self):
        planes = [np.random.default_rng(k).uniform(-1, 1, (2, 2, 1)) for k in range(6)]
        grid = fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))
        g_cells, _, _ = fg.lookup_grad(grid, np.array([[0.5, 0.5, 0.5]]), 0.5, np.ones((1, 6)))
        for g in grid.planes_of(g_cells):
            np.testing.assert_allclose(g[:, :, 0], 0.25)

    def test_plane_entries_match_finite_differences(self):
        grid = random_grid(seed=8, res=4, channels=2)
        p = np.array([[0.37, 0.61, 0.22]])
        t = 0.43
        rng = np.random.default_rng(9)
        upstream = rng.uniform(-1, 1, (1, 12))
        plane_grads = grid.planes_of(fg.lookup_grad(grid, p, t, upstream)[0])
        eps = 1e-4
        for k in range(6):
            idx = np.argwhere(plane_grads[k] != 0)
            assert len(idx) <= 8  # at most 4 nodes x 2 channels
            for i, j, c in idx[:4]:
                grid.planes[k][i, j, c] += eps
                up = float(np.sum(upstream * fg.lookup(grid, p, t)))
                grid.planes[k][i, j, c] -= 2 * eps
                dn = float(np.sum(upstream * fg.lookup(grid, p, t)))
                grid.planes[k][i, j, c] += eps
                fd = (up - dn) / (2 * eps)
                assert plane_grads[k][i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_position_grad_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            grid = random_grid(seed=100 + trial, res=5, channels=2)
            p = rng.uniform(0.1, 0.9, (1, 3))
            t = rng.uniform(0.1, 0.9)
            upstream = rng.uniform(-1, 1, (1, 12))
            _, g_pos, g_t = fg.lookup_grad(grid, p, t, upstream)
            eps = 1e-6
            for axis in range(3):
                dp = np.zeros((1, 3))
                dp[0, axis] = eps
                fd = (np.sum(upstream * fg.lookup(grid, p + dp, t))
                      - np.sum(upstream * fg.lookup(grid, p - dp, t))) / (2 * eps)
                assert g_pos[0, axis] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            fd_t = (np.sum(upstream * fg.lookup(grid, p, t + eps))
                    - np.sum(upstream * fg.lookup(grid, p, t - eps))) / (2 * eps)
            assert g_t[0] == pytest.approx(fd_t, rel=1e-5, abs=1e-7)

    def test_clamped_query_has_zero_position_grad(self):
        grid = random_grid(seed=12)
        _, g_pos, _ = fg.lookup_grad(grid, np.array([[-1.0, -1.0, -1.0]]), 0.5, np.ones((1, grid.feature_size)))
        np.testing.assert_array_equal(g_pos, np.zeros((1, 3)))

    def test_many_random_pairs(self):
        # the grad contract: rel. error < 1e-5 on 100 random (grid, query) pairs
        rng = np.random.default_rng(13)
        worst = 0.0
        for trial in range(100):
            grid = random_grid(seed=200 + trial, res=4, channels=1)
            p = rng.uniform(0.05, 0.95, (1, 3))
            t = rng.uniform(0.05, 0.95)
            upstream = rng.uniform(-1, 1, (1, 6))
            _, g_pos, _ = fg.lookup_grad(grid, p, t, upstream)
            eps = 1e-6
            for axis in range(3):
                dp = np.zeros((1, 3))
                dp[0, axis] = eps
                fd = (np.sum(upstream * fg.lookup(grid, p + dp, t))
                      - np.sum(upstream * fg.lookup(grid, p - dp, t))) / (2 * eps)
                denom = max(abs(fd), 1e-3)
                worst = max(worst, abs(g_pos[0, axis] - fd) / denom)
        assert worst < 1e-5


def reference_operator(cols, weights, n_cells):
    """A CSR matrix built and checked from scratch, one row per four
    consecutive weights: the per-call construction that the operators a
    grid keeps replace."""
    return sparse.csr_matrix(
        (weights.ravel(), cols.ravel(), np.arange(0, weights.size + 1, 4, dtype=np.int32)),
        shape=(weights.size // 4, n_cells),
    )


def reference_sampling_operator(grid, corners):
    fu, fv = corners.fu, corners.fv
    weights = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=-1)
    return reference_operator(corners.cols, weights, len(grid.cells))


def reference_lookup(grid, positions, t, corners=None):
    corners = fg._corners(grid, positions, t, corners)
    return (reference_sampling_operator(grid, corners) @ grid.cells).reshape(-1, grid.feature_size)


def reference_lookup_grad(grid, positions, t, upstream, corners=None, operator=None):
    """lookup_grad with S, S^T and D built per call."""
    cols, fu, fv = corners = fg._corners(grid, positions, t) if corners is None else corners
    u = (np.asarray(positions, dtype=float)[:, grid._axis] - grid._lo) / grid._span
    slope = ((u > 0.0) & (u < 1.0)) / grid._span * grid._scale
    ju = slope[:, grid._row_u]
    jv = np.hstack([slope[:, grid._row_v], np.tile(float(0.0 < t < 1.0) * grid._t_scale, (len(u), 1))])
    up = np.asarray(upstream, dtype=float).reshape(-1, grid.channels)
    g_cells = reference_sampling_operator(grid, corners).T @ up
    a0, a1 = (1 - fv) * ju, fv * ju
    b0, b1 = (1 - fu) * jv, fu * jv
    d_weights = np.stack([-a0, a0, -a1, a1, -b0, -b1, b0, b1], axis=-1)
    d_op = reference_operator(np.concatenate([cols, cols], axis=-1), d_weights, len(grid.cells))
    g_axis = np.einsum("nac,nc->na", (d_op @ grid.cells).reshape(-1, 2, grid.channels), up)
    g_query = g_axis.reshape(len(cols), 12) @ fg._AXIS_SELECT
    return g_cells, g_query[:, :3], g_query[:, 3]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKeptOperators:
    """The operators a grid keeps per batch size give the bits of operators
    built per call, whatever batch sizes and grids came before."""

    GRIDS = {  # two grids whose planes differ in resolution and channel count
        "coarse": dict(lo=np.zeros(3), hi=np.ones(3), res=5, t_res=4, channels=3, seed=21),
        "fine": dict(lo=-np.ones(3), hi=np.full(3, 2.0), res=9, t_res=6, channels=2, seed=22),
    }

    @staticmethod
    def make(spec):
        return fg.create_grid(spec["lo"], spec["hi"], spatial_resolution=spec["res"],
                              time_resolution=spec["t_res"], channels=spec["channels"], seed=spec["seed"])

    @staticmethod
    def query(rng, spec, n):
        # inside, clamped below and above, and on the bounds
        p = rng.uniform(spec["lo"] - 0.3, spec["hi"] + 0.3, (n, 3))
        p[: n // 4] = np.where(rng.random((n // 4, 3)) < 0.5, spec["lo"], spec["hi"])
        return p

    def test_lookup_and_gradients_match_per_call_construction(self):
        rng = np.random.default_rng(23)
        grids = {name: self.make(spec) for name, spec in self.GRIDS.items()}
        for n in (7, 500, 7, 1):
            for name in ("coarse", "fine", "coarse"):
                grid, spec = grids[name], self.GRIDS[name]
                p, t = self.query(rng, spec, n), float(rng.choice([0.0, 1.0, rng.uniform()]))
                upstream = rng.standard_normal((n, grid.feature_size))
                assert_same_bits(fg.lookup(grid, p, t), reference_lookup(grid, p, t))
                for got, want in zip(fg.lookup_grad(grid, p, t, upstream), reference_lookup_grad(grid, p, t, upstream)):
                    assert_same_bits(got, want)
                corners = fg.empty_corners(n)  # the forward's corners and operator, reused
                fg.lookup(grid, p, t, corners=corners)
                operator = fg.sampling_operator(grid, corners)
                for got, want in zip(fg.lookup_grad(grid, p, t, upstream, corners=corners, operator=operator),
                                     reference_lookup_grad(grid, p, t, upstream)):
                    assert_same_bits(got, want)

    def test_forward_backward_pair_matches_per_call_construction(self, monkeypatch):
        rng = np.random.default_rng(24)
        specs = [self.GRIDS["coarse"], self.GRIDS["fine"], self.GRIDS["coarse"]]
        fields = [NeuralVelocityField(self.make(spec), hidden=(16, 8), seed=k, output_scale=0.5)
                  for k, spec in enumerate(specs[:2])]

        def pair(field, p, t, upstream):
            out, cache = field.forward(p, t, want_cache=True)
            groups, g_pos = field.backward(cache, upstream)
            return [out, *groups, g_pos]

        for n in (7, 500, 7, 1):
            for field, spec in zip(fields + fields[:1], specs):
                p, t = self.query(rng, spec, n), float(rng.uniform())
                upstream = rng.standard_normal((n, 9))
                got = pair(field, p, t, upstream)
                with monkeypatch.context() as m:  # the same pair with every operator built per call
                    m.setattr(fg, "lookup", reference_lookup)
                    m.setattr(fg, "sampling_operator", reference_sampling_operator)
                    m.setattr(fg, "lookup_grad", reference_lookup_grad)
                    want = pair(field, p, t, upstream)
                for a, b in zip(got, want, strict=True):
                    assert_same_bits(a, b)

    def test_operators_follow_the_batch_size(self):
        grid = self.make(self.GRIDS["coarse"])
        rng = np.random.default_rng(25)
        fg.lookup(grid, rng.uniform(0, 1, (7, 3)), 0.5)
        kept = grid._operators
        fg.lookup(grid, rng.uniform(0, 1, (7, 3)), 0.2)
        assert grid._operators is kept  # the same size reuses them
        fg.lookup(grid, rng.uniform(0, 1, (3, 3)), 0.2)
        assert grid._operators is not kept and grid._operators.S.shape == (18, len(grid.cells))
        assert grid.with_cells(grid.cells.copy())._operators is None


class TestTvLoss:
    def test_constant_planes_zero(self):
        assert fg.tv_loss(constant_grid(0.3)) == 0.0

    def test_single_difference_plane(self):
        # a 1x2 plane is below the 2x2 validity floor, so use a 2x2 plane with
        # one unit difference per row: mean over {1,1,0,0} differences = 0.5
        planes = [np.zeros((2, 2, 1)) for _ in range(6)]
        planes[0] = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
        grid = fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))
        # vertical diffs: (1-0), (1-0); horizontal diffs: 0, 0 -> mean 2/4
        assert fg.tv_loss(grid) == pytest.approx(0.5)

    def test_matches_double_loop_oracle(self):
        grid = random_grid(seed=14, res=8, channels=2)
        total = 0.0
        for plane in grid.planes:
            s = 0.0
            count = 0
            r0, r1, c = plane.shape
            for i in range(r0):
                for j in range(r1):
                    for ch in range(c):
                        if i + 1 < r0:
                            s += (plane[i + 1, j, ch] - plane[i, j, ch]) ** 2
                            count += 1
                        if j + 1 < r1:
                            s += (plane[i, j + 1, ch] - plane[i, j, ch]) ** 2
                            count += 1
            total += s / count
        assert fg.tv_loss(grid) == pytest.approx(total, rel=1e-12)

    def test_nonnegative_and_zero_iff_constant(self):
        grid = random_grid(seed=15)
        assert fg.tv_loss(grid) > 0.0
        for p in grid.planes:
            p[:] = 1.23
        assert fg.tv_loss(grid) == 0.0

    def test_tv_grad_matches_finite_differences(self):
        grid = random_grid(seed=16, res=3, channels=1)
        grads = grid.planes_of(fg.tv_grad(grid))
        eps = 1e-6
        for k in range(6):
            for i in range(3):
                for j in range(3):
                    grid.planes[k][i, j, 0] += eps
                    up = fg.tv_loss(grid)
                    grid.planes[k][i, j, 0] -= 2 * eps
                    dn = fg.tv_loss(grid)
                    grid.planes[k][i, j, 0] += eps
                    assert grads[k][i, j, 0] == pytest.approx((up - dn) / (2 * eps), abs=1e-8)


class TestGridValidation:
    def test_wrong_plane_count(self):
        with pytest.raises(ValueError):
            fg.HexPlaneGrid(planes=[np.zeros((2, 2, 1))] * 5,
                            bounds_lo=np.zeros(3), bounds_hi=np.ones(3))

    def test_mismatched_channels(self):
        planes = [np.zeros((2, 2, 1))] * 5 + [np.zeros((2, 2, 2))]
        with pytest.raises(ValueError):
            fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))

    def test_nonfinite_entries(self):
        planes = [np.zeros((2, 2, 1)) for _ in range(6)]
        planes[3][0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="xt"):
            fg.HexPlaneGrid(planes=planes, bounds_lo=np.zeros(3), bounds_hi=np.ones(3))
