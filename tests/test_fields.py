"""Velocity fields: analytic kinds, the neural head, and the composition algebra."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gsdyn import feature_grid as fg
from gsdyn.fields import (
    ANALYTIC_KINDS,
    AnalyticField,
    FieldError,
    MaskedBlendField,
    NeuralVelocityField,
    SummedField,
    ZeroField,
    box_mask,
    build_field,
    build_mask,
    sphere_mask,
    time_encoding,
)


def small_grid(seed=0, channels=2, res=3):
    return fg.create_grid(np.zeros(3), np.ones(3), spatial_resolution=res,
                          time_resolution=res, channels=channels, seed=seed)


class TestAnalyticSpotValues:
    def test_spin_unit_circle(self):
        f = AnalyticField("spin", center=(0.0, 0.0, 0.0), omega=2.0)
        d = f.evaluate_batch(np.array([[1.0, 0.0, 0.0]]), None, 0.0)
        np.testing.assert_allclose(d.d_position[0], [0.0, 2.0, 0.0], atol=1e-12)

    def test_vortex_on_axis(self):
        f = AnalyticField("vortex", u0=0.5)
        d = f.evaluate_batch(np.array([[0.0, 0.0, 1.0]]), None, 0.0)
        # r = 0 so the tangential part vanishes and e^{-r^2} = 1
        np.testing.assert_allclose(d.d_position[0], [0.0, 0.0, 0.5], atol=1e-12)

    def test_gravity_acceleration(self):
        f = AnalyticField("gravity_bounce", g=-9.8)
        d = f.evaluate_batch(np.array([[0.3, 0.2, 0.9]]), np.array([[0.1, 0.0, 0.0]]), 0.0)
        np.testing.assert_allclose(d.d_velocity[0], [0.0, 0.0, -9.8])
        np.testing.assert_allclose(d.d_position[0], [0.1, 0.0, 0.0])  # dx/dt = v

    def test_wave_at_origin(self):
        f = AnalyticField("wave", A=1.0, f=1.0, c=1.0)
        d = f.evaluate_batch(np.array([[0.0, 0.0, 0.0]]), None, 0.0)
        np.testing.assert_allclose(d.d_position[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_drift_constant(self):
        f = AnalyticField("drift", delta=(0.3, 0.0, 0.0))
        d = f.evaluate_batch(np.array([[0.0, 0.0, 0.0], [5.0, -2.0, 1.0]]), None, 0.0)
        np.testing.assert_allclose(d.d_position, [[0.3, 0.0, 0.0], [0.3, 0.0, 0.0]])

    def test_orbital_inverse_square(self):
        f = AnalyticField("orbital", G=1.0, mu=0.0)
        d = f.evaluate_batch(np.array([[2.0, 0.0, 0.0]]), np.array([[0.0, 0.5, 0.0]]), 0.0)
        np.testing.assert_allclose(d.d_velocity[0], [-0.25, 0.0, 0.0])
        np.testing.assert_allclose(d.d_position[0], [0.0, 0.5, 0.0])

    def test_orbital_center_singularity(self):
        f = AnalyticField("orbital")
        with pytest.raises(FieldError, match="singular"):
            f.evaluate_batch(np.zeros((1, 3)), None, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FieldError):
            AnalyticField("whirlpool")

    def test_unknown_param_rejected(self):
        with pytest.raises(FieldError):
            AnalyticField("drift", speed=1.0)

    def test_gamma_range_enforced(self):
        with pytest.raises(FieldError):
            AnalyticField("gravity_bounce", gamma=1.5)


@pytest.mark.parametrize("kind", ANALYTIC_KINDS)
def test_second_order_position_moves_with_velocity(kind):
    # a second-order kind's d_position is its auxiliary velocity, bit for bit;
    # a first-order kind has no acceleration
    field = AnalyticField(kind, seed=3)
    rng = np.random.default_rng(9)
    p = rng.uniform(0.2, 0.8, (6, 3))
    v = rng.standard_normal((6, 3))
    d = field.evaluate_batch(p, v, 0.3, step_index=2)
    assert field.second_order == (kind in ("gravity_bounce", "diffusion_gas", "orbital", "reaction_diffusion"))
    if field.second_order:
        np.testing.assert_array_equal(d.d_position, v)
    else:
        np.testing.assert_array_equal(d.d_velocity, np.zeros((6, 3)))


class TestBounceEvents:
    def test_floor_reflection(self):
        f = AnalyticField("gravity_bounce", z0=0.0, gamma=0.8)
        p, v = f.apply_events(np.array([[0.5, 0.5, -0.1]]), np.array([[0.0, 0.0, -2.0]]))
        np.testing.assert_allclose(p[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(v[0], [0.0, 0.0, 1.6])

    def test_above_floor_unchanged(self):
        f = AnalyticField("gravity_bounce", z0=0.0, gamma=0.8)
        p, v = f.apply_events(np.array([[0.5, 0.5, 0.3]]), np.array([[0.0, 0.0, -2.0]]))
        np.testing.assert_allclose(p[0], [0.5, 0.5, 0.3])
        np.testing.assert_allclose(v[0], [0.0, 0.0, -2.0])

    def test_idempotent_once_rising(self):
        f = AnalyticField("gravity_bounce", z0=0.0, gamma=0.8)
        p, v = f.apply_events(np.array([[0.5, 0.5, -0.1]]), np.array([[0.0, 0.0, -2.0]]))
        p2, v2 = f.apply_events(p, v)
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(v2, v)


class TestStochasticDeterminism:
    @pytest.mark.parametrize("kind", ["swirl", "diffusion_gas", "wind_curl", "reaction_diffusion"])
    def test_same_seed_same_values(self, kind):
        extra = {"eta": 0.5} if kind in ("swirl", "wind_curl") else {}
        a = AnalyticField(kind, seed=7, **extra)
        b = AnalyticField(kind, seed=7, **extra)
        p = np.random.default_rng(0).uniform(0, 1, size=(5, 3))
        v = np.zeros((5, 3))
        da = a.evaluate_batch(p, v, 0.2, step_index=3)
        db = b.evaluate_batch(p, v, 0.2, step_index=3)
        np.testing.assert_array_equal(da.d_position, db.d_position)
        pa, va = a.apply_events(p, v, 0.2, step_index=3)
        pb, vb = b.apply_events(p, v, 0.2, step_index=3)
        np.testing.assert_array_equal(va, vb)

    def test_different_step_index_changes_noise(self):
        f = AnalyticField("diffusion_gas", seed=7, sigma=1.0)
        p = np.zeros((4, 3))
        v = np.zeros((4, 3))
        _, v1 = f.apply_events(p, v, 0.0, step_index=1)
        _, v2 = f.apply_events(p, v, 0.0, step_index=2)
        assert np.any(v1 != v2)


def cache_buffers(cache):
    """Every array a forward cache holds, directly or in a list or tuple."""
    for value in vars(cache).values():
        yield from (a for a in (value if isinstance(value, (list, tuple)) else [value]) if isinstance(a, np.ndarray))


class TestNeuralField:
    @pytest.mark.parametrize("hidden", [(64, 64), (6,), (5, 7, 3)])
    def test_cache_holds_query_corners_and_hidden_outputs(self, hidden):
        # 24 B of position, 8 B per hidden unit and 192 B of grid corners a
        # row (the corner columns and the two offsets); no MLP input or output
        field = NeuralVelocityField(small_grid(channels=3), hidden=hidden)
        n = 11
        held = sum(a.nbytes for a in cache_buffers(field.new_cache(n)))
        assert held == n * (24 + 8 * sum(hidden) + 192)
        if hidden == (64, 64):
            assert held == n * 1240

    def test_output_shares_no_memory_with_its_cache(self):
        field = NeuralVelocityField(small_grid(seed=5), hidden=(4, 3), seed=5, output_scale=1.0)
        p = np.random.default_rng(6).uniform(0, 1, (5, 3))
        given = field.new_cache(5)
        for cache in (given, None):
            out, kept = field.forward(p, 0.4, want_cache=True, cache=cache)
            assert out.shape == (5, 9)
            assert not any(np.shares_memory(out, a) for a in cache_buffers(kept))

    def test_zero_weights_zero_output(self):
        field = NeuralVelocityField(small_grid(), hidden=(8,), seed=0, output_scale=0.0)
        out = field.forward(np.random.default_rng(1).uniform(0, 1, (4, 3)), 0.3)
        np.testing.assert_array_equal(out, np.zeros((4, 9)))

    def test_bias_only_network_constant(self):
        field = NeuralVelocityField(small_grid(), hidden=(8,), seed=0, output_scale=0.0)
        field.biases[-1][:] = np.arange(9.0)
        out = field.forward(np.random.default_rng(2).uniform(0, 1, (5, 3)), 0.7)
        for row in out:
            np.testing.assert_allclose(row, np.arange(9.0))

    def test_deterministic_evaluation(self):
        field = NeuralVelocityField(small_grid(seed=3), hidden=(6, 6), seed=3, output_scale=1.0)
        p = np.random.default_rng(4).uniform(0, 1, (3, 3))
        np.testing.assert_array_equal(field.forward(p, 0.4), field.forward(p, 0.4))

    def test_nonfinite_activation_names_layer(self):
        field = NeuralVelocityField(small_grid(), hidden=(4,), seed=0, output_scale=1.0)
        field.weights[0][0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="layer 0"):
            field.forward(np.full((1, 3), 0.5), 0.5)

    def test_backward_zero_upstream(self):
        field = NeuralVelocityField(small_grid(seed=5), hidden=(6,), seed=5, output_scale=1.0)
        p = np.random.default_rng(6).uniform(0, 1, (3, 3))
        _, cache = field.forward(p, 0.2, want_cache=True)
        grads, g_pos = field.backward(cache, np.zeros((3, 9)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(g_pos, np.zeros((3, 3)))

    def test_backward_batch_linearity(self):
        field = NeuralVelocityField(small_grid(seed=7), hidden=(6,), seed=7, output_scale=1.0)
        rng = np.random.default_rng(8)
        p = rng.uniform(0.1, 0.9, (4, 3))
        upstream = rng.uniform(-1, 1, (4, 9))
        _, cache = field.forward(p, 0.3, want_cache=True)
        grads_all, _ = field.backward(cache, upstream)
        summed = [np.zeros_like(g) for g in grads_all]
        for i in range(4):
            _, c_i = field.forward(p[i : i + 1], 0.3, want_cache=True)
            g_i, _ = field.backward(c_i, upstream[i : i + 1])
            for acc, g in zip(summed, g_i):
                acc += g
        for a, b in zip(grads_all, summed):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        field = NeuralVelocityField(small_grid(seed=9, channels=1), hidden=(5,), seed=9, output_scale=1.0)
        rng = np.random.default_rng(10)
        p = rng.uniform(0.15, 0.85, (2, 3))
        t = 0.37
        upstream = rng.uniform(-1, 1, (2, 9))
        _, cache = field.forward(p, t, want_cache=True)
        grads, g_pos = field.backward(cache, upstream)
        params = field.parameters()
        eps = 1e-6

        def scalar_loss():
            return float(np.sum(upstream * field.forward(p, t)))

        rel_errs = []
        for pi, g in zip(params, grads):
            flat_p = pi.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in rng.choice(flat_p.size, size=min(5, flat_p.size), replace=False):
                flat_p[idx] += eps
                up = scalar_loss()
                flat_p[idx] -= 2 * eps
                dn = scalar_loss()
                flat_p[idx] += eps
                fd = (up - dn) / (2 * eps)
                rel_errs.append(abs(flat_g[idx] - fd) / max(abs(fd), 1e-4))
        assert max(rel_errs) < 1e-5

        for i in range(2):
            for axis in range(3):
                dp = np.zeros((2, 3))
                dp[i, axis] = eps
                fd = (float(np.sum(upstream * field.forward(p + dp, t)))
                      - float(np.sum(upstream * field.forward(p - dp, t)))) / (2 * eps)
                assert g_pos[i, axis] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_backward_shape_mismatch(self):
        field = NeuralVelocityField(small_grid(), hidden=(4,), seed=0)
        _, cache = field.forward(np.full((2, 3), 0.5), 0.5, want_cache=True)
        with pytest.raises(FieldError, match="upstream shape"):
            field.backward(cache, np.zeros((3, 9)))

    @pytest.mark.parametrize("rows", [1, 2])
    def test_forward_cache_row_mismatch(self, rows):
        # one row would otherwise broadcast over a three-row cache
        field = NeuralVelocityField(small_grid(), hidden=(4,), seed=0)
        with pytest.raises(FieldError, match="cache holds 3 rows"):
            field.forward(np.full((rows, 3), 0.5), 0.5, cache=field.new_cache(3))

    def test_every_parameter_is_a_view_of_theta(self):
        field = NeuralVelocityField(small_grid(seed=11), hidden=(6, 5), seed=11, output_scale=1.0)
        views = [*field.parameters(), *field.weights, *field.biases, field.grid.cells, *field.grid.planes]
        assert all(np.shares_memory(v, field.theta) for v in views)
        assert sum(p.size for p in field.parameters()) == field.theta.size
        assert [p.shape for p in field.views(field.zero_grads())] == [p.shape for p in field.parameters()]
        p = np.random.default_rng(12).uniform(0, 1, (3, 3))
        before = field.forward(p, 0.4).copy()
        field.theta[-1] += 1.0  # the last channel of the zt plane's last cell
        field.theta[field.weights[0].size] += 1.0  # the first entry of b0
        assert np.all(field.forward(p, 0.4) != before)

    def test_lookup_reads_the_cells_without_a_copy(self):
        grid = fg.create_grid(np.zeros(3), np.ones(3), seed=13)  # 36,864 cell floats
        positions = np.full((4, 3), 0.5)
        fg.lookup(grid, positions, 0.5)
        tracemalloc.start()
        try:
            fg.lookup(grid, positions, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.cells.nbytes / 4

    def test_grid_given_to_a_second_field_leaves_the_first(self):
        grid = small_grid(seed=14)
        cells = grid.cells.copy()
        first = NeuralVelocityField(grid, hidden=(4,), seed=1, output_scale=1.0)
        p = np.random.default_rng(15).uniform(0, 1, (3, 3))
        before = first.forward(p, 0.6).copy()
        second = NeuralVelocityField(grid, hidden=(4,), seed=2, output_scale=1.0)
        second.theta[:] = 0.5
        first.forward(p, 0.6)
        np.testing.assert_array_equal(first.forward(p, 0.6), before)
        np.testing.assert_array_equal(grid.cells, cells)
        assert not np.shares_memory(first.theta, second.theta)
        assert not np.shares_memory(grid.cells, first.theta)

    def test_time_encoding_shape(self):
        enc = time_encoding(0.25)
        assert enc.shape == (8,)
        np.testing.assert_allclose(enc[:4], np.sin(np.pi * 2.0 ** np.arange(4) * 0.25))


class TestComposition:
    def test_add_lambda_zero_equals_base(self):
        base = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        ext = AnalyticField("spin", omega=3.0)
        f = SummedField(base, ext, 0.0)
        p = np.random.default_rng(0).uniform(0, 1, (4, 3))
        np.testing.assert_array_equal(
            f.evaluate_batch(p, None, 0.1).d_position,
            base.evaluate_batch(p, None, 0.1).d_position,
        )

    def test_add_zero_base_equals_ext(self):
        ext = AnalyticField("spin", omega=2.0)
        f = SummedField(ZeroField(), ext, 1.0)
        p = np.random.default_rng(1).uniform(0, 1, (4, 3))
        np.testing.assert_array_equal(
            f.evaluate_batch(p, None, 0.0).d_position,
            ext.evaluate_batch(p, None, 0.0).d_position,
        )

    def test_add_two_drifts(self):
        f = SummedField(
            AnalyticField("drift", delta=(1.0, 0.0, 0.0)),
            AnalyticField("drift", delta=(0.0, 2.0, 0.0)),
            0.5,
        )
        d = f.evaluate_batch(np.array([[0.2, 0.2, 0.2]]), None, 0.0)
        np.testing.assert_allclose(d.d_position[0], [1.0, 1.0, 0.0])

    def test_four_channels_mixed_order(self):
        # a first-order field's d_velocity is zeros, so sum and blend combine
        # all four channels alike
        p = np.array([[0.2, 0.3, 0.4], [0.6, 0.5, 0.4]])
        drift, grav = AnalyticField("drift"), AnalyticField("gravity_bounce", g=-2.0)
        np.testing.assert_array_equal(drift.evaluate_batch(p, None, 0.0).d_velocity, np.zeros((2, 3)))
        for f in (SummedField(drift, grav, 0.5),
                  MaskedBlendField(drift, grav, lambda q: np.full(len(q), 0.5))):
            d = f.evaluate_batch(p, None, 0.0)
            assert f.second_order and len(d) == 4 and all(c.shape == (2, 3) for c in d)
            np.testing.assert_array_equal(d.d_velocity, np.broadcast_to([0.0, 0.0, -1.0], (2, 3)))

    def test_add_associative_up_to_fp(self):
        rng = np.random.default_rng(2)
        fields_3 = [AnalyticField("drift", delta=tuple(rng.uniform(-1, 1, 3))) for _ in range(3)]
        a = SummedField(SummedField(fields_3[0], fields_3[1], 1.0), fields_3[2], 1.0)
        b = SummedField(fields_3[0], SummedField(fields_3[1], fields_3[2], 1.0), 1.0)
        p = rng.uniform(0, 1, (5, 3))
        da = a.evaluate_batch(p, None, 0.0).d_position
        db = b.evaluate_batch(p, None, 0.0).d_position
        assert np.max(np.abs(da - db)) < 1e-12

    def test_blend_hard_limits_bitwise(self):
        base = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        inj = AnalyticField("spin", omega=2.0)
        p = np.random.default_rng(3).uniform(0, 1, (6, 3))
        all_inj = MaskedBlendField(base, inj, lambda x: np.ones(len(x)))
        all_base = MaskedBlendField(base, inj, lambda x: np.zeros(len(x)))
        np.testing.assert_array_equal(
            all_inj.evaluate_batch(p, None, 0.0).d_position,
            inj.evaluate_batch(p, None, 0.0).d_position,
        )
        np.testing.assert_array_equal(
            all_base.evaluate_batch(p, None, 0.0).d_position,
            base.evaluate_batch(p, None, 0.0).d_position,
        )

    def test_blend_half_mixes(self):
        base = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        inj = AnalyticField("drift", delta=(0.0, 1.0, 0.0))
        f = MaskedBlendField(base, inj, lambda x: np.full(len(x), 0.5))
        d = f.evaluate_batch(np.array([[0.5, 0.5, 0.5]]), None, 0.0)
        np.testing.assert_allclose(d.d_position[0], [0.5, 0.5, 0.0])

    def test_blend_partition_with_binary_mask(self):
        base = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        inj = AnalyticField("vortex")
        mask = sphere_mask([0.5, 0.5, 0.5], 0.2)
        f = MaskedBlendField(base, inj, mask)
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, (50, 3))
        d = f.evaluate_batch(p, None, 0.1).d_position
        inside = mask(p) == 1.0
        np.testing.assert_array_equal(d[inside], inj.evaluate_batch(p, None, 0.1).d_position[inside])
        np.testing.assert_array_equal(d[~inside], base.evaluate_batch(p, None, 0.1).d_position[~inside])

    def test_mask_out_of_range_rejected(self):
        f = MaskedBlendField(ZeroField(), ZeroField(), lambda x: np.full(len(x), 1.5))
        with pytest.raises(FieldError, match="outside"):
            f.evaluate_batch(np.zeros((2, 3)), None, 0.0)


class TestSpinDivergence:
    def test_divergence_free_numerically(self):
        f = AnalyticField("spin", omega=1.7)
        rng = np.random.default_rng(5)
        eps = 1e-5
        for _ in range(100):
            p = rng.uniform(-1, 1, 3)
            div = 0.0
            for axis in range(3):
                dp = np.zeros(3)
                dp[axis] = eps
                vp = f.evaluate_batch((p + dp)[None, :], None, 0.0).d_position[0, axis]
                vm = f.evaluate_batch((p - dp)[None, :], None, 0.0).d_position[0, axis]
                div += (vp - vm) / (2 * eps)
            assert abs(div) < 1e-6


class TestMasks:
    def test_sphere_hard_edges(self):
        mask = sphere_mask([0.0, 0.0, 0.0], 1.0)
        vals = mask(np.array([[0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]]))
        np.testing.assert_array_equal(vals, [1.0, 1.0, 0.0])

    def test_sphere_soft_edge_in_range(self):
        mask = sphere_mask([0.0, 0.0, 0.0], 1.0, edge_width=0.5)
        d = np.linspace(0, 2, 50)
        vals = mask(np.stack([d, np.zeros(50), np.zeros(50)], axis=1))
        assert np.all((vals >= 0) & (vals <= 1))
        assert vals[0] == 1.0 and vals[-1] == 0.0

    def test_box_mask(self):
        mask = box_mask([0, 0, 0], [1, 1, 1])
        vals = mask(np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]))
        np.testing.assert_array_equal(vals, [1.0, 0.0])


class TestBuildField:
    def test_leaf_kind(self):
        f = build_field({"kind": "drift", "params": {"delta": [0.3, 0, 0]}})
        np.testing.assert_allclose(f.evaluate_batch(np.zeros((1, 3)), None, 0.0).d_position[0], [0.3, 0, 0])

    def test_add_tree(self):
        spec = {
            "op": "add",
            "lam": 0.5,
            "children": [
                {"kind": "drift", "params": {"delta": [1.0, 0, 0]}},
                {"kind": "drift", "params": {"delta": [0.0, 2.0, 0]}},
            ],
        }
        f = build_field(spec)
        assert isinstance(f, SummedField)
        np.testing.assert_allclose(f.evaluate_batch(np.zeros((1, 3)), None, 0.0).d_position[0], [1.0, 1.0, 0.0])

    def test_blend_tree(self):
        spec = {
            "op": "blend",
            "mask": {"shape": "sphere", "center": [0, 0, 0], "radius": 1.0},
            "children": [{"kind": "zero"}, {"kind": "drift", "params": {"delta": [1.0, 0, 0]}}],
        }
        f = build_field(spec)
        assert isinstance(f, MaskedBlendField)
        d = f.evaluate_batch(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]), None, 0.0)
        np.testing.assert_allclose(d.d_position, [[1.0, 0, 0], [0.0, 0, 0]])

    def test_readme_example(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        spec = json.loads(readme.split("```json\n")[1].split("```")[0])
        f = build_field(spec)
        center = np.array([[0.5, 0.5, 0.5]])
        outside = np.array([[0.9, 0.1, 0.5]])
        spin = AnalyticField("spin", center=(0.5, 0.5, 0.5), omega=4.0)
        np.testing.assert_array_equal(f.evaluate_batch(center, None, 0.0).d_position,
                                      spin.evaluate_batch(center, None, 0.0).d_position)
        base = SummedField(AnalyticField("drift", delta=(0.3, 0, 0)), AnalyticField("wind_curl", w=0.0), 0.5)
        np.testing.assert_array_equal(f.evaluate_batch(outside, None, 0.0).d_position,
                                      base.evaluate_batch(outside, None, 0.0).d_position)

    def test_neural_leaf_needs_loader(self):
        with pytest.raises(FieldError, match="loader"):
            build_field({"kind": "neural", "checkpoint": "x.gsd"})

    def test_bad_mask_shape(self):
        with pytest.raises(FieldError):
            build_mask({"shape": "torus"})

    @pytest.mark.parametrize("build,spec,match", [
        (build_mask, {"shape": "sphere", "radius": 1.0}, "sphere mask needs the key 'center'"),
        (build_mask, {"shape": "box", "lo": [0, 0, 0]}, "box mask needs the key 'hi'"),
        (build_mask, [0.5, 0.5, 0.5], "mask must be a JSON object, got list"),
        (build_field, [{"kind": "drift"}], "field must be a JSON object, got list"),
        (build_field, {"kind": "neural"}, "neural field needs the key 'checkpoint'"),
        (build_field, {"op": "blend", "children": [{"kind": "zero"}, {"kind": "zero"}]},
         "blend needs the key 'mask'"),
        (build_field, {"kind": "drift", "params": [1.0]}, "drift params must be a JSON object"),
        (build_field, {"op": "add", "lam": [1], "children": [{"kind": "zero"}, {"kind": "spin"}]},
         "add: 'lam' must be a finite number"),
        (build_field, {"op": "add", "lam": float("nan"), "children": [{"kind": "zero"}, {"kind": "spin"}]},
         "add: 'lam' must be a finite number"),
        (build_mask, {"shape": "sphere", "center": {"a": 1}, "radius": 0.3}, "mask: 'center' must be a finite 3-vector"),
        (build_mask, {"shape": "sphere", "center": [0, 0, 0], "radius": "x"}, "mask: 'radius' must be a finite number"),
        (build_mask, {"shape": "box", "lo": [0, 0, 0], "hi": [1, 1]}, "mask: 'hi' must be a finite 3-vector"),
        (build_mask, {"shape": "sphere", "center": [0, 0, 0], "radius": 1, "edge_width": float("nan")},
         "mask: 'edge_width' must be a finite number"),
    ])
    def test_malformed_spec_names_the_key(self, build, spec, match):
        with pytest.raises(FieldError, match=match):
            build(spec)

    @pytest.mark.parametrize("kind,params", [
        ("drift", {"delta": "abc"}), ("drift", {"delta": [0.1, None, 0.0]}), ("spin", {"omega": float("inf")}),
        ("spin", {"center": [0.5, float("nan"), 0.5]}), ("drift", {"delta": "0.3"}), ("spin", {"omega": True}),
        ("spin", {"center": [1, 2]}), ("orbital", {"center": [1, 2]}), ("diffusion_gas", {"d": [0.1]}),
        ("drift", {"delta": [1, 2]}), ("drift", {"delta": [[1, 0, 0]]}), ("vortex", {"omega": [1.0, 1.0, 1.0]}),
    ])
    def test_non_numeric_parameter_names_kind_and_key(self, kind, params):
        # a parameter is finite and shaped like its default; drift's delta may also be a 3-vector
        key = next(iter(params))
        form = {"delta": "a finite number or a finite 3-vector", "center": "a finite 3-vector",
                "d": "a finite 3-vector"}.get(key, "a finite number")
        with pytest.raises(FieldError, match=f"{kind}: parameter '{key}' must be {form}, got "):
            AnalyticField(kind, **params)

    @pytest.mark.parametrize("seed", [[1], "1", 1.5, True, None, -1])
    def test_seed_not_an_integer_names_the_key(self, seed):
        with pytest.raises(FieldError, match="drift: 'seed' must be a non-negative integer"):
            build_field({"kind": "drift", "seed": seed})
