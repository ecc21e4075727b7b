"""Losses, coherence regularizer, unrolled gradients, Adam, and fit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gsdyn import arrayio, cli, feature_grid as fg, integrate as itg, train
from gsdyn.anchors import AnchorSet
from gsdyn.fields import AnalyticField, NeuralVelocityField, ZeroField
from gsdyn.scene import GaussianCloud, SceneData, knn


@pytest.fixture(autouse=True, scope="module")
def raise_on_float_errors():
    """Numpy floating-point errors raise inside this module's tests only."""
    with np.errstate(all="raise", under="ignore"):
        yield


def make_cloud(positions, time=0.0):
    n = len(positions)
    return GaussianCloud(
        positions=np.asarray(positions, dtype=float),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), -3.0),
        colors=np.full((n, 3), 0.5),
        opacities=np.full(n, 0.8),
        time=time,
    )


def tiny_field(seed=0, n_channels=1, res=3, hidden=(5,), output_scale=1.0):
    grid = fg.create_grid(np.zeros(3) - 0.5, np.ones(3) + 0.5, spatial_resolution=res,
                          time_resolution=res, channels=n_channels, seed=seed)
    return NeuralVelocityField(grid, hidden=hidden, seed=seed + 1, output_scale=output_scale)


small_training_config = train.TrainingConfig(
    epochs=40,
    hidden=(8,),
    grid_spatial_resolution=4,
    grid_time_resolution=4,
    grid_channels=2,
    knn_k=2,
)


class TestCoherenceLoss:
    def test_two_point_fixture_literal(self):
        # distance 1, K=1, zero field: sigma = 0.5, w = e^-2 for both ordered
        # pairs, L = (2 e^-2 * 1) / (2 e^-2 + eps) ~= 1
        cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nb = knn(cloud, 1)
        val = train.coherence_loss(cloud, nb, ZeroField(), h=0.02, variant="literal")
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_literal_translation_invariance(self):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng.uniform(0, 1, (12, 3)))
        nb = knn(cloud, 3)
        still = train.coherence_loss(cloud, nb, ZeroField(), h=0.05, variant="literal")
        moving = train.coherence_loss(cloud, nb, AnalyticField("drift", delta=(2.0, -1.0, 0.5)),
                                      h=0.05, variant="literal")
        # pairwise differences unchanged by translation, up to roundoff
        assert moving == pytest.approx(still, abs=1e-14)

    def test_relative_zero_for_rigid_translation(self):
        rng = np.random.default_rng(1)
        cloud = make_cloud(rng.uniform(0, 1, (10, 3)))
        nb = knn(cloud, 3)
        val = train.coherence_loss(cloud, nb, AnalyticField("drift", delta=(1.0, 2.0, 3.0)),
                                   h=0.05, variant="relative")
        assert val == pytest.approx(0.0, abs=1e-24)

    def test_relative_positive_for_vortex(self):
        rng = np.random.default_rng(2)
        cloud = make_cloud(rng.uniform(0.2, 0.8, (10, 3)))
        nb = knn(cloud, 3)
        val = train.coherence_loss(cloud, nb, AnalyticField("vortex"), h=0.05, variant="relative")
        assert val > 0.0

    def test_second_order_field_starts_at_rest(self):
        # the auxiliary velocity starts at zero and is carried through the
        # stages, so a position-dependent acceleration shears the cloud
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng.uniform(0.2, 0.8, (10, 3)))
        nb = knn(cloud, 3)
        field = AnalyticField("orbital", center=(0.0, 0.0, 0.0), G=1.0)
        val = train.coherence_loss(cloud, nb, field, h=0.05, variant="relative")
        assert val > 0.0

    def test_coincident_points_rejected(self):
        cloud = make_cloud([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        nb = np.array([[1], [0]])
        with pytest.raises(train.TrainingError, match="sigma"):
            train.coherence_loss(cloud, nb, ZeroField(), h=0.02)

    def test_coincident_points_rejected_when_the_plan_is_built(self):
        frames = np.full((3, 2, 3), 0.5)
        scene = SceneData(cloud=make_cloud(frames[0]), trajectory_times=np.linspace(0.0, 1.0, 3),
                          trajectory_positions=frames)
        with pytest.raises(train.TrainingError, match="sigma"):
            train._build_plan(scene, train.TrainingConfig(knn_k=1))

    def test_nonpositive_h_rejected(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            train.coherence_loss(cloud, knn(cloud, 1), ZeroField(), h=0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng.uniform(0, 1, (8, 3)))
        nb = knn(cloud, 2)
        field = AnalyticField("swirl", s0=0.4, s1=0.4)
        h = 0.05
        val = train.coherence_loss(cloud, nb, field, h, variant="literal")
        # independent recomputation of the displayed formula
        p = cloud.positions
        xh = itg.rollout(cloud, 0.0, h, itg.IntegratorConfig(step_count=1), field).positions[-1]
        d_sum = 0.0
        count = 0
        for i in range(8):
            for j in nb[i]:
                d_sum += np.linalg.norm(p[i] - p[j])
                count += 1
        sigma = 0.5 * d_sum / count
        num = den = 0.0
        for i in range(8):
            for j in nb[i]:
                w = np.exp(-np.linalg.norm(p[i] - p[j]) / sigma)
                num += w * float(np.sum((xh[i] - xh[j]) ** 2))
                den += w
        assert val == pytest.approx(num / (den + 1e-8), rel=1e-12)


class TestTotalLoss:
    def test_zero_weights(self):
        cfg = train.TrainingConfig(lambda_coh=0, lambda_anchor=0, lambda_tv=0)
        report = train.total_loss(1.7, 5.0, 6.0, 7.0, cfg)
        assert report.total == 1.7
        assert report.data == 1.7

    def test_arithmetic_example(self):
        cfg = train.TrainingConfig(lambda_coh=0.1, lambda_anchor=0.2, lambda_tv=0.3)
        assert train.total_loss(1.0, 2.0, 3.0, 4.0, cfg).total == pytest.approx(3.0)

    def test_report_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cfg = train.TrainingConfig(*rng.uniform(0, 1, 3))
            d, c, a, t = rng.uniform(0, 5, 4)
            r = train.total_loss(d, c, a, t, cfg)
            recomputed = r.data + cfg.lambda_coh * r.coherence + cfg.lambda_anchor * r.anchor + cfg.lambda_tv * r.tv
            assert abs(r.total - recomputed) < 1e-9

    def test_nonfinite_term_named(self):
        with pytest.raises(train.TrainingError, match="coherence"):
            train.total_loss(1.0, np.inf, 0.0, 0.0, train.TrainingConfig())

    def test_affine_in_each_weight(self):
        # three-point collinearity in each regularizer weight
        d, c, a, t = 1.3, 0.7, 2.1, 0.4
        for key in ("lambda_coh", "lambda_anchor", "lambda_tv"):
            vals = []
            for w in (0.0, 0.5, 1.0):
                cfg = train.TrainingConfig(**{key: w})
                vals.append(train.total_loss(d, c, a, t, cfg).total)
            assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), rel=1e-12)


def still_epoch(frames):
    """Loss report of one epoch, over a scene with the given (F, N, 3)
    frames, of a field whose zero output layer keeps every segment at its
    start anchor."""
    scene = SceneData(cloud=make_cloud(frames[0]), trajectory_times=np.linspace(0.0, 1.0, len(frames)),
                      trajectory_positions=frames)
    cfg = train.TrainingConfig(hidden=(4,), grid_spatial_resolution=3, grid_time_resolution=3,
                               grid_channels=1, knn_k=1, steps_per_unit=4)
    plan = train._build_plan(scene, cfg)
    report, _ = train._epoch_losses_and_grads(tiny_field(output_scale=0.0), plan, cfg)
    return report, plan


class TestTrajectoryDataLoss:
    """The data term: mean squared position error over supervised frames
    and Gaussians."""

    def test_exact_zero(self):
        frames = np.tile(np.random.default_rng(5).uniform(0, 1, (1, 4, 3)), (3, 1, 1))
        assert still_epoch(frames)[0].data == 0.0

    def test_single_offset(self):
        frames = np.tile([[[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]], (5, 1, 1))
        frames[1, 0, 2] += 2.0  # not an anchor frame: anchors are t = 0, 0.5, 1
        report, plan = still_epoch(frames)
        assert len(plan.supervised_times) - 1 == 4
        assert report.data == pytest.approx(4.0 / (4 * 2))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        frames = rng.uniform(0, 1, (5, 3, 3))
        report, plan = still_epoch(frames)
        total = 0.0
        for seg in plan.segments:
            for target in seg.data_targets:
                for g in range(3):
                    total += float(np.sum((seg.p_start[g] - target[g]) ** 2))
        assert report.data == pytest.approx(total / ((len(plan.supervised_times) - 1) * 3), rel=1e-12)


def theta_of(*groups):
    """A field whose parameter groups start with these values, rest zero."""
    field = tiny_field()
    field.theta[:] = 0.0
    for view, values in zip(field.parameters(), groups):
        view.reshape(-1)[: len(values)] = values
    return field


class TestAdam:
    def test_zero_grad_keeps_params(self):
        cfg = train.TrainingConfig()
        field = theta_of([1.0, 2.0])
        before = field.theta.copy()
        grads = field.zero_grads()
        moments = train.adam_step(field, grads, None, cfg, 1)
        np.testing.assert_array_equal(field.theta, before)
        # after a real gradient, a zero-grad step decays the moments by beta1
        train.adam_step(field, np.ones_like(grads), moments, cfg, 2)
        m_before = moments[0].copy()
        train.adam_step(field, grads, moments, cfg, 3)
        np.testing.assert_allclose(moments[0], train.ADAM_BETA1 * m_before)

    def test_first_step_magnitude(self):
        cfg = train.TrainingConfig(learning_rate=0.01)
        field = theta_of()
        grads = field.zero_grads()
        grads[0] = 3.0
        train.adam_step(field, grads, None, cfg, 1)
        # bias correction makes the first update ~ -lr * sign(g)
        assert field.theta[0] == pytest.approx(-0.01, rel=1e-6)
        np.testing.assert_array_equal(field.theta[1:], 0.0)

    def test_three_step_hand_oracle(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        cfg = train.TrainingConfig(learning_rate=lr)
        field = theta_of([1.0])
        moments = None
        grads_seq = [0.5, -0.2, 0.8]
        # scalar reference computation
        x, m, v = 1.0, 0.0, 0.0
        for i, g in enumerate(grads_seq, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**i)) / (np.sqrt(v / (1 - b2**i)) + eps)
            grads = field.zero_grads()
            grads[0] = g
            moments = train.adam_step(field, grads, moments, cfg, i)
            assert field.theta[0] == pytest.approx(x, rel=1e-12)

    def test_shape_mismatch(self):
        field = tiny_field()
        with pytest.raises(ValueError):
            train.adam_step(field, np.zeros(field.theta.size + 1), None, train.TrainingConfig(), 1)

    def test_nonfinite_gradient_rejected_before_update(self):
        field = tiny_field()
        before = field.theta.copy()
        grads = np.ones_like(field.theta)
        plane_xy = field.parameter_names().index("plane_xy")
        field.views(grads)[plane_xy][1, 0, 0] = np.nan
        with pytest.raises(train.TrainingError, match="plane_xy"):
            train.adam_step(field, grads, None, train.TrainingConfig(), 1)
        np.testing.assert_array_equal(field.theta, before)


class TestUnrolledGradients:
    def data_grad_setup(self, seed, n=3, n_ck=2):
        rng = np.random.default_rng(seed)
        field = tiny_field(seed=seed)
        p0 = rng.uniform(0.2, 0.8, (n, 3))
        ck_times = sorted(rng.uniform(0.1, 0.9, n_ck))
        targets = [rng.uniform(0, 1, (n, 3)) for _ in ck_times]
        return field, p0, list(ck_times), targets

    def loss_and_grads(self, field, p0, ck_times, targets, steps_per_unit=4):
        legs = itg.legs_between([0.0, *ck_times], steps_per_unit)
        checkpoints, tape = train.unroll_segment(field, p0, legs)
        loss = 0.0
        ck_grads = []
        for (p, theta, scale), tgt in zip(checkpoints, targets):
            loss += float(np.sum((p - tgt) ** 2))
            ck_grads.append((2.0 * (p - tgt), None, None))
        grads = train.backward_through_rollout(field, tape, legs, ck_grads)
        return loss, grads

    def test_zero_network_output_bias_gradient(self):
        field = tiny_field(seed=7, output_scale=0.0)
        p0 = np.full((2, 3), 0.5)
        target = [p0 + [0.1, 0.0, 0.0]]
        loss, grads = self.loss_and_grads(field, p0, [0.5], target)
        bias_grad = field.views(grads)[2 * len(field.weights) - 1]
        assert np.any(bias_grad[:3] != 0.0)
        eps = 1e-6
        field.biases[-1][0] += eps
        up, _ = self.loss_and_grads(field, p0, [0.5], target)
        field.biases[-1][0] -= 2 * eps
        dn, _ = self.loss_and_grads(field, p0, [0.5], target)
        field.biases[-1][0] += eps
        assert bias_grad[0] == pytest.approx((up - dn) / (2 * eps), rel=1e-6)

    def test_full_model_finite_differences(self):
        field, p0, ck_times, targets = self.data_grad_setup(seed=8, n=5, n_ck=3)
        _, grads = self.loss_and_grads(field, p0, ck_times, targets)
        params = field.parameters()
        rng = np.random.default_rng(9)
        eps = 1e-6
        for name, p, g in zip(field.parameter_names(), params, field.views(grads)):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            worst = 0.0
            for idx in rng.choice(flat_p.size, size=min(4, flat_p.size), replace=False):
                flat_p[idx] += eps
                up, _ = self.loss_and_grads(field, p0, ck_times, targets)
                flat_p[idx] -= 2 * eps
                dn, _ = self.loss_and_grads(field, p0, ck_times, targets)
                flat_p[idx] += eps
                fd = (up - dn) / (2 * eps)
                worst = max(worst, abs(flat_g[idx] - fd) / max(abs(fd), 1e-3))
            assert worst < 1e-4, f"{name}: rel err {worst}"

    def test_checkpoint_gradient_count_checked(self):
        field, p0, ck_times, targets = self.data_grad_setup(seed=10)
        legs = itg.legs_between([0.0, *ck_times], 4)
        _, tape = train.unroll_segment(field, p0, legs)
        with pytest.raises(train.TrainingError, match="checkpoints"):
            train.backward_through_rollout(field, tape, legs, [None])

    def test_coherence_weight_linearity(self):
        # doubling lambda_coh doubles the coherence-attributable gradient
        scene = cli.generate_scene("spin", 5, 4, seed=11, params={"omega": 1.0})

        def epoch_grads(lam):
            cfg = train.TrainingConfig(
                lambda_coh=lam, lambda_anchor=0.0, lambda_tv=0.0,
                epochs=1, hidden=(5,), grid_spatial_resolution=3,
                grid_time_resolution=3, grid_channels=1, knn_k=2, steps_per_unit=2,
            )
            plan = train._build_plan(scene, cfg)
            field = tiny_field(seed=12)
            _, grads = train._epoch_losses_and_grads(field, plan, cfg)
            return grads

        g0 = epoch_grads(0.0)
        g1 = epoch_grads(0.1)
        g2 = epoch_grads(0.2)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), atol=1e-10)

    @pytest.mark.parametrize("variant", ["relative", "literal"])
    def test_subsampled_coherence_finite_differences(self, variant):
        # clouds above COHERENCE_BATCH score a row subset each epoch; the
        # coherence gradient over those rows matches central differences
        scene = cli.generate_scene("vortex", 12, 4, seed=22)
        rows = np.array([1, 4, 5, 9])
        field = tiny_field(seed=23)

        def config(lam):
            return train.TrainingConfig(
                lambda_coh=lam, lambda_anchor=0.0, lambda_tv=0.0, coherence_variant=variant,
                hidden=(5,), grid_spatial_resolution=3, grid_time_resolution=3,
                grid_channels=1, knn_k=3, steps_per_unit=2,
            )

        plan = train._build_plan(scene, config(1.0))
        _, with_coh = train._epoch_losses_and_grads(field, plan, config(1.0), rows)
        _, without = train._epoch_losses_and_grads(field, plan, config(0.0), rows)

        def coherence():
            r, _ = train._epoch_losses_and_grads(field, plan, config(1.0), rows)
            return r.coherence

        rng = np.random.default_rng(24)
        eps = 1e-6
        worst = 0.0
        for p, g in zip(field.parameters(), field.views(with_coh - without)):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for idx in rng.choice(flat_p.size, size=min(3, flat_p.size), replace=False):
                flat_p[idx] += eps
                up = coherence()
                flat_p[idx] -= 2 * eps
                dn = coherence()
                flat_p[idx] += eps
                fd = (up - dn) / (2 * eps)
                worst = max(worst, abs(flat_g[idx] - fd) / max(abs(fd), 1e-3))
        assert worst < 1e-4

    @pytest.mark.parametrize("case", ["drift", "vortex300"])
    def test_production_shape_directional_derivative(self, case):
        if case == "drift":  # criterion 6's scene at stride 4
            scene = cli.generate_scene("drift", 10, 20, seed=5, params={"delta": [0.3, 0.0, 0.0]})
            config, rows = train.TrainingConfig(frame_stride=4), None
        else:  # a cloud above COHERENCE_BATCH, which scores a row subset
            scene = cli.generate_scene("vortex", 300, 3, seed=7)
            config = train.TrainingConfig()
            rows = np.sort(np.random.default_rng(8).choice(300, train.COHERENCE_BATCH, replace=False))
        # the default shape: hidden (64, 64), a 32/16 grid of 8 channels, 32
        # steps per unit; a nonzero output layer so every term has a gradient
        assert (config.hidden, config.grid_channels, config.steps_per_unit) == ((64, 64), 8, 32)
        plan = train._build_plan(scene, config)
        all_p = scene.trajectory_positions.reshape(-1, 3)
        grid = fg.create_grid(all_p.min(axis=0) - 0.3, all_p.max(axis=0) + 0.3, config.grid_spatial_resolution,
                              config.grid_time_resolution, config.grid_channels, seed=1)
        field = NeuralVelocityField(grid, hidden=config.hidden, seed=2, output_scale=0.1)
        _, grads = train._epoch_losses_and_grads(field, plan, config, rows)
        direction = np.random.default_rng(3).standard_normal(field.theta.size)
        theta = field.theta.copy()
        eps = 1e-6
        totals = []
        for sign in (1.0, -1.0):
            field.theta[:] = theta + sign * eps * direction
            totals.append(train._epoch_losses_and_grads(field, plan, config, rows)[0].total)
        exact = grads @ direction
        assert abs((totals[0] - totals[1]) / (2 * eps) - exact) < 1e-6 * abs(exact)


def unequal_segment_plan():
    """An extrapolation plan whose two segments differ in length: 8 frames,
    the leading 75 percent supervised, anchors at frames 0 and 2, so the
    segments span 2 and 3 frame intervals."""
    scene = cli.generate_scene("vortex", 6, 8, seed=31)
    cfg = train.TrainingConfig(train_fraction=0.75, hidden=(6,), grid_spatial_resolution=4,
                               grid_time_resolution=4, grid_channels=2, knn_k=2, steps_per_unit=8)
    plan = train._build_plan(scene, cfg)
    lengths = [len(seg.legs) for seg in plan.segments]
    assert lengths == [2, 3]
    return scene, cfg, plan


def segment_steps(seg):
    return sum(len(steps) for _, _, steps in seg.legs)


class TestTape:
    """One reusable tape records every segment and the coherence step."""

    def test_reused_tape_matches_fresh_tapes(self):
        _, cfg, plan = unequal_segment_plan()
        field = tiny_field(seed=32, n_channels=2, res=4, hidden=(6,))
        rng = np.random.default_rng(33)
        tape = []
        for seg in [*plan.segments, *reversed(plan.segments), plan.segments[1]]:
            ck_grads = [(rng.standard_normal(seg.p_start.shape), rng.standard_normal(seg.p_start.shape), None)
                        for _ in seg.legs]
            args = (field, seg.p_start, seg.legs)
            fresh_cks, fresh = train.unroll_segment(*args)
            reused_cks, reused = train.unroll_segment(*args, tape)
            assert reused is tape
            for a, b in zip(fresh_cks, reused_cks):
                for x, y in zip(a, b):
                    np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(train.backward_through_rollout(field, fresh, seg.legs, ck_grads),
                                          train.backward_through_rollout(field, reused, seg.legs, ck_grads))

    def test_reused_tape_epochs_match_fresh_tapes(self):
        _, cfg, plan = unequal_segment_plan()
        fields = [tiny_field(seed=34, n_channels=2, res=4, hidden=(6,)) for _ in range(2)]
        tape = []
        moments = [None, None]
        for epoch in range(3):
            fresh_report, fresh = train._epoch_losses_and_grads(fields[0], plan, cfg)
            reused_report, reused = train._epoch_losses_and_grads(fields[1], plan, cfg, tape=tape)
            assert fresh_report == reused_report
            np.testing.assert_array_equal(fresh, reused)
            for i, (f, g) in enumerate(zip(fields, (fresh, reused))):
                moments[i] = train.adam_step(f, g, moments[i], cfg, epoch + 1)

    def test_fit_allocates_the_longest_segment_once(self, monkeypatch):
        calls = []
        new_cache = NeuralVelocityField.new_cache

        def counted(self, n):
            calls.append(n)
            return new_cache(self, n)

        monkeypatch.setattr(NeuralVelocityField, "new_cache", counted)
        scene, cfg, plan = unequal_segment_plan()
        steps = [segment_steps(seg) for seg in plan.segments]
        assert steps[0] < steps[1]
        train.fit(scene, replace(cfg, epochs=3))
        assert calls == [len(scene.cloud)] * (4 * max(steps))

    def test_epoch_peak_memory_is_one_segment_tape(self):
        scene = cli.generate_scene("vortex", 200, 9, seed=35)
        cfg = train.TrainingConfig(hidden=(16, 16), grid_spatial_resolution=4, grid_time_resolution=4,
                                   grid_channels=2, knn_k=4, steps_per_unit=16)
        plan = train._build_plan(scene, cfg)
        assert [len(seg.legs) for seg in plan.segments] == [4, 4]
        field = tiny_field(seed=36, n_channels=2, res=4, hidden=(16, 16))
        seg = plan.segments[0]

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_segment = peak(lambda: train.unroll_segment(field, seg.p_start, seg.legs))
        epoch = peak(lambda: train._epoch_losses_and_grads(field, plan, cfg))
        assert epoch < 1.3 * one_segment


class TestStepRule:
    """Training legs take as many steps as anchored queries over the same spans."""

    @pytest.mark.parametrize("times, stride, steps_per_unit, want", [
        (np.linspace(0.0, 1.0, 21), 4, 32, 6),  # 0.2 * 32 = 6.4
        (np.array([0.0, 0.1 + 0.2]), 1, 10, 3),  # 0.30000000000000004 * 10
    ])
    def test_plan_legs_match_anchored_queries(self, monkeypatch, times, stride, steps_per_unit, want):
        frames = np.tile([[[0.2, 0.3, 0.4], [0.6, 0.5, 0.4]]], (len(times), 1, 1))
        scene = SceneData(cloud=make_cloud(frames[0]), trajectory_times=times, trajectory_positions=frames)
        plan = train._build_plan(scene, train.TrainingConfig(frame_stride=stride, steps_per_unit=steps_per_unit,
                                                             knn_k=1))
        leg_steps = [len(steps) for seg in plan.segments for _, _, steps in seg.legs]
        rollout, counts = itg.rollout, []

        def counted(cloud, t0, t1, config, field, velocities=None):
            counts.append(config.step_count)
            return rollout(cloud, t0, t1, config, field, velocities)

        monkeypatch.setattr(itg, "rollout", counted)
        anchors = AnchorSet()
        anchors.insert(scene.cloud, times[0])
        itg.anchored_states(anchors, plan.supervised_times[1:], itg.IntegratorConfig(step_count=steps_per_unit),
                            ZeroField())
        assert leg_steps == counts == [want] * (len(plan.supervised_times) - 1)


class TestFit:
    def test_zero_motion_scene(self):
        scene = cli.generate_scene("zero", 6, 5, seed=13)
        cfg = small_training_config
        res = train.fit(scene, cfg)
        assert res.history[-1].data < 1e-6
        d = res.field.evaluate_batch(scene.cloud.positions, None, 0.5)
        assert np.max(np.abs(d.d_position)) < 1e-3

    def test_same_seed_bitwise_history(self):
        scene = cli.generate_scene("drift", 5, 5, seed=14, params={"delta": [0.2, 0, 0]})
        a = train.fit(scene, small_training_config)
        b = train.fit(scene, small_training_config)
        assert [r.total for r in a.history] == [r.total for r in b.history]
        np.testing.assert_array_equal(a.field.theta, b.field.theta)

    def test_one_gradient_buffer_per_epoch(self, monkeypatch):
        calls = []
        zero_grads = NeuralVelocityField.zero_grads

        def counted(self):
            calls.append(1)
            return zero_grads(self)

        monkeypatch.setattr(NeuralVelocityField, "zero_grads", counted)
        scene = cli.generate_scene("drift", 5, 5, seed=14, params={"delta": [0.2, 0, 0]})
        train.fit(scene, train.TrainingConfig(epochs=3, hidden=(4,), grid_spatial_resolution=4,
                                              grid_time_resolution=4, grid_channels=1, knn_k=2))
        assert len(calls) == 3

    def test_pair_weights_once_per_fit(self, monkeypatch):
        # the coherence graph's weights come from the canonical cloud, which
        # no epoch changes
        calls = []
        pair_weights = train._pair_weights
        monkeypatch.setattr(train, "_pair_weights", lambda *args: calls.append(1) or pair_weights(*args))
        scene = cli.generate_scene("drift", 5, 5, seed=14, params={"delta": [0.2, 0, 0]})
        train.fit(scene, train.TrainingConfig(epochs=3, hidden=(4,), grid_spatial_resolution=4,
                                              grid_time_resolution=4, grid_channels=1, knn_k=2))
        assert len(calls) == 1

    def test_short_drift_fit_learns_direction(self):
        scene = cli.generate_scene("drift", 6, 6, seed=15, params={"delta": [0.3, 0, 0]})
        cfg = train.TrainingConfig(epochs=200, hidden=(16,), grid_spatial_resolution=6,
                                   grid_time_resolution=4, grid_channels=2, knn_k=3)
        res = train.fit(scene, cfg)
        assert res.history[-1].data < res.history[0].data * 1e-2
        d = res.field.evaluate_batch(scene.trajectory_positions[3], None, float(scene.trajectory_times[3]))
        mean_v = d.d_position.mean(axis=0)
        assert mean_v[0] > 0.1  # pulls along +x

    def test_supervision_stride(self):
        scene = cli.generate_scene("zero", 4, 20, seed=16)
        cfg = train.TrainingConfig(epochs=1, frame_stride=4, hidden=(4,),
                                   grid_spatial_resolution=3, grid_time_resolution=3,
                                   grid_channels=1, knn_k=2)
        res = train.fit(scene, cfg)
        assert len(res.supervised_times) == 5
        np.testing.assert_allclose(res.supervised_times, scene.trajectory_times[::4])

    def test_train_fraction_drops_final_anchor(self):
        scene = cli.generate_scene("zero", 4, 20, seed=17)
        cfg = train.TrainingConfig(epochs=1, train_fraction=0.75, hidden=(4,),
                                   grid_spatial_resolution=3, grid_time_resolution=3,
                                   grid_channels=1, knn_k=2)
        res = train.fit(scene, cfg)
        assert np.all(res.supervised_times <= 0.75 + 1e-12)
        assert len(res.supervised_times) == 15  # frames with t <= 0.75
        assert len(res.anchors) == 2  # final anchor removed
        assert res.anchors.times[-1] < res.supervised_times[-1]

    def test_full_window_has_three_anchors(self):
        scene = cli.generate_scene("zero", 4, 9, seed=18)
        cfg = train.TrainingConfig(epochs=1, hidden=(4,), grid_spatial_resolution=3,
                                   grid_time_resolution=3, grid_channels=1, knn_k=2)
        res = train.fit(scene, cfg)
        np.testing.assert_allclose(res.anchors.times, [0.0, 0.5, 1.0])

    def test_too_few_frames_rejected(self):
        scene = cli.generate_scene("zero", 4, 3, seed=19)
        cfg = train.TrainingConfig(epochs=1, frame_stride=5)
        with pytest.raises(train.TrainingError, match="frames"):
            train.fit(scene, cfg)

    def test_scene_without_trajectories_rejected(self):
        scene = cli.generate_scene("zero", 4, 3, seed=20)
        bare = SceneData(cloud=scene.cloud)
        with pytest.raises(train.TrainingError):
            train.fit(bare, train.TrainingConfig())


class TestCheckpointIo:
    def test_round_trip(self, tmp_path):
        scene = cli.generate_scene("drift", 4, 4, seed=21, params={"delta": [0.1, 0, 0]})
        res = train.fit(scene, small_training_config)
        path = tmp_path / "ckpt.gsd"
        train.save_checkpoint(path, res.field, res.anchors, extra_meta={"note": 1})
        field, aset, meta = train.load_checkpoint(path)
        for a, b in zip(res.field.parameters(), field.parameters()):
            np.testing.assert_array_equal(a, b)
        assert len(aset) == len(res.anchors)
        np.testing.assert_array_equal(aset.times, res.anchors.times)
        np.testing.assert_array_equal(aset[0].cloud.positions, res.anchors[0].cloud.positions)
        assert meta["extra"]["note"] == 1
        # loaded field evaluates identically
        p = scene.cloud.positions
        np.testing.assert_array_equal(field.forward(p, 0.3), res.field.forward(p, 0.3))
        # the loaded field writes the same bytes back
        again = tmp_path / "again.gsd"
        train.save_checkpoint(again, field, aset, extra_meta={"note": 1})
        assert again.read_bytes() == path.read_bytes()

    def test_array_of_another_shape_rejected(self, tmp_path):
        path = tmp_path / "ckpt.gsd"
        train.save_checkpoint(path, tiny_field(), AnchorSet())
        meta, arrays = arrayio.load_bundle(path)
        arrays["mlp_b0"] = arrays["mlp_b0"][:1]  # a (1,) bias would broadcast into its view
        arrayio.save_bundle(path, meta, arrays)
        with pytest.raises(ValueError, match=r"'mlp_b0' has shape \(1,\), expected \(5,\)"):
            train.load_checkpoint(path)


class TestConfigValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            train.TrainingConfig(lambda_coh=-0.1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            train.TrainingConfig(train_fraction=0.0)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            train.TrainingConfig(coherence_variant="absolute")

    @pytest.mark.parametrize("field, value", [
        ("frame_stride", 0), ("frame_stride", -1), ("epochs", 0), ("epochs", -3),
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("steps_per_unit", 0), ("steps_per_unit", -2),
    ])
    def test_bad_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            train.TrainingConfig(**{field: value})
