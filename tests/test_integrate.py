"""Fixed-step solvers, rollouts, and anchor-aware reinitialization."""

import numpy as np
import pytest

from gsdyn import anchors as anc
from gsdyn import feature_grid
from gsdyn import integrate as itg
from gsdyn import quaternions
from gsdyn.fields import (ANALYTIC_KINDS, AnalyticField, BatchDerivative, MaskedBlendField, NeuralVelocityField,
                          SummedField, VelocityField, ZeroField, sphere_mask)
from gsdyn.scene import GaussianCloud


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


class ScalarExponential(VelocityField):
    """dx/dt = x on the x coordinate; scalar test analogue."""

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        n = positions.shape[0]
        d = np.zeros((n, 3))
        d[:, 0] = positions[:, 0]
        return BatchDerivative(d, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))


class RotatingField(VelocityField):
    """Constant angular velocity about z, no translation."""

    def __init__(self, omega):
        self.omega = np.asarray(omega, dtype=float)

    def evaluate_batch(self, positions, velocities, t, step_index=0):
        n = positions.shape[0]
        return BatchDerivative(
            np.zeros((n, 3)),
            np.broadcast_to(self.omega, (n, 3)).copy(),
            np.zeros((n, 3)),
            np.zeros((n, 3)),
        )


def one_gaussian(p):
    """Batch arrays (p, q, ls, v) of a single Gaussian at rest."""
    return (np.array([p], dtype=float), np.array([[1.0, 0.0, 0.0, 0.0]]), np.full((1, 3), -3.0),
            np.zeros((1, 3)))


def euler_step(*args, **kwargs):
    return itg.step_arrays(*args, method="euler", **kwargs)


class TestEulerStep:
    def test_scalar_exponential(self):
        p, _, _, _ = euler_step(ScalarExponential(), *one_gaussian([1.0, 0.0, 0.0]), 0.0, 0.1)
        assert p[0, 0] == pytest.approx(1.1)

    def test_zero_field_unchanged(self):
        start = one_gaussian([0.4, 0.5, 0.6])
        p, q, _, _ = euler_step(ZeroField(), *start, 0.0, 0.25)
        np.testing.assert_array_equal(p, start[0])
        np.testing.assert_array_equal(q, start[1])

    def test_constant_drift(self):
        f = AnalyticField("drift", delta=(0.3, 0.0, 0.0))
        p, _, _, _ = euler_step(f, *one_gaussian([0.0, 0.0, 0.0]), 0.0, 0.5)
        np.testing.assert_allclose(p[0], [0.15, 0.0, 0.0])

    def test_second_order_carries_velocity(self):
        f = AnalyticField("gravity_bounce", g=-9.8, z0=-10.0)
        p, q, ls, _ = one_gaussian([0.0, 0.0, 1.0])
        p, _, _, v = euler_step(f, p, q, ls, np.array([[0.0, 0.0, 1.0]]), 0.0, 0.1)
        np.testing.assert_allclose(p[0], [0.0, 0.0, 1.1])
        np.testing.assert_allclose(v[0], [0.0, 0.0, 1.0 - 0.98])

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            euler_step(ZeroField(), *one_gaussian([0, 0, 0]), 0.0, 0.0)


class TestRk4Step:
    def test_constant_field_exact(self):
        f = AnalyticField("drift", delta=(0.2, -0.1, 0.4))
        p, _, _, _ = itg.step_arrays(f, *one_gaussian([1.0, 2.0, 3.0]), 0.0, 0.5)
        np.testing.assert_allclose(p[0], [1.1, 1.95, 3.2], atol=1e-15)

    def test_scalar_exponential_accuracy(self):
        p, _, _, _ = itg.step_arrays(ScalarExponential(), *one_gaussian([1.0, 0.0, 0.0]), 0.0, 0.1)
        assert abs(p[0, 0] - np.exp(0.1)) < 1e-7

    def test_spin_radius_preserved_per_step(self):
        f = AnalyticField("spin", omega=1.0)
        p, _, _, _ = itg.step_arrays(f, *one_gaussian([1.0, 0.0, 0.0]), 0.0, 0.01)
        r = np.linalg.norm(p[0, :2])
        assert abs(r - 1.0) < 1e-9

    def test_rotation_quaternion_stays_unit(self):
        f = RotatingField([0.0, 0.0, 2.0])
        p, q, ls, v = one_gaussian([0.0, 0.0, 0.0])
        for _ in range(50):
            p, q, ls, v = itg.step_arrays(f, p, q, ls, v, 0.0, 0.05)
        assert abs(np.linalg.norm(q[0]) - 1.0) < 1e-12
        # 50 steps of h=0.05 at omega_z=2 -> total angle 5 rad about z
        w = q[0, 0]
        assert w == pytest.approx(np.cos(2.5), abs=1e-9)

    def test_nonfinite_stage_named(self):
        class Exploding(VelocityField):
            def evaluate_batch(self, positions, velocities, t, step_index=0):
                n = positions.shape[0]
                d = np.zeros((n, 3))
                # blow up only at the midpoint stage time
                if abs(t - 0.05) < 1e-12:
                    d[:] = np.nan
                return BatchDerivative(d, np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))

        with pytest.raises(itg.IntegrationError, match=r"step 0 \(t=0\.05\), stage k2, gaussian 0") as err:
            itg.step_arrays(Exploding(), *one_gaussian([0, 0, 0]), 0.0, 0.1)
        assert err.value.stage == "k2"
        assert err.value.t == 0.05
        assert err.value.step_index == 0


class TestRecordTimes:
    """A rollout records its start and the end of every leg of rollout_legs:
    every record_stride-th step plus the last."""

    def test_every_stride_th_step_plus_last(self):
        cfg = itg.IntegratorConfig(step_count=10, record_stride=4)
        assert itg.rollout_legs(0.0, 1.0, cfg) == [(0.0, 0.1, range(0, 4)), (0.0, 0.1, range(4, 8)),
                                                   (0.0, 0.1, range(8, 10))]
        traj = itg.rollout(make_cloud([[0, 0, 0]]), 0.0, 1.0, cfg, ZeroField())
        assert traj.times.tolist() == [0.0 + s * 0.1 for s in [0, 4, 8, 10]]

    def test_stride_above_step_count_keeps_both_ends(self):
        cfg = itg.IntegratorConfig(step_count=3, record_stride=5)
        traj = itg.rollout(make_cloud([[0, 0, 0]]), 1.0, 0.0, cfg, ZeroField())
        assert traj.times.tolist() == [1.0, 0.0]

    def test_rollout_records_at_record_times(self):
        cfg = itg.IntegratorConfig(step_count=7, record_stride=3)
        traj = itg.rollout(make_cloud([[0.1, 0.2, 0.3]]), 0.2, 0.9, cfg, AnalyticField("drift"))
        h = (0.9 - 0.2) / 7
        np.testing.assert_array_equal(traj.times, [0.2 + s * h for s in [0, 3, 6, 7]])

    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0)])
    def test_strided_records_are_stride_one_records(self, t0, t1):
        cloud = make_cloud(np.random.default_rng(3).uniform(0.2, 0.8, (5, 3)))
        field = AnalyticField("swirl", seed=2, eta=0.05)  # noise keyed on the step index
        every = itg.rollout(cloud, t0, t1, itg.IntegratorConfig(step_count=11), field)
        strided = itg.rollout(cloud, t0, t1, itg.IntegratorConfig(step_count=11, record_stride=4), field)
        picks = [0, 4, 8, 11]
        for name in ("times", "positions", "rotations", "log_scales"):
            assert getattr(strided, name).tobytes() == getattr(every, name)[picks].tobytes(), name


class TestRollout:
    def test_zero_field_snapshots_identical(self):
        cloud = make_cloud([[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]])
        traj = itg.rollout(cloud, 0.0, 1.0, itg.IntegratorConfig(step_count=10), ZeroField())
        for i in range(len(traj)):
            np.testing.assert_array_equal(traj.positions[i], cloud.positions)

    def test_spin_full_period_returns(self):
        omega = 2.0
        f = AnalyticField("spin", omega=omega)
        cloud = make_cloud([[1.0, 0.0, 0.0], [0.0, 0.5, 0.2]])
        period = 2 * np.pi / omega
        cfg = itg.IntegratorConfig(step_count=1000, record_stride=1000)
        traj = itg.rollout(cloud, 0.0, period, cfg, f)
        np.testing.assert_allclose(traj.positions[-1], cloud.positions, atol=1e-6)

    def test_forward_backward_round_trip(self):
        f = AnalyticField("swirl", s0=0.5, s1=0.5)
        cloud = make_cloud(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        cfg = itg.IntegratorConfig(step_count=100, record_stride=100)
        fwd = itg.rollout(cloud, 0.0, 1.0, cfg, f)
        end = fwd.cloud_at(len(fwd) - 1)
        back = itg.rollout(end, 1.0, 0.0, cfg, f)
        np.testing.assert_allclose(back.positions[-1], cloud.positions, atol=1e-6)

    def test_backward_times_decrease(self):
        traj = itg.rollout(make_cloud([[0.5, 0.5, 0.5]]), 1.0, 0.0,
                           itg.IntegratorConfig(step_count=4), ZeroField())
        assert np.all(np.diff(traj.times) < 0)

    def test_record_stride_plus_endpoints(self):
        traj = itg.rollout(make_cloud([[0, 0, 0]]), 0.0, 1.0,
                           itg.IntegratorConfig(step_count=10, record_stride=3), ZeroField())
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_stride_one_equals_composed_single_steps(self):
        f = AnalyticField("vortex", omega=1.0, k=0.05, u0=0.3)
        cloud = make_cloud(np.random.default_rng(1).uniform(0.2, 0.8, (3, 3)))
        cfg = itg.IntegratorConfig(step_count=5, record_stride=1)
        traj = itg.rollout(cloud, 0.0, 0.5, cfg, f)
        p = cloud.positions.copy()
        q = cloud.rotations.copy()
        ls = cloud.log_scales.copy()
        v = np.zeros_like(p)
        h = 0.1
        for s in range(5):
            p, q, ls, v = itg.step_arrays(f, p, q, ls, v, s * h, h, step_index=s)
            np.testing.assert_array_equal(traj.positions[s + 1], p)

    def test_determinism(self):
        f = AnalyticField("diffusion_gas", seed=3, sigma=0.2)
        cloud = make_cloud(np.random.default_rng(2).uniform(0, 1, (4, 3)))
        cfg = itg.IntegratorConfig(step_count=20)
        a = itg.rollout(cloud, 0.0, 1.0, cfg, f)
        b = itg.rollout(cloud, 0.0, 1.0, cfg, f)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_t0_equals_t1_rejected(self):
        with pytest.raises(ValueError):
            itg.rollout(make_cloud([[0, 0, 0]]), 0.5, 0.5, itg.IntegratorConfig(), ZeroField())

    def test_second_order_bounce_trajectory(self):
        # a dropped ball under gravity stays at or above the floor
        f = AnalyticField("gravity_bounce", g=-9.8, z0=0.0, gamma=0.8)
        cloud = make_cloud([[0.5, 0.5, 0.5]])
        cfg = itg.IntegratorConfig(step_count=200)
        traj = itg.rollout(cloud, 0.0, 1.0, cfg, f)
        assert traj.positions[:, 0, 2].min() >= 0.0
        assert traj.aux_velocities is not None


def posed_cloud(n=12, seed=0):
    """A cloud with random unit rotations and log-scales, in the unit box's interior."""
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(0.15, 0.85, (n, 3)), rng.standard_normal((n, 4))
    return make_cloud(p).with_positions(p, q / np.linalg.norm(q, axis=1, keepdims=True), rng.uniform(-4, -2, (n, 3)))


NOISY = {"swirl": {"eta": 0.5}, "wind_curl": {"eta": 0.5}}
STILL_POSE_FIELDS = {
    **{kind: lambda kind=kind: AnalyticField(kind, seed=3, **NOISY.get(kind, {})) for kind in ANALYTIC_KINDS},
    "zero": ZeroField,
    "sum": lambda: SummedField(AnalyticField("vortex"), AnalyticField("gravity_bounce", z0=0.2), 0.5),
    "blend": lambda: MaskedBlendField(ZeroField(), SummedField(ZeroField(), AnalyticField("spin"), 2.0),
                                      sphere_mask([0.5, 0.5, 0.5], 0.3, edge_width=0.1)),
}


@pytest.fixture
def apply_increment_calls(monkeypatch):
    """The number of quaternions.apply_increment calls so far, as a one-item list."""
    calls = [0]
    real = quaternions.apply_increment

    def counted(q, delta_v):
        calls[0] += 1
        return real(q, delta_v)

    monkeypatch.setattr(quaternions, "apply_increment", counted)
    return calls


class TestPoseChannels:
    """Fields that never rotate or rescale leave rotations and log-scales untouched."""

    @pytest.mark.parametrize("name", sorted(STILL_POSE_FIELDS))
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_rollout_keeps_pose_bitwise(self, name, method, apply_increment_calls):
        field = STILL_POSE_FIELDS[name]()
        assert not field.moves_pose
        cloud = posed_cloud()
        traj = itg.rollout(cloud, 0.0, 0.5, itg.IntegratorConfig(method=method, step_count=20, record_stride=5),
                           field)
        assert apply_increment_calls == [0]
        assert traj.rotations.tobytes() == np.stack([cloud.rotations] * len(traj)).tobytes()
        assert traj.log_scales.tobytes() == np.stack([cloud.log_scales] * len(traj)).tobytes()
        assert (name == "zero") == (traj.positions[-1] == cloud.positions).all()

    def test_increments_skip_unmoved_channels(self):
        p = posed_cloud().positions
        dp, dtheta, dls, dv = itg.rk4_increments(AnalyticField("orbital"), p, np.zeros_like(p), 0.0, 0.1)
        assert dtheta is None and dls is None and dp.shape == dv.shape == p.shape

    @pytest.mark.parametrize("compose", [
        lambda neural: SummedField(AnalyticField("spin"), neural, 1.0),
        lambda neural: MaskedBlendField(neural, AnalyticField("gravity_bounce"), sphere_mask([0.5] * 3, 0.3)),
    ], ids=["sum", "blend"])
    def test_neural_child_still_rotates(self, compose, apply_increment_calls):
        grid = feature_grid.create_grid(np.zeros(3), np.ones(3), spatial_resolution=4, time_resolution=4,
                                        channels=2)
        field = compose(NeuralVelocityField(grid, hidden=(8,), output_scale=0.5))
        assert field.moves_pose
        cloud = posed_cloud()
        traj = itg.rollout(cloud, 0.0, 0.5, itg.IntegratorConfig(step_count=4), field)
        assert apply_increment_calls == [4]
        assert np.all(traj.rotations[-1] != cloud.rotations)
        assert np.all(traj.log_scales[-1] != cloud.log_scales)
        np.testing.assert_allclose(np.linalg.norm(traj.rotations[-1], axis=1), 1.0, atol=1e-12)


class TestConvergenceOrder:
    def fit_order(self, method):
        omega = 2.0
        f = AnalyticField("spin", omega=omega)
        period = 2 * np.pi / omega
        start = make_cloud([[1.0, 0.0, 0.0]])
        errs = []
        counts = [50, 100, 200, 400]
        for n in counts:
            cfg = itg.IntegratorConfig(method=method, step_count=n, record_stride=n)
            traj = itg.rollout(start, 0.0, period, cfg, f)
            errs.append(np.linalg.norm(traj.positions[-1, 0] - start.positions[0]))
        slope, _ = np.polyfit(np.log([period / n for n in counts]), np.log(errs), 1)
        return slope

    def test_euler_first_order(self):
        assert 0.9 <= self.fit_order("euler") <= 1.1

    def test_rk4_fourth_order(self):
        assert 3.8 <= self.fit_order("rk4") <= 4.2


class TestOrbitalEnergy:
    def test_energy_drift_small(self):
        f = AnalyticField("orbital", G=1.0, mu=0.0)
        r0 = 1.0
        v0 = 1.0  # circular orbit: v = sqrt(G/r)
        cloud = make_cloud([[r0, 0.0, 0.0]])
        velocities = np.array([[0.0, v0, 0.0]])
        period = 2 * np.pi * r0 / v0
        steps = int(period / 1e-3)
        cfg = itg.IntegratorConfig(step_count=int(steps / period), record_stride=steps)
        traj = itg.rollout(cloud, 0.0, period, cfg, f, velocities=velocities)
        e0 = 0.5 * v0**2 - 1.0 / r0
        p_end = traj.positions[-1, 0]
        v_end = traj.aux_velocities[-1, 0]
        e1 = 0.5 * float(v_end @ v_end) - 1.0 / np.linalg.norm(p_end)
        assert abs(e1 - e0) / abs(e0) < 1e-5


class TestAnchorAwareRollout:
    def build_anchors(self, f, times, start):
        aset = anc.AnchorSet()
        cfg = itg.IntegratorConfig(step_count=1000, record_stride=1000)
        cloud = start
        prev_t = times[0]
        aset.insert(cloud, prev_t)
        for t in times[1:]:
            traj = itg.rollout(cloud, prev_t, t, cfg, f)
            cloud = traj.cloud_at(len(traj) - 1)
            aset.insert(cloud, t)
            prev_t = t
        return aset

    def test_exact_anchor_time_returned_verbatim(self):
        f = AnalyticField("drift", delta=(0.3, 0.0, 0.0))
        aset = self.build_anchors(f, [0.0, 0.5, 1.0], make_cloud([[0.1, 0.1, 0.1]]))
        out = itg.anchor_aware_rollout(aset, 0.5, itg.IntegratorConfig(step_count=10), f)
        np.testing.assert_array_equal(out.positions, aset[1].cloud.positions)

    def test_nearest_past_selection(self):
        # query at 0.7 must start from the 0.5 anchor, not 0.0
        f = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0.0, 0.0, 0.0]]), 0.0)
        # deliberately inconsistent anchor so provenance is observable
        aset.insert(make_cloud([[10.0, 0.0, 0.0]]), 0.5)
        aset.insert(make_cloud([[20.0, 0.0, 0.0]]), 1.0)
        out = itg.anchor_aware_rollout(aset, 0.7, itg.IntegratorConfig(step_count=10), f)
        assert out.positions[0, 0] == pytest.approx(10.2)

    def test_anchored_beats_single_origin(self):
        f_true = AnalyticField("spin", omega=3.0)
        f_biased = AnalyticField("spin", omega=3.1)  # imperfect model field
        start = make_cloud(np.random.default_rng(3).uniform(0.2, 0.8, (6, 3)))
        aset = self.build_anchors(f_true, [0.0, 0.5, 1.0], start)
        cfg = itg.IntegratorConfig(step_count=100)
        t = 0.9
        truth = itg.anchor_aware_rollout(aset, t, cfg, f_true)
        anchored = itg.anchor_aware_rollout(aset, t, cfg, f_biased)
        single = itg.rollout(start, 0.0, t, itg.IntegratorConfig(step_count=90, record_stride=90), f_biased)
        err_anchored = np.abs(anchored.positions - truth.positions).max()
        err_single = np.abs(single.positions[-1] - truth.positions).max()
        assert err_anchored <= err_single

    def test_backward_query_uses_future_anchor(self):
        f = AnalyticField("drift", delta=(1.0, 0.0, 0.0))
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[5.0, 0.0, 0.0]]), 0.5)
        out = itg.anchor_aware_rollout(aset, 0.3, itg.IntegratorConfig(step_count=10), f)
        assert out.positions[0, 0] == pytest.approx(4.8)

    def test_one_pass_matches_per_time_queries_on_step_lattice(self):
        f = AnalyticField("vortex", omega=1.0, k=0.05, u0=0.3)
        aset = self.build_anchors(f, [0.0, 0.4, 0.8], make_cloud(np.random.default_rng(5).uniform(0.2, 0.8, (4, 3))))
        cfg = itg.IntegratorConfig(step_count=100)
        times = [k / 20 for k in range(-4, 25)]  # both directions around the first anchor, past the last
        states = itg.anchored_states(aset, times, cfg, f)
        for t, state in zip(times, states):
            single = itg.anchor_aware_rollout(aset, t, cfg, f)
            np.testing.assert_allclose(state.positions, single.positions, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.rotations, single.rotations, rtol=0, atol=1e-12)

    def test_one_pass_carries_aux_velocity(self):
        f = AnalyticField("gravity_bounce", g=-9.8, z0=0.0, gamma=0.8)
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0.5, 0.5, 0.9]]), 0.0)
        states = itg.anchored_states(aset, [0.1, 0.2], itg.IntegratorConfig(step_count=100), f)
        # from rest at the anchor, z(t) = 0.9 - 4.9 t^2, integrated exactly by
        # RK4 only if the second leg starts with the first leg's velocity
        assert states[1].positions[0, 2] == pytest.approx(0.9 - 4.9 * 0.04, abs=1e-12)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            itg.anchor_aware_rollout(anc.AnchorSet(), 0.5, itg.IntegratorConfig(), ZeroField())
