"""Anchor snapshots, nearest-anchor selection, and the anchor term of training."""

import numpy as np
import pytest

from gsdyn import anchors as anc
from gsdyn import integrate as itg
from gsdyn import train
from gsdyn.feature_grid import create_grid
from gsdyn.fields import AnalyticField, NeuralVelocityField, ZeroField
from gsdyn.scene import GaussianCloud, SceneData


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


class TestSnapshot:
    def test_insert_into_empty(self):
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0, 0, 0]]), 0.5)
        assert len(aset) == 1
        assert aset[0].time == 0.5

    def test_sorted_insertion(self):
        aset = anc.AnchorSet()
        for t in (0.0, 1.0, 0.5):
            aset.insert(make_cloud([[0, 0, 0]]), t)
        np.testing.assert_array_equal(aset.times, [0.0, 0.5, 1.0])

    def test_duplicate_time_rejected(self):
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0, 0, 0]]), 0.5)
        with pytest.raises(ValueError, match="0.5"):
            aset.insert(make_cloud([[1, 0, 0]]), 0.5)

    def test_size_mismatch_rejected(self):
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0, 0, 0]]), 0.0)
        with pytest.raises(ValueError, match="size"):
            aset.insert(make_cloud([[0, 0, 0], [1, 0, 0]]), 0.5)

    def test_snapshot_is_deep_copy(self):
        cloud = make_cloud([[0.0, 0.0, 0.0]])
        aset = anc.AnchorSet()
        entry = aset.insert(cloud, 0.0)
        cloud.positions[0, 0] = 99.0
        assert entry.cloud.positions[0, 0] == 0.0


class TestNearestAnchor:
    """anchored_states starts a query from the nearest anchor at or before
    it, or from the first anchor for earlier times.  The anchors' x equals
    their time and the field is zero, so a state's x names its anchor."""

    def setup_method(self):
        self.aset = anc.AnchorSet()
        for t in (0.0, 0.5, 1.0):
            self.aset.insert(make_cloud([[t, 0, 0]]), t)

    def start_of(self, times, aset=None):
        states = itg.anchored_states(aset or self.aset, times, itg.IntegratorConfig(step_count=10), ZeroField())
        return [s.positions[0, 0] for s in states]

    def test_between_anchors(self):
        assert self.start_of([0.7]) == [0.5]

    def test_boundary_inclusive(self):
        assert self.start_of([0.5]) == [0.5]

    def test_before_midpoint(self):
        assert self.start_of([0.2]) == [0.0]

    def test_none_admissible(self):
        # before every anchor: backward from the first one; a non-finite time has no anchor
        assert self.start_of([-0.1]) == [0.0]
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                self.start_of([0.2, t])

    def test_future_anchor(self):
        later = anc.AnchorSet()
        for t in (0.5, 1.0):
            later.insert(make_cloud([[t, 0, 0]]), t)
        assert self.start_of([0.2], later) == [0.5]

    def test_piecewise_constant_breakpoints(self):
        # the selected anchor changes exactly at anchor times
        times = np.linspace(0.0, 1.0, 101)
        prev = None
        for t, cur in zip(times, self.start_of(times)):
            if prev is not None and cur != prev:
                assert cur in (0.5, 1.0) and float(t) == cur
            prev = cur


class TestAnchorLoss:
    """The anchor term of the training objective, :func:`state_deviation`,
    summed over the checkpoints that end at an anchor."""

    def test_exact_match_zero(self):
        zero = np.zeros((1, 3))
        assert anc.state_deviation(zero, zero, zero) == 0.0

    def test_single_offset(self):
        zero = np.zeros((1, 3))
        assert anc.state_deviation(np.array([[1.0, 0.0, 0.0]]), zero, zero) == pytest.approx(1.0)

    def test_two_anchor_sum(self):
        # a field with a zero output layer stays at each segment's start
        # anchor; the anchors at t = 0.5 and t = 1 are 1 and 2 away from it
        frames = np.zeros((5, 2, 3))
        frames[:, 1] = 0.5
        frames[2:, 0, 0] = 1.0
        frames[4, 0, 1] = 2.0
        scene = SceneData(cloud=make_cloud(frames[0]), trajectory_times=np.linspace(0.0, 1.0, 5),
                          trajectory_positions=frames)
        cfg = train.TrainingConfig(hidden=(4,), grid_spatial_resolution=3, grid_time_resolution=3,
                                   grid_channels=1, knn_k=1, steps_per_unit=4)
        plan = train._build_plan(scene, cfg)
        assert plan.anchors.times.tolist() == [0.0, 0.5, 1.0]
        grid = create_grid(np.zeros(3), np.ones(3), spatial_resolution=3, time_resolution=3, channels=1)
        report, _ = train._epoch_losses_and_grads(NeuralVelocityField(grid, hidden=(4,)), plan, cfg)
        assert report.anchor == pytest.approx(5.0)

    def test_log_scale_term(self):
        zero = np.zeros((1, 3))
        assert anc.state_deviation(zero, zero, np.array([[0.1, 0.0, 0.0]])) == pytest.approx(0.01)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        assert anc.state_deviation(*rng.normal(0, 0.1, (3, 5, 3))) > 0.0


class TestAnchorInterpolationProperty:
    @pytest.mark.parametrize("kind,params", [
        ("drift", {"delta": (0.4, 0.1, -0.2)}),
        ("spin", {"omega": 3.0}),
    ])
    def test_anchored_error_never_worse(self, kind, params):
        # anchors at ground-truth states: anchored interpolation error is
        # bounded by the single-origin rollout error at every query time
        f_true = AnalyticField(kind, **params)
        perturbed = AnalyticField(kind, **{k: (np.asarray(v) * 1.05 if not isinstance(v, dict) else v)
                                           for k, v in params.items()})
        start = make_cloud(np.random.default_rng(4).uniform(0.2, 0.8, (8, 3)))
        hi = itg.IntegratorConfig(step_count=1000, record_stride=1000)
        aset = anc.AnchorSet()
        cloud = start
        prev = 0.0
        aset.insert(cloud, 0.0)
        for t in (0.5, 1.0):
            cloud = itg.rollout(cloud, prev, t, hi, f_true).cloud_at(-1)
            aset.insert(cloud, t)
            prev = t
        cfg = itg.IntegratorConfig(step_count=100)
        for t in np.linspace(0.05, 1.0, 8):
            t = float(t)
            truth = itg.rollout(start, 0.0, t, hi, f_true).cloud_at(-1)
            anchored = itg.anchor_aware_rollout(aset, t, cfg, perturbed)
            steps = max(1, round(t * 100))
            single = itg.rollout(start, 0.0, t, itg.IntegratorConfig(step_count=steps, record_stride=steps),
                                 perturbed).cloud_at(-1)
            err_a = np.abs(anchored.positions - truth.positions).max()
            err_s = np.abs(single.positions - truth.positions).max()
            assert err_a <= err_s + 1e-12
