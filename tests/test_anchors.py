"""Anchor snapshots, nearest-anchor queries, and the anchor loss."""

import numpy as np
import pytest

from gsdyn import anchors as anc
from gsdyn import integrate as itg
from gsdyn.fields import AnalyticField
from gsdyn.quaternions import exp_map
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
    def setup_method(self):
        self.aset = anc.AnchorSet()
        for t in (0.0, 0.5, 1.0):
            self.aset.insert(make_cloud([[t, 0, 0]]), t)

    def test_between_anchors(self):
        assert anc.nearest_past_anchor(self.aset, 0.7).time == 0.5

    def test_boundary_inclusive(self):
        assert anc.nearest_past_anchor(self.aset, 0.5).time == 0.5

    def test_before_midpoint(self):
        assert anc.nearest_past_anchor(self.aset, 0.2).time == 0.0

    def test_none_admissible(self):
        with pytest.raises(ValueError):
            anc.nearest_past_anchor(self.aset, -0.1)

    def test_future_anchor(self):
        assert anc.nearest_future_anchor(self.aset, 0.2).time == 0.5

    def test_piecewise_constant_breakpoints(self):
        # the selected anchor changes exactly at anchor times
        prev = None
        for t in np.linspace(0.0, 1.0, 101):
            cur = anc.nearest_past_anchor(self.aset, float(t)).time
            if prev is not None and cur != prev:
                assert cur in (0.5, 1.0) and float(t) == cur
            prev = cur


class TestAnchorLoss:
    def test_exact_match_zero(self):
        aset = anc.AnchorSet()
        cloud = make_cloud([[0.3, 0.4, 0.5]])
        aset.insert(cloud, 0.0)
        assert anc.anchor_loss([cloud], aset) == 0.0

    def test_single_offset(self):
        aset = anc.AnchorSet()
        stored = make_cloud([[0.0, 0.0, 0.0]])
        aset.insert(stored, 0.0)
        moved = stored.with_positions(np.array([[1.0, 0.0, 0.0]]))
        assert anc.anchor_loss([moved], aset) == pytest.approx(1.0)

    def test_two_anchor_sum(self):
        aset = anc.AnchorSet()
        stored = make_cloud([[0.0, 0.0, 0.0]])
        aset.insert(stored, 0.0)
        aset.insert(stored, 1.0)
        a = stored.with_positions(np.array([[1.0, 0.0, 0.0]]))
        b = stored.with_positions(np.array([[0.0, 2.0, 0.0]]))
        assert anc.anchor_loss([a, b], aset) == pytest.approx(5.0)

    def test_rotation_term_sign_invariant(self):
        aset = anc.AnchorSet()
        stored = make_cloud([[0.0, 0.0, 0.0]])
        aset.insert(stored, 0.0)
        theta = np.array([0.3, 0.0, 0.0])
        q = exp_map(theta)
        rotated = stored.evolved(positions=stored.positions, rotations=q[None, :])
        flipped = stored.evolved(positions=stored.positions, rotations=-q[None, :])
        loss_a = anc.anchor_loss([rotated], aset)
        loss_b = anc.anchor_loss([flipped], aset)
        assert loss_a == pytest.approx(0.09, abs=1e-12)
        assert loss_b == pytest.approx(loss_a, abs=1e-12)

    def test_log_scale_term(self):
        aset = anc.AnchorSet()
        stored = make_cloud([[0.0, 0.0, 0.0]])
        aset.insert(stored, 0.0)
        scaled = stored.evolved(positions=stored.positions,
                                log_scales=stored.log_scales + [0.1, 0.0, 0.0])
        assert anc.anchor_loss([scaled], aset) == pytest.approx(0.01)

    def test_count_mismatch_rejected(self):
        aset = anc.AnchorSet()
        aset.insert(make_cloud([[0, 0, 0]]), 0.0)
        with pytest.raises(ValueError, match="anchors"):
            anc.anchor_loss([], aset)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        aset = anc.AnchorSet()
        stored = make_cloud(rng.uniform(0, 1, (5, 3)))
        aset.insert(stored, 0.0)
        perturbed = stored.with_positions(stored.positions + rng.normal(0, 0.1, (5, 3)))
        assert anc.anchor_loss([perturbed], aset) > 0.0


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
