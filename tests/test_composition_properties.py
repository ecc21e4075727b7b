"""Property tests of the composition limits and of RK4 reversibility.

Over random composition trees of analytic fields, an additive injection at
lambda = 0 and a hard {0, 1} blend reproduce their child bitwise, in all
four derivative channels and in the post-step events.  Deterministic
analytic fields integrate 0 -> 1 -> 0 back to the start.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gsdyn import integrate
from gsdyn.fields import ANALYTIC_KINDS, AnalyticField, MaskedBlendField, SummedField, sphere_mask
from gsdyn.integrate import IntegratorConfig
from gsdyn.scene import GaussianCloud

DETERMINISTIC = ("drift", "spin", "swirl", "vortex", "wave", "wind_curl")  # swirl, wind_curl at eta 0


def soft_masks():
    return st.builds(
        lambda c, r, e: sphere_mask(c, r, e),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        st.floats(0.05, 0.6),
        st.sampled_from([0.0, 0.1, 0.3]),
    )


leaves = st.builds(AnalyticField, st.sampled_from(ANALYTIC_KINDS), seed=st.integers(0, 2**16))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(SummedField, children, children, st.floats(-2.0, 2.0)),
        st.builds(MaskedBlendField, children, children, soft_masks()),
    ),
    max_leaves=4,
)


@st.composite
def batches(draw):
    """(positions, velocities, t, step_index) of a small batch, with at
    least one position below the floor of gravity_bounce's events."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 6))
    positions = rng.uniform(0.05, 0.95, (n, 3))
    positions[0, 2] = -0.01
    return positions, rng.uniform(-1, 1, (n, 3)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 50))


def assert_same_field(got, want, batch, rows=slice(None)):
    """got and want agree bitwise on ``rows``: derivatives and events."""
    for a, b in zip(got.evaluate_batch(*batch), want.evaluate_batch(*batch)):
        np.testing.assert_array_equal(a[rows], b[rows])
    for a, b in zip(got.apply_events(*batch), want.apply_events(*batch)):
        np.testing.assert_array_equal(a[rows], b[rows])


@settings(max_examples=60, deadline=None)
@given(trees, trees, batches())
def test_add_at_lambda_zero_is_the_base(base, ext, batch):
    assert_same_field(SummedField(base, ext, 0.0), base, batch)


@settings(max_examples=60, deadline=None)
@given(trees, trees, batches(), st.floats(0.0, 1.0))
def test_hard_blend_is_the_selected_child(base, injected, batch, cut):
    def hard(p):
        return (p[:, 0] > cut).astype(float)

    inside = hard(batch[0]) == 1.0
    assert_same_field(MaskedBlendField(base, injected, hard), injected, batch, inside)
    assert_same_field(MaskedBlendField(base, injected, hard), base, batch, ~inside)
    assert_same_field(MaskedBlendField(base, injected, lambda p: np.zeros(len(p))), base, batch)
    assert_same_field(MaskedBlendField(base, injected, lambda p: np.ones(len(p))), injected, batch)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DETERMINISTIC), st.integers(0, 2**16), st.integers(1, 8))
def test_rk4_round_trip_returns_to_start(kind, seed, n):
    rng = np.random.default_rng(seed)
    start = GaussianCloud(
        positions=rng.uniform(0.1, 0.9, (n, 3)),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), -3.0),
        colors=np.full((n, 3), 0.5),
        opacities=np.full(n, 0.8),
    )
    field = AnalyticField(kind, seed=seed)
    cfg = IntegratorConfig(method="rk4", step_count=100, record_stride=100)
    there = integrate.rollout(start, 0.0, 1.0, cfg, field)
    back = integrate.rollout(there.cloud_at(-1), 1.0, 0.0, cfg, field)
    assert np.max(np.abs(back.positions[-1] - start.positions)) < 1e-8
