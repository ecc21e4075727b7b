"""Waypoint snapshots and the anchor-consistency loss.

Anchors store full Gaussian states at fixed times.  Rollouts reinitialize
from the nearest anchor so integration error cannot accumulate across
anchors, and training can softly penalize the mismatch between an integrated
state and the stored snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import quaternions
from .scene import GaussianCloud


@dataclass(frozen=True)
class Anchor:
    time: float
    cloud: GaussianCloud
    velocities: Optional[np.ndarray] = None  # (N, 3) aux velocity for second-order fields


@dataclass
class AnchorSet:
    """Anchors sorted by strictly increasing time, identical cloud shape.

    Immutable once an epoch's set is built; concurrent reads are safe.
    """

    anchors: list = field(default_factory=list)

    def __len__(self):
        return len(self.anchors)

    def __iter__(self):
        return iter(self.anchors)

    def __getitem__(self, i):
        return self.anchors[i]

    @property
    def times(self):
        return np.array([a.time for a in self.anchors])

    def insert(self, cloud: GaussianCloud, t: float, velocities=None) -> Anchor:
        """Store a deep copy of the cloud as an anchor at time t.

        Raises ValueError on a duplicate time or a Gaussian-count mismatch.
        """
        if any(a.time == t for a in self.anchors):
            raise ValueError(f"anchor at time {t} already exists")
        if self.anchors and len(cloud) != len(self.anchors[0].cloud):
            raise ValueError("anchor cloud size differs from existing anchors")
        entry = Anchor(
            time=float(t),
            cloud=cloud.evolved(positions=cloud.positions.copy(), rotations=cloud.rotations.copy(),
                                log_scales=cloud.log_scales.copy(), time=float(t)),
            velocities=None if velocities is None else np.asarray(velocities, dtype=float).copy(),
        )
        self.anchors.append(entry)
        self.anchors.sort(key=lambda a: a.time)
        return entry


def nearest_past_anchor(anchor_set: AnchorSet, t: float) -> Anchor:
    """Anchor with maximal time <= t; exact matches return that anchor."""
    best = None
    for a in anchor_set:
        if a.time <= t and (best is None or a.time > best.time):
            best = a
    if best is None:
        raise ValueError(f"no anchor at or before t={t}")
    return best


def nearest_future_anchor(anchor_set: AnchorSet, t: float) -> Anchor:
    """Anchor with minimal time >= t (for backward queries)."""
    best = None
    for a in anchor_set:
        if a.time >= t and (best is None or a.time < best.time):
            best = a
    if best is None:
        raise ValueError(f"no anchor at or after t={t}")
    return best


def anchor_loss(integrated_clouds, anchor_set: AnchorSet) -> float:
    """Sum over anchors and Gaussians of the squared deviation between the
    integrated state and the stored snapshot.

    The deviation is the L2 norm over the concatenated (position,
    rotation-tangent, log_scale) vector; rotation deviation is measured as
    the log of the relative rotation, which is immune to quaternion sign
    ambiguity.  ``integrated_clouds`` must align one-to-one with the set.
    """
    if len(integrated_clouds) != len(anchor_set):
        raise ValueError(
            f"got {len(integrated_clouds)} integrated states for {len(anchor_set)} anchors"
        )
    total = 0.0
    for cloud, anchor in zip(integrated_clouds, anchor_set):
        stored = anchor.cloud
        if len(cloud) != len(stored):
            raise ValueError("integrated cloud size differs from anchor snapshot")
        dp = cloud.positions - stored.positions
        dr = quaternions.relative_tangent(cloud.rotations, stored.rotations)
        ds = cloud.log_scales - stored.log_scales
        total += state_deviation(dp, dr, ds)
    return total


def state_deviation(d_position, d_rotation, d_log_scale) -> float:
    """Squared L2 norm of a (position, rotation-tangent, log-scale) deviation,
    summed over Gaussians: the anchor term of the training objective."""
    return float(np.sum(d_position**2) + np.sum(d_rotation**2) + np.sum(d_log_scale**2))
