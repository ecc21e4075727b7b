"""Waypoint snapshots and the anchor-consistency deviation.

Anchors store full Gaussian states at fixed times.  Rollouts reinitialize
from the nearest anchor so integration error cannot accumulate across
anchors, and training softly penalizes the deviation of an integrated state
from the stored snapshot (:func:`state_deviation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scene import GaussianCloud


@dataclass(frozen=True)
class Anchor:
    cloud: GaussianCloud

    @property
    def time(self) -> float:
        return self.cloud.time


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

    def insert(self, cloud: GaussianCloud, t: float) -> Anchor:
        """Store a deep copy of the cloud, its time set to t, as an anchor.

        Raises ValueError on a duplicate time or a Gaussian-count mismatch.
        """
        if any(a.time == t for a in self.anchors):
            raise ValueError(f"anchor at time {t} already exists")
        if self.anchors and len(cloud) != len(self.anchors[0].cloud):
            raise ValueError("anchor cloud size differs from existing anchors")
        entry = Anchor(cloud.with_positions(cloud.positions.copy(), cloud.rotations.copy(), cloud.log_scales.copy(),
                                            time=float(t)))
        self.anchors.append(entry)
        self.anchors.sort(key=lambda a: a.time)
        return entry


def state_deviation(d_position, d_rotation, d_log_scale) -> float:
    """Squared L2 norm of a (position, rotation-tangent, log-scale) deviation,
    summed over Gaussians: the anchor term of the training objective."""
    return float(np.sum(d_position**2) + np.sum(d_rotation**2) + np.sum(d_log_scale**2))
