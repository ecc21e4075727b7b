"""Injecting external dynamics into part of a scene.

A quiet cloud gets a spinning motion inside a spherical region while the
rest of the scene keeps its original (zero) dynamics.  The same masked
blend also works with a trained neural field as the base.

Run with:  python3 demos/injection_demo.py
"""

import numpy as np

from gsdyn.fields import AnalyticField, MaskedBlendField, SummedField, ZeroField, sphere_mask
from gsdyn.integrate import IntegratorConfig, rollout
from gsdyn.scene import GaussianCloud


def grid_cloud(side=6):
    axis = np.linspace(0.1, 0.9, side)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    positions = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    n = len(positions)
    return GaussianCloud(
        positions=positions,
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), -3.5),
        colors=np.full((n, 3), 0.6),
        opacities=np.full(n, 0.8),
    )


def main():
    cloud = grid_cloud()
    center = np.array([0.5, 0.5, 0.5])
    spin = AnalyticField("spin", center=(0.5, 0.5, 0.0), omega=4.0)

    # hard mask: points inside the sphere follow the spin, the rest stay put
    mask = sphere_mask(center, 0.25)
    field = MaskedBlendField(ZeroField(), spin, mask)
    cfg = IntegratorConfig(method="rk4", step_count=200, record_stride=200)
    traj = rollout(cloud, 0.0, 1.0, cfg, field)

    inside = np.linalg.norm(cloud.positions - center, axis=1) <= 0.25
    moved = np.linalg.norm(traj.positions[-1] - cloud.positions, axis=-1)
    print(f"gaussians inside the mask: {inside.sum()} / {len(cloud)}")
    print(f"mean displacement inside:  {moved[inside].mean():.4f}")
    print(f"max displacement outside:  {moved[~inside].max():.2e}  (identically zero)")

    # soft edge: the blend fades out over the band just inside the radius
    soft = MaskedBlendField(ZeroField(), spin, sphere_mask(center, 0.25, edge_width=0.15))
    traj_soft = rollout(cloud, 0.0, 1.0, cfg, soft)
    moved_soft = np.linalg.norm(traj_soft.positions[-1] - cloud.positions, axis=-1)
    d = np.linalg.norm(cloud.positions - center, axis=1)
    band = (d > 0.25 - 0.15) & (d <= 0.25)
    print(f"transition band displacement, hard vs soft edge: "
          f"{moved[band].mean():.4f} vs {moved_soft[band].mean():.4f}")

    # additive composition: a global breeze on top of the masked spin
    breeze = AnalyticField("drift", delta=(0.1, 0.0, 0.0))
    combined = SummedField(field, breeze, 1.0)
    traj_c = rollout(cloud, 0.0, 1.0, cfg, combined)
    drift_of_outside = np.mean(traj_c.positions[-1][~inside] - cloud.positions[~inside], axis=0)
    print(f"outside points under spin+breeze drifted by {np.round(drift_of_outside, 3)}")


if __name__ == "__main__":
    main()
