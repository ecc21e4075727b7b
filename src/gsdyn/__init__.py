"""Continuous-time dynamics engine for explicit Gaussian scene primitives.

Gaussian states evolve by numerically integrating a learned or analytic
velocity field; anchor waypoints keep long rollouts stable; fields compose
through a small vector-field algebra; a CPU rasterizer and PSNR/SSIM metrics
support evaluation.
"""

from .anchors import Anchor, AnchorSet
from .feature_grid import HexPlaneGrid, create_grid, lookup, lookup_grad, tv_loss
from .fields import (
    AnalyticField,
    MaskedBlendField,
    NeuralVelocityField,
    SummedField,
    VelocityField,
    ZeroField,
    box_mask,
    sphere_mask,
)
from .integrate import IntegratorConfig, Trajectory, anchor_aware_rollout, anchored_states, rollout
from .render import dssim_of, project, psnr, rasterize, ssim, write_ppm
from .scene import CameraSpec, GaussianCloud, SceneData, knn, load_scene, save_scene
from .train import FitResult, LossReport, TrainingConfig, coherence_loss, fit, total_loss

__version__ = "0.1.0"
