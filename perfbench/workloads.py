"""The workloads: how each makes its inputs, runs one timed round, and
checks what the round wrote.

Every workload drives gsdyn the way a user does, through ``gsdyn.cli.main``
in this process, so the program sees only files.  A round is a fixed list
of commands; the benchmark repeats whole rounds, so every run attempts the
same operations in the same proportions.

- ``fit_wide``: sparse-frame training on 1000 Gaussians of a vortex.  It
  has the per-call overhead of criterion 6's 10-Gaussian fit (the same
  number of calls per epoch) plus per-row arithmetic: matmuls, gradient
  scatters, the O(N^2) neighbour search and a large tape.
- ``predict_render``: the read side of a trained field (forward and backward
  rollouts, the anchored query, masked injection), the rasterizer, SSIM and
  the file formats.  No training happens in its timed pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

STEPS = 100  # integrator steps per unit time, the CLI default


@dataclass
class Round:
    """Wall times of one timed round and the work they cover."""

    pass_s: float = 0.0
    fit_s: float = 0.0
    simulate_s: float = 0.0  # `simulate` calls
    simulate_gsteps: int = 0  # their useful Gaussian-steps, N x steps x |t1 - t0|
    render_s: float = 0.0  # `render` calls
    render_frames: int = 0
    useful_gsteps: int = 0  # useful Gaussian-steps of every rollout of the round, inject too


class Commands:
    """Runs gsdyn commands in process; counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, *argv) -> float:
        from gsdyn import cli

        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):  # `eval` prints its table
            code = cli.main([str(a) for a in argv])
        seconds = time.perf_counter() - start
        self.attempted += 1
        self.failed += code != 0
        return seconds


def digest(directory: Path) -> str:
    """Hash of every file under ``directory`` except manifests, which name the directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


# ---------------------------------------------------------------------------
# fit_wide


VORTEX = {"omega": 1.0, "k": 0.1, "u0": 0.5}  # gsdyn's defaults for the vortex kind


def vortex_solution(p0, times):
    return checks.vortex_positions(p0, times, **VORTEX)


@dataclass
class FitWide:
    name: str = "fit_wide"
    n_gaussians: int = 1000
    n_frames: int = 20
    stride: int = 4  # supervise every 4th frame
    epochs: int = 8  # 6 epochs miss the held-out check (0.50 of the hold-still error)
    render_stride: int = 25  # simulate records every 25th step: 5 frames to render
    predict_repeats: int = 2  # simulate + render pairs after the fit; more pairs, steadier rates
    setup_repeats: int = 3

    def setup(self, run: Commands, work: Path, seed: int):
        """`gsdyn generate` of the scene.  Returns (input paths, None: no setup `train`)."""
        gen = work / "gen"
        run("generate", "--kind", "vortex", "--n-gaussians", self.n_gaussians, "--n-frames", self.n_frames,
            "--seed", seed, "--out", gen)
        return {"scene": gen / "scene.json"}, None

    def round(self, run: Commands, inputs: dict, out: Path) -> Round:
        scene = inputs["scene"]
        r = Round()
        start = time.perf_counter()
        r.fit_s = run("train", "--scene", scene, "--stride", self.stride, "--epochs", self.epochs,
                      "--seed", 0, "--out", out / "fit")
        for _ in range(self.predict_repeats):
            r.simulate_s += run("simulate", "--checkpoint", out / "fit" / "checkpoint.gsd", "--scene", scene,
                                "--t0", 0, "--t1", 1, "--steps", STEPS, "--record-stride", self.render_stride,
                                "--out", out / "sim")
            r.render_s += run("render", "--scene", scene, "--trajectory", out / "sim" / "trajectory.csv",
                              "--out", out / "frames")
        r.simulate_gsteps = r.useful_gsteps = self.predict_repeats * self.n_gaussians * STEPS
        r.render_frames = self.predict_repeats * (STEPS // self.render_stride + 1)
        r.pass_s = time.perf_counter() - start
        return r

    def check(self, inputs: dict, out: Path) -> list:
        scene, checkpoint = inputs["scene"], out / "fit" / "checkpoint.gsd"
        frames = STEPS // self.render_stride + 1
        p0, times, _ = checks.read_scene(scene)
        held_t, pred, anchor_t, anchor_p = checks.held_out_predictions(checkpoint, times)
        truth = vortex_solution(p0, held_t)
        err = checks.mean_error(pred, truth)
        still = checks.mean_error(checks.hold_still(held_t, anchor_t, anchor_p), truth)
        rows = p0[np.random.default_rng(1).choice(len(p0), size=8, replace=False)]
        return [
            checks.frames_match("fit_wide: generated frames vs closed form", scene, vortex_solution),
            checks.at_most("fit_wide: held-out error / hold-still error", err / still, 0.5),
            checks.gradient_check("fit_wide: backward vs central differences", checkpoint, rows),
            checks.trajectory_output("fit_wide: simulate output", out / "sim" / "trajectory.csv",
                                     p0, 0.0, 1.0, frames),
            checks.frames_written("fit_wide: rendered frames", out / "frames", frames),
        ]


# ---------------------------------------------------------------------------
# predict_render


SPIN_CENTER = (0.5, 0.5, 0.5)
SPIN_OMEGA = 2.0 * math.pi
SPHERE_RADIUS = 0.25
MARGIN = 0.02  # "well inside" / "well outside" the sphere


@dataclass
class PredictRender:
    name: str = "predict_render"
    n_gaussians: int = 500
    n_frames: int = 21  # frame times k/20 match the 0 -> 1 rollouts recorded every 5 steps
    epochs: int = 2
    record_stride: int = 5
    setup_repeats: int = 2

    def setup(self, run: Commands, work: Path, seed: int):
        """`gsdyn generate` of the scene, a brief `gsdyn train`, and the injection specs."""
        gen, fit = work / "gen", work / "fit"
        run("generate", "--kind", "vortex", "--n-gaussians", self.n_gaussians, "--n-frames", self.n_frames,
            "--seed", seed, "--out", gen)
        fit_s = run("train", "--scene", gen / "scene.json", "--stride", 4, "--epochs", self.epochs,
                    "--seed", 0, "--out", fit)
        spin, sphere = work / "spin.json", work / "sphere.json"
        spin.write_text(json.dumps({"kind": "spin", "params": {"center": SPIN_CENTER, "omega": SPIN_OMEGA}}))
        sphere.write_text(json.dumps({"shape": "sphere", "center": SPIN_CENTER, "radius": SPHERE_RADIUS}))
        inputs = {"scene": gen / "scene.json", "trajectory": gen / "trajectory.csv",
                  "checkpoint": fit / "checkpoint.gsd", "spin": spin, "sphere": sphere}
        return inputs, fit_s

    def round(self, run: Commands, inputs: dict, out: Path) -> Round:
        from gsdyn import scene as scene_mod

        scene, ckpt = inputs["scene"], inputs["checkpoint"]
        lattice = ["--steps", STEPS, "--record-stride", self.record_stride]
        n = STEPS // self.record_stride + 1  # frames of each rollout
        r = Round()
        start = time.perf_counter()
        r.simulate_s += run("simulate", "--checkpoint", ckpt, "--scene", scene, "--t0", 0, "--t1", 1,
                            *lattice, "--out", out / "fwd")
        # the state at t=1 becomes the initial cloud of the backward rollout
        data = scene_mod.load_scene(scene)
        _, end = scene_mod.import_trajectory_csv(out / "fwd" / "trajectory.csv")
        scene_mod.save_scene(scene_mod.SceneData(cloud=data.cloud.with_positions(end[-1], time=1.0),
                                                 cameras=data.cameras), out / "t1.json")
        r.simulate_s += run("simulate", "--checkpoint", ckpt, "--scene", out / "t1.json", "--t0", 1, "--t1", 0,
                            *lattice, "--out", out / "back")
        r.simulate_s += run("simulate", "--checkpoint", ckpt, "--t0", 0, "--t1", 1, "--anchored",
                            *lattice, "--out", out / "anchored")
        r.simulate_gsteps = 3 * self.n_gaussians * STEPS
        run("inject", "--checkpoint", ckpt, "--field", inputs["spin"], "--mask", inputs["sphere"],
            "--scene", scene, "--t0", 0, "--t1", 1, *lattice, "--render-frames", "--out", out / "inject")
        r.useful_gsteps = 4 * self.n_gaussians * STEPS
        r.render_s += run("render", "--scene", scene, "--trajectory", inputs["trajectory"], "--out", out / "gt")
        r.render_s += run("render", "--scene", scene, "--trajectory", out / "fwd" / "trajectory.csv",
                          "--out", out / "pred")
        r.render_frames = self.n_frames + n
        run("eval", "--pred", out / "fwd" / "trajectory.csv", "--gt", scene, "--metrics", "position,psnr,ssim",
            "--pred-frames", out / "gt", "--gt-frames", out / "gt", "--out", out / "eval")
        r.pass_s = time.perf_counter() - start
        return r

    def check(self, inputs: dict, out: Path) -> list:
        from gsdyn import train

        n = STEPS // self.record_stride + 1
        p0, gt_times, gt_pos = checks.read_scene(inputs["scene"])
        times, fwd = checks.read_trajectory(out / "fwd" / "trajectory.csv")
        _, back = checks.read_trajectory(out / "back" / "trajectory.csv")
        found = [
            checks.frames_match("predict_render: generated frames vs closed form", inputs["scene"],
                                vortex_solution),
            checks.trajectory_output("predict_render: forward simulate output", out / "fwd" / "trajectory.csv",
                                     p0, 0.0, 1.0, n),
            checks.below("predict_render: 0 -> 1 -> 0 round trip", checks.max_abs(back[-1], p0), 1e-6),
        ]

        # anchored output equals the checkpoint's anchors, which are ground-truth frames
        a_times, anchored = checks.read_trajectory(out / "anchored" / "trajectory.csv")
        _, anchors, _ = train.load_checkpoint(inputs["checkpoint"])
        dev = 0.0
        for a in anchors:
            fi = int(np.argmin(np.abs(a_times - a.time)))
            gi = int(np.argmin(np.abs(gt_times - a.time)))
            dev = max(dev, abs(a_times[fi] - a.time), checks.max_abs(anchored[fi], gt_pos[gi]),
                      checks.max_abs(anchored[fi], a.cloud.positions))
        found.append(checks.at_most("predict_render: anchored output at anchor times", dev, 1e-12))

        # inject: outside the sphere the checkpoint field alone, inside the closed-form spin
        _, inj = checks.read_trajectory(out / "inject" / "trajectory.csv")
        dist = np.linalg.norm(fwd - np.array(SPIN_CENTER), axis=-1)
        outside = np.all(dist > SPHERE_RADIUS + MARGIN, axis=0)
        inside = np.linalg.norm(p0 - np.array(SPIN_CENTER), axis=-1) < SPHERE_RADIUS - MARGIN
        dev = checks.max_abs(inj[:, outside], fwd[:, outside]) if outside.any() else math.nan
        found.append(checks.at_most("predict_render: inject outside the sphere equals simulate bitwise", dev, 0.0))
        spin = checks.spin_positions(p0[inside], times, SPIN_CENTER, SPIN_OMEGA)
        err = checks.max_abs(inj[:, inside], spin) if inside.any() else math.nan
        found.append(checks.below("predict_render: inject inside the sphere vs closed-form spin", err, 1e-6))
        found.append(checks.frames_written("predict_render: inject frames", out / "inject", n))
        found.append(checks.frames_written("predict_render: ground-truth frames", out / "gt", self.n_frames))
        found.append(checks.frames_written("predict_render: predicted frames", out / "pred", n))

        # eval: position errors recomputed with numpy; frames scored against themselves
        header, rows = checks.read_metrics(out / "eval" / "metrics.csv")
        cols = header[3:]
        table = np.array(rows)
        want = np.mean(np.linalg.norm(fwd - gt_pos, axis=-1), axis=1)
        pos_dev = checks.max_abs(table[:, cols.index("mean_position_error")], want) if len(rows) == n else math.inf
        found.append(checks.at_most("predict_render: eval position errors vs numpy", pos_dev, 1e-12))
        image_dev = max(checks.max_abs(table[:, cols.index("psnr")], 99.0),
                        checks.max_abs(table[:, cols.index("ssim")], 1.0)) if len(rows) == n else math.inf
        found.append(checks.at_most("predict_render: eval psnr 99 and ssim 1 on identical frames", image_dev, 1e-12))
        return found


WORKLOADS = {w.name: w for w in (FitWide(), PredictRender())}
