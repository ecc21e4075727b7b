"""Command-line entry point: generate / train / simulate / inject / render / eval.

Every command writes a run manifest (resolved configuration, artifact list,
and the seed of generate and train) next to its outputs; re-running a
command with the manifest's snapshot reproduces the outputs bitwise.  Exit
codes: 0 success, 1 numerical or runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import fields, integrate, render, train
from .anchors import AnchorSet
from .integrate import IntegratorConfig, IntegrationError
from .scene import (
    CameraSpec,
    GaussianCloud,
    SceneData,
    SceneError,
    export_trajectory_csv,
    import_trajectory_csv,
    load_scene,
    save_scene,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

GROUND_TRUTH_OVERSAMPLE = 10  # ground truth runs at 10x the default step count
MAX_STEPS = 10**6  # most integration steps one simulate or inject may ask for


class UsageError(Exception):
    pass


def _write_manifest(out_dir: Path, command: str, config: dict, artifacts: list):
    manifest = {"command": command, "config": config, "out": str(out_dir), "artifacts": sorted(artifacts)}
    if "seed" in config:
        manifest["seed"] = config["seed"]
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")


def _config_snapshot(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "command")}


def _read_spec(path, build):
    """build(spec) of the JSON spec in the file at path; a bad spec is a
    usage error that names the file."""
    try:
        with open(path) as f:
            return build(json.load(f))
    except (json.JSONDecodeError, fields.FieldError) as e:
        raise UsageError(f"{path}: {e}") from e


def _load_field_spec(path, checkpoint_field=None):
    def loader(ckpt_path):
        if ckpt_path == "@checkpoint" and checkpoint_field is not None:
            return checkpoint_field
        field, _, _ = train.load_checkpoint(ckpt_path)
        return field

    return _read_spec(path, lambda spec: fields.build_field(spec, neural_loader=loader))


def finite(text: str) -> float:
    """argparse type of --t0, --t1 and --lam: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# generate


def _default_camera():
    return CameraSpec(
        eye=np.array([0.5, -2.5, 0.5]),
        look_at=np.array([0.5, 0.5, 0.5]),
        up=np.array([0.0, 0.0, 1.0]),
        vertical_fov=0.9,
        width=96,
        height=96,
    )


def generate_scene(kind: str, n_gaussians: int, n_frames: int, seed: int, params: dict = None) -> SceneData:
    """Synthetic scene: cloud sampled in the unit box, ground-truth
    trajectories from a high-resolution RK4 rollout of the analytic field
    (anchored at t = 0, so each frame interval takes its own rounded number
    of steps)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.15, 0.85, size=(n_gaussians, 3))
    rotations = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n_gaussians, 1))
    log_scales = np.full((n_gaussians, 3), np.log(0.04))
    colors = rng.uniform(0.2, 1.0, size=(n_gaussians, 3))
    opacities = np.full(n_gaussians, 0.8)
    cloud = GaussianCloud(
        positions=positions, rotations=rotations, log_scales=log_scales,
        colors=colors, opacities=opacities, time=0.0,
    )
    field = fields.ZeroField() if kind == "zero" else fields.AnalyticField(kind, seed=seed, **(params or {}))

    times = np.linspace(0.0, 1.0, n_frames)
    anchor_set = AnchorSet()
    anchor_set.insert(cloud, 0.0)
    config = IntegratorConfig(step_count=IntegratorConfig().step_count * GROUND_TRUTH_OVERSAMPLE)
    traj = np.stack([s.positions for s in integrate.anchored_states(anchor_set, times, config, field)])
    return SceneData(
        cloud=cloud,
        cameras=[_default_camera()],
        trajectory_times=times,
        trajectory_positions=traj,
    )


def cmd_generate(args):
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    if args.n_gaussians < 1 or args.n_frames < 2:
        raise UsageError("need at least 1 gaussian and 2 frames")
    data = generate_scene(args.kind, args.n_gaussians, args.n_frames, args.seed, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scene(data, out / "scene.json")
    export_trajectory_csv(data.trajectory_times, data.trajectory_positions, out / "trajectory.csv")
    return ["scene.json", "trajectory.csv"]


# ---------------------------------------------------------------------------
# train


def cmd_train(args):
    data = load_scene(args.scene)
    config = train.TrainingConfig(
        epochs=args.epochs,
        frame_stride=args.stride,
        train_fraction=args.train_fraction,
        learning_rate=args.learning_rate,
        seed=args.seed,
        coherence_variant=args.coherence_variant,
    )
    result = train.fit(data, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train.save_checkpoint(
        out / "checkpoint.gsd",
        result.field,
        result.anchors,
        extra_meta={"supervised_times": result.supervised_times.tolist()},
    )
    with open(out / "loss_history.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "total", "data", "coherence", "anchor", "tv"])
        w.writerows([r.epoch, repr(r.total), repr(r.data), repr(r.coherence), repr(r.anchor), repr(r.tv)]
                    for r in result.history)
    return ["checkpoint.gsd", "loss_history.csv"], {"supervised_frames": len(result.supervised_times)}


# ---------------------------------------------------------------------------
# simulate


def _resolve_inputs(args, no_cloud: str):
    """Load --checkpoint and --scene once, for simulate and inject.

    The initial cloud is the scene's, else the checkpoint's first anchor;
    the camera is the scene's first, else the default.  Returns (checkpoint
    field or None, anchor set, cloud, camera).
    """
    checkpoint_field, anchor_set, scene = None, AnchorSet(), None
    if args.checkpoint:
        checkpoint_field, anchor_set, _ = train.load_checkpoint(args.checkpoint)
    if args.scene:
        scene = load_scene(args.scene)
    if scene is not None:
        cloud = scene.cloud
    elif len(anchor_set) > 0:
        cloud = anchor_set[0].cloud
    else:
        raise UsageError(no_cloud)
    camera = scene.cameras[0] if scene is not None and scene.cameras else _default_camera()
    return checkpoint_field, anchor_set, cloud, camera


def _write_frames(out: Path, clouds, camera) -> list:
    """Rasterize each cloud to frame_<i>.ppm; returns the file names."""
    names = []
    for fi, cloud in enumerate(clouds):
        name = f"frame_{fi:04d}.ppm"
        render.write_ppm(render.rasterize(cloud, camera), out / name)
        names.append(name)
    return names


def _span_steps(args) -> int:
    """Integration steps over [t0, t1]: --steps is per unit time."""
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if args.t0 == args.t1:
        raise UsageError("t0 and t1 must differ")
    total = abs(args.t1 - args.t0) * args.steps
    if total > MAX_STEPS + 0.5:  # rounds above MAX_STEPS, or an infinite span
        raise UsageError(f"|t1 - t0| * --steps asks for {total:.6g} steps; at most {MAX_STEPS} are allowed")
    return integrate.span_steps(args.t1 - args.t0, args.steps)


def _write_outputs(args, times, positions, clouds=(), camera=None) -> list:
    """Write trajectory.csv and a frame of each cloud to --out; returns the file names."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_trajectory_csv(times, positions, out / "trajectory.csv")
    return ["trajectory.csv", *_write_frames(out, clouds, camera)]


def cmd_simulate(args):
    checkpoint_field, anchor_set, cloud, _ = _resolve_inputs(
        args, "need --scene for the initial cloud (checkpoint has no anchors)"
    )
    if not args.field and checkpoint_field is None:
        raise UsageError("need --checkpoint or --field")
    field = _load_field_spec(args.field, checkpoint_field) if args.field else checkpoint_field
    config = IntegratorConfig(method=args.method, step_count=_span_steps(args), record_stride=args.record_stride)
    if not args.anchored:
        traj = integrate.rollout(cloud, args.t0, args.t1, config, field)
        return _write_outputs(args, traj.times, traj.positions)
    if len(anchor_set) == 0:
        raise UsageError("--anchored requires a checkpoint with anchors")
    legs = integrate.rollout_legs(args.t0, args.t1, config)
    # the times a rollout records; t0 + 0 h turns a --t0 of -0 into 0.0
    times = [args.t0 + 0 * legs[0][1], *(t0 + steps.stop * h for t0, h, steps in legs)]
    per_unit = IntegratorConfig(method=args.method, step_count=args.steps)
    positions = np.stack([c.positions for c in integrate.anchored_states(anchor_set, times, per_unit, field)])
    return _write_outputs(args, times, positions)


# ---------------------------------------------------------------------------
# inject


def cmd_inject(args):
    checkpoint_field, _, cloud, camera = _resolve_inputs(
        args, "need --scene or a checkpoint with anchors for the initial cloud"
    )
    base = checkpoint_field if checkpoint_field is not None else fields.ZeroField()
    injected = _load_field_spec(args.field, checkpoint_field)
    if args.mask:
        mask = _read_spec(args.mask, fields.build_mask)
        composed = fields.MaskedBlendField(base, fields.SummedField(fields.ZeroField(), injected, args.lam), mask)
    else:
        composed = fields.SummedField(base, injected, args.lam)
    config = IntegratorConfig(method=args.method, step_count=_span_steps(args), record_stride=args.record_stride)
    traj = integrate.rollout(cloud, args.t0, args.t1, config, composed)
    clouds = (traj.cloud_at(fi) for fi in range(len(traj))) if args.render_frames else ()
    return _write_outputs(args, traj.times, traj.positions, clouds, camera)


# ---------------------------------------------------------------------------
# render


def cmd_render(args):
    data = load_scene(args.scene)
    if not data.cameras:
        raise UsageError("scene has no cameras")
    if not 0 <= args.camera_index < len(data.cameras):
        raise UsageError(f"camera index {args.camera_index} out of range")
    camera = data.cameras[args.camera_index]
    clouds = [data.cloud]
    if args.trajectory:
        _, positions = import_trajectory_csv(args.trajectory)
        if positions.shape[1] != len(data.cloud):
            raise UsageError("trajectory gaussian count does not match the scene")
        clouds = (data.cloud.with_positions(p) for p in positions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return _write_frames(out, clouds, camera)


# ---------------------------------------------------------------------------
# eval


SUPPORTED_METRICS = ("position", "psnr", "ssim", "dssim")


def cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for m in metrics:
        if m not in SUPPORTED_METRICS:
            raise UsageError(
                f"unsupported metric {m!r} (supported: {', '.join(SUPPORTED_METRICS)}; "
                "lpips needs a pretrained network and is not provided)"
            )
    image_metrics = [m for m in metrics if m in ("psnr", "ssim", "dssim")]
    if "position" in metrics and not (args.pred and args.gt):
        raise UsageError("the position metric needs --pred and --gt")
    if image_metrics and not (args.pred_frames and args.gt_frames):
        raise UsageError(f"{', '.join(image_metrics)} need --pred-frames and --gt-frames")

    observed_times = None
    if args.train_manifest:
        with open(args.train_manifest) as f:
            tm = json.load(f)
        if not isinstance(tm, dict) or not isinstance(tm.get("out"), str):
            raise UsageError(f"{args.train_manifest}: a training manifest is a JSON object with a string 'out' key")
        ckpt = Path(tm["out"]) / "checkpoint.gsd"
        if ckpt.exists():
            _, _, meta = train.load_checkpoint(ckpt)
            extra = meta.get("extra", {})
            if not isinstance(extra, dict):
                raise UsageError(f"{ckpt}: checkpoint header 'extra' must be a JSON object, got {extra!r}")
            observed_times = extra.get("supervised_times")
            if observed_times is not None and not train.finite_times(observed_times):
                raise UsageError(f"{ckpt}: checkpoint header 'extra.supervised_times' must be a list of finite "
                                 f"numbers, got {observed_times!r}")

    rows = []
    header = ["frame_index", "time", "observed"]
    if "position" in metrics:
        times, pred = import_trajectory_csv(args.pred)
        gt_scene = load_scene(args.gt)
        if not gt_scene.has_trajectories:
            raise UsageError("ground-truth scene has no trajectories")
        gt_times, gt_pos = gt_scene.trajectory_times, gt_scene.trajectory_positions
        header.append("mean_position_error")
        for fi, t in enumerate(times):
            gi = int(np.argmin(np.abs(gt_times - t)))
            if abs(gt_times[gi] - t) > 1e-9:
                raise UsageError(f"predicted frame time {t} has no matching ground-truth frame")
            err = float(np.mean(np.linalg.norm(pred[fi] - gt_pos[gi], axis=-1)))
            observed = _is_observed(t, observed_times)
            rows.append([fi, t, observed, err])
    if image_metrics:
        pred_frames = sorted(Path(args.pred_frames).glob("*.ppm"), key=_frame_order)
        gt_frames = sorted(Path(args.gt_frames).glob("*.ppm"), key=_frame_order)
        if len(pred_frames) != len(gt_frames) or not pred_frames:
            raise UsageError("frame directories are empty or differ in length")
        if rows and len(rows) != len(pred_frames):
            raise UsageError(f"trajectory has {len(rows)} frames but the frame directories hold {len(pred_frames)}")
        header.extend(image_metrics)
        for fi, (pf, gf) in enumerate(zip(pred_frames, gt_frames)):
            a = render.read_ppm(pf)
            b = render.read_ppm(gf)
            scores = {}
            if "psnr" in image_metrics:
                scores["psnr"] = render.psnr(a, b)
            if "ssim" in image_metrics or "dssim" in image_metrics:  # one SSIM serves both
                scores["ssim"] = render.ssim(a, b)
                scores["dssim"] = render.dssim_of(scores["ssim"])
            vals = [scores[m] for m in image_metrics]
            if "position" in metrics:
                rows[fi].extend(vals)
            else:
                rows.append([fi, float(fi), _is_observed(None, None), *vals])

    out = Path(args.out)  # made only once every input has been read and checked
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
        w.writerow(["mean", "", ""] + [repr(float(np.mean([r[j] for r in rows]))) for j in range(3, len(header))])

    col = "  ".join(f"{h:>22}" for h in header)
    print(col)
    for r in rows:
        print("  ".join(f"{str(x):>22}" for x in r))
    return ["metrics.csv"]


def _frame_order(path: Path):
    """Sort key of a frame file: digit runs compare as numbers, so frame_10000.ppm follows frame_9999.ppm."""
    parts = re.split(r"(\d+)", path.name)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], path.name


def _is_observed(t, observed_times):
    if observed_times is None or t is None:
        return ""
    return "observed" if any(abs(t - ot) < 1e-9 for ot in observed_times) else "held-out"


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gsdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("generate", help="synthetic scene with ground-truth trajectories")
    shared(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", required=True, help="analytic field kind (or 'zero')")
    p.add_argument("--n-gaussians", type=int, default=10)
    p.add_argument("--n-frames", type=int, default=20)
    p.add_argument("--params", default=None, help="JSON field parameters")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a neural velocity field to sparse frames")
    shared(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scene", required=True)
    p.add_argument("--stride", type=int, default=1, help="supervise every k-th frame")
    p.add_argument("--train-fraction", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=1500)
    p.add_argument("--learning-rate", type=float, default=5e-3)
    p.add_argument("--coherence-variant", choices=["literal", "relative"], default="relative")
    p.set_defaults(func=cmd_train)

    def integrator_flags(p):
        p.add_argument("--method", choices=["euler", "rk4"], default="rk4")
        p.add_argument("--steps", type=int, default=100, help="steps per unit time")
        p.add_argument("--record-stride", type=int, default=1)

    p = sub.add_parser("simulate", help="roll a field forward or backward")
    shared(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--field", default=None, help="JSON field composition spec")
    p.add_argument("--scene", default=None, help="scene providing the initial cloud")
    p.add_argument("--t0", type=finite, required=True)
    p.add_argument("--t1", type=finite, required=True)
    p.add_argument("--anchored", action="store_true", help="reinitialize from stored anchors")
    integrator_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="blend or add an external field and roll out")
    shared(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--field", required=True, help="JSON composition/field spec for the injected dynamics")
    p.add_argument("--mask", default=None, help="JSON mask spec (sphere or box)")
    p.add_argument("--lam", type=finite, default=1.0,
                   help="weight of the injected field: base + lam * field, or lam * field inside --mask")
    p.add_argument("--scene", default=None)
    p.add_argument("--t0", type=finite, default=0.0)
    p.add_argument("--t1", type=finite, default=1.0)
    p.add_argument("--render-frames", action="store_true")
    integrator_flags(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("render", help="rasterize a scene (optionally along a trajectory)")
    shared(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--camera-index", type=int, default=0)
    p.add_argument("--trajectory", default=None, help="trajectory CSV to animate the cloud")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval", help="metrics against ground truth")
    shared(p)
    p.add_argument("--pred", default=None, help="predicted trajectory CSV")
    p.add_argument("--gt", default=None, help="ground-truth scene file")
    p.add_argument("--pred-frames", default=None, help="directory of predicted PPM frames")
    p.add_argument("--gt-frames", default=None, help="directory of ground-truth PPM frames")
    p.add_argument("--metrics", default="position")
    p.add_argument("--train-manifest", default=None, help="flag rows observed/held-out via a training manifest")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        result = args.func(args)
    except (UsageError, SceneError, fields.FieldError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, train.TrainingError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    if isinstance(result, tuple):
        artifacts, extra = result
    else:
        artifacts, extra = result, {}
    config = _config_snapshot(args)
    config.update(extra)
    _write_manifest(out_dir, args.command, config, artifacts)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
