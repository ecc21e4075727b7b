"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (with the measured quantities and its
runtime budget) so the whole gate is readable from the pytest log.
"""

import json
import sys
import time

import numpy as np

import _acceptance_log
from gsdyn import cli, feature_grid, integrate, render, train
from gsdyn.anchors import AnchorSet
from gsdyn.fields import (
    AnalyticField,
    MaskedBlendField,
    NeuralVelocityField,
    SummedField,
    ZeroField,
    sphere_mask,
)
from gsdyn.integrate import IntegratorConfig
from gsdyn.scene import CameraSpec, GaussianCloud, knn


def report(num, ok, budget_s, elapsed, detail):
    ok = ok and elapsed < budget_s
    line = (f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}  "
            f"({elapsed:.1f}s / budget {budget_s:.0f}s)")
    print(line, file=sys.__stdout__, flush=True)
    _acceptance_log.lines.append(line)
    assert ok, line


def make_cloud(positions, time_=0.0):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    return GaussianCloud(
        positions=positions,
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), -3.0),
        colors=np.full((n, 3), 0.6),
        opacities=np.full(n, 0.8),
        time=time_,
    )


def spin_exact(p0, center, omega, t):
    """Closed-form rotation of points about the z axis through center."""
    c = np.asarray(center, dtype=float)
    r = p0 - c
    a = omega * t
    out = np.empty_like(r)
    out[:, 0] = np.cos(a) * r[:, 0] - np.sin(a) * r[:, 1]
    out[:, 1] = np.sin(a) * r[:, 0] + np.cos(a) * r[:, 1]
    out[:, 2] = r[:, 2]
    return out + c


def test_criterion_01_solver_convergence_order():
    t0 = time.time()
    omega = 2 * np.pi
    field = AnalyticField("spin", omega=omega)
    rng = np.random.default_rng(0)
    start = make_cloud(rng.uniform(-1, 1, (6, 3)))
    counts = np.array([50, 100, 200, 400])
    orders = {}
    for method in ("euler", "rk4"):
        errs = []
        for n in counts:
            cfg = IntegratorConfig(method=method, step_count=int(n), record_stride=int(n))
            traj = integrate.rollout(start, 0.0, 1.0, cfg, field)
            # one full period returns every point to its start
            errs.append(np.max(np.linalg.norm(traj.positions[-1] - start.positions, axis=-1)))
        # least-squares slope of log error against log step count
        orders[method] = -np.polyfit(np.log(counts), np.log(errs), 1)[0]
    ok = 3.8 <= orders["rk4"] <= 4.2 and 0.9 <= orders["euler"] <= 1.1
    report(1, ok, 5, time.time() - t0,
           f"convergence order rk4={orders['rk4']:.3f} (want [3.8,4.2]), "
           f"euler={orders['euler']:.3f} (want [0.9,1.1])")


def test_criterion_02_reversibility():
    t0 = time.time()
    rng = np.random.default_rng(1)
    start = make_cloud(rng.uniform(0.1, 0.9, (8, 3)))
    cfg = IntegratorConfig(method="rk4", step_count=100, record_stride=100)
    worst = {}
    for kind in ("spin", "vortex", "wave"):
        field = AnalyticField(kind)
        fwd = integrate.rollout(start, 0.0, 1.0, cfg, field)
        back = integrate.rollout(fwd.cloud_at(-1), 1.0, 0.0, cfg, field)
        worst[kind] = float(np.max(np.linalg.norm(back.positions[-1] - start.positions, axis=-1)))
    ok = all(v < 1e-6 for v in worst.values())
    report(2, ok, 5, time.time() - t0,
           "forward+backward round trip max error "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (want <1e-6)")


def test_criterion_03_euler_temporal_drift():
    t0 = time.time()
    omega = 2 * np.pi  # period 1, integrate 5 periods at 100 steps per period
    field = AnalyticField("spin", omega=omega)
    rng = np.random.default_rng(2)
    start = make_cloud(rng.uniform(-1, 1, (10, 3)))
    r0 = np.linalg.norm(start.positions[:, :2], axis=1)
    err = {}
    for method in ("euler", "rk4"):
        cfg = IntegratorConfig(method=method, step_count=500, record_stride=500)
        traj = integrate.rollout(start, 0.0, 5.0, cfg, field)
        r = np.linalg.norm(traj.positions[-1][:, :2], axis=1)
        err[method] = float(np.mean(np.abs(r - r0)))
    ratio = err["euler"] / err["rk4"]
    ok = ratio >= 100.0
    report(3, ok, 10, time.time() - t0,
           f"final radius error euler={err['euler']:.2e}, rk4={err['rk4']:.2e}, "
           f"ratio={ratio:.0f} (want >=100)")


def test_criterion_04_anchor_stabilization():
    t0 = time.time()
    omega = 2 * np.pi
    center = (0.5, 0.5, 0.0)
    rng = np.random.default_rng(3)
    start = make_cloud(rng.uniform(0.1, 0.9, (200, 3)))
    # the true motion is a spin; the available field runs 5 percent fast
    perturbed = AnalyticField("spin", center=center, omega=1.05 * omega)

    anchored = AnchorSet()
    origin_only = AnchorSet()
    for t in (0.0, 0.5, 1.0):
        exact = start.with_positions(spin_exact(start.positions, center, omega, t), time=t)
        anchored.insert(exact, t)
        if t == 0.0:
            origin_only.insert(exact, t)

    cfg = IntegratorConfig(method="rk4", step_count=100)
    queries = np.linspace(0.0, 1.0, 21)
    err_anchored, err_origin = [], []
    for t in queries:
        exact = spin_exact(start.positions, center, omega, t)
        a = integrate.anchor_aware_rollout(anchored, t, cfg, perturbed)
        s = integrate.anchor_aware_rollout(origin_only, t, cfg, perturbed)
        err_anchored.append(float(np.max(np.linalg.norm(a.positions - exact, axis=-1))))
        err_origin.append(float(np.max(np.linalg.norm(s.positions - exact, axis=-1))))
    err_anchored, err_origin = np.array(err_anchored), np.array(err_origin)
    never_worse = bool(np.all(err_anchored <= err_origin + 1e-15))
    # interior terminal probe: last query before the end anchor
    terminal = float(err_origin[-1] / max(err_anchored[-1], err_origin[-1] / 1e6))
    ok = never_worse and terminal >= 2.0
    report(4, ok, 30, time.time() - t0,
           f"anchored never worse across 21 query times: {never_worse}; "
           f"terminal error reduction {terminal:.0f}x (want >=2x)")


def test_criterion_05_gradient_correctness():
    t0 = time.time()
    worst_overall = 0.0
    worst_name = ""
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        kind = ("drift", "spin", "swirl", "wave")[seed % 4]
        scene = cli.generate_scene(kind, 4, 4, seed=seed)
        cfg = train.TrainingConfig(
            lambda_coh=0.05, lambda_anchor=0.1, lambda_tv=1e-3,
            hidden=(5,), grid_spatial_resolution=3, grid_time_resolution=3,
            grid_channels=1, knn_k=2, steps_per_unit=3,
        )
        plan = train._build_plan(scene, cfg)
        grid = feature_grid.create_grid(
            np.zeros(3) - 0.5, np.ones(3) + 0.5, spatial_resolution=3,
            time_resolution=3, channels=1, seed=seed,
        )
        field = NeuralVelocityField(grid, hidden=(5,), seed=seed + 1)
        _, grads = train._epoch_losses_and_grads(field, plan, cfg)

        def total(field=field, plan=plan, cfg=cfg):
            r, _ = train._epoch_losses_and_grads(field, plan, cfg)
            return r.total

        eps = 1e-6
        for name, p, g in zip(field.parameter_names(), field.parameters(), field.views(grads)):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for idx in rng.choice(flat_p.size, size=min(3, flat_p.size), replace=False):
                flat_p[idx] += eps
                up = total()
                flat_p[idx] -= 2 * eps
                dn = total()
                flat_p[idx] += eps
                fd = (up - dn) / (2 * eps)
                rel = abs(flat_g[idx] - fd) / max(abs(fd), 1e-3)
                if rel > worst_overall:
                    worst_overall, worst_name = rel, f"seed {seed} {name}"
    ok = worst_overall < 1e-4
    report(5, ok, 60, time.time() - t0,
           f"total-loss gradients vs central differences, 20 seeded configs, "
           f"worst rel err {worst_overall:.2e} at {worst_name} (want <1e-4)")


def test_criterion_06_sparse_frame_learning():
    t0 = time.time()
    data = cli.generate_scene("drift", 10, 20, seed=5, params={"delta": [0.3, 0.0, 0.0]})
    icfg = IntegratorConfig(step_count=100)

    # interpolation protocol: supervise every 4th frame, score the rest
    res = train.fit(data, train.TrainingConfig(epochs=1000, frame_stride=4, seed=0))
    errs = []
    for fi, t in enumerate(data.trajectory_times):
        if np.min(np.abs(res.supervised_times - t)) < 1e-9:
            continue
        c = integrate.anchor_aware_rollout(res.anchors, t, icfg, res.field)
        errs.append(float(np.mean(np.linalg.norm(c.positions - data.trajectory_positions[fi], axis=-1))))
    held_out = float(np.mean(errs))

    # the fitted velocity, averaged along the true paths, matches the drift
    gt_t, gt_p = data.trajectory_times, data.trajectory_positions
    vels = []
    for t in np.linspace(res.supervised_times[0], res.supervised_times[-1], 200):
        i = min(max(int(np.searchsorted(gt_t, t)), 1), len(gt_t) - 1)
        w = (t - gt_t[i - 1]) / (gt_t[i] - gt_t[i - 1])
        p = (1 - w) * gt_p[i - 1] + w * gt_p[i]
        vels.append(res.field.evaluate_batch(p, None, t).d_position)
    vel_dev = float(np.linalg.norm(np.mean(np.concatenate(vels), axis=0) - [0.3, 0.0, 0.0]))

    # extrapolation protocol: supervise the leading 75 percent of the window
    res2 = train.fit(data, train.TrainingConfig(epochs=2000, train_fraction=0.75, seed=0))
    c = integrate.anchor_aware_rollout(res2.anchors, 1.0, icfg, res2.field)
    err_end = float(np.mean(np.linalg.norm(c.positions - data.trajectory_positions[-1], axis=-1)))

    ok = held_out < 0.01 and err_end < 0.05 and vel_dev < 0.02
    report(6, ok, 600, time.time() - t0,
           f"held-out frame mean error {held_out:.4f} (want <0.01); "
           f"extrapolated error at t=1 {err_end:.4f} (want <0.05); "
           f"mean learned velocity off by {vel_dev:.4f} (want <0.02)")


def test_criterion_07_composition_algebra():
    t0 = time.time()
    rng = np.random.default_rng(4)
    start = make_cloud(rng.uniform(0.2, 0.8, (6, 3)))
    base = AnalyticField("drift", delta=(0.2, -0.1, 0.05))
    injected = AnalyticField("spin", omega=3.0)
    cfg = IntegratorConfig(method="rk4", step_count=50, record_stride=10)

    base_traj = integrate.rollout(start, 0.0, 1.0, cfg, base)
    inj_traj = integrate.rollout(start, 0.0, 1.0, cfg, injected)
    zero_mask = integrate.rollout(
        start, 0.0, 1.0, cfg, MaskedBlendField(base, injected, lambda p: np.zeros(len(p))))
    one_mask = integrate.rollout(
        start, 0.0, 1.0, cfg, MaskedBlendField(base, injected, lambda p: np.ones(len(p))))
    bitwise = (np.array_equal(zero_mask.positions, base_traj.positions)
               and np.array_equal(one_mask.positions, inj_traj.positions))
    # additive identity at lambda = 0
    add_traj = integrate.rollout(start, 0.0, 1.0, cfg, SummedField(base, injected, 0.0))
    bitwise = bitwise and np.array_equal(add_traj.positions, base_traj.positions)

    # hard sphere mask: closed-form orbit inside, identity outside
    omega = 2 * np.pi
    center = (0.5, 0.5, 0.0)
    spin = AnalyticField("spin", center=center, omega=omega)
    mask = sphere_mask((0.5, 0.5, 0.5), 0.3)
    cloud = make_cloud([[0.6, 0.5, 0.5], [2.0, 2.0, 2.0]])
    traj = integrate.rollout(cloud, 0.0, 1.0,
                             IntegratorConfig(method="rk4", step_count=400, record_stride=100),
                             MaskedBlendField(ZeroField(), spin, mask))
    worst_inside = 0.0
    for fi, t in enumerate(traj.times):
        exact = spin_exact(cloud.positions[:1], center, omega, t)
        worst_inside = max(worst_inside, float(np.linalg.norm(traj.positions[fi][0] - exact[0])))
    outside_fixed = bool(np.all(traj.positions[:, 1] == [2.0, 2.0, 2.0]))
    ok = bitwise and worst_inside < 1e-6 and outside_fixed
    report(7, ok, 5, time.time() - t0,
           f"mask 0/1 and lambda=0 limits bitwise: {bitwise}; sphere-mask orbit error "
           f"{worst_inside:.2e} (want <1e-6); outside identity: {outside_fixed}")


def test_criterion_08_coherence_regularizer():
    t0 = time.time()
    two = make_cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    literal = train.coherence_loss(two, knn(two, 1), ZeroField(), h=0.02, variant="literal")

    rng = np.random.default_rng(5)
    cloud = make_cloud(rng.uniform(0.2, 0.8, (10, 3)))
    nb = knn(cloud, 3)
    translated = train.coherence_loss(cloud, nb, AnalyticField("drift", delta=(1.0, 2.0, 3.0)),
                                      h=0.05, variant="relative")
    sheared = train.coherence_loss(cloud, nb, AnalyticField("vortex"), h=0.05, variant="relative")
    ok = abs(literal - 1.0) < 1e-6 and abs(translated) < 1e-24 and sheared > 0.0
    report(8, ok, 1, time.time() - t0,
           f"two-point literal value {literal:.8f} (want 1 +- 1e-6); relative: "
           f"translation {translated:.1e} (want 0), vortex {sheared:.2e} (want >0)")


def test_criterion_09_conservation():
    t0 = time.time()
    # circular orbit: r=1, speed 1, G=1, drag off; energy is -1/2
    field = AnalyticField("orbital", G=1.0, mu=0.0)
    cloud = make_cloud([[1.0, 0.0, 0.0]])
    v0 = np.array([[0.0, 1.0, 0.0]])
    period = 2 * np.pi
    cfg = IntegratorConfig(method="rk4", step_count=int(round(period / 1e-3)), record_stride=25)
    traj = integrate.rollout(cloud, 0.0, period, cfg, field, velocities=v0)
    r = np.linalg.norm(traj.positions[:, 0], axis=-1)
    v = np.linalg.norm(traj.aux_velocities[:, 0], axis=-1)
    energy = 0.5 * v**2 - 1.0 / r
    drift = float(np.max(np.abs(energy - energy[0]) / abs(energy[0])))

    spin = AnalyticField("spin", omega=1.7)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, (100, 3))
    eps = 1e-5
    div = np.zeros(100)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = eps
        up = spin.evaluate_batch(pts + e, None, 0.0).d_position[:, axis]
        dn = spin.evaluate_batch(pts - e, None, 0.0).d_position[:, axis]
        div += (up - dn) / (2 * eps)
    max_div = float(np.max(np.abs(div)))
    ok = drift < 1e-5 and max_div < 1e-6
    report(9, ok, 5, time.time() - t0,
           f"orbital energy drift {drift:.2e} (want <1e-5); "
           f"spin divergence {max_div:.2e} at 100 points (want <1e-6)")


def test_criterion_10_renderer_and_metrics():
    t0 = time.time()
    camera = CameraSpec(
        eye=np.array([0.0, -3.0, 0.0]), look_at=np.zeros(3),
        up=np.array([0.0, 0.0, 1.0]), vertical_fov=0.7, width=33, height=33,
    )
    single = make_cloud([[0.0, 0.0, 0.0]])
    img = render.rasterize(single, camera)
    lum = img.sum(axis=2)
    peak_centered = np.unravel_index(np.argmax(lum), lum.shape) == (16, 16)

    rng = np.random.default_rng(7)
    entries = rng.uniform(-0.5, 0.5, (8, 3))
    cloud = make_cloud(entries)
    a = render.rasterize(cloud, camera)
    perm = rng.permutation(8)
    b = render.rasterize(make_cloud(entries[perm]), camera)
    permutation_ok = np.array_equal(a, b)

    psnr_self = render.psnr(a, a)
    ssim_self = render.ssim(a, a)
    ok = (peak_centered and permutation_ok and psnr_self == 99.0
          and abs(ssim_self - 1.0) < 1e-12)
    report(10, ok, 5, time.time() - t0,
           f"peak at center: {peak_centered}; permutation-invariant: {permutation_ok}; "
           f"self psnr {psnr_self} (want cap 99), self ssim {ssim_self} (want 1)")


def test_criterion_11_manifest_determinism(tmp_path):
    t0 = time.time()

    def run(argv):
        assert cli.main(argv) == 0

    def rerun_from_manifest(out_dir, rebuild_argv):
        """Re-run with the manifest's recorded configuration, byte-compare."""
        with open(out_dir / "manifest.json") as f:
            manifest = json.load(f)
        redo = out_dir.parent / (out_dir.name + "_redo")
        run(rebuild_argv(manifest, str(redo)))
        same = all(
            (out_dir / name).read_bytes() == (redo / name).read_bytes()
            for name in manifest["artifacts"]
        )
        return same, len(manifest["artifacts"])

    results = {}

    gen = tmp_path / "gen"
    run(["generate", "--kind", "swirl", "--n-gaussians", "5", "--n-frames", "6",
         "--seed", "3", "--out", str(gen)])
    results["generate"], _ = rerun_from_manifest(gen, lambda m, out: [
        "generate", "--kind", m["config"]["kind"],
        "--n-gaussians", str(m["config"]["n_gaussians"]),
        "--n-frames", str(m["config"]["n_frames"]),
        "--seed", str(m["seed"]), "--out", out])

    fit = tmp_path / "fit"
    run(["train", "--scene", str(gen / "scene.json"), "--epochs", "3",
         "--stride", "2", "--out", str(fit)])
    results["train"], _ = rerun_from_manifest(fit, lambda m, out: [
        "train", "--scene", m["config"]["scene"],
        "--epochs", str(m["config"]["epochs"]), "--stride", str(m["config"]["stride"]),
        "--seed", str(m["seed"]), "--out", out])

    spec = tmp_path / "field.json"
    spec.write_text(json.dumps({"kind": "swirl", "seed": 3}))
    sim = tmp_path / "sim"
    run(["simulate", "--field", str(spec), "--scene", str(gen / "scene.json"),
         "--t0", "0", "--t1", "1", "--steps", "20", "--out", str(sim)])
    results["simulate"], _ = rerun_from_manifest(sim, lambda m, out: [
        "simulate", "--field", m["config"]["field"], "--scene", m["config"]["scene"],
        "--t0", str(m["config"]["t0"]), "--t1", str(m["config"]["t1"]),
        "--steps", str(m["config"]["steps"]), "--out", out])

    inj = tmp_path / "inj"
    run(["inject", "--checkpoint", str(fit / "checkpoint.gsd"), "--field", str(spec),
         "--lam", "0.5", "--scene", str(gen / "scene.json"), "--steps", "10",
         "--out", str(inj)])
    results["inject"], _ = rerun_from_manifest(inj, lambda m, out: [
        "inject", "--checkpoint", m["config"]["checkpoint"], "--field", m["config"]["field"],
        "--lam", str(m["config"]["lam"]), "--scene", m["config"]["scene"],
        "--steps", str(m["config"]["steps"]), "--out", out])

    frames = tmp_path / "frames"
    run(["render", "--scene", str(gen / "scene.json"),
         "--trajectory", str(sim / "trajectory.csv"), "--out", str(frames)])
    results["render"], n_frames = rerun_from_manifest(frames, lambda m, out: [
        "render", "--scene", m["config"]["scene"],
        "--trajectory", m["config"]["trajectory"], "--out", out])
    assert n_frames == 21

    ev = tmp_path / "ev"
    run(["eval", "--pred", str(gen / "trajectory.csv"), "--gt", str(gen / "scene.json"),
         "--metrics", "position", "--out", str(ev)])
    results["eval"], _ = rerun_from_manifest(ev, lambda m, out: [
        "eval", "--pred", m["config"]["pred"], "--gt", m["config"]["gt"],
        "--metrics", m["config"]["metrics"], "--out", out])

    ok = all(results.values())
    report(11, ok, 60, time.time() - t0,
           "manifest re-runs bitwise identical: "
           + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in results.items()))
