"""Shows that every output check fails on a perturbed output.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload it makes the inputs once, runs one round, and checks that
every check passes.  Then, for each check, it perturbs a copy of the outputs
the check reads (positions shifted by 1e-3, a frame blanked, a metric
nudged, a gradient scaled) and requires that check to fail.  It also
confirms that the metric names the benchmark prints are the ones
BENCHMARK.json declares.  Exits 1 if anything is not as expected.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from checks import Check  # noqa: E402
from workloads import WORKLOADS, Commands, Round, digest, fresh  # noqa: E402


def shift_csv(path, delta=1e-3):
    """Adds ``delta`` to every x of a trajectory CSV."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for r in rows[1:]:
        r[3] = repr(float(r[3]) + delta)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def shift_scene_frames(path, delta=1e-3):
    doc = json.loads(Path(path).read_text())
    doc["trajectories"]["positions"] = (np.array(doc["trajectories"]["positions"]) + delta).tolist()
    Path(path).write_text(json.dumps(doc))


def bias_checkpoint(path, velocity=1.0):
    """Adds a constant x velocity to the field's output layer."""
    from gsdyn import arrayio

    meta, arrays = arrayio.load_bundle(path)
    arrays[f"mlp_b{meta['n_layers'] - 1}"][0] += velocity
    arrayio.save_bundle(path, meta, arrays)


def blank_frame(directory):
    path = sorted(Path(directory).glob("frame_*.ppm"))[-1]
    blob = path.read_bytes()
    header_len = len(b"\n".join(blob.split(b"\n", 3)[:3])) + 1
    path.write_bytes(blob[:header_len] + bytes(len(blob) - header_len))


def nudge_metric(path, column, delta):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    j = rows[0].index(column)
    rows[1][j] = repr(float(rows[1][j]) + delta)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


class ScaledBackward:
    """Scales NeuralVelocityField.backward's parameter gradients while active."""

    def __enter__(self):
        from gsdyn.fields import NeuralVelocityField

        self.original = NeuralVelocityField.backward

        def backward(field, cache, upstream):
            grads, g_pos = self.original(field, cache, upstream)
            return [g * (1 + 1e-3) for g in grads], g_pos

        NeuralVelocityField.backward = backward

    def __exit__(self, *exc):
        from gsdyn.fields import NeuralVelocityField

        NeuralVelocityField.backward = self.original
        return False


# check name (after the "workload: " prefix) -> perturbation of (setup dir, round dir)
PERTURB = {
    "generated frames vs closed form": lambda s, r: shift_scene_frames(s / "gen" / "scene.json"),
    "held-out error / hold-still error": lambda s, r: bias_checkpoint(r / "fit" / "checkpoint.gsd"),
    "backward vs central differences": None,  # runs under ScaledBackward instead
    "simulate output": lambda s, r: shift_csv(r / "sim" / "trajectory.csv"),
    "rendered frames": lambda s, r: blank_frame(r / "frames"),
    "forward simulate output": lambda s, r: shift_csv(r / "fwd" / "trajectory.csv"),
    "0 -> 1 -> 0 round trip": lambda s, r: shift_csv(r / "back" / "trajectory.csv"),
    "anchored output at anchor times": lambda s, r: shift_csv(r / "anchored" / "trajectory.csv"),
    "inject outside the sphere equals simulate bitwise": lambda s, r: shift_csv(r / "inject" / "trajectory.csv"),
    "inject inside the sphere vs closed-form spin": lambda s, r: shift_csv(r / "inject" / "trajectory.csv"),
    "inject frames": lambda s, r: blank_frame(r / "inject"),
    "ground-truth frames": lambda s, r: blank_frame(r / "gt"),
    "predicted frames": lambda s, r: blank_frame(r / "pred"),
    "eval position errors vs numpy": lambda s, r: nudge_metric(r / "eval" / "metrics.csv",
                                                               "mean_position_error", 1e-3),
    "eval psnr 99 and ssim 1 on identical frames": lambda s, r: nudge_metric(r / "eval" / "metrics.csv",
                                                                             "ssim", -1e-3),
}


def relocate(inputs, old, new):
    return {k: new / Path(v).relative_to(old) for k, v in inputs.items()}


def selftest_workload(workload, seed, work):
    problems = []
    setup_dir, round_dir = fresh(work / "setup"), fresh(work / "round")
    inputs, _ = workload.setup(Commands(), setup_dir, seed)
    run_cmds = Commands()
    workload.round(run_cmds, inputs, round_dir)
    if run_cmds.failed:
        problems.append(f"{workload.name}: {run_cmds.failed} commands failed")
    for c in workload.check(inputs, round_dir):
        print(f"  real outputs     {c.line()}")
        if not c.ok:
            problems.append(f"{c.name} fails on real outputs")
        key = c.name.split(": ", 1)[1]
        if key not in PERTURB:
            problems.append(f"{c.name}: no perturbation defined")
            continue
        s, r = work / "setup-p", work / "round-p"
        for src, dst in ((setup_dir, s), (round_dir, r)):
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(src, dst)
        moved = relocate(inputs, setup_dir, s)
        if PERTURB[key] is None:
            with ScaledBackward():
                after = workload.check(moved, r)
        else:
            PERTURB[key](s, r)
            after = workload.check(moved, r)
        perturbed = next(x for x in after if x.name == c.name)
        print(f"  perturbed        {perturbed.line()}")
        if perturbed.ok:
            problems.append(f"{c.name} passes on a perturbed output")
    return problems


def selftest_digest(work):
    a = fresh(work / "digest-a")
    (a / "x.csv").write_text("1,2,3\n")
    (a / "manifest.json").write_text("{}")
    b = work / "digest-b"
    shutil.copytree(a, b)
    (b / "manifest.json").write_text('{"out": "elsewhere"}')
    problems = [] if digest(a) == digest(b) else ["digest depends on manifest.json"]
    (b / "x.csv").write_text("1,2,3.001\n")
    same = Check("identical outputs", digest(a) == digest(b), 0.0, 0.0)
    print(f"  perturbed        {same.line()}")
    return problems + (["digest misses a changed output"] if same.ok else [])


def selftest_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    printed_layers = dict(tracing.PER_LAYER)
    printed_layers.update({"setup." + n: u for n, u in tracing.SETUP_LAYER})
    round_ = Round(pass_s=1.0, fit_s=1.0, simulate_s=1.0, simulate_gsteps=1, render_s=1.0, render_frames=1)
    printed_e2e = {k: v["unit"] for k, v in run.end_to_end([1.0], [], [round_]).items()}
    problems = []
    if printed_e2e != e2e:
        problems.append(f"end-to-end metrics {printed_e2e} differ from BENCHMARK.json {e2e}")
    if printed_layers != layers:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: {set(printed_layers) ^ set(layers)}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = fresh(run.RUNS / f"selftest-{os.getpid()}")
    problems = selftest_names()
    try:
        problems += selftest_digest(work)
        for name in [args.workload] if args.workload else list(WORKLOADS):
            print(name)
            problems += selftest_workload(WORKLOADS[name], args.seed, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM  {p}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
