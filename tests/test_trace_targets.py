"""The functions the benchmark's tracer wraps exist under their traced names.

``perfbench/tracing.py`` drops the metrics of a traced function that no
longer exists, so renaming one away would silently shrink a traced run's
report.  These tests install the tracer and run CLI commands that render,
train and integrate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gsdyn import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace(argv):
    """Run argv under the tracer; returns the tracer."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert tracer.missing == []
    return tracer


def traced_run(tmp_path, argv):
    """Generate a tiny drift scene, then run argv (with the scene's path
    appended) under the tracer; returns the tracer."""
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--kind", "drift", "--n-gaussians", "4", "--n-frames", "2", "--out", str(gen)]) == 0
    return trace(argv + ["--scene", str(gen / "scene.json"), "--out", str(tmp_path / "out")])


def test_traced_targets_exist_and_render_is_traced(tmp_path):
    tracer = traced_run(tmp_path, ["render"])
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"cli.render", "render.rasterize", "render.project"} <= recorded


def test_training_is_traced(tmp_path):
    tracer = traced_run(tmp_path, ["train", "--epochs", "2"])
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {
        "train.fit", "train.unroll_segment", "train.backward_through_rollout", "train.adam_step",
        "fields.neural_backward", "fields.zero_grads", "feature_grid.tv",
    } <= recorded
    assert tracer.counts["fields.grad_buffers_mb"] > 0
    # every neural forward samples the grid once and every backward reaches
    # its gradient, so the grid layers' metrics cover the whole fit
    calls, _ = tracer.self_times()
    assert calls["feature_grid.lookup"] == calls["fields.neural_forward"] > 0
    assert calls["feature_grid.lookup_grad"] == calls["fields.neural_backward"] > 0
    assert tracer.counts["feature_grid.lookup.rows"] == tracer.counts["fields.neural_forward.rows"]


@pytest.mark.parametrize("command", ["generate", "simulate", "inject"])
def test_integration_is_traced(tmp_path, command):
    spin, sphere = tmp_path / "spin.json", tmp_path / "sphere.json"
    spin.write_text(json.dumps({"kind": "spin"}))
    sphere.write_text(json.dumps({"shape": "sphere", "center": [0.5, 0.5, 0.5], "radius": 0.3}))
    if command == "generate":
        tracer = trace(["generate", "--kind", "vortex", "--n-gaussians", "4", "--n-frames", "3",
                        "--out", str(tmp_path / "out")])
    elif command == "simulate":
        tracer = traced_run(tmp_path, ["simulate", "--field", str(spin), "--t0", "0", "--t1", "1", "--steps", "5"])
    else:
        tracer = traced_run(tmp_path, ["inject", "--field", str(spin), "--mask", str(sphere), "--steps", "5"])
    recorded = {name for name, _, _, _ in tracer.spans}
    expected = {"integrate.rollout", "fields.analytic"}
    if command == "inject":
        expected.add("fields.blend")
    assert expected <= recorded
    assert tracer.counts["integrate.gaussian_steps"] > 0


def test_anchored_query_is_traced(tmp_path):
    # a 2-frame scene trains anchors at t = 0 and 1; the query records -0.3,
    # 0.2, 0.7 and 1.2, which take 3 steps back from 0, 2 + 5 on from 0 and 2
    # on from 1: the Gaussian-steps perfbench's useful_step_ratio divides by
    gen, fit = tmp_path / "gen", tmp_path / "fit"
    assert cli.main(["generate", "--kind", "drift", "--n-gaussians", "4", "--n-frames", "2", "--out", str(gen)]) == 0
    assert cli.main(["train", "--scene", str(gen / "scene.json"), "--epochs", "1", "--out", str(fit)]) == 0
    tracer = trace(["simulate", "--checkpoint", str(fit / "checkpoint.gsd"), "--anchored", "--t0", "-0.3",
                    "--t1", "1.2", "--steps", "10", "--record-stride", "5", "--out", str(tmp_path / "out")])
    recorded = {name for name, _, _, _ in tracer.spans}
    # analytic fields never rotate, so only a neural rollout applies increments
    assert {"cli.simulate", "integrate.rollout", "quaternions.apply_increment"} <= recorded
    assert tracer.counts["integrate.gaussian_steps"] == 4 * (3 + 2 + 5 + 2)
