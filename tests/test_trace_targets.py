"""The functions the benchmark's tracer wraps exist under their traced names.

``perfbench/tracing.py`` drops the metrics of a traced function that no
longer exists, so renaming one away would silently shrink a traced run's
report.  These tests install the tracer and run one CLI render and one
short CLI training run.
"""

import importlib.util
from pathlib import Path

from gsdyn import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tmp_path, argv):
    """Generate a tiny drift scene, then run argv (with the scene's path
    appended) under the tracer; returns the tracer."""
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--kind", "drift", "--n-gaussians", "4", "--n-frames", "2", "--out", str(gen)]) == 0
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(argv + ["--scene", str(gen / "scene.json"), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert tracer.missing == []
    return tracer


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
