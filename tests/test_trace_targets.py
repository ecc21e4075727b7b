"""The functions the benchmark's tracer wraps exist under their traced names.

``perfbench/tracing.py`` drops the metrics of a traced function that no
longer exists, so renaming one away would silently shrink a traced run's
report.  This test installs the tracer and runs one CLI render.
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


def test_traced_targets_exist_and_render_is_traced(tmp_path):
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--kind", "drift", "--n-gaussians", "4", "--n-frames", "2", "--out", str(gen)]) == 0
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["render", "--scene", str(gen / "scene.json"), "--out", str(tmp_path / "frames")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert tracer.missing == []
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"cli.render", "render.rasterize", "render.project"} <= recorded
