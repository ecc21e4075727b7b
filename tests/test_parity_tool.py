"""tools/parity.py: the same commands in one tree give the same output table."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)

# a reduced matrix: a cloud above the coherence row batch, a short fit, and
# each read-side command once
LATTICE = ["--steps", "20", "--record-stride", "10"]
QUICK = [
    ["generate", "--kind", "vortex", "--n-gaussians", "300", "--n-frames", "5", "--seed", "2", "--out", "gen"],
    ["train", "--scene", "gen/scene.json", "--stride", "2", "--epochs", "1", "--out", "fit"],
    ["simulate", "--checkpoint", "fit/checkpoint.gsd", "--scene", "gen/scene.json", "--t0", "0", "--t1", "1",
     *LATTICE, "--out", "sim"],
    ["simulate", "--checkpoint", "fit/checkpoint.gsd", "--t0", "0", "--t1", "1", "--anchored", "--method", "euler",
     *LATTICE, "--out", "anchored"],
    ["inject", "--checkpoint", "fit/checkpoint.gsd", "--field", "spin.json", "--mask", "sphere.json",
     "--scene", "gen/scene.json", "--t0", "0", "--t1", "1", *LATTICE, "--render-frames", "--out", "inject"],
    ["render", "--scene", "gen/scene.json", "--trajectory", "sim/trajectory.csv", "--out", "render"],
    ["eval", "--pred", "sim/trajectory.csv", "--gt", "gen/scene.json", "--metrics", "position,psnr,ssim",
     "--pred-frames", "inject", "--gt-frames", "render", "--out", "eval"],
]


def test_reduced_matrix_twice_gives_one_table(tmp_path):
    first = parity.run_matrix(QUICK, tmp_path / "a")
    second = parity.run_matrix(QUICK, tmp_path / "b")
    assert parity.differences(first, second) == []
    assert {"fit/checkpoint.gsd", "sim/trajectory.csv", "inject/frame_0002.ppm", "eval/metrics.csv",
            "eval/manifest.json", "stdout/06-eval.txt", "spin.json"} <= first.keys()


def test_differences_names_changed_and_one_sided_paths():
    table = {"a": "1", "b": "2", "c": "3"}
    assert parity.differences(table, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
