"""Output parity table: run a fixed matrix of gsdyn commands and hash every file they write.

    python3 tools/parity.py --out parity.json [--work DIR] [--against OTHER.json]

Run from the root of a checkout; gsdyn is imported from its ``src/``.  Every
command of MATRIX runs in process through ``cli.main``, with paths relative
to one fresh work directory, so two checkouts that write the same bytes give
the same table.  The table maps each file under the work directory (the
commands' outputs, manifests and the inputs the matrix writes, plus each
command's stdout under ``stdout/``) to its SHA-256.  With ``--against`` the
table is compared with another one: the paths whose hashes differ, or that
only one table has, are printed and the exit status is 1.

The matrix covers what a change to the numerics could move: scenes of all
ten analytic kinds and of the zero field, with noise on swirl and wind_curl;
training at the benchmark's wide-fit and predict-and-render shapes (N = 1000
and 500, above the coherence row batch) and criterion 6's drift protocols (a
frame stride and a train fraction), at a few epochs; forward, backward,
anchored and Euler rollouts of a trained field and a rollout of an analytic
one; injections into a trained field with and without a mask and one of an
analytic field with no trained base, two of them rendering frames; a render;
and an eval of every image metric.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs: outputs do not depend on it, time does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INPUTS = {  # spec files the matrix reads
    "spin.json": {"kind": "spin", "params": {"center": [0.5, 0.5, 0.5], "omega": 6.283185307179586}},
    "sphere.json": {"shape": "sphere", "center": [0.5, 0.5, 0.5], "radius": 0.25},
}

LATTICE = ["--steps", "100", "--record-stride", "5"]
MATRIX = [
    ["generate", "--kind", "vortex", "--n-gaussians", "500", "--n-frames", "21", "--seed", "1", "--out", "gen/pr"],
    ["generate", "--kind", "vortex", "--n-gaussians", "1000", "--n-frames", "20", "--seed", "1", "--out", "gen/wide"],
    ["generate", "--kind", "drift", "--n-gaussians", "10", "--n-frames", "20", "--seed", "5",
     "--params", '{"delta": [0.3, 0.0, 0.0]}', "--out", "gen/drift"],
    ["generate", "--kind", "diffusion_gas", "--n-gaussians", "40", "--n-frames", "6", "--seed", "3", "--out", "gen/gas"],
    *(["generate", "--kind", kind, "--n-gaussians", "40", "--n-frames", "6", "--seed", "4", *extra,
       "--out", f"gen/{kind}"]
      for kind, extra in [("gravity_bounce", []), ("spin", []), ("swirl", ["--params", '{"eta": 0.5}']),
                          ("wave", []), ("wind_curl", ["--params", '{"eta": 0.5}']), ("orbital", []),
                          ("reaction_diffusion", []), ("zero", [])]),
    ["train", "--scene", "gen/wide/scene.json", "--stride", "4", "--epochs", "2", "--out", "fit/wide"],
    ["train", "--scene", "gen/pr/scene.json", "--stride", "4", "--epochs", "4", "--out", "fit/pr"],
    ["train", "--scene", "gen/drift/scene.json", "--stride", "4", "--epochs", "30", "--out", "fit/drift_stride"],
    ["train", "--scene", "gen/drift/scene.json", "--train-fraction", "0.75", "--epochs", "30",
     "--out", "fit/drift_fraction"],
    ["simulate", "--checkpoint", "fit/pr/checkpoint.gsd", "--scene", "gen/pr/scene.json", "--t0", "0", "--t1", "1",
     *LATTICE, "--out", "sim/forward"],
    ["simulate", "--checkpoint", "fit/pr/checkpoint.gsd", "--scene", "gen/pr/scene.json", "--t0", "1", "--t1", "0",
     *LATTICE, "--out", "sim/backward"],
    ["simulate", "--checkpoint", "fit/drift_fraction/checkpoint.gsd", "--t0", "-0.3", "--t1", "1.2", "--anchored",
     *LATTICE, "--out", "sim/anchored"],
    ["simulate", "--checkpoint", "fit/wide/checkpoint.gsd", "--scene", "gen/wide/scene.json", "--t0", "0",
     "--t1", "1", "--method", "euler", "--steps", "40", "--record-stride", "10", "--out", "sim/euler"],
    ["simulate", "--field", "spin.json", "--scene", "gen/pr/scene.json", "--t0", "0", "--t1", "1", *LATTICE,
     "--out", "sim/field"],
    ["inject", "--checkpoint", "fit/pr/checkpoint.gsd", "--field", "spin.json", "--mask", "sphere.json",
     "--scene", "gen/pr/scene.json", "--t0", "0", "--t1", "1", *LATTICE, "--render-frames", "--out", "inject"],
    ["inject", "--checkpoint", "fit/pr/checkpoint.gsd", "--field", "spin.json", "--lam", "0.5",
     "--scene", "gen/pr/scene.json", "--t0", "0", "--t1", "1", *LATTICE, "--out", "inject_sum"],
    ["inject", "--field", "spin.json", "--scene", "gen/drift/scene.json", "--t0", "0", "--t1", "1", *LATTICE,
     "--render-frames", "--out", "inject_analytic"],
    ["render", "--scene", "gen/pr/scene.json", "--trajectory", "sim/forward/trajectory.csv", "--out", "render"],
    ["eval", "--pred", "sim/forward/trajectory.csv", "--gt", "gen/pr/scene.json",
     "--metrics", "position,psnr,ssim,dssim", "--pred-frames", "inject", "--gt-frames", "render",
     "--train-manifest", "fit/pr/manifest.json", "--out", "eval"],
]


def run_matrix(matrix, work: Path) -> dict:
    """Runs ``matrix`` in a fresh ``work`` directory; returns {relative path: SHA-256} of every file there."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from gsdyn import cli

    if work.exists():
        shutil.rmtree(work)
    (work / "stdout").mkdir(parents=True)
    here = Path.cwd()
    os.chdir(work)
    try:
        for name, spec in INPUTS.items():
            Path(name).write_text(json.dumps(spec))
        for i, argv in enumerate(matrix):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"gsdyn {' '.join(argv)} exited with status {status}")
            Path(f"stdout/{i:02d}-{argv[0]}.txt").write_text(captured.getvalue())
    finally:
        os.chdir(here)
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def differences(table: dict, other: dict) -> list:
    """The paths whose hashes differ between the two tables, or that only one of them has."""
    return sorted(p for p in table.keys() | other.keys() if table.get(p) != other.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the table (JSON)")
    parser.add_argument("--work", default=".parity_work", help="work directory, emptied first")
    parser.add_argument("--against", default=None, help="a table to compare with")
    args = parser.parse_args(argv)
    table = run_matrix(MATRIX, Path(args.work).resolve())
    Path(args.out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} files hashed into {args.out}")
    if args.against is None:
        return 0
    differ = differences(table, json.loads(Path(args.against).read_text()))
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(differ)} of {len(table)} files differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
