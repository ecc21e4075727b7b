"""Contract fuzz test of the command line.

``cli.main`` runs with argv drawn from the parser's own flags and with
mutated scene, spec, mask, manifest, CSV and checkpoint files; a
checkpoint's JSON header is edited like the other JSON inputs, between its
magic line and its payload.  Whatever it is given, it exits 0, 1 or 2; past
argument parsing, stderr holds only ``error:`` and ``numerical failure:``
lines; exit 2 leaves no --out; and a manifest exists exactly when the
command exited 0.

Inputs stay small: 4 Gaussians, 3 frames, at most 20 steps per unit over
spans of at most 3, 2 epochs, and drawn image sizes of at most 64 pixels.
Step counts beyond ``cli.MAX_STEPS`` are tested by their rejection in
test_cli.py, never run here.
"""

import argparse
import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from gsdyn import arrayio, cli
from gsdyn.fields import ANALYTIC_KINDS

SUBCOMMANDS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
DELETE = "<delete>"  # an edit value that removes the key or row instead of replacing it
CUT = "<cut>"  # an edit path that truncates the file at the given fraction of its length
PAYLOAD = "checkpoint.gsd payload"  # the checkpoint's array bytes, written after its edited header


class Case(NamedTuple):
    """argv tokens, where "@name" is a path in the example's directory;
    edits (file name, path, value) applied to the base inputs first; and,
    for a pinned example, the exit code and a text its stderr must hold."""

    argv: list
    edits: tuple = ()
    expect: tuple = None


# ---------------------------------------------------------------------------
# base inputs, made once


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract_base")
    gen = root / "gen"
    assert cli.main(["generate", "--kind", "drift", "--n-gaussians", "4", "--n-frames", "3",
                     "--params", '{"delta": [0.3, 0.0, 0.0]}', "--seed", "1", "--out", str(gen)]) == 0
    doc = json.loads((gen / "scene.json").read_text())
    for camera in doc["cameras"]:
        camera["width"], camera["height"] = 32, 24
    (gen / "scene.json").write_text(json.dumps(doc))
    assert cli.main(["train", "--scene", str(gen / "scene.json"), "--epochs", "2", "--out", str(root / "fit")]) == 0
    assert cli.main(["render", "--scene", str(gen / "scene.json"), "--trajectory", str(gen / "trajectory.csv"),
                     "--out", str(root / "frames")]) == 0
    files = {
        "scene.json": doc,
        "spec.json": {"op": "add", "lam": 0.5, "children": [{"kind": "spin"}, {"kind": "neural",
                                                                              "checkpoint": "@checkpoint"}]},
        "mask.json": {"shape": "sphere", "center": [0.5, 0.5, 0.5], "radius": 0.3, "edge_width": 0.1},
        "manifest.json": json.loads((root / "fit" / "manifest.json").read_text()),
        "traj.csv": [line.split(",") for line in (gen / "trajectory.csv").read_text().splitlines()],
    }
    magic, header, files[PAYLOAD] = (root / "fit" / "checkpoint.gsd").read_bytes().split(b"\n", 2)
    assert magic + b"\n" == arrayio.MAGIC
    files["checkpoint.gsd"] = json.loads(header)
    return files, root / "frames"


def write_inputs(directory: Path, files: dict, frames: Path, edits):
    docs = json.loads(json.dumps({k: v for k, v in files.items() if k != PAYLOAD}))  # a deep copy
    docs["manifest.json"]["out"] = str(directory)  # the training run whose checkpoint.gsd is edited here
    cuts = {}
    for name, path, value in edits:
        if path == CUT:
            cuts[name] = value
        elif not path:
            docs[name] = value
        else:
            parent = docs[name]
            with contextlib.suppress(LookupError, TypeError):  # an earlier edit removed the node
                for key in path[:-1]:
                    parent = parent[key]
                if value == DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
    blobs = {name: json.dumps(doc).encode() for name, doc in docs.items() if name != "traj.csv"}
    blobs["traj.csv"] = "".join(",".join(row) + "\r\n" for row in docs["traj.csv"]).encode()
    blobs["checkpoint.gsd"] = arrayio.MAGIC + blobs["checkpoint.gsd"] + b"\n" + files[PAYLOAD]
    for name, data in blobs.items():
        (directory / name).write_bytes(data[: int(len(data) * cuts[name])] if name in cuts else data)
    shutil.copytree(frames, directory / "frames")
    (directory / "dir").mkdir()
    (directory / "file").write_text("a regular file\n")


# ---------------------------------------------------------------------------
# strategies


PATHS = ["@scene.json", "@spec.json", "@mask.json", "@traj.csv", "@checkpoint.gsd", "@manifest.json", "@frames",
         "@dir", "@missing.json", "@file/x"]
PRIMARY = {"scene": "@scene.json", "gt": "@scene.json", "checkpoint": "@checkpoint.gsd", "field": "@spec.json",
           "mask": "@mask.json", "trajectory": "@traj.csv", "pred": "@traj.csv",
           "train_manifest": "@manifest.json", "pred_frames": "@frames", "gt_frames": "@frames"}
INTS = {"steps": (-1, 20), "record_stride": (-1, 5), "n_gaussians": (-1, 4), "n_frames": (-1, 3),
        "epochs": (-1, 2), "stride": (-1, 4), "camera_index": (-1, 2), "seed": (-1, 3)}
FLOATS = {"t0": (-1.5, 1.5), "t1": (-1.5, 1.5), "lam": (-2.0, 2.0), "train_fraction": (-0.5, 1.5),
          "learning_rate": (-0.1, 0.1)}
# flags whose defaults run long (1500 epochs, 100 steps per unit, 10 Gaussians,
# 20 frames): every example sets them
BOUNDING = {"epochs", "steps", "n_gaussians", "n_frames"}
JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1.5", "-0"])

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(-3.0, 64.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.text(max_size=3),
)
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)), max_leaves=6)


def flag_value(action):
    """Mostly a value the flag accepts; one time in thirty, junk."""
    dest = action.dest
    if dest in PRIMARY:
        valid = st.sampled_from([PRIMARY[dest]] * 3 * len(PATHS) + PATHS)
    elif dest in INTS:
        valid = st.integers(*INTS[dest]).map(str)
    elif dest in FLOATS:
        valid = st.floats(*FLOATS[dest]).map(repr)
    elif action.choices:
        valid = st.sampled_from(sorted(action.choices))
    elif dest == "kind":
        valid = st.sampled_from([*ANALYTIC_KINDS, "zero", "neural"])
    elif dest == "params":
        valid = st.dictionaries(st.sampled_from(["delta", "omega", "g", "gamma", "eta", "sigma", "G"]),
                                json_values, max_size=2).map(json.dumps)
    elif dest == "metrics":
        valid = st.lists(st.sampled_from(["position", "psnr", "ssim", "dssim", "lpips"]),
                         min_size=1, max_size=3).map(",".join)
    else:
        raise AssertionError(f"no strategy for --{dest}")
    return st.integers(0, 29).flatmap(lambda k: valid if k else JUNK)


@st.composite
def json_edit(draw, name, files):
    """Replace or delete one node of a JSON input, or cut the file short."""
    if draw(st.integers(0, 9)) == 0:
        return name, CUT, draw(st.floats(0.0, 1.0))
    node, path = files[name], []
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)) > 0:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    value = draw(json_values if not path else st.one_of(json_values, st.just(DELETE)))
    return name, tuple(path), value


@st.composite
def csv_edit(draw, rows):
    if draw(st.integers(0, 9)) == 0:
        return "traj.csv", CUT, draw(st.floats(0.0, 1.0))
    row = draw(st.integers(0, len(rows) - 1))
    if draw(st.booleans()):
        return "traj.csv", (row,), DELETE
    column = draw(st.integers(0, len(rows[row]) - 1))
    return "traj.csv", (row, column), draw(st.one_of(JUNK, st.integers(-1, 5).map(str), st.just("0.5")))


@st.composite
def cases(draw, files):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        if action.dest in BOUNDING or draw(st.integers(0, 9)) < (9 if action.required else 6):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(flag_value(action)))
    out = draw(st.sampled_from(["@out", "@out", "@out", "@out", "@file/out", None]))
    if out is not None:
        argv += ["--out", out]
    edits = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["scene.json", "spec.json", "mask.json", "manifest.json", "traj.csv",
                                     "checkpoint.gsd"]))
        if name == "traj.csv":
            edits.append(draw(csv_edit(files["traj.csv"])))
        else:
            edits.append(draw(json_edit(name, files)))
    return Case(argv, tuple(edits))


# ---------------------------------------------------------------------------
# the contract


def check_contract(case: Case, files: dict, frames: Path):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work, files, frames, case.edits)
        argv = [str(work / a[1:]) if a.startswith("@") else a for a in case.argv]
        out = work / case.argv[case.argv.index("--out") + 1][1:] if "--out" in case.argv else None
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse's rejection of the command line
                assert e.code == 2, e
                assert ": error:" in stderr.getvalue().splitlines()[-1]
                return
        lines = stderr.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
        assert code in (0, 1, 2)
        assert all(line.startswith(("error: ", "numerical failure: ")) for line in lines), lines
        if case.expect is not None:
            assert code == case.expect[0] and case.expect[1] in stderr.getvalue(), (code, lines)
        if code == 2:
            assert not out.exists()
        assert (out / "manifest.json").exists() == (code == 0)


ANCHORED = ["simulate", "--checkpoint", "@checkpoint.gsd", "--t0", "0", "--t1", "1", "--anchored", "--steps", "4",
            "--out", "@out"]
OBSERVED = ["eval", "--pred", "@traj.csv", "--gt", "@scene.json", "--train-manifest", "@manifest.json",
            "--out", "@out"]


def header_edit(path, value):
    return (("checkpoint.gsd", ("meta", *path), value),)


def test_contract_holds(base):
    files, frames = base

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cases(files))
    # the checkpoint header's values: each is checked before it is used
    @example(Case(ANCHORED, header_edit(("hidden",), 5), (2, "'hidden' must be a list of positive integers")))
    @example(Case(ANCHORED, header_edit(("hidden",), [3000, 3000]), (2, "array 'mlp_w0' has shape (59, 64)")))
    @example(Case(ANCHORED, (("checkpoint.gsd", ("arrays", 0, "shape"), [1000000000]),),
                  (2, "array 'mlp_w0' is truncated")))
    @example(Case(ANCHORED, header_edit(("n_anchors",), "a"), (2, "'n_anchors' must be the number")))
    @example(Case(ANCHORED, header_edit(("anchor_times",), None), (2, "'anchor_times' must be a list")))
    @example(Case(ANCHORED, header_edit(("anchor_times",), ["a", 0.5, 1]), (2, "'anchor_times' must be a list")))
    @example(Case(ANCHORED, header_edit(("anchor_times",), [0.0, 0.25, 0.5, 1.0]), (2, "'anchor_times' must be one")))
    @example(Case(ANCHORED, header_edit(("anchor_times",), [0.0]), (2, "'anchor_times' must be one")))
    @example(Case(ANCHORED, (("checkpoint.gsd", ("meta",), []),), (2, "'meta' must be a JSON object")))
    @example(Case(OBSERVED, header_edit(("extra",), 5), (2, "'extra' must be a JSON object")))
    @example(Case(OBSERVED, header_edit(("extra", "supervised_times"), 5), (2, "'extra.supervised_times' must")))
    @example(Case(OBSERVED, header_edit(("extra", "supervised_times"), ["a"]), (2, "'extra.supervised_times' must")))
    @example(Case(OBSERVED, (), (0, "")))
    @example(Case(["render", "--scene", "@scene.json", "--out", "@out"],
                  (("scene.json", ("gaussians",), []), ("scene.json", ("trajectories",), DELETE))))
    @example(Case(["simulate", "--checkpoint", "@dir", "--t0", "0", "--t1", "1", "--out", "@out"]))
    @example(Case(["render", "--scene", "@scene.json", "--out", "@file/out"]))
    def contract(case):
        check_contract(case, files, frames)

    contract()
