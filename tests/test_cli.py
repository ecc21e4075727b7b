"""Command-line interface: subcommands, exit codes, manifests."""

import argparse
import json
import tracemalloc

import numpy as np
import pytest

from gsdyn import arrayio, cli, feature_grid, integrate, render, train
from gsdyn.anchors import AnchorSet
from gsdyn.fields import AnalyticField, NeuralVelocityField
from gsdyn.scene import export_trajectory_csv, import_trajectory_csv, load_scene, save_scene


def run(argv):
    return cli.main(argv)


def manifest_of(out_dir):
    with open(out_dir / "manifest.json") as f:
        return json.load(f)


def anchored_checkpoint(scene_dir, path, times=(0.0, 0.5, 1.0)):
    """A small neural checkpoint whose anchors all hold the scene's cloud."""
    grid = feature_grid.create_grid(np.zeros(3), np.ones(3), spatial_resolution=4, time_resolution=4,
                                    channels=2)
    cloud = load_scene(scene_dir / "scene.json").cloud
    anchors = AnchorSet()
    for t in times:
        anchors.insert(cloud, t)
    train.save_checkpoint(path, NeuralVelocityField(grid, hidden=(8,), output_scale=0.1), anchors)
    return path


@pytest.fixture
def drift_scene(tmp_path):
    out = tmp_path / "gen"
    code = run([
        "generate", "--kind", "drift", "--n-gaussians", "6", "--n-frames", "8",
        "--params", '{"delta": [0.3, 0.0, 0.0]}', "--seed", "4", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    return out


class TestGenerate:
    def test_drift_trajectory_shifts_per_frame(self, drift_scene):
        times, positions = import_trajectory_csv(drift_scene / "trajectory.csv")
        assert positions.shape == (8, 6, 3)
        dt = times[1] - times[0]
        for f in range(1, 8):
            np.testing.assert_allclose(
                positions[f] - positions[f - 1],
                np.broadcast_to([0.3 * dt, 0.0, 0.0], (6, 3)),
                atol=1e-9,
            )

    def test_zero_kind_all_frames_identical(self, tmp_path):
        out = tmp_path / "z"
        assert run(["generate", "--kind", "zero", "--n-gaussians", "3",
                    "--n-frames", "4", "--out", str(out)]) == cli.EXIT_OK
        _, positions = import_trajectory_csv(out / "trajectory.csv")
        for f in range(1, 4):
            np.testing.assert_array_equal(positions[f], positions[0])

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--kind", "spin", "--seed", "9",
                        "--n-gaussians", "4", "--n-frames", "5", "--out", str(out)]) == cli.EXIT_OK
        assert (a / "scene.json").read_bytes() == (b / "scene.json").read_bytes()
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["diffusion_gas", "swirl"])
    def test_noise_seed_past_the_key_bound_is_a_usage_error(self, tmp_path, capsys, kind):
        # 2^64 overflowed the uint64 noise key; any seed from 2^44 on wraps onto a smaller one
        for seed in (2**64, 2**44):
            assert run(["generate", "--kind", kind, "--seed", str(seed), "--n-gaussians", "2", "--n-frames", "2",
                        "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
            assert "2**44" in capsys.readouterr().err
        assert not (tmp_path / "out" / "scene.json").exists()

    @pytest.mark.parametrize("kind", ["drift", "gravity_bounce", "diffusion_gas"])
    def test_ground_truth_equals_per_interval_rollout_chain(self, kind):
        # reference: one rollout per frame interval, each of max(1, round(interval
        # * 1000)) RK4 steps, carrying the auxiliary velocity across intervals
        data = cli.generate_scene(kind, 5, 7, seed=2)
        times = np.linspace(0.0, 1.0, 7)
        field = AnalyticField(kind, seed=2)
        steps_per_unit = integrate.IntegratorConfig().step_count * cli.GROUND_TRUTH_OVERSAMPLE
        state, v, want = data.cloud, None, [data.cloud.positions]
        for t_prev, t in zip(times[:-1], times[1:]):
            n_steps = max(1, round((t - t_prev) * steps_per_unit))
            config = integrate.IntegratorConfig(step_count=n_steps, record_stride=n_steps)
            leg = integrate.rollout(state, t_prev, t, config, field, velocities=v)
            state = leg.cloud_at(len(leg) - 1)
            v = None if leg.aux_velocities is None else leg.aux_velocities[-1]
            want.append(state.positions)
        np.testing.assert_array_equal(data.trajectory_times, times)
        np.testing.assert_array_equal(data.trajectory_positions, np.array(want))

    def test_invalid_kind_usage_error(self, tmp_path):
        assert run(["generate", "--kind", "nonsense", "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("params", ["[1, 2]", "3", '"drift"'])
    def test_params_not_an_object_usage_error(self, tmp_path, capsys, params):
        out = tmp_path / "x"
        assert run(["generate", "--kind", "drift", "--params", params, "--out", str(out)]) == cli.EXIT_USAGE
        assert "--params must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,params", [
        ("drift", '{"delta": "abc"}'), ("drift", '{"delta": [0.1, null, 0]}'), ("spin", '{"omega": Infinity}'),
        ("spin", '{"center": [1, 2]}'),
    ])
    def test_non_numeric_param_usage_error(self, tmp_path, capsys, kind, params):
        out = tmp_path / "x"
        assert run(["generate", "--kind", kind, "--params", params, "--out", str(out)]) == cli.EXIT_USAGE
        key = next(iter(json.loads(params)))
        forms = {"delta": "a finite number or a finite 3-vector", "center": "a finite 3-vector"}
        assert f"{kind}: parameter '{key}' must be {forms.get(key, 'a finite number')}, got " in capsys.readouterr().err
        assert not out.exists()

    def test_config_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            run(["generate", "--kind", "drift", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")])
        assert exit_info.value.code == cli.EXIT_USAGE

    def test_manifest_written(self, drift_scene):
        m = manifest_of(drift_scene)
        assert m["command"] == "generate"
        assert m["seed"] == 4
        assert sorted(m["artifacts"]) == ["scene.json", "trajectory.csv"]


class TestTrain:
    def test_stride_supervision_count(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "zero", "--n-gaussians", "4",
                    "--n-frames", "20", "--out", str(gen)]) == cli.EXIT_OK
        out = tmp_path / "fit"
        code = run(["train", "--scene", str(gen / "scene.json"), "--stride", "4",
                    "--epochs", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert manifest_of(out)["config"]["supervised_frames"] == 5
        assert (out / "checkpoint.gsd").exists()
        assert (out / "loss_history.csv").exists()

    def test_train_fraction_supervises_leading_frames(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "zero", "--n-gaussians", "4",
                    "--n-frames", "20", "--out", str(gen)]) == cli.EXIT_OK
        out = tmp_path / "fit"
        code = run(["train", "--scene", str(gen / "scene.json"),
                    "--train-fraction", "0.75", "--epochs", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert manifest_of(out)["config"]["supervised_frames"] == 15
        _, _, meta = train.load_checkpoint(out / "checkpoint.gsd")
        assert max(meta["extra"]["supervised_times"]) <= 0.75

    def test_missing_scene_usage_error(self, tmp_path):
        assert run(["train", "--scene", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    def test_nonfinite_trajectory_position_usage_error(self, drift_scene, tmp_path, capsys):
        doc = json.loads((drift_scene / "scene.json").read_text())
        doc["trajectories"]["positions"][2][1][0] = float("nan")
        (drift_scene / "scene.json").write_text(json.dumps(doc))
        out = tmp_path / "t"
        assert run(["train", "--scene", str(drift_scene / "scene.json"), "--epochs", "1",
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert "trajectories.positions: non-finite value in frame 2, gaussian 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--stride", "0"], ["--stride", "-2"], ["--epochs", "0"], ["--epochs", "-3"],
        ["--learning-rate", "0"], ["--learning-rate", "-0.01"], ["--learning-rate", "nan"],
        ["--learning-rate", "inf"],
    ], ids=" ".join)
    def test_bad_training_value_usage_error(self, drift_scene, tmp_path, flags):
        out = tmp_path / "fit"
        assert run(["train", "--scene", str(drift_scene / "scene.json"), *flags,
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert not (out / "checkpoint.gsd").exists()


class TestSimulate:
    def test_backward_times_decrease(self, drift_scene, tmp_path):
        out = tmp_path / "sim"
        field_spec = tmp_path / "field.json"
        field_spec.write_text(json.dumps({"kind": "drift", "params": {"delta": [0.3, 0, 0]}}))
        code = run(["simulate", "--field", str(field_spec), "--scene",
                    str(drift_scene / "scene.json"), "--t0", "1", "--t1", "0",
                    "--steps", "10", "--out", str(out)])
        assert code == cli.EXIT_OK
        times, _ = import_trajectory_csv(out / "trajectory.csv")
        assert np.all(np.diff(times) < 0)

    def test_euler_radius_error_larger_than_rk4(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "spin", "--n-gaussians", "3",
                    "--n-frames", "4", "--params", '{"omega": 6.0}',
                    "--out", str(gen)]) == cli.EXIT_OK
        spec = tmp_path / "spin.json"
        spec.write_text(json.dumps({"kind": "spin", "params": {"omega": 6.0}}))
        radii = {}
        scene_file = str(gen / "scene.json")
        start = load_scene(scene_file).cloud.positions
        for method in ("euler", "rk4"):
            out = tmp_path / method
            assert run(["simulate", "--field", str(spec), "--scene", scene_file,
                        "--t0", "0", "--t1", "1", "--method", method,
                        "--steps", "60", "--out", str(out)]) == cli.EXIT_OK
            _, positions = import_trajectory_csv(out / "trajectory.csv")
            radii[method] = np.linalg.norm(positions[-1][:, :2], axis=1)
        r0 = np.linalg.norm(start[:, :2], axis=1)
        assert np.all(np.abs(radii["euler"] - r0) > np.abs(radii["rk4"] - r0))

    def test_steps_are_per_unit_time(self, drift_scene, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        out = tmp_path / "o"
        assert run(["simulate", "--field", str(spec), "--scene", str(drift_scene / "scene.json"),
                    "--t0", "0", "--t1", "2", "--steps", "10", "--record-stride", "1",
                    "--out", str(out)]) == cli.EXIT_OK
        times, _ = import_trajectory_csv(out / "trajectory.csv")
        np.testing.assert_allclose(times, np.linspace(0.0, 2.0, 21))

    def test_anchored_cost_linear_in_frames(self, drift_scene, tmp_path, monkeypatch):
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        n_anchors = 3
        calls = []
        forward = NeuralVelocityField.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(NeuralVelocityField, "forward", counted)
        for steps in (20, 40):
            calls.clear()
            assert run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1", "--anchored",
                        "--steps", str(steps), "--record-stride", "1",
                        "--out", str(tmp_path / f"a{steps}")]) == cli.EXIT_OK
            # one RK4 step (four stages) per output frame that is not an anchor
            assert len(calls) == 4 * (steps + 1 - n_anchors)

    def test_truncated_checkpoint_names_array(self, drift_scene, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert run(["train", "--scene", str(drift_scene / "scene.json"), "--epochs", "1",
                    "--out", str(fit)]) == cli.EXIT_OK
        ckpt = fit / "checkpoint.gsd"
        ckpt.write_bytes(ckpt.read_bytes()[:3000])
        code = run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1",
                    "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'mlp_w0' is truncated" in err

    def test_trailing_bytes_in_checkpoint_rejected(self, drift_scene, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert run(["train", "--scene", str(drift_scene / "scene.json"), "--epochs", "1",
                    "--out", str(fit)]) == cli.EXIT_OK
        ckpt = fit / "checkpoint.gsd"
        ckpt.write_bytes(ckpt.read_bytes() + b"junk")
        code = run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1",
                    "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ckpt) in err and "after the last array" in err

    @pytest.mark.parametrize("anchored", [False, True])
    def test_nonfinite_activation_is_numerical_failure(self, drift_scene, tmp_path, capsys, anchored):
        grid = feature_grid.create_grid(np.zeros(3), np.ones(3), spatial_resolution=4, time_resolution=4,
                                        channels=2)
        field = NeuralVelocityField(grid, hidden=(8,))
        field.weights[0][:] = 0.0
        field.biases[0][:] = 5.0  # every hidden unit at tanh(5): the output sum overflows
        field.weights[1][:] = 1e308
        anchors = AnchorSet()
        anchors.insert(load_scene(drift_scene / "scene.json").cloud, 0.0)
        ckpt = tmp_path / "ck.gsd"
        train.save_checkpoint(ckpt, field, anchors)
        argv = ["simulate", "--checkpoint", str(ckpt), "--scene", str(drift_scene / "scene.json"),
                "--t0", "0", "--t1", "1", "--out", str(tmp_path / "o")]
        with np.errstate(all="ignore"):  # the program's own check must catch the overflow
            assert run(argv + ["--anchored"] * anchored) == cli.EXIT_NUMERICAL
        assert "numerical failure: non-finite activation in mlp layer 1" in capsys.readouterr().err

    @pytest.mark.parametrize("anchored", [False, True])
    def test_record_stride_zero_usage_error(self, drift_scene, tmp_path, capsys, anchored):
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        argv = ["simulate", "--checkpoint", str(ckpt), "--scene", str(drift_scene / "scene.json"),
                "--t0", "0", "--t1", "1", "--record-stride", "0", "--out", str(tmp_path / "o")]
        assert run(argv + ["--anchored"] * anchored) == cli.EXIT_USAGE
        assert "record_stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("steps,stride", [(10, 20), (10, 3)])
    def test_anchored_frame_times_match_rollout(self, drift_scene, tmp_path, steps, stride):
        # a stride above the step count keeps t0 and t1; one that does not
        # divide the steps records every stride-th step plus t1, as a rollout does
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        times = {}
        for anchored in (False, True):
            out = tmp_path / f"o{anchored}"
            assert run(["simulate", "--checkpoint", str(ckpt), "--scene", str(drift_scene / "scene.json"),
                        "--t0", "0", "--t1", "1", "--steps", str(steps), "--record-stride", str(stride),
                        "--out", str(out)] + ["--anchored"] * anchored) == cli.EXIT_OK
            times[anchored], _ = import_trajectory_csv(out / "trajectory.csv")
        np.testing.assert_array_equal(times[True], times[False])
        assert times[True][0] == 0.0 and times[True][-1] == 1.0

    def test_anchored_without_anchors_usage_error(self, drift_scene, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        code = run(["simulate", "--field", str(spec), "--scene",
                    str(drift_scene / "scene.json"), "--t0", "0", "--t1", "1",
                    "--anchored", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--t0", "nan"), ("--t1", "nan"), ("--t1", "inf"), ("--t0", "inf")])
    def test_nonfinite_time_usage_error(self, drift_scene, tmp_path, capsys, flag, value):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        out = tmp_path / "o"
        times = {"--t0": "0", "--t1": "1", flag: value}
        with pytest.raises(SystemExit) as exit_info:
            run(["simulate", "--field", str(spec), "--scene", str(drift_scene / "scene.json"),
                 *(x for item in times.items() for x in item), "--out", str(out)])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert f"argument {flag}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_array_of_another_shape_names_array(self, drift_scene, tmp_path, capsys):
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        meta, arrays = arrayio.load_bundle(ckpt)
        arrays["mlp_b0"] = arrays["mlp_b0"][:1]
        arrayio.save_bundle(ckpt, meta, arrays)
        out = tmp_path / "o"
        assert run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1",
                    "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ckpt) in err and "array 'mlp_b0' has shape (1,), expected (8,)" in err
        assert not out.exists()

    @staticmethod
    def edited_fit(drift_scene, tmp_path, edit):
        """A one-epoch 64-wide training checkpoint whose JSON header ``edit`` changed in place."""
        fit = tmp_path / "fit"
        assert run(["train", "--scene", str(drift_scene / "scene.json"), "--epochs", "1",
                    "--out", str(fit)]) == cli.EXIT_OK
        ckpt = fit / "checkpoint.gsd"
        magic, header, payload = ckpt.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        ckpt.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        return ckpt

    @staticmethod
    def traced_simulate(ckpt, out):
        """Exit code and tracemalloc peak of a simulate run on ``ckpt``."""
        tracemalloc.start()
        try:
            code = run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1", "--out", str(out)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_checkpoint_widths_checked_before_the_field_is_allocated(self, drift_scene, tmp_path, capsys):
        # a field 3000 units wide would take about 140 MB before its weights were compared
        ckpt = self.edited_fit(drift_scene, tmp_path, lambda h: h["meta"].update(hidden=[3000, 3000]))
        code, peak = self.traced_simulate(ckpt, tmp_path / "o")
        assert code == cli.EXIT_USAGE
        assert f"{ckpt}: array 'mlp_w0' has shape (59, 64), expected (59, 3000)" in capsys.readouterr().err
        assert peak < 20e6

    def test_checkpoint_array_larger_than_the_file_is_not_read(self, drift_scene, tmp_path, capsys):
        # 200 MB listed for the first array: read as listed, it would be allocated before the short read
        ckpt = self.edited_fit(drift_scene, tmp_path, lambda h: h["arrays"][0].update(shape=[25_000_000]))
        code, peak = self.traced_simulate(ckpt, tmp_path / "o")
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ckpt) in err and "array 'mlp_w0' is truncated" in err and "of 200000000 payload bytes" in err
        assert peak < 20e6

    def test_checkpoint_missing_array_names_array(self, drift_scene, tmp_path, capsys):
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        meta, arrays = arrayio.load_bundle(ckpt)
        del arrays["mlp_w1"]
        arrayio.save_bundle(ckpt, meta, arrays)
        out = tmp_path / "o"
        assert run(["simulate", "--checkpoint", str(ckpt), "--t0", "0", "--t1", "1",
                    "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {ckpt}: checkpoint has no array 'mlp_w1'" in err
        assert not out.exists()

    def test_checkpoint_time_encoding_and_grid_keys_are_not_read(self, drift_scene, tmp_path):
        # the time encoding's width is fixed and the grid's time axis is [0, 1]
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        meta, arrays = arrayio.load_bundle(ckpt)
        meta.update(time_frequencies=3, grid={"t0": 0.5, "t1": 0.5, "channels": 1})
        edited = tmp_path / "edited.gsd"
        arrayio.save_bundle(edited, meta, arrays)
        outputs = []
        for path in (ckpt, edited):
            out = tmp_path / path.stem
            assert run(["simulate", "--checkpoint", str(path), "--t0", "0", "--t1", "1", "--steps", "10",
                        "--out", str(out)]) == cli.EXIT_OK
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_field_seed_not_an_integer_usage_error(self, drift_scene, tmp_path, capsys):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift", "seed": [1]}))
        out = tmp_path / "o"
        assert run(["simulate", "--field", str(spec), "--scene", str(drift_scene / "scene.json"),
                    "--t0", "0", "--t1", "1", "--out", str(out)]) == cli.EXIT_USAGE
        assert "'seed' must be a non-negative integer, got [1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("anchored", [False, True])
    def test_negative_zero_t0_records_zero(self, drift_scene, tmp_path, anchored):
        # every record time is t0 + s h, the first one too
        ckpt = anchored_checkpoint(drift_scene, tmp_path / "ck.gsd")
        out = tmp_path / "o"
        assert run(["simulate", "--checkpoint", str(ckpt), "--scene", str(drift_scene / "scene.json"),
                    "--t0", "-0", "--t1", "1", "--steps", "4", "--out", str(out)] + ["--anchored"] * anchored) == 0
        assert (out / "trajectory.csv").read_text().splitlines()[1].startswith("0,0.0,0,")

    @pytest.mark.parametrize("flags", [["--t1", "1e12", "--steps", "1"],
                                       ["--t1", "1", "--steps", "1000000000000000"]])
    def test_step_count_above_bound_usage_error(self, drift_scene, tmp_path, capsys, flags):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        out = tmp_path / "o"
        assert run(["simulate", "--field", str(spec), "--scene", str(drift_scene / "scene.json"),
                    "--t0", "0", *flags, "--out", str(out)]) == cli.EXIT_USAGE
        assert f"at most {cli.MAX_STEPS} are allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_step_bound_is_inclusive(self):
        # checked without running: MAX_STEPS steps pass, one more is refused
        args = argparse.Namespace(t0=0.0, t1=1.0, steps=cli.MAX_STEPS)
        assert cli._span_steps(args) == cli.MAX_STEPS
        with pytest.raises(cli.UsageError, match="at most"):
            cli._span_steps(argparse.Namespace(t0=0.0, t1=1.0, steps=cli.MAX_STEPS + 1))

    def test_equal_endpoints_usage_error(self, drift_scene, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        code = run(["simulate", "--field", str(spec), "--scene",
                    str(drift_scene / "scene.json"), "--t0", "0.5", "--t1", "0.5",
                    "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE


class TestInject:
    @pytest.mark.parametrize("flag,value", [("--lam", "nan"), ("--lam", "inf"), ("--t0", "inf"), ("--t1", "nan")])
    def test_nonfinite_value_usage_error(self, drift_scene, tmp_path, capsys, flag, value):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "drift"}))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            run(["inject", "--field", str(spec), "--scene", str(drift_scene / "scene.json"), flag, value,
                 "--out", str(out)])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert f"argument {flag}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,spec,message", [
        ("mask.json", {"shape": "sphere", "radius": 0.25}, "sphere mask needs the key 'center'"),
        ("field.json", [{"kind": "drift"}], "field must be a JSON object, got list"),
        ("field.json", {"kind": "neural"}, "neural field needs the key 'checkpoint'"),
        ("field.json", "not json", "Expecting value: line 1 column 1 (char 0)"),
        ("mask.json", "not json", "Expecting value: line 1 column 1 (char 0)"),
    ], ids=["sphere-without-center", "field-list", "neural-without-checkpoint", "field-not-json", "mask-not-json"])
    def test_malformed_spec_names_file_and_key(self, drift_scene, tmp_path, capsys, name, spec, message):
        files = {"field.json": {"kind": "drift"}, "mask.json": {"shape": "sphere", "center": [0.5] * 3,
                                                                "radius": 0.25}}
        files[name] = spec
        for file_name, content in files.items():  # a str is the file's text, anything else its JSON
            (tmp_path / file_name).write_text(content if isinstance(content, str) else json.dumps(content))
        out = tmp_path / "o"
        assert run(["inject", "--field", str(tmp_path / "field.json"), "--mask", str(tmp_path / "mask.json"),
                    "--scene", str(drift_scene / "scene.json"), "--out", str(out)]) == cli.EXIT_USAGE
        assert f"error: {tmp_path / name}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_mask_matches_base_rollout(self, drift_scene, tmp_path):
        spec = tmp_path / "spin.json"
        spec.write_text(json.dumps({"kind": "spin", "params": {"omega": 3.0}}))
        # mask far away from the unit box covers no Gaussians
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"shape": "sphere", "center": [50, 50, 50], "radius": 0.1}))
        zero_spec = tmp_path / "zero.json"
        zero_spec.write_text(json.dumps({"kind": "zero"}))
        base_out = tmp_path / "base"
        inj_out = tmp_path / "inj"
        scene_file = str(drift_scene / "scene.json")
        assert run(["inject", "--field", str(zero_spec), "--scene", scene_file,
                    "--steps", "10", "--out", str(base_out)]) == cli.EXIT_OK
        assert run(["inject", "--field", str(spec), "--mask", str(mask), "--scene", scene_file,
                    "--steps", "10", "--out", str(inj_out)]) == cli.EXIT_OK
        assert (base_out / "trajectory.csv").read_bytes() == (inj_out / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("masked", [False, True])
    def test_lam_weights_injected_field(self, drift_scene, tmp_path, masked):
        # no checkpoint: the base is the zero field, so lam * drift moves every
        # Gaussian by lam * delta over unit time, also inside a covering mask
        spec = tmp_path / "drift.json"
        spec.write_text(json.dumps({"kind": "drift", "params": {"delta": [0.3, 0.0, 0.0]}}))
        out = tmp_path / "out"
        argv = ["inject", "--field", str(spec), "--lam", "0.5", "--scene", str(drift_scene / "scene.json"),
                "--steps", "10", "--out", str(out)]
        if masked:
            mask = tmp_path / "mask.json"
            mask.write_text(json.dumps({"shape": "sphere", "center": [0.5, 0.5, 0.5], "radius": 5.0}))
            argv += ["--mask", str(mask)]
        assert run(argv) == cli.EXIT_OK
        _, positions = import_trajectory_csv(out / "trajectory.csv")
        np.testing.assert_allclose(positions[-1] - positions[0],
                                   np.broadcast_to([0.15, 0.0, 0.0], positions[0].shape), atol=1e-12)

    def test_sphere_mask_spin_orbits_inside_identity_outside(self, tmp_path):
        # two Gaussians: one inside the mask orbits, one outside stays fixed
        scene_file = tmp_path / "scene.json"
        base = cli.generate_scene("zero", 2, 2, seed=0)
        cloud = base.cloud.with_positions(np.array([[0.6, 0.5, 0.5], [5.0, 5.0, 5.0]]))
        save_scene(
            type(base)(cloud=cloud, cameras=base.cameras,
                       trajectory_times=base.trajectory_times,
                       trajectory_positions=np.tile(cloud.positions, (2, 1, 1))),
            scene_file,
        )
        spec = tmp_path / "spin.json"
        omega = 2 * np.pi
        spec.write_text(json.dumps({"kind": "spin", "params": {"center": [0.5, 0.5, 0.0], "omega": omega}}))
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"shape": "sphere", "center": [0.5, 0.5, 0.5], "radius": 1.0}))
        out = tmp_path / "out"
        assert run(["inject", "--field", str(spec), "--mask", str(mask),
                    "--scene", str(scene_file), "--steps", "400",
                    "--out", str(out)]) == cli.EXIT_OK
        _, positions = import_trajectory_csv(out / "trajectory.csv")
        # full period: the inside Gaussian returns to its start
        np.testing.assert_allclose(positions[-1][0], [0.6, 0.5, 0.5], atol=1e-6)
        np.testing.assert_array_equal(positions[-1][1], [5.0, 5.0, 5.0])

    def test_lambda_zero_add_matches_base(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "zero", "--n-gaussians", "4",
                    "--n-frames", "5", "--out", str(gen)]) == cli.EXIT_OK
        fit = tmp_path / "fit"
        assert run(["train", "--scene", str(gen / "scene.json"), "--epochs", "2",
                    "--out", str(fit)]) == cli.EXIT_OK
        spec = tmp_path / "spin.json"
        spec.write_text(json.dumps({"kind": "spin", "params": {"omega": 5.0}}))
        base_out = tmp_path / "base"
        add_out = tmp_path / "add"
        assert run(["simulate", "--checkpoint", str(fit / "checkpoint.gsd"),
                    "--scene", str(gen / "scene.json"), "--t0", "0", "--t1", "1",
                    "--steps", "10", "--out", str(base_out)]) == cli.EXIT_OK
        assert run(["inject", "--checkpoint", str(fit / "checkpoint.gsd"),
                    "--field", str(spec), "--lam", "0", "--scene", str(gen / "scene.json"),
                    "--steps", "10", "--out", str(add_out)]) == cli.EXIT_OK
        assert (base_out / "trajectory.csv").read_bytes() == (add_out / "trajectory.csv").read_bytes()


class TestRenderCommand:
    def test_single_frame(self, drift_scene, tmp_path):
        out = tmp_path / "r"
        assert run(["render", "--scene", str(drift_scene / "scene.json"),
                    "--out", str(out)]) == cli.EXIT_OK
        assert (out / "frame_0000.ppm").exists()

    def test_trajectory_frames(self, drift_scene, tmp_path):
        out = tmp_path / "r"
        assert run(["render", "--scene", str(drift_scene / "scene.json"),
                    "--trajectory", str(drift_scene / "trajectory.csv"),
                    "--out", str(out)]) == cli.EXIT_OK
        assert len(sorted(out.glob("frame_*.ppm"))) == 8

    def test_short_trajectory_row_usage_error(self, drift_scene, tmp_path, capsys):
        traj = tmp_path / "short.csv"
        lines = (drift_scene / "trajectory.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 2)[0]
        traj.write_text("\n".join(lines) + "\n")
        assert run(["render", "--scene", str(drift_scene / "scene.json"), "--trajectory", str(traj),
                    "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE
        assert f"{traj}, line 4: expected 6 columns, got 4" in capsys.readouterr().err

    def test_bad_trajectory_leaves_no_output(self, drift_scene, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trajectory\n")
        out = tmp_path / "r"
        assert run(["render", "--scene", str(drift_scene / "scene.json"), "--trajectory", str(bad),
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert "unexpected trajectory CSV header" in capsys.readouterr().err
        assert not out.exists()

    def test_index_beyond_int64_usage_error(self, drift_scene, tmp_path, capsys):
        traj = tmp_path / "huge.csv"
        traj.write_text("frame_index,time,gaussian_index,x,y,z\n99999999999999999999,0.0,0,1,2,3\n")
        out = tmp_path / "r"
        assert run(["render", "--scene", str(drift_scene / "scene.json"), "--trajectory", str(traj),
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert str(traj) in capsys.readouterr().err
        assert not out.exists()

    def test_bad_camera_index(self, drift_scene, tmp_path):
        assert run(["render", "--scene", str(drift_scene / "scene.json"),
                    "--camera-index", "5", "--out", str(tmp_path / "r")]) == cli.EXIT_USAGE

    def test_negative_camera_index_usage_error(self, drift_scene, tmp_path, capsys):
        out = tmp_path / "r"
        assert run(["render", "--scene", str(drift_scene / "scene.json"),
                    "--camera-index", "-1", "--out", str(out)]) == cli.EXIT_USAGE
        assert "camera index -1 out of range" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_perfect_prediction(self, drift_scene, tmp_path):
        out = tmp_path / "ev"
        code = run(["eval", "--pred", str(drift_scene / "trajectory.csv"),
                    "--gt", str(drift_scene / "scene.json"),
                    "--metrics", "position", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "frame_index,time,observed,mean_position_error"
        for line in lines[1:-1]:
            assert float(line.split(",")[-1]) == 0.0

    @pytest.mark.parametrize("metrics, given", [
        ("psnr", []), ("ssim", ["--pred-frames"]), ("dssim", ["--gt-frames"]),
        ("position", []), ("position", ["--pred"]), ("position,ssim", ["--gt", "--pred-frames", "--gt-frames"]),
    ])
    def test_missing_inputs_usage_error(self, drift_scene, tmp_path, capsys, metrics, given):
        frames = tmp_path / "frames"
        assert run(["render", "--scene", str(drift_scene / "scene.json"), "--out", str(frames)]) == cli.EXIT_OK
        paths = {"--pred": drift_scene / "trajectory.csv", "--gt": drift_scene / "scene.json",
                 "--pred-frames": frames, "--gt-frames": frames}
        out = tmp_path / "ev"
        argv = ["eval", "--metrics", metrics, "--out", str(out)]
        for flag in given:
            argv += [flag, str(paths[flag])]
        assert run(argv) == cli.EXIT_USAGE
        assert "need" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_prediction_leaves_no_output(self, drift_scene, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trajectory\n")
        out = tmp_path / "ev"
        assert run(["eval", "--pred", str(bad), "--gt", str(drift_scene / "scene.json"),
                    "--metrics", "position", "--out", str(out)]) == cli.EXIT_USAGE
        assert "unexpected trajectory CSV header" in capsys.readouterr().err
        assert not out.exists()

    def test_ssim_once_per_frame_pair(self, drift_scene, tmp_path, monkeypatch):
        frames = tmp_path / "frames"
        assert run(["render", "--scene", str(drift_scene / "scene.json"), "--trajectory",
                    str(drift_scene / "trajectory.csv"), "--out", str(frames)]) == cli.EXIT_OK
        calls = []
        ssim = render.ssim
        monkeypatch.setattr(render, "ssim", lambda a, b: calls.append(1) or ssim(a, b))
        out = tmp_path / "ev"
        assert run(["eval", "--pred-frames", str(frames), "--gt-frames", str(frames),
                    "--metrics", "ssim,dssim", "--out", str(out)]) == cli.EXIT_OK
        assert len(calls) == 8
        rows = [r.split(",") for r in (out / "metrics.csv").read_text().splitlines()[1:-1]]
        assert all(float(r[3]) == 1.0 and float(r[4]) == 0.0 for r in rows)

    def test_lpips_refused(self, drift_scene, tmp_path):
        code = run(["eval", "--pred", str(drift_scene / "trajectory.csv"),
                    "--gt", str(drift_scene / "scene.json"),
                    "--metrics", "lpips", "--out", str(tmp_path / "ev")])
        assert code == cli.EXIT_USAGE

    def test_observed_flags_from_train_manifest(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "zero", "--n-gaussians", "3",
                    "--n-frames", "8", "--out", str(gen)]) == cli.EXIT_OK
        fit = tmp_path / "fit"
        assert run(["train", "--scene", str(gen / "scene.json"), "--stride", "2",
                    "--epochs", "2", "--out", str(fit)]) == cli.EXIT_OK
        out = tmp_path / "ev"
        code = run(["eval", "--pred", str(gen / "trajectory.csv"),
                    "--gt", str(gen / "scene.json"), "--metrics", "position",
                    "--train-manifest", str(fit / "manifest.json"), "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:-1]
        flags = [r.split(",")[2] for r in rows]
        assert flags == ["observed", "held-out"] * 4

    @pytest.mark.parametrize("manifest", ['{"command": "train"}', '["out"]', '{"out": 3}'])
    def test_bad_train_manifest_usage_error(self, drift_scene, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(manifest)
        out = tmp_path / "ev"
        code = run(["eval", "--pred", str(drift_scene / "trajectory.csv"), "--gt", str(drift_scene / "scene.json"),
                    "--train-manifest", str(path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "'out'" in err
        assert not out.exists()

    @pytest.mark.parametrize("fewer", ["frames", "trajectory"])
    def test_frame_count_mismatch_usage_error(self, drift_scene, tmp_path, capsys, fewer):
        scene, traj = drift_scene / "scene.json", drift_scene / "trajectory.csv"
        frames, pred = tmp_path / "frames", tmp_path / "pred.csv"
        if fewer == "frames":  # 8 trajectory frames, 1 image
            assert run(["render", "--scene", str(scene), "--out", str(frames)]) == cli.EXIT_OK
            pred = traj
        else:  # 2 trajectory frames, 8 images
            assert run(["render", "--scene", str(scene), "--trajectory", str(traj),
                        "--out", str(frames)]) == cli.EXIT_OK
            times, positions = import_trajectory_csv(traj)
            export_trajectory_csv(times[[0, -1]], positions[[0, -1]], pred)
        out = tmp_path / "ev"
        code = run(["eval", "--pred", str(pred), "--gt", str(scene), "--metrics", "position,psnr",
                    "--pred-frames", str(frames), "--gt-frames", str(frames), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert "frames but the frame directories hold" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_frames_past_9999_pair_in_frame_order(self, tmp_path):
        # frame_10000.ppm sorts before frame_9999.ppm by name; scores must follow the frame number
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        for d in (pred, gt):
            render.write_ppm(np.full((16, 16, 3), 0.2), d / "frame_9999.ppm")
        render.write_ppm(np.full((16, 16, 3), 0.2), pred / "frame_10000.ppm")
        render.write_ppm(np.full((16, 16, 3), 0.7), gt / "frame_10000.ppm")
        out = tmp_path / "ev"
        assert run(["eval", "--pred-frames", str(pred), "--gt-frames", str(gt),
                    "--metrics", "psnr", "--out", str(out)]) == cli.EXIT_OK
        rows = [r.split(",") for r in (out / "metrics.csv").read_text().splitlines()[1:-1]]
        assert float(rows[0][3]) == 99.0
        assert float(rows[1][3]) == pytest.approx(6.0, abs=0.1)

    def test_image_metrics_on_identical_frames(self, drift_scene, tmp_path):
        frames = tmp_path / "frames"
        assert run(["render", "--scene", str(drift_scene / "scene.json"),
                    "--out", str(frames)]) == cli.EXIT_OK
        out = tmp_path / "ev"
        code = run(["eval", "--pred-frames", str(frames), "--gt-frames", str(frames),
                    "--metrics", "psnr,ssim,dssim", "--out", str(out)])
        assert code == cli.EXIT_OK
        row = (out / "metrics.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[3]) == 99.0
        assert float(row[4]) == pytest.approx(1.0)
        assert float(row[5]) == pytest.approx(0.0)


class TestInputsOutsideTheContract:
    """Inputs that once escaped the exit-code contract: each is a usage error
    on one ``error:`` line, and leaves no --out."""

    @pytest.mark.parametrize("command", [
        ["render"],
        ["inject", "--field", "spin.json", "--render-frames"],
        ["simulate", "--field", "spin.json", "--t0", "0", "--t1", "1"],
    ], ids=["render", "inject", "simulate"])
    def test_empty_scene(self, drift_scene, tmp_path, capsys, command):
        doc = json.loads((drift_scene / "scene.json").read_text())
        doc["gaussians"], doc["trajectories"] = [], None
        (tmp_path / "empty.json").write_text(json.dumps(doc))
        (tmp_path / "spin.json").write_text('{"kind": "spin"}')
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
        out = tmp_path / "out"
        assert run(argv + ["--scene", str(tmp_path / "empty.json"), "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: gaussians: the scene holds no Gaussian\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["checkpoint", "field", "pred", "out"])
    def test_path_the_os_refuses(self, drift_scene, tmp_path, capsys, flag):
        # a directory where a file is read, or an --out under a regular file
        scene = str(drift_scene / "scene.json")
        argv = {
            "checkpoint": ["simulate", "--checkpoint", str(tmp_path), "--t0", "0", "--t1", "1"],
            "field": ["inject", "--field", str(tmp_path), "--scene", scene],
            "pred": ["eval", "--pred", str(tmp_path), "--gt", scene],
        }.get(flag, ["render", "--scene", scene])
        out = tmp_path / "out" if flag != "out" else drift_scene / "scene.json" / "out"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (str(out) if flag == "out" else str(tmp_path)) in err
        assert not out.exists()


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["simulate", "inject", "render", "eval"])
    def test_seed_only_where_read(self, drift_scene, tmp_path, command):
        # only generate and train read a seed; the other commands reject the
        # flag and their manifests record none
        spec = tmp_path / "drift.json"
        spec.write_text(json.dumps({"kind": "drift", "params": {"delta": [0.3, 0.0, 0.0]}}))
        scene = str(drift_scene / "scene.json")
        argv = {
            "simulate": ["simulate", "--field", str(spec), "--scene", scene, "--t0", "0", "--t1", "1"],
            "inject": ["inject", "--field", str(spec), "--scene", scene],
            "render": ["render", "--scene", scene],
            "eval": ["eval", "--pred", str(drift_scene / "trajectory.csv"), "--gt", scene],
        }[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run(argv + ["--seed", "7", "--out", str(out)])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert run(argv + ["--out", str(out)]) == cli.EXIT_OK
        m = manifest_of(out)
        assert "seed" not in m and "seed" not in m["config"]


class TestManifestReproducibility:
    def test_rerun_generate_bitwise(self, drift_scene, tmp_path):
        m = manifest_of(drift_scene)
        out2 = tmp_path / "again"
        code = run(["generate", "--kind", m["config"]["kind"],
                    "--n-gaussians", str(m["config"]["n_gaussians"]),
                    "--n-frames", str(m["config"]["n_frames"]),
                    "--params", m["config"]["params"],
                    "--seed", str(m["seed"]), "--out", str(out2)])
        assert code == cli.EXIT_OK
        for name in m["artifacts"]:
            assert (drift_scene / name).read_bytes() == (out2 / name).read_bytes()
