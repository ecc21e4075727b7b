"""Scene types, neighbor queries, and file round trips."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from gsdyn import scene as sc


def make_cloud(positions, time=0.0):
    n = len(positions)
    return sc.GaussianCloud(
        positions=np.asarray(positions, dtype=float),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), np.log(0.05)),
        colors=np.full((n, 3), 0.5),
        opacities=np.full(n, 0.8),
        time=time,
    )


def write_scene_doc(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL_GAUSSIAN = {
    "position": [0.0, 0.0, 0.0],
    "rotation": [1.0, 0.0, 0.0, 0.0],
    "log_scale": [-3.0, -3.0, -3.0],
    "color": [0.5, 0.5, 0.5],
    "opacity": 1.0,
}


class TestLoadScene:
    def test_minimal_single_gaussian(self, tmp_path):
        path = write_scene_doc(tmp_path, {"gaussians": [MINIMAL_GAUSSIAN]})
        data = sc.load_scene(path)
        assert len(data.cloud) == 1
        assert data.cloud.time == 0.0
        np.testing.assert_array_equal(data.cloud.positions[0], [0.0, 0.0, 0.0])

    def test_knn_k_key_ignored(self, tmp_path):
        # scene files from before the neighbor count left the schema still load
        path = write_scene_doc(tmp_path, {"knn_k": 3, "gaussians": [MINIMAL_GAUSSIAN]})
        data = sc.load_scene(path)
        assert len(data.cloud) == 1
        assert not hasattr(data, "knn_k")

    def test_bounds_key_ignored(self, tmp_path):
        # scene files written before the bounds box left the schema still load
        doc = {"bounds": {"lo": [0.0, 0.0, 0.0], "hi": [0.0, 0.0, 0.0]}, "gaussians": [MINIMAL_GAUSSIAN]}
        data = sc.load_scene(write_scene_doc(tmp_path, doc))
        assert len(data.cloud) == 1
        assert not hasattr(data.cloud, "bounds")

    def test_out_of_range_opacity_names_field(self, tmp_path):
        bad = dict(MINIMAL_GAUSSIAN, opacity=1.5)
        path = write_scene_doc(tmp_path, {"gaussians": [bad]})
        with pytest.raises(sc.SceneValidationError, match=r"gaussians\[0\]\.opacity"):
            sc.load_scene(path)

    def test_out_of_range_color_names_field(self, tmp_path):
        bad = dict(MINIMAL_GAUSSIAN, color=[0.5, 1.2, 0.5])
        path = write_scene_doc(tmp_path, {"gaussians": [bad]})
        with pytest.raises(sc.SceneValidationError, match=r"gaussians\[0\]\.color"):
            sc.load_scene(path)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        bad = dict(MINIMAL_GAUSSIAN, rotation=[1.0, 1.0, 0.0, 0.0])
        path = write_scene_doc(tmp_path, {"gaussians": [bad]})
        with pytest.raises(sc.SceneValidationError, match=r"gaussians\[0\]\.rotation"):
            sc.load_scene(path)

    def test_first_bad_row_named(self, tmp_path):
        # rows 3 and 5 are bad in several fields; row 3's first bad field is named
        rows = [dict(MINIMAL_GAUSSIAN) for _ in range(7)]
        rows[3].update(rotation=[1.0, 1.0, 0.0, 0.0], color=[2.0, 0.0, 0.0], opacity=-1.0)
        rows[5].update(position=[float("nan"), 0.0, 0.0], opacity=3.0)
        path = write_scene_doc(tmp_path, {"gaussians": rows})
        with pytest.raises(sc.SceneValidationError) as err:
            sc.load_scene(path)
        assert str(err.value) == "gaussians[3].rotation: quaternion norm not within 1e-06 of 1"
        rows[3] = dict(MINIMAL_GAUSSIAN, opacity=1.5, log_scale=[0.0, 800.0, 0.0])
        with pytest.raises(sc.SceneValidationError, match=r"^gaussians\[3\]\.log_scale: exp overflows$"):
            sc.load_scene(write_scene_doc(tmp_path, {"gaussians": rows}))
        rows[3] = dict(MINIMAL_GAUSSIAN, opacity=1.5)
        with pytest.raises(sc.SceneValidationError, match=r"^gaussians\[3\]\.opacity: value 1.5 outside \[0, 1\]$"):
            sc.load_scene(write_scene_doc(tmp_path, {"gaussians": rows}))

    def test_trajectory_tensor_shape(self, tmp_path):
        gaussians = [
            dict(MINIMAL_GAUSSIAN, position=[float(i), 0.0, 0.0]) for i in range(3)
        ]
        frames = [[[float(i) + 0.1 * f, 0.0, 0.0] for i in range(3)] for f in range(5)]
        doc = {
            "gaussians": gaussians,
            "trajectories": {"times": [0.0, 0.25, 0.5, 0.75, 1.0], "positions": frames},
        }
        data = sc.load_scene(write_scene_doc(tmp_path, doc))
        assert len(data.cloud) == 3
        assert data.trajectory_positions.shape == (5, 3, 3)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(sc.SceneParseError):
            sc.load_scene(path)

    def test_no_gaussians_names_the_key(self, tmp_path):
        with pytest.raises(sc.SceneValidationError, match=r"^gaussians: the scene holds no Gaussian$"):
            sc.load_scene(write_scene_doc(tmp_path, {"gaussians": []}))

    @pytest.mark.parametrize("key, value, message", [
        ("gaussians", True, r"^scene file must be an object with a 'gaussians' list$"),
        ("cameras", None, r"^cameras: expected a list of cameras$"),
        ("time", None, r"^time: float\(\) argument must be"),
        ("cameras", [{"eye": [0, -3, 0], "look_at": [0, 0, 0], "up": [0, 0, 1], "vertical_fov": 0.9,
                      "width": float("inf"), "height": 8}], r"^cameras\[0\]: cannot convert float infinity"),
    ], ids=["gaussians", "cameras", "time", "camera_width"])
    def test_value_of_the_wrong_kind_is_parse_error(self, tmp_path, key, value, message):
        doc = {"gaussians": [MINIMAL_GAUSSIAN], key: value}
        with pytest.raises(sc.SceneParseError, match=message):
            sc.load_scene(write_scene_doc(tmp_path, doc))

    def test_trajectory_shape_mismatch_rejected(self, tmp_path):
        doc = {
            "gaussians": [MINIMAL_GAUSSIAN],
            "trajectories": {"times": [0.0, 1.0], "positions": [[[0, 0, 0]]]},
        }
        with pytest.raises(sc.SceneValidationError, match="trajectories.positions"):
            sc.load_scene(write_scene_doc(tmp_path, doc))

    @pytest.mark.parametrize("times, message", [
        ([0.0, 1.0, 0.5], r"^trajectories\.times\[2\]: 0\.5 does not exceed the time before it$"),
        ([0.0, 0.0, 1.0], r"^trajectories\.times\[1\]: 0\.0 does not exceed the time before it$"),
        ([0.0, 0.5, 7.0], r"^trajectories\.times\[2\]: value 7\.0 is not a time in \[0, 1\]$"),
        ([-0.5, 0.5, 1.0], r"^trajectories\.times\[0\]: value -0\.5 is not a time in \[0, 1\]$"),
        ([0.0, float("nan"), 1.0], r"^trajectories\.times\[1\]: value nan is not a time in \[0, 1\]$"),
    ])
    def test_trajectory_times_increase_within_unit_interval(self, tmp_path, times, message):
        doc = {"gaussians": [MINIMAL_GAUSSIAN], "trajectories": {"times": times, "positions": [[[0, 0, 0]]] * 3}}
        with pytest.raises(sc.SceneValidationError, match=message):
            sc.load_scene(write_scene_doc(tmp_path, doc))

    def test_trajectory_times_not_a_list_rejected(self, tmp_path):
        doc = {"gaussians": [MINIMAL_GAUSSIAN], "trajectories": {"times": 5, "positions": [[[0, 0, 0]]]}}
        with pytest.raises(sc.SceneValidationError, match=r"^trajectories\.times: expected a list of times, got shape \(\)$"):
            sc.load_scene(write_scene_doc(tmp_path, doc))

    def test_nonfinite_trajectory_position_rejected(self, tmp_path):
        positions = [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, float("inf"), 0]], [[float("nan"), 0, 0]] * 2]
        doc = {"gaussians": [MINIMAL_GAUSSIAN] * 2, "trajectories": {"times": [0.0, 0.5, 1.0], "positions": positions}}
        with pytest.raises(sc.SceneValidationError,
                           match=r"^trajectories\.positions: non-finite value in frame 1, gaussian 1$"):
            sc.load_scene(write_scene_doc(tmp_path, doc))


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-1, 1, size=(7, 3))
        cloud = make_cloud(positions, time=0.25)
        cam = sc.CameraSpec(
            eye=np.array([0.0, -2.0, 0.0]),
            look_at=np.array([0.0, 0.0, 0.0]),
            up=np.array([0.0, 0.0, 1.0]),
            vertical_fov=0.8,
            width=32,
            height=24,
        )
        times = np.linspace(0, 1, 4)
        traj = rng.uniform(-1, 1, size=(4, 7, 3))
        data = sc.SceneData(cloud=cloud, cameras=[cam], trajectory_times=times,
                            trajectory_positions=traj)
        path = tmp_path / "scene.json"
        sc.save_scene(data, path)
        assert "bounds" not in json.loads(path.read_text())
        back = sc.load_scene(path)
        np.testing.assert_array_equal(back.cloud.positions, cloud.positions)
        np.testing.assert_array_equal(back.cloud.rotations, cloud.rotations)
        np.testing.assert_array_equal(back.trajectory_positions, traj)
        assert back.cameras[0].width == 32
        assert back.cloud.time == 0.25

    def test_one_line_file_loads_as_indented_file(self, tmp_path):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((6, 4))
        cloud = make_cloud(rng.uniform(-1, 1, (6, 3)), time=0.1).with_positions(
            rng.uniform(-1, 1, (6, 3)), q / np.linalg.norm(q, axis=1, keepdims=True), rng.uniform(-5, 0, (6, 3)))
        data = sc.SceneData(cloud=cloud, trajectory_times=np.linspace(0, 1, 3),
                            trajectory_positions=rng.standard_normal((3, 6, 3)) * 1e-3)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        sc.save_scene(data, compact)
        text = compact.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        indented.write_text(json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n")
        a, b = sc.load_scene(compact), sc.load_scene(indented)
        for name in ("positions", "rotations", "log_scales", "colors", "opacities"):
            assert getattr(a.cloud, name).tobytes() == getattr(b.cloud, name).tobytes() == \
                getattr(cloud, name).tobytes(), name
        assert a.trajectory_positions.tobytes() == b.trajectory_positions.tobytes() == \
            data.trajectory_positions.tobytes()
        assert a.trajectory_times.tobytes() == b.trajectory_times.tobytes()


class TestEvolution:
    def test_index_identity_under_evolution(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        evolved = cloud.with_positions(cloud.positions + 0.1)
        assert len(evolved) == len(cloud)
        np.testing.assert_allclose(evolved.positions - cloud.positions, np.full((3, 3), 0.1))


class TestKnn:
    def test_collinear_points(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        nb = sc.knn(cloud, 1)
        np.testing.assert_array_equal(nb[:, 0], [1, 0, 1])

    def test_unit_square_corners(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        nb = sc.knn(cloud, 2)
        # each corner's nearest two are its edge-adjacent corners
        expected = {0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}
        for i in range(4):
            assert set(nb[i]) == expected[i]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        cloud = make_cloud(rng.uniform(0, 1, size=(100, 3)))
        nb = sc.knn(cloud, 5)
        # exhaustive O(n^2) scan with the same tie rule (lower index wins)
        p = cloud.positions
        for i in range(100):
            dists = [(float(np.sum((p[i] - p[j]) ** 2)), j) for j in range(100) if j != i]
            dists.sort()
            np.testing.assert_array_equal(nb[i], [j for _, j in dists[:5]])

    def test_tie_breaks_toward_lower_index(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        nb = sc.knn(cloud, 1)
        assert nb[0, 0] == 1  # indices 1 and 2 are equidistant from 0

    def test_k_too_large_rejected(self):
        cloud = make_cloud([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            sc.knn(cloud, 2)

    def test_rerun_stable(self):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng.uniform(0, 1, size=(50, 3)))
        np.testing.assert_array_equal(sc.knn(cloud, 4), sc.knn(cloud, 4))


def full_sort_knn(cloud, k):
    """Reference: the whole N x N distance array, stably sorted by row."""
    p = cloud.positions
    d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def lattice(side):
    axis = np.arange(float(side))
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


class TestBlockedKnn:
    """The row-blocked search returns exactly what a full stable sort returns."""

    @pytest.mark.parametrize("n, k, seed", [(40, 3, 1), (1000, 8, 2), (700, 16, 3)])
    def test_random_clouds(self, n, k, seed):
        cloud = make_cloud(np.random.default_rng(seed).uniform(0, 1, size=(n, 3)))
        np.testing.assert_array_equal(sc.knn(cloud, k), full_sort_knn(cloud, k))

    @pytest.mark.parametrize("k", [1, 6, 7, 18, 26, 40])
    def test_lattice_with_exact_ties(self, k):
        # a unit lattice: every distance is an integer, so most ranks tie
        cloud = make_cloud(lattice(7))
        assert len(cloud) > sc.KNN_BLOCK
        np.testing.assert_array_equal(sc.knn(cloud, k), full_sort_knn(cloud, k))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_duplicated_points(self, k):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, size=(300, 3))
        p = np.concatenate([p, p[rng.choice(300, 60)], lattice(3)[rng.choice(27, 10)], lattice(3)[:2]])
        cloud = make_cloud(rng.permutation(p))
        np.testing.assert_array_equal(sc.knn(cloud, k), full_sort_knn(cloud, k))

    @pytest.mark.parametrize("n", [2, sc.KNN_BLOCK - 1, sc.KNN_BLOCK + 1, 2 * sc.KNN_BLOCK + 37])
    def test_partial_block_and_every_other_point(self, n):
        cloud = make_cloud(np.random.default_rng(n).uniform(0, 1, size=(n, 3)))
        for k in (1, n - 1):
            np.testing.assert_array_equal(sc.knn(cloud, k), full_sort_knn(cloud, k))

    def test_peak_memory_is_a_block_of_rows(self):
        # the full N x N x 3 difference array alone would be 216 MB
        cloud = make_cloud(np.random.default_rng(5).uniform(0, 1, size=(3000, 3)))
        tracemalloc.start()
        try:
            sc.knn(cloud, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        times = np.linspace(0, 1, 3)
        positions = rng.uniform(-2, 2, size=(3, 4, 3))
        path = tmp_path / "traj.csv"
        sc.export_trajectory_csv(times, positions, path)
        t2, p2 = sc.import_trajectory_csv(path)
        np.testing.assert_array_equal(t2, times)
        np.testing.assert_array_equal(p2, positions)

    def test_bytes_match_csv_writer_on_edge_values(self, tmp_path):
        edges = [-0.0, 5e-324, 1e-07, 1e16, 0.1]
        times = np.array([0.0, 1e-07, 0.1])
        positions = np.array(edges * 3 + edges[:3], dtype=float).reshape(3, 2, 3)
        path = tmp_path / "traj.csv"
        sc.export_trajectory_csv(times, positions, path)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["frame_index", "time", "gaussian_index", "x", "y", "z"])
        for fi in range(3):
            for gi in range(2):
                w.writerow([fi, repr(float(times[fi])), gi, *(repr(float(v)) for v in positions[fi, gi])])
        assert path.read_bytes() == expected.getvalue().encode()
        t2, p2 = sc.import_trajectory_csv(path)
        assert t2.tobytes() == times.tobytes() and p2.tobytes() == positions.tobytes()

    def test_short_row_names_path_and_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        sc.export_trajectory_csv(np.zeros(1), np.zeros((1, 3, 3)), path)
        lines = path.read_text().splitlines()
        lines[2] = "0,0.0,1,0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(sc.SceneParseError, match=f"{path}, line 3: expected 6 columns, got 4"):
            sc.import_trajectory_csv(path)

    @pytest.mark.parametrize("rows", [
        ["0,0.0,0,1,2,3", "2,1.0,1,4,5,6"],  # frame 1 and half of frames 0 and 2 missing
        ["0,0.0,0,1,2,3", "0,0.0,1,4,5,6", "1,1.0,0,7,8,9", "1,1.0,0,7,8,9"],  # (1, 0) twice, (1, 1) missing
        ["0,0.0,0,1,2,3", "0,0.0,1,4,5,6", "0,0.0,1,4,5,6"],  # (0, 1) twice
        ["0,0.0,0,1,2,3", "-1,1.0,0,4,5,6"],  # negative frame index
        ["0,0.0,0,1,2,3", "0,0.0,-1,4,5,6"],  # negative gaussian index
    ])
    def test_rows_not_a_full_grid_rejected(self, tmp_path, rows):
        path = tmp_path / "traj.csv"
        path.write_text("\n".join(["frame_index,time,gaussian_index,x,y,z", *rows]) + "\n")
        with pytest.raises(sc.SceneParseError, match=str(path)):
            sc.import_trajectory_csv(path)

    def test_index_beyond_int64_names_path(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("frame_index,time,gaussian_index,x,y,z\n99999999999999999999,0.0,0,1,2,3\n")
        with pytest.raises(sc.SceneParseError, match=str(path)):
            sc.import_trajectory_csv(path)

    def test_rows_disagreeing_on_frame_time_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("frame_index,time,gaussian_index,x,y,z\n0,0.0,0,1,2,3\n0,0.5,1,4,5,6\n")
        with pytest.raises(sc.SceneParseError, match=f"{path}: the rows of a frame disagree on its time"):
            sc.import_trajectory_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_nonfinite_value_rejected(self, tmp_path, cell):
        path = tmp_path / "traj.csv"
        path.write_text(f"frame_index,time,gaussian_index,x,y,z\n0,0.0,0,1,{cell},3\n")
        with pytest.raises(sc.SceneParseError, match=f"{path}: a time or position is not finite"):
            sc.import_trajectory_csv(path)

    def test_empty_file_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(sc.SceneParseError, match="header"):
            sc.import_trajectory_csv(path)
