"""CPU rasterizer and image quality metrics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdyn import cli, quaternions, render
from gsdyn.scene import CameraSpec, GaussianCloud, import_trajectory_csv, load_scene


def camera(width=33, height=33, eye=(0.0, -3.0, 0.0), look_at=(0.0, 0.0, 0.0)):
    return CameraSpec(
        eye=np.asarray(eye, dtype=float),
        look_at=np.asarray(look_at, dtype=float),
        up=np.array([0.0, 0.0, 1.0]),
        vertical_fov=0.7,
        width=width,
        height=height,
    )


def cloud_of(entries, time=0.0):
    """entries: list of (position, color, opacity, log_scale)."""
    n = len(entries)
    return GaussianCloud(
        positions=np.array([p for p, _, _, _ in entries], dtype=float).reshape(n, 3),
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.array([np.full(3, ls) for _, _, _, ls in entries], dtype=float).reshape(n, 3),
        colors=np.array([c for _, c, _, _ in entries], dtype=float).reshape(n, 3),
        opacities=np.array([o for _, _, o, _ in entries], dtype=float),
        time=time,
    )


def gray(level, h=16, w=16):
    return np.full((h, w, 3), level)


def reference_project(position, rotation, log_scale, camera):
    """One Gaussian at a time, as the renderer computed it before projecting
    whole clouds: (mean2d, cov2d, depth), or None when discarded."""
    forward = camera.look_at - camera.eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, camera.up)
    right = right / np.linalg.norm(right)
    basis = np.stack([right, np.cross(right, forward), forward])
    pc = basis @ (position - camera.eye)
    depth = pc[2]
    if depth <= camera.near:
        return None
    focal = camera.height / (2.0 * np.tan(camera.vertical_fov / 2.0))
    mean2d = np.array([camera.width / 2.0 + focal * pc[0] / depth, camera.height / 2.0 - focal * pc[1] / depth])
    w, x, y, z = quaternions.normalize(rotation)
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    cov_cam = basis @ (rot @ np.diag(np.exp(log_scale) ** 2) @ rot.T) @ basis.T
    jac = np.array(
        [
            [focal / depth, 0.0, -focal * pc[0] / depth**2],
            [0.0, -focal / depth, focal * pc[1] / depth**2],
        ]
    )
    cov2d = jac @ cov_cam @ jac.T
    if np.linalg.det(cov2d) < 1e-24:
        return None
    return mean2d, cov2d, float(depth)


class TestProject:
    def test_center_gaussian_projects_to_image_center(self):
        mean2d, _, _, keep = render.project(cloud_of([((0.0, 0.0, 0.0), (1, 0, 0), 1.0, -3.0)]), camera())
        assert keep[0]
        np.testing.assert_allclose(mean2d[0], [16.5, 16.5])

    def test_on_axis_isotropic_covariance(self):
        _, cov2d, _, _ = render.project(cloud_of([((0.0, 0.0, 0.0), (1, 0, 0), 1.0, -2.0)]), camera())
        assert abs(cov2d[0, 0, 1]) < 1e-9
        assert cov2d[0, 0, 0] == pytest.approx(cov2d[0, 1, 1], rel=1e-9)

    def test_distance_halves_projected_sigma(self):
        cloud = cloud_of([((0.0, 0.0, 0.0), (1, 0, 0), 1.0, -3.5)])
        s_near = np.sqrt(render.project(cloud, camera(eye=(0.0, -2.0, 0.0)))[1][0, 0, 0])
        s_far = np.sqrt(render.project(cloud, camera(eye=(0.0, -4.0, 0.0)))[1][0, 0, 0])
        assert s_near / s_far == pytest.approx(2.0, rel=0.02)

    def test_behind_near_plane_discarded(self):
        cloud = cloud_of([((0.0, -5.0, 0.0), (1, 0, 0), 1.0, -3.0), ((0.0, 0.0, 0.0), (1, 0, 0), 1.0, -3.0)])
        _, _, depth, keep = render.project(cloud, camera())
        np.testing.assert_array_equal(keep, [False, True])
        np.testing.assert_array_equal(depth, [-2.0, 3.0])


@st.composite
def projection_cases(draw):
    """(cloud, camera) with random rotations and scales; some Gaussians sit
    behind the eye, on the near plane or have a degenerate (tiny) scale."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    where = rng.integers(0, 4, n)
    positions[where == 1, 1] = rng.uniform(-6.0, -3.0, np.count_nonzero(where == 1))  # behind the eye
    positions[where == 2, 1] = -3.0 + 1e-3 + rng.uniform(-1e-9, 1e-9, np.count_nonzero(where == 2))  # near plane
    log_scales = rng.uniform(-5.0, 0.0, (n, 3))
    log_scales[where == 3, rng.integers(0, 3)] = -40.0  # degenerate
    cloud = GaussianCloud(
        positions=positions,
        rotations=quaternions.normalize(rng.normal(size=(n, 4))),
        log_scales=log_scales,
        colors=np.full((n, 3), 0.5),
        opacities=np.full(n, 0.8),
    )
    cam = camera(width=draw(st.integers(8, 64)), height=draw(st.integers(8, 64)),
                 eye=(rng.uniform(-0.2, 0.2), -3.0, rng.uniform(-0.2, 0.2)))
    return cloud, cam


@settings(max_examples=60, deadline=None)
@given(projection_cases())
def test_project_matches_per_gaussian_reference(case):
    cloud, cam = case
    mean2d, cov2d, depth, keep = render.project(cloud, cam)
    for i in range(len(cloud)):
        ref = reference_project(cloud.positions[i], cloud.rotations[i], cloud.log_scales[i], cam)
        assert keep[i] == (ref is not None)
        if ref is None:
            continue
        np.testing.assert_array_equal(mean2d[i], ref[0])
        assert depth[i] == ref[2]
        np.testing.assert_allclose(cov2d[i], ref[1], rtol=0, atol=1e-15 * np.abs(ref[1]).max())


class TestRasterize:
    def test_centered_gaussian_peaks_at_center(self):
        cam = camera()
        cloud = cloud_of([((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0, -2.0)])
        img = render.rasterize(cloud, cam)
        lum = img.sum(axis=2)
        cy, cx = np.unravel_index(np.argmax(lum), lum.shape)
        assert (cy, cx) == (16, 16)
        # intensity decreases monotonically away from the center along the axes
        row = lum[16, 16:]
        col = lum[16:, 16]
        assert np.all(np.diff(row) <= 1e-12)
        assert np.all(np.diff(col) <= 1e-12)

    def test_zero_opacity_black(self):
        cam = camera()
        cloud = cloud_of([((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, -2.0)])
        img = render.rasterize(cloud, cam)
        np.testing.assert_array_equal(img, np.zeros((33, 33, 3)))

    def test_compositing_series_at_center(self):
        # red in front of blue on the optical axis; hand-evaluate
        # c = T0*a_r*red + T0*(1-a_r)*a_b*blue at the center pixel
        cam = camera()
        cloud = cloud_of([
            ((0.0, -0.5, 0.0), (1.0, 0.0, 0.0), 0.5, -2.0),
            ((0.0, 0.5, 0.0), (0.0, 0.0, 1.0), 0.9, -2.0),
        ])
        img = render.rasterize(cloud, cam)
        center = img[16, 16]
        # alpha at the exact center: the pixel grid puts the mean on the
        # center pixel's sample point, so the exponent is ~0
        a_r, a_b = 0.5, 0.9
        assert center[0] == pytest.approx(a_r, abs=0.02)
        assert center[2] == pytest.approx((1 - a_r) * a_b, abs=0.03)
        assert center[1] == pytest.approx(0.0, abs=1e-6)

    def test_channels_in_unit_range(self):
        rng = np.random.default_rng(0)
        entries = [(rng.uniform(-0.5, 0.5, 3), rng.uniform(0, 1, 3), 1.0, -1.5) for _ in range(10)]
        img = render.rasterize(cloud_of(entries), camera())
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(1)
        entries = [(rng.uniform(-0.5, 0.5, 3), rng.uniform(0, 1, 3), 0.7, -2.0) for _ in range(8)]
        cam = camera()
        a = render.rasterize(cloud_of(entries), cam)
        perm = rng.permutation(8)
        b = render.rasterize(cloud_of([entries[i] for i in perm]), cam)
        np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        cloud = cloud_of([((0.0, 0.0, 0.0), (1.0, 0.5, 0.2), 0.8, -2.0)])
        cam = camera()
        np.testing.assert_array_equal(render.rasterize(cloud, cam),
                                      render.rasterize(cloud, cam))

    def test_projects_once_per_frame(self, monkeypatch):
        calls = []
        project = render.project
        monkeypatch.setattr(render, "project", lambda *args: calls.append(1) or project(*args))
        entries = [((0.1 * i, 0.0, 0.0), (1.0, 0.5, 0.2), 0.8, -2.0) for i in range(6)]
        render.rasterize(cloud_of(entries), camera())
        assert len(calls) == 1

    def test_keep_drops_gaussians_behind_near_plane(self):
        entries = [
            ((0.0, -5.0, 0.0), (1.0, 0.0, 0.0), 0.8, -2.0),  # behind the eye
            ((0.0, -3.0, 0.0), (1.0, 0.0, 0.0), 0.8, -2.0),  # at the eye, depth 0
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.8, -2.0),
            ((0.2, 0.5, 0.0), (0.0, 1.0, 0.0), 0.8, -2.0),
        ]
        *_, keep = render.project(cloud_of(entries), camera())
        assert keep.tolist() == [False, False, True, True]
        img = render.rasterize(cloud_of(entries), camera())
        np.testing.assert_array_equal(img, render.rasterize(cloud_of(entries[2:]), camera()))

    def test_empty_cloud_rejected(self):
        empty = GaussianCloud(
            positions=np.zeros((0, 3)), rotations=np.zeros((0, 4)),
            log_scales=np.zeros((0, 3)), colors=np.zeros((0, 3)), opacities=np.zeros(0),
        )
        with pytest.raises(ValueError):
            render.rasterize(empty, camera())


def reference_rasterize(cloud, camera):
    """The rasterizer before block evaluation: every footprint's alpha and the
    blend computed one Gaussian at a time, in depth order."""
    h, w = camera.height, camera.width
    image = np.zeros((h, w, 3))
    transmittance = np.ones((h, w))
    mean2d, cov2d, depth, keep = render.project(cloud, camera)
    order = np.flatnonzero(keep)
    order = order[np.lexsort((order, depth[order]))]
    order = order[~(cloud.opacities[order] <= 0.0)]
    radii = render.FOOTPRINT_SIGMAS * np.sqrt(np.maximum(np.linalg.eigvalsh(cov2d[order])[:, -1], 0.0))
    inverses = np.linalg.inv(cov2d[order])
    mean_x, mean_y = mean2d[order].T
    bounds = np.stack([
        np.maximum(np.floor(mean_x - radii), 0.0), np.minimum(np.ceil(mean_x + radii) + 1.0, w),
        np.maximum(np.floor(mean_y - radii), 0.0), np.minimum(np.ceil(mean_y + radii) + 1.0, h),
    ], axis=1)
    hit = (bounds[:, 0] < bounds[:, 1]) & (bounds[:, 2] < bounds[:, 3])
    scalars = np.column_stack([
        mean_x, mean_y, inverses[:, 0, 0], 2.0 * inverses[:, 0, 1], inverses[:, 1, 1], cloud.opacities[order],
    ])[hit].tolist()
    centres_x = np.arange(w) + 0.5
    centres_y = np.arange(h) + 0.5
    for (x0, x1, y0, y1), (mx, my, a, b, c, opacity), color in zip(
            bounds[hit].astype(int).tolist(), scalars, cloud.colors[order[hit]]):
        dx = centres_x[x0:x1] - mx
        dy = (centres_y[y0:y1] - my)[:, None]
        qform = a * dx**2 + b * dy * dx + c * dy**2
        alpha = np.minimum(opacity * np.exp(-0.5 * qform), render.ALPHA_MAX)
        t_patch = transmittance[y0:y1, x0:x1]
        patch = image[y0:y1, x0:x1]
        patch += (t_patch * alpha)[:, :, None] * color
        t_patch *= 1.0 - alpha
    return np.clip(image, 0.0, 1.0)


@st.composite
def raster_cases(draw):
    """(cloud, camera, block cap): footprints from sub-pixel to frame-covering,
    some clipped by the frame edge or behind the near plane, some of opacity 0,
    some at exactly the depth of another Gaussian."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.5, 1.5, (n, 3))  # |x|, |z| > 1 sit at or past the frame edge
    positions[rng.random(n) < 0.1, 1] = -3.5  # behind the eye
    log_scales = rng.uniform(-6.0, 0.5, (n, 3))
    if draw(st.booleans()):
        log_scales[:] = log_scales[:, :1]  # isotropic
    opacities = rng.uniform(0.0, 1.0, n)
    opacities[rng.random(n) < 0.15] = 0.0
    twins = rng.random(n) < 0.2  # the same position, so the same depth, as Gaussian 0
    positions[twins] = positions[0]
    cloud = GaussianCloud(
        positions=positions,
        rotations=quaternions.normalize(rng.normal(size=(n, 4))),
        log_scales=log_scales,
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        opacities=opacities,
    )
    cam = camera(width=draw(st.integers(8, 64)), height=draw(st.integers(8, 64)),
                 eye=(rng.uniform(-0.2, 0.2), -3.0, rng.uniform(-0.2, 0.2)))
    return cloud, cam, draw(st.sampled_from([1, 97, 2048, render.BLOCK_PIXELS]))


class TestBlockedRasterize:
    """Block evaluation of the footprints gives the per-Gaussian loop's frames bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(raster_cases())
    def test_matches_per_gaussian_reference(self, case):
        cloud, cam, cap = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render, "BLOCK_PIXELS", cap)
            np.testing.assert_array_equal(render.rasterize(cloud, cam), reference_rasterize(cloud, cam))

    def test_clouds_larger_than_a_block(self):
        # small and frame-covering footprints mixed; their boxes add up to many blocks
        rng = np.random.default_rng(7)
        n = 400
        cloud = GaussianCloud(
            positions=rng.uniform(-0.8, 0.8, (n, 3)),
            rotations=quaternions.normalize(rng.normal(size=(n, 4))),
            log_scales=np.where(rng.random((n, 1)) < 0.1, 0.0, -3.5) + rng.uniform(-0.5, 0.5, (n, 3)),
            colors=rng.uniform(0.0, 1.0, (n, 3)),
            opacities=rng.uniform(0.1, 1.0, n),
        )
        cam = camera(width=96, height=96)
        _, cov2d, _, keep = render.project(cloud, cam)
        radii = 3.0 * np.sqrt(np.linalg.eigvalsh(cov2d[keep])[:, -1])
        assert np.sum(np.minimum(2 * radii + 2, 96) ** 2) > 10 * render.BLOCK_PIXELS
        np.testing.assert_array_equal(render.rasterize(cloud, cam), reference_rasterize(cloud, cam))

    def test_render_command_frames_match_reference(self, tmp_path):
        gen, frames = tmp_path / "gen", tmp_path / "frames"
        assert cli.main(["generate", "--kind", "vortex", "--n-gaussians", "500", "--n-frames", "3",
                         "--out", str(gen)]) == cli.EXIT_OK
        assert cli.main(["render", "--scene", str(gen / "scene.json"), "--trajectory", str(gen / "trajectory.csv"),
                         "--out", str(frames)]) == cli.EXIT_OK
        data = load_scene(gen / "scene.json")
        _, positions = import_trajectory_csv(gen / "trajectory.csv")
        for i, p in enumerate(positions):
            render.write_ppm(reference_rasterize(data.cloud.with_positions(p), data.cameras[0]), tmp_path / "ref.ppm")
            assert (frames / f"frame_{i:04d}.ppm").read_bytes() == (tmp_path / "ref.ppm").read_bytes()

    def test_peak_memory_is_set_by_the_block_cap(self):
        # 1,000 frame-covering footprints: a (G, H, W) array of the cloud alone would be 74 MB
        n = 1000
        rng = np.random.default_rng(8)
        cloud = GaussianCloud(
            positions=rng.uniform(-0.1, 0.1, (n, 3)), rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
            log_scales=np.zeros((n, 3)), colors=rng.uniform(0.0, 1.0, (n, 3)), opacities=np.full(n, 0.01),
        )
        tracemalloc.start()
        try:
            render.rasterize(cloud, camera(width=96, height=96))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPsnr:
    def test_identical_capped(self):
        img = gray(0.5)
        assert render.psnr(img, img) == 99.0

    def test_mse_one_gives_zero_db(self):
        assert render.psnr(gray(0.0), gray(1.0)) == pytest.approx(0.0)

    def test_mse_hundredth_gives_twenty_db(self):
        assert render.psnr(gray(0.0), gray(0.1)) == pytest.approx(20.0)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (16, 16, 3))
        b = rng.uniform(0, 1, (16, 16, 3))
        assert render.psnr(a, b) == render.psnr(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            render.psnr(gray(0.5, 16, 16), gray(0.5, 16, 17))


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (16, 16, 3))
        assert render.ssim(img, img) == pytest.approx(1.0)
        assert render.dssim_of(render.ssim(img, img)) == pytest.approx(0.0)

    def test_negative_for_anticorrelated(self):
        rng = np.random.default_rng(4)
        # high-contrast pattern with no mid-gray: negation anticorrelates
        pattern = (rng.uniform(0, 1, (24, 24, 3)) > 0.5).astype(float)
        a = pattern
        b = 1.0 - pattern
        assert render.ssim(a, b) < 0.0

    def test_constant_images_luminance_only(self):
        a, b = 0.3, 0.6
        expected = (2 * a * b + 0.01**2) / (a**2 + b**2 + 0.01**2)
        # variance and covariance vanish so the structure term is C2/C2 = 1
        assert render.ssim(gray(a), gray(b)) == pytest.approx(expected, rel=1e-9)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="window"):
            render.ssim(gray(0.5, 8, 8), gray(0.5, 8, 8))

    @staticmethod
    def reference_ssim(a, b):
        """SSIM by an explicit loop over every valid 11x11 window of each channel."""
        r = np.arange(11) - 5.0
        g = np.exp(-(r**2) / (2.0 * 1.5**2))
        k = np.outer(g, g)
        k /= k.sum()
        c1, c2 = 0.01**2, 0.03**2
        h, w = a.shape[:2]
        per_channel = []
        for c in range(3):
            vals = []
            for i in range(h - 10):
                for j in range(w - 10):
                    x, y = a[i:i + 11, j:j + 11, c], b[i:i + 11, j:j + 11, c]
                    mx, my = np.sum(k * x), np.sum(k * y)
                    vx, vy = np.sum(k * x * x) - mx**2, np.sum(k * y * y) - my**2
                    cov = np.sum(k * x * y) - mx * my
                    vals.append((2 * mx * my + c1) * (2 * cov + c2) / ((mx**2 + my**2 + c1) * (vx + vy + c2)))
            per_channel.append(np.mean(vals))
        return float(np.mean(per_channel))

    @pytest.mark.parametrize("shape", [(17, 23, 3), (29, 12, 3), (11, 11, 3)])
    def test_matches_windowed_reference(self, shape):
        rng = np.random.default_rng(shape[0])
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0.0, 0.2, shape), 0.0, 1.0)
        assert abs(render.ssim(a, b) - self.reference_ssim(a, b)) < 1e-12
        assert render.ssim(a, a) == 1.0

    def test_dssim_definition(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (16, 16, 3))
        b = rng.uniform(0, 1, (16, 16, 3))
        assert render.dssim_of(render.ssim(a, b)) == pytest.approx((1 - render.ssim(a, b)) / 2)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = np.round(rng.uniform(0, 1, (9, 7, 3)) * 255) / 255.0
        path = tmp_path / "img.ppm"
        render.write_ppm(img, path)
        back = render.read_ppm(path)
        assert back.shape == (9, 7, 3) and back.dtype == np.float64
        np.testing.assert_allclose(back, img, atol=1e-12)

    def test_round_half_up(self, tmp_path):
        # 0.5/255 boundary: value just below rounds down, exactly at rounds up
        px = np.zeros((1, 2, 3))
        px[0, 0, :] = 0.4999 / 255.0
        px[0, 1, :] = 0.5 / 255.0
        path = tmp_path / "r.ppm"
        render.write_ppm(px, path)
        data = path.read_bytes()
        body = data.split(b"\n", 3)[3]
        assert body[0] == 0 and body[3] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(ValueError, match="P6"):
            render.read_ppm(path)
