"""Rendering a moving cloud and scoring frames with PSNR / SSIM.

Generates a small swirl scene, renders a handful of frames along the
ground-truth trajectory, and compares the first frame against the rest.

Run with:  python3 demos/render_and_metrics.py
Frames are written to demos/out/ as binary PPM files.
"""

from pathlib import Path

import numpy as np

from gsdyn import cli, render


def main():
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)

    data = cli.generate_scene("swirl", n_gaussians=40, n_frames=6, seed=11)
    camera = data.cameras[0]

    frames = []
    for fi in range(len(data.trajectory_times)):
        cloud = data.cloud.with_positions(data.trajectory_positions[fi])
        img = render.rasterize(cloud, camera)
        path = out / f"swirl_{fi:04d}.ppm"
        render.write_ppm(img, path)
        frames.append(img)
    print(f"wrote {len(frames)} frames to {out}")

    print(f"\n{'frame':>6} {'time':>6} {'psnr vs f0':>11} {'ssim vs f0':>11}")
    for fi, img in enumerate(frames):
        p = render.psnr(frames[0], img)
        s = render.ssim(frames[0], img)
        print(f"{fi:>6} {data.trajectory_times[fi]:>6.2f} {p:>11.2f} {s:>11.4f}")

    # sanity: a frame against itself hits the PSNR cap and SSIM of one
    assert render.psnr(frames[0], frames[0]) == 99.0
    assert abs(render.ssim(frames[0], frames[0]) - 1.0) < 1e-12
    print("\nself-comparison: psnr capped at 99 dB, ssim 1.0")

    # round trip through the PPM file is exact at 8-bit precision
    back = render.read_ppm(out / "swirl_0000.ppm")
    q = np.round(frames[0] * 255) / 255.0
    print("ppm round trip max error:", float(np.max(np.abs(back - q))))


if __name__ == "__main__":
    main()
