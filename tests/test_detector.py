"""Simulated detector behavior: visibility, noise injection, determinism."""

from collections import Counter

import numpy as np

from targetsim.detector import (
    DetectorConfig,
    Surfaces,
    detect,
    ellipsoid_target,
    visible_bbox,
    visible_bboxes,
)
from targetsim.geometry import CameraIntrinsics, Pose, project, project_points

K = CameraIntrinsics(fx=380.0, fy=380.0, cx=320.0, cy=240.0, width=640, height=480)

# camera at 30 m looking straight down: world x -> image u, world y -> image v
DOWN = Pose(
    np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.zeros(3),
)


def down_cam_from_world(altitude: float) -> Pose:
    world_from_cam = Pose(DOWN.rotation, np.array([0.0, 0.0, altitude]))
    return world_from_cam.inverse()


def test_ellipsoid_surface_on_surface():
    target = ellipsoid_target("t", [1.0, 2.0, 3.0], [2.0, 1.0, 0.5], n_surface=500)
    rel = (target.surface_points - target.center) / target.semi_axes
    np.testing.assert_allclose(np.linalg.norm(rel, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(target.surface_normals, axis=1), 1.0, atol=1e-12)


def test_centered_sphere_box_centered_on_principal_point():
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cfg = DetectorConfig()
    surfaces = Surfaces.of([target])
    dets = detect(down_cam_from_world(30.0), K, surfaces, cfg, np.random.default_rng(0))
    assert len(dets) == 1
    b = dets[0].bbox
    # centered up to the discrete surface sampling of the silhouette
    np.testing.assert_allclose([(b[0] + b[2]) / 2, (b[1] + b[3]) / 2], [320.0, 240.0], atol=0.1)
    assert dets[0].score == 1.0


def test_total_suppression_with_fn_one():
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cfg = DetectorConfig(fn_rate=1.0)
    rng = np.random.default_rng(1)
    for frame in range(50):
        assert detect(down_cam_from_world(30.0), K, Surfaces.of([target]), cfg, rng, frame) == []


def test_box_is_projection_hull_of_surface_points():
    # oracle: per-point scalar projection, recomputing the hull bounds
    # independently of the vectorized path
    target = ellipsoid_target("t", [3.0, -2.0, 1.0], [1.0, 0.8, 1.2], n_surface=300)
    cam_from_world = down_cam_from_world(25.0)
    surfaces = Surfaces.of([target])
    dets = detect(cam_from_world, K, surfaces, DetectorConfig(), np.random.default_rng(0))
    assert len(dets) == 1
    us, vs = [], []
    for p in target.surface_points:
        pixel, depth = project(p, cam_from_world, K)
        assert depth > 0
        us.append(pixel[0])
        vs.append(pixel[1])
    expected = [min(us), min(vs), max(us), max(vs)]
    np.testing.assert_allclose(dets[0].bbox, expected, atol=1e-9)


def test_partially_visible_target_not_detected():
    # push the target sideways until its projection crosses the image edge
    cam_from_world = down_cam_from_world(30.0)
    for x in np.linspace(0.0, 40.0, 60):
        target = ellipsoid_target("t", [x, 0.0, 1.0], [1.0, 1.0, 1.0])
        bbox = visible_bbox(target, cam_from_world, K)
        surfaces = Surfaces.of([target])
        dets = detect(cam_from_world, K, surfaces, DetectorConfig(), np.random.default_rng(0))
        if bbox is None:
            assert dets == []
        else:
            assert len(dets) == 1
    # far enough to clip: must be invisible
    far = ellipsoid_target("t", [40.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert visible_bbox(far, cam_from_world, K) is None


def test_behind_camera_target_not_detected():
    target = ellipsoid_target("t", [0.0, 0.0, 50.0], [1.0, 1.0, 1.0])
    assert visible_bbox(target, down_cam_from_world(30.0), K) is None


def test_noisy_box_contains_projected_center():
    # with zero noise rates every emitted box contains the center projection
    rng = np.random.default_rng(3)
    target = ellipsoid_target("t", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    cam_from_world = down_cam_from_world(30.0)
    center_px, _ = project(target.center, cam_from_world, K)
    for frame in range(200):
        dets = detect(cam_from_world, K, Surfaces.of([target]), DetectorConfig(), rng, frame)
        (det,) = dets
        assert det.bbox[0] <= center_px[0] <= det.bbox[2]
        assert det.bbox[1] <= center_px[1] <= det.bbox[3]


def test_determinism_byte_for_byte():
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cfg = DetectorConfig(fp_rate=0.3, fn_rate=0.3, pixel_noise_sigma=2.0)
    cam_from_world = down_cam_from_world(30.0)

    def run(seed):
        rng = np.random.default_rng(seed)
        out = []
        for frame in range(100):
            for d in detect(cam_from_world, K, Surfaces.of([target]), cfg, rng, frame):
                out.append((frame, d.bbox.tobytes(), d.score))
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_fp_fn_rates_match_config():
    # 10^4 frames; observed counts within 3 binomial standard deviations
    n = 10_000
    fp_rate, fn_rate = 0.08, 0.2
    cfg = DetectorConfig(fp_rate=fp_rate, fn_rate=fn_rate)
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cam_from_world = down_cam_from_world(30.0)
    rng = np.random.default_rng(99)
    n_fp = 0
    n_fn = 0
    for frame in range(n):
        dets = detect(cam_from_world, K, Surfaces.of([target]), cfg, rng, frame)
        true_dets = [d for d in dets if d.score == 1.0]
        n_fn += 1 - len(true_dets)
        n_fp += len(dets) - len(true_dets)
    for observed, rate in ((n_fp, fp_rate), (n_fn, fn_rate)):
        sigma = np.sqrt(n * rate * (1.0 - rate))
        assert abs(observed - n * rate) <= 3.0 * sigma


def reference_bbox(target, cam_from_world, k):
    """visible_bbox as it was before the stacked projection: one target's
    own projection and its own min/max."""
    uv, depths = project_points(target.surface_points, cam_from_world, k)
    if np.any(depths <= 0):
        return None
    u_min, v_min = uv.min(axis=0)
    u_max, v_max = uv.max(axis=0)
    if u_min < 0 or v_min < 0 or u_max > k.width or v_max > k.height:
        return None
    return np.array([u_min, v_min, u_max, v_max])


def view_kind(target, cam_from_world, k) -> str:
    uv, depths = project_points(target.surface_points, cam_from_world, k)
    if np.any(depths <= 0):
        return "behind"
    inside = np.all((uv >= 0) & (uv <= [k.width, k.height]), axis=1)
    return "visible" if inside.all() else "partial" if inside.any() else "off_image"


def test_stacked_boxes_equal_per_target_loop():
    # unequal n_surface; random poses put targets behind the camera,
    # across the image edge, off the image and fully in view
    targets = [
        ellipsoid_target("a", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=1),
        ellipsoid_target("b", [4.0, -3.0, 1.0], [1.2, 0.8, 1.0], n_surface=37),
        ellipsoid_target("c", [-6.0, 5.0, 0.5], [0.5, 2.0, 0.7], n_surface=400),
        ellipsoid_target("d", [15.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=123),
        ellipsoid_target("e", [0.0, 0.0, 45.0], [3.0, 3.0, 3.0], n_surface=50),
    ]
    surfaces = Surfaces.of(targets)
    rng = np.random.default_rng(5)
    kinds = Counter()
    for _ in range(300):
        body = Pose.from_yaw(
            rng.uniform(-np.pi, np.pi), [*rng.uniform(-25.0, 25.0, 2), rng.uniform(2.0, 60.0)]
        )
        pitch = rng.uniform(0.2, np.pi / 2.0)
        s, c = np.sin(pitch), np.cos(pitch)
        mount = np.array([[0.0, -s, c], [-1.0, 0.0, 0.0], [0.0, -c, -s]])
        cam_from_world = Pose(body.rotation @ mount, body.translation).inverse()
        stacked = visible_bboxes(surfaces, cam_from_world, K)
        assert len(stacked) == len(targets)
        for target, box in zip(targets, stacked):
            kinds[view_kind(target, cam_from_world, K)] += 1
            want = reference_bbox(target, cam_from_world, K)
            for got in (box, visible_bbox(target, cam_from_world, K)):
                assert got is None if want is None else np.array_equal(got, want)
    assert min(kinds[k] for k in ("behind", "partial", "off_image", "visible")) >= 20, kinds
    assert visible_bboxes(Surfaces.of([]), down_cam_from_world(30.0), K) == []
