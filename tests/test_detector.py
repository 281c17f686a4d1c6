"""Simulated detector behavior: visibility, noise injection, determinism."""

import struct
from collections import Counter

import numpy as np

from targetsim.detector import (
    DetectorConfig,
    detect,
    ellipsoid_target,
    visible_boxes,
)
from targetsim.geometry import CULL_MARGIN_PX, CameraIntrinsics, Pose, cull_rows, project_points

from tests.test_geometry import from_yaw, project, rt

K = CameraIntrinsics(fx=380.0, fy=380.0, cx=320.0, cy=240.0, width=640, height=480)

# camera at 30 m looking straight down: world x -> image u, world y -> image v
DOWN = Pose(
    np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.zeros(3),
)


def down_cam_from_world(altitude: float) -> Pose:
    world_from_cam = Pose(DOWN.rotation, np.array([0.0, 0.0, altitude]))
    return world_from_cam.inverse()


DOWN_30 = rt(down_cam_from_world(30.0))


def view(targets, rotation, translation):
    """detect's view arguments: the one cam-from-world view's row of
    visible_boxes, every target's box and its visibility."""
    boxes, visible = visible_boxes(targets, rotation[None], translation[None], K)
    return boxes[0], visible[0]


def test_ellipsoid_surface_on_surface():
    target = ellipsoid_target("t", [1.0, 2.0, 3.0], [2.0, 1.0, 0.5], n_surface=500)
    rel = (target.surface_points - target.center) / target.semi_axes
    np.testing.assert_allclose(np.linalg.norm(rel, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(target.surface_normals, axis=1), 1.0, atol=1e-12)


def test_centered_sphere_box_centered_on_principal_point():
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cfg = DetectorConfig()
    dets = detect(*view([target], *DOWN_30), K, cfg, np.random.default_rng(0))
    assert len(dets) == 1
    b = dets[0].bbox
    # centered up to the discrete surface sampling of the silhouette
    np.testing.assert_allclose([(b[0] + b[2]) / 2, (b[1] + b[3]) / 2], [320.0, 240.0], atol=0.1)
    assert dets[0].score == 1.0


def test_total_suppression_with_fn_one():
    target = ellipsoid_target("t", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    cfg = DetectorConfig(fn_rate=1.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert detect(*view([target], *DOWN_30), K, cfg, rng) == []


def test_box_is_projection_hull_of_surface_points():
    # oracle: per-point scalar projection, recomputing the hull bounds
    # independently of the vectorized path
    target = ellipsoid_target("t", [3.0, -2.0, 1.0], [1.0, 0.8, 1.2], n_surface=300)
    cam_from_world = down_cam_from_world(25.0)
    rng = np.random.default_rng(0)
    dets = detect(*view([target], *rt(cam_from_world)), K, DetectorConfig(), rng)
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
        bbox = box_alone(target, cam_from_world, K)
        rng = np.random.default_rng(0)
        dets = detect(*view([target], *rt(cam_from_world)), K, DetectorConfig(), rng)
        if bbox is None:
            assert dets == []
        else:
            assert len(dets) == 1
    # far enough to clip: must be invisible
    far = ellipsoid_target("t", [40.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    assert not view([far], *rt(cam_from_world))[1].any()


def test_behind_camera_target_not_detected():
    target = ellipsoid_target("t", [0.0, 0.0, 50.0], [1.0, 1.0, 1.0])
    assert not view([target], *DOWN_30)[1].any()


def test_noisy_box_contains_projected_center():
    # with zero noise rates every emitted box contains the center projection
    rng = np.random.default_rng(3)
    target = ellipsoid_target("t", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    cam_from_world = down_cam_from_world(30.0)
    center_px, _ = project(target.center, cam_from_world, K)
    for _ in range(200):
        dets = detect(*view([target], *rt(cam_from_world)), K, DetectorConfig(), rng)
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
            for d in detect(*view([target], *rt(cam_from_world)), K, cfg, rng):
                out.append((frame, struct.pack("4d", *d.bbox), d.score))
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
    for _ in range(n):
        dets = detect(*view([target], *rt(cam_from_world)), K, cfg, rng)
        true_dets = [d for d in dets if d.score == 1.0]
        n_fn += 1 - len(true_dets)
        n_fp += len(dets) - len(true_dets)
    for observed, rate in ((n_fp, fp_rate), (n_fn, fn_rate)):
        sigma = np.sqrt(n * rate * (1.0 - rate))
        assert abs(observed - n * rate) <= 3.0 * sigma


def box_alone(target, cam_from_world, k):
    """One target projected alone in one view, with its own min/max: its
    box, or None when any point is behind the camera or off the image. The
    tests' oracle of a true box."""
    uv, depths = project_points(
        target.surface_points, cam_from_world.rotation, cam_from_world.translation, k
    )
    if np.any(depths <= 0):
        return None
    u_min, v_min = uv.min(axis=0)
    u_max, v_max = uv.max(axis=0)
    if u_min < 0 or v_min < 0 or u_max > k.width or v_max > k.height:
        return None
    return np.array([u_min, v_min, u_max, v_max])


def view_kind(target, cam_from_world, k) -> str:
    uv, depths = project_points(
        target.surface_points, cam_from_world.rotation, cam_from_world.translation, k
    )
    if np.any(depths <= 0):
        return "behind"
    inside = np.all((uv >= 0) & (uv <= [k.width, k.height]), axis=1)
    return "visible" if inside.all() else "partial" if inside.any() else "off_image"


# unequal n_surface; random views put them behind the camera, across the
# image edge, off the image and fully in view
UNEQUAL_TARGETS = [
    ellipsoid_target("a", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=1),
    ellipsoid_target("b", [4.0, -3.0, 1.0], [1.2, 0.8, 1.0], n_surface=37),
    ellipsoid_target("c", [-6.0, 5.0, 0.5], [0.5, 2.0, 0.7], n_surface=400),
    ellipsoid_target("d", [15.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=123),
    ellipsoid_target("e", [0.0, 0.0, 45.0], [3.0, 3.0, 3.0], n_surface=50),
]


def random_view(rng) -> Pose:
    """A cam-from-world pose at a random yaw, position and pitch."""
    yaw = rng.uniform(-np.pi, np.pi)
    body = from_yaw(yaw, [*rng.uniform(-25.0, 25.0, 2), rng.uniform(2.0, 60.0)])
    pitch = rng.uniform(0.2, np.pi / 2.0)
    s, c = np.sin(pitch), np.cos(pitch)
    mount = np.array([[0.0, -s, c], [-1.0, 0.0, 0.0], [0.0, -c, -s]])
    return Pose(body.rotation @ mount, body.translation).inverse()


def test_stacked_boxes_equal_per_target_loop():
    targets = UNEQUAL_TARGETS
    rng = np.random.default_rng(5)
    kinds = Counter()
    for _ in range(300):
        cam_from_world = random_view(rng)
        boxes, visible = view(targets, *rt(cam_from_world))
        assert boxes.shape == (len(targets), 4)
        for target, box, seen in zip(targets, boxes, visible):
            kinds[view_kind(target, cam_from_world, K)] += 1
            want = box_alone(target, cam_from_world, K)
            assert seen == (want is not None)
            assert want is None or np.array_equal(box, want)
    assert min(kinds[k] for k in ("behind", "partial", "off_image", "visible")) >= 20, kinds
    boxes, visible = view([], *DOWN_30)
    assert boxes.shape == (0, 4) and visible.shape == (0,)


def pinned_cam_from_world(rotation, point, pixel, depth, k) -> Pose:
    """The cam-from-world pose with the given rotation that puts the world
    point at the pixel and depth."""
    in_cam = depth * np.array([(pixel[0] - k.cx) / k.fx, (pixel[1] - k.cy) / k.fy, 1.0])
    return Pose(rotation, in_cam - rotation @ point)


def test_batched_boxes_equal_per_pose_loop():
    # F random poses in one call, plus poses that pin one target's first
    # point around the cull's 1 px margin and the image edge on all four
    # sides, and around depth 0
    targets = UNEQUAL_TARGETS
    rng = np.random.default_rng(6)
    poses = []
    for _ in range(200):
        poses.append(random_view(rng))
    offsets = (-1.5, -1.0 - 1e-9, -1.0 + 1e-9, -0.5, -1e-9, 0.0, 1e-9, 0.5)
    pinned = []
    for target in targets:
        first = target.surface_points[0]
        rotation = poses[len(pinned)].rotation
        for d in offsets:
            for pixel in ((d, K.cy), (K.width - d, K.cy), (K.cx, d), (K.cx, K.height - d)):
                pinned.append(pinned_cam_from_world(rotation, first, pixel, 20.0, K))
        for depth in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9):
            pinned.append(pinned_cam_from_world(rotation, first, (K.cx, K.cy), depth, K))
    poses += pinned
    boxes, visible = visible_boxes(
        targets,
        np.stack([p.rotation for p in poses]),
        np.stack([p.translation for p in poses]),
        K,
    )
    assert boxes.shape == (len(poses), len(targets), 4)
    assert visible.shape == (len(poses), len(targets))
    kinds = Counter()
    for f, cam_from_world in enumerate(poses):
        for i, target in enumerate(targets):
            kinds[view_kind(target, cam_from_world, K)] += 1
            want = box_alone(target, cam_from_world, K)
            assert visible[f, i] == (want is not None)
            if want is None:
                assert np.isnan(boxes[f, i]).all()
            else:
                assert np.array_equal(boxes[f, i], want)
    assert min(kinds[k] for k in ("behind", "partial", "off_image", "visible")) >= 20, kinds
    # a view repeated 30 times projects each target in parts of at most
    # ~4k points: target c's 400 points in three parts of 10 views
    for f in range(0, 200, 10):
        many = visible_boxes(
            targets,
            np.repeat(poses[f].rotation[None], 30, axis=0),
            np.repeat(poses[f].translation[None], 30, axis=0),
            K,
        )
        assert np.array_equal(many[1], np.repeat(visible[f:f + 1], 30, axis=0))
        assert np.array_equal(many[0], np.repeat(boxes[f:f + 1], 30, axis=0), equal_nan=True)
    # target a is one point, so where it is pinned decides: hidden past the
    # cull line and between it and the edge, visible just inside the edge
    a_pinned = visible[200:200 + 4 * len(offsets), 0].reshape(len(offsets), 4)
    assert not a_pinned[:5].any() and a_pinned[6:].all()
    empty = visible_boxes([], np.stack([DOWN.rotation]), np.zeros((1, 3)), K)
    assert empty[0].shape == (1, 0, 4) and empty[1].shape == (1, 0)


def test_visible_boxes_cull_with_the_image_box_rows():
    # the detector's cull rows are cull_rows of the box (0, 0, width, height):
    # behind the camera, or more than the margin past an image edge
    m = CULL_MARGIN_PX
    rows = cull_rows([(0.0, 0.0, float(K.width), float(K.height))], K)
    assert np.array_equal(rows, [
        [0.0, 0.0, 1.0],
        [K.fx, 0.0, K.cx + m], [-K.fx, 0.0, K.width + m - K.cx],
        [0.0, K.fy, K.cy + m], [0.0, -K.fy, K.height + m - K.cy],
    ])
