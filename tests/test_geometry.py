"""Projection / back-projection math checks.

The round-trip tests are the load-bearing ones: every later stage (point
generation, association, resampling weights) assumes that project and the
pixel rays of CameraIntrinsics.unit_rays are exact inverses along a ray.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsim.geometry import (
    CULL_MARGIN_PX,
    CameraIntrinsics,
    Pose,
    check_rotations,
    cull_rows,
    pixel_rows,
    project_points,
    transform_points,
    yaw_rotation,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=640, height=480)
IDENTITY = Pose(np.eye(3), np.zeros(3))


def from_yaw(yaw, translation) -> Pose:
    """Rotation about world z by yaw; an array of yaws gives a stack."""
    return Pose(yaw_rotation(yaw), translation)


def transform(pose: Pose, points) -> np.ndarray:
    """Apply a pose to one (3,) point or an (n, 3) batch; a stack of F poses
    gives (F, n, 3)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return pose.rotation @ pts + pose.translation
    return transform_points(pose.rotation, pose.translation, pts)


def rt(pose: Pose) -> tuple:
    """A pose as the (rotation, translation) arrays the kernels take."""
    return pose.rotation, pose.translation


class NonPositiveDepth(ValueError):
    """Point is at or behind the camera plane."""


def project(point, cam_from_world: Pose, k: CameraIntrinsics):
    """Reference projection of one world point; returns ((u, v), depth).

    Raises NonPositiveDepth when the point is at or behind the camera plane.
    """
    pc = transform(cam_from_world, np.asarray(point, dtype=float))
    depth = pc[2]
    if depth <= 0.0:
        raise NonPositiveDepth(f"depth {depth} <= 0")
    u = k.fx * pc[0] / depth + k.cx
    v = k.fy * pc[1] / depth + k.cy
    return np.array([u, v]), depth


def quaternion_rotation(q):
    q = np.asarray(q, dtype=float)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotation(rng):
    return quaternion_rotation(rng.normal(size=4))


def old_pose_check(r) -> bool:
    """Pose's orthonormality and determinant check as np.allclose wrote it."""
    return bool(np.allclose(r @ r.T, np.eye(3), atol=1e-9)) and abs(np.linalg.det(r) - 1.0) <= 1e-6


def pose_accepts(r) -> bool:
    try:
        Pose(r, np.zeros(3))
    except ValueError:
        return False
    return True


def random_pose(rng):
    return Pose(random_rotation(rng), rng.uniform(-50, 50, size=3))


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        pixel, depth = project(np.array([0.0, 0.0, 5.0]), IDENTITY, K)
        np.testing.assert_allclose(pixel, [320.0, 240.0])
        assert depth == 5.0

    def test_u_is_fx_x_over_z_plus_cx(self):
        # point (1, 0, 1): u = cx + fx * x/z = 320 + 100
        pixel, depth = project(np.array([1.0, 0.0, 1.0]), IDENTITY, K)
        np.testing.assert_allclose(pixel, [420.0, 240.0])
        assert depth == 1.0

    def test_behind_camera_raises(self):
        with pytest.raises(NonPositiveDepth):
            project(np.array([0.0, 0.0, -1.0]), IDENTITY, K)
        with pytest.raises(NonPositiveDepth):
            project(np.array([1.0, 1.0, 0.0]), IDENTITY, K)

    def test_round_trip_through_back_projection(self):
        # project, then walk the pixel's K^-1 ray out to the returned depth
        # (its z component is 1): must recover the world point.
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(200):
            cam_from_world = random_pose(rng)
            world_from_cam = cam_from_world.inverse()
            p_cam = np.array(
                [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 80)]
            )
            point = transform(world_from_cam, p_cam)
            pixel, depth = project(point, cam_from_world, K)
            unit_ray = K.unit_rays(pixel)[0]
            np.testing.assert_allclose(
                transform(world_from_cam, depth * unit_ray), point, atol=1e-9
            )
            hits += 1
        assert hits == 200

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        cam_from_world = random_pose(rng)
        world_from_cam = cam_from_world.inverse()
        pts = transform(
            world_from_cam,
            np.column_stack(
                [rng.uniform(-2, 2, 20), rng.uniform(-2, 2, 20), rng.uniform(1, 50, 20)]
            ),
        )
        uv, depths = project_points(pts, cam_from_world.rotation, cam_from_world.translation, K)
        for i in range(20):
            pixel, depth = project(pts[i], cam_from_world, K)
            np.testing.assert_allclose(uv[i], pixel, atol=1e-10)
            np.testing.assert_allclose(depths[i], depth, atol=1e-12)


def reference_projection(points, rotation, translation, k):
    """project_points as it was before the (3, n) kernel: points @ R^T + t
    over (..., n, 3), then the pinhole."""
    pc = points @ rotation.swapaxes(-1, -2) + translation[..., None, :]
    depths = pc[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.empty(pc.shape[:-1] + (2,))
        uv[..., 0] = k.fx * pc[..., 0] / depths + k.cx
        uv[..., 1] = k.fy * pc[..., 1] / depths + k.cy
    return pc, uv, depths


class TestCullRows:
    def test_a_negative_row_is_behind_or_past_the_margin(self):
        # for points in front of the camera, a box's edge row is negative
        # exactly where the projection lies more than the margin past that
        # edge (away from the margin line, where rounding may go either
        # way); the first row is negative exactly behind the camera
        rng = np.random.default_rng(11)
        m = CULL_MARGIN_PX
        for _ in range(100):
            u0, v0 = rng.uniform(-100.0, 600.0), rng.uniform(-100.0, 440.0)
            box = (u0, v0, u0 + rng.uniform(1.0, 300.0), v0 + rng.uniform(1.0, 300.0))
            points = np.column_stack([rng.uniform(-30.0, 30.0, (400, 2)),
                                      rng.uniform(-5.0, 50.0, 400)])
            negative = cull_rows([box], K) @ points.T < 0
            uv, depths = project_points(points, np.eye(3), np.zeros(3), K)
            assert np.array_equal(negative[0], depths < 0)
            front = depths > 0
            u, v = uv[front].T
            for row, pixel, edge, sign in zip(
                negative[1:, front], (u, u, v, v), (box[0] - m, box[2] + m, box[1] - m, box[3] + m),
                (1.0, -1.0, 1.0, -1.0),
            ):
                clear = np.abs(pixel - edge) > 1e-6
                assert np.array_equal(row[clear], (sign * (pixel - edge) < 0)[clear])

    def test_no_point_on_an_edge_is_culled(self):
        # the margin's job: n . p and the projection round apart, so on an
        # edge line a row without margin goes negative at points that
        # project into the box; with it, a point that a row culls projects
        # out of the box as project_points computes it
        rng = np.random.default_rng(12)
        n = 4000
        box = np.array([rng.uniform(0.0, 300.0), rng.uniform(0.0, 200.0), 0.0, 0.0])
        box[2:] = box[:2] + rng.uniform(10.0, 300.0, 2)
        pixels = rng.uniform(box[:2], box[2:], (n, 2))
        axis, side = rng.integers(0, 2, (2, n))
        pixels[np.arange(n), axis] = box[axis + 2 * side]  # snapped onto an edge
        z = rng.uniform(1.0, 50.0, n)
        points = np.column_stack([(pixels - [K.cx, K.cy]) * z[:, None] / [K.fx, K.fy], z])
        culled = (cull_rows([box], K) @ points.T < 0).any(axis=0)
        uv, _ = project_points(points, np.eye(3), np.zeros(3), K)
        inside = ((uv >= box[:2]) & (uv <= box[2:])).all(axis=1)
        assert 0.2 * n < inside.sum() < n  # the edges are hit from both sides
        assert not (culled & inside).any()


class TestKernelLayout:
    @given(
        n=st.integers(1, 5000),
        views=st.one_of(st.none(), st.integers(1, 8)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_projection_equals_reference(self, n, views, seed, scale):
        # bit-equal pixels, depths and transformed points, in the shapes and
        # C-order layout of the reference; points near the origin lie both
        # in front of and behind the cameras
        rng = np.random.default_rng(seed)
        if views is None:
            rotation, translation = random_rotation(rng), rng.uniform(-50, 50, 3)
        else:
            rotation = np.stack([random_rotation(rng) for _ in range(views)])
            translation = rng.uniform(-50, 50, (views, 3))
        points = rng.normal(size=(n, 3)) * scale
        want_pc, want_uv, want_depths = reference_projection(points, rotation, translation, K)
        uv, depths = project_points(points, rotation, translation, K)
        moved = transform_points(rotation, translation, points)
        for got, want in ((uv, want_uv), (depths, want_depths), (moved, want_pc)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want, equal_nan=True)

    def test_depth_zero_and_behind_equal_reference(self):
        # at depth 0 the pixels are inf or nan, behind the camera finite
        # garbage; either way they equal the reference's bit for bit
        points = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 3.0, -0.0],
                           [2.0, -1.0, -5.0], [1.0, 1.0, 4.0]])
        stacked = (np.stack([np.eye(3)] * 3), np.zeros((3, 3)))
        for rotation, translation in (rt(IDENTITY), stacked):
            _, want_uv, want_depths = reference_projection(points, rotation, translation, K)
            uv, depths = project_points(points, rotation, translation, K)
            assert np.array_equal(uv, want_uv, equal_nan=True)
            assert np.array_equal(depths, want_depths)
        assert np.isinf(uv[..., 0, 0]).all() and np.isnan(uv[..., 1, :]).all()

    def test_pixel_rows_projects_in_place(self):
        # u and v overwrite the x and y rows handed in and depths is their z
        # row, on one view and on a stack, so callers hand it rows of their own
        rng = np.random.default_rng(12)
        for shape in ((3, 40), (4, 3, 40)):
            pc = rng.normal(size=shape) * 5.0
            x, y, z = (pc[..., i, :].copy() for i in range(3))
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = pixel_rows(pc, K)
                want = (K.fx * x / z + K.cx, K.fy * y / z + K.cy, z)
            for i, (got, expected) in enumerate(zip(rows, want)):
                assert np.shares_memory(got, pc[..., i, :]) and got.shape == z.shape
                assert got.tobytes() == expected.tobytes() == pc[..., i, :].tobytes()

    def test_pose_transform_keeps_layout(self):
        rng = np.random.default_rng(41)
        pose = random_pose(rng)
        points = rng.normal(size=(4000, 3))
        # generate_points hands transform_points an F-order view
        for batch in (points, np.asfortranarray(points)):
            moved = transform(pose, batch)
            assert moved.shape == (4000, 3) and moved.flags.c_contiguous
            assert np.array_equal(moved, points @ pose.rotation.T + pose.translation)


class TestBackProjectRay:
    """A pixel's ray as generate_points builds it: world_from_cam applied to
    t * K.unit_rays(pixel), t being the camera-frame depth."""

    def test_origin_is_camera_position(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            world_from_cam = random_pose(rng)
            ray = K.unit_rays(np.array([[100.0, 100.0]]))[0]
            np.testing.assert_allclose(
                transform(world_from_cam, 0.0 * ray), world_from_cam.translation
            )

    def test_principal_point_identity_pose_points_forward(self):
        ray = K.unit_rays(np.array([[K.cx, K.cy]]))[0]
        np.testing.assert_array_equal(ray, [0.0, 0.0, 1.0])

    def test_projective_consistency_along_ray(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            world_from_cam = random_pose(rng)
            pixel = np.array([rng.uniform(0, K.width), rng.uniform(0, K.height)])
            ray = K.unit_rays(pixel)[0]
            for t in (1.0, 10.0, 100.0):
                reprojected, depth = project(
                    transform(world_from_cam, t * ray), world_from_cam.inverse(), K
                )
                np.testing.assert_allclose(reprojected, pixel, atol=1e-6)
                assert depth == pytest.approx(t)

    @given(
        u=st.floats(0, 640), v=st.floats(0, 480),
        t=st.floats(0.5, 1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ray_points_reproject_hypothesis(self, u, v, t):
        ray = K.unit_rays(np.array([[u, v]]))[0]
        reprojected, _ = project(t * ray, IDENTITY, K)
        np.testing.assert_allclose(reprojected, [u, v], atol=1e-6)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            pose = random_pose(rng)
            p = rng.uniform(-10, 10, 3)
            np.testing.assert_allclose(
                transform(pose.inverse(), transform(pose, p)), p, atol=1e-10
            )

    def test_from_yaw(self):
        pose = from_yaw(np.pi / 2.0, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            transform(pose, [1.0, 0.0, 0.0]), [1.0, 3.0, 3.0], atol=1e-12
        )

    def test_check_rotations_rejects_one_bad_matrix_in_a_stack(self):
        rng = np.random.default_rng(23)
        stack = np.stack([random_rotation(rng) for _ in range(8)])
        check_rotations(stack)
        Pose(stack, rng.uniform(-5, 5, size=(8, 3)))
        for bad in (np.diag([1.0, 1.0, 1.0 + 1e-4]), np.diag([1.0, 1.0, -1.0])):
            broken = stack.copy()
            broken[5] = bad @ broken[5]
            with pytest.raises(ValueError):
                check_rotations(broken)
            with pytest.raises(ValueError):
                Pose(broken, np.zeros((8, 3)))

    def test_stacked_pose_equals_each_pose(self):
        rng = np.random.default_rng(29)
        yaws = rng.uniform(-np.pi, np.pi, 16)
        positions = rng.uniform(-50, 50, size=(16, 3))
        stacked = from_yaw(yaws, positions).inverse()
        pts = rng.uniform(-10, 10, size=(7, 3))
        moved = transform(stacked, pts)
        uv, depths = project_points(pts, stacked.rotation, stacked.translation, K)
        for i, (yaw, position) in enumerate(zip(yaws, positions)):
            one = from_yaw(float(yaw), position).inverse()
            assert np.array_equal(stacked.rotation[i], one.rotation)
            assert np.array_equal(stacked.translation[i], one.translation)
            assert np.array_equal(moved[i], transform(one, pts))
            one_uv, one_depths = project_points(pts, one.rotation, one.translation, K)
            assert np.array_equal(uv[i], one_uv) and np.array_equal(depths[i], one_depths)

    def test_diagonal_rtol_band_accepted(self):
        # np.allclose's default rtol loosens the diagonal of r @ r.T to
        # 1e-5 + 1e-9; the off-diagonal keeps atol 1e-9
        r = quaternion_rotation([0.9, 0.1, -0.3, 0.2])
        assert pose_accepts(np.diag([1 + 3e-6, 1 - 3e-6, 1.0]) @ r)
        assert not pose_accepts(np.diag([1 + 6e-6, 1 - 6e-6, 1.0]) @ r)

    @given(
        q=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
        band=st.floats(-1e-5, 1e-5),
        tilt=st.floats(-2e-6, 2e-6),
        off=st.floats(-3e-9, 3e-9),
        reflect=st.booleans(),
    )
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_check_matches_allclose_and_det(self, q, band, tilt, off, reflect):
        # rows scaled by 1 + band and 1 - band straddle the diagonal rtol
        # bound while keeping det near 1; tilt straddles the det bound, off
        # the off-diagonal atol bound; some rotations are reflected
        r = np.diag([1.0 + band, 1.0 - band, 1.0 + tilt]) @ quaternion_rotation(q)
        r[0, 1] += off
        if reflect:
            r = -r
        assert pose_accepts(r) == old_pose_check(r)
