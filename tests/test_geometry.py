"""Projection / back-projection math checks.

The round-trip tests are the load-bearing ones: every later stage (point
generation, association, resampling weights) assumes that project and the
pixel rays of CameraIntrinsics.unit_rays are exact inverses along a ray.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsim.geometry import CameraIntrinsics, NonPositiveDepth, Pose, project, project_points

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=640, height=480)


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
        pixel, depth = project(np.array([0.0, 0.0, 5.0]), Pose.identity(), K)
        np.testing.assert_allclose(pixel, [320.0, 240.0])
        assert depth == 5.0

    def test_u_is_fx_x_over_z_plus_cx(self):
        # point (1, 0, 1): u = cx + fx * x/z = 320 + 100
        pixel, depth = project(np.array([1.0, 0.0, 1.0]), Pose.identity(), K)
        np.testing.assert_allclose(pixel, [420.0, 240.0])
        assert depth == 1.0

    def test_behind_camera_raises(self):
        with pytest.raises(NonPositiveDepth):
            project(np.array([0.0, 0.0, -1.0]), Pose.identity(), K)
        with pytest.raises(NonPositiveDepth):
            project(np.array([1.0, 1.0, 0.0]), Pose.identity(), K)

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
            point = world_from_cam.transform(p_cam)
            pixel, depth = project(point, cam_from_world, K)
            unit_ray = K.unit_rays(pixel)[0]
            np.testing.assert_allclose(
                world_from_cam.transform(depth * unit_ray), point, atol=1e-9
            )
            hits += 1
        assert hits == 200

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        cam_from_world = random_pose(rng)
        world_from_cam = cam_from_world.inverse()
        pts = world_from_cam.transform(
            np.column_stack(
                [rng.uniform(-2, 2, 20), rng.uniform(-2, 2, 20), rng.uniform(1, 50, 20)]
            )
        )
        uv, depths = project_points(pts, cam_from_world, K)
        for i in range(20):
            pixel, depth = project(pts[i], cam_from_world, K)
            np.testing.assert_allclose(uv[i], pixel, atol=1e-10)
            np.testing.assert_allclose(depths[i], depth, atol=1e-12)


class TestBackProjectRay:
    """A pixel's ray as generate_points builds it: world_from_cam applied to
    t * K.unit_rays(pixel), t being the camera-frame depth."""

    def test_origin_is_camera_position(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            world_from_cam = random_pose(rng)
            ray = K.unit_rays(np.array([[100.0, 100.0]]))[0]
            np.testing.assert_allclose(
                world_from_cam.transform(0.0 * ray), world_from_cam.translation
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
                    world_from_cam.transform(t * ray), world_from_cam.inverse(), K
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
        reprojected, _ = project(t * ray, Pose.identity(), K)
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
            np.testing.assert_allclose(pose.inverse().transform(pose.transform(p)), p, atol=1e-10)

    def test_from_yaw(self):
        pose = Pose.from_yaw(np.pi / 2.0, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(pose.transform([1.0, 0.0, 0.0]), [1.0, 3.0, 3.0], atol=1e-12)

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
