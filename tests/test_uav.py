"""Kinematic follower: trapezoidal legs, caps, bounded pose noise."""

import numpy as np
import pytest

from targetsim.geometry import Pose
from targetsim.uav import (
    UavConfig,
    UavState,
    camera_mount,
    camera_pose,
    fly,
    step,
    waypoint_reached,
    wrap_angle,
)

from tests.test_geometry import from_yaw
from targetsim.view_planner import Waypoint

CFG = UavConfig(v_max=1.0, a_max=1.0, yaw_rate_max=1.0, dt=0.1)


def fly_and_step(state, wp, cfg, rng):
    """One frame: the true flight toward wp, then the frame's estimate."""
    return step(fly(state, wp, cfg), cfg, rng)


def fly_until_landed(state, wp, cfg, rng, max_steps=5000):
    t = 0.0
    for _ in range(max_steps):
        state = fly_and_step(state, wp, cfg, rng)
        t += cfg.dt
        if np.linalg.norm(state.position - wp.position) < 1e-9:
            return state, t
    raise AssertionError("never landed")


def test_ten_meter_leg_takes_eleven_seconds():
    # closed form: 1 s accel (0.5 m) + 9 m cruise + 1 s decel = 11 s
    state = UavState.at_rest([0.0, 0.0, 10.0])
    _, t = fly_until_landed(state, Waypoint([10.0, 0.0, 10.0], 0.0), CFG, np.random.default_rng(0))
    assert abs(t - 11.0) <= CFG.dt


def test_zero_noise_estimate_equals_truth():
    state = UavState.at_rest([0.0, 0.0, 10.0])
    rng = np.random.default_rng(0)
    wp = Waypoint([5.0, 3.0, 12.0], 0.4)
    for _ in range(100):
        state = fly_and_step(state, wp, CFG, rng)
        np.testing.assert_array_equal(state.est_position, state.position)


def test_flight_draws_nothing_and_step_draws_only_the_estimate():
    # fly reads no generator; step keeps the flown true state and draws
    # three normals for the estimate, or nothing without pose noise
    cfg = UavConfig(pose_noise_sigma=0.1, dt=0.1)
    wp = Waypoint([5.0, 3.0, 12.0], 0.4)
    flown = fly(UavState.at_rest([0.0, 0.0, 10.0]), wp, cfg)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    state = step(flown, cfg, rng)
    assert np.array_equal(state.position, flown.position) and state.yaw == flown.yaw
    assert np.array_equal(state.velocity, flown.velocity)
    np.testing.assert_array_equal(
        state.est_position, flown.position + np.clip(twin.normal(0.0, 0.1, 3), -0.3, 0.3)
    )
    assert rng.random() == twin.random()
    rng = np.random.default_rng(4)
    step(flown, CFG, rng)
    assert rng.random() == np.random.default_rng(4).random()


def test_speed_never_exceeds_cap():
    rng = np.random.default_rng(7)
    state = UavState.at_rest([0.0, 0.0, 10.0])
    for _ in range(50):
        wp = Waypoint(rng.uniform(-20, 20, 3), rng.uniform(-np.pi, np.pi))
        for _ in range(40):
            state = fly_and_step(state, wp, CFG, rng)
            assert np.linalg.norm(state.velocity) <= CFG.v_max + 1e-9


def test_monotone_progress_on_straight_leg():
    state = UavState.at_rest([0.0, 0.0, 10.0])
    wp = Waypoint([25.0, 0.0, 10.0], 0.0)
    rng = np.random.default_rng(0)
    prev = np.linalg.norm(state.position - wp.position)
    for _ in range(400):
        state = fly_and_step(state, wp, CFG, rng)
        d = np.linalg.norm(state.position - wp.position)
        assert d <= prev + 1e-12
        prev = d


def test_pose_noise_bounded_at_three_sigma():
    cfg = UavConfig(pose_noise_sigma=0.1, dt=0.1)
    state = UavState.at_rest([0.0, 0.0, 10.0])
    rng = np.random.default_rng(3)
    wp = Waypoint([50.0, 0.0, 10.0], 0.0)
    errs = []
    for _ in range(2000):
        state = fly_and_step(state, wp, cfg, rng)
        err = np.linalg.norm(state.est_position - state.position)
        assert np.all(np.abs(state.est_position - state.position) <= 0.3 + 1e-12)
        errs.append(err)
    assert max(errs) > 0.05  # noise is actually injected


def test_yaw_slew_rate_limited():
    state = UavState.at_rest([0.0, 0.0, 10.0], yaw=0.0)
    wp = Waypoint([0.0, 0.0, 10.0], np.pi)
    rng = np.random.default_rng(0)
    prev_yaw = state.yaw
    for _ in range(60):
        state = fly_and_step(state, wp, CFG, rng)
        assert abs(wrap_angle(state.yaw - prev_yaw)) <= CFG.yaw_rate_max * CFG.dt + 1e-12
        prev_yaw = state.yaw
    assert abs(wrap_angle(state.yaw - np.pi)) < 1e-9


def test_waypoint_reached_tolerances():
    wp = Waypoint([1.0, 0.0, 10.0], 0.0)
    at = UavState.at_rest([1.05, 0.0, 10.0], 0.01)
    off_pos = UavState.at_rest([1.5, 0.0, 10.0], 0.0)
    off_yaw = UavState.at_rest([1.0, 0.0, 10.0], 0.5)
    assert waypoint_reached(at, wp)
    assert not waypoint_reached(off_pos, wp)
    assert not waypoint_reached(off_yaw, wp)


class TestCameraMount:
    def test_mount_is_rotation(self):
        r = camera_mount(np.deg2rad(60.0))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_mount_built_once_and_read_only(self):
        # camera_pose runs every frame; the mount is shared, so no caller
        # may write into it
        gamma = np.deg2rad(60.0)
        r = camera_mount(gamma)
        assert camera_mount(gamma) is r and not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 1.0

    def test_view_axis_depressed_by_gamma(self):
        gamma = np.deg2rad(60.0)
        cam = camera_pose(0.0, [0.0, 0.0, 30.0], gamma)
        view = cam.rotation[:, 2]  # camera z in world
        np.testing.assert_allclose(view, [np.cos(gamma), 0.0, -np.sin(gamma)], atol=1e-12)

    def test_point_on_axis_projects_to_principal_point(self):
        from targetsim.geometry import CameraIntrinsics

        from tests.test_geometry import project

        k = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
        gamma = np.deg2rad(60.0)
        cam = camera_pose(0.7, [5.0, -3.0, 30.0], gamma)
        ahead = cam.translation + 20.0 * cam.rotation[:, 2]
        pixel, depth = project(ahead, cam.inverse(), k)
        np.testing.assert_allclose(pixel, [320.0, 240.0], atol=1e-9)
        assert depth == pytest.approx(20.0)

    def test_image_right_matches_world_right_of_travel(self):
        cam = camera_pose(0.0, np.zeros(3), np.deg2rad(60.0))
        np.testing.assert_allclose(cam.rotation[:, 0], [0.0, -1.0, 0.0], atol=1e-12)


def test_camera_stack_equals_per_state_chain():
    # the run's per-frame (true, estimated) stack against the chain each
    # state used to build alone: body pose, then mount, then inverse
    rng = np.random.default_rng(31)
    for _ in range(250):
        yaws = rng.uniform(-np.pi, np.pi, 2)
        positions = np.stack([rng.uniform(-200.0, 200.0, 3), np.zeros(3)])
        positions[1] = positions[0] + rng.normal(0.0, 0.3, 3)
        gamma = rng.uniform(0.2, np.pi / 2.0)
        assert yaws[0] != yaws[1] and not np.array_equal(positions[0], positions[1])
        cams = camera_pose(yaws, positions, gamma)
        views = cams.inverse()
        for i in range(2):
            body = from_yaw(float(yaws[i]), positions[i])
            chain = Pose(body.rotation @ camera_mount(gamma), body.translation)
            inverse = chain.inverse()
            assert np.array_equal(cams.rotation[i], chain.rotation)
            assert np.array_equal(cams.translation[i], chain.translation)
            assert np.array_equal(views.rotation[i], inverse.rotation)
            assert np.array_equal(views.translation[i], inverse.translation)
            one = camera_pose(float(yaws[i]), positions[i], gamma)
            assert np.array_equal(one.rotation, chain.rotation)
