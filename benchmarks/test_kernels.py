"""Microbenchmarks of the per-frame kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/ -q

This directory is outside the tier-1 `testpaths`, so the plain test run
does not collect it. Inputs are sized like the benchmark workloads: five
400-point true targets (survey5) and 4,000-point clouds, about seven live
at once (clutter1), seen by the survey camera at 30 m.
"""

import numpy as np
import pytest

from targetsim.detector import Surfaces, ellipsoid_target, visible_bboxes
from targetsim.geometry import CameraIntrinsics, Pose, project_points
from targetsim.points_filter import (
    FilterConfig,
    PointTarget,
    TargetState,
    generate_points,
    projection_count_costs,
    update_points,
)
from targetsim.tracker import hungarian_assign
from targetsim.uav import camera_pose

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
WORLD_FROM_CAM = camera_pose(Pose.from_yaw(0.0, [0.0, 0.0, 30.0]), np.deg2rad(60.0))
CAM_FROM_WORLD = WORLD_FROM_CAM.inverse()
CFG = FilterConfig(m=4000, max_depth=50.0)
BOXES = [
    np.array([280.0, 200.0, 360.0, 280.0]),
    np.array([100.0, 100.0, 160.0, 160.0]),
    np.array([480.0, 300.0, 540.0, 360.0]),
]


@pytest.fixture(scope="module")
def surfaces():
    # five true targets ahead of the camera, all in view
    return Surfaces.of(
        [
            ellipsoid_target(f"t{i}", [17.0 + 3.0 * i, -6.0 + 3.0 * i, 1.0], [1.0, 1.0, 1.0])
            for i in range(5)
        ]
    )


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(0)
    return [
        PointTarget(
            target_id=i + 1,
            points=generate_points(BOXES[i % len(BOXES)], WORLD_FROM_CAM, K, CFG, rng),
            state=TargetState.TRACKING,
            last_keyframe=WORLD_FROM_CAM,
        )
        for i in range(7)
    ]


def test_project_points(benchmark, clouds):
    benchmark(project_points, clouds[0].points, CAM_FROM_WORLD, K)


def test_visible_bboxes(benchmark, surfaces):
    boxes = benchmark(visible_bboxes, surfaces, CAM_FROM_WORLD, K)
    assert len(boxes) == 5


def test_update_points(benchmark, clouds):
    rng = np.random.default_rng(1)
    benchmark(update_points, clouds[0].points, BOXES[0], CAM_FROM_WORLD, K, CFG, rng)


def test_projection_count_costs(benchmark, clouds):
    costs = benchmark(projection_count_costs, BOXES, clouds, CAM_FROM_WORLD, K)
    assert costs.shape == (len(BOXES), len(clouds))


def test_hungarian_assign(benchmark, clouds):
    costs = projection_count_costs(BOXES, clouds, CAM_FROM_WORLD, K)
    benchmark(hungarian_assign, costs, maximize=True)
