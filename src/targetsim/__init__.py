"""Deterministic simulator for UAV target search, localization, and mapping."""

from .bounding_cylinder import BoundingCylinder, fit_bounding_cylinder
from .detector import Detection, DetectorConfig, TargetModel, detect, ellipsoid_target
from .geometry import CameraIntrinsics, Pose
from .harness import run
from .mission import MissionConfig, MissionExecutive, MissionMode
from .points_filter import (
    FilterConfig,
    GaussianSummary,
    PointsFilter,
    PointTarget,
    TargetState,
    differential_entropy,
    kl_divergence,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .tracker import BoxTracker, TrackedBox, TrackerConfig, hungarian_assign, iou
from .uav import UavConfig, UavState, camera_pose
from .view_planner import PlannerConfig, Waypoint, estimation_circle, lawnmower, mapping_circles

__version__ = "0.1.0"
