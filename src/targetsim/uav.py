"""Kinematic waypoint follower standing in for a full flight stack.

The vehicle is a point with yaw: velocity ramps along a trapezoidal
profile under speed/acceleration caps, yaw slews at a bounded rate, and
the pose estimate is the true pose plus bounded (3-sigma truncated)
Gaussian position noise. `fly` moves the true state and draws nothing;
`step` draws a frame's estimate. Roll and pitch are not modeled; the
camera hangs from the body on a fixed downward-pitched mount.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, norm, yaw_rotation
from .view_planner import Waypoint

REACH_DIST = 0.2  # meters
REACH_YAW = 0.05  # radians


@dataclass(frozen=True)
class UavConfig:
    v_max: float = 1.0  # m/s
    a_max: float = 1.0  # m/s^2
    yaw_rate_max: float = 1.0  # rad/s
    pose_noise_sigma: float = 0.0  # meters, truncated at 3 sigma
    dt: float = 0.1  # seconds
    start_position: tuple | None = None  # defaults to the first search waypoint

    def __post_init__(self):
        if min(self.v_max, self.a_max, self.yaw_rate_max, self.dt) <= 0:
            raise ValueError("kinematic limits and dt must be positive")
        if not np.isfinite((self.a_max * self.dt) * (self.a_max * self.dt)):  # fly squares it
            raise ValueError(f"a_max * dt {self.a_max * self.dt} is too large to square")
        if self.pose_noise_sigma < 0:
            raise ValueError("pose noise sigma must be >= 0")
        if self.start_position is not None and len(self.start_position) != 3:
            raise ValueError(f"start_position needs 3 coordinates, got {len(self.start_position)}")


@dataclass(frozen=True)
class UavState:
    """The true state; each frame's position estimate comes from step."""

    position: np.ndarray
    yaw: float
    velocity: np.ndarray

    @classmethod
    def at_rest(cls, position, yaw: float = 0.0) -> "UavState":
        return cls(np.array(position, dtype=float).reshape(3), yaw, np.zeros(3))


def wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2.0 * np.pi) - np.pi)


def fly(state: UavState, target: Waypoint, cfg: UavConfig) -> UavState:
    """The true state one dt later, flown toward the waypoint. It draws
    nothing, so a flight depends only on its start and its waypoints."""
    to_target = target.position - state.position
    dist = norm(to_target)
    speed_prev = norm(state.velocity)
    if dist > 1e-12:
        direction = to_target / dist
        # braking speed solved implicitly so that after the trapezoidal
        # step the state still sits on the a_max stopping curve
        a, dt = cfg.a_max, cfg.dt
        disc = (a * dt) ** 2 - 4.0 * (a * speed_prev * dt - 2.0 * a * dist)
        braking = max(0.0, (-a * dt + math.sqrt(max(0.0, disc))) / 2.0)
        speed = min(cfg.v_max, speed_prev + a * dt, braking)
        move = 0.5 * (speed_prev + speed) * dt  # trapezoidal integration
        if move >= dist - 1e-12:  # final step: land on the waypoint
            position = target.position.copy()
            velocity = direction * min(speed, dist / dt)
        else:
            position = state.position + direction * move
            velocity = direction * speed
    else:
        position = state.position.copy()
        velocity = np.zeros(3)

    dyaw = wrap_angle(target.yaw - state.yaw)
    max_step = cfg.yaw_rate_max * cfg.dt
    yaw = wrap_angle(state.yaw + min(max_step, max(-max_step, dyaw)))
    return UavState(position=position, yaw=yaw, velocity=velocity)


def step(position: np.ndarray, cfg: UavConfig, rng: np.random.Generator) -> np.ndarray:
    """A frame's position estimate: the true position plus truncated noise,
    or the position itself without noise. The estimate shares the true yaw."""
    if cfg.pose_noise_sigma == 0:
        return position
    noise = rng.normal(0.0, cfg.pose_noise_sigma, size=3)
    bound = 3.0 * cfg.pose_noise_sigma
    return position + np.minimum(np.maximum(noise, -bound), bound)  # np.clip, bit for bit


def waypoint_reached(state: UavState, target: Waypoint) -> bool:
    return (
        norm(target.position - state.position) <= REACH_DIST
        and abs(wrap_angle(target.yaw - state.yaw)) <= REACH_YAW
    )


@functools.lru_cache(maxsize=16)
def camera_mount(depression: float) -> np.ndarray:
    """Body-to-camera mount rotation: camera pitched `depression` below
    horizontal, facing along body x (OpenCV camera axes). Built once per
    depression and shared, so it is read-only."""
    s, c = np.sin(depression), np.cos(depression)
    mount = np.array([[0.0, -s, c], [-1.0, 0.0, 0.0], [0.0, -c, -s]])
    mount.flags.writeable = False
    return mount


def camera_pose(yaw, position, depression: float) -> Pose:
    """World-from-camera pose of a level body at yaw and position, with the
    fixed mount. Arrays of yaws (F,) and positions (F, 3) give a stack."""
    return Pose(yaw_rotation(yaw) @ camera_mount(depression), position)
