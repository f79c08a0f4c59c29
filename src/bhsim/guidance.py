"""Pixel-space interception guidance.

Maps a target's pixel offset from the principal point into a camera-frame
velocity command along the line of sight, a desired yaw, and the
vehicle-frame (NED) velocity obtained by rotating through the camera
mount and the vehicle heading.  All functions are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vehicle import wrap_angle

Vec3 = tuple[float, float, float]

YAW_MODES = ("horizontal_offset", "image_bearing")


@dataclass(frozen=True)
class PixelTarget:
    """Target pixel offset from the principal point plus the focal length."""

    x_px: float
    y_px: float
    focal_px: float

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")


def los_unit_vector(t: PixelTarget) -> Vec3:
    """Unit camera-frame vector pointing at the target pixel.

    ``(x_px, y_px, f) / sqrt(x_px^2 + y_px^2 + f^2)`` - the direction of
    the ray through the target, with z along the optic axis.
    """
    norm = math.sqrt(t.x_px * t.x_px + t.y_px * t.y_px + t.focal_px * t.focal_px)
    return (t.x_px / norm, t.y_px / norm, t.focal_px / norm)


def velocity_command_camera(t: PixelTarget, speed: float) -> Vec3:
    """Camera-frame velocity of magnitude ``speed`` along the line of sight.

    The component along the optic axis uses the focal length as the third
    coordinate, so the command always lies exactly on the target ray.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    ux, uy, uz = los_unit_vector(t)
    return (speed * ux, speed * uy, speed * uz)


def desired_yaw(t: PixelTarget, mode: str = "horizontal_offset") -> Optional[float]:
    """Yaw command for centering the target horizontally.

    ``horizontal_offset`` (default, used in closed loop): the yaw offset
    ``atan(x_px / f)`` to add to the current heading; None means hold.
    ``image_bearing``: the four-quadrant in-image bearing
    ``atan2(y_px, x_px)``, kept for open-loop fidelity checks; None when
    the target sits exactly on the principal point.
    """
    if mode == "horizontal_offset":
        if t.x_px == 0.0:
            return None
        return math.atan(t.x_px / t.focal_px)
    if mode == "image_bearing":
        if t.x_px == 0.0 and t.y_px == 0.0:
            return None
        return math.atan2(t.y_px, t.x_px)
    raise ValueError(f"unknown yaw mode {mode!r}")


def to_vehicle_frame(
    v_camera: Vec3, r_cam_to_body: np.ndarray, r_body_to_vehicle: np.ndarray
) -> Vec3:
    """Rotate a camera-frame vector through body into the vehicle frame."""
    v = r_body_to_vehicle @ (r_cam_to_body @ np.asarray(v_camera, dtype=float))
    return (float(v[0]), float(v[1]), float(v[2]))


def yaw_rate_command(
    psi_des: float, psi: float, gain: float, limit: float
) -> float:
    """Proportional, saturated yaw rate toward the desired heading."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    err = wrap_angle(psi_des - psi)
    return max(-limit, min(limit, gain * err))
