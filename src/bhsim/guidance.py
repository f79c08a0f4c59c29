"""Pixel-space interception guidance.

Maps a target's pixel offset from the principal point and the focal
length, all in pixels, into a camera-frame velocity command along the
line of sight and a yaw offset that centers the target horizontally;
``vehicle.camera_to_world`` carries the command into the world frame.
All functions are stateless.
"""

import math
from typing import Optional

from .vehicle import wrap_angle

Vec3 = tuple[float, float, float]


def velocity_command_camera(
    x_px: float, y_px: float, focal_px: float, speed: float
) -> Vec3:
    """Camera-frame velocity of magnitude ``speed`` along the line of sight.

    The line of sight is ``(x_px, y_px, focal_px) / sqrt(x_px^2 + y_px^2
    + focal_px^2)``: the ray through the target pixel offset from the
    principal point, with z along the optic axis.  Using the focal length
    as the third coordinate puts the command exactly on the target ray.
    """
    norm = math.sqrt(x_px * x_px + y_px * y_px + focal_px * focal_px)
    return (speed * (x_px / norm), speed * (y_px / norm), speed * (focal_px / norm))


def desired_yaw(x_px: float, focal_px: float) -> Optional[float]:
    """Yaw offset ``atan(x_px / focal_px)`` that centers the target
    horizontally.

    Add it to the current heading; None means the target is already
    centered and the heading is held.
    """
    if x_px == 0.0:
        return None
    return math.atan(x_px / focal_px)


def yaw_rate_command(
    psi_des: float, psi: float, gain: float, limit: float
) -> float:
    """Proportional, saturated yaw rate toward the desired heading."""
    err = wrap_angle(psi_des - psi)
    return max(-limit, min(limit, gain * err))
