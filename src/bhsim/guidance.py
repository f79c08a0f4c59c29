"""Pixel-space interception guidance.

Maps a target's pixel offset from the principal point into a camera-frame
velocity command along the line of sight and a yaw offset that centers
the target horizontally; ``vehicle.camera_to_world`` carries the command
into the world frame.  All functions are stateless.
"""

import math
from typing import Optional

from .vehicle import wrap_angle

Vec3 = tuple[float, float, float]


class PixelTarget:
    """Target pixel offset from the principal point plus the focal length."""

    __slots__ = ("x_px", "y_px", "focal_px")

    def __init__(self, x_px: float, y_px: float, focal_px: float) -> None:
        if focal_px <= 0:
            raise ValueError("focal length must be positive")
        self.x_px = x_px
        self.y_px = y_px
        self.focal_px = focal_px


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


def desired_yaw(t: PixelTarget) -> Optional[float]:
    """Yaw offset ``atan(x_px / f)`` that centers the target horizontally.

    Add it to the current heading; None means the target is already
    centered and the heading is held.
    """
    if t.x_px == 0.0:
        return None
    return math.atan(t.x_px / t.focal_px)


def yaw_rate_command(
    psi_des: float, psi: float, gain: float, limit: float
) -> float:
    """Proportional, saturated yaw rate toward the desired heading."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    err = wrap_angle(psi_des - psi)
    return max(-limit, min(limit, gain * err))
