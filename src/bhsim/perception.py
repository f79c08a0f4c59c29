"""Synthetic vision: pinhole projection, noisy detections, and ranging.

Stands in for the onboard balloon detector.  Balloons are projected
through an ideal pinhole camera; a parameterized noise model corrupts
centers and sizes, drops detections, and injects false alarms.  Bounding
boxes are circle-fit along their major axis and ranged from the known
balloon diameter via the small-angle width ``f * D / Z``.  Range
estimation inverts the same small-angle model, so generation and
inversion are exactly consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .rng import Stream
from .vehicle import UavState, heading, world_to_camera
from .world import WorldState

Vec3 = tuple[float, float, float]

MIN_CIRCLE_RADIUS_PX = 0.5
CONFIDENCE_RANGE_SCALE_M = 50.0
FALSE_ALARM_SIZE_PX = (2.0, 30.0)


class DegenerateCircle(ValueError):
    """Fitted circle too small to range from."""


@dataclass(frozen=True)
class CameraIntrinsics:
    focal_px: float = 600.0
    width_px: float = 1280.0
    height_px: float = 720.0
    # The image center, worked out once here: a plain instance attribute
    # reads faster in the projection loop than a property would.
    principal: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")
        object.__setattr__(
            self, "principal", (self.width_px / 2.0, self.height_px / 2.0)
        )


@dataclass(frozen=True)
class Detection:
    """One bounding-box observation, centered relative to the principal point.

    ``truth_id`` is the ground-truth balloon id kept for scoring only;
    the tracker consumes plain box measurements and never sees it.
    """

    center_x: float
    center_y: float
    width: float
    height: float
    confidence: float
    truth_id: Optional[int] = None


@dataclass(frozen=True)
class NoiseModel:
    center_sigma: float = 2.0
    size_sigma_frac: float = 0.05
    p_miss_base: float = 0.05
    p_miss_range_scale: float = 0.002
    false_alarm_rate: float = 0.1
    confidence_floor: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_miss_base <= 1.0:
            raise ValueError("p_miss_base must be a probability")
        if not 0.0 <= self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in [0, 1]")
        if min(self.center_sigma, self.size_sigma_frac, self.p_miss_range_scale,
               self.false_alarm_rate) < 0:
            raise ValueError("noise rates must be non-negative")


ZERO_NOISE = NoiseModel(
    center_sigma=0.0,
    size_sigma_frac=0.0,
    p_miss_base=0.0,
    p_miss_range_scale=0.0,
    false_alarm_rate=0.0,
    confidence_floor=0.0,
)


def project_point(
    camera: CameraIntrinsics, uav: UavState, point_world: Vec3
) -> Optional[tuple[float, float, float]]:
    """Project a world point seen from a UAV's forward camera.

    Returns ``(p_x, p_y, depth)`` with pixels measured from the principal
    point and depth along the optic axis in meters; None if the point is
    behind the camera or off-image.
    """
    return _project(camera, uav.position, heading(uav.yaw), point_world)


def _project(
    camera: CameraIntrinsics,
    position: Vec3,
    cos_sin: tuple[float, float],
    point_world: Vec3,
) -> Optional[tuple[float, float, float]]:
    """``project_point`` from a camera at ``position`` with the heading
    already taken (``vehicle.heading``)."""
    cam_x, cam_y, cam_z = world_to_camera(
        (
            point_world[0] - position[0],
            point_world[1] - position[1],
            point_world[2] - position[2],
        ),
        cos_sin,
    )
    if cam_z <= 0.0:
        return None
    px = camera.focal_px * cam_x / cam_z
    py = camera.focal_px * cam_y / cam_z
    u = camera.principal[0] + px
    v = camera.principal[1] + py
    if not (0.0 <= u <= camera.width_px and 0.0 <= v <= camera.height_px):
        return None
    return (px, py, cam_z)


def generate_detections(
    camera: CameraIntrinsics,
    uav: UavState,
    world: WorldState,
    noise: NoiseModel,
    rng: Stream,
) -> list[Detection]:
    """Detections for one frame: noisy true boxes plus false alarms.

    Each alive balloon whose center projects into the image is detected
    with probability ``1 - min(1, p_miss_base + p_miss_range_scale * Z)``;
    detected boxes get Gaussian center noise and multiplicative size
    noise around the small-angle width ``f * D / Z``.  False alarms are
    Poisson-distributed, uniform over the image, and carry no truth id.
    """
    position = uav.position
    cos_sin = heading(uav.yaw)
    visible: list[tuple] = []
    for balloon, center in zip(world.balloons, world.centers):
        if center is None:
            continue
        proj = _project(camera, position, cos_sin, center)
        if proj is None:
            continue
        visible.append((balloon, proj))
    detections: list[Detection] = []
    for balloon, (px, py, depth) in visible:
        # Occlusion: hidden when the center falls inside the projected
        # disc of a strictly nearer balloon.
        occluded = False
        for other, (ox, oy, od) in visible:
            if od >= depth or other.id == balloon.id:
                continue
            disc = camera.focal_px * other.diameter / (2.0 * od)
            if math.hypot(px - ox, py - oy) < disc:
                occluded = True
                break
        if occluded:
            continue
        p_miss = min(1.0, noise.p_miss_base + noise.p_miss_range_scale * depth)
        if rng.random() < p_miss:
            continue
        size = camera.focal_px * balloon.diameter / depth
        cx = px + noise.center_sigma * rng.standard_normal()
        cy = py + noise.center_sigma * rng.standard_normal()
        factor = max(0.05, 1.0 + noise.size_sigma_frac * rng.standard_normal())
        confidence = max(
            noise.confidence_floor, 1.0 - depth / CONFIDENCE_RANGE_SCALE_M
        )
        detections.append(
            Detection(
                center_x=cx,
                center_y=cy,
                width=size * factor,
                height=size * factor,
                confidence=confidence,
                truth_id=balloon.id,
            )
        )
    if noise.false_alarm_rate > 0.0:
        n_false = int(rng.poisson(noise.false_alarm_rate))
        lo_s, hi_s = FALSE_ALARM_SIZE_PX
        for _ in range(n_false):
            cx = camera.width_px * rng.random() - camera.principal[0]
            cy = camera.height_px * rng.random() - camera.principal[1]
            size = lo_s + (hi_s - lo_s) * rng.random()
            conf = noise.confidence_floor + (1.0 - noise.confidence_floor) * rng.random()
            detections.append(
                Detection(
                    center_x=cx,
                    center_y=cy,
                    width=size,
                    height=size,
                    confidence=conf,
                    truth_id=None,
                )
            )
    return detections


def fit_circle(width: float, height: float) -> float:
    """Pixel radius of the circle fitted to a box: half its major axis."""
    return max(width, height) / 2.0


def estimate_range(radius: float, camera: CameraIntrinsics, diameter: float) -> float:
    """Range to a sphere of known diameter from its fitted pixel radius."""
    if radius < MIN_CIRCLE_RADIUS_PX:
        raise DegenerateCircle(f"radius {radius} px below {MIN_CIRCLE_RADIUS_PX}")
    return camera.focal_px * diameter / (2.0 * radius)
