"""Synthetic vision: pinhole projection, noisy detections, and ranging.

Stands in for the onboard balloon detector.  Balloons are projected
through an ideal pinhole camera; a parameterized noise model corrupts
centers and sizes, drops detections, and injects false alarms.  Bounding
boxes are circle-fit along their major axis and ranged from the known
balloon diameter via the small-angle width ``f * D / Z``.  Range
estimation inverts the same small-angle model, so generation and
inversion are exactly consistent.
"""

import math
from typing import NamedTuple, Optional

from .rng import Stream
from .vehicle import UavState, heading, world_to_camera
from .world import Checked, WorldState

Vec3 = tuple[float, float, float]

MIN_CIRCLE_RADIUS_PX = 0.5
CONFIDENCE_RANGE_SCALE_M = 50.0
FALSE_ALARM_SIZE_PX = (2.0, 30.0)


class DegenerateCircle(ValueError):
    """Fitted circle too small to range from."""


class _CameraFields(NamedTuple):
    focal_px: float = 600.0
    width_px: float = 1280.0
    height_px: float = 720.0


class CameraIntrinsics(Checked, _CameraFields):
    """Pinhole camera: focal length and image size in pixels."""

    __slots__ = ()

    def _check(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")

    @property
    def principal(self) -> tuple[float, float]:
        """The image center."""
        return (self.width_px / 2.0, self.height_px / 2.0)


class Detection(NamedTuple):
    """One bounding-box observation, centered relative to the principal point.

    ``truth_id`` is the ground-truth balloon's index in the world, kept
    for scoring only; the tracker consumes plain box measurements and
    never sees it.
    """

    center_x: float
    center_y: float
    width: float
    height: float
    confidence: float
    truth_id: Optional[int] = None


class _NoiseFields(NamedTuple):
    center_sigma: float = 2.0
    size_sigma_frac: float = 0.05
    p_miss_base: float = 0.05
    p_miss_range_scale: float = 0.002
    false_alarm_rate: float = 0.1
    confidence_floor: float = 0.1


class NoiseModel(Checked, _NoiseFields):
    """Detector noise: box jitter, miss probability, false alarms, confidence."""

    __slots__ = ()

    def _check(self) -> None:
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
    position = uav.position
    cam_x, cam_y, cam_z = world_to_camera(
        (
            point_world[0] - position[0],
            point_world[1] - position[1],
            point_world[2] - position[2],
        ),
        heading(uav.yaw),
    )
    if cam_z <= 0.0:
        return None
    px = camera.focal_px * cam_x / cam_z
    py = camera.focal_px * cam_y / cam_z
    u0, v0 = camera.principal
    u = u0 + px
    v = v0 + py
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
    # ``project_point`` for every center, written out with the pose and
    # the camera read once: the same operations in the same order, so the
    # same floats.
    x0, y0, z0 = uav.position
    c, s = heading(uav.yaw)
    focal = camera.focal_px
    width_px, height_px = camera.width_px, camera.height_px
    u0, v0 = camera.principal
    visible: list[tuple] = []
    for i, center in enumerate(world.centers):
        if center is None:
            continue
        nx = center[0] - x0
        ny = center[1] - y0
        depth = c * nx + s * ny
        if depth <= 0.0:
            continue
        px = focal * (-s * nx + c * ny) / depth
        py = focal * -(center[2] - z0) / depth
        if 0.0 <= u0 + px <= width_px and 0.0 <= v0 + py <= height_px:
            visible.append((i, world.balloons[i].diameter, px, py, depth))
    detections: list[Detection] = []
    for i, diameter, px, py, depth in visible:
        # Occlusion: hidden when the center falls inside the projected
        # disc of a strictly nearer balloon (never the balloon itself).
        occluded = False
        for _, other_diameter, ox, oy, od in visible:
            if od >= depth:
                continue
            disc = focal * other_diameter / (2.0 * od)
            if math.hypot(px - ox, py - oy) < disc:
                occluded = True
                break
        if occluded:
            continue
        p_miss = min(1.0, noise.p_miss_base + noise.p_miss_range_scale * depth)
        if rng.random() < p_miss:
            continue
        size = focal * diameter / depth
        cx = px + noise.center_sigma * rng.standard_normal()
        cy = py + noise.center_sigma * rng.standard_normal()
        factor = max(0.05, 1.0 + noise.size_sigma_frac * rng.standard_normal())
        confidence = max(
            noise.confidence_floor, 1.0 - depth / CONFIDENCE_RANGE_SCALE_M
        )
        box = size * factor
        detections.append(Detection(cx, cy, box, box, confidence, i))
    if noise.false_alarm_rate > 0.0:
        n_false = int(rng.poisson(noise.false_alarm_rate))
        lo_s, hi_s = FALSE_ALARM_SIZE_PX
        for _ in range(n_false):
            cx = width_px * rng.random() - u0
            cy = height_px * rng.random() - v0
            size = lo_s + (hi_s - lo_s) * rng.random()
            conf = noise.confidence_floor + (1.0 - noise.confidence_floor) * rng.random()
            detections.append(Detection(cx, cy, size, size, conf, None))
    return detections


def fit_circle(width: float, height: float) -> float:
    """Pixel radius of the circle fitted to a box: half its major axis."""
    return max(width, height) / 2.0


def estimate_range(radius: float, camera: CameraIntrinsics, diameter: float) -> float:
    """Range to a sphere of known diameter from its fitted pixel radius."""
    if radius < MIN_CIRCLE_RADIUS_PX:
        raise DegenerateCircle(f"radius {radius} px below {MIN_CIRCLE_RADIUS_PX}")
    return camera.focal_px * diameter / (2.0 * radius)
