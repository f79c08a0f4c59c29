"""Synthetic vision: pinhole projection, noisy detections, and ranging.

Stands in for the onboard balloon detector.  Balloons are projected
through an ideal pinhole camera; a parameterized noise model corrupts
centers and sizes, drops detections, and injects false alarms.  Bounding
boxes are circle-fit along their major axis and ranged from the run's one
balloon diameter via the small-angle width ``f * D / Z``.  Range
estimation inverts the same small-angle model, so generation and
inversion are exactly consistent.
"""

import math
from typing import NamedTuple, Optional

from .rng import Stream
from .vehicle import UavState
from .world import WorldState

MIN_CIRCLE_RADIUS_PX = 0.5
CONFIDENCE_RANGE_SCALE_M = 50.0
FALSE_ALARM_SIZE_PX = (2.0, 30.0)


class DegenerateCircle(ValueError):
    """Fitted circle too small to range from."""


class CameraIntrinsics(NamedTuple):
    """Pinhole camera: focal length and image size in pixels."""

    focal_px: float = 600.0
    width_px: float = 1280.0
    height_px: float = 720.0

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


class NoiseModel(NamedTuple):
    """Detector noise: box jitter, miss probability, false alarms, confidence."""

    center_sigma: float = 2.0
    size_sigma_frac: float = 0.05
    p_miss_base: float = 0.05
    p_miss_range_scale: float = 0.002
    false_alarm_rate: float = 0.1
    confidence_floor: float = 0.1


ZERO_NOISE = NoiseModel(
    center_sigma=0.0,
    size_sigma_frac=0.0,
    p_miss_base=0.0,
    p_miss_range_scale=0.0,
    false_alarm_rate=0.0,
    confidence_floor=0.0,
)


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
    noise around the small-angle width ``f * D / Z``, with ``D`` the
    ``world.params.diameter`` every balloon shares.  False alarms are
    Poisson-distributed, uniform over the image, and carry no truth id.
    """
    # The pinhole projection of every center, with the pose and the
    # camera read once; ``tests/oracles.py`` keeps its per-point form,
    # which gives the same floats.
    x0, y0, z0 = uav.position
    c, s = math.cos(uav.yaw), math.sin(uav.yaw)
    focal = camera.focal_px
    width_px, height_px = camera.width_px, camera.height_px
    u0, v0 = camera.principal
    # f * D: every balloon's pixel width at unit depth.
    span = focal * world.params.diameter
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
            visible.append((i, px, py, depth))
    # The noise fields and the stream's draws, looked up once per frame.
    p_miss_base, p_miss_scale = noise.p_miss_base, noise.p_miss_range_scale
    sigma, size_sigma = noise.center_sigma, noise.size_sigma_frac
    floor = noise.confidence_floor
    uniform, normal = rng.random, rng.standard_normal
    detections: list[Detection] = []
    for i, px, py, depth in visible:
        # Occlusion: hidden when the center falls inside the projected
        # disc of a strictly nearer balloon (never the balloon itself).
        occluded = False
        for _, ox, oy, od in visible:
            if od >= depth:
                continue
            disc = span / (2.0 * od)
            if math.hypot(px - ox, py - oy) < disc:
                occluded = True
                break
        if occluded:
            continue
        if uniform() < min(1.0, p_miss_base + p_miss_scale * depth):
            continue
        size = span / depth
        cx = px + sigma * normal()
        cy = py + sigma * normal()
        factor = max(0.05, 1.0 + size_sigma * normal())
        confidence = max(floor, 1.0 - depth / CONFIDENCE_RANGE_SCALE_M)
        box = size * factor
        detections.append(Detection(cx, cy, box, box, confidence, i))
    if noise.false_alarm_rate > 0.0:
        n_false = int(rng.poisson(noise.false_alarm_rate))
        lo_s, hi_s = FALSE_ALARM_SIZE_PX
        for _ in range(n_false):
            cx = width_px * uniform() - u0
            cy = height_px * uniform() - v0
            size = lo_s + (hi_s - lo_s) * uniform()
            conf = floor + (1.0 - floor) * uniform()
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
