"""Reference forms the tests compare bhsim against; no run calls them.

``project_point`` and ``world_to_camera`` are the per-point pinhole
projection that ``perception.generate_detections`` writes out for a
whole frame; ``nearest_generator`` is the definition of the Voronoi
cells ``fleet.voronoi_partition`` clips; ``should_commit`` is the track
filter of the commit scan in ``mission._step_search``.
"""

import math
from typing import Optional, Sequence

from bhsim.perception import CameraIntrinsics
from bhsim.tracking import TrackState, TrackStatus
from bhsim.vehicle import UavState

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]


def world_to_camera(d_world: Vec3, yaw: float) -> Vec3:
    """Rotate a world-frame vector into the camera frame (inverse of
    ``camera_to_world``)."""
    nx, ny, nz = d_world[0], d_world[1], -d_world[2]
    c, s = math.cos(yaw), math.sin(yaw)
    bx = c * nx + s * ny
    by = -s * nx + c * ny
    return (by, nz, bx)


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
        uav.yaw,
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


def nearest_generator(
    point: Vec2, generators: Sequence[tuple[int, Vec2]]
) -> int:
    """Agent id of the generator nearest to ``point`` (ties: lower id)."""
    best_id = -1
    best = math.inf
    for agent_id, (gx, gy) in sorted(generators):
        d = (point[0] - gx) ** 2 + (point[1] - gy) ** 2
        if d < best:
            best = d
            best_id = agent_id
    return best_id


def should_commit(track: TrackState, m_commit: int) -> bool:
    """Commit only to confirmed tracks with enough consecutive hits."""
    return track.status is TrackStatus.CONFIRMED and track.hits >= m_commit
