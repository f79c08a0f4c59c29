"""Kinematic UAV model, camera geometry, and geofence velocity clamping.

Frames used throughout the package:

* world frame: x-north, y-east, z-up (positions, waypoints, altitudes);
* vehicle frame: local NED, x-north, y-east, z-down.  It shares x and y
  with the world frame and flips z;
* body frame: x-forward, y-right, z-down, yawed by the UAV heading;
* camera frame: x-right (pixel x), y-down (pixel y), z along the optic
  axis.  The camera looks forward, fixed to the body: body =
  (cam z, cam x, cam y).

``camera_to_world`` is the one function that knows these frames, and
``perception.generate_detections`` writes out its inverse for every
balloon of a frame; both work in plain floats so a run does not depend
on the BLAS kernel of the host.

The UAV is a point mass that tracks commanded velocity through a first
order lag and integrates yaw from a rate command; pitch and roll are held
level, so the body-to-vehicle rotation is yaw only.
"""

import math
from typing import NamedTuple

Vec3 = tuple[float, float, float]


class UavParams(NamedTuple):
    """Speed limit, velocity lag and yaw-rate limit of the vehicle model."""

    v_max: float = 2.0
    tau: float = 0.3
    yaw_rate_max: float = 1.5


class UavState(NamedTuple):
    position: Vec3
    velocity: Vec3 = (0.0, 0.0, 0.0)
    yaw: float = 0.0

    @property
    def speed(self) -> float:
        vx, vy, vz = self.velocity
        return math.sqrt(vx * vx + vy * vy + vz * vz)


class Geofence(NamedTuple):
    """Axis-aligned box the vehicle must never leave (world frame)."""

    lo: Vec3
    hi: Vec3

    def contains(self, p: Vec3) -> bool:
        lo, hi = self.lo, self.hi
        return (
            lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1] and lo[2] <= p[2] <= hi[2]
        )

    @property
    def center(self) -> Vec3:
        return (
            (self.lo[0] + self.hi[0]) / 2.0,
            (self.lo[1] + self.hi[1]) / 2.0,
            (self.lo[2] + self.hi[2]) / 2.0,
        )


def geofence_from_arena(arena) -> Geofence:
    """Fence = effective volume inflated by the arena's geofence margin.

    The floor stays at ground level; the margin extends the ceiling and
    the horizontal faces, so the soft band (fence shrunk by the same
    margin) coincides with the effective search volume.
    """
    m = arena.geofence_margin
    lo = arena.effective_min
    hi = arena.effective_max
    return Geofence(
        lo=(lo[0] - m, lo[1] - m, 0.0),
        hi=(hi[0] + m, hi[1] + m, hi[2] + m),
    )


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = a % math.tau
    return r - math.tau if r > math.pi else r


def camera_to_world(v_cam: Vec3, yaw: float) -> Vec3:
    """Rotate a camera-frame vector into the world frame.

    Forward mount (camera -> body), then the heading (body -> NED), then
    the z flip (NED -> world).
    """
    bx, by, bz = v_cam[2], v_cam[0], v_cam[1]
    c, s = math.cos(yaw), math.sin(yaw)
    return (c * bx - s * by, s * bx + c * by, -bz)


def clamp_speed(v: Vec3, v_max: float) -> Vec3:
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if norm <= v_max or norm == 0.0:
        return v
    k = v_max / norm
    return (v[0] * k, v[1] * k, v[2] * k)


def step_uav(
    state: UavState,
    cmd_velocity: Vec3,
    cmd_yaw_rate: float,
    dt: float,
    params: UavParams,
) -> UavState:
    """Advance the UAV one step under a velocity and yaw-rate command.

    Velocity tracks the (speed-clamped) command through the exact
    discretization of a first order lag,
    ``v' = v + (1 - exp(-dt/tau)) * (cmd - v)``,
    position integrates the updated velocity, and yaw integrates the
    rate-limited yaw command.
    """
    cmd = clamp_speed(cmd_velocity, params.v_max)
    alpha = 1.0 - math.exp(-dt / params.tau)
    vx = state.velocity[0] + alpha * (cmd[0] - state.velocity[0])
    vy = state.velocity[1] + alpha * (cmd[1] - state.velocity[1])
    vz = state.velocity[2] + alpha * (cmd[2] - state.velocity[2])
    px = state.position[0] + vx * dt
    py = state.position[1] + vy * dt
    pz = state.position[2] + vz * dt
    rate = max(-params.yaw_rate_max, min(params.yaw_rate_max, cmd_yaw_rate))
    yaw = wrap_angle(state.yaw + rate * dt)
    return UavState(position=(px, py, pz), velocity=(vx, vy, vz), yaw=yaw)


def clamp_to_geofence(
    position: Vec3,
    velocity_cmd: Vec3,
    fence: Geofence,
    margin: float,
    v_max: float,
) -> Vec3:
    """Filter a velocity command so the fence is never crossed.

    Inside the fence shrunk by ``margin`` the command passes unchanged.
    Within ``margin`` of a face, the outward component normal to that
    face is zeroed.  Outside the fence entirely, the command is replaced
    by a vector of magnitude ``v_max`` toward the fence center.
    """
    if not fence.contains(position):
        cx, cy, cz = fence.center
        dx, dy, dz = cx - position[0], cy - position[1], cz - position[2]
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            return (0.0, 0.0, 0.0)
        k = v_max / norm
        return (dx * k, dy * k, dz * k)
    x, y, z = position
    vx, vy, vz = velocity_cmd
    (lo_x, lo_y, lo_z), (hi_x, hi_y, hi_z) = fence
    if vx > 0.0 and x >= hi_x - margin or vx < 0.0 and x <= lo_x + margin:
        vx = 0.0
    if vy > 0.0 and y >= hi_y - margin or vy < 0.0 and y <= lo_y + margin:
        vy = 0.0
    if vz > 0.0 and z >= hi_z - margin or vz < 0.0 and z <= lo_z + margin:
        vz = 0.0
    return (vx, vy, vz)
