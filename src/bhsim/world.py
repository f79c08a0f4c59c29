"""Arena geometry, balloon placement, and balloon sway dynamics.

The world frame is x-north, y-east, z-up with z measured in meters above
the ground plane.  Balloons are tethered above pole tops and swing as
planar pendulums with a fixed, per-balloon wind azimuth.

``Arena``, ``BalloonParams``, ``Balloon`` and ``WorldState`` are
immutable ``NamedTuple``s.  Every balloon of a run is the same kind of
balloon: ``WorldState.params`` holds its size, tether and sway law once,
and a ``Balloon`` holds only its anchor, sway phase and swing plane.  A
balloon has no id of its own: its number is its index in
``WorldState.balloons``, which is layout order.  None of these records
checks its values: ``scenario.build_scenario(values)`` is the checked
constructor of a run's configuration, and the functions here trust what
it hands them.
"""

import math
import random
from typing import NamedTuple, Optional, Sequence

Vec3 = tuple[float, float, float]

LAYOUT_REJECTION_BUDGET = 10_000
MAX_BALLOON_HEIGHT_M = 5.0


class PackingInfeasible(Exception):
    """Rejection sampling could not place the requested balloons."""


class UnknownBalloon(KeyError):
    """Operation referenced a balloon index outside the world."""


class Arena(NamedTuple):
    """Axis-aligned arena volume with an inner effective search volume.

    The effective volume is centered horizontally inside the outer volume
    and sits on the ground (z from 0 to the effective height).
    """

    outer_extent: Vec3 = (100.0, 40.0, 20.0)
    effective_extent: Vec3 = (90.0, 30.0, 5.0)
    geofence_margin: float = 1.0

    @property
    def effective_min(self) -> Vec3:
        return (
            (self.outer_extent[0] - self.effective_extent[0]) / 2.0,
            (self.outer_extent[1] - self.effective_extent[1]) / 2.0,
            0.0,
        )

    @property
    def effective_max(self) -> Vec3:
        lo = self.effective_min
        return (
            lo[0] + self.effective_extent[0],
            lo[1] + self.effective_extent[1],
            lo[2] + self.effective_extent[2],
        )

    @property
    def footprint(self) -> tuple[float, float, float, float]:
        """Effective search footprint as (xmin, ymin, xmax, ymax)."""
        lo, hi = self.effective_min, self.effective_max
        return (lo[0], lo[1], hi[0], hi[1])


class BalloonParams(NamedTuple):
    """Physical and sway parameters shared by every balloon of a run."""

    pole_height: float = 2.0
    tether_length: float = 1.0
    diameter: float = 0.45
    sway_amplitude: float = 0.1
    sway_frequency: float = 0.2


class Balloon(NamedTuple):
    """What sets one balloon apart from the others: its tether anchor,
    its sway phase and the direction cosines of its swing plane.

    Size, tether and sway law are the run's ``BalloonParams``, held once
    in ``WorldState.params``.  Whether the balloon is still alive and
    where its center is at the current time live in
    ``WorldState.centers``, not here.
    """

    anchor: Vec3
    sway_phase: float
    sway_cos: float
    sway_sin: float


class WorldState(NamedTuple):
    """Ground truth at one instant.

    ``params`` is the one balloon model every balloon of the run shares;
    ``balloons`` holds what differs between them, and a balloon's index
    there is its number; ``centers`` is the one record of which balloons
    are alive and where: ``centers[i]`` is the center of ``balloons[i]``
    at ``time``, or None once that balloon is popped.
    """

    time: float
    params: BalloonParams
    balloons: tuple[Balloon, ...]
    centers: tuple[Optional[Vec3], ...]

    @property
    def alive_count(self) -> int:
        return len(self.centers) - self.centers.count(None)


def make_balloon(anchor: Vec3, rng: random.Random) -> Balloon:
    """Balloon over ``anchor`` with random sway.

    Draws two values from ``rng``: the sway phase, then the azimuth of
    the swing plane.
    """
    phase = 2.0 * math.pi * rng.random()
    azimuth = 2.0 * math.pi * rng.random()
    return Balloon(anchor, phase, math.cos(azimuth), math.sin(azimuth))


def sample_balloon_layout(
    rng: random.Random,
    arena: Arena,
    n: int,
    min_sep: float,
    params: BalloonParams = BalloonParams(),
) -> list[Balloon]:
    """Sample ``n`` balloon anchors uniformly over the effective footprint.

    Anchors are rejection-sampled until all pairwise distances are at
    least ``min_sep``; the sampling region is inset by the sway envelope
    so swinging centers can never leave the effective volume.

    Raises:
        PackingInfeasible: after LAYOUT_REJECTION_BUDGET rejected draws.
    """
    xmin, ymin, xmax, ymax = arena.footprint
    inset = params.tether_length * math.sin(params.sway_amplitude)
    xmin, xmax = xmin + inset, xmax - inset
    ymin, ymax = ymin + inset, ymax - inset
    if xmin >= xmax or ymin >= ymax:
        raise PackingInfeasible("sway envelope leaves no sampling area")

    balloons: list[Balloon] = []
    anchors: list[tuple[float, float]] = []
    rejections = 0
    while len(balloons) < n:
        x = xmin + (xmax - xmin) * rng.random()
        y = ymin + (ymax - ymin) * rng.random()
        if any(math.hypot(x - px, y - py) < min_sep for px, py in anchors):
            rejections += 1
            if rejections >= LAYOUT_REJECTION_BUDGET:
                raise PackingInfeasible(
                    f"placed {len(balloons)}/{n} balloons after "
                    f"{rejections} rejections (min_sep={min_sep})"
                )
            continue
        anchors.append((x, y))
        balloons.append(make_balloon((x, y, params.pole_height), rng))
    return balloons


def make_world(
    params: BalloonParams, balloons: Sequence[Balloon], time: float = 0.0
) -> WorldState:
    """Every balloon alive, centered where it sways at ``time``."""
    balloons = tuple(balloons)
    # Every balloon is alive: any entry that is not None will do.
    return WorldState(time, params, balloons, _sway(params, balloons, balloons, time))


def advance_world(world: WorldState, t: float) -> WorldState:
    """World state at time ``t``: recompute sway centers of alive balloons."""
    if t < world.time:
        raise ValueError("world time must be non-decreasing")
    params, balloons = world.params, world.balloons
    return WorldState(t, params, balloons, _sway(params, balloons, world.centers, t))


def _sway(
    params: BalloonParams, balloons: tuple[Balloon, ...],
    alive: Sequence[Optional[object]], t: float,
) -> tuple[Optional[Vec3], ...]:
    """Balloon centers at time ``t`` under the planar pendulum sway model,
    None where ``alive`` holds None.

    The tether hangs from the anchor and the balloon floats tether_length
    above it at rest; the pendulum angle is
    ``theta(t) = amplitude * sin(2*pi*frequency*t + phase)`` and the swing
    plane is fixed by the balloon's wind azimuth.
    """
    amplitude, tether = params.sway_amplitude, params.tether_length
    omega = 2.0 * math.pi * params.sway_frequency
    sin, cos = math.sin, math.cos
    centers: list[Optional[Vec3]] = []
    for b, c in zip(balloons, alive):
        if c is None:
            centers.append(None)
            continue
        theta = amplitude * sin(omega * t + b.sway_phase)
        horizontal = tether * sin(theta)
        ax, ay, az = b.anchor
        centers.append((
            ax + horizontal * b.sway_cos,
            ay + horizontal * b.sway_sin,
            az + tether * cos(theta),
        ))
    return tuple(centers)


def pop_balloon(world: WorldState, i: int) -> WorldState:
    """Mark balloon ``i`` dead.  Idempotent on already-dead balloons."""
    if not 0 <= i < len(world.centers):
        raise UnknownBalloon(i)
    centers = world.centers[:i] + (None,) + world.centers[i + 1:]
    return world._replace(centers=centers)
