"""Arena geometry, balloon placement, and balloon sway dynamics.

The world frame is x-north, y-east, z-up with z measured in meters above
the ground plane.  Balloons are tethered above pole tops and swing as
planar pendulums with a fixed, per-balloon wind azimuth.

``Arena`` and ``BalloonParams`` are immutable ``NamedTuple``s; ``Arena``
is ``Checked``: it checks its fields when it is built or copied.  A
``Balloon`` is a ``__slots__`` record that checks its arguments and works
out its sway constants once, when it is built.  A balloon has no id of
its own: its number is its index in ``WorldState.balloons``, which is
layout order.
"""

import math
import random
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

Vec3 = tuple[float, float, float]

LAYOUT_REJECTION_BUDGET = 10_000
MAX_BALLOON_HEIGHT_M = 5.0


class PackingInfeasible(Exception):
    """Rejection sampling could not place the requested balloons."""


class UnknownBalloon(KeyError):
    """Operation referenced a balloon index outside the world."""


class Checked:
    """Base of a NamedTuple record that checks its fields with ``_check``.

    Put first among the bases, before the NamedTuple of the fields.  A
    NamedTuple's own copies (``_replace``, and ``__replace__`` for
    ``copy.replace`` from Python 3.13) skip ``__new__``; these rebuild
    through it, so every copy is checked too.  ``_make`` does not check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _replace(self, **changes):
        return type(self)(*super()._replace(**changes))

    __replace__ = _replace


class _ArenaFields(NamedTuple):
    outer_extent: Vec3 = (100.0, 40.0, 20.0)
    effective_extent: Vec3 = (90.0, 30.0, 5.0)
    geofence_margin: float = 1.0


class Arena(Checked, _ArenaFields):
    """Axis-aligned arena volume with an inner effective search volume.

    The effective volume is centered horizontally inside the outer volume
    and sits on the ground (z from 0 to the effective height).
    """

    __slots__ = ()

    def _check(self) -> None:
        for axis in range(3):
            if self.outer_extent[axis] <= 0 or self.effective_extent[axis] <= 0:
                raise ValueError("arena extents must be strictly positive")
            if self.effective_extent[axis] > self.outer_extent[axis]:
                raise ValueError("effective extent must fit inside outer extent")
        if self.geofence_margin < 0:
            raise ValueError("geofence_margin must be non-negative")

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
    """Physical and sway parameters shared by all sampled balloons."""

    pole_height: float = 2.0
    tether_length: float = 1.0
    diameter: float = 0.45
    sway_amplitude: float = 0.1
    sway_frequency: float = 0.2


_BALLOON_INIT = (
    "anchor", "tether_length", "diameter", "sway_amplitude",
    "sway_frequency", "sway_phase", "sway_azimuth",
)
_balloon_key = attrgetter(*_BALLOON_INIT)


class Balloon:
    """A balloon's fixed description: tether anchor, size and sway.

    Whether the balloon is still alive and where its center is at the
    current time live in ``WorldState.centers``, not here.  Two balloons
    are equal when their constructor arguments are.
    """

    __slots__ = _BALLOON_INIT + ("sway_omega", "sway_cos", "sway_sin")

    def __init__(
        self, anchor: Vec3, tether_length: float = 1.0,
        diameter: float = 0.45, sway_amplitude: float = 0.1,
        sway_frequency: float = 0.2, sway_phase: float = 0.0,
        sway_azimuth: float = 0.0,
    ) -> None:
        if diameter <= 0:
            raise ValueError("balloon diameter must be positive")
        if not 0.0 <= sway_amplitude < math.pi / 2:
            raise ValueError("sway_amplitude must be in [0, pi/2)")
        if anchor[2] + tether_length > MAX_BALLOON_HEIGHT_M:
            raise ValueError(
                f"balloon center would exceed {MAX_BALLOON_HEIGHT_M} m height"
            )
        self.anchor = anchor
        self.tether_length = tether_length
        self.diameter = diameter
        self.sway_amplitude = sway_amplitude
        self.sway_frequency = sway_frequency
        self.sway_phase = sway_phase
        self.sway_azimuth = sway_azimuth
        # Sway constants, computed once per balloon: the angular frequency
        # (2 pi) * frequency and the direction cosines of the swing plane.
        self.sway_omega = 2.0 * math.pi * sway_frequency
        self.sway_cos = math.cos(sway_azimuth)
        self.sway_sin = math.sin(sway_azimuth)

    def __eq__(self, other):
        if type(other) is not Balloon:
            return NotImplemented
        return _balloon_key(self) == _balloon_key(other)

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


class WorldState(NamedTuple):
    """Ground truth at one instant.

    ``balloons`` holds every balloon's fixed description, and a balloon's
    index there is its number; ``centers`` is the one record of which
    balloons are alive and where: ``centers[i]`` is the center of
    ``balloons[i]`` at ``time``, or None once that balloon is popped.
    """

    time: float
    balloons: tuple[Balloon, ...]
    centers: tuple[Optional[Vec3], ...]

    @property
    def alive_count(self) -> int:
        return len(self.centers) - self.centers.count(None)


def step_balloon_sway(balloon: Balloon, t: float) -> Vec3:
    """Balloon center at time ``t`` under the planar pendulum sway model.

    The tether hangs from the anchor and the balloon floats tether_length
    above it at rest; the pendulum angle is
    ``theta(t) = amplitude * sin(2*pi*frequency*t + phase)`` and the swing
    plane is fixed by the balloon's wind azimuth.
    """
    theta = balloon.sway_amplitude * math.sin(
        balloon.sway_omega * t + balloon.sway_phase
    )
    horizontal = balloon.tether_length * math.sin(theta)
    ax, ay, az = balloon.anchor
    return (
        ax + horizontal * balloon.sway_cos,
        ay + horizontal * balloon.sway_sin,
        az + balloon.tether_length * math.cos(theta),
    )


def make_balloon(anchor: Vec3, params: BalloonParams, rng: random.Random) -> Balloon:
    """Balloon over ``anchor`` with random sway.

    Draws two values from ``rng``: the sway phase, then the azimuth.
    """
    return Balloon(
        anchor=anchor,
        tether_length=params.tether_length,
        diameter=params.diameter,
        sway_amplitude=params.sway_amplitude,
        sway_frequency=params.sway_frequency,
        sway_phase=2.0 * math.pi * rng.random(),
        sway_azimuth=2.0 * math.pi * rng.random(),
    )


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
    if n < 0:
        raise ValueError("n must be non-negative")
    if min_sep < 0:
        raise ValueError("min_sep must be non-negative")

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
        balloons.append(make_balloon((x, y, params.pole_height), params, rng))
    return balloons


def make_world(balloons: Sequence[Balloon], time: float = 0.0) -> WorldState:
    """Every balloon alive, centered where it sways at ``time``."""
    balloons = tuple(balloons)
    return WorldState(
        time, balloons, tuple([step_balloon_sway(b, time) for b in balloons])
    )


def advance_world(world: WorldState, t: float) -> WorldState:
    """World state at time ``t``: recompute sway centers of alive balloons."""
    if t < world.time:
        raise ValueError("world time must be non-decreasing")
    centers = tuple([
        None if c is None else step_balloon_sway(b, t)
        for b, c in zip(world.balloons, world.centers)
    ])
    return WorldState(t, world.balloons, centers)


def pop_balloon(world: WorldState, i: int) -> WorldState:
    """Mark balloon ``i`` dead.  Idempotent on already-dead balloons."""
    if not 0 <= i < len(world.centers):
        raise UnknownBalloon(i)
    centers = world.centers[:i] + (None,) + world.centers[i + 1:]
    return WorldState(world.time, world.balloons, centers)
