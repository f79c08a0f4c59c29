"""Scenario files: a flat, strict, dotted key/value format.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Keys are dotted section paths (``tracker.gate_px = 80``); every key has a
documented default, so the minimal scenario is just a seed.  Unknown keys
are fatal.  Vectors are comma- or space-separated numbers; lists of
vectors are semicolon-separated; failure scripts are ``agent:time`` pairs
separated by semicolons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from .mission import MissionParams
from .perception import CameraIntrinsics, NoiseModel
from .tracking import TrackerParams
from .vehicle import UavParams, geofence_from_arena
from .world import MAX_BALLOON_HEIGHT_M, Arena, BalloonParams

Vec3 = tuple[float, float, float]

class ParseError(ValueError):
    """Malformed scenario text or unknown key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class ValidationError(ValueError):
    """Scenario violates an invariant."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class BalloonSetup:
    count: int = 5
    min_sep: float = 8.0
    params: BalloonParams = BalloonParams()
    anchors: Optional[tuple[Vec3, ...]] = None


@dataclass(frozen=True)
class AgentSetup:
    count: int = 1
    starts: tuple[Vec3, ...] = ()
    start_yaw: float = 0.0


@dataclass(frozen=True)
class FleetParams:
    claim_radius: float = 5.0
    min_sep: float = 5.0
    failures: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class SimParams:
    tick_rate: float = 20.0
    duration_limit: float = 600.0


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    arena: Arena = Arena()
    balloons: BalloonSetup = BalloonSetup()
    camera: CameraIntrinsics = CameraIntrinsics()
    noise: NoiseModel = NoiseModel()
    vehicle: UavParams = UavParams()
    tracker: TrackerParams = TrackerParams()
    mission: MissionParams = MissionParams()
    fleet: FleetParams = FleetParams()
    agents: AgentSetup = AgentSetup()
    sim: SimParams = SimParams()


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_vec3(raw: str) -> Vec3:
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 numbers, got {len(parts)}")
    return tuple(_parse_float(p) for p in parts)


def _parse_vec3_list(raw: str) -> tuple[Vec3, ...]:
    chunks = [c.strip() for c in raw.split(";") if c.strip()]
    return tuple(_parse_vec3(c) for c in chunks)


def _parse_failures(raw: str) -> tuple[tuple[int, float], ...]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        agent_s, _, time_s = chunk.partition(":")
        if not time_s:
            raise ValueError(f"expected agent:time, got {chunk!r}")
        out.append((int(agent_s), _parse_float(time_s)))
    return tuple(sorted(out, key=lambda p: p[1]))


# key -> parser of the value text.  The parsed values land in a flat dict
# and are assembled into the Scenario (with defaults) by build_scenario.
SCHEMA: dict[str, Callable[[str], object]] = {
    "seed": _parse_int,
    "arena.outer_extent": _parse_vec3,
    "arena.effective_extent": _parse_vec3,
    "arena.geofence_margin": _parse_float,
    "balloons.count": _parse_int,
    "balloons.min_sep": _parse_float,
    "balloons.diameter": _parse_float,
    "balloons.pole_height": _parse_float,
    "balloons.tether_length": _parse_float,
    "balloons.sway_amplitude": _parse_float,
    "balloons.sway_frequency": _parse_float,
    "balloons.anchors": _parse_vec3_list,
    "camera.focal_px": _parse_float,
    "camera.width_px": _parse_float,
    "camera.height_px": _parse_float,
    "noise.center_sigma": _parse_float,
    "noise.size_sigma_frac": _parse_float,
    "noise.p_miss_base": _parse_float,
    "noise.p_miss_range_scale": _parse_float,
    "noise.false_alarm_rate": _parse_float,
    "noise.confidence_floor": _parse_float,
    "agents.count": _parse_int,
    "agents.starts": _parse_vec3_list,
    "agents.start_yaw": _parse_float,
    "vehicle.v_max": _parse_float,
    "vehicle.v_approach": _parse_float,
    "vehicle.tau": _parse_float,
    "vehicle.yaw_rate_max": _parse_float,
    "tracker.gate_px": _parse_float,
    "tracker.m_confirm": _parse_int,
    "tracker.k_delete": _parse_int,
    "mission.m_commit": _parse_int,
    "mission.align_tol_px": _parse_float,
    "mission.commit_range_max": _parse_float,
    "mission.d_standoff": _parse_float,
    "mission.t_confirm": _parse_float,
    "mission.tip_reach": _parse_float,
    "mission.lane_spacing": _parse_float,
    "mission.search_altitude": _parse_float,
    "mission.retry_limit": _parse_int,
    "mission.wp_tolerance": _parse_float,
    "mission.wp_step": _parse_float,
    "mission.wp_timeout": _parse_float,
    "mission.align_timeout": _parse_float,
    "mission.approach_timeout": _parse_float,
    "mission.approach_stall_timeout": _parse_float,
    "mission.revisit_timeout": _parse_float,
    "mission.yaw_gain": _parse_float,
    "fleet.claim_radius": _parse_float,
    "fleet.min_sep": _parse_float,
    "fleet.failures": _parse_failures,
    "sim.tick_rate": _parse_float,
    "sim.duration_limit": _parse_float,
}


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario text, fill defaults, and validate all invariants."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ParseError(f"line {lineno}", f"expected key = value, got {line!r}")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise ParseError(key, "unknown key")
        if key in values:
            raise ParseError(key, "duplicate key")
        try:
            values[key] = SCHEMA[key](raw_value)
        except (ValueError, TypeError) as exc:
            raise ParseError(key, f"bad value {raw_value!r} ({exc})") from None
    return build_scenario(values)


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))


def _get(values: dict, key: str, default):
    return values.get(key, default)


def build_scenario(values: dict[str, object]) -> Scenario:
    """Assemble and validate a Scenario from parsed key/value pairs."""
    try:
        arena = Arena(
            outer_extent=_get(values, "arena.outer_extent", (100.0, 40.0, 20.0)),
            effective_extent=_get(values, "arena.effective_extent", (90.0, 30.0, 5.0)),
            geofence_margin=_get(values, "arena.geofence_margin", 1.0),
        )
    except ValueError as exc:
        raise ValidationError("arena", str(exc)) from None

    bp_defaults = BalloonParams()
    try:
        balloon_params = BalloonParams(
            pole_height=_get(values, "balloons.pole_height", bp_defaults.pole_height),
            tether_length=_get(
                values, "balloons.tether_length", bp_defaults.tether_length
            ),
            diameter=_get(values, "balloons.diameter", bp_defaults.diameter),
            sway_amplitude=_get(
                values, "balloons.sway_amplitude", bp_defaults.sway_amplitude
            ),
            sway_frequency=_get(
                values, "balloons.sway_frequency", bp_defaults.sway_frequency
            ),
        )
    except ValueError as exc:
        raise ValidationError("balloons", str(exc)) from None
    if balloon_params.diameter <= 0:
        raise ValidationError("balloons.diameter", "must be positive")
    if not 0.0 <= balloon_params.sway_amplitude < math.pi / 2:
        raise ValidationError("balloons.sway_amplitude", "must be in [0, pi/2)")

    anchors = _get(values, "balloons.anchors", None)
    bases = [balloon_params.pole_height] if anchors is None else [a[2] for a in anchors]
    if any(z + balloon_params.tether_length > MAX_BALLOON_HEIGHT_M for z in bases):
        raise ValidationError(
            "balloons.tether_length",
            f"balloon centers must stay at most {MAX_BALLOON_HEIGHT_M} m high",
        )
    count = _get(values, "balloons.count", 5)
    if anchors is not None:
        count = len(anchors)
    if count < 0:
        raise ValidationError("balloons.count", "must be non-negative")
    min_sep = _get(values, "balloons.min_sep", 8.0)
    if min_sep < 0:
        raise ValidationError("balloons.min_sep", "must be non-negative")
    balloons = BalloonSetup(
        count=count,
        min_sep=min_sep,
        params=balloon_params,
        anchors=anchors,
    )

    width = _get(values, "camera.width_px", 1280.0)
    height = _get(values, "camera.height_px", 720.0)
    try:
        camera = CameraIntrinsics(
            focal_px=_get(values, "camera.focal_px", 600.0),
            width_px=width,
            height_px=height,
            principal=(width / 2.0, height / 2.0),
        )
    except ValueError as exc:
        raise ValidationError("camera", str(exc)) from None

    nd = NoiseModel()
    try:
        noise = NoiseModel(
            center_sigma=_get(values, "noise.center_sigma", nd.center_sigma),
            size_sigma_frac=_get(values, "noise.size_sigma_frac", nd.size_sigma_frac),
            p_miss_base=_get(values, "noise.p_miss_base", nd.p_miss_base),
            p_miss_range_scale=_get(
                values, "noise.p_miss_range_scale", nd.p_miss_range_scale
            ),
            false_alarm_rate=_get(
                values, "noise.false_alarm_rate", nd.false_alarm_rate
            ),
            confidence_floor=_get(
                values, "noise.confidence_floor", nd.confidence_floor
            ),
        )
    except ValueError as exc:
        raise ValidationError("noise", str(exc)) from None

    vd = UavParams()
    vehicle = UavParams(
        v_max=_get(values, "vehicle.v_max", vd.v_max),
        tau=_get(values, "vehicle.tau", vd.tau),
        yaw_rate_max=_get(values, "vehicle.yaw_rate_max", vd.yaw_rate_max),
    )
    if vehicle.v_max <= 0:
        raise ValidationError("vehicle.v_max", "must be positive")
    if vehicle.tau <= 0:
        raise ValidationError("vehicle.tau", "must be positive")

    td = TrackerParams()
    tracker = TrackerParams(
        gate_px=_get(values, "tracker.gate_px", td.gate_px),
        m_confirm=_get(values, "tracker.m_confirm", td.m_confirm),
        k_delete=_get(values, "tracker.k_delete", td.k_delete),
    )
    if tracker.gate_px <= 0:
        raise ValidationError("tracker.gate_px", "must be positive")
    if tracker.m_confirm < 1:
        raise ValidationError("tracker.m_confirm", "must be at least 1")
    if tracker.k_delete < 1:
        raise ValidationError("tracker.k_delete", "must be at least 1")

    md = MissionParams()
    mission = MissionParams(
        m_commit=_get(values, "mission.m_commit", md.m_commit),
        align_tol_px=_get(values, "mission.align_tol_px", md.align_tol_px),
        commit_range_max=_get(
            values, "mission.commit_range_max", md.commit_range_max
        ),
        v_search=vehicle.v_max,
        v_approach=_get(values, "vehicle.v_approach", md.v_approach),
        d_standoff=_get(values, "mission.d_standoff", md.d_standoff),
        t_confirm=_get(values, "mission.t_confirm", md.t_confirm),
        tip_reach=_get(values, "mission.tip_reach", md.tip_reach),
        lane_spacing=_get(values, "mission.lane_spacing", md.lane_spacing),
        search_altitude=_get(values, "mission.search_altitude", md.search_altitude),
        retry_limit=_get(values, "mission.retry_limit", md.retry_limit),
        wp_tolerance=_get(values, "mission.wp_tolerance", md.wp_tolerance),
        wp_step=_get(values, "mission.wp_step", md.wp_step),
        wp_timeout=_get(values, "mission.wp_timeout", md.wp_timeout),
        align_timeout=_get(values, "mission.align_timeout", md.align_timeout),
        approach_timeout=_get(
            values, "mission.approach_timeout", md.approach_timeout
        ),
        approach_stall_timeout=_get(
            values, "mission.approach_stall_timeout", md.approach_stall_timeout
        ),
        revisit_timeout=_get(values, "mission.revisit_timeout", md.revisit_timeout),
        yaw_gain=_get(values, "mission.yaw_gain", md.yaw_gain),
    )
    if not 0 < mission.v_approach <= vehicle.v_max:
        raise ValidationError("vehicle.v_approach", "must be in (0, vehicle.v_max]")
    if mission.lane_spacing <= 0:
        raise ValidationError("mission.lane_spacing", "must be positive")
    if mission.wp_step <= 0:
        raise ValidationError("mission.wp_step", "must be positive")
    if mission.d_standoff <= 0:
        raise ValidationError("mission.d_standoff", "must be positive")
    if mission.yaw_gain <= 0:
        raise ValidationError("mission.yaw_gain", "must be positive")

    fd = FleetParams()
    fleet = FleetParams(
        claim_radius=_get(values, "fleet.claim_radius", fd.claim_radius),
        min_sep=_get(values, "fleet.min_sep", fd.min_sep),
        failures=_get(values, "fleet.failures", ()),
    )
    if fleet.claim_radius <= 0:
        raise ValidationError("fleet.claim_radius", "must be positive")
    if fleet.min_sep <= 0:
        raise ValidationError("fleet.min_sep", "must be positive")

    sim = SimParams(
        tick_rate=_get(values, "sim.tick_rate", 20.0),
        duration_limit=_get(values, "sim.duration_limit", 600.0),
    )
    if sim.tick_rate <= 0:
        raise ValidationError("sim.tick_rate", "must be positive")
    if sim.duration_limit <= 0:
        raise ValidationError("sim.duration_limit", "must be positive")

    n_agents = _get(values, "agents.count", 1)
    starts = _get(values, "agents.starts", None)
    if starts is not None and "agents.count" not in values:
        n_agents = len(starts)
    if n_agents < 1:
        raise ValidationError("agents.count", "must be at least 1")
    if starts is None:
        starts = _default_starts(arena, n_agents, mission.search_altitude)
    if len(starts) != n_agents:
        raise ValidationError(
            "agents.starts", f"expected {n_agents} start positions, got {len(starts)}"
        )
    fence = geofence_from_arena(arena)
    for i, s in enumerate(starts):
        if not fence.contains(s):
            raise ValidationError(
                "agents.starts", f"agent {i} start {s} outside geofence"
            )
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            if math.dist(starts[i][:2], starts[j][:2]) < 1e-6:
                raise ValidationError(
                    "agents.starts", f"agents {i} and {j} share a start position"
                )
    agents = AgentSetup(
        count=n_agents,
        starts=tuple(starts),
        start_yaw=_get(values, "agents.start_yaw", 0.0),
    )

    for agent_id, when in fleet.failures:
        if not 0 <= agent_id < n_agents:
            raise ValidationError("fleet.failures", f"unknown agent {agent_id}")
        if when < 0:
            raise ValidationError("fleet.failures", "failure time must be >= 0")

    return Scenario(
        seed=_get(values, "seed", 0),
        arena=arena,
        balloons=balloons,
        camera=camera,
        noise=noise,
        vehicle=vehicle,
        tracker=tracker,
        mission=mission,
        fleet=fleet,
        agents=agents,
        sim=sim,
    )


def _default_starts(arena: Arena, n: int, altitude: float) -> tuple[Vec3, ...]:
    """Spread agents across the footprint midline at search altitude."""
    xmin, ymin, xmax, ymax = arena.footprint
    ymid = (ymin + ymax) / 2.0
    return tuple(
        (xmin + (i + 1) * (xmax - xmin) / (n + 1), ymid, altitude) for i in range(n)
    )


def default_scenario(seed: int = 0, **overrides) -> Scenario:
    """The all-defaults scenario (5 balloons, 1 agent) with a given seed."""
    base = build_scenario({"seed": seed})
    return replace(base, **overrides) if overrides else base
