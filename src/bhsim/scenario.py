"""Scenario files: a flat, strict, dotted key/value format.

One ``key = value`` pair per line, ``#`` comments, blank lines ignored.
Keys are dotted section paths (``tracker.gate_px = 80``); every key has a
default, so the minimal scenario is just a seed.  Unknown keys are fatal.
Vectors are comma- or space-separated numbers; lists of vectors are
semicolon-separated; failure scripts are ``agent:time`` pairs separated
by semicolons.

``SCHEMA`` is the one table of keys: each key's parser, its domain and
the ``Scenario`` field it fills.  Defaults live only in ``Scenario`` and
its section records.
"""

import math
import re
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .mission import MissionParams
from .perception import CameraIntrinsics, NoiseModel
from .tracking import TrackerParams
from .vehicle import UavParams, geofence_from_arena
from .world import MAX_BALLOON_HEIGHT_M, Arena, BalloonParams

Vec3 = tuple[float, float, float]

# The work budget: bounds on what one run may cost, checked before
# anything is built.  A run never takes more than MAX_TICKS ticks
# (sim.tick_rate x sim.duration_limit): half an hour of simulated time
# at the default 20 Hz, three times default.cfg.
MAX_TICKS = 36_000
MAX_AGENTS = 16
MAX_BALLOONS = 200
# Expected false alarms per frame.  Each spawns a tentative track that
# lives for up to tracker.k_delete frames, and the assignment solver is
# cubic in the track count.  Far below 745, where exp(-rate) underflows.
MAX_FALSE_ALARM_RATE = 5


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


class BalloonSetup(NamedTuple):
    """How many balloons, how far apart, and optionally where."""

    count: int = 5
    min_sep: float = 8.0
    params: BalloonParams = BalloonParams()
    anchors: Optional[tuple[Vec3, ...]] = None


class AgentSetup(NamedTuple):
    """Agent count, start positions and the shared start heading."""

    count: int = 1
    starts: tuple[Vec3, ...] = ()
    start_yaw: float = 0.0


class FleetParams(NamedTuple):
    """Claim radius, separation distance and scripted agent failures."""

    claim_radius: float = 5.0
    min_sep: float = 5.0
    failures: tuple[tuple[int, float], ...] = ()


class SimParams(NamedTuple):
    """Tick rate in Hz and the simulated-time limit of a run in seconds."""

    tick_rate: float = 20.0
    duration_limit: float = 600.0


@dataclass(frozen=True)
class Scenario:
    """A run's whole configuration: the seed and one record per config section."""

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


_DEFAULTS = Scenario()


# Numbers are plain ASCII decimals; int() and float() alone also take
# underscores ("1_000") and any Unicode digit ("\u0663").
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _parse_float(raw: str) -> float:
    if not _FLOAT.fullmatch(raw.strip()):
        raise ValueError("not a decimal number")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_int(raw: str) -> int:
    if not _INT.fullmatch(raw.strip()):
        raise ValueError("not an integer")
    return int(raw)


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
        out.append((_parse_int(agent_s), _parse_float(time_s)))
    return tuple(sorted(out, key=lambda p: p[1]))


class Key(NamedTuple):
    """One scenario key.

    ``domain`` is an interval as the README writes it: ``(0, inf)``,
    ``[0, pi/2)``, or ``[1, 16]`` for an integer range.  Every number in
    a value (each coordinate of a vector, each agent id and time of a
    failure script) must lie in it.  ``field`` is the dotted path of the
    ``Scenario`` field the value fills; ``SCHEMA`` sets an empty one to
    the key itself.
    """

    parse: Callable[[str], object]
    domain: str
    field: str = ""

    @property
    def ends(self) -> tuple[float, float]:
        lo, hi = self.domain[1:-1].split(", ")
        return float(lo), math.pi / 2 if hi == "pi/2" else float(hi)

    def accepts(self, x: float) -> bool:
        lo, hi = self.ends
        above = lo < x if self.domain[0] == "(" else lo <= x
        below = x < hi if self.domain[-1] == ")" else x <= hi
        return above and below


SCHEMA: dict[str, Key] = {
    "seed": Key(_parse_int, "(-inf, inf)"),
    "arena.outer_extent": Key(_parse_vec3, "(0, 1000]"),
    "arena.effective_extent": Key(_parse_vec3, "(0, 1000]"),
    "arena.geofence_margin": Key(_parse_float, "[0, 1000]"),
    "balloons.count": Key(_parse_int, f"[0, {MAX_BALLOONS}]"),
    "balloons.min_sep": Key(_parse_float, "[0, 1000]"),
    "balloons.diameter": Key(_parse_float, "(0, 5]", "balloons.params.diameter"),
    "balloons.pole_height": Key(_parse_float, "[0, 5]", "balloons.params.pole_height"),
    "balloons.tether_length": Key(
        _parse_float, "[0, 5]", "balloons.params.tether_length"
    ),
    "balloons.sway_amplitude": Key(
        _parse_float, "[0, pi/2)", "balloons.params.sway_amplitude"
    ),
    "balloons.sway_frequency": Key(
        _parse_float, "[0, 10]", "balloons.params.sway_frequency"
    ),
    "balloons.anchors": Key(_parse_vec3_list, "[0, 1000]"),
    "camera.focal_px": Key(_parse_float, "[1, 10000]"),
    "camera.width_px": Key(_parse_float, "[1, 10000]"),
    "camera.height_px": Key(_parse_float, "[1, 10000]"),
    "noise.center_sigma": Key(_parse_float, "[0, 1000]"),
    "noise.size_sigma_frac": Key(_parse_float, "[0, 1]"),
    "noise.p_miss_base": Key(_parse_float, "[0, 1]"),
    "noise.p_miss_range_scale": Key(_parse_float, "[0, 1]"),
    "noise.false_alarm_rate": Key(_parse_float, f"[0, {MAX_FALSE_ALARM_RATE}]"),
    "noise.confidence_floor": Key(_parse_float, "[0, 1]"),
    "agents.count": Key(_parse_int, f"[1, {MAX_AGENTS}]"),
    "agents.starts": Key(_parse_vec3_list, "(-inf, inf)"),
    "agents.start_yaw": Key(_parse_float, "(-inf, inf)"),
    "vehicle.v_max": Key(_parse_float, "(0, 50]"),
    "vehicle.v_approach": Key(_parse_float, "(0, 50]", "mission.v_approach"),
    "vehicle.tau": Key(_parse_float, "(0, 10]"),
    "vehicle.yaw_rate_max": Key(_parse_float, "(0, 10]"),
    "tracker.gate_px": Key(_parse_float, "(0, 10000]"),
    "tracker.m_confirm": Key(_parse_int, "[1, 10]"),
    "tracker.k_delete": Key(_parse_int, "[1, 10]"),
    "mission.m_commit": Key(_parse_int, "[1, 10]"),
    "mission.align_tol_px": Key(_parse_float, "(0, 10000]"),
    "mission.commit_range_max": Key(_parse_float, "(0, 1000]"),
    "mission.d_standoff": Key(_parse_float, "(0, 1000]"),
    "mission.t_confirm": Key(_parse_float, "[0, inf)"),
    "mission.tip_reach": Key(_parse_float, "[0, 5]"),
    "mission.lane_spacing": Key(_parse_float, "(0, 1000]"),
    "mission.search_altitude": Key(_parse_float, "(0, 1000]"),
    "mission.retry_limit": Key(_parse_int, "[0, 100]"),
    "mission.wp_tolerance": Key(_parse_float, "(0, 1000]"),
    "mission.wp_step": Key(_parse_float, "(0, 1000]"),
    "mission.wp_timeout": Key(_parse_float, "(0, inf)"),
    "mission.align_timeout": Key(_parse_float, "(0, inf)"),
    "mission.approach_timeout": Key(_parse_float, "(0, inf)"),
    "mission.approach_stall_timeout": Key(_parse_float, "(0, inf)"),
    "mission.revisit_timeout": Key(_parse_float, "(0, inf)"),
    "mission.yaw_gain": Key(_parse_float, "(0, 100]"),
    "fleet.claim_radius": Key(_parse_float, "(0, 1000]"),
    "fleet.min_sep": Key(_parse_float, "(0, 1000]"),
    "fleet.failures": Key(_parse_failures, "[0, inf)"),
    "sim.tick_rate": Key(_parse_float, "[1, 1000]"),
    "sim.duration_limit": Key(_parse_float, "(0, inf)"),
}
SCHEMA = {key: spec._replace(field=spec.field or key) for key, spec in SCHEMA.items()}


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
            values[key] = SCHEMA[key].parse(raw_value)
        except (ValueError, TypeError) as exc:
            raise ParseError(key, f"bad value {raw_value!r} ({exc})") from None
    return build_scenario(values)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"not UTF-8 text: {exc}") from None
    return parse_scenario_text(text)


def default_of(key: str) -> object:
    """The default of a key: its field in the all-defaults ``Scenario``."""
    return reduce(getattr, SCHEMA[key].field.split("."), _DEFAULTS)


def _numbers(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    else:
        yield value


def _fill(base, tree: dict):
    """``base`` with the fields in ``tree`` replaced, nested dicts recursively."""
    changes = {
        name: _fill(getattr(base, name), sub) if isinstance(sub, dict) else sub
        for name, sub in tree.items()
    }
    if isinstance(base, Scenario):
        return replace(base, **changes)
    return base._replace(**changes)


def build_scenario(values: dict[str, object]) -> Scenario:
    """Check, complete and assemble a Scenario from parsed key/value pairs.

    A list of anchors or starts sets its count.  Every value must lie in
    its key's domain, which also bounds the counts; the ``Scenario``
    defaults fill the missing keys; then the rules between keys and the
    tick budget are checked.  It is the one place a configuration value
    is checked: the records it builds and the functions a run calls trust
    the values it hands them.
    """
    values = dict(values)
    if "balloons.anchors" in values:
        if not values["balloons.anchors"]:
            raise ValidationError("balloons.anchors", "lists no anchor")
        values["balloons.count"] = len(values["balloons.anchors"])
    if "agents.starts" in values:
        if not values["agents.starts"]:
            raise ValidationError("agents.starts", "lists no start position")
        values.setdefault("agents.count", len(values["agents.starts"]))
    for key, value in values.items():
        spec = SCHEMA[key]
        for x in _numbers(value):
            if not spec.accepts(x):
                raise ValidationError(key, f"{x!r} is outside {spec.domain}")
    v = {key: values[key] if key in values else default_of(key) for key in SCHEMA}

    rate, duration = v["sim.tick_rate"], v["sim.duration_limit"]
    if rate * duration > MAX_TICKS:
        raise ValidationError(
            "sim.duration_limit",
            f"{duration:g} s at sim.tick_rate {rate:g} Hz is more than "
            f"MAX_TICKS = {MAX_TICKS} ticks",
        )
    if v["vehicle.v_approach"] > v["vehicle.v_max"]:
        raise ValidationError("vehicle.v_approach", "must be at most vehicle.v_max")
    tree: dict = {}
    for key, spec in SCHEMA.items():
        *sections, name = spec.field.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = v[key]
    arena = tree["arena"] = _fill(_DEFAULTS.arena, tree["arena"])
    if any(e > o for e, o in zip(arena.effective_extent, arena.outer_extent)):
        raise ValidationError(
            "arena.effective_extent", "effective extent must fit inside outer extent"
        )
    fence = geofence_from_arena(arena)
    if any(lo >= hi for lo, hi in zip(fence.lo, fence.hi)):
        # an extent too small to move its own coordinates (1e-300 at 50 m)
        raise ValidationError(
            "arena.effective_extent", "geofence min must be strictly below max"
        )
    anchors = v["balloons.anchors"]
    bases = [v["balloons.pole_height"]] if anchors is None else [a[2] for a in anchors]
    if any(z + v["balloons.tether_length"] > MAX_BALLOON_HEIGHT_M for z in bases):
        raise ValidationError(
            "balloons.tether_length",
            f"balloon centers must stay at most {MAX_BALLOON_HEIGHT_M} m high",
        )
    # A tip flies no higher than the fence top, so the lowest a center
    # sways to must lie within pop reach of it.
    top = fence.hi[2]
    reach = v["balloons.diameter"] / 2.0 + v["mission.tip_reach"]
    low = v["balloons.tether_length"] * math.cos(v["balloons.sway_amplitude"])
    for z in bases:
        if z + low - top > reach:
            raise ValidationError(
                "balloons.pole_height" if anchors is None else "balloons.anchors",
                f"a balloon center {z + low:g} m high is out of pop reach "
                f"({reach:g} m) above the geofence top at {top:g} m",
            )
    (x0, y0, _), (x1, y1, _) = fence
    for i, a in enumerate(anchors or ()):
        if not (x0 <= a[0] <= x1 and y0 <= a[1] <= y1):
            raise ValidationError("balloons.anchors", f"anchor {i} {a} outside geofence")
    n_agents = v["agents.count"]
    for agent_id, _ in v["fleet.failures"]:
        if agent_id >= n_agents:
            raise ValidationError("fleet.failures", f"unknown agent {agent_id}")

    starts = v["agents.starts"]
    height_key = spread_key = "agents.starts"
    if not starts:
        # Worked-out starts sit at search altitude across the effective
        # extent, so their errors name those keys.
        starts = _default_starts(arena, n_agents, v["mission.search_altitude"])
        height_key, spread_key = "mission.search_altitude", "arena.effective_extent"
    if len(starts) != n_agents:
        raise ValidationError(
            "agents.starts", f"expected {n_agents} start positions, got {len(starts)}"
        )
    for i, s in enumerate(starts):
        if not fence.contains(s):
            raise ValidationError(height_key, f"agent {i} start {s} outside geofence")
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            if math.dist(starts[i][:2], starts[j][:2]) < 1e-6:
                raise ValidationError(
                    spread_key, f"agents {i} and {j} share a start position"
                )
    tree["agents"]["starts"] = starts
    return _fill(_DEFAULTS, tree)


def _default_starts(arena: Arena, n: int, altitude: float) -> tuple[Vec3, ...]:
    """Spread agents across the footprint midline at search altitude."""
    xmin, ymin, xmax, ymax = arena.footprint
    ymid = (ymin + ymax) / 2.0
    return tuple(
        (xmin + (i + 1) * (xmax - xmin) / (n + 1), ymid, altitude) for i in range(n)
    )


def default_scenario(seed: int = 0) -> Scenario:
    """The all-defaults scenario (5 balloons, 1 agent) with a given seed."""
    return build_scenario({"seed": seed})
