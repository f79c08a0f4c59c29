"""Records trust their values; the scenario parser checks them.

``Arena``, ``NoiseModel``, ``CameraIntrinsics``, ``Geofence`` and
``Balloon`` are plain NamedTuples: none of them checks its fields.
``build_scenario(values)`` is the checked constructor.  Each value a
record would hold but a run must not is rejected there, with a
``ValidationError`` naming the key that would set it, whether the
scenario is built from values or from a scenario file.  A ``Balloon``
carries no id (its number is its index in the world) and none of the
balloon model every balloon of a run shares (``WorldState.params``): it
holds its anchor and sway phase and plane.
"""

import copy
import math
import pickle
import random
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from bhsim.events import EventLog
from bhsim.perception import CameraIntrinsics, NoiseModel
from bhsim.scenario import (
    SCHEMA,
    Scenario,
    ValidationError,
    build_scenario,
    parse_scenario_text,
)
from bhsim.sim import _Run
from bhsim.vehicle import Geofence
from bhsim.world import Arena, Balloon, make_balloon

FENCE = {"lo": (0.0, 0.0, 0.0), "hi": (10.0, 10.0, 6.0)}
DEFAULT_CFG = Path(__file__).resolve().parents[1] / "scenarios" / "default.cfg"

# (record, field, scenario lines that would give the field a bad value,
# key the ValidationError names)
INVALID = [
    (Arena, "outer_extent", "arena.outer_extent = 0, 40, 20", "arena.outer_extent"),
    (Arena, "effective_extent", "arena.effective_extent = 90, -1, 5",
     "arena.effective_extent"),
    (Arena, "effective_extent", "arena.effective_extent = 120, 30, 5",
     "arena.effective_extent"),
    (Arena, "geofence_margin", "arena.geofence_margin = -0.5",
     "arena.geofence_margin"),
    (NoiseModel, "p_miss_base", "noise.p_miss_base = 1.5", "noise.p_miss_base"),
    (NoiseModel, "confidence_floor", "noise.confidence_floor = -0.1",
     "noise.confidence_floor"),
    (NoiseModel, "center_sigma", "noise.center_sigma = -1", "noise.center_sigma"),
    (NoiseModel, "false_alarm_rate", "noise.false_alarm_rate = -0.1",
     "noise.false_alarm_rate"),
    (CameraIntrinsics, "focal_px", "camera.focal_px = 0", "camera.focal_px"),
    # 1e-300 m does not move x = 50 m: the fence's lo and hi would coincide
    (Geofence, "hi",
     "arena.effective_extent = 1e-300, 30, 5\narena.geofence_margin = 0",
     "arena.effective_extent"),
]
INVALID_IDS = [f"{case[0].__name__}.{case[1]}" for case in INVALID]
INVALID_LINES = [case[2:] for case in INVALID]
CONFIG_RECORDS = {Arena, NoiseModel, CameraIntrinsics, Geofence}


def _values(lines: str) -> dict[str, object]:
    """Parsed values of ``key = value`` lines, as the parser hands them on."""
    values = {}
    for line in lines.splitlines():
        key, _, raw = line.partition(" = ")
        values[key] = SCHEMA[key].parse(raw)
    return values


def _rejected_key(lines: str) -> str:
    with pytest.raises(ValidationError) as err:
        build_scenario(_values(lines))
    return err.value.key


@pytest.mark.parametrize("lines, key", INVALID_LINES, ids=INVALID_IDS)
def test_checked_records_reject_bad_fields_when_built(lines, key):
    assert _rejected_key(lines) == key


@pytest.mark.parametrize("lines, key", INVALID_LINES, ids=INVALID_IDS)
def test_checked_records_reject_bad_fields_when_replaced(lines, key):
    # The same values replace their keys' lines in a whole scenario file.
    replaced = _values(lines)
    kept = [
        line for line in DEFAULT_CFG.read_text(encoding="utf-8").splitlines()
        if line.split("=", 1)[0].strip() not in replaced
    ]
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("\n".join(kept + lines.splitlines()) + "\n")
    assert err.value.key == key


@pytest.mark.parametrize("cls", sorted(CONFIG_RECORDS, key=lambda c: c.__name__))
def test_checked_records_replace_builds_their_own_type(cls):
    record = cls(**(FENCE if cls is Geofence else {}))
    name = record._fields[-1]
    value = getattr(record, name)
    changed = record._replace(**{name: value})
    assert type(changed) is cls and changed == record
    if sys.version_info >= (3, 13):
        assert type(copy.replace(record, **{name: value})) is cls
    assert type(pickle.loads(pickle.dumps(record))) is cls


@pytest.mark.parametrize("lines, key", [
    pytest.param("balloons.diameter = 0", "balloons.diameter", id="bad0-diameter"),
    pytest.param(
        f"balloons.sway_amplitude = {math.pi / 2!r}", "balloons.sway_amplitude",
        id="bad1-sway_amplitude",
    ),
    pytest.param(
        "balloons.sway_amplitude = -0.1", "balloons.sway_amplitude",
        id="bad2-sway_amplitude",
    ),
    pytest.param(
        "balloons.anchors = 10, 10, 4.5", "balloons.tether_length", id="bad3-height"
    ),
])
def test_balloon_rejects_bad_arguments(lines, key):
    # A balloon trusts its size, sway and height: the parser bounds them.
    assert _rejected_key(lines) == key


def test_balloon_compares_on_its_arguments_and_works_out_its_sway():
    # make_balloon draws the phase, then the azimuth, and keeps the
    # azimuth as the swing plane's direction cosines.
    anchor = (10.0, 10.0, 2.0)
    b = make_balloon(anchor, random.Random(7))
    draws = random.Random(7)
    phase, azimuth = 2.0 * math.pi * draws.random(), 2.0 * math.pi * draws.random()
    assert b == Balloon(anchor, phase, math.cos(azimuth), math.sin(azimuth))
    assert b != Balloon(anchor, phase, math.cos(0.4), math.sin(0.4))
    assert (b.sway_cos, b.sway_sin) == (math.cos(azimuth), math.sin(azimuth))


def test_a_run_holds_one_balloon_model_and_balloons_only_their_own_fields():
    scenario = parse_scenario_text(DEFAULT_CFG.read_text(encoding="utf-8"))
    world = _Run(scenario, EventLog()).world
    assert world.params is scenario.balloons.params
    assert Balloon._fields == ("anchor", "sway_phase", "sway_cos", "sway_sin")
    assert len(world.balloons) == scenario.balloons.count


def test_pixel_target_rejects_a_non_positive_focal_length():
    # A pixel target's focal length is the camera's, which the parser
    # keeps in [1, 10000].
    for focal in ("0", "-600"):
        assert _rejected_key(f"camera.focal_px = {focal}") == "camera.focal_px"


def _named_tuple_records():
    s = Scenario()
    sections = [getattr(s, f.name) for f in fields(s) if f.name != "seed"]
    return sections + [s.balloons.params, SCHEMA["seed"], Geofence(**FENCE)]


@pytest.mark.parametrize(
    "record", _named_tuple_records(), ids=lambda r: type(r).__name__
)
def test_named_tuple_records_are_immutable(record):
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.not_a_field = 1
