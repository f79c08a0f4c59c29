"""Records keep their checks and their immutability.

The configuration records are NamedTuples; ``Arena``, ``NoiseModel``,
``CameraIntrinsics`` and ``Geofence`` check their fields when built, when
``_replace``d and, from Python 3.13, when copied by ``copy.replace``.
``Balloon`` and ``PixelTarget`` are ``__slots__`` classes that check
their arguments when built.  A ``Balloon`` carries no id (its number is
its index in the world), so two are equal when all their other
arguments are.
"""

import copy
import math
import pickle
import sys
from dataclasses import fields

import pytest

from bhsim.guidance import PixelTarget
from bhsim.perception import CameraIntrinsics, NoiseModel
from bhsim.scenario import SCHEMA, Scenario
from bhsim.vehicle import Geofence
from bhsim.world import Arena, Balloon

FENCE = {"lo": (0.0, 0.0, 0.0), "hi": (10.0, 10.0, 6.0)}

# (record, valid arguments, bad arguments, message of the ValueError)
INVALID = [
    (Arena, {}, {"outer_extent": (0.0, 40.0, 20.0)}, "strictly positive"),
    (Arena, {}, {"effective_extent": (90.0, -1.0, 5.0)}, "strictly positive"),
    (Arena, {}, {"effective_extent": (120.0, 30.0, 5.0)}, "fit inside"),
    (Arena, {}, {"geofence_margin": -0.5}, "non-negative"),
    (NoiseModel, {}, {"p_miss_base": 1.5}, "probability"),
    (NoiseModel, {}, {"confidence_floor": -0.1}, r"\[0, 1\]"),
    (NoiseModel, {}, {"center_sigma": -1.0}, "non-negative"),
    (NoiseModel, {}, {"false_alarm_rate": -0.1}, "non-negative"),
    (CameraIntrinsics, {}, {"focal_px": 0.0}, "focal length"),
    (Geofence, FENCE, {"hi": (10.0, 0.0, 6.0)}, "strictly below"),
]
INVALID_IDS = [f"{case[0].__name__}.{next(iter(case[2]))}" for case in INVALID]
NAMED_TUPLE_CHECKED = {Arena, NoiseModel, CameraIntrinsics, Geofence}


@pytest.mark.parametrize("cls, valid, bad, message", INVALID, ids=INVALID_IDS)
def test_checked_records_reject_bad_fields_when_built(cls, valid, bad, message):
    with pytest.raises(ValueError, match=message):
        cls(**{**valid, **bad})


@pytest.mark.parametrize("cls, valid, bad, message", INVALID, ids=INVALID_IDS)
def test_checked_records_reject_bad_fields_when_replaced(cls, valid, bad, message):
    record = cls(**valid)
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is 3.13+")
@pytest.mark.parametrize("cls, valid, bad, message", INVALID, ids=INVALID_IDS)
def test_checked_records_reject_bad_fields_when_copy_replaced(
    cls, valid, bad, message
):
    record = cls(**valid)
    with pytest.raises(ValueError, match=message):
        copy.replace(record, **bad)


@pytest.mark.parametrize("cls", sorted(NAMED_TUPLE_CHECKED, key=lambda c: c.__name__))
def test_checked_records_replace_builds_their_own_type(cls):
    record = cls(**(FENCE if cls is Geofence else {}))
    name = record._fields[-1]
    value = getattr(record, name)
    changed = record._replace(**{name: value})
    assert type(changed) is cls and changed == record
    if sys.version_info >= (3, 13):
        assert type(copy.replace(record, **{name: value})) is cls
    assert type(pickle.loads(pickle.dumps(record))) is cls


BALLOON = {"anchor": (10.0, 10.0, 2.0)}


@pytest.mark.parametrize("bad, message", [
    ({"diameter": 0.0}, "diameter"),
    ({"sway_amplitude": math.pi / 2}, "sway_amplitude"),
    ({"sway_amplitude": -0.1}, "sway_amplitude"),
    ({"anchor": (10.0, 10.0, 4.5)}, "height"),
])
def test_balloon_rejects_bad_arguments(bad, message):
    with pytest.raises(ValueError, match=message):
        Balloon(**{**BALLOON, **bad})


def test_balloon_compares_on_its_arguments_and_works_out_its_sway():
    b = Balloon(**BALLOON, sway_frequency=0.5, sway_azimuth=0.3)
    assert b == Balloon(**BALLOON, sway_frequency=0.5, sway_azimuth=0.3)
    assert b != Balloon(**BALLOON, sway_frequency=0.5, sway_azimuth=0.4)
    assert (b.sway_omega, b.sway_cos, b.sway_sin) == (
        2.0 * math.pi * 0.5, math.cos(0.3), math.sin(0.3)
    )


def test_pixel_target_rejects_a_non_positive_focal_length():
    for focal in (0.0, -600.0):
        with pytest.raises(ValueError, match="focal length"):
            PixelTarget(1.0, 2.0, focal)


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
