"""Seeded fuzz over ``scenario.SCHEMA``: any scenario ends with a typed outcome.

Each case draws a handful of keys with values around their defaults,
plus zeros, negatives and tiny values, and caps the run at 10 s of
simulated time with a bounded tick rate.  Every case must either run to
completion or stop with an error the CLI maps to an exit code: a
configuration error (exit 1), an ``InvariantViolation`` or a
``NumericalFailure`` (exit 2).
"""

import numpy as np
import pytest

from bhsim.cli import CONFIG_ERRORS
from bhsim.scenario import SCHEMA, _parse_failures, _parse_float, _parse_int
from bhsim.scenario import _parse_vec3, _parse_vec3_list, parse_scenario_text
from bhsim.sim import InvariantViolation, run_simulation
from bhsim.tracking import NumericalFailure

CASES = 200
MAX_DURATION_S = 10.0
MAX_TICKS = 200
KEY_PROBABILITY = 0.1
TYPED = CONFIG_ERRORS + (InvariantViolation, NumericalFailure)

# Scale of a plausible value for each float key (its default, or a
# typical size where the default is zero).
FLOAT_SCALE = {
    "arena.geofence_margin": 1.0,
    "balloons.min_sep": 8.0,
    "balloons.diameter": 0.45,
    "balloons.pole_height": 2.0,
    "balloons.tether_length": 1.0,
    "balloons.sway_amplitude": 0.1,
    "balloons.sway_frequency": 0.2,
    "camera.focal_px": 600.0,
    "camera.width_px": 1280.0,
    "camera.height_px": 720.0,
    "noise.center_sigma": 2.0,
    "noise.size_sigma_frac": 0.05,
    "noise.p_miss_base": 0.05,
    "noise.p_miss_range_scale": 0.002,
    "noise.false_alarm_rate": 0.1,
    "noise.confidence_floor": 0.1,
    "agents.start_yaw": 1.0,
    "vehicle.v_max": 2.0,
    "vehicle.v_approach": 1.5,
    "vehicle.tau": 0.3,
    "vehicle.yaw_rate_max": 1.5,
    "tracker.gate_px": 80.0,
    "mission.align_tol_px": 30.0,
    "mission.commit_range_max": 25.0,
    "mission.d_standoff": 6.0,
    "mission.t_confirm": 5.0,
    "mission.tip_reach": 0.5,
    "mission.lane_spacing": 15.0,
    "mission.search_altitude": 4.0,
    "mission.wp_tolerance": 1.0,
    "mission.wp_step": 15.0,
    "mission.wp_timeout": 25.0,
    "mission.align_timeout": 15.0,
    "mission.approach_timeout": 90.0,
    "mission.approach_stall_timeout": 10.0,
    "mission.revisit_timeout": 30.0,
    "mission.yaw_gain": 1.5,
    "fleet.claim_radius": 5.0,
    "fleet.min_sep": 5.0,
}
INT_RANGE = {
    "seed": (0, 1000),
    "balloons.count": (-1, 25),
    "agents.count": (-1, 6),
    "tracker.m_confirm": (-1, 6),
    "tracker.k_delete": (-1, 6),
    "mission.m_commit": (-1, 6),
    "mission.retry_limit": (-1, 4),
}
VEC3_DEFAULT = {
    "arena.outer_extent": (100.0, 40.0, 20.0),
    "arena.effective_extent": (90.0, 30.0, 5.0),
}


def _num(x: float) -> str:
    return repr(float(x))


def _draw_float(rng: np.random.Generator, scale: float) -> float:
    u = rng.random()
    if u < 0.05:
        return 0.0
    if u < 0.1:
        return -scale * rng.random()
    if u < 0.15:
        return 1e-9
    return scale * 10.0 ** rng.uniform(-1.5, 1.0)


def _draw_point(rng: np.random.Generator) -> str:
    x, y, z = rng.uniform(-10.0, 110.0), rng.uniform(-10.0, 50.0), rng.uniform(0, 6)
    return f"{_num(x)}, {_num(y)}, {_num(z)}"


def _draw_value(rng: np.random.Generator, key: str) -> str:
    if key == "sim.duration_limit":
        return _num(-1.0 if rng.random() < 0.05 else rng.uniform(0.0, MAX_DURATION_S))
    if key == "sim.tick_rate":
        return _num(-1.0 if rng.random() < 0.05 else rng.uniform(0.05, 20.0))
    parser = SCHEMA[key]
    if parser is _parse_int:
        lo, hi = INT_RANGE[key]
        return str(int(rng.integers(lo, hi + 1)))
    if parser is _parse_float:
        return _num(_draw_float(rng, FLOAT_SCALE[key]))
    if parser is _parse_vec3:
        return ", ".join(
            _num(_draw_float(rng, d) if rng.random() < 0.2
                 else d * rng.uniform(0.5, 1.5))
            for d in VEC3_DEFAULT[key]
        )
    if parser is _parse_vec3_list:
        return "; ".join(_draw_point(rng) for _ in range(int(rng.integers(1, 5))))
    if parser is _parse_failures:
        return "; ".join(
            f"{int(rng.integers(-1, 5))}:{_num(rng.uniform(-1.0, 12.0))}"
            for _ in range(int(rng.integers(1, 3)))
        )
    raise AssertionError(f"no generator for {key} ({parser.__name__})")


def _draw_scenario(rng: np.random.Generator) -> str:
    values = {
        key: _draw_value(rng, key)
        for key in SCHEMA
        if rng.random() < KEY_PROBABILITY
    }
    values.setdefault("sim.duration_limit", _num(rng.uniform(1.0, MAX_DURATION_S)))
    values.setdefault("sim.tick_rate", _num(rng.uniform(1.0, 20.0)))
    # Bound the tick count so every case stays short.
    duration, rate = float(values["sim.duration_limit"]), float(values["sim.tick_rate"])
    if duration * rate > MAX_TICKS:
        values["sim.duration_limit"] = _num(MAX_TICKS / rate)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def test_every_generator_covers_its_key():
    rng = np.random.default_rng(0)
    for key in SCHEMA:
        parse_value = SCHEMA[key]
        parse_value(_draw_value(rng, key))


def test_fuzzed_scenarios_finish_or_fail_typed():
    rng = np.random.default_rng(20240601)
    outcomes = {"finished": 0}
    for case in range(CASES):
        text = _draw_scenario(rng)
        try:
            run_simulation(parse_scenario_text(text))
        except TYPED as exc:
            name = type(exc).__name__
            outcomes[name] = outcomes.get(name, 0) + 1
            continue
        except Exception as exc:  # noqa: BLE001 - report the scenario
            pytest.fail(f"case {case}: untyped {type(exc).__name__}: {exc}\n{text}")
        outcomes["finished"] += 1
    # The draw must reach the simulator, not only the parser.
    assert outcomes["finished"] >= CASES // 4, outcomes
