"""Seeded boundary-value fuzz over ``scenario.SCHEMA``.

Values are drawn from the table itself, in the manner of QuickCheck's
boundary generators (Claessen and Hughes, ICFP 2000): each end of a key's
domain, just inside and just outside it, a huge value, the most agents
and balloons the budget allows and one more, mixed with plain values
near the default.  A scenario the parser accepts must fit the tick
budget; it then runs cut to at most ``MAX_RUN_TICKS`` ticks and must
finish or stop with an error the CLI maps to an exit code: a
configuration error (exit 1), an ``InvariantViolation`` or a
``NumericalFailure`` (exit 2).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bhsim.cli import CONFIG_ERRORS
from bhsim.scenario import (
    MAX_AGENTS,
    MAX_BALLOONS,
    MAX_TICKS,
    SCHEMA,
    ValidationError,
    _numbers,
    _parse_failures,
    _parse_float,
    _parse_int,
    _parse_vec3,
    _parse_vec3_list,
    default_of,
    parse_scenario_text,
)
from bhsim.sim import InvariantViolation, run_simulation
from bhsim.tracking import NumericalFailure

CASES = 200
MAX_RUN_TICKS = 200
MANY_BALLOONS = 20
KEY_PROBABILITY = 0.1
BOUNDARY_PROBABILITY = 0.25
HUGE = 1e12
TYPED = CONFIG_ERRORS + (InvariantViolation, NumericalFailure)


def _boundary_numbers(key: str) -> list:
    """Each finite end, one step inside and one step outside it, and +-huge."""
    spec = SCHEMA[key]
    is_int = spec.parse is _parse_int
    out = [int(HUGE), -int(HUGE)] if is_int else [HUGE, -HUGE]
    for end, inward in zip(spec.ends, (1, -1)):
        if math.isfinite(end):
            if is_int:
                out += [int(end), int(end) + inward, int(end) - inward]
            else:
                out += [end, math.nextafter(end, inward * math.inf),
                        math.nextafter(end, -inward * math.inf)]
    return out


def _plain_number(rng: np.random.Generator, key: str, default: float):
    """A value in the domain near the default (the default itself if the
    draw falls outside)."""
    if SCHEMA[key].parse is _parse_int:
        x = int(default) + int(rng.integers(-2, 3))
    elif default == 0.0:
        x = float(rng.uniform(0.0, 1.0))
    else:
        x = default * 10.0 ** rng.uniform(-0.5, 0.5)
    return x if SCHEMA[key].accepts(x) else default


def _pick(rng: np.random.Generator, items: list):
    return items[int(rng.integers(len(items)))]


def _fmt(x) -> str:
    return str(x) if isinstance(x, int) else repr(float(x))


def _point(rng: np.random.Generator, hi: tuple[float, float, float]) -> tuple:
    return tuple(float(rng.uniform(0.0, h)) for h in hi)


def _points(rng: np.random.Generator, key: str, boundary: bool) -> str:
    # Anchors sit under the 5 m limit, starts inside the default fence.
    hi = (100.0, 40.0, 4.0) if key == "balloons.anchors" else (96.0, 36.0, 6.0)
    most = MAX_BALLOONS if key == "balloons.anchors" else MAX_AGENTS
    n = _pick(rng, [most, most + 1]) if boundary else int(rng.integers(1, 5))
    points = [list(_point(rng, hi)) for _ in range(n)]
    if boundary and rng.random() < 0.5:
        points[0][int(rng.integers(0, 3))] = _pick(rng, _boundary_numbers(key))
    return "; ".join(", ".join(_fmt(c) for c in p) for p in points)


def _draw_value(rng: np.random.Generator, key: str) -> str:
    spec = SCHEMA[key]
    boundary = rng.random() < BOUNDARY_PROBABILITY
    if spec.parse in (_parse_int, _parse_float):
        if boundary:
            return _fmt(_pick(rng, _boundary_numbers(key)))
        return _fmt(_plain_number(rng, key, default_of(key)))
    if spec.parse is _parse_vec3:
        vec = [_plain_number(rng, key, d) for d in default_of(key)]
        if boundary:
            vec[int(rng.integers(0, 3))] = _pick(rng, _boundary_numbers(key))
        return ", ".join(_fmt(c) for c in vec)
    if spec.parse is _parse_vec3_list:
        return _points(rng, key, boundary)
    if spec.parse is _parse_failures:
        times = _boundary_numbers(key) if boundary else [float(rng.uniform(0.0, 12.0))]
        return "; ".join(
            f"{int(rng.integers(-1, 4))}:{_fmt(_pick(rng, times))}"
            for _ in range(int(rng.integers(1, 3)))
        )
    raise AssertionError(f"no generator for {key} ({spec.parse.__name__})")


def _draw_scenario(rng: np.random.Generator) -> str:
    values = {
        key: _draw_value(rng, key)
        for key in SCHEMA
        if rng.random() < KEY_PROBABILITY
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _cut(scenario):
    """The scenario cut to at most MAX_RUN_TICKS ticks, a tenth of that
    with more than MANY_BALLOONS balloons: a frame's assignment is cubic
    in the balloons in view."""
    sim = scenario.sim
    ticks = MAX_RUN_TICKS
    if scenario.balloons.count > MANY_BALLOONS:
        ticks //= 10
    duration = min(sim.duration_limit, ticks / sim.tick_rate)
    return replace(scenario, sim=sim._replace(duration_limit=duration))


def test_every_generator_covers_its_key():
    rng = np.random.default_rng(0)
    for key in SCHEMA:
        for _ in range(20):
            SCHEMA[key].parse(_draw_value(rng, key))


def test_fuzzed_scenarios_finish_or_fail_typed():
    rng = np.random.default_rng(20240601)
    outcomes = {"finished": 0}
    for case in range(CASES):
        text = _draw_scenario(rng)
        try:
            scenario = parse_scenario_text(text)
            assert scenario.sim.tick_rate * scenario.sim.duration_limit <= MAX_TICKS
            run_simulation(_cut(scenario))
        except TYPED as exc:
            name = type(exc).__name__
            outcomes[name] = outcomes.get(name, 0) + 1
            continue
        except Exception as exc:  # noqa: BLE001 - report the scenario
            pytest.fail(f"case {case}: untyped {type(exc).__name__}: {exc}\n{text}")
        outcomes["finished"] += 1
    # The draw must reach the simulator, not only the parser.
    assert outcomes["finished"] >= CASES // 4, outcomes


def _alone(key: str) -> list[str]:
    """Values of ``key`` with one number at each boundary, and huge lists."""
    spec = SCHEMA[key]
    numbers = _boundary_numbers(key)
    if spec.parse in (_parse_int, _parse_float):
        return [_fmt(x) for x in numbers]
    if spec.parse is _parse_vec3:
        default = default_of(key)
        return [
            ", ".join(_fmt(x if i == axis else c) for i, c in enumerate(default))
            for x in numbers for axis in range(3)
        ]
    if spec.parse is _parse_vec3_list:
        many = "; ".join(f"{i % 90 + 5}, {i // 90 % 30 + 5}, 2" for i in range(10**5))
        return [f"{_fmt(x)}, 20, 2" for x in numbers] + [many]
    return [f"0:{_fmt(x)}" for x in numbers] + [f"{int(HUGE)}:1", "-1:1"]


def test_each_key_alone_at_its_boundaries_parses_in_bounded_time():
    # Parse only: an out-of-domain number is a ValidationError naming its
    # key; an in-domain one is accepted or broken by a rule between keys.
    start = time.perf_counter()
    for key, spec in SCHEMA.items():
        for value in _alone(key):
            text = f"{key} = {value}\n"
            outside = not all(spec.accepts(x) for x in _numbers(spec.parse(value)))
            try:
                parse_scenario_text(text)
            except ValidationError as exc:
                assert not outside or str(exc).startswith(f"{key}: "), (text, exc)
            else:
                assert not outside, text[:200]
    assert time.perf_counter() - start < 10.0
