import json
import math
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from bhsim.events import (
    EVENT_KINDS,
    emit_line,
    make_event,
    parse_line,
    read_event_log,
    serialize_events,
    write_event_log,
)
from bhsim.scenario import (
    MAX_AGENTS,
    MAX_BALLOONS,
    MAX_FALSE_ALARM_RATE,
    MAX_TICKS,
    SCHEMA,
    Key,
    ParseError,
    Scenario,
    ValidationError,
    _numbers,
    _parse_float,
    _parse_vec3,
    _parse_vec3_list,
    default_of,
    default_scenario,
    load_scenario,
    parse_scenario_text,
)

FLOAT_KEYS = [k for k, spec in SCHEMA.items() if spec.parse is _parse_float]
VECTOR_KEYS = [
    k for k, spec in SCHEMA.items() if spec.parse in (_parse_vec3, _parse_vec3_list)
]


def test_minimal_scenario_gets_full_defaults():
    s = parse_scenario_text("seed = 7\n")
    assert s.seed == 7
    assert s.arena.outer_extent == (100.0, 40.0, 20.0)
    assert s.arena.effective_extent == (90.0, 30.0, 5.0)
    assert s.balloons.count == 5
    assert s.balloons.params.diameter == 0.45
    assert s.agents.count == 1
    assert s.mission.search_altitude == 4.0
    assert s.vehicle.v_max == 2.0
    assert s.sim.tick_rate == 20.0
    assert s.sim.duration_limit == 600.0


def test_comments_and_blank_lines_ignored():
    s = parse_scenario_text("# a comment\n\nseed = 3  # trailing\n")
    assert s.seed == 3


def test_unknown_key_is_fatal():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("ballons.count = 5\n")
    assert "ballons.count" in str(err.value)


def test_zero_tick_rate_rejected_naming_key():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\nsim.tick_rate = 0\n")
    assert "sim.tick_rate" in str(err.value)


@pytest.mark.parametrize(
    "text, key",
    [
        ("balloons.sway_amplitude = -0.1\n", "balloons.sway_amplitude"),
        ("balloons.sway_amplitude = 1.6\n", "balloons.sway_amplitude"),
        ("balloons.pole_height = 4.5\n", "balloons.tether_length"),
        ("balloons.anchors = 10,10,2; 30,20,4.2\n", "balloons.tether_length"),
        ("balloons.min_sep = -1\n", "balloons.min_sep"),
        ("mission.yaw_gain = 0\n", "mission.yaw_gain"),
        # 1e-300 m does not move x = 50 m: the geofence would have no width
        pytest.param(
            "arena.effective_extent = 1e-300, 30, 5\narena.geofence_margin = 0\n",
            "arena.effective_extent",
            id="no-geofence-width",
        ),
        pytest.param(
            "arena.effective_extent = 120, 30, 5\n",
            "arena.effective_extent",
            id="effective-wider-than-outer",
        ),
        # Worked-out starts at the 4 m search altitude, above a 2 m + 1 m
        # fence, or 16 of them along a 1e-5 m wide footprint, 6e-7 m apart.
        pytest.param(
            "arena.effective_extent = 90, 30, 2\n",
            "mission.search_altitude",
            id="default-start-above-fence",
        ),
        pytest.param(
            "agents.count = 16\narena.effective_extent = 1e-5, 30, 5\n",
            "arena.effective_extent",
            id="default-starts-coincide",
        ),
        # An empty list of starts is not the absence of the key.
        pytest.param("agents.starts =\n", "agents.starts", id="empty-starts"),
        pytest.param(
            "agents.starts =\nagents.count = 2\n",
            "agents.starts",
            id="empty-starts-with-count",
        ),
        # Nor is an empty list of anchors, whatever balloons.count says.
        pytest.param("balloons.anchors =\n", "balloons.anchors", id="empty-anchors"),
        pytest.param(
            "balloons.anchors =\nballoons.count = 3\n",
            "balloons.anchors",
            id="empty-anchors-with-count",
        ),
    ],
)
def test_values_a_run_cannot_use_are_rejected_naming_key(text, key):
    # Each of these used to pass the parser and end the run in a plain
    # ValueError.
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\n" + text)
    assert str(err.value).startswith(key)


def test_balloon_height_limit_is_inclusive():
    s = parse_scenario_text("seed = 1\nballoons.pole_height = 4\n")
    assert s.balloons.params.pole_height + s.balloons.params.tether_length == 5.0


def test_malformed_line_rejected():
    with pytest.raises(ParseError):
        parse_scenario_text("seed 7\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_scenario_text("seed = 1\nseed = 2\n")


def test_bad_value_names_key():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("vehicle.v_max = fast\n")
    assert "vehicle.v_max" in str(err.value)


def test_vector_and_list_values():
    s = parse_scenario_text(
        "seed = 1\n"
        "arena.outer_extent = 100, 40, 20\n"
        "balloons.anchors = 10,10,2 ; 30,20,2\n"
        "agents.starts = 50 20 4\n"
    )
    assert s.balloons.count == 2
    assert s.balloons.anchors == ((10.0, 10.0, 2.0), (30.0, 20.0, 2.0))
    assert s.agents.starts == ((50.0, 20.0, 4.0),)


def test_failures_parsing_sorted_by_time():
    s = parse_scenario_text("seed = 1\nagents.count = 3\nfleet.failures = 2:200; 1:120\n")
    assert s.fleet.failures == ((1, 120.0), (2, 200.0))


def test_failures_unknown_agent_rejected():
    with pytest.raises(ValidationError):
        parse_scenario_text("seed = 1\nfleet.failures = 5:100\n")


def test_start_outside_geofence_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\nagents.starts = 200, 20, 4\n")
    assert "agents.starts" in str(err.value)


def test_default_starts_spread_across_footprint():
    s = parse_scenario_text("seed = 1\nagents.count = 3\n")
    xs = [p[0] for p in s.agents.starts]
    assert xs == [27.5, 50.0, 72.5]
    assert all(p[1] == 20.0 and p[2] == 4.0 for p in s.agents.starts)


def test_load_scenario_file_round_trip(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("seed = 11\ntracker.gate_px = 60\n", encoding="utf-8")
    s = load_scenario(path)
    assert s.seed == 11
    assert s.tracker.gate_px == 60.0


def test_default_scenario_helper():
    s = default_scenario(seed=5)
    assert s.seed == 5 and s.balloons.count == 5


@pytest.mark.parametrize(
    "line", ["camera.mount = forward", "mission.yaw_mode = horizontal_offset"]
)
def test_deleted_keys_are_unknown(line):
    # One forward camera and one yaw law: neither is a key any more.
    with pytest.raises(ParseError) as err:
        parse_scenario_text(f"seed = 1\n{line}\n")
    assert "unknown key" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS + VECTOR_KEYS + ["fleet.failures"])
def test_non_finite_float_rejected(key, bad):
    if key in VECTOR_KEYS:
        value = f"1, {bad}, 2"
    elif key == "fleet.failures":
        value = f"0:{bad}"
    else:
        value = bad
    with pytest.raises(ParseError) as err:
        parse_scenario_text(f"seed = 1\n{key} = {value}\n")
    assert key in str(err.value)


def _readme_key_table() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Scenario files")[1]
    return [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in section.split("\n## ")[0].splitlines()
        if line.startswith("| `")
    ]


def test_readme_key_table_matches_schema_and_defaults():
    rows = _readme_key_table()
    assert [row[0] for row in rows] == list(SCHEMA)
    for key, default, domain, _meaning in rows:
        spec = SCHEMA[key]
        assert domain == spec.domain, key
        if default == "—":
            assert default_of(key) in (None, ()), key
        else:
            assert spec.parse(default) == default_of(key), key


@pytest.mark.parametrize("key", list(SCHEMA))
def test_default_lies_in_its_domain(key):
    spec = SCHEMA[key]
    assert all(spec.accepts(x) for x in _numbers(default_of(key) or ()))


@pytest.mark.parametrize(
    "domain, inside, outside",
    [
        ("(0, inf)", [5e-324, 1e300], [0.0, -1.0]),
        ("[0, pi/2)", [0.0, math.nextafter(math.pi / 2, 0.0)], [-5e-324, math.pi / 2]),
        ("[1, 16]", [1, 16], [0, 17]),
        ("(-inf, inf)", [-1e300, 0.0, 1e300], []),
    ],
)
def test_domain_ends_are_open_or_closed_as_written(domain, inside, outside):
    spec = Key(_parse_float, domain, "seed")
    assert all(spec.accepts(x) for x in inside)
    assert not any(spec.accepts(x) for x in outside)


@pytest.mark.parametrize(
    "line",
    [
        "noise.center_sigma = 0",
        "agents.start_yaw = -1e300",
        "agents.start_yaw = 1e12",
        "mission.retry_limit = 0",
        "mission.t_confirm = 0",
        "balloons.min_sep = 0",
        "arena.geofence_margin = 0",
    ],
)
def test_boundary_values_in_use_stay_accepted(line):
    parse_scenario_text(f"seed = 1\n{line}\n")


def test_tick_budget_is_inclusive_and_names_duration():
    rate = 20
    at_budget = MAX_TICKS / rate
    s = parse_scenario_text(
        f"sim.tick_rate = {rate}\nsim.duration_limit = {at_budget}\n"
    )
    assert s.sim.tick_rate * s.sim.duration_limit == MAX_TICKS
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(f"sim.duration_limit = {at_budget + 0.05}\n")
    assert str(err.value).startswith("sim.duration_limit: ")
    assert "MAX_TICKS" in str(err.value)


@pytest.mark.parametrize(
    "text, key",
    [
        (f"agents.count = {MAX_AGENTS + 1}\n", "agents.count"),
        ("agents.starts = " + "; ".join(
            f"{10 + 4 * i}, 20, 4" for i in range(MAX_AGENTS + 1)) + "\n",
         "agents.count"),
        (f"balloons.count = {MAX_BALLOONS + 1}\n", "balloons.count"),
        ("balloons.anchors = " + "; ".join(
            f"{i % 90 + 5}, {i // 90 + 5}, 2" for i in range(MAX_BALLOONS + 1)) + "\n",
         "balloons.count"),
        (f"noise.false_alarm_rate = {MAX_FALSE_ALARM_RATE + 0.5}\n",
         "noise.false_alarm_rate"),
    ],
    ids=["agents", "starts", "balloons", "anchors", "false-alarms"],
)
def test_counts_and_false_alarms_over_budget_rejected(text, key):
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\n" + text)
    assert str(err.value).startswith(f"{key}: ")


def test_most_agents_and_balloons_in_budget_accepted():
    s = parse_scenario_text(
        f"seed = 1\nagents.count = {MAX_AGENTS}\nballoons.count = {MAX_BALLOONS}\n"
        f"noise.false_alarm_rate = {MAX_FALSE_ALARM_RATE}\n"
    )
    assert len(s.agents.starts) == MAX_AGENTS


def test_v_approach_lands_in_mission_params():
    s = parse_scenario_text("seed = 1\nvehicle.v_max = 3\nvehicle.v_approach = 3\n")
    assert s.mission.v_approach == 3.0


def _leaf_fields(config, prefix=""):
    # ``Scenario`` is a dataclass and its sections are NamedTuples.
    if is_dataclass(config):
        # a field not set in __init__ is worked out from the others
        names = [f.name for f in fields(config) if f.init]
    else:
        names = config._fields
    for name in names:
        value = getattr(config, name)
        if is_dataclass(value) or hasattr(value, "_fields"):
            yield from _leaf_fields(value, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_every_config_field_is_filled_by_exactly_one_key():
    # A field no key fills is a knob no scenario can set.  The filter
    # noise is the one exception: tests/test_tracking.py varies it to
    # check the decoupled filter against the matrix form.
    unkeyed = {"tracker.q_diag", "tracker.r_diag", "tracker.p0_diag"}
    filled = Counter(spec.field for spec in SCHEMA.values())
    leaves = set(_leaf_fields(Scenario()))
    assert [f for f, n in filled.items() if n > 1] == []
    assert set(filled) <= leaves
    assert leaves - set(filled) == unkeyed


# --- event log ---------------------------------------------------------------

def test_event_round_trip_identity():
    for kind in EVENT_KINDS:
        e = make_event(3, 1.25, 0, kind, {"a": 1, "b": [0.5, -2.0], "c": None})
        assert parse_line(emit_line(e)) == e


def test_event_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_event(0, 0.0, None, "telemetry", {})


def test_event_schema_version_checked():
    line = emit_line(make_event(0, 0.0, None, "pop", {}))
    bad = json.loads(line)
    bad["v"] = 99
    with pytest.raises(ValueError):
        parse_line(json.dumps(bad))


def test_event_log_file_round_trip(tmp_path):
    events = [
        make_event(i, i * 0.05, i % 2, "track", {"event": "born", "track_id": i})
        for i in range(10)
    ]
    path = tmp_path / "events.jsonl"
    write_event_log(path, events)
    assert read_event_log(path) == events
    assert serialize_events(events) == path.read_bytes()
