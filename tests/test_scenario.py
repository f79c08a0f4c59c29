import codecs
import json
import math
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from bhsim.cli import main as cli_main
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
from bhsim.sim import run_simulation

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
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


# Each value a record or a tick function would take but a run must not.
# The records and functions trust what the parser hands them, so it is
# the parser that rejects these: the value's own key, or the named one.
@pytest.mark.parametrize(
    "text, key",
    [
        ("arena.outer_extent = 0, 40, 20", None),
        ("arena.effective_extent = 90, -1, 5", None),
        ("arena.effective_extent = 120, 30, 5", None),
        (
            "arena.effective_extent = 1e-300, 30, 5\narena.geofence_margin = 0",
            "arena.effective_extent",
        ),
        ("arena.geofence_margin = -0.5", None),
        ("noise.p_miss_base = 1.5", None),
        ("noise.confidence_floor = -0.1", None),
        ("noise.center_sigma = -1", None),
        ("noise.false_alarm_rate = -0.1", None),
        ("camera.focal_px = 0", None),
        ("balloons.diameter = 0", None),
        ("balloons.sway_amplitude = 1.5707963267948966", None),
        ("balloons.sway_amplitude = -0.1", None),
        ("balloons.anchors = 10, 10, 4.5", "balloons.tether_length"),
        ("balloons.count = -1", None),
        ("balloons.min_sep = -1", None),
        ("mission.d_standoff = 0", None),
        ("vehicle.v_approach = 0", None),
        ("mission.yaw_gain = 0", None),
        ("mission.lane_spacing = 0", None),
        ("mission.wp_step = 0", None),
        ("sim.tick_rate = 0", None),
        ("fleet.min_sep = 0", None),
    ],
)
def test_the_parser_is_the_one_check_of_each_value(text, key):
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\n" + text + "\n")
    assert err.value.key == (key or text.split(" = ")[0])


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "arena.effective_extent = 120, 30, 5\n",
            "effective extent must fit inside outer extent",
        ),
        (
            "arena.effective_extent = 1e-300, 30, 5\narena.geofence_margin = 0\n",
            "geofence min must be strictly below max",
        ),
    ],
)
def test_arena_rules_between_keys_exit_with_one_configuration_line(
    text, message, tmp_path, capsys
):
    path = tmp_path / "s.cfg"
    path.write_text("seed = 1\n" + text, encoding="utf-8")
    assert cli_main(["simulate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: arena.effective_extent: {message}\n"
    assert captured.out == ""


def test_anchor_outside_the_geofence_is_rejected_naming_it():
    # The default fence spans x in [4, 96]: no agent may fly to x = 99.
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("seed = 1\nballoons.anchors = 10, 20, 2; 99, 20, 2\n")
    assert err.value.key == "balloons.anchors"
    assert str(err.value).startswith("balloons.anchors: anchor 1 ")


def test_anchors_on_the_geofence_and_outside_the_effective_volume_are_accepted():
    # The fence bounds are inclusive; x = 4.9 is outside the effective
    # volume (x from 5) but inside the fence, and its balloon is popped.
    s = parse_scenario_text(
        "seed = 0\nballoons.anchors = 4, 4, 2; 96, 36, 2; 4, 36, 2; 96, 4, 2\n"
    )
    assert s.balloons.count == 4
    s = parse_scenario_text(
        "seed = 0\nballoons.anchors = 4.9, 20, 2\nsim.duration_limit = 300\n"
    )
    assert run_simulation(s).metrics.balloons_popped == 1


def test_balloon_height_limit_is_inclusive():
    s = parse_scenario_text("seed = 1\nballoons.pole_height = 4\n")
    assert s.balloons.params.pole_height + s.balloons.params.tether_length == 5.0


def test_balloon_out_of_pop_reach_above_the_fence_top_is_rejected():
    # Fence top 1.5 m; reach is radius 0.25 + tip_reach 0.5 = 0.75 m, so a
    # center that sways no lower than 2.25 m is the highest a tip can pop.
    low_fence = (
        "seed = 0\narena.effective_extent = 90, 30, 1\narena.geofence_margin = 0.5\n"
        "mission.search_altitude = 1.5\nballoons.diameter = 0.5\n"
        "mission.tip_reach = 0.5\n"
    )
    still = low_fence + "balloons.sway_amplitude = 0\n"
    s = parse_scenario_text(still + "balloons.pole_height = 1.25\n")
    assert s.balloons.params.pole_height + s.balloons.params.tether_length == 2.25
    for extra, key in [
        ("balloons.pole_height = 1.2500001\n", "balloons.pole_height"),
        ("balloons.anchors = 10, 20, 1.25; 20, 20, 1.2500001\n", "balloons.anchors"),
    ]:
        with pytest.raises(ValidationError) as err:
            parse_scenario_text(still + extra)
        assert err.value.key == key
    # The swing lowers a center: 1.5 + 1 * cos(0.8) is within reach.
    parse_scenario_text(
        low_fence + "balloons.sway_amplitude = 0.8\nballoons.pole_height = 1.5\n"
    )


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


def test_integers_are_decimal_in_every_key():
    # Integer keys and a failure script's agent ids take one syntax:
    # decimal digits, leading zeros allowed.
    s = parse_scenario_text("seed = 007\nagents.count = 03\nfleet.failures = 02:10\n")
    assert (s.seed, s.agents.count, s.fleet.failures) == (7, 3, ((2, 10.0),))


@pytest.mark.parametrize("text, key", [
    pytest.param("agents.count = 0x3\n", "agents.count", id="hex-count"),
    pytest.param("agents.count = 3\nfleet.failures = 0x2:10\n", "fleet.failures",
                 id="hex-failure-id"),
    pytest.param("seed = 0o7\n", "seed", id="octal-seed"),
    pytest.param("seed = 0b1\n", "seed", id="binary-seed"),
])
def test_integer_prefixes_rejected(text, key):
    with pytest.raises(ParseError) as err:
        parse_scenario_text(text)
    assert key in str(err.value)


@pytest.mark.parametrize("line, key", [
    pytest.param("seed = 1_000", "seed", id="underscore-seed"),
    pytest.param("vehicle.v_max = 1_0", "vehicle.v_max", id="underscore-float"),
    pytest.param("fleet.failures = 1:1_0", "fleet.failures", id="underscore-failure-time"),
    pytest.param("seed = \u0663", "seed", id="arabic-indic-seed"),
    pytest.param("vehicle.v_max = \u0661.5", "vehicle.v_max", id="arabic-indic-float"),
])
def test_numbers_are_plain_ascii_decimals(line, key):
    # int() and float() alone take underscores and any Unicode digit.
    with pytest.raises(ParseError) as err:
        parse_scenario_text(f"agents.count = 2\n{line}\n")
    assert err.value.key == key


def test_plain_decimal_forms_still_parse():
    s = parse_scenario_text("seed = +5\nagents.count = 02\nfleet.failures = 1:1.\n")
    assert (s.seed, s.agents.count, s.fleet.failures) == (5, 2, ((1, 1.0),))
    assert parse_scenario_text("seed = -12\n").seed == -12
    for text, value in [(".5", 0.5), ("1.", 1.0), ("1e0", 1.0), ("1e-05", 1e-05),
                        ("1e+300", 1e300), ("-2.5E+3", -2500.0)]:
        assert parse_scenario_text(f"agents.start_yaw = {text}\n").agents.start_yaw == value


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "\u0663"],
    ["simulate", "--seed", "1_0"],
    ["sweep", "--seeds", "1_0..1_2"],
    ["sweep", "--seeds", "\u0663"],
    ["sweep", "--seeds", "0..1", "--jobs", "1_0"],
], ids=["seed-arabic-indic", "seed-underscore", "seeds-underscore", "seeds-arabic-indic",
        "jobs-underscore"])
def test_cli_integers_are_plain_ascii_decimals(argv, capsys, monkeypatch):
    # Rejected before any run starts: a run would fail this test.
    monkeypatch.setattr("bhsim.cli.sweep", None)
    monkeypatch.setattr("bhsim.cli.run_simulation", None)
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects a flag's type itself
        code = exc.code
    assert code == 1
    assert argv[-1] in capsys.readouterr().err


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


def test_bom_and_crlf_scenario_file_loads_as_the_plain_one(tmp_path, capsysbinary):
    # Editors that save UTF-8 with a byte-order mark and CRLF line ends
    # must not change the scenario, nor what the CLI prints for it.
    plain = SCENARIOS / "fleet3.cfg"
    raw = plain.read_bytes()
    assert not raw.startswith(codecs.BOM_UTF8) and b"\r\n" not in raw
    marked = tmp_path / "fleet3.cfg"
    marked.write_bytes(codecs.BOM_UTF8 + raw.replace(b"\n", b"\r\n"))
    assert load_scenario(marked) == load_scenario(plain)
    printed = []
    for path in (plain, marked):
        assert cli_main(["path", "--scenario", str(path)]) == 0
        printed.append(capsysbinary.readouterr().out)
    assert printed[0] == printed[1] != b""


def test_default_scenario_helper():
    s = default_scenario(seed=5)
    assert s.seed == 5 and s.balloons.count == 5


@pytest.mark.parametrize("line, key, message", [
    pytest.param("vehicle.v_max = 1e400", "vehicle.v_max", "must be finite",
                 id="overflowing-float"),
    pytest.param("arena.effective_extent = 90, 30", "arena.effective_extent",
                 "expected 3 numbers, got 2", id="two-number-vector"),
    pytest.param("fleet.failures = 1 0.5", "fleet.failures",
                 "expected agent:time, got '1 0.5'", id="failure-without-colon"),
])
def test_malformed_values_are_rejected_naming_key(line, key, message):
    # An overflowing float, a short vector and a failure with no time.
    with pytest.raises(ParseError) as err:
        parse_scenario_text(f"agents.count = 2\n{line}\n")
    assert err.value.key == key
    assert message in str(err.value)


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
    # A field no key fills is a knob no scenario can set, so there is
    # none: the filter noise is made of constants in bhsim.tracking.
    filled = Counter(spec.field for spec in SCHEMA.values())
    leaves = set(_leaf_fields(Scenario()))
    assert [f for f, n in filled.items() if n > 1] == []
    assert set(filled) == leaves


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


@pytest.mark.parametrize("line, what", [
    ("[1]", "not a JSON object"),
    ("1", "not a JSON object"),
    ("null", "not a JSON object"),
    ('"x"', "not a JSON object"),
    ('{"v":1,"t":NaN}', "non-finite number NaN"),
    ('{"v":1,"t":Infinity}', "non-finite number Infinity"),
    ('{"v":1,"t":-Infinity}', "non-finite number -Infinity"),
    ('{"v":1,"t":0.5,"data":{"estimate":[1e400]}}', "non-finite number 1e400"),
])
def test_a_line_that_is_not_a_finite_record_is_a_value_error(line, what, tmp_path):
    with pytest.raises(ValueError, match=what):
        parse_line(line)
    path = tmp_path / "events.jsonl"
    good = emit_line(make_event(0, 0.0, None, "pop", {}))
    path.write_text(f"{good}\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=what):
        read_event_log(path)


def test_event_log_file_round_trip(tmp_path):
    events = [
        make_event(i, i * 0.05, i % 2, "track", {"event": "born", "track_id": i})
        for i in range(10)
    ]
    path = tmp_path / "events.jsonl"
    write_event_log(path, events)
    assert read_event_log(path) == events
    assert serialize_events(events) == path.read_bytes()
