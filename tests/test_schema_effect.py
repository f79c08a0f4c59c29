"""Every scenario key changes something a run reports.

For each ``SCHEMA`` key, a short probe run with one non-default value
must differ from the same run at the default in its event log or in its
cells.  Probes are default.cfg cut at 40 s, and fleet3.cfg cut at 40 s
for the ``fleet.*`` keys; each value below is chosen so its effect shows
inside that window.
"""

from functools import lru_cache
from pathlib import Path

import pytest

from bhsim.events import serialize_events
from bhsim.scenario import SCHEMA, parse_scenario_text
from bhsim.sim import run_simulation

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PROBE_DURATION_S = 40

# key -> a non-default value whose effect shows on the probe
PROBE_VALUES = {
    "seed": "1",
    "arena.outer_extent": "110, 40, 20",
    "arena.effective_extent": "80, 30, 5",
    "arena.geofence_margin": "3",
    "balloons.count": "3",
    "balloons.min_sep": "12",
    "balloons.diameter": "0.6",
    "balloons.pole_height": "1.5",
    "balloons.tether_length": "0.2",
    "balloons.sway_amplitude": "0.5",
    "balloons.sway_frequency": "0.5",
    "balloons.anchors": "30,20,2; 60,15,2",
    "camera.focal_px": "500",
    "camera.width_px": "1000",
    "camera.height_px": "600",
    "noise.center_sigma": "1",
    "noise.size_sigma_frac": "0.1",
    "noise.p_miss_base": "0.2",
    "noise.p_miss_range_scale": "0.01",
    "noise.false_alarm_rate": "0.5",
    "noise.confidence_floor": "0.8",
    "agents.count": "2",
    "agents.starts": "20, 20, 4",
    "agents.start_yaw": "1.0",
    "vehicle.v_max": "1.5",
    "vehicle.v_approach": "1.0",
    "vehicle.tau": "0.5",
    "vehicle.yaw_rate_max": "0.5",
    "tracker.gate_px": "40",
    "tracker.m_confirm": "2",
    "tracker.k_delete": "3",
    "mission.m_commit": "5",
    "mission.align_tol_px": "10",
    "mission.commit_range_max": "40",
    "mission.d_standoff": "3",
    "mission.t_confirm": "2",
    "mission.tip_reach": "0.3",
    "mission.lane_spacing": "10",
    "mission.search_altitude": "3",
    "mission.retry_limit": "0",
    "mission.wp_tolerance": "2",
    "mission.wp_step": "10",
    "mission.wp_timeout": "1",
    "mission.align_timeout": "1",
    "mission.approach_timeout": "3",
    "mission.approach_stall_timeout": "0.05",
    "mission.revisit_timeout": "1",
    "mission.yaw_gain": "0.5",
    "fleet.claim_radius": "8",
    "fleet.min_sep": "15",
    "fleet.failures": "1:30",
    "sim.tick_rate": "10",
    "sim.duration_limit": "30",
}


def _with(text: str, key: str, value: str) -> str:
    """Scenario text with ``key`` set to ``value`` (any old line dropped)."""
    lines = [
        line for line in text.splitlines()
        if line.split("=", 1)[0].strip() != key
    ]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def _base_text(name: str) -> str:
    text = (SCENARIOS / name).read_text(encoding="utf-8")
    return _with(text, "sim.duration_limit", str(PROBE_DURATION_S))


def _probe(text: str):
    result = run_simulation(parse_scenario_text(text))
    return serialize_events(result.events), result.cells


@lru_cache(maxsize=None)
def _base_probe(name: str):
    return _probe(_base_text(name))


def test_every_key_has_a_probe_value():
    assert set(PROBE_VALUES) == set(SCHEMA)


@pytest.mark.parametrize("key", sorted(PROBE_VALUES))
def test_non_default_value_changes_the_run(key):
    name = "fleet3.cfg" if key.startswith("fleet.") else "default.cfg"
    changed = _probe(_with(_base_text(name), key, PROBE_VALUES[key]))
    assert changed != _base_probe(name)
