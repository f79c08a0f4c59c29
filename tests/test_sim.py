import ast
import gc
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bhsim.fleet
import bhsim.mission
import bhsim.sim
import bhsim.tracking
import bhsim.vehicle
import bhsim.world
from bhsim.cli import main as cli_main
from bhsim.events import EVENT_KINDS, read_event_log, serialize_events
from bhsim.fleet import point_in_cell
from bhsim.perception import ZERO_NOISE, Detection, generate_detections
from bhsim.scenario import default_scenario, load_scenario, parse_scenario_text
from bhsim.sim import plan_cells, run_simulation, sweep
from bhsim.tracking import NumericalFailure

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FOOTPRINT_AREA = 90.0 * 30.0


def _quick_scenario(seed=0, **overrides):
    """Small, fast scenario: 2 balloons, 60 s cap."""
    s = parse_scenario_text(
        f"seed = {seed}\n"
        "balloons.count = 2\n"
        "sim.duration_limit = 60\n"
    )
    return replace(s, **overrides) if overrides else s


def test_zero_balloons_terminates_immediately():
    # With nothing to intercept the run ends at once, and it is no success.
    s = parse_scenario_text("seed = 0\nballoons.count = 0\n")
    out = run_simulation(s)
    assert out.metrics.balloons_popped == 0
    assert out.metrics.duration == 0.0
    assert not out.metrics.success
    assert out.metrics.csv_row().split(",")[3] == "0"


def test_run_is_deterministic_byte_identical():
    s = _quick_scenario(seed=5)
    a = run_simulation(s)
    b = run_simulation(s)
    assert serialize_events(a.events) == serialize_events(b.events)
    assert a.metrics.pop_times == b.metrics.pop_times


def test_different_seeds_differ():
    a = run_simulation(_quick_scenario(seed=1))
    b = run_simulation(_quick_scenario(seed=2))
    assert serialize_events(a.events) != serialize_events(b.events)


def test_default_zero_noise_run_pops_everything():
    s = replace(default_scenario(seed=3), noise=ZERO_NOISE)
    out = run_simulation(s)
    assert out.metrics.balloons_popped == 5
    assert out.metrics.pops_total_time is not None
    assert out.metrics.pops_total_time < 600.0
    assert out.metrics.geofence_violations == 0
    assert out.metrics.false_confirms == 0


def test_events_are_ordered_and_round_trip():
    out = run_simulation(_quick_scenario(seed=4))
    seqs = [e["seq"] for e in out.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    times = [e["t"] for e in out.events]
    assert all(t0 <= t1 for t0, t1 in zip(times, times[1:]))
    from bhsim.events import emit_line, parse_line

    for e in out.events[:200]:
        assert parse_line(emit_line(e)) == e


def test_alive_count_non_increasing_and_pops_logged():
    out = run_simulation(_quick_scenario(seed=6))
    pops = [e for e in out.events
            if e["kind"] == "pop" and e["data"].get("source") == "world"]
    assert len(pops) == out.metrics.balloons_popped
    assert out.metrics.balloons_popped <= out.metrics.balloons_total


def test_sweep_singleton_matches_run():
    s = _quick_scenario()
    row = sweep(s, [9]).rows[0]
    direct = run_simulation(replace(s, seed=9)).metrics
    assert row.balloons_popped == direct.balloons_popped
    assert row.pop_times == direct.pop_times


def test_sweep_deterministic_and_aggregates():
    s = _quick_scenario()
    a = sweep(s, range(3))
    b = sweep(s, range(3))
    assert [m.pop_times for m in a.rows] == [m.pop_times for m in b.rows]
    assert a.aggregate["runs"] == 3.0
    assert 0.0 <= a.aggregate["success_rate"] <= 1.0
    expected = sum(1 for m in a.rows if m.success) / 3
    assert a.aggregate["success_rate"] == pytest.approx(expected)


def test_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        sweep(_quick_scenario(), [])


def test_sweep_parallel_matches_sequential(tmp_path):
    s = _quick_scenario()
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    sweep(s, range(3), jobs=1, out_dir=seq_dir)
    sweep(s, range(3), jobs=2, out_dir=par_dir)
    for seed in range(3):
        name = f"events_seed{seed}.jsonl"
        assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()


def test_scripted_failure_kills_agent_and_repartitions():
    s = parse_scenario_text(
        "seed = 2\n"
        "agents.count = 2\n"
        "balloons.count = 3\n"
        "fleet.failures = 1:5\n"
        "sim.duration_limit = 40\n"
    )
    out = run_simulation(s)
    failures = [e for e in out.events if e["kind"] == "failure"
                and e["data"].get("reason") == "scripted"]
    assert len(failures) == 1 and failures[0]["agent"] == 1
    assert len(out.cells) == 1 and out.cells[0].agent_id == 0


def _failure_run(failures, agents=2):
    return run_simulation(parse_scenario_text(
        "seed = 2\n"
        f"agents.count = {agents}\n"
        "balloons.count = 3\n"
        f"fleet.failures = {failures}\n"
        "sim.duration_limit = 40\n"
    ))


def _failures(out):
    return [e for e in out.events if e["kind"] == "failure"
            and e["data"]["reason"] == "scripted"]


def test_every_agent_failing_ends_the_run_at_the_last_failure():
    out = _failure_run("0:3; 1:5")
    last = out.events[-1]
    assert last["kind"] == "failure" and last["agent"] == 1
    assert out.metrics.duration == last["t"]
    assert 5.0 <= out.metrics.duration < 5.05


def test_two_agents_failing_in_one_tick():
    out = _failure_run("1:5; 2:5", agents=3)
    failures = _failures(out)
    assert [e["agent"] for e in failures] == [1, 2]
    assert failures[0]["t"] == failures[1]["t"]
    assert not [e for e in out.events
                if e["agent"] in (1, 2) and e["t"] > failures[0]["t"]]
    assert [c.agent_id for c in out.cells] == [0]
    assert out.metrics.duration > failures[0]["t"]


def test_agent_scripted_to_fail_twice_fails_once():
    out = _failure_run("1:5; 1:8")
    failures = _failures(out)
    assert len(failures) == 1 and failures[0]["agent"] == 1
    assert not [e for e in out.events
                if e["agent"] == 1 and e["t"] > failures[0]["t"]]


def test_failure_at_time_zero_flies_nothing():
    out = _failure_run("1:0")
    failures = _failures(out)
    assert len(failures) == 1 and failures[0]["t"] == 0.0
    assert out.metrics.distance_flown[1] == 0.0
    assert out.metrics.distance_flown[0] > 0.0


def test_failing_agent_abandons_its_claim_before_it_fails():
    # Fail the first agent to win a claim half a tick (20 Hz) after the
    # grant: the run is identical up to then, so the agent still holds it.
    calm = _failure_run("")
    grant = next(e for e in calm.events
                 if e["kind"] == "claim" and e["data"]["action"] == "grant")
    out = _failure_run(f"{grant['agent']}:{grant['t'] + 0.025!r}")
    mine = [e for e in out.events
            if e["agent"] == grant["agent"] and e["t"] > grant["t"]]
    assert [(e["kind"], e["data"].get("action")) for e in mine] == [
        ("claim", "release"), ("failure", None),
    ]
    assert mine[0]["data"] == {"action": "release", "reason": "abandoned",
                               "claim_id": grant["data"]["claim_id"]}
    assert mine[1]["seq"] == mine[0]["seq"] + 1


@pytest.mark.parametrize("name", ["default.cfg", "fleet3.cfg"])
def test_a_finished_run_is_freed_without_the_cycle_collector(name):
    # Nothing a run builds refers back to it (the claim callbacks hold the
    # claim table and the log, not the run), so reference counting frees
    # its world, trackers and log as soon as it returns.
    s = load_scenario(SCENARIOS / name)
    gc.collect()
    gc.disable()
    try:
        result = run_simulation(s)
        found = gc.collect()
    finally:
        gc.enable()
    assert len(result.events) > 0 and found == 0


def test_plan_cells_single_survivor_owns_footprint():
    s = parse_scenario_text("seed = 0\nagents.starts = 30, 20, 4; 70, 20, 4\n")
    cells, paths = plan_cells(s, [0])
    assert [c.agent_id for c in cells] == [0]
    assert cells[0].area == pytest.approx(FOOTPRINT_AREA)
    assert set(paths) == {0}


def test_plan_cells_repartition_conserves_area():
    # Oracle: the survivors' cells still tile the footprint.
    s = parse_scenario_text(
        "seed = 0\nagents.starts = 20, 10, 4; 50, 25, 4; 80, 12, 4\n"
    )
    cells, paths = plan_cells(s, [0, 2])
    assert [c.agent_id for c in cells] == [0, 2]
    assert set(paths) == {0, 2}
    assert sum(c.area for c in cells) == pytest.approx(FOOTPRINT_AREA, rel=1e-9)
    # Monte Carlo union check
    xmin, ymin, xmax, ymax = s.arena.footprint
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(20_000):
        p = (float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax)))
        if any(point_in_cell(p, c.polygon, margin=1e-9) for c in cells):
            hits += 1
    assert hits / 20_000 == pytest.approx(1.0, abs=0.01)


def test_fleet3_final_cells_match_plan_cells():
    # Agent 1 fails at t=120 s; the run must end on the survivors' plan.
    s = load_scenario(SCENARIOS / "fleet3.cfg")
    s = replace(s, sim=s.sim._replace(duration_limit=125.0))
    out = run_simulation(s)
    assert out.cells == plan_cells(s, [0, 2])[0]


def test_mission_reaches_approach_and_pops_single_balloon():
    # One balloon dead ahead of the start: with zero noise the agent must
    # commit quickly and pop it well inside the time bounds.
    s = parse_scenario_text(
        "seed = 0\n"
        "balloons.anchors = 65, 20, 2\n"
        "agents.starts = 50, 20, 4\n"
        "sim.duration_limit = 300\n"
    )
    s = replace(s, noise=ZERO_NOISE)
    out = run_simulation(s)
    phases = [e for e in out.events if e["kind"] == "phase"]
    approach_t = next(e["t"] for e in phases if e["data"]["to"] == "approach")
    assert approach_t < 120.0
    assert out.metrics.balloons_popped == 1
    assert out.metrics.pop_times[0][1] < 300.0


# --- CLI ---------------------------------------------------------------------

def _write_scenario(tmp_path, text):
    p = tmp_path / "scenario.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    scn = _write_scenario(
        tmp_path, "seed = 1\nballoons.count = 1\nsim.duration_limit = 30\n"
    )
    out_dir = tmp_path / "out"
    code = cli_main(["simulate", "--scenario", scn, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "events.jsonl").exists()
    assert (out_dir / "metrics.csv").exists()
    events = read_event_log(out_dir / "events.jsonl")
    assert events, "event log should not be empty"
    assert "seed=1" in capsys.readouterr().out


def test_cli_seed_override(tmp_path, capsys):
    scn = _write_scenario(
        tmp_path, "seed = 1\nballoons.count = 1\nsim.duration_limit = 20\n"
    )
    assert cli_main(["simulate", "--scenario", scn, "--seed", "42"]) == 0
    assert "seed=42" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    scn = _write_scenario(tmp_path, "ballons = 5\n")
    assert cli_main(["simulate", "--scenario", scn]) == 1


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli_main(["simulate", "--scenario", str(tmp_path / "nope.cfg")]) == 3


def test_cli_sweep_outputs_csv(tmp_path, capsys):
    scn = _write_scenario(
        tmp_path, "seed = 0\nballoons.count = 1\nsim.duration_limit = 20\n"
    )
    out_dir = tmp_path / "sweepout"
    code = cli_main(
        ["sweep", "--scenario", scn, "--seeds", "1..3", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("seed,")
    assert len(lines) == 4
    for seed in (1, 2, 3):
        assert (out_dir / f"events_seed{seed}.jsonl").exists()


def test_cli_path_and_partition_dumps(tmp_path, capsys):
    scn = _write_scenario(tmp_path, "seed = 0\nagents.count = 2\n")
    assert cli_main(["path", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "path agent=0" in out and "path agent=1" in out

    part_file = tmp_path / "cells.txt"
    assert cli_main(["partition", "--scenario", scn, "--out", str(part_file)]) == 0
    text = part_file.read_text()
    assert "cell agent=0" in text and "cell agent=1" in text


def test_cli_partition_prints_run_start_cells(tmp_path, capsys):
    text = "seed = 0\nagents.count = 3\nsim.duration_limit = 1\n"
    scn = _write_scenario(tmp_path, text)
    assert cli_main(["partition", "--scenario", scn]) == 0
    printed = capsys.readouterr().out
    cells = run_simulation(parse_scenario_text(text)).cells
    expected = []
    for cell in cells:
        gx, gy = cell.generator
        expected.append(
            f"cell agent={cell.agent_id} generator={gx:.3f},{gy:.3f} "
            f"vertices={len(cell.polygon)}"
        )
        expected += [f"{vx:.6f} {vy:.6f}" for vx, vy in cell.polygon]
        expected.append("")
    assert printed == "\n".join(expected).rstrip("\n") + "\n"


def test_cli_sweep_error_rows_exit_2(tmp_path, capsys):
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 200\n")
    assert cli_main(["sweep", "--scenario", scn, "--seeds", "0..1"]) == 2
    captured = capsys.readouterr()
    rows = [line for line in captured.out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 2
    assert all("PackingInfeasible" in row for row in rows)
    assert "2 run(s) failed" in captured.err


@pytest.mark.parametrize(
    "jobs, seeds, workers",
    [(5000, 2, 2), (3, 5, 3), (2, 2, 2), (5000, 6, 4), (8, 10, 4)],
)
def test_sweep_pool_has_no_more_workers_than_runs(monkeypatch, jobs, seeds, workers):
    # A fake executor records the pool size; no process is started.  The
    # process may use 4 CPUs here, and the pool is no larger than that.
    monkeypatch.setattr("bhsim.sim._usable_cpus", lambda: 4)
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    s = parse_scenario_text("seed = 0\nballoons.count = 0\n")
    result = sweep(s, range(seeds), jobs=jobs)
    assert sizes == [workers]
    assert [m.seed for m in result.rows] == list(range(seeds))


def test_sweep_of_one_seed_starts_no_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("pool started for a single run")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    s = parse_scenario_text("seed = 0\nballoons.count = 0\n")
    assert len(sweep(s, [4], jobs=8).rows) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_sweep_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 0\n")
    argv = ["sweep", "--scenario", scn, "--seeds", "0..1", "--jobs", jobs]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: --jobs: {jobs} is below 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line",
    [
        "vehicle.yaw_rate_max = -1",
        "mission.tip_reach = -1",
        "balloons.pole_height = -1",
        "sim.tick_rate = 1e6",
        "agents.count = 1000000000000",
        "noise.false_alarm_rate = 1e12",
    ],
)
def test_cli_out_of_domain_value_exits_1_without_running(
    tmp_path, capsys, monkeypatch, line
):
    # Each of these used to pass the parser: the first three ran to 0/5
    # popped with exit 0, the others hung or flooded the tracker.
    def must_not_run(scenario):
        raise AssertionError("the run started")

    monkeypatch.setattr("bhsim.cli.run_simulation", must_not_run)
    scn = _write_scenario(tmp_path, f"seed = 0\n{line}\n")
    start = time.perf_counter()
    assert cli_main(["simulate", "--scenario", scn]) == 1
    assert time.perf_counter() - start < 1.0
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")


@pytest.mark.parametrize("v_approach", ["0", "2.5"])
def test_cli_v_approach_out_of_range_is_config_error(tmp_path, capsys, v_approach):
    scn = _write_scenario(tmp_path, f"seed = 0\nvehicle.v_approach = {v_approach}\n")
    assert cli_main(["simulate", "--scenario", scn]) == 1
    assert "vehicle.v_approach" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "path", "partition"])
def test_cli_zero_wp_step_is_config_error(tmp_path, capsys, command):
    scn = _write_scenario(tmp_path, "seed = 0\nmission.wp_step = 0\n")
    assert cli_main([command, "--scenario", scn]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mission.wp_step")


def test_cli_infeasible_packing_is_config_error(tmp_path, capsys):
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 200\n")
    assert cli_main(["simulate", "--scenario", scn]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: placed ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--seeds", "0..1"], ["path"], ["partition"]],
    ids=lambda argv: argv[0],
)
def test_cli_non_utf8_scenario_is_config_error(tmp_path, capsys, argv):
    p = tmp_path / "scenario.cfg"
    p.write_bytes(b"seed = 1\n\xff = 2\n")
    assert cli_main(argv + ["--scenario", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {p}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("seeds", ["3..1", "a", "1..b", ""])
def test_cli_bad_seed_range_is_config_error(tmp_path, capsys, seeds):
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 1\n")
    assert cli_main(["sweep", "--scenario", scn, "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --seeds")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["sweep"], ["simulate", "--bogus"], []])
def test_cli_usage_error_is_config_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "path", "partition", "sweep"])
@pytest.mark.parametrize(
    "text, message",
    [
        # the footprint is a 0.5 m square: no cell to search
        ("arena.effective_extent = 0.5, 0.5, 5\nballoons.count = 0\n",
         "cell area below 1 m^2"),
        # both starts clamp onto the same footprint corner
        ("agents.starts = 4.2,4.2,4; 4.5,4.5,4\n", "coincide"),
        ("mission.lane_spacing = 1e-9\n", "waypoints"),
        ("mission.wp_step = 1e-9\n", "waypoints"),
        # 1e-300 m does not move x = 50 m: the geofence has no width
        ("arena.effective_extent = 1e-300, 30, 5\narena.geofence_margin = 0\n",
         "arena.effective_extent: "),
    ],
    ids=["degenerate-cell", "duplicate-generators", "lane-spacing", "wp-step",
         "no-geofence-width"],
)
def test_cli_unplannable_scenario_is_config_error(
    tmp_path, capsys, command, text, message
):
    scn = _write_scenario(tmp_path, "seed = 0\n" + text)
    seeds = ["--seeds", "0..1"] if command == "sweep" else []
    assert cli_main([command, "--scenario", scn, *seeds]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.splitlines()) == 1
    # sweep stops before any seed runs: no rows, no aggregate
    assert command != "sweep" or captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_numerical_failure_is_exit_2_in_one_line(
    tmp_path, capsys, monkeypatch, command
):
    import bhsim.sim as simmod

    def failing(scenario):
        raise NumericalFailure("assignment cost is not finite")

    monkeypatch.setattr(simmod, "run_simulation", failing)
    monkeypatch.setattr("bhsim.cli.run_simulation", failing)
    scn = _write_scenario(tmp_path, "seed = 0\n")
    seeds = ["--seeds", "0"] if command == "sweep" else []
    assert cli_main([command, "--scenario", scn, *seeds]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if command == "simulate":
        assert err == "numerical failure: assignment cost is not finite\n"
    else:
        assert err.startswith("sweep: 1 run(s) failed")


@pytest.mark.parametrize("key", ["camera.mount", "mission.yaw_mode"])
def test_cli_deleted_key_is_config_error(tmp_path, capsys, key):
    scn = _write_scenario(tmp_path, f"seed = 0\n{key} = forward\n")
    assert cli_main(["simulate", "--scenario", scn]) == 1
    assert f"configuration error: {key}: unknown key" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    scn = _write_scenario(tmp_path, "seed = 0\nagents.count = 2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "bhsim", "path", "--scenario", scn],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "path agent=0" in out.stdout and "path agent=1" in out.stdout


def test_zero_noise_fleet_runs_have_clean_audits():
    # With exact perception, claims make duplicate pursuit impossible and
    # every declared pop corresponds to a dead balloon.
    s = parse_scenario_text(
        "seed = 0\n"
        "agents.count = 3\n"
        "balloons.count = 8\n"
        "sim.tick_rate = 10\n"
        "sim.duration_limit = 300\n"
    )
    for seed in (0, 1, 2, 3):
        out = run_simulation(replace(s, seed=seed, noise=ZERO_NOISE))
        assert out.metrics.duplicate_target_ticks == 0, f"seed {seed}"
        assert out.metrics.false_confirms == 0, f"seed {seed}"
        assert out.metrics.geofence_violations == 0, f"seed {seed}"


def test_audits_count_false_confirms_and_duplicate_pursuit(monkeypatch):
    # One tick with both agents forced into APPROACH on the one balloon,
    # each declaring it popped while it is still alive: two false
    # confirms and one duplicate-pursuit tick.
    anchor = (50.0, 20.0, 2.0)
    real_step = bhsim.sim.step_mission

    def engaged_on_the_balloon(ms, tracks, uav, view, t, ctx):
        out = real_step(ms, tracks, uav, view, t, ctx)
        target = bhsim.mission.Target(
            track_id=None, claim_id=uav.id + 1, claim_estimate=anchor,
            estimate=anchor, heading=0.0, range=1.0,
        )
        declared = ("pop", {"source": "declared", "estimate": list(anchor)})
        return out._replace(
            state=out.state._replace(phase=bhsim.mission.Phase.APPROACH, target=target),
            events=out.events + (declared,),
        )

    monkeypatch.setattr(bhsim.sim, "step_mission", engaged_on_the_balloon)
    s = parse_scenario_text(
        "seed = 0\n"
        "agents.count = 2\n"
        "balloons.anchors = 50, 20, 2\n"
        "sim.duration_limit = 0.05\n"   # one tick at 20 Hz
    )
    m = run_simulation(s).metrics
    assert m.duration == 0.05 and m.balloons_popped == 0
    assert m.false_confirms == 2
    assert m.duplicate_target_ticks == 1


def test_confirmed_tracks_never_exceed_alive_balloons_zero_noise():
    # Replay track and pop events: in a zero-noise, zero-false-alarm run
    # the confirmed-track count per agent stays within the alive count.
    s = replace(default_scenario(seed=2), noise=ZERO_NOISE)
    out = run_simulation(s)
    alive = s.balloons.count
    confirmed = {}   # agent -> set of confirmed track ids
    for e in out.events:
        if e["kind"] == "pop" and e["data"].get("source") == "world":
            alive -= 1
        elif e["kind"] == "track":
            agent_set = confirmed.setdefault(e["agent"], set())
            tid = e["data"]["track_id"]
            if e["data"]["event"] == "confirmed":
                agent_set.add(tid)
            elif e["data"]["event"] == "died":
                agent_set.discard(tid)
            # +1 covers the coast window: a just-popped balloon's track
            # stays confirmed for up to k_delete frames after the pop.
            assert len(agent_set) <= max(alive, 0) + 1


def test_sweep_marks_failed_runs_and_continues():
    # An infeasible packing fails every run; rows come back marked
    # instead of aborting the sweep.
    s = parse_scenario_text(
        "seed = 0\nballoons.count = 60\nballoons.min_sep = 20\n"
    )
    out = sweep(s, range(3))
    assert len(out.rows) == 3
    assert all(m.error is not None for m in out.rows)
    assert all("PackingInfeasible" in m.error for m in out.rows)
    assert out.aggregate["errors"] == 3.0
    assert out.aggregate["success_rate"] == 0.0
    assert out.rows[0].csv_row().count(",") == len(
        __import__("bhsim.sim", fromlist=["CSV_HEADER"]).CSV_HEADER.split(",")
    ) - 1


def test_sweep_mixed_failure_marks_only_bad_seed(monkeypatch):
    import bhsim.sim as simmod

    real = simmod.run_simulation

    def flaky(scenario):
        if scenario.seed == 1:
            raise RuntimeError("injected")
        return real(scenario)

    monkeypatch.setattr(simmod, "run_simulation", flaky)
    out = simmod.sweep(_quick_scenario(), [0, 1, 2])
    assert out.rows[1].error == "RuntimeError: injected"
    assert out.rows[0].error is None and out.rows[2].error is None


def _fail_from(monkeypatch, t_fail=5.0):
    """Make the pops stage raise ``InvariantViolation`` from ``t_fail`` on,
    after the tick's other stages have logged."""
    real = bhsim.sim._pop

    def failing(run, t):
        if t >= t_fail:
            raise bhsim.sim.InvariantViolation("injected")
        real(run, t)

    monkeypatch.setattr(bhsim.sim, "_pop", failing)


def _assert_prefix_log(path, full: bytes, t_fail=5.0):
    """``path`` is the log of a run that failed at ``t_fail``: numbered
    records, one ``error`` record last, and before it a prefix of the
    unfailed run's log ``full``."""
    records = read_event_log(path)
    assert [e["seq"] for e in records] == list(range(len(records)))
    assert [e["kind"] for e in records].count("error") == 1
    error = records[-1]
    assert error["kind"] == "error" and error["agent"] is None
    assert error["data"] == {"type": "InvariantViolation", "message": "injected"}
    assert t_fail <= error["t"] < t_fail + 0.1
    assert records[-2]["t"] <= error["t"]
    data = path.read_bytes()
    head = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
    assert 0 < len(head) < len(full) and full.startswith(head)


def test_sweep_failed_run_leaves_no_earlier_log_under_its_seed(
    tmp_path, monkeypatch
):
    # The failed run's own prefix log replaces the earlier run's.
    s = _quick_scenario()
    log = tmp_path / "events_seed3.jsonl"
    sweep(s, [3], out_dir=tmp_path)
    full = log.read_bytes()
    assert full

    _fail_from(monkeypatch)
    row = sweep(s, [3], out_dir=tmp_path).rows[0]
    assert row.error == "InvariantViolation: injected"
    _assert_prefix_log(log, full)


def test_cli_simulate_failed_run_leaves_no_earlier_outputs(
    tmp_path, capsys, monkeypatch
):
    # The failed run's own prefix log replaces the earlier run's, and no
    # metrics.csv is left.
    scn = _write_scenario(
        tmp_path, "seed = 1\nballoons.count = 1\nsim.duration_limit = 20\n"
    )
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", scn, "--out", str(out_dir)]
    assert cli_main(argv) == 0
    assert (out_dir / "events.jsonl").exists() and (out_dir / "metrics.csv").exists()
    full = (out_dir / "events.jsonl").read_bytes()

    _fail_from(monkeypatch)
    assert cli_main(argv) == 2
    assert "invariant violation: injected" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["events.jsonl"]
    _assert_prefix_log(out_dir / "events.jsonl", full)


def test_cli_sweep_log_that_cannot_be_opened_is_io_error(tmp_path, capsys):
    # An unwritable log is an I/O error (exit 3), not a failed run.
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 1\n")
    out_dir = tmp_path / "out"
    (out_dir / "events_seed0.jsonl").mkdir(parents=True)
    argv = ["sweep", "--scenario", scn, "--seeds", "0", "--out", str(out_dir)]
    assert cli_main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")



def test_cli_sweep_io_error_leaves_no_earlier_metrics(tmp_path, capsys):
    # A sweep stopped by an I/O error (exit 3) leaves no metrics.csv of an
    # earlier sweep beside its logs.
    scn = _write_scenario(
        tmp_path, "seed = 0\nballoons.count = 1\nsim.duration_limit = 20\n"
    )
    out_dir = tmp_path / "out"
    argv = ["sweep", "--scenario", scn, "--seeds", "0", "--out", str(out_dir)]
    assert cli_main(argv) == 0
    log = out_dir / "events_seed0.jsonl"
    assert sorted(p.name for p in out_dir.iterdir()) == [log.name, "metrics.csv"]

    log.unlink()
    log.mkdir()
    assert cli_main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(p.name for p in out_dir.iterdir()) == [log.name]


def test_cli_sweep_leaves_no_per_seed_logs_of_an_earlier_sweep(tmp_path, capsys):
    # A narrower sweep into the same directory leaves only its own logs
    # beside its metrics; other files there stay, and a configuration
    # error removes nothing.
    text = "seed = 0\nballoons.count = 1\nsim.duration_limit = 5\n"
    scn = _write_scenario(tmp_path, text)
    out_dir = tmp_path / "out"
    argv = ["sweep", "--out", str(out_dir), "--seeds"]
    assert cli_main(argv + ["0..2", "--scenario", scn]) == 0
    (out_dir / "notes.txt").write_text("kept", encoding="utf-8")
    assert cli_main(argv + ["0", "--scenario", scn]) == 0
    names = ["events_seed0.jsonl", "metrics.csv", "notes.txt"]
    assert sorted(p.name for p in out_dir.iterdir()) == names
    assert len((out_dir / "metrics.csv").read_text().splitlines()) == 2

    bad = _write_scenario(tmp_path, text + "mission.lane_spacing = 1e-9\n")
    assert cli_main(argv + ["0..2", "--scenario", bad]) == 1
    capsys.readouterr()
    assert sorted(p.name for p in out_dir.iterdir()) == names


def test_setup_failure_log_is_one_error_record(tmp_path, capsys):
    # An infeasible packing raises before tick 0: each log is the error
    # record alone, and it names what the error row names.
    text = "seed = 0\nballoons.count = 60\nballoons.min_sep = 20\n"
    rows = sweep(parse_scenario_text(text), [0, 1], jobs=2, out_dir=tmp_path).rows
    scn = _write_scenario(tmp_path, text)
    cli_out = tmp_path / "cli"
    argv = ["sweep", "--scenario", scn, "--seeds", "0..1", "--out", str(cli_out)]
    assert cli_main(argv) == 2
    assert "2 run(s) failed" in capsys.readouterr().err
    sim_out = tmp_path / "simulate"
    assert cli_main(["simulate", "--scenario", scn, "--out", str(sim_out)]) == 1
    assert sorted(p.name for p in sim_out.iterdir()) == ["events.jsonl"]
    logs = [(row, tmp_path / f"events_seed{row.seed}.jsonl") for row in rows]
    logs += [(None, cli_out / f"events_seed{seed}.jsonl") for seed in (0, 1)]
    logs += [(None, sim_out / "events.jsonl")]
    for row, path in logs:
        [error] = read_event_log(path)
        assert (error["seq"], error["t"], error["agent"], error["kind"]) == (
            0, 0.0, None, "error")
        assert error["data"]["type"] == "PackingInfeasible"
        if row is not None:
            assert row.error == "PackingInfeasible: " + error["data"]["message"]


def _nan_detection_from(monkeypatch, frame=100):
    """From the ``frame``-th camera frame on, add a detection whose center
    is NaN."""
    frames = []

    def with_nan(camera, uav, world, noise, rng):
        dets = generate_detections(camera, uav, world, noise, rng)
        frames.append(None)
        if len(frames) >= frame:
            dets.append(Detection(float("nan"), 0.0, 20.0, 20.0, 0.5, None))
        return dets

    monkeypatch.setattr(bhsim.sim, "generate_detections", with_nan)


def test_a_non_finite_detection_stops_the_run_where_it_is_emitted(
    tmp_path, capsys, monkeypatch
):
    # In memory and streamed, the run raises as the record is emitted,
    # before the tracker sees the box; a streamed log keeps the records
    # before it and ends in ``error``, and the CLI exits 2.
    s = _quick_scenario()
    full = serialize_events(run_simulation(s).events)
    message = "non-finite value in a detection record"
    _nan_detection_from(monkeypatch)
    with pytest.raises(NumericalFailure, match=message):
        run_simulation(s)
    for path in (tmp_path / "run.jsonl", tmp_path / "sweep" / "events_seed0.jsonl"):
        _nan_detection_from(monkeypatch)
        if path.name == "run.jsonl":
            with pytest.raises(NumericalFailure, match=message):
                run_simulation(s, path)
        else:
            row = sweep(s, [0], out_dir=path.parent).rows[0]
            assert row.error == f"NumericalFailure: {message}"
        data = path.read_bytes()
        assert b"NaN" not in data
        records = read_event_log(path)
        assert [e["seq"] for e in records] == list(range(len(records)))
        assert records[-1]["data"] == {"type": "NumericalFailure", "message": message}
        assert records[-1]["t"] == 99 / s.sim.tick_rate
        head = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
        assert 0 < len(head) < len(full) and full.startswith(head)
    scn = _write_scenario(tmp_path, "seed = 0\nballoons.count = 2\n")
    _nan_detection_from(monkeypatch)
    argv = ["simulate", "--scenario", scn, "--out", str(tmp_path / "cli")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert read_event_log(tmp_path / "cli" / "events.jsonl")[-1]["kind"] == "error"


def _readme_event_table() -> dict[str, set[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Event log")[1]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.split("\n## ")[0].splitlines()
        if line.startswith("| `")
    ]
    return {row[0].strip("`"): set(re.findall(r"`(\w+)`", row[1])) for row in rows}


def test_readme_phase_reasons_match_mission():
    # The reasons the README lists for going back to search are the
    # {"reason": ...} payloads mission.py writes into phase events.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    row = next(line for line in readme.read_text(encoding="utf-8").splitlines()
               if line.startswith("| `phase` |"))
    listed = re.findall(r"`(\w+)`", row.split("`reason`", 1)[1].split("|")[0])
    source = Path(bhsim.mission.__file__).read_text(encoding="utf-8")
    literals = [
        node.values[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        and [getattr(k, "value", None) for k in node.keys] == ["reason"]
    ]
    assert sorted(listed) == sorted(set(literals)) == [
        "align_timeout", "claim_lost", "retry_limit"]


def test_readme_event_table_matches_event_kinds():
    table = _readme_event_table()
    assert list(table) == list(EVENT_KINDS)
    # Every data field a run emits is named in its kind's row.
    out = _failure_run("1:20")
    for e in out.events:
        assert set(e["data"]) <= table[e["kind"]], e


def test_measured_tracks_are_ranged_and_coasting_tracks_keep_their_range(
    monkeypatch,
):
    # Oracle: the small-angle inverse f * D / (2 r), r half the major axis
    # of the posterior box with the axis floored at 1 px.  A track
    # measured this frame (misses == 0) is ranged from it; a coasting
    # track keeps the range of the frame that last measured it.
    s = default_scenario(seed=0)
    s = replace(s, sim=s.sim._replace(duration_limit=20.0))
    focal, diameter = s.camera.focal_px, s.balloons.params.diameter
    ticks = []
    original = bhsim.sim.step_mission

    def recording(ms, tracks, *args):
        ticks.append({t.id: (t.misses, t.x, t.last_range) for t in tracks})
        return original(ms, tracks, *args)

    monkeypatch.setattr(bhsim.sim, "step_mission", recording)
    run_simulation(s)
    measured = coasting = 0
    for prev, now in zip([{}] + ticks, ticks):
        for tid, (misses, x, last_range) in now.items():
            if misses == 0:
                radius = max(x[2], x[3], 1.0) / 2
                assert last_range == focal * diameter / (2 * radius)
                measured += 1
            else:
                assert last_range == prev[tid][2]
                coasting += 1
    assert measured > 100 and coasting > 10


RUN_RECORDS = [
    bhsim.fleet.PartitionCell, bhsim.fleet.ClaimResult,
    bhsim.mission.FleetView, bhsim.mission.MissionContext,
    bhsim.mission.Target, bhsim.mission.MissionState, bhsim.mission.MissionStep,
    bhsim.tracking.Assignment, bhsim.tracking.Tracker, bhsim.tracking.CostMatrix,
    bhsim.vehicle.UavState, bhsim.world.WorldState,
    bhsim.sim.RunResult, bhsim.sim.SweepResult,
]


@pytest.mark.parametrize("record", RUN_RECORDS, ids=lambda r: r.__name__)
def test_run_records_are_immutable(record):
    # Neither a field nor a new attribute can be set on a record.
    value = record._make([None] * len(record._fields))
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
