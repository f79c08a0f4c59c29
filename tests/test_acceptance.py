"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from dataclasses import replace

import pytest
from oracles import brute_force_min_cost

from bhsim.events import serialize_events
from bhsim.fleet import point_in_cell
from bhsim.guidance import velocity_command_camera
from bhsim.mission import MissionParams, generate_search_path
from bhsim.perception import (
    ZERO_NOISE,
    CameraIntrinsics,
    NoiseModel,
    estimate_range,
    generate_detections,
)
from bhsim.rng import substream
from bhsim.scenario import default_scenario, parse_scenario_text
from bhsim.sim import run_simulation, sweep
from bhsim.tracking import (
    BoxMeasurement,
    Tracker,
    TrackStatus,
    CostMatrix,
    kf_predict,
    solve_assignment,
    step_tracker,
)
from bhsim.vehicle import UavState, camera_to_world
from bhsim.world import Balloon, BalloonParams, advance_world, make_world


class _criterion:
    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.num} [{self.name}]: {status}")
        return False


def test_criterion_1_assignment_oracle():
    """Solver total equals the exhaustive-permutation minimum, 1000 cases."""
    with _criterion(1, "assignment-oracle"):
        rng = random.Random(2024)
        start = time.monotonic()
        for case in range(1000):
            n = rng.randrange(1, 8)
            m = rng.randrange(1, 8)
            if case % 2:
                rows = [[float(rng.randrange(1000)) for _ in range(m)] for _ in range(n)]
            else:
                rows = [[rng.uniform(0.0, 100.0) for _ in range(m)] for _ in range(n)]
            out = solve_assignment(CostMatrix((n, m), rows), gate=math.inf)
            total = sum(rows[i][j] for i, j in out.matches)
            oracle = brute_force_min_cost(rows)
            assert len(out.matches) == min(n, m)
            if case % 2:
                assert total == oracle          # integer costs: exact
            else:
                assert total == pytest.approx(oracle, abs=1e-9)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"assignment oracle took {elapsed:.1f}s"


def test_criterion_2_guidance_fidelity():
    """Camera command on the line of sight (1e-9); frame transport
    preserves the norm (1e-12); 100k random cases."""
    with _criterion(2, "guidance-fidelity"):
        rng = random.Random(77)
        for _ in range(100_000):
            px = rng.uniform(-2000, 2000)
            py = rng.uniform(-2000, 2000)
            f = rng.uniform(1.0, 3000.0)
            speed = rng.uniform(0.05, 10.0)
            cmd = velocity_command_camera(px, py, f, speed)
            norm = math.sqrt(px * px + py * py + f * f)
            expected = (speed * px / norm, speed * py / norm, speed * f / norm)
            assert abs(cmd[0] - expected[0]) < 1e-9
            assert abs(cmd[1] - expected[1]) < 1e-9
            assert abs(cmd[2] - expected[2]) < 1e-9
            out = camera_to_world(cmd, rng.uniform(-math.pi, math.pi))
            assert abs(
                math.sqrt(sum(c * c for c in out)) - speed
            ) < 1e-12 * max(1.0, speed)


def test_criterion_3_tracker_convergence_and_id_stability():
    """Zero-noise pixel-velocity convergence; single-balloon id stability."""
    with _criterion(3, "tracker-convergence"):
        # (a) constant pixel velocity, zero noise: < 1 px after 10 frames
        tracker = Tracker()
        v = 2.0
        for frame in range(10):
            tracker, _ = step_tracker(
                tracker, [BoxMeasurement(v * frame, 0.0, 30.0, 30.0)]
            )
        track = tracker.tracks[0]
        assert track.status is TrackStatus.CONFIRMED
        predicted = kf_predict(track)
        assert abs(predicted.x[0] - v * 10) < 1.0

        # (b) id stability: 1 balloon, p_miss 0.2, 300 frames, 20 seeds
        camera = CameraIntrinsics()
        noise = NoiseModel(
            center_sigma=2.0,
            size_sigma_frac=0.05,
            p_miss_base=0.2,
            p_miss_range_scale=0.0,
            false_alarm_rate=0.0,
            confidence_floor=0.1,
        )
        pose = UavState(position=(0.0, 0.0, 3.0), yaw=0.0)
        single_frames = 0
        total_frames = 300 * 20
        for seed in range(20):
            balloon = Balloon((15.0, 0.0, 2.0), 0.0, 1.0, 0.0)  # phase, cos, sin
            world = make_world(BalloonParams(), [balloon])
            rng = substream(seed, "id-stability")
            tracker = Tracker()
            for frame in range(300):
                world = advance_world(world, frame * 0.05)
                dets = generate_detections(camera, pose, world, noise, rng)
                meas = [
                    BoxMeasurement(d.center_x, d.center_y, d.width, d.height)
                    for d in dets
                ]
                tracker, _ = step_tracker(tracker, meas)
                confirmed = [
                    t for t in tracker.tracks if t.status is TrackStatus.CONFIRMED
                ]
                if len(confirmed) == 1:
                    single_frames += 1
        assert single_frames / total_frames >= 0.95, (
            f"single-confirmed-track fraction {single_frames / total_frames:.3f}"
        )


def test_criterion_4_range_inversion():
    """Known-size ranging recovers depth within 2% against the exact
    sphere projection for 2..40 m."""
    with _criterion(4, "range-inversion"):
        camera = CameraIntrinsics(focal_px=600.0)
        diameter = 0.45
        radius_m = diameter / 2.0
        for depth in (2.0 + k * 0.25 for k in range(153)):
            exact_px = camera.focal_px * radius_m / math.sqrt(
                depth**2 - radius_m**2
            )
            est = estimate_range(exact_px, camera, diameter)
            assert abs(est - depth) / depth < 0.02


def test_criterion_5_coverage_and_search_speed():
    """Lanes cover the footprint within spacing/2 on a 1 m grid; the
    search never exceeds the 2 m/s speed cap."""
    with _criterion(5, "search-coverage"):
        footprint = ((5.0, 5.0), (95.0, 5.0), (95.0, 35.0), (5.0, 35.0))
        spacing = 15.0
        path = generate_search_path(footprint, 4.0, spacing, MissionParams().wp_step)
        assert all(wp[2] == 4.0 for wp in path)

        def dist_to_segment(p, a, b):
            ax, ay, bx, by = a[0], a[1], b[0], b[1]
            abx, aby = bx - ax, by - ay
            denom = abx * abx + aby * aby
            if denom == 0:
                return math.hypot(p[0] - ax, p[1] - ay)
            t = max(0.0, min(1.0, ((p[0] - ax) * abx + (p[1] - ay) * aby) / denom))
            return math.hypot(p[0] - (ax + t * abx), p[1] - (ay + t * aby))

        segments = list(zip(path, path[1:]))
        worst = 0.0
        for x in range(5, 96):
            for y in range(5, 36):
                d = min(dist_to_segment((float(x), float(y)), a, b) for a, b in segments)
                worst = max(worst, d)
        assert worst <= spacing / 2.0 + 1e-9, f"coverage gap {worst:.2f} m"

        # Speed bound: the engine aborts any run in which an agent's speed
        # exceeds v_max + 1e-9 on any tick, so a completed default run
        # certifies the 2 m/s cap over the whole search.
        scenario = default_scenario(seed=0)
        assert scenario.vehicle.v_max == 2.0
        out = run_simulation(replace(scenario, noise=ZERO_NOISE))
        assert out.metrics.duration > 0.0


def test_criterion_6_end_to_end_mission():
    """Default 5-balloon single-agent scenario: >= 90% success over 50
    noisy seeds, 100% over 50 zero-noise seeds, within 600 s each, in
    under 2 minutes of wall clock."""
    with _criterion(6, "end-to-end-mission"):
        start = time.monotonic()
        noisy = sweep(default_scenario(), range(50))
        zero = sweep(replace(default_scenario(), noise=ZERO_NOISE), range(50))
        elapsed = time.monotonic() - start

        for rows in (noisy.rows, zero.rows):
            for m in rows:
                assert m.geofence_violations == 0
                if m.success:
                    assert m.pops_total_time is not None
                    assert m.pops_total_time < 600.0
        assert noisy.aggregate["success_rate"] >= 0.90, noisy.aggregate
        assert zero.aggregate["success_rate"] == 1.0, zero.aggregate
        assert elapsed < 120.0, f"end-to-end sweeps took {elapsed:.0f}s"


# Enough balloons that every seeded run outlives the t=120 s failure.
FLEET_SCENARIO_TEXT = (
    "seed = 0\n"
    "agents.count = 3\n"
    "balloons.count = 20\n"
    "balloons.min_sep = 6\n"
    "fleet.failures = 1:120\n"
    "sim.tick_rate = 10\n"
    "sim.duration_limit = 300\n"
)


def test_criterion_7_fleet_properties():
    """3 agents, scripted failure at t=120: post-failure coverage, claim
    exclusion, geofence, and separation across 50 seeds."""
    with _criterion(7, "fleet-properties"):
        scenario = parse_scenario_text(FLEET_SCENARIO_TEXT)
        dt = 1.0 / scenario.sim.tick_rate
        sep_bound = scenario.fleet.min_sep - scenario.vehicle.v_max * dt
        rng = random.Random(99)
        xmin, ymin, xmax, ymax = scenario.arena.footprint

        for seed in range(50):
            out = run_simulation(replace(scenario, seed=seed))
            m = out.metrics

            # the scripted failure must actually have happened
            failures = [
                e for e in out.events
                if e["kind"] == "failure" and e["data"].get("reason") == "scripted"
            ]
            assert len(failures) == 1, f"seed {seed}: failure never injected"
            assert m.duration >= 120.0

            # post-failure cell union covers the footprint (Monte Carlo 1%)
            polys = [c.polygon for c in out.cells]
            assert {c.agent_id for c in out.cells} == {0, 2}
            samples = [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
                       for _ in range(10_000)]
            covered = sum(
                1 for p in samples
                if any(point_in_cell(p, poly, margin=1e-9) for poly in polys)
            )
            assert covered / 10_000 >= 0.99, f"seed {seed}: coverage {covered}"

            # zero ticks with two claims inside claim_radius: replay the
            # claim event stream and check the table invariant throughout
            live = {}
            for e in out.events:
                if e["kind"] != "claim":
                    continue
                d = e["data"]
                if d["action"] == "grant":
                    est = tuple(d["estimate"])
                    ex, ey, ez = est
                    # the distance as claim_target computes it
                    for cx, cy, cz in live.values():
                        dx, dy, dz = cx - ex, cy - ey, cz - ez
                        assert (
                            math.sqrt(dx * dx + dy * dy + dz * dz)
                            >= scenario.fleet.claim_radius
                        ), f"seed {seed}: overlapping claims at t={e['t']}"
                    live[d["claim_id"]] = est
                elif d["action"] == "release":
                    live.pop(d["claim_id"], None)

            assert m.geofence_violations == 0, f"seed {seed}"
            assert m.min_inter_agent_distance is not None
            assert m.min_inter_agent_distance >= sep_bound, (
                f"seed {seed}: min distance {m.min_inter_agent_distance:.2f}"
            )


def test_criterion_8_determinism():
    """Byte-identical event logs across repeated runs and under
    concurrent sweep execution."""
    with _criterion(8, "determinism"):
        scenario = parse_scenario_text(
            "seed = 13\nballoons.count = 3\nsim.duration_limit = 120\n"
        )
        a = run_simulation(scenario)
        b = run_simulation(scenario)
        assert serialize_events(a.events) == serialize_events(b.events)

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            seq = Path(tmp) / "seq"
            par1 = Path(tmp) / "par1"
            par2 = Path(tmp) / "par2"
            sweep(scenario, range(4), jobs=1, out_dir=seq)
            sweep(scenario, range(4), jobs=3, out_dir=par1)
            sweep(scenario, range(4), jobs=3, out_dir=par2)
            for seed in range(4):
                name = f"events_seed{seed}.jsonl"
                ref = (seq / name).read_bytes()
                assert (par1 / name).read_bytes() == ref
                assert (par2 / name).read_bytes() == ref
