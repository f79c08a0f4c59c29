"""Deterministic tick loop, seed sweeps, metrics, and run bookkeeping.

Per tick, in fixed order: advance the world, run the fleet supervisor
(failure injection, separation holds), step every live agent in ascending
id (perceive, track, decide, clamp, integrate), then apply pop checks and
logging.  Agents interact only through the fleet supervisor, and all
randomness flows from named substreams of the scenario seed, so a run is
a pure function of (scenario, seed).
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import events as ev
from .fleet import (
    ClaimTable,
    PartitionCell,
    claim_target,
    deconflict,
    release_claim,
    voronoi_partition,
)
from .mission import (
    FleetView,
    MissionContext,
    MissionState,
    Phase,
    SearchPath,
    check_pop,  # fused into pops_in_reach; bench/tracer.py wraps sim.check_pop
    generate_search_path,
    initial_mission_state,
    pops_in_reach,
    step_mission,
)
from .perception import (
    MIN_CIRCLE_RADIUS_PX,
    estimate_range,
    fit_circle,
    generate_detections,
)
from .rng import substream
from .scenario import Scenario
from .tracking import BoxMeasurement, Tracker, step_tracker
from .vehicle import (
    UavState,
    clamp_to_geofence,
    geofence_from_arena,
    step_uav,
)
from .world import (
    Balloon,
    WorldState,
    advance_world,
    make_balloon,
    make_world,
    pop_balloon,
    sample_balloon_layout,
)

log = logging.getLogger("bhsim")

Vec3 = tuple[float, float, float]

SPEED_TOLERANCE = 1e-9


class InvariantViolation(RuntimeError):
    """A run broke one of its own structural invariants."""


@dataclass
class RunMetrics:
    seed: int
    balloons_total: int
    balloons_popped: int = 0
    pops_total_time: Optional[float] = None
    pop_times: tuple[tuple[int, float], ...] = ()
    false_confirms: int = 0
    geofence_violations: int = 0
    duplicate_target_ticks: int = 0
    min_inter_agent_distance: Optional[float] = None
    distance_flown: dict[int, float] = field(default_factory=dict)
    duration: float = 0.0
    error: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.error is None and self.balloons_popped == self.balloons_total

    def csv_row(self) -> str:
        per_agent = ";".join(
            f"{aid}:{dist:.3f}" for aid, dist in sorted(self.distance_flown.items())
        )
        min_d = "" if self.min_inter_agent_distance is None else (
            f"{self.min_inter_agent_distance:.6f}"
        )
        total_t = "" if self.pops_total_time is None else f"{self.pops_total_time:.6f}"
        return ",".join(
            [
                str(self.seed),
                str(self.balloons_total),
                str(self.balloons_popped),
                "1" if self.success else "0",
                total_t,
                str(self.false_confirms),
                str(self.geofence_violations),
                str(self.duplicate_target_ticks),
                min_d,
                f"{sum(self.distance_flown.values()):.3f}",
                per_agent,
                (self.error or "").replace(",", ";"),
            ]
        )


CSV_HEADER = (
    "seed,balloons_total,balloons_popped,success,pops_total_time,"
    "false_confirms,geofence_violations,duplicate_target_ticks,"
    "min_inter_agent_distance,distance_flown_total,distance_flown_per_agent,"
    "error"
)


@dataclass
class RunResult:
    metrics: RunMetrics
    events: list[dict]
    world: WorldState
    cells: list[PartitionCell]


@dataclass
class _AgentRt:
    """Mutable per-agent runtime owned by the loop."""

    id: int
    uav: UavState
    tracker: Tracker
    mission: MissionState
    rng: np.random.Generator
    ctx: MissionContext
    view: Optional[FleetView] = None
    distance: float = 0.0
    failed: bool = False


class _EventLog:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._seq = 0

    def emit(self, t: float, agent: Optional[int], kind: str, data: dict) -> None:
        self.records.append(ev.make_event(self._seq, t, agent, kind, data))
        self._seq += 1


def _build_balloons(scenario: Scenario, rng: np.random.Generator) -> list[Balloon]:
    setup = scenario.balloons
    if setup.anchors is None:
        return sample_balloon_layout(
            rng, scenario.arena, setup.count, setup.min_sep, setup.params
        )
    return [
        make_balloon(i, anchor, setup.params, rng)
        for i, anchor in enumerate(setup.anchors)
    ]


def plan_cells(
    scenario: Scenario, agent_ids: Sequence[int]
) -> tuple[list[PartitionCell], dict[int, SearchPath]]:
    """Voronoi cells and full search paths for the given agents.

    Each agent's generator is its start position projected onto the
    search footprint.  Cells come back in ``agent_ids`` order; paths are
    keyed by agent id.
    """
    footprint = scenario.arena.footprint
    xmin, ymin, xmax, ymax = footprint
    generators = []
    for i in agent_ids:
        x, y, _ = scenario.agents.starts[i]
        generators.append((i, (min(max(x, xmin), xmax), min(max(y, ymin), ymax))))
    cells = voronoi_partition(footprint, generators)
    mp = scenario.mission
    paths = {
        c.agent_id: generate_search_path(
            c.polygon, mp.search_altitude, mp.lane_spacing, mp.wp_step
        )
        for c in cells
    }
    return cells, paths


def _prune_path(
    path: SearchPath, covered: Sequence[tuple[float, float]], radius: float
) -> SearchPath:
    """Drop waypoints already within ``radius`` of swept coverage points."""
    if not covered:
        return path
    kept = []
    for wp in path.waypoints:
        if any(math.hypot(wp[0] - cx, wp[1] - cy) <= radius for cx, cy in covered):
            continue
        kept.append(wp)
    if not kept:
        return path
    return replace(path, waypoints=tuple(kept))


def _strip_closing(v: Vec3, own: Vec3, other: Vec3) -> Vec3:
    """Remove the velocity component closing on ``other`` from ``own``."""
    ux, uy, uz = other[0] - own[0], other[1] - own[1], other[2] - own[2]
    n2 = ux * ux + uy * uy + uz * uz
    if n2 < 1e-12:
        return (0.0, 0.0, 0.0)
    dot = v[0] * ux + v[1] * uy + v[2] * uz
    if dot <= 0.0:
        return v
    k = dot / n2
    return (v[0] - k * ux, v[1] - k * uy, v[2] - k * uz)


def _is_closing(v: Vec3, own: Vec3, other: Vec3) -> bool:
    ux, uy, uz = other[0] - own[0], other[1] - own[1], other[2] - own[2]
    return v[0] * ux + v[1] * uy + v[2] * uz > 1e-9


def run_simulation(scenario: Scenario) -> RunResult:
    """Run one scenario to completion and return metrics plus event log.

    Terminates when every balloon is popped, when the duration limit is
    reached, or when no live agents remain.

    Raises:
        InvariantViolation: on an internal consistency breach (nonzero
            exit path for the CLI).
    """
    seed = scenario.seed
    dt = 1.0 / scenario.sim.tick_rate
    fence = geofence_from_arena(scenario.arena)
    margin = scenario.arena.geofence_margin

    elog = _EventLog()
    metrics = RunMetrics(seed=seed, balloons_total=scenario.balloons.count)

    # Turning faster than the association gate can follow (pixel shift per
    # frame beyond gate_px) would break tracks mid-turn; cap commanded yaw
    # rates so the image never slews more than ~40% of the gate per frame.
    yaw_rate_cap = min(
        scenario.vehicle.yaw_rate_max,
        0.4 * scenario.tracker.gate_px / (scenario.camera.focal_px * dt),
    )

    layout_rng = substream(seed, "layout")
    world = make_world(_build_balloons(scenario, layout_rng))

    cells, paths = plan_cells(scenario, range(scenario.agents.count))
    cells_by_agent = {c.agent_id: c for c in cells}

    agents: list[_AgentRt] = []
    for i in range(scenario.agents.count):
        agents.append(
            _AgentRt(
                id=i,
                uav=UavState(
                    id=i,
                    position=scenario.agents.starts[i],
                    yaw=scenario.agents.start_yaw,
                ),
                tracker=Tracker(params=scenario.tracker),
                mission=initial_mission_state(paths[i]),
                rng=substream(seed, f"perception.{i}"),
                ctx=MissionContext(
                    params=scenario.mission,
                    focal_px=scenario.camera.focal_px,
                    yaw_rate_max=yaw_rate_cap,
                    volume_lo=scenario.arena.effective_min,
                    volume_hi=scenario.arena.effective_max,
                ),
            )
        )

    claims = ClaimTable()
    covered: list[tuple[float, float]] = []
    pending_failures = list(scenario.fleet.failures)
    pop_times: list[tuple[int, float]] = []
    declared: list[tuple[int, Vec3]] = []
    # Separation triggers anticipate both the per-tick travel and the
    # drift-through of the first order velocity lag (~v_max * tau) so the
    # realized minimum distance stays above min_sep - v_max * dt.
    lag_reach = scenario.vehicle.v_max * (dt + scenario.vehicle.tau)
    hold_radius = scenario.fleet.min_sep + 2.0 * lag_reach
    strip_radius = scenario.fleet.min_sep + 2.0 * scenario.vehicle.v_max * scenario.vehicle.tau

    def release(agent: _AgentRt, t: float, claim_id: int, reason: str) -> None:
        release_claim(claims, claim_id, reason)
        elog.emit(
            t, agent.id, "claim",
            {"action": "release", "claim_id": claim_id, "reason": reason},
        )
        if reason == "popped" and agent.mission.last_estimate is not None:
            declared.append((agent.id, agent.mission.last_estimate))

    def view_for(agent: _AgentRt) -> FleetView:
        """The agent's fleet view for the current plan (cell)."""

        def try_claim(estimate: Vec3, t: float):
            result = claim_target(
                claims, agent.id, estimate, scenario.fleet.claim_radius, t
            )
            elog.emit(
                t,
                agent.id,
                "claim",
                {
                    "action": "grant" if result.granted else "deny",
                    "claim_id": result.claim_id,
                    "conflict_id": result.conflict_id,
                    "estimate": list(estimate),
                },
            )
            return result

        cell = cells_by_agent.get(agent.id)
        return FleetView(
            claim_radius=scenario.fleet.claim_radius,
            try_claim=try_claim,
            release=lambda claim_id, reason, t: release(agent, t, claim_id, reason),
            cell=cell.polygon if cell is not None else (),
        )

    for agent in agents:
        agent.view = view_for(agent)
    # radius + tip_reach per balloon, as check_pop adds them
    reaches = tuple(
        [b.radius + scenario.mission.tip_reach for b in world.balloons]
    )

    frame = 0
    t = 0.0
    last_time = -1.0
    while True:
        t = frame * dt
        if t >= scenario.sim.duration_limit:
            break
        if world.alive_count == 0:
            break
        live = [a for a in agents if not a.failed]
        if not live:
            break
        if t <= last_time:
            raise InvariantViolation("simulation time did not advance")
        last_time = t

        # 1. world
        world = advance_world(world, t)

        # 2. fleet: scripted failures, then separation holds
        while pending_failures and pending_failures[0][1] <= t:
            failed_id, _when = pending_failures.pop(0)
            agent = agents[failed_id]
            if agent.failed:
                continue
            agent.failed = True
            agent.uav = replace(agent.uav, alive=False, velocity=(0.0, 0.0, 0.0))
            if agent.mission.claim_id is not None:
                release(agent, t, agent.mission.claim_id, "abandoned")
            agent.mission = replace(
                agent.mission, phase=Phase.DONE, entered_at=t,
                claim_id=None, target_track_id=None,
            )
            elog.emit(t, failed_id, "failure", {"reason": "scripted"})
            survivors = [a.id for a in agents if not a.failed]
            if survivors:
                cells, paths = plan_cells(scenario, survivors)
                cells_by_agent = {c.agent_id: c for c in cells}
                for rt in agents:
                    if rt.failed:
                        continue
                    pruned = _prune_path(
                        paths[rt.id], covered, scenario.mission.lane_spacing / 2.0
                    )
                    rt.mission = replace(
                        rt.mission,
                        path=pruned,
                        wp_index=0,
                        wp_started_at=t,
                        visited=tuple(False for _ in pruned.waypoints),
                    )
                    rt.view = view_for(rt)
        live = [a for a in agents if not a.failed]
        if not live:
            continue

        start_pos = {a.id: a.uav.position for a in live}
        holds = (
            deconflict([a.uav for a in live], hold_radius) if len(live) > 1 else {}
        )
        close_pairs: dict[int, list[Vec3]] = {}
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                a, b = live[i], live[j]
                if math.dist(start_pos[a.id], start_pos[b.id]) < strip_radius:
                    close_pairs.setdefault(a.id, []).append(start_pos[b.id])

        # 3. agents, ascending id
        for agent in live:
            detections = generate_detections(
                scenario.camera, agent.uav, world, scenario.noise, agent.rng, frame
            )
            for d in detections:
                elog.emit(
                    t, agent.id, "detection",
                    {
                        "cx": d.center_x,
                        "cy": d.center_y,
                        "w": d.width,
                        "h": d.height,
                        "conf": round(d.confidence, 6),
                        "truth": d.truth_id,
                    },
                )
            measurements = [
                BoxMeasurement(d.center_x, d.center_y, d.width, d.height)
                for d in detections
            ]
            agent.tracker, summary = step_tracker(agent.tracker, measurements)
            for tev in summary.events:
                elog.emit(
                    t, agent.id, "track", {"event": tev.kind, "track_id": tev.track_id}
                )
            for track_id, det_index in summary.matches:
                track = agent.tracker.track_by_id(track_id)
                if track is None:
                    continue
                # Range from the corrected (posterior) box: the smoothed
                # size rides out occasional association swaps.
                circle = fit_circle(
                    BoxMeasurement(
                        float(track.x[0]), float(track.x[1]),
                        max(float(track.x[2]), 2 * MIN_CIRCLE_RADIUS_PX),
                        max(float(track.x[3]), 2 * MIN_CIRCLE_RADIUS_PX),
                    )
                )
                track.last_range = float(
                    estimate_range(
                        circle, scenario.camera, scenario.balloons.params.diameter
                    )
                )

            prev_visited = agent.mission.visited
            mstep = step_mission(
                agent.mission,
                agent.tracker.tracks,
                agent.uav,
                agent.view,
                t,
                agent.ctx,
            )
            agent.mission = mstep.state
            for name, payload in mstep.events:
                if name == "phase":
                    elog.emit(t, agent.id, "phase", payload)
                elif name == "pop_declared":
                    elog.emit(
                        t, agent.id, "pop",
                        {"source": "declared", **payload},
                    )
                elif name == "unreachable":
                    elog.emit(
                        t, agent.id, "failure",
                        {"reason": "unreachable_site", **payload},
                    )
            if agent.mission.visited is not prev_visited:
                for idx, was in enumerate(prev_visited):
                    if not was and idx < len(agent.mission.visited) and \
                            agent.mission.visited[idx]:
                        wp = agent.mission.path.waypoints[idx]
                        covered.append((wp[0], wp[1]))

            vel = mstep.velocity_cmd
            if holds.get(agent.id, False):
                clamped = (0.0, 0.0, 0.0)
            else:
                clamped = clamp_to_geofence(
                    agent.uav.position, vel, fence, margin, scenario.vehicle.v_max
                )
                if clamped != vel:
                    elog.emit(
                        t, agent.id, "geofence",
                        {"cmd": [round(c, 6) for c in vel],
                         "clamped": [round(c, 6) for c in clamped]},
                    )
                neighbors = close_pairs.get(agent.id, ())
                if neighbors:
                    own = start_pos[agent.id]
                    for other_pos in neighbors:
                        clamped = _strip_closing(clamped, own, other_pos)
                    clamped = clamp_to_geofence(
                        agent.uav.position, clamped, fence, margin,
                        scenario.vehicle.v_max,
                    )
                    # The fence clamp can turn a tangential command back
                    # into a closing one (sliding along a wall toward the
                    # neighbor); hold rather than close.
                    if any(
                        _is_closing(clamped, own, p) for p in neighbors
                    ):
                        clamped = (0.0, 0.0, 0.0)
            prev_pos = agent.uav.position
            agent.uav = step_uav(
                agent.uav, clamped, mstep.yaw_rate_cmd, dt, scenario.vehicle
            )
            agent.distance += math.dist(prev_pos, agent.uav.position)
            if agent.uav.speed > scenario.vehicle.v_max + SPEED_TOLERANCE:
                raise InvariantViolation(
                    f"agent {agent.id} exceeded v_max: {agent.uav.speed}"
                )
            if not fence.contains(agent.uav.position):
                metrics.geofence_violations += 1

        # 4. pop checks: each agent's tip against the balloons still alive
        # after the agents before it
        for agent in live:
            for i in pops_in_reach(agent.uav.position, world.centers, reaches):
                balloon_id = world.balloons[i].id
                world = pop_balloon(world, balloon_id)
                pop_times.append((balloon_id, t))
                elog.emit(
                    t, agent.id, "pop", {"source": "world", "balloon_id": balloon_id}
                )

        # 5. audits and per-tick metrics
        for agent_id, estimate in declared:
            near_alive = any(
                c is not None
                and math.dist(c, estimate) <= scenario.fleet.claim_radius
                for c in world.centers
            )
            if near_alive:
                metrics.false_confirms += 1
        declared.clear()

        # Duplicate-pursuit audit: resolve each engaged agent's working
        # estimate to the nearest alive balloon (ground truth, scoring
        # only) and flag ticks where two agents resolve to the same one.
        resolved: list[int] = []   # balloon indices
        dup_tick = False
        for agent in live:
            ms = agent.mission
            if ms.phase not in (Phase.ALIGN, Phase.APPROACH):
                continue
            if ms.last_estimate is None:
                continue
            best, best_d = None, scenario.fleet.claim_radius
            for i, c in enumerate(world.centers):
                if c is None:
                    continue
                d = math.dist(c, ms.last_estimate)
                if d <= best_d:
                    best, best_d = i, d
            if best is not None:
                if best in resolved:
                    dup_tick = True
                resolved.append(best)
        if dup_tick:
            metrics.duplicate_target_ticks += 1

        if len(live) > 1:
            for i in range(len(live)):
                for j in range(i + 1, len(live)):
                    d = math.dist(live[i].uav.position, live[j].uav.position)
                    if (
                        metrics.min_inter_agent_distance is None
                        or d < metrics.min_inter_agent_distance
                    ):
                        metrics.min_inter_agent_distance = d

        frame += 1

    metrics.balloons_popped = world.centers.count(None)
    metrics.pop_times = tuple(pop_times)
    if metrics.success and pop_times:
        metrics.pops_total_time = pop_times[-1][1]
    metrics.duration = t
    metrics.distance_flown = {a.id: a.distance for a in agents}
    log.info(
        "run seed=%d popped=%d/%d t=%.1fs",
        seed, metrics.balloons_popped, metrics.balloons_total, t,
    )
    return RunResult(
        metrics=metrics, events=elog.records, world=world, cells=cells
    )


@dataclass
class SweepResult:
    rows: list[RunMetrics]
    aggregate: dict[str, float]

    def csv_lines(self) -> list[str]:
        return [CSV_HEADER] + [m.csv_row() for m in self.rows]


def _aggregate(rows: Sequence[RunMetrics]) -> dict[str, float]:
    n = len(rows)
    popped = [m.balloons_popped for m in rows]
    times = [m.pops_total_time for m in rows if m.pops_total_time is not None]
    agg = {
        "runs": float(n),
        "errors": float(sum(1 for m in rows if m.error is not None)),
        "success_rate": sum(1 for m in rows if m.success) / n,
        "popped_mean": sum(popped) / n,
        "popped_min": float(min(popped)),
        "popped_max": float(max(popped)),
        "geofence_violations_total": float(
            sum(m.geofence_violations for m in rows)
        ),
        "false_confirms_total": float(sum(m.false_confirms for m in rows)),
    }
    if times:
        agg["pops_total_time_mean"] = sum(times) / len(times)
        agg["pops_total_time_min"] = min(times)
        agg["pops_total_time_max"] = max(times)
    return agg


def _sweep_one(args: tuple[Scenario, int, Optional[str]]) -> RunMetrics:
    scenario, seed, out_dir = args
    try:
        result = run_simulation(replace(scenario, seed=seed))
    except Exception as exc:
        # a failed run becomes a marked row; the sweep continues
        return RunMetrics(
            seed=seed,
            balloons_total=scenario.balloons.count,
            error=f"{type(exc).__name__}: {exc}",
        )
    if out_dir is not None:
        ev.write_event_log(
            Path(out_dir) / f"events_seed{seed}.jsonl", result.events
        )
    return result.metrics


def sweep(
    scenario: Scenario,
    seeds: Sequence[int],
    jobs: int = 1,
    out_dir: Optional[str | Path] = None,
) -> SweepResult:
    """Run the scenario once per seed and aggregate the metrics.

    Runs share nothing; with ``jobs > 1`` and more than one seed they
    execute in a pool of ``min(jobs, len(seeds))`` processes, which
    starts all its workers at once, and per-seed event logs (when
    ``out_dir`` is given) are written by the workers.  Rows are returned
    in seed order either way.
    """
    if not seeds:
        raise ValueError("seed range must be non-empty")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        out_dir = str(out_dir)
    work = [(scenario, seed, out_dir) for seed in seeds]
    workers = min(jobs, len(work))
    if workers <= 1:
        rows = [_sweep_one(w) for w in work]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, work))
    return SweepResult(rows=rows, aggregate=_aggregate(rows))
