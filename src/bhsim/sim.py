"""Deterministic tick loop, seed sweeps, metrics, and run bookkeeping.

A run is a pipeline of stages over one ``_Run`` state, which sets itself
up from the scenario: world, geofence, separation radii, and agents with
their mission contexts.  ``run_simulation`` builds it, makes the start-up
plan (``_plan``) and then calls the stages in this order every tick:

1. world: ``advance_world`` sways every alive balloon to time t;
2. fleet: ``_step_fleet`` applies scripted failures and the replan they
   force (``_plan`` again), then ``deconflict`` finds the separation
   holds and close pairs in one pass over the agent pairs;
3. agent, for every live agent in ascending id: ``_sense`` (camera
   detections), ``_track`` (tracker), ``_decide`` (mission, which ranges
   its tracks through ``_range``) and ``_act`` (hold, geofence clamp,
   separation strip, integration);
4. pops: ``_pop`` checks each agent's tip against the alive balloons;
5. audits: ``_audit`` scores the tick against ground truth, given the
   estimates of the pops the agents declared, which ``_decide`` hands it;
   with one live agent it counts only the false confirms, since the
   duplicate-pursuit and distance checks need two.

Agents interact only through the fleet stage and the calls of their
``MissionContext``, wired once per agent at set-up: the claim table, and
the swept coverage each replan prunes the new paths by.  All randomness
flows from named substreams of the scenario seed, so a run is a pure
function of (scenario, seed).  Stages emit records to the event log but
never read it back.

A run's records go to an ``events.EventLog``, which keeps them in
memory or, given the run's log path, writes them as the run goes.
"""

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import events as ev
from .fleet import (
    ClaimResult,
    ClaimTable,
    PartitionCell,
    claim_target,
    deconflict,
    release_claim,
    voronoi_partition,
)
from .mission import (
    MissionContext,
    MissionState,
    MissionStep,
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
    CameraIntrinsics,
    estimate_range,
    fit_circle,
    generate_detections,
)
from .rng import Stream, substream
from .scenario import Scenario
from .tracking import BoxMeasurement, Tracker, TrackState, step_tracker
from .vehicle import UavState, clamp_to_geofence, geofence_from_arena, step_uav
from .world import (
    Balloon,
    advance_world,
    make_balloon,
    make_world,
    pop_balloon,
    sample_balloon_layout,
)

Vec3 = tuple[float, float, float]

SPEED_TOLERANCE = 1e-9
_ENGAGED = (Phase.ALIGN, Phase.APPROACH)  # the phases that pursue a balloon


class InvariantViolation(RuntimeError):
    """A run broke one of its own structural invariants."""


@dataclass
class RunMetrics:
    """One run's outcome and audit counts; one row of ``metrics.csv``."""

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
        """No error, and every balloon popped; a run with none fails."""
        return self.error is None and 0 < self.balloons_popped == self.balloons_total

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


class RunResult(NamedTuple):
    """A finished run.  ``events`` is its whole event log, read-only, as
    ``events.EventLog.view`` gives it: it builds each record dict when it
    is read, and it is empty when the run streamed its log to a file."""

    metrics: RunMetrics
    events: Sequence[dict]
    cells: list[PartitionCell]


class _AgentRt:
    """Mutable per-agent runtime.  ``ctx``, the agent's mission constants
    and fleet calls, is set once per run.  A failed agent is never
    stepped again."""

    __slots__ = (
        "id", "uav", "tracker", "mission", "rng", "ctx", "distance", "failed"
    )

    def __init__(
        self, id: int, uav: UavState, tracker: Tracker, mission: MissionState,
        rng: Stream, ctx: MissionContext,
    ) -> None:
        self.id = id
        self.uav = uav
        self.tracker = tracker
        self.mission = mission
        self.rng = rng
        self.ctx = ctx
        self.distance = 0.0
        self.failed = False


class _Run:
    """Everything one run carries from tick to tick; every stage works on it.

    Set-up wires each agent to the fleet once: its ``MissionContext``
    holds the run's mission constants, its ranging and the agent's claim,
    release and coverage calls.
    """

    __slots__ = (
        "scenario", "dt", "fence", "hold_radius", "strip_radius", "reach",
        "world", "agents", "pending_failures", "metrics", "elog", "claims",
        "cells", "covered", "pop_times", "live", "held", "close_pairs",
    )

    def __init__(self, scenario: Scenario, elog: ev.EventLog) -> None:
        seed = scenario.seed
        self.dt = dt = 1.0 / scenario.sim.tick_rate
        vp, mp, ap = scenario.vehicle, scenario.mission, scenario.agents
        self.scenario = scenario
        balloons = _build_balloons(scenario, substream(seed, "layout"))
        self.world = make_world(scenario.balloons.params, balloons)
        self.fence = geofence_from_arena(scenario.arena)
        # Turning faster than the association gate can follow (pixel shift
        # per frame beyond gate_px) would break tracks mid-turn; cap
        # commanded yaw rates so the image never slews more than ~40% of
        # the gate per frame.
        yaw_rate_cap = min(
            vp.yaw_rate_max,
            0.4 * scenario.tracker.gate_px / (scenario.camera.focal_px * dt),
        )
        # Separation triggers anticipate both the per-tick travel and the
        # drift-through of the first order velocity lag (~v_max * tau) so
        # the realized minimum distance stays above min_sep - v_max * dt.
        lag_reach = vp.v_max * (dt + vp.tau)
        self.hold_radius = scenario.fleet.min_sep + 2.0 * lag_reach
        self.strip_radius = scenario.fleet.min_sep + 2.0 * vp.v_max * vp.tau
        # radius + tip_reach, as check_pop adds them
        self.reach = scenario.balloons.params.diameter / 2.0 + mp.tip_reach
        self.elog = elog
        self.claims = claims = ClaimTable()
        self.covered: list[Vec3] = []
        claim_radius = scenario.fleet.claim_radius
        range_of = partial(_range, scenario.camera, scenario.balloons.params.diameter)
        # Agents start on an empty path; the start-up plan gives each its own.
        unplanned = initial_mission_state(())
        self.agents = [
            _AgentRt(
                id=i,
                uav=UavState(position=ap.starts[i], yaw=ap.start_yaw),
                tracker=Tracker(params=scenario.tracker),
                mission=unplanned,
                rng=substream(seed, f"perception.{i}"),
                # Bound to the claims, the log and the coverage, never to
                # the run: a run bound here would be a cycle.
                ctx=MissionContext(
                    params=mp,
                    focal_px=scenario.camera.focal_px,
                    v_search=vp.v_max,
                    yaw_rate_max=yaw_rate_cap,
                    volume_lo=scenario.arena.effective_min,
                    volume_hi=scenario.arena.effective_max,
                    claim_radius=claim_radius,
                    range_of=range_of,
                    try_claim=partial(_try_claim, claims, elog, claim_radius, i),
                    release=partial(_release, claims, elog, i),
                    cover=self.covered.append,
                ),
            )
            for i in range(ap.count)
        ]
        self.pending_failures = list(scenario.fleet.failures)
        self.metrics = RunMetrics(seed=seed, balloons_total=scenario.balloons.count)
        self.cells: list[PartitionCell] = []
        self.pop_times: list[tuple[int, float]] = []
        # Set by each plan: the live agents, in ascending ids.
        self.live: list[_AgentRt] = []
        # Set by the fleet stage each tick: the held ids, and per agent the
        # tick-start positions of higher-id neighbors within the strip radius.
        self.held: set[int] = set()
        self.close_pairs: dict[int, list[Vec3]] = {}


def _build_balloons(scenario: Scenario, rng: Stream) -> list[Balloon]:
    setup = scenario.balloons
    if setup.anchors is None:
        return sample_balloon_layout(
            rng, scenario.arena, setup.count, setup.min_sep, setup.params
        )
    return [make_balloon(anchor, rng) for anchor in setup.anchors]


def plan_cells(
    scenario: Scenario, agent_ids: Sequence[int]
) -> tuple[list[PartitionCell], dict[int, SearchPath]]:
    """Voronoi cells and full search paths for the given agents.

    Each agent's generator is its start position projected onto the
    search footprint.  Cells come back in ``agent_ids`` order; paths,
    each the waypoints of lanes ``mission.lane_spacing`` apart at
    ``mission.search_altitude``, are keyed by agent id.
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


def _prune_path(path: SearchPath, covered: Sequence[Vec3], radius: float) -> SearchPath:
    """Drop waypoints already within ``radius`` of swept waypoints,
    measured across the footprint."""
    if not covered:
        return path
    kept = tuple([
        wp for wp in path
        if not any(math.hypot(wp[0] - c[0], wp[1] - c[1]) <= radius for c in covered)
    ])
    return kept or path


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


def _try_claim(
    claims: ClaimTable, elog: ev.EventLog, radius: float, agent_id: int,
    estimate: Vec3, t: float,
) -> ClaimResult:
    result = claim_target(claims, agent_id, estimate, radius)
    elog.emit(t, agent_id, "claim", {
        "action": "grant" if result.granted else "deny",
        "claim_id": result.claim_id,
        "conflict_id": result.conflict_id,
        "estimate": list(estimate),
    })
    return result


def _release(
    claims: ClaimTable, elog: ev.EventLog, agent_id: int, claim_id: int, reason: str,
    t: float,
) -> None:
    release_claim(claims, claim_id)
    elog.emit(
        t, agent_id, "claim",
        {"action": "release", "claim_id": claim_id, "reason": reason},
    )


def _plan(run: _Run, t: float) -> None:
    """Partition the footprint among the live agents and restart each
    one's search on its new cell, minus the waypoints the fleet already
    swept.  Serves start-up, where nothing is swept yet, and every replan
    after a failure; agents keep their phase and claim.
    """
    run.live = [a for a in run.agents if not a.failed]
    if not run.live:
        return
    run.cells, paths = plan_cells(run.scenario, [a.id for a in run.live])
    radius = run.scenario.mission.lane_spacing / 2.0
    for agent, cell in zip(run.live, run.cells):
        path = _prune_path(paths[agent.id], run.covered, radius)
        agent.mission = agent.mission._replace(
            path=path,
            cell=cell.polygon,
            wp_index=0,
            wp_started_at=t,
            visited=tuple(False for _ in path),
        )


def _step_fleet(run: _Run, t: float) -> None:
    """Scripted failures and the replan they force, then separation."""
    failed = False
    while run.pending_failures and run.pending_failures[0][1] <= t:
        agent = run.agents[run.pending_failures.pop(0)[0]]
        if agent.failed:
            continue
        agent.failed = failed = True
        if agent.mission.target is not None:
            agent.ctx.release(agent.mission.target.claim_id, "abandoned", t)
        run.elog.emit(t, agent.id, "failure", {"reason": "scripted"})
    if failed:
        _plan(run, t)

    if len(run.live) > 1:
        run.held, run.close_pairs = deconflict(
            [(a.id, a.uav.position) for a in run.live], run.hold_radius,
            run.strip_radius,
        )
    elif run.held or run.close_pairs:
        run.held, run.close_pairs = set(), {}


def _sense(run: _Run, agent: _AgentRt, t: float) -> list[BoxMeasurement]:
    """One camera frame: log each detection, hand the tracker plain boxes."""
    s = run.scenario
    detections = generate_detections(s.camera, agent.uav, run.world, s.noise, agent.rng)
    log = run.elog.detection
    boxes = []
    for cx, cy, w, h, conf, truth in detections:
        log(t, agent.id, cx, cy, w, h, round(conf, 6), truth)
        boxes.append(BoxMeasurement(cx, cy, w, h))
    return boxes


def _track(
    run: _Run, agent: _AgentRt, t: float, measurements: list[BoxMeasurement]
) -> None:
    """Advance the tracker and log its lifecycle events."""
    agent.tracker, events = step_tracker(agent.tracker, measurements)
    for kind, track_id in events:
        run.elog.track(t, agent.id, kind, track_id)


def _range(camera: CameraIntrinsics, diameter: float, track: TrackState) -> float:
    """Range to a tracked balloon from the track's box, each axis floored
    at 1 px.  The box is the filter's posterior, whose smoothed size rides
    out occasional association swaps; a coasting track keeps its size, so
    it keeps the range of the frame that last measured it."""
    floor = 2 * MIN_CIRCLE_RADIUS_PX
    radius = fit_circle(max(track.x[2], floor), max(track.x[3], floor))
    return estimate_range(radius, camera, diameter)


def _decide(
    run: _Run, agent: _AgentRt, t: float, declared: list[list[float]]
) -> MissionStep:
    """Step the mission, log its events and collect the estimates of the
    pops it declares."""
    mstep = step_mission(agent.mission, agent.tracker.tracks, agent.uav, t, agent.ctx)
    agent.mission = mstep.state
    for kind, data in mstep.events:
        run.elog.emit(t, agent.id, kind, data)
        if kind == "pop":  # the mission's pops are all declared ones
            declared.append(data["estimate"])
    return mstep


def _act(run: _Run, agent: _AgentRt, t: float, mstep: MissionStep) -> None:
    """Hold, or clamp the mission's command to the geofence and strip what
    closes on a near neighbor; then integrate the vehicle one tick."""
    vp = run.scenario.vehicle
    margin = run.scenario.arena.geofence_margin
    own = agent.uav.position
    vel = mstep.velocity_cmd
    neighbors = run.close_pairs.get(agent.id, ())
    if agent.id in run.held:
        clamped = (0.0, 0.0, 0.0)
    else:
        clamped = clamp_to_geofence(own, vel, run.fence, margin, vp.v_max)
        if clamped != vel:
            run.elog.emit(
                t, agent.id, "geofence",
                {"cmd": [round(c, 6) for c in vel],
                 "clamped": [round(c, 6) for c in clamped]},
            )
        if neighbors:
            for other_pos in neighbors:
                clamped = _strip_closing(clamped, own, other_pos)
            clamped = clamp_to_geofence(own, clamped, run.fence, margin, vp.v_max)
            # The fence clamp can turn a tangential command back into a
            # closing one (sliding along a wall toward the neighbor);
            # hold rather than close.
            if any(_is_closing(clamped, own, p) for p in neighbors):
                clamped = (0.0, 0.0, 0.0)
    agent.uav = step_uav(agent.uav, clamped, mstep.yaw_rate_cmd, run.dt, vp)
    agent.distance += math.dist(own, agent.uav.position)
    if agent.uav.speed > vp.v_max + SPEED_TOLERANCE:
        raise InvariantViolation(f"agent {agent.id} exceeded v_max: {agent.uav.speed}")
    if not run.fence.contains(agent.uav.position):
        run.metrics.geofence_violations += 1


def _pop(run: _Run, t: float) -> None:
    """Each agent's tip against the balloons still alive after the agents
    before it."""
    for agent in run.live:
        for i in pops_in_reach(agent.uav.position, run.world.centers, run.reach):
            run.world = pop_balloon(run.world, i)
            run.pop_times.append((i, t))
            run.elog.emit(t, agent.id, "pop", {"source": "world", "balloon_id": i})


def _audit(run: _Run, declared: Sequence[list[float]]) -> None:
    """Score the tick, and the estimates of the pops declared in it,
    against ground truth; nothing here reaches an agent."""
    metrics = run.metrics
    centers = run.world.centers
    radius = run.scenario.fleet.claim_radius
    # False confirms: a pop declared this tick while a balloon is still
    # alive near its estimate.
    for estimate in declared:
        if any(c is not None and math.dist(c, estimate) <= radius for c in centers):
            metrics.false_confirms += 1
    if len(run.live) < 2:
        return  # one agent pursues no duplicate and has no pair

    # Duplicate pursuit: resolve each engaged agent's working estimate to
    # the nearest alive balloon and flag ticks where two agents resolve
    # to the same one.
    resolved: list[int] = []   # balloon indices
    dup_tick = False
    for agent in run.live:
        ms = agent.mission
        if ms.phase not in _ENGAGED:
            continue
        best, best_d = None, radius
        for i, c in enumerate(centers):
            if c is None:
                continue
            d = math.dist(c, ms.target.estimate)
            if d <= best_d:
                best, best_d = i, d
        if best is not None:
            if best in resolved:
                dup_tick = True
            resolved.append(best)
    if dup_tick:
        metrics.duplicate_target_ticks += 1

    for a, b in combinations(run.live, 2):
        d = math.dist(a.uav.position, b.uav.position)
        best = metrics.min_inter_agent_distance
        if best is None or d < best:
            metrics.min_inter_agent_distance = d


def run_simulation(
    scenario: Scenario, log_path: Optional[str | Path] = None
) -> RunResult:
    """Run one scenario to completion and return metrics plus event log.

    Terminates when every balloon is popped, when the duration limit is
    reached, or when no live agents remain.

    With ``log_path`` the log is written to that file as the run goes
    (see ``events.EventLog``) and ``RunResult.events`` is empty.  If
    the run then raises, set-up included, or is interrupted
    (``KeyboardInterrupt`` or any other ``BaseException``), the file
    holds every record emitted so far and ends with one ``error`` record
    (agent null, the failing tick's ``t``, ``data`` the exception's type
    name and message) before the exception propagates.

    Raises:
        InvariantViolation: on an internal consistency breach (nonzero
            exit path for the CLI).
    """
    if log_path is None:
        return _simulate(scenario, ev.EventLog())
    with open(log_path, "wb") as fh:
        elog = ev.EventLog(fh)
        try:
            result = _simulate(scenario, elog)
        except BaseException as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            elog.emit(elog.t, None, "error", error)
            elog.write()
            raise
        elog.write()
    return result


def _simulate(scenario: Scenario, elog: ev.EventLog) -> RunResult:
    """The run itself: set-up, the tick loop and the metrics."""
    run = _Run(scenario, elog)
    _plan(run, 0.0)

    frame = 0
    last_time = -1.0
    while True:
        t = frame * run.dt
        if t >= scenario.sim.duration_limit or run.world.alive_count == 0:
            break
        if t <= last_time:
            raise InvariantViolation("simulation time did not advance")
        last_time = t
        elog.t = t

        run.world = advance_world(run.world, t)
        _step_fleet(run, t)
        if not run.live:
            break
        declared: list[list[float]] = []
        for agent in run.live:
            _track(run, agent, t, _sense(run, agent, t))
            _act(run, agent, t, _decide(run, agent, t, declared))
        _pop(run, t)
        _audit(run, declared)
        elog.end_tick()
        frame += 1

    metrics = run.metrics
    metrics.balloons_popped = run.world.centers.count(None)
    metrics.pop_times = tuple(run.pop_times)
    if metrics.success and run.pop_times:
        metrics.pops_total_time = run.pop_times[-1][1]
    metrics.duration = t
    metrics.distance_flown = {a.id: a.distance for a in run.agents}
    return RunResult(
        metrics=metrics,
        events=elog.view(),
        cells=run.cells,
    )


class SweepResult(NamedTuple):
    """A sweep's metrics rows in seed order and their aggregate."""

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
    seeded = replace(scenario, seed=seed)
    try:
        if out_dir is None:
            return run_simulation(seeded).metrics
        log = Path(out_dir) / f"events_seed{seed}.jsonl"
        return run_simulation(seeded, log).metrics
    except OSError:
        raise  # the log could not be written: an I/O error, not a failed run
    except Exception as exc:
        # a failed run becomes a marked row, next to its prefix log ending
        # in ``error``; the sweep continues
        return RunMetrics(
            seed=seed,
            balloons_total=scenario.balloons.count,
            error=f"{type(exc).__name__}: {exc}",
        )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sweep(
    scenario: Scenario,
    seeds: Sequence[int],
    jobs: int = 1,
    out_dir: Optional[str | Path] = None,
) -> SweepResult:
    """Run the scenario once per seed and aggregate the metrics.

    Runs share nothing; with ``jobs > 1`` and more than one seed they
    execute in a pool of ``min(jobs, len(seeds), usable CPUs)``
    processes, which starts all its workers at once.  With ``out_dir``,
    each run streams its log to ``events_seed{N}.jsonl`` there as it
    goes, in whichever process runs it.  A seed whose run raises gets an
    error row, and its log holds what the run emitted before it raised,
    ending in one ``error`` record.  Rows are returned in seed order
    either way.
    """
    if not seeds:
        raise ValueError("seed range must be non-empty")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        out_dir = str(out_dir)
    work = [(scenario, seed, out_dir) for seed in seeds]
    workers = min(jobs, len(work), _usable_cpus())
    if workers <= 1:
        rows = [_sweep_one(w) for w in work]
    else:
        import concurrent.futures  # here, so only a pooled sweep loads it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, work))
    return SweepResult(rows=rows, aggregate=_aggregate(rows))
