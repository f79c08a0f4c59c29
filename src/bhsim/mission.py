"""Per-agent mission logic: search, commit, approach, revisit, confirm.

Each agent runs a small state machine over one assigned cell:

* SEARCH   - fly boustrophedon lanes over the cell, scan for balloons;
  on a committed track with a granted claim, switch to ALIGN.
* ALIGN    - hover and yaw until the target is horizontally centered.
* APPROACH - fly the line-of-sight command at approach speed until the
  target track dies (popped or lost from view).
* REVISIT  - fly to a standoff point behind the last world estimate.
* CONFIRM  - dwell facing the estimate; if a balloon reappears nearby,
  retry the attack, otherwise declare the pop and resume the search.

State is a value: ``step_mission`` consumes a state and returns the next
one plus a world-frame velocity command and a yaw-rate command.  Its
records, ``MissionParams`` included, are immutable ``NamedTuple``s,
copied with ``_replace``.  A ``SearchPath`` is the bare tuple of its
waypoints; a run plans it at the mission's ``search_altitude`` and
``lane_spacing``, and sets it next to the agent's cell,
``MissionState.cell``.  The agent reaches the fleet only through the
calls of its ``MissionContext``: claims, releases and the waypoints it
sweeps.  It ranges its tracks through the context too, when it reads
them.

Everything an agent knows about the balloon it works on is one ``Target``
NamedTuple, ``MissionState.target``: track and claim ids, the
estimate the claim was granted at, the working estimate, heading and
range, retries, revisit point and approach watchdog.  ``_engage`` creates
it when a claim is granted (from SEARCH, or on a CONFIRM retry), later
ticks replace it as the estimate moves, and going back to SEARCH releases
the claim and drops it, so it is None exactly in SEARCH.
"""

import math
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .fleet import ClaimResult, point_in_cell, polygon_area
from .guidance import desired_yaw, velocity_command_camera, yaw_rate_command
from .tracking import TrackState, TrackStatus
from .vehicle import UavState, camera_to_world, wrap_angle

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]
Events = list[tuple[str, dict]]

REVISIT_ALTITUDE_BOUNDS = (1.0, 5.0)
# Balloons live inside the effective volume; estimates farther outside
# than this slack are detector junk and never worth committing to.
ESTIMATE_VOLUME_SLACK = 2.0
# After every candidate was claim-denied, pause commit attempts briefly.
COMMIT_DENIAL_COOLDOWN_S = 2.0
# Commit to estimates at most this far outside the agent's own cell, so
# agents never work deep inside a teammate's area.
CELL_COMMIT_MARGIN = 2.0
# Upper bound on the waypoints of one search path, checked before any is
# placed: a tiny lane spacing or waypoint step would otherwise allocate
# without limit.
MAX_PATH_WAYPOINTS = 10_000


class DegenerateCell(ValueError):
    """Cell too small to plan a search path over."""


class PathTooDense(ValueError):
    """Search path would need more than ``MAX_PATH_WAYPOINTS`` waypoints."""


class Phase(Enum):
    SEARCH = "search"
    ALIGN = "align"
    APPROACH = "approach"
    REVISIT = "revisit"
    CONFIRM = "confirm"


# Every edge step_mission may produce (self loops included).  X -> SEARCH
# edges cover timeouts, lost claims, spent retries and declared pops.
LEGAL_TRANSITIONS = frozenset(
    {
        (Phase.SEARCH, Phase.SEARCH),
        (Phase.SEARCH, Phase.ALIGN),
        (Phase.ALIGN, Phase.ALIGN),
        (Phase.ALIGN, Phase.APPROACH),
        (Phase.ALIGN, Phase.REVISIT),
        (Phase.ALIGN, Phase.SEARCH),
        (Phase.APPROACH, Phase.APPROACH),
        (Phase.APPROACH, Phase.REVISIT),
        (Phase.APPROACH, Phase.SEARCH),
        (Phase.REVISIT, Phase.REVISIT),
        (Phase.REVISIT, Phase.CONFIRM),
        (Phase.CONFIRM, Phase.CONFIRM),
        (Phase.CONFIRM, Phase.ALIGN),
        (Phase.CONFIRM, Phase.SEARCH),
    }
)


class MissionParams(NamedTuple):
    """Thresholds, speeds and timeouts of the mission state machine."""

    m_commit: int = 3
    align_tol_px: float = 30.0
    commit_range_max: float = 25.0
    v_approach: float = 1.5
    d_standoff: float = 6.0
    t_confirm: float = 5.0
    tip_reach: float = 0.5
    lane_spacing: float = 15.0
    search_altitude: float = 4.0
    retry_limit: int = 3
    wp_tolerance: float = 1.0
    wp_step: float = 15.0
    # An unreachable waypoint (blocked by a held neighbor) is skipped
    # after this long; the looping pattern re-sweeps it later.
    wp_timeout: float = 25.0
    align_timeout: float = 15.0
    approach_timeout: float = 90.0
    approach_stall_timeout: float = 10.0
    revisit_timeout: float = 30.0
    yaw_gain: float = 1.5


SearchPath = tuple[Vec3, ...]


class MissionContext(NamedTuple):
    """One agent's constants and fleet calls, wired once per run.

    ``v_search`` is the cruise speed of SEARCH and REVISIT (the vehicle's
    ``v_max``).  ``volume_lo`` / ``volume_hi`` bound the space balloons
    can occupy; estimates outside it (plus slack) are rejected and
    revisit waypoints are clamped into it.  ``range_of(track)`` is the
    range to the balloon a track's box shows, in meters; a coasting track
    keeps the range it was last measured at.  ``try_claim(estimate, t)``
    and ``release(claim_id, reason, t)`` reserve and free balloons in the
    fleet's claim table as this agent, and ``cover(waypoint)`` adds a
    reached search waypoint to the fleet's swept coverage.
    """

    params: MissionParams
    focal_px: float
    v_search: float
    yaw_rate_max: float
    volume_lo: Vec3
    volume_hi: Vec3
    claim_radius: float
    range_of: Callable[[TrackState], float]
    try_claim: Callable[[Vec3, float], ClaimResult]
    release: Callable[[int, str, float], None]
    cover: Callable[[Vec3], None]

    def estimate_plausible(self, est: Vec3) -> bool:
        s = ESTIMATE_VOLUME_SLACK
        lo, hi = self.volume_lo, self.volume_hi
        return (
            lo[0] - s <= est[0] <= hi[0] + s
            and lo[1] - s <= est[1] <= hi[1] + s
            and lo[2] - s <= est[2] <= hi[2] + s
        )

    def clamp_into_volume(self, p: Vec3) -> Vec3:
        return (
            min(max(p[0], self.volume_lo[0]), self.volume_hi[0]),
            min(max(p[1], self.volume_lo[1]), self.volume_hi[1]),
            min(max(p[2], self.volume_lo[2]), self.volume_hi[2]),
        )


class Target(NamedTuple):
    """The balloon an agent holds a claim on, from commit back to SEARCH."""

    track_id: Optional[int]        # None in REVISIT and CONFIRM: track lost
    claim_id: int
    claim_estimate: Vec3           # where the current claim was granted
    estimate: Vec3                 # working world estimate
    heading: float                 # bearing it was last seen on
    range: float                   # lowest accepted range, for range jumps
    retries: int = 0
    revisit_point: Optional[Vec3] = None   # set in REVISIT and CONFIRM
    # (best distance to estimate, time it was set): approach stall watchdog
    approach_best: Optional[tuple[float, float]] = None


class MissionState(NamedTuple):
    phase: Phase
    entered_at: float
    path: SearchPath
    # the agent's responsibility polygon; commits stay near it
    cell: tuple[Vec2, ...] = ()
    wp_index: int = 0
    visited: tuple[bool, ...] = ()
    # the engaged balloon; None exactly in SEARCH
    target: Optional[Target] = None
    blacklist: tuple[Vec3, ...] = ()
    # no commit attempts until this time (set after a claim denial)
    commit_cooldown_until: float = 0.0
    # when the current waypoint became the target (for the skip timeout)
    wp_started_at: float = 0.0


def initial_mission_state(path: SearchPath, t: float = 0.0) -> MissionState:
    return MissionState(
        phase=Phase.SEARCH,
        entered_at=t,
        path=path,
        wp_index=0,
        visited=tuple(False for _ in path),
    )


def generate_search_path(
    cell: Sequence[Vec2], altitude: float, spacing: float, wp_step: float
) -> SearchPath:
    """Boustrophedon lanes over a convex cell at constant altitude.

    Lanes run parallel to the longer bounding-box axis, along x for a
    square, offset across the shorter axis so every point of the cell
    lies within ``spacing / 2`` of a lane.  Waypoints are placed every
    ``wp_step`` meters along each lane so search progress tracks swept
    area.

    Raises:
        DegenerateCell: if the cell area is below 1 square meter.
        PathTooDense: if the lanes could need more than
            ``MAX_PATH_WAYPOINTS`` waypoints.
    """
    if len(cell) < 3 or abs(polygon_area(cell)) < 1.0:
        raise DegenerateCell("cell area below 1 m^2")

    xs = [p[0] for p in cell]
    ys = [p[1] for p in cell]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    along_x = (xmax - xmin) >= (ymax - ymin)
    if along_x:
        short_min, short_extent, long_extent = ymin, ymax - ymin, xmax - xmin
    else:
        short_min, short_extent, long_extent = xmin, xmax - xmin, ymax - ymin

    # Each lane spans at most long_extent: at most ceil(span / wp_step) + 1
    # waypoints on each of ceil(short_extent / spacing) lanes.
    bound = (short_extent / spacing + 1.0) * (long_extent / wp_step + 2.0)
    if bound > MAX_PATH_WAYPOINTS:
        raise PathTooDense(
            f"lane spacing {spacing:g} m and waypoint step {wp_step:g} m need "
            f"up to {bound:.3g} waypoints (limit {MAX_PATH_WAYPOINTS})"
        )
    n_lanes = max(1, math.ceil(short_extent / spacing))
    lane_width = short_extent / n_lanes

    waypoints: list[Vec3] = []
    lane_index = 0
    for i in range(n_lanes):
        offset = short_min + (i + 0.5) * lane_width
        span = _lane_span(cell, offset, along_x)
        if span is None:
            continue
        a, b = span
        if lane_index % 2 == 1:
            a, b = b, a
        for s in _densify(a, b, wp_step):
            wp = (s, offset, altitude) if along_x else (offset, s, altitude)
            if not waypoints or _dist3(waypoints[-1], wp) > 1e-9:
                waypoints.append(wp)
        lane_index += 1
    if not waypoints:
        raise DegenerateCell("no lane intersects the cell")
    return tuple(waypoints)


def _lane_span(
    cell: Sequence[Vec2], offset: float, along_x: bool
) -> Optional[tuple[float, float]]:
    """Extent of a lane line inside a convex polygon, or None if outside."""
    hits: list[float] = []
    n = len(cell)
    for i in range(n):
        px, py = cell[i]
        qx, qy = cell[(i + 1) % n]
        pc, qc = (py, qy) if along_x else (px, qx)
        pa, qa = (px, qx) if along_x else (py, qy)
        if pc == qc:
            if pc == offset:
                hits.extend((pa, qa))
            continue
        t = (offset - pc) / (qc - pc)
        if 0.0 <= t <= 1.0:
            hits.append(pa + t * (qa - pa))
    if not hits:
        return None
    lo, hi = min(hits), max(hits)
    if hi - lo < 1e-9:
        return None
    return (lo, hi)


def _densify(a: float, b: float, step: float) -> list[float]:
    n = max(1, math.ceil(abs(b - a) / step))
    return [a + (b - a) * k / n for k in range(n + 1)]


def _dist3(p: Vec3, q: Vec3) -> float:
    return math.sqrt(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
    )


def check_pop(
    tip_position: Vec3, balloon_center: Vec3, balloon_radius: float, tip_reach: float
) -> bool:
    """True when the popping tip is within reach of the balloon surface."""
    if balloon_radius <= 0:
        raise ValueError("balloon radius must be positive")
    return _dist3(tip_position, balloon_center) <= balloon_radius + tip_reach


def pops_in_reach(
    tip_position: Vec3, centers: Sequence[Optional[Vec3]], reach: float
) -> list[int]:
    """Indices ``i`` whose balloon ``check_pop`` would pop, in one pass.

    ``centers[i]`` is None for a popped balloon, and ``reach`` is the one
    ``radius + tip_reach`` every balloon of the run shares; the comparison
    is the one ``check_pop`` makes.  A balloon whose x offset alone
    exceeds ``reach * (1 + 1e-12) + 1e-150``, worked out once per call, is
    rejected before the distance is computed.  The relative margin is far
    above the rounding error of ``_dist3``.  The absolute one keeps a
    rejected offset's square above the float underflow: with a legal reach
    below ~1e-154, an offset well past it squares to 0 in ``_dist3`` and
    ``check_pop`` pops.
    """
    tip_x = tip_position[0]
    x_bound = reach * (1.0 + 1e-12) + 1e-150
    return [
        i
        for i, c in enumerate(centers)
        if c is not None
        and abs(tip_x - c[0]) <= x_bound
        and _dist3(tip_position, c) <= reach
    ]


def plan_revisit(
    last_estimate: Vec3, approach_heading: float, d_standoff: float
) -> Vec3:
    """Standoff waypoint behind the estimate, opposite the approach heading."""
    lo, hi = REVISIT_ALTITUDE_BOUNDS
    return (
        last_estimate[0] - d_standoff * math.cos(approach_heading),
        last_estimate[1] - d_standoff * math.sin(approach_heading),
        min(hi, max(lo, last_estimate[2])),
    )


def estimate_world_position(
    uav: UavState,
    track: TrackState,
    focal_px: float,
    depth_m: float,
) -> Vec3:
    """World position of a tracked balloon from its pixel location and depth.

    ``depth_m`` is distance along the optic axis (what known-size ranging
    yields), so the pixel ray ``(x/f, y/f, 1)`` is scaled by it directly;
    an off-axis target sits farther away than its depth.
    """
    cam = (track.x[0] / focal_px * depth_m, track.x[1] / focal_px * depth_m, depth_m)
    dx, dy, dz = camera_to_world(cam, uav.yaw)
    return (uav.position[0] + dx, uav.position[1] + dy, uav.position[2] + dz)


def _bearing_to(frm: Vec3, to: Vec3) -> Optional[float]:
    dx, dy = to[0] - frm[0], to[1] - frm[1]
    if dx * dx + dy * dy < 1e-12:
        return None
    return math.atan2(dy, dx)


def _near_blacklist(estimate: Vec3, blacklist: Sequence[Vec3], radius: float) -> bool:
    return any(_dist3(estimate, b) < radius for b in blacklist)


def _find_track(tracks: Sequence[TrackState], track_id: int):
    for t in tracks:
        if t.id == track_id:
            return t
    return None


def _nearest_unvisited(
    path: SearchPath, visited: Sequence[bool], position: Vec3
) -> Optional[int]:
    best = None
    best_d = math.inf
    for i, wp in enumerate(path):
        if visited[i]:
            continue
        d = _dist3(position, wp)
        if d < best_d:
            best_d = d
            best = i
    return best


_HOVER: Vec3 = (0.0, 0.0, 0.0)
_range_then_id = itemgetter(0, 1)


class MissionStep(NamedTuple):
    state: MissionState
    velocity_cmd: Vec3
    yaw_rate_cmd: float
    events: tuple[tuple[str, dict], ...]


def step_mission(
    ms: MissionState,
    tracks: Sequence[TrackState],
    uav: UavState,
    t: float,
    ctx: MissionContext,
) -> MissionStep:
    """Advance one agent's mission by one tick.

    Returns the next mission state, a world-frame velocity command, a
    yaw-rate command, and any events as ``(kind, data)`` pairs in event
    log form: ``phase`` changes, declared pops (``pop`` from source
    ``declared``) and abandoned sites (``failure`` for reason
    ``unreachable_site``).  Each phase handler appends to one events list
    and returns ``(state, velocity, yaw_rate)``.
    """
    events: Events = []
    state, vel, yaw_rate = _HANDLERS[ms.phase](ms, tracks, uav, t, ctx, events)
    return MissionStep(state, vel, yaw_rate, tuple(events))


def _enter(
    ms: MissionState, phase: Phase, t: float, events: Events,
    detail: Optional[dict] = None, **updates,
) -> MissionState:
    payload = {"from": ms.phase.value, "to": phase.value}
    if detail:
        payload.update(detail)
    events.append(("phase", payload))
    return ms._replace(phase=phase, entered_at=t, **updates)


def _back_to_search(
    ms: MissionState, uav: UavState, ctx: MissionContext, t: float, events: Events,
    release_reason: Optional[str], detail: Optional[dict] = None,
) -> MissionState:
    """Release the claim for ``release_reason`` (None: it is already
    released), drop the target and resume at the nearest unvisited
    waypoint.  There always is one: ``_step_search`` never leaves every
    waypoint visited, and no other phase changes ``visited``."""
    if release_reason is not None:
        ctx.release(ms.target.claim_id, release_reason, t)
    idx = _nearest_unvisited(ms.path, ms.visited, uav.position)
    return _enter(
        ms, Phase.SEARCH, t, events, detail,
        wp_index=idx, wp_started_at=t, target=None,
    )


def _engage(
    ms: MissionState, track: TrackState, est: Vec3, range_m: float, uav: UavState,
    ctx: MissionContext, t: float, events: Events, retries: int = 0,
) -> Optional[MissionState]:
    """Claim ``est``, seen at ``range_m``, and enter ALIGN on ``track``
    with a fresh target, or return None when the claim is denied.  The
    one commit path, from SEARCH and from a CONFIRM retry."""
    result = ctx.try_claim(est, t)
    if not result.granted:
        return None
    heading = _bearing_to(uav.position, est)
    detail = {"track_id": track.id}
    if retries > 0:
        detail["retry"] = retries
    return _enter(
        ms, Phase.ALIGN, t, events, detail,
        target=Target(
            track_id=track.id,
            claim_id=result.claim_id,
            claim_estimate=est,
            estimate=est,
            heading=uav.yaw if heading is None else heading,
            range=range_m,
            retries=retries,
        ),
    )


def _yaw_cmd_toward(
    psi_des: Optional[float], uav: UavState, ctx: MissionContext
) -> float:
    if psi_des is None:
        return 0.0
    return yaw_rate_command(
        psi_des, uav.yaw, ctx.params.yaw_gain, ctx.yaw_rate_max
    )


def _yaw_cmd_offset_law(
    track: TrackState, uav: UavState, ctx: MissionContext
) -> float:
    offset = desired_yaw(track.x[0], ctx.focal_px)
    if offset is None:
        return 0.0
    return _yaw_cmd_toward(wrap_angle(uav.yaw + offset), uav, ctx)


def _refresh_target(
    ms: MissionState, track: TrackState, range_m: float, uav: UavState,
    ctx: MissionContext,
) -> MissionState:
    """Re-estimate the target from ``track``, matched this frame and
    ranged at ``range_m``; callers pass only matched tracks, because a
    coasting track's extrapolated center drifts and would corrupt the
    stored estimate."""
    est = estimate_world_position(uav, track, ctx.focal_px, range_m)
    if not ctx.estimate_plausible(est):
        return ms
    tg = ms.target
    heading = _bearing_to(uav.position, est)
    return ms._replace(target=tg._replace(
        estimate=est,
        heading=tg.heading if heading is None else heading,
        range=min(tg.range, range_m),
    ))


def _step_search(ms, tracks, uav, t, ctx, events):
    mp = ctx.params

    if t >= ms.commit_cooldown_until:
        # Commit only to confirmed tracks with m_commit consecutive hits,
        # inside commit_range_max: close enough that the world estimate is
        # tight and the claim table can deconflict agents.  Nearest first;
        # the lower track id wins a tie.
        ranged = [
            (ctx.range_of(tr), tr.id, tr) for tr in tracks
            if tr.status is TrackStatus.CONFIRMED and tr.hits >= mp.m_commit
        ]
        if len(ranged) > 1:
            ranged.sort(key=_range_then_id)
        denied = False
        for range_m, _, track in ranged:
            if range_m > mp.commit_range_max:
                break
            est = estimate_world_position(uav, track, ctx.focal_px, range_m)
            if not ctx.estimate_plausible(est):
                continue
            if not point_in_cell((est[0], est[1]), ms.cell, CELL_COMMIT_MARGIN):
                continue
            if _near_blacklist(est, ms.blacklist, ctx.claim_radius):
                continue
            engaged = _engage(ms, track, est, range_m, uav, ctx, t, events)
            if engaged is not None:
                return engaged, _HOVER, 0.0
            denied = True
        if denied:
            ms = ms._replace(commit_cooldown_until=t + COMMIT_DENIAL_COOLDOWN_S)

    # Waypoint following.  The state is handed back unchanged (the same
    # ``visited`` tuple) until a waypoint is reached or times out.
    if not ms.path:
        return ms, _HOVER, 0.0
    wp_index = ms.wp_index
    wp = ms.path[wp_index]
    reached = _dist3(uav.position, wp) <= mp.wp_tolerance
    timed_out = t - ms.wp_started_at > mp.wp_timeout
    if reached or timed_out:
        visited = list(ms.visited)
        if reached:
            visited[wp_index] = True
            ctx.cover(wp)
        nxt = next(
            (i for i in range(wp_index + 1, len(visited)) if not visited[i]), None
        )
        if nxt is None:
            nxt = _nearest_unvisited(ms.path, visited, uav.position)
        if nxt is None or nxt == wp_index:
            # Pattern complete; start over so missed balloons get re-swept.
            # After a timeout, move to a different waypoint than the
            # blocked one.
            visited = [False] * len(visited)
            nxt = (wp_index + 1) % len(visited) if timed_out else 0
        ms = ms._replace(wp_index=nxt, visited=tuple(visited), wp_started_at=t)
        wp = ms.path[nxt]

    dx = wp[0] - uav.position[0]
    dy = wp[1] - uav.position[1]
    dz = wp[2] - uav.position[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < 1e-9:
        return ms, _HOVER, 0.0
    k = ctx.v_search / dist
    yaw_rate = _yaw_cmd_toward(_bearing_to(uav.position, wp), uav, ctx)
    return ms, (dx * k, dy * k, dz * k), yaw_rate


def _step_align(ms, tracks, uav, t, ctx, events):
    mp = ctx.params
    track = _find_track(tracks, ms.target.track_id)

    if track is None:
        return _lost_target(ms, uav, t, ctx, events)
    if track.misses == 0:
        ms = _refresh_target(ms, track, ctx.range_of(track), uav, ctx)

    if t - ms.entered_at > mp.align_timeout:
        ms = _back_to_search(ms, uav, ctx, t, events, "abandoned",
                             {"reason": "align_timeout"})
        return ms, _HOVER, 0.0

    if abs(track.x[0]) < mp.align_tol_px:
        ms = _enter(ms, Phase.APPROACH, t, events, {"track_id": track.id})
        return ms, _HOVER, 0.0

    return ms, _HOVER, _yaw_cmd_offset_law(track, uav, ctx)


def _lost_target(ms, uav, t, ctx, events):
    """Target track died: revisit its last estimate, keeping the claim."""
    tg = ms.target
    rp = ctx.clamp_into_volume(
        plan_revisit(tg.estimate, tg.heading, ctx.params.d_standoff)
    )
    ms = _enter(
        ms, Phase.REVISIT, t, events, {"point": list(rp)},
        target=tg._replace(track_id=None, revisit_point=rp),
    )
    return ms, _HOVER, 0.0


def _step_approach(ms, tracks, uav, t, ctx, events):
    mp = ctx.params
    track = _find_track(tracks, ms.target.track_id)

    if track is None:
        return _lost_target(ms, uav, t, ctx, events)

    # A sudden range jump means the pursued object vanished (popped) and
    # a farther one took over its track; confirm through a revisit.
    if track.misses == 0:
        range_m = ctx.range_of(track)
        best_range = ms.target.range
        if range_m > best_range + max(3.0, 0.3 * best_range):
            return _lost_target(ms, uav, t, ctx, events)
        ms = _refresh_target(ms, track, range_m, uav, ctx)
    tg = ms.target

    # Claim drift: when the working estimate wanders away from the
    # claimed position, re-reserve it so exclusivity tracks reality;
    # a denial means another agent owns the spot we drifted onto.
    if _dist3(tg.estimate, tg.claim_estimate) > ctx.claim_radius / 2.0:
        ctx.release(tg.claim_id, "abandoned", t)
        result = ctx.try_claim(tg.estimate, t)
        if not result.granted:
            ms = _back_to_search(ms, uav, ctx, t, events, None,
                                 {"reason": "claim_lost"})
            return ms, _HOVER, 0.0
        tg = tg._replace(claim_id=result.claim_id, claim_estimate=tg.estimate)
        ms = ms._replace(target=tg)

    if t - ms.entered_at > mp.approach_timeout:
        return _lost_target(ms, uav, t, ctx, events)

    # Stall watchdog: an approach that stops closing (blocked by the
    # fence or by another agent) falls back to a revisit.
    d_est = _dist3(uav.position, tg.estimate)
    if tg.approach_best is None or d_est < tg.approach_best[0] - 0.1:
        ms = ms._replace(target=tg._replace(approach_best=(d_est, t)))
    elif t - tg.approach_best[1] > mp.approach_stall_timeout:
        return _lost_target(ms, uav, t, ctx, events)

    cmd = velocity_command_camera(track.x[0], track.x[1], ctx.focal_px, mp.v_approach)
    vel = camera_to_world(cmd, uav.yaw)
    return ms, vel, _yaw_cmd_offset_law(track, uav, ctx)


def _step_revisit(ms, tracks, uav, t, ctx, events):
    mp = ctx.params
    rp = ms.target.revisit_point
    dist = _dist3(uav.position, rp)
    if dist <= mp.wp_tolerance or t - ms.entered_at > mp.revisit_timeout:
        return _enter(ms, Phase.CONFIRM, t, events), _HOVER, 0.0

    k = ctx.v_search / dist
    vel = (
        (rp[0] - uav.position[0]) * k,
        (rp[1] - uav.position[1]) * k,
        (rp[2] - uav.position[2]) * k,
    )
    yaw_rate = _yaw_cmd_toward(_bearing_to(uav.position, ms.target.estimate), uav, ctx)
    return ms, vel, yaw_rate


def _step_confirm(ms, tracks, uav, t, ctx, events):
    mp = ctx.params
    tg = ms.target

    # A surviving balloon tracked near the stored estimate means the
    # attack missed; retry unless the retry budget is spent.
    for track in tracks:
        if track.status is not TrackStatus.CONFIRMED:
            continue
        range_m = ctx.range_of(track)
        est = estimate_world_position(uav, track, ctx.focal_px, range_m)
        if not ctx.estimate_plausible(est):
            continue
        if _dist3(est, tg.estimate) <= ctx.claim_radius:
            if tg.retries + 1 > mp.retry_limit:
                events.append((
                    "failure",
                    {"reason": "unreachable_site", "estimate": list(tg.estimate)},
                ))
                ms = _back_to_search(ms, uav, ctx, t, events, "abandoned",
                                     {"reason": "retry_limit"})
                return ms._replace(blacklist=ms.blacklist + (tg.estimate,)), _HOVER, 0.0
            # Re-claim at the fresh estimate so the retry stays exclusive;
            # a denial means another agent owns this balloon now.
            ctx.release(tg.claim_id, "abandoned", t)
            engaged = _engage(
                ms, track, est, range_m, uav, ctx, t, events, tg.retries + 1
            )
            if engaged is None:
                engaged = _back_to_search(ms, uav, ctx, t, events, None,
                                          {"reason": "claim_lost"})
            return engaged, _HOVER, 0.0

    if t - ms.entered_at >= mp.t_confirm:
        events.append(("pop", {"source": "declared", "estimate": list(tg.estimate)}))
        return _back_to_search(ms, uav, ctx, t, events, "popped"), _HOVER, 0.0

    yaw_rate = _yaw_cmd_toward(_bearing_to(uav.position, tg.estimate), uav, ctx)
    return ms, _HOVER, yaw_rate


_HANDLERS = {
    Phase.SEARCH: _step_search,
    Phase.ALIGN: _step_align,
    Phase.APPROACH: _step_approach,
    Phase.REVISIT: _step_revisit,
    Phase.CONFIRM: _step_confirm,
}
