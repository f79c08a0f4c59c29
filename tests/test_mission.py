import math
import random

import pytest

from bhsim.fleet import ClaimResult
from bhsim.mission import (
    ESTIMATE_VOLUME_SLACK,
    LEGAL_TRANSITIONS,
    MAX_PATH_WAYPOINTS,
    DegenerateCell,
    MissionContext,
    MissionParams,
    MissionState,
    PathTooDense,
    Phase,
    SearchPath,
    Target,
    _refresh_target,
    check_pop,
    estimate_world_position,
    generate_search_path,
    initial_mission_state,
    plan_revisit,
    pops_in_reach,
    step_mission,
)
from bhsim.perception import CameraIntrinsics
from bhsim.scenario import ValidationError, build_scenario
from bhsim.tracking import BoxMeasurement, TrackStatus, new_track
from bhsim.vehicle import UavState
from bhsim.world import Arena
from oracles import allclose, mat_vec, project_point, ref_camera_to_world, should_commit

RECT = ((5.0, 5.0), (95.0, 5.0), (95.0, 35.0), (5.0, 35.0))
WP_STEP = MissionParams().wp_step


def _segments(path: SearchPath):
    """Lane segments of a path: consecutive waypoints sharing a lane."""
    return list(zip(path, path[1:]))


def _dist_point_segment(p, a, b):
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    px, py = p
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / denom))
    return math.hypot(px - (ax + t * abx), py - (ay + t * aby))


def test_single_lane_at_centerline_for_wide_spacing():
    path = generate_search_path(RECT, 4.0, 30.0, WP_STEP)
    ys = {round(wp[1], 6) for wp in path}
    assert ys == {20.0}


def test_two_lanes_at_quarter_offsets():
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    ys = sorted({round(wp[1], 6) for wp in path})
    assert ys == [12.5, 27.5]   # offsets 7.5 and 22.5 from the y=5 edge


def test_square_cell_lanes_run_along_x():
    # Neither axis of a square is the longer one: its lanes run along x.
    square = ((10.0, 0.0), (50.0, 0.0), (50.0, 40.0), (10.0, 40.0))
    path = generate_search_path(square, 4.0, 15.0, WP_STEP)
    ys = sorted({wp[1] for wp in path})
    assert len(ys) == 3 and len(path) > 2 * len(ys)
    for y in ys:
        xs = sorted(wp[0] for wp in path if wp[1] == y)
        assert (xs[0], xs[-1]) == (10.0, 50.0)


def test_constant_altitude():
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    assert all(wp[2] == 4.0 for wp in path)


def test_consecutive_waypoints_differ():
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    for a, b in zip(path, path[1:]):
        assert math.dist(a, b) > 1e-9


def test_coverage_every_grid_point_within_half_spacing():
    # Oracle: sample a 1 m grid over the footprint; every sample must lie
    # within spacing/2 of some lane segment.
    spacing = 15.0
    path = generate_search_path(RECT, 4.0, spacing, WP_STEP)
    segs = _segments(path)
    for x in range(5, 96):
        for y in range(5, 36):
            d = min(_dist_point_segment((float(x), float(y)), a, b) for a, b in segs)
            assert d <= spacing / 2.0 + 1e-9


def test_degenerate_cell_raises():
    tiny = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))
    with pytest.raises(DegenerateCell):
        generate_search_path(tiny, 4.0, 15.0, WP_STEP)


@pytest.mark.parametrize("spacing, wp_step", [(1e-9, 15.0), (15.0, 1e-9), (5e-324, 15.0)])
def test_too_dense_path_raises_before_allocating(spacing, wp_step):
    with pytest.raises(PathTooDense):
        generate_search_path(RECT, 4.0, spacing, wp_step)


def test_path_waypoint_count_within_the_checked_bound():
    # The bound checked up front covers every path actually built.
    built = 0
    for spacing in (0.1, 0.5, 1.0, 3.0, 15.0, 40.0):
        for wp_step in (0.1, 0.5, 2.0, 15.0, 100.0):
            for cell in (RECT, ((5.0, 5.0), (55.0, 5.0), (5.0, 35.0))):
                xs = [p[0] for p in cell]
                ys = [p[1] for p in cell]
                long_e = max(max(xs) - min(xs), max(ys) - min(ys))
                short_e = min(max(xs) - min(xs), max(ys) - min(ys))
                bound = (short_e / spacing + 1.0) * (long_e / wp_step + 2.0)
                if bound > MAX_PATH_WAYPOINTS:
                    with pytest.raises(PathTooDense):
                        generate_search_path(cell, 4.0, spacing, wp_step)
                    continue
                path = generate_search_path(cell, 4.0, spacing, wp_step)
                assert len(path) <= bound
                built += 1
    assert built > 30


def test_search_path_on_triangle_cell_stays_inside():
    tri = ((5.0, 5.0), (55.0, 5.0), (5.0, 35.0))
    path = generate_search_path(tri, 4.0, 10.0, WP_STEP)
    for x, y, z in path:
        # Inside the triangle x/50 + y/30 <= ... with tolerance
        assert x >= 5.0 - 1e-6 and y >= 5.0 - 1e-6
        assert (x - 5.0) / 50.0 + (y - 5.0) / 30.0 <= 1.0 + 1e-6


def _track(track_id=1, cx=0.0, cy=0.0, hits=3, status=TrackStatus.CONFIRMED):
    t = new_track(track_id, BoxMeasurement(cx, cy, 30.0, 30.0))
    t.hits = hits
    t.status = status
    return t


def test_should_commit_threshold_cases():
    assert should_commit(_track(hits=3), 3)
    assert not should_commit(_track(hits=3, status=TrackStatus.TENTATIVE), 3)
    assert not should_commit(_track(hits=2), 3)


def test_check_pop_boundary_convention():
    center = (10.0, 10.0, 3.0)
    reach = 0.5
    radius = 0.225
    assert check_pop(center, center, radius, reach)
    edge = (10.0 + radius + reach, 10.0, 3.0)
    assert check_pop(edge, center, radius, reach)
    beyond = (10.0 + radius + reach + 1e-6, 10.0, 3.0)
    assert not check_pop(beyond, center, radius, reach)


def test_pops_in_reach_agrees_with_check_pop_including_the_boundary():
    # Random tips against 8 balloons of one random radius per draw (some
    # popped), with a share of the pairs placed exactly at radius + tip_reach.
    rng = random.Random(9)
    at_boundary = 0
    for _ in range(3000):
        tip = tuple(rng.uniform(0.0, 4.0) for _ in range(3))
        tip_reach = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.05, 0.5)
        reach = r + tip_reach
        centers = []
        for _ in range(8):
            if rng.random() < 0.2:
                centers.append(None)
                continue
            c = tuple(rng.uniform(0.0, 4.0) for _ in range(3))
            if rng.random() < 0.4:
                # Put the tip on the sphere of radius r + reach: move the
                # center along x so the distance rounds to that sum.
                d = math.hypot(c[1] - tip[1], c[2] - tip[2])
                if d < reach:
                    c = (tip[0] + math.sqrt(reach**2 - d**2), c[1], c[2])
            centers.append(c)
        expected = [
            i for i, c in enumerate(centers)
            if c is not None and check_pop(tip, c, r, tip_reach)
        ]
        assert pops_in_reach(tip, centers, reach) == expected
        at_boundary += sum(
            1 for c in centers
            if c is not None and math.sqrt(
                (tip[0] - c[0]) ** 2 + (tip[1] - c[1]) ** 2 + (tip[2] - c[2]) ** 2
            ) == reach
        )
    assert at_boundary > 300


def test_pops_in_reach_x_only_offsets_at_the_reach_and_its_neighbours():
    # The tip sits off the center along x only, at |dx| == reach, at the
    # relative and the full pre-distance reject thresholds, one ulp either
    # side of each, and a million reaches out; centers at x = 0 (dx exact)
    # and elsewhere.  Reaches run from 1e-3 to 5 and, with a tip reach of
    # 0, down to the least subnormal, where ``_dist3`` of an offset well
    # past the reach underflows to 0 and ``check_pop`` pops.
    # 41 reaches spaced evenly in log from 1e-3 to 5
    lo, step = math.log10(1e-3), (math.log10(5.0) - math.log10(1e-3)) / 40
    reaches = [1e-3] + [10.0 ** (k * step + lo) for k in range(1, 40)] + [5.0]
    sizes = [(0.3 * r, r - 0.3 * r) for r in reaches]
    sizes += [(r, 0.0) for r in (1e-160, 1e-170, 1e-200, 1e-300, 5e-324)]
    popped = kept = underflowed = 0
    for radius, tip_reach in sizes:
        reach = radius + tip_reach
        offsets = [reach * 1e6]
        for d in (reach, reach * (1.0 + 1e-12), reach * (1.0 + 1e-12) + 1e-150):
            offsets += [d, math.nextafter(d, math.inf), math.nextafter(d, 0.0)]
        for cx in (0.0, 3.7, -12.25):
            center = (cx, 1.5, 2.0)
            for d in offsets:
                for tip in ((cx + d, 1.5, 2.0), (cx - d, 1.5, 2.0)):
                    hit = check_pop(tip, center, radius, tip_reach)
                    assert pops_in_reach(tip, [center], reach) == ([0] if hit else [])
                    popped += hit
                    kept += not hit
                    underflowed += hit and abs(tip[0] - cx) > reach * (1.0 + 1e-12)
    assert popped > 200 and kept > 200 and underflowed > 10


def test_plan_revisit_vector_arithmetic():
    assert plan_revisit((10.0, 10.0, 3.0), 0.0, 6.0) == pytest.approx((4.0, 10.0, 3.0))


def test_plan_revisit_altitude_clamp():
    wp = plan_revisit((10.0, 10.0, 0.2), 0.0, 6.0)
    assert wp[2] == 1.0


def test_plan_revisit_rejects_zero_standoff():
    # plan_revisit trusts its standoff: the parser keeps it in (0, 1000].
    with pytest.raises(ValidationError) as err:
        build_scenario({"mission.d_standoff": 0.0})
    assert err.value.key == "mission.d_standoff"


def _ctx(granted=True, claims=None, covered=None, ranges=None):
    """A context whose claims are all granted (as claim 7) or all denied,
    and the list of the releases it is asked for.  Claimed estimates go
    to ``claims`` and covered waypoints to ``covered``, when given.  A
    track's range is ``ranges[track.id]``, or 10 m when not given."""
    def try_claim(est, t):
        if claims is not None:
            claims.append(est)
        return ClaimResult(granted=granted, claim_id=7 if granted else None)

    released = []

    def release(cid, reason, t):
        released.append((cid, reason))

    def range_of(track):
        return 10.0 if ranges is None else ranges.get(track.id, 10.0)

    ctx = MissionContext(
        params=MissionParams(),
        focal_px=600.0,
        v_search=2.0,
        yaw_rate_max=1.5,
        volume_lo=Arena().effective_min,
        volume_hi=Arena().effective_max,
        claim_radius=5.0,
        range_of=range_of,
        try_claim=try_claim,
        release=release,
        cover=(lambda wp: None) if covered is None else covered.append,
    )
    return ctx, released


def _search_state():
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    return initial_mission_state(path)._replace(cell=RECT)


def _engaged(phase, entered_at, **target):
    """A state engaged on a balloon at (55, 20, 3) under claim 3."""
    fields = dict(track_id=42, claim_id=3, claim_estimate=(55.0, 20.0, 3.0),
                  estimate=(55.0, 20.0, 3.0), heading=0.0, range=10.0)
    if phase in (Phase.REVISIT, Phase.CONFIRM):
        fields.update(track_id=None, revisit_point=(49.0, 20.0, 3.0))
    fields.update(target)
    return _search_state()._replace(
        phase=phase, entered_at=entered_at, target=Target(**fields)
    )


def test_search_commits_to_claimed_track():
    ms = _search_state()
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, _ = _ctx(granted=True)
    out = step_mission(ms, [_track()], uav, 1.0, ctx)
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.track_id == 1
    assert out.state.target.claim_id == 7
    assert out.state.target.estimate == out.state.target.claim_estimate
    assert out.events == (("phase", {"from": "search", "to": "align", "track_id": 1}),)


def test_search_tick_without_waypoint_event_keeps_the_state():
    ms = _search_state()
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, _ = _ctx()
    out = step_mission(ms, [], uav, 1.0, ctx)
    assert out.state is ms and out.state.visited is ms.visited
    # Reaching the waypoint marks it and hands back a new tuple.
    on_wp = UavState(position=ms.path[0])
    out = step_mission(ms, [], on_wp, 1.0, ctx)
    assert out.state.visited is not ms.visited
    assert out.state.visited[0] and out.state.wp_index == 1


def test_search_covers_each_reached_waypoint_the_last_one_too():
    # A reached waypoint goes to the fleet's coverage, and so does the one
    # that completes the pattern, though that step resets ``visited``.
    ms = _search_state()
    covered = []
    ctx, _ = _ctx(covered=covered)
    step_mission(ms, [], UavState(position=(50.0, 20.0, 4.0)), 1.0, ctx)
    assert covered == []
    # A waypoint given up on after its timeout is not covered.
    step_mission(ms, [], UavState(position=(50.0, 20.0, 4.0)), 26.0, ctx)
    assert covered == []
    last = len(ms.path) - 1
    ms = ms._replace(wp_index=last, visited=(True,) * last + (False,))
    out = step_mission(ms, [], UavState(position=ms.path[last]), 1.0, ctx)
    assert covered == [ms.path[last]]
    assert not any(out.state.visited) and out.state.wp_index == 0


def test_search_keeps_searching_when_claim_denied():
    ms = _search_state()
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, _ = _ctx(granted=False)
    out = step_mission(ms, [_track()], uav, 1.0, ctx)
    assert out.state.phase is Phase.SEARCH


def test_approach_target_death_goes_to_revisit():
    ms = _engaged(Phase.APPROACH, 5.0)
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, released = _ctx()
    out = step_mission(ms, [], uav, 6.0, ctx)
    assert out.state.phase is Phase.REVISIT
    assert out.state.target.revisit_point == pytest.approx((49.0, 20.0, 3.0))
    assert out.state.target.track_id is None
    assert released == []   # claim retained through the revisit
    assert out.state.target.claim_id == 3


def test_confirm_empty_fov_declares_pop_and_resumes_search():
    ms = _engaged(Phase.CONFIRM, 10.0)
    uav = UavState(position=(49.0, 20.0, 3.0))
    ctx, released = _ctx()
    out = step_mission(ms, [], uav, 15.1, ctx)
    assert out.state.phase is Phase.SEARCH
    assert ("pop", {"source": "declared", "estimate": [55.0, 20.0, 3.0]}) in out.events
    assert released == [(3, "popped")]
    assert out.state.target is None


def test_revisit_at_exactly_wp_tolerance_enters_confirm():
    # The revisit point lies exactly wp_tolerance away (a 3-4-5 triangle,
    # exact in floats), well before the revisit timeout: the agent has
    # arrived.
    ms = _engaged(Phase.REVISIT, 10.0, revisit_point=(3.0, 4.0, 3.0))
    ctx, released = _ctx()
    ctx = ctx._replace(params=MissionParams(wp_tolerance=5.0))
    out = step_mission(ms, [], UavState(position=(0.0, 0.0, 3.0)), 11.0, ctx)
    assert out.state.phase is Phase.CONFIRM
    assert out.velocity_cmd == (0.0, 0.0, 0.0) and released == []


def test_commit_heading_due_plus_x_is_zero_not_the_yaw():
    # The estimate lands exactly due +x of the agent, so the true bearing
    # is 0.0; a falsy-zero slip would store the yaw (0.2478) instead.
    uav = UavState(position=(30.0, 20.0, 3.0), yaw=0.2478)
    px, py, depth = project_point(CameraIntrinsics(), uav, (35.16, 20.0, 3.0))
    track = _track(cx=px, cy=py)
    ctx, _ = _ctx(ranges={1: depth})
    out = step_mission(_search_state(), [track], uav, 1.0, ctx)
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.estimate == (35.16, 20.0, 3.0)
    assert out.state.target.heading == 0.0
    # The CONFIRM retry enters ALIGN through the same path.
    ms = _engaged(Phase.CONFIRM, 10.0, estimate=(35.16, 20.0, 3.0))
    out = step_mission(ms, [track], uav, 11.0, ctx)
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.heading == 0.0


def test_search_claims_nearest_track_first_lower_id_on_tie():
    uav = UavState(position=(50.0, 20.0, 4.0))
    claims = []
    ranges = {1: 12.0, 2: 8.0, 5: 8.0, 3: 8.0}
    ctx, _ = _ctx(claims=claims, ranges=ranges)
    far, near = _track(track_id=1), _track(track_id=2)
    out = step_mission(_search_state(), [far, near], uav, 1.0, ctx)
    assert out.state.target.track_id == 2
    assert len(claims) == 1
    tie = [_track(track_id=5), _track(track_id=3)]
    out = step_mission(_search_state(), tie, uav, 1.0, ctx)
    assert out.state.target.track_id == 3
    # A denied nearer track is followed by the farther one, in order.
    claims.clear()
    denied, _ = _ctx(granted=False, claims=claims, ranges=ranges)
    step_mission(_search_state(), [far, near], uav, 1.0, denied)
    assert [round(c[0] - uav.position[0], 6) for c in claims] == [8.0, 12.0]


def test_commit_scan_order_equals_its_sorted_key_form_on_tied_ranges():
    # Every claim is denied, so the scan claims each candidate in its
    # order.  The oracle is the scan as it was written before: filter by
    # should_commit, then sort on (range, id).  Tracks are told apart by
    # the estimate they are claimed at.
    uav = UavState(position=(50.0, 20.0, 4.0))
    mp = MissionParams()
    rng = random.Random(28)
    for _ in range(300):
        ids = rng.sample(range(1, 30), rng.randint(0, 7))
        tracks = [
            _track(track_id=i, cx=10.0 * k, hits=rng.randint(1, 5),
                   status=rng.choice(list(TrackStatus)))
            for k, i in enumerate(ids)
        ]
        ranges = {i: rng.choice((8.0, 8.0, 12.0, 12.0, 25.0, 30.0)) for i in ids}
        claims = []
        ctx, _ = _ctx(granted=False, claims=claims, ranges=ranges)
        step_mission(_search_state(), tracks, uav, 1.0, ctx)
        by_estimate = {
            estimate_world_position(uav, tr, ctx.focal_px, ranges[tr.id]): tr.id
            for tr in tracks
        }
        ranged = [(ranges[tr.id], tr) for tr in tracks if should_commit(tr, mp.m_commit)]
        ranged.sort(key=lambda c: (c[0], c[1].id))
        expected = [tr.id for r, tr in ranged if r <= mp.commit_range_max]
        assert [by_estimate[est] for est in claims] == expected


def test_estimate_plausible_equals_its_generator_form_at_the_slack_edges():
    ctx, _ = _ctx()
    ctx = ctx._replace(volume_lo=(0.1, 5.0, 0.3), volume_hi=(95.7, 35.0, 5.1))

    def oracle(est):
        s = ESTIMATE_VOLUME_SLACK
        return all(
            ctx.volume_lo[i] - s <= est[i] <= ctx.volume_hi[i] + s for i in range(3)
        )

    inside = (50.0, 20.0, 3.0)
    seen = set()
    for axis in range(3):
        lo = ctx.volume_lo[axis] - ESTIMATE_VOLUME_SLACK
        hi = ctx.volume_hi[axis] + ESTIMATE_VOLUME_SLACK
        for x in (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                  math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
                  math.nan, math.inf, -math.inf):
            est = inside[:axis] + (x,) + inside[axis + 1:]
            assert ctx.estimate_plausible(est) is oracle(est)
            seen.add(oracle(est))
        assert ctx.estimate_plausible(inside[:axis] + (lo,) + inside[axis + 1:])
        assert ctx.estimate_plausible(inside[:axis] + (hi,) + inside[axis + 1:])
    assert seen == {True, False}


def test_align_timeout_releases_the_claim_once_as_abandoned():
    ms = _engaged(Phase.ALIGN, 0.0, track_id=1)
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, released = _ctx(ranges={1: 5.0})
    # Off-center enough that the agent is still yawing.
    track = _track(track_id=1, cx=200.0)
    out = step_mission(ms, [track], uav, 15.5, ctx)
    assert out.state.phase is Phase.SEARCH and out.state.target is None
    assert out.events == (
        ("phase", {"from": "align", "to": "search", "reason": "align_timeout"}),
    )
    assert released == [(3, "abandoned")]


def test_approach_claim_lost_after_denied_drift_reclaim_releases_once():
    # The claim was granted 4 m from where the balloon now is: past half
    # the 5 m claim radius, so the agent re-claims, and the claim is denied.
    ms = _engaged(Phase.APPROACH, 0.0, track_id=1, claim_estimate=(51.0, 20.0, 4.0),
                  estimate=(55.0, 20.0, 4.0), range=5.0)
    uav = UavState(position=(50.0, 20.0, 4.0))
    claims = []
    ctx, released = _ctx(granted=False, claims=claims, ranges={1: 5.0})
    out = step_mission(ms, [_track(track_id=1)], uav, 1.0, ctx)
    assert out.state.phase is Phase.SEARCH and out.state.target is None
    assert out.events == (
        ("phase", {"from": "approach", "to": "search", "reason": "claim_lost"}),
    )
    assert released == [(3, "abandoned")]
    assert claims == [pytest.approx((55.0, 20.0, 4.0))]


def test_approach_keeps_approaching_a_centered_track():
    ms = _engaged(Phase.APPROACH, 0.0, track_id=1, claim_estimate=(55.0, 20.0, 4.0),
                  estimate=(55.0, 20.0, 4.0), range=5.0)
    uav = UavState(position=(50.0, 20.0, 4.0))
    ctx, released = _ctx(ranges={1: 5.0})
    out = step_mission(ms, [_track(track_id=1)], uav, 1.0, ctx)
    assert out.state.phase is Phase.APPROACH and out.events == ()
    assert released == []
    tg = out.state.target
    assert tg.estimate == pytest.approx((55.0, 20.0, 4.0))
    assert tg.approach_best == (pytest.approx(5.0), 1.0)
    # Straight ahead along +x at approach speed, no yaw.
    assert out.velocity_cmd == pytest.approx((MissionParams().v_approach, 0.0, 0.0))
    assert out.yaw_rate_cmd == 0.0


@pytest.mark.parametrize("phase", [Phase.ALIGN, Phase.APPROACH])
def test_a_coasting_target_track_is_neither_ranged_nor_refreshed(phase):
    # A coasting track's extrapolated center drifts: the engaged phases
    # keep their estimate, heading and range and never range the track,
    # even at a range that would read as a jump.
    ms = _engaged(phase, 0.0, track_id=1, claim_estimate=(55.0, 20.0, 4.0),
                  estimate=(55.0, 20.0, 4.0), range=5.0)
    ranged = []
    ctx, released = _ctx(ranges={1: 50.0})
    ctx = ctx._replace(range_of=lambda track: ranged.append(track.id) or 50.0)
    track = _track(track_id=1, cx=200.0)   # off-center: align keeps yawing
    track.misses = 1
    out = step_mission(ms, [track], UavState(position=(50.0, 20.0, 4.0)), 1.0, ctx)
    assert out.state.phase is phase and released == [] and ranged == []
    tg = out.state.target
    assert (tg.estimate, tg.heading, tg.range) == ((55.0, 20.0, 4.0), 0.0, 5.0)


def test_refresh_target_changes_only_estimate_heading_and_range():
    # Every field of both records off its default, so a field the
    # refresh failed to pass through would show.
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    tg = Target(track_id=1, claim_id=3, claim_estimate=(56.0, 21.0, 4.0),
                estimate=(55.5, 20.5, 4.0), heading=0.25, range=12.0, retries=2,
                revisit_point=(49.0, 20.0, 3.0), approach_best=(6.0, 0.5))
    ms = MissionState(phase=Phase.APPROACH, entered_at=0.5, path=path, cell=RECT,
                      wp_index=2,
                      visited=(True,) + (False,) * (len(path) - 1),
                      target=tg, blacklist=((10.0, 10.0, 2.0),),
                      commit_cooldown_until=0.75, wp_started_at=0.25)
    no_default = object()
    for record in (ms, tg):
        defaults = record._field_defaults
        for name in record._fields:
            assert getattr(record, name) != defaults.get(name, no_default), name
    uav = UavState(position=(50.0, 20.0, 4.0))
    track = _track(track_id=1, cx=12.0, cy=-3.0)
    est = estimate_world_position(uav, track, 600.0, 5.0)
    want = ms._replace(target=tg._replace(
        estimate=est, heading=math.atan2(est[1] - 20.0, est[0] - 50.0), range=5.0,
    ))
    assert _refresh_target(ms, track, 5.0, uav, _ctx(ranges={1: 5.0})[0]) == want


def test_confirm_retry_reclaims_and_counts_the_retry():
    ms = _engaged(Phase.CONFIRM, 10.0, retries=1)
    uav = UavState(position=(50.0, 20.0, 3.0))
    claims = []
    ctx, released = _ctx(claims=claims, ranges={9: 5.0})
    track = _track(track_id=9)   # seen on axis at (55, 20, 3)
    out = step_mission(ms, [track], uav, 11.0, ctx)
    assert out.state.phase is Phase.ALIGN
    assert out.events == (
        ("phase", {"from": "confirm", "to": "align", "track_id": 9, "retry": 2}),
    )
    assert released == [(3, "abandoned")]
    assert claims == [pytest.approx((55.0, 20.0, 3.0))]
    tg = out.state.target
    assert (tg.track_id, tg.claim_id, tg.retries) == (9, 7, 2)
    assert tg.revisit_point is None and tg.approach_best is None


def test_confirm_retry_limit_fails_the_site_and_blacklists_it():
    ms = _engaged(Phase.CONFIRM, 10.0, retries=MissionParams().retry_limit)
    uav = UavState(position=(50.0, 20.0, 3.0))
    claims = []
    ctx, released = _ctx(claims=claims, ranges={9: 5.0})
    out = step_mission(ms, [_track(track_id=9)], uav, 11.0, ctx)
    assert out.state.phase is Phase.SEARCH and out.state.target is None
    assert out.events == (
        ("failure", {"reason": "unreachable_site", "estimate": [55.0, 20.0, 3.0]}),
        ("phase", {"from": "confirm", "to": "search", "reason": "retry_limit"}),
    )
    assert released == [(3, "abandoned")] and claims == []
    assert out.state.blacklist == ((55.0, 20.0, 3.0),)


def test_estimate_world_position_inverts_projection():
    # Consistency oracle: project a known world point, feed pixel+depth
    # back, and recover the point.
    cam = CameraIntrinsics()
    uav = UavState(position=(10.0, 12.0, 4.0), yaw=0.7)
    target = (24.0, 19.0, 3.0)
    px, py, depth = project_point(cam, uav, target)
    track = _track(cx=px, cy=py)
    est = estimate_world_position(uav, track, cam.focal_px, depth)
    assert est == pytest.approx(target, abs=1e-9)


def test_estimate_world_position_matches_matrix_reference():
    rng = random.Random(8)
    for _ in range(500):
        pos = tuple(rng.uniform(0.0, 50.0) for _ in range(3))
        uav = UavState(position=pos, yaw=rng.uniform(-4.0, 4.0))
        px, py = rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)
        depth = rng.uniform(0.5, 40.0)
        est = estimate_world_position(uav, _track(cx=px, cy=py), 600.0, depth)
        ray = [px / 600.0 * depth, py / 600.0 * depth, depth]
        offset = mat_vec(ref_camera_to_world(uav.yaw), ray)
        expected = [p + d for p, d in zip(pos, offset)]
        assert allclose(est, expected, rtol=0, atol=1e-12)


def test_transition_graph_closed_under_random_stimuli():
    # Drive the state machine with 100k random stimuli; every transition
    # must stay inside the documented edge set.
    rng = random.Random(1234)
    path = generate_search_path(RECT, 4.0, 15.0, WP_STEP)
    ranges = {}
    contexts = [_ctx(granted=True, ranges=ranges)[0],
                _ctx(granted=False, ranges=ranges)[0]]
    ms = initial_mission_state(path)._replace(cell=RECT)
    t = 0.0
    for i in range(100_000):
        t += rng.choice([0.05, 0.5, 3.0, 10.0])
        tracks = []
        ranges.clear()
        for k in range(rng.randrange(3)):
            status = rng.choice(list(TrackStatus))
            tracks.append(
                _track(
                    track_id=rng.randrange(5),
                    cx=rng.uniform(-640, 640),
                    cy=rng.uniform(-360, 360),
                    hits=rng.randrange(6),
                    status=status,
                )
            )
            ranges[tracks[-1].id] = rng.uniform(1.0, 60.0)
        uav = UavState(
            position=(rng.uniform(0, 100), rng.uniform(0, 40), rng.uniform(0, 6)),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        before = ms.phase
        out = step_mission(ms, tracks, uav, t, contexts[rng.randrange(2)])
        ms = out.state
        assert (before, ms.phase) in LEGAL_TRANSITIONS, (before, ms.phase)
        # The target record exists exactly outside SEARCH; a revisit has
        # its standoff point and no track.
        assert (ms.target is None) == (ms.phase is Phase.SEARCH)
        if ms.phase is Phase.REVISIT:
            assert ms.target.revisit_point is not None
        if ms.phase in (Phase.REVISIT, Phase.CONFIRM):
            assert ms.target.track_id is None
        if rng.random() < 0.001:
            # occasional reset
            ms = initial_mission_state(path, t)._replace(cell=RECT)
