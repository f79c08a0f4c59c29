import math
import random

import numpy as np
import pytest

from bhsim.fleet import ClaimResult
from bhsim.mission import (
    LEGAL_TRANSITIONS,
    MAX_PATH_WAYPOINTS,
    DegenerateCell,
    FleetView,
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
    should_commit,
    step_mission,
)
from bhsim.perception import CameraIntrinsics, project_point
from bhsim.tracking import BoxMeasurement, TrackerParams, TrackStatus, new_track
from bhsim.vehicle import UavState
from bhsim.world import Arena
from test_vehicle import ref_camera_to_world

RECT = ((5.0, 5.0), (95.0, 5.0), (95.0, 35.0), (5.0, 35.0))


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
    path = generate_search_path(RECT, 4.0, 30.0)
    ys = {round(wp[1], 6) for wp in path}
    assert ys == {20.0}


def test_two_lanes_at_quarter_offsets():
    path = generate_search_path(RECT, 4.0, 15.0)
    ys = sorted({round(wp[1], 6) for wp in path})
    assert ys == [12.5, 27.5]   # offsets 7.5 and 22.5 from the y=5 edge


def test_constant_altitude():
    path = generate_search_path(RECT, 4.0, 15.0)
    assert all(wp[2] == 4.0 for wp in path)


def test_consecutive_waypoints_differ():
    path = generate_search_path(RECT, 4.0, 15.0)
    for a, b in zip(path, path[1:]):
        assert math.dist(a, b) > 1e-9


def test_coverage_every_grid_point_within_half_spacing():
    # Oracle: sample a 1 m grid over the footprint; every sample must lie
    # within spacing/2 of some lane segment.
    spacing = 15.0
    path = generate_search_path(RECT, 4.0, spacing)
    segs = _segments(path)
    for x in np.arange(5.0, 95.0 + 1e-9, 1.0):
        for y in np.arange(5.0, 35.0 + 1e-9, 1.0):
            d = min(_dist_point_segment((x, y), a, b) for a, b in segs)
            assert d <= spacing / 2.0 + 1e-9


def test_degenerate_cell_raises():
    tiny = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))
    with pytest.raises(DegenerateCell):
        generate_search_path(tiny, 4.0, 15.0)


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
    path = generate_search_path(tri, 4.0, 10.0)
    for x, y, z in path:
        # Inside the triangle x/50 + y/30 <= ... with tolerance
        assert x >= 5.0 - 1e-6 and y >= 5.0 - 1e-6
        assert (x - 5.0) / 50.0 + (y - 5.0) / 30.0 <= 1.0 + 1e-6


def _track(track_id=1, cx=0.0, cy=0.0, hits=3, status=TrackStatus.CONFIRMED,
           last_range=10.0):
    t = new_track(track_id, BoxMeasurement(cx, cy, 30.0, 30.0), TrackerParams())
    t.hits = hits
    t.status = status
    t.last_range = last_range
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
    # Random tips against 8 balloons (some popped), with a share of the
    # pairs placed exactly at radius + tip_reach.
    rng = np.random.default_rng(9)
    at_boundary = 0
    for _ in range(3000):
        tip = tuple(float(c) for c in rng.uniform(0.0, 4.0, size=3))
        tip_reach = float(rng.uniform(0.0, 1.0))
        radii = [float(r) for r in rng.uniform(0.05, 0.5, size=8)]
        centers = []
        for r in radii:
            if rng.random() < 0.2:
                centers.append(None)
                continue
            c = tuple(float(x) for x in rng.uniform(0.0, 4.0, size=3))
            if rng.random() < 0.4:
                # Put the tip on the sphere of radius r + reach: move the
                # center along x so the distance rounds to that sum.
                d = math.hypot(c[1] - tip[1], c[2] - tip[2])
                target = r + tip_reach
                if d < target:
                    c = (tip[0] + math.sqrt(target**2 - d**2), c[1], c[2])
            centers.append(c)
        reaches = [r + tip_reach for r in radii]
        expected = [
            i for i, c in enumerate(centers)
            if c is not None and check_pop(tip, c, radii[i], tip_reach)
        ]
        assert pops_in_reach(tip, centers, reaches) == expected
        at_boundary += sum(
            1 for i, c in enumerate(centers)
            if c is not None and math.sqrt(
                (tip[0] - c[0]) ** 2 + (tip[1] - c[1]) ** 2 + (tip[2] - c[2]) ** 2
            ) == reaches[i]
        )
    assert at_boundary > 300


def test_pops_in_reach_x_only_offsets_at_the_reach_and_its_neighbours():
    # The tip sits off the center along x only, at |dx| == reach, at the
    # relative and the full pre-distance reject thresholds, one ulp either
    # side of each, and a million reaches out; centers at x = 0 (dx exact)
    # and elsewhere.  Reaches run from 1e-3 to 5 and, with a tip reach of
    # 0, down to the least subnormal, where ``_dist3`` of an offset well
    # past the reach underflows to 0 and ``check_pop`` pops.
    sizes = [(0.3 * float(r), float(r) - 0.3 * float(r)) for r in np.geomspace(1e-3, 5.0, 41)]
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
                    assert pops_in_reach(tip, [center], [reach]) == ([0] if hit else [])
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
    with pytest.raises(ValueError):
        plan_revisit((10.0, 10.0, 3.0), 0.0, 0.0)


def _ctx(**kw):
    base = dict(
        params=MissionParams(),
        focal_px=600.0,
        v_search=2.0,
        yaw_rate_max=1.5,
        volume_lo=Arena().effective_min,
        volume_hi=Arena().effective_max,
    )
    base.update(kw)
    return MissionContext(**base)


def _view(granted=True, claims=None):
    def try_claim(est, t):
        if claims is not None:
            claims.append(est)
        return ClaimResult(granted=granted, claim_id=7 if granted else None)

    released = []

    def release(cid, reason, t):
        released.append((cid, reason))

    view = FleetView(claim_radius=5.0, try_claim=try_claim, release=release,
                     cell=RECT)
    return view, released


def _search_state():
    path = generate_search_path(RECT, 4.0, 15.0)
    return initial_mission_state(path)


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
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, _ = _view(granted=True)
    out = step_mission(ms, [_track()], uav, view, 1.0, _ctx())
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.track_id == 1
    assert out.state.target.claim_id == 7
    assert out.state.target.estimate == out.state.target.claim_estimate
    assert out.events == (("phase", {"from": "search", "to": "align", "track_id": 1}),)


def test_search_tick_without_waypoint_event_keeps_the_state():
    ms = _search_state()
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, _ = _view()
    out = step_mission(ms, [], uav, view, 1.0, _ctx())
    assert out.state is ms and out.state.visited is ms.visited
    # Reaching the waypoint marks it and hands back a new tuple.
    on_wp = UavState(id=0, position=ms.path[0])
    out = step_mission(ms, [], on_wp, view, 1.0, _ctx())
    assert out.state.visited is not ms.visited
    assert out.state.visited[0] and out.state.wp_index == 1


def test_search_keeps_searching_when_claim_denied():
    ms = _search_state()
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, _ = _view(granted=False)
    out = step_mission(ms, [_track()], uav, view, 1.0, _ctx())
    assert out.state.phase is Phase.SEARCH


def test_approach_target_death_goes_to_revisit():
    ms = _engaged(Phase.APPROACH, 5.0)
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, released = _view()
    out = step_mission(ms, [], uav, view, 6.0, _ctx())
    assert out.state.phase is Phase.REVISIT
    assert out.state.target.revisit_point == pytest.approx((49.0, 20.0, 3.0))
    assert out.state.target.track_id is None
    assert released == []   # claim retained through the revisit
    assert out.state.target.claim_id == 3


def test_confirm_empty_fov_declares_pop_and_resumes_search():
    ms = _engaged(Phase.CONFIRM, 10.0)
    uav = UavState(id=0, position=(49.0, 20.0, 3.0))
    view, released = _view()
    out = step_mission(ms, [], uav, view, 15.1, _ctx())
    assert out.state.phase is Phase.SEARCH
    assert ("pop", {"source": "declared", "estimate": [55.0, 20.0, 3.0]}) in out.events
    assert released == [(3, "popped")]
    assert out.state.target is None


def test_commit_heading_due_plus_x_is_zero_not_the_yaw():
    # The estimate lands exactly due +x of the agent, so the true bearing
    # is 0.0; a falsy-zero slip would store the yaw (0.2478) instead.
    uav = UavState(id=0, position=(30.0, 20.0, 3.0), yaw=0.2478)
    px, py, depth = project_point(CameraIntrinsics(), uav, (35.16, 20.0, 3.0))
    track = _track(cx=px, cy=py, last_range=depth)
    view, _ = _view()
    out = step_mission(_search_state(), [track], uav, view, 1.0, _ctx())
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.estimate == (35.16, 20.0, 3.0)
    assert out.state.target.heading == 0.0
    # The CONFIRM retry enters ALIGN through the same path.
    ms = _engaged(Phase.CONFIRM, 10.0, estimate=(35.16, 20.0, 3.0))
    out = step_mission(ms, [track], uav, view, 11.0, _ctx())
    assert out.state.phase is Phase.ALIGN
    assert out.state.target.heading == 0.0


def test_search_claims_nearest_track_first_lower_id_on_tie():
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    claims = []
    view, _ = _view(claims=claims)
    far, near = _track(track_id=1, last_range=12.0), _track(track_id=2, last_range=8.0)
    out = step_mission(_search_state(), [far, near], uav, view, 1.0, _ctx())
    assert out.state.target.track_id == 2
    assert len(claims) == 1
    tie = [_track(track_id=5, last_range=8.0), _track(track_id=3, last_range=8.0)]
    out = step_mission(_search_state(), tie, uav, view, 1.0, _ctx())
    assert out.state.target.track_id == 3
    # A denied nearer track is followed by the farther one, in order.
    claims.clear()
    denied, _ = _view(granted=False, claims=claims)
    step_mission(_search_state(), [far, near], uav, denied, 1.0, _ctx())
    assert [round(c[0] - uav.position[0], 6) for c in claims] == [8.0, 12.0]


def test_align_timeout_releases_the_claim_once_as_abandoned():
    ms = _engaged(Phase.ALIGN, 0.0, track_id=1)
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, released = _view()
    # Off-center enough that the agent is still yawing.
    track = _track(track_id=1, cx=200.0, last_range=5.0)
    out = step_mission(ms, [track], uav, view, 15.5, _ctx())
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
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    claims = []
    view, released = _view(granted=False, claims=claims)
    out = step_mission(ms, [_track(track_id=1, last_range=5.0)], uav, view, 1.0, _ctx())
    assert out.state.phase is Phase.SEARCH and out.state.target is None
    assert out.events == (
        ("phase", {"from": "approach", "to": "search", "reason": "claim_lost"}),
    )
    assert released == [(3, "abandoned")]
    assert claims == [pytest.approx((55.0, 20.0, 4.0))]


def test_approach_keeps_approaching_a_centered_track():
    ms = _engaged(Phase.APPROACH, 0.0, track_id=1, claim_estimate=(55.0, 20.0, 4.0),
                  estimate=(55.0, 20.0, 4.0), range=5.0)
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    view, released = _view()
    out = step_mission(ms, [_track(track_id=1, last_range=5.0)], uav, view, 1.0, _ctx())
    assert out.state.phase is Phase.APPROACH and out.events == ()
    assert released == []
    tg = out.state.target
    assert tg.estimate == pytest.approx((55.0, 20.0, 4.0))
    assert tg.approach_best == (pytest.approx(5.0), 1.0)
    # Straight ahead along +x at approach speed, no yaw.
    assert out.velocity_cmd == pytest.approx((MissionParams().v_approach, 0.0, 0.0))
    assert out.yaw_rate_cmd == 0.0


def test_refresh_target_changes_only_estimate_heading_and_range():
    # Every field of both records off its default, so a field the
    # refresh failed to pass through would show.
    path = generate_search_path(RECT, 4.0, 15.0)
    tg = Target(track_id=1, claim_id=3, claim_estimate=(56.0, 21.0, 4.0),
                estimate=(55.5, 20.5, 4.0), heading=0.25, range=12.0, retries=2,
                revisit_point=(49.0, 20.0, 3.0), approach_best=(6.0, 0.5))
    ms = MissionState(phase=Phase.APPROACH, entered_at=0.5, path=path, wp_index=2,
                      visited=(True,) + (False,) * (len(path) - 1),
                      target=tg, blacklist=((10.0, 10.0, 2.0),),
                      commit_cooldown_until=0.75, wp_started_at=0.25)
    no_default = object()
    for record in (ms, tg):
        defaults = record._field_defaults
        for name in record._fields:
            assert getattr(record, name) != defaults.get(name, no_default), name
    uav = UavState(id=0, position=(50.0, 20.0, 4.0))
    track = _track(track_id=1, cx=12.0, cy=-3.0, last_range=5.0)
    est = estimate_world_position(uav, track, 600.0, 5.0)
    want = ms._replace(target=tg._replace(
        estimate=est, heading=math.atan2(est[1] - 20.0, est[0] - 50.0), range=5.0,
    ))
    assert _refresh_target(ms, track, uav, _ctx()) == want


def test_confirm_retry_reclaims_and_counts_the_retry():
    ms = _engaged(Phase.CONFIRM, 10.0, retries=1)
    uav = UavState(id=0, position=(50.0, 20.0, 3.0))
    claims = []
    view, released = _view(claims=claims)
    track = _track(track_id=9, last_range=5.0)   # seen on axis at (55, 20, 3)
    out = step_mission(ms, [track], uav, view, 11.0, _ctx())
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
    uav = UavState(id=0, position=(50.0, 20.0, 3.0))
    claims = []
    view, released = _view(claims=claims)
    out = step_mission(ms, [_track(track_id=9, last_range=5.0)], uav, view, 11.0, _ctx())
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
    uav = UavState(id=0, position=(10.0, 12.0, 4.0), yaw=0.7)
    target = (24.0, 19.0, 3.0)
    px, py, depth = project_point(cam, uav, target)
    track = _track(cx=px, cy=py, last_range=depth)
    est = estimate_world_position(uav, track, cam.focal_px, depth)
    assert est == pytest.approx(target, abs=1e-9)


def test_estimate_world_position_matches_matrix_reference():
    rng = np.random.default_rng(8)
    for _ in range(500):
        pos = tuple(float(c) for c in rng.uniform(0.0, 50.0, size=3))
        uav = UavState(id=0, position=pos, yaw=float(rng.uniform(-4.0, 4.0)))
        px, py = (float(c) for c in rng.uniform(-600.0, 600.0, size=2))
        depth = float(rng.uniform(0.5, 40.0))
        est = estimate_world_position(uav, _track(cx=px, cy=py), 600.0, depth)
        ray = np.array([px / 600.0 * depth, py / 600.0 * depth, depth])
        expected = np.array(pos) + ref_camera_to_world(uav.yaw) @ ray
        assert np.allclose(est, expected, rtol=0, atol=1e-12)


def test_transition_graph_closed_under_random_stimuli():
    # Drive the state machine with 100k random stimuli; every transition
    # must stay inside the documented edge set.
    rng = random.Random(1234)
    path = generate_search_path(RECT, 4.0, 15.0)
    ctx = _ctx()
    views = [_view(granted=True)[0], _view(granted=False)[0]]
    ms = initial_mission_state(path)
    t = 0.0
    for i in range(100_000):
        t += rng.choice([0.05, 0.5, 3.0, 10.0])
        tracks = []
        for k in range(rng.randrange(3)):
            status = rng.choice(list(TrackStatus))
            tracks.append(
                _track(
                    track_id=rng.randrange(5),
                    cx=rng.uniform(-640, 640),
                    cy=rng.uniform(-360, 360),
                    hits=rng.randrange(6),
                    status=status,
                    last_range=rng.choice([None, rng.uniform(1.0, 60.0)]),
                )
            )
        uav = UavState(
            id=0,
            position=(rng.uniform(0, 100), rng.uniform(0, 40), rng.uniform(0, 6)),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        before = ms.phase
        out = step_mission(ms, tracks, uav, views[rng.randrange(2)], t, ctx)
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
            ms = initial_mission_state(path, t)   # occasional reset
