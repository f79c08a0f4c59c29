import copy
import itertools
import math
import random

import numpy as np
import pytest
from test_golden import GOLDEN, _scenario

from bhsim import tracking
from bhsim.sim import run_simulation
from bhsim.tracking import (
    BoxMeasurement,
    CostMatrix,
    NumericalFailure,
    Tracker,
    TrackerParams,
    TrackState,
    TrackStatus,
    _solve_square,
    _tall_margin,
    assignment_cost,
    kf_predict,
    kf_update,
    new_track,
    solve_assignment,
    step_tracker,
)

PARAMS = TrackerParams()


def _meas(cx=100.0, cy=50.0, w=30.0, h=30.0):
    return BoxMeasurement(cx, cy, w, h)


def _P(t: TrackState) -> np.ndarray:
    """The full 6x6 covariance assembled from a track's nonzero blocks."""
    P = np.zeros((6, 6))
    for (i, j), (pcc, pcv, pvv) in (((0, 4), t.px), ((1, 5), t.py)):
        P[i, i], P[i, j], P[j, i], P[j, j] = pcc, pcv, pcv, pvv
    P[2, 2], P[3, 3] = t.pw, t.ph
    return P


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Test oracle: exhaustive assignment over all row/column injections."""
    n, m = cost.shape
    k = min(n, m)
    best = math.inf
    rows = range(n)
    for row_subset in itertools.permutations(rows, k):
        for col_subset in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(row_subset, col_subset))
            best = min(best, total)
    return best


# Reference: the full 6x6 Kalman filter in numpy matrix form, as the
# decoupled float filter in bhsim.tracking must reproduce it.
_H = np.zeros((4, 6))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0
_I6 = np.eye(6)


def ref_predict(x, P, params):
    F = np.eye(6)
    F[0, 4] = 1.0
    F[1, 5] = 1.0
    x = F @ x
    P = F @ P @ F.T + np.diag(params.q_diag)
    return x, (P + P.T) / 2.0


def ref_update(x, P, z, params):
    R = np.diag(params.r_diag)
    S_inv = np.linalg.inv(P[:4, :4] + R)
    K = P[:, :4] @ S_inv
    innovation = np.array([z.center_x, z.center_y, z.width, z.height]) - x[:4]
    x = x + K @ innovation
    I_KH = _I6 - K @ _H
    P = I_KH @ P @ I_KH.T + K @ R @ K.T
    return x, (P + P.T) / 2.0


def _filter_against_reference(n_tracks=200, n_cycles=40, seed=7):
    """Yield (track, reference x, reference P) after every predict/update."""
    rng = np.random.default_rng(seed)
    for tid in range(n_tracks):
        params = PARAMS._replace(
            q_diag=tuple(rng.uniform(0.01, 5.0, 6).tolist()),
            r_diag=tuple(rng.uniform(0.5, 20.0, 4).tolist()),
            p0_diag=tuple(rng.uniform(1.0, 200.0, 6).tolist()),
        )
        z = _meas(
            *rng.uniform(-300.0, 300.0, 2).tolist(),
            *rng.uniform(5.0, 60.0, 2).tolist(),
        )
        t = new_track(tid, z, params)
        x = np.array([z.center_x, z.center_y, z.width, z.height, 0.0, 0.0])
        P = np.diag(params.p0_diag)
        v = rng.normal(0.0, 3.0, 2)
        for k in range(n_cycles):
            t = kf_predict(t, params)
            x, P = ref_predict(x, P, params)
            yield t, x, P
            if rng.random() < 0.8:
                z = _meas(
                    *(x[:2] + v + rng.normal(0.0, 2.0, 2)).tolist(),
                    *(x[2:4] + rng.normal(0.0, 1.0, 2)).tolist(),
                )
                t = kf_update(t, z, params)
                x, P = ref_update(x, P, z, params)
                yield t, x, P


def test_decoupled_filter_equals_matrix_reference_exactly_at_unit_dt():
    # Oracle: the 6x6 numpy filter.  The filter steps one frame, so
    # every product with the frame step is exact and the float filter
    # must give the very same floats.
    steps = 0
    for t, x, P in _filter_against_reference():
        assert all(type(v) is float for v in t.x)
        assert (np.array(t.x) == x).all()
        assert (_P(t) == P).all()
        steps += 1
    assert steps > 200 * 40


# --- Kalman filter ----------------------------------------------------------

def test_predict_zero_velocity_keeps_center_and_grows_covariance():
    t = new_track(1, _meas(), PARAMS)
    out = kf_predict(t, PARAMS)
    assert out.center == t.center
    assert np.trace(_P(out)) > np.trace(_P(t))


def test_predict_shifts_center_by_velocity():
    t = new_track(1, _meas(cx=10.0), PARAMS)
    t.x = (10.0, 50.0, 30.0, 30.0, 2.0, 0.0)
    out = kf_predict(t, PARAMS)
    assert out.x[0] == pytest.approx(12.0)


def test_update_zero_innovation_keeps_mean():
    t = new_track(1, _meas(), PARAMS)
    out = kf_update(t, _meas(), PARAMS)
    assert np.allclose(out.x[:4], t.x[:4], atol=1e-12)
    assert out.hits == t.hits + 1 and out.misses == 0


def test_update_scalar_gain_half():
    # Oracle: hand-computed scalar Kalman update, prior var 4 and R 4
    # give gain 0.5, so the posterior mean lands halfway.
    params = TrackerParams(r_diag=(4.0, 4.0, 8.0, 8.0))
    t = new_track(1, _meas(cx=0.0), params)
    t.px, t.py, t.pw, t.ph = (4.0, 0.0, 100.0), (4.0, 0.0, 100.0), 8.0, 8.0
    assert (_P(t) == np.diag([4.0, 4.0, 8.0, 8.0, 100.0, 100.0])).all()
    out = kf_update(t, _meas(cx=10.0), params)
    assert out.x[0] == pytest.approx(5.0, abs=1e-12)


def test_repeated_updates_converge_to_measurement():
    # Oracle: fixed-point iteration; within 0.1 px in at most 20 rounds.
    t = new_track(1, _meas(cx=0.0, cy=0.0), PARAMS)
    z = _meas(cx=40.0, cy=-25.0)
    for i in range(20):
        t = kf_update(kf_predict(t, PARAMS), z, PARAMS)
        if abs(t.x[0] - 40.0) < 0.1 and abs(t.x[1] + 25.0) < 0.1:
            break
    assert abs(t.x[0] - 40.0) < 0.1
    assert abs(t.x[1] + 25.0) < 0.1


def test_update_raises_on_singular_innovation():
    bad = TrackerParams(r_diag=(0.0, 0.0, 0.0, 0.0), p0_diag=(0.0,) * 6)
    t = new_track(1, _meas(), bad)
    with pytest.raises(NumericalFailure):
        kf_update(t, _meas(), bad)


def test_covariance_stays_symmetric_psd_over_many_cycles():
    t = new_track(1, _meas(), PARAMS)
    rng = np.random.default_rng(0)
    for i in range(100_000):
        t = kf_predict(t, PARAMS)
        if i % 3:
            z = _meas(cx=100 + rng.normal(0, 2), cy=50 + rng.normal(0, 2))
            t = kf_update(t, z, PARAMS)
        if i % 10_000 == 0:
            assert np.max(np.abs(_P(t) - _P(t).T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(_P(t))) > -1e-9
    assert np.max(np.abs(_P(t) - _P(t).T)) < 1e-9
    assert np.min(np.linalg.eigvalsh(_P(t))) > -1e-9


# --- assignment -------------------------------------------------------------

def test_cost_matrix_345_triangle():
    t = new_track(1, _meas(cx=0.0, cy=0.0), PARAMS)
    cost = assignment_cost([t], [_meas(cx=3.0, cy=4.0)])
    assert cost.tolist()[0][0] == pytest.approx(5.0)


def test_cost_matrix_shape_and_zero():
    tracks = [new_track(i, _meas(cx=float(i)), PARAMS) for i in range(3)]
    dets = [_meas(cx=0.0), _meas(cx=1.0)]
    cost = assignment_cost(tracks, dets)
    assert cost.shape == (3, 2)
    assert cost.tolist()[1][1] == pytest.approx(0.0)


def test_cost_matrix_of_no_tracks_keeps_its_width():
    cost = assignment_cost([], [_meas(), _meas(cx=0.0)])
    assert cost.shape == (0, 2)
    assert cost.tolist() == []
    out = solve_assignment(cost, gate=80.0)
    assert out.unmatched_detections == (0, 1)


def test_cost_matrix_solves_as_the_same_array():
    # The tracker hands solve_assignment rows of floats; an ndarray of
    # the very same values must give the very same assignment.
    rng = random.Random(5)
    for _ in range(200):
        tracks = [new_track(i, _meas(cx=rng.uniform(0, 200), cy=rng.uniform(0, 200)), PARAMS)
                  for i in range(rng.randrange(0, 6))]
        dets = [_meas(cx=rng.uniform(0, 200), cy=rng.uniform(0, 200))
                for _ in range(rng.randrange(0, 6))]
        cost = assignment_cost(tracks, dets)
        array = np.array(cost.tolist()).reshape(cost.shape)
        assert array.tolist() == cost.tolist()
        assert solve_assignment(cost, 80.0) == solve_assignment(array, 80.0)


def test_solve_assignment_zero_diagonal():
    out = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]), gate=80.0)
    assert set(out.matches) == {(0, 0), (1, 1)}


def test_solve_assignment_prefers_global_optimum():
    # Oracle: brute force over both permutations gives total 3 via the
    # anti-diagonal.
    cost = np.array([[4.0, 1.0], [2.0, 3.0]])
    out = solve_assignment(cost, gate=80.0)
    assert set(out.matches) == {(0, 1), (1, 0)}
    total = sum(cost[i, j] for i, j in out.matches)
    assert total == pytest.approx(brute_force_min_cost(cost))


def test_solve_assignment_gate_demotes_both_sides():
    out = solve_assignment(np.array([[200.0]]), gate=80.0)
    assert out.matches == ()
    assert out.unmatched_tracks == (0,)
    assert out.unmatched_detections == (0,)


def test_solve_assignment_rectangular_and_empty():
    out = solve_assignment(np.zeros((0, 3)), gate=80.0)
    assert out.unmatched_detections == (0, 1, 2)
    cost = np.array([[1.0, 9.0, 9.0], [9.0, 1.0, 9.0]])
    out = solve_assignment(cost, gate=80.0)
    assert set(out.matches) == {(0, 0), (1, 1)}
    assert out.unmatched_detections == (2,)


@pytest.mark.parametrize(
    "cost",
    [
        [[math.nan]],
        [[math.inf]],
        [[-math.inf]],
        [[math.nan, 1.0], [2.0, 3.0]],
        [[1.0, 2.0], [-math.inf, 3.0]],
        [[1.0, 2.0, 3.0], [4.0, math.inf, 6.0]],
        [[1.0, math.nan, 3.0]],
        [[math.inf, 2.0, 3.0]],
        [[1.0, 2.0, -math.inf]],
        [[1.0], [math.nan], [3.0]],
        [[1.0], [2.0], [math.inf]],
        [[-math.inf], [2.0], [3.0]],
    ],
    ids=["nan", "inf", "-inf", "mixed-nan", "mixed--inf", "rect-inf",
         "row-nan", "row-inf", "row--inf", "col-nan", "col-inf", "col--inf"],
)
def test_solve_assignment_rejects_non_finite_cost(cost):
    with pytest.raises(NumericalFailure):
        solve_assignment(np.array(cost), gate=80.0)


def ref_padded_assignment(rows, gate):
    """The general path of ``solve_assignment``: ``_solve_square`` on the
    sentinel-padded matrix, padded pairs dropped, then gated."""
    n_tracks, n_dets = len(rows), len(rows[0])
    n = max(n_tracks, n_dets)
    sentinel = max(map(max, rows)) + 1.0e6
    padded = [row + [sentinel] * (n - n_dets) for row in rows]
    padded += [[sentinel] * n for _ in range(n - n_tracks)]
    assign = _solve_square(padded, n)
    matches = tuple(
        (i, assign[i]) for i in range(n_tracks)
        if assign[i] < n_dets and rows[i][assign[i]] <= gate
    )
    return (
        matches,
        tuple(i for i in range(n_tracks) if i not in {m[0] for m in matches}),
        tuple(j for j in range(n_dets) if j not in {m[1] for m in matches}),
    )


def test_one_row_and_one_column_equal_the_padded_solver_pair_for_pair():
    # Every shape 1x1..1x9 and 9x1..1x1 from a small set of integer
    # costs, so ties are common; the gate equals one of the values and
    # one value lies above it.
    rng = random.Random(17)
    gate = 3.0
    at_gate = above_gate = tied = 0
    for n_tracks, n_dets in [(1, m) for m in range(1, 10)] + [(n, 1) for n in range(9, 0, -1)]:
        for _ in range(300):
            rows = [[float(rng.choice((0, 1, 2, 3, 3, 5))) for _ in range(n_dets)]
                    for _ in range(n_tracks)]
            out = solve_assignment(np.array(rows), gate)
            want = ref_padded_assignment(rows, gate)
            assert (out.matches, out.unmatched_tracks, out.unmatched_detections) == want
            flat = [c for row in rows for c in row]
            at_gate += min(flat) == gate
            above_gate += min(flat) > gate
            tied += flat.count(min(flat)) > 1
    assert min(at_gate, above_gate, tied) > 100


@pytest.mark.parametrize("n_tracks, n_dets, trials",
                         [(1, 40, 60), (40, 1, 60), (1, 120, 12), (120, 1, 12)])
def test_long_row_and_column_equal_the_padded_solver_pair_for_pair(n_tracks, n_dets, trials):
    # Fleet frames reach these lengths (up to MAX_BALLOONS plus false
    # alarms).  Each trial's floor is below, at or above the gate, and
    # every cost lies within two of it, so the minimum is always tied.
    rng = random.Random(n_tracks * 1000 + n_dets)
    gate = 3.0
    floors = []
    for trial in range(trials):
        floor = (0.0, 3.0, 5.0)[trial % 3]
        rows = [[floor + rng.choice((0, 0, 1, 2)) for _ in range(n_dets)]
                for _ in range(n_tracks)]
        out = solve_assignment(np.array(rows), gate)
        assert (out.matches, out.unmatched_tracks, out.unmatched_detections) == \
            ref_padded_assignment(rows, gate)
        flat = [c for row in rows for c in row]
        assert flat.count(min(flat)) > 1
        floors.append(min(flat))
    assert {0.0, 3.0, 5.0} <= set(floors)


def _count_padded_solves(monkeypatch) -> list[int]:
    """Count the calls ``solve_assignment`` makes to the padded solver."""
    calls = [0]

    def counted(cost, n):
        calls[0] += 1
        return _solve_square(cost, n)

    monkeypatch.setattr(tracking, "_solve_square", counted)
    return calls


def _assignment(rows, gate):
    out = solve_assignment(CostMatrix((len(rows), len(rows[0])), rows), gate)
    return out.matches, out.unmatched_tracks, out.unmatched_detections


def test_wide_rule_equals_the_padded_solver_pair_for_pair(monkeypatch):
    # Every shape from 2x2 to 9x12 with tracks <= detections, from a
    # small set of integer costs with -0.0 beside 0.0, so ties are
    # common.  Half the matrices plant a distinct cheap column per row,
    # which the first-minimum rule then often answers; ties with an
    # earlier column still send some of those to the padded solve.
    calls = _count_padded_solves(monkeypatch)
    rng = random.Random(23)
    gate = 3.0
    answered = total = 0
    for n_tracks in range(2, 10):
        for n_dets in range(n_tracks, 13):
            for trial in range(60):
                rows = [[rng.choice((-0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 5.0))
                         for _ in range(n_dets)] for _ in range(n_tracks)]
                if trial % 2:
                    for i, j in enumerate(rng.sample(range(n_dets), n_tracks)):
                        rows[i][j] = rng.choice((-0.0, 0.0, 0.0, 1.0))
                before = calls[0]
                assert _assignment(rows, gate) == ref_padded_assignment(rows, gate)
                total += 1
                answered += calls[0] == before
    print(f"wide rule: {answered} answered, {total - answered} fell back")
    assert min(answered, total - answered) > 0.2 * total


# gap multiples of the margin, below, at and above it
_GAP_STEPS = (0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0, 100.0)


@pytest.mark.parametrize("n_tracks, n_dets, trials", [
    (2, 1, 40), (40, 1, 10), (3, 2, 40), (5, 3, 30), (9, 8, 20), (22, 14, 10),
    (60, 45, 3), (200, 120, 1),
])
def test_tall_rule_equals_the_padded_solver_pair_for_pair(
        monkeypatch, n_tracks, n_dets, trials):
    # Each column's minimum is planted on its own row, undercutting the
    # rest of the column by a gap swept from 0 to 100 margins.  Every
    # matrix the rule answers must be the padded solver's answer; the
    # rule answers at 2 margins and more and never at half a margin.
    # Costs lie in [1, 100] and the gate at 50, so some pairs are gated.
    calls = _count_padded_solves(monkeypatch)
    rng = random.Random(n_tracks * 1000 + n_dets)
    gate = 50.0
    answered = fell_back = 0
    for _ in range(trials):
        for step in _GAP_STEPS:
            rows = [[rng.uniform(1.0, 100.0) for _ in range(n_dets)]
                    for _ in range(n_tracks)]
            eps = _tall_margin(n_tracks, max(map(max, rows)) + 1.0e6)
            for j, i in enumerate(rng.sample(range(n_tracks), n_dets)):
                rest = min(row[j] for k, row in enumerate(rows) if k != i)
                rows[i][j] = rest - step * eps
            before = calls[0]
            assert _assignment(rows, gate) == ref_padded_assignment(rows, gate), step
            if calls[0] == before:
                answered += 1
                assert step > 0.5
            else:
                fell_back += 1
                assert step < 2.0
    print(f"tall rule {n_tracks}x{n_dets}: {answered} answered, {fell_back} fell back")
    assert answered and fell_back


def test_one_column_near_tie_equals_the_padded_solver():
    # The padded solve compares S - c across rows, and S - c rounds away
    # differences below ulp(S): it keeps row 0 here although row 1 is
    # cheaper by 1e-12.  The first minimal entry would answer row 1.
    for rows in ([[1.0 + 1e-12], [1.0]], [[5.0], [1.0 + 1e-12], [1.0]],
                 [[1.0 + 3e-11], [1.0]]):
        assert _assignment(rows, 80.0) == ref_padded_assignment(rows, 80.0)
    assert _assignment([[1.0 + 1e-12], [1.0]], 80.0)[0] == ((0, 0),)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_every_golden_cost_matrix_equals_the_padded_solver(monkeypatch, case):
    solve = tracking.solve_assignment
    seen = []

    def checked(cost, gate):
        out = solve(cost, gate)
        n_tracks, n_dets = cost.shape
        if n_tracks and n_dets:
            rows = cost.tolist()
            assert (out.matches, out.unmatched_tracks, out.unmatched_detections) \
                == ref_padded_assignment(rows, gate), rows
            seen.append((n_tracks, n_dets))
        return out

    monkeypatch.setattr(tracking, "solve_assignment", checked)
    run_simulation(_scenario(case))
    assert any(2 <= t <= d for t, d in seen) and any(t > d >= 2 for t, d in seen)


def test_solver_equals_brute_force_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = rng.uniform(0.0, 100.0, size=(n, m))
        out = solve_assignment(cost, gate=math.inf)
        total = sum(cost[i, j] for i, j in out.matches)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)
        assert len(out.matches) == min(n, m)


# --- lifecycle --------------------------------------------------------------

def test_step_tracker_birth_from_detection():
    tracker = Tracker(params=PARAMS)
    tracker, events = step_tracker(tracker, [_meas()])
    assert len(tracker.tracks) == 1
    t = tracker.tracks[0]
    assert t.status is TrackStatus.TENTATIVE
    assert t.hits == 1
    assert events == [("born", t.id)]


def test_step_tracker_confirms_after_m_consecutive_hits():
    tracker = Tracker(params=PARAMS)
    kinds = []
    for _ in range(3):
        tracker, events = step_tracker(tracker, [_meas()])
        kinds += [kind for kind, _ in events]
    assert tracker.tracks[0].status is TrackStatus.CONFIRMED
    assert kinds.count("confirmed") == 1


def test_step_tracker_deletes_after_k_consecutive_misses():
    # Oracle: step-by-step lifecycle walk with K_delete = 5.
    tracker = Tracker(params=PARAMS)
    for _ in range(3):
        tracker, _ = step_tracker(tracker, [_meas()])
    for frame in range(1, 6):
        tracker, events = step_tracker(tracker, [])
        if frame < 5:
            assert len(tracker.tracks) == 1
            assert tracker.tracks[0].misses == frame
            assert events == [("coasted", 1)]
        else:
            assert tracker.tracks == ()
            assert events == [("died", 1)]


def test_step_tracker_nearest_neighbor_matching():
    # Oracle: with each detection nearest a distinct track, the global
    # optimum equals the nearest-neighbor matching, so each track is
    # corrected toward its own detection and none is born or coasts.
    tracker = Tracker(params=PARAMS)
    tracker, _ = step_tracker(tracker, [_meas(cx=0.0), _meas(cx=200.0)])
    tracker, events = step_tracker(tracker, [_meas(cx=195.0), _meas(cx=4.0)])
    assert events == []
    t1, t2 = tracker.tracks
    assert (t1.id, t2.id) == (1, 2)
    assert t1.misses == t2.misses == 0
    assert 0.0 < t1.x[0] < 4.0
    assert 195.0 < t2.x[0] < 200.0


def test_step_tracker_ids_strictly_increase_never_reused():
    tracker = Tracker(params=PARAMS)
    seen = []
    for frame in range(30):
        meas = [_meas(cx=float(100 * (frame % 3)))] if frame % 4 else []
        tracker, events = step_tracker(tracker, meas)
        seen += [track_id for kind, track_id in events if kind == "born"]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_step_tracker_coast_prediction_keeps_moving():
    tracker = Tracker(params=PARAMS)
    for k in range(5):
        tracker, _ = step_tracker(tracker, [_meas(cx=10.0 * k)])
    center_before = tracker.tracks[0].x[0]
    tracker, _ = step_tracker(tracker, [])
    assert tracker.tracks[0].x[0] > center_before


def test_zero_noise_constant_velocity_prediction_error():
    # After 10 frames of a constant-pixel-velocity target the one-step
    # prediction lands within a pixel.
    tracker = Tracker(params=PARAMS)
    v = 2.0
    for frame in range(10):
        tracker, _ = step_tracker(tracker, [_meas(cx=v * frame, cy=0.0)])
    predicted = kf_predict(tracker.tracks[0], PARAMS)
    truth = v * 10
    assert abs(predicted.x[0] - truth) < 1.0
    assert tracker.tracks[0].status is TrackStatus.CONFIRMED


def test_step_tracker_leaves_input_tracks_unchanged():
    # Build tracks at x = 0 (confirmed), 300 (about to die), -300
    # (about to coast) and 600 (about to be confirmed); then one frame
    # updates, confirms, coasts, kills and spawns.  Every TrackState of
    # the input tracker must compare equal afterwards.
    frames = [[0.0, 300.0, -300.0]] * 3 + [[0.0, -300.0]] * 2
    frames += [[0.0, -300.0, 600.0]] * 2
    tracker = Tracker(params=PARAMS)
    for xs in frames:
        tracker, _ = step_tracker(tracker, [_meas(cx=x) for x in xs])
    before = [copy.copy(t) for t in tracker.tracks]
    out, events = step_tracker(
        tracker, [_meas(cx=2.0), _meas(cx=602.0), _meas(cx=-900.0)]
    )
    kinds = sorted(kind for kind, _ in events)
    assert kinds == ["born", "coasted", "confirmed", "died"]
    assert len(before) == len(tracker.tracks) == 4
    for old, t in zip(before, tracker.tracks):
        assert t == old
    assert not any(t is o for t in out.tracks for o in tracker.tracks)
