import copy
import math
import random

import pytest
from oracles import (
    allclose,
    brute_force_min_cost,
    diag,
    identity,
    mat_add,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    solve_square,
    sym_eigenvalues,
    transpose,
)
from test_golden import GOLDEN, _scenario

from bhsim import tracking
from bhsim.sim import run_simulation
from bhsim.tracking import (
    P0_CENTER,
    P0_SIZE,
    P0_VELOCITY,
    Q_CENTER,
    Q_SIZE,
    Q_VELOCITY,
    R_CENTER,
    R_SIZE,
    BoxMeasurement,
    CostMatrix,
    NumericalFailure,
    Tracker,
    TrackerParams,
    TrackState,
    TrackStatus,
    _solve_rect,
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


def _P(t: TrackState) -> list[list[float]]:
    """The full 6x6 covariance assembled from a track's nonzero blocks."""
    P = [[0.0] * 6 for _ in range(6)]
    pcc, pcv, pvv = t.pc
    for i, j in ((0, 4), (1, 5)):
        P[i][i], P[i][j], P[j][i], P[j][j] = pcc, pcv, pcv, pvv
    P[2][2] = P[3][3] = t.ps
    return P


def _asymmetry(P) -> float:
    return max(abs(P[i][j] - P[j][i]) for i in range(6) for j in range(6))


def _matrix(rows, width=None) -> CostMatrix:
    """A cost matrix literal; ``width`` only for a matrix with no rows."""
    return CostMatrix((len(rows), len(rows[0]) if rows else width), rows)


# Reference: the full 6x6 Kalman filter in matrix form, as the decoupled
# float filter in bhsim.tracking must reproduce it, with its products in
# the order the module docstring states: predict F P F^T + Q, gain
# P H^T S^-1, Joseph-form update, then symmetrisation.  It runs at the
# filter's constants and evolves the x and y blocks separately.
_Q = diag([Q_CENTER, Q_CENTER, Q_SIZE, Q_SIZE, Q_VELOCITY, Q_VELOCITY])
_R = diag([R_CENTER, R_CENTER, R_SIZE, R_SIZE])
_P0 = diag([P0_CENTER, P0_CENTER, P0_SIZE, P0_SIZE, P0_VELOCITY, P0_VELOCITY])
_H = identity(6)[:4]
_I6 = identity(6)
_F = identity(6)
_F[0][4] = _F[1][5] = 1.0


def _symmetrised(P):
    return mat_scale(mat_add(P, transpose(P)), 0.5)


def ref_predict(x, P):
    x = mat_vec(_F, x)
    P = mat_add(mat_mul(mat_mul(_F, P), transpose(_F)), _Q)
    return x, _symmetrised(P)


def ref_update(x, P, z):
    S = mat_add(mat_mul(mat_mul(_H, P), transpose(_H)), _R)
    K = mat_mul(mat_mul(P, transpose(_H)), mat_inv(S))
    innovation = [a - b for a, b in zip((z.center_x, z.center_y, z.width, z.height), x[:4])]
    x = [a + b for a, b in zip(x, mat_vec(K, innovation))]
    I_KH = mat_sub(_I6, mat_mul(K, _H))
    P = mat_add(mat_mul(mat_mul(I_KH, P), transpose(I_KH)),
                mat_mul(mat_mul(K, _R), transpose(K)))
    return x, _symmetrised(P)


def _filter_against_reference(n_tracks=200, n_cycles=40, seed=7):
    """Yield (track, reference x, reference P) after every predict/update."""
    rng = random.Random(seed)
    for tid in range(n_tracks):
        z = _meas(
            rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0),
            rng.uniform(5.0, 60.0), rng.uniform(5.0, 60.0),
        )
        t = new_track(tid, z)
        x = [z.center_x, z.center_y, z.width, z.height, 0.0, 0.0]
        P = _P0
        v = (rng.gauss(0.0, 3.0), rng.gauss(0.0, 3.0))
        for k in range(n_cycles):
            t = kf_predict(t)
            x, P = ref_predict(x, P)
            yield t, x, P
            if rng.random() < 0.8:
                z = _meas(
                    x[0] + v[0] + rng.gauss(0.0, 2.0),
                    x[1] + v[1] + rng.gauss(0.0, 2.0),
                    x[2] + rng.gauss(0.0, 1.0),
                    x[3] + rng.gauss(0.0, 1.0),
                )
                t = kf_update(t, z)
                x, P = ref_update(x, P, z)
                yield t, x, P


def test_decoupled_filter_equals_matrix_reference_exactly_at_unit_dt():
    # Oracle: the 6x6 matrix filter.  The filter steps one frame, so
    # every product with the frame step is exact and the float filter
    # must give the very same floats.  The reference keeps the x and y
    # blocks apart, so this also shows that they stay equal.
    steps = 0
    for t, x, P in _filter_against_reference():
        assert all(type(v) is float for v in t.x)
        assert list(t.x) == x
        assert _P(t) == P
        steps += 1
    assert steps > 200 * 40


# --- Kalman filter ----------------------------------------------------------

def test_predict_zero_velocity_keeps_center_and_grows_covariance():
    t = new_track(1, _meas())
    out = kf_predict(t)
    assert out.x[:4] == t.x[:4]
    assert sum(_P(out)[i][i] for i in range(6)) > sum(_P(t)[i][i] for i in range(6))


def test_predict_shifts_center_by_velocity():
    t = new_track(1, _meas(cx=10.0))
    t.x = (10.0, 50.0, 30.0, 30.0, 2.0, 0.0)
    out = kf_predict(t)
    assert out.x[0] == pytest.approx(12.0)


def test_update_zero_innovation_keeps_mean():
    t = new_track(1, _meas())
    out = kf_update(t, _meas())
    assert allclose(out.x[:4], t.x[:4], atol=1e-12)
    assert out.hits == t.hits + 1 and out.misses == 0


def test_update_scalar_gain_half():
    # Oracle: hand-computed scalar Kalman update, prior var 4 and R 4
    # give gain 0.5, so the posterior mean lands halfway.
    assert R_CENTER == 4.0
    t = new_track(1, _meas(cx=0.0))
    t.pc, t.ps = (4.0, 0.0, 100.0), 8.0
    assert _P(t) == diag([4.0, 4.0, 8.0, 8.0, 100.0, 100.0])
    out = kf_update(t, _meas(cx=10.0))
    assert out.x[0] == pytest.approx(5.0, abs=1e-12)


def test_repeated_updates_converge_to_measurement():
    # Oracle: fixed-point iteration; within 0.1 px in at most 20 rounds.
    t = new_track(1, _meas(cx=0.0, cy=0.0))
    z = _meas(cx=40.0, cy=-25.0)
    for i in range(20):
        t = kf_update(kf_predict(t), z)
        if abs(t.x[0] - 40.0) < 0.1 and abs(t.x[1] + 25.0) < 0.1:
            break
    assert abs(t.x[0] - 40.0) < 0.1
    assert abs(t.x[1] + 25.0) < 0.1


def test_covariance_stays_symmetric_psd_over_many_cycles():
    t = new_track(1, _meas())
    rng = random.Random(0)
    for i in range(100_000):
        t = kf_predict(t)
        if i % 3:
            z = _meas(cx=100 + rng.gauss(0, 2), cy=50 + rng.gauss(0, 2))
            t = kf_update(t, z)
        if i % 10_000 == 0:
            assert _asymmetry(_P(t)) < 1e-9
            assert min(sym_eigenvalues(_P(t))) > -1e-9
    assert _asymmetry(_P(t)) < 1e-9
    assert min(sym_eigenvalues(_P(t))) > -1e-9


# --- assignment -------------------------------------------------------------

def test_cost_matrix_345_triangle():
    t = new_track(1, _meas(cx=0.0, cy=0.0))
    cost = assignment_cost([t], [_meas(cx=3.0, cy=4.0)])
    assert cost.rows[0][0] == pytest.approx(5.0)


def test_cost_matrix_shape_and_zero():
    tracks = [new_track(i, _meas(cx=float(i))) for i in range(3)]
    dets = [_meas(cx=0.0), _meas(cx=1.0)]
    cost = assignment_cost(tracks, dets)
    assert cost.shape == (3, 2)
    assert cost.rows[1][1] == pytest.approx(0.0)


def test_cost_matrix_of_no_tracks_keeps_its_width():
    cost = assignment_cost([], [_meas(), _meas(cx=0.0)])
    assert cost.shape == (0, 2)
    assert cost.rows == []
    out = solve_assignment(cost, gate=80.0)
    assert out.unmatched_detections == (0, 1)


def test_solve_assignment_zero_diagonal():
    out = solve_assignment(_matrix([[0.0, 1.0], [1.0, 0.0]]), gate=80.0)
    assert set(out.matches) == {(0, 0), (1, 1)}


def test_solve_assignment_prefers_global_optimum():
    # Oracle: brute force over both permutations gives total 3 via the
    # anti-diagonal.
    rows = [[4.0, 1.0], [2.0, 3.0]]
    out = solve_assignment(_matrix(rows), gate=80.0)
    assert set(out.matches) == {(0, 1), (1, 0)}
    total = sum(rows[i][j] for i, j in out.matches)
    assert total == pytest.approx(brute_force_min_cost(rows))


def test_solve_assignment_gate_demotes_both_sides():
    out = solve_assignment(_matrix([[200.0]]), gate=80.0)
    assert out.matches == ()
    assert out.unmatched_tracks == (0,)
    assert out.unmatched_detections == (0,)


def test_solve_assignment_rectangular_and_empty():
    out = solve_assignment(_matrix([], width=3), gate=80.0)
    assert out.unmatched_detections == (0, 1, 2)
    out = solve_assignment(_matrix([[1.0, 9.0, 9.0], [9.0, 1.0, 9.0]]), gate=80.0)
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
        solve_assignment(_matrix(cost), gate=80.0)


def _gated_pairs(rows, pairs, gate):
    """``(matches, unmatched tracks, unmatched detections)`` of full
    ``(track, detection)`` pairs, each kept only at cost <= ``gate``."""
    matches = tuple((i, j) for i, j in pairs if rows[i][j] <= gate)
    return (
        matches,
        tuple(i for i in range(len(rows)) if i not in {m[0] for m in matches}),
        tuple(j for j in range(len(rows[0])) if j not in {m[1] for m in matches}),
    )


def ref_padded_assignment(rows, gate):
    """The padded reference: ``solve_square`` on the matrix padded square
    with the sentinel ``S = max + 1e6``, padded pairs dropped, then
    gated."""
    n_tracks, n_dets = len(rows), len(rows[0])
    n = max(n_tracks, n_dets)
    sentinel = max(map(max, rows)) + 1.0e6
    padded = [row + [sentinel] * (n - n_dets) for row in rows]
    padded += [[sentinel] * n for _ in range(n - n_tracks)]
    assign = solve_square(padded, n)
    return _gated_pairs(
        rows, [(i, j) for i, j in enumerate(assign[:n_tracks]) if j < n_dets], gate)


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
            out = solve_assignment(_matrix(rows), gate)
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
        out = solve_assignment(_matrix(rows), gate)
        assert (out.matches, out.unmatched_tracks, out.unmatched_detections) == \
            ref_padded_assignment(rows, gate)
        flat = [c for row in rows for c in row]
        assert flat.count(min(flat)) > 1
        floors.append(min(flat))
    assert {0.0, 3.0, 5.0} <= set(floors)


def _count_searches(monkeypatch) -> list[int]:
    """Count the calls ``solve_assignment`` makes to the full search."""
    calls = [0]

    def counted(cost, n, m):
        calls[0] += 1
        return _solve_rect(cost, n, m)

    monkeypatch.setattr(tracking, "_solve_rect", counted)
    return calls


def _assignment(rows, gate):
    out = solve_assignment(_matrix(rows), gate)
    return out.matches, out.unmatched_tracks, out.unmatched_detections


def test_wide_rule_equals_the_padded_solver_pair_for_pair(monkeypatch):
    # Every shape from 2x2 to 9x12 with tracks <= detections, from a
    # small set of integer costs with -0.0 beside 0.0, so ties are
    # common.  Half the matrices plant a distinct cheap column per row,
    # which the first-minimum rule then often answers; ties with an
    # earlier column still send some of those to the full search.
    calls = _count_searches(monkeypatch)
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
    print(f"wide rule: {answered} answered, {total - answered} searched")
    assert min(answered, total - answered) > 0.2 * total


def _total(rows, matches) -> float:
    return math.fsum(rows[i][j] for i, j in matches)


# gap multiples of the padded solve's margin, below, at and above it
_GAP_STEPS = (0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0, 100.0)


@pytest.mark.parametrize("n_tracks, n_dets, trials", [
    (2, 1, 40), (40, 1, 10), (3, 2, 40), (5, 3, 30), (9, 8, 20), (22, 14, 10),
    (60, 45, 3), (200, 120, 1),
])
def test_tall_rule_equals_the_padded_solver_pair_for_pair(
        monkeypatch, n_tracks, n_dets, trials):
    # Each column's minimum is planted on its own row, undercutting the
    # rest of the column by a gap swept from 0 to 100 margins, where the
    # margin ``16 n^2 ulp(S)`` bounds the padded solve's rounding with n
    # tracks and sentinel S.  A tall matrix is its transpose's wide
    # one: the first-minimum rule answers the planted matrices with a
    # gap and the search the tied ones, each as ``_solve_rect`` on the
    # transpose.  The answer is never costlier than the padded one, is
    # the padded one at 2 margins and more, and is a true minimum where
    # brute force can tell.  Costs lie in [1, 100] and the gate at 50,
    # so some pairs are gated.
    calls = _count_searches(monkeypatch)
    rng = random.Random(n_tracks * 1000 + n_dets)
    gate = 50.0
    answered = searched = 0
    for _ in range(trials):
        for step in _GAP_STEPS:
            rows = [[rng.uniform(1.0, 100.0) for _ in range(n_dets)]
                    for _ in range(n_tracks)]
            eps = 16 * n_tracks * n_tracks * math.ulp(max(map(max, rows)) + 1.0e6)
            for j, i in enumerate(rng.sample(range(n_tracks), n_dets)):
                rest = min(row[j] for k, row in enumerate(rows) if k != i)
                rows[i][j] = rest - step * eps
            before = calls[0]
            got = _assignment(rows, gate)
            if calls[0] == before:
                answered += 1
            else:
                assert step == 0.0
                searched += 1
            pairs = sorted((i, j) for j, i in enumerate(
                _solve_rect(transpose(rows), n_dets, n_tracks)))
            assert got == _gated_pairs(rows, pairs, gate), step
            padded = ref_padded_assignment(rows, math.inf)[0]
            assert _total(rows, pairs) <= _total(rows, padded), step
            if step >= 2.0:
                assert got == _gated_pairs(rows, padded, gate), step
            if n_tracks <= 8:
                assert _total(rows, pairs) == brute_force_min_cost(rows), step
    print(f"tall {n_tracks}x{n_dets}: {answered} answered, {searched} searched")
    # One column is one row of its transpose, which the rule always answers.
    assert answered and (searched or n_dets == 1)


def test_one_column_near_tie_goes_to_the_cheaper_row():
    # One column is one row of its transpose, read exactly: the cheaper
    # row wins however small the difference.  The padded solve compared
    # S - c across rows, which rounds away differences below ulp(S), and
    # kept the costlier row in the first three.
    for rows, row in (([[1.0 + 1e-12], [1.0]], 1), ([[5.0], [1.0 + 1e-12], [1.0]], 2),
                      ([[1.0 + 3e-11], [1.0]], 1), ([[1.0], [1.0 + 1e-12]], 0)):
        assert _assignment(rows, 80.0)[0] == ((row, 0),)
    assert ref_padded_assignment([[1.0 + 1e-12], [1.0]], 80.0)[0] == ((0, 0),)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_every_golden_cost_matrix_equals_the_padded_solver(monkeypatch, case):
    solve = tracking.solve_assignment
    seen = []

    def checked(cost, gate):
        out = solve(cost, gate)
        n_tracks, n_dets = cost.shape
        if n_tracks and n_dets:
            rows = cost.rows
            assert (out.matches, out.unmatched_tracks, out.unmatched_detections) \
                == ref_padded_assignment(rows, gate), rows
            seen.append((n_tracks, n_dets))
        return out

    monkeypatch.setattr(tracking, "solve_assignment", checked)
    run_simulation(_scenario(case))
    assert any(2 <= t <= d for t, d in seen) and any(t > d >= 2 for t, d in seen)


def test_solver_equals_brute_force_on_random_matrices():
    rng = random.Random(123)
    for _ in range(150):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        rows = [[rng.uniform(0.0, 100.0) for _ in range(m)] for _ in range(n)]
        out = solve_assignment(_matrix(rows), gate=math.inf)
        total = sum(rows[i][j] for i, j in out.matches)
        assert total == pytest.approx(brute_force_min_cost(rows), abs=1e-9)
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
    predicted = kf_predict(tracker.tracks[0])
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


def _step_tracker_oracle(tracker, measurements):
    """``step_tracker`` as it was before frames with no measurements
    skipped the assignment: every frame is costed and solved."""
    params = tracker.params
    predicted = [kf_predict(t) for t in tracker.tracks]
    cost = assignment_cost(predicted, measurements)
    assign = solve_assignment(cost, params.gate_px)
    events = []
    next_tracks = []
    for ti, di in assign.matches:
        t = kf_update(predicted[ti], measurements[di])
        if t.status is TrackStatus.TENTATIVE and t.hits >= params.m_confirm:
            t.status = TrackStatus.CONFIRMED
            events.append(("confirmed", t.id))
        next_tracks.append(t)
    for ti in assign.unmatched_tracks:
        t = predicted[ti]
        t.misses += 1
        t.hits = 0
        if t.misses >= params.k_delete:
            events.append(("died", t.id))
            continue
        events.append(("coasted", t.id))
        next_tracks.append(t)
    next_id = tracker.next_id
    for di in assign.unmatched_detections:
        t = new_track(next_id, measurements[di])
        next_id += 1
        events.append(("born", t.id))
        next_tracks.append(t)
    next_tracks.sort(key=lambda t: t.id)
    return Tracker(tracks=tuple(next_tracks), next_id=next_id, params=params), events


def test_step_tracker_equals_its_oracle_on_random_frames():
    # Balloons drift across the image and flicker in and out, so frames
    # run through (0, 0), (n, 0), (0, m) and (n, m) tracks and
    # measurements, with births, confirms, coasts and deaths.
    rng = random.Random(28)
    shapes, kinds = set(), set()
    for params in (PARAMS, TrackerParams(m_confirm=1, k_delete=1, gate_px=20.0)):
        tracker = Tracker(params=params)
        for frame in range(600):
            if frame % 100 < 20:
                boxes = []
            else:
                n = rng.choice((0, 0, 0, 1, 2))
                boxes = [
                    _meas(cx=rng.uniform(-600, 600), cy=rng.uniform(-300, 300),
                          w=rng.uniform(2, 80), h=rng.uniform(2, 80))
                    for _ in range(n)
                ]
                if tracker.tracks and rng.random() < 0.7:
                    boxes += [
                        _meas(cx=t.x[0] + rng.gauss(0, 3), cy=t.x[1] + rng.gauss(0, 3),
                              w=t.x[2], h=t.x[3])
                        for t in tracker.tracks if rng.random() < 0.8
                    ]
            shapes.add((min(len(tracker.tracks), 1), min(len(boxes), 1)))
            expected, expected_events = _step_tracker_oracle(tracker, boxes)
            tracker, events = step_tracker(tracker, boxes)
            assert tracker.tracks == expected.tracks
            assert tracker.next_id == expected.next_id
            assert tracker.params == expected.params
            assert events == expected_events
            kinds.update(kind for kind, _ in events)
    assert shapes == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert kinds == {"born", "confirmed", "coasted", "died"}
