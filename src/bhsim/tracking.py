"""Multi-balloon tracking in the image plane.

Each track runs a linear Kalman filter over the 6-state vector
``[cx, cy, w, h, vcx, vcy]`` (pixels and pixels/frame): box centers move
with constant velocity between frames, box sizes follow a random walk.
Tracks are associated to detections by minimum-total-cost assignment on
Euclidean center distance, gated at a pixel radius, and managed through a
tentative / confirmed lifecycle driven by consecutive hit and miss
counts; a track that misses too many frames in a row is dropped.

The assignment is the Hungarian solve (Kuhn's method, as a shortest
augmenting path) over the smaller side of the cost matrix, with no
padding: a frame with more tracks than detections is solved as its
transpose.  Most frames' answers are known without the search: when
each row of that oriented matrix has a different nearest column, those
pairs are the search's answer, ties and rounding included;
``solve_assignment`` argues it.  One pass over the pairs then gates
them and builds both unmatched sides.  A frame with no measurements
skips the assignment: every track goes unmatched, as the solve of a
matrix with no columns says, and a frame with neither tracks nor
measurements hands its tracker back unchanged.

The filter is the box Kalman filter of SORT (Bewley et al. 2016), run
decoupled (Bar-Shalom, Li & Kirubarajan 2001, ch. 6).  The process,
measurement and prior covariances are diagonal module constants, the
measurement observes states 0-3 directly and the transition couples only
cx with vcx and cy with vcy, so the covariance stays block-diagonal in
{cx, vcx}, {cy, vcy}, {w} and {h} forever.  The 6-state filter is
therefore exactly two 2-state constant-velocity filters plus two scalar
random walks, which run here in plain floats with no matrix inverse.
Both axes start from the same prior and see the same noise, so the two
center blocks are equal, as are the two size variances, whatever the
measurements: a track keeps one of each.  Their operations follow the
order of the 6x6 matrix products (predict ``F P F^T + Q``, gain
``P H^T S^-1``, Joseph-form update, then symmetrisation), so the results
are the same floats the full matrix form gives: the filter steps exactly
one frame, so every product with the frame step is exact.  The
innovation variance is a variance plus a positive measurement noise, so
it is never zero.

The tracker is a value, a ``Tracker`` NamedTuple, as are
``TrackerParams``, ``Assignment`` and ``CostMatrix``: ``step_tracker``
consumes one tracker state and one frame of measurements and returns a
fresh tracker plus that frame's lifecycle events, as ``(kind,
track_id)`` pairs, and nothing else.  A ``TrackState`` is a mutable
``__slots__`` record: ``step_tracker`` sets fields only on the fresh
tracks it returns, never on its input.  The tracks measured this frame
are the ones with ``misses == 0``.  A track holds only its filter state
and lifecycle counts, as in SORT; what its box implies, such as the
range to the balloon, is worked out by whoever reads it.
Measurements carry only box geometry, so nothing in this module can see
ground-truth identities.
"""

import math
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Sequence


class NumericalFailure(RuntimeError):
    """A run met numbers it cannot work with: a non-finite cost, or a
    non-finite value in an event record (``events``)."""


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


class BoxMeasurement(NamedTuple):
    """Geometry-only view of a detection, as consumed by the tracker."""

    center_x: float
    center_y: float
    width: float
    height: float


class TrackerParams(NamedTuple):
    """Association gate and lifecycle counts."""

    gate_px: float = 80.0
    m_confirm: int = 3
    k_delete: int = 5


# The diagonal filter covariances, the same on both image axes: process
# noise Q, measurement noise R and the prior P0 of a new track.
Q_CENTER, Q_SIZE, Q_VELOCITY = 1.0, 1.0, 0.5
R_CENTER, R_SIZE = 4.0, 8.0
P0_CENTER, P0_SIZE, P0_VELOCITY = 10.0, 10.0, 100.0

_TRACK_FIELDS = ("id", "x", "pc", "ps", "hits", "misses", "status")
_track_key = attrgetter(*_TRACK_FIELDS)
_by_id = attrgetter("id")
# Bound once: EnumType's __getattr__ slows every member lookup on the class.
_TENTATIVE, _CONFIRMED = TrackStatus.TENTATIVE, TrackStatus.CONFIRMED


class TrackState:
    """One track: filter state, covariance and lifecycle counts.

    ``x`` is ``(cx, cy, w, h, vcx, vcy)``.  The covariance is stored as
    its nonzero blocks, which are the same on both axes: ``pc = (var c,
    cov c-vc, var vc)`` for the (cx, vcx) and (cy, vcy) blocks, and
    ``ps`` the variance of ``w`` and of ``h``.  A coasting track keeps
    the box size it was last measured at.  Two tracks are equal when
    all their fields are.
    """

    __slots__ = _TRACK_FIELDS

    def __init__(
        self, id: int, x: tuple[float, float, float, float, float, float],
        pc: tuple[float, float, float], ps: float, hits: int = 0,
        misses: int = 0, status: TrackStatus = TrackStatus.TENTATIVE,
    ) -> None:
        self.id = id
        self.x = x
        self.pc = pc
        self.ps = ps
        self.hits = hits
        self.misses = misses
        self.status = status

    def __eq__(self, other):
        if type(other) is not TrackState:
            return NotImplemented
        return _track_key(self) == _track_key(other)


class Assignment(NamedTuple):
    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


class Tracker(NamedTuple):
    tracks: tuple[TrackState, ...] = ()
    next_id: int = 1
    params: TrackerParams = TrackerParams()


def new_track(track_id: int, z: BoxMeasurement) -> TrackState:
    """Seed a tentative track from an unmatched measurement.

    Velocities start at zero with large variance (unbiased prior).
    """
    return TrackState(
        track_id,
        (float(z.center_x), float(z.center_y), float(z.width), float(z.height),
         0.0, 0.0),
        (P0_CENTER, 0.0, P0_VELOCITY), P0_SIZE, hits=1, misses=0,
    )


def kf_predict(t: TrackState) -> TrackState:
    """One-frame constant-velocity prediction, ``F P F^T + Q`` with
    ``F = [[1, 1], [0, 1]]`` on each center block; sizes random-walk, so
    the box keeps its size and only its size variance grows."""
    cx, cy, w, h, vx, vy = t.x
    pcc, pcv, pvv = t.pc
    f1 = pcv + pvv
    return TrackState(
        t.id,
        (cx + vx, cy + vy, w, h, vx, vy),
        ((pcc + pcv) + f1 + Q_CENTER, f1, pvv + Q_VELOCITY),
        t.ps + Q_SIZE, t.hits, t.misses, t.status,
    )


def kf_update(t: TrackState, z: BoxMeasurement) -> TrackState:
    """Linear Kalman correction with the associated box measurement.

    Uses the Joseph-form covariance update to keep the covariance
    symmetric positive semi-definite over long runs.  For a center
    block, with gain ``(k0, k1)``, ``A = I - K H = [[g, 0], [m, 1]]`` and
    ``r = R_CENTER``, it is ``(A P) A^T + (K r) K^T``, then symmetrised.
    Both axes share the gain and the covariance, so each is worked out
    once.  Hits increment, misses reset.
    """
    cx, cy, w, h, vx, vy = t.x
    pcc, pcv, pvv = t.pc
    s_inv = 1.0 / (pcc + R_CENTER)
    k0, k1 = pcc * s_inv, pcv * s_inv
    g = 1.0 - k0
    m = 0.0 - k1    # as ``I - K H`` computes it: +0.0, not -0.0, when k1 is 0
    a00, a01 = g * pcc, g * pcv
    a10, a11 = m * pcc + pcv, m * pcv + pvv
    kr0, kr1 = k0 * R_CENTER, k1 * R_CENTER
    n01 = (a00 * m + a01) + kr0 * k1
    n10 = a10 * g + kr1 * k0
    ps = t.ps
    k = ps * (1.0 / (ps + R_SIZE))
    gs = 1.0 - k
    ix, iy = z.center_x - cx, z.center_y - cy
    return TrackState(
        t.id,
        (cx + k0 * ix, cy + k0 * iy, w + k * (z.width - w), h + k * (z.height - h),
         vx + k1 * ix, vy + k1 * iy),
        (a00 * g + kr0 * k0, (n01 + n10) / 2.0, (a10 * m + a11) + kr1 * k1),
        (gs * ps) * gs + (k * R_SIZE) * k, t.hits + 1, 0, t.status,
    )


class CostMatrix(NamedTuple):
    """A cost matrix as rows of floats.

    ``shape`` is ``(rows, columns)`` and keeps the width of a matrix
    with no rows.
    """

    shape: tuple[int, int]
    rows: list[list[float]]


def assignment_cost(
    tracks: Sequence[TrackState], detections: Sequence[BoxMeasurement]
) -> CostMatrix:
    """|tracks| x |detections| matrix of Euclidean center distances."""
    centers = [(d.center_x, d.center_y) for d in detections]
    rows = []
    for t in tracks:
        cx, cy = t.x[0], t.x[1]
        rows.append([math.hypot(cx - dx, cy - dy) for dx, dy in centers])
    return CostMatrix((len(tracks), len(centers)), rows)


def _solve_rect(cost: Sequence[Sequence[float]], n: int, m: int) -> list[int]:
    """Minimum-cost matching of each row of an n x m matrix, n <= m, to
    its own column.

    Shortest augmenting path form of the Hungarian method with row and
    column potentials, one search per row over the m columns, O(n^2 m)
    (Bourgeois and Lassalle 1971; Crouse 2016).  Returns ``assign`` with
    ``assign[row] = column``.
    """
    INF = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match_col = [0] * (m + 1)   # match_col[j] = row matched to column j (1-based)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [-1] * n
    for j in range(1, m + 1):
        if match_col[j] > 0:
            assign[match_col[j] - 1] = j - 1
    return assign


def solve_assignment(cost: CostMatrix, gate: float) -> Assignment:
    """Minimum-total-cost matching on ``cost.rows``, then gating.

    The answer is the one ``_solve_rect`` gives on the tracks x
    detections matrix, or on its transpose when there are more tracks
    than detections, so that it always matches every entry of the
    smaller side; one pass over those pairs leaves any costlier than
    ``gate`` unmatched on both sides, and a matrix with an empty side
    matches nothing.  When every row of the oriented matrix has a
    different first minimal column, ``row.index(min(row))``, those pairs
    are the answer and the search is skipped.  Proof, along the search
    with floats and ties: in each row's first step all column potentials
    are still 0.0 and its row potential is 0.0, so it reads its costs
    exactly, picks its first minimal column (the strict ``<`` keeps the
    first of equal minima, ``-0.0`` and ``0.0`` included) and, that
    column being free, stops; only its own row potential and the unused
    ``v[0]`` move.  This covers the one-row and one-column matrices.

    Raises:
        NumericalFailure: if any cost is NaN or infinite.
    """
    n_tracks, n_dets = cost.shape
    rows = cost.rows
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise NumericalFailure("assignment cost is not finite")
    tall = n_tracks > n_dets
    side = list(zip(*rows)) if tall else rows
    n, m = (n_dets, n_tracks) if tall else (n_tracks, n_dets)
    picks = [row.index(min(row)) for row in side]
    if len(set(picks)) < n:
        picks = _solve_rect(side, n, m)
    matches, lone, free = [], [], list(range(m))
    for i, j in enumerate(picks):
        if side[i][j] <= gate:
            matches.append((j, i) if tall else (i, j))
            free.remove(j)
        else:
            lone.append(i)
    if tall:
        matches.sort()  # into track order
        return Assignment(tuple(matches), tuple(free), tuple(lone))
    return Assignment(tuple(matches), tuple(lone), tuple(free))


def step_tracker(
    tracker: Tracker, measurements: Sequence[BoxMeasurement]
) -> tuple[Tracker, list[tuple[str, int]]]:
    """Run one frame: predict, associate, update, coast, spawn, prune.

    Matched tracks are corrected and their miss counts reset; unmatched
    tracks coast on prediction alone (hits reset) and die at
    ``k_delete`` consecutive misses; unmatched measurements seed new
    tentative tracks; tentative tracks are promoted at ``m_confirm``
    consecutive hits.  Track ids strictly increase and are never reused.
    Returns the next tracker and the frame's ``(kind, track_id)`` events,
    kind one of born | confirmed | coasted | died.
    """
    params = tracker.params
    if not measurements and not tracker.tracks:
        return tracker, []
    predicted = [kf_predict(t) for t in tracker.tracks]
    if measurements:
        cost = assignment_cost(predicted, measurements)
        assign = solve_assignment(cost, params.gate_px)
    else:
        assign = Assignment((), tuple(range(len(predicted))), ())

    events: list[tuple[str, int]] = []
    next_tracks: list[TrackState] = []

    # predict and update return fresh objects, so the lifecycle fields
    # are set on them in place; the input tracker is never touched.
    for ti, di in assign.matches:
        t = kf_update(predicted[ti], measurements[di])
        if t.status is _TENTATIVE and t.hits >= params.m_confirm:
            t.status = _CONFIRMED
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

    if len(next_tracks) > 1:
        next_tracks.sort(key=_by_id)
    return Tracker(tuple(next_tracks), next_id, params), events
