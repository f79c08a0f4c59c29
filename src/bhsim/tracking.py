"""Multi-balloon tracking in the image plane.

Each track runs a linear Kalman filter over the 6-state vector
``[cx, cy, w, h, vcx, vcy]`` (pixels and pixels/frame): box centers move
with constant velocity between frames, box sizes follow a random walk.
Tracks are associated to detections by minimum-total-cost assignment on
Euclidean center distance, gated at a pixel radius, and managed through a
tentative / confirmed lifecycle driven by consecutive hit and miss
counts; a track that misses too many frames in a row is dropped.

The filter is the box Kalman filter of SORT (Bewley et al. 2016), run
decoupled (Bar-Shalom, Li & Kirubarajan 2001, ch. 6).  The process,
measurement and prior covariances are diagonal, the measurement observes
states 0-3 directly and the transition couples only cx with vcx and cy
with vcy, so the covariance stays block-diagonal in {cx, vcx},
{cy, vcy}, {w} and {h} forever.  The 6-state filter is therefore exactly
two 2-state constant-velocity filters plus two scalar random walks,
which run here in plain floats with no matrix inverse.  Their operations
follow the order of the 6x6 matrix products (predict ``F P F^T + Q``,
gain ``P H^T S^-1``, Joseph-form update, then symmetrisation), so the
results are the same floats the full matrix form gives: the filter
steps exactly one frame, so every product with the frame step is exact.

The tracker is a value: ``step_tracker`` consumes one tracker state and
one frame of measurements and returns a fresh tracker plus that frame's
lifecycle events, as ``(kind, track_id)`` pairs, and nothing else.  The
tracks measured this frame are the ones with ``misses == 0``.
Measurements carry only box geometry, so nothing in this module can see
ground-truth identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Sequence


class NumericalFailure(RuntimeError):
    """The filter or the assignment met numbers it cannot work with: an
    innovation covariance that is not invertible, or a non-finite cost."""


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


@dataclass(frozen=True)
class BoxMeasurement:
    """Geometry-only view of a detection, as consumed by the tracker."""

    center_x: float
    center_y: float
    width: float
    height: float


@dataclass(frozen=True)
class TrackerParams:
    gate_px: float = 80.0
    m_confirm: int = 3
    k_delete: int = 5
    q_diag: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 0.5, 0.5)
    r_diag: tuple[float, ...] = (4.0, 4.0, 8.0, 8.0)
    p0_diag: tuple[float, ...] = (10.0, 10.0, 10.0, 10.0, 100.0, 100.0)


# One symmetric 2x2 (center, velocity) covariance block as
# (var center, cov center-velocity, var velocity).
Block2 = tuple[float, float, float]


@dataclass(slots=True)
class TrackState:
    """One track: filter state, covariance blocks and lifecycle counts.

    ``x`` is ``(cx, cy, w, h, vcx, vcy)``.  The covariance is stored as
    its nonzero blocks: ``px = (var cx, cov cx-vcx, var vcx)``, ``py``
    the same for y, and the size variances ``pw`` and ``ph``.
    """

    id: int
    x: tuple[float, float, float, float, float, float]
    px: Block2
    py: Block2
    pw: float
    ph: float
    age: int = 0
    hits: int = 0
    misses: int = 0
    status: TrackStatus = TrackStatus.TENTATIVE
    last_range: Optional[float] = None

    @property
    def center(self) -> tuple[float, float]:
        return (self.x[0], self.x[1])


@dataclass(frozen=True)
class Assignment:
    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


@dataclass(frozen=True)
class Tracker:
    tracks: tuple[TrackState, ...] = ()
    next_id: int = 1
    params: TrackerParams = TrackerParams()

    @property
    def confirmed(self) -> list[TrackState]:
        return [t for t in self.tracks if t.status is TrackStatus.CONFIRMED]


def new_track(
    track_id: int, z: BoxMeasurement, params: TrackerParams
) -> TrackState:
    """Seed a tentative track from an unmatched measurement.

    Velocities start at zero with large variance (unbiased prior).
    """
    p0 = params.p0_diag
    return TrackState(
        track_id,
        (float(z.center_x), float(z.center_y), float(z.width), float(z.height),
         0.0, 0.0),
        (float(p0[0]), 0.0, float(p0[4])),
        (float(p0[1]), 0.0, float(p0[5])),
        float(p0[2]), float(p0[3]),
        age=1, hits=1, misses=0,
    )


def _predict_block(p: Block2, q_c: float, q_v: float) -> Block2:
    """``F P F^T + Q`` for one (center, velocity) block, ``F = [[1, 1], [0, 1]]``."""
    pcc, pcv, pvv = p
    f0 = pcc + pcv
    f1 = pcv + pvv
    return (f0 + f1 + q_c, f1, pvv + q_v)


def kf_predict(t: TrackState, params: TrackerParams = TrackerParams()) -> TrackState:
    """One-frame constant-velocity prediction; sizes random-walk,
    covariance grows."""
    cx, cy, w, h, vx, vy = t.x
    q = params.q_diag
    return TrackState(
        t.id,
        (cx + vx, cy + vy, w, h, vx, vy),
        _predict_block(t.px, q[0], q[4]),
        _predict_block(t.py, q[1], q[5]),
        t.pw + q[2], t.ph + q[3],
        t.age + 1, t.hits, t.misses, t.status, t.last_range,
    )


def _inverse(s: float) -> float:
    """``1 / s`` for one diagonal entry of the innovation covariance."""
    if s == 0.0:
        raise NumericalFailure("innovation covariance not invertible")
    return 1.0 / s


def _update_block(
    c: float, v: float, p: Block2, z: float, r: float
) -> tuple[float, float, Block2]:
    """Joseph-form correction of one (center, velocity) block by ``z``.

    With gain ``(k0, k1)`` and ``A = I - K H = [[g, 0], [m, 1]]``, the
    covariance is ``(A P) A^T + (K r) K^T``, then symmetrised.
    """
    pcc, pcv, pvv = p
    s_inv = _inverse(pcc + r)
    k0, k1 = pcc * s_inv, pcv * s_inv
    innovation = z - c
    g = 1.0 - k0
    m = 0.0 - k1    # as ``I - K H`` computes it: +0.0, not -0.0, when k1 is 0
    a00, a01 = g * pcc, g * pcv
    a10, a11 = m * pcc + pcv, m * pcv + pvv
    kr0, kr1 = k0 * r, k1 * r
    n01 = (a00 * m + a01) + kr0 * k1
    n10 = a10 * g + kr1 * k0
    return (
        c + k0 * innovation,
        v + k1 * innovation,
        (a00 * g + kr0 * k0, (n01 + n10) / 2.0, (a10 * m + a11) + kr1 * k1),
    )


def _update_scalar(s: float, p: float, z: float, r: float) -> tuple[float, float]:
    """Joseph-form correction of one size random walk by ``z``."""
    k = p * _inverse(p + r)
    g = 1.0 - k
    return s + k * (z - s), (g * p) * g + (k * r) * k


def kf_update(
    t: TrackState, z: BoxMeasurement, params: TrackerParams = TrackerParams()
) -> TrackState:
    """Linear Kalman correction with the associated box measurement.

    Uses the Joseph-form covariance update to keep the covariance
    symmetric positive semi-definite over long runs.  Hits increment,
    misses reset.

    Raises:
        NumericalFailure: if the innovation covariance cannot be inverted.
    """
    r = params.r_diag
    cx, cy, w, h, vx, vy = t.x
    cx, vx, px = _update_block(cx, vx, t.px, z.center_x, r[0])
    cy, vy, py = _update_block(cy, vy, t.py, z.center_y, r[1])
    w, pw = _update_scalar(w, t.pw, z.width, r[2])
    h, ph = _update_scalar(h, t.ph, z.height, r[3])
    return TrackState(
        t.id, (cx, cy, w, h, vx, vy), px, py, pw, ph,
        t.age, t.hits + 1, 0, t.status, t.last_range,
    )


@dataclass(frozen=True)
class CostMatrix:
    """A cost matrix as rows of floats.

    ``shape`` and ``tolist()`` read as on a 2-D array, so
    ``solve_assignment`` takes either; ``shape`` keeps the width of a
    matrix with no rows.  ``tolist()`` returns the rows themselves, not
    a copy.
    """

    shape: tuple[int, int]
    rows: list[list[float]]

    def tolist(self) -> list[list[float]]:
        return self.rows


def assignment_cost(
    tracks: Sequence[TrackState], detections: Sequence[BoxMeasurement]
) -> CostMatrix:
    """|tracks| x |detections| matrix of Euclidean center distances."""
    centers = [(d.center_x, d.center_y) for d in detections]
    rows = []
    for t in tracks:
        cx, cy = t.center
        rows.append([math.hypot(cx - dx, cy - dy) for dx, dy in centers])
    return CostMatrix((len(tracks), len(centers)), rows)


def _solve_square(cost: list[list[float]], n: int) -> list[int]:
    """Minimum-cost perfect matching on an n x n matrix.

    Shortest augmenting path formulation of the Hungarian method with row
    and column potentials, O(n^3).  Returns ``assign`` with
    ``assign[row] = column``.
    """
    INF = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)   # match_col[j] = row matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
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
    for j in range(1, n + 1):
        if match_col[j] > 0:
            assign[match_col[j] - 1] = j - 1
    return assign


def solve_assignment(cost: CostMatrix, gate: float) -> Assignment:
    """Minimum-total-cost matching on a rectangular matrix, then gating.

    ``cost`` is anything with ``shape`` and ``tolist()``: a
    ``CostMatrix`` or a 2-D float array.

    The matrix is padded square with a sentinel cost; padded pairs are
    discarded and any surviving pair costlier than ``gate`` is demoted to
    unmatched on both sides.  A matrix with one row or one column skips
    the padding and the solver: its match is the first minimal entry, in
    row-major order, which is the pair ``_solve_square`` picks on the
    padded matrix, ties included; it is gated the same way.

    Raises:
        NumericalFailure: if any cost is NaN or infinite.
    """
    n_tracks, n_dets = cost.shape
    if n_tracks == 0 or n_dets == 0:
        return Assignment(
            matches=(),
            unmatched_tracks=tuple(range(n_tracks)),
            unmatched_detections=tuple(range(n_dets)),
        )
    rows = cost.tolist()
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise NumericalFailure("assignment cost is not finite")
    if n_tracks == 1 or n_dets == 1:
        flat = rows[0] if n_tracks == 1 else [row[0] for row in rows]
        best = min(flat)
        if best <= gate:
            k = flat.index(best)
            rest = tuple(range(k)) + tuple(range(k + 1, len(flat)))
            if n_tracks == 1:
                return Assignment(((0, k),), (), rest)
            return Assignment(((k, 0),), rest, ())
        return Assignment((), tuple(range(n_tracks)), tuple(range(n_dets)))
    # Sentinel padding only needs to dominate every real cost; padded
    # pairs are discarded by index below, and gating is a post-filter.
    n = max(n_tracks, n_dets)
    sentinel = max(map(max, rows)) + 1.0e6
    padded = [row + [sentinel] * (n - n_dets) for row in rows]
    padded += [[sentinel] * n for _ in range(n - n_tracks)]
    assign = _solve_square(padded, n)
    matches = []
    matched_t: set[int] = set()
    matched_d: set[int] = set()
    for i in range(n_tracks):
        j = assign[i]
        if 0 <= j < n_dets and rows[i][j] <= gate:
            matches.append((i, j))
            matched_t.add(i)
            matched_d.add(j)
    return Assignment(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i in range(n_tracks) if i not in matched_t),
        unmatched_detections=tuple(j for j in range(n_dets) if j not in matched_d),
    )


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
    predicted = [kf_predict(t, params) for t in tracker.tracks]
    cost = assignment_cost(predicted, measurements)
    assign = solve_assignment(cost, params.gate_px)

    events: list[tuple[str, int]] = []
    next_tracks: list[TrackState] = []

    # predict and update return fresh objects, so the lifecycle fields
    # are set on them in place; the input tracker is never touched.
    for ti, di in assign.matches:
        t = kf_update(predicted[ti], measurements[di], params)
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
        t = new_track(next_id, measurements[di], params)
        next_id += 1
        events.append(("born", t.id))
        next_tracks.append(t)

    next_tracks.sort(key=lambda t: t.id)
    return Tracker(tracks=tuple(next_tracks), next_id=next_id, params=params), events
