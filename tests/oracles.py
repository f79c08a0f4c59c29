"""Reference forms the tests compare bhsim against; no run calls them.

``project_point`` and ``world_to_camera`` are the per-point pinhole
projection that ``perception.generate_detections`` writes out for a
whole frame; ``nearest_generator`` is the definition of the Voronoi
cells ``fleet.voronoi_partition`` clips; ``should_commit`` is the track
filter of the commit scan in ``mission._step_search``;
``brute_force_min_cost`` is the definition of the assignment
``tracking.solve_assignment`` solves, and ``solve_square`` is the padded
Hungarian solve it was defined by before it searched the smaller side
of the matrix unpadded.

The rest is small dense linear algebra in plain floats, for the matrix
forms of the camera geometry and of the Kalman filter.  A matrix is a
list of rows.  Every sum runs left to right in index order from 0.0,
never through ``sum()`` (which compensates its rounding on Python 3.12
and later), so each helper gives the same floats on every Python.
``allclose`` is the array-library rule ``|a - b| <= atol + rtol * |b|``,
elementwise, with its usual defaults ``rtol = 1e-5`` and ``atol = 1e-8``.
"""

import itertools
import math
from typing import Optional, Sequence

from bhsim.perception import CameraIntrinsics
from bhsim.tracking import TrackState, TrackStatus
from bhsim.vehicle import UavState

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]
Matrix = list[list[float]]


def world_to_camera(d_world: Vec3, yaw: float) -> Vec3:
    """Rotate a world-frame vector into the camera frame (inverse of
    ``camera_to_world``)."""
    nx, ny, nz = d_world[0], d_world[1], -d_world[2]
    c, s = math.cos(yaw), math.sin(yaw)
    bx = c * nx + s * ny
    by = -s * nx + c * ny
    return (by, nz, bx)


def project_point(
    camera: CameraIntrinsics, uav: UavState, point_world: Vec3
) -> Optional[tuple[float, float, float]]:
    """Project a world point seen from a UAV's forward camera.

    Returns ``(p_x, p_y, depth)`` with pixels measured from the principal
    point and depth along the optic axis in meters; None if the point is
    behind the camera or off-image.
    """
    position = uav.position
    cam_x, cam_y, cam_z = world_to_camera(
        (
            point_world[0] - position[0],
            point_world[1] - position[1],
            point_world[2] - position[2],
        ),
        uav.yaw,
    )
    if cam_z <= 0.0:
        return None
    px = camera.focal_px * cam_x / cam_z
    py = camera.focal_px * cam_y / cam_z
    u0, v0 = camera.principal
    u = u0 + px
    v = v0 + py
    if not (0.0 <= u <= camera.width_px and 0.0 <= v <= camera.height_px):
        return None
    return (px, py, cam_z)


def nearest_generator(
    point: Vec2, generators: Sequence[tuple[int, Vec2]]
) -> int:
    """Agent id of the generator nearest to ``point`` (ties: lower id)."""
    best_id = -1
    best = math.inf
    for agent_id, (gx, gy) in sorted(generators):
        d = (point[0] - gx) ** 2 + (point[1] - gy) ** 2
        if d < best:
            best = d
            best_id = agent_id
    return best_id


def should_commit(track: TrackState, m_commit: int) -> bool:
    """Commit only to confirmed tracks with enough consecutive hits."""
    return track.status is TrackStatus.CONFIRMED and track.hits >= m_commit


def brute_force_min_cost(rows: Matrix) -> float:
    """Least total cost over every injection of the shorter side of a
    non-empty matrix into the longer, each total summed exactly
    (``math.fsum``)."""
    n, m = len(rows), len(rows[0])
    if n <= m:
        return min(
            math.fsum(rows[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return min(
        math.fsum(rows[p[j]][j] for j in range(m))
        for p in itertools.permutations(range(n), m)
    )


def solve_square(cost: list[list[float]], n: int) -> list[int]:
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


# --- plain-float linear algebra ---------------------------------------------

def _flat(a) -> list:
    if isinstance(a, (int, float)):
        return [a]
    return [x for item in a for x in _flat(item)]


def allclose(a, b, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """Every ``|a - b| <= atol + rtol * |b|``, over equal-shaped nested
    sequences (or scalars); NaN is close to nothing."""
    fa, fb = _flat(a), _flat(b)
    assert len(fa) == len(fb), (a, b)
    return all(abs(x - y) <= atol + rtol * abs(y) for x, y in zip(fa, fb))


def identity(n: int) -> Matrix:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def diag(values: Sequence[float]) -> Matrix:
    n = len(values)
    return [[float(values[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, k: float) -> Matrix:
    return [[x * k for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """``a @ b``; each entry summed from 0.0 over k = 0, 1, ..."""
    ks = range(len(b))
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = 0.0
            for k in ks:
                acc += row[k] * col[k]
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(a: Matrix, v: Sequence[float]) -> list[float]:
    """``a @ v`` for a vector ``v``, summed as in ``mat_mul``."""
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def mat_inv(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Raises ZeroDivisionError on a singular pivot."""
    n = len(a)
    aug = [list(map(float, row)) + e for row, e in zip(a, identity(n))]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(aug[r][c]))
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f != 0.0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def det3(m: Matrix) -> float:
    """Determinant of a 3x3 matrix by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def sym_eigenvalues(a: Matrix, sweeps: int = 50) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi
    rotations (Golub and Van Loan, Matrix Computations, 8.5)."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for row in a:
                    rp, rq = row[p], row[q]
                    row[p], row[q] = c * rp - s * rq, s * rp + c * rq
                a[p], a[q] = (
                    [c * x - s * y for x, y in zip(a[p], a[q])],
                    [s * x + c * y for x, y in zip(a[p], a[q])],
                )
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    return sorted(a[i][i] for i in range(n))


# --- camera geometry in matrix form -----------------------------------------

# Forward mount (camera -> body), heading (body -> NED), z flip
# (NED -> world).
R_CAM_TO_BODY = [
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
]
NED_TO_WORLD = diag([1.0, 1.0, -1.0])


def ref_body_to_vehicle(yaw: float) -> Matrix:
    c, s = math.cos(yaw), math.sin(yaw)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


def ref_camera_to_world(yaw: float) -> Matrix:
    return mat_mul(mat_mul(NED_TO_WORLD, ref_body_to_vehicle(yaw)), R_CAM_TO_BODY)
