"""Fleet supervision: area partitioning, target claims, deconfliction.

The arena footprint is split among agents into Voronoi cells computed by
half-plane clipping of the footprint rectangle, so every cell is a convex
polygon and the cells tile the footprint exactly.  A claim table gives
each agent an exclusive, radius-guarded reservation on one balloon
estimate, keyed by its claim id, and a pairwise hold rule keeps agents
apart.
"""

import math
from typing import NamedTuple, Optional, Sequence

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]
Rect = tuple[float, float, float, float]      # xmin, ymin, xmax, ymax

GENERATOR_EPS = 1e-9


class DuplicateGenerators(ValueError):
    """Two partition generators coincide."""


class UnknownClaim(KeyError):
    """Claim id not present in the table."""


class PartitionCell(NamedTuple):
    agent_id: int
    generator: Vec2
    polygon: tuple[Vec2, ...]

    @property
    def area(self) -> float:
        return polygon_area(self.polygon)


def polygon_area(polygon: Sequence[Vec2]) -> float:
    """Shoelace area; positive for counter-clockwise vertex order."""
    area = 0.0
    n = len(polygon)
    for i in range(n):
        x0, y0 = polygon[i]
        x1, y1 = polygon[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return area / 2.0


def rect_polygon(rect: Rect) -> tuple[Vec2, ...]:
    xmin, ymin, xmax, ymax = rect
    return ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax))


def _clip_half_plane(
    polygon: Sequence[Vec2], a: float, b: float, c: float
) -> tuple[Vec2, ...]:
    """Clip a convex polygon to the half plane a*x + b*y <= c."""
    out: list[Vec2] = []
    n = len(polygon)
    for i in range(n):
        px, py = polygon[i]
        qx, qy = polygon[(i + 1) % n]
        p_in = a * px + b * py <= c
        q_in = a * qx + b * qy <= c
        if p_in:
            out.append((px, py))
        if p_in != q_in:
            denom = a * (qx - px) + b * (qy - py)
            t = (c - a * px - b * py) / denom
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return tuple(out)


def voronoi_partition(
    footprint: Rect, generators: Sequence[tuple[int, Vec2]]
) -> list[PartitionCell]:
    """Voronoi cells of the footprint, one per (agent id, generator) pair.

    Each cell is the set of footprint points at least as close to its own
    generator as to any other, computed by successively clipping the
    footprint rectangle with perpendicular-bisector half planes.  Points
    exactly on a bisector belong to the lower agent id (the half-plane
    test is inclusive, and ``nearest_generator`` breaks ties the same way).

    Raises:
        DuplicateGenerators: if two generators coincide.
    """
    pts = list(generators)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (_, gi), (_, gj) = pts[i], pts[j]
            if math.hypot(gi[0] - gj[0], gi[1] - gj[1]) < GENERATOR_EPS:
                raise DuplicateGenerators(
                    f"generators for agents {pts[i][0]} and {pts[j][0]} coincide"
                )
    cells: list[PartitionCell] = []
    for agent_id, g in pts:
        poly = rect_polygon(footprint)
        gx, gy = g
        for other_id, h in pts:
            if other_id == agent_id:
                continue
            hx, hy = h
            # |p - g| <= |p - h|  <=>  2(h - g).p <= |h|^2 - |g|^2
            a = 2.0 * (hx - gx)
            b = 2.0 * (hy - gy)
            c = hx * hx + hy * hy - gx * gx - gy * gy
            poly = _clip_half_plane(poly, a, b, c)
            if not poly:
                break
        cells.append(PartitionCell(agent_id=agent_id, generator=g, polygon=poly))
    return cells


def point_in_cell(point: Vec2, polygon: Sequence[Vec2], margin: float = 0.0) -> bool:
    """True if a point lies inside a convex CCW polygon, inflated by margin."""
    n = len(polygon)
    if n < 3:
        return False
    px, py = point
    for i in range(n):
        x0, y0 = polygon[i]
        x1, y1 = polygon[(i + 1) % n]
        ex, ey = x1 - x0, y1 - y0
        cross = ex * (py - y0) - ey * (px - x0)
        if cross < -margin * math.hypot(ex, ey):
            return False
    return True


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


class ClaimTable:
    """Radius-guarded, one-per-agent reservations on balloon estimates.

    ``entries`` maps each claim id to ``(agent id, estimate)``.
    """

    __slots__ = ("entries", "next_id")

    def __init__(self) -> None:
        self.entries: dict[int, tuple[int, Vec3]] = {}
        self.next_id = 1

    def claim_of_agent(self, agent_id: int) -> Optional[int]:
        """The id of the claim ``agent_id`` holds, or None."""
        for claim_id, (holder, _) in self.entries.items():
            if holder == agent_id:
                return claim_id
        return None


class ClaimResult(NamedTuple):
    granted: bool
    claim_id: Optional[int] = None
    conflict_id: Optional[int] = None


def claim_target(
    table: ClaimTable,
    agent_id: int,
    estimate: Vec3,
    claim_radius: float,
) -> ClaimResult:
    """Try to reserve a balloon estimate for one agent.

    Granted only if the agent holds no claim and no existing claim lies
    within ``claim_radius`` of the estimate.  Grants mutate the table;
    callers serialize requests in ascending agent id.
    """
    held = table.claim_of_agent(agent_id)
    if held is not None:
        return ClaimResult(granted=False, conflict_id=held)
    ex, ey, ez = estimate
    for claim_id, (_, (cx, cy, cz)) in table.entries.items():
        dx = cx - ex
        dy = cy - ey
        dz = cz - ez
        if math.sqrt(dx * dx + dy * dy + dz * dz) < claim_radius:
            return ClaimResult(granted=False, conflict_id=claim_id)
    claim_id = table.next_id
    table.next_id += 1
    table.entries[claim_id] = (agent_id, estimate)
    return ClaimResult(granted=True, claim_id=claim_id)


def release_claim(table: ClaimTable, claim_id: int) -> None:
    """Remove a claim.  Double release raises (it signals a logic bug).

    Raises:
        UnknownClaim: if the claim id is not present.
    """
    if claim_id not in table.entries:
        raise UnknownClaim(claim_id)
    del table.entries[claim_id]


def deconflict(agents: Sequence, min_sep: float) -> dict[int, bool]:
    """Hold flags for inter-agent separation.

    For every pair of agents closer than ``min_sep``, the higher agent id
    is held (zero velocity this tick) while the lower id proceeds.
    ``agents`` need ids and world positions.
    """
    if min_sep <= 0:
        raise ValueError("min_sep must be positive")
    holds = {a.id: False for a in agents}
    ordered = sorted(agents, key=lambda a: a.id)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            dx = a.position[0] - b.position[0]
            dy = a.position[1] - b.position[1]
            dz = a.position[2] - b.position[2]
            if math.sqrt(dx * dx + dy * dy + dz * dz) < min_sep:
                holds[b.id] = True
    return holds
