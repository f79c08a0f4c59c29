import math
import random

import pytest

from bhsim.fleet import (
    ClaimTable,
    DuplicateGenerators,
    UnknownClaim,
    claim_target,
    deconflict,
    point_in_cell,
    polygon_area,
    rect_polygon,
    release_claim,
    voronoi_partition,
)
from oracles import nearest_generator

FOOTPRINT = (5.0, 5.0, 95.0, 35.0)
AREA = 90.0 * 30.0


def test_single_generator_owns_whole_footprint():
    cells = voronoi_partition(FOOTPRINT, [(0, (20.0, 20.0))])
    assert len(cells) == 1
    assert polygon_area(cells[0].polygon) == pytest.approx(AREA)
    assert set(cells[0].polygon) == set(rect_polygon(FOOTPRINT))


def test_two_symmetric_generators_split_area_evenly():
    gens = [(0, (30.0, 20.0)), (1, (70.0, 20.0))]
    cells = voronoi_partition(FOOTPRINT, gens)
    for cell in cells:
        assert polygon_area(cell.polygon) == pytest.approx(AREA / 2, rel=1e-9)
    # Monte Carlo cross-check of the areas
    rng = random.Random(0)
    pts = [(rng.uniform(5, 95), rng.uniform(5, 35)) for _ in range(100_000)]
    frac = sum(nearest_generator(p, gens) == 0 for p in pts) / len(pts)
    assert frac == pytest.approx(0.5, abs=0.01)


def test_cells_tile_footprint():
    gens = [(0, (20.0, 10.0)), (1, (60.0, 30.0)), (2, (80.0, 8.0))]
    cells = voronoi_partition(FOOTPRINT, gens)
    assert sum(polygon_area(c.polygon) for c in cells) == pytest.approx(AREA, rel=1e-9)


def test_points_land_in_cell_of_nearest_generator():
    # Oracle: brute-force nearest-generator assignment for random points.
    rng = random.Random(42)
    gens = [(i, (rng.uniform(6, 94), rng.uniform(6, 34))) for i in range(3)]
    cells = {c.agent_id: c for c in voronoi_partition(FOOTPRINT, gens)}
    for _ in range(10_000):
        p = (rng.uniform(5, 95), rng.uniform(5, 35))
        dists = sorted(math.dist(p, g) for _, g in gens)
        if dists[1] - dists[0] < 1e-6:
            continue   # bisector ties are owned by the lower id
        expect = nearest_generator(p, gens)
        assert point_in_cell(p, cells[expect].polygon, margin=1e-9)


def test_partition_correctness_up_to_eight_generators():
    rng = random.Random(7)
    for n in range(2, 9):
        gens = [(i, (rng.uniform(6, 94), rng.uniform(6, 34))) for i in range(n)]
        cells = {c.agent_id: c for c in voronoi_partition(FOOTPRINT, gens)}
        total = sum(polygon_area(c.polygon) for c in cells.values())
        assert total == pytest.approx(AREA, rel=1e-6)
        for _ in range(1000):
            p = (rng.uniform(5, 95), rng.uniform(5, 35))
            dists = sorted(math.dist(p, g) for _, g in gens)
            if dists[1] - dists[0] < 1e-6:
                continue
            expect = nearest_generator(p, gens)
            assert point_in_cell(p, cells[expect].polygon, margin=1e-9)


def test_duplicate_generators_rejected():
    with pytest.raises(DuplicateGenerators):
        voronoi_partition(FOOTPRINT, [(0, (20.0, 20.0)), (1, (20.0, 20.0))])


def test_claim_lifecycle():
    table = ClaimTable()
    r1 = claim_target(table, 0, (10.0, 10.0, 3.0), 5.0)
    assert r1.granted and r1.claim_id == 1

    # radius rule
    r2 = claim_target(table, 1, (12.0, 10.0, 3.0), 5.0)
    assert not r2.granted and r2.conflict_id == 1

    # one claim per agent
    r3 = claim_target(table, 0, (50.0, 20.0, 3.0), 5.0)
    assert not r3.granted and r3.conflict_id == 1

    # far-away claim by another agent is fine
    r4 = claim_target(table, 1, (30.0, 10.0, 3.0), 5.0)
    assert r4.granted
    assert table.claim_of_agent(1) == r4.claim_id
    assert table.entries[r4.claim_id] == (1, (30.0, 10.0, 3.0))

    release_claim(table, r1.claim_id)
    assert table.claim_of_agent(0) is None

    # double release surfaces logic bugs
    with pytest.raises(UnknownClaim):
        release_claim(table, r1.claim_id)

    # released spot can be re-claimed
    r5 = claim_target(table, 2, (10.0, 10.0, 3.0), 5.0)
    assert r5.granted


def test_claim_at_exactly_the_claim_radius_is_granted():
    # Claims closer than the radius conflict; one at exactly the radius
    # does not.  Each point lies at an exactly representable distance.
    for other, granted in (((3.0, 4.0, 0.0), True), ((0.0, 0.0, -5.0), True),
                           ((3.0, 3.9, 0.0), False), ((4.9, 0.0, 0.0), False)):
        table = ClaimTable()
        assert claim_target(table, 0, (0.0, 0.0, 0.0), 5.0).granted
        assert claim_target(table, 1, other, 5.0).granted is granted, other


def test_deconflict_priority_rule():
    agents = [(0, (0.0, 0.0, 0.0)), (1, (4.0, 0.0, 0.0))]
    held, _ = deconflict(agents, 5.0, 3.0)
    assert held == {1}


def test_deconflict_clear_pair():
    agents = [(0, (0.0, 0.0, 0.0)), (1, (10.0, 0.0, 0.0))]
    assert deconflict(agents, 5.0, 3.0) == (set(), {})


def test_deconflict_chain():
    # Oracle: enumerate pairs; with a-b-c each 4 m apart, b and c hold.
    agents = [(0, (0.0, 0.0, 0.0)), (1, (4.0, 0.0, 0.0)), (2, (8.0, 0.0, 0.0))]
    held, _ = deconflict(agents, 5.0, 3.0)
    assert held == {1, 2}


def test_deconflict_pair_between_strip_and_hold_radii_only_holds():
    agents = [(0, (0.0, 0.0, 0.0)), (1, (0.0, 4.0, 0.0))]
    assert deconflict(agents, 5.0, 3.0) == ({1}, {})


def test_deconflict_pair_inside_strip_radius_holds_and_is_close():
    agents = [(0, (0.0, 0.0, 0.0)), (1, (1.0, 1.0, 1.0))]
    assert deconflict(agents, 5.0, 3.0) == ({1}, {0: [(1.0, 1.0, 1.0)]})


def test_deconflict_chain_lists_each_lower_ids_neighbors_in_ascending_id():
    # Oracle: enumerate pairs; 0-1 are 2 m apart, 0-2 2.5 m and 1-2 0.5 m.
    agents = [(0, (0.0, 0.0, 0.0)), (1, (2.0, 0.0, 0.0)), (2, (2.5, 0.0, 0.0))]
    assert deconflict(agents, 5.0, 3.0) == (
        {1, 2}, {0: [(2.0, 0.0, 0.0), (2.5, 0.0, 0.0)], 1: [(2.5, 0.0, 0.0)]},
    )


def test_deconflict_lone_agent_is_neither_held_nor_close():
    assert deconflict([(0, (0.0, 0.0, 0.0))], 5.0, 3.0) == (set(), {})


def test_polygon_area_ccw_rect():
    assert polygon_area(rect_polygon((0.0, 0.0, 4.0, 3.0))) == pytest.approx(12.0)
