import math
from dataclasses import dataclass

import numpy as np
import pytest

from bhsim.fleet import (
    ClaimTable,
    DuplicateGenerators,
    UnknownClaim,
    claim_target,
    deconflict,
    nearest_generator,
    point_in_cell,
    polygon_area,
    rect_polygon,
    release_claim,
    voronoi_partition,
)

FOOTPRINT = (5.0, 5.0, 95.0, 35.0)
AREA = 90.0 * 30.0


def test_single_generator_owns_whole_footprint():
    cells = voronoi_partition(FOOTPRINT, [(0, (20.0, 20.0))])
    assert len(cells) == 1
    assert cells[0].area == pytest.approx(AREA)
    assert set(cells[0].polygon) == set(rect_polygon(FOOTPRINT))


def test_two_symmetric_generators_split_area_evenly():
    gens = [(0, (30.0, 20.0)), (1, (70.0, 20.0))]
    cells = voronoi_partition(FOOTPRINT, gens)
    for cell in cells:
        assert cell.area == pytest.approx(AREA / 2, rel=1e-9)
    # Monte Carlo cross-check of the areas
    rng = np.random.default_rng(0)
    pts = rng.uniform((5, 5), (95, 35), size=(100_000, 2))
    frac = np.mean([nearest_generator((float(x), float(y)), gens) == 0
                    for x, y in pts])
    assert frac == pytest.approx(0.5, abs=0.01)


def test_cells_tile_footprint():
    gens = [(0, (20.0, 10.0)), (1, (60.0, 30.0)), (2, (80.0, 8.0))]
    cells = voronoi_partition(FOOTPRINT, gens)
    assert sum(c.area for c in cells) == pytest.approx(AREA, rel=1e-9)


def test_points_land_in_cell_of_nearest_generator():
    # Oracle: brute-force nearest-generator assignment for random points.
    rng = np.random.default_rng(42)
    gens = [(i, (float(x), float(y)))
            for i, (x, y) in enumerate(rng.uniform((6, 6), (94, 34), size=(3, 2)))]
    cells = {c.agent_id: c for c in voronoi_partition(FOOTPRINT, gens)}
    for _ in range(10_000):
        p = (float(rng.uniform(5, 95)), float(rng.uniform(5, 35)))
        dists = sorted(math.dist(p, g) for _, g in gens)
        if dists[1] - dists[0] < 1e-6:
            continue   # bisector ties are owned by the lower id
        expect = nearest_generator(p, gens)
        assert point_in_cell(p, cells[expect].polygon, margin=1e-9)


def test_partition_correctness_up_to_eight_generators():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        gens = [(i, (float(x), float(y)))
                for i, (x, y) in enumerate(rng.uniform((6, 6), (94, 34), size=(n, 2)))]
        cells = {c.agent_id: c for c in voronoi_partition(FOOTPRINT, gens)}
        assert sum(c.area for c in cells.values()) == pytest.approx(AREA, rel=1e-6)
        for _ in range(1000):
            p = (float(rng.uniform(5, 95)), float(rng.uniform(5, 35)))
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


@dataclass
class _Agent:
    id: int
    position: tuple


def test_deconflict_priority_rule():
    agents = [_Agent(0, (0.0, 0.0, 0.0)), _Agent(1, (4.0, 0.0, 0.0))]
    holds = deconflict(agents, 5.0)
    assert holds == {0: False, 1: True}


def test_deconflict_clear_pair():
    agents = [_Agent(0, (0.0, 0.0, 0.0)), _Agent(1, (10.0, 0.0, 0.0))]
    assert deconflict(agents, 5.0) == {0: False, 1: False}


def test_deconflict_chain():
    # Oracle: enumerate pairs; with a-b-c each 4 m apart, b and c hold.
    agents = [
        _Agent(0, (0.0, 0.0, 0.0)),
        _Agent(1, (4.0, 0.0, 0.0)),
        _Agent(2, (8.0, 0.0, 0.0)),
    ]
    holds = deconflict(agents, 5.0)
    assert holds == {0: False, 1: True, 2: True}


def test_polygon_area_ccw_rect():
    assert polygon_area(rect_polygon((0.0, 0.0, 4.0, 3.0))) == pytest.approx(12.0)
