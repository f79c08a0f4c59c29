import math
import random

import pytest

from bhsim.rng import substream
from bhsim.scenario import ValidationError, build_scenario
from bhsim.world import (
    Arena,
    Balloon,
    BalloonParams,
    PackingInfeasible,
    UnknownBalloon,
    advance_world,
    make_balloon,
    make_world,
    pop_balloon,
    sample_balloon_layout,
)


def test_arena_defaults_and_footprint():
    arena = Arena()
    assert arena.outer_extent == (100.0, 40.0, 20.0)
    assert arena.effective_extent == (90.0, 30.0, 5.0)
    assert arena.footprint == (5.0, 5.0, 95.0, 35.0)


def test_arena_rejects_bad_extents():
    # An Arena trusts its extents: the parser is what rejects them.
    for key, extent in [
        ("arena.effective_extent", (120.0, 30.0, 5.0)),
        ("arena.outer_extent", (0.0, 40.0, 20.0)),
    ]:
        with pytest.raises(ValidationError) as err:
            build_scenario({key: extent})
        assert err.value.key == key


def test_layout_empty():
    rng = random.Random(0)
    assert sample_balloon_layout(rng, Arena(), 0, 8.0) == []


def test_layout_deterministic_for_seed():
    arena = Arena()
    a = sample_balloon_layout(substream(42, "layout"), arena, 5, 8.0)
    b = sample_balloon_layout(substream(42, "layout"), arena, 5, 8.0)
    assert [x.anchor for x in a] == [x.anchor for x in b]
    assert [x.sway_phase for x in a] == [x.sway_phase for x in b]
    assert [x.sway_cos for x in a] == [x.sway_cos for x in b]
    assert [x.sway_sin for x in a] == [x.sway_sin for x in b]


def test_layout_min_separation_brute_force():
    # Oracle: exhaustive pairwise distance check.
    arena = Arena()
    for seed in range(20):
        balloons = sample_balloon_layout(substream(seed, "layout"), arena, 5, 8.0)
        assert len(balloons) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                d = math.dist(balloons[i].anchor[:2], balloons[j].anchor[:2])
                assert d >= 8.0


def test_layout_infeasible_packing_raises():
    rng = random.Random(1)
    with pytest.raises(PackingInfeasible):
        sample_balloon_layout(rng, Arena(), 60, 20.0)


def _balloon(sway_phase=0.0, sway_azimuth=0.0):
    return Balloon(
        (10.0, 10.0, 2.0), sway_phase, math.cos(sway_azimuth), math.sin(sway_azimuth)
    )


def _center(params, b, t):
    """Where the world puts balloon ``b`` at time ``t``."""
    return make_world(params, [b], t).centers[0]


def test_sway_zero_amplitude_is_static():
    params = BalloonParams(sway_amplitude=0.0)
    for t in (0.0, 0.3, 2.7, 100.0):
        assert _center(params, _balloon(), t) == (10.0, 10.0, 3.0)


def test_sway_quarter_period_matches_pendulum_closed_form():
    # Oracle: closed-form pendulum evaluation at the quarter period.
    amp, freq, tether = 0.1, 0.2, 1.0
    params = BalloonParams(
        sway_amplitude=amp, sway_frequency=freq, tether_length=tether
    )
    t = 1.0 / (4.0 * freq)
    cx, cy, cz = _center(params, _balloon(), t)
    horizontal = math.hypot(cx - 10.0, cy - 10.0)
    assert horizontal == pytest.approx(tether * math.sin(amp), abs=1e-12)
    assert cz == pytest.approx(2.0 + tether * math.cos(amp), abs=1e-12)


def test_sway_periodicity():
    params = BalloonParams()
    b = _balloon(sway_phase=0.7, sway_azimuth=1.1)
    t = 3.21
    period = 1.0 / params.sway_frequency
    assert _center(params, b, t) == pytest.approx(_center(params, b, t + period))


def test_sway_centers_stay_inside_effective_volume():
    arena = Arena()
    lo, hi = arena.effective_min, arena.effective_max
    for seed in range(5):
        balloons = sample_balloon_layout(substream(seed, "layout"), arena, 5, 8.0)
        world = make_world(BalloonParams(), balloons)
        for k in range(1201):
            world = advance_world(world, k * 0.5)
            for x, y, z in world.centers:
                assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                assert 0.0 < z <= 5.0


def test_balloon_height_invariant_rejected():
    # A balloon over a 4.5 m anchor on a 1 m tether would float at 5.5 m.
    with pytest.raises(ValidationError) as err:
        build_scenario({
            "balloons.anchors": ((10.0, 10.0, 4.5),), "balloons.tether_length": 1.0,
        })
    assert err.value.key == "balloons.tether_length"


def test_pop_balloon_kills_and_is_idempotent():
    balloons = sample_balloon_layout(substream(0, "layout"), Arena(), 5, 8.0)
    world = make_world(BalloonParams(), balloons)
    world = pop_balloon(world, 2)
    assert world.centers[2] is None
    assert world.alive_count == 4
    again = pop_balloon(world, 2)
    assert again.alive_count == 4


def test_pop_unknown_balloon_raises():
    # A balloon's number is its index: -1 must not pop the last balloon,
    # nor len(centers) grow the world.
    world = make_world(
        BalloonParams(), sample_balloon_layout(substream(0, "layout"), Arena(), 2, 8.0)
    )
    for i in (99, -1, len(world.centers)):
        with pytest.raises(UnknownBalloon):
            pop_balloon(world, i)


def test_advance_world_requires_monotonic_time():
    world = make_world(
        BalloonParams(), sample_balloon_layout(substream(0, "layout"), Arena(), 2, 8.0)
    )
    world = advance_world(world, 5.0)
    with pytest.raises(ValueError):
        advance_world(world, 4.0)


def test_dead_balloons_never_resurrect():
    world = make_world(
        BalloonParams(), sample_balloon_layout(substream(3, "layout"), Arena(), 3, 8.0)
    )
    world = pop_balloon(world, 0)
    for t in (1.0, 2.0, 3.0):
        world = advance_world(world, t)
        assert world.centers[0] is None


def _reference_sway(params, b, t):
    """The sway formula written out for one balloon, ``2 pi f`` formed in
    place."""
    theta = params.sway_amplitude * math.sin(
        2.0 * math.pi * params.sway_frequency * t + b.sway_phase
    )
    horizontal = params.tether_length * math.sin(theta)
    ax, ay, az = b.anchor
    return (
        ax + horizontal * b.sway_cos,
        ay + horizontal * b.sway_sin,
        az + params.tether_length * math.cos(theta),
    )


def test_world_centers_equal_sway_exactly_with_pops_partway():
    # 10 worlds x 20 balloons with random sway, one balloon model drawn
    # per world, 50 increasing times; a few balloons are popped at random
    # times along the way.
    rng = random.Random(5)
    checked = 0
    for _ in range(10):
        params = BalloonParams(
            tether_length=rng.uniform(0.1, 2.0),
            sway_amplitude=rng.uniform(0.0, 1.5),
            sway_frequency=rng.uniform(-1.0, 3.0),
        )
        balloons = [
            make_balloon(
                (rng.uniform(5, 95), rng.uniform(5, 35), rng.uniform(0.5, 3.0)),
                rng,
            )
            for _ in range(20)
        ]
        world = make_world(params, balloons)
        popped = set()
        t = 0.0
        for _ in range(50):
            t += rng.expovariate(1 / 0.7)
            world = advance_world(world, t)
            if rng.random() < 0.3:
                victim = rng.randrange(0, 20)
                world = pop_balloon(world, victim)
                popped.add(victim)
            assert world.alive_count == 20 - len(popped)
            assert world.params is params
            for i, b in enumerate(world.balloons):
                c = world.centers[i]
                if i in popped:
                    assert c is None
                    continue
                assert c == _center(params, b, t) == _reference_sway(params, b, t)
                checked += 1
        assert popped
    assert checked > 5000


def test_make_world_centers_balloons_at_its_time():
    params = BalloonParams()
    balloons = sample_balloon_layout(substream(4, "layout"), Arena(), 5, 8.0)
    world = make_world(params, balloons, time=2.5)
    assert world.centers == tuple(_reference_sway(params, b, 2.5) for b in balloons)
    assert world.balloons[3] is balloons[3]
