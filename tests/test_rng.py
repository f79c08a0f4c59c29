"""The random stream contract: every draw a run makes is pinned here.

A run is a pure function of (scenario, seed) only while these streams
are.  The literal draws below fail loudly if a Python upgrade, or a
change to ``bhsim.rng``, moves them; the moments check the samplers
themselves.
"""

import copy
import math
import pickle
import random
import statistics

import pytest

from bhsim.rng import Stream, derive_seed, substream

N_MOMENT_DRAWS = 100_000


def test_derive_seed_is_pinned():
    assert derive_seed(0, "layout") == 10626604749375226476


def test_first_uniforms_of_the_layout_stream_are_pinned():
    s = substream(0, "layout")
    assert [s.random() for _ in range(4)] == [
        0.7138302848486318,
        0.44748810572827136,
        0.8512110516348125,
        0.6517963678018128,
    ]


def test_first_normals_and_counts_of_a_perception_stream_are_pinned():
    s = substream(0, "perception.0")
    assert [s.standard_normal() for _ in range(4)] == [
        -0.04340043090551934,
        1.5436116863831348,
        0.6334035121348455,
        0.48424118550857526,
    ]
    assert [s.poisson(5.0) for _ in range(6)] == [5, 8, 9, 7, 1, 4]
    assert [s.poisson(0.1) for _ in range(6)] == [0, 0, 0, 1, 0, 0]


def test_a_stream_is_a_random_random_seeded_with_its_derived_seed():
    s = substream(3, "perception.1")
    ref = random.Random(derive_seed(3, "perception.1"))
    assert isinstance(s, random.Random)
    assert [s.random() for _ in range(10)] == [ref.random() for _ in range(10)]


def test_standard_normal_moments():
    # Tolerance: five standard errors of the sample mean (1 / sqrt(n))
    # and of the sample variance (sqrt(2 / n)).
    s = substream(1, "moments.normal")
    xs = [s.standard_normal() for _ in range(N_MOMENT_DRAWS)]
    assert all(type(x) is float for x in xs)
    assert statistics.fmean(xs) == pytest.approx(0.0, abs=5.0 / math.sqrt(N_MOMENT_DRAWS))
    assert statistics.pvariance(xs) == pytest.approx(
        1.0, abs=5.0 * math.sqrt(2.0 / N_MOMENT_DRAWS)
    )


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_poisson_moments(lam):
    # Tolerance: five standard errors of the sample mean (sqrt(lam / n))
    # and of the sample variance (sqrt((lam + 2 lam^2) / n)).
    s = substream(1, f"moments.poisson.{lam}")
    ks = [s.poisson(lam) for _ in range(N_MOMENT_DRAWS)]
    assert all(type(k) is int and k >= 0 for k in ks)
    assert statistics.fmean(ks) == pytest.approx(
        lam, abs=5.0 * math.sqrt(lam / N_MOMENT_DRAWS)
    )
    assert statistics.pvariance(ks) == pytest.approx(
        lam, abs=5.0 * math.sqrt((lam + 2.0 * lam * lam) / N_MOMENT_DRAWS)
    )


def test_poisson_of_rate_zero_is_zero():
    s = substream(0, "zero")
    assert [s.poisson(0.0) for _ in range(100)] == [0] * 100


def test_the_cached_spare_is_part_of_the_stream_state():
    # ``a`` draws one normal and keeps the spare; ``b`` consumes the
    # same uniforms directly.  Their generators agree, so only a state
    # that includes the spare can tell the streams apart.
    a, b = substream(5, "spare"), substream(5, "spare")
    a.standard_normal()
    for _ in range(100):
        if random.Random.getstate(b) == random.Random.getstate(a):
            break
        b.random()
    assert random.Random.getstate(a) == random.Random.getstate(b)
    assert a.getstate() != b.getstate()
    # Once ``a`` hands out its spare the two states agree again.
    a.standard_normal()
    assert a.getstate() == b.getstate()


def test_state_round_trips_with_the_spare():
    a = substream(6, "round-trip")
    a.standard_normal()
    for clone in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone.getstate() == a.getstate()
    b = Stream()
    b.setstate(a.getstate())
    assert [b.standard_normal() for _ in range(5)] == [a.standard_normal() for _ in range(5)]


def test_reseeding_drops_the_spare():
    a = substream(7, "reseed")
    a.standard_normal()
    a.seed(11)
    assert a.getstate() == Stream(11).getstate()
