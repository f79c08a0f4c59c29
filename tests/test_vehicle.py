import math
import random

import pytest

from bhsim.vehicle import (
    Geofence,
    UavParams,
    UavState,
    camera_to_world,
    clamp_to_geofence,
    geofence_from_arena,
    step_uav,
    wrap_angle,
)
from bhsim.world import Arena
from oracles import (
    NED_TO_WORLD,
    allclose,
    det3,
    identity,
    mat_mul,
    mat_sub,
    mat_vec,
    ref_camera_to_world,
    transpose,
    world_to_camera,
)


def _matrix(fn, yaw):
    """Columns are the images of the unit vectors under ``fn``."""
    basis = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return transpose([list(fn(e, yaw)) for e in basis])


def _uav(**kw):
    base = dict(position=(0.0, 0.0, 0.0))
    base.update(kw)
    return UavState(**base)


def test_step_zero_command_from_rest_holds_position():
    out = step_uav(_uav(), (0.0, 0.0, 0.0), 0.0, 0.05)
    assert out.position == (0.0, 0.0, 0.0)
    assert out.velocity == (0.0, 0.0, 0.0)


def test_first_order_lag_matches_exact_discretization():
    # Oracle: closed-form first order response v = cmd * (1 - exp(-dt/tau)).
    params = UavParams(tau=0.3)
    out = step_uav(_uav(), (2.0, 0.0, 0.0), 0.0, 0.3, params)
    expected = 2.0 * (1.0 - math.exp(-1.0))
    assert out.velocity[0] == pytest.approx(expected, abs=1e-9)
    assert out.position[0] == pytest.approx(expected * 0.3, abs=1e-9)


def test_yaw_pure_integration():
    out = step_uav(_uav(), (0.0, 0.0, 0.0), 0.5, 1.0)
    assert out.yaw == pytest.approx(0.5)


def test_yaw_rate_clamped():
    out = step_uav(_uav(), (0.0, 0.0, 0.0), 99.0, 1.0, UavParams(yaw_rate_max=1.5))
    assert out.yaw == pytest.approx(1.5)


def test_speed_never_exceeds_v_max():
    params = UavParams(v_max=2.0)
    state = _uav()
    rng = random.Random(7)
    for _ in range(2000):
        cmd = tuple(rng.uniform(-10, 10) for _ in range(3))
        state = step_uav(state, cmd, rng.uniform(-3, 3), 0.05, params)
        assert state.speed <= 2.0 + 1e-9


def test_camera_mount_permutation():
    # At yaw 0 the optic axis points north, camera x (right) east, and
    # camera y (down) along world -z.
    assert camera_to_world((0.0, 0.0, 1.0), 0.0) == (1.0, 0.0, 0.0)
    assert camera_to_world((1.0, 0.0, 0.0), 0.0) == (0.0, 1.0, 0.0)
    assert camera_to_world((0.0, 1.0, 0.0), 0.0) == (0.0, 0.0, -1.0)
    # Camera -> NED (undo the world z flip) is a proper rotation.
    m = mat_mul(NED_TO_WORLD, _matrix(camera_to_world, 0.0))
    assert allclose(mat_mul(transpose(m), m), identity(3), atol=1e-12)
    assert det3(m) == pytest.approx(1.0, abs=1e-12)


def test_camera_to_world_matches_matrix_reference():
    rng = random.Random(21)
    for _ in range(2000):
        v = tuple(rng.uniform(-5, 5) for _ in range(3))
        yaw = rng.uniform(-4.0, 4.0)
        expected = mat_vec(ref_camera_to_world(yaw), v)
        assert allclose(camera_to_world(v, yaw), expected, rtol=0, atol=1e-12)
        back = mat_vec(transpose(ref_camera_to_world(yaw)), v)
        assert allclose(world_to_camera(v, yaw), back, rtol=0, atol=1e-12)


def test_yaw_rotation_identity_and_quarter_turn():
    assert allclose(_matrix(camera_to_world, 0.0), ref_camera_to_world(0.0),
                    atol=1e-15)
    out = camera_to_world((0.0, 0.0, 1.0), math.pi / 2)
    assert allclose(out, [0.0, 1.0, 0.0], atol=1e-12)
    out = camera_to_world((1.0, 0.0, 0.0), math.pi / 2)
    assert allclose(out, [-1.0, 0.0, 0.0], atol=1e-12)


def test_yaw_rotation_group_property():
    # Back to the camera at yaw 0, then out at yaw a, equals one
    # rotation by a + b.
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        v = tuple(rng.uniform(-3, 3) for _ in range(3))
        lhs = camera_to_world(world_to_camera(camera_to_world(v, b), 0.0), a)
        rhs = camera_to_world(v, a + b)
        assert allclose(lhs, rhs, atol=1e-12)


def test_rotation_products_stay_orthonormal_over_many_compositions():
    # Composing a million small yaw rotations must not drift off the
    # rotation group by more than 1e-9.
    rng = random.Random(11)
    acc = identity(3)
    for _ in range(1_000_000):
        a = rng.uniform(-0.1, 0.1)
        c, s = math.cos(a), math.sin(a)
        acc = mat_mul([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], acc)
    drift = mat_sub(mat_mul(transpose(acc), acc), identity(3))
    assert max(abs(x) for row in drift for x in row) < 1e-9
    assert det3(acc) == pytest.approx(1.0, abs=1e-9)


def test_ned_world_round_trip():
    # world_to_camera inverts camera_to_world; the z flip sends the
    # camera's down axis to world -z at every heading.
    rng = random.Random(13)
    for _ in range(500):
        v = tuple(rng.uniform(-5, 5) for _ in range(3))
        yaw = rng.uniform(-math.pi, math.pi)
        assert world_to_camera(camera_to_world(v, yaw), yaw) == pytest.approx(
            v, abs=1e-12
        )
        assert camera_to_world((0.0, 1.0, 0.0), yaw)[2] == -1.0
    assert camera_to_world((0.0, 0.0, 2.0), 0.0)[2] == 0.0


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.25) == pytest.approx(0.25)


FENCE = Geofence(lo=(0.0, 0.0, 0.0), hi=(10.0, 10.0, 6.0))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_geofence_contains_its_faces_and_nothing_an_ulp_past(axis):
    fence = Geofence(lo=(-3.5, 0.0, 0.1), hi=(10.0, 1e-3, 6.0))
    inside = list(fence.center)
    for end, outward in ((fence.lo[axis], -math.inf), (fence.hi[axis], math.inf)):
        p = list(inside)
        p[axis] = end
        assert fence.contains(tuple(p))
        p[axis] = math.nextafter(end, outward)
        assert not fence.contains(tuple(p))
        p[axis] = math.nextafter(end, -outward)
        assert fence.contains(tuple(p))
    p = list(inside)
    p[axis] = math.nan
    assert not fence.contains(tuple(p))


def test_clamp_interior_passes_through():
    cmd = (1.0, -1.0, 0.5)
    assert clamp_to_geofence((5.0, 5.0, 3.0), cmd, FENCE, 1.0, 2.0) == cmd


def test_clamp_zeroes_outward_component_at_face():
    out = clamp_to_geofence((9.0, 5.0, 3.0), (2.0, 0.3, -0.2), FENCE, 1.0, 2.0)
    assert out == (0.0, 0.3, -0.2)


def test_clamp_outside_points_toward_center_at_v_max():
    # Oracle: unit vector toward the box center scaled to v_max.
    pos = (11.0, 5.0, 3.0)
    out = clamp_to_geofence(pos, (5.0, 5.0, 5.0), FENCE, 1.0, 2.0)
    center = FENCE.center
    direction = [c - p for c, p in zip(center, pos)]
    expected = [2.0 * d / math.hypot(*direction) for d in direction]
    assert allclose(out, expected, atol=1e-12)
    assert math.hypot(*out) == pytest.approx(2.0)


def _clamp_oracle(position, velocity_cmd, fence, margin, v_max):
    """``clamp_to_geofence`` in its loop form, before it was unrolled."""
    if not fence.contains(position):
        cx, cy, cz = fence.center
        dx, dy, dz = cx - position[0], cy - position[1], cz - position[2]
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            return (0.0, 0.0, 0.0)
        k = v_max / norm
        return (dx * k, dy * k, dz * k)
    out = list(velocity_cmd)
    for i in range(3):
        if position[i] >= fence.hi[i] - margin and out[i] > 0.0:
            out[i] = 0.0
        if position[i] <= fence.lo[i] + margin and out[i] < 0.0:
            out[i] = 0.0
    return (out[0], out[1], out[2])


def test_clamp_equals_its_loop_form_on_random_and_boundary_inputs():
    # Positions on each face of the soft band (hi - margin, lo + margin),
    # on the fence itself, inside it and outside it; commands of +-0.0
    # and of either sign.  repr tells -0.0 from 0.0.
    fence = geofence_from_arena(Arena())
    rng = random.Random(28)
    cmds = [0.0, -0.0, 1.5, -1.5, 1e-300, -1e-300]
    for margin in (0.0, 1.0, 0.3):
        marks = [
            [lo, lo + margin, hi - margin, hi, (lo + hi) / 2, lo - 0.5, hi + 0.5]
            for lo, hi in zip(fence.lo, fence.hi)
        ]
        for _ in range(20000):
            pos = tuple(
                rng.choice(m) if rng.random() < 0.7 else rng.uniform(m[0] - 1, m[3] + 1)
                for m in marks
            )
            cmd = tuple(
                rng.choice(cmds) if rng.random() < 0.5 else rng.uniform(-3, 3)
                for _ in range(3)
            )
            expected = _clamp_oracle(pos, cmd, fence, margin, 2.0)
            assert repr(clamp_to_geofence(pos, cmd, fence, margin, 2.0)) == repr(expected)


def test_geofence_from_arena_soft_band_is_effective_volume():
    arena = Arena()
    fence = geofence_from_arena(arena)
    assert fence.lo == (4.0, 4.0, 0.0)
    assert fence.hi == (96.0, 36.0, 6.0)


def test_geofence_invariant_under_clamped_random_walk():
    # With clamping active the fence is never crossed, even under
    # adversarial random commands.
    fence = geofence_from_arena(Arena())
    params = UavParams()
    state = _uav(position=(50.0, 20.0, 3.0))
    rng = random.Random(5)
    for _ in range(5000):
        cmd = tuple(rng.uniform(-4, 4) for _ in range(3))
        cmd = clamp_to_geofence(state.position, cmd, fence, 1.0, params.v_max)
        state = step_uav(state, cmd, 0.0, 0.05, params)
        assert fence.contains(state.position)
