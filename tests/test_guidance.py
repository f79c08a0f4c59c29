import math
import random

import pytest

from bhsim.guidance import desired_yaw, velocity_command_camera, yaw_rate_command
from bhsim.vehicle import camera_to_world
from oracles import R_CAM_TO_BODY, allclose, mat_vec, ref_body_to_vehicle


def to_vehicle_frame(v_camera, yaw):
    """Camera -> NED through camera_to_world (undo its world z flip)."""
    x, y, z = camera_to_world(v_camera, yaw)
    return (x, y, -z)


def test_los_centered_target():
    assert velocity_command_camera(0.0, 0.0, 600.0, 1.0) == pytest.approx((0, 0, 1))


def test_los_45_degree_symmetry():
    out = velocity_command_camera(600.0, 0.0, 600.0, 1.0)
    s = 1 / math.sqrt(2)
    assert out == pytest.approx((s, 0.0, s), abs=1e-12)


def test_los_3_4_12_13_quadruple():
    # Oracle: direct evaluation with the 3-4-12-13 Pythagorean quadruple.
    out = velocity_command_camera(300.0, 400.0, 1200.0, 1.0)
    assert out == pytest.approx((3 / 13, 4 / 13, 12 / 13), abs=1e-12)
    assert out == pytest.approx((0.230769, 0.307692, 0.923077), abs=1e-6)


def test_los_unit_norm():
    rng = random.Random(0)
    for _ in range(1000):
        px, py = rng.uniform(-2000, 2000), rng.uniform(-2000, 2000)
        f = rng.uniform(1.0, 3000.0)
        out = velocity_command_camera(px, py, f, 1.0)
        assert math.sqrt(sum(c * c for c in out)) == pytest.approx(1.0, abs=1e-12)


def test_los_scale_invariance():
    rng = random.Random(1)
    for _ in range(500):
        px, py = rng.uniform(-500, 500), rng.uniform(-500, 500)
        f = rng.uniform(100.0, 2000.0)
        k = rng.uniform(0.01, 100.0)
        a = velocity_command_camera(px, py, f, 1.0)
        b = velocity_command_camera(k * px, k * py, k * f, 1.0)
        assert a == pytest.approx(b, abs=1e-12)


def test_velocity_command_centered_forward_only():
    out = velocity_command_camera(0.0, 0.0, 600.0, 2.0)
    assert out == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)


def test_velocity_command_derived_scaling():
    out = velocity_command_camera(300.0, 400.0, 1200.0, 1.3)
    assert out == pytest.approx((0.3, 0.4, 1.2), abs=1e-9)


def test_velocity_command_norm_equals_speed():
    rng = random.Random(2)
    for _ in range(1000):
        px, py = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
        f = rng.uniform(10.0, 2000.0)
        speed = rng.uniform(0.1, 5.0)
        out = velocity_command_camera(px, py, f, speed)
        assert math.sqrt(sum(c * c for c in out)) == pytest.approx(speed, abs=1e-9)


def test_desired_yaw_horizontal_offset_mode():
    assert desired_yaw(600.0, 600.0) == pytest.approx(math.pi / 4)
    assert desired_yaw(0.0, 600.0) is None


def test_to_vehicle_frame_identity():
    # At yaw 0 the heading rotation is the identity and only the mount
    # permutation remains.
    v = (0.3, -0.2, 1.1)
    assert to_vehicle_frame(v, 0.0) == (1.1, 0.3, -0.2)
    assert to_vehicle_frame(v, 0.0) == pytest.approx(
        tuple(mat_vec(R_CAM_TO_BODY, v)), abs=1e-15
    )


def test_to_vehicle_frame_forward_mount_yaw_zero():
    # Oracle: the fixed mount permutation composed with identity yaw
    # sends the optic axis onto the vehicle's north axis.
    out = to_vehicle_frame((0.0, 0.0, 2.0), 0.0)
    assert out == pytest.approx((2.0, 0.0, 0.0), abs=1e-12)


def test_to_vehicle_frame_quarter_turn():
    out = to_vehicle_frame((0.0, 0.0, 2.0), math.pi / 2)
    assert out == pytest.approx((0.0, 2.0, 0.0), abs=1e-12)


def test_to_vehicle_frame_preserves_norm():
    rng = random.Random(3)
    for _ in range(2000):
        v = tuple(rng.uniform(-3, 3) for _ in range(3))
        yaw = rng.uniform(-math.pi, math.pi)
        out = to_vehicle_frame(v, yaw)
        assert math.sqrt(sum(c * c for c in out)) == pytest.approx(
            math.sqrt(sum(c * c for c in v)), abs=1e-12
        )
        expected = mat_vec(ref_body_to_vehicle(yaw), mat_vec(R_CAM_TO_BODY, v))
        assert allclose(out, expected, rtol=0, atol=1e-12)


def test_yaw_rate_command_cases():
    assert yaw_rate_command(1.0, 1.0, 1.0, 0.5) == 0.0
    assert yaw_rate_command(math.pi / 2, 0.0, 1.0, 0.5) == pytest.approx(0.5)
    assert yaw_rate_command(-0.1, 0.0, 1.0, 0.5) == pytest.approx(-0.1)


def test_yaw_rate_command_wraps_error():
    # Desired just past -pi from current: shortest way is negative.
    out = yaw_rate_command(math.pi - 0.1, -math.pi + 0.1, 1.0, 5.0)
    assert out == pytest.approx(-0.2, abs=1e-12)


def test_guidance_is_memoryless():
    t = (123.4, -56.7, 640.0)
    assert velocity_command_camera(*t, 1.5) == velocity_command_camera(*t, 1.5)
    assert velocity_command_camera(*t, 1.0) == velocity_command_camera(*t, 1.0)
