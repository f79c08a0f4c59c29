import dataclasses
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from bhsim.perception import (
    ZERO_NOISE,
    CameraIntrinsics,
    DegenerateCircle,
    Detection,
    NoiseModel,
    estimate_range,
    fit_circle,
    generate_detections,
)
from bhsim import sim
from bhsim.rng import substream
from bhsim.scenario import load_scenario
from bhsim.tracking import BoxMeasurement
from bhsim.vehicle import UavState
from bhsim.world import Balloon, BalloonParams, make_balloon, make_world, pop_balloon
from oracles import mat_vec, project_point, ref_camera_to_world, transpose

CAM = CameraIntrinsics(focal_px=600.0, width_px=1280.0, height_px=720.0)


def _pose(position=(0.0, 0.0, 0.0), yaw=0.0):
    return UavState(position=position, yaw=yaw)


def exact_sphere_radius_px(focal_px: float, radius_m: float, depth_m: float) -> float:
    """Test oracle: exact perspective contour radius of a sphere on axis."""
    return focal_px * radius_m / math.sqrt(depth_m**2 - radius_m**2)


def _still_world(*centers, diameter=0.45):
    # A still balloon on a 1 m tether sits exactly 1 m above its anchor.
    return make_world(
        BalloonParams(diameter=diameter, sway_amplitude=0.0),
        [Balloon((x, y, z - 1.0), 0.0, 1.0, 0.0) for x, y, z in centers],
    )


def test_project_point_on_axis():
    # Forward camera at yaw 0 looks along +x; a point 5 m ahead at the
    # same height is on the optic axis.
    out = project_point(CAM, _pose(position=(0.0, 0.0, 3.0)), (5.0, 0.0, 3.0))
    assert out is not None
    px, py, depth = out
    assert (px, py) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert depth == pytest.approx(5.0)


def test_project_point_behind_camera_is_none():
    assert project_point(CAM, _pose(), (-5.0, 0.0, 0.0)) is None


def test_project_point_direct_pinhole_value():
    # Oracle: camera-frame point (1, 0, 6) -> p_x = 600 * 1/6 = 100.
    # With the forward mount at yaw 0, camera (1, 0, 6) is world (6, 1, 0).
    out = project_point(CAM, _pose(), (6.0, 1.0, 0.0))
    assert out is not None
    px, py, depth = out
    assert px == pytest.approx(100.0, abs=1e-9)
    assert py == pytest.approx(0.0, abs=1e-9)
    assert depth == pytest.approx(6.0)


def test_project_point_matches_matrix_reference():
    rng = random.Random(17)
    checked = 0
    for _ in range(2000):
        pos = tuple(rng.uniform(0.0, 20.0) for _ in range(3))
        yaw = rng.uniform(-4.0, 4.0)
        point = tuple(rng.uniform(0.0, 20.0) for _ in range(3))
        cam = mat_vec(transpose(ref_camera_to_world(yaw)),
                      [p - q for p, q in zip(point, pos)])
        out = project_point(CAM, _pose(position=pos, yaw=yaw), point)
        if cam[2] <= 1e-6:
            assert out is None
            continue
        u = 640.0 + 600.0 * cam[0] / cam[2]
        v = 360.0 + 600.0 * cam[1] / cam[2]
        if not (1e-6 < u < 1280.0 - 1e-6 and 1e-6 < v < 720.0 - 1e-6):
            continue
        assert out is not None
        assert out[2] == pytest.approx(cam[2], rel=0, abs=1e-12)
        assert out[:2] == pytest.approx((u - 640.0, v - 360.0), rel=1e-12, abs=1e-9)
        checked += 1
    assert checked > 200


def test_project_point_outside_image_is_none():
    # 45 deg horizontal FoV edge is at p_x = 640 for f=600: slightly
    # beyond the half-width lands off-image.
    out = project_point(CAM, _pose(), (5.0, 5.56, 0.0))
    assert out is None


def test_generate_detections_empty_when_behind():
    world = _still_world((-10.0, 0.0, 3.0))
    dets = generate_detections(CAM, _pose(position=(0, 0, 3)), world, ZERO_NOISE,
                               substream(0, "p"))
    assert dets == []


def test_a_balloon_at_depth_exactly_zero_is_not_detected():
    # Due +y of a camera looking along +x: the depth is exactly 0.0, and
    # the balloon is not in front of the camera.
    world = make_world(
        BalloonParams(tether_length=0.0, sway_amplitude=0.0),
        [Balloon((10.0, 25.0, 4.0), 0.0, 1.0, 0.0)],
    )
    assert world.centers == ((10.0, 25.0, 4.0),)
    dets = generate_detections(CAM, _pose(position=(10.0, 20.0, 4.0)), world,
                               ZERO_NOISE, substream(0, "p"))
    assert dets == []


def test_generate_detections_zero_noise_size_oracle():
    # Oracle: small-angle width f * D / Z = 600 * 0.45 / 5 = 54 px.
    world = _still_world((5.0, 0.0, 3.0))
    dets = generate_detections(CAM, _pose(position=(0, 0, 3)), world, ZERO_NOISE,
                               substream(0, "p"))
    assert len(dets) == 1
    d = dets[0]
    assert (d.center_x, d.center_y) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert d.width == pytest.approx(54.0, abs=1e-9)
    assert d.height == pytest.approx(54.0, abs=1e-9)
    assert d.truth_id == 0


def test_generate_detections_forced_miss():
    noise = NoiseModel(p_miss_base=1.0, false_alarm_rate=0.0)
    world = _still_world((5.0, 0.0, 3.0))
    dets = generate_detections(CAM, _pose(position=(0, 0, 3)), world, noise,
                               substream(0, "p"))
    assert dets == []


def test_generate_detections_deterministic_zero_noise():
    world = _still_world((5.0, 1.0, 3.0), (9.0, -2.0, 3.0))
    a = generate_detections(CAM, _pose(position=(0, 0, 3)), world, ZERO_NOISE,
                            substream(1, "p"))
    b = generate_detections(CAM, _pose(position=(0, 0, 3)), world, ZERO_NOISE,
                            substream(1, "p"))
    assert a == b
    for d in a:
        proj = project_point(CAM, _pose(position=(0, 0, 3)),
                             world.centers[d.truth_id])
        assert (d.center_x, d.center_y) == pytest.approx(proj[:2], abs=1e-9)


def ref_generate_detections(camera, uav, world, noise, rng):
    """Per-balloon reference: ``project_point`` for each alive center,
    then the same occlusion test, draws and boxes.  A balloon's truth id
    is its index in the world, and it never occludes itself."""
    visible = []
    diameter = world.params.diameter
    for i, center in enumerate(world.centers):
        if center is None:
            continue
        proj = project_point(camera, uav, center)
        if proj is not None:
            visible.append((i, proj))
    detections = []
    for i, (px, py, depth) in visible:
        if any(
            od < depth and j != i
            and math.hypot(px - ox, py - oy)
            < camera.focal_px * diameter / (2.0 * od)
            for j, (ox, oy, od) in visible
        ):
            continue
        p_miss = min(1.0, noise.p_miss_base + noise.p_miss_range_scale * depth)
        if rng.random() < p_miss:
            continue
        size = camera.focal_px * diameter / depth
        cx = px + noise.center_sigma * rng.standard_normal()
        cy = py + noise.center_sigma * rng.standard_normal()
        factor = max(0.05, 1.0 + noise.size_sigma_frac * rng.standard_normal())
        confidence = max(noise.confidence_floor, 1.0 - depth / 50.0)
        detections.append(Detection(cx, cy, size * factor, size * factor,
                                    confidence, i))
    if noise.false_alarm_rate > 0.0:
        for _ in range(int(rng.poisson(noise.false_alarm_rate))):
            cx = camera.width_px * rng.random() - camera.principal[0]
            cy = camera.height_px * rng.random() - camera.principal[1]
            size = 2.0 + 28.0 * rng.random()
            floor = noise.confidence_floor
            conf = floor + (1.0 - floor) * rng.random()
            detections.append(Detection(cx, cy, size, size, conf, None))
    return detections


def test_generate_detections_equals_per_balloon_reference():
    # Random poses looking over 12 balloons of one random diameter per
    # world, some popped, with noise on: the same detections and the same stream state, spare normal
    # included, as the reference.
    noise = NoiseModel(false_alarm_rate=0.5, p_miss_range_scale=0.01)
    rng = random.Random(31)
    layout = substream(0, "layout")
    compared = 0
    for trial in range(300):
        params = BalloonParams(diameter=rng.uniform(0.3, 0.9))
        balloons = [
            make_balloon((rng.uniform(0, 40), rng.uniform(-20, 20),
                          rng.uniform(1.0, 3.0)), layout)
            for _ in range(12)
        ]
        world = make_world(params, balloons, time=rng.uniform(0, 100))
        for victim in rng.sample(range(12), rng.randrange(0, 4)):
            world = pop_balloon(world, victim)
        pose = _pose(position=(rng.uniform(-5, 10), rng.uniform(-10, 10),
                               rng.uniform(1, 5)),
                     yaw=rng.uniform(-4, 4))
        ours, theirs = substream(trial, "p"), substream(trial, "p")
        got = generate_detections(CAM, pose, world, noise, ours)
        want = ref_generate_detections(CAM, pose, world, noise, theirs)
        assert got == want
        assert ours.getstate() == theirs.getstate()
        compared += sum(1 for d in got if d.truth_id is not None)
    assert compared > 300

    # Stacked layouts for the occlusion test: still balloons in chains of
    # 3-5 seen from a camera at yaw 0, where depth is exactly the x
    # offset.  A chain either sits at one depth (equal depths never
    # occlude) or steps away so each link hides the next; balloons are
    # listed in shuffled order, and half the layouts pop the nearest one.
    pose = _pose(position=(0.0, 0.0, 3.0))
    hidden = equal_depth = 0
    for trial in range(300):
        centers = []
        for _ in range(rng.randrange(2, 4)):
            x, y, z = rng.uniform(3.0, 12.0), rng.uniform(-2.0, 2.0), rng.uniform(2.0, 4.0)
            step = rng.choice([0.0, 0.5, 1.0])
            equal_depth += step == 0.0
            for _ in range(rng.randrange(3, 6)):
                centers.append((x, y, z))
                x += step
                y += rng.uniform(-0.05, 0.05)
                z += rng.uniform(-0.05, 0.05)
        world = _still_world(
            *rng.sample(centers, len(centers)),
            diameter=rng.uniform(0.3, 0.9),
        )
        if trial % 2:
            nearest = min(range(len(centers)), key=lambda i: world.centers[i][0])
            world = pop_balloon(world, nearest)
        ours, theirs = substream(trial, "s"), substream(trial, "s")
        got = generate_detections(CAM, pose, world, noise, ours)
        want = ref_generate_detections(CAM, pose, world, noise, theirs)
        assert got == want
        assert ours.getstate() == theirs.getstate()
        in_view = sum(1 for c in world.centers
                      if c is not None and project_point(CAM, pose, c) is not None)
        seen = generate_detections(CAM, pose, world, ZERO_NOISE, substream(trial, "z"))
        hidden += in_view - len(seen)
    assert hidden > 1000 and equal_depth > 100


def test_occlusion_hides_balloon_behind_another():
    # The far center lies inside the near balloon's disc.
    world = _still_world((5.0, 0.0, 3.0), (15.0, 0.1, 3.0))
    dets = generate_detections(CAM, _pose(position=(0, 0, 3)), world, ZERO_NOISE,
                               substream(0, "p"))
    assert [d.truth_id for d in dets] == [0]


def test_false_alarms_poisson_rate():
    noise = NoiseModel(p_miss_base=1.0, false_alarm_rate=0.5)
    world = _still_world((5.0, 0.0, 3.0))
    rng = substream(0, "p")
    total = sum(
        len(generate_detections(CAM, _pose(position=(0, 0, 3)), world, noise, rng))
        for _ in range(2000)
    )
    assert total / 2000 == pytest.approx(0.5, abs=0.06)
    # false alarms never carry a truth id
    dets = generate_detections(CAM, _pose(position=(0, 0, 3)), world, noise, rng)
    assert all(d.truth_id is None for d in dets)


def test_fit_circle_square_box():
    assert fit_circle(54.0, 54.0) == pytest.approx(27.0)


def test_fit_circle_major_axis_rule():
    assert fit_circle(60.0, 40.0) == pytest.approx(30.0)
    assert fit_circle(40.0, 60.0) == pytest.approx(30.0)


def test_estimate_range_examples():
    # Oracles: inversion of the small-angle projection, f * D / (2 r).
    assert estimate_range(27.0, CAM, 0.45) == pytest.approx(5.0)
    assert estimate_range(300.0, CAM, 0.45) == pytest.approx(0.45)
    assert estimate_range(2.7, CAM, 0.45) == pytest.approx(50.0)


def test_estimate_range_degenerate_circle():
    with pytest.raises(DegenerateCircle):
        estimate_range(0.4, CAM, 0.45)


def test_range_inversion_against_exact_sphere_oracle():
    # Generate the box from the exact perspective sphere contour and
    # recover depth with the small-angle inverse: error stays under 2%.
    radius_m = 0.225
    for depth in range(2, 41):
        r_px = exact_sphere_radius_px(600.0, radius_m, float(depth))
        est = estimate_range(r_px, CAM, 0.45)
        assert abs(est - depth) / depth < 0.02


def test_tracker_measurement_type_excludes_truth(monkeypatch):
    # Layering: the tracker's input type carries geometry only, whether it
    # is a NamedTuple or a dataclass.
    fields = getattr(BoxMeasurement, "_fields", None)
    if fields is None:
        fields = [f.name for f in dataclasses.fields(BoxMeasurement)]
    assert sorted(fields) == sorted(["center_x", "center_y", "width", "height"])
    # A detection has the same four attributes first, so a run must hand
    # the tracker exactly that type, never the detections themselves.
    seen = set()
    real = sim.step_tracker

    def recording(tracker, measurements):
        seen.update(type(m) for m in measurements)
        return real(tracker, measurements)

    monkeypatch.setattr(sim, "step_tracker", recording)
    s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "default.cfg")
    sim.run_simulation(replace(s, sim=s.sim._replace(duration_limit=5.0)))
    assert seen == {BoxMeasurement}
