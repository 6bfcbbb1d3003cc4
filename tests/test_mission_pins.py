"""Pins for mission paths the golden corpus does not cover.

No golden record collides with a wall, only one reaches the goal, and
none flies the car, runs MPC on a curved course or requests a lidar
scan.  These five missions do, and their ``mission_signature``s are
pinned: a change to how the environment steps, projects, detects
collisions, casts rays or reports its state must leave them
bit-identical.  The two DNN quadrotor missions are also flown on the
batched engine, one lane each (their worlds differ), which must
reproduce the same pins.

These missions fly the behavioural perception, which reads only the
camera packet's course metadata, so their packets carry zero frames
and no signature above depends on pixels.  The pixel path is pinned
separately, for a perception that reads it: two closed-loop
``CnnPerception`` missions, and the bytes one camera RPC delivers.
The non-reader's side of that contract (a zero frame with the reader's
shape and metadata, and no rasterizer call) is pinned last.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.app.perception import CnnPerception
from repro.batch import kernels, run_batch
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.dnn.resnet import build_trainable_trailnet
from repro.env import camera
from repro.scenario.generate import compile_config
from repro.sweep import mission_signature
from tests.test_geometry_pins import ZIGZAG

#: (config, signature); the comment gives what the mission exercises.
PINS = {
    # Two wall collisions on the s-shape course, 801 steps.
    "sshape-collisions": (
        CoSimConfig(
            world="s-shape", model="resnet6", target_velocity=9.0,
            max_sim_time=8.0, seed=3,
        ),
        "5586268585f09481486663325282c7249cde12ae22fc651dcd6b0e01cd08f9ba",
    ),
    # Reaches the tunnel goal at 6.93 s (693 steps).
    "tunnel-goal": (
        CoSimConfig(
            world="tunnel", model="resnet14", target_velocity=9.0,
            max_sim_time=8.0, seed=1,
        ),
        "cf378d9e1bd31acf34d7f435fbe6ef431ada22b5cf6a880e2feb72e7db6f1589",
    ),
    # The car on the s-shape course: one collision, 601 steps.
    "car-sshape": (
        CoSimConfig(
            world="s-shape", vehicle="car", model="resnet6",
            target_velocity=9.0, max_sim_time=6.0, seed=2,
        ),
        "3553132c77c835d17407324f1195fe5eb5a7faed0d4b422d1ce1ba8409610108",
    ),
    # MPC on the curved course: its rollout projects through
    # World.batch_course_frames every step, 100 steps.
    "sshape-mpc": (
        CoSimConfig(
            world="s-shape", controller="mpc", target_velocity=3.0,
            max_sim_time=1.0, seed=0,
        ),
        "21801fc67dca826dbe9b6ef913c2401760653ffc0cbf82ffad41335d76bf1d6e",
    ),
    # SLAM on the zigzag with a box and a diamond obstacle: 20 lidar
    # scans over 200 steps.
    "zigzag-slam": (
        replace(
            compile_config(ZIGZAG, max_sim_time=2.0),
            controller="slam", target_velocity=3.0,
        ),
        "533f9745972a0c5bb913f8352bfa614b9f4ba23f4a07756ea8ee50278d768176",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_serial_mission_matches_pin(name):
    config, signature = PINS[name]
    assert mission_signature(run_mission(config)) == signature


def test_batched_quadrotor_missions_match_pins():
    names = ["sshape-collisions", "tunnel-goal"]
    results = [run_batch([PINS[name][0]])[0] for name in names]
    assert [mission_signature(r) for r in results] == [PINS[n][1] for n in names]


@pytest.fixture(scope="module")
def trailnet():
    """The seeded, untrained TrailNet every pixel-path pin flies."""
    return build_trainable_trailnet(seed=7)


#: (config, signature, inference count) of closed-loop missions whose
#: perception is a CNN over the camera pixels.  The argmax policy reads
#: class predictions only, so float32 near-ties across BLAS builds
#: cannot move the pins.
CNN_PINS = {
    "tunnel-cnn": (
        CoSimConfig(
            world="tunnel", model="resnet6", target_velocity=3.0,
            max_sim_time=1.0, seed=0, argmax_policy=True,
        ),
        "fefe3a1656c2d0d910dab5b7da1bb1743fab79cc95ac00cf09140321ee4302c7",
        19,
    ),
    "sshape-cnn": (
        CoSimConfig(
            world="s-shape", model="resnet6", target_velocity=9.0,
            max_sim_time=2.0, seed=0, argmax_policy=True,
        ),
        "d023b33892c52f565c318ca13cfa80f35b7cb7fd78d6257828710e12fae5993e",
        39,
    ),
}


@pytest.mark.parametrize("name", sorted(CNN_PINS))
def test_cnn_mission_matches_pin(name, trailnet):
    config, signature, inferences = CNN_PINS[name]
    result = run_mission(config, perception=CnnPerception(trailnet))
    assert result.inference_count == inferences
    assert mission_signature(result) == signature


#: sha256 of the 32x48 frame one camera RPC returns right after takeoff.
CAMERA_PINS = {
    ("tunnel", 0): "3c42a963b46f2fd027445b84ec53ecabc9791f5a4ac8109ca94cbe25b32d2916",
    ("s-shape", 3): "2545b168c3b51ace46b7b2b02571a7b76f44e8331a56594e8f403f5d93140eb4",
}


def _first_frame(config, perception=None) -> dict:
    cosim = CoSimulation(config, perception=perception)
    cosim.rpc.takeoff()
    return cosim.rpc.get_camera_image()


@pytest.mark.parametrize("world, seed", sorted(CAMERA_PINS))
def test_camera_rpc_pixels_match_pin(world, seed, trailnet):
    # The frame a pixel reader is served; a non-reader gets zeros.
    image = _first_frame(CoSimConfig(world=world, seed=seed), CnnPerception(trailnet))
    pixels = image["pixels"]
    assert len(pixels) == 32 * 48
    assert hashlib.sha256(pixels).hexdigest() == CAMERA_PINS[world, seed]


@pytest.mark.parametrize("world, seed", sorted(CAMERA_PINS))
def test_non_reader_camera_rpc_serves_zero_frame(world, seed, trailnet):
    config = CoSimConfig(world=world, seed=seed)
    blank = _first_frame(config)
    read = _first_frame(config, CnnPerception(trailnet))
    assert blank["pixels"] == bytes(32 * 48)
    assert (blank["height"], blank["width"]) == (32, 48)
    # Shape, timestamp and course metadata are the reader's.
    assert {k: v for k, v in blank.items() if k != "pixels"} == {
        k: v for k, v in read.items() if k != "pixels"
    }


def test_behavioural_missions_never_rasterize(monkeypatch):
    config = CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0, seed=0)
    serial = run_mission(config)

    def no_render(*_args, **_kwargs):
        raise AssertionError("a mission that reads no pixels rendered a frame")

    monkeypatch.setattr(camera, "render_lanes", no_render)
    monkeypatch.setattr(kernels, "render_lanes", no_render)
    flown = run_mission(config)
    (batched,) = run_batch([config])
    assert flown.sync_stats.camera_requests > 0
    assert batched.sync_stats.camera_requests > 0
    assert mission_signature(flown) == mission_signature(serial)
    assert mission_signature(batched) == mission_signature(serial)
