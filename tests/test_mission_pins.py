"""Pins for mission paths the golden corpus does not cover.

No golden record collides with a wall, only one reaches the goal, and
none flies the car.  These three missions do, and their
``mission_signature``s are pinned: a change to how the environment
steps, projects, detects collisions or reports its state must leave
them bit-identical.  The quadrotor missions are also flown on the
batched engine, one lane each (their worlds differ), which must
reproduce the same pins.

No signature reads camera pixels either (the behavioural perception
consumes only the packet's course metadata), so the bytes one camera
RPC delivers are pinned separately.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.batch import run_batch
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.sweep import mission_signature

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
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_serial_mission_matches_pin(name):
    config, signature = PINS[name]
    assert mission_signature(run_mission(config)) == signature


def test_batched_quadrotor_missions_match_pins():
    names = ["sshape-collisions", "tunnel-goal"]
    results = [run_batch([PINS[name][0]])[0] for name in names]
    assert [mission_signature(r) for r in results] == [PINS[n][1] for n in names]


#: sha256 of the 32x48 frame one camera RPC returns right after takeoff.
CAMERA_PINS = {
    ("tunnel", 0): "3c42a963b46f2fd027445b84ec53ecabc9791f5a4ac8109ca94cbe25b32d2916",
    ("s-shape", 3): "2545b168c3b51ace46b7b2b02571a7b76f44e8331a56594e8f403f5d93140eb4",
}


@pytest.mark.parametrize("world, seed", sorted(CAMERA_PINS))
def test_camera_rpc_pixels_match_pin(world, seed):
    cosim = CoSimulation(CoSimConfig(world=world, seed=seed))
    cosim.rpc.takeoff()
    pixels = cosim.rpc.get_camera_image()["pixels"]
    assert len(pixels) == 32 * 48
    assert hashlib.sha256(pixels).hexdigest() == CAMERA_PINS[world, seed]
