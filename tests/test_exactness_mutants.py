"""Mutants of earlier exactness claims that the exactness checks catch.

The one-point geometry memo, pixels on demand and the signing memo each
claim to return the bits of the code they replaced.  Each test below
applies one mutant in-process, by recompiling one function from its
source with a one-line change (no file is edited), and asserts that a
named check fails:

* ``Polyline._nearest_one`` with a last-index tie-break (``q <= best``)
  fails the full-scan comparison at the vertices where nearest-segment
  ties occur (``tests/test_geometry_index.py``), on every world;
* a ``_CellMemo`` candidate bound without the cell diagonal keeps too
  few candidates per cell and fails the full-scan comparison at seeded
  points, on every world;
* a camera handler that serves the zero frame to a pixel reader
  (``RpcServer._get_camera_image``) moves the camera RPC's pixel pin
  (``tests/test_mission_pins.py``);
* the signing memo without its zero bypass
  (``_FloatTexts.numbers``) merges ``0.0`` with ``-0.0`` and fails the
  per-value ``_num`` reference of ``tests/test_signature.py``.

Mutants no check catches, with the reason:

* the same tie-break in ``SegmentSoup.min_distance`` is equivalent: that
  scan returns only the distance, and tied candidates have equal
  distances.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.app.perception import CnnPerception
from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.core.csvlog import SyncLogger, SyncLogRow
from repro.dnn.resnet import build_trainable_trailnet
from repro.env import worlds
from repro.env.geometry import Polyline, _CellMemo
from repro.env.rpc import RpcServer
from repro.env.simulator import TrajectorySample
from repro.sweep.signature import _FloatTexts
from tests.test_frame_mutants import mutant
from tests.test_geometry_index import (
    WORLD_NAMES,
    _build,
    assert_matches_full_scan,
    seeded_points,
    vertex_points,
)
from tests.test_mission_pins import CAMERA_PINS, _first_frame
from tests.test_signature import _assert_same_payload

LAST_INDEX_TIE = ("if q < best:", "if q <= best:")
BOUND_WITHOUT_DIAGONAL = (
    "self._bound = math.hypot(_CELL, _CELL) + slack",
    "self._bound = slack",
)
BLANK_FRAMES = ("if sim.pixels:", "if False:")
NO_ZERO_BYPASS = ("type(v) is float and v and v == v", "type(v) is float and v == v")

#: (owner, function, mutation) of each source mutant above.
MUTANTS = {
    "last-index-tie": (Polyline, "_nearest_one", LAST_INDEX_TIE),
    "bound-without-diagonal": (_CellMemo, "__init__", BOUND_WITHOUT_DIAGONAL),
    "blank-frames": (RpcServer, "_get_camera_image", BLANK_FRAMES),
    "no-zero-bypass": (_FloatTexts, "numbers", NO_ZERO_BYPASS),
}

#: The world and seed of the pinned camera frame.
CAMERA = ("tunnel", 0)


def apply(monkeypatch, name: str) -> None:
    owner, function, (old, new) = MUTANTS[name]
    monkeypatch.setattr(owner, function, mutant(getattr(owner, function), old, new))


@pytest.fixture
def fresh_worlds(monkeypatch):
    """Worlds are built anew and dropped after the test, so no world
    with a mutant memo stays in the shared cache."""
    monkeypatch.setattr(worlds, "_WORLD_CACHE", {})


@pytest.fixture(scope="module")
def trailnet():
    return build_trainable_trailnet(seed=7)


@pytest.fixture(scope="module")
def zeros_result():
    """A short mission whose trajectory and CSV row hold both zeros."""
    result = run_mission(CoSimConfig(world="tunnel", max_sim_time=0.05))
    row = SyncLogRow(0, -0.0, 0.0, -0.0, 0.0, 2.5, 2.5, -0.0, 0.0,
                     0, 0, 0, 0, 0.0, -0.0, 0.0)
    return replace(
        result,
        trajectory=[TrajectorySample(0.0, -0.0, 0.0, -0.0, 1.5, -1.5, 0.0, -0.0)],
        logger=SyncLogger(rows=[row]),
    )


def camera_pin_holds(trailnet) -> bool:
    """Whether a pixel reader's first camera RPC serves the pinned frame."""
    world, seed = CAMERA
    image = _first_frame(CoSimConfig(world=world, seed=seed), CnnPerception(trailnet))
    return hashlib.sha256(image["pixels"]).hexdigest() == CAMERA_PINS[CAMERA]


def test_unchanged_recompiles_pass_the_checks(monkeypatch, fresh_worlds, trailnet, zeros_result):
    """Recompiling changes nothing: each function's own source, swapped
    in, keeps every check below."""
    for owner, function, (old, _) in MUTANTS.values():
        monkeypatch.setattr(owner, function, mutant(getattr(owner, function), old, old))
    for name in WORLD_NAMES:
        world = _build(name)
        assert_matches_full_scan(world, vertex_points(world))
        assert_matches_full_scan(world, seeded_points(world))
    assert camera_pin_holds(trailnet)
    _assert_same_payload(zeros_result)


@pytest.mark.parametrize("name", WORLD_NAMES)
def test_last_index_tie_break_fails_the_vertex_scan(monkeypatch, name):
    apply(monkeypatch, "last-index-tie")
    world = _build(name)
    with pytest.raises(AssertionError):
        assert_matches_full_scan(world, vertex_points(world))


@pytest.mark.parametrize("name", WORLD_NAMES)
def test_bound_without_diagonal_fails_the_seeded_scan(monkeypatch, fresh_worlds, name):
    apply(monkeypatch, "bound-without-diagonal")
    world = _build(name)
    with pytest.raises(AssertionError):
        assert_matches_full_scan(world, seeded_points(world))


def test_blank_frames_move_the_camera_pin(monkeypatch, trailnet):
    apply(monkeypatch, "blank-frames")
    assert not camera_pin_holds(trailnet)


def test_memo_without_zero_bypass_fails_the_num_reference(monkeypatch, zeros_result):
    apply(monkeypatch, "no-zero-bypass")
    with pytest.raises(AssertionError):
        _assert_same_payload(zeros_result)
