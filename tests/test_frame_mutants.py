"""Mutants of the serial physics frame that the exactness checks catch.

The collision test's clearance floor and the allocation-free quadrotor
step claim to produce the floats they replaced, bit for bit.  Each test
below applies one mutant in-process, by recompiling one function from
its source with a one-line change (no file is edited), and asserts that
a named check fails:

* a clearance floor without the half cell diagonal fails the floor
  property test of ``tests/test_geometry_index.py`` on every world, and
  moves the ``sshape-collisions`` mission pin;
* a recovery that obeys the incoming command instead of braking moves
  the ``sshape-collisions`` pin (``tests/test_mission_pins.py``), the one
  pinned quadrotor mission that collides; no golden record collides.

Mutants no check catches, with the reason:

* dropping ``self._kd * derivative`` from ``Pid.update`` is equivalent:
  every gain the quadrotor and the car fly has ``kd = 0``, so the term
  is a signed zero, and adding it can only flip the sign of a zero
  output.  The pins, the golden corpus and the geometry tests all pass
  with it.
* a floor margin of half the slack instead of the whole slack passes
  every check: the rounding the slack covers is some ulps of the
  coordinates, far below either margin.  The floor rule's proof states
  its bound with the whole slack, so the code keeps it.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap

import numpy as np
import pytest

from repro.core.cosim import run_mission
from repro.env import worlds
from repro.env.geometry import _CellMemo
from repro.env.physics import QuadrotorDynamics
from repro.sweep import mission_signature
from tests.test_geometry_index import (
    WORLD_NAMES,
    _build,
    assert_floor_answers_exactly,
    floor_check_points,
)
from tests.test_mission_pins import PINS


def mutant(function, old: str, new: str):
    """``function`` recompiled from its source with ``old``, which must
    occur exactly once, replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(function.__globals__)
    exec(code, namespace)
    return namespace[function.__name__]


FLOOR_WITHOUT_HALF_DIAGONAL = (
    "self._floor_margin = 0.5 * math.hypot(_CELL, _CELL) + slack",
    "self._floor_margin = slack",
)
RECOVERY_OBEYS_COMMAND = ("    if recovering:\n", "    if False:\n")


def collision_pin_holds() -> bool:
    """Whether the ``sshape-collisions`` mission, flown on freshly built
    worlds, still matches its pinned signature."""
    config, signature = PINS["sshape-collisions"]
    return mission_signature(run_mission(config)) == signature


@pytest.fixture
def fresh_worlds(monkeypatch):
    """Missions build their worlds anew, so a mutant memo is used."""
    monkeypatch.setattr(worlds, "_WORLD_CACHE", {})


def test_unchanged_recompiles_pass_the_checks(monkeypatch, fresh_worlds):
    """The recompiling itself changes nothing: the same source, swapped in
    for both functions, keeps the pin and the floor property."""
    for owner, name, (old, _) in (
        (_CellMemo, "__init__", FLOOR_WITHOUT_HALF_DIAGONAL),
        (QuadrotorDynamics, "step", RECOVERY_OBEYS_COMMAND),
    ):
        monkeypatch.setattr(owner, name, mutant(getattr(owner, name), old, old))
    assert collision_pin_holds()
    world = _build("zigzag-obstacles")
    assert_floor_answers_exactly(world, floor_check_points(world), 0.3)


class TestFloorWithoutHalfDiagonal:
    @pytest.fixture(autouse=True)
    def apply(self, monkeypatch, fresh_worlds):
        monkeypatch.setattr(
            _CellMemo, "__init__", mutant(_CellMemo.__init__, *FLOOR_WITHOUT_HALF_DIAGONAL)
        )

    @pytest.mark.parametrize("name", WORLD_NAMES)
    def test_fails_the_floor_property(self, name):
        world = _build(name)
        with np.errstate(invalid="ignore"), pytest.raises(AssertionError):
            assert_floor_answers_exactly(world, floor_check_points(world), 0.3)

    def test_moves_the_collision_pin(self):
        assert not collision_pin_holds()


def test_recovery_that_obeys_the_command_moves_the_collision_pin(monkeypatch):
    monkeypatch.setattr(
        QuadrotorDynamics, "step", mutant(QuadrotorDynamics.step, *RECOVERY_OBEYS_COMMAND)
    )
    assert not collision_pin_holds()
