"""Mutants of the lockstep plumbing that the exactness checks catch.

The per-step hops between the synchronizer, the environment's RPC
server, the FireSim host and the SoC claim to do only the work their
step needs while every op, cycle, packet, byte and counter stays the
same.  Each test below applies one mutant in-process, by recompiling
one method from its source with a one-line change or by swapping two
module constants (no file is edited), and asserts that a named check
fails:

* a by-call step that drops its SYNC_DONE charge
  (``Synchronizer._complete_by_call``) moves every golden record flown
  over a lossless in-process link, 9 of 12;
* a lone-task op path that fetches a task whose ``wake_at`` is still
  ahead (``Soc._schedule_core``) fails the per-window comparison with
  the round-robin scheduler and a golden record;
* a CSV row that swaps the camera and IMU request counts moves a golden
  record's op stream (``Synchronizer._log_row`` reads each count by a
  module-level key, so the mutant swaps the two keys);
* a frame advance that answers with the previous frame's trajectory
  sample (``RpcServer._continue_for_frames``) moves every golden record,
  12 of 12: each CSV row logs the sample the advance answers with;
* a lockstep loop that ignores the goal flag (``Synchronizer.run``)
  flies past the goal and moves the one golden record that reaches it;
* a camera answer with its heading error and lateral offset swapped
  (``RpcServer.camera_frame``) moves every golden record whose
  perception reads the camera packet's course metadata, 11 of 12;
* a STATE_RESP with the body velocities ``u`` and ``v`` swapped
  (``Synchronizer._dispatch_rtl_packet``) fails only the payload test of
  ``tests/test_synchronizer.py``, which checks every field of each
  sensor response against the simulator's reading.  No target program
  reads STATE_RESP's ``u``, ``v`` or ``r`` (nor IMU_RESP's
  accelerations), so every golden record keeps its bits under it.

Mutants no check catches, with the reason:

* dropping the ``if self._pending_rtl:`` guard before
  ``dispatch_pending`` in ``Synchronizer.step``, or the ``if
  link.pending:`` guard before the drain in ``_complete_by_call``, is
  equivalent: both callees return at once when there is nothing to take;
  the guards only save the call.
* dropping the empty-queue early return of ``RoseBridge.host_collect``
  or of ``InProcessTransport.drain`` is equivalent for the same reason
  (on an empty queue the full path resets a zero byte balance and adds
  zero to a counter); ``drain`` keeps its closed-endpoint check first,
  which ``tests/test_transport.py`` pins.
"""

from __future__ import annotations

import pytest

from repro.core import synchronizer
from repro.core.synchronizer import Synchronizer
from repro.env.rpc import RpcServer
from repro.soc.soc import CONFIG_A, CONFIG_B, Soc
from repro.verify.golden import check_corpus
from tests.test_frame_mutants import mutant
from tests.test_soc_wait import WINDOW, assert_same, depth, engine, fly, fly_all, mixed_ops
from tests.test_synchronizer import assert_responses_carry_the_readings

DROP_DONE_CHARGE = ("link.peer.charge(_DONE_FRAME)", "pass")
FETCH_WHILE_ASLEEP = (
    "if wake_at is not None and wake_at > self.cycle:",
    "if False:",
)
PREVIOUS_SAMPLE = ("sim.trajectory[-1]", "sim.trajectory[-2]")
IGNORE_GOAL = ("if self.mission_complete:", "if False:")
SWAPPED_METADATA = ("heading_error,\n        d,", "d,\n        heading_error,")
SWAPPED_VELOCITIES = ("st.u, st.v", "st.v, st.u")

#: (owner, method, mutation) of each source mutant above.
MUTANTS = {
    "drop-done-charge": (Synchronizer, "_complete_by_call", DROP_DONE_CHARGE),
    "fetch-while-asleep": (Soc, "_schedule_core", FETCH_WHILE_ASLEEP),
    "previous-sample": (RpcServer, "_continue_for_frames", PREVIOUS_SAMPLE),
    "ignore-goal": (Synchronizer, "run", IGNORE_GOAL),
    "swapped-metadata": (RpcServer, "camera_frame", SWAPPED_METADATA),
    "swapped-velocities": (Synchronizer, "_dispatch_rtl_packet", SWAPPED_VELOCITIES),
}

#: A golden record flown over the by-call path whose op stream has both
#: camera requests and a lone-task SoC.
RECORD = "tunnel-dnn-r6-socB"
#: The one golden record whose mission reaches the goal.
GOAL_RECORD = "scenario-fuzz-frontier"

#: Windows that wake the lone task mid-window, at an end and across one.
WINDOWS = [(budget, ()) for budget in (1, 6_999, 7_001, 33_333)] + [
    (WINDOW, depth(2.0)),
    (WINDOW, ()),
]


def statuses(**kwargs) -> dict[str, str]:
    return {check.name: check.status for check in check_corpus(**kwargs).checks}


def apply(monkeypatch, name: str) -> None:
    owner, method, (old, new) = MUTANTS[name]
    monkeypatch.setattr(owner, method, mutant(getattr(owner, method), old, new))


def test_unchanged_recompiles_pass_the_checks(monkeypatch):
    """Recompiling changes nothing: each method's own source, swapped in,
    keeps the golden records, the per-window comparison and the sensor
    payload test."""
    for owner, method, (old, _) in MUTANTS.values():
        monkeypatch.setattr(owner, method, mutant(getattr(owner, method), old, old))
    assert statuses(only=RECORD) == {RECORD: "ok"}
    assert statuses(only=GOAL_RECORD) == {GOAL_RECORD: "ok"}
    assert_same(fly_all(mixed_ops, WINDOWS, CONFIG_B))
    assert_responses_carry_the_readings(monkeypatch)


def test_dropped_done_charge_moves_the_by_call_records(monkeypatch):
    apply(monkeypatch, "drop-done-charge")
    kept = [name for name, status in statuses().items() if status == "ok"]
    # Only the records whose fault plans put the grants on a framed link
    # keep their bytes.
    assert kept == ["scenario-fuzz-crc-storm", "tunnel-dnn-faulty-corrupt", "tunnel-dnn-faulty-drop"]


class TestFetchWhileAsleep:
    @pytest.fixture(autouse=True)
    def mutate(self, monkeypatch):
        apply(monkeypatch, "fetch-while-asleep")

    @pytest.mark.parametrize("config", [CONFIG_A, CONFIG_B], ids=["boom", "rocket"])
    def test_fails_the_round_robin_comparison(self, config):
        with engine("skip"):
            lone = fly(mixed_ops, WINDOWS, config)
        with engine("round-robin"):
            general = fly(mixed_ops, WINDOWS, config)
        assert lone.states != general.states

    def test_moves_a_golden_record(self):
        assert statuses(only=RECORD) == {RECORD: "drift"}


def test_swapped_request_counts_move_a_golden_record(monkeypatch):
    camera, imu = synchronizer._CAMERA_REQUESTS, synchronizer._IMU_REQUESTS
    monkeypatch.setattr(synchronizer, "_CAMERA_REQUESTS", imu)
    monkeypatch.setattr(synchronizer, "_IMU_REQUESTS", camera)
    assert statuses(only=RECORD) == {RECORD: "drift"}


def test_previous_frame_sample_moves_every_record(monkeypatch):
    apply(monkeypatch, "previous-sample")
    assert set(statuses().values()) == {"drift"}


def test_ignored_goal_moves_the_goal_record(monkeypatch):
    apply(monkeypatch, "ignore-goal")
    assert statuses(only=GOAL_RECORD) == {GOAL_RECORD: "drift"}


def test_swapped_camera_metadata_moves_the_metadata_readers(monkeypatch):
    apply(monkeypatch, "swapped-metadata")
    kept = [name for name, status in statuses().items() if status == "ok"]
    assert kept == ["tunnel-mpc-socA"]


def test_swapped_state_velocities_fail_only_the_payload_test(monkeypatch):
    apply(monkeypatch, "swapped-velocities")
    with pytest.raises(AssertionError, match="STATE_RESP"):
        assert_responses_carry_the_readings(monkeypatch)
    assert set(statuses().values()) == {"ok"}
