"""The SoC engine's receive wait and its skip of futile polls.

``TargetRuntime.recv_packet`` yields one ``recv`` op, and the engine runs
the polling driver loop for it: an ``RX_COUNT`` read, an ``RX_DATA`` pop,
a doubling backoff delay and the timeout check.  When the waiting task is
the SoC's only task and the RX queue is empty at a poll, no poll before
the window ends can see a packet, so the engine charges those polls in
one step (``Soc._skip_futile_polls``).

This is an exactness contract.  After every ``Soc.step`` the cycle, every
``SocCounters`` field and each task's ``wake_at``, pending remainder and
``halted`` must equal those of two op-by-op runs: the engine with the skip
patched out, and the loop written as target code (one yielded op per
read, pop and delay).  The same comparison covers the lone task's op
path: ``Soc._schedule_core`` tests a single task's readiness inline, and
must fetch exactly what the general round-robin scheduler
(``Soc._schedule_round_robin``, patched in) fetches.

``IoDemux.recv``'s bounded wait is checked here too, on a bare SoC: it
returns ``None`` at or after its deadline and less than one raw-FIFO
chunk's backoff sleeps (62,000 cycles) past it, and an unbounded wait
issues the ops of the loop it replaced.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest

from repro.core import packets as pk
from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import run_mission
from repro.core.faults import FaultPlan
from repro.core.packets import PacketType
from repro.soc.calib import TARGET_POLL_INTERVAL_CYCLES
from repro.soc.cpu import core_by_name
from repro.soc.demux import IoDemux
from repro.soc.iodev import REG_RX_COUNT, REG_RX_DATA
from repro.soc.program import MAX_POLL_INTERVAL_CYCLES, TargetRuntime
from repro.soc.soc import CONFIG_A, CONFIG_B, Soc
from repro.sweep import mission_signature
from repro.verify.golden import check_corpus

#: The engine's skip, as shipped (the tests patch the class attribute).
SKIP = Soc._skip_futile_polls
#: One FireSim window at the default synchronization granularity.
WINDOW = 10_000_000
BOTH_CORES = pytest.mark.parametrize(
    "config", [CONFIG_A, CONFIG_B], ids=["boom-mmio-30", "rocket-mmio-90"]
)


def reference_recv_packet(rt, timeout_cycles=None):
    """The receive loop as target code: one yielded op per poll, pop and
    backoff delay, interpreted by the engine's generic op path."""
    waited = 0
    interval = TARGET_POLL_INTERVAL_CYCLES
    while True:
        count = yield from rt.mmio_read(REG_RX_COUNT)
        if count > 0:
            packet = yield from rt.mmio_read(REG_RX_DATA)
            if packet is not None:
                return packet
        if timeout_cycles is not None and waited >= timeout_cycles:
            return None
        yield ("delay", interval)
        waited += interval
        interval = min(interval * 2, MAX_POLL_INTERVAL_CYCLES)


def no_skip(soc, wait):
    """The op-by-op engine: every poll is fetched and read on its own."""


def short_one_read(soc, wait):
    """Mutant skip: charges one futile poll fewer than it skips."""
    reads = soc.counters.mmio_reads
    SKIP(soc, wait)
    if soc.counters.mmio_reads > reads:
        soc.counters.mmio_reads -= 1
        soc.counters.cpu_busy_cycles -= soc.cpu.mmio_access_cycles


#: Four ways to run the same programs; the first is the reference.  The
#: last runs the shipped skip under the general round-robin scheduler in
#: place of the lone task's op path.
MODES = ("op-by-op", "target-loop", "skip", "round-robin")


@contextmanager
def engine(mode, skip=SKIP):
    with pytest.MonkeyPatch.context() as mp:
        if mode == "op-by-op":
            mp.setattr(Soc, "_skip_futile_polls", no_skip)
        elif mode == "target-loop":
            mp.setattr(TargetRuntime, "recv_packet", reference_recv_packet)
        else:
            mp.setattr(Soc, "_skip_futile_polls", skip)
            if mode == "round-robin":
                mp.setattr(Soc, "_schedule_core", Soc._schedule_round_robin)
        yield


def snapshot(soc):
    """What must match after every step."""
    return (
        soc.cycle,
        dataclasses.astuple(soc.counters),
        tuple(
            (task.wake_at, task.pending[0] if task.pending else None, task.halted)
            for task in soc.tasks
        ),
    )


@dataclasses.dataclass
class Run:
    states: list
    #: What the programs recorded: (packet or None, cycle after the wait).
    results: list
    #: (cycle, register, value) of each read that reached the device.
    reads: list

    @property
    def polls(self) -> list[int]:
        return [cycle for cycle, reg, _ in self.reads if reg == REG_RX_COUNT]


def fly(build, windows, config=CONFIG_A):
    """Step a fresh SoC through ``windows``, (budget, packets injected
    before the step) pairs, running the programs ``build(results)``."""
    results: list = []
    soc = Soc(config)
    for name, program in build(results):
        soc.add_program(program, name)
    reads: list = []
    read = soc.iodev.read

    def logged_read(reg):
        value = read(reg)
        reads.append((soc.cycle, reg, value))
        return value

    soc.iodev.read = logged_read
    states = []
    for budget, packets in windows:
        for packet in packets:
            assert soc.bridge.host_inject(packet)
        soc.step(budget)
        states.append(snapshot(soc))
    return Run(states, results, reads)


def fly_all(build, windows, config=CONFIG_A, skip=SKIP):
    runs = {}
    for mode in MODES:
        with engine(mode, skip):
            runs[mode] = fly(build, windows, config)
    return runs


def assert_same(runs):
    reference = runs["op-by-op"]
    for mode, run in runs.items():
        assert run.states == reference.states, mode
        assert run.results == reference.results, mode


def receiver(timeout=None, name="main"):
    """Programs: one task that receives packets forever."""

    def build(results):
        def program(rt):
            while True:
                packet = yield from rt.recv_packet(timeout)
                results.append((packet, (yield from rt.current_cycle())))

        return [(name, program)]

    return build


def requester(timeout=None):
    """Programs: one task that requests a depth reading, forever."""

    def build(results):
        def program(rt):
            while True:
                packet = yield from rt.request_response(
                    pk.depth_request(), PacketType.DEPTH_RESP, timeout
                )
                results.append((packet, (yield from rt.current_cycle())))

        return [("main", program)]

    return build


def poll_schedule(build, config):
    """Fetch cycles of a lone, unanswered wait's polls, op by op."""
    with engine("op-by-op"):
        return fly(build, [(WINDOW, ())], config).polls


def backoff(count):
    """The first ``count`` backoff delays of one wait."""
    return [
        min(TARGET_POLL_INTERVAL_CYCLES << i, MAX_POLL_INTERVAL_CYCLES) for i in range(count)
    ]


def depth(value):
    return (pk.depth_response(value),)


def access_cycles(config):
    return core_by_name(config.cpu).mmio_access_cycles


# ---------------------------------------------------------------------------
# recv_packet on a real SoC (what the runtime helpers promise)
# ---------------------------------------------------------------------------
class TestRecvPacket:
    def test_recv_packet_polls_then_pops(self):
        # The packet arrives at the window end the third poll lands on:
        # two empty polls and two backoff delays, then the pop.
        polls = poll_schedule(receiver(), CONFIG_A)
        assert polls[2] == 2 * access_cycles(CONFIG_A) + sum(backoff(2))
        packet = pk.depth_response(1.0)
        runs = fly_all(receiver(), [(polls[2], ()), (WINDOW, (packet,))])
        assert_same(runs)
        (got, _), = runs["skip"].results
        assert got is packet
        assert runs["skip"].states[0][1][0] == 2  # the empty polls' reads
        assert (polls[2] + access_cycles(CONFIG_A), REG_RX_DATA, packet) in runs["skip"].reads

    def test_recv_packet_backoff_doubles(self):
        first = TARGET_POLL_INTERVAL_CYCLES
        doublings = [first << i for i in range(20) if first << i < MAX_POLL_INTERVAL_CYCLES]
        expected = doublings + [MAX_POLL_INTERVAL_CYCLES] * 2
        runs = fly_all(receiver(timeout=sum(expected)), [(WINDOW, ())])
        assert_same(runs)
        reference = runs["op-by-op"]
        access = access_cycles(CONFIG_A)
        polls = reference.polls[: len(expected) + 1]
        delays = [b - a - access for a, b in zip(polls, polls[1:])]
        assert delays == expected  # exponential, capped, then the timeout
        packet, cycle = reference.results[0]
        assert packet is None
        assert cycle == polls[-1] + access

    def test_recv_packet_of_discards_others(self):
        def build(results):
            def program(rt):
                packet = yield from rt.recv_packet_of(PacketType.DEPTH_RESP)
                results.append((packet, (yield from rt.current_cycle())))

            return [("main", program)]

        packets = (pk.imu_response(0, 0, 0, 0, 0), pk.depth_response(2.0))
        runs = fly_all(build, [(WINDOW, packets)])
        assert_same(runs)
        (packet, _), = runs["skip"].results
        assert packet.ptype == PacketType.DEPTH_RESP
        # Both packets were popped: count, pop (IMU), count, pop (depth).
        assert runs["skip"].states[0][1][0] == 5  # + the CYCLE read

    def test_request_response_pattern(self):
        soc = Soc(CONFIG_A)
        results: list = []
        for name, program in requester()(results):
            soc.add_program(program, name)
        soc.step(WINDOW)
        assert [p.ptype for p in soc.bridge.host_collect()] == [PacketType.DEPTH_REQ]
        soc.bridge.host_inject(pk.depth_response(4.0))
        soc.step(WINDOW)
        assert results[0][0].values == (4.0,)
        runs = fly_all(requester(), [(WINDOW, ()), (WINDOW, depth(4.0))])
        assert_same(runs)
        assert runs["skip"].results == results


# ---------------------------------------------------------------------------
# Window boundaries: the skip must leave every carry-over as it finds it
# ---------------------------------------------------------------------------
@BOTH_CORES
class TestWindowBoundaries:
    def test_first_poll_read_straddles_the_window_end(self, config):
        first = poll_schedule(requester(), config)[0]
        windows = [(first + 1, ()), (WINDOW, ()), (WINDOW, depth(4.0)), (WINDOW, ())]
        runs = fly_all(requester(), windows, config)
        assert_same(runs)
        (_, remainder, _), = runs["op-by-op"].states[0][2]
        assert remainder == access_cycles(config) - 1  # the read carries over
        assert [packet.values for packet, _ in runs["skip"].results] == [(4.0,)]

    def test_delay_straddles_the_boundary_the_response_arrives_at(self, config):
        polls = poll_schedule(receiver(), config)
        end = polls[3] - 1_000
        runs = fly_all(receiver(), [(end, ()), (WINDOW, depth(4.0))], config)
        assert_same(runs)
        (wake_at, remainder, _), = runs["op-by-op"].states[0][2]
        assert (wake_at, remainder) == (polls[3], None)  # asleep across the end
        (packet, _), = runs["skip"].results
        assert packet.values == (4.0,)
        assert (polls[3], REG_RX_COUNT, 1) in runs["skip"].reads  # the next poll sees it

    # Poll 12 follows two delays at the backoff cap.
    @pytest.mark.parametrize("polls_before", [1, 2, 12])
    def test_next_poll_lands_exactly_on_the_window_end(self, config, polls_before):
        polls = poll_schedule(receiver(), config)
        end = polls[polls_before]
        runs = fly_all(receiver(), [(end, ()), (WINDOW, depth(4.0))], config)
        assert_same(runs)
        cycle, counters, ((wake_at, remainder, _),) = runs["op-by-op"].states[0]
        assert (cycle, wake_at, remainder) == (end, end, None)
        assert counters[0] == polls_before
        assert runs["skip"].results[0][0].values == (4.0,)

    @pytest.mark.parametrize(
        "timeout",
        [10_000, sum(backoff(11)), 5_500_000, 25_000_000],
        ids=["doubling", "cap-exact", "cap", "across-windows"],
    )
    def test_timeout_on_a_lone_task(self, config, timeout):
        runs = fly_all(receiver(timeout=timeout), [(WINDOW, ())] * 4, config)
        assert_same(runs)
        packet, cycle = runs["skip"].results[0]
        assert packet is None
        assert (cycle < WINDOW) == (timeout < WINDOW)  # mid-window, or later

    def test_two_waiters_race_for_one_packet(self, config):
        def build(results):
            return receiver(name="a")(results) + receiver(name="b")(results)

        # The window ends where both tasks wake: both count reads see the
        # packet, and the second pop finds it gone.
        end = poll_schedule(build, config)[2]
        windows = [(end, ()), (WINDOW, depth(1.0)), (WINDOW, ()), (WINDOW, depth(2.0))]
        runs = fly_all(build, windows, config)
        assert_same(runs)
        assert [packet.values for packet, _ in runs["skip"].results] == [(1.0,), (2.0,)]
        pops = [value for _, reg, value in runs["skip"].reads if reg == REG_RX_DATA]
        assert None in pops  # the loser's pop found the queue empty


# ---------------------------------------------------------------------------
# Short missions: every window of every kind of SoC the repo flies
# ---------------------------------------------------------------------------
def mission(max_sim_time=0.3, **fields):
    return CoSimConfig(max_sim_time=max_sim_time, **fields)


_DROP = FaultPlan.sensor_response_drop(0.3, seed=3)
#: name -> (config, whether the SoC runs one task only).
MISSIONS = {
    "fig11": (
        mission(world="s-shape", model="resnet6", target_velocity=9.0, seed=5),
        True,
    ),
    "serve-socA": (mission(soc="A", model="resnet11", seed=2), True),
    "serve-socB": (mission(soc="B", model="resnet14", target_velocity=4.0, seed=4), True),
    "dnn-monitor": (mission(model="resnet6", background="dnn-monitor"), False),
    "slam-mapper": (mission(model="resnet6", background="slam-mapper"), False),
    "ros": (mission(controller="ros", model="resnet6"), False),
    "fusion": (mission(controller="fusion", model="resnet6"), True),
    "mpc": (mission(controller="mpc"), True),
    "dynamic": (mission(world="s-shape", model="resnet14", dynamic_runtime=True), True),
    "drop-single": (
        mission(
            0.6, soc="B", model="resnet6", faults=_DROP,
            sensor_timeout_syncs=1, sensor_retries=1,
        ),
        True,
    ),
    "drop-multi": (
        mission(0.6, model="resnet6", faults=_DROP, background="dnn-monitor"),
        False,
    ),
    "coarse-sync": (
        mission(
            1.0, model="resnet6",
            sync=SyncConfig(cycles_per_sync=100_000_000, frame_rate_hz=10.0),
        ),
        True,
    ),
}


def fly_mission(config, mode):
    """A mission's SoC state after every window, its signature, and the
    polls the skip charged."""
    states = []
    skipped = 0
    step = Soc.step

    def recording_step(soc, budget):
        advanced = step(soc, budget)
        states.append(snapshot(soc))
        return advanced

    def counting_skip(soc, wait):
        nonlocal skipped
        reads = soc.counters.mmio_reads
        SKIP(soc, wait)
        skipped += soc.counters.mmio_reads - reads

    with engine(mode, counting_skip), pytest.MonkeyPatch.context() as mp:
        mp.setattr(Soc, "step", recording_step)
        signature = mission_signature(run_mission(config))
    return states, signature, skipped


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_mission_windows_match_op_by_op(name):
    config, lone = MISSIONS[name]
    states, signature, _ = fly_mission(config, "op-by-op")
    for mode in ("skip", "target-loop", "round-robin"):
        got_states, got_signature, skipped = fly_mission(config, mode)
        assert len(got_states) == len(states), mode
        assert got_states == states, mode
        assert got_signature == signature, mode
        if mode == "skip":
            # The skip does work on a lone task, and none beside a neighbour.
            assert (skipped > 0) == lone


# ---------------------------------------------------------------------------
# The lone task's op path: every kind of op, at every window boundary
# ---------------------------------------------------------------------------
def mixed_ops(results):
    """Programs: one task cycling through each primitive op and the
    runtime helpers, with costs that land ops across window ends."""

    def program(rt):
        while True:
            yield from rt.delay(7_000)
            yield from rt.compute(12_345)
            results.append((yield from rt.current_cycle()))
            yield from rt.send_packet(pk.depth_request())
            packet = yield from rt.recv_packet(40_000)
            results.append(packet)
            yield from rt.delay(0)
            results.append((yield from rt.mmio_read(REG_RX_COUNT)))

    return [("main", program)]


@BOTH_CORES
def test_lone_task_path_fetches_what_round_robin_fetches(config):
    # Odd window lengths put every op kind across some boundary.
    windows = [(budget, ()) for budget in (1, 29, 31, 6_999, 7_001, 20_000, 33_333)]
    windows += [(WINDOW, depth(2.0)), (3, ()), (WINDOW, ())]
    runs = fly_all(mixed_ops, windows, config)
    assert_same(runs)
    assert any(isinstance(value, pk.DataPacket) for value in runs["round-robin"].results)


def test_lone_task_halts_as_round_robin_halts():
    def build(results):
        def program(rt):
            yield from rt.compute(100)
            results.append((yield from rt.current_cycle()))

        return [("main", program)]

    runs = fly_all(build, [(50, ()), (200, ()), (WINDOW, ())])
    assert_same(runs)
    assert runs["skip"].states[-1][2] == ((None, None, True),)


# ---------------------------------------------------------------------------
# IoDemux: a bounded wait ends by target cycles
# ---------------------------------------------------------------------------
#: One raw-FIFO chunk's backoff sleeps: 2,000 doubled until they reach
#: ``IoDemux.POLL_CHUNK_CYCLES`` (2,000 + 4,000 + ... + 32,000).
CHUNK_SLEEPS = 62_000


def reference_demux_recv(demux, rt, ptype):
    """The unbounded demux wait as it was written before waits were
    bounded by cycles: pop raw-FIFO chunks until ``ptype`` is sorted."""
    while True:
        if demux.pending(ptype):
            return demux.take(ptype)
        packet = yield from rt.recv_packet(timeout_cycles=IoDemux.POLL_CHUNK_CYCLES)
        if packet is not None:
            demux.deliver(packet)


def demux_waiter(timeout, recv=None):
    """Programs: one task that waits for depth responses through a demux,
    recording (packet, cycle at the wait's start, cycle at its end)."""

    def build(results):
        demux = IoDemux()

        def program(rt):
            while True:
                start = yield from rt.current_cycle()
                if recv is None:
                    packet = yield from demux.recv(rt, PacketType.DEPTH_RESP, timeout)
                else:
                    packet = yield from recv(demux, rt, PacketType.DEPTH_RESP)
                results.append((packet, start, (yield from rt.current_cycle())))

        return [("main", program)]

    return build


@BOTH_CORES
class TestDemuxTimeout:
    @pytest.mark.parametrize("timeout", [200_000, 30_000_000])
    def test_returns_none_at_its_deadline(self, config, timeout):
        run = fly(demux_waiter(timeout), [(WINDOW, ())] * 4, config)
        packet, start, end = run.results[0]
        assert packet is None
        # The demux reads its own start one CYCLE read after the program's.
        deadline = start + access_cycles(config) + timeout
        assert deadline <= end < deadline + CHUNK_SLEEPS

    @pytest.mark.parametrize(
        "timeout, windows",
        [
            (200_000, [(150_000, ()), (WINDOW, depth(4.0))]),
            (30_000_000, [(WINDOW, ())] * 2 + [(WINDOW, depth(4.0))]),
        ],
    )
    def test_a_response_before_the_deadline_is_returned(self, config, timeout, windows):
        run = fly(demux_waiter(timeout), windows, config)
        packet, start, end = run.results[0]
        assert packet.values == (4.0,)
        assert end < start + access_cycles(config) + timeout

    def test_unbounded_wait_issues_the_ops_it_replaced(self, config):
        windows = [(WINDOW, ()), (123_457, depth(1.0)), (WINDOW, ()), (WINDOW, depth(2.0))]
        got = fly(demux_waiter(None), windows, config)
        want = fly(demux_waiter(None, recv=reference_demux_recv), windows, config)
        assert got.states == want.states
        assert got.results == want.results
        assert got.reads == want.reads


# ---------------------------------------------------------------------------
# A skip that miscounts is caught
# ---------------------------------------------------------------------------
class TestMutantSkip:
    def test_window_comparison_catches_a_missing_read(self):
        runs = fly_all(receiver(), [(WINDOW, ()), (WINDOW, depth(1.0))], skip=short_one_read)
        with pytest.raises(AssertionError):
            assert_same(runs)

    def test_golden_record_catches_a_missing_read(self, monkeypatch):
        monkeypatch.setattr(Soc, "_skip_futile_polls", short_one_read)
        report = check_corpus(only="tunnel-dnn-r6-socB")
        assert [check.status for check in report.checks] == ["drift"]
