"""SoC top level: configurations (Table 2) and the execution engine.

A :class:`Soc` owns a CPU timing model, optionally a Gemmini accelerator,
a system bus with the RoSE MMIO window, and one or more loaded target
programs.  :meth:`Soc.step` advances the machine by a bounded number of
cycles — the token-throttled interface FireSim exposes — interpreting the
programs' yielded ops (see :mod:`repro.soc.program`) and carrying
partially executed ops across step boundaries.

Multi-tenancy: the engine is a cooperative scheduler over tasks.  At any
instant at most one task occupies the core (CPU/MMIO/inference ops
serialize — the contention the paper's introduction motivates, citing
multi-tenant DNN execution); ``delay`` ops put a task to sleep without
holding the core, so sleeping tasks overlap freely.  With a single loaded
program the schedule degenerates to the obvious sequential execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bridge import BridgeConfig, RoseBridge
from repro.core.packets import DataPacket
from repro.errors import ConfigError, TargetProgramError
from repro.soc import calib
from repro.soc.bus import SystemBus
from repro.soc.cpu import CpuModel, core_by_name
from repro.soc.gemmini import GemminiModel
from repro.soc.iodev import (
    ROSE_MMIO_BASE,
    ROSE_MMIO_SIZE,
    REG_RX_COUNT,
    REG_RX_DATA,
    REG_TX_DATA,
    RoseIoDevice,
)
from repro.soc.program import MAX_POLL_INTERVAL_CYCLES, TargetRuntime


@dataclass(frozen=True)
class SocConfig:
    """One hardware configuration (Table 2)."""

    name: str
    cpu: str  # "boom" | "rocket"
    has_gemmini: bool
    frequency_hz: float = calib.SOC_FREQUENCY_HZ
    gemmini_dtype: str = "fp32"  # "fp32" (paper) | "int8" (Gemmini native)

    @property
    def description(self) -> str:
        accel = f"Gemmini({self.gemmini_dtype})" if self.has_gemmini else "None"
        cpu = {"boom": "3-wide BOOM", "rocket": "Rocket"}[self.cpu]
        return f"CPU: {cpu}, Accelerator: {accel}"


#: Table 2's three configurations.
CONFIG_A = SocConfig(name="A", cpu="boom", has_gemmini=True)
CONFIG_B = SocConfig(name="B", cpu="rocket", has_gemmini=True)
CONFIG_C = SocConfig(name="C", cpu="boom", has_gemmini=False)

_CONFIGS = {"A": CONFIG_A, "B": CONFIG_B, "C": CONFIG_C}


def soc_config(name: str) -> SocConfig:
    try:
        return _CONFIGS[name.upper()]
    except KeyError:
        raise ConfigError(f"unknown SoC configuration {name!r}; expected A, B or C") from None


@dataclass
class SocCounters:
    """Aggregate activity counters for one SoC instance: each op counted
    once, when the engine fetches it (idle cycles are derived, see
    :attr:`Soc.idle_cycles`)."""

    mmio_reads: int = 0
    mmio_writes: int = 0
    inferences: int = 0
    cpu_busy_cycles: int = 0


#: Stages of a ``recv`` wait: its next op polls ``RX_COUNT``, or follows
#: a count read, or follows an ``RX_DATA`` pop.
_POLL, _COUNTED, _POPPED = range(3)


@dataclass
class RxWait:
    """A task's ``recv`` op in progress: the loop state of the polling
    driver the engine runs for it (see :meth:`Soc._continue_wait`)."""

    timeout: int | None
    waited: int = 0
    interval: int = calib.TARGET_POLL_INTERVAL_CYCLES
    stage: int = _POLL


@dataclass
class TargetTask:
    """One target program scheduled on the SoC."""

    name: str
    generator: object
    send_value: object = None
    #: On-core op: (remaining cycles, completion effect, gemmini fraction).
    pending: tuple | None = None
    #: Absolute cycle the task sleeps until (``delay`` ops release the core).
    wake_at: int | None = None
    halted: bool = False
    #: The ``recv`` op the task is blocked in, if any.
    wait: RxWait | None = None

    @property
    def runnable(self) -> bool:
        return not self.halted and self.pending is None

    def ready(self, now: int) -> bool:
        return self.runnable and (self.wake_at is None or self.wake_at <= now)


class Soc:
    """The simulated companion-computer SoC."""

    def __init__(self, config: SocConfig, bridge: RoseBridge | None = None):
        self.config = config
        self.cpu: CpuModel = core_by_name(config.cpu)
        self.bus = SystemBus()
        self.bus.register_region("rose-io", ROSE_MMIO_BASE, ROSE_MMIO_SIZE)
        self.gemmini: GemminiModel | None = (
            GemminiModel(bus=self.bus, dtype=config.gemmini_dtype)
            if config.has_gemmini
            else None
        )
        self.bridge = bridge or RoseBridge(BridgeConfig())
        self.iodev = RoseIoDevice(self.bridge)
        self.iodev.attach_cycle_source(lambda: self.cycle)
        self.cycle = 0
        self.counters = SocCounters()
        self.tasks: list[TargetTask] = []
        self._core_task: TargetTask | None = None
        self._rr_index = 0
        #: Cycle at which the running :meth:`step` ends.
        self._window_end = 0
        # Gemmini busy time accrues proportionally as an inference op's
        # cycles elapse (an op may span several token-bounded steps).
        self._gemmini_busy = 0.0

    # ------------------------------------------------------------------
    def load_program(
        self, program_factory: Callable[[TargetRuntime], "object"], name: str = "main"
    ) -> TargetTask:
        """Install the (single) target program, replacing any loaded set."""
        self.tasks = []
        self._core_task = None
        self._rr_index = 0
        return self.add_program(program_factory, name=name)

    def add_program(
        self, program_factory: Callable[[TargetRuntime], "object"], name: str
    ) -> TargetTask:
        """Add another program to run concurrently (cooperative tasks)."""
        if any(task.name == name for task in self.tasks):
            raise ConfigError(f"duplicate task name {name!r}")
        task = TargetTask(name=name, generator=program_factory(TargetRuntime()))
        self.tasks.append(task)
        return task

    def task(self, name: str) -> TargetTask:
        for task in self.tasks:
            if task.name == name:
                return task
        raise ConfigError(f"no task named {name!r}")

    @property
    def halted(self) -> bool:
        """True when every loaded task has finished."""
        return bool(self.tasks) and all(task.halted for task in self.tasks)

    @property
    def gemmini_busy_cycles(self) -> int:
        return int(self._gemmini_busy) if self.gemmini else 0

    @property
    def idle_cycles(self) -> int:
        """Elapsed cycles with no op on the core."""
        return self.cycle - self.counters.cpu_busy_cycles

    @property
    def activity_factor(self) -> float:
        """Fraction of elapsed cycles the DNN accelerator was executing."""
        if self.cycle == 0:
            return 0.0
        return self.gemmini_busy_cycles / self.cycle

    # ------------------------------------------------------------------
    def _fetch_op(self, task: TargetTask) -> None:
        """Pull the task's next op and interpret its cost/effect.

        Effects that *produce* values (reads, inference reports) run at
        fetch time; their results are delivered to the program only after
        the op's cycles elapse.  Effects that *publish* state (TX writes)
        run at completion, so a packet becomes visible to the host no
        earlier than its copy finishes.
        """
        task.wake_at = None
        if task.wait is not None and self._continue_wait(task):
            return
        try:
            op = task.generator.send(task.send_value)
        except StopIteration:
            task.halted = True
            task.pending = None
            return
        task.send_value = None

        kind = op[0]
        if kind == "recv":
            task.wait = RxWait(op[1])
            self._poll(task)
        elif kind == "delay":
            cycles = int(op[1])
            if cycles < 0:
                raise TargetProgramError(f"negative delay of {cycles} cycles")
            task.wake_at = self.cycle + max(cycles, 1)
        elif kind == "cpu":
            cycles = int(op[1])
            if cycles < 0:
                raise TargetProgramError(f"negative cpu op of {cycles} cycles")
            task.pending = (max(cycles, 1), None, 0.0)
        elif kind == "mmio_read":
            self._read(task, op[1])
        elif kind == "mmio_write":
            reg, value = op[1], op[2]
            cost = self.cpu.mmio_access_cycles
            if reg == REG_TX_DATA and isinstance(value, DataPacket):
                cost += self.cpu.copy_cycles(value.payload_bytes)
                cost += self.bus.transfer_cycles(value.payload_bytes)
            self.counters.mmio_writes += 1

            def effect(reg=reg, value=value):
                self.iodev.write(reg, value)

            task.pending = (cost, effect, 0.0)
        elif kind == "inference":
            session = op[1]
            report = session.run()
            self.counters.inferences += 1
            fraction = (
                report.gemmini_cycles / report.total_cycles if report.total_cycles else 0.0
            )
            task.pending = (report.total_cycles, lambda: report, fraction)
        else:
            raise TargetProgramError(f"unknown target op {kind!r}")

    def _read(self, task: TargetTask, reg: int) -> None:
        """Put an MMIO read of ``reg`` on the core; the register is read now."""
        value = self.iodev.read(reg)
        self.counters.mmio_reads += 1
        cost = self.cpu.mmio_access_cycles
        if reg == REG_RX_DATA and isinstance(value, DataPacket):
            cost += self.cpu.copy_cycles(value.payload_bytes)
            cost += self.bus.transfer_cycles(value.payload_bytes)
        task.pending = (cost, lambda: value, 0.0)

    # -- the receive wait -------------------------------------------------
    def _continue_wait(self, task: TargetTask) -> bool:
        """Issue the next op of the task's ``recv`` wait.

        The ops are those of a polling driver loop: read ``RX_COUNT``; if
        it is non-zero pop ``RX_DATA``; after an empty poll (or a pop lost
        to a concurrent task) give up once the backoff so far has reached
        the timeout, else sleep the backoff interval, double it up to
        :data:`~repro.soc.program.MAX_POLL_INTERVAL_CYCLES` and poll again.
        Returns False when the wait is over; its result (the packet, or
        ``None`` on timeout) is then the task's send value.
        """
        wait = task.wait
        result, task.send_value = task.send_value, None
        if wait.stage == _POLL:
            self._poll(task)
            return True
        if wait.stage == _COUNTED and result > 0:
            wait.stage = _POPPED
            self._read(task, REG_RX_DATA)
            return True
        if wait.stage == _POPPED and result is not None:
            task.wait = None
            task.send_value = result
            return False
        if wait.timeout is not None and wait.waited >= wait.timeout:
            task.wait = None
            return False
        task.wake_at = self.cycle + wait.interval
        wait.waited += wait.interval
        wait.interval = min(wait.interval * 2, MAX_POLL_INTERVAL_CYCLES)
        wait.stage = _POLL
        return True

    def _poll(self, task: TargetTask) -> None:
        """Issue the wait's ``RX_COUNT`` read, after skipping the polls
        before it that cannot see a packet."""
        if len(self.tasks) == 1 and self.bridge.target_rx_count() == 0:
            self._skip_futile_polls(task.wait)
        task.wait.stage = _COUNTED
        self._read(task, REG_RX_COUNT)

    def _skip_futile_polls(self, wait: RxWait) -> None:
        """Charge at once the polls of a lone task that can only read zero.

        Only the host fills the RX queue, between windows, so once it is
        empty at a poll of the SoC's only task, every poll fetched before
        the window ends reads zero.  Each (read, delay) pair whose next
        poll is still fetched before the window end, and after which the
        timeout check does not fire, is charged here exactly as the
        op-by-op path charges it: one MMIO read and its busy cycles.  The
        clock moves to the next poll's fetch.  The window's last poll is
        left to the op-by-op path, so a read that straddles the boundary
        and a delay fetched at it carry over as usual.
        """
        access = self.cpu.mmio_access_cycles
        end = self._window_end
        timeout = wait.timeout
        cycle, waited, interval = self.cycle, wait.waited, wait.interval
        polls = 0
        while (timeout is None or waited < timeout) and cycle + access + interval < end:
            cycle += access + interval
            waited += interval
            interval = min(interval * 2, MAX_POLL_INTERVAL_CYCLES)
            polls += 1
        self.counters.mmio_reads += polls
        self.counters.cpu_busy_cycles += polls * access
        self.cycle = cycle
        wait.waited, wait.interval = waited, interval

    def _next_ready(self) -> TargetTask | None:
        """Round-robin pick of a ready task."""
        n = len(self.tasks)
        for offset in range(n):
            task = self.tasks[(self._rr_index + offset) % n]
            if task.ready(self.cycle):
                self._rr_index = (self._rr_index + offset + 1) % n
                return task
        return None

    def _schedule_core(self) -> None:
        """Fetch ops from ready tasks until one claims the core (or none
        can).  Tasks whose next op is a ``delay`` go to sleep and the
        scheduler moves on.

        A single-program SoC (no background tenant) is the common case,
        and round-robin over one task is the identity, so the lone task's
        readiness (:meth:`TargetTask.ready`) is tested inline here."""
        if len(self.tasks) != 1:
            self._schedule_round_robin()
            return
        task = self.tasks[0]
        while self._core_task is None and task.pending is None and not task.halted:
            wake_at = task.wake_at
            if wake_at is not None and wake_at > self.cycle:
                return
            self._fetch_op(task)
            if task.pending is not None:
                self._core_task = task

    def _schedule_round_robin(self) -> None:
        """:meth:`_schedule_core` for any number of tasks."""
        while self._core_task is None:
            task = self._next_ready()
            if task is None:
                return
            self._fetch_op(task)
            if task.pending is not None:
                self._core_task = task

    def step(self, budget: int) -> int:
        """Advance exactly ``budget`` cycles (the FireSim token grant).

        Programs execute until the budget is exhausted; partially complete
        ops carry over to the next step.  When every task is asleep or
        halted, time elapses as idle (the RTL keeps ticking).  Returns the
        cycles advanced (always ``budget``).
        """
        if budget <= 0:
            raise ConfigError(f"step budget must be positive, got {budget}")
        if not self.tasks:
            raise TargetProgramError("no program loaded")
        end = self._window_end = self.cycle + budget
        while self.cycle < end:
            if self._core_task is None:
                self._schedule_core()
            if self._core_task is not None:
                task = self._core_task
                cost, effect, fraction = task.pending
                advance = min(cost, end - self.cycle)
                self.cycle += advance
                self.counters.cpu_busy_cycles += advance
                self._gemmini_busy += advance * fraction
                if advance == cost:
                    task.pending = None
                    self._core_task = None
                    if effect is not None:
                        result = effect()
                        if result is not None:
                            task.send_value = result
                else:
                    task.pending = (cost - advance, effect, fraction)
            else:
                # Core idle: sleep until the next wake-up (or the budget).
                wakes = [
                    task.wake_at
                    for task in self.tasks
                    if not task.halted and task.wake_at is not None
                ]
                target = min(wakes) if wakes else end
                advance = max(1, min(target, end) - self.cycle)
                advance = min(advance, end - self.cycle)
                if advance <= 0:
                    break
                self.cycle += advance
        return budget
