"""FireSim host model: token-throttled stepping + throughput accounting.

Two concerns live here:

* :class:`FireSimHost` is the FireSim-side *process* of Figure 5: it owns
  the simulated SoC and the RoSE bridge, receives synchronization and data
  packets from the transport, steps the RTL simulation by the granted
  cycle budget, and returns SoC-originated data packets plus a SYNC_DONE.
  A synchronizer in the same process on a lossless link grants a step by
  calling :meth:`FireSimHost.grant` instead of sending a SYNC_GRANT, and
  reads the step's completion from :attr:`FireSimHost.last_done` instead
  of a SYNC_DONE; either way :meth:`FireSimHost.service` runs the step.
* :class:`HostPerfParams` / :func:`simulation_throughput_mhz` model the
  *wall-clock* performance of the co-simulation (Figure 15): the FPGA
  advances target cycles at a bounded rate, the environment renders frames
  at a bounded rate, and every synchronization pays a host overhead
  (driver polling + RPC round trips).  Throughput is target-cycles per
  wall-second; coarse granularity amortizes the overhead, fine granularity
  pays it every period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packets import DATA_TYPES, DataPacket, PacketType, sync_done
from repro.core.transport import Transport
from repro.errors import SyncError
from repro.soc.soc import Soc

# Member aliases for the per-packet tests (see packets.DATA_TYPES).
_SET_STEPS = PacketType.SYNC_SET_STEPS
_GRANT = PacketType.SYNC_GRANT
_RESET = PacketType.SYNC_RESET
_SHUTDOWN = PacketType.SYNC_SHUTDOWN


class FireSimHost:
    """Bridge driver + simulation stepping on the FireSim side.

    ``service()`` performs all host work that is currently possible:
    ingest packets from the transport (programming the bridge control
    unit, injecting data into the RX queue), execute any granted steps,
    and emit collected TX data plus step-completion packets.  The
    synchronizer calls it once per polling round; in a distributed
    deployment the same loop runs in the FireSim process.
    """

    def __init__(self, soc: Soc, transport: Transport):
        self.soc = soc
        self.bridge = soc.bridge
        self.transport = transport
        self.steps_completed = 0
        self.shutdown_requested = False
        self.duplicate_grants = 0
        #: (step index, whether a SYNC_DONE frame acknowledges it).
        self._pending_grants: list[tuple[int, bool]] = []
        self._deferred_inject: list[DataPacket] = []
        #: (step index, cycles executed) of the last completed step — a
        #: regranted step is re-acknowledged from here, never re-executed;
        #: a step granted by call is acknowledged here alone.
        self.last_done: tuple[int, int] | None = None

    def grant(self, step_index: int) -> None:
        """Grant one step by call, in place of a SYNC_GRANT frame.

        The next :meth:`service` runs the step as it runs a framed grant,
        and records its completion in :attr:`last_done` without sending a
        SYNC_DONE frame.
        """
        self._pending_grants.append((step_index, False))

    def service(self) -> None:
        """Run all currently possible host-side work."""
        self._ingest()
        self._execute_grants()

    # ------------------------------------------------------------------
    def _ingest(self) -> None:
        for packet in self.transport.drain():
            ptype = packet.ptype
            if ptype == _SET_STEPS:
                cycles, frames = packet.values
                self.bridge.set_steps(cycles, frames)
            elif ptype == _GRANT:
                self._pending_grants.append((int(packet.values[0]), True))
            elif ptype == _RESET:
                self._pending_grants.clear()
            elif ptype == _SHUTDOWN:
                self.shutdown_requested = True
            elif ptype in DATA_TYPES:
                self._inject(packet)
            else:
                raise SyncError(f"unexpected packet {ptype.name} at FireSim host")

    def _inject(self, packet: DataPacket) -> None:
        # Retry deferred packets first to preserve ordering.
        self._deferred_inject.append(packet)
        still_deferred: list[DataPacket] = []
        for pending in self._deferred_inject:
            if still_deferred or not self.bridge.host_inject(pending):
                still_deferred.append(pending)
        self._deferred_inject = still_deferred

    def _execute_grants(self) -> None:
        while self._pending_grants:
            step_index, by_frame = self._pending_grants.pop(0)
            last = self.last_done
            if last is not None and step_index <= last[0]:
                # The synchronizer's watchdog re-issued a grant because a
                # packet was lost: acknowledge again, never step twice.
                self.duplicate_grants += 1
                if by_frame and step_index == last[0]:
                    self.transport.send(sync_done(*last))
                continue
            budget = self.bridge.grant_step()
            executed = self.soc.step(budget)
            for packet in self.bridge.host_collect():
                self.transport.send(packet)
            if by_frame:
                self.transport.send(sync_done(step_index, executed))
            self.last_done = (step_index, executed)
            self.steps_completed += 1
            # Injection may have been blocked on queue space freed by the
            # step; retry now.
            if self._deferred_inject:
                deferred, self._deferred_inject = self._deferred_inject, []
                for packet in deferred:
                    self._inject(packet)


# ---------------------------------------------------------------------------
# Wall-clock performance model (Figure 15)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HostPerfParams:
    """Wall-clock characteristics of one deployment.

    ``fpga_sim_rate_mhz`` is the free-running FPGA simulation rate (target
    MHz); ``sync_overhead_s`` the per-synchronization host cost (bridge
    driver polling, synchronizer scheduling, network RPC);
    ``env_frame_wall_s`` the environment simulator's wall time per frame
    (render + physics).
    """

    name: str
    fpga_sim_rate_mhz: float = 30.0
    sync_overhead_s: float = 2.0e-3
    env_frame_wall_s: float = 8.0e-3
    target_frequency_hz: float = 1e9
    env_frame_rate_hz: float = 60.0

    def __post_init__(self) -> None:
        if self.fpga_sim_rate_mhz <= 0 or self.sync_overhead_s < 0:
            raise SyncError("invalid host performance parameters")


def wall_time_per_sync(params: HostPerfParams, cycles_per_sync: int) -> float:
    """Wall seconds one synchronization period takes.

    The FPGA and the environment run concurrently within a period
    (Algorithm 1 allocates tokens to both, then polls both), so the
    period's wall time is the max of the two plus the fixed overhead.
    """
    if cycles_per_sync <= 0:
        raise SyncError("cycles_per_sync must be positive")
    fpga_s = cycles_per_sync / (params.fpga_sim_rate_mhz * 1e6)
    target_seconds = cycles_per_sync / params.target_frequency_hz
    frames = max(1.0, target_seconds * params.env_frame_rate_hz)
    env_s = frames * params.env_frame_wall_s
    return max(fpga_s, env_s) + params.sync_overhead_s


def simulation_throughput_mhz(
    params: HostPerfParams, cycles_per_sync: int, with_env: bool = True
) -> float:
    """Simulation throughput in target MHz at one sync granularity.

    ``with_env=False`` models the sync-only microbenchmark (no environment
    stepping), the upper curve of the paper's performance measurement.
    """
    if with_env:
        wall = wall_time_per_sync(params, cycles_per_sync)
    else:
        fpga_s = cycles_per_sync / (params.fpga_sim_rate_mhz * 1e6)
        wall = fpga_s + params.sync_overhead_s
    return cycles_per_sync / wall / 1e6
