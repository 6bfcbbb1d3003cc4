"""Co-simulation configuration objects.

:class:`SyncConfig` encodes Equation 1's constraint between the two
simulators' time steps:

    airsim_steps / firesim_steps = soc_clock_freq / airsim_frame_freq

i.e. the number of environment frames per synchronization follows from
the cycle budget, the SoC's target frequency, and the environment's frame
rate.  The paper's Figure 16 sweep uses 10 M cycles / 1 frame up to
400 M cycles / 40 frames (a 100 Hz frame rate at 1 GHz), which is this
module's default regime.

:class:`CoSimConfig` bundles everything one closed-loop experiment needs:
the environment, the SoC configuration, the controller software, and the
synchronization parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.faults import FaultPlan
from repro.env.sensors import SensorNoiseProfile
from repro.env.simulator import EnvConfig
from repro.errors import ConfigError
from repro.soc import calib


@dataclass(frozen=True)
class SyncConfig:
    """Lockstep synchronization parameters (Section 3.4.1, Equation 1).

    The timeout fields govern the synchronizer's resilience to a faulty
    link: ``sync_done_timeout_s`` is the wall-clock watchdog on one sync
    step, ``regrant_timeout_s`` how long a remote host may stay silent
    before the grant is re-issued, ``max_regrants`` how many re-issues are
    attempted before the watchdog ends the mission.  Nothing reads
    ``recv_timeout_s``; it stays only because ``config_to_dict`` hashes it
    into every config key, so removing it would change every key.
    """

    cycles_per_sync: int = 10_000_000
    soc_frequency_hz: float = calib.SOC_FREQUENCY_HZ
    frame_rate_hz: float = 100.0
    sync_done_timeout_s: float = 30.0
    recv_timeout_s: float = 5.0
    regrant_timeout_s: float = 5.0
    max_regrants: int = 3

    def __post_init__(self) -> None:
        if self.cycles_per_sync <= 0:
            raise ConfigError("cycles_per_sync must be positive")
        if self.soc_frequency_hz <= 0 or self.frame_rate_hz <= 0:
            raise ConfigError("frequencies must be positive")
        if (
            self.sync_done_timeout_s <= 0
            or self.recv_timeout_s <= 0
            or self.regrant_timeout_s <= 0
        ):
            raise ConfigError("synchronizer timeouts must be positive")
        if self.max_regrants < 0:
            raise ConfigError("max_regrants must be non-negative")
        if self.frames_per_sync < 1:
            raise ConfigError(
                "synchronization period shorter than one environment frame: "
                f"{self.cycles_per_sync} cycles at {self.soc_frequency_hz:.0f} Hz "
                f"covers {self.sync_period_seconds * self.frame_rate_hz:.3f} frames"
            )

    @property
    def sync_period_seconds(self) -> float:
        """Simulated seconds per synchronization."""
        return self.cycles_per_sync / self.soc_frequency_hz

    @property
    def frames_per_sync(self) -> int:
        """Environment frames per synchronization (Equation 1).

        Computed as one fused ratio: dividing by the frequency first and
        re-multiplying loses a ulp exactly at the .5 rounding boundary.
        """
        return int(round(self.cycles_per_sync * self.frame_rate_hz / self.soc_frequency_hz))

    @property
    def cycles_per_frame(self) -> float:
        return self.cycles_per_sync / self.frames_per_sync

    def describe(self) -> str:
        return (
            f"{self.cycles_per_sync / 1e6:.0f}M cycles / "
            f"{self.frames_per_sync} frame(s) per sync"
        )


@dataclass
class CoSimConfig:
    """Everything one closed-loop mission needs."""

    world: str = "tunnel"
    vehicle: str = "quadrotor"  # "quadrotor" or "car" (artifact A.8.3)
    soc: str = "A"  # Table 2 configuration name
    controller: str = "dnn"  # "dnn", "mpc", "fusion" (camera+IMU), "slam" (lidar), "ros" (node pipeline)
    model: str = "resnet14"  # DNN variant ("fusion": the camera backbone; "mpc": ignored)
    target_velocity: float = 3.0  # m/s forward target (the §5.2 sweep knob)
    initial_angle_deg: float = 0.0
    #: Spawn offset from the centerline, meters (scenario spawn knob).
    #: ``0.0`` is the legacy spawn; serialization omits the field at its
    #: default so pre-scenario configs keep their cache keys.
    initial_lateral_offset: float = 0.0
    sync: SyncConfig = field(default_factory=SyncConfig)
    max_sim_time: float = 60.0  # give up after this much simulated time
    dynamic_runtime: bool = False  # Section 5.3's adaptive DNN selection
    argmax_policy: bool = False  # argmax instead of confidence-scaled gains
    fusion_camera_every: int = 10  # camera branch rate divider ("fusion" only)
    background: str | None = None  # concurrent workload: None, "slam-mapper", "dnn-monitor"
    gemmini_dtype: str = "fp32"  # "fp32" (the paper's config) or "int8"
    beta_lateral: float | None = None  # Equation 2 gains; None = defaults
    beta_angular: float | None = None
    world_params: dict[str, Any] = field(default_factory=dict)  # forwarded to the world builder
    seed: int = 0
    transport: str = "inprocess"
    faults: FaultPlan | None = None  # seeded link/sensor fault injection
    #: Scenario sensor-noise multipliers.  ``None`` builds stock sensors
    #: (the legacy path); the scenario compiler only sets a profile when
    #: it is non-identity, and serialization omits ``None``, so legacy
    #: configs keep their cache keys and golden config dicts.
    noise: SensorNoiseProfile | None = None
    #: App-layer sensor watchdog, in synchronization periods.  Only armed
    #: when ``faults`` is set, so fault-free runs are bit-identical to the
    #: happy-path configuration.
    sensor_timeout_syncs: int = 3
    sensor_retries: int = 3
    #: Runtime invariant checking (repro.core.invariants): ``True``/``False``
    #: force it, ``None`` resolves via ``REPRO_CHECK_INVARIANTS`` and is on
    #: automatically under pytest.  Checking is observational — a passing
    #: mission is bit-identical either way — but the flag is still part of
    #: the canonical config JSON (and therefore every sweep-cache key),
    #: because a run that *would* raise InvariantViolation has a different
    #: outcome than one that silently continued.
    check_invariants: bool | None = None

    def __post_init__(self) -> None:
        if self.target_velocity <= 0:
            raise ConfigError("target_velocity must be positive")
        if self.max_sim_time <= 0:
            raise ConfigError("max_sim_time must be positive")
        if self.controller not in ("dnn", "mpc", "fusion", "slam", "ros"):
            raise ConfigError(
                "controller must be 'dnn', 'mpc', 'fusion', 'slam' or 'ros', "
                f"got {self.controller!r}"
            )
        if self.controller != "dnn" and self.dynamic_runtime:
            raise ConfigError("dynamic_runtime applies to the DNN controller only")
        if self.fusion_camera_every < 1:
            raise ConfigError("fusion_camera_every must be at least 1")
        if self.background not in (None, "slam-mapper", "dnn-monitor"):
            raise ConfigError(
                "background must be None, 'slam-mapper' or 'dnn-monitor', "
                f"got {self.background!r}"
            )
        if self.background is not None and self.controller != "dnn":
            raise ConfigError(
                "background workloads are supported with the 'dnn' controller"
            )
        if self.gemmini_dtype not in ("fp32", "int8"):
            raise ConfigError(
                f"gemmini_dtype must be 'fp32' or 'int8', got {self.gemmini_dtype!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if self.noise is not None and not isinstance(self.noise, SensorNoiseProfile):
            raise ConfigError(
                f"noise must be a SensorNoiseProfile or None, "
                f"got {type(self.noise).__name__}"
            )
        if not isinstance(self.initial_lateral_offset, (int, float)) or isinstance(
            self.initial_lateral_offset, bool
        ):
            raise ConfigError(
                f"initial_lateral_offset must be a number, "
                f"got {self.initial_lateral_offset!r}"
            )
        if self.sensor_timeout_syncs < 1:
            raise ConfigError("sensor_timeout_syncs must be at least 1")
        if self.sensor_retries < 0:
            raise ConfigError("sensor_retries must be non-negative")
        if self.check_invariants not in (None, True, False):
            raise ConfigError(
                "check_invariants must be True, False, or None (auto), "
                f"got {self.check_invariants!r}"
            )

    def env_config(self) -> EnvConfig:
        return EnvConfig(
            world=self.world,
            vehicle=self.vehicle,
            frame_rate=self.sync.frame_rate_hz,
            initial_angle_deg=self.initial_angle_deg,
            initial_lateral_offset=self.initial_lateral_offset,
            seed=self.seed,
            noise=self.noise,
        )
