"""The DNN trail-navigation controller application.

This is the program the simulated companion-computer SoC runs: an infinite
perceive-infer-act loop over the RoSE I/O device.

Each iteration: request a camera frame, wait for it (only satisfied at a
synchronization boundary), run the DNN (cycle cost from the scheduled
operator graph), convert the two softmax heads into velocity / angular
velocity targets per Equation 2, and send a TARGET_CMD to the flight
controller.

Sign conventions (Equation 2 maps onto the simulator's frames):

* class indices are 0 = left, 1 = center, 2 = right, naming where the
  *drone* sits/points relative to the trail;
* body-frame lateral velocity is positive to the left, yaw rate positive
  counter-clockwise;
* hence a "right" lateral classification commands positive (leftward)
  lateral velocity, and a "right" angular classification commands positive
  (CCW) yaw rate — both corrective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.packets import PacketType, camera_request, target_command
from repro.dnn.calibrated import TrailInference
from repro.dnn.dataset import LEFT, RIGHT
from repro.errors import ConfigError


@dataclass(frozen=True)
class ControllerGains:
    """Equation 2's controller gains (the betas) plus the altitude hold.

    The betas are *velocity-scheduled*: the commanded correction magnitude
    scales linearly with the flight-velocity target (gain scheduling — a
    faster drone needs proportionally stronger corrections to hold the same
    trajectory curvature).  ``beta_lateral`` / ``beta_angular`` are the
    effective gains at :data:`REFERENCE_VELOCITY`.
    """

    beta_lateral: float = 3.0  # m/s per unit softmax difference, at 9 m/s
    beta_angular: float = 1.3  # rad/s per unit softmax difference, at 9 m/s
    altitude: float = 1.5

    REFERENCE_VELOCITY = 9.0  # m/s

    def __post_init__(self) -> None:
        if self.beta_lateral < 0 or self.beta_angular < 0:
            raise ConfigError("controller gains must be non-negative")

    def at_velocity(self, velocity: float) -> tuple[float, float]:
        """Effective (lateral, angular) gains at a velocity target."""
        scale = velocity / self.REFERENCE_VELOCITY
        return self.beta_lateral * scale, self.beta_angular * scale


def compute_targets(
    inference: TrailInference,
    target_velocity: float,
    gains: ControllerGains,
    argmax_policy: bool = False,
) -> tuple[float, float, float]:
    """Equation 2: ``(v_forward, v_lateral, yaw_rate)`` from the heads.

    With ``argmax_policy`` the softmax outputs are replaced by one-hot
    vectors, the compensation Section 5.2/5.3 applies to low-confidence
    networks so corrections come at full gain.
    """
    y_angular = inference.angular_probs
    y_lateral = inference.lateral_probs
    if argmax_policy:
        y_angular = np.eye(3)[inference.angular_pred]
        y_lateral = np.eye(3)[inference.lateral_pred]
    beta_lateral, beta_angular = gains.at_velocity(target_velocity)
    v_lateral = beta_lateral * float(y_lateral[RIGHT] - y_lateral[LEFT])
    yaw_rate = beta_angular * float(y_angular[RIGHT] - y_angular[LEFT])
    return target_velocity, v_lateral, yaw_rate


@dataclass
class InferenceRecord:
    """One control-loop iteration's measurements (simulated time)."""

    request_cycle: int
    response_cycle: int
    model: str

    def __reduce__(self) -> tuple[type[InferenceRecord], tuple[int, int, str]]:
        # Positional: a pickled record carries no field names and loads
        # in one constructor call (copy and deepcopy take this path too).
        return (type(self), (self.request_cycle, self.response_cycle, self.model))

    @property
    def latency_cycles(self) -> int:
        return self.response_cycle - self.request_cycle


@dataclass
class AppStats:
    """Application-side telemetry shared with the host experiment.

    ``records`` measure the image-request -> DNN-output latency in target
    cycles — the quantity Figure 16(c) plots — and are the one count of
    inferences: ``inference_count`` and ``inferences_by_model`` are read
    from them.  Every other field is a plain count; the mission runner
    publishes them as the ``rose_app_*`` series when it collects the
    result.
    """

    records: list[InferenceRecord] = field(default_factory=list)
    session_switches: int = 0
    # -- degradation telemetry (all zero on a healthy link) --------------
    #: Sensor waits that expired.
    sensor_timeouts: int = 0
    #: Requests re-issued after a timeout.
    sensor_retries: int = 0
    #: Iterations flown on the previous frame.
    stale_frames_reused: int = 0
    # -- dynamic runtime deadline policy (Section 5.3) -------------------
    #: Deadline evaluations by whether the situation was at risk
    #: (``"true"``/``"false"``).
    deadline_checks: dict[str, int] = field(default_factory=dict)
    #: Evaluations whose selected network could not meet the deadline.
    deadline_misses: int = 0

    @property
    def inference_count(self) -> int:
        return len(self.records)

    @property
    def inferences_by_model(self) -> dict[str, int]:
        """Inferences per model, in order of each model's first one."""
        return dict(Counter(record.model for record in self.records))

    def latency_cycles(self) -> list[int]:
        return [r.latency_cycles for r in self.records]

    def mean_latency_ms(self, frequency_hz: float = 1e9) -> float:
        lats = self.latency_cycles()
        if not lats:
            return float("nan")
        return 1e3 * float(np.mean(lats)) / frequency_hz

    def record(self, request_cycle: int, response_cycle: int, model: str) -> None:
        self.records.append(InferenceRecord(request_cycle, response_cycle, model))


def trail_navigation_app(
    rt,
    session,
    perception,
    target_velocity: float,
    gains: ControllerGains | None = None,
    stats: AppStats | None = None,
    argmax_policy: bool = False,
    demux=None,
    sensor_timeout_cycles: int | None = None,
    sensor_retries: int = 0,
):
    """Target program: the static single-DNN controller (Sections 5.1-5.2).

    ``rt`` is the :class:`~repro.soc.program.TargetRuntime`; ``session``
    the loaded :class:`~repro.dnn.runtime.InferenceSession`; ``perception``
    a :class:`~repro.app.perception.Perception`.  When sharing the SoC
    with other tasks, pass the shared :class:`~repro.soc.demux.IoDemux`
    so responses for neighbours are preserved.

    ``sensor_timeout_cycles`` arms the degradation path for a faulty
    link: a camera wait that expires is retried up to ``sensor_retries``
    times; if every attempt times out the controller *reuses the previous
    frame* (stale-but-sane perception), or — before any frame has ever
    arrived, when it has sent no command yet either — sends nothing and
    tries again.  Left at ``None`` (the default) the wait is indefinite
    and behaviour is identical to the fault-free controller.
    """
    gains = gains or ControllerGains()
    stats = stats if stats is not None else AppStats()
    model_name = session.graph.name
    last_frame = None
    while True:
        request_cycle = yield from rt.current_cycle()
        frame = None
        for attempt in range(1 + sensor_retries):
            if demux is not None:
                frame = yield from demux.request(
                    rt, camera_request(), PacketType.CAMERA_RESP, sensor_timeout_cycles
                )
            else:
                frame = yield from rt.request_response(
                    camera_request(), PacketType.CAMERA_RESP, sensor_timeout_cycles
                )
            if frame is not None:
                break
            stats.sensor_timeouts += 1
            if attempt < sensor_retries:
                stats.sensor_retries += 1
        if frame is None:
            if last_frame is None:
                # Flying blind with no history (and so no command sent
                # yet): try again next iteration.
                continue
            frame = last_frame
            stats.stale_frames_reused += 1
        else:
            last_frame = frame
        yield from rt.run_inference(session)
        inference = perception.infer_packet(frame)
        v_forward, v_lateral, yaw_rate = compute_targets(
            inference, target_velocity, gains, argmax_policy=argmax_policy
        )
        command = target_command(v_forward, v_lateral, yaw_rate, gains.altitude)
        yield from rt.send_packet(command)
        response_cycle = yield from rt.current_cycle()
        stats.record(request_cycle, response_cycle, model_name)
