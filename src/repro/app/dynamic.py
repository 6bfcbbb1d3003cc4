"""Dynamic, environment-dependent runtime (Section 5.3).

"Instead of uniformly executing the same ResNet in all scenarios, we
adaptively select which DNN is used to generate control targets depending
on the system deadlines.  We determine the deadline by measuring
forward-facing depth-sensor readings from the UAV. ... When the deadline
is over a threshold, we use the classifier outputs for ResNet14.  However,
when the UAV is at risk of collision, we dynamically switch to ResNet6 so
that we can get updated control targets faster.  Furthermore ... we use
the argmax of both the angular and lateral classes when using ResNet6, so
that the UAV corrects its trajectory faster."

The program hosts two inference sessions; switching between them pays a
session re-activation cost (cold caches / weight refetch), which is why
the paper measures ~15% fewer total inferences for the dynamic runtime
than for a static ResNet14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.app.controller import AppStats, ControllerGains, compute_targets
from repro.app.deadline import DeadlinePolicy
from repro.core.packets import PacketType, camera_request, depth_request, target_command
from repro.dnn.runtime import SESSION_SWITCH_CYCLES


@dataclass
class DynamicRuntimeConfig:
    """Policy parameters for the adaptive selection."""

    policy: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    gains: ControllerGains = field(default_factory=ControllerGains)
    switch_cycles: int = SESSION_SWITCH_CYCLES


def dynamic_trail_app(
    rt,
    session_hi,
    session_lo,
    perception_hi,
    perception_lo,
    target_velocity: float,
    config: DynamicRuntimeConfig | None = None,
    stats: AppStats | None = None,
):
    """Target program: deadline-adaptive dual-DNN controller.

    ``session_hi`` / ``perception_hi`` are the high-accuracy network
    (ResNet14 in the paper); ``session_lo`` / ``perception_lo`` the
    low-latency one (ResNet6, used with the argmax policy).
    """
    config = config or DynamicRuntimeConfig()
    stats = stats if stats is not None else AppStats()
    active_model: str | None = None

    while True:
        request_cycle = yield from rt.current_cycle()

        # Deadline measurement: forward depth at the current velocity.
        depth_packet = yield from rt.request_response(
            depth_request(), PacketType.DEPTH_RESP
        )
        depth = float(depth_packet.values[0])
        at_risk = config.policy.at_risk(depth, target_velocity)
        checks = stats.deadline_checks
        outcome = "true" if at_risk else "false"
        checks[outcome] = checks.get(outcome, 0) + 1
        if at_risk:
            session, perception, argmax = session_lo, perception_lo, True
        else:
            session, perception, argmax = session_hi, perception_hi, False

        # Deadline-miss accounting (Eq. 5): even the selected network may
        # be too slow for the measured time-to-collision.
        compute_s = session.report.total_cycles / session.cpu.frequency_hz
        if not config.policy.meets_deadline(depth, target_velocity, compute_s):
            stats.deadline_misses += 1

        # Session re-activation cost when the selection changed.
        if active_model is not None and session.graph.name != active_model:
            stats.session_switches += 1
            yield from rt.compute(config.switch_cycles)
        active_model = session.graph.name

        frame = yield from rt.request_response(camera_request(), PacketType.CAMERA_RESP)
        yield from rt.run_inference(session)
        inference = perception.infer_packet(frame)
        v_forward, v_lateral, yaw_rate = compute_targets(
            inference, target_velocity, config.gains, argmax_policy=argmax
        )
        yield from rt.send_packet(
            target_command(v_forward, v_lateral, yaw_rate, config.gains.altitude)
        )
        response_cycle = yield from rt.current_cycle()
        stats.record(request_cycle, response_cycle, active_model)
