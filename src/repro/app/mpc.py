"""Nonlinear MPC trail-following controller (a Section 6 extension).

The paper's future-work section highlights "classical algorithms such as
SLAM and nonlinear MPC [that] build upon iterative optimization algorithms
... [with] data-dependent runtime behaviors and access patterns, where
RoSE can capture their performance implications on both hardware and
software."  This module implements that workload: a model-predictive
controller that tracks the course centerline using the UAV's kinematic
state and an onboard map, solved by iterative gradient descent whose
iteration count depends on how far the vehicle has been disturbed — a
*data-dependent* compute cost the cycle model charges per solve.

The MPC plans body-frame lateral-velocity and yaw-rate sequences over a
receding horizon, minimizing predicted lateral offset, heading error and
control effort under a kinematic rollout, then commands the first step
(standard receding-horizon operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.packets import PacketType, state_request, target_command
from repro.env.worlds import World
from repro.errors import ConfigError


@dataclass
class MpcConfig:
    """Horizon, weights and solver limits."""

    horizon: int = 10
    step_dt: float = 0.12  # s per prediction step
    max_iterations: int = 60
    min_iterations: int = 3
    convergence_tol: float = 1e-3  # stop when the cost improves less
    learning_rate: float = 0.12
    weight_offset: float = 1.0
    weight_heading: float = 0.6
    weight_control: float = 0.02
    max_lateral_velocity: float = 4.0
    max_yaw_rate: float = 1.5
    altitude: float = 1.5
    control_rate_hz: float = 50.0  # receding-horizon replan rate
    #: FLOPs per rollout step per solver iteration (rollout + numeric
    #: gradient of the stage cost); sets the cycle cost per iteration.
    flops_per_stage: int = 260

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not (0 < self.min_iterations <= self.max_iterations):
            raise ConfigError("iteration limits must satisfy 0 < min <= max")
        if self.step_dt <= 0:
            raise ConfigError("step_dt must be positive")

    @property
    def flops_per_iteration(self) -> int:
        return self.horizon * self.flops_per_stage


@dataclass
class MpcSolution:
    """One receding-horizon solve."""

    v_lateral: float
    yaw_rate: float
    iterations: int
    cost: float
    flops: int


@dataclass
class MpcStats:
    """Telemetry: the data-dependent runtime the experiments measure."""

    iteration_history: list[int] = field(default_factory=list)

    def record(self, solution: MpcSolution) -> None:
        self.iteration_history.append(solution.iterations)

    @property
    def solves(self) -> int:
        return len(self.iteration_history)

    @property
    def total_iterations(self) -> int:
        return sum(self.iteration_history)

    @property
    def mean_iterations(self) -> float:
        return self.total_iterations / self.solves if self.solves else 0.0


class MpcController:
    """Gradient-descent MPC over (lateral velocity, yaw rate) sequences."""

    def __init__(self, world: World, target_velocity: float, config: MpcConfig | None = None):
        if target_velocity <= 0:
            raise ConfigError("target_velocity must be positive")
        self.world = world
        self.target_velocity = target_velocity
        self.config = config or MpcConfig()
        # Warm start: the previous solution, shifted (receding horizon).
        self._warm = np.zeros((self.config.horizon, 2))

    # -- model -----------------------------------------------------------
    def _rollout_costs(self, controls: np.ndarray, state: tuple[float, float, float]) -> np.ndarray:
        """Predicted cost of a *batch* of control sequences.

        ``controls`` has shape (B, H, 2); returns (B,) costs.  The batch
        dimension carries the numeric-gradient perturbations, so one call
        prices a whole solver iteration.
        """
        cfg = self.config
        batch = controls.shape[0]
        x = np.full(batch, state[0])
        y = np.full(batch, state[1])
        yaw = np.full(batch, state[2])
        cost = np.zeros(batch)
        for k in range(cfg.horizon):
            v_lat = controls[:, k, 0]
            yaw_rate = controls[:, k, 1]
            yaw = yaw + yaw_rate * cfg.step_dt
            cos_y, sin_y = np.cos(yaw), np.sin(yaw)
            x = x + (self.target_velocity * cos_y - v_lat * sin_y) * cfg.step_dt
            y = y + (self.target_velocity * sin_y + v_lat * cos_y) * cfg.step_dt
            offsets, course_yaws = self.world.batch_course_frames(
                np.column_stack([x, y])
            )
            delta = yaw - course_yaws
            heading_err = np.arctan2(np.sin(delta), np.cos(delta))
            cost += (
                cfg.weight_offset * offsets**2
                + cfg.weight_heading * heading_err**2
                + cfg.weight_control * (v_lat**2 + yaw_rate**2)
            )
        return cost

    def _rollout_cost(self, controls: np.ndarray, state: tuple[float, float, float]) -> float:
        """Scalar convenience wrapper over :meth:`_rollout_costs`."""
        return float(self._rollout_costs(controls[None, :, :], state)[0])

    # -- solver -----------------------------------------------------------
    def solve(self, x: float, y: float, yaw: float) -> MpcSolution:
        """Run the iterative solver; iteration count is data-dependent."""
        cfg = self.config
        state = (x, y, yaw)
        controls = self._warm.copy()
        cost = self._rollout_cost(controls, state)
        iterations = 0
        eps = 1e-3
        limits = np.array([cfg.max_lateral_velocity, cfg.max_yaw_rate])
        n_vars = cfg.horizon * 2

        while iterations < cfg.max_iterations:
            iterations += 1
            # Numeric gradient: one batched rollout prices all 2H bumps.
            bumps = np.repeat(controls[None, :, :], n_vars, axis=0)
            bumps.reshape(n_vars, n_vars)[np.arange(n_vars), np.arange(n_vars)] += eps
            bump_costs = self._rollout_costs(bumps, state)
            grad = ((bump_costs - cost) / eps).reshape(cfg.horizon, 2)
            candidate = np.clip(controls - cfg.learning_rate * grad, -limits, limits)
            candidate_cost = self._rollout_cost(candidate, state)
            improvement = cost - candidate_cost
            if candidate_cost < cost:
                controls, cost = candidate, candidate_cost
            if iterations >= cfg.min_iterations and improvement < cfg.convergence_tol:
                break

        # Receding horizon: shift and keep as the next warm start.
        self._warm = np.vstack([controls[1:], controls[-1:]])
        return MpcSolution(
            v_lateral=float(controls[0, 0]),
            yaw_rate=float(controls[0, 1]),
            iterations=iterations,
            cost=cost,
            flops=iterations * cfg.flops_per_iteration,
        )


def mpc_navigation_app(
    rt,
    controller: MpcController,
    cpu,
    stats: MpcStats | None = None,
):
    """Target program: state-feedback MPC navigation.

    Each loop: request the kinematic state (through the flight-controller
    link, like a real companion computer over MAVLink), solve the MPC
    (compute cycles = data-dependent iterations x per-iteration FLOPs on
    the host core), and command the first planned control.
    """
    stats = stats if stats is not None else MpcStats()
    cfg = controller.config
    period_cycles = int(cpu.frequency_hz / cfg.control_rate_hz)
    while True:
        state = yield from rt.request_response(state_request(), PacketType.STATE_RESP)
        x, y, _z, yaw = state.values[0], state.values[1], state.values[2], state.values[3]
        solution = controller.solve(x, y, yaw)
        stats.record(solution)
        compute_cycles = cpu.scalar_flops_cycles(solution.flops)
        yield from rt.compute(compute_cycles)
        yield from rt.send_packet(
            target_command(
                controller.target_velocity,
                solution.v_lateral,
                solution.yaw_rate,
                cfg.altitude,
            )
        )
        # Fixed replan rate: idle out the remainder of the control period.
        if compute_cycles < period_cycles:
            yield from rt.delay(period_cycles - compute_cycles)
