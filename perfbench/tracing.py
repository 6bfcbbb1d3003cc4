"""Outside-in per-layer tracing for the benchmark's traced runs.

Every entry point in :data:`ENTRY_POINTS` is wrapped by attribute
replacement on its owning module or class, from this file, and restored
afterwards; the program itself carries no instrumentation.  A wrapper
opens a span on a monotonic wall clock, so time spent blocked (fsync,
sleeps) lands in the layer that issued it.  A layer's *self* time is its
spans' duration minus the part covered by nested spans; time inside the
traced region but outside every span is reported as unattributed, so

    sum(<layer>.self_s) + trace.unattributed_s == trace.total_s

holds by construction.  Totals stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Layer vocabulary, in report order.
LAYERS = (
    "sync.grant",
    "sync.log_row",
    "link.rpc",
    "link.codec",
    "env.camera",
    "env.dynamics",
    "env.project",
    "soc.window",
    "app.infer",
    "batch.round",
    "cosim.mission",
    "obs.record",
    "sweep.cache",
    "sweep.journal",
    "serve.lease",
    "serve.store",
    "serve.report",
    "scenario.compile",
    "scenario.search",
)

#: Every RPC method the environment server registers (``link.rpc.calls.<m>``).
RPC_METHODS = (
    "continue_for_frames",
    "get_camera_image",
    "get_collision_count",
    "get_course_state",
    "get_depth",
    "get_imu",
    "get_lidar",
    "get_mission_time",
    "get_progress",
    "get_sim_time",
    "get_state",
    "mission_complete",
    "ping",
    "reset",
    "send_velocity_target",
    "takeoff",
)

#: Counters reported beside the per-layer calls/self_s pairs.
EXTRA_COUNTERS = (
    "link.codec.discards",
    "env.camera.frames",
    "env.dynamics.frames",
    "soc.window.sim_cycles",
    "batch.round.lanes",
    "batch.round.fallbacks",
    "sweep.cache.hits",
    "sweep.cache.puts",
    "scenario.compile.rejects",
) + tuple(f"link.rpc.calls.{method}" for method in RPC_METHODS)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped attribute: ``module.attr`` or ``module.Class.attr``."""

    layer: str
    module: str
    attr: str
    #: Optional ``(tracer, args) -> token`` run before the call.
    before: Callable[["Tracer", tuple], Any] | None = None
    #: Optional ``(tracer, token, args, result, exc) -> None`` run after.
    after: Callable[["Tracer", Any, tuple, Any, BaseException | None], None] | None = None


# -- per-call counters ---------------------------------------------------
def _rpc_method(tracer: "Tracer", _token: Any, args: tuple, _result: Any, _exc: Any) -> None:
    tracer.count(f"link.rpc.calls.{args[1]}")


def _codec_discard(tracer: "Tracer", _token: Any, _args: tuple, _result: Any, exc: Any) -> None:
    if exc is not None:
        tracer.count("link.codec.discards")


def _one_frame(tracer: "Tracer", _token: Any, _args: tuple, _result: Any, _exc: Any) -> None:
    tracer.count("env.camera.frames")


def _lane_frames(tracer: "Tracer", _token: Any, args: tuple, _result: Any, _exc: Any) -> None:
    # render_lanes(camera, world, x, y, yaw): one frame per lane.
    tracer.count("env.camera.frames", len(args[2]))


def _advance_frames(tracer: "Tracer", _token: Any, args: tuple, _result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("env.dynamics.frames", int(args[1]))


def _lane_pose_frames(tracer: "Tracer", _token: Any, args: tuple, _result: Any, _exc: Any) -> None:
    # integrate_pose(lanes, dt, params) runs once per frame for every lane.
    tracer.count("env.dynamics.frames", len(args[0].x))


def _cycles_before(_tracer: "Tracer", args: tuple) -> int:
    return args[0].soc.cycle


def _cycles_after(tracer: "Tracer", before: int, args: tuple, _result: Any, _exc: Any) -> None:
    tracer.count("soc.window.sim_cycles", args[0].soc.cycle - before)


def _engine_lanes(tracer: "Tracer", _token: Any, args: tuple, _result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("batch.round.lanes", len(args[0].lanes))
    _engine_fallback(tracer, None, args, None, exc)


def _engine_fallback(tracer: "Tracer", _token: Any, _args: tuple, _result: Any, exc: Any) -> None:
    if exc is not None and type(exc).__name__ == "BatchIneligible":
        tracer.count("batch.round.fallbacks")


def _cache_hit(tracer: "Tracer", _token: Any, _args: tuple, result: Any, _exc: Any) -> None:
    if result is not None:
        tracer.count("sweep.cache.hits")


def _cache_put(tracer: "Tracer", _token: Any, _args: tuple, _result: Any, exc: Any) -> None:
    if exc is None:
        tracer.count("sweep.cache.puts")


def _compile_reject(tracer: "Tracer", _token: Any, _args: tuple, _result: Any, exc: Any) -> None:
    if exc is not None and type(exc).__name__ == "ScenarioError":
        tracer.count("scenario.compile.rejects")


_DYNAMICS_KERNELS = (
    "PidLanes.update",
    "vertical_errors",
    "applied_commands",
    "integrate_velocities",
    "limit_speed",
    "wall_distances",
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("sync.grant", "repro.core.synchronizer", "Synchronizer.step"),
    EntryPoint("sync.log_row", "repro.core.synchronizer", "Synchronizer._log_row"),
    EntryPoint("link.rpc", "repro.env.rpc", "RpcServer.call", after=_rpc_method),
    EntryPoint("link.codec", "repro.core.transport", "encode_packet"),
    EntryPoint("link.codec", "repro.core.transport", "decode_packet", after=_codec_discard),
    EntryPoint("env.camera", "repro.env.camera", "FpvCamera.render", after=_one_frame),
    EntryPoint("env.camera", "repro.batch.kernels", "render_lanes", after=_lane_frames),
    EntryPoint(
        "env.dynamics",
        "repro.env.simulator",
        "EnvSimulator.continue_for_frames",
        after=_advance_frames,
    ),
    *(EntryPoint("env.dynamics", "repro.batch.kernels", name) for name in _DYNAMICS_KERNELS),
    EntryPoint("env.dynamics", "repro.batch.kernels", "integrate_pose", after=_lane_pose_frames),
    EntryPoint("env.project", "repro.env.worlds", "World.course_coordinates"),
    EntryPoint("env.project", "repro.env.worlds", "World.heading_error"),
    EntryPoint("env.project", "repro.batch.kernels", "project_lanes"),
    EntryPoint(
        "soc.window",
        "repro.soc.firesim",
        "FireSimHost.service",
        before=_cycles_before,
        after=_cycles_after,
    ),
    EntryPoint("app.infer", "repro.core.timing", "TimedPerception.infer_packet"),
    EntryPoint("app.infer", "repro.app.perception", "BehavioralPerception.infer_packet"),
    EntryPoint("app.infer", "repro.app.perception", "CnnPerception.infer_packet"),
    EntryPoint("app.infer", "repro.batch.infer", "BatchedCnnPerception.infer_packet"),
    EntryPoint("app.infer", "repro.batch.infer", "BatchedCnnPerception.prime_batch"),
    EntryPoint("app.infer", "repro.dnn.runtime", "InferenceSession.run"),
    EntryPoint("batch.round", "repro.batch.engine", "BatchEngine.__init__", after=_engine_fallback),
    EntryPoint("batch.round", "repro.batch.engine", "BatchEngine.run", after=_engine_lanes),
    EntryPoint("batch.round", "repro.batch.engine", "run_batch"),
    EntryPoint("batch.round", "repro.sweep.runner", "run_batch"),
    EntryPoint("batch.round", "repro.batch.engine", "batch_eligible"),
    EntryPoint("batch.round", "repro.sweep.runner", "batch_eligible"),
    EntryPoint("cosim.mission", "repro.core.cosim", "CoSimulation.__init__"),
    EntryPoint("cosim.mission", "repro.core.cosim", "CoSimulation.run"),
    EntryPoint("obs.record", "repro.obs.metrics", "MetricsRegistry.snapshot"),
    EntryPoint("obs.record", "repro.serve.service", "mission_signature"),
    EntryPoint("obs.record", "repro.scenario.fuzz", "mission_signature"),
    EntryPoint("sweep.cache", "repro.sweep.cache", "ResultCache.get", after=_cache_hit),
    EntryPoint("sweep.cache", "repro.sweep.cache", "ResultCache.put", after=_cache_put),
    EntryPoint("sweep.journal", "repro.sweep.journal", "append_jsonl"),
    *(
        EntryPoint("serve.lease", "repro.serve.scheduler", f"Scheduler.{name}")
        for name in ("submit", "lease", "heartbeat", "complete", "tick")
    ),
    EntryPoint("serve.store", "repro.serve.jobs", "append_jsonl"),
    EntryPoint("serve.report", "repro.serve.service", "SweepService.report"),
    EntryPoint("serve.report", "repro.serve.service", "report_signature"),
    EntryPoint("scenario.compile", "repro.scenario.fuzz", "compile_config", after=_compile_reject),
    EntryPoint("scenario.search", "repro.scenario.fuzz", "mutate"),
    EntryPoint("scenario.search", "repro.scenario.fuzz", "minimize_scenario"),
    EntryPoint("scenario.search", "repro.scenario.coverage", "CoverageMap.observe"),
)


class Tracer:
    """In-memory span accumulator: per-layer calls, self and inclusive time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, float] = dict.fromkeys(EXTRA_COUNTERS, 0)
        #: Child-time accumulators of the open spans; slot 0 collects the
        #: time covered by outermost spans.
        self._stack: list[float] = [0.0]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def covered_s(self) -> float:
        """Time covered by outermost spans so far."""
        return self._stack[0]

    def wrap(self, layer: str, fn: Callable, before=None, after=None) -> Callable:
        """``fn`` wrapped in a ``layer`` span (plus optional counter hooks)."""
        clock = self.clock
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            token = before(self, args) if before is not None else None
            result = exc = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - stack.pop()
                incl_s[layer] += elapsed
                stack[-1] += elapsed
                calls[layer] += 1
                if after is not None:
                    after(self, token, args, result, exc)

        return span


def _resolve(module_name: str, attr: str) -> tuple[Any, str] | None:
    """``(owner, name)`` for a dotted attribute, or ``None`` if absent."""
    owner: Any = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Installation:
    """The wrappers installed for one traced region; undo with :meth:`restore`."""

    def __init__(self) -> None:
        #: ``(owner, name, original raw attribute)`` in install order.
        self.patched: list[tuple[Any, str, Any]] = []
        #: Entry points that no longer exist in the program.
        self.missing: list[str] = []

    def restore(self) -> None:
        while self.patched:
            owner, name, raw = self.patched.pop()
            setattr(owner, name, raw)


def install(tracer: Tracer, entry_points: Iterable[EntryPoint] = ENTRY_POINTS) -> Installation:
    """Wrap every entry point in a ``tracer`` span, by attribute replacement."""
    installation = Installation()
    try:
        for entry in entry_points:
            found = _resolve(entry.module, entry.attr)
            if found is None:
                installation.missing.append(f"{entry.module}.{entry.attr}")
                continue
            owner, name = found
            raw = vars(owner)[name]
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            wrapped = tracer.wrap(entry.layer, fn, entry.before, entry.after)
            setattr(owner, name, kind(wrapped) if kind is not None else wrapped)
            installation.patched.append((owner, name, raw))
    except BaseException:
        installation.restore()
        raise
    return installation


class TaskObserver:
    """Sees every task list a SweepRunner runs during the traced round.

    It tallies ``batch_eligible`` over those tasks (``eligible_share`` and
    the reasons) and, for runners with ``batch_size > 1``, counts eligible
    cache misses that the report says did not batch: the chunks
    ``SweepRunner._run_batched`` silently sent to the serial path.
    """

    def __init__(self) -> None:
        from repro.batch.eligibility import batch_eligible
        from repro.sweep import runner

        self._runner = runner
        self._eligible = batch_eligible
        self._original = vars(runner.SweepRunner)["run"]
        self.tasks = 0
        self.eligible = 0
        self.reasons: dict[str, int] = {}
        self.unbatched = 0

    def install(self) -> None:
        original = self._original

        def run(runner_self, tasks):
            tasks = list(tasks)
            report = original(runner_self, tasks)
            candidates = 0
            for outcome in report.outcomes:
                ok, reason = self._eligible(outcome.config)
                self.tasks += 1
                self.eligible += ok
                if not ok:
                    self.reasons[reason] = self.reasons.get(reason, 0) + 1
                elif not outcome.from_cache:
                    candidates += 1
            if runner_self.batch_size > 1:
                self.unbatched += candidates - report.batched_missions
            return report

        self._runner.SweepRunner.run = run

    def restore(self) -> None:
        self._runner.SweepRunner.run = self._original

    @property
    def eligible_share(self) -> float:
        return self.eligible / self.tasks if self.tasks else 0.0

    def describe(self) -> str:
        reasons = "; ".join(f"{reason}: {n}" for reason, n in sorted(self.reasons.items()))
        return (f"batch_eligible over swept tasks: {self.eligible}/{self.tasks} eligible"
                + (f" (ineligible: {reasons})" if reasons else "")
                + f"; eligible misses not batched: {self.unbatched}")
