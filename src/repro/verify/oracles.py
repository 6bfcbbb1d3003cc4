"""Differential oracles: optimized implementations vs. pure references.

Every performance-oriented rewrite in this repository (im2col
convolutions, scatter-based col2im, the parallel sweep engine, the TCP
transport, the result cache) has a slower, obviously-correct
counterpart.  A *differential oracle* runs both on identical inputs and
reports the **first divergence** — which layer, which step, which field,
which two values — instead of a bare pass/fail.

Oracles register themselves with :func:`oracle` and are executed by
:class:`DiffRunner`; ``python -m repro verify --oracles`` runs the whole
registry, and the tier-1 suite pins each one individually.

Tolerance policy: kernels whose optimized and reference paths perform
the *same* arithmetic (im2col/col2im gather-scatter, max pooling,
transports, caching, sweeps) are compared **bit-exactly**; kernels where
the optimized path reassociates a float32 reduction (BLAS matmul vs. a
loop of dot products) are compared to a tight element-wise tolerance,
and the first element exceeding it is reported.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, MissionResult, run_mission
from repro.core.faults import FaultPlan
from repro.dnn import layers as opt
from repro.dnn import reference as ref
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner
from repro.sweep.signature import canonical_payload, mission_signature
from repro.verify.diffutil import Divergence, first_divergence, mission_divergence

#: Relative/absolute tolerance for kernels whose optimized path
#: reassociates a float32 sum (matmul vs. loop-of-dots).
RTOL = 1e-5
ATOL = 1e-6

#: An oracle body: runs both implementations, returns every divergence.
OracleFunc = Callable[[], list[Divergence]]

_REGISTRY: dict[str, "Oracle"] = {}


@dataclass(frozen=True)
class Oracle:
    """One registered differential check."""

    name: str
    description: str
    func: OracleFunc

    def run(self) -> list[Divergence]:
        return self.func()


def oracle(name: str, description: str) -> Callable[[OracleFunc], OracleFunc]:
    """Register a differential oracle.  The function returns divergences."""

    def register(func: OracleFunc) -> OracleFunc:
        _REGISTRY[name] = Oracle(name=name, description=description, func=func)
        return func

    return register


def registered_oracles() -> dict[str, Oracle]:
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Numeric comparison helper
# ---------------------------------------------------------------------------
def array_divergence(
    site: str,
    expected: np.ndarray,
    actual: np.ndarray,
    layer: str | None = None,
    step: int | None = None,
    exact: bool = False,
) -> Divergence | None:
    """First element where two arrays disagree, or ``None``.

    ``exact=True`` demands bitwise equality (gather/scatter kernels);
    otherwise the comparison allows float32-reassociation noise and
    reports the first element outside tolerance.
    """
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    if expected.shape != actual.shape:
        return Divergence(
            site=site,
            layer=layer,
            step=step,
            field="shape",
            expected=expected.shape,
            actual=actual.shape,
        )
    if exact:
        mismatch = expected != actual
    else:
        mismatch = ~np.isclose(expected, actual, rtol=RTOL, atol=ATOL)
    if not mismatch.any():
        return None
    index = tuple(int(i) for i in np.argwhere(mismatch)[0])
    return Divergence(
        site=site,
        layer=layer,
        step=step,
        field=f"element{list(index)}",
        expected=float(expected[index]),
        actual=float(actual[index]),
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Kernel oracles (repro.dnn.layers vs repro.dnn.reference)
# ---------------------------------------------------------------------------
@oracle(
    "im2col-col2im",
    "sliding-window im2col and scatter col2im vs. explicit loop nests "
    "(exact, over a stride x kernel x pad grid)",
)
def _oracle_im2col_col2im() -> list[Divergence]:
    out: list[Divergence] = []
    rng = _rng(0)
    for stride in (1, 2, 3):
        for k in (1, 2, 3):
            for pad in (0, 1):
                x = rng.standard_normal((2, 3, 8, 9)).astype(np.float32)
                want_cols, oh, ow = ref.naive_im2col(x, k, k, stride, pad)
                got_cols, got_oh, got_ow = opt.im2col(x, k, k, stride, pad)
                case = f"k={k} stride={stride} pad={pad}"
                if (oh, ow) != (got_oh, got_ow):
                    out.append(
                        Divergence(
                            site="im2col-col2im",
                            layer=f"im2col[{case}]",
                            field="output-shape",
                            expected=(oh, ow),
                            actual=(got_oh, got_ow),
                        )
                    )
                    continue
                hit = array_divergence(
                    "im2col-col2im",
                    want_cols,
                    got_cols,
                    layer=f"im2col[{case}]",
                    exact=True,
                )
                if hit is not None:
                    out.append(hit)
                    continue
                grad_cols = rng.standard_normal(want_cols.shape).astype(np.float32)
                want_x = ref.naive_col2im(
                    grad_cols, x.shape, k, k, stride, pad, oh, ow
                )
                got_x = opt.col2im(grad_cols, x.shape, k, k, stride, pad, oh, ow)
                # Disjoint windows fold as a pure scatter (exact); the
                # overlap path accumulates per kernel offset while the
                # naive loop accumulates per patch — the float32 sums
                # reassociate, so overlaps compare to tolerance.
                hit = array_divergence(
                    "im2col-col2im",
                    want_x,
                    got_x,
                    layer=f"col2im[{case}]",
                    exact=stride >= k,
                )
                if hit is not None:
                    out.append(hit)
    return out


def _forward_cases() -> list[tuple[str, object, object, np.ndarray]]:
    """(layer-name, optimized-layer, reference-closure, input) cases."""
    rng = _rng(1)
    cases: list[tuple[str, object, object, np.ndarray]] = []

    conv = opt.Conv2d(3, 8, 3, stride=1, padding=1, rng=_rng(2), name="conv3x3")
    x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    cases.append(
        (
            "conv3x3",
            conv,
            lambda x, c=conv: ref.naive_conv2d_forward(
                x, c.weight.value, c.bias.value, c.stride, c.padding
            ),
            x,
        )
    )

    strided = opt.Conv2d(4, 6, 3, stride=2, padding=1, rng=_rng(3), name="conv-s2")
    xs = rng.standard_normal((1, 4, 9, 9)).astype(np.float32)
    cases.append(
        (
            "conv-s2",
            strided,
            lambda x, c=strided: ref.naive_conv2d_forward(
                x, c.weight.value, c.bias.value, c.stride, c.padding
            ),
            xs,
        )
    )

    pool = opt.MaxPool2d(2)
    xp = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    cases.append(("maxpool2", pool, lambda x: ref.naive_maxpool_forward(x, 2, 2), xp))

    gap = opt.GlobalAvgPool2d()
    xg = rng.standard_normal((2, 5, 6, 6)).astype(np.float32)
    cases.append(("gap", gap, ref.naive_global_avgpool_forward, xg))

    fc = opt.Linear(12, 7, rng=_rng(4), name="fc")
    xf = rng.standard_normal((3, 12)).astype(np.float32)
    cases.append(
        (
            "fc",
            fc,
            lambda x, l=fc: ref.naive_linear_forward(x, l.weight.value, l.bias.value),
            xf,
        )
    )
    return cases


@oracle(
    "dnn-forward",
    "optimized layer forwards (conv/maxpool/avgpool/linear) vs. naive "
    "loop nests, layer by layer",
)
def _oracle_dnn_forward() -> list[Divergence]:
    out: list[Divergence] = []
    for name, layer, reference, x in _forward_cases():
        got = layer.forward(x)
        want = reference(x)
        exact = name in ("maxpool2", "gap")
        hit = array_divergence(
            "dnn-forward", want, got, layer=name, exact=exact
        )
        if hit is not None:
            out.append(hit)
    return out


@oracle(
    "dnn-backward",
    "conv dx/dweight/dbias (via reference col2im) and maxpool gradient "
    "routing vs. naive implementations",
)
def _oracle_dnn_backward() -> list[Divergence]:
    out: list[Divergence] = []
    rng = _rng(5)

    # Conv backward: dcols is a matmul and the 3x3/stride-2 windows
    # overlap, so dx compares to tolerance; the disjoint max-pool fold
    # below is the exact-path check.
    conv = opt.Conv2d(3, 5, 3, stride=2, padding=1, rng=_rng(6), name="conv-bwd")
    x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
    y = conv.forward(x)
    grad = rng.standard_normal(y.shape).astype(np.float32)
    for p in conv.parameters():
        p.zero_grad()
    dx = conv.backward(grad)

    n = grad.shape[0]
    _, _, oh, ow = conv._cache if conv._cache else (None, None, 0, 0)
    g2d = grad.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    w2d = conv.weight.value.reshape(conv.out_channels, -1)
    dcols = g2d @ w2d
    want_dx = ref.naive_col2im(
        dcols, x.shape, conv.kernel_size, conv.kernel_size,
        conv.stride, conv.padding, oh, ow,
    )
    hit = array_divergence("dnn-backward", want_dx, dx, layer="conv-bwd.dx")
    if hit is not None:
        out.append(hit)

    # dweight/dbias against per-element reference accumulation.
    want_cols, _, _ = ref.naive_im2col(
        x, conv.kernel_size, conv.kernel_size, conv.stride, conv.padding
    )
    want_dw = (g2d.T @ want_cols).reshape(conv.weight.value.shape)
    hit = array_divergence(
        "dnn-backward", want_dw, conv.weight.grad, layer="conv-bwd.dweight"
    )
    if hit is not None:
        out.append(hit)
    want_db = g2d.sum(axis=0)
    hit = array_divergence(
        "dnn-backward", want_db, conv.bias.grad, layer="conv-bwd.dbias"
    )
    if hit is not None:
        out.append(hit)

    # Max pooling gradient routing (pure gather/scatter: exact).
    pool = opt.MaxPool2d(2)
    xp = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    yp = pool.forward(xp)
    gp = rng.standard_normal(yp.shape).astype(np.float32)
    got_dxp = pool.backward(gp)
    want_dxp = ref.naive_maxpool_backward(xp, gp, 2, 2)
    hit = array_divergence(
        "dnn-backward", want_dxp, got_dxp, layer="maxpool2.dx", exact=True
    )
    if hit is not None:
        out.append(hit)
    return out


# ---------------------------------------------------------------------------
# System oracles (sweep / transport / faults / cache)
# ---------------------------------------------------------------------------
def _tiny_config(**overrides: Any) -> CoSimConfig:
    base: dict[str, Any] = dict(
        world="tunnel",
        soc="A",
        model="resnet6",
        max_sim_time=1.0,
        check_invariants=True,
    )
    base.update(overrides)
    return CoSimConfig(**base)


def _mission_pair_divergence(
    site: str, reference_cfg: CoSimConfig, optimized_cfg: CoSimConfig
) -> list[Divergence]:
    """Run both configs and first-diverge their canonical payloads."""
    return _result_pair_divergence(
        site, run_mission(reference_cfg), run_mission(optimized_cfg)
    )


def _result_pair_divergence(
    site: str, want: MissionResult, got: MissionResult
) -> list[Divergence]:
    """First divergence between two missions' canonical payloads."""
    if mission_signature(want) == mission_signature(got):
        return []
    hit = mission_divergence(canonical_payload(want), canonical_payload(got), site)
    if hit is None:  # signature differs but payloads match: impossible unless
        hit = Divergence(  # canonicalization itself broke — still report.
            site=site,
            field="signature",
            expected=mission_signature(want),
            actual=mission_signature(got),
        )
    return [hit]


@oracle(
    "sweep-parallel",
    "two-worker sweep vs. in-process serial reference runs "
    "(bit-identical signatures)",
)
def _oracle_sweep_parallel() -> list[Divergence]:
    configs = [_tiny_config(seed=s) for s in (0, 1, 2)]
    want = [run_mission(cfg) for cfg in configs]  # serial reference
    report = SweepRunner(workers=2).run(
        [(f"seed{cfg.seed}", cfg) for cfg in configs]
    )
    out: list[Divergence] = []
    for cfg, reference, outcome in zip(configs, want, report.outcomes):
        if mission_signature(reference) == mission_signature(outcome.result):
            continue
        hit = mission_divergence(
            canonical_payload(reference),
            canonical_payload(outcome.result),
            f"sweep-parallel[seed={cfg.seed}]",
        )
        if hit is not None:
            out.append(hit)
    return out


@oracle(
    "batch-vs-serial",
    "batched sweep vs. per-mission serial runs over a mixed group (seeds, "
    "models, mission lengths): every eligible lane batched, bit-identical "
    "signatures",
)
def _oracle_batch_vs_serial() -> list[Divergence]:
    # A deliberately ragged group: different seeds, different DNNs, and
    # one mission that terminates early — plus an ineligible (MPC) lane
    # that must route through the serial fallback unchanged.
    configs = [
        _tiny_config(seed=0, model="resnet6"),
        _tiny_config(seed=1, model="resnet11"),
        _tiny_config(seed=2, model="resnet6", max_sim_time=0.5),
        _tiny_config(seed=3, controller="mpc"),
    ]
    want = [run_mission(cfg) for cfg in configs]  # serial reference
    report = SweepRunner(workers=1, batch_size=len(configs)).run(configs)
    out: list[Divergence] = []
    # A chunk that silently ran serially would still match below.
    eligible = len(configs) - 1
    if report.batched_missions != eligible:
        out.append(
            Divergence(
                site="batch-vs-serial",
                field="batched_missions",
                expected=eligible,
                actual=report.batched_missions,
            )
        )
    for cfg, reference, batched in zip(configs, want, report.results()):
        if mission_signature(reference) == mission_signature(batched):
            continue
        hit = mission_divergence(
            canonical_payload(reference),
            canonical_payload(batched),
            f"batch-vs-serial[seed={cfg.seed}]",
        )
        if hit is not None:
            out.append(hit)
    return out


@oracle(
    "batch-cnn-forward",
    "one batched CNN forward over N frames vs. N single-frame forwards "
    "(the only tolerance site in the batched engine: the batch GEMM "
    "reassociates the float32 reduction)",
)
def _oracle_batch_cnn_forward() -> list[Divergence]:
    from repro.dnn.resnet import build_trainable_trailnet

    model = build_trainable_trailnet(seed=7)
    model.eval()
    frames = _rng(11).random((6, 1, 32, 48), dtype=np.float32)
    batched_ang, batched_lat = model.predict_probs(frames)
    out: list[Divergence] = []
    for i in range(frames.shape[0]):
        single_ang, single_lat = model.predict_probs(frames[i : i + 1])
        for channel, batched, single in (
            ("angular", batched_ang[i], single_ang[0]),
            ("lateral", batched_lat[i], single_lat[0]),
        ):
            hit = array_divergence(
                f"batch-cnn-forward[frame={i}]",
                single,
                batched,
                layer=channel,
            )
            if hit is not None:
                out.append(hit)
    return out


@oracle(
    "sweep-chaos",
    "sweep with injected worker faults (exception + crash + hang) vs. "
    "fault-free serial reference runs: retries must converge to "
    "bit-identical signatures",
)
def _oracle_sweep_chaos() -> list[Divergence]:
    # Imported here so chaos machinery stays out of fault-free oracles.
    import os

    from repro.sweep.chaos import CHAOS_ENV, ChaosPlan
    from repro.sweep.fingerprint import config_key
    from repro.sweep.resilience import RetryPolicy

    configs = [_tiny_config(seed=s) for s in (0, 1, 2)]
    want = [run_mission(cfg) for cfg in configs]  # fault-free serial reference

    # Force one fault of each kind onto a distinct task (deterministic
    # coverage, no probabilistic flake); max_faulty_attempts bounds the
    # faults below the retry budget so convergence is guaranteed.
    keys = [config_key(cfg) for cfg in configs]
    plan = ChaosPlan(
        forced=(
            (keys[0][:16], "fail"),
            (keys[1][:16], "crash"),
            (keys[2][:16], "hang"),
        ),
        max_faulty_attempts=1,
        hang_seconds=120.0,
    )
    runner = SweepRunner(
        workers=2,
        retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
        task_timeout=8.0,
    )
    previous = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = plan.to_json()
    try:
        report = runner.run([(f"seed{cfg.seed}", cfg) for cfg in configs])
    finally:
        if previous is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = previous

    out: list[Divergence] = []
    for cfg, reference, outcome in zip(configs, want, report.outcomes):
        if not outcome.ok or outcome.result is None:
            out.append(
                Divergence(
                    site=f"sweep-chaos[seed={cfg.seed}]",
                    field="state",
                    expected="ok (recovered via retries)",
                    actual=outcome.state,
                )
            )
            continue
        if mission_signature(reference) == mission_signature(outcome.result):
            continue
        hit = mission_divergence(
            canonical_payload(reference),
            canonical_payload(outcome.result),
            f"sweep-chaos[seed={cfg.seed}]",
        )
        if hit is not None:
            out.append(hit)
    if report.retries == 0:
        out.append(
            Divergence(
                site="sweep-chaos",
                field="retries",
                expected="> 0 (faults were injected)",
                actual=0,
            )
        )
    return out


@oracle(
    "service-vs-serial",
    "fig11-style sweep through the serve API (2 shards, one killed "
    "mid-sweep and its work stolen) vs. the serial single-host sweep: "
    "bit-identical report signatures",
)
def _oracle_service_vs_serial() -> list[Divergence]:
    # Imported here so fault-free oracles never pay for the serve stack.
    from repro.core.manifest import config_to_dict
    from repro.serve import FakeClock, SweepService, dispatch
    from repro.serve.service import report_signature

    tasks = [(f"seed{s}", _tiny_config(seed=s)) for s in (0, 1, 2, 3)]
    serial = SweepRunner().run(tasks)  # serial single-host reference
    want = report_signature(serial)

    out: list[Divergence] = []
    with tempfile.TemporaryDirectory(prefix="repro-oracle-serve-") as root:
        clock = FakeClock()
        service = SweepService(Path(root), clock=clock)
        status, payload = dispatch(
            service,
            "POST",
            "/v1/jobs",
            {
                "name": "service-vs-serial",
                "tasks": [
                    {"name": name, "config": config_to_dict(config)}
                    for name, config in tasks
                ],
                "params": {"shards": 2, "lease_seconds": 30.0},
            },
        )
        if status != 202:
            return [
                Divergence(
                    site="service-vs-serial",
                    field="submit",
                    expected="HTTP 202 (new job accepted)",
                    actual=f"HTTP {status}: {payload}",
                )
            ]
        job_id = payload["job"]
        # Shard 0 leases its slice and dies without reporting; shard 1
        # finishes its own slice, then steals the dead shard's work once
        # the lease expires.
        dead = service.worker("shard-0", abort=lambda: True)
        alive = service.worker("shard-1")
        dead.step()
        alive.drain()
        clock.advance(31.0)
        service.scheduler.tick()
        alive.drain()

        final = service.status(job_id)
        if final["state"] != "done":
            out.append(
                Divergence(
                    site="service-vs-serial",
                    field="state",
                    expected="done",
                    actual=final["state"],
                )
            )
        if final["steals"] == 0:
            out.append(
                Divergence(
                    site="service-vs-serial",
                    field="steals",
                    expected="> 0 (shard-0's slice must be stolen)",
                    actual=0,
                )
            )
        if final["state"] in ("done", "failed"):
            got = report_signature(service.report(job_id))
            if got != want:
                out.append(
                    Divergence(
                        site="service-vs-serial",
                        field="report_signature",
                        expected=want,
                        actual=got,
                    )
                )
    return out


@oracle(
    "transport-tcp",
    "TCP transport mission vs. the in-process reference transport "
    "(bit-identical behaviour and equal obs metric snapshots)",
)
def _oracle_transport_tcp() -> list[Divergence]:
    want = run_mission(_tiny_config(transport="inprocess"))
    got = run_mission(_tiny_config(transport="tcp"))
    out = _result_pair_divergence("transport-tcp", want, got)
    # The in-process link hands packet objects over and sizes them as the
    # wire would; the TCP link really carries the bytes.  Equal link byte
    # and packet counters (and every other metric) check that sizing.
    assert want.obs is not None and got.obs is not None
    hit = first_divergence(want.obs.metrics, got.obs.metrics, "transport-tcp[obs]")
    if hit is not None:
        out.append(hit)
    return out


@oracle(
    "fault-noop",
    "empty FaultPlan vs. no fault injector at all (the no-op reference): "
    "wiring the injector must not change behaviour",
)
def _oracle_fault_noop() -> list[Divergence]:
    return _mission_pair_divergence(
        "fault-noop",
        _tiny_config(faults=None),
        _tiny_config(faults=FaultPlan()),
    )


@oracle(
    "scenario-compile",
    "rose-scenario/1 documents of the legacy families vs. the hand-built "
    "tunnel / s-shape worlds and configs: bit-identical geometry, config "
    "dicts, and mission signatures",
)
def _oracle_scenario_compile() -> list[Divergence]:
    # Imported here so the oracle registry never pays for the scenario
    # package unless this oracle runs.
    from repro.core.manifest import config_to_dict
    from repro.env.worlds import make_world
    from repro.scenario import compile_config, legacy_scenarios, world_from_scenario

    out: list[Divergence] = []
    for name, scenario in sorted(legacy_scenarios().items()):
        site = f"scenario-compile[{name}]"
        want_world = make_world(name)
        got_world = world_from_scenario(scenario)

        hit = array_divergence(
            site,
            want_world.centerline.points,
            got_world.centerline.points,
            layer="centerline",
            exact=True,
        )
        if hit is not None:
            out.append(hit)
        for field_name in ("half_width", "goal_arclength"):
            want_value = getattr(want_world, field_name)
            got_value = getattr(got_world, field_name)
            if want_value != got_value:
                out.append(
                    Divergence(
                        site=site,
                        field=field_name,
                        expected=want_value,
                        actual=got_value,
                    )
                )
        want_segments = np.array(
            [(s.ax, s.ay, s.bx, s.by) for s in want_world.walls.segments]
        )
        got_segments = np.array(
            [(s.ax, s.ay, s.bx, s.by) for s in got_world.walls.segments]
        )
        hit = array_divergence(
            site, want_segments, got_segments, layer="walls", exact=True
        )
        if hit is not None:
            out.append(hit)

        # The compiled config must be byte-for-byte the hand-written one.
        want_cfg = CoSimConfig(world=name)
        got_cfg = compile_config(scenario)
        want_dict, got_dict = config_to_dict(want_cfg), config_to_dict(got_cfg)
        if want_dict != got_dict:
            hit = first_divergence(want_dict, got_dict, f"{site}.config")
            if hit is not None:
                out.append(hit)

    # A scenario *forced* through the generic compiler (world="scenario"
    # with an explicit spec) must fly bit-identically to the native
    # config: the mission signature covers behaviour, not world labels.
    import dataclasses

    tunnel = legacy_scenarios()["tunnel"]
    native = compile_config(tunnel, max_sim_time=1.5)
    forced = dataclasses.replace(
        native,
        world="scenario",
        world_params={
            "spec": {"geometry": tunnel.geometry.to_dict(), "obstacles": []}
        },
    )
    out.extend(_mission_pair_divergence("scenario-compile[forced]", native, forced))
    return out


def _series_sum(snapshot: dict[str, Any], name: str, **labels: str) -> int | float:
    """Sum the series of ``name`` whose labels match every given pair."""
    entry = snapshot.get(name, {})
    total: int | float = 0
    for row in entry.get("series", []):
        if all(row["labels"].get(k) == v for k, v in labels.items()):
            total += row["value"]
    return total


@oracle(
    "obs-snapshot",
    "flight-recorder metrics: conservation between counts kept by different "
    "layers (synchronizer, fault injector, FireSim host, bridge queues, SoC "
    "engine, app) plus replay determinism",
)
def _oracle_obs_snapshot() -> list[Divergence]:
    out: list[Divergence] = []
    # The invariant checker would stop the mission at the first book that
    # does not balance; this oracle is the witness that reads the books
    # only once they are published, so it flies without the checker.
    cfg = _tiny_config(
        seed=5,
        faults=FaultPlan.sensor_response_drop(0.2, seed=3),
        check_invariants=False,
    )
    sim = CoSimulation(cfg)
    result = sim.run()
    assert result.obs is not None, "a collected mission carries a FlightRecord"
    snap = result.obs.metrics

    def check(field: str, expected: Any, actual: Any) -> None:
        if expected != actual:
            out.append(
                Divergence(
                    site="obs-snapshot",
                    field=field,
                    expected=expected,
                    actual=actual,
                )
            )

    def bridge(queue: str, event: str) -> int | float:
        return _series_sum(snap, "rose_bridge_packets_total", queue=queue, event=event)

    # The synchronizer counts the steps it completed, the bridge the steps
    # the host granted it, and the SoC the cycles it ran.
    steps = _series_sum(snap, "rose_sync_steps_total")
    check("steps_granted", steps, _series_sum(snap, "rose_bridge_steps_granted_total"))
    check(
        "soc_cycles",
        steps * cfg.sync.cycles_per_sync,
        _series_sum(snap, "rose_soc_cycles_total"),
    )
    # Each response the synchronizer sent and the injector did not drop
    # (the plan only drops responses) entered the RX queue or waits at
    # the host; SYNC_* control frames never reach the queues.
    responses_sent = sum(
        row["value"]
        for row in snap["rose_link_packets_total"]["series"]
        if row["labels"]["direction"] == "to_rtl"
        and not row["labels"]["ptype"].startswith("SYNC_")
    )
    check(
        "rx_enqueued",
        responses_sent - _series_sum(snap, "rose_faults_injected_total", kind="drop"),
        bridge("rx", "enqueued") + len(sim.host._deferred_inject),
    )
    # Each packet the host took off the TX queue was dispatched, or is
    # still pending at the synchronizer when the mission ends.
    check(
        "tx_dequeued",
        bridge("tx", "dequeued"),
        _series_sum(snap, "rose_link_packets_total", direction="from_rtl")
        + len(sim.synchronizer._pending_rtl),
    )
    # The SoC engine counts an inference when it starts it and the app
    # when it records the result: each loaded task may have one in flight.
    app_inferences = _series_sum(snap, "rose_app_inferences_total")
    soc_inferences = _series_sum(snap, "rose_soc_inferences_total")
    in_flight = soc_inferences - app_inferences
    if not 0 <= in_flight <= len(sim.soc.tasks):
        check("inferences_in_flight", f"0..{len(sim.soc.tasks)}", in_flight)

    # Replay determinism: an identical second run must produce a
    # byte-identical snapshot (sorted keys, fixed buckets — no slack).
    replay = run_mission(cfg)
    if replay.obs is not None and replay.obs.metrics != snap:
        hit = first_divergence(snap, replay.obs.metrics, "obs-snapshot.replay")
        if hit is not None:
            out.append(hit)
    return out


@oracle(
    "lint-clean",
    "repro.analysis.lint over the shipped tree vs. an empty report: every "
    "static-analysis finding is fixed or waived inline",
)
def _oracle_lint_clean() -> list[Divergence]:
    # Imported here (not module scope) so a broken lint package fails its
    # own oracle without taking down the rest of the registry.
    import repro
    from repro.analysis.lint import LintEngine

    root = Path(repro.__file__).resolve().parent.parent
    report = LintEngine(root).run()
    out = [
        Divergence(
            site="lint-clean",
            field=f"{diag.path}:{diag.line}",
            expected="no finding",
            actual=f"{diag.rule} {diag.message}",
        )
        for diag in report.active
    ]
    out.extend(
        Divergence(
            site="lint-clean",
            field="parse",
            expected="parseable source",
            actual=error,
        )
        for error in report.parse_errors
    )
    return out


@oracle(
    "deepcheck-clean",
    "repro.analysis.deepcheck whole-program passes (determinism taint, "
    "fork/thread races, protocol conformance) plus stale-waiver detection "
    "over the shipped tree vs. an empty report",
)
def _oracle_deepcheck_clean() -> list[Divergence]:
    import repro
    from repro.analysis.lint import LintEngine

    root = Path(repro.__file__).resolve().parent.parent
    report = LintEngine(root, deep=True, check_waivers=True).run()
    return [
        Divergence(
            site="deepcheck-clean",
            field=f"{diag.path}:{diag.line}",
            expected="no finding",
            actual=f"{diag.rule} {diag.message}",
        )
        for diag in report.active
    ]


@oracle(
    "cache-roundtrip",
    "ResultCache store/load round-trip vs. the in-memory result "
    "(bit-identical signature and payload)",
)
def _oracle_cache_roundtrip() -> list[Divergence]:
    from repro.sweep.fingerprint import config_key

    cfg = _tiny_config(seed=3)
    key = config_key(cfg)
    want = run_mission(cfg)
    with tempfile.TemporaryDirectory(prefix="repro-oracle-cache-") as root:
        cache = ResultCache(Path(root))
        cache.put(key, want)
        got = cache.get(key)
    if got is None:
        return [
            Divergence(
                site="cache-roundtrip",
                field="get",
                expected="stored result",
                actual="<cache miss>",
            )
        ]
    if mission_signature(want) == mission_signature(got):
        return []
    hit = mission_divergence(
        canonical_payload(want), canonical_payload(got), "cache-roundtrip"
    )
    return [hit] if hit is not None else []


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
@dataclass
class OracleOutcome:
    name: str
    description: str
    divergences: list[Divergence] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.error

    def describe(self) -> str:
        if self.ok:
            return f"[ok]    {self.name}"
        lines = [f"[FAIL]  {self.name}"]
        if self.error:
            lines.append(f"        error: {self.error}")
        lines.extend(f"        {d.describe()}" for d in self.divergences)
        return "\n".join(lines)


@dataclass
class OracleReport:
    outcomes: list[OracleOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def describe(self) -> str:
        lines = [outcome.describe() for outcome in self.outcomes]
        passed = sum(1 for outcome in self.outcomes if outcome.ok)
        lines.append(f"{passed}/{len(self.outcomes)} differential oracle(s) agree")
        return "\n".join(lines)


class DiffRunner:
    """Executes registered oracles and collects their divergences.

    An oracle that *raises* is reported as a failure with the exception
    text rather than aborting the rest of the registry — a broken kernel
    should fail its own oracle, not hide the others.
    """

    def __init__(self, names: list[str] | None = None):
        registry = registered_oracles()
        if names:
            unknown = sorted(set(names) - set(registry))
            if unknown:
                raise KeyError(f"unknown oracle(s): {', '.join(unknown)}")
            self.oracles = [registry[name] for name in names]
        else:
            self.oracles = [registry[name] for name in sorted(registry)]

    def run(self) -> OracleReport:
        report = OracleReport()
        for orc in self.oracles:
            outcome = OracleOutcome(name=orc.name, description=orc.description)
            try:
                outcome.divergences = list(orc.run())
            except Exception as exc:  # noqa: BLE001 - isolate oracle crashes
                outcome.error = f"{type(exc).__name__}: {exc}"
            report.outcomes.append(outcome)
        return report
