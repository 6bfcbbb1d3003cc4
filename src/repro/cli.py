"""Command-line interface: ``python -m repro <command>``.

Mirrors the artifact's runner scripts (``deploy/hephaestus/runner.py``
flags, ``run-all.sh``) with three subcommands:

* ``fly``    — run one closed-loop mission from flags, print the summary
  (optionally the trajectory plot and a CSV/trace dump);
* ``run``    — run every experiment in a JSON manifest, serially;
* ``sweep``  — run a manifest through the sweep engine: worker processes
  plus the on-disk result cache, with a per-stage wall-clock breakdown;
  supervised execution (per-task timeouts, deterministic retries, poison
  quarantine), a crash-safe journal, and ``--resume`` to pick up a
  killed sweep where it stopped;
* ``verify`` — conformance checks: replay the golden-trace corpus
  (``--check`` / ``--record``) and run the differential oracles;
* ``obs``    — observability: run missions and emit ``rose-obs/1``
  flight-recorder artifacts, merge/diff/validate them, and check that
  the demo set exercises the whole declared metric catalog;
* ``lint``   — static analysis for determinism/protocol/cache-key
  soundness (``repro.analysis.lint``): DET/NUM/PROTO/CFG/OBS rule
  families, suppressed only by inline ``# repro: allow[RULE]`` waivers;
* ``serve``  — boot the sweep service: a JSON-over-HTTP API in front of
  the lease/steal shard scheduler (``repro.serve``), journaled crash-safe
  and bit-identical to serial sweeps;
* ``submit`` / ``status`` — thin HTTP clients for a running service:
  submit a manifest as a job (``--wait`` to block), inspect job status,
  fetch assembled reports and merged telemetry;
* ``table3`` — print the modeled DNN latency/accuracy table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.figures import table3_rows
from repro.analysis.plot import trajectory_plot
from repro.analysis.render import format_table
from repro.core.config import CoSimConfig, SyncConfig
from repro.errors import ConfigError, ServeError
from repro.core.cosim import run_mission
from repro.core.faults import load_fault_plan
from repro.core.manifest import load_manifest
from repro.core.trace import Tracer
from repro.env.worlds import make_world
from repro.sweep import ResultCache, SweepRunner, default_cache_dir


def _add_fly_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--world", default="tunnel", help="tunnel | s-shape")
    parser.add_argument("--vehicle", default="quadrotor", help="quadrotor | car")
    parser.add_argument("--soc", default="A", help="Table 2 config: A | B | C")
    parser.add_argument(
        "--controller", default="dnn", help="dnn | mpc | fusion | slam | ros"
    )
    parser.add_argument("--model", default="resnet14", help="resnet6..resnet34")
    parser.add_argument("--velocity", type=float, default=3.0, help="m/s target")
    parser.add_argument("--angle", type=float, default=0.0, help="initial angle, deg")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-sim-time", type=float, default=60.0)
    parser.add_argument(
        "--cycles-per-sync", type=int, default=10_000_000, help="sync granularity"
    )
    parser.add_argument("--dynamic", action="store_true", help="dynamic DNN runtime")
    parser.add_argument("--background", default=None, help="slam-mapper | dnn-monitor")
    parser.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="fault-injection plan: a JSON file path or inline JSON "
        "(see repro.core.faults.FaultPlan)",
    )
    parser.add_argument("--plot", action="store_true", help="print a trajectory plot")
    parser.add_argument("--csv", metavar="PATH", help="write the synchronizer CSV log")
    parser.add_argument("--trace", metavar="PATH", help="write a Chrome trace JSON")


def _config_from_args(args: argparse.Namespace) -> CoSimConfig:
    return CoSimConfig(
        world=args.world,
        vehicle=args.vehicle,
        soc=args.soc,
        controller=args.controller,
        model=args.model,
        target_velocity=args.velocity,
        initial_angle_deg=args.angle,
        seed=args.seed,
        max_sim_time=args.max_sim_time,
        dynamic_runtime=args.dynamic,
        background=args.background,
        sync=SyncConfig(cycles_per_sync=args.cycles_per_sync),
        faults=load_fault_plan(args.fault_plan) if args.fault_plan else None,
    )


def _cmd_fly(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    tracer = Tracer() if args.trace else None
    result = run_mission(config, tracer=tracer)
    print(result.summary())
    if config.faults is not None and result.sync_stats is not None:
        counters = result.sync_stats.fault_summary()
        rendered = ", ".join(f"{name}={value}" for name, value in counters.items())
        print(f"fault injection (seed {config.faults.seed}): {rendered}")
    if args.plot:
        world = make_world(config.world, **config.world_params)
        print(trajectory_plot(world, {"o-flight": result.trajectory}))
    if args.csv:
        result.logger.write(args.csv)
        print(f"wrote {len(result.logger)} synchronizer rows to {args.csv}")
    if args.trace:
        tracer.write(args.trace)
        print(f"wrote {len(tracer)} trace events to {args.trace}")
    return 0 if result.completed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.manifest) as handle:
        configs = load_manifest(handle.read())
    print(f"{len(configs)} experiment(s) in {args.manifest}")
    failures = 0
    for name, config in configs.items():
        result = run_mission(config)
        print(f"[{name}] {result.summary()}")
        failures += 0 if result.completed else 1
    return 1 if failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here so `repro fly` startup never pays for the resilience
    # stack.
    from repro.sweep import RetryPolicy, SweepJournal, config_key
    from repro.sweep.chaos import CHAOS_ENV, load_chaos_plan

    with open(args.manifest) as handle:
        configs = load_manifest(handle.read())
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    if args.chaos:
        # Validate eagerly (a bad plan should fail the command, not the
        # first worker) and export for forked workers to inherit.
        try:
            os.environ[CHAOS_ENV] = load_chaos_plan(args.chaos).to_json()
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    retry = RetryPolicy(max_attempts=max(1, args.max_attempts))
    journal = None
    if cache is not None and not args.no_journal:
        tasks = [(name, config_key(config)) for name, config in configs.items()]
        journal = SweepJournal.for_sweep(cache.root, cache.fingerprint, tasks)
    if args.resume and journal is None:
        print("--resume needs a journal (enable the cache, drop --no-journal)")
        return 2

    runner = SweepRunner(
        workers=args.workers,
        cache=cache,
        retry=retry,
        task_timeout=args.task_timeout,
        journal=journal,
        resume=args.resume,
        batch_size=args.batch,
    )
    report = runner.run(list(configs.items()))
    failures = 0
    for outcome in report.outcomes:
        if outcome.result is not None:
            origin = "cache" if outcome.from_cache else f"{outcome.wall_seconds:.2f}s"
            print(f"[{outcome.name}] ({origin}) {outcome.result.summary()}")
            failures += 0 if outcome.result.completed else 1
        else:
            detail = outcome.failure.describe() if outcome.failure else "no result"
            print(
                f"[{outcome.name}] {outcome.state.upper()} after "
                f"{outcome.attempts} attempt(s): {detail}"
            )
            failures += 1
    stages = report.stage_seconds()
    if any(stages.values()):
        rendered = ", ".join(f"{name}={seconds:.2f}s" for name, seconds in stages.items())
        print(f"stage breakdown (executed missions): {rendered}")
    print(
        f"{len(report.outcomes)} mission(s) in {report.wall_seconds:.2f}s "
        f"({report.workers or 'no'} worker(s); cache: {report.cache_hits} hit(s), "
        f"{report.cache_misses} miss(es), {report.cache_stores} store(s))"
    )
    if report.batched_missions:
        print(
            f"batched: {report.batched_missions} mission(s) in "
            f"{report.batch_chunks} lockstep chunk(s)"
        )
    resilience_active = (
        report.retries
        or report.timeouts
        or report.pool_crashes
        or report.quarantined
        or report.journal_replays
    )
    if resilience_active:
        print(
            f"resilience: {report.retries} retrie(s), {report.timeouts} "
            f"timeout(s), {report.pool_crashes} pool crash(es), "
            f"{report.quarantined} quarantined, {report.journal_replays} "
            "journal replay(s)"
        )
    if journal is not None:
        print(f"journal: {journal.path} ({journal.appended} event(s) appended)")
    if args.json:
        payload = {
            "wall_seconds": report.wall_seconds,
            "workers": report.workers,
            "cache": {
                "hits": report.cache_hits,
                "misses": report.cache_misses,
                "stores": report.cache_stores,
            },
            "batch": {
                "missions": report.batched_missions,
                "chunks": report.batch_chunks,
            },
            "resilience": {
                "retries": report.retries,
                "timeouts": report.timeouts,
                "pool_crashes": report.pool_crashes,
                "quarantined": report.quarantined,
                "journal_replays": report.journal_replays,
                "policy": retry.to_dict(),
                "journal": str(journal.path) if journal is not None else None,
            },
            "stage_seconds": stages,
            "metrics": report.telemetry(),
            "missions": [
                {
                    "name": outcome.name,
                    "state": outcome.state,
                    "attempts": outcome.attempts,
                    "completed": (
                        outcome.result.completed
                        if outcome.result is not None
                        else False
                    ),
                    "mission_time": (
                        outcome.result.mission_time
                        if outcome.result is not None
                        else None
                    ),
                    "collisions": (
                        outcome.result.collisions
                        if outcome.result is not None
                        else None
                    ),
                    "wall_seconds": outcome.wall_seconds,
                    "from_cache": outcome.from_cache,
                    "failure": (
                        outcome.failure.to_dict()
                        if outcome.failure is not None
                        else None
                    ),
                    "stage_timings": (
                        outcome.result.stage_timings
                        if outcome.result is not None
                        else {}
                    ),
                }
                for outcome in report.outcomes
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote sweep report to {args.json}")
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so `repro fly` startup never pays for the verify stack.
    from repro.verify import (
        DEFAULT_GOLDEN_DIR,
        DiffRunner,
        check_corpus,
        golden_missions,
        record_corpus,
        registered_oracles,
    )

    if args.list:
        print("golden missions:")
        for name, config in sorted(golden_missions().items()):
            print(f"  {name}: {config.world}/{config.controller} "
                  f"soc={config.soc} {config.sync.describe()}")
        print("differential oracles:")
        for name, orc in sorted(registered_oracles().items()):
            print(f"  {name}: {orc.description}")
        return 0

    golden_dir = args.golden_dir or DEFAULT_GOLDEN_DIR
    status = 0
    ran_anything = False

    if args.record:
        ran_anything = True
        report = record_corpus(golden_dir, only=args.mission)
        print(report.describe())
        # Re-recording always leaves a conforming corpus; drift entries
        # are informational (they show what the re-record changed).

    if args.check or not (args.record or args.oracles):
        ran_anything = True
        report = check_corpus(golden_dir, only=args.mission)
        print(report.describe())
        if not report.ok:
            status = 1

    if args.oracles or not (args.record or args.check or args.mission):
        ran_anything = True
        runner = DiffRunner(names=args.oracle or None)
        oracle_report = runner.run()
        print(oracle_report.describe())
        if not oracle_report.ok:
            status = 1

    if not ran_anything:  # pragma: no cover - defensive; flags above cover all
        print("nothing to do")
    return status


def _cmd_obs(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the obs CLI stack.
    from pathlib import Path

    from repro.obs import (
        COVERAGE_EXEMPT,
        DECLARED_METRICS,
        FlightRecord,
        exercised_metrics,
        merge_snapshots,
        to_prometheus,
        validate_artifact,
    )
    from repro.obs.demo import demo_missions
    from repro.verify import golden_missions
    from repro.verify.diffutil import first_divergence

    def load_record(path: str) -> FlightRecord:
        return FlightRecord.from_json(Path(path).read_text())

    def missions() -> dict[str, CoSimConfig]:
        return {**golden_missions(), **demo_missions()}

    if args.list:
        print("missions (golden corpus + obs demo set):")
        for name in sorted(missions()):
            print(f"  {name}")
        print(f"{len(DECLARED_METRICS)} declared metric(s); "
              f"{len(COVERAGE_EXEMPT)} coverage-exempt")
        return 0

    if args.validate:
        status = 0
        for path in args.validate:
            errors = validate_artifact(json.loads(Path(path).read_text()))
            if errors:
                status = 1
                print(f"[FAIL] {path}")
                for error in errors:
                    print(f"        {error}")
            else:
                print(f"[ok]    {path}")
        return status

    if args.diff:
        a, b = (load_record(path) for path in args.diff)
        hit = first_divergence(
            a.deterministic_view(), b.deterministic_view(), "obs-diff"
        )
        if hit is None:
            print("identical deterministic views")
            return 0
        print(hit.describe())
        return 1

    if args.summarize:
        records = [
            load_record(str(path))
            for path in sorted(Path(args.summarize).glob("*.json"))
        ]
        if not records:
            print(f"no rose-obs artifacts under {args.summarize}", file=sys.stderr)
            return 2
        merged = merge_snapshots(record.metrics for record in records)
        exercised = exercised_metrics(merged)
        for name in sorted(merged):
            entry = merged[name]
            if not entry["series"]:
                continue
            if entry["kind"] == "histogram":
                total = sum(row["count"] for row in entry["series"])
            else:
                total = sum(row["value"] for row in entry["series"])
            print(f"{name} ({entry['kind']}): total={total} "
                  f"series={len(entry['series'])}")
        print(f"{len(records)} artifact(s) merged; "
              f"{len(exercised)}/{len(merged)} metric(s) exercised")
        if args.out:
            Path(args.out).write_text(json.dumps(merged, sort_keys=True, indent=2))
            print(f"wrote merged snapshot to {args.out}")
        return 0

    if args.mission:
        catalog = missions()
        if args.mission not in catalog:
            print(f"error: unknown mission {args.mission!r} "
                  f"(see --list)", file=sys.stderr)
            return 2
        result = run_mission(catalog[args.mission])
        record = result.obs
        assert record is not None
        if args.out:
            Path(args.out).write_text(record.to_json())
            print(f"wrote {args.mission} flight record to {args.out}")
        else:
            print(record.to_json())
        if args.prometheus:
            Path(args.prometheus).write_text(to_prometheus(record.metrics))
            print(f"wrote Prometheus exposition to {args.prometheus}")
        return 0

    if args.demo:
        out_dir = Path(args.demo)
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshots = []
        status = 0
        for name, config in demo_missions().items():
            result = run_mission(config)
            record = result.obs
            assert record is not None
            errors = validate_artifact(record.to_dict())
            if errors:
                status = 1
                for error in errors:
                    print(f"[FAIL] {name}: {error}")
            path = out_dir / f"{name}.json"
            path.write_text(record.to_json())
            snapshots.append(record.metrics)
            print(f"[{name}] wrote {path} "
                  f"({len(exercised_metrics(record.metrics))} metric(s) exercised)")
        merged = merge_snapshots(snapshots)
        if args.prometheus:
            Path(args.prometheus).write_text(to_prometheus(merged))
            print(f"wrote merged Prometheus exposition to {args.prometheus}")
        declared = {spec.name for spec in DECLARED_METRICS}
        missing = sorted(declared - exercised_metrics(merged) - COVERAGE_EXEMPT)
        if missing:
            status = 1
            print(f"coverage FAIL: {len(missing)} declared metric(s) never "
                  f"exercised: {', '.join(missing)}")
        else:
            print(f"coverage ok: every non-exempt declared metric exercised "
                  f"({len(declared) - len(COVERAGE_EXEMPT)} checked)")
        return status

    print("nothing to do (see --help)", file=sys.stderr)
    return 2


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the analyzer.
    from pathlib import Path

    import repro
    from repro.analysis.deepcheck import render_sarif
    from repro.analysis.lint import (
        LintEngine,
        all_rules,
        default_rules,
        render_json,
        render_text,
    )

    rules = all_rules()
    if args.list_rules:
        for rule_id in sorted(rules):
            rule = rules[rule_id]
            scope = ", ".join(rule.paths) if rule.paths else "entire tree"
            tag = " [deep]" if rule.deep else ""
            print(f"{rule.id}: {rule.title}{tag}")
            print(f"  scope: {scope}")
            if rule.exclude:
                print(f"  blessed: {', '.join(rule.exclude)}")
            print(f"  why: {rule.rationale}")
        return 0

    if args.path:
        root = Path(args.path)
    else:
        # The directory containing the ``repro`` package (src/ in a checkout).
        root = Path(repro.__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"error: lint root {root} is not a directory", file=sys.stderr)
        return 2

    if args.rule:
        unknown = [rule_id for rule_id in args.rule if rule_id not in rules]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        selected = [rules[rule_id] for rule_id in args.rule]
    elif args.deep:
        selected = list(rules.values())
    else:
        selected = list(default_rules().values())

    report = LintEngine(root, rules=selected, check_waivers=args.check_waivers).run()

    if args.format == "sarif":
        print(render_sarif(report.diagnostics))
    elif args.format == "json":
        print(render_json(report.diagnostics))
    else:
        rendered = render_text(
            report.diagnostics, show_suppressed=args.show_suppressed
        )
        if rendered:
            print(rendered)
        for error in report.parse_errors:
            print(error)
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the fuzzing stack.
    from pathlib import Path

    from repro.scenario.fuzz import (
        FuzzSettings,
        load_corpus_journal,
        load_scenario,
        minimize_scenario,
        replay,
        run_fuzz,
    )

    corpus_dir = Path(args.corpus)
    settings = FuzzSettings(
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        round_size=args.round_size,
        max_sim_time=args.max_sim_time,
    )

    if args.fuzz_command == "run":
        report = run_fuzz(settings, corpus_dir)
        data = report.to_dict()
        print(
            f"fuzz: {data['evaluated']} mutants evaluated, "
            f"{data['admitted']} admitted, coverage "
            f"{data['baseline_bins']} -> {data['coverage_bins']} bins"
        )
        for key, modes in data["failures"].items():
            print(f"  failure {key[:12]}: {', '.join(modes)}")
        for source, minimized in data["minimized"].items():
            print(f"  minimized {source[:12]} -> {minimized[:12]}")
        return 0

    if args.fuzz_command == "corpus":
        for entry in load_corpus_journal(corpus_dir):
            modes = ",".join(entry["failure_modes"]) or "-"
            print(
                f"{entry['key'][:12]}  round {entry['round']:>2}  "
                f"+{len(entry['new_bins'])} bin(s)  {modes}  {entry['name']}"
            )
        return 0

    if args.fuzz_command == "replay":
        match, expected, actual = replay(corpus_dir, args.key, settings)
        if match:
            print(f"replay OK: {args.key[:12]} reproduces {expected[:16]}")
            return 0
        print(
            f"replay DIVERGED for {args.key[:12]}:\n"
            f"  expected {expected}\n  actual   {actual}"
        )
        return 1

    # minimize
    scenario = load_scenario(corpus_dir, args.key)
    minimized, runs = minimize_scenario(scenario, args.mode, settings)
    print(minimized.canonical_json())
    print(f"# minimized in {runs} runs, preserves {args.mode!r}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the serve stack.
    from repro.serve import ServiceServer, SweepService

    service = SweepService(
        args.root,
        shards=args.shards,
        poll_seconds=args.poll,
        tick_seconds=args.tick,
    )
    service.start()
    server = ServiceServer(service, host=args.host, port=args.port)
    print(f"sweep service at {server.address} (root={args.root}, "
          f"shards={args.shards}); Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def _job_params_from_args(args: argparse.Namespace) -> "object":
    from repro.serve import JobParams

    return JobParams(
        shards=args.shards,
        slice_size=args.slice,
        workers=args.workers,
        batch_size=args.batch,
        task_timeout=args.task_timeout,
        max_attempts=max(1, args.max_attempts),
        lease_seconds=args.lease,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the serve stack.
    from repro.serve import ServiceClient

    try:
        with open(args.manifest) as handle:
            configs = load_manifest(handle.read())
        client = ServiceClient(args.url)
        submitted = client.submit(
            args.name or os.path.basename(args.manifest),
            list(configs.items()),
            _job_params_from_args(args),
        )
        print(f"job {submitted['job']}: {submitted['disposition']} "
              f"(state {submitted['state']})")
        if not args.wait:
            return 0
        status = client.wait(submitted["job"], timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"job {status['job']}: {status['state']} "
          f"({status['tasks']['ok']}/{status['tasks']['total']} ok; "
          f"owners {status['owners']}; {status['steals']} stolen)")
    return 0 if status["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    # Imported here so mission commands never pay for the serve stack.
    from repro.serve import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.job is None:
            for status in client.jobs():
                print(f"{status['job']}  {status['state']:<9} "
                      f"{status['tasks']['completed']}/{status['tasks']['total']} "
                      f"{status['name']}")
            return 0
        status = client.status(args.job)
        payload: dict = {"status": status}
        if args.report:
            payload["report"] = client.report(args.job)
        if args.telemetry:
            payload["telemetry"] = client.job_telemetry(args.job)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote status to {args.json}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    report = payload.get("report")
    if report is not None:
        return 0 if report["ok"] else 1
    return 0 if status["state"] in ("queued", "running", "done") else 1


def _cmd_table3(_args: argparse.Namespace) -> int:
    rows = table3_rows()
    print(format_table(
        ["Model", "Latency (BOOM+G)", "Latency (Rocket+G)", "Val. accuracy"],
        [
            [
                r["model"],
                f"{r['latency_boom_ms']:.0f}ms",
                f"{r['latency_rocket_ms']:.0f}ms",
                f"{r['accuracy'] * 100:.0f}%",
            ]
            for r in rows
        ],
        title="Table 3 (modeled)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RoSE reproduction: closed-loop robotics SoC co-simulation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fly = commands.add_parser("fly", help="run one closed-loop mission")
    _add_fly_arguments(fly)
    fly.set_defaults(handler=_cmd_fly)

    run = commands.add_parser("run", help="run a JSON experiment manifest")
    run.add_argument("manifest", help="path to a manifest (see repro.core.manifest)")
    run.set_defaults(handler=_cmd_run)

    sweep = commands.add_parser(
        "sweep", help="run a manifest via the parallel/cached sweep engine"
    )
    sweep.add_argument("manifest", help="path to a manifest (see repro.core.manifest)")
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="run lockstep-compatible cache misses on the batched engine, "
        "up to N missions per engine (bit-identical to serial; default: "
        "$REPRO_SWEEP_BATCH or 1 = no batching)",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result cache directory (default: $REPRO_SWEEP_CACHE_DIR "
        "or ~/.cache/rose-repro/sweeps)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="replay the sweep journal and recompute only unfinished tasks "
        "(requires the cache + journal)",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock deadline; expired attempts are retried "
        "(default: no deadline)",
    )
    sweep.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per task before quarantine (1 disables retries; "
        "default: 3)",
    )
    sweep.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the crash-safe sweep journal (implies no --resume)",
    )
    sweep.add_argument(
        "--chaos",
        metavar="JSON|PATH",
        default=None,
        help="inject deterministic worker faults from a ChaosPlan, given "
        "as inline JSON or a file path (testing/CI only; exported as "
        "$REPRO_SWEEP_CHAOS)",
    )
    sweep.add_argument("--json", metavar="PATH", help="write a JSON sweep report")
    sweep.set_defaults(handler=_cmd_sweep)

    verify = commands.add_parser(
        "verify",
        help="conformance: golden-trace corpus + differential oracles",
        description="With no flags, runs --check and --oracles (the CI "
        "configuration). After an intentional behaviour change, re-record "
        "the corpus with --record and commit the diff under tests/golden/.",
    )
    verify.add_argument(
        "--check", action="store_true", help="replay the golden corpus"
    )
    verify.add_argument(
        "--record", action="store_true", help="(re-)record the golden corpus"
    )
    verify.add_argument(
        "--oracles", action="store_true", help="run the differential oracles"
    )
    verify.add_argument(
        "--list", action="store_true", help="list missions and oracles, then exit"
    )
    verify.add_argument(
        "--mission", metavar="NAME", help="restrict --check/--record to one mission"
    )
    verify.add_argument(
        "--oracle",
        metavar="NAME",
        action="append",
        help="restrict --oracles to named oracle(s); repeatable",
    )
    verify.add_argument(
        "--golden-dir",
        metavar="PATH",
        default=None,
        help="corpus directory (default: tests/golden/ in the repo)",
    )
    verify.set_defaults(handler=_cmd_verify)

    obs = commands.add_parser(
        "obs",
        help="observability: flight records, telemetry aggregation, coverage",
        description="Work with rose-obs/1 flight-recorder artifacts: run a "
        "mission and dump its record (--mission), run the demo set with the "
        "metric-coverage check (--demo, the CI configuration), merge a "
        "directory of artifacts (--summarize), diff two records (--diff), "
        "or validate artifacts against the rose-obs/1 format (--validate).",
    )
    obs.add_argument(
        "--mission",
        metavar="NAME",
        help="run one mission (golden corpus or obs demo set) and emit its "
        "flight record",
    )
    obs.add_argument(
        "--demo",
        metavar="DIR",
        help="run the obs demo missions, write one artifact per mission into "
        "DIR, validate each, and fail if any non-exempt metric is unexercised",
    )
    obs.add_argument(
        "--summarize",
        metavar="DIR",
        help="merge every rose-obs artifact in DIR and print totals",
    )
    obs.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="first divergence between two artifacts' deterministic views",
    )
    obs.add_argument(
        "--validate",
        metavar="PATH",
        action="append",
        help="validate artifact(s) against the rose-obs/1 schema; repeatable",
    )
    obs.add_argument(
        "--out", metavar="PATH", help="write the record/merged snapshot here"
    )
    obs.add_argument(
        "--prometheus",
        metavar="PATH",
        help="also write a Prometheus text exposition",
    )
    obs.add_argument(
        "--list", action="store_true", help="list runnable missions, then exit"
    )
    obs.set_defaults(handler=_cmd_obs)

    lint = commands.add_parser(
        "lint",
        help="static analysis: determinism / protocol / cache-key rules",
        description="Run the repro.analysis.lint rule families (DET, NUM, "
        "PROTO, CFG) over a source tree.  --deep adds the whole-program "
        "semantic passes (DEEP001 determinism taint, DEEP002 fork/thread "
        "races, DEEP003 protocol conformance).  Exit 0 when no active "
        "diagnostics remain (an inline '# repro: allow[RULE] reason' waiver "
        "is the only way to suppress a finding), 1 otherwise.",
    )
    lint.add_argument(
        "path",
        nargs="?",
        default=None,
        help="source root to scan (default: the installed repro package's "
        "parent, i.e. src/ in a checkout)",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program passes (call graph, determinism "
        "taint, race and protocol analysis)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif emits SARIF 2.1.0 for code-scanning upload)",
    )
    lint.add_argument(
        "--rule",
        metavar="ID",
        action="append",
        help="restrict to the named rule(s); repeatable",
    )
    lint.add_argument(
        "--check-waivers",
        action="store_true",
        help="report inline waivers that suppress nothing as WAIVE001 "
        "(a waiver is judged only when every rule it names ran)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print waived findings in text output",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.set_defaults(handler=_cmd_lint)

    fuzz = commands.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing (rose-scenario/1 documents)",
        description="Mutate scenario documents from the legacy-world seed "
        "corpus, admit coverage-advancing mutants, and minimize discovered "
        "failures.  Fully deterministic: the same --seed and --budget "
        "reproduce the corpus, coverage map and reproducers byte for byte.",
    )
    fuzz_commands = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_shared = argparse.ArgumentParser(add_help=False)
    fuzz_shared.add_argument(
        "--corpus",
        metavar="DIR",
        default="fuzz-corpus",
        help="corpus directory (scenarios/, corpus.jsonl, coverage.json)",
    )
    fuzz_shared.add_argument(
        "--seed", type=int, default=0, help="campaign RNG seed"
    )
    fuzz_shared.add_argument(
        "--budget", type=int, default=25, help="mutants to evaluate"
    )
    fuzz_shared.add_argument(
        "--workers", type=int, default=1, help="sweep workers per round"
    )
    fuzz_shared.add_argument(
        "--round-size", type=int, default=5, help="mutants per sweep round"
    )
    fuzz_shared.add_argument(
        "--max-sim-time",
        type=float,
        default=8.0,
        help="simulated-seconds budget per mission",
    )
    fuzz_run = fuzz_commands.add_parser(
        "run", parents=[fuzz_shared], help="run one fuzzing campaign"
    )
    fuzz_run.set_defaults(handler=_cmd_fuzz)
    fuzz_corpus = fuzz_commands.add_parser(
        "corpus", parents=[fuzz_shared], help="list the admission journal"
    )
    fuzz_corpus.set_defaults(handler=_cmd_fuzz)
    fuzz_replay = fuzz_commands.add_parser(
        "replay",
        parents=[fuzz_shared],
        help="re-run one corpus scenario and check its recorded signature",
    )
    fuzz_replay.add_argument("key", help="scenario content key (sha256)")
    fuzz_replay.set_defaults(handler=_cmd_fuzz)
    fuzz_minimize = fuzz_commands.add_parser(
        "minimize",
        parents=[fuzz_shared],
        help="greedily minimize one corpus scenario preserving a failure mode",
    )
    fuzz_minimize.add_argument("key", help="scenario content key (sha256)")
    fuzz_minimize.add_argument(
        "--mode",
        default="crash",
        choices=("crash", "deadline-miss", "watchdog", "link-timeout", "crc-storm"),
        help="failure mode the reduction must preserve",
    )
    fuzz_minimize.set_defaults(handler=_cmd_fuzz)

    serve = commands.add_parser(
        "serve",
        help="run the sweep service: HTTP API + shard workers",
        description="Boot a sweep-as-a-service instance over a root "
        "directory (crash-safe rose-jobq/1 job store + content-addressed "
        "result cache).  Jobs are sharded across lease/steal workers and "
        "their reports are bit-identical to serial single-host sweeps "
        "(pinned by the service_vs_serial oracle).  Restarting over the "
        "same root resumes every unfinished job.",
    )
    serve.add_argument("root", help="service data directory (job store + cache)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="shard worker threads"
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="idle worker poll interval",
    )
    serve.add_argument(
        "--tick",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="lease-expiry scheduler tick interval",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit a manifest to a running sweep service"
    )
    submit.add_argument("manifest", help="path to a manifest (see repro.core.manifest)")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8321", help="service base URL"
    )
    submit.add_argument("--name", default=None, help="job name (default: manifest)")
    submit.add_argument(
        "--shards", type=int, default=2, help="shard width for this job"
    )
    submit.add_argument(
        "--slice",
        type=int,
        default=None,
        metavar="N",
        help="tasks per lease (default: ceil(tasks/shards))",
    )
    submit.add_argument(
        "--workers", type=int, default=1, help="processes per shard's sweep runner"
    )
    submit.add_argument(
        "--batch", type=int, default=1, metavar="N", help="shard-side batch size"
    )
    submit.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS"
    )
    submit.add_argument("--max-attempts", type=int, default=3, metavar="N")
    submit.add_argument(
        "--lease",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease duration before un-heartbeated work is stolen",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job settles"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="--wait deadline",
    )
    submit.set_defaults(handler=_cmd_submit)

    status = commands.add_parser(
        "status", help="query a sweep service: job status, report, telemetry"
    )
    status.add_argument(
        "job", nargs="?", default=None, help="job id (omit to list all jobs)"
    )
    status.add_argument(
        "--url", default="http://127.0.0.1:8321", help="service base URL"
    )
    status.add_argument(
        "--report",
        action="store_true",
        help="fetch the assembled report (exit 1 if any task failed)",
    )
    status.add_argument(
        "--telemetry", action="store_true", help="fetch merged mission telemetry"
    )
    status.add_argument("--json", metavar="PATH", help="write the payload to PATH")
    status.set_defaults(handler=_cmd_status)

    table3 = commands.add_parser("table3", help="print the DNN latency table")
    table3.set_defaults(handler=_cmd_table3)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
