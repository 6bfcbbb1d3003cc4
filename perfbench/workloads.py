"""The benchmark's four workloads: inputs from a seed, rounds, output checks.

A workload is measured in *rounds*, its unit of work, repeated until the
run's time is up.  ``run_round`` is the only timed code; ``check``
compares what a round produced against the recorded expected outputs in
``expected.json`` (regenerated by ``record.py``) and names every
mismatch.  Inputs are drawn from fixed pools (mission seeds, fuzz
campaign seeds) so that every workload seed has recorded outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

MODELS = ("resnet6", "resnet11", "resnet14", "resnet18")

#: fig11 mission seeds are drawn from ``range(FIG11_SEED_POOL)``.
FIG11_SEED_POOL = 32
FIG11_MISSIONS = 16
#: fig11-serial runs the list four missions (one per model) at a time.
FIG11_SERIAL_ROUND = 4

#: Fuzz campaign seeds are drawn from ``range(1, FUZZ_CAMPAIGN_POOL + 1)``.
FUZZ_CAMPAIGN_POOL = 16
FUZZ_BUDGET = 5
FUZZ_ROUND_SIZE = 5
FUZZ_MAX_SIM_TIME = 2.0
#: The artifact files a campaign's digest covers (plus ``minimized/*``).
FUZZ_ARTIFACTS = ("report.json", "coverage.json", "corpus.jsonl")

#: serve-job mission seeds are drawn from ``range(SERVE_SEED_POOL)``.
SERVE_SEED_POOL = 8
SERVE_SEEDS_PER_POINT = 2
SERVE_SOCS = ("A", "B")
SERVE_VELOCITIES = (2.0, 3.0, 4.0)
SERVE_SLICE = 4


@dataclass
class RoundCheck:
    """What checking one round found."""

    missions: int
    failed: int = 0
    #: Named mismatches and failures, one line each.
    problems: list[str] = field(default_factory=list)
    #: Outputs with nothing recorded to compare against.
    unrecorded: int = 0
    #: Digest of everything the round output (traced-vs-untraced equality).
    digest: str = ""
    notes: list[str] = field(default_factory=list)


def _digest(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


class Workload:
    """Base class: one named workload at one seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path, expected: dict[str, Any] | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.expected = expected or {}

    def setup(self) -> None:
        """Import, generate inputs and warm the program's memos.

        Everything the first round would otherwise pay once happens here,
        so that set-up time shows as ``setup_s`` and not in the rounds.
        """
        raise NotImplementedError

    def run_round(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> RoundCheck:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _check_outcomes(self, outcomes: list[Any], label: str, check: RoundCheck) -> list[str]:
        """Check sweep outcomes against recorded signatures; returns them."""
        from repro.sweep.fingerprint import config_key
        from repro.sweep.signature import mission_signature

        recorded = self.expected.get("missions", {})
        signatures = []
        for outcome in outcomes:
            if outcome.result is None or not outcome.ok:
                check.failed += 1
                check.problems.append(f"{label} {outcome.name}: ended {outcome.state}")
                signatures.append(f"{outcome.name}:{outcome.state}")
                continue
            signature = mission_signature(outcome.result)
            signatures.append(f"{outcome.name}:{signature}")
            want = recorded.get(config_key(outcome.config))
            if want is None:
                check.unrecorded += 1
            elif want != signature:
                check.failed += 1
                check.problems.append(
                    f"{label} {outcome.name}: signature {signature[:16]} != recorded {want[:16]}"
                )
        return signatures


# ----------------------------------------------------------------------
# fig11: s-shape, SoC A, resnet6/11/14/18 in rotation, 9 m/s, 8 s
# ----------------------------------------------------------------------
def fig11_config(model: str, mission_seed: int) -> Any:
    from repro.core.config import CoSimConfig

    return CoSimConfig(
        world="s-shape",
        soc="A",
        model=model,
        target_velocity=9.0,
        max_sim_time=8.0,
        seed=mission_seed,
    )


def fig11_configs(seed: int) -> list[Any]:
    mission_seeds = random.Random(seed).sample(range(FIG11_SEED_POOL), FIG11_MISSIONS)
    return [
        fig11_config(MODELS[i % len(MODELS)], mission_seed)
        for i, mission_seed in enumerate(mission_seeds)
    ]


class Fig11(Workload):
    batch_size = 1

    def setup(self) -> None:
        from repro.core.cosim import CoSimulation
        from repro.sweep.fingerprint import code_fingerprint
        from repro.sweep.runner import SweepTask

        configs = fig11_configs(self.seed)
        self.all_tasks = [SweepTask(f"m{i:02d}", c) for i, c in enumerate(configs)]
        for config in configs[: len(MODELS)]:
            CoSimulation(config)
        code_fingerprint()

    def run_round(self, index: int) -> Any:
        from repro.sweep.runner import SweepRunner

        runner = SweepRunner(workers=1, batch_size=self.batch_size)
        return runner.run(self.tasks(index))

    def check(self, index: int, output: Any) -> RoundCheck:
        check = RoundCheck(missions=len(output.outcomes))
        signatures = self._check_outcomes(output.outcomes, self.name, check)
        check.digest = _digest(signatures)
        return check


class Fig11Serial(Fig11):
    name = "fig11-serial"

    def tasks(self, index: int) -> list[Any]:
        chunks = len(self.all_tasks) // FIG11_SERIAL_ROUND
        lo = (index % chunks) * FIG11_SERIAL_ROUND
        return self.all_tasks[lo : lo + FIG11_SERIAL_ROUND]

    def describe(self) -> str:
        return (
            f"round = {FIG11_SERIAL_ROUND} serial missions of a {FIG11_MISSIONS}-mission "
            f"fig11 list (s-shape, SoC A, {'/'.join(MODELS)}, 9 m/s, 8 s)"
        )


class Fig11Batched(Fig11):
    name = "fig11-batched"
    batch_size = FIG11_MISSIONS

    def tasks(self, index: int) -> list[Any]:
        return self.all_tasks

    def describe(self) -> str:
        return f"round = the {FIG11_MISSIONS}-mission fig11 list as one lockstep chunk"

    def check(self, index: int, output: Any) -> RoundCheck:
        check = super().check(index, output)
        if output.batched_missions != len(output.outcomes):
            check.notes.append(
                f"only {output.batched_missions} of {len(output.outcomes)} missions batched"
            )
        return check


# ----------------------------------------------------------------------
# fuzz-campaign: small coverage-guided campaigns from a pool of seeds
# ----------------------------------------------------------------------
def fuzz_campaigns(seed: int) -> list[int]:
    pool = list(range(1, FUZZ_CAMPAIGN_POOL + 1))
    random.Random(seed).shuffle(pool)
    return pool


def fuzz_settings(campaign: int) -> Any:
    from repro.scenario.fuzz import FuzzSettings

    return FuzzSettings(
        budget=FUZZ_BUDGET,
        seed=campaign,
        workers=1,
        round_size=FUZZ_ROUND_SIZE,
        max_sim_time=FUZZ_MAX_SIM_TIME,
    )


def fuzz_tree_digest(corpus_dir: Path) -> str:
    """Digest of a campaign's artifact tree (report, coverage, corpus, minimized)."""
    corpus_dir = Path(corpus_dir)
    names = list(FUZZ_ARTIFACTS) + sorted(
        f"minimized/{path.name}" for path in (corpus_dir / "minimized").glob("*.json")
    )
    digest = hashlib.sha256()
    for name in names:
        path = corpus_dir / name
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest.update(b"\0")
    return digest.hexdigest()


def fuzz_missions(report: Any, corpus_dir: Path) -> int:
    """Missions a campaign simulated: seeds, mutants, minimization, reproducer."""
    from repro.scenario.schema import legacy_scenarios

    missions = len(legacy_scenarios()) + report.evaluated
    for path in (Path(corpus_dir) / "minimized").glob("*.json"):
        missions += json.loads(path.read_text())["runs"] + 1
    return missions


class FuzzCampaign(Workload):
    name = "fuzz-campaign"

    def setup(self) -> None:
        from repro.core.cosim import CoSimulation
        from repro.scenario.fuzz import compile_config
        from repro.scenario.schema import legacy_scenarios
        from repro.sweep.fingerprint import code_fingerprint

        self.campaigns = fuzz_campaigns(self.seed)
        for scenario in legacy_scenarios().values():
            CoSimulation(compile_config(scenario, max_sim_time=FUZZ_MAX_SIM_TIME))
        code_fingerprint()

    def campaign(self, index: int) -> int:
        return self.campaigns[index % len(self.campaigns)]

    def run_round(self, index: int) -> Any:
        from repro.scenario.fuzz import run_fuzz

        corpus_dir = self.workdir / f"fuzz-{index}"
        if corpus_dir.exists():
            shutil.rmtree(corpus_dir)
        return run_fuzz(fuzz_settings(self.campaign(index)), corpus_dir), corpus_dir

    def check(self, index: int, output: Any) -> RoundCheck:
        report, corpus_dir = output
        campaign = self.campaign(index)
        check = RoundCheck(missions=fuzz_missions(report, corpus_dir))
        digest = fuzz_tree_digest(corpus_dir)
        check.digest = digest
        want = self.expected.get("fuzz", {}).get(str(campaign))
        if want is None:
            check.unrecorded += 1
        elif want != digest:
            check.failed = check.missions
            check.problems.append(
                f"{self.name} campaign {campaign}: artifact digest {digest[:16]} "
                f"!= recorded {want[:16]}"
            )
        shutil.rmtree(corpus_dir, ignore_errors=True)
        return check

    def describe(self) -> str:
        return (
            f"round = one run_fuzz campaign (budget {FUZZ_BUDGET}, round size "
            f"{FUZZ_ROUND_SIZE}, {FUZZ_MAX_SIM_TIME:g} s missions, workers=1) from a "
            f"pool of {FUZZ_CAMPAIGN_POOL} campaign seeds"
        )


# ----------------------------------------------------------------------
# serve-job: a fake-clock service job, then a direct warm re-run
# ----------------------------------------------------------------------
def serve_config(soc: str, model: str, velocity: float, mission_seed: int) -> Any:
    from repro.core.config import CoSimConfig

    return CoSimConfig(
        world="tunnel",
        soc=soc,
        model=model,
        target_velocity=velocity,
        max_sim_time=1.0,
        seed=mission_seed,
    )


def serve_configs(seed: int) -> list[tuple[str, Any]]:
    rng = random.Random(seed)
    tasks = []
    for soc in SERVE_SOCS:
        for model in MODELS:
            for velocity in SERVE_VELOCITIES:
                mission_seeds = rng.sample(range(SERVE_SEED_POOL), SERVE_SEEDS_PER_POINT)
                for mission_seed in sorted(mission_seeds):
                    config = serve_config(soc, model, velocity, mission_seed)
                    tasks.append((f"{soc}-{model}-{velocity:g}-s{mission_seed}", config))
    return tasks


class ServeJob(Workload):
    name = "serve-job"

    def setup(self) -> None:
        import repro.serve  # noqa: F401 - the import cost belongs to set-up
        from repro.core.cosim import CoSimulation
        from repro.sweep.fingerprint import code_fingerprint

        self.all_tasks = serve_configs(self.seed)
        seen = set()
        for _, config in self.all_tasks:
            if (config.soc, config.model) not in seen:
                seen.add((config.soc, config.model))
                CoSimulation(config)
        code_fingerprint()

    def run_round(self, index: int) -> Any:
        from repro.serve import FakeClock, JobParams, SweepService, run_job_to_completion
        from repro.serve import service as service_module
        from repro.sweep.journal import SweepJournal
        from repro.sweep.runner import SweepRunner

        root = self.workdir / f"serve-{index}"
        if root.exists():
            shutil.rmtree(root)
        service = SweepService(root / "service", shards=2, clock=FakeClock())
        try:
            job = service.submit(
                "perfbench", self.all_tasks, JobParams(shards=2, slice_size=SERVE_SLICE)
            )["job"]
            run_job_to_completion(service, job, workers=2)
            job_report = service.report(job)
            job_signature = service_module.report_signature(job_report)
            direct = SweepRunner(
                workers=1,
                cache=service.cache,
                journal=SweepJournal(root / "journal.jsonl"),
                batch_size=1,
            ).run(self.all_tasks)
            direct_signature = service_module.report_signature(direct)
        finally:
            service.close()
        return job_report, job_signature, direct, direct_signature, root

    def check(self, index: int, output: Any) -> RoundCheck:
        job_report, job_signature, direct, direct_signature, root = output
        check = RoundCheck(missions=len(job_report.outcomes) + len(direct.outcomes))
        job = self._check_outcomes(job_report.outcomes, f"{self.name} job", check)
        warm = self._check_outcomes(direct.outcomes, f"{self.name} direct", check)
        cold = [o.name for o in direct.outcomes if not o.from_cache]
        if cold:
            check.notes.append(f"direct re-run missed the cache on {len(cold)} task(s)")
        if job_signature != direct_signature:
            check.failed = check.missions
            check.problems.append(
                f"{self.name}: job report_signature {job_signature[:16]} != direct "
                f"warm re-run {direct_signature[:16]}"
            )
        check.digest = _digest([job_signature, direct_signature] + job + warm)
        shutil.rmtree(root, ignore_errors=True)
        return check

    def describe(self) -> str:
        return (
            f"round = one job of {len(self.all_tasks)} tunnel missions (1 s; SoC "
            f"{'/'.join(SERVE_SOCS)} x {len(MODELS)} models x {len(SERVE_VELOCITIES)} "
            f"velocities x {SERVE_SEEDS_PER_POINT} seeds) on a fresh FakeClock SweepService, "
            f"2 in-process shards, slices of {SERVE_SLICE}; then a journaled direct "
            f"SweepRunner re-run warm over the service cache"
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig11Serial, Fig11Batched, FuzzCampaign, ServeJob)
}
