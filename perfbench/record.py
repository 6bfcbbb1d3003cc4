"""Record the benchmark's expected outputs into ``perfbench/expected.json``.

Every input the workloads can draw comes from a fixed pool, so the whole
pool is recorded once:

* ``missions``: ``config_key -> mission_signature`` for every fig11
  mission (both fig11 workloads check against it) and every serve-job
  mission, each run serially through ``SweepRunner(workers=1)``;
* ``fuzz``: campaign seed -> digest of the campaign's artifact tree.

Run from the repository root after a change that is meant to alter
simulation results (it takes a few minutes on one core)::

    python3 perfbench/record.py [--only fig11|fuzz|serve]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

FORMAT = "perfbench-expected/1"


def mission_signatures(configs) -> dict[str, str]:
    from repro.sweep.fingerprint import config_key
    from repro.sweep.runner import SweepRunner
    from repro.sweep.signature import mission_signature

    report = SweepRunner(workers=1, batch_size=1).run(configs)
    signatures = {}
    for outcome in report.outcomes:
        if not outcome.ok:
            raise SystemExit(f"cannot record {outcome.name}: ended {outcome.state}")
        signatures[config_key(outcome.config)] = mission_signature(outcome.result)
    return signatures


def fig11_pool() -> list:
    return [
        workloads.fig11_config(model, seed)
        for model in workloads.MODELS
        for seed in range(workloads.FIG11_SEED_POOL)
    ]


def serve_pool() -> list:
    return [
        workloads.serve_config(soc, model, velocity, seed)
        for soc in workloads.SERVE_SOCS
        for model in workloads.MODELS
        for velocity in workloads.SERVE_VELOCITIES
        for seed in range(workloads.SERVE_SEED_POOL)
    ]


def fuzz_digests() -> dict[str, str]:
    from repro.scenario.fuzz import run_fuzz

    digests = {}
    scratch = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_record_"))
    try:
        for campaign in range(1, workloads.FUZZ_CAMPAIGN_POOL + 1):
            corpus = scratch / str(campaign)
            run_fuzz(workloads.fuzz_settings(campaign), corpus)
            digests[str(campaign)] = workloads.fuzz_tree_digest(corpus)
            print(f"fuzz campaign {campaign}: {digests[str(campaign)][:16]}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record perfbench expected outputs.")
    parser.add_argument("--only", choices=("fig11", "fuzz", "serve"))
    args = parser.parse_args(argv)
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))

    expected = (
        json.loads(run.EXPECTED.read_text())
        if run.EXPECTED.exists()
        else {"format": FORMAT, "missions": {}, "fuzz": {}}
    )
    if args.only in (None, "fig11"):
        expected["missions"].update(mission_signatures(fig11_pool()))
        print("recorded fig11 missions", flush=True)
    if args.only in (None, "serve"):
        expected["missions"].update(mission_signatures(serve_pool()))
        print("recorded serve-job missions", flush=True)
    if args.only in (None, "fuzz"):
        expected["fuzz"] = fuzz_digests()
    expected["missions"] = dict(sorted(expected["missions"].items()))
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
