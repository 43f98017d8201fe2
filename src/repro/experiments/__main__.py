"""CLI: ``python -m repro.experiments <id> [...]`` reproduces paper artifacts.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig9
    python -m repro.experiments table4 table5 --budget 60000
    python -m repro.experiments all --jobs 4
    python -m repro.experiments fig10 --no-cache

Performance knobs: ``--jobs N`` (or ``REPRO_JOBS``) fans the declared
run matrix of each experiment out over a process pool; results are
persisted under ``.repro_cache/`` (``REPRO_CACHE_DIR`` overrides the
location, ``--no-cache`` disables persistence) so repeated invocations
skip simulation entirely.

Resilience knobs: ``--retries`` / ``--run-timeout`` / ``--backoff``
(env ``REPRO_RETRIES`` / ``REPRO_RUN_TIMEOUT`` / ``REPRO_BACKOFF``)
bound how the executor supervises failing workers. Every completed cell
is stored in the disk cache as it finishes, so rerunning an interrupted
sweep re-executes only its unfinished cells. See EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.sim.diskcache as diskcache
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.sim.parallel import (
    RetryPolicy,
    resolve_retry,
    set_default_jobs,
    set_default_retry,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig9 table4), or 'all'",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="per-run access budget (default: REPRO_BUDGET or 120000)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the run matrix "
        "(default: REPRO_JOBS or 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent on-disk run/trace cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max attempts per matrix cell before the sweep fails "
        "(default: REPRO_RETRIES or 3)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock limit for pooled runs; a hung worker "
        "is killed and the cell retried (default: REPRO_RUN_TIMEOUT or "
        "unlimited)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay between attempts of a failing cell, doubled per "
        "retry (default: REPRO_BACKOFF or 0.25)",
    )
    parser.add_argument(
        "--verify-cache",
        action="store_true",
        help="integrity-scan the on-disk cache (quarantining corrupt "
        "entries) and exit",
    )
    parser.add_argument(
        "--obs",
        metavar="DIR",
        default=None,
        help="observe every simulated run: write per-run telemetry "
        "artifacts (manifest, timeline CSV, events JSONL) into DIR. "
        "Cached runs carry no dynamics, so combine with --no-cache to "
        "observe a full experiment",
    )
    parser.add_argument(
        "--obs-interval",
        type=int,
        default=None,
        help="timeline sampling interval in instructions (default 10000)",
    )
    parser.add_argument(
        "--engine",
        choices=("batched", "scalar"),
        default=None,
        help="simulation engine for every run (default: REPRO_ENGINE or "
        "batched; both are bit-identical, see README 'Engines')",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=30,
        default=None,
        metavar="TOP_N",
        help="wrap each experiment in cProfile and write its top-N "
        "cumulative stats to profile-<id>.json (into --obs DIR when "
        "given, else the working directory); implies serial in-process "
        "runs, since pool workers escape the profiler",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(argv)

    if args.verify_cache:
        if args.no_cache:
            parser.error("--verify-cache needs the cache enabled")
        diskcache.enable(args.cache_dir)
        report = diskcache.verify()
        bad = report["results_bad"] + report["traces_bad"]
        print(
            f"cache {diskcache.cache_dir()}: "
            f"{report['results_ok']} results ok, "
            f"{report['results_bad']} quarantined; "
            f"{report['traces_ok']} traces ok, "
            f"{report['traces_bad']} quarantined"
        )
        return 1 if bad else 0

    if args.list or not args.experiments:
        for exp_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:8s} {doc}")
        return 0

    if args.no_cache:
        diskcache.disable()
    else:
        diskcache.enable(args.cache_dir)
    if args.engine is not None:
        from repro.sim.engine import set_default_engine

        set_default_engine(args.engine)
    if args.profile is not None and args.jobs is not None and args.jobs > 1:
        parser.error("--profile requires serial runs; drop --jobs")
    set_default_jobs(1 if args.profile is not None else args.jobs)
    if (
        args.retries is not None
        or args.run_timeout is not None
        or args.backoff is not None
    ):
        base = resolve_retry()  # env-derived knobs still apply underneath
        set_default_retry(
            RetryPolicy(
                max_attempts=(
                    args.retries if args.retries is not None
                    else base.max_attempts
                ),
                backoff=(
                    args.backoff if args.backoff is not None else base.backoff
                ),
                timeout=(
                    args.run_timeout if args.run_timeout is not None
                    else base.timeout
                ),
            )
        )
    if args.obs is not None or args.obs_interval is not None:
        from repro.obs import TelemetrySpec, enable_auto

        spec = TelemetrySpec(
            interval=args.obs_interval
            if args.obs_interval is not None
            else TelemetrySpec().interval
        )
        enable_auto(args.obs, spec)

    ids = (
        list(EXPERIMENTS)
        if args.experiments == ["all"]
        else args.experiments
    )
    for exp_id in ids:
        start = time.time()
        kwargs = {}
        if args.budget is not None and exp_id != "storage":
            kwargs["budget"] = args.budget
        if args.profile is not None:
            import cProfile

            from repro.obs.export import profile_stats_top, write_profile_report
            from repro.sim.engine import (
                describe_engine_totals,
                engine_totals,
                reset_engine_totals,
            )

            reset_engine_totals()
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                report = run_experiment(exp_id, **kwargs)
            finally:
                profiler.disable()
            wall = time.time() - start
            rows = profile_stats_top(profiler, args.profile)
            totals = engine_totals()
            path = write_profile_report(
                args.obs if args.obs is not None else ".",
                experiment=exp_id,
                rows=rows,
                wall_time_s=wall,
                params={
                    "top_n": args.profile,
                    "budget": args.budget,
                    "engine": totals,
                },
            )
            print(report.render())
            print(f"\n[profile -> {path}]")
            for row in rows[:10]:
                print(
                    f"  {row['cumtime_s']:9.3f}s cum  "
                    f"{row['tottime_s']:9.3f}s tot  "
                    f"{row['ncalls']:>10} calls  {row['function']}"
                )
            print(f"  engine: {describe_engine_totals(totals)}")
        else:
            report = run_experiment(exp_id, **kwargs)
            print(report.render())
        print(f"\n[{exp_id} completed in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
