"""The repository benchmark: notebook regeneration, live interaction, serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regen --seed 1 --seconds 40 --trace 0

A run sets up three times (catalogs, pre-generated interfaces, the serving
service and warm-up; ``setup_s`` is the median), then runs three loops
against the public API for ``--seconds`` in total:

* ``regen`` - one client ticks notebook cells and clicks Generate after each
  tick (closed loop);
* ``interact`` - one client drives widget and chart events on live
  interfaces, each followed by a refresh of every chart (closed loop);
* ``serve`` - seeded Poisson arrivals of reads and appends against an
  ``InterfaceService`` from one generator thread (open loop).

Every workload runs all three loops, interleaved, so every run reports every
end-to-end metric; the workload decides which loop gets most of the time (see
``WORKLOADS``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every end-to-end time - set-up and each operation's latency - is taken at
reference machine speed: a probe sampled every 10 ms while the benchmark runs
tracks how fast the shared host runs Python at that moment, and each interval
is scaled by it (see ``speed.py``).  The host's speed changes by 2-3x from
second to second, so raw wall times of the same code spread past any useful
bound from run to run.  Per-layer span times are wall times; the per-layer
``machine.slowdown`` gives the run's median slowdown beside them.

``--trace 1`` prints the per-layer metrics instead.  It first runs the
untraced benchmark for half the time in a child process, then runs traced for
the other half with spans recorded around calls into each layer (see
``tracing.py``); the overhead metrics are the traced medians minus the
untraced ones.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Share of ``--seconds`` each loop gets, per workload.  The regen loop runs
#: whole cycles of its five scenarios, at least one, whatever its share.  The
#: interaction loop needs few seconds for thousands of events, so it runs as
#: a minor share of both workloads instead of having one of its own.
WORKLOADS = {
    "regen": {"regen": 0.55, "interact": 0.15, "serve": 0.30},
    "serve_rw": {"regen": 0.25, "interact": 0.12, "serve": 0.63},
}

#: Why each workload is in the benchmark.
WHY = {
    "regen": "mostly notebook regeneration, the paper's demo loop: search, cost, mapping and "
    "difftree do the work; most requests extend the previous log, so cross-generation reuse "
    "shows here",
    "serve_rw": "mostly open-loop serving, reads beside appends: writes bump the data version, "
    "so reads fold (IVM) or recompute and the serving queue and copy-on-write catalog do "
    "real work",
}

SETUP_REPEATS = 3
#: Seconds one regen cycle (a session of each scenario) takes on a 2-CPU machine.
REGEN_CYCLE_S = 6.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_mean_ms": "ms",
    "generate_p90_ms": "ms",
    "generate_cost": "cost",
    "interact_p50_ms": "ms",
    "interact_p95_ms": "ms",
    "serve_read_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer span metrics: (metric, span name, field, unit).  Each is the
#: layer's calls or time per operation of a loop, summed over the loops.
SPAN_METRICS = (
    ("sql.parse.calls", "sql.parse", "calls", "calls/op"),
    ("sql.parse.ms", "sql.parse", "ms", "ms/op"),
    ("sql.to_sql.ms", "sql.to_sql", "ms", "ms/op"),
    ("difftree.instantiate.calls", "difftree.instantiate", "calls", "calls/op"),
    ("difftree.instantiate.ms", "difftree.instantiate", "ms", "ms/op"),
    ("difftree.build.ms", "difftree.build", "ms", "ms/op"),
    ("interface.event.self_ms", "interface.event", "self_ms", "ms/op"),
    ("interface.refresh.self_ms", "interface.refresh", "self_ms", "ms/op"),
    ("search.actions.ms", "search.actions", "ms", "ms/op"),
    ("search.evaluate.calls", "search.evaluate", "calls", "calls/op"),
    ("search.evaluate.self_ms", "search.evaluate", "self_ms", "ms/op"),
    ("mapping.map.ms", "mapping.map", "ms", "ms/op"),
    ("cost.evaluate.self_ms", "cost.evaluate", "self_ms", "ms/op"),
    ("cost.coverage.calls", "cost.coverage", "calls", "calls/op"),
    ("cost.coverage.ms", "cost.coverage", "ms", "ms/op"),
    ("cost.layout.ms", "cost.layout", "ms", "ms/op"),
    ("engine.execute.calls", "engine.execute", "calls", "calls/op"),
    ("engine.execute.ms", "engine.execute", "ms", "ms/op"),
    ("engine.append.ms", "engine.append", "ms", "ms/op"),
    ("serving.refresh.ms", "serving.refresh", "ms", "ms/op"),
)

CACHE_COUNTERS = ("hits", "misses", "evictions", "ivm_folds", "ivm_fallbacks")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cache_counters(catalogs) -> Counter:
    totals = Counter()
    for catalog in catalogs:
        stats = catalog.query_cache.stats
        for name in CACHE_COUNTERS:
            totals[name] += getattr(stats, name)
    return totals


def run_loops(fixture, workload: str, seed: int, seconds: float, tracer=None):
    """Interleave the three loops; returns their reports and engine cache deltas.

    The regen loop runs whole cycles of its scenarios (one session each); a
    cycle takes about :data:`REGEN_CYCLE_S` on a 2-CPU machine, so the cycle
    count follows from the loop's share of ``seconds`` alone.  Each round runs
    one regen session, then a slice of interaction and a slice of serving,
    so all three loops sample the same stretches of machine time.

    Before each step the heap is collected and frozen (``gc.freeze``): the
    loops share one process, and without it every full collection inside a
    timed operation would re-scan the other loops' long-lived objects - a
    pause of ~60 ms on a 2-CPU machine that a process serving one loop would
    not have.
    Collections of the objects a step itself allocates still run.
    """
    from phases import InteractLoop, RegenLoop, ServeLoop

    shares = WORKLOADS[workload]
    cycles = max(1, round(seconds * shares["regen"] / REGEN_CYCLE_S))
    serve_s = seconds * shares["serve"]
    loops = {
        "regen": RegenLoop(fixture, random.Random(f"{seed}:regen"), cycles, tracer),
        "interact": InteractLoop(fixture, random.Random(f"{seed}:interact"), tracer),
        "serve": ServeLoop(fixture, random.Random(f"{seed}:serve"), serve_s, tracer),
    }
    rounds = len(loops["regen"].sessions)
    slices = {"interact": seconds * shares["interact"] / rounds, "serve": serve_s / rounds}
    before = cache_counters(fixture.catalogs())
    try:
        for index in range(rounds):
            for phase, loop in loops.items():
                gc.collect()
                gc.freeze()
                if tracer is not None:
                    tracer.phase = phase
                loop.step(index if phase == "regen" else slices[phase])
    finally:
        gc.unfreeze()
    cache = cache_counters(fixture.catalogs()) - before
    reports = {phase: loop.finish() for phase, loop in loops.items()}
    return reports, cache


def end_to_end(reports, setup_s: float, speed) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Generation reports the mean wait per Generate click, not the median: a
    cycle is 25 request types from 2 ms to 1 s with a gap near the middle, so
    the median flipped between ~72 and ~110 ms from run to run on a 2-CPU
    machine.  Interaction reports p95, not p99: in two runs of ten on a shared
    2-vCPU host the p99 of a ~0.3 ms event doubled (2.0 to 4.2-5.3 ms) while
    its median held, as if a stretch of host stalls had met over 1% of the
    events.  The p99 is kept as the per-layer ``interact.p99_ms``.
    """
    from phases import percentile

    generate = reports["regen"].latencies_ms(speed)
    interact = reports["interact"].latencies_ms(speed)
    return {
        "setup_s": setup_s,
        "generate_mean_ms": statistics.fmean(generate),
        "generate_p90_ms": percentile(generate, 0.90),
        "generate_cost": statistics.fmean(reports["regen"].extra["costs"]),
        "interact_p50_ms": percentile(interact, 0.50),
        "interact_p95_ms": percentile(interact, 0.95),
        "serve_read_p50_ms": percentile(reports["serve"].latencies_ms(speed, "read"), 0.50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    tracer, reports, cache: Counter, search: Counter, speed
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit)."""
    from phases import percentile

    metrics = {}
    for metric, span, field, unit in SPAN_METRICS:
        by_phase = tracer.phase_totals(span)
        metrics[metric] = (
            sum(
                ratio(getattr(totals, field), reports[phase].attempted)
                for phase, totals in by_phase.items()
                if phase in reports
            ),
            unit,
        )
    serve = reports["serve"].extra
    interact = reports["interact"].latencies_ms(speed)
    reads = reports["serve"].latencies_ms(speed, "read")
    writes = reports["serve"].latencies_ms(speed, "write")
    lookups = cache["hits"] + cache["misses"]
    metrics.update(
        {
            "search.memo_hit_ratio": (
                ratio(search["memo_hits"], search["memo_hits"] + search["evaluations"]),
                "ratio",
            ),
            "search.profile_hit_ratio": (
                ratio(search["profile_hits"], search["profile_hits"] + search["profile_queries"]),
                "ratio",
            ),
            "mapping.piece_hit_ratio": (
                ratio(search["piece_hits"], search["piece_hits"] + search["piece_misses"]),
                "ratio",
            ),
            "engine.result_hit_ratio": (ratio(cache["hits"], lookups), "ratio"),
            "engine.effective_hit_ratio": (
                ratio(cache["hits"] + cache["ivm_folds"], lookups),
                "ratio",
            ),
            "engine.evictions": (cache["evictions"], "count"),
            "engine.ivm_folds": (cache["ivm_folds"], "count"),
            "engine.ivm_fallbacks": (cache["ivm_fallbacks"], "count"),
            "serving.queue_wait_p95_ms": (serve["queue_wait_p95_ms"], "ms"),
            "serving.rejected": (serve["rejected"], "count"),
            "serving.shed": (serve["shed"], "count"),
            "serving.failed": (serve["failed"], "count"),
            "interact.p99_ms": (percentile(interact, 0.99), "ms"),
            "serving.read_p99_ms": (percentile(reads, 0.99), "ms"),
            "serving.write_p50_ms": (percentile(writes, 0.50), "ms"),
            "serving.write_p99_ms": (percentile(writes, 0.99), "ms"),
            "loadgen.lag_p99_ms": (percentile(serve["lags_ms"], 0.99), "ms"),
            "machine.slowdown": (speed.slowdown(), "ratio"),
        }
    )
    metrics.update(workload_shares(reports))
    return metrics


def workload_shares(reports) -> dict[str, tuple[float, str]]:
    """The input property each later optimisation targets, as measured."""
    return {
        "regen.extends_share": (reports["regen"].extra["extends_share"], "ratio"),
        "interact.cached_share_discrete": (
            reports["interact"].extra["cached_share_discrete"],
            "ratio",
        ),
        "interact.cached_share_continuous": (
            reports["interact"].extra["cached_share_continuous"],
            "ratio",
        ),
        "serve.write_share": (reports["serve"].extra["write_share"], "ratio"),
        "serve.ivm_fold_share": (reports["serve"].extra["ivm_fold_share"], "ratio"),
    }


def search_counter(tracer) -> Counter:
    """Count search memo, data-profile and mapping-piece reuse per generation."""
    from repro.search.space import SearchSpace

    totals = Counter()

    def note(args, _result) -> None:
        space = args[0]
        now = Counter(
            evaluations=space.stats.evaluations,
            memo_hits=space.stats.cache_hits,
            profile_hits=space.stats.profile_cache_hits,
            profile_queries=space.stats.query_cache_hits + space.stats.queries_executed,
            piece_hits=space.mapping_caches.pieces.hits,
            piece_misses=space.mapping_caches.pieces.misses,
        )
        # ``result`` may run more than once per search: count each call's delta.
        totals.update(now - space.__dict__.get("_perfbench_counted", Counter()))
        space.__dict__["_perfbench_counted"] = now

    tracer.add_hook(SearchSpace, "result", note)
    return totals


def verdict(reports) -> tuple[bool, int, int, list[str]]:
    failures = [failure for report in reports.values() for failure in report.check_failures]
    attempted = sum(report.attempted for report in reports.values())
    failed = sum(report.failed for report in reports.values()) + len(failures)
    return not failures, attempted, failed, failures


def describe(workload: str, reports, setups) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"workload {workload}: {WHY[workload]}")
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    for phase, report in reports.items():
        print(
            f"{phase}: {report.attempted} ops, {report.failed} failed, "
            f"{report.checks} checks, {len(report.check_failures)} check failures"
        )
    for name, (value, _unit) in workload_shares(reports).items():
        print(f"{name}: {value:.4f}")
    _ok, _attempted, _failed, failures = verdict(reports)
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def untraced_child(args) -> dict[str, float]:
    """Run the untraced benchmark in a child process; its end-to-end values."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds / 2),
        "--trace",
        "0",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"untraced run failed with exit code {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from speed import SpeedSampler

    # One CPU for the whole run: under the interpreter lock the program's
    # threads never compute at once anyway, and the speed probe then measures
    # the CPU the work runs on (the serving read median spread 0.08 over six
    # seeds pinned against 0.10 unpinned).  The service still has nproc workers.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced = untraced_child(args) if args.trace else None
    with SpeedSampler() as speed:
        if args.trace:
            reports, metrics = traced_run(args, speed, untraced)
        else:
            reports, metrics = untraced_run(args, speed)
    correct, attempted, failed, _failures = verdict(reports)
    emit(correct, attempted, failed, metrics)
    return 0


def untraced_run(args, speed):
    """Set up :data:`SETUP_REPEATS` times, run the loops; reports and end-to-end metrics."""
    from phases import build_fixture

    setups = []
    fixture = None
    for _ in range(SETUP_REPEATS):
        if fixture is not None:
            fixture.close()
        gc.collect()
        started = time.perf_counter()
        fixture = build_fixture(args.seed)
        setups.append(speed.scaled_s(started, time.perf_counter()))
    try:
        reports, _cache = run_loops(fixture, args.workload, args.seed, args.seconds)
    finally:
        fixture.close()
    describe(args.workload, reports, setups)
    values = end_to_end(reports, statistics.median(setups), speed)
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    return reports, metrics


def traced_run(args, speed, untraced: dict[str, float]):
    """Set up once, run the loops for half the time traced; reports and per-layer metrics."""
    from phases import build_fixture
    from tracing import Tracer

    started = time.perf_counter()
    fixture = build_fixture(args.seed)
    setups = [speed.scaled_s(started, time.perf_counter())]
    tracer = Tracer()
    tracer.install()
    search = search_counter(tracer)
    try:
        reports, cache = run_loops(fixture, args.workload, args.seed, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
        fixture.close()
    describe(args.workload, reports, setups)
    traced = end_to_end(reports, setups[0], speed)
    metrics = per_layer(tracer, reports, cache, search, speed)
    for name in ("generate_mean_ms", "interact_p50_ms", "serve_read_p50_ms"):
        metrics[f"trace.overhead.{name}"] = (traced[name] - untraced[name], "ms")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return reports, metrics


if __name__ == "__main__":
    sys.exit(main())
