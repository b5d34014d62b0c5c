"""Run one workload of the rule-engine benchmark, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many_rules --seed 1 --seconds 20 \\
        --trace 0

``--workload all`` runs every workload, each in a fresh process.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it runs the same seed and op stream once untraced and once with spans
around every layer, and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same figures for people, with sample counts and the environment.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys

from common import (ROOT, WORK_DIR, drive, environment, import_engine,
                    pin_to_one_cpu, settle_heap, timed_setups)

WORKLOADS = ("many_rules", "join_cascade", "serve_durable")


def setup_heap_mb(module, stream, close) -> float:
    """Peak bytes the engine allocates while one untimed set-up runs,
    as ``tracemalloc`` counts them: the loaded database, its rules and
    network, and set-up's transient garbage, but not the op stream or
    the interpreter; it repeats for the same inputs."""
    import tracemalloc

    tracemalloc.start()
    try:
        state = module.build(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    close(state)
    return peak / (1024.0 * 1024.0)


def end_to_end(rec, setup_s: float, heap_mb: float):
    """The end-to-end metrics, and the tail latencies that are only
    printed: p99 swings by more than any allowed bound between runs on
    a shared host, so it is not a gated metric."""
    latency = rec.latency_metrics()
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (rec.throughput(), "1/s"),
        "write_p50_us": latency["write_p50_us"],
        "read_p50_us": latency["read_p50_us"],
        "peak_heap_mb": (heap_mb, "MB"),
    }
    tails = {name: value for name, (value, _) in latency.items()
             if name.endswith("_p99_us")}
    return metrics, tails


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
#
# A workload module provides ``Stream(seed, seconds)`` with the op
# stream in ``.ops``, ``build(stream)`` returning the state under test
# (a Database, or an object holding one as ``.db``), ``calls(state)``
# returning the engine calls the stream's ops name, and
# ``check(state, stream, executed, reads, firings)`` returning the
# problems found.  An optional ``close(state)`` releases a state.

def engine_of(state):
    return getattr(state, "db", state)


def timed_phase(module, state, stream, seconds: float, tracer=None):
    """Drive the stream against ``state`` and check the outcome;
    returns (Recorder, problems, counter delta, matches consumed)."""
    from tracer import counter_delta

    db = engine_of(state)
    calls = module.calls(state)
    firings, logged = db.firings, len(db.firing_log)
    before = db.stats.snapshot()
    settle_heap()
    if tracer is not None:
        tracer.active = True
    rec, reads = drive(calls, stream.ops, seconds, tracer)
    if tracer is not None:
        tracer.active = False
    counters = counter_delta(before, db.stats.snapshot())
    matches = sum(r.match_count for r in db.firing_log[logged:])
    problems = module.check(state, stream, rec.attempted, reads,
                            db.firings - firings)
    return rec, problems, counters, matches


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (Recorder, problems, metrics, extra figures to print)."""
    import importlib

    pin_to_one_cpu()
    module = importlib.import_module(name)
    close = getattr(module, "close", lambda state: None)
    stream = module.Stream(seed, seconds)
    # the stream lives for the whole run: keep the collector off it, so
    # set-up times do not depend on when a full collection hits
    settle_heap()
    heap_mb = setup_heap_mb(module, stream, close)
    state, setup_s = timed_setups(lambda: module.build(stream), close)
    try:
        rec, problems, _, _ = timed_phase(module, state, stream, seconds)
    finally:
        close(state)
    recovery = getattr(state, "recovery", None)
    extra = {} if recovery is None else {"recover_s": recovery[0],
                                         "recovery_replayed": recovery[1]}
    if not trace:
        metrics, tails = end_to_end(rec, setup_s, heap_mb)
        return rec, problems, metrics, {**extra, **tails}
    from tracer import Tracer, layer_metrics

    baseline = rec.throughput()
    gc.unfreeze()
    del state
    gc.collect()
    state = module.build(stream)
    tracer = Tracer()
    tracer.install_engine(engine_of(state))
    service = getattr(state, "service", None)
    if service is not None:
        tracer.install_service(service, state.sessions)
    try:
        rec, traced_problems, counters, matches = timed_phase(
            module, state, stream, seconds, tracer)
    finally:
        tracer.unwrap_all()
        close(state)
    problems += traced_problems
    agg = tracer.aggregate()
    roots = ("op.read", "op.write")
    if service is not None:
        roots += ("serve.read", "serve.writer_exec")
    metrics = layer_metrics(
        agg, counters, ops=rec.completed,
        writes=len(rec.samples["write"]), matches=matches,
        root_names=roots, wal_bytes=tracer.tally["wal_bytes"])
    metrics["trace.op_us"] = (
        sum(agg.get(n, {}).get("duration", 0.0) for n in ("op.read",
                                                          "op.write"))
        * 1e6 / max(rec.completed, 1))
    metrics["trace.overhead_ratio"] = baseline / rec.throughput()
    if service is not None:
        metrics.update(service_metrics(agg))
    recovery = getattr(state, "recovery", None)
    if recovery is not None:
        metrics["txn.recover_s"], metrics["txn.recovery_replayed"] = \
            recovery
    WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(WORK_DIR / f"spans-{name}-seed{seed}.json")
    return rec, problems, metrics, extra


def service_metrics(agg: dict) -> dict[str, float]:
    """Mean service time per read and per write, and the part of a
    write's service time spent outside the writer thread's execution
    (queue handoff, gate and wake-up)."""
    def mean(span: str) -> float:
        entry = agg.get(span) or {"count": 0}
        return (entry["duration"] * 1e6 / entry["count"]
                if entry["count"] else 0.0)

    return {
        "serve.service_read_us": mean("serve.read"),
        "serve.service_write_us": mean("serve.write"),
        "serve.write_wait_us": (mean("serve.write")
                                - mean("serve.writer_exec")),
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str] | None:
    """Metric name -> unit as BENCHMARK.json declares them for this
    mode, or None when the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from tracer import PER_LAYER

    durable = workload == "serve_durable"
    rec, problems, metrics, extra = run_workload(workload, seed, seconds,
                                                 trace)
    if trace:
        metrics = {name: (metrics.get(name, 0.0), unit)
                   for name, unit, _ in PER_LAYER}
    declared = declared_metrics(trace)
    if declared is not None and declared != {
            name: unit for name, (_, unit) in metrics.items()}:
        print(f"perfbench: metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3
    counts = rec.sample_counts()
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    print(f"  attempted {rec.attempted}  failed {rec.failed}  "
          f"error_rate {rec.failed / max(rec.attempted, 1):.6f}  "
          f"samples read={counts['read']} write={counts['write']}")
    print(f"  host pace {rec.median_pace():.4f} (median; 1 = the "
          f"reference pace)  unpaced throughput "
          f"{rec.raw_throughput():.4f} 1/s")
    for error in rec.errors:
        print(f"  error: {error}")
    for key, value in extra.items():
        print(f"  {key} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.4f} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  environment {json.dumps(environment(durable))}")
    print(json.dumps({
        "correct": not problems and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; the last line merges them,
    metric names prefixed with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} failed", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_engine()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
