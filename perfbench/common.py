"""Shared pieces of the benchmark: engine settings, the in-process
closed loop, latency recording and the environment record.

Every Database the benchmark builds takes its settings from
:data:`ENGINE_KWARGS`, so an environment variable such as
``REPRO_WORKERS`` or ``REPRO_JOIN_MODE`` cannot change what is measured.
"""

from __future__ import annotations

import gc
import os
import pathlib
import platform
import statistics
import sys
import time

from pace import EVERY_S as PACE_EVERY_S
from pace import REFERENCE_S, Pace, bracket_factor
from pace import slices as pace_slices

#: the checkout the benchmark runs in (the parent of this directory)
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: working space for durable directories, span dumps and server
#: results; inside the checkout and ignored by git
WORK_DIR = ROOT / ".bench_work"

#: constructor arguments pinned for every Database the benchmark builds
ENGINE_KWARGS = {
    "network": "a-treat",
    "batch_tokens": False,
    "join_mode": "auto",
    "parallel_workers": 0,
    "statement_cache_size": 128,
}

#: WAL settings of the durable workload (checkpoint_every is the
#: engine's default).  Every record is written and flushed to the file
#: but not fsynced: on a shared virtual disk the fsync latency swings
#: from run to run by more than any bound a gate could keep.
DURABLE_KWARGS = {"fsync": "never", "checkpoint_every": 1000}

#: set-ups per run: at least SETUP_REPEATS, more until SETUP_BUDGET_S
#: seconds are spent (a cheap set-up is noisy), at most SETUP_MAX;
#: ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
SETUP_MAX = 20

GC_POLICY = ("gc.collect() + gc.freeze() after generating the stream "
             "and after set-up")


def import_engine() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit with status 2
    when the engine's source is not there (a bare benchmark copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {src}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def pin_to_one_cpu() -> None:
    """Run this process, every thread of it, on one CPU (the highest
    numbered it may use; the lowest tends to take more interrupts).  A
    hand-off between threads, such as the service's write queue, is
    then a switch on one core: on a shared VM, waking a thread on
    another virtual CPU costs an amount that swings from run to run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def settle_heap() -> None:
    """Collect, then move every surviving object out of the collector's
    reach, so set-up garbage is never collected inside the timed phase."""
    gc.collect()
    gc.freeze()


def filesystem_of(path: pathlib.Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (target == mount
                        or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(durable: bool) -> dict:
    """What a result depends on besides the code: recorded with it."""
    env = {
        "nproc": os.cpu_count() or 1,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gc": GC_POLICY,
        "engine": dict(ENGINE_KWARGS),
    }
    if durable:
        WORK_DIR.mkdir(exist_ok=True)
        env["fsync"] = DURABLE_KWARGS["fsync"]
        env["checkpoint_every"] = DURABLE_KWARGS["checkpoint_every"]
        env["durable_fs"] = filesystem_of(WORK_DIR)
    return env


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


#: length of the windows the timed phase is cut into for reporting
WINDOW_S = 2.0
#: fewest samples of a kind a window needs to give that kind a percentile
MIN_WINDOW_SAMPLES = 50


class Recorder:
    """Latency samples by op kind plus failure accounting.

    A failed op counts as attempted and failed and adds no latency
    sample; its error is kept (the first few) for the report.

    Every duration is taken at the reference pace (see ``pace.py``):
    multiplied by the pace factor of the slices around the op.
    Throughput and percentiles are computed per WINDOW_S window of the
    timed phase (by op start) and reported as the median over the full
    windows.  A burst of CPU stolen from this shared host then moves
    only the windows it hits; a stall that recurs in most windows, such
    as a periodic checkpoint, still shows.  Runs too short for three
    windows use the pooled figures.  Throughput is completed ops per
    second of paced op time.
    """

    def __init__(self):
        #: per kind: op start times and durations, in seconds
        self.starts: dict[str, list[float]] = {"read": [], "write": []}
        self.samples: dict[str, list[float]] = {"read": [], "write": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.started = 0.0
        self.finished = 0.0
        self.pace = Pace()

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    def paced(self, kind: str) -> list[float]:
        """The op durations of ``kind`` at the reference pace."""
        factor = self.pace.factor_at
        return [seconds * factor(start) for start, seconds
                in zip(self.starts[kind], self.samples[kind])]

    def _windows(self, kinds) -> list[list[float]]:
        """Paced durations grouped by the full window their op started
        in."""
        groups: list[list[float]] = [
            [] for _ in range(int(self.elapsed // WINDOW_S))]
        for kind in kinds:
            for start, seconds in zip(self.starts[kind],
                                      self.paced(kind)):
                i = int((start - self.started) // WINDOW_S)
                if 0 <= i < len(groups):
                    groups[i].append(seconds)
        return groups

    def throughput(self) -> float:
        """Completed ops per second of paced op time."""
        groups = [g for g in self._windows(self.samples) if g]
        if len(groups) >= 3:
            return statistics.median(len(g) / sum(g) for g in groups)
        return self.completed / sum(sum(self.paced(kind))
                                    for kind in self.samples)

    def raw_throughput(self) -> float:
        """Completed ops per second of wall time, unpaced: printed."""
        return self.completed / self.elapsed

    def median_pace(self) -> float:
        """The median pace factor of the timed phase: printed."""
        return REFERENCE_S / statistics.median(self.pace.seconds)

    def latency_metrics(self) -> dict[str, tuple[float, str]]:
        """p50 and p99 per op kind, in microseconds."""
        out = {}
        for kind in ("write", "read"):
            groups = [sorted(g) for g in self._windows([kind])
                      if len(g) >= MIN_WINDOW_SAMPLES]
            if len(groups) < 3:
                groups = [sorted(self.paced(kind))]
            if not groups[0]:
                continue
            for q, name in ((0.50, "p50"), (0.99, "p99")):
                value = statistics.median(percentile(g, q) for g in groups)
                out[f"{kind}_{name}_us"] = (value * 1e6, "us")
        return out

    def sample_counts(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in self.samples.items()}


def timed_setups(build, discard):
    """Run ``build`` repeatedly (see :data:`SETUP_REPEATS`), passing all
    but the last result to ``discard`` (untimed); returns (that result,
    the median set-up in seconds at the reference pace).  Each set-up
    is paced by the slices timed right before and after it.  On a
    shared host a short spell of stolen CPU slows a set-up and a short
    spell of a quiet neighbour speeds one up about twofold; the median
    of many follows neither."""
    times, paced = [], []
    state = None
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        if state is not None:
            discard(state)
            state = None
        gc.collect()
        before = pace_slices()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
        paced.append(times[-1] * bracket_factor(before, pace_slices()))
    return state, statistics.median(paced)


def drive(calls, ops, seconds: float, tracer=None):
    """Run the in-process closed loop: ops in stream order until the
    stream ends or ``seconds`` pass.

    ``ops`` holds ``(kind, call, payload)`` triples, ``kind`` being
    ``"read"`` or ``"write"`` and ``calls[call](payload)`` the engine
    call.  A pace slice runs before the first op and then between ops
    every ``pace.EVERY_S`` seconds; no op's time includes one.  Returns
    the Recorder and the results of the reads as
    ``(op index, result)`` pairs; the ops attempted are the first
    ``rec.attempted`` of the stream.  With a tracer, each op is a root
    span named ``op.<kind>``.
    """
    from repro.errors import ArielError

    perf = time.perf_counter
    rec = Recorder()
    samples, starts = rec.samples, rec.starts
    reads = []
    spans = {kind: f"op.{kind}" for kind in samples}
    rec.started = perf()
    deadline = rec.started + seconds
    tick = rec.pace.tick
    next_tick = rec.started
    for index, (kind, call, payload) in enumerate(ops):
        start = perf()
        if start >= next_tick:
            tick()
            start = perf()
            next_tick = start + PACE_EVERY_S
        if start >= deadline:
            break
        rec.attempted += 1
        try:
            if tracer is None:
                result = calls[call](payload)
            else:
                with tracer.span(spans[kind]):
                    result = calls[call](payload)
        except ArielError as exc:
            rec.fail(exc)
            continue
        samples[kind].append(perf() - start)
        starts[kind].append(start)
        if kind == "read":
            reads.append((index, result))
    rec.finished = perf()
    return rec, reads
