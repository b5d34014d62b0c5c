"""The host's pace: a fixed reference workload timed between ops.

The benchmark's reference host is a shared virtual machine whose speed
drifts by up to twofold within seconds as its neighbours' load comes
and goes; a single-threaded run spends as much CPU time as wall time
then, only slower, so no clock takes the drift out.  So the benchmark
times a *pace slice* every :data:`EVERY_S` seconds between ops: a fixed
amount of pure-Python work that shares nothing with the engine
(function calls, small objects, dict and list traffic, like the
engine's own interpreter-bound code, and reads scattered over a table
larger than the CPU's private caches).  While the host runs slow, the
slices run slow by about as much, and an op's time multiplied by
``REFERENCE_S / slice time`` is the time it takes at the reference
pace: a host that runs a slice in :data:`REFERENCE_S`.  Each op uses
the median of the five slices around it.

The work of a slice never changes; changing it, or
:data:`REFERENCE_S`, changes every reported time.
"""

from __future__ import annotations

import bisect
import difflib
import gc
import statistics
import time

#: seconds of ops between two pace slices in the timed phase
EVERY_S = 0.05
#: a slice's duration at the reference pace; on the reference host (2
#: cores of a shared Xeon VM, Python 3.11) a slice took 0.35-0.65 ms
REFERENCE_S = 0.0004
#: slices timed before and after each timed set-up
SETUP_SLICES = 20
#: slices on each side of an op whose median paces it
SMOOTH = 2

# -- the reference work ------------------------------------------------

_TEXT_A = "the quick brown fox jumps over the lazy dog"
_TEXT_B = "the quick brown cat jumped over a lazy dog"
_TOKENS = "( 1 + 2 * ( 3 - 4 ) / 5 ) * 6 - 7 + ( 8 * 9 )".split()
_ROWS = [(i, f"n{i}", (i * 7919) % 1000 * 1.5) for i in range(30)]
_BANDS = [(lo, lo + 40.0) for lo in range(0, 1500, 100)]
#: a table larger than the CPU's private caches, read at scattered keys:
#: the engine's rule and row objects are spread over a heap that size,
#: and a neighbour's load slows such reads more than it slows the
#: interpreter's own loop
_TABLE = {f"key{i}": (i, str(i)) for i in range(60000)}
_PROBES = [f"key{(i * 7919) % 60000}" for i in range(300)]


def _expr(t, i):
    v, i = _term(t, i)
    while i < len(t) and t[i] in "+-":
        op = t[i]
        r, i = _term(t, i + 1)
        v = v + r if op == "+" else v - r
    return v, i


def _term(t, i):
    v, i = _atom(t, i)
    while i < len(t) and t[i] in "*/":
        op = t[i]
        r, i = _atom(t, i + 1)
        v = v * r if op == "*" else v / r
    return v, i


def _atom(t, i):
    if t[i] == "(":
        v, i = _expr(t, i + 1)
        return v, i + 1
    return float(t[i]), i + 1


class _Node:
    __slots__ = ("kind", "kids", "val")

    def __init__(self, kind, kids=(), val=None):
        self.kind, self.kids, self.val = kind, kids, val

    def eval(self, env):
        if self.kind == "v":
            return env.get(self.val, 0)
        if self.kind == "c":
            return self.val
        a, b = (k.eval(env) for k in self.kids)
        return a + b if self.kind == "+" else a * b


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("v", val="x")
    return _Node("+" if depth % 2 else "*",
                 (_tree(depth - 1), _Node("c", val=depth)))


_TREE = _tree(10)


def _reference_work() -> None:
    difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()
    for _ in range(5):
        _expr(_TOKENS, 0)
    for x in range(4):
        _TREE.eval({"x": x})
    hits: dict[int, list[int]] = {}
    for row in _ROWS:
        for j, (lo, hi) in enumerate(_BANDS):
            if lo < row[2] <= hi:
                hits.setdefault(j, []).append(row[0])
    total = 0
    for key in _PROBES:
        i, text = _TABLE[key]
        total += i + len(text)


def pace_slice() -> float:
    """Run one slice with the collector off; returns its seconds.  One
    untimed round first warms the caches the engine's last op left
    cold, so a change in the engine's memory use does not pass for a
    change in the host's pace."""
    perf = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        start = perf()
        _reference_work()
        _reference_work()
        return perf() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Pace slices of one timed phase, by the time they ran."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._factors: list[float] | None = None

    def tick(self) -> None:
        self.times.append(time.perf_counter())
        self.seconds.append(pace_slice())
        self._factors = None

    def factor_at(self, when: float) -> float:
        """``REFERENCE_S / slice time`` around ``when``: the median of
        the 2*SMOOTH+1 slices centred on the last slice before it."""
        if self._factors is None:
            secs = self.seconds
            self._factors = [
                REFERENCE_S / statistics.median(
                    secs[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i in range(len(secs))]
        if not self._factors:
            raise ValueError("no pace slices")
        i = bisect.bisect_right(self.times, when) - 1
        return self._factors[max(i, 0)]


def bracket_factor(before: list[float], after: list[float]) -> float:
    """The pace over a stretch bracketed by the given slice times."""
    return REFERENCE_S / statistics.median(before + after)


def slices(n: int = SETUP_SLICES) -> list[float]:
    return [pace_slice() for _ in range(n)]
