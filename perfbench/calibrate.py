"""Machine-speed probes that turn wall times into calibrated seconds.

On a shared 2-vCPU virtual machine (Intel Xeon, other tenants on the host)
the speed one process sees drifts by up to 70 % between runs a few minutes
apart: the same midsize pool took 7.4 s of solving in one run and 12.6 s in
another.  Repetition inside a 30 s run cannot remove that, so every timed
call is scaled by the speed of a probe measured next to it.  A probe is a
fixed Edmonds-Karp max-flow in the same pure-Python style as ``rkec.flows``;
it is frozen benchmark code and does not import rkec, so a change to the
solver never moves the yardstick.

Two probes, because no single one tracked every call.  Measured side by side
over the same six 30 s runs per workload:

- A short call (corpus solves, every verify) is scaled by a small probe
  (30 nodes, 0.4 ms) run just before and just after it.  This held corpus
  ``solve_s`` within a 4 % range, against 10 % with the large probe.
- A call with a large probe inside it (midsize and wide solves) is scaled by
  the median large probe (400 nodes, 2400 arcs) within ``WINDOW_S`` of it; a
  SIGALRM timer runs one every ``INTERVAL_S`` while the benchmark measures,
  and the time of those inside the call is subtracted from the call's.  This held midsize ``solve_s`` within 4 %, against 7 % with the
  small probe: over 150 s of repeated midsize solves, solve time followed the
  large probe with an elasticity of 1.1 and probes on 30-200-node graphs,
  which stay in cache, with 0.3-0.6.

``REF_SMALL_S`` is the small probe's time on an idle vCPU of the reference
machine, so short calls read close to their wall time there.  ``REF_LARGE_S``
is set so that both scalings agree on the same calls (a large probe run
inside a solve is slower than a standalone one).
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

REF_SMALL_S = 0.0004
REF_LARGE_S = 0.0068
INTERVAL_S = 0.25  # about 2 % of a run goes to large probes
WINDOW_S = 2.0  # large probes this far either side of a long call scale it


def _graph(nodes: int, arcs: int) -> tuple[int, list[tuple[int, int, int]]]:
    rng = random.Random(2009_10160)
    out = []
    while len(out) < arcs:
        tail, head = rng.randrange(nodes), rng.randrange(1, nodes)
        if tail != head:
            out.append((tail, head, rng.randint(1, 3)))
    return nodes, out


_SMALL = _graph(30, 150)
_LARGE = _graph(400, 2400)


def _max_flow(graph, source: int, sink: int) -> int:
    nodes, arcs = graph
    adj: list[list[list[int]]] = [[] for _ in range(nodes)]
    for tail, head, cap in arcs:
        adj[tail].append([head, cap, len(adj[head])])
        adj[head].append([tail, 0, len(adj[tail]) - 1])
    flow = 0
    while True:
        parent: list[tuple[int, int] | None] = [None] * nodes
        parent[source] = (source, -1)
        queue = deque([source])
        while queue and parent[sink] is None:
            u = queue.popleft()
            for slot, entry in enumerate(adj[u]):
                if entry[1] > 0 and parent[entry[0]] is None:
                    parent[entry[0]] = (u, slot)
                    queue.append(entry[0])
        if parent[sink] is None:
            return flow
        path = []
        v = sink
        while v != source:
            u, slot = parent[v]
            path.append(adj[u][slot])
            v = u
        push = min(entry[1] for entry in path)
        for entry in path:
            entry[1] -= push
            adj[entry[0]][entry[2]][1] += push
        flow += push


def small_probe() -> float:
    """Wall seconds of the small probe."""
    start = perf_counter()
    _max_flow(_SMALL, 0, 1)
    _max_flow(_SMALL, 0, 2)
    return perf_counter() - start


def large_probe() -> float:
    """Wall seconds of the large probe."""
    start = perf_counter()
    _max_flow(_LARGE, 0, 5)
    return perf_counter() - start


@dataclass(frozen=True)
class Call:
    """A timed call: perf_counter() at start and end, small probes around it."""

    start: float
    end: float
    before: float
    after: float


class timed:
    """Context manager that times its body; ``.call`` is set on exit."""

    def __enter__(self) -> "timed":
        self.before = small_probe()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        self.call = Call(self.start, end, self.before, small_probe())


class SpeedSampler:
    """Large-probe timings taken every ``INTERVAL_S`` while ``running()``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(perf_counter())
        self.durations.append(large_probe())

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, call: Call) -> list[float]:
        lo = bisect_left(self.starts, call.start)
        hi = bisect_right(self.starts, call.end)
        return self.durations[lo:hi]

    def wall(self, call: Call) -> float:
        """Wall seconds of the call minus the large probes that ran inside it."""
        return call.end - call.start - sum(self._inside(call))

    def seconds(self, call: Call) -> float:
        """Calibrated seconds of the call."""
        if not self._inside(call):
            return self.wall(call) * REF_SMALL_S * 2 / (call.before + call.after)
        lo = bisect_left(self.starts, call.start - WINDOW_S)
        hi = bisect_right(self.starts, call.end + WINDOW_S)
        return self.wall(call) * REF_LARGE_S / statistics.median(self.durations[lo:hi])
