"""Unit-capacity max-flow / min-cut primitives over instance subgraphs.

Queries run on a FlowView, an immutable arc list assembled from a chosen edge
subset plus any synthetic arcs.  Augmentation uses shortest augmenting paths
(breadth-first), which is deterministic for a fixed arc order; the instances
this library targets are small, so every query recomputes from scratch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .instance import Instance


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    cap: int
    synthetic: bool = False  # synthetic arcs never correspond to instance edges


class FlowView:
    """Immutable capacitated digraph; each query uses private scratch state."""

    def __init__(self, node_count: int, arcs):
        self.node_count = node_count
        self.arcs = tuple(arcs)

    def _residual(self):
        """Adjacency of mutable residual entries [to, cap, rev-slot]."""
        adj = [[] for _ in range(self.node_count)]
        for a in self.arcs:
            if a.cap <= 0 or a.tail == a.head:
                continue
            adj[a.tail].append([a.head, a.cap, len(adj[a.head])])
            adj[a.head].append([a.tail, 0, len(adj[a.tail]) - 1])
        return adj


def _max_flow(adj, s: int, t: int) -> int:
    n = len(adj)
    total = 0
    while True:
        parent: list[tuple[int, int] | None] = [None] * n
        parent[s] = (s, -1)
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for slot, entry in enumerate(adj[u]):
                v = entry[0]
                if entry[1] > 0 and parent[v] is None:
                    parent[v] = (u, slot)
                    queue.append(v)
        if parent[t] is None:
            return total
        # bottleneck along the BFS path, then push
        bottleneck = None
        v = t
        while v != s:
            u, slot = parent[v]
            cap = adj[u][slot][1]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = t
        while v != s:
            u, slot = parent[v]
            entry = adj[u][slot]
            entry[1] -= bottleneck
            adj[entry[0]][entry[2]][1] += bottleneck
            v = u
        total += bottleneck


def max_flow_value(view: FlowView, s: int, t: int) -> int:
    """Maximum number of edge-disjoint s->t paths respecting capacities."""
    if s == t:
        raise ValueError("source and sink must differ")
    return _max_flow(view._residual(), s, t)


def _reaches_sink(adj, t: int) -> frozenset[int]:
    # u belongs iff some residual path u -> ... -> t exists: walk arcs backwards.
    reach = {t}
    queue = deque([t])
    while queue:
        x = queue.popleft()
        for entry in adj[x]:
            y = entry[0]
            # residual arc y -> x is the reverse slot of entry
            if y not in reach and adj[y][entry[2]][1] > 0:
                reach.add(y)
                queue.append(y)
    return frozenset(reach)


def closest_sink_cut(view: FlowView, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum s-t cut value and its inclusion-minimal sink side.

    The sink side is the set of nodes that can still reach t in the residual
    network of a maximum flow; that set is the same for every maximum flow, so
    the result is independent of augmentation order.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    adj = view._residual()
    value = _max_flow(adj, s, t)
    side = _reaches_sink(adj, t)
    if s in side:
        raise AssertionError("source still reaches the sink after a maximum flow")
    return value, side


def farthest_sink_cut(view: FlowView, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum s-t cut value and its inclusion-maximal sink side.

    The sink side is every node the source cannot reach in the residual
    network of a maximum flow; like ``closest_sink_cut`` it does not depend on
    which maximum flow was found.  Every minimum cut's sink side lies inside
    it.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    adj = view._residual()
    value = _max_flow(adj, s, t)
    reached = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for entry in adj[x]:
            if entry[1] > 0 and entry[0] not in reached:
                reached.add(entry[0])
                queue.append(entry[0])
    if t in reached:
        raise AssertionError("source still reaches the sink after a maximum flow")
    return value, frozenset(v for v in range(view.node_count) if v not in reached)


def min_violated_cut(view: FlowView, s: int, t: int, bound: int) -> frozenset[int] | None:
    """Minimal sink side of a minimum s-t cut, or None once flow reaches bound.

    Thin wrapper used by the oracles: deficiency arithmetic stays with the
    caller, this only answers "is the connectivity still below bound, and if
    so, what is the tightest witness set around t".
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    value, side = closest_sink_cut(view, s, t)
    if value >= bound:
        return None
    return side


def max_flow_paths(view: FlowView, s: int, t: int) -> list[list[int]]:
    """Decompose one maximum flow into edge-disjoint s->t node paths.

    Returns exactly max_flow_value(view, s, t) paths; parallel capacity counts
    as distinct edges, and flow on cycles (if any) is ignored.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    adj = view._residual()
    value = _max_flow(adj, s, t)
    # Locate each arc's forward slot by replaying the construction order; the
    # flow pushed over it equals the capacity sitting on its reverse slot.
    counts = [0] * view.node_count
    remaining: dict[tuple[int, int], int] = {}
    for a in view.arcs:
        if a.cap <= 0 or a.tail == a.head:
            continue
        u, slot = a.tail, counts[a.tail]
        counts[a.tail] += 1
        counts[a.head] += 1
        entry = adj[u][slot]
        pushed = adj[entry[0]][entry[2]][1]
        if pushed > 0:
            remaining[(u, slot)] = pushed
    paths = []
    for _ in range(value):
        # BFS in the flow graph to find one s->t path
        parent: dict[int, tuple[int, int]] = {s: (s, -1)}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for slot, entry in enumerate(adj[u]):
                if remaining.get((u, slot), 0) > 0 and entry[0] not in parent:
                    parent[entry[0]] = (u, slot)
                    queue.append(entry[0])
        if t not in parent:
            raise AssertionError("flow decomposition lost a unit of flow")
        nodes = [t]
        v = t
        while v != s:
            u, slot = parent[v]
            remaining[(u, slot)] -= 1
            nodes.append(u)
            v = u
        paths.append(list(reversed(nodes)))
    return paths


def instance_view(inst: Instance, units, synthetic=()) -> FlowView:
    """Assemble the working graph: zero-cost edges, selected units, extras.

    Selected units are grouped per edge id into one arc with the unit count as
    capacity; synthetic arcs are appended last and keep their tag.
    """
    arcs = [Arc(e.tail, e.head, e.mult) for e in inst.zero_edges]
    counts: dict[int, int] = {}
    for eid, _ in units:
        counts[eid] = counts.get(eid, 0) + 1
    for eid in sorted(counts):
        e = inst.edge_by_id[eid]
        arcs.append(Arc(e.tail, e.head, counts[eid]))
    arcs.extend(synthetic)
    return FlowView(inst.node_count, arcs)
