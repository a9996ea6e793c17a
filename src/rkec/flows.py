"""Unit-capacity max-flow / min-cut primitives over instance subgraphs.

Every flow lives in a ``Residual``: a mutable residual network for one source
and sink that grows by ``Residual.grow`` alone, which adds (tail, head, cap)
arc triples and resumes augmenting from the flow it already carries, by
shortest augmenting paths (breadth-first, deterministic for a fixed arc
order).  Its value is a path count.  A residual is keyed by the nodes its
arcs touch, so nothing here is sized by the instance's node count.
``Residual.reach`` is its one reachability read: the nodes that reach the
sink, through its residual arcs and any extra (tail, head) arcs at spare
capacity, with the flow left as it is; a stop node stands for an arc from
the source at spare capacity, so the source joins through it and the read
ends.  With no extra arcs and no stops that is the closest sink side, a
core candidate; with a ring's units and stops it is the ring's minimal
violated set.

A selection is per-edge counts, edge id -> copies bought (as in
``Solution.selected``), and its working graph one arc triple per edge, its
count as capacity (``working_arcs``).  ``root_flows``, the only code that
builds a residual, grows one root->terminal flow by it per terminal, in id
order and only as far as its caller reads; root connectivity
(``solution_of``, exact), the first short terminal (``short_terminal``,
whose flows stop at ``need``) and the cores all read those flows.  The
greedy grows its root flows (stopped at k) by each star.  A star's rings
are those flows as they stand, read by ``Residual.reach`` with the other
cores' terminals as stops (``rings.ring_stops``): pricing a star grows,
marks and rolls back no flow.  The brute-force search grows its flows in place and rolls them back
(``Residual.mark``, ``Residual.rollback``, the one way any flow's growth is
undone).  ``solution_of`` is the one builder of a ``Solution``: the solver,
brute force and the verifier all build theirs with it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .instance import Instance, InfeasibleError, Solution


class Residual:
    """Residual network of one source-sink pair, and the flow value it carries.

    Arcs are stored in pairs: arc ``i`` and its reverse ``i ^ 1``, with the
    head of each in ``to`` and the residual capacity in ``cap``; ``adj`` maps
    the source and each node an arc touches to the indexes of the arcs
    leaving it, and a read adds no row.  A residual starts with no arcs and
    ``grow`` adds arcs and resumes from the current flow, so a flow grows
    with its graph instead of being recomputed; ``mark`` and ``rollback``
    undo such growth, last in, first out.  ``reach`` reads which nodes reach
    the sink and changes nothing.  The closest sink side is the same for
    every maximum flow, so it is only read once ``grow`` has run out of
    paths.
    """

    def __init__(self, source: int, sink: int):
        if source == sink:
            raise ValueError("source and sink must differ")
        self.source = source
        self.sink = sink
        self.value = 0
        self.adj: dict[int, list[int]] = {source: []}
        self.to: list[int] = []
        self.cap: list[int] = []

    def mark(self) -> tuple[int, list[int], int]:
        """A snapshot for ``rollback``: the arc count, the capacities and the
        value."""
        return len(self.to), self.cap[:], self.value

    def rollback(self, mark: tuple[int, list[int], int]) -> None:
        """Undo every ``grow`` since ``mark``: pop the arcs added since,
        newest first (each is the last entry of its ``adj`` row), and restore
        the capacities and the value."""
        count, cap, self.value = mark
        to, adj = self.to, self.adj
        for i in range(len(to) - 1, count - 1, -1):
            adj[to[i ^ 1]].pop()
        del to[count:]
        self.cap[:] = cap

    def grow(self, arcs, limit: int | None = None) -> int:
        """Add each (tail, head, cap) triple of ``arcs`` (loops and empty
        arcs skipped), then push shortest augmenting paths until the value
        reaches ``limit`` (unbounded when None) or no path is left; returns
        the value.

        Breadth-first search in arc order makes the flow deterministic.
        """
        s, t, adj, to, cap = self.source, self.sink, self.adj, self.to, self.cap
        for tail, head, c in arcs:
            if c > 0 and tail != head:
                adj.setdefault(tail, []).append(len(to))
                adj.setdefault(head, []).append(len(to) + 1)
                to += (head, tail)
                cap += (c, 0)
        while limit is None or self.value < limit:
            via = {s: -1}  # arc that discovered each node
            queue = [s]
            for u in queue:
                for i in adj[u]:
                    v = to[i]
                    if cap[i] > 0 and v not in via:
                        via[v] = i
                        queue.append(v)
                if t in via:
                    break
            if t not in via:
                break
            path = []
            v = t
            while v != s:
                i = via[v]
                path.append(i)
                v = to[i ^ 1]
            bottleneck = min(cap[i] for i in path)
            for i in path:
                cap[i] -= bottleneck
                cap[i ^ 1] += bottleneck
            self.value += bottleneck
        return self.value

    def reach(self, side: set[int], arcs=(), stops=frozenset()) -> list[int]:
        """Extend ``side``, a set of nodes that reach the sink (empty: start
        at the sink), in place by every node that reaches it in the residual
        network plus the (tail, head) ``arcs`` at spare capacity; return the
        nodes added, in the order they joined.  Stops once the source joins:
        then one more augmenting path exists.  A node of ``stops`` stands
        for an arc into it from the source at spare capacity: the search
        reaches the source through it, and the read ends.

        ``side`` must already hold every node that reaches it without the
        arcs, as every side this returned does; so only an arc whose head is
        in it starts the search, from its tail.  The flow itself is never
        changed.
        """
        to, cap, adj, source = self.to, self.cap, self.adj, self.source
        added = []
        if not side:
            side.add(self.sink)
            added.append(self.sink)
        waiting = None  # head -> tails of the arcs whose head is not in side yet
        for tail, head in arcs:
            if head not in side:
                if waiting is None:
                    waiting = {}
                waiting.setdefault(head, []).append(tail)
            elif tail not in side:
                side.add(tail)
                added.append(tail)
        for x in added:
            if source in side:
                break
            if x in stops:
                side.add(source)
                added.append(source)
                break
            for i in adj.get(x, ()):
                y = to[i]
                # the residual arc y -> x is the reverse of arc i
                if cap[i ^ 1] > 0 and y not in side:
                    side.add(y)
                    added.append(y)
            if waiting and x in waiting:
                for y in waiting.pop(x):
                    if y not in side:
                        side.add(y)
                        added.append(y)
        return added

    def closest_sink_side(self) -> frozenset[int]:
        """Nodes that still reach the sink: the inclusion-minimal sink side of
        a minimum cut."""
        side: set[int] = set()
        self.reach(side)
        if self.source in side:
            raise AssertionError("source still reaches the sink after a maximum flow")
        return frozenset(side)


def working_arcs(inst: Instance, selected) -> list[tuple[int, int, int]]:
    """The working graph of ``selected`` (edge id -> copies bought) as
    (tail, head, cap) triples: the zero-cost edges, then one arc per
    selected edge in id order, its count as capacity."""
    arcs = [(e.tail, e.head, e.mult) for e in inst.zero_edges]
    for eid, count in sorted(selected.items()):
        e = inst.edge_by_id[eid]
        arcs.append((e.tail, e.head, count))
    return arcs


def root_flows(
    inst: Instance, selected, limit: int | None = None
) -> Iterator[tuple[int, Residual]]:
    """Per terminal in id order: a root->terminal flow of the working graph
    of ``selected``, grown until it reaches ``limit`` (a maximum flow when
    None).  A value below ``limit`` is the exact maximum.

    Lazy: each residual is built and grown when its terminal comes up, so
    a caller that stops early pays for no further terminal.
    """
    arcs = working_arcs(inst, selected)
    for t in sorted(inst.terminals):
        flow = Residual(inst.root, t)
        flow.grow(arcs, limit)
        yield t, flow


def short_terminal(inst: Instance, selected, need: int) -> tuple[int, int] | None:
    """The first terminal (in id order) with fewer than ``need`` edge-disjoint
    root paths in the working graph of ``selected``, with its path count;
    None when every terminal has ``need``.  Stops at that terminal, and each
    flow stops at ``need``: a count below it is exact."""
    for t, flow in root_flows(inst, selected, need):
        if flow.value < need:
            return t, flow.value
    return None


def require_feasible(inst: Instance) -> None:
    """Raise InfeasibleError for the first terminal that even every positive
    edge at its multiplicity leaves short of k.  Brute force runs it first;
    the greedy, once it meets an uncoverable ring."""
    short = short_terminal(inst, {e.id: e.mult for e in inst.positive_edges}, inst.k)
    if short is not None:
        raise InfeasibleError(*short, inst.k)


def solution_of(inst: Instance, selected, audit=()) -> Solution:
    """The solution ``selected`` makes: its nonzero counts in id order and
    their cost, the connectivity of its working graph and whether every
    terminal reaches k, with ``audit`` as its iteration records."""
    conn = {t: flow.value for t, flow in root_flows(inst, selected)}
    selected = {eid: c for eid, c in sorted(selected.items()) if c}
    return Solution(
        selected=selected,
        total_cost=inst.selection_cost(selected),
        connectivity=conn,
        feasible=all(v >= inst.k for v in conn.values()),
        audit=list(audit),
    )
