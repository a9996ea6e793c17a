"""Unit-capacity max-flow / min-cut primitives over instance subgraphs.

Every flow lives in a ``Residual``: the residual capacities and value of one
source-sink flow over a ``Network``, the arcs of a working graph, built once
and shared by every flow over that graph.  Arcs join a network once for all
its flows (``add_arcs``), and each flow takes them at their initial
capacity when it next grows or is read, so no read sees a flow behind its
network.  ``Residual.grow`` resumes augmenting from the flow it already
carries, by shortest augmenting paths (breadth-first, deterministic for a
fixed arc order).  Its value is a path count.  A network is keyed by the
nodes its arcs touch, so nothing here is sized by the instance's node
count.
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
builds a network or a residual, builds the network of that graph once and
grows one root->terminal flow over it per terminal, in id order and only as
far as its caller reads; root connectivity (``solution_of``, exact), the
first short terminal (``short_terminal``, whose flows stop at ``need``) and
the cores all read those flows.  The greedy adds each star's arcs to its
flows' network once and grows its root flows (stopped at k) by them.  A
star's rings are those flows as they stand, read by ``Residual.reach`` with
the other cores' terminals as stops (``rings.ring_stops``): pricing a star
grows, marks and rolls back no flow.  The brute-force search adds each
branch's arc once, grows its flows in place and rolls them back
(``Residual.mark``, ``Residual.rollback``, the one way any flow's growth is
undone and any arc leaves a network; each flow restores its own capacities
and value).  ``solution_of`` is the one builder of a ``Solution``: the
solver, brute force and the verifier all build theirs with it.
"""

from __future__ import annotations

from collections.abc import Iterator

from .instance import Instance, InfeasibleError, Solution


class Network:
    """The arcs of one working graph, shared by every flow over it.

    Arcs are stored in pairs: arc ``i`` and its reverse ``i ^ 1``, with the
    head of each in ``to`` and the capacity it starts with in ``initial``
    (the reverse starts empty); ``adj`` maps each node an arc touches to the
    indexes of the arcs leaving it.  ``add`` appends arcs; the one way an arc
    leaves is ``Residual.rollback``, newest first.  The residual capacities
    are not here: each flow over the network owns its own.
    """

    def __init__(self):
        self.to: list[int] = []
        self.adj: dict[int, list[int]] = {}
        self.initial: list[int] = []

    def add(self, arcs) -> None:
        """Append each (tail, head, cap) triple of ``arcs``, loops and empty
        arcs skipped."""
        adj, to, initial = self.adj, self.to, self.initial
        for tail, head, c in arcs:
            if c > 0 and tail != head:
                adj.setdefault(tail, []).append(len(to))
                adj.setdefault(head, []).append(len(to) + 1)
                to += (head, tail)
                initial += (c, 0)


class Residual:
    """The flow of one source-sink pair over a shared ``Network``: its
    residual capacities and the value it carries.

    ``cap`` holds the residual capacity of each network arc this flow has
    taken, in the network's arc order.  Arcs added to the network later are
    taken at their initial capacity at the top of the next ``grow`` or
    ``reach`` (``_take_new_arcs``), so no read sees a stale flow, and a flow
    that is never read again pays for no arc.  ``grow`` resumes from the
    current flow, so a flow grows with its graph instead of being
    recomputed; ``mark`` and ``rollback`` undo such growth, last in, first
    out.  ``reach`` reads which nodes reach the sink and changes no flow.
    The closest sink side is the same for every maximum flow, so it is only
    read once ``grow`` has run out of paths.
    """

    def __init__(self, network: Network, source: int, sink: int):
        if source == sink:
            raise ValueError("source and sink must differ")
        self.network = network
        self.source = source
        self.sink = sink
        self.value = 0
        self.cap: list[int] = []
        network.adj.setdefault(source, [])

    def _take_new_arcs(self) -> None:
        """Take every arc the network gained since this flow last looked, at
        its initial capacity; ``grow`` and ``reach`` call it whenever the
        flow's capacities and the network's arcs differ in number."""
        cap, initial = self.cap, self.network.initial
        if len(cap) > len(initial):
            raise AssertionError("a flow holds arcs its network has dropped")
        cap += initial[len(cap):]

    def mark(self) -> tuple[int, list[int], int]:
        """A snapshot for ``rollback``: the network's arc count, this flow's
        capacities and its value."""
        return len(self.network.to), self.cap[:], self.value

    def rollback(self, mark: tuple[int, list[int], int]) -> None:
        """Undo every ``grow`` since ``mark``: restore this flow's capacities
        and value, and pop the arcs added to the network since, newest first
        (each is the last entry of its ``adj`` row).  Flows marked together
        are rolled back together; the first one pops the arcs, and the rest
        find them gone."""
        count, cap, self.value = mark
        network = self.network
        to, adj = network.to, network.adj
        if len(to) > count:
            for i in range(len(to) - 1, count - 1, -1):
                adj[to[i ^ 1]].pop()
            del to[count:]
            del network.initial[count:]
        self.cap[:] = cap

    def grow(self, limit: int | None = None) -> int:
        """Take the network's new arcs, then push shortest augmenting paths
        until the value reaches ``limit`` (unbounded when None) or no path
        is left; returns the value.

        Breadth-first search in arc order makes the flow deterministic.
        """
        cap, network = self.cap, self.network
        if len(cap) != len(network.initial):
            self._take_new_arcs()
        s, t, adj, to = self.source, self.sink, network.adj, network.to
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
        changed; it only takes the network's new arcs first.
        """
        cap, network = self.cap, self.network
        if len(cap) != len(network.initial):
            self._take_new_arcs()
        to, adj, source = network.to, network.adj, self.source
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

    The working graph's arcs are built once, into one ``Network`` that every
    flow yielded here reads through.  Lazy: each flow is built and grown
    when its terminal comes up, so a caller that stops early pays for no
    further terminal.
    """
    network = Network()
    network.add(working_arcs(inst, selected))
    for t in sorted(inst.terminals):
        flow = Residual(network, inst.root, t)
        flow.grow(limit)
        yield t, flow


def add_arcs(flows, arcs) -> None:
    """Add the (tail, head, cap) triples ``arcs`` once to the network every
    flow of ``flows`` reads through (one ``root_flows`` call's flows share
    one); each flow takes them at its next ``grow`` or ``reach``."""
    network = None
    for flow in flows:
        if flow.network is not network:
            if network is not None:
                raise ValueError("the flows read through different networks")
            network = flow.network
    if network is not None:
        network.add(arcs)


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
    the greedy, once it meets an uncoverable ring; the generator, on every
    draw."""
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
