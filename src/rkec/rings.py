"""A core's ring, read off its carried flow, and its exact primal-dual cover.

For a core C at residual level l, the deficient sets that contain no other
core form a ring: they all contain C, and union/intersection stay inside.
The ring is never materialized.  It is read off one residual flow from the
root to the core's representative: the representative's carried root flow
as it stands, with the terminals of every other core as stops
(``ring_stops``).  A ring is that (flow, stops) pair.  A stop that reaches
the representative counts as the root reaching it, which pushes every set
containing another core's terminal below the top level.  A head edge joins
at capacity one.  The remaining top-level sets are exactly the ring members
not already covered by the head, so the minimal violated set is the closest
minimum cut at the representative.  A head and a leg are edge ids: one copy
covers.

The flow's value is k - l (``deficiency.cores_of`` checks it once per core),
since the core's cut has capacity k - l and no stop lies inside it.  So a
set of edges covers the ring exactly when the root or a stop reaches the
representative through the residual network and the edges' arcs; and when
neither does, the nodes that do reach it are the closest sink side, the
minimal violated set.  Every question the ring layer asks is that one read
(``Residual.reach``); no flow is grown, copied or rolled back for it.  With
no edge at all, neither the root nor a stop may reach the representative; a
primal-dual that finds a ring covered by nothing raises.

The cover itself comes from dual ascent plus reverse delete.  Minimal
violated sets of a shrinking ring form a strictly increasing chain, so the
duals land on nested sets, and a cover carries its dual as that chain: the
step at which each node joins it and the dual raised by each prefix of
steps.  The chain grows by construction: each pick's tail joins the next
violated set.  Each cover must pass the certificate that the dual total pays
exactly for the surviving legs.  The star pricing reads a core's no-head
chain to tell which heads reuse that cover and to bound the others from
below.  The ascent reads the legs entering a node off the instance's own
per-node edge lists (``Instance.positive_entering``) and the selection's
per-edge counts, and queues them on a heap.  Every cost here (heap keys,
dual amounts, cover costs) is an integer in units of
1/``Instance.cost_scale``, so all of it, the certificate included, is exact
integer arithmetic.

A cover also keeps its footprint: every node that one of its reads (the
ascent's, the covered-at-once guard's and each reverse-delete trial's)
added to a side.  Those are the only nodes whose residual arcs, free
entering legs and stop status it read, so the greedy reuses a cover at a
later star while no bought edge's head and no added or removed stop is in
it (``greedy.cheapest_star``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .flows import Residual
from .instance import Instance


def ring_stops(inst: Instance, cores) -> dict[int, frozenset[int]]:
    """The stops of each core's ring, by representative: every terminal of
    every other core (cores are terminal-disjoint).

    A stop that joins a read counts as the root joining, so every set
    containing one is covered, and a top-level set free of other cores'
    terminals contains no other core: exactly the core's ring is left.
    """
    terminals = frozenset().union(*(core.members & inst.terminals for core in cores))
    return {core.representative: terminals - core.members for core in cores}


def min_violated_set(
    inst: Instance, flow: Residual, stops, edges, footprint: set[int] | None = None
) -> frozenset[int] | None:
    """Inclusion-minimal ring member not covered by ``edges`` (ids: the head,
    if any, and the legs) on the ring of ``flow`` and ``stops``.

    The representative terminal sits in every ring member, so the closest
    cut at it decides coverage: the edges cover the ring exactly when the
    root or a stop reaches the sink through the residual network and the
    edges' arcs, and otherwise the nodes that reach it are the closest sink
    side.  One read (``Residual.reach``), and the flow is left as it is;
    every node it adds to its side also joins ``footprint``, if given.
    """
    side: set[int] = set()
    flow.reach(side, [inst.arc(e) for e in edges], stops)
    if footprint is not None:
        footprint |= side
    return None if inst.root in side else frozenset(side)


@dataclass(frozen=True)
class RingCover:
    """Legs and their cost, with the dual that prices them: a nested chain
    of raised sets, step i raising {v : first[v] <= i} by
    prefix[i + 1] - prefix[i].  ``footprint`` is every node some read of
    the primal-dual added to a side, the only nodes whose residual arcs,
    entering legs and stop status it read; it is no part of the cover, so
    equality ignores it."""

    legs: tuple[int, ...]  # edge ids, sorted
    cost: int  # in units of 1/cost_scale
    first: dict[int, int]  # node -> the step whose raised set it joins first
    prefix: tuple[int, ...]  # prefix[i]: the dual raised by the first i steps
    footprint: frozenset[int] = field(default=frozenset(), compare=False)


def _certificate(inst: Instance, cover: RingCover) -> bool:
    """Strong-duality self-check: no negative step, each positive step paid
    by exactly one surviving leg, dual total equal to the legs' cost.  A leg
    (tail, head) enters the steps i with first[head] <= i < first[tail]."""
    first, prefix = cover.first, cover.prefix
    steps = len(prefix) - 1
    spans = [
        (first.get(head, steps), first.get(tail, steps))
        for tail, head in map(inst.arc, cover.legs)
    ]
    for i in range(steps):
        amount = prefix[i + 1] - prefix[i]
        if amount < 0 or (amount > 0 and sum(a <= i < b for a, b in spans) != 1):
            return False
    return prefix[-1] == cover.cost


def primal_dual_ring_cover(
    inst: Instance, flow: Residual, stops, taken, head: int | None = None
) -> RingCover | None:
    """Exact minimum-cost legs so that legs + ``head`` (an edge id) cover the
    ring of ``flow`` and ``stops``; the head's edge is never a leg.
    ``taken`` is the selection the greedy carries, edge id -> copies bought.
    The legs are the positive edges with a copy still free, one copy each:
    a second parallel copy never helps cover a ring, since each member
    needs only one entering edge.

    Dual ascent: raise the minimal violated set until some entering candidate
    goes tight (ties to the smallest edge id), add it, repeat.  Then delete
    redundant edges in reverse tightening order, each trial one
    ``min_violated_set`` read.  Returns None when some ring member has no
    entering candidate at all; raises AssertionError when the root or a stop
    reaches the representative with no edge at all, or when the cover fails
    its strong-duality certificate (``_certificate``).

    The violated set is one growing side of the flow's fixed residual
    network (``Residual.reach``): it starts as the nodes that reach the
    representative through the head's arc, and each pick extends it from
    the pick's tail, so the sets form a strictly nested chain and the ring
    is covered once the root or a stop joins.  A leg enters a contiguous run
    of steps, from the one its head joins to the one its tail joins.  Each
    leg is pushed on a heap once, when its head joins and its tail has not,
    keyed by its cost plus the dual raised so far; less the dual raised by
    now, that key is its reduced cost, so the heap's top is the next tight
    leg, and a leg whose tail has joined is popped as stale.  The head's
    edge is never pushed: every read takes its arc, so its tail joins with
    its head.  The flow is only read, never changed.  Every node a read
    adds to its side (the ascent's, the covered-at-once guard's and each
    trial's) is kept in the cover's ``footprint``.
    """
    head_arcs = [] if head is None else [inst.arc(head)]
    first: dict[int, int] = {}
    prefix = [0]
    heap: list[tuple[int, int, int, int]] = []  # (cost + dual so far, edge id, tail, head)
    tight_order: list[int] = []

    violated: set[int] = set()  # the chain's current top: every node that reaches the sink
    joined = flow.reach(violated, head_arcs, stops)
    footprint: set[int] = set()  # every other read's side; the ascent's is violated
    # covered at once: by the head alone, or by nothing at all, which no
    # ring is (a stop on the core's own side would read that way)
    if inst.root in violated and inst.root in flow.reach(footprint, (), stops):
        raise AssertionError("a ring's core side reaches the root or a stop with no edge at all")
    while inst.root not in violated:
        for v in joined:
            first[v] = len(tight_order)
            for eid, tail, cost, mult in inst.positive_entering.get(v, ()):
                if taken.get(eid, 0) < mult and tail not in violated:
                    heappush(heap, (cost + prefix[-1], eid, tail, v))
        while heap and heap[0][2] in violated:
            heappop(heap)
        if not heap:
            return None  # unpriceable: the ring cannot be covered from here
        raised, pick, tail, v = heappop(heap)  # the step's amount: raised - prefix[-1]
        prefix.append(raised)
        tight_order.append(pick)
        joined = flow.reach(violated, [*head_arcs, (tail, v)], stops)

    # The last pick is never redundant: without it the legs are exactly the
    # ones its violated set was raised against.
    fixed = [] if head is None else [head]
    keep = list(tight_order)
    for e in reversed(tight_order[:-1]):
        trial = [f for f in keep if f != e]
        if min_violated_set(inst, flow, stops, fixed + trial, footprint) is None:
            keep = trial

    picked = tuple(sorted(keep))
    footprint |= violated
    cover = RingCover(
        picked, sum(inst.scaled_cost(e) for e in picked), first, tuple(prefix),
        frozenset(footprint),
    )
    if not _certificate(inst, cover):
        raise AssertionError(f"ring cover {picked} fails its strong-duality certificate")
    return cover
