"""The greedy loop: price stars, buy the densest, repeat until no core is left.

A star is a head edge plus, per leaf core, a minimum-cost leg set that
together with the head covers that core's ring.  Each iteration buys the star
minimizing (head cost + leg costs) / leaf count over the cores of the current
selection, read off one root flow per terminal that grows with each bought
star; the state's max deficiency is the iteration's level, and once a level
has no core left the next works one level lower.  Leg sets of different
leaves may overlap; the duplicates are bought once but the density keeps the
summed price, which only makes the chosen star look worse, never infeasible.

Pricing every (head, core) pair on a ring flow built afresh and taking the
best star is the reference the tests hold ``cheapest_star`` to; on a
feasible state it gives the same star with far less work.  Heads and legs
are the ids of the positive edges with a copy free, read off the instance's
own edge orders and the selection's per-edge counts, so nothing is indexed
per star; only the records number copies (``cover_levels``).  It builds one
pricing context: per core, the no-head ring on the representative's carried
flow and its price, the prices ranked once.  The
dual's raised sets are a nested chain, so the ones a head arc (u, v) enters
form one interval of steps, empty unless v is on the chain.  One scan of
the ranked covers (``StarPricing.head_bound``) finds the cores whose
interval is nonempty and bounds the head: every other core keeps exactly
its shared no-head price, and only the touched pairs run a primal-dual of
their own (``head_pairs``).  A head is skipped when its bound loses to the
best star so far, on density or, at equal density, on the star's
tie-break: by weak duality, the part of the shared dual the head does not
enter bounds the exact primal-dual price with the head from below.  A
bound per head node comes first, the same scan for a tail on no chain:
once it loses for a node, every later head into that node is skipped at
once.

Ring covers are carried from star to star (``cover_levels``), keyed by
core members and head (None for the shared cover) with the stops they
were priced with.  A cover is dropped once a bought edge's head is in its
footprint (``RingCover.footprint``), and reused while no stop in it was
added or removed (``_reused``): then every read it made reads the same, so
the primal-dual would return it again (proof in ``cheapest_star``).  A
pair with no valid entry runs a primal-dual, and its cover is stored.

The greedy is its own feasibility check: on a feasible instance every ring
it prices is coverable, and on an infeasible one it cannot finish, so its
first uncoverable ring raises ``InfeasibleError`` (``_cover``).

Pricing runs in the instance's integer cost units (``Instance.scaled_cost``,
the unit of ``RingCover.cost``) and compares densities by cross-multiplying.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import NamedTuple

from .deficiency import CoreInfo, cores_of
from .flows import add_arcs, require_feasible, root_flows
from .instance import Instance, IterationRecord
from .rings import RingCover, primal_dual_ring_cover, ring_stops


def candidate_heads(inst: Instance, taken) -> tuple[tuple[int, int, int, int, int], ...]:
    """The star's heads: the (scaled cost, edge id, tail, head, multiplicity)
    row (``Instance.positive_by_cost``) of every positive edge with a copy
    free under the selection ``taken`` (edge id -> copies bought), in
    (scaled cost, id) order, the order ``cheapest_star`` visits them in."""
    return tuple(row for row in inst.positive_by_cost if taken.get(row[1], 0) < row[4])


def _best_prefix(head_cost: int, costs) -> tuple[int, int]:
    """Least (head + first j costs) / j over the ascending integer ``costs``.

    Ties go to the larger j; returns (head + first j costs, j).  Taking cost c
    after j costs lowers the average exactly when c * j <= head + sum of those
    j, and once c * j exceeds it, the average rises for good: it stays below
    c, and every later cost is at least c.  So the scan stops there; at
    j = 0 the test reads 0 > head, false for every nonnegative head cost.
    """
    total, j = head_cost, 0
    for cost in costs:
        if cost * j > total:
            break
        total += cost
        j += 1
    return total, j


class Star(NamedTuple):
    """One head's best star, in the instance's integer cost units."""

    total: int  # head cost + the chosen leaves' leg prices (overlaps counted per leaf)
    leaves: int  # how many leaves; the density is total / leaves
    head: int  # the head edge id: the last tie-breaker
    chosen: tuple[tuple[CoreInfo, RingCover], ...]

    def edges(self) -> set[int]:
        """The ids of the head and every leaf's legs, one copy of each bought."""
        edges = {self.head}
        for _, cover in self.chosen:
            edges.update(cover.legs)
        return edges

    def beats(self, other: Star) -> bool:
        """Lower density first (compared by cross-multiplying), then more
        leaves, then the smaller head.  A head yields one star per pricing,
        so two stars compared never share a head."""
        return (self.total * other.leaves, -self.leaves, self.head) < (
            other.total * self.leaves, -other.leaves, other.head
        )


def _loses(total: int, j: int, head: int, best: Star) -> bool:
    """Whether head ``head``, whose ``_best_prefix`` over floors is (total,
    j), cannot beat ``best``: its density bound is higher, or it ties and
    the bound's j already loses ``Star.beats``' tie-break (fewer leaves, or
    as many and a larger head id).  Proof in ``cheapest_star``."""
    return (total * best.leaves, -j, head) > (best.total * j, -best.leaves, best.head)


def _rank(pc: tuple[CoreInfo, RingCover]) -> tuple[int, int]:
    """A priced (core, cover) pair's place in a head's scan."""
    return pc[1].cost, pc[0].representative


def _scan_head(head: int, head_cost: int, ranked) -> Star:
    """Best leaf prefix for one head of scaled cost ``head_cost``; ``ranked``
    holds its priced (core, cover) pairs, nonempty and in ``_rank`` order."""
    total, j = _best_prefix(head_cost, (cover.cost for _, cover in ranked))
    return Star(total, j, head, tuple(ranked[:j]))


def _cover(inst: Instance, flow, stops, taken, head: int | None = None) -> RingCover:
    """The primal-dual price of the ring of ``flow`` and ``stops``
    (``primal_dual_ring_cover``); an uncoverable ring raises the instance's
    ``InfeasibleError``.

    Why a feasible instance has one: take the carried root flows and cores
    at level l >= 1, and a violated set S of a ring's ascent, with or
    without a head.  Its capacity is k - l, since the representative's flow
    is at k - l (``cores_of`` checks it), so S holds no stop (one would
    count as the root) and no head and no picked leg enters S.  S has at least k entering units in
    all, so at least l >= 1 free units enter it, on edges other than the
    head's and the picks', and each such edge is on the ascent's heap.
    Conversely, an uncoverable ring exhibits a set S that holds the
    representative and has fewer than k entering units in all, so
    ``require_feasible`` raises.
    """
    cover = primal_dual_ring_cover(inst, flow, stops, taken, head)
    if cover is None:
        require_feasible(inst)
        raise AssertionError("a ring is uncoverable on a feasible instance")
    return cover


class StarPricing(NamedTuple):
    """The no-head ring price of every core of one star selection, as
    (core, cover) pairs ranked once for every head.  A core's ring is its
    representative's carried flow, read with the core's ``stops``."""

    stops: dict[int, frozenset[int]]  # representative -> its ring's stops (``ring_stops``)
    ranked: tuple[tuple[CoreInfo, RingCover], ...]  # the pairs, in ``_rank`` order

    def head_bound(self, arc) -> tuple[list[tuple[tuple[CoreInfo, RingCover], int]], list[int]]:
        """(touched, floors) for a head on ``arc`` = (u, v).  ``touched``
        holds ((core, cover), floor) for every core whose shared cover's
        chain holds v with first[v] < first[u], so that the arc enters the
        steps in between (floor: the dual less those steps); every other
        core's price with the head is its shared cover.  ``floors`` are every
        core's shared cost with each touched core's floor in its place,
        ascending.  A tail u of None is on no chain: its floors are the node
        bound of every head into v."""
        tail, head = arc
        touched, floors = [], []
        for pc in self.ranked:
            cover = pc[1]
            floor = cover.cost
            if head in cover.first:
                a = cover.first[head]
                prefix = cover.prefix
                b = cover.first.get(tail, len(prefix) - 1)
                if a < b:
                    floor = prefix[-1] - prefix[b] + prefix[a]
                    touched.append((pc, floor))
            floors.append(floor)
        floors.sort()
        return touched, floors


def _reused(covers, key, stops) -> RingCover | None:
    """The cover ``covers`` holds for ``key`` = (core members, head edge id
    or None), if no stop it read differs between the stops it was priced
    with and ``stops``; None when there is none to reuse.  Proof in
    ``cheapest_star``."""
    entry = covers.get(key)
    if entry is not None and entry[1].footprint.isdisjoint(entry[0] ^ stops):
        return entry[1]
    return None


def pricing_context(inst: Instance, flows, taken, cores, covers) -> StarPricing:
    """Per core: the no-head ring and its shared price, whose dual chain
    ``StarPricing.head_bound`` reads; the shared covers ranked once for
    every head.

    ``flows`` are the selection's root flows and ``taken`` the selection
    itself, edge id -> copies bought, which the primal-dual reads its legs
    against.  Each core's ring is its representative's flow as it stands,
    read with the other cores' terminals as stops (``ring_stops``).  A
    shared cover ``covers`` holds (``_reused``) is taken as it is; one
    priced afresh is stored there with its stops.
    """
    stops = ring_stops(inst, cores)
    pairs = []
    for core in cores:
        rep = core.representative
        key = (core.members, None)
        cover = _reused(covers, key, stops[rep])
        if cover is None:
            cover = _cover(inst, flows[rep], stops[rep], taken)
            covers[key] = stops[rep], cover
        pairs.append((core, cover))
    return StarPricing(stops, tuple(sorted(pairs, key=_rank)))


def head_pairs(
    inst: Instance, flows, taken, pricing: StarPricing, head: int, touched, covers
) -> list:
    """Head edge ``head``'s (core, cover) pairs in ``_rank`` order: each of
    ``touched`` (``head_bound``'s) priced with the head on its core's carried
    flow (``_cover``), or reused from ``covers`` (``_reused``) and stored
    there when priced afresh; every other pair keeps its shared cover."""
    ranked = list(pricing.ranked)
    for pc, _ in touched:
        ranked.remove(pc)
        core = pc[0]
        rep, key = core.representative, (core.members, head)
        stops = pricing.stops[rep]
        cover = _reused(covers, key, stops)
        if cover is None:
            cover = _cover(inst, flows[rep], stops, taken, head)
            covers[key] = stops, cover
        insort(ranked, (core, cover), key=_rank)
    return ranked


def cheapest_star(inst: Instance, taken, cores, flows, covers) -> Star:
    """Same selection as price-everything + best_star at the selection
    ``taken`` (edge id -> copies bought), pricing lazily off its ``flows``
    and reusing the covers of earlier stars that ``covers`` still holds.

    Both the reuse and the bound read the shared no-head cover's dual.  It is
    feasible for the ring-cover LP, and its raised sets form a strictly
    nested chain, so a head (u, v) enters one interval of its steps: from
    the one where v joins the chain to the one where u does
    (``RingCover.first``), raising a difference of ``RingCover.prefix``.
    Only cores whose chain holds v can have a nonempty interval; a head
    that survives the node bound scans the ranked shared covers for them
    (``StarPricing.head_bound``).

    Reuse: when that interval is empty, the whole shared dual stays feasible
    for the with-head LP (its ring is the no-head ring minus the members the
    head enters, its legs a subset), so by weak duality no cover with the
    head costs less than the shared cover, which still covers the ring.  The
    pair reuses it; every touched pair runs a primal-dual of its own.  With
    the head the dual ascent raises the same sets (each is still the minimal
    violated one); that the reverse delete then keeps the same legs is not
    proven but checked, cover for cover, by ``scripts/ring_cross_check.py``.

    Bounds: heads are visited in ascending (cost, edge id),
    ``candidate_heads``' order.  Any star with head h has density at least
    cost(h) / |cores|, so once that exceeds the best density seen the
    remaining heads cannot win.  Before pricing a head, its best density is
    bounded below by the best prefix over the shared costs with the touched
    cores' floors in their place (``head_bound``); a head whose bound loses
    to the best star is skipped (``_loses``).  Dropping the entered
    interval leaves a feasible dual of the with-head LP, so by weak duality
    the rest bounds the exact primal-dual price from below.  The scan
    merges the touched prices into the same ranked list.

    A bound (total, j) loses when total / j is above the best density d, or
    equals d with j < best.leaves, or with j == best.leaves and a head id
    above best.head.  The tie clauses are exact as well.  The floors are
    elementwise no higher than the priced costs once both are sorted, so if
    the scanned star reaches d with j' leaves, the floors' first j' reach d
    too.  Then d is the floors' least prefix density, and ``_best_prefix``
    returns the largest j attaining it, so j' <= j.  ``Star.beats`` orders
    by density, then by more leaves, then by head id; so the scanned star
    has fewer leaves than the best, or as many and a larger head id, and
    loses.  A star that later replaces the best beats it, so a skipped head
    loses to that one too.

    Before that, a node bound per head node v: the head bound of a tail on
    no chain, ``head_bound((None, v))``, computed once per star and node.
    A real tail u only narrows the interval to [first[v], first[u]), which
    raises each floor, so the node floors are elementwise no higher than
    any head into v's, and ``_best_prefix`` is monotone in the costs.  Once
    that bound loses for v (``_loses``, with the head at hand), v is marked
    dead and its later heads are skipped at once.
    A later head into v either costs more, so its bound's density is
    strictly higher and loses outright, or costs the same with a larger id,
    so the node floors give it the same (total, j) and it loses the same
    tie-break.

    Covers carried across stars: ``covers`` maps (core members, head edge
    id, or None for the shared cover) to the stops a cover was priced with
    and the cover, whose ``footprint`` holds every node its reads added to
    a side.  ``cover_levels`` drops an entry once a bought edge's head is
    in its footprint, and a lookup (``_reused``) takes it only when no stop
    in its footprint was added or removed since; every other pair is priced
    afresh and stored.  A cover that passes both tests is the one the
    primal-dual would compute now, since each of its reads reads the same.
    A read expands only nodes it adds, and at a node x it reads x's
    residual arcs, whether x is a stop and, in the ascent, the legs into x
    with a copy free.  A new arc (u, v) changes a read only if the read
    expands v; ``taken`` changes only for bought edges, whose heads are
    bought heads; and a read that never expands a stop reads the same with
    or without it.  Capacities change only when a flow augments, and then
    the first augmenting path uses a new arc: after the last one, at v, it
    runs on old residual arcs to the sink, so v was on the old closest sink
    side.  The ascent's first read, or when it is covered at once the
    guard read with no edge, visits all of that side, so v is in the
    footprint and the head test has already dropped the entry; no flow
    value needs checking.  The core's members fix its representative and
    so its flow, and the head is part of the key.

    An uncoverable ring raises ``InfeasibleError`` (``_cover``).  Every
    ring is read off its representative's carried flow as it stands, so
    pricing a star grows, marks and rolls back no flow: ``flows`` are left
    exactly as they were, whether this returns or raises.
    """
    pricing = pricing_context(inst, flows, taken, cores, covers)
    m = len(cores)
    best = None
    node_floors = {}  # head node -> its node bound's floors, once per star
    dead = set()  # head nodes whose every later head loses
    for head_cost, head, tail, node, _ in candidate_heads(inst, taken):
        # head_cost / m > best density
        if best is not None and head_cost * best.leaves > best.total * m:
            break
        if node in dead:
            continue
        if best is not None:
            if node not in node_floors:
                node_floors[node] = pricing.head_bound((None, node))[1]
            if _loses(*_best_prefix(head_cost, node_floors[node]), head, best):
                dead.add(node)  # so does every later head into node
                continue
        touched, floors = pricing.head_bound((tail, node))
        if best is not None and _loses(*_best_prefix(head_cost, floors), head, best):
            continue
        ranked = head_pairs(inst, flows, taken, pricing, head, touched, covers)
        scanned = _scan_head(head, head_cost, ranked)
        if best is None or scanned.beats(best):
            best = scanned
    return best


def cover_levels(inst: Instance) -> list[IterationRecord]:
    """Buy stars from the empty selection until no core is left; one record
    per star, in purchase order.

    Every terminal's root flow, stopped at k, grows with the selection
    ``taken`` (edge id -> copies bought); a star's arcs are added once to
    the network the flows share (``add_arcs``).  An iteration's level is the
    state's, read with its cores; it must retire at least half its leaf
    count in cores at that level (checked as 2 * drop >= leaves, which also
    shrinks their count, as a star has a leaf), and the max level must
    never rise.  A star buys one copy of each of its edges, recorded as
    (edge id, copies bought before it).  The ring covers priced so far are
    carried from star to star; after each purchase every cover whose
    footprint holds a bought edge's head is dropped (``cheapest_star``).
    """
    flows = dict(root_flows(inst, {}, inst.k))
    level, cores = cores_of(inst, flows)
    taken: Counter[int] = Counter()
    covers: dict = {}  # (core members, head or None) -> (stops, cover)
    records: list[IterationRecord] = []
    while cores:
        star = cheapest_star(inst, taken, cores, flows, covers)
        bought = sorted(star.edges())
        new_units = tuple((eid, taken[eid]) for eid in bought)
        taken.update(bought)
        arcs = [(*inst.arc(eid), 1) for eid in bought]
        add_arcs(flows.values(), arcs)
        for flow in flows.values():
            flow.grow(inst.k)
        heads = {v for _, v, _ in arcs}
        covers = {
            key: entry for key, entry in covers.items() if entry[1].footprint.isdisjoint(heads)
        }
        after_level, after = cores_of(inst, flows)
        if after_level > level:
            raise AssertionError(f"the max level rose from {level} to {after_level}")
        # once the level drops, no core is left at this iteration's level
        left = len(after) if after_level == level else 0
        drop = len(cores) - left
        if 2 * drop < star.leaves:
            raise AssertionError(f"core count fell by {drop}, below half of {star.leaves} leaves")
        records.append(IterationRecord(
            phase_level=level,
            cores_before=len(cores),
            cores_after=left,
            star_center=star.head,
            leaf_count=star.leaves,
            added_cost=inst.selection_cost(dict.fromkeys(bought, 1)),
            added_units=new_units,
        ))
        level, cores = after_level, after
    return records
