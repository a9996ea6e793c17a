"""Reference implementations the fast paths are compared against.

Each one does its job the plain way: every copy of every positive edge
listed as a unit, the free heads and legs listed edge by edge, the cores and
the max level read off root flows built afresh, a ring flow built afresh
for one core (its working arcs plus root arcs saturating
every other core's terminals, in place of the solver's stops), its violated
set read by growing it, every (head, core) pair priced on one, a head's
bound floors summed step by step and inserted one by one, the node bound's
floors read at the node's first step, an exact optimum by enumerating every
unit subset, the prune pass dropping units
from a list, a maximum flow decomposed into paths by search, and the paths
re-checked edge by edge against the instance's capacities, and an instance
document parsed with a ``Fraction`` built for every edge's cost, its scale,
free and priced edges and scaled costs read by ``Fraction`` arithmetic
edge by edge, and the density rule replayed in a pass of its own, each
record's units counted and costed afresh.  They take
selections as unit lists and convert them (``selection_from_units``) where
they call the package's flow and ring primitives, unlike the enumeration
oracles in ``oracles``, and only tests and ``scripts/ring_cross_check.py``
call them.  ``check_state`` is the one place a state's ring and star
prices are compared with these references and the exact ring-cover oracle
(``exact_ring_cover``); the cross-check script and a tier-1 test run it.
``check_reused_covers`` compares every ring cover a solve carries over to
a later star, and would reuse there, with one priced afresh; the script
and a tier-1 test run it too.
The small helpers several test modules share live here too:
``max_flow_value``, ``instance_view``, ``rebuild_phases``, ``grow_by`` (add
arcs to a flow's network and grow it), ``flow_state`` (a flow's snapshot),
``load_script`` and ``run_optimized``.
"""

import importlib.util
import math
import os
import subprocess
import sys
from bisect import insort
from collections import Counter
from fractions import Fraction
from pathlib import Path

from rkec import greedy
from rkec.deficiency import CoreInfo, cores_of
from rkec.exact import cheapest_completion
from rkec.flows import (
    Network,
    Residual,
    add_arcs,
    require_feasible,
    root_flows,
    short_terminal,
    solution_of,
    working_arcs,
)
from rkec.greedy import Star, StarPricing, _rank, _scan_head, head_pairs, pricing_context
from rkec.instance import (
    Edge,
    InfeasibleError,
    Instance,
    ParseError,
    SizeRefusalError,
    Solution,
    Unit,
    load_object,
    selection_from_units,
    solution_from_doc,
)
from rkec.rings import RingCover, min_violated_set, primal_dual_ring_cover, ring_stops
from rkec.solver import SolveReport, phases_doc

from oracles import RingView, brute_force_ring_cover, enumerate_arc_family


def positive_units(inst: Instance) -> tuple[Unit, ...]:
    """Every copy of every positive edge as an (edge id, copy index) unit, in
    id order: what the tests draw unit lists from and enumerate over."""
    edges = sorted(inst.positive_edges, key=lambda e: e.id)
    return tuple((e.id, c) for e in edges for c in range(e.mult))


def free_leg_candidates(inst: Instance, units) -> tuple[int, ...]:
    """The id of each positive edge with a copy free under ``units``, in id
    order: the heads and legs a star draws from."""
    taken = Counter(eid for eid, _ in units)
    return tuple(
        e.id for e in sorted(inst.positive_edges, key=lambda e: e.id) if taken[e.id] < e.mult
    )


def rooted_cores(inst: Instance, units) -> list[CoreInfo]:
    """The cores of the working graph of ``units``, off fresh root flows."""
    return cores_of(inst, dict(root_flows(inst, selection_from_units(units))))[1]


def rooted_max_level(inst: Instance, units) -> int:
    """Maximum residual deficiency over all terminal-containing sets."""
    flows = root_flows(inst, selection_from_units(units))
    return max(max(inst.k - flow.value, 0) for _, flow in flows)


def saturating_arcs(
    inst: Instance, all_cores, target: CoreInfo, level: int
) -> list[tuple[int, int, int]]:
    """Root arcs at the cores' ``level`` onto every terminal of every other
    core, as (tail, head, cap) triples: what the solver reads as the ring's
    stops (``rings.ring_stops``), as arcs of the graph.

    A saturated terminal drags every set containing it below the top level,
    and a top-level set free of other cores' terminals contains no other core,
    so exactly the target's ring survives at the top.
    """
    arcs = []
    for core in all_cores:
        if core.members == target.members:
            continue
        for t in sorted(core.members & inst.terminals):
            arcs.append((inst.root, t, level))
    return arcs


def carried_ring(
    inst: Instance, units, all_cores, target: CoreInfo
) -> tuple[Residual, frozenset[int]]:
    """The target's ring as the solver reads it, (flow, stops): the
    representative's root flow of ``units`` stopped at k, as the greedy
    carries it, and the other cores' terminals."""
    rep = target.representative
    flow = dict(root_flows(inst, selection_from_units(units), inst.k))[rep]
    return flow, ring_stops(inst, all_cores)[rep]


def build_ring_context(inst: Instance, units, all_cores, target: CoreInfo) -> Residual:
    """The target's ring flow of ``units``, built from nothing: a fresh
    maximum flow over the working and saturating arcs, so it is read with no
    stops, and not any flow the solver carries.  Its value is k - level."""
    arcs = working_arcs(inst, selection_from_units(units))
    level = rooted_max_level(inst, units)
    arcs += saturating_arcs(inst, all_cores, target, level)
    return maximum_flow(arcs, inst.root, target.representative)


def fresh_cover(
    inst: Instance, units, all_cores, target: CoreInfo, head: int | None
) -> RingCover | None:
    """The primal-dual price of (target, head edge id) at ``units``, on a
    ring flow built afresh; a head of None prices the bare ring."""
    flow = build_ring_context(inst, units, all_cores, target)
    taken = selection_from_units(units)
    return primal_dual_ring_cover(inst, flow, frozenset(), taken, head)


def grown_min_violated_set(inst: Instance, flow: Residual, edges) -> frozenset[int] | None:
    """``rings.min_violated_set`` the plain way, on a ring flow built afresh
    (``build_ring_context``, so with no stops): grow the ring flow by the
    arcs of ``edges`` (ids) after a mark, read its closest sink side if it
    gains no path, and roll it back."""
    mark = flow.mark()
    covered = flow.value + 1
    try:
        if grow_by(flow, [(*inst.arc(e), 1) for e in edges], covered) >= covered:
            return None
        return flow.closest_sink_side()
    finally:
        flow.rollback(mark)


def overpaid_candidates(inst: Instance, units, cover: RingCover, head: int | None) -> list[int]:
    """The candidate legs of ``units`` (``free_leg_candidates``, the head's
    edge excluded) that ``cover``'s dual overpays: the steps a leg
    (tail, head) enters, i with first[head] <= i < first[tail], raise more
    than its scaled cost.  Empty for a dual-feasible cover."""
    first, prefix = cover.first, cover.prefix
    steps = len(prefix) - 1
    out = []
    for e in free_leg_candidates(inst, units):
        tail, v = inst.arc(e)
        if e == head or v not in first:
            continue
        b = first.get(tail, steps)
        if first[v] < b and prefix[b] - prefix[first[v]] > inst.scaled_cost(e):
            out.append(e)
    return out


def enumerated_ring(inst: Instance, units, all_cores, target: CoreInfo) -> tuple[int, RingView]:
    """(level, ring) of the target's ring graph without a head, enumerated:
    the level of the family over the working arcs of ``units`` and the arcs
    saturating the other cores, and the target's ring view in it."""
    saturating = saturating_arcs(inst, all_cores, target, rooted_max_level(inst, units))
    family = enumerate_arc_family(
        [v for v in range(inst.node_count) if v != inst.root],
        inst.terminals,
        inst.k,
        working_arcs(inst, selection_from_units(units)) + saturating,
    )
    return family.level, family.ring_view(target.members)


def exact_ring_cover(inst: Instance, units, ring: RingView, head: int) -> tuple | None:
    """``brute_force_ring_cover`` on an ``enumerated_ring`` of ``units``
    with head edge ``head``, over every free leg but the head's edge:
    (rational cost, sorted leg ids), or None if unpriceable."""
    legs = [
        (e, *inst.arc(e), inst.edge_by_id[e].cost)
        for e in free_leg_candidates(inst, units) if e != head
    ]
    return brute_force_ring_cover(ring.members, inst.arc(head), legs)


def check_state(inst: Instance, units, per_state: int | None = None) -> tuple[int, int, list]:
    """Compare the star pricing of the state ``units`` with its references;
    returns (contexts, unpriceable, mismatches): the (core, head) pairs
    priced, those the exact oracle finds unpriceable, and a line per
    mismatch.

    The solver's path is ``pricing_context`` over the carried flows, then
    ``head_pairs`` once for each of the first ``per_state`` free heads (all
    by default).  Where the context raises ``InfeasibleError``, the raise
    must be ``require_feasible``'s, and the carried rings are read by the
    primal-dual directly.  Any other exception is a mismatch.  Per core,
    the carried ring must match one built afresh (``build_ring_context``)
    in flow value, no-head cover and violated-set reads, and its enumerated
    ring must be a ring at the state's level.  Per pair, the solver's cover must
    equal the fresh one whole (legs, cost and dual chain) and cover the
    carried ring, the exact oracle (``exact_ring_cover``) must agree on its
    price, or that there is none, and the head's floor must not exceed it.
    Every cover must be dual feasible (``overpaid_candidates``), its legs
    sorted and distinct, each with a copy free, and never the head's edge.
    The carried flows must be left exactly as they were (``flow_state``).
    """
    scale = inst.cost_scale
    taken = selection_from_units(units)
    flows = dict(root_flows(inst, taken, inst.k))  # as the greedy carries them
    level, cores = cores_of(inst, flows)
    if not cores:
        return 0, 0, []
    before = {t: flow_state(flow) for t, flow in flows.items()}
    stops = ring_stops(inst, cores)
    free = free_leg_candidates(inst, units)
    mismatches = []
    try:
        pricing = pricing_context(inst, flows, taken, cores, {})
    except InfeasibleError as exc:  # some core's ring is uncoverable
        pricing = None
        try:
            require_feasible(inst)
        except InfeasibleError as expected:
            exc = None if expected.args == exc.args else exc
        if exc is not None:
            mismatches.append(f"pricing raised {exc!r}")
    except Exception as exc:  # a shared cover failed its certificate, say
        return 0, 0, [f"pricing raised {exc!r}"]

    def carried(core, head=None):  # the primal-dual on the carried ring
        rep = core.representative
        return primal_dual_ring_cover(inst, flows[rep], stops[rep], taken, head)

    def carried_read(core, edges):
        rep = core.representative
        return min_violated_set(inst, flows[rep], stops[rep], edges, set())

    fresh_flows, rings = {}, {}
    for core in cores:
        where = f"core={sorted(core.members)} no head"
        try:
            fresh_flows[core] = fresh = build_ring_context(inst, units, cores, core)
            family_level, rings[core] = enumerated_ring(inst, units, cores, core)
            bare = primal_dual_ring_cover(inst, fresh, frozenset(), taken)
            bad = (
                family_level != level
                or not rings[core].is_ring
                or flows[core.representative].value != fresh.value
                or (dict(pricing.ranked)[core] if pricing else carried(core)) != bare
                or (bare is not None and overpaid_candidates(inst, units, bare, None) != [])
                or any(
                    carried_read(core, edges)
                    != min_violated_set(inst, fresh, frozenset(), edges, set())
                    for edges in ((), free[::2], free[1::2])
                )
            )
        except Exception as exc:  # a cover failed its certificate, say
            mismatches.append(f"{where}: {exc!r}")
        else:
            if bad:
                mismatches.append(where)

    contexts = unpriceable = 0
    for head in free[:per_state]:
        contexts += len(cores)
        try:
            if pricing is None:  # no solver path: the carried rings, read with the head
                floors, solver = {}, {core: carried(core, head) for core in cores}
            else:
                touched = pricing.head_bound(inst.arc(head))[0]
                floors = {core: floor for (core, _), floor in touched}
                solver = dict(head_pairs(inst, flows, taken, pricing, head, touched, {}))
        except Exception as exc:  # the solver path raised
            mismatches.append(f"head={head}: {exc!r}")
            continue
        for core in cores:
            where = f"core={sorted(core.members)} head={head}"
            try:
                exact = exact_ring_cover(inst, units, rings[core], head)
                unpriceable += exact is None
                fresh_flow = fresh_flows[core]
                fresh = primal_dual_ring_cover(inst, fresh_flow, frozenset(), taken, head)
                bad = (
                    solver[core] != fresh
                    or carried_read(core, [head])
                    != min_violated_set(inst, fresh_flow, frozenset(), [head], set())
                )
                if exact is None:
                    bad = bad or fresh is not None
                else:
                    bad = (
                        bad
                        or fresh is None
                        or Fraction(fresh.cost, scale) != exact[0]
                        or overpaid_candidates(inst, units, fresh, head) != []
                        or carried_read(core, [head, *fresh.legs]) is not None
                        or head in fresh.legs
                        or fresh.legs != tuple(sorted(set(fresh.legs)))
                        or any(taken.get(e, 0) >= inst.edge_by_id[e].mult for e in fresh.legs)
                        # an untouched pair has no floor of its own
                        or Fraction(floors.get(core, 0), scale) > exact[0]
                    )
            except Exception as exc:  # a cover failed its certificate, say
                mismatches.append(f"{where}: {exc!r}")
            else:
                if bad:
                    mismatches.append(where)
    if {t: flow_state(flow) for t, flow in flows.items()} != before:
        mismatches.append("a carried flow changed")
    return contexts, unpriceable, mismatches


def check_reused_covers(inst: Instance) -> tuple[int, list[str]]:
    """Walk the stars of one ``cover_levels`` run with the ring covers it
    carries from star to star; returns (reused covers checked, a line per
    mismatch).

    Before each star is priced, every carried cover of a current core that
    passes the solver's own reuse test (``greedy._reused``) must equal a
    fresh ``greedy._cover`` on the state's carried flows, stops and
    selection, field for field and footprint too.  A run that raises
    ``InfeasibleError`` is checked up to the star that raised.
    """
    real = greedy.cheapest_star
    checked, mismatches, stars = 0, [], 0

    def checking(inst, taken, cores, flows, covers):
        nonlocal checked, stars
        stars += 1
        stops = ring_stops(inst, cores)
        reps = {core.members: core.representative for core in cores}
        for (members, head), (_, cached) in covers.items():
            rep = reps.get(members)
            if rep is None or greedy._reused(covers, (members, head), stops[rep]) is None:
                continue
            checked += 1
            where = f"star={stars} core={sorted(members)} head={head}"
            try:
                fresh = greedy._cover(inst, flows[rep], stops[rep], taken, head)
            except Exception as exc:  # a reused cover whose ring no longer prices
                mismatches.append(f"{where}: {exc!r}")
                continue
            if fresh != cached or fresh.footprint != cached.footprint:
                mismatches.append(where)
        return real(inst, taken, cores, flows, covers)

    greedy.cheapest_star = checking
    try:
        greedy.cover_levels(inst)
    except InfeasibleError:
        pass
    finally:
        greedy.cheapest_star = real
    return checked, mismatches


def price_star_edges(inst: Instance, units, cores) -> dict[tuple[int, CoreInfo], RingCover]:
    """Exact leg price for every (candidate head edge id, core) pair.

    Unpriceable pairs are simply absent.  A head that covers nothing of a
    core's ring still gets a price: the legs then have to do all the work.
    """
    if not cores:
        raise ValueError("pricing needs at least one core")
    prices: dict[tuple[int, CoreInfo], RingCover] = {}
    for head in free_leg_candidates(inst, units):
        for core in cores:
            cover = fresh_cover(inst, units, cores, core, head)
            if cover is not None:
                prices[(head, core)] = cover
    return prices


def best_star(inst: Instance, prices) -> Star:
    """Global minimum-density star from a full price map.

    Ties prefer more leaves, then the smaller head edge id.  Raises
    ValueError when ``prices`` holds no pair.
    """
    if not prices:
        raise ValueError("no priced (head, core) pair to choose a star from")
    by_head: dict[int, list[tuple[CoreInfo, RingCover]]] = {}
    for (head, core), cover in prices.items():
        by_head.setdefault(head, []).append((core, cover))
    best = None
    for head in sorted(by_head):
        scanned = _scan_head(head, inst.scaled_cost(head), sorted(by_head[head], key=_rank))
        if best is None or scanned.beats(best):
            best = scanned
    return best


def entered_steps(arc, cover: RingCover) -> list[int]:
    """The steps of ``cover``'s dual whose raised set, step i's being
    {v : first[v] <= i}, the arc (u, v) enters: v in it and u not."""
    tail, head = arc
    out = []
    for i in range(len(cover.prefix) - 1):
        raised = {v for v, j in cover.first.items() if j <= i}
        if head in raised and tail not in raised:
            out.append(i)
    return out


def head_floors(pricing: StarPricing, arc) -> tuple[list, list[int]]:
    """``StarPricing.head_bound`` step by step: a core is touched when the
    head arc enters some raised set of its shared dual (``entered_steps``),
    and its floor is the dual less the entered steps; the head's costs are
    the shared costs in rank order, each touched one removed and its floor
    inserted in order."""
    touched = []
    costs = [cover.cost for _, cover in pricing.ranked]
    for pc in pricing.ranked:
        cover = pc[1]
        entered = entered_steps(arc, cover)
        if entered:
            floor = cover.cost - sum(cover.prefix[i + 1] - cover.prefix[i] for i in entered)
            touched.append((pc, floor))
            costs.remove(cover.cost)
            insort(costs, floor)
    return touched, costs


def node_floors(pricing: StarPricing, node: int) -> list[int]:
    """The node bound's floors: the shared costs, ascending, with every core
    whose chain holds ``node`` at prefix[first[node]] instead."""
    return sorted(
        cover.prefix[cover.first[node]] if node in cover.first else cover.cost
        for _, cover in pricing.ranked
    )


def enumerated_opt(inst: Instance, preselected=()) -> Solution | None:
    """Exact minimum-cost feasible completion of ``preselected`` by plain
    enumeration over the other positive units; None when even all of them
    fall short.

    Every subset is decided afresh by ``short_terminal``, so no flow is
    carried from one subset to the next.  Copies of an edge are taken lowest
    first (skipping a copy skips the edge's later copies), and a feasible set
    ends its branch, since every superset costs more.  Ties go to the
    lexicographically smallest unit set: a fixed optimum, where the search
    in ``exact`` returns *an* optimum.
    """
    preselected = frozenset(preselected)
    order = sorted(u for u in positive_units(inst) if u not in preselected)
    best = None

    def walk(idx: int, chosen: tuple):
        nonlocal best
        if short_terminal(inst, selection_from_units(preselected | set(chosen)), inst.k) is None:
            key = (inst.selection_cost(selection_from_units(chosen)), tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
            return
        if idx == len(order):
            return
        unit = order[idx]
        walk(idx + 1, chosen + (unit,))
        skip = idx
        while skip < len(order) and order[skip][0] == unit[0]:
            skip += 1
        walk(skip, chosen)

    walk(0, ())
    return None if best is None else solution_of(inst, selection_from_units(best[1]))


def pruned_by_units(inst: Instance, units) -> Solution:
    """``solver.prune_solution`` the plain way: drop each unit of ``units``,
    newest first, whose removal from the unit list keeps every terminal at
    k, each trial decided afresh on the list without it."""
    kept = list(units)
    for u in reversed(list(units)):
        trial = [v for v in kept if v != u]
        if short_terminal(inst, selection_from_units(trial), inst.k) is None:
            kept = trial
    return solution_of(inst, selection_from_units(kept))


def grow_by(flow: Residual, arcs, limit: int | None = None) -> int:
    """Add ``arcs`` to the network ``flow`` reads through, then grow it to
    ``limit``; returns its value."""
    add_arcs([flow], arcs)
    return flow.grow(limit)


def maximum_flow(arcs, s: int, t: int) -> Residual:
    """A maximum s->t flow over ``arcs``, on a network of its own, grown
    without a limit."""
    flow = Residual(Network(), s, t)
    grow_by(flow, arcs)
    return flow


def flow_state(flow: Residual) -> tuple:
    """Everything a flow reads and holds, copied: its network's arcs,
    adjacency rows and initial capacities, and its own capacities and
    value, so a read or a rollback can be checked to leave it as it was."""
    network = flow.network
    return (
        network.to[:], {v: row[:] for v, row in network.adj.items()}, network.initial[:],
        flow.cap[:], flow.value,
    )


def max_flow_value(arcs, s: int, t: int) -> int:
    """The value of ``maximum_flow``."""
    return maximum_flow(arcs, s, t).value


def instance_view(inst: Instance, units) -> list[tuple[int, int, int]]:
    """The working graph of ``units`` as (tail, head, cap) arcs: the free
    edges and the bought copies."""
    return working_arcs(inst, selection_from_units(units))


def max_flow_paths(arcs, s: int, t: int) -> list[list[int]]:
    """Decompose one maximum flow into edge-disjoint s->t node paths.

    Returns exactly as many paths as the maximum flow value; parallel capacity
    counts as distinct edges, and flow on cycles (if any) is ignored.
    """
    flow = maximum_flow(arcs, s, t)
    to, adj = flow.network.to, flow.network.adj
    # The flow pushed over forward arc i sits as capacity on its reverse i + 1.
    remaining = {i: flow.cap[i + 1] for i in range(0, len(to), 2) if flow.cap[i + 1] > 0}
    paths = []
    for _ in range(flow.value):
        # BFS in the flow graph to find one s->t path
        via = {s: -1}
        queue = [s]
        for u in queue:
            if t in via:
                break
            for i in adj[u]:
                if remaining.get(i, 0) > 0 and to[i] not in via:
                    via[to[i]] = i
                    queue.append(to[i])
        if t not in via:
            raise AssertionError("flow decomposition lost a unit of flow")
        nodes = [t]
        v = t
        while v != s:
            i = via[v]
            remaining[i] -= 1
            v = to[i ^ 1]
            nodes.append(v)
        paths.append(list(reversed(nodes)))
    return paths


def path_packing_witness(inst: Instance, sol: Solution, terminal: int) -> list[list[int]]:
    """Extract edge-disjoint root-terminal paths and re-validate them edge by
    edge against the instance's capacities."""
    paths = max_flow_paths(working_arcs(inst, sol.selected), inst.root, terminal)
    capacity: dict[tuple[int, int], int] = {}
    for e in inst.zero_edges:
        capacity[(e.tail, e.head)] = capacity.get((e.tail, e.head), 0) + e.mult
    for eid, count in sol.selected.items():
        e = inst.edge_by_id[eid]
        capacity[(e.tail, e.head)] = capacity.get((e.tail, e.head), 0) + count
    used: dict[tuple[int, int], int] = {}
    for path in paths:
        for u, v in zip(path, path[1:]):
            used[(u, v)] = used.get((u, v), 0) + 1
    for arc, count in used.items():
        if count > capacity.get(arc, 0):
            raise AssertionError(f"witness paths overuse arc {arc}")
    return paths


def frac_by_fraction(obj) -> Fraction:
    """``frac_from_obj`` with every text read by ``Fraction``'s own parser:
    an int, or a string with no exponent that ``Fraction`` reads; anything
    else is not a rational."""
    if type(obj) is int:
        return Fraction(obj)
    if isinstance(obj, str) and "e" not in obj.lower():
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {obj!r}") from exc
    raise ParseError(f"not a rational: {obj!r}")


def parse_instance_per_edge(text: str) -> Instance:
    """``parse_instance`` with every edge's cost parsed on its own, by
    ``Fraction``'s parser (``frac_by_fraction``), and the integer fields
    tested with ``all`` over tuples: the same checks, in the same order,
    with the same messages."""
    doc = load_object(text, "instance document")
    try:
        n = doc["n"]
        root = doc["root"]
        terminals = doc["terminals"]
        k = doc["k"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    if not all(type(v) is int for v in (n, root, k)):
        raise ParseError("n, root and k must be integers")
    if not isinstance(terminals, list) or not all(type(t) is int for t in terminals):
        raise ParseError("terminals must be a list of integers")
    if not isinstance(raw_edges, list):
        raise ParseError("edges must be a list")

    edges = []
    for rec in raw_edges:
        if not isinstance(rec, dict):
            raise ParseError("edge record must be an object")
        try:
            eid, tail, head = rec["id"], rec["tail"], rec["head"]
            cost = frac_by_fraction(rec["cost"])
        except KeyError as exc:
            raise ParseError(f"edge record missing field {exc.args[0]!r}") from exc
        mult = rec.get("mult", 1)
        if not all(type(v) is int for v in (eid, tail, head, mult)):
            raise ParseError("edge id, endpoints and mult must be integers")
        if tail == head:
            continue  # self-loops cover nothing
        if head == root:
            raise ParseError(f"edge {eid} enters root")
        edges.append(Edge(eid, tail, head, cost, mult))

    inst = Instance(n, root, frozenset(terminals), tuple(edges), k)
    try:
        str(inst.cost_scale), str(sum(inst.scaled_cost(e.id) * e.mult for e in inst.edges))
    except ValueError as exc:
        raise ParseError(f"the costs' common denominator or total is too long: {exc}") from exc
    return inst


def per_edge_costs(inst: Instance) -> tuple[int, tuple[Edge, ...], tuple[Edge, ...], dict]:
    """(``cost_scale``, ``zero_edges``, ``positive_edges``, edge id -> scaled
    cost), each read edge by edge: an lcm step per edge, a ``Fraction``
    comparison with 0 and a ``Fraction`` product with the scale."""
    scale = 1
    for e in inst.edges:
        scale = math.lcm(scale, e.cost.denominator)
    zero = tuple(e for e in inst.edges if e.cost == 0)
    positive = tuple(e for e in inst.edges if e.cost > 0)
    scaled = {e.id: Fraction(e.cost) * scale for e in inst.edges}
    assert all(c.denominator == 1 for c in scaled.values())
    return scale, zero, positive, {eid: c.numerator for eid, c in scaled.items()}


def per_edge_views(inst: Instance) -> tuple[dict, dict, list, dict]:
    """(``edge_by_id``, ``positive_entering``, ``positive_by_cost``, edge id
    -> ``arc``), each built one edge at a time from the edge's own fields and
    ``per_edge_costs``' scaled costs, every row inserted in order on its own."""
    _, _, positive, scaled = per_edge_costs(inst)
    by_id, arcs, entering, by_cost = {}, {}, {}, []
    for e in inst.edges:
        by_id[e.id] = e
        arcs[e.id] = (e.tail, e.head)
    for e in positive:
        insort(by_cost, (scaled[e.id], e.id, e.tail, e.head, e.mult), key=lambda r: (r[0], r[1]))
        insort(entering.setdefault(e.head, []), (e.id, e.tail, scaled[e.id], e.mult),
               key=lambda r: r[0])
    return by_id, {v: tuple(rows) for v, rows in entering.items()}, by_cost, arcs


def density_violations(inst: Instance, report: SolveReport, *, max_units: int) -> list[int]:
    """Replay a run checking each iteration against the density rule.

    Each recorded iteration must satisfy
    added_cost / core_drop <= (2 / level) * residual_opt / cores_before,
    where added_cost is recomputed from the added units (each one the
    instance offers) and residual_opt is the exact cost of completing the
    instance from the iteration's starting state (``cheapest_completion``;
    the whole instance's feasibility is checked once, before the first
    record).  An iteration whose core count does not drop violates the rule.
    Raises SizeRefusalError above ``max_units`` positive units.
    """
    if inst.positive_unit_count > max_units:
        raise SizeRefusalError("instance too large for the density replay")
    records = report.solution.audit
    if records:  # every record's optimum needs the whole instance feasible
        require_feasible(inst)
    violations = []
    selected: Counter[int] = Counter()  # edge id -> copies the records bought so far
    for idx, rec in enumerate(records):
        residual_opt = Fraction(cheapest_completion(inst, selected)[0], inst.cost_scale)
        drop = rec.cores_before - rec.cores_after
        bought = selection_from_units(rec.added_units)
        cost = inst.selection_cost(bought)
        # cost / drop > (2 / level) * residual_opt / cores_before, cross-multiplied
        if drop <= 0 or cost * rec.phase_level * rec.cores_before > 2 * residual_opt * drop:
            violations.append(idx)
        selected.update(bought)
    return violations


def rebuild_phases(doc: dict) -> None:
    """Derive a solve report document's phases from its (edited) records again."""
    doc["phases"] = phases_doc(solution_from_doc(doc["solution"]).audit)


def load_script(path: Path, monkeypatch):
    """Import the script at ``path`` as a module of its own name, registered
    in ``sys.modules`` for the test's run (its dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` under ``python -O``, which strips ``assert``, with the
    checkout's ``src`` on its import path; output captured as text."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
