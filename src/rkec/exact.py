"""Exact optimum by branch and bound: the brute force that ``rkec brute``,
the ratio audit and the density replay run.

Everything here is exponential and capped at desk scale.  The search reads
path counts and its branching cut off one root flow per deficient terminal,
built once over one shared network, grown in place down the search and
rolled back up it (``Residual.mark``/``rollback``, no copies); its bound
adds up the deficits of disjoint closest cuts, a packing that no arc enters
twice.  Each branch is cut before it is built, by its own bound: the
parent's packing with the branching side's share taken only from the edges
the branch may still buy.  The plain enumeration it is checked against, and
the enumeration oracles, live in the tests.
"""

from __future__ import annotations

import math
from collections import Counter

from .flows import add_arcs, require_feasible, root_flows, solution_of
from .instance import Instance, SizeRefusalError, Solution


def brute_force_opt(inst: Instance, *, max_units: int = 22, incumbent=None) -> Solution:
    """Exact minimum-cost feasible selection: the solution of the edges
    ``cheapest_completion`` picks from nothing, starting from ``incumbent``
    (a feasible selection, edge id -> copies) when one is given.

    Raises SizeRefusalError when there are more than ``max_units`` positive
    units, and InfeasibleError when even every unit leaves a terminal short;
    a feasible incumbent already proves that it does not, so then the check
    is skipped.
    """
    count = inst.positive_unit_count
    if count > max_units:
        raise SizeRefusalError(
            f"{count} positive edge units exceed the enumeration cap {max_units}"
        )
    if incumbent is None:
        require_feasible(inst)
    return solution_of(inst, Counter(cheapest_completion(inst, {}, incumbent)[1]))


def cheapest_completion(
    inst: Instance, preselected, incumbent=None
) -> tuple[int | float, tuple[int, ...]]:
    """(cost, sorted edge ids, one per copy) of the cheapest completion of
    the selection ``preselected`` (edge id -> copies bought), by branch and
    bound over the positive edges' other copies; the instance must be
    feasible with every copy.  The cost is an integer in units of
    1/``inst.cost_scale``, the preselected copies not counted; when no
    completion exists it is ``math.inf``, with no edges.
    ``incumbent``, if given, is a feasible completion (positive edge id ->
    copies, within the copies ``preselected`` leaves), and the search
    starts with it as its incumbent: its cost recomputed and its sorted
    edge ids as key.  The answer is the same: the bound and the branch cut
    only what costs strictly more than the incumbent, so the search still
    reaches every minimal optimal completion and keeps the least key among
    them; an optimal incumbent is one of those, since costs are positive,
    and any other costs more than the optimum.

    Ties are broken toward the lexicographically smallest edge-id multiset.
    The search reads every deficient terminal's closest minimum cut (its
    closest sink side) and the free edges entering it: those not excluded
    and with a copy left.  It branches at the side that the fewest free
    edges enter, the first largest deficit among those (every feasible
    completion must buy a copy entering it), one branch per entering edge,
    cheapest first, buying one more copy.  A branch excludes its earlier
    siblings' edges, which kills permutation duplicates and loses nothing: a
    completion that uses such an edge is reached in that sibling's branch.

    The admissible bound packs disjoint cuts: the branching side's
    deficit-many cheapest free copies entering it, plus, for each other
    deficient terminal in id order whose side is disjoint from every side
    taken so far, its own deficit-many cheapest free copies entering (no arc
    enters two disjoint sets).  Branch i is cut before it is built when its
    own bound exceeds the best cost: the same packing, with the branching
    side's copies taken from the entering edges from i on.  That is
    admissible.  Every completion below branch i puts deficit-many copies
    into the branching side, and branch i excludes the edges before it, so
    they come from edge i on.  The excluded edges have their heads in the
    branching side, so they enter none of the other packed sides, whose
    deficits and free edges are therefore the parent's.  The branch bound
    never falls as i grows, so the first cut branch ends the loop, and at
    i = 0 it is the node's own bound.  Every cut is strict, so the tie
    argument above holds.

    It carries one root flow per deficient terminal, stopped at k, built
    once at the root over one network: each child adds the branched edge's
    arc to it once (``add_arcs``), grows its parent's flows in place
    (``Residual.grow``), recurses on the terminals still below k, and rolls
    every flow back to its ``mark`` when it returns, which pops the arc
    again.  Below k a flow is a maximum flow, so its closest sink side is
    the one a fresh flow would give.  Without ``incumbent`` the search
    starts with none: its first dive, always down the cheapest branch and
    cut only where no completion is left, is a greedy repair that reaches a
    leaf when the instance is feasible, and with no deficient terminal the
    root itself is the leaf (cost 0, no edges).  The plain enumeration it is
    checked against lives with the tests.
    """
    # (scaled cost, edge id, arc, copies not preselected) of every positive
    # edge with one, cheapest first, its arc the (tail, head, 1) triple that
    # grows a flow by a copy
    free = [
        (inst.scaled_cost(e.id), e.id, (e.tail, e.head, 1), left)
        for e in inst.positive_by_cost
        if (left := e.mult - preselected.get(e.id, 0)) > 0
    ]
    k = inst.k

    def consider(chosen, cost):
        nonlocal best_cost, best_edges
        key = tuple(sorted(chosen))
        if cost < best_cost or (cost == best_cost and key < best_edges):
            best_cost, best_edges = cost, key

    def free_edges(chosen, excluded, side):
        """(scaled cost, edge id, arc, copies left) of every edge entering
        ``side``, not excluded and with a copy not chosen, cheapest first."""
        return [
            (c, eid, arc, left) for c, eid, arc, copies in free  # arc is (tail, head, 1)
            if arc[1] in side and arc[0] not in side and eid not in excluded
            and (left := copies - chosen.count(eid)) > 0
        ]

    def cheapest_copies(edges, need):
        """The cost of the ``need`` cheapest copies left among ``edges``
        (cheapest first, each with its copies left), or infinity when they
        hold fewer."""
        total = 0
        for c, _, _, left in edges:
            if need <= left:
                return total + c * need
            total, need = total + c * left, need - left
        return math.inf

    def search(flows, chosen: tuple, excluded: frozenset, cost: int):
        if not flows:
            consider(chosen, cost)
            return  # costs are strictly positive, supersets cannot improve
        # every flow's sink side and the free edges entering it, read once
        sides = [flow.closest_sink_side() for flow in flows]
        edges = [free_edges(chosen, excluded, side) for side in sides]
        # branch where the fewest edges enter, then at the first largest deficit
        w = min(range(len(flows)), key=lambda j: (len(edges[j]), flows[j].value))
        # the cost so far plus the packed bound off the branching side: the
        # other sides disjoint from it and from each other, in flow order
        others, taken = cost, set(sides[w])
        for j, flow in enumerate(flows):
            if j != w and taken.isdisjoint(sides[j]):
                taken |= sides[j]
                others += cheapest_copies(edges[j], k - flow.value)
        need, entering = k - flows[w].value, edges[w]
        for i, (c, eid, arc, _) in enumerate(entering):
            # the branch's bound: its need copies into the branching side
            # come from entering[i:] (at i = 0, the node's own bound)
            bound = others + cheapest_copies(entering[i:], need)
            # infinite: no completion, cut even before a first leaf sets best_cost
            if bound == math.inf or bound > best_cost:
                break  # the branch bound never falls as i grows
            marks = [flow.mark() for flow in flows]
            add_arcs(flows, (arc,))
            search(
                # an arc never lowers a flow: the ones still below k stay
                [flow for flow in flows if flow.grow(k) < k],
                chosen + (eid,),
                excluded | {b[1] for b in entering[:i]},
                cost + c,
            )
            for flow, mark in zip(flows, marks):
                flow.rollback(mark)

    best_cost, best_edges = math.inf, ()
    if incumbent is not None:
        best_cost = sum(inst.scaled_cost(e) * c for e, c in incumbent.items())
        best_edges = tuple(sorted(Counter(incumbent).elements()))
    root = [f for _, f in root_flows(inst, preselected, k) if f.value < k]
    search(root, (), frozenset(), 0)
    return best_cost, best_edges
