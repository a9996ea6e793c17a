"""Exact optimum by branch and bound: the brute force that ``rkec brute``,
the ratio audit and the density replay run.

Everything here is exponential and capped at desk scale.  The search reads
path counts and its branching cut off one root flow per deficient terminal,
built once, grown in place down the search and rolled back up it
(``Residual.mark``/``rollback``, no copies); its bound adds up the deficits
of disjoint closest cuts, a packing that no arc enters twice.  The plain
enumeration it is checked against, and the enumeration oracles, live in the
tests.
"""

from __future__ import annotations

import math

from .flows import require_feasible, root_flows, solution_of
from .instance import Instance, SizeRefusalError, Solution, selection_from_units


def brute_force_opt(inst: Instance, *, max_units: int = 22) -> Solution:
    """Exact minimum-cost feasible selection: the solution of the units
    ``cheapest_completion`` picks from nothing.

    Raises SizeRefusalError when there are more than ``max_units`` positive
    units, and InfeasibleError when even every unit leaves a terminal short.
    """
    count = inst.positive_unit_count
    if count > max_units:
        raise SizeRefusalError(
            f"{count} positive edge units exceed the enumeration cap {max_units}"
        )
    require_feasible(inst)
    return solution_of(inst, selection_from_units(cheapest_completion(inst, ())[1]))


def cheapest_completion(inst: Instance, preselected) -> tuple[int, tuple]:
    """(cost, sorted units) of the cheapest completion of ``preselected``, by
    branch and bound over the other positive units; the instance must be
    feasible with every unit.  The cost is an integer in units of
    1/``inst.cost_scale``, the preselected units not counted.

    Ties are broken toward the lexicographically smallest unit set.  The
    search branches on the units entering the worst terminal's closest
    minimum cut (every feasible completion must pick one), one branch per
    edge on its lowest free copy.  A branch excludes every copy of its
    earlier siblings' edges, which kills permutation duplicates and loses
    nothing: a completion that uses such an edge is reached in that
    sibling's branch, through the edge's lowest free copy.  The admissible
    bound packs disjoint cuts: the worst terminal's deficit-many cheapest
    entering units, plus, for each other deficient terminal in id order
    whose closest sink side is disjoint from every side taken so far, its
    own deficit-many cheapest entering units (no arc enters two disjoint
    sets).  It carries one root flow per deficient terminal, stopped at k,
    built once at the root: each child grows its parent's flows in place by
    the branched unit (``Residual.grow``), recurses on the terminals still
    below k, and rolls every flow back to its ``mark`` when it returns.
    Below k a flow is a maximum flow, so its closest sink side is the one a
    fresh flow would give.  The search starts with no incumbent: its first
    dive, always down the cheapest branch and never cut by the bound, is a
    greedy repair that reaches a leaf, and with no deficient terminal the
    root itself is the leaf (cost 0, no units).  The plain enumeration it is
    checked against lives with the tests.
    """
    preselected = frozenset(preselected)
    cost_of = inst.scaled_cost
    # (scaled cost, unit, arc) of every free unit, cheapest first, its arc
    # the (tail, head, 1) triple that grows a flow by the unit
    free = sorted(
        (cost_of(u), u, (*inst.unit_arc(u), 1))
        for u in inst.positive_units
        if u not in preselected
    )
    k = inst.k

    def consider(chosen, cost):
        nonlocal best_cost, best_units
        key = tuple(sorted(chosen))
        if cost < best_cost or (cost == best_cost and key < best_units):
            best_cost, best_units = cost, key

    def free_units(chosen, excluded, side):
        """Every free unit entering ``side`` that is not chosen and not a
        copy of an excluded edge, cheapest first."""
        return [
            (c, u, arc) for c, u, arc in free  # arc is (tail, head, 1)
            if arc[1] in side and arc[0] not in side
            and u not in chosen and u[0] not in excluded
        ]

    def search(flows, chosen: frozenset, excluded: frozenset, cost: int):
        if not flows:
            consider(chosen, cost)
            return  # costs are strictly positive, supersets cannot improve
        worst = min(flows, key=lambda flow: flow.value)  # the first largest deficit
        side = worst.closest_sink_side()
        entering = free_units(chosen, excluded, side)
        taken = set(side)
        bound = cost
        for flow in flows:
            if flow is not worst:
                if flow.sink in taken:
                    continue  # its sink side meets a side already taken
                side = flow.closest_sink_side()
                if not taken.isdisjoint(side):
                    continue
                taken |= side
                units = free_units(chosen, excluded, side)
            else:
                units = entering
            need = k - flow.value
            if len(units) < need:
                return
            bound += sum(c for c, _, _ in units[:need])
            if bound > best_cost:
                return
        # Branch only on the lowest free copy of each edge; a later copy turns
        # up again once its predecessor is chosen, so nothing is lost.
        branch = []
        seen_edges = set()
        for c, u, arc in entering:
            if u[0] not in seen_edges:
                seen_edges.add(u[0])
                branch.append((c, u, arc))
        for i, (c, u, arc) in enumerate(branch):
            if cost + c > best_cost:
                break  # the branch is cheapest first
            marks = [flow.mark() for flow in flows]
            search(
                # an arc never lowers a flow: the ones still below k stay
                [flow for flow in flows if flow.grow((arc,), k) < k],
                chosen | {u},
                excluded | {b[0] for _, b, _ in branch[:i]},
                cost + c,
            )
            for flow, mark in zip(flows, marks):
                flow.rollback(mark)

    best_cost, best_units = math.inf, ()
    root = [f for _, f in root_flows(inst, selection_from_units(preselected), k) if f.value < k]
    search(root, frozenset(), frozenset(), 0)
    return best_cost, best_units

