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

from .flows import root_flows, short_terminal, solution_of
from .instance import Instance, InfeasibleError, SizeRefusalError, Solution


def brute_force_opt(inst: Instance, *, max_units: int = 22, preselected=()) -> Solution:
    """Exact minimum-cost feasible completion of ``preselected``: the
    solution of the units ``cheapest_completion`` picks.

    ``preselected`` units are treated as already paid for (capacity present,
    cost not counted), and the result is the solution of the completion's
    units alone.  Raises SizeRefusalError when more than ``max_units`` free
    positive units remain, and InfeasibleError when even every unit leaves a
    terminal short.
    """
    preselected = frozenset(preselected)
    free = sum(1 for u in inst.positive_units if u not in preselected)
    if free > max_units:
        raise SizeRefusalError(
            f"{free} positive edge units exceed the enumeration cap {max_units}"
        )
    short = short_terminal(inst, inst.positive_units, inst.k)
    if short is not None:
        raise InfeasibleError(*short, inst.k)
    return solution_of(inst, cheapest_completion(inst, preselected)[1])


def cheapest_completion(inst: Instance, preselected) -> tuple[int, tuple]:
    """(cost, sorted units) of the cheapest completion of ``preselected``, by
    branch and bound over the other positive units; the instance must be
    feasible with every unit.  The cost is an integer in units of
    1/``inst.cost_scale``, the preselected units not counted.

    Ties are broken toward the lexicographically smallest unit set.  The
    search branches on the units entering the worst terminal's closest
    minimum cut (every feasible completion must pick one), excluding earlier
    siblings to kill permutation duplicates.  The admissible bound packs
    disjoint cuts: the worst terminal's deficit-many cheapest entering units,
    plus, for each other deficient terminal in id order whose closest sink
    side is disjoint from every side taken so far, its own deficit-many
    cheapest entering units (no arc enters two disjoint sets).  It carries
    one root flow per deficient terminal, stopped at k, built once at the
    root: each child grows its parent's flows in place by the branched unit,
    recurses on the terminals still below k, and rolls every flow back to
    its ``mark`` when it returns.  Below k a flow is a maximum flow, so its
    closest sink side is the one a fresh flow would give.  The plain
    enumeration it is checked against lives with the tests.
    """
    preselected = frozenset(preselected)
    cost_of = inst.scaled_cost
    # (scaled cost, unit, arc) of every free unit, cheapest first
    free = sorted(
        (cost_of(u), u, inst.unit_arc(u))
        for u in inst.positive_units
        if u not in preselected
    )
    k = inst.k

    def grow(flows, arc):
        """Add ``arc`` to each deficient flow in place and augment it to k;
        returns the flows still below k (an arc never lowers a flow)."""
        out = []
        for flow in flows:
            flow.add(*arc, 1)
            if flow.augment(k) < k:
                out.append(flow)
        return out

    def worst_flow(flows):
        """The first flow of the largest deficit."""
        return min(flows, key=lambda flow: flow.value)

    def consider(chosen, cost):
        nonlocal best_cost, best_units
        key = tuple(sorted(chosen))
        if cost < best_cost or (cost == best_cost and key < best_units):
            best_cost, best_units = cost, key

    def free_units(blocked, side):
        """Every unblocked free unit entering ``side``, cheapest first."""
        return [
            (c, u, arc) for c, u, arc in free  # arc is (tail, head)
            if arc[1] in side and arc[0] not in side and u not in blocked
        ]

    def search(flows, chosen: frozenset, excluded: frozenset, cost: int):
        if not flows:
            consider(chosen, cost)
            return  # costs are strictly positive, supersets cannot improve
        blocked = chosen | excluded
        worst = worst_flow(flows)
        side = worst.closest_sink_side()
        entering = free_units(blocked, side)
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
                units = free_units(blocked, side)
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
                grow(flows, arc),
                chosen | {u},
                excluded | {b for _, b, _ in branch[:i]},
                cost + c,
            )
            for flow, mark in zip(flows, marks):
                flow.rollback(mark)

    root = [flow for _, flow in root_flows(inst, preselected, k) if flow.value < k]
    # Prime the bound with a greedy repair: always buy the cheapest unit
    # entering the current worst closest cut.  It grows the root flows in
    # place, so they are rolled back before the search starts from them.
    marks = [flow.mark() for flow in root]
    flows, chosen, best_cost = root, frozenset(), 0
    while flows:
        c, pick, arc = free_units(chosen, worst_flow(flows).closest_sink_side())[0]
        flows, chosen, best_cost = grow(flows, arc), chosen | {pick}, best_cost + c
    for flow, mark in zip(root, marks):
        flow.rollback(mark)
    best_units = tuple(sorted(chosen))
    search(root, frozenset(), frozenset(), 0)
    return best_cost, best_units

