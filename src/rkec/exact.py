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

Every search starts from a feasible completion, its incumbent: the one
the caller gives (``verify --brute``, ``rkec bench``, the density replay),
or else every free copy (``rkec brute``).  It returns the optimum cost and
*an* optimal completion, the incumbent itself whenever it is optimal.
Before it builds a child, the search runs a dual ascent on the cut-covering
LP (``dual_ascent``) from the same root flows.  The packing above is the
ascent's integral special case.  By weak duality the ascent's bound LB is
at most the optimum, which is an integer in cost units, so the optimum is
at least the ceiling of LB.  When that ceiling reaches the incumbent's cost
the incumbent is optimal, and the search ends at its root; otherwise the
ceiling bounds every branch from below.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .deficiency import cores_of
from .flows import add_arcs, require_feasible, root_flows, solution_of
from .instance import Instance, SizeRefusalError, Solution


def brute_force_opt(
    inst: Instance, *, max_units: int = 22, incumbent: Solution | None = None
) -> Solution:
    """Exact minimum-cost feasible selection: the solution of the optimum
    ``cheapest_completion`` finds, started from ``incumbent`` (a feasible
    ``Solution`` of ``inst``, as ``verify --brute`` and ``rkec bench``
    rebuild it) or, without one, from every unit.  An incumbent the search
    proves optimal is returned as it is, with no second rebuild.  The cost
    is the exact optimum; which optimal selection is returned is not fixed.

    Raises SizeRefusalError when there are more than ``max_units`` positive
    units, and InfeasibleError when even every unit leaves a terminal short;
    a feasible incumbent already proves that it does not, so then the check
    is skipped (ValueError for an infeasible one).
    """
    count = inst.positive_unit_count
    if count > max_units:
        raise SizeRefusalError(
            f"{count} positive edge units exceed the enumeration cap {max_units}"
        )
    if incumbent is None:
        require_feasible(inst)
    elif not incumbent.feasible:
        raise ValueError("the incumbent is not feasible")
    cost, edges = cheapest_completion(inst, {}, incumbent and incumbent.selected)
    if incumbent and Fraction(cost, inst.cost_scale) == incumbent.total_cost:
        return incumbent
    return solution_of(inst, Counter(edges))


def free_copies(inst: Instance, preselected) -> list[tuple[int, int, tuple[int, int, int], int]]:
    """(scaled cost, edge id, arc, copies not preselected) of every positive
    edge with one, cheapest first, its arc the (tail, head, 1) triple that
    grows a flow by a copy."""
    return [
        (inst.scaled_cost(e.id), e.id, (e.tail, e.head, 1), left)
        for e in inst.positive_by_cost
        if (left := e.mult - preselected.get(e.id, 0)) > 0
    ]


def dual_ascent(inst: Instance, flows, free) -> Fraction:
    """A lower bound, in cost units (1/``inst.cost_scale``), on the cost of
    every completion of the preselected copies: the value of a feasible
    solution of the cut-covering LP's dual, raised by ascent.

    ``flows`` are the root flows of the deficient terminals over the working
    graph of the preselected copies, stopped at k (``root_flows``), and
    ``free`` the free copies (``free_copies``); the instance must be
    feasible with every copy.  The ascent adds arcs to the flows' network
    and grows the flows, and the caller rolls them back.

    The LP: minimize the sum of c_e x_e subject to x(in(S)) >= f(S) for
    every set S that holds a terminal and not the root, where f(S) is k less
    the zero-cost and preselected capacity entering S, and 0 <= x_e <= u_e,
    the free copies of e.  Its dual: maximize the sum of f(S) y_S less the
    sum of u_e z_e, subject to (the sum of y_S over the sets e enters) - z_e
    <= c_e, with y, z >= 0.  Weak duality: every dual solution's value is at
    most every completion's cost.

    The ascent keeps each free edge's reduced cost, c_e less the y it
    enters, as an integer over one common denominator, and calls an edge
    tight once that reaches 0.  Each step works over the flows of the
    working graph plus every tight edge at all its free copies, stopped at
    k.  It takes that graph's cores (``cores_of``): at the level l, each a
    closest minimum cut of k - l entering capacity.  It raises y of every
    core by delta, the least ratio of reduced cost to n_e over the non-tight
    edges that enter n_e >= 1 cores, so no reduced cost goes below 0.  The z
    of each tight edge grows by delta times the cores it enters, which keeps
    its constraint, so a core gains delta * (f(S) less the tight copies
    entering it) = delta * l, and the bound delta * l * (number of cores).
    The edges whose reduced cost reached 0 turn tight: their arcs join the
    network at every free copy and the flows grow to k again.  At level 0
    no set is raised any more.  Feasibility with every copy means that some
    non-tight edge enters every core, so delta is defined.
    """
    k = inst.k
    arcs = {eid: (arc[0], arc[1], left) for _, eid, arc, left in free}
    red = {eid: c for c, eid, _, _ in free}  # the edges not tight yet
    den, lb = 1, 0  # the reduced costs and the bound count in units of 1/den
    while live := {flow.sink: flow for flow in flows if flow.value < k}:
        level, cores = cores_of(inst, live)
        sides = [core.members for core in cores]
        entering = []  # (edge id, the cores it enters) of every edge entering one
        r = n = 0  # the least ratio of reduced cost to cores entered, r / n
        for eid, c in red.items():
            tail, head, _ = arcs[eid]
            m = 0
            for side in sides:
                if head in side and tail not in side:
                    m += 1
            if m:
                entering.append((eid, m))
                if not n or c * n < r * m:
                    r, n = c, m
        if not n:
            raise ValueError("no free edge enters a core: the instance is infeasible")
        scale = n // math.gcd(r, n)
        if scale > 1:  # r / n is no integer: refine the unit so that it is
            den, lb, r = den * scale, lb * scale, r * scale
            red = {eid: c * scale for eid, c in red.items()}
        delta = r // n
        lb += delta * level * len(cores)
        tight = []
        for eid, m in entering:
            red[eid] -= delta * m
            if not red[eid]:
                del red[eid]
                tight.append(arcs[eid])
        add_arcs(flows, tight)
        for flow in live.values():
            flow.grow(k)
    return Fraction(lb, den)


def cheapest_completion(
    inst: Instance, preselected, incumbent=None
) -> tuple[int, tuple[int, ...]]:
    """(cost, sorted edge ids, one per copy) of *an* optimal completion of
    the selection ``preselected`` (edge id -> copies bought), by branch and
    bound over the positive edges' other copies.  The cost is an integer in
    units of 1/``inst.cost_scale``, the preselected copies not counted.
    ``incumbent`` is a feasible completion (positive edge id -> copies,
    within the copies ``preselected`` leaves), by default every free copy,
    and the search starts with it as its best: its cost recomputed, its
    sorted edge ids returned whenever it is optimal.  When even every free
    copy leaves a terminal short, ``dual_ascent`` raises ValueError.

    The search first runs ``dual_ascent`` on its root flows (marked first,
    rolled back after).  Its bound LB is at most the optimum (weak duality),
    and the optimum is an integer, so the optimum is at least ceil(LB).
    When ceil(LB) reaches the incumbent's cost the incumbent is optimal and
    the search returns it without building a child.  Otherwise ceil(LB) is
    a lower bound on every branch as well, and a branch is cut once its
    bound reaches the best cost: no completion below it can cost less, and
    once the best cost is ceil(LB) every branch is cut.

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
    own bound reaches the best cost: the same packing, with the branching
    side's copies taken from the entering edges from i on.  That is
    admissible.  Every completion below branch i puts deficit-many copies
    into the branching side, and branch i excludes the edges before it, so
    they come from edge i on.  The excluded edges have their heads in the
    branching side, so they enter none of the other packed sides, whose
    deficits and free edges are therefore the parent's.  The branch bound
    never falls as i grows, so the first cut branch ends the loop, and at
    i = 0 it is the node's own bound.  A branch whose arc closes every
    deficit buys one copy into the branching side, the cheapest of
    entering[i:], so its leaf costs at most its bound: every leaf the
    search reaches is cheaper than the best so far.

    It carries one root flow per deficient terminal, stopped at k, built
    once at the root over one network: each child adds the branched edge's
    arc to it once (``add_arcs``), grows its parent's flows in place
    (``Residual.grow``), recurses on the terminals still below k, and rolls
    every flow back to its ``mark`` when it returns, which pops the arc
    again.  Below k a flow is a maximum flow, so its closest sink side is
    the one a fresh flow would give.  With no deficient terminal the root
    itself is the leaf (cost 0, no edges).  The plain enumeration it is
    checked against lives with the tests.
    """
    free = free_copies(inst, preselected)
    k = inst.k

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
        nonlocal best_cost, best_edges
        if not flows:
            best_cost, best_edges = cost, tuple(sorted(chosen))
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
            bound = max(lower, others + cheapest_copies(entering[i:], need))
            if bound >= best_cost:
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

    if incumbent is None:
        incumbent = {eid: left for _, eid, _, left in free}
    best_cost = sum(inst.scaled_cost(e) * c for e, c in incumbent.items())
    best_edges = tuple(sorted(Counter(incumbent).elements()))
    root = [f for _, f in root_flows(inst, preselected, k) if f.value < k]
    # the ascent grows the root flows by its tight edges: undo that
    marks = [flow.mark() for flow in root]
    lower = math.ceil(dual_ascent(inst, root, free))
    for flow, mark in zip(root, marks):
        flow.rollback(mark)
    if lower < best_cost:
        search(root, (), frozenset(), 0)
    return best_cost, best_edges
