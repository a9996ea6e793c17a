"""Exact optimum by branch and bound: the brute force that ``rkec brute``,
the ratio audit and the density replay run.  Exponential, capped at desk
scale.  ``cheapest_completion`` is the search, bounded and seeded by the
LP dual ascent (``dual_ascent``); ``brute_force_opt`` wraps it into a
``Solution``.  A selection is per-edge counts (edge id -> copies) in and
out.  The plain enumeration it is checked against lives in the tests.
"""

from __future__ import annotations

import math
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
    rebuild it) or, without one, from the dual ascent's tight edges.  An
    incumbent the search proves optimal is returned as it is, with no second
    rebuild.  The cost is the exact optimum; which optimal selection is
    returned is not fixed.

    Raises SizeRefusalError when there are more than ``max_units`` positive
    units, ValueError for an infeasible incumbent, and InfeasibleError when
    even every unit leaves a terminal short, which the search's dual ascent
    finds out.
    """
    count = inst.positive_unit_count
    if count > max_units:
        raise SizeRefusalError(
            f"{count} positive edge units exceed the enumeration cap {max_units}"
        )
    if incumbent and not incumbent.feasible:
        raise ValueError("the incumbent is not feasible")
    _, chosen = cheapest_completion(inst, {}, incumbent and incumbent.selected)
    if incumbent and chosen == incumbent.selected:
        return incumbent
    return solution_of(inst, chosen)


def free_copies(inst: Instance, preselected) -> list[tuple[int, int, tuple[int, int, int], int]]:
    """(scaled cost, edge id, arc, copies not preselected) of every positive
    edge with one, cheapest first, its arc the (tail, head, 1) triple that
    grows a flow by a copy."""
    return [
        (cost, eid, (tail, head, 1), left)
        for cost, eid, tail, head, mult in inst.positive_by_cost
        if (left := mult - preselected.get(eid, 0)) > 0
    ]


def dual_ascent(inst: Instance, flows, free) -> tuple[Fraction, dict[int, int]]:
    """(LB, tight): a lower bound, in cost units (1/``inst.cost_scale``), on
    the cost of every completion of the preselected copies, the value of a
    feasible solution of the cut-covering LP's dual, raised by ascent; and
    the edges it made tight, each at all its free copies (edge id ->
    copies), a feasible completion, since the ascent stops only once every
    flow is at k over the preselected and tight copies.

    ``flows`` are the root flows of the deficient terminals over the working
    graph of the preselected copies, stopped at k (``root_flows``), and
    ``free`` the free copies (``free_copies``).  The ascent adds arcs to the
    flows' network and grows the flows, and rolls them back before it
    returns.

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
    no set is raised any more.  When no non-tight edge enters a core, every
    copy entering it is in the network already (zero-cost, preselected or
    tight at all its free copies), and it lets only k - l < k in: even every
    copy leaves the core's terminal short, and ``require_feasible`` raises
    the instance's InfeasibleError.  So on a feasible instance delta is
    always defined.
    """
    k = inst.k
    marks = [flow.mark() for flow in flows]
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
            require_feasible(inst)
            raise AssertionError("no free edge enters a core of a feasible instance")
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
    for flow, mark in zip(flows, marks):
        flow.rollback(mark)
    return Fraction(lb, den), {eid: arc[2] for eid, arc in arcs.items() if eid not in red}


def cheapest_completion(
    inst: Instance, preselected, incumbent=None
) -> tuple[int, dict[int, int]]:
    """(cost, counts: edge id -> copies) of *an* optimal completion of
    the selection ``preselected`` (edge id -> copies bought), by branch and
    bound over the positive edges' other copies.  The cost is an integer in
    units of 1/``inst.cost_scale``, the preselected copies not counted.
    ``incumbent`` is a feasible completion (positive edge id -> copies,
    within the copies ``preselected`` leaves), by default the dual ascent's
    tight edges at all their free copies, and the search starts with it as
    its best: its cost recomputed, itself returned whenever it is optimal.
    When even every copy leaves a terminal short, ``dual_ascent`` raises
    InfeasibleError.

    The search first runs ``dual_ascent`` on its root flows.  Its bound LB
    is at most the optimum (weak duality), and the optimum is an integer,
    so the optimum is at least ceil(LB).  When ceil(LB) reaches the
    incumbent's cost the incumbent is optimal and the search returns it
    without building a child.  Otherwise ceil(LB) is a lower bound on every
    branch as well, and once the best cost is ceil(LB) every branch is cut.

    The search reads every deficient terminal's closest minimum cut (its
    closest sink side) and the free edges entering it: those not excluded
    and with a copy left.  It branches at the side that the fewest free
    edges enter, the first largest deficit among those (every feasible
    completion must buy a copy entering it), one branch per entering edge,
    cheapest first, buying one more copy.  A branch excludes its earlier
    siblings' edges, which kills permutation duplicates and loses nothing: a
    completion that uses such an edge is reached in that sibling's branch.

    Branch i is cut before it is built when its bound reaches the best
    cost: the larger of ceil(LB) and the cost so far plus the branching
    side's deficit-many cheapest free copies among the entering edges from i
    on.  That is admissible.  Every completion below branch i puts
    deficit-many copies into the branching side, and branch i excludes the
    edges before it, so they come from edge i on.  The bound never falls as
    i grows, so the first cut branch ends the loop.  A branch whose arc
    closes every deficit buys one copy into the branching side, the
    cheapest of entering[i:], so its leaf costs at most its bound: every
    leaf the search reaches is cheaper than the best so far.

    It carries one root flow per deficient terminal, stopped at k, built
    once at the root over one network: each child adds the branched edge's
    arc to it once (``add_arcs``), grows its parent's flows in place
    (``Residual.grow``), recurses on the terminals still below k, and rolls
    every flow back to its ``mark`` when it returns, which pops the arc
    again.  Below k a flow is a maximum flow, so its closest sink side is
    the one a fresh flow would give.  With no deficient terminal the root
    itself is the leaf (cost 0, no copies).
    """
    free = free_copies(inst, preselected)
    k = inst.k

    def free_edges(chosen, excluded, side):
        """(scaled cost, edge id, arc, copies left) of every edge entering
        ``side``, not excluded and with a copy not chosen, cheapest first."""
        return [
            (c, eid, arc, left) for c, eid, arc, copies in free  # arc is (tail, head, 1)
            if arc[1] in side and arc[0] not in side and eid not in excluded
            and (left := copies - chosen.get(eid, 0)) > 0
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

    def search(flows, chosen: dict, excluded: frozenset, cost: int):
        nonlocal best_cost, best
        if not flows:
            best_cost, best = cost, chosen
            return  # costs are strictly positive, supersets cannot improve
        # the free edges entering every flow's sink side, read once
        edges = [free_edges(chosen, excluded, flow.closest_sink_side()) for flow in flows]
        # branch where the fewest edges enter, then at the first largest deficit
        w = min(range(len(flows)), key=lambda j: (len(edges[j]), flows[j].value))
        need, entering = k - flows[w].value, edges[w]
        for i, (c, eid, arc, _) in enumerate(entering):
            # the branch's bound: its need copies into the branching side
            # come from entering[i:]
            bound = max(lower, cost + cheapest_copies(entering[i:], need))
            if bound >= best_cost:
                break  # the branch bound never falls as i grows
            marks = [flow.mark() for flow in flows]
            add_arcs(flows, (arc,))
            search(
                # an arc never lowers a flow: the ones still below k stay
                [flow for flow in flows if flow.grow(k) < k],
                {**chosen, eid: chosen.get(eid, 0) + 1},
                excluded | {b[1] for b in entering[:i]},
                cost + c,
            )
            for flow, mark in zip(flows, marks):
                flow.rollback(mark)

    root = [f for _, f in root_flows(inst, preselected, k) if f.value < k]
    lb, tight = dual_ascent(inst, root, free)
    lower = math.ceil(lb)
    best = tight if incumbent is None else incumbent
    best_cost = sum(inst.scaled_cost(e) * c for e, c in best.items())
    if lower < best_cost:
        search(root, {}, frozenset(), 0)
    return best_cost, best
