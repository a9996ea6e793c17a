"""Brute-force ground truth: exact optima, family enumeration, certificates.

Everything here is exponential and capped at desk scale.  These routines are
the oracles the fast paths are measured against, so the enumerations and the
exact ring cover stay deliberately independent of the flow and primal-dual
code: set values are recomputed by counting entering arcs over explicit
subsets.  The branch-and-bound optimum reads path counts and its branching
cut off one root flow per deficient terminal, built once, grown in place down
the search and rolled back up it (``Residual.mark``/``rollback``, no copies);
its bound adds up the deficits of disjoint closest cuts, a packing that no
arc enters twice.  The plain enumeration it is checked against lives in the
tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .flows import root_flows, short_terminal, solution_of
from .instance import Instance, InfeasibleError, SizeRefusalError, Solution

_FAMILY_UNIVERSE_CAP = 16


def enters(tail: int, head: int, members) -> bool:
    """An arc covers a set when its head is inside and its tail is not."""
    return head in members and tail not in members


def entering_count(arcs, members) -> int:
    return sum(1 for tail, head in arcs if enters(tail, head, members))


# ---------------------------------------------------------------------------
# exact optimum


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


# ---------------------------------------------------------------------------
# family enumeration


@dataclass(frozen=True)
class RingView:
    """The subfamily focused on one core, with its ring structure checked."""

    core: frozenset[int]
    members: tuple[frozenset[int], ...]
    maximal: frozenset[int]
    is_ring: bool  # closed under union/intersection, unique min and max


@dataclass
class EnumeratedFamily:
    """Every subset of a small universe evaluated against a deficiency rule."""

    universe: tuple[int, ...]
    terminals: frozenset[int]
    level: int
    positive: dict[frozenset[int], int]  # all sets with positive residual value
    members: list[frozenset[int]]  # the sets attaining the max level
    cores: list[frozenset[int]]  # inclusion-minimal members

    def value(self, members) -> int:
        return self.positive.get(frozenset(members), 0)

    def check_t_intersecting(self) -> bool:
        """Closure of the max-level family under union/intersection on
        terminal-sharing pairs."""
        member_set = set(self.members)
        for a, b in itertools.combinations(self.members, 2):
            if a & b & self.terminals:
                if a & b not in member_set or a | b not in member_set:
                    return False
        return True

    def every_member_contains_core(self) -> bool:
        return all(any(core <= m for core in self.cores) for m in self.members)

    def ring_view(self, core) -> RingView:
        core = frozenset(core)
        others = [c for c in self.cores if c != core]
        members = tuple(
            m for m in self.members if not any(o <= m for o in others)
        )
        maximal = frozenset().union(*members) if members else frozenset()
        is_ring = bool(members) and maximal in members and core in members
        if is_ring:
            for a, b in itertools.combinations(members, 2):
                if (a & b not in members) or (a | b not in members):
                    is_ring = False
                    break
        if is_ring:
            is_ring = all(core <= m <= maximal for m in members)
        return RingView(core, members, maximal, is_ring)


def enumerate_deficiency(universe, terminals, value_fn) -> EnumeratedFamily:
    """Evaluate ``value_fn`` on every subset of ``universe`` and classify."""
    universe = tuple(sorted(universe))
    if len(universe) > _FAMILY_UNIVERSE_CAP:
        raise SizeRefusalError(
            f"universe of {len(universe)} nodes exceeds the enumeration cap"
        )
    terminals = frozenset(terminals)
    positive: dict[frozenset[int], int] = {}
    for mask in range(1, 1 << len(universe)):
        members = frozenset(
            universe[i] for i in range(len(universe)) if mask >> i & 1
        )
        v = value_fn(members)
        if v > 0:
            positive[members] = v
    level = max(positive.values(), default=0)
    members = sorted(
        (m for m, v in positive.items() if v == level),
        key=lambda m: (len(m), sorted(m)),
    ) if level else []
    cores = [m for m in members if not any(o < m for o in members)]
    return EnumeratedFamily(universe, terminals, level, positive, members, cores)


def enumerate_rooted(inst: Instance, units=()) -> EnumeratedFamily:
    """Enumerate the residual deficiency family of an instance state; its
    working graph enters as one bare arc per unit of capacity."""
    arcs = []
    for e in inst.zero_edges:
        arcs.extend([(e.tail, e.head)] * e.mult)
    arcs.extend(inst.unit_arc(u) for u in units)
    universe = [v for v in range(inst.node_count) if v != inst.root]
    return enumerate_arc_family(universe, inst.terminals, inst.k, arcs)


def enumerate_arc_family(universe, terminals, k, arcs) -> EnumeratedFamily:
    """Enumerate max(k - entering, 0) over terminal-containing subsets."""
    arcs = tuple(arcs)
    terminals = frozenset(terminals)

    def value(members):
        if not members & terminals:
            return 0
        return max(k - entering_count(arcs, members), 0)

    return enumerate_deficiency(universe, terminals, value)


def enumerate_explicit(fn, arcs=()) -> EnumeratedFamily:
    """Enumerate an explicit set function's residual family."""
    arcs = tuple(arcs)

    def value(members):
        return max(fn.value(members) - entering_count(arcs, members), 0)

    return enumerate_deficiency(range(fn.universe), fn.terminals, value)


# ---------------------------------------------------------------------------
# exact ring covers


def brute_force_ring_cover(members, head_arc, candidates):
    """Exact minimum-cost legs so that legs plus the head cover ``members``.

    ``candidates`` is a list of (key, tail, head, cost); the head arc is a
    bare (tail, head) or None.  Returns (cost, sorted keys) or None when some
    member cannot be covered at all.
    """
    members = [frozenset(m) for m in members]
    if head_arc is not None:
        members = [m for m in members if not enters(head_arc[0], head_arc[1], m)]
    if not members:
        return Fraction(0), ()
    if len(candidates) > 22:
        raise SizeRefusalError("too many candidate edges for exact ring cover")

    # Hitting-set view: each uncovered member constrains the selection to
    # include one of the edges entering it.  Mask-dominated constraints are
    # redundant.
    constraints = []
    for m in members:
        mask = 0
        for i, (_, tail, head, _) in enumerate(candidates):
            if enters(tail, head, m):
                mask |= 1 << i
        if mask == 0:
            return None
        constraints.append(mask)
    constraints = [
        c for c in set(constraints)
        if not any(other != c and other & c == other for other in set(constraints))
    ]
    constraints.sort(key=lambda c: (c.bit_count(), c))

    costs = [c for (_, _, _, c) in candidates]
    keys = [key for (key, _, _, _) in candidates]
    best: tuple[Fraction, tuple] | None = None

    def search(chosen_mask: int, cost: Fraction):
        nonlocal best
        if best is not None and cost > best[0]:
            return
        open_constraints = [c for c in constraints if not c & chosen_mask]
        if not open_constraints:
            key = tuple(sorted(keys[i] for i in range(len(candidates)) if chosen_mask >> i & 1))
            if best is None or cost < best[0] or (cost == best[0] and key < best[1]):
                best = (cost, key)
            return
        tightest = min(open_constraints, key=lambda c: (c.bit_count(), c))
        i = 0
        while tightest:
            if tightest & 1:
                search(chosen_mask | (1 << i), cost + costs[i])
            tightest >>= 1
            i += 1

    search(0, Fraction(0))
    return best


# ---------------------------------------------------------------------------
# structure certificates


class CertificateError(AssertionError):
    """A structural certificate could not be constructed."""


@dataclass(frozen=True)
class ChainCertificate:
    """Witness that a minimal ring cover tightens along a nested chain."""

    edges: tuple  # cover edge keys, innermost first
    sets: tuple[frozenset[int], ...]  # strictly nested, last one is the ring maximum


def nested_chain_certificate(members, cover) -> ChainCertificate:
    """Build the nested-chain witness for an inclusion-minimal ring cover.

    ``members`` lists the ring's sets, ``cover`` maps edge keys to (tail,
    head) arcs.  For each cover edge the sets it alone enters form a ring of
    witnesses; the minimal witnesses are pairwise comparable and order the
    edges, and the ring maximum caps the chain.  Raises CertificateError if
    the cover is not minimal or the structure does not materialize.
    """
    members = [frozenset(m) for m in members]
    if not members:
        raise CertificateError("empty ring")
    cover = dict(cover)
    if not cover:
        raise CertificateError("empty cover")

    core = frozenset.intersection(*members)
    maximal = frozenset.union(*members)
    if core not in members or maximal not in members:
        raise CertificateError("family has no unique minimum or maximum")

    def entered_by(m):
        return [key for key, (tail, head) in cover.items() if enters(tail, head, m)]

    for m in members:
        if not entered_by(m):
            raise CertificateError(f"set {sorted(m)} is uncovered")

    witnesses: dict = {key: [] for key in cover}
    for m in members:
        hits = entered_by(m)
        if len(hits) == 1:
            witnesses[hits[0]].append(m)
    minimal_witness = {}
    for key, ws in witnesses.items():
        if not ws:
            raise CertificateError(f"edge {key} has no private witness; cover not minimal")
        m_min = frozenset.intersection(*ws)
        if m_min not in ws:
            raise CertificateError(f"witnesses of edge {key} are not a ring")
        minimal_witness[key] = m_min

    ordered = sorted(minimal_witness.items(), key=lambda kv: len(kv[1]))
    chain_sets = []
    chain_edges = []
    prev = None
    for key, m in ordered:
        if prev is not None and not prev < m:
            raise CertificateError("minimal witnesses do not form a strict chain")
        prev = m
        chain_sets.append(m)
        chain_edges.append(key)

    if chain_sets[0] != core:
        raise CertificateError("chain does not start at the ring core")
    top_hits = entered_by(maximal)
    if len(top_hits) != 1 or top_hits[0] != chain_edges[-1]:
        raise CertificateError("ring maximum is not uniquely entered by the last edge")
    chain_sets[-1] = maximal

    for key, m in zip(chain_edges, chain_sets):
        if set(entered_by(m)) != {key}:
            raise CertificateError("chain set entered by more than its own edge")

    return ChainCertificate(tuple(chain_edges), tuple(chain_sets))
