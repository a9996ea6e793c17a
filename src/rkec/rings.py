"""Ring realization around a single core and its exact primal-dual cover.

For a core C at residual level l, the deficient sets that contain no other
core form a ring: they all contain C, and union/intersection stay inside.
The ring is never materialized.  Instead the working graph is extended with
saturating root arcs (capacity l) to every terminal of every other core,
which pushes all sets containing such terminals below the top level; that is
the core's context with no head (``core_ring_context``).  ``with_head`` adds
the candidate head edge at capacity one.  The remaining top-level sets are
exactly the ring members not already covered by the head, so each "minimal
violated set" query is one closest-cut computation at the core's
representative terminal, and the union of all ring members is the farthest
minimum cut there (``ring_maximum``).

The cover itself comes from dual ascent plus reverse delete.  Minimal
violated sets of a shrinking ring form a strictly increasing chain, so the
duals land on nested sets; the emitted certificate checks that chain and that
the dual total pays exactly for the surviving legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .deficiency import CoreInfo
from .flows import Arc, FlowView, farthest_sink_cut, instance_view, min_violated_cut
from .instance import Instance, Unit


@dataclass(frozen=True)
class RingContext:
    """Implicit ring for (core, head) over a fixed partial selection.

    A context without a head (``head is None``) prices the core's ring with
    the legs alone; ``with_head`` adds a head to it.
    """

    inst: Instance
    level: int
    target: CoreInfo
    head: Unit | None
    base_arcs: tuple[Arc, ...]  # working graph + saturating arcs (+ head)
    candidates: tuple[Unit, ...]  # one free unit per positive edge, head's edge excluded

    def _view(self, extra_units) -> FlowView:
        arcs = list(self.base_arcs)
        for u in sorted(extra_units):
            tail, head = self.inst.unit_arc(u)
            arcs.append(Arc(tail, head, 1))
        return FlowView(self.inst.node_count, arcs)


def saturating_arcs(inst: Instance, all_cores, target: CoreInfo, level: int) -> list[Arc]:
    """Capacity-``level`` root arcs onto every terminal of every other core.

    A saturated terminal drags every set containing it below the top level,
    and a top-level set free of other cores' terminals contains no other core,
    so exactly the target's ring survives at the top.
    """
    arcs = []
    for core in all_cores:
        if core.members == target.members:
            continue
        for t in sorted(core.members & inst.terminals):
            arcs.append(Arc(inst.root, t, level, synthetic=True))
    return arcs


def free_leg_candidates(inst: Instance, units) -> tuple[Unit, ...]:
    """Lowest free copy of each positive edge.

    A second parallel copy can never help cover a ring (each member only needs
    one entering edge), so one candidate per edge id suffices.
    """
    taken: dict[int, int] = {}
    for eid, _ in units:
        taken[eid] = taken.get(eid, 0) + 1
    out = []
    for e in sorted(inst.positive_edges, key=lambda e: e.id):
        used = taken.get(e.id, 0)
        if used < e.mult:
            out.append((e.id, used))
    return tuple(out)


def core_ring_context(
    inst: Instance,
    working,
    candidates,
    all_cores,
    target: CoreInfo,
    level: int,
) -> RingContext:
    """The target's ring with no head, over prebuilt working arcs and candidates.

    ``working`` is the arc list of ``instance_view`` for the selection and
    ``candidates`` its ``free_leg_candidates``; both are shared by every core
    and every head of one star selection.
    """
    base = tuple(working) + tuple(saturating_arcs(inst, all_cores, target, level))
    return RingContext(inst, level, target, None, base, tuple(candidates))


def with_head(ctx: RingContext, head: Unit) -> RingContext:
    """The same ring with ``head`` riding along at cost zero.

    The head's arc joins the base at capacity one and its edge leaves the
    candidates: a second copy of it never helps.
    """
    tail, head_node = ctx.inst.unit_arc(head)
    return RingContext(
        ctx.inst,
        ctx.level,
        ctx.target,
        head,
        ctx.base_arcs + (Arc(tail, head_node, 1),),
        tuple(u for u in ctx.candidates if u[0] != head[0]),
    )


def build_ring_context(
    inst: Instance,
    units,
    all_cores,
    target: CoreInfo,
    head: Unit,
    level: int,
) -> RingContext:
    base = core_ring_context(
        inst,
        instance_view(inst, units).arcs,
        free_leg_candidates(inst, units),
        all_cores,
        target,
        level,
    )
    return with_head(base, head)


def ring_maximum(ctx: RingContext) -> frozenset[int]:
    """A node set holding every member of the context's ring.

    Ring members are the minimum root-representative cuts of the base graph,
    so all of them lie inside the farthest one's sink side; when the base
    already meets the target there are no members at all.  One max-flow.
    """
    view = ctx._view(())
    return farthest_sink_cut(view, ctx.inst.root, ctx.target.representative)[1]


def min_violated_set(ctx: RingContext, legs) -> frozenset[int] | None:
    """Inclusion-minimal ring member not covered by the head or ``legs``.

    The representative terminal sits in every ring member, so one closest-cut
    query at it decides coverage: the ring is covered exactly when the cut
    value has climbed past k - level.
    """
    view = ctx._view(legs)
    bound = ctx.inst.k - ctx.level + 1
    return min_violated_cut(view, ctx.inst.root, ctx.target.representative, bound)


@dataclass(frozen=True)
class DualStep:
    raised: frozenset[int]
    amount: Fraction
    tightened: Unit


@dataclass(frozen=True)
class RingCover:
    legs: tuple[Unit, ...]
    cost: Fraction
    duals: tuple[DualStep, ...]
    certificate_ok: bool


def _certificate(ctx: RingContext, legs, duals) -> bool:
    """Strong-duality self-check: nested positive duals, each paid by exactly
    one surviving leg, dual total equal to the leg cost."""
    prev = None
    for step in duals:
        if prev is not None and not prev < step.raised:
            return False
        prev = step.raised
    total = Fraction(0)
    arcs = {u: ctx.inst.unit_arc(u) for u in legs}
    for step in duals:
        if step.amount < 0:
            return False
        if step.amount == 0:
            continue
        entering = [
            u for u, (tail, head) in arcs.items()
            if head in step.raised and tail not in step.raised
        ]
        if len(entering) != 1:
            return False
        total += step.amount
    return total == ctx.inst.units_cost(legs)


def primal_dual_ring_cover(ctx: RingContext) -> RingCover | None:
    """Exact minimum-cost legs so that legs + head cover the ring.

    Dual ascent: raise the minimal violated set until some entering candidate
    goes tight (ties to the smallest unit), add it, repeat.  Then delete
    redundant edges in reverse tightening order.  Returns None when some ring
    member has no entering candidate at all.
    """
    inst = ctx.inst
    reduced = {u: inst.unit_cost(u) for u in ctx.candidates}
    arcs = {u: inst.unit_arc(u) for u in ctx.candidates}
    tight_order: list[Unit] = []
    chosen: set[Unit] = set()
    duals: list[DualStep] = []

    while (violated := min_violated_set(ctx, chosen)) is not None:
        entering = [
            u for u in ctx.candidates
            if u not in chosen
            and arcs[u][1] in violated and arcs[u][0] not in violated
        ]
        if not entering:
            return None  # unpriceable: the ring cannot be covered from here
        eps = min(reduced[u] for u in entering)
        pick = min(u for u in entering if reduced[u] == eps)
        for u in entering:
            reduced[u] -= eps
        duals.append(DualStep(violated, eps, pick))
        tight_order.append(pick)
        chosen.add(pick)

    keep = list(tight_order)
    for u in reversed(tight_order):
        trial = [v for v in keep if v != u]
        if min_violated_set(ctx, trial) is None:
            keep = trial

    legs = tuple(sorted(keep))
    cost = inst.units_cost(legs)
    return RingCover(legs, cost, tuple(duals), _certificate(ctx, legs, duals))
