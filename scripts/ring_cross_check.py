#!/usr/bin/env python3
"""Stress the primal-dual ring cover against exhaustive enumeration.

Usage: python scripts/ring_cross_check.py [--seeds N] [--per-state HEADS]

Random small instances, their positive costs divided by a drawn denominator,
are driven into random partial-selection states; every (core, head) pair gets
priced three ways, and the costs must agree as exact rationals: by the
primal-dual on a ring context built afresh for the pair (``fresh_context``),
by the path the solver runs (``greedy.pricing_context``: the core's shared no-head price for a
head it calls irrelevant, else a primal-dual on ``with_head`` of the core's
shared ring), and by the exact hitting-set search over rational costs.  The
primal-dual covers cost integers in units of 1/``cost_scale``, so they are
rescaled before the comparison.  A cover that fails its certificate raises,
and counts as a mismatch.  So does a pair whose skip-test floor
(``CorePricing.floor``, rescaled the same way) exceeds its exact price.
"""

import argparse
import random
import time
from dataclasses import replace
from fractions import Fraction

from rkec.deficiency import rooted_cores
from rkec.exact import brute_force_ring_cover, enumerate_arc_family
from rkec.flows import working_arcs
from rkec.generate import GenParams, generate_instance
from rkec.greedy import pricing_context
from rkec.instance import Instance
from rkec.rings import (
    core_ring_context,
    free_leg_candidates,
    index_legs,
    primal_dual_ring_cover,
    saturating_arcs,
    with_head,
)


def fresh_context(inst, state, cores, core, head, level):
    """The (core, head) ring context of ``state``, built from nothing."""
    legs = index_legs(inst, free_leg_candidates(inst, state))
    base = core_ring_context(inst, working_arcs(inst, state), legs, cores, core, level)
    return with_head(base, head)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--per-state", type=int, default=3)
    args = parser.parse_args(argv)

    t0 = time.time()
    contexts = mismatches = unpriceable = 0
    for seed in range(1, args.seeds + 1):
        rng = random.Random(seed)
        inst = generate_instance(GenParams(
            nodes=rng.randint(4, 8),
            terminals=rng.randint(1, 3),
            k=rng.randint(1, 2),
            density=Fraction(2, 5),
            seed=seed,
            max_units=18,
        ))
        denominator = rng.randint(1, 6)
        inst = Instance(
            inst.node_count, inst.root, inst.terminals,
            tuple(replace(e, cost=e.cost / denominator) for e in inst.edges), inst.k,
        )
        scale = inst.cost_scale
        universe = [v for v in range(inst.node_count) if v != inst.root]
        units = list(inst.positive_units)
        state = frozenset(u for u in units if rng.random() < 0.3)
        cores = rooted_cores(inst, state)
        if not cores:
            continue
        level = cores[0].deficiency
        heads = free_leg_candidates(inst, state)
        try:
            pricing = pricing_context(inst, state, cores, level)
        except AssertionError as exc:  # a shared cover failed its certificate
            mismatches += 1
            print(f"MISMATCH seed={seed}: {exc}")
            continue
        for head in heads[: args.per_state]:
            for core, p in zip(cores, pricing):
                ctx = fresh_context(inst, state, cores, core, head, level)
                bare = []  # the ring's graph without the head
                for arc in working_arcs(inst, state) + saturating_arcs(inst, cores, core, level):
                    bare.extend([(arc.tail, arc.head)] * arc.cap)
                ring = enumerate_arc_family(
                    universe, inst.terminals, inst.k, bare
                ).ring_view(core.members)
                exact = brute_force_ring_cover(
                    ring.members,
                    inst.unit_arc(head),
                    [
                        (u, *inst.unit_arc(u), inst.unit_cost(u))
                        for u in heads
                        if u[0] != head[0]
                    ],
                )
                contexts += 1
                try:
                    fresh = primal_dual_ring_cover(ctx)
                    if p.relevant(inst.unit_arc(head)):
                        solver = primal_dual_ring_cover(with_head(p.ring, head))
                    else:
                        solver = p.shared
                except AssertionError as exc:  # a cover failed its certificate
                    print(f"seed={seed}: {exc}")
                    bad = True
                else:
                    if exact is None:
                        unpriceable += 1
                        bad = fresh is not None or solver is not None
                    else:
                        bad = any(
                            cover is None or Fraction(cover.cost, scale) != exact[0]
                            for cover in (fresh, solver)
                        ) or Fraction(p.floor(inst.unit_arc(head)), scale) > exact[0]
                if bad:
                    mismatches += 1
                    print(f"MISMATCH seed={seed} core={sorted(core.members)} head={head}")

    print(
        f"{contexts} contexts in {time.time() - t0:.1f}s: "
        f"{mismatches} mismatches, {unpriceable} unpriceable"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
