#!/usr/bin/env python3
"""Stress the primal-dual ring cover against exhaustive enumeration.

Usage: python scripts/ring_cross_check.py [--seeds N] [--per-state HEADS]

Random small instances, their positive costs divided by a drawn denominator,
are driven into random partial-selection states: one of the instance itself
and one of the instance with a drawn positive edge removed, where a ring
member can lose its last entering leg and so exercise the unpriceable case.
Every (core, head) pair gets priced three ways: by the primal-dual on a ring
flow built afresh for the pair (``fresh_cover`` of the tests' ``reference``:
a new residual over the working and saturating arcs), by the solver's own
pricing (``greedy.pricing_context`` over the state's root flows, then
``greedy.head_pairs`` with the touched cores ``StarPricing.head_bound``
finds), and by the exact hitting-set search over rational costs (the tests'
``reference.exact_ring_cover``).  A state whose pricing context raises
``InfeasibleError`` has no solver path: the raise must be the one
``flows.require_feasible`` raises for the instance, and its pairs are
priced fresh and exactly only.  The solver's cover must equal the fresh one
whole (legs, cost and dual chain), and their cost must equal the exact one
as a rational: the primal-dual covers cost integers in units of
1/``cost_scale``, so they are rescaled before the comparison.  A cover
that fails its certificate raises, and counts as a mismatch.  So does a
cover whose dual overpays some candidate leg (``overpaid_candidates`` of
the tests' ``reference``), a pair whose skip-test floor (``head_bound``'s,
rescaled the same way) exceeds its exact price, and an unpriceable pair
that either primal-dual still prices.
"""

import argparse
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rkec.cli import _size_cap  # noqa: E402
from rkec.deficiency import cores_of  # noqa: E402
from rkec.flows import require_feasible, root_flows  # noqa: E402
from rkec.generate import GenParams, generate_instance  # noqa: E402
from rkec.greedy import head_pairs, pricing_context  # noqa: E402
from rkec.instance import InfeasibleError, Instance, selection_from_units  # noqa: E402

from reference import (  # noqa: E402
    exact_ring_cover,
    free_leg_candidates,
    fresh_cover,
    overpaid_candidates,
    positive_units,
)


def check_state(inst, state, per_state, seed):
    """Price the first ``per_state`` heads of ``state`` against every core;
    returns (contexts, mismatches, unpriceable)."""
    contexts = mismatches = unpriceable = 0
    scale = inst.cost_scale
    taken = selection_from_units(state)
    flows = dict(root_flows(inst, taken, inst.k))  # as the greedy carries them
    cores = cores_of(inst, flows)[1]
    if not cores:
        return contexts, mismatches, unpriceable
    heads = free_leg_candidates(inst, state)
    try:
        pricing = pricing_context(inst, flows, taken, cores)
    except AssertionError as exc:  # a shared cover failed its certificate
        print(f"MISMATCH seed={seed}: {exc}")
        return contexts, 1, unpriceable
    except InfeasibleError as exc:  # some core's ring is uncoverable
        pricing = None
        try:
            require_feasible(inst)
        except InfeasibleError as expected:
            exc = None if expected.args == exc.args else exc
        if exc is not None:
            print(f"MISMATCH seed={seed}: {exc}")
            mismatches += 1
    for head in heads[:per_state]:
        touched = pricing.head_bound(inst.arc(head))[0] if pricing else []
        floors = {core: floor for (core, _), floor in touched}
        for core in cores:
            exact = exact_ring_cover(inst, state, cores, core, head)[2]
            contexts += 1
            floor = floors.get(core)  # None: the pair reuses the shared cover
            try:
                fresh = fresh_cover(inst, state, cores, core, head)
                if pricing is None:
                    solver = fresh  # no solver path to compare
                else:
                    solver = dict(head_pairs(inst, flows, taken, pricing, head, touched))[core]
            except AssertionError as exc:  # a cover failed its certificate
                print(f"seed={seed}: {exc}")
                bad = True
            else:
                if exact is None:
                    unpriceable += 1
                    bad = fresh is not None or solver is not None
                else:
                    bad = (
                        solver != fresh
                        or fresh is None
                        or Fraction(fresh.cost, scale) != exact[0]
                        or overpaid_candidates(inst, state, fresh, head) != []
                        or (floor is not None and Fraction(floor, scale) > exact[0])
                    )
            if bad:
                mismatches += 1
                print(f"MISMATCH seed={seed} core={sorted(core.members)} head={head}")
    return contexts, mismatches, unpriceable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_size_cap, default=200)
    parser.add_argument("--per-state", type=_size_cap, default=3)
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
        cases = [(inst, frozenset(u for u in positive_units(inst) if rng.random() < 0.3))]
        if inst.positive_edges:
            dropped = rng.choice(inst.positive_edges)
            cut = replace(inst, edges=tuple(e for e in inst.edges if e != dropped))
            cases.append((cut, frozenset(u for u in positive_units(cut) if rng.random() < 0.3)))
        for case, state in cases:
            counts = check_state(case, state, args.per_state, seed)
            contexts += counts[0]
            mismatches += counts[1]
            unpriceable += counts[2]

    print(
        f"{contexts} contexts in {time.time() - t0:.1f}s: "
        f"{mismatches} mismatches, {unpriceable} unpriceable"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
