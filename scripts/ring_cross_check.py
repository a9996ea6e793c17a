#!/usr/bin/env python3
"""Stress the star pricing against fresh ring flows and exhaustive enumeration.

Usage: python scripts/ring_cross_check.py [--seeds N] [--per-state HEADS]

Random small instances, their positive costs divided by a drawn denominator,
are driven into random partial-selection states: one of the instance itself
and one of the instance with a drawn positive edge removed, where a ring
member can lose its last entering leg and so exercise the unpriceable case.
Each state goes through ``check_state`` of the tests' ``reference``, which
prices its first HEADS free heads through the solver's own pricing and
compares every (core, head) pair with a ring flow built afresh and with the
exact ring-cover oracle.  Each instance and its cut copy are also solved
through ``check_reused_covers``, which compares every ring cover the solve
reuses at a later star with one priced afresh there.  Prints each mismatch
either check reports and the counts; exits 1 on any mismatch.
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
from rkec.generate import GenParams, generate_instance  # noqa: E402
from rkec.instance import Instance  # noqa: E402

from reference import check_reused_covers, check_state, positive_units  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_size_cap, default=200)
    parser.add_argument("--per-state", type=_size_cap, default=3)
    args = parser.parse_args(argv)

    t0 = time.time()
    contexts = mismatches = unpriceable = reused = reuse_mismatches = 0
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
            tuple(e._replace(cost=e.cost / denominator) for e in inst.edges), inst.k,
        )
        cases = [(inst, frozenset(u for u in positive_units(inst) if rng.random() < 0.3))]
        if inst.positive_edges:
            dropped = rng.choice(inst.positive_edges)
            cut = replace(inst, edges=tuple(e for e in inst.edges if e != dropped))
            cases.append((cut, frozenset(u for u in positive_units(cut) if rng.random() < 0.3)))
        for case, state in cases:
            counts = check_state(case, state, args.per_state)
            contexts += counts[0]
            unpriceable += counts[1]
            mismatches += len(counts[2])
            for line in counts[2]:
                print(f"MISMATCH seed={seed} {line}")
            checked, lines = check_reused_covers(case)
            reused += checked
            reuse_mismatches += len(lines)
            for line in lines:
                print(f"MISMATCH seed={seed} reused {line}")

    print(
        f"{contexts} contexts in {time.time() - t0:.1f}s: "
        f"{mismatches} mismatches, {unpriceable} unpriceable"
    )
    print(f"{reused} reused covers: {reuse_mismatches} mismatches")
    return 1 if mismatches or reuse_mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
