"""Acceptance gate: the release criteria, one printed pass/fail line each.

The corpus is 500 deterministic seeds of small instances (at most 10 nodes,
4 terminals, k = 3, 22 positive edge units).  Everything is computed once in
session fixtures and shared across the criteria.  Run with ``pytest -s`` to
see the per-criterion lines.
"""

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from rkec.exact import brute_force_opt
from rkec.generate import default_corpus_params, generate_instance
from rkec.instance import Instance, Solution, dump_json
from rkec.solver import SolveReport, report_to_doc, solve
from rkec.verify import audit_run, bound_decision, check_feasible

from oracles import enumerate_rooted, nested_chain_certificate, tabulate_rooted
from reference import (
    check_state,
    enumerated_ring,
    free_leg_candidates,
    fresh_cover,
    positive_units,
    rooted_cores,
    rooted_max_level,
)

CORPUS_SEEDS = range(1, 501)
RING_SAMPLE_TARGET = 2000


@dataclass
class Run:
    seed: int
    inst: Instance
    report: SolveReport
    opt: Solution
    solve_seconds: float


@pytest.fixture(scope="session")
def corpus():
    runs = []
    for seed in CORPUS_SEEDS:
        inst = generate_instance(default_corpus_params(seed))
        t0 = time.perf_counter()
        report = solve(inst)
        elapsed = time.perf_counter() - t0
        opt = brute_force_opt(inst, max_units=22)
        runs.append(Run(seed, inst, report, opt, elapsed))
    return runs


def iteration_states(run: Run):
    """(selection before the iteration, record) for every greedy iteration."""
    selected: list = []
    for rec in run.report.solution.audit:
        yield tuple(selected), rec
        selected.extend(rec.added_units)


def ring_samples(corpus):
    """Deterministic (instance, head, enumerated ring, primal-dual cover)
    samples: three heads of every corpus state, each with every core."""
    for run in corpus:
        inst = run.inst
        for state, rec in iteration_states(run):
            cores = rooted_cores(inst, state)
            heads = free_leg_candidates(inst, state)
            picked = {heads[0], heads[len(heads) // 2], rec.star_center}
            rings = {core: enumerated_ring(inst, state, cores, core)[1] for core in cores}
            for head in sorted(picked):
                if head not in heads:
                    continue
                for core in cores:
                    cover = fresh_cover(inst, state, cores, core, head)
                    yield inst, head, rings[core], cover


def test_c1_feasibility_everywhere(corpus):
    total = sum(run.solve_seconds for run in corpus)
    bad = []
    for run in corpus:
        if not check_feasible(run.inst, run.report.solution).feasible:
            bad.append(run.seed)
    line = (
        f"[acceptance] C1 feasibility: {'PASS' if not bad and total < 60 else 'FAIL'} "
        f"({len(corpus)} instances, solve time {total:.1f}s < 60s)"
    )
    print(line)
    assert not bad, f"infeasible outputs on seeds {bad}"
    assert total < 60, f"solve time {total:.1f}s exceeds the budget"


def test_c2_ratio_bound(corpus):
    violations = []
    ratios = []
    for run in corpus:
        holds, _, _ = bound_decision(
            run.report.solution.total_cost,
            run.opt.total_cost,
            run.report.bound_harmonic,
            run.report.terminal_count,
        )
        if not holds:
            violations.append(run.seed)
        if run.opt.total_cost:
            ratios.append(run.report.solution.total_cost / run.opt.total_cost)
    ratios.sort()
    dist = (
        f"min {float(ratios[0]):.3f} / median {float(ratios[len(ratios) // 2]):.3f} / "
        f"mean {float(sum(ratios) / len(ratios)):.3f} / max {float(ratios[-1]):.3f}, "
        f"{sum(1 for r in ratios if r == 1)} at optimum"
    )
    print(
        f"[acceptance] C2 ratio bound: {'PASS' if not violations else 'FAIL'} "
        f"(0 violations tolerated; ratio distribution: {dist})"
    )
    assert not violations, f"ratio bound violated on seeds {violations}"


def test_c3_ring_cover_exactness(corpus):
    # ``reference.check_state`` on corpus states, three heads each: the
    # solver's ring prices against fresh ring flows and the exact oracle
    t0 = time.perf_counter()
    contexts = unpriceable = 0
    mismatches = []
    for run in corpus:
        if contexts >= RING_SAMPLE_TARGET * 5 // 4:
            break
        for state, rec in iteration_states(run):
            assert rooted_max_level(run.inst, state) == rec.phase_level
            counts = check_state(run.inst, state, 3)
            contexts += counts[0]
            unpriceable += counts[1]
            mismatches += [f"seed={run.seed} {line}" for line in counts[2]]
    elapsed = time.perf_counter() - t0
    ok = contexts >= RING_SAMPLE_TARGET and not mismatches and elapsed < 120
    print(
        f"[acceptance] C3 ring-cover exactness: {'PASS' if ok else 'FAIL'} "
        f"({contexts} contexts, {len(mismatches)} mismatches, {unpriceable} unpriceable, "
        f"{elapsed:.1f}s < 120s)"
    )
    assert contexts >= RING_SAMPLE_TARGET
    assert mismatches == []
    assert elapsed < 120


def test_c4_core_drop_rule(corpus):
    violations = []
    iterations = 0
    for run in corpus:
        for rec in run.report.solution.audit:
            iterations += 1
            if rec.cores_before - rec.cores_after < math.ceil(rec.leaf_count / 2):
                violations.append((run.seed, rec))
    print(
        f"[acceptance] C4 core-count drop: {'PASS' if not violations else 'FAIL'} "
        f"({iterations} iterations, {len(violations)} violations)"
    )
    assert not violations


def test_c5_density_rule(corpus):
    violations = []
    checked = 0
    for run in corpus:
        if len(positive_units(run.inst)) > 16:
            continue
        checked += 1
        audit = audit_run(run.inst, run.report, density_max_units=16)
        assert audit.density_checked
        bad = audit.density_violations
        if bad:
            violations.append((run.seed, bad))
    print(
        f"[acceptance] C5 density rule: {'PASS' if not violations else 'FAIL'} "
        f"({checked} instances replayed, {len(violations)} violations)"
    )
    assert checked > 0
    assert not violations


def test_c6_family_structure(corpus):
    small = [run for run in corpus if run.inst.node_count <= 8][:100]
    assert len(small) == 100, "sub-corpus too thin"
    mismatches = []
    states = 0
    for run in small:
        inst = run.inst
        for state, _ in iteration_states(run):
            states += 1
            family = enumerate_rooted(inst, state)
            cores = rooted_cores(inst, state)
            if [c.members for c in cores] != family.cores:
                mismatches.append((run.seed, "cores"))
            if not family.check_t_intersecting():
                mismatches.append((run.seed, "closure"))
            maximal = {}
            for core in family.cores:
                ring = family.ring_view(core)
                if not ring.is_ring:
                    mismatches.append((run.seed, "ring"))
                maximal[core] = ring.maximal
            pairs = list(maximal)
            for i, a in enumerate(pairs):
                for b in pairs[i + 1:]:
                    if maximal[a] & maximal[b] & inst.terminals:
                        mismatches.append((run.seed, "maximal overlap"))
    print(
        f"[acceptance] C6 family structure: {'PASS' if not mismatches else 'FAIL'} "
        f"({len(small)} instances, {states} states, {len(mismatches)} mismatches)"
    )
    assert not mismatches


def test_c7_residual_supermodularity():
    rng = random.Random(20240817)
    failures = 0
    tables = 0
    while tables < 200:
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)
        terminals = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        from rkec.instance import Edge

        edges = []
        next_id = 1
        for u in range(n):
            for v in range(1, n):
                if u != v and rng.random() < 0.35:
                    edges.append(Edge(next_id, u, v, Fraction(0), rng.randint(1, 2)))
                    next_id += 1
        inst = Instance(n, 0, frozenset(terminals), tuple(edges), k)
        fn = tabulate_rooted(inst)
        if not fn.table:
            continue
        tables += 1
        for _ in range(5):
            arcs = [
                (rng.randrange(n), rng.randrange(1, n))
                for _ in range(rng.randint(1, 6))
            ]
            arcs = [(u, v, 1) for u, v in arcs if u != v]
            try:
                fn.residual(arcs)  # constructor re-checks the inequality
            except Exception:
                failures += 1
    print(
        f"[acceptance] C7 residual supermodularity: "
        f"{'PASS' if failures == 0 else 'FAIL'} ({tables} tables x 5 residuals, "
        f"{failures} failures)"
    )
    assert failures == 0


def test_c8_chain_certificates(corpus):
    built = 0
    failures = []
    for inst, head, ring, cover in ring_samples(corpus):
        if cover is None:
            continue
        edges = {("leg", e): inst.arc(e) for e in cover.legs}
        edges[("head", head)] = inst.arc(head)
        # minimalize over the bare ring before certifying
        for key in sorted(edges):
            rest = {k: v for k, v in edges.items() if k != key}
            if rest and all(
                any(h in m and t not in m for t, h in rest.values())
                for m in ring.members
            ):
                edges = rest
        try:
            nested_chain_certificate(ring.members, edges)
            built += 1
        except AssertionError as exc:
            failures.append(str(exc))
        if built >= 600:
            break
    ok = built >= 200 and not failures
    print(
        f"[acceptance] C8 chain certificates: {'PASS' if ok else 'FAIL'} "
        f"({built} minimal covers certified, {len(failures)} failures)"
    )
    assert built >= 200
    assert not failures


def test_c9_phase_postcondition(corpus):
    violations = []
    phases = 0
    for run in corpus:
        units: list = []
        # a phase is a run of consecutive records at one level
        for level, records in itertools.groupby(
            run.report.solution.audit, key=lambda rec: rec.phase_level
        ):
            phases += 1
            units.extend(u for rec in records for u in rec.added_units)
            if rooted_max_level(run.inst, units) > level - 1:
                violations.append((run.seed, level))
    print(
        f"[acceptance] C9 phase postcondition: "
        f"{'PASS' if not violations else 'FAIL'} ({phases} phases, "
        f"{len(violations)} violations)"
    )
    assert not violations


# sha256 of every corpus report, ``dump_json(report_to_doc(...))``,
# concatenated in seed order: a refactor must not move one byte of them
CORPUS_REPORTS_SHA256 = "bd8f43a18b8297a1921937de5f65ab6b79d3eb4ad848741cd5a123803b5087f7"


def test_c10_determinism(corpus):
    diffs = []
    digest = hashlib.sha256()
    for run in corpus:
        repeat = solve(run.inst)
        text = dump_json(report_to_doc(run.report))
        if dump_json(report_to_doc(repeat)) != text:
            diffs.append(run.seed)
        digest.update(text.encode())
    pinned = digest.hexdigest() == CORPUS_REPORTS_SHA256
    print(
        f"[acceptance] C10 determinism: {'PASS' if not diffs and pinned else 'FAIL'} "
        f"({len(corpus)} re-solves byte-compared, {len(diffs)} diffs, "
        f"reports sha256 {digest.hexdigest()[:8]}…)"
    )
    assert not diffs
    assert pinned, digest.hexdigest()
