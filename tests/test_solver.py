import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec.deficiency import rooted_max_level
from rkec.exact import brute_force_opt
from rkec.instance import Edge, InfeasibleError, Instance
from rkec import solver
from rkec.solver import (
    harmonic,
    initial_floor,
    parse_report,
    report_to_json,
    solve,
)
from rkec.verify import bound_decision, check_feasible

from conftest import small_random_instance


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_fixture_solve(instance_a):
    report = solve(instance_a)
    assert report.solution.total_cost == 4
    assert report.solution.feasible
    assert len(report.phases) == 1
    assert len(report.solution.audit) == 1
    assert report.bound_harmonic == 1  # deficiency one, H(1)
    assert report.terminal_count == 2


def test_already_feasible_graph():
    inst = Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(0), 2),), 2)
    report = solve(inst)
    assert report.solution.total_cost == 0
    assert report.phases == []
    assert report.bound_harmonic == 0


def test_k2_variant(instance_a_k2):
    report = solve(instance_a_k2)
    assert report.solution.total_cost == 4
    assert report.solution.connectivity == {2: 2, 3: 2}
    assert [ph.level for ph in report.phases] == [1]
    assert initial_floor(instance_a_k2) == 1


def test_infeasible_instance_raises():
    inst = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(1)),), 1)
    with pytest.raises(InfeasibleError) as exc:
        solve(inst)
    assert exc.value.terminal == 2


def test_idempotence(instance_a):
    # re-solving with the previous answer folded into the free graph is free
    first = solve(instance_a)
    extra = tuple(
        Edge(100 + eid, *instance_a.unit_arc((eid, 0)), Fraction(0), count)
        for eid, count in first.solution.selected.items()
    )
    again = Instance(
        instance_a.node_count, instance_a.root, instance_a.terminals,
        instance_a.edges + extra, instance_a.k,
    )
    report = solve(again)
    assert report.solution.total_cost == 0 and report.solution.selected == {}


def test_prune_flag(instance_a):
    report = solve(instance_a, prune=True)
    assert report.pruned is not None
    assert report.pruned.feasible
    assert report.pruned.total_cost <= report.solution.total_cost


def test_report_round_trip(instance_a):
    report = solve(instance_a)
    again = parse_report(report_to_json(report))
    assert report_to_json(again) == report_to_json(report)
    assert again.solution == report.solution
    assert [ph.level for ph in again.phases] == [ph.level for ph in report.phases]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_solution_always_feasible(seed):
    inst = small_random_instance(random.Random(seed))
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    _, ok = check_feasible(inst, report.solution)
    assert ok
    # the union of the phase additions is exactly the selection
    phase_units = [u for ph in report.phases for u in ph.added]
    assert sorted(phase_units) == list(report.solution.units())
    # phases descend strictly in level
    levels = [ph.level for ph in report.phases]
    assert levels == sorted(levels, reverse=True) and len(set(levels)) == len(levels)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_phase_postcondition_level_descends(seed):
    inst = small_random_instance(random.Random(seed))
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    units: list = []
    for ph in report.phases:
        units.extend(ph.added)
        assert rooted_max_level(inst, units) <= ph.level - 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_ratio_bound_against_optimum(seed):
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    if len(inst.positive_units) > 14:
        return
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    opt = brute_force_opt(inst)
    holds, _, _ = bound_decision(
        report.solution.total_cost, opt.total_cost,
        report.bound_harmonic, report.terminal_count,
    )
    assert holds
    assert report.bound_harmonic == harmonic(inst.k - initial_floor(inst))


def test_solve_checks_final_feasibility(instance_a, monkeypatch):
    # the check must be a raise, not an assert that ``python -O`` strips
    monkeypatch.setattr(solver, "_connectivity", lambda inst, units: {2: 0, 3: 1})
    with pytest.raises(AssertionError, match="short of k"):
        solve(instance_a)
