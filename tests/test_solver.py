import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec import greedy, solver
from rkec.exact import brute_force_opt
from rkec.flows import short_terminal, solution_of
from rkec.generate import GenParams, default_corpus_params, generate_instance
from rkec.instance import (
    Edge,
    InfeasibleError,
    Instance,
    dump_json,
    load_object,
    selection_from_units,
)
from rkec.solver import (
    harmonic,
    phases_doc,
    prune_solution,
    report_from_doc,
    report_to_doc,
    solve,
)
from rkec.verify import bound_decision, check_feasible

from conftest import INSTANCE_A_JSON, small_random_instance
from reference import positive_units, pruned_by_units, rooted_max_level, run_optimized


def phases(report):
    """The report's phases, as its document derives them from the records."""
    return phases_doc(report.solution.audit)


def free_floor(inst):
    """The connectivity the zero-cost subgraph already gives, capped at k."""
    return min(min(solution_of(inst, {}).connectivity.values()), inst.k)


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
    assert len(phases(report)) == 1
    assert len(report.solution.audit) == 1
    assert report.bound_harmonic == 1  # deficiency one, H(1)
    assert report.terminal_count == 2


def test_already_feasible_graph():
    inst = Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(0), 2),), 2)
    report = solve(inst)
    assert report.solution.total_cost == 0
    assert phases(report) == []
    assert report.bound_harmonic == 0


def test_k2_variant(instance_a_k2):
    report = solve(instance_a_k2)
    assert report.solution.total_cost == 4
    assert report.solution.connectivity == {2: 2, 3: 2}
    assert [ph["level"] for ph in phases(report)] == [1]
    assert free_floor(instance_a_k2) == 1
    assert report.bound_harmonic == harmonic(instance_a_k2.k - free_floor(instance_a_k2))


def test_infeasible_instance_raises():
    inst = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(1)),), 1)
    with pytest.raises(InfeasibleError) as exc:
        solve(inst)
    assert exc.value.terminal == 2
    short = short_terminal(inst, selection_from_units(positive_units(inst)), inst.k)
    assert (exc.value.terminal, exc.value.achieved, exc.value.required) == (*short, inst.k)


def test_an_instance_can_fail_after_a_bought_star(monkeypatch):
    # level 2 prices both rings, and a star is bought; at level 1 the ring
    # of terminal 2 needs a second entering unit that no edge has
    inst = Instance(3, 0, frozenset({1, 2}), (
        Edge(1, 0, 1, Fraction(1), 2),
        Edge(2, 0, 2, Fraction(1), 1),
    ), 2)
    stars = []
    real = greedy.cheapest_star

    def spy(*args):
        stars.append(real(*args))
        return stars[-1]

    monkeypatch.setattr(greedy, "cheapest_star", spy)
    with pytest.raises(InfeasibleError) as exc:
        solve(inst)
    assert (exc.value.terminal, exc.value.achieved, exc.value.required) == (2, 1, 2)
    assert len(stars) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_solve_raises_exactly_on_an_infeasible_instance(seed):
    # the greedy is the solver's only feasibility check: it raises exactly
    # when every positive unit leaves some terminal short, naming the first
    # such terminal and its path count
    inst = small_random_instance(random.Random(seed), max_nodes=7, max_k=3)
    short = short_terminal(inst, selection_from_units(positive_units(inst)), inst.k)
    try:
        solve(inst)
    except InfeasibleError as exc:
        assert (exc.terminal, exc.achieved, exc.required) == (*short, inst.k)
    else:
        assert short is None


def test_idempotence(instance_a):
    # re-solving with the previous answer folded into the free graph is free
    first = solve(instance_a)
    extra = tuple(
        Edge(100 + eid, *instance_a.arc(eid), Fraction(0), count)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_count_prune_equals_the_unit_list_prune(seed):
    # every positive edge has two or three copies, so a trial often takes
    # one copy off an edge whose other copies stay: the count decrements
    # must keep the selection (and cost) that dropping units from a list
    # keeps, on the greedy's units and on every unit in a random order
    rng = random.Random(seed)
    inst = small_random_instance(rng, max_nodes=5, max_k=3)
    inst = replace(inst, edges=tuple(
        replace(e, mult=rng.randint(2, 3)) if e.cost > 0 else e for e in inst.edges
    ))
    try:
        records = solve(inst).solution.audit
    except InfeasibleError:
        return
    every = list(positive_units(inst))
    rng.shuffle(every)
    for units in ([u for rec in records for u in rec.added_units], every):
        fast, slow = prune_solution(inst, units), pruned_by_units(inst, units)
        assert fast.selected == slow.selected and fast.total_cost == slow.total_cost
        assert fast == slow


def test_report_round_trip(instance_a):
    report = solve(instance_a)
    text = dump_json(report_to_doc(report))
    again = report_from_doc(load_object(text, "report document"))
    assert dump_json(report_to_doc(again)) == text
    assert again.solution == report.solution
    assert [ph["level"] for ph in phases(again)] == [ph["level"] for ph in phases(report)]


# sha256 of the (120, 40, 3) ladder report, ``dump_json(report_to_doc(...))``
LADDER_REPORT_SHA256 = "128dd007ee6f9e2e7cf4ff9481f14ff72f6231d8bd87fff0f02220967856baac"


def test_a_ladder_report_is_pinned():
    # the corpus never reaches rings of 40 terminals, so a tie-break slip
    # there would pass the corpus digest; this report's bytes are pinned
    inst = generate_instance(GenParams(120, 40, 3, density=Fraction(3, 10), root_bias=2, seed=1))
    text = dump_json(report_to_doc(solve(inst)))
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_REPORT_SHA256


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_solution_always_feasible(seed):
    inst = small_random_instance(random.Random(seed))
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    assert check_feasible(inst, report.solution).feasible
    # the union of the phase additions is exactly the selection, each edge's
    # copies numbered in purchase order
    phase_units = [tuple(u) for ph in phases(report) for u in ph["added_units"]]
    assert [copy for _, copy in phase_units] == [
        [eid for eid, _ in phase_units[:i]].count(eid) for i, (eid, _) in enumerate(phase_units)
    ]
    assert selection_from_units(phase_units) == report.solution.selected
    # phases descend strictly in level
    levels = [ph["level"] for ph in phases(report)]
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
    for ph in phases(report):
        units.extend(tuple(u) for u in ph["added_units"])
        assert rooted_max_level(inst, units) <= ph["level"] - 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_ratio_bound_against_optimum(seed):
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    if len(positive_units(inst)) > 14:
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
    assert report.bound_harmonic == harmonic(inst.k - free_floor(inst))


def test_solve_checks_final_feasibility(instance_a, monkeypatch):
    # the check must be a raise, not an assert that ``python -O`` strips
    real = solver.solution_of
    monkeypatch.setattr(solver, "solution_of", lambda *args: replace(
        real(*args), connectivity={2: 0, 3: 1}, feasible=False))
    with pytest.raises(AssertionError, match="short of k"):
        solve(instance_a)


_FORCED_SHORT_UNDER_O = f"""
from dataclasses import replace
from rkec import solver
from rkec.instance import parse_instance

assert False, "asserts must be stripped in this interpreter"
real = solver.solution_of
solver.solution_of = lambda *args: replace(real(*args), connectivity={{2: 0, 3: 1}}, feasible=False)
try:
    solver.solve(parse_instance({INSTANCE_A_JSON!r}))
except AssertionError as exc:
    print("raised:", exc)
"""


def test_solve_checks_final_feasibility_under_python_O():
    # the same forced failure in an interpreter that strips ``assert``
    proc = run_optimized(_FORCED_SHORT_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: greedy selection leaves a terminal short of k")


def test_solve_queries_the_cores_of_each_state_once(monkeypatch, residual_builds):
    # one query for the start state and one after each bought star, over
    # three phases (levels 3, 2 and 1).  The queries read the flows the
    # greedy carries, so a solve builds 2 |T| residuals: the carried ones
    # and those of ``solution_of``.
    inst = generate_instance(GenParams(
        nodes=7, terminals=2, k=3, density=Fraction(9, 20), root_bias=Fraction(2), seed=3,
    ))
    real = greedy.cores_of
    calls = []

    def counting(inst, carried):
        # a state is told apart by its flows' arc counts: each star adds arcs
        calls.append(tuple(len(flow.cap) for flow in carried.values()))
        return real(inst, carried)

    monkeypatch.setattr(greedy, "cores_of", counting)
    residual_builds.clear()
    report = solve(inst)
    assert [ph["level"] for ph in phases(report)] == [3, 2, 1]
    assert len(calls) == len(report.solution.audit) + 1
    assert len(set(calls)) == len(calls)
    assert len(residual_builds) == 2 * len(inst.terminals)


@pytest.mark.parametrize("factor", [Fraction(1, 7), Fraction(5, 3)], ids=str)
def test_scaling_every_cost_scales_the_run(factor):
    # pricing runs in integers over the instance's cost scale, so one factor
    # on every cost must leave every choice (greedy and optimum) as it was
    for seed in range(1, 21):
        inst = generate_instance(default_corpus_params(seed))
        scaled = Instance(
            inst.node_count, inst.root, inst.terminals,
            tuple(replace(e, cost=e.cost * factor) for e in inst.edges), inst.k,
        )
        assert scaled.cost_scale > 1
        plain, run = solve(inst).solution, solve(scaled).solution
        assert run.selected == plain.selected
        assert run.total_cost == factor * plain.total_cost
        assert [r.added_units for r in run.audit] == [r.added_units for r in plain.audit]
        assert [r.added_cost for r in run.audit] == [factor * r.added_cost for r in plain.audit]
        plain_opt, opt = brute_force_opt(inst), brute_force_opt(scaled)
        assert opt.selected == plain_opt.selected
        assert opt.total_cost == factor * plain_opt.total_cost
