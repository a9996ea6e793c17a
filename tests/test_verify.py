import copy
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkec.exact import brute_force_opt
from rkec.generate import GenParams, default_corpus_params, generate_instance
from rkec.instance import (
    Edge,
    InfeasibleError,
    Instance,
    IterationRecord,
    ParseError,
    Solution,
    dump_json,
    frac_from_obj,
    selection_from_units,
)
from rkec.solver import SolveReport, report_from_doc, report_to_doc, solve
from rkec.verify import (
    audit_run,
    audit_to_doc,
    bound_decision,
    check_feasible,
    log_interval,
)

from conftest import small_random_instance
from reference import density_violations, path_packing_witness, positive_units, rebuild_phases


def test_check_feasible_fixture(instance_a):
    sol = Solution({1: 1, 2: 1, 3: 1}, Fraction(4), {}, True)
    rebuilt = check_feasible(instance_a, sol)
    assert rebuilt.feasible and rebuilt.connectivity == {2: 1, 3: 1}


def test_check_feasible_empty(instance_a):
    rebuilt = check_feasible(instance_a, Solution({}, Fraction(0), {}, False))
    assert not rebuilt.feasible and rebuilt.connectivity == {2: 0, 3: 0}


def test_check_feasible_free_graph(instance_a_k2):
    # k = 1 is already served by the zero-cost arcs
    inst = instance_a_k2
    one = inst.__class__(inst.node_count, inst.root, inst.terminals, inst.edges, 1)
    assert check_feasible(one, Solution({}, Fraction(0), {}, True)).feasible


def _mp_ln(n: int) -> Fraction:
    """ln n from mpmath at 100 digits, as an exact rational."""
    with mpmath.workdps(100):
        man, exp = mpmath.log(n).man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_log_interval_brackets():
    import math

    lo, hi = log_interval(2)
    assert lo < hi
    assert abs(float(lo) - math.log(2)) < 1e-12
    assert abs(float(hi) - math.log(2)) < 1e-12
    # loose rational brackets of ln 2 must stay outside the interval
    assert Fraction(693147, 1000000) < lo and hi < Fraction(693148, 1000000)
    assert log_interval(1) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        log_interval(0)
    # the sweep: every interval holds mpmath's value and is at most 2^-bits wide
    for bits in (64, 128, 256):
        for n in [*range(1, 2001), 2**40 - 1, 2**40, 2**40 + 1]:
            lo, hi = log_interval(n, bits)
            assert lo <= _mp_ln(n) <= hi, (n, bits)
            assert hi - lo <= Fraction(1, 2**bits), (n, bits)
        assert log_interval(1, bits) == (Fraction(0), Fraction(0))


def _first_bound(bound_harmonic, terminal_count):
    # the interval bound_decision evaluates first, at log_interval's default bits
    return tuple(2 * bound_harmonic * (1 + x) for x in log_interval(terminal_count))


def test_bound_decision_exact_for_single_terminal():
    # |T| = 1 collapses the interval; comparisons are exact
    holds, lo, hi = bound_decision(Fraction(2), Fraction(1), Fraction(1), 1)
    assert holds and lo == hi == 2
    holds, _, _ = bound_decision(Fraction(2) + Fraction(1, 10**30), Fraction(1), Fraction(1), 1)
    assert not holds


def test_bound_decision_resolves_tight_rational():
    # a ratio at the midpoint of the first interval forces refinement: the
    # decision must come from a narrower interval strictly inside the first
    first_lo, first_hi = _first_bound(Fraction(1), 2)
    squeezed = (first_lo + first_hi) / 2
    holds, lo, hi = bound_decision(squeezed, Fraction(1), Fraction(1), 2)
    assert first_lo < lo <= hi < first_hi
    assert holds == (squeezed <= lo)
    assert holds == (squeezed <= 2 * (1 + _mp_ln(2)))


@pytest.mark.parametrize(
    "bound_harmonic, terminal_count",
    [(Fraction(0), 5), (Fraction(3, 2), 8), (Fraction(1), 2**20)],
)
def test_bound_decision_decides_on_its_first_interval(bound_harmonic, terminal_count):
    # H = 0 gives a point (as |T| = 1 does, above); a power of two has an
    # exactly-0 m-series
    first = _first_bound(bound_harmonic, terminal_count)
    exact = 2 * bound_harmonic * (1 + _mp_ln(terminal_count))
    assert first[0] <= exact <= first[1]
    for ratio in (Fraction(0), exact / 2, first[0], exact * 2 + 1):
        holds, lo, hi = bound_decision(ratio, Fraction(1), bound_harmonic, terminal_count)
        assert (lo, hi) == first
        assert holds == (ratio <= exact)


def test_fixture_audit(instance_a):
    report = solve(instance_a)
    opt = brute_force_opt(instance_a)
    audit = audit_run(instance_a, report, lambda _: opt, density_max_units=16)
    assert audit.clean
    assert audit.ratio == 1
    # 2 * H(1) * (1 + ln 2), from mpmath at 100 digits
    assert audit.bound_lo <= 2 * (1 + _mp_ln(2)) <= audit.bound_hi
    assert audit.bound_holds and audit.guarantee_applies
    assert audit.density_checked and audit.density_violations == []
    assert "\"clean\": true" in dump_json(audit_to_doc(audit))


def _zero_optimum_instance():
    # the zero-cost edges alone give both terminals their path; the priced
    # edge 1 -> 2 is never needed
    edges = (Edge(1, 0, 1, Fraction(0)), Edge(2, 0, 2, Fraction(0)), Edge(3, 1, 2, Fraction(5)))
    return Instance(3, 0, frozenset({1, 2}), edges, 1)


def test_audit_ratio_of_a_zero_optimum_met_at_zero_cost_is_one():
    inst = _zero_optimum_instance()
    report = solve(inst)
    opt = brute_force_opt(inst)
    assert report.solution.total_cost == opt.total_cost == 0
    audit = audit_run(inst, report, lambda _: opt)
    assert audit.clean and audit.ratio == 1
    assert audit_to_doc(audit)["ratio"] == "1"


def test_audit_ratio_of_a_zero_optimum_met_at_a_cost_is_none():
    inst = _zero_optimum_instance()
    report = SolveReport(check_feasible(inst, Solution({3: 1}, Fraction(5), {}, True)))
    audit = audit_run(inst, report, lambda _: brute_force_opt(inst))
    assert audit.rebuilt.total_cost == 5 and audit.ratio is None


def test_audit_without_optimum_is_feasibility_only(instance_a):
    report = solve(instance_a)
    audit = audit_run(instance_a, report)
    assert audit.rebuilt.feasible and audit.ratio is None and audit.bound_holds is None
    assert not audit.density_checked


def test_audit_flags_fabricated_core_drop(instance_a):
    report = solve(instance_a)
    bad = IterationRecord(1, 3, 2, 1, 3, Fraction(1), ())
    doctored = SolveReport(
        solution=Solution(
            report.solution.selected,
            report.solution.total_cost,
            report.solution.connectivity,
            True,
            audit=[bad],
        ),
        bound_harmonic=report.bound_harmonic,
        terminal_count=report.terminal_count,
    )
    audit = audit_run(instance_a, doctored)
    assert audit.core_drop_violations == [0]
    assert not audit.clean


def test_audit_infeasible_solution(instance_a):
    broken = SolveReport(
        solution=Solution({1: 1}, Fraction(2), {}, False),
        bound_harmonic=Fraction(1),
        terminal_count=2,
    )
    audit = audit_run(instance_a, broken)
    assert not audit.rebuilt.feasible and not audit.clean


@pytest.mark.parametrize("pruned, clean", [("solution", True), ("every", False), ("none", False)])
def test_audit_checks_the_pruned_selection(instance_a, pruned, clean):
    # each ``pruned`` here equals its own rebuild: the audit must still reject
    # one that buys more than the solution or is infeasible
    report = solve(instance_a)
    selected = {
        "solution": report.solution.selected,
        "every": selection_from_units(positive_units(instance_a)),
        "none": {},
    }[pruned]
    report.pruned = check_feasible(instance_a, Solution(selected, Fraction(0), {}, False))
    audit = audit_run(instance_a, report)
    assert audit.recorded_solution_ok is audit.clean is clean


def test_guarantee_claimed_only_for_quasi_bipartite_instances():
    # the priced relay edge 1 -> 2 has no end in T + r = {0, 3}: the ratio is
    # still reported, but no bound is decided
    inst = Instance(4, 0, frozenset({3}), (
        Edge(1, 0, 1, Fraction(1)),
        Edge(2, 1, 2, Fraction(1)),
        Edge(3, 2, 3, Fraction(1)),
        Edge(4, 0, 3, Fraction(5)),
    ), 1)
    report = solve(inst)
    opt = brute_force_opt(inst)
    assert opt.total_cost == 3
    audit = audit_run(inst, report, lambda _: opt)
    assert not audit.guarantee_applies
    assert audit.ratio == report.solution.total_cost / 3
    assert audit.bound_holds is None and audit.bound_lo is None and audit.bound_hi is None
    doc = audit_to_doc(audit)
    assert doc["guarantee_applies"] is False and doc["bound_holds"] is None
    assert audit.clean


@pytest.mark.parametrize("seed", [3, 11, 15, 39])
def test_density_replay_builds_one_flow_set_per_record(seed, residual_builds):
    # one search root per record: no feasibility check of the whole
    # instance, and no solution rebuilt from the optimum
    inst = generate_instance(default_corpus_params(seed))
    report = solve(inst)
    records = len(report.solution.audit)
    assert records >= 3
    residual_builds.clear()
    audit_run(inst, report)
    plain = len(residual_builds)
    residual_builds.clear()
    audit = audit_run(inst, report, density_max_units=22)
    assert audit.density_checked and audit.density_violations == []
    assert len(residual_builds) - plain <= len(inst.terminals) * records


def _relabelled(inst, a, b):
    """``inst`` with every node id v renamed a * v + b (a >= 1): a strictly
    increasing map, so every tie that follows node order breaks as before."""
    def f(v):
        return a * v + b
    edges = tuple(e._replace(tail=f(e.tail), head=f(e.head)) for e in inst.edges)
    return Instance(f(inst.node_count - 1) + 1, f(inst.root),
                    frozenset(map(f, inst.terminals)), edges, inst.k)


def _report_text_mapped_back(report, a, b):
    """The report document of a run on ``_relabelled(inst, a, b)``, its
    ``connectivity`` keys mapped back to the original terminal ids."""
    doc = report_to_doc(report)
    for sol in (doc["solution"], doc["pruned"]):
        if sol is not None:
            sol["connectivity"] = {str((int(t) - b) // a): v for t, v in sol["connectivity"].items()}
    return dump_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(1, 10**6), st.integers(0, 10**8))
def test_relabelling_the_nodes_changes_no_report(seed, a, b):
    # node ids only name nodes and order ties: with ids near 10**8, a corpus
    # instance gives the same report bytes once its connectivity keys are
    # mapped back, and the relabelled run audits clean against its optimum
    inst = generate_instance(default_corpus_params(seed))
    moved = _relabelled(inst, a, b)
    report = solve(moved, prune=True)
    assert _report_text_mapped_back(report, a, b) == dump_json(report_to_doc(solve(inst, prune=True)))
    audit = audit_run(moved, report, lambda _: brute_force_opt(moved), density_max_units=22)
    assert audit.clean and audit.density_checked


def test_relabelling_a_ladder_instance_changes_no_report():
    # rings of 40 terminals, which the corpus never reaches
    inst = generate_instance(GenParams(120, 40, 3, density=Fraction(3, 10), root_bias=2, seed=1))
    a, b = 999_983, 10**8
    moved = _relabelled(inst, a, b)
    report = solve(moved)
    assert _report_text_mapped_back(report, a, b) == dump_json(report_to_doc(solve(inst)))
    assert audit_run(moved, report).clean


def _sparse_peak_mb(node_count):
    """tracemalloc peak, in MB, of solving and auditing (brute-force optimum,
    density replay) three root edges to terminals 1-3 among ``node_count``
    node ids."""
    edges = tuple(Edge(i, 0, i, Fraction(i)) for i in (1, 2, 3))
    inst = Instance(node_count, 0, frozenset({1, 2, 3}), edges, 1)
    tracemalloc.start()
    try:
        audit = audit_run(inst, solve(inst), lambda _: brute_force_opt(inst), density_max_units=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.clean and audit.density_checked and audit.ratio == 1
    return peak / 2**20


def test_memory_follows_the_edges_not_the_declared_node_count():
    # flows and per-node edge lists are keyed by the nodes edges touch, so
    # 200,000 declared node ids cost what 4 do
    small, large = _sparse_peak_mb(4), _sparse_peak_mb(200_000)
    assert large < 0.5 and large < small + 0.25, (small, large)


def _density_tampers(report):
    """``report`` itself, then copies with one record's core counts, level
    or recorded cost edited: its units stay the selection, so the density
    replay still runs on each."""
    yield report
    edits = (
        lambda rec: {"cores_after": rec.cores_before},  # no drop
        lambda rec: {"cores_before": rec.cores_before + 3},
        lambda rec: {"phase_level": 3 * rec.phase_level},
        lambda rec: {"added_cost": rec.added_cost + 1},
    )
    for idx, rec in enumerate(report.solution.audit):
        for edit in edits:
            tampered = copy.deepcopy(report)
            tampered.solution.audit[idx] = rec._replace(**edit(rec))
            yield tampered


def test_density_replay_matches_the_reference_replay():
    # a corpus slice, each report as solved and with tampered records; the
    # replay inside the audit gives the reference's violations on every one
    flagged = 0
    for seed in range(1, 31):
        inst = generate_instance(default_corpus_params(seed))
        for report in _density_tampers(solve(inst)):
            audit = audit_run(inst, report, density_max_units=22)
            assert audit.density_checked
            expected = density_violations(inst, report, max_units=22)
            assert audit.density_violations == expected
            flagged += bool(expected)
    assert flagged > 0


def test_replayed_audit_costs_each_record_once(monkeypatch):
    # corpus seed 7 has 3 records: the rebuild costs the selection once, and
    # the walk costs each record once for both its check and the replay
    inst = generate_instance(default_corpus_params(7))
    report = solve(inst)
    calls = []
    cost = Instance.selection_cost

    def counted(self, selected):
        calls.append(selected)
        return cost(self, selected)

    monkeypatch.setattr(Instance, "selection_cost", counted)
    audit = audit_run(inst, report, density_max_units=22)
    assert audit.density_checked and audit.clean
    assert len(report.solution.audit) == 3
    assert len(calls) == len(report.solution.audit) + 1


def test_path_packing_witness(instance_a):
    report = solve(instance_a)
    for t in instance_a.terminals:
        paths = path_packing_witness(instance_a, report.solution, t)
        assert len(paths) == report.solution.connectivity[t]
        assert all(p[0] == 0 and p[-1] == t for p in paths)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_witness_agrees_with_connectivity(seed):
    inst = small_random_instance(random.Random(seed))
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    rebuilt = check_feasible(inst, report.solution)
    assert rebuilt.feasible
    for t in inst.terminals:
        assert len(path_packing_witness(inst, report.solution, t)) == rebuilt.connectivity[t]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_audit_is_pure(seed):
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    if len(positive_units(inst)) > 14:
        return
    opt = brute_force_opt(inst)
    first = audit_run(inst, report, lambda _: opt, density_max_units=14)
    second = audit_run(inst, report, lambda _: opt, density_max_units=14)
    assert dump_json(audit_to_doc(first)) == dump_json(audit_to_doc(second))
    assert first.clean


def _edit_selected(inst, solution, data):
    """Give one edge id (maybe one the instance lacks) a new unit count; a
    count of 0 drops the edge."""
    chosen = dict(solution["selected"])
    ids = sorted(e.id for e in inst.edges) + [max((e.id for e in inst.edges), default=0) + 1]
    eid = data.draw(st.sampled_from(ids))
    count = data.draw(st.integers(0, 3).filter(lambda c: c != chosen.get(eid, 0)))
    chosen[eid] = count
    solution["selected"] = [[e, c] for e, c in sorted(chosen.items()) if c]


def _edit_total_cost(inst, solution, data):
    recorded = frac_from_obj(solution["total_cost"])
    cost = data.draw(st.fractions(min_value=0, max_value=100, max_denominator=4))
    solution["total_cost"] = str(cost if cost != recorded else recorded + 1)


def _tamper_selected(inst, doc, data):
    _edit_selected(inst, doc["solution"], data)


def _tamper_total_cost(inst, doc, data):
    _edit_total_cost(inst, doc["solution"], data)


def _tamper_connectivity(inst, doc, data):
    """Change one terminal's recorded path count, or drop the terminal."""
    conn = doc["solution"]["connectivity"]
    t = data.draw(st.sampled_from(sorted(conn)))
    if data.draw(st.booleans()):
        del conn[t]
    else:
        conn[t] = data.draw(st.integers(0, 9).filter(lambda v: v != conn[t]))


def _tamper_feasible(inst, doc, data):
    doc["solution"]["feasible"] = not doc["solution"]["feasible"]


def _tamper_pruned(inst, doc, data):
    """Record as ``pruned`` a copy of the solution with its selection or its
    total cost edited."""
    pruned = copy.deepcopy(doc["solution"])
    data.draw(st.sampled_from([_edit_selected, _edit_total_cost]))(inst, pruned, data)
    doc["pruned"] = pruned


def _tamper_pruned_records(inst, doc, data):
    """Record as ``pruned`` the solution itself, carrying its own iteration
    records or a made-up one: a pruned selection has none."""
    pruned = copy.deepcopy(doc["solution"])
    if not pruned["audit"] or data.draw(st.booleans()):
        pruned["audit"] = [{
            "phase_level": 1, "cores_before": 99, "cores_after": 0, "star_center": 12345,
            "leaf_count": 1, "added_cost": "1000", "added_units": [],
        }]
    doc["pruned"] = pruned


def _tamper_star_center(inst, doc, data):
    """Name as a record's head an edge none of its added units is on."""
    records = doc["solution"]["audit"]
    assume(records)
    rec = data.draw(st.sampled_from(records))
    bought = {eid for eid, _ in rec["added_units"]}
    rec["star_center"] = data.draw(st.integers(0, 30).filter(lambda eid: eid not in bought))


def _tamper_added_units(inst, doc, data):
    """Drop one recorded unit or add one, so the multiset changes."""
    records = doc["solution"]["audit"]
    assume(records)
    rec = data.draw(st.sampled_from(records))
    if rec["added_units"] and data.draw(st.booleans()):
        rec["added_units"].pop(data.draw(st.integers(0, len(rec["added_units"]) - 1)))
    else:
        eid = data.draw(st.sampled_from(sorted(e.id for e in inst.edges) + [0]))
        rec["added_units"].append([eid, data.draw(st.integers(0, 2))])
    rebuild_phases(doc)


def _tamper_copy_order(inst, doc, data):
    """Swap the copy indices of two units of one edge bought by two records,
    so the multiset of units stays but the copies leave purchase order."""
    units = [u for rec in doc["solution"]["audit"] for u in rec["added_units"]]
    twice = sorted({eid for eid, index in units if index == 1})
    assume(twice)
    eid = data.draw(st.sampled_from(twice))
    first, second = data.draw(st.permutations([u for u in units if u[0] == eid]))[:2]
    first[1], second[1] = second[1], first[1]
    rebuild_phases(doc)


def _tamper_added_cost(inst, doc, data):
    records = doc["solution"]["audit"]
    assume(records)
    rec = data.draw(st.sampled_from(records))
    recorded = frac_from_obj(rec["added_cost"])
    cost = data.draw(st.fractions(min_value=0, max_value=100, max_denominator=4))
    rec["added_cost"] = str(cost if cost != recorded else recorded + 1)


def _tamper_phases(inst, doc, data):
    """Change one phase's level, iteration count or units, or add a phase."""
    phases = doc["phases"]
    edit = data.draw(st.sampled_from(["level", "iterations", "units", "append"]))
    if edit == "append" or not phases:
        phases.append({"level": 1, "added_units": [], "iterations": 1})
        return
    ph = data.draw(st.sampled_from(phases))
    if edit == "units":
        ph["added_units"].append([data.draw(st.integers(0, 20)), 0])
    else:
        ph[edit] = data.draw(st.integers(0, 99).filter(lambda v: v != ph[edit]))


def _tamper_bound_harmonic(inst, doc, data):
    recorded = frac_from_obj(doc["bound_harmonic"])
    value = data.draw(st.fractions(min_value=0, max_value=1000, max_denominator=4))
    doc["bound_harmonic"] = str(value if value != recorded else recorded + 1)


def _tamper_terminal_count(inst, doc, data):
    recorded = doc["terminal_count"]
    doc["terminal_count"] = data.draw(st.integers(1, 1000).filter(lambda n: n != recorded))


@settings(max_examples=520, deadline=None)
@given(
    st.integers(0, 100_000),
    st.sampled_from([
        _tamper_selected,
        _tamper_total_cost,
        _tamper_connectivity,
        _tamper_feasible,
        _tamper_pruned,
        _tamper_pruned_records,
        _tamper_added_units,
        _tamper_copy_order,
        _tamper_added_cost,
        _tamper_star_center,
        _tamper_bound_harmonic,
        _tamper_terminal_count,
        _tamper_phases,
    ]),
    st.data(),
)
def test_tampered_report_never_audits_clean(seed, tamper, data):
    """A report whose ``selected``, ``total_cost``, ``connectivity``,
    ``feasible``, multiset of iteration ``added_units``, order of an edge's
    copies among the records, an iteration's ``added_cost`` or
    ``star_center``, ``bound_harmonic`` or ``terminal_count`` was changed,
    or that gained a ``pruned`` copy of its solution with an edited
    selection or total cost or with iteration records, is rejected
    (ParseError) or audits unclean; one whose ``phases`` differ from its
    records is rejected.

    Out of scope until the audit replays the core counts: moving a unit from
    one iteration to another along with both iterations' ``added_cost``, and
    editing ``cores_before``/``cores_after``.
    """
    inst = small_random_instance(random.Random(seed))
    try:
        report = solve(inst)
    except InfeasibleError:
        return
    doc = report_to_doc(report)
    tamper(inst, doc, data)
    if tamper is _tamper_phases:
        with pytest.raises(ParseError, match="phases differ"):
            report_from_doc(doc)
        return
    try:
        audit = audit_run(inst, report_from_doc(doc))
    except ParseError:
        return
    assert not audit.clean



def test_copies_out_of_purchase_order_audit_unclean():
    # corpus seed 7 buys edge 3 in its first two records; swapping the copy
    # indices keeps the multiset of units but leaves purchase order (few
    # small random instances buy an edge twice, so the tamper above seldom
    # gets to try this)
    inst = generate_instance(default_corpus_params(7))
    doc = report_to_doc(solve(inst))
    assert audit_run(inst, report_from_doc(doc)).clean
    records = doc["solution"]["audit"]
    assert records[0]["added_units"][0] == [3, 0] and records[1]["added_units"] == [[3, 1]]
    records[0]["added_units"][0], records[1]["added_units"][0] = [3, 1], [3, 0]
    rebuild_phases(doc)
    audit = audit_run(inst, report_from_doc(doc))
    assert audit.recorded_units_ok is False and not audit.clean
