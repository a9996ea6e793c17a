"""Outer solver loop: cover deficiency levels from the worst one down to 1."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .deficiency import rooted_max_level
from .flows import instance_view, max_flow_value
from .greedy import PhaseResult, run_phase
from .instance import (
    Instance,
    InfeasibleError,
    ParseError,
    Solution,
    frac_from_obj,
    frac_to_str,
    selection_from_units,
    solution_from_doc,
    solution_to_doc,
)


def harmonic(m: int) -> Fraction:
    """H(m) = 1 + 1/2 + ... + 1/m as an exact rational; H(0) = 0."""
    if m < 0:
        raise ValueError("harmonic numbers need a nonnegative index")
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def initial_floor(inst: Instance) -> int:
    """Connectivity already provided for free: min over terminals of the
    zero-cost subgraph's root connectivity, capped at k."""
    view = instance_view(inst, ())
    return min(
        min(max_flow_value(view, inst.root, t), inst.k) for t in sorted(inst.terminals)
    )


@dataclass
class SolveReport:
    solution: Solution
    phases: list[PhaseResult] = field(default_factory=list)
    bound_harmonic: Fraction = Fraction(0)  # H(k - initial connectivity floor)
    terminal_count: int = 0
    pruned: Solution | None = None  # engineering extra, never used for ratio audits


def _connectivity(inst: Instance, units) -> dict[int, int]:
    view = instance_view(inst, units)
    return {t: max_flow_value(view, inst.root, t) for t in sorted(inst.terminals)}


def _make_solution(inst: Instance, units, records) -> Solution:
    conn = _connectivity(inst, units)
    return Solution(
        selected=selection_from_units(units),
        total_cost=inst.units_cost(units),
        connectivity=conn,
        feasible=all(v >= inst.k for v in conn.values()),
        audit=list(records),
    )


def prune_solution(inst: Instance, units) -> Solution:
    """Drop units whose removal keeps the selection feasible, newest first.

    Purely an engineering post-pass; the guarantee and all audits apply to the
    unpruned selection.
    """
    kept = list(units)
    for u in reversed(list(units)):
        trial = [v for v in kept if v != u]
        conn = _connectivity(inst, trial)
        if all(v >= inst.k for v in conn.values()):
            kept = trial
    return _make_solution(inst, kept, [])


def solve(inst: Instance, *, prune: bool = False) -> SolveReport:
    """Run the level-descending greedy; the result is always feasible.

    Raises InfeasibleError (with the witness terminal) when even the full
    edge set cannot reach the target.
    """
    full = instance_view(inst, inst.positive_units)
    for t in sorted(inst.terminals):
        lam = max_flow_value(full, inst.root, t)
        if lam < inst.k:
            raise InfeasibleError(t, lam, inst.k)

    selected: list = []
    phases: list[PhaseResult] = []
    current = rooted_max_level(inst, selected)
    for level in range(current, 0, -1):
        if current < level:
            continue  # this level emptied out already
        result = run_phase(inst, selected, level)
        selected.extend(result.added)
        phases.append(result)
        current = rooted_max_level(inst, selected)
        if current > level - 1:
            raise AssertionError(f"phase at level {level} left the level uncovered")

    records = [rec for ph in phases for rec in ph.iterations]
    solution = _make_solution(inst, selected, records)
    if not solution.feasible:
        raise AssertionError(
            f"greedy selection leaves a terminal short of k: {solution.connectivity}"
        )
    report = SolveReport(
        solution=solution,
        phases=phases,
        bound_harmonic=harmonic(inst.k - initial_floor(inst)),
        terminal_count=len(inst.terminals),
    )
    if prune:
        report.pruned = prune_solution(inst, selected)
    return report


# ---------------------------------------------------------------------------
# serialization


def report_to_doc(report: SolveReport) -> dict:
    return {
        "solution": solution_to_doc(report.solution),
        "phases": [
            {
                "level": ph.level,
                "added_units": [list(u) for u in ph.added],
                "iterations": len(ph.iterations),
            }
            for ph in report.phases
        ],
        "bound_harmonic": frac_to_str(report.bound_harmonic),
        "terminal_count": report.terminal_count,
        "pruned": solution_to_doc(report.pruned) if report.pruned else None,
    }


def report_from_doc(doc: dict) -> SolveReport:
    try:
        solution = solution_from_doc(doc["solution"])
        phases = []
        cursor = 0
        for ph in doc["phases"]:
            count = ph["iterations"]
            records = solution.audit[cursor:cursor + count]
            cursor += count
            phases.append(
                PhaseResult(
                    level=ph["level"],
                    added=[(u[0], u[1]) for u in ph["added_units"]],
                    iterations=list(records),
                )
            )
        pruned = solution_from_doc(doc["pruned"]) if doc.get("pruned") else None
        return SolveReport(
            solution=solution,
            phases=phases,
            bound_harmonic=frac_from_obj(doc["bound_harmonic"]),
            terminal_count=doc["terminal_count"],
            pruned=pruned,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed solve report: {exc}") from exc


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report_to_doc(report), indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> SolveReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("report document must be a JSON object")
    return report_from_doc(doc)
