"""Solve an instance into a report, and the report's document codec.

The greedy's iteration records are the only record of a run: the selection
is their added units in purchase order, the guarantee's first level is the
first record's level, and a report's ``phases`` are derived from them, one per
run of consecutive records at one level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .flows import short_terminal, solution_of
from .greedy import cover_levels
from .instance import (
    Instance,
    ParseError,
    Solution,
    frac_from_obj,
    selection_from_units,
    solution_from_doc,
    solution_to_doc,
)


def harmonic(m: int) -> Fraction:
    """H(m) = 1 + 1/2 + ... + 1/m as an exact rational; H(0) = 0."""
    if m < 0:
        raise ValueError("harmonic numbers need a nonnegative index")
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


@dataclass
class SolveReport:
    solution: Solution
    bound_harmonic: Fraction = Fraction(0)  # H(first deficiency level)
    terminal_count: int = 0
    pruned: Solution | None = None  # engineering extra, never used for ratio audits


def prune_solution(inst: Instance, units) -> Solution:
    """Drop units whose removal keeps the selection feasible, newest first.

    Purely an engineering post-pass; the guarantee and all audits apply to the
    unpruned selection.
    """
    kept = selection_from_units(units)
    for eid, _ in reversed(units):
        kept[eid] -= 1
        if short_terminal(inst, kept, inst.k) is not None:
            kept[eid] += 1
    return solution_of(inst, kept)


def solve(inst: Instance, *, prune: bool = False) -> SolveReport:
    """Run the level-descending greedy; the result is always feasible.

    Raises InfeasibleError (with the witness terminal) when even the full
    edge set cannot reach the target, found by the greedy itself.  The first
    level is max over terminals of max(k - zero-cost connectivity, 0), the
    level of the first record (0 with none), so the guarantee's H(k - l0) is
    the harmonic number of that level.
    """
    records = cover_levels(inst)
    selected = [u for rec in records for u in rec.added_units]
    solution = solution_of(inst, selection_from_units(selected), records)
    if not solution.feasible:
        raise AssertionError(
            f"greedy selection leaves a terminal short of k: {solution.connectivity}"
        )
    report = SolveReport(
        solution=solution,
        bound_harmonic=harmonic(records[0].phase_level if records else 0),
        terminal_count=len(inst.terminals),
    )
    if prune:
        report.pruned = prune_solution(inst, selected)
    return report


# ---------------------------------------------------------------------------
# serialization


def phases_doc(records) -> list[dict]:
    """One entry per run of consecutive records at one level: the level, the
    units added in purchase order and the number of iterations."""
    out = []
    for level, run in itertools.groupby(records, key=lambda rec: rec.phase_level):
        run = list(run)
        out.append({
            "level": level,
            "added_units": [list(u) for rec in run for u in rec.added_units],
            "iterations": len(run),
        })
    return out


def report_to_doc(report: SolveReport) -> dict:
    return {
        "solution": solution_to_doc(report.solution),
        "phases": phases_doc(report.solution.audit),
        "bound_harmonic": str(report.bound_harmonic),
        "terminal_count": report.terminal_count,
        "pruned": solution_to_doc(report.pruned) if report.pruned else None,
    }


def report_from_doc(doc: dict) -> SolveReport:
    """Parse a solve report; its ``phases`` must be what its records give."""
    try:
        solution = solution_from_doc(doc["solution"])
        if doc["phases"] != phases_doc(solution.audit):
            raise ParseError("phases differ from the ones the iteration records give")
        pruned = doc.get("pruned")
        if pruned is not None:
            pruned = solution_from_doc(pruned)
        if type(doc["terminal_count"]) is not int:
            raise ParseError("terminal_count must be an integer")
        return SolveReport(
            solution=solution,
            bound_harmonic=frac_from_obj(doc["bound_harmonic"]),
            terminal_count=doc["terminal_count"],
            pruned=pruned,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed solve report: {exc}") from exc
