"""Independent verification: feasibility, ratio bounds, per-iteration audits.

Everything here recomputes from the instance and the recorded run, never from
solver internals: a recorded solution is correct exactly when it equals its
rebuild by ``flows.solution_of``, the builder the solver uses too.  An
audit reads a report's records in one walk, and its density replay runs
off what that walk kept.  The performance guarantee 2 * H(d) * (1 + ln |T|)
mixes a rational with a logarithm, so ln |T| is enclosed in a proven dyadic
interval: a comparison against its far side is rigorous, and a ratio inside
doubles its bits until it lands outside (as it must: ln of an integer >= 2
is irrational, ratios are rational, and for |T| = 1 the interval is a point).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import cheapest_completion
from .flows import root_flows, solution_of
from .instance import (
    Instance,
    Solution,
    check_selection,
    connectivity_to_doc,
    validate_quasi_bipartite,
)
from .solver import SolveReport, harmonic


def check_feasible(inst: Instance, sol: Solution) -> Solution:
    """``sol`` rebuilt from its selection by ``solution_of``, records kept.

    Raises ParseError when the selection names an edge the instance does not
    offer (see ``check_selection``).
    """
    check_selection(inst, sol.selected)
    return solution_of(inst, sol.selected, sol.audit)


def _atanh_scaled(a: int, b: int, p: int) -> tuple[int, int]:
    """(s, s + 3 * terms + 2), enclosing 2^p * atanh(a / b) for 0 <= a / b <= 1/3.

    s sums y^(2j+1) / (2j+1) in ``terms`` terms, until a power of y floors to
    0, each power floored from the one before and each term floored.  Every
    floor lowers; as y^2 <= 1/9 a power runs at most 1 + 1/9 + ... = 9/8 low,
    a floored term less than 9/8 + 1 < 3, and once a power floors to 0 the
    dropped tail is below 9/8 / (1 - y^2) <= 81/64 < 2.
    """
    power, s, terms = (a << p) // b, 0, 0
    while power:
        s += power // (2 * terms + 1)
        terms += 1
        power = power * a * a // (b * b)
    return s, s + 3 * terms + 2


def log_interval(n: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Proven dyadic interval around ln(n), at most 2^-bits wide for bits >= 64.

    n = 2^e * m, m in [1, 2): ln n = 2e * atanh(1/3) + 2 * atanh((m - 1) / (m + 1)).
    The slack is at most 2(e + 1)p units of 2^-p (a series has <= 0.32p + 1/2 terms).
    """
    if n < 1:
        raise ValueError("logarithm of a non-positive count")
    if n == 1:
        return Fraction(0), Fraction(0)
    e = n.bit_length() - 1
    p = bits + bits.bit_length() + e.bit_length() + 4
    lo2, hi2 = _atanh_scaled(1, 3, p)
    lom, him = _atanh_scaled(n - (1 << e), n + (1 << e), p)
    return Fraction(2 * (e * lo2 + lom), 1 << p), Fraction(2 * (e * hi2 + him), 1 << p)


def bound_decision(
    cost: Fraction, opt_cost: Fraction, bound_harmonic: Fraction, terminal_count: int
) -> tuple[bool, Fraction, Fraction]:
    """Decide cost <= bound * opt rigorously; returns (holds, lo, hi)."""
    if opt_cost == 0:
        return cost == 0, Fraction(0), Fraction(0)
    ratio, bits = cost / opt_cost, 64
    # ends: ln |T| is irrational for |T| >= 2, the ratio rational, and |T| = 1 exact
    while True:
        lo, hi = (2 * bound_harmonic * (1 + x) for x in log_interval(terminal_count, bits))
        if ratio <= lo:
            return True, lo, hi
        if ratio > hi:
            return False, lo, hi
        bits *= 2


@dataclass
class AuditReport:
    rebuilt: Solution  # the solution rebuilt from its selection; the ratio uses its cost
    recorded_cost_ok: bool  # total_cost and every added_cost equal the recomputed ones
    recorded_units_ok: bool  # added_units: the selection in purchase order, with star_center
    recorded_solution_ok: bool  # solution, pruned equal rebuilds; pruned within it, no records
    recorded_bound_ok: bool  # bound_harmonic and terminal_count match the instance's
    guarantee_applies: bool  # the instance is quasi-bipartite; else no bound is decided
    core_drop_violations: list[int] = field(default_factory=list)  # record indexes
    ratio: Fraction | None = None
    bound_lo: Fraction | None = None
    bound_hi: Fraction | None = None
    bound_holds: bool | None = None
    density_checked: bool = False
    density_violations: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.rebuilt.feasible
            and self.recorded_cost_ok
            and self.recorded_units_ok
            and self.recorded_solution_ok
            and self.recorded_bound_ok
            and not self.core_drop_violations
            and not self.density_violations
            and self.bound_holds is not False
        )


def audit_run(
    inst: Instance,
    report: SolveReport,
    optimum: Callable[[Solution], Solution | None] | None = None,
    *,
    density_max_units: int | None = None,
) -> AuditReport:
    """Audit a recorded run off one rebuild of its solution and one walk of
    its records.

    Always: the solution against its rebuild, the costs (the total recomputed
    from the selection, each iteration's from its added units; a recorded cost
    that differs, or added units that are not exactly the selection with
    each edge's copies numbered 0, 1, ... in purchase order, or that miss
    their record's ``star_center``, make the audit unclean), the guarantee's
    inputs (H of the first level and |T|, from the instance; a recorded pair
    that differs makes the audit unclean) and the per-iteration core-drop
    rule (the core count must fall by at least half the leaf count:
    2 * drop >= leaf_count).  An infeasible rebuild is unclean, and only a
    feasible one goes on: ``optimum`` (if given) is called once, straight
    after the rebuild and with it (a feasible solution a search may start
    from, and return when it is optimal), for the exact optimum or None, and ``pruned`` is
    checked against its own rebuild (differing, infeasible, buying an edge
    more often than the solution or carrying any iteration record is
    unclean: a pruned selection has none).  With an optimum: the ratio (1
    when cost and optimum are both 0, None when only the optimum is) and, for
    a quasi-bipartite instance, the ratio bound.  With ``density_max_units``
    set, the added units exactly the selection and at most that many
    positive units: replay the run, from the edge counts and costs the walk
    kept, against the density rule added_cost / drop <= (2 / level) *
    residual_opt / cores_before, where residual_opt is the exact cost of
    completing the instance from the iteration's starting state
    (``cheapest_completion``, feasible since the rebuild is, and started
    from the part of the selection the records buy from then on); an
    iteration whose core count does not drop violates it.
    Above the cap ``density_checked`` stays False.
    """
    solution = report.solution
    selected = solution.selected
    rebuilt = check_feasible(inst, solution)
    opt = optimum(rebuilt) if optimum is not None and rebuilt.feasible else None
    solution_ok = rebuilt == solution
    if report.pruned is not None and rebuilt.feasible:
        pruned = check_feasible(inst, report.pruned)
        within = all(c <= selected.get(e, 0) for e, c in pruned.selected.items())
        solution_ok &= (pruned == report.pruned and pruned.feasible and within
                        and not pruned.audit)
    cost = rebuilt.total_cost
    bought: Counter[int] = Counter()  # edge id -> copies the records bought so far
    walked = []  # per record: its edge counts and their cost, None off the instance
    drops = []  # records that break the core-drop rule
    units_ok = heads_ok = costs_ok = True
    for idx, rec in enumerate(solution.audit):
        counts: Counter[int] = Counter()
        for eid, copy in rec.added_units:
            units_ok &= copy == bought[eid]
            bought[eid] += 1
            counts[eid] += 1
        heads_ok &= rec.star_center in counts
        added = inst.selection_cost(counts) if counts.keys() <= inst.edge_by_id.keys() else None
        costs_ok &= added == rec.added_cost
        walked.append((counts, added))
        if 2 * (rec.cores_before - rec.cores_after) < rec.leaf_count:
            drops.append(idx)
    units_ok &= bought == Counter(selected)
    # the level reads min(lambda, k) only, and a flow stopped below k is exact
    first_level = max(max(inst.k - flow.value, 0) for _, flow in root_flows(inst, {}, inst.k))
    bound_harmonic = harmonic(first_level)
    terminal_count = len(inst.terminals)
    out = AuditReport(
        rebuilt=rebuilt,
        recorded_cost_ok=solution.total_cost == cost and costs_ok,
        recorded_units_ok=units_ok and heads_ok,
        recorded_solution_ok=solution_ok,
        recorded_bound_ok=(report.bound_harmonic, report.terminal_count)
        == (bound_harmonic, terminal_count),
        guarantee_applies=validate_quasi_bipartite(inst),
        core_drop_violations=drops,
    )

    if opt is not None:
        if opt.total_cost == 0:
            out.ratio = None if cost else Fraction(1)
        else:
            out.ratio = cost / opt.total_cost
        if out.guarantee_applies:
            holds, lo, hi = bound_decision(cost, opt.total_cost, bound_harmonic, terminal_count)
            out.bound_holds, out.bound_lo, out.bound_hi = holds, lo, hi

    if (density_max_units is not None and units_ok and rebuilt.feasible
            and inst.positive_unit_count <= density_max_units):
        out.density_checked = True
        bought.clear()  # counted again, record by record
        for idx, (rec, (counts, added)) in enumerate(zip(solution.audit, walked)):
            rest = Counter(selected) - bought  # a feasible completion of bought
            residual_opt = Fraction(cheapest_completion(inst, bought, rest)[0], inst.cost_scale)
            drop = rec.cores_before - rec.cores_after
            # added / drop > (2 / level) * residual_opt / cores_before, cross-multiplied
            if drop <= 0 or added * rec.phase_level * rec.cores_before > 2 * residual_opt * drop:
                out.density_violations.append(idx)
            bought.update(counts)

    return out


def audit_to_doc(report: AuditReport) -> dict:
    return {
        "feasible": report.rebuilt.feasible,
        "connectivity": connectivity_to_doc(report.rebuilt.connectivity),
        "cost": str(report.rebuilt.total_cost),
        "recorded_cost_ok": report.recorded_cost_ok,
        "recorded_units_ok": report.recorded_units_ok,
        "recorded_solution_ok": report.recorded_solution_ok,
        "recorded_bound_ok": report.recorded_bound_ok,
        "guarantee_applies": report.guarantee_applies,
        "core_drop_violations": report.core_drop_violations,
        "ratio": str(report.ratio) if report.ratio is not None else None,
        "bound_lo": str(report.bound_lo) if report.bound_lo is not None else None,
        "bound_hi": str(report.bound_hi) if report.bound_hi is not None else None,
        "bound_holds": report.bound_holds,
        "density_checked": report.density_checked,
        "density_violations": report.density_violations,
        "clean": report.clean,
    }
