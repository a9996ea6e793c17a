"""Deficiency oracles: residual cores, and explicit set functions.

Two backends answer the same queries.  The rooted backend reads deficiencies
off one root flow per terminal (``cores_of``, the greedy's carried flows):
the deficiency of a terminal t under a partial selection I is
max(k - lambda(root, t), 0) in the working graph, and the tightest witness
set around t is the closest-to-t minimum cut.  The explicit backend stores a
set function as a sparse table and answers by scanning it; it exists to
cross-check the rooted backend and to exercise the generic theory
(terminal-anchored supermodularity surviving residuals).

Both backends share the contract: max level is non-increasing as the
selection grows, cores are returned exactly when the max level is positive,
and cores are pairwise terminal-disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import entering_count, enumerate_rooted
from .flows import root_flows
from .instance import Instance, ParseError


@dataclass(frozen=True)
class CoreInfo:
    """An inclusion-minimal maximum-deficiency set with a witness terminal."""

    members: frozenset[int]
    representative: int  # smallest terminal inside; representation only
    deficiency: int


def rooted_cores(inst: Instance, units) -> list[CoreInfo]:
    """The cores of the working graph of ``units`` (see ``cores_of``)."""
    return cores_of(inst, dict(root_flows(inst, units)))


def cores_of(inst: Instance, flows) -> list[CoreInfo]:
    """Inclusion-minimal sets of maximum residual deficiency, read off
    ``flows``, each terminal's root flow (exact below k).

    Candidates are the closest-cut sink sides of the terminals attaining the
    max level; identical sets are merged and any candidate strictly containing
    another is discarded.  Every terminal inside a surviving core attains the
    max level, so the representative is just the smallest one.
    """
    flows = flows.values()
    level = max(max(inst.k - flow.value, 0) for flow in flows)
    if level == 0:
        return []
    candidates = {flow.closest_sink_side() for flow in flows if inst.k - flow.value == level}
    kept = [
        side for side in candidates
        if not any(other < side for other in candidates)
    ]
    cores = [
        CoreInfo(side, min(side & inst.terminals), level)
        for side in kept
    ]
    cores.sort(key=lambda c: c.representative)
    return cores


_EXPLICIT_UNIVERSE_CAP = 20


@dataclass(frozen=True)
class ExplicitSetFunction:
    """Sparse table of a nonnegative set function on nodes 0..universe-1.

    Entries with value zero are dropped.  Construction verifies the shape the
    solver relies on: every positive set contains a terminal, and for any two
    positive sets sharing a terminal the supermodular inequality
    f(A) + f(B) <= f(A & B) + f(A | B) holds.
    """

    universe: int
    terminals: frozenset[int]
    table: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self):
        if not 1 <= self.universe <= _EXPLICIT_UNIVERSE_CAP:
            raise ParseError(f"universe size must be in 1..{_EXPLICIT_UNIVERSE_CAP}")
        for t in self.terminals:
            if not 0 <= t < self.universe:
                raise ParseError(f"terminal {t} out of range")
        seen = set()
        cleaned = []
        for members, value in self.table:
            if value < 0:
                raise ParseError("set function values must be nonnegative")
            if value == 0:
                continue
            if not members <= frozenset(range(self.universe)):
                raise ParseError("table set out of range")
            if members in seen:
                raise ParseError("duplicate table entry")
            seen.add(members)
            if not members & self.terminals:
                raise ParseError("positive set contains no terminal")
            cleaned.append((members, value))
        cleaned.sort(key=lambda kv: (sorted(kv[0]), kv[1]))
        object.__setattr__(self, "table", tuple(cleaned))
        self._check_supermodular()

    def _check_supermodular(self):
        entries = self.table
        lookup = dict(entries)
        for i, (a, fa) in enumerate(entries):
            for b, fb in entries[i + 1:]:
                if not (a & b & self.terminals):
                    continue
                if fa + fb > lookup.get(a & b, 0) + lookup.get(a | b, 0):
                    raise ParseError(
                        f"supermodular inequality fails for {sorted(a)} and {sorted(b)}"
                    )

    @cached_property
    def _lookup(self) -> dict[frozenset[int], int]:
        return dict(self.table)

    def value(self, members) -> int:
        return self._lookup.get(frozenset(members), 0)

    def residual(self, arcs) -> "ExplicitSetFunction":
        """Residual function after arcs; re-runs the constructor checks."""
        table = tuple(
            (members, max(value - entering_count(arcs, members), 0))
            for members, value in self.table
        )
        return ExplicitSetFunction(self.universe, self.terminals, table)


def explicit_max_level(fn: ExplicitSetFunction, arcs) -> int:
    arcs = tuple(arcs)
    best = 0
    for members, value in fn.table:
        best = max(best, value - entering_count(arcs, members))
    return max(best, 0)


def explicit_cores(fn: ExplicitSetFunction, arcs) -> list[CoreInfo]:
    arcs = tuple(arcs)
    level = explicit_max_level(fn, arcs)
    if level == 0:
        return []
    at_level = [
        members for members, value in fn.table
        if value - entering_count(arcs, members) == level
    ]
    kept = [m for m in at_level if not any(other < m for other in at_level)]
    cores = [CoreInfo(m, min(m & fn.terminals), level) for m in kept]
    cores.sort(key=lambda c: (c.representative, sorted(c.members)))
    return cores


def tabulate_rooted(inst: Instance, units=()) -> ExplicitSetFunction:
    """Tabulate the rooted deficiency function over all root-free subsets.

    Only usable at enumeration scale; the result feeds the explicit backend so
    the two can be compared on identical inputs.
    """
    family = enumerate_rooted(inst, units)
    return ExplicitSetFunction(inst.node_count, inst.terminals, tuple(family.positive.items()))
