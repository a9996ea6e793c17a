"""Residual cores, read off one root flow per terminal.

The deficiency of a terminal t under a partial selection I is
max(k - lambda(root, t), 0) in the working graph, and the tightest witness
set around t is the closest-to-t minimum cut.  ``cores_of`` reads both off
the greedy's carried flows, and returns the level, the max deficiency, once
per state: it is a fact of the state, not of any one core.  The level is
non-increasing as the selection grows, cores are returned exactly when it is
positive, and cores are pairwise terminal-disjoint.  The explicit set-function
backend and the family enumeration this is checked against live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance


@dataclass(frozen=True)
class CoreInfo:
    """An inclusion-minimal set at the state's level, with a witness terminal."""

    members: frozenset[int]
    representative: int  # smallest terminal inside; representation only


def cores_of(inst: Instance, flows) -> tuple[int, list[CoreInfo]]:
    """(level, cores) off ``flows``, each terminal's root flow (exact below k):
    the max residual deficiency, and the inclusion-minimal sets at it, if any.

    Candidates are the closest-cut sink sides of the terminals attaining the
    max level; identical sets are merged and any candidate strictly containing
    another is discarded.  Every terminal inside a surviving core attains the
    max level, so the representative is just the smallest one.  A core's ring
    is read off its representative's flow, so that flow must sit at k - level:
    one that does not raises (an ``if``, so it fires under ``python -O``).
    """
    level = max(max(inst.k - flow.value, 0) for flow in flows.values())
    if level == 0:
        return 0, []
    need = inst.k - level
    candidates = {flow.closest_sink_side() for flow in flows.values() if flow.value == need}
    cores = []
    for side in candidates:
        if not any(other < side for other in candidates):
            rep = min(side & inst.terminals)
            if flows[rep].value != need:
                value = flows[rep].value
                raise AssertionError(f"core representative {rep} has flow {value}, not {need}")
            cores.append(CoreInfo(side, rep))
    cores.sort(key=lambda c: c.representative)
    return level, cores
