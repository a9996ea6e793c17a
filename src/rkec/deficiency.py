"""Residual cores, read off one root flow per terminal.

The deficiency of a terminal t under a partial selection I is
max(k - lambda(root, t), 0) in the working graph, and the tightest witness
set around t is the closest-to-t minimum cut.  ``cores_of`` reads both off
the greedy's carried flows.  The max level is non-increasing as the
selection grows, cores are returned exactly when the max level is positive,
and cores are pairwise terminal-disjoint.  The explicit set-function backend
and the family enumeration this is checked against live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance


@dataclass(frozen=True)
class CoreInfo:
    """An inclusion-minimal maximum-deficiency set with a witness terminal."""

    members: frozenset[int]
    representative: int  # smallest terminal inside; representation only
    deficiency: int


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

