"""Random instance generation for benchmarks and property tests.

Positive candidate arcs always keep an end on the terminals or the root, so
generated instances are quasi-bipartite by construction.  In augmentation
mode a zero-cost skeleton giving every terminal ``base_level`` edge-disjoint
root paths is planted first; it holds by construction (``_draw``), so no
draw is re-checked for it.  Generation is fully deterministic for a fixed
parameter set: one random stream drives all attempts.

Each inclusion draw compares ``rng.random()`` with a probability p.  The
comparison is made against ``_threshold(p)``, the least float ``t >= p``,
computed once per draw instead of converting every float to a ``Fraction``.
It is exact: ``float(p)`` is correctly rounded, so no float lies in
``[p, t)``, hence ``x >= p`` exactly when ``x >= t`` and ``x < p`` exactly
when ``x < t`` for every float x.  The random stream and the order of its
calls are unchanged, so every instance is the same as with ``Fraction``
comparisons.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .flows import require_feasible
from .instance import Edge, InfeasibleError, Instance

_PARALLEL_PROB = Fraction(1, 10)  # chance that a drawn edge gets multiplicity 2
_RETRY_CAP = 300  # draws per parameter set before giving up


@dataclass(frozen=True)
class GenParams:
    nodes: int
    terminals: int
    k: int
    density: Fraction = Fraction(1, 2)  # inclusion probability per candidate arc
    cost_lo: int = 1
    cost_hi: int = 10
    seed: int = 0
    mode: str = "quasi-bipartite"  # or "augmentation"
    base_level: int = 0  # planted zero-cost connectivity (augmentation mode)
    root_bias: Fraction = Fraction(1)  # multiplier on density for root arcs
    max_units: int | None = None  # cap on positive edge units

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("need at least a root and one terminal")
        if not 1 <= self.terminals <= self.nodes - 1:
            raise ValueError("terminal count must be between 1 and nodes - 1")
        if self.k < 1:
            raise ValueError("connectivity target must be positive")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if not 1 <= self.cost_lo <= self.cost_hi:
            raise ValueError("cost range must satisfy 1 <= lo <= hi")
        if self.mode not in ("quasi-bipartite", "augmentation"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "augmentation" and not 1 <= self.base_level < self.k:
            raise ValueError("augmentation mode needs 1 <= base_level < k")
        if self.mode == "quasi-bipartite" and self.base_level:
            raise ValueError("base_level only applies to augmentation mode")


def _threshold(p: Fraction) -> float:
    """The least float t >= p: for every float x, ``x < p`` iff ``x < t``."""
    t = float(p)
    return math.nextafter(t, math.inf) if Fraction(t) < p else t


_PARALLEL_T = _threshold(_PARALLEL_PROB)


def _draw(rng: random.Random, p: GenParams) -> Instance:
    root = 0
    terminals = sorted(rng.sample(range(1, p.nodes), p.terminals))
    anchored = set(terminals) | {root}
    edges: list[Edge] = []
    next_id = 1

    if p.mode == "augmentation":
        # One zero-cost route per required unit, a root arc or root -> relay
        # -> terminal, adding one to the multiplicity of each edge on it, so
        # one unit of flow per route is feasible.  With no relay besides the
        # terminal, every route is a direct root arc.
        zero: dict[tuple[int, int], int] = {}
        for t in terminals:
            relays = [v for v in range(1, p.nodes) if v != t]
            for _ in range(p.base_level):
                if rng.random() < 0.5 or not relays:
                    zero[(root, t)] = zero.get((root, t), 0) + 1
                else:
                    x = rng.choice(relays)
                    zero[(root, x)] = zero.get((root, x), 0) + 1
                    zero[(x, t)] = zero.get((x, t), 0) + 1
        for (tail, head), mult in sorted(zero.items()):
            edges.append(Edge(next_id, tail, head, Fraction(0), mult))
            next_id += 1

    # the pairs, head not the root, that touch the root or a terminal, in
    # (tail, head) order, the order the draws below read them in: an
    # anchored tail reaches every other node, any other tail the terminals
    candidates = [
        (u, v)
        for u in range(p.nodes)
        for v in (range(1, p.nodes) if u in anchored else terminals)
        if u != v
    ]
    root_t = _threshold(min(p.density * p.root_bias, Fraction(1)))
    other_t = _threshold(p.density)
    for tail, head in candidates:
        if rng.random() >= (root_t if tail == root else other_t):
            continue
        mult = 2 if rng.random() < _PARALLEL_T else 1
        cost = rng.randint(p.cost_lo, p.cost_hi)
        edges.append(Edge(next_id, tail, head, Fraction(cost), mult))
        next_id += 1

    return Instance(p.nodes, root, frozenset(terminals), tuple(edges), p.k)


def _acceptable(inst: Instance, p: GenParams) -> bool:
    if p.max_units is not None and inst.positive_unit_count > p.max_units:
        return False
    try:
        require_feasible(inst)
    except InfeasibleError:
        return False
    return True


def generate_instance(p: GenParams) -> Instance:
    """Draw instances until one is feasible (and under the unit cap)."""
    rng = random.Random(p.seed)
    for _ in range(_RETRY_CAP):
        inst = _draw(rng, p)
        if _acceptable(inst, p):
            return inst
    raise RuntimeError(
        f"generation retry cap exhausted for seed {p.seed}; relax density or caps"
    )


def default_corpus_params(seed: int) -> GenParams:
    """Deterministic per-seed parameter mix for the benchmark corpus.

    Small rooted instances (at most 10 nodes, 4 terminals, k of 3, 22 positive
    edge units) mixing plain and augmentation modes.  Higher targets get
    fewer nodes and terminals plus a root-arc bias: reaching k = 3 everywhere
    within the unit cap needs a thick in-tree around the root.
    """
    k = 1 + seed % 3
    if k == 1:
        nodes = 5 + seed % 6
        terminals = 1 + seed % 4
        density = Fraction(40, 100) if nodes <= 7 else Fraction(30, 100)
        root_bias = Fraction(1)
    elif k == 2:
        nodes = 5 + seed % 5
        terminals = 1 + seed % 3
        density = Fraction(40, 100) if nodes <= 7 else Fraction(30, 100)
        root_bias = Fraction(2)
    else:
        nodes = 5 + seed % 3
        terminals = 1 + seed % 2
        density = Fraction(45, 100)
        root_bias = Fraction(2)
    if seed % 5 == 0 and k >= 2:
        mode, base_level = "augmentation", 1
    else:
        mode, base_level = "quasi-bipartite", 0
    return GenParams(
        nodes=nodes,
        terminals=terminals,
        k=k,
        density=density,
        cost_lo=1,
        cost_hi=10,
        seed=seed,
        mode=mode,
        base_level=base_level,
        root_bias=root_bias,
        max_units=22,
    )
