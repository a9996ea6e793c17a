"""Shared fixtures and the tiny random instances the oracles in ``oracles``
are run on."""

from fractions import Fraction

import pytest

from rkec.flows import Residual
from rkec.instance import Edge, Instance


@pytest.fixture
def residual_builds(monkeypatch) -> list:
    """Every ``Residual`` built while the test runs, in build order; clear it
    to count from a later point."""
    built = []
    build = Residual.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Residual, "__init__", counted)
    return built


@pytest.fixture
def instance_a() -> Instance:
    """Four nodes: root 0, relay 1, terminals 2 and 3; optimum cost 4."""
    edges = (
        Edge(1, 0, 1, Fraction(2)),
        Edge(2, 1, 2, Fraction(1)),
        Edge(3, 1, 3, Fraction(1)),
        Edge(4, 0, 2, Fraction(4)),
        Edge(5, 0, 3, Fraction(4)),
    )
    return Instance(4, 0, frozenset({2, 3}), edges, 1)


@pytest.fixture
def instance_a_k2() -> Instance:
    """Instance A at k = 2 with free root arcs onto both terminals."""
    edges = (
        Edge(1, 0, 1, Fraction(2)),
        Edge(2, 1, 2, Fraction(1)),
        Edge(3, 1, 3, Fraction(1)),
        Edge(4, 0, 2, Fraction(4)),
        Edge(5, 0, 3, Fraction(4)),
        Edge(6, 0, 2, Fraction(0)),
        Edge(7, 0, 3, Fraction(0)),
    )
    return Instance(4, 0, frozenset({2, 3}), edges, 2)


INSTANCE_A_JSON = """{
  "n": 4, "root": 0, "terminals": [2, 3], "k": 1,
  "edges": [
    {"id": 1, "tail": 0, "head": 1, "cost": "2", "mult": 1},
    {"id": 2, "tail": 1, "head": 2, "cost": "1", "mult": 1},
    {"id": 3, "tail": 1, "head": 3, "cost": "1", "mult": 1},
    {"id": 4, "tail": 0, "head": 2, "cost": "4", "mult": 1},
    {"id": 5, "tail": 0, "head": 3, "cost": "4", "mult": 1}
  ]
}"""


def small_random_instance(rng, *, max_nodes=6, max_k=2, zero_prob=0.25) -> Instance:
    """Tiny random rooted instance; used where hand enumeration is the oracle.

    Positive costs are p/q with q in {1, 2, 3, 4}, so the instance's cost
    scale is rarely 1 and the integer pricing must rescale to be right.
    """
    n = rng.randint(3, max_nodes)
    k = rng.randint(1, max_k)
    t_count = rng.randint(1, min(3, n - 1))
    terminals = sorted(rng.sample(range(1, n), t_count))
    anchored = set(terminals) | {0}
    edges = []
    next_id = 1
    for u in range(n):
        for v in range(n):
            if u == v or v == 0:
                continue
            if u not in anchored and v not in anchored:
                continue
            if rng.random() < 0.5:
                if rng.random() < zero_prob:
                    cost = Fraction(0)
                else:
                    cost = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                mult = 2 if rng.random() < 0.15 else 1
                edges.append(Edge(next_id, u, v, cost, mult))
                next_id += 1
    return Instance(n, 0, frozenset(terminals), tuple(edges), k)
