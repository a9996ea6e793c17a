"""Rooted subset k-edge-connectivity on quasi-bipartite digraphs.

A greedy approximation solver (spider stars over deficient-set rings, covered
level by level), an exact branch-and-bound optimum, and an audit harness that
checks the structural guarantees the approximation rests on.  The enumeration
oracles these are tested against live with the tests.
"""

from .deficiency import CoreInfo
from .exact import brute_force_opt
from .generate import GenParams, generate_instance
from .instance import (
    Edge,
    InfeasibleError,
    Instance,
    ParseError,
    SizeRefusalError,
    Solution,
    instance_to_json,
    parse_instance,
    validate_quasi_bipartite,
)
from .solver import SolveReport, harmonic, solve
from .verify import audit_run, check_feasible

__all__ = [
    "CoreInfo",
    "Edge",
    "GenParams",
    "InfeasibleError",
    "Instance",
    "ParseError",
    "SizeRefusalError",
    "SolveReport",
    "Solution",
    "audit_run",
    "brute_force_opt",
    "check_feasible",
    "generate_instance",
    "harmonic",
    "instance_to_json",
    "parse_instance",
    "solve",
    "validate_quasi_bipartite",
]
