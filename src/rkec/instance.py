"""Problem instances, solutions, and their JSON wire formats.

An instance is a rooted digraph with per-edge nonnegative rational costs, a
terminal set, and a connectivity target k.  The zero-cost edges form the base
subgraph that is considered already paid for; the solver only ever buys
positive-cost edges.  A selection counts the copies bought per edge id; only
the iteration records number the copies, one copy, a unit, written as an
(edge id, copy index) pair.

Costs are reported as rationals, but the solver prices in integers: every
edge cost is an integer multiple of 1/``cost_scale``, the least common
denominator of the instance's costs, and ``scaled_cost`` gives that multiple.
A cost's sign is read off its numerator (a reduced ``Fraction``, like an
``int``, carries it there), so building an instance compares no rationals.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

Unit = tuple[int, int]  # (edge id, copy index within the edge's multiplicity)


class ParseError(ValueError):
    """An instance or solution document violates the schema or an invariant."""


class InfeasibleError(RuntimeError):
    """No edge selection can reach the connectivity target."""

    def __init__(self, terminal: int, achieved: int, required: int):
        super().__init__(
            f"terminal {terminal} reaches only {achieved} < {required} "
            f"edge-disjoint root paths even with every edge selected"
        )
        self.terminal = terminal
        self.achieved = achieved
        self.required = required


class SizeRefusalError(RuntimeError):
    """An exact computation would exceed its enumeration ceiling."""


def frac_from_obj(obj) -> Fraction:
    """Parse a rational from a JSON value: a "p/q" or decimal string, or an
    int.  No exponent: ``Fraction`` builds 10**exp past every digit limit."""
    if type(obj) is int:
        return Fraction(obj)
    if isinstance(obj, str) and "e" not in obj.lower():
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {obj!r}") from exc
    raise ParseError(f"not a rational: {obj!r}")


def _cached_frac(obj, seen: dict[str, Fraction]) -> Fraction:
    """``frac_from_obj(obj)``, parsing a string only the first time ``seen``
    meets it.  Only strings are kept, so ``true`` never finds the ``1``."""
    if type(obj) is not str:
        return frac_from_obj(obj)
    frac = seen.get(obj)
    if frac is None:
        frac = seen[obj] = frac_from_obj(obj)
    return frac


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    cost: Fraction
    mult: int = 1


@dataclass(frozen=True)
class Instance:
    """Validated, immutable problem instance.

    Invariants enforced at construction: the root is not a terminal, no edge
    enters the root, costs are nonnegative, multiplicities are positive, edge
    ids are unique, and all node ids lie in range.
    """

    node_count: int
    root: int
    terminals: frozenset[int]
    edges: tuple[Edge, ...]
    k: int

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise ParseError("node count must be positive")
        if not 0 <= self.root < n:
            raise ParseError(f"root {self.root} out of range")
        if not self.terminals:
            raise ParseError("terminal set must be nonempty")
        for t in self.terminals:
            if not 0 <= t < n:
                raise ParseError(f"terminal {t} out of range")
        if self.root in self.terminals:
            raise ParseError("root must not be a terminal")
        if self.k < 1:
            raise ParseError("connectivity target k must be positive")
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise ParseError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if not (0 <= e.tail < n and 0 <= e.head < n):
                raise ParseError(f"edge {e.id} endpoint out of range")
            if e.head == self.root:
                raise ParseError(f"edge {e.id} enters root")
            if e.tail == e.head:
                raise ParseError(f"edge {e.id} is a self-loop")
            if e.cost.numerator < 0:
                raise ParseError(f"edge {e.id} has negative cost")
            if e.mult < 1:
                raise ParseError(f"edge {e.id} has non-positive multiplicity")

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def zero_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.cost.numerator == 0)

    @cached_property
    def positive_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.cost.numerator > 0)

    @property
    def positive_unit_count(self) -> int:
        """How many positive units there are, counted off the multiplicities:
        what the size caps compare."""
        return sum(e.mult for e in self.positive_edges)

    @cached_property
    def cost_scale(self) -> int:
        """Least common denominator of the edge costs (1 for integer costs),
        taken over the distinct denominators in first-seen order.  Once the
        running multiple might pass ``str``'s digit limit, ``str`` is tried
        on it, so a scale too long to write raises early."""
        bits = sys.get_int_max_str_digits() * 3.32  # log2(10) > 3.32 bits per digit
        scale = 1
        for denominator in dict.fromkeys(e.cost.denominator for e in self.edges):
            scale = math.lcm(scale, denominator)
            if bits and scale.bit_length() > bits:
                str(scale)
        return scale

    @cached_property
    def _scaled_costs(self) -> dict[int, int]:
        scale = self.cost_scale
        return {e.id: e.cost.numerator * (scale // e.cost.denominator) for e in self.edges}

    @cached_property
    def positive_entering(self) -> dict[int, tuple[tuple[int, int, int, int], ...]]:
        """Per head v of a positive edge: (edge id, tail, scaled cost,
        multiplicity) of every positive edge into v, in id order."""
        entering: dict[int, list] = {}
        for e in sorted(self.positive_edges, key=lambda e: e.id):
            entering.setdefault(e.head, []).append((e.id, e.tail, self._scaled_costs[e.id], e.mult))
        return {v: tuple(row) for v, row in entering.items()}

    @cached_property
    def positive_by_cost(self) -> tuple[Edge, ...]:
        """The positive edges in (scaled cost, id) order."""
        return tuple(sorted(self.positive_edges, key=lambda e: (self._scaled_costs[e.id], e.id)))

    def scaled_cost(self, eid: int) -> int:
        """The edge's cost in units of 1/``cost_scale``: an exact integer."""
        return self._scaled_costs[eid]

    def arc(self, eid: int) -> tuple[int, int]:
        e = self.edge_by_id[eid]
        return e.tail, e.head

    def selection_cost(self, selected: dict[int, int]) -> Fraction:
        scaled = sum(self._scaled_costs[e] * c for e, c in selected.items())
        return Fraction(scaled, self.cost_scale)


def validate_quasi_bipartite(inst: Instance) -> bool:
    """Whether every positive-cost edge has an end in the terminals or root.

    Zero-cost edges are exempt: the guarantee only needs the purchasable part
    of the graph to be quasi-bipartite.
    """
    anchored = set(inst.terminals) | {inst.root}
    return all(e.tail in anchored or e.head in anchored for e in inst.positive_edges)


def load_object(text: str, what: str, where: str = "") -> dict:
    """Parse a JSON document that must be an object.

    ``what`` names the document in the error for any other JSON value;
    ``where`` (a file name, say) prefixes both errors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}{what} must be a JSON object")
    return doc


def dump_json(doc) -> str:
    """The one output layout: sorted keys, two-space indent, final newline.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline, written in one pass.  It writes ``str``, ``int``,
    ``float``, ``bool``, ``None``, lists, tuples and dicts with ``str`` keys;
    anything else, a non-``str`` key included, raises ``TypeError``.
    """
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append ``value``'s chunks, its nested lines starting with ``newline``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # json.dumps writes the non-finite ones so too
        out.append(
            float.__repr__(value) if math.isfinite(value)
            else "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
        )
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def parse_instance(text: str) -> Instance:
    """Parse an instance document.

    Every integer field must be a JSON integer (``true`` is not 1).  Edges
    entering the root never help any cut and are rejected.  Self-loops are
    dropped silently.  Each distinct cost string is parsed into one
    ``Fraction`` that every edge spelling it shares.  Costs whose common
    denominator or total is too long to write are rejected.
    """
    doc = load_object(text, "instance document")
    try:
        n = doc["n"]
        root = doc["root"]
        terminals = doc["terminals"]
        k = doc["k"]
        raw_edges = doc["edges"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    if not (type(n) is int and type(root) is int and type(k) is int):
        raise ParseError("n, root and k must be integers")
    if not isinstance(terminals, list) or not all(type(t) is int for t in terminals):
        raise ParseError("terminals must be a list of integers")
    if not isinstance(raw_edges, list):
        raise ParseError("edges must be a list")

    costs: dict[str, Fraction] = {}
    edges = []
    for rec in raw_edges:
        if not isinstance(rec, dict):
            raise ParseError("edge record must be an object")
        try:
            eid, tail, head = rec["id"], rec["tail"], rec["head"]
            cost = _cached_frac(rec["cost"], costs)
        except KeyError as exc:
            raise ParseError(f"edge record missing field {exc.args[0]!r}") from exc
        mult = rec.get("mult", 1)
        if not (type(eid) is int and type(tail) is int and type(head) is int
                and type(mult) is int):
            raise ParseError("edge id, endpoints and mult must be integers")
        if tail == head:
            continue  # self-loops cover nothing
        if head == root:
            raise ParseError(f"edge {eid} enters root")
        edges.append(Edge(eid, tail, head, cost, mult))

    inst = Instance(n, root, frozenset(terminals), tuple(edges), k)
    try:  # the scale and the largest total bound every rational a run writes
        costs = inst._scaled_costs  # reads cost_scale, which raises when too long
        str(inst.cost_scale), str(sum(costs[e.id] * e.mult for e in inst.edges))
    except ValueError as exc:
        raise ParseError(f"the costs' common denominator or total is too long: {exc}") from exc
    return inst


def instance_to_json(inst: Instance) -> str:
    doc = {
        "n": inst.node_count,
        "root": inst.root,
        "terminals": sorted(inst.terminals),
        "k": inst.k,
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head,
             "cost": str(e.cost), "mult": e.mult}
            for e in inst.edges
        ],
    }
    return dump_json(doc)


@dataclass(frozen=True)
class IterationRecord:
    """One greedy iteration: which star was bought and how the cores moved."""

    phase_level: int
    cores_before: int
    cores_after: int
    star_center: int  # edge id of the chosen head
    leaf_count: int
    added_cost: Fraction  # cost of the units newly added this iteration
    added_units: tuple[Unit, ...]  # exact units, for replay-style audits


@dataclass
class Solution:
    selected: dict[int, int]  # edge id -> number of units bought
    total_cost: Fraction
    connectivity: dict[int, int]  # terminal -> edge-disjoint root paths achieved
    feasible: bool
    audit: list[IterationRecord] = field(default_factory=list)


def selection_from_units(units) -> dict[int, int]:
    return dict(sorted(Counter(eid for eid, _ in units).items()))


def _record_to_doc(rec: IterationRecord) -> dict:
    return {
        "phase_level": rec.phase_level,
        "cores_before": rec.cores_before,
        "cores_after": rec.cores_after,
        "star_center": rec.star_center,
        "leaf_count": rec.leaf_count,
        "added_cost": str(rec.added_cost),
        "added_units": [list(u) for u in rec.added_units],
    }


_COUNTERS = ("phase_level", "cores_before", "cores_after", "star_center", "leaf_count")


def _record_from_doc(doc: dict, costs: dict[str, Fraction]) -> IterationRecord:
    """Parse one iteration record: integer counters, of which the level and
    the leaf count are at least 1 and the cores left at least 0, a rational
    cost (a string already in ``costs`` is not parsed again) and
    [edge id, copy] integer units."""
    try:
        rec = IterationRecord(
            **{name: doc[name] for name in _COUNTERS},
            added_cost=_cached_frac(doc["added_cost"], costs),
            added_units=tuple(tuple(u) for u in doc["added_units"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed iteration record: {exc}") from exc
    if not (
        type(rec.phase_level) is int and type(rec.cores_before) is int
        and type(rec.cores_after) is int and type(rec.star_center) is int
        and type(rec.leaf_count) is int
        and all(len(u) == 2 and type(u[0]) is int and type(u[1]) is int
                for u in rec.added_units)
        and min(rec.phase_level, rec.leaf_count) >= 1
        and rec.cores_after >= 0
    ):
        raise ParseError(f"malformed iteration record: {json.dumps(doc)}")
    return rec


def connectivity_to_doc(connectivity: dict[int, int]) -> dict[str, int]:
    """Terminal -> edge-disjoint root paths, keyed by terminal id strings in id order."""
    return {str(t): v for t, v in sorted(connectivity.items())}


def solution_to_doc(sol: Solution) -> dict:
    return {
        "selected": [[eid, sol.selected[eid]] for eid in sorted(sol.selected)],
        "total_cost": str(sol.total_cost),
        "connectivity": connectivity_to_doc(sol.connectivity),
        "feasible": sol.feasible,
        "audit": [_record_to_doc(r) for r in sol.audit],
    }


def _selection_from_doc(raw) -> dict[int, int]:
    """Edge id -> units bought, from a list of [edge id, count] integer pairs."""
    if not isinstance(raw, list):
        raise ParseError("selected must be a list of [edge id, count] pairs")
    selected: dict[int, int] = {}
    for rec in raw:
        if not (isinstance(rec, list) and len(rec) == 2
                and type(rec[0]) is int and type(rec[1]) is int):
            raise ParseError(f"selected entry {rec!r} is not an [edge id, count] pair of integers")
        eid, count = rec
        if eid in selected:
            raise ParseError(f"edge {eid} is listed twice in selected")
        selected[eid] = count
    return selected


def check_selection(inst: Instance, selected: dict[int, int]) -> None:
    """Reject a selection the instance does not offer.

    Every id must name a positive-cost edge (zero-cost edges are already in
    the working graph, so selecting one would count its capacity twice) and
    be bought between once and its multiplicity.
    """
    for eid, count in selected.items():
        e = inst.edge_by_id.get(eid)
        if e is None:
            raise ParseError(f"selected edge {eid} is not in the instance")
        if e.cost.numerator == 0:
            raise ParseError(f"selected edge {eid} costs zero and is always present")
        if not 1 <= count <= e.mult:
            raise ParseError(f"edge {eid} selected {count} times, multiplicity {e.mult}")


def solution_from_doc(doc: dict) -> Solution:
    """Parse a solution: ``feasible`` a JSON bool, ``connectivity`` an object
    of terminal ids (written as ``solution_to_doc`` writes them) to integers.
    Each distinct cost string is parsed once."""
    costs: dict[str, Fraction] = {}
    try:
        conn, feasible = doc["connectivity"], doc["feasible"]
        if not isinstance(conn, dict) or type(feasible) is not bool or not all(
            str(t).isdecimal() and str(int(t)) == t and type(v) is int for t, v in conn.items()
        ):
            raise ParseError("connectivity must map terminal ids to integers, feasible be a bool")
        return Solution(
            selected=_selection_from_doc(doc["selected"]),
            total_cost=_cached_frac(doc["total_cost"], costs),
            connectivity={int(t): v for t, v in conn.items()},
            feasible=feasible,
            audit=[_record_from_doc(r, costs) for r in doc.get("audit", [])],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed solution: {exc}") from exc
