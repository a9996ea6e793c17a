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

Loading an instance is one walk over its edges.  ``parse_instance`` builds
each ``Edge``, a named tuple, once; ``Instance`` checks each edge and, in the
same loop, fills the views every command reads: ``edge_by_id``, the
zero/positive split, the scaled costs, ``cost_scale`` and
``positive_unit_count``.  The solver's rows (the positive edges as (scaled
cost, id, tail, head, multiplicity) in cost order, the same rows per head
in ``positive_entering``, and each edge's ``arc``) are built from those on
first use, so ``verify``, which never reads them, never builds them.  A
solve report is read the same way: each cost text is parsed once, decimal
integers and "p/q" texts by ``int`` (``frac_from_obj``), and each iteration
record is a named tuple too.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
    int.  No exponent: ``Fraction`` builds 10**exp past every digit limit.

    A text of decimal digits, or two of them around one "/", is read with
    ``int`` (no sign, space, "_" or "." there: the same digits ``Fraction``
    reads, under the same digit limit); any other text goes to
    ``Fraction``'s own parser."""
    if type(obj) is int:
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            if obj.isdecimal():
                return Fraction(int(obj))
            num, slash, den = obj.partition("/")
            if slash and num.isdecimal() and den.isdecimal():
                return Fraction(int(num), int(den))
            if "e" not in obj.lower():
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


class Edge(NamedTuple):
    """One edge on offer: ``mult`` parallel copies from ``tail`` to ``head``,
    each costing ``cost``.  A named tuple: immutable, cheap to build, and
    unpacked in that field order where a loop reads every field."""

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
    ids are unique, all node ids lie in range, and the common denominator
    and the total cost, in its units, can be written (``str``'s digit limit).

    One walk over the edges checks each edge and fills the views every
    command reads: ``edge_by_id``, the zero/positive split, the scaled costs
    (``scaled_cost``), ``cost_scale`` and ``positive_unit_count``.  The
    solver's rows (``positive_by_cost``, ``positive_entering``, ``arc``) are
    built from those on first use.
    """

    node_count: int
    root: int
    terminals: frozenset[int]
    edges: tuple[Edge, ...]
    k: int
    edge_by_id: dict[int, Edge] = field(init=False, repr=False, compare=False)
    zero_edges: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    positive_edges: tuple[Edge, ...] = field(init=False, repr=False, compare=False)
    # how many positive units there are, counted off the multiplicities:
    # what the size caps compare
    positive_unit_count: int = field(init=False, repr=False, compare=False)
    # least common denominator of the edge costs (1 for integer costs)
    cost_scale: int = field(init=False, repr=False, compare=False)
    _scaled_costs: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, root = self.node_count, self.root
        if n < 1:
            raise ParseError("node count must be positive")
        if not 0 <= root < n:
            raise ParseError(f"root {root} out of range")
        if not self.terminals:
            raise ParseError("terminal set must be nonempty")
        for t in self.terminals:
            if not 0 <= t < n:
                raise ParseError(f"terminal {t} out of range")
        if root in self.terminals:
            raise ParseError("root must not be a terminal")
        if self.k < 1:
            raise ParseError("connectivity target k must be positive")
        by_id: dict[int, Edge] = {}
        zero, positive = [], []
        scaled: dict[int, int] = {}  # edge id -> cost numerator, scaled below
        fractional: dict[int, None] = {}  # the denominators above 1, first seen first
        units = total = 0
        for e in self.edges:
            eid, tail, head, cost, mult = e
            if eid in by_id:
                raise ParseError(f"duplicate edge id {eid}")
            by_id[eid] = e
            if not (0 <= tail < n and 0 <= head < n):
                raise ParseError(f"edge {eid} endpoint out of range")
            if head == root:
                raise ParseError(f"edge {eid} enters root")
            if tail == head:
                raise ParseError(f"edge {eid} is a self-loop")
            num = cost.numerator
            if num < 0:
                raise ParseError(f"edge {eid} has negative cost")
            if mult < 1:
                raise ParseError(f"edge {eid} has non-positive multiplicity")
            scaled[eid] = num
            if num:
                positive.append(e)
                units += mult
                total += num * mult
            else:
                zero.append(e)
            if cost.denominator != 1:
                fractional[cost.denominator] = None
        scale = 1
        try:
            if fractional:
                for den in fractional:
                    scale = math.lcm(scale, den)
                    _writable(scale)  # so a scale too long to write raises at once
                for eid, num in scaled.items():
                    scaled[eid] = num * (scale // by_id[eid].cost.denominator)
                total = sum(scaled[eid] * mult for eid, _, _, _, mult in positive)
            _writable(total)  # with the scale, it bounds every rational a run writes
        except ValueError as exc:
            raise ParseError(
                f"the costs' common denominator or total is too long: {exc}"
            ) from exc
        vars(self).update(
            edge_by_id=by_id, zero_edges=tuple(zero), positive_edges=tuple(positive),
            positive_unit_count=units, cost_scale=scale, _scaled_costs=scaled,
        )

    @cached_property
    def positive_by_cost(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """(scaled cost, edge id, tail, head, multiplicity) of every positive
        edge, in (scaled cost, id) order."""
        scaled = self._scaled_costs
        return tuple(sorted(
            [(scaled[eid], eid, tail, head, mult) for eid, tail, head, _, mult in self.positive_edges]
        ))

    @cached_property
    def positive_entering(self) -> dict[int, tuple[tuple[int, int, int, int], ...]]:
        """Per head v of a positive edge: (edge id, tail, scaled cost,
        multiplicity) of every positive edge into v, in id order."""
        entering: dict[int, list] = {}
        for cost, eid, tail, head, mult in self.positive_by_cost:
            entering.setdefault(head, []).append((eid, tail, cost, mult))
        return {v: tuple(sorted(row)) for v, row in entering.items()}

    @cached_property
    def _arcs(self) -> dict[int, tuple[int, int]]:
        return {eid: (tail, head) for eid, tail, head, _, _ in self.edges}

    def scaled_cost(self, eid: int) -> int:
        """The edge's cost in units of 1/``cost_scale``: an exact integer."""
        return self._scaled_costs[eid]

    def arc(self, eid: int) -> tuple[int, int]:
        """The edge's (tail, head)."""
        return self._arcs[eid]

    def selection_cost(self, selected: dict[int, int]) -> Fraction:
        scaled = sum(self._scaled_costs[e] * c for e, c in selected.items())
        return Fraction(scaled, self.cost_scale)


def _writable(value: int) -> None:
    """Raise ``str``'s ValueError when ``value`` has more digits than it
    writes; ``str`` is only tried once the bit length says it might."""
    bits = sys.get_int_max_str_digits() * 3.32  # log2(10) > 3.32 bits per digit
    if bits and value.bit_length() > bits:
        str(value)


def validate_quasi_bipartite(inst: Instance) -> bool:
    """Whether every positive-cost edge has an end in the terminals or root.

    Zero-cost edges are exempt: the guarantee only needs the purchasable part
    of the graph to be quasi-bipartite.
    """
    anchored = set(inst.terminals) | {inst.root}
    return all(tail in anchored or head in anchored for _, tail, head, _, _ in inst.positive_edges)


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
    ``Fraction`` that every edge spelling it shares.  Each edge is built
    once; ``Instance`` checks it, with every other invariant, and refuses
    costs whose common denominator or total is too long to write.
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
    make = Edge._make
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
        edges.append(make((eid, tail, head, cost, mult)))
    return Instance(n, root, frozenset(terminals), tuple(edges), k)


def instance_to_json(inst: Instance) -> str:
    doc = {
        "n": inst.node_count,
        "root": inst.root,
        "terminals": sorted(inst.terminals),
        "k": inst.k,
        "edges": [
            {"id": eid, "tail": tail, "head": head, "cost": str(cost), "mult": mult}
            for eid, tail, head, cost, mult in inst.edges
        ],
    }
    return dump_json(doc)


class IterationRecord(NamedTuple):
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


def _record_from_doc(doc: dict, costs: dict[str, Fraction]) -> IterationRecord:
    """Parse one iteration record: integer counters, of which the level and
    the leaf count are at least 1 and the cores left at least 0, a rational
    cost (a string already in ``costs`` is not parsed again) and
    [edge id, copy] integer units."""
    try:
        level, before, after, center, leaves = (
            doc["phase_level"], doc["cores_before"], doc["cores_after"],
            doc["star_center"], doc["leaf_count"],
        )
        cost = _cached_frac(doc["added_cost"], costs)
        units = tuple(map(tuple, doc["added_units"]))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed iteration record: {exc}") from exc
    if not (
        type(level) is int and type(before) is int and type(after) is int
        and type(center) is int and type(leaves) is int
        # every unit a pair, so its items are the pairs' two ends
        and set(map(len, units)) <= {2} and set(map(type, chain.from_iterable(units))) <= {int}
        and min(level, leaves) >= 1
        and after >= 0
    ):
        raise ParseError(f"malformed iteration record: {json.dumps(doc)}")
    return IterationRecord._make((level, before, after, center, leaves, cost, units))


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
        if not inst.scaled_cost(eid):
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
