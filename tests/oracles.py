"""Brute-force oracles by plain enumeration: minimum cuts, optima, deficient
families and their rings, exact ring covers, chain certificates, and explicit
set functions.

Everything here is exponential and only usable on tiny inputs, which is the
point.  None of it reads the package's flow, ring, greedy, search, solver or
verifier code: a set's value is recomputed by adding up the capacity of the
arcs entering it over explicitly enumerated subsets.  Arcs are
(tail, head, capacity) triples throughout.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from rkec.instance import Instance, ParseError, SizeRefusalError

_UNIVERSE_CAP = 16


def subsets(items):
    """Every subset of ``items`` as a frozenset, smallest first."""
    items = tuple(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def enters(tail: int, head: int, members) -> bool:
    """An arc covers a set when its head is inside and its tail is not."""
    return head in members and tail not in members


def in_capacity(arcs, members) -> int:
    return sum(cap for tail, head, cap in arcs if enters(tail, head, members))


def minimal_sets(sets):
    """The inclusion-minimal sets among ``sets``, in their order."""
    sets = list(sets)
    return [a for a in sets if not any(b < a for b in sets)]


def instance_arcs(inst: Instance, units=()) -> list[tuple[int, int, int]]:
    """The working graph of ``units``: every zero-cost edge at its
    multiplicity, then one arc per unit."""
    arcs = [(e.tail, e.head, e.mult) for e in inst.zero_edges]
    arcs.extend((*inst.arc(eid), 1) for eid, _ in units)
    return arcs


# ---------------------------------------------------------------------------
# cuts and optima


def oracle_min_cut(arcs, n: int, s: int, t: int):
    """(cut value, all minimum sink sides) by subset enumeration."""
    cuts = {}
    for rest in subsets(v for v in range(n) if v not in (s, t)):
        cuts[rest | {t}] = in_capacity(arcs, rest | {t})
    best = min(cuts.values())
    return best, [side for side, cap in cuts.items() if cap == best]


def oracle_opt_cost(inst: Instance) -> Fraction | None:
    """Exact optimum by scanning every subset of positive units (feasible
    when no set is deficient); None when none is feasible."""
    return min(
        (
            sum((inst.edge_by_id[eid].cost for eid, _ in units), Fraction(0))
            for units in subsets((e.id, c) for e in inst.positive_edges for c in range(e.mult))
            if enumerate_rooted(inst, units).level == 0
        ),
        default=None,
    )


# ---------------------------------------------------------------------------
# family enumeration


@dataclass(frozen=True)
class RingView:
    """The subfamily focused on one core, with its ring structure checked."""

    core: frozenset[int]
    members: tuple[frozenset[int], ...]
    maximal: frozenset[int]
    is_ring: bool  # closed under union/intersection, unique min and max


@dataclass
class EnumeratedFamily:
    """Every subset of a small universe evaluated against a deficiency rule."""

    terminals: frozenset[int]
    level: int
    positive: dict[frozenset[int], int]  # all sets with positive residual value
    members: list[frozenset[int]]  # the sets attaining the max level
    cores: list[frozenset[int]]  # inclusion-minimal members, by smallest terminal

    def check_t_intersecting(self) -> bool:
        """Closure of the max-level family under union/intersection on
        terminal-sharing pairs."""
        member_set = set(self.members)
        for a, b in itertools.combinations(self.members, 2):
            if a & b & self.terminals:
                if a & b not in member_set or a | b not in member_set:
                    return False
        return True

    def every_member_contains_core(self) -> bool:
        return all(any(core <= m for core in self.cores) for m in self.members)

    def ring_view(self, core) -> RingView:
        core = frozenset(core)
        others = [c for c in self.cores if c != core]
        members = tuple(
            m for m in self.members if not any(o <= m for o in others)
        )
        maximal = frozenset().union(*members) if members else frozenset()
        is_ring = bool(members) and maximal in members and core in members
        if is_ring:
            for a, b in itertools.combinations(members, 2):
                if (a & b not in members) or (a | b not in members):
                    is_ring = False
                    break
        if is_ring:
            is_ring = all(core <= m <= maximal for m in members)
        return RingView(core, members, maximal, is_ring)


def enumerate_deficiency(universe, terminals, value_fn) -> EnumeratedFamily:
    """Evaluate ``value_fn`` on every subset of ``universe`` and classify."""
    universe = tuple(universe)
    if len(universe) > _UNIVERSE_CAP:
        raise SizeRefusalError(
            f"universe of {len(universe)} nodes exceeds the enumeration cap"
        )
    terminals = frozenset(terminals)
    positive = {}
    for members in subsets(universe):
        v = value_fn(members)
        if v > 0:
            positive[members] = v
    level = max(positive.values(), default=0)
    members = sorted(
        (m for m, v in positive.items() if v == level),
        key=lambda m: (len(m), sorted(m)),
    ) if level else []
    cores = sorted(minimal_sets(members), key=lambda m: min(m & terminals))
    return EnumeratedFamily(terminals, level, positive, members, cores)


def enumerate_rooted(inst: Instance, units=()) -> EnumeratedFamily:
    """Enumerate the residual deficiency family of an instance state."""
    universe = [v for v in range(inst.node_count) if v != inst.root]
    return enumerate_arc_family(universe, inst.terminals, inst.k, instance_arcs(inst, units))


def enumerate_arc_family(universe, terminals, k, arcs) -> EnumeratedFamily:
    """Enumerate max(k - entering capacity, 0) over terminal-containing
    subsets."""
    arcs = tuple(arcs)
    terminals = frozenset(terminals)

    def value(members):
        if not members & terminals:
            return 0
        return max(k - in_capacity(arcs, members), 0)

    return enumerate_deficiency(universe, terminals, value)


def enumerate_explicit(fn: "ExplicitSetFunction", arcs=()) -> EnumeratedFamily:
    """Enumerate an explicit set function's residual family after ``arcs``."""
    arcs = tuple(arcs)

    def value(members):
        return max(fn.value(members) - in_capacity(arcs, members), 0)

    return enumerate_deficiency(range(fn.universe), fn.terminals, value)


# ---------------------------------------------------------------------------
# explicit set functions


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
        if not 1 <= self.universe <= _UNIVERSE_CAP:
            raise ParseError(f"universe size must be in 1..{_UNIVERSE_CAP}")
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
            (members, max(value - in_capacity(arcs, members), 0))
            for members, value in self.table
        )
        return ExplicitSetFunction(self.universe, self.terminals, table)


def tabulate_rooted(inst: Instance, units=()) -> ExplicitSetFunction:
    """The rooted deficiency function of a state as an explicit table, so the
    two can be compared on identical inputs."""
    family = enumerate_rooted(inst, units)
    return ExplicitSetFunction(inst.node_count, inst.terminals, tuple(family.positive.items()))


# ---------------------------------------------------------------------------
# exact ring covers


def brute_force_ring_cover(members, head_arc, candidates):
    """Exact minimum-cost legs so that legs plus the head cover ``members``.

    ``candidates`` is a list of (key, tail, head, cost); the head arc is a
    bare (tail, head) or None.  Returns (cost, sorted keys) or None when some
    member cannot be covered at all.
    """
    members = [frozenset(m) for m in members]
    if head_arc is not None:
        members = [m for m in members if not enters(head_arc[0], head_arc[1], m)]
    if not members:
        return Fraction(0), ()
    if len(candidates) > 22:
        raise SizeRefusalError("too many candidate edges for exact ring cover")

    # Hitting-set view: each uncovered member constrains the selection to
    # include one of the edges entering it.  Mask-dominated constraints are
    # redundant.
    constraints = []
    for m in members:
        mask = 0
        for i, (_, tail, head, _) in enumerate(candidates):
            if enters(tail, head, m):
                mask |= 1 << i
        if mask == 0:
            return None
        constraints.append(mask)
    constraints = [
        c for c in set(constraints)
        if not any(other != c and other & c == other for other in set(constraints))
    ]
    constraints.sort(key=lambda c: (c.bit_count(), c))

    costs = [c for (_, _, _, c) in candidates]
    keys = [key for (key, _, _, _) in candidates]
    best: tuple[Fraction, tuple] | None = None

    def search(chosen_mask: int, cost: Fraction):
        nonlocal best
        if best is not None and cost > best[0]:
            return
        open_constraints = [c for c in constraints if not c & chosen_mask]
        if not open_constraints:
            key = tuple(sorted(keys[i] for i in range(len(candidates)) if chosen_mask >> i & 1))
            if best is None or cost < best[0] or (cost == best[0] and key < best[1]):
                best = (cost, key)
            return
        tightest = min(open_constraints, key=lambda c: (c.bit_count(), c))
        i = 0
        while tightest:
            if tightest & 1:
                search(chosen_mask | (1 << i), cost + costs[i])
            tightest >>= 1
            i += 1

    search(0, Fraction(0))
    return best


# ---------------------------------------------------------------------------
# structure certificates


class CertificateError(AssertionError):
    """A structural certificate could not be constructed."""


@dataclass(frozen=True)
class ChainCertificate:
    """Witness that a minimal ring cover tightens along a nested chain."""

    edges: tuple  # cover edge keys, innermost first
    sets: tuple[frozenset[int], ...]  # strictly nested, last one is the ring maximum


def nested_chain_certificate(members, cover) -> ChainCertificate:
    """Build the nested-chain witness for an inclusion-minimal ring cover.

    ``members`` lists the ring's sets, ``cover`` maps edge keys to (tail,
    head) arcs.  For each cover edge the sets it alone enters form a ring of
    witnesses; the minimal witnesses are pairwise comparable and order the
    edges, and the ring maximum caps the chain.  Raises CertificateError if
    the cover is not minimal or the structure does not materialize.
    """
    members = [frozenset(m) for m in members]
    if not members:
        raise CertificateError("empty ring")
    cover = dict(cover)
    if not cover:
        raise CertificateError("empty cover")

    core = frozenset.intersection(*members)
    maximal = frozenset.union(*members)
    if core not in members or maximal not in members:
        raise CertificateError("family has no unique minimum or maximum")

    def entered_by(m):
        return [key for key, (tail, head) in cover.items() if enters(tail, head, m)]

    for m in members:
        if not entered_by(m):
            raise CertificateError(f"set {sorted(m)} is uncovered")

    witnesses: dict = {key: [] for key in cover}
    for m in members:
        hits = entered_by(m)
        if len(hits) == 1:
            witnesses[hits[0]].append(m)
    minimal_witness = {}
    for key, ws in witnesses.items():
        if not ws:
            raise CertificateError(f"edge {key} has no private witness; cover not minimal")
        m_min = frozenset.intersection(*ws)
        if m_min not in ws:
            raise CertificateError(f"witnesses of edge {key} are not a ring")
        minimal_witness[key] = m_min

    ordered = sorted(minimal_witness.items(), key=lambda kv: len(kv[1]))
    chain_sets = []
    chain_edges = []
    prev = None
    for key, m in ordered:
        if prev is not None and not prev < m:
            raise CertificateError("minimal witnesses do not form a strict chain")
        prev = m
        chain_sets.append(m)
        chain_edges.append(key)

    if chain_sets[0] != core:
        raise CertificateError("chain does not start at the ring core")
    top_hits = entered_by(maximal)
    if len(top_hits) != 1 or top_hits[0] != chain_edges[-1]:
        raise CertificateError("ring maximum is not uniquely entered by the last edge")
    chain_sets[-1] = maximal

    for key, m in zip(chain_edges, chain_sets):
        if set(entered_by(m)) != {key}:
            raise CertificateError("chain set entered by more than its own edge")

    return ChainCertificate(tuple(chain_edges), tuple(chain_sets))
