import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec import greedy, rings
from rkec.greedy import candidate_heads
from rkec.rings import min_violated_set, primal_dual_ring_cover
from rkec.instance import InfeasibleError, selection_from_units
from rkec.solver import solve

from conftest import INSTANCE_A_JSON, small_random_instance
from oracles import enumerate_arc_family, nested_chain_certificate
from reference import (
    build_ring_context,
    carried_ring,
    enumerated_ring,
    flow_state,
    free_leg_candidates,
    fresh_cover,
    grown_min_violated_set,
    load_script,
    positive_units,
    rooted_cores,
    rooted_max_level,
    run_optimized,
    saturating_arcs,
)


def ring_for(inst, units, target_members):
    """(flow, stops, per-edge counts of ``units``) of the ring around
    ``target_members``, as the solver reads it: off the carried flow."""
    cores = rooted_cores(inst, units)
    target = next(c for c in cores if c.members == frozenset(target_members))
    return (*carried_ring(inst, units, cores, target), selection_from_units(units))


def stops_for(inst, units, target_members):
    return ring_for(inst, units, target_members)[1]


def test_context_shape(instance_a):
    assert stops_for(instance_a, (), {2}) == {3}  # the other core's terminal
    flow, stops, taken = ring_for(instance_a, (), {2})
    # the flow is the carried root flow as it stands, over the zero-cost
    # edges alone (there are none): no arc onto the stop, and the head
    # 0 -> 1 never joins it, a primal-dual only reads through it
    assert flow.cap == [] and flow.value == 0  # k - level: k = 1, the core {2} at level 1
    before = flow_state(flow)
    cover = primal_dual_ring_cover(instance_a, flow, stops, taken, 1)
    assert 1 not in cover.legs  # the head's edge is never a leg
    assert flow_state(flow) == before


def test_context_symmetry(instance_a):
    assert stops_for(instance_a, (), {3}) == {2}


def test_single_core_no_saturation(instance_a):
    units = [(1, 0), (2, 0)]  # only terminal 3 stays deficient
    assert stops_for(instance_a, units, {3}) == frozenset()


def test_min_violated_set_fixture(instance_a):
    flow, stops, _ = ring_for(instance_a, (), {2})
    head = 1
    assert min_violated_set(instance_a, flow, stops, [head], set()) == frozenset({2})
    # the relay leg covers {2}; the head covers {1, 2}
    assert min_violated_set(instance_a, flow, stops, [head, 2], set()) is None
    # with no head at all, the ring's core is the minimal violated set
    assert min_violated_set(instance_a, flow, stops, (), set()) == frozenset({2})


def test_min_violated_set_head_alone(instance_a):
    flow, stops, _ = ring_for(instance_a, (), {2})
    # head straight onto 2
    assert min_violated_set(instance_a, flow, stops, [4], set()) is None


def test_ring_family_realization_matches_enumeration(instance_a):
    # saturating the other cores' terminals leaves exactly the target's ring
    # at the top level
    universe = [v for v in range(instance_a.node_count) if v != instance_a.root]
    family = enumerate_arc_family(universe, instance_a.terminals, instance_a.k, [])
    ring = family.ring_view(frozenset({2}))
    cores = rooted_cores(instance_a, ())
    level = rooted_max_level(instance_a, ())
    sat = saturating_arcs(instance_a, cores, cores[0], level)  # cores[0] is {2}, at level 1
    saturated = enumerate_arc_family(universe, instance_a.terminals, instance_a.k, sat)
    assert saturated.level == family.level
    assert set(saturated.members) == set(ring.members)


def test_primal_dual_fixture_prices(instance_a):
    cases = [
        ({2}, 1, Fraction(1), (2,)),  # head on the relay, leg onto 2
        ({2}, 4, Fraction(0), ()),  # head straight onto 2 covers the ring
        ({3}, 2, Fraction(3), (1, 3)),  # head misses the ring entirely
    ]
    for target, head, cost, legs in cases:
        ring = ring_for(instance_a, (), target)
        cover = primal_dual_ring_cover(instance_a, *ring, head)
        assert cover is not None
        assert cover.cost == cost and cover.legs == legs


# core {2} of instance_a priced with no head: step 0 raises {2} and edge 2
# (1 -> 2, cost 1) goes tight, step 1 raises {1, 2} and edge 1 (0 -> 1,
# cost 2) goes tight; each step is paid by exactly the leg entering it
_FIRST = {2: 0, 1: 1}


@pytest.mark.parametrize("cover, ok", [
    (rings.RingCover((1, 2), 3, _FIRST, (0, 1, 3)), True),
    (rings.RingCover((1, 2), 3, _FIRST, (0, 2, 1)), False),  # step 1 raises -1
    (rings.RingCover((2,), 1, _FIRST, (0, 1, 3)), False),  # no leg pays step 1
    (rings.RingCover((2, 4), 5, {2: 0}, (0, 1)), False),  # edges 2 and 4 both pay step 0
    (rings.RingCover((1, 2), 4, _FIRST, (0, 1, 3)), False),  # dual 3, cost 4
], ids=["valid", "negative-step", "unpaid-step", "step-paid-twice", "dual-below-cost"])
def test_the_certificate_rejects_a_cover_its_dual_does_not_pay_for(instance_a, cover, ok):
    assert instance_a.cost_scale == 1
    assert rings._certificate(instance_a, cover) is ok


def test_failed_certificate_stops_the_solve(instance_a, monkeypatch):
    # the check must be a raise, not an assert that ``python -O`` strips
    monkeypatch.setattr(rings, "_certificate", lambda inst, cover: False)
    with pytest.raises(AssertionError, match="fails its strong-duality certificate"):
        solve(instance_a)


_STOP_IN_THE_CORE_UNDER_O = f"""
from rkec import greedy
from rkec.instance import parse_instance

assert False, "asserts must be stripped in this interpreter"
real = greedy.ring_stops
greedy.ring_stops = lambda inst, cores: {{r: s | {{r}} for r, s in real(inst, cores).items()}}
try:
    greedy.cover_levels(parse_instance({INSTANCE_A_JSON!r}))
except AssertionError as exc:
    print("raised:", exc)
"""


def test_a_ring_whose_stops_reach_its_core_is_refused(instance_a):
    # a stop on the core's own side would reach the representative with no
    # unit at all: the ring's first read must raise (an ``if``, so it fires
    # under ``python -O``) rather than price the ring as covered by nothing
    for target, head in (({2}, 1), ({3}, 2)):
        flow, stops, taken = ring_for(instance_a, (), target)
        side = min_violated_set(instance_a, flow, stops, (), set())
        assert flow.sink in side and stops.isdisjoint(side)
        for node in side:
            for reading_head in (None, head):
                with pytest.raises(AssertionError, match="reaches the root or a stop"):
                    primal_dual_ring_cover(
                        instance_a, flow, stops | {node}, taken, reading_head
                    )

    # the same through the greedy, in an interpreter that strips ``assert``
    proc = run_optimized(_STOP_IN_THE_CORE_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: a ring's core side reaches the root or a stop")


def test_primal_dual_unpriceable():
    # terminal 2 only reachable via its own in-arc; remove it from candidates
    from rkec.instance import Edge, Instance

    inst = Instance(
        3, 0, frozenset({1, 2}),
        (Edge(1, 0, 1, Fraction(1)), Edge(2, 0, 2, Fraction(1))), 1,
    )
    cores = rooted_cores(inst, ())
    target = next(c for c in cores if c.members == frozenset({2}))
    # head is the only arc entering {2}: as a head it is excluded from legs,
    # so the ring of the *other* core cannot be covered when priced there
    assert fresh_cover(inst, (), cores, target, 2) is not None  # head alone suffices here
    other = next(c for c in cores if c.members == frozenset({1}))
    # ring around {1} needs edge 1, which is available; edge 2 is the head
    cover = fresh_cover(inst, (), cores, other, 2)
    assert cover is not None and cover.legs == (1,)

    # now drop edge 1 entirely: the ring around {1} has no candidate left
    inst2 = Instance(3, 0, frozenset({1, 2}), (Edge(2, 0, 2, Fraction(1)),), 1)
    cores2 = rooted_cores(inst2, ())
    target2 = next(c for c in cores2 if c.members == frozenset({1}))
    assert fresh_cover(inst2, (), cores2, target2, 2) is None


def _ring_samples(inst, rng, per_instance=4):
    """Sample solver-independent (state, core, head) rings: each as its
    state's units and cores, the core, the head's edge id and the head's
    fresh primal-dual cover."""
    units = list(positive_units(inst))
    out = []
    for _ in range(per_instance):
        sample = frozenset(u for u in units if rng.random() < 0.3)
        if rooted_max_level(inst, sample) == 0:
            continue
        cores = rooted_cores(inst, sample)
        free = [u for u in units if u not in sample]
        if not free:
            continue
        head = free[rng.randrange(len(free))][0]
        core = cores[rng.randrange(len(cores))]
        out.append((sample, cores, core, head, fresh_cover(inst, sample, cores, core, head)))
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_a_ring_read_matches_growing_the_ring_flow(seed):
    # reading a ring by reachability must give the side, or None, that
    # growing its flow by the edges and reading the closest cut gives, for
    # every core of random states and random edge sets, head or not
    rng = random.Random(seed)
    inst = small_random_instance(rng)
    units = list(positive_units(inst))
    for _ in range(3):
        state = [u for u in units if rng.random() < 0.3]
        cores = rooted_cores(inst, state)
        free = free_leg_candidates(inst, state)
        for core in cores:
            flow = build_ring_context(inst, state, cores, core)
            for p in (0.0, 0.2, 0.4, 0.7):
                trial = [u for u in free if rng.random() < p]
                expected = grown_min_violated_set(inst, flow, trial)
                assert min_violated_set(inst, flow, frozenset(), trial, set()) == expected


def _enumerated_ring(inst, units, cores, core):
    level, ring = enumerated_ring(inst, units, cores, core)
    return ring if level == rooted_max_level(inst, units) else None


def test_a_parallel_edge_offers_its_lowest_free_copy():
    # edge 1 (0 -> 1) has two copies: with one selected, its free copy is
    # offered both as a head and as a leg; with both selected, as neither,
    # and the ring around {1} is covered by the dearer edges instead
    from rkec.instance import Edge, Instance

    inst = Instance(
        3, 0, frozenset({1}),
        (
            Edge(1, 0, 1, Fraction(1), mult=2),
            Edge(2, 0, 2, Fraction(1)),
            Edge(3, 2, 1, Fraction(3)),
        ),
        3,
    )
    one = [(1, 0)]
    assert [row[1] for row in candidate_heads(inst, selection_from_units(one))] == [1, 2, 3]
    cores = rooted_cores(inst, one)
    assert [c.members for c in cores] == [frozenset({1})]
    assert fresh_cover(inst, one, cores, cores[0], 2).legs == (1,)

    both = [(1, 0), (1, 1)]
    assert [row[1] for row in candidate_heads(inst, selection_from_units(both))] == [2, 3]
    cores = rooted_cores(inst, both)
    assert [c.members for c in cores] == [frozenset({1})]
    assert fresh_cover(inst, both, cores, cores[0], 2).legs == (3,)
    assert fresh_cover(inst, both, cores, cores[0], 3).legs == (2,)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_minimal_covers_admit_chain_certificate(seed):
    rng = random.Random(seed)
    inst = small_random_instance(rng)
    for units, cores, core, head, cover in _ring_samples(inst, rng):
        ring = _enumerated_ring(inst, units, cores, core)
        if cover is None or ring is None:
            continue
        # make the cover minimal over the bare ring: head first, then legs
        edges = {e: inst.arc(e) for e in cover.legs}
        head_key = ("head", head)
        edges[head_key] = inst.arc(head)
        for key in [head_key, *cover.legs]:
            rest = {k: v for k, v in edges.items() if k != key}
            if rest and all(
                any(h in m and t not in m for t, h in rest.values()) for m in ring.members
            ):
                edges = rest
        cert = nested_chain_certificate(ring.members, edges)
        assert len(cert.edges) == len(edges)
        assert cert.sets[-1] == ring.maximal
        if len(cert.sets) > 1:
            assert cert.sets[0] == ring.core


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_dual_certificate_accompanies_every_cover(seed):
    rng = random.Random(seed)
    inst = small_random_instance(rng)
    for *_, cover in _ring_samples(inst, rng):
        # a cover that failed its certificate would have raised; its chain
        # gains a node at every step, and its dual total pays for its legs
        if cover is not None:
            steps = len(cover.prefix) - 1
            assert set(cover.first.values()) == set(range(steps))
            assert cover.prefix[0] == 0 and cover.prefix[-1] == cover.cost
            assert all(a <= b for a, b in zip(cover.prefix, cover.prefix[1:]))


CROSS_CHECK = Path(__file__).resolve().parents[1] / "scripts" / "ring_cross_check.py"


def test_ring_cross_check_script_passes(monkeypatch, capsys):
    # scripts/ring_cross_check.py runs ``reference.check_state`` over its
    # own draw of states, and ``reference.check_reused_covers`` over a solve
    # of each drawn instance; over its default run, whose counts are
    # pinned, it finds no mismatch
    assert load_script(CROSS_CHECK, monkeypatch).main([]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(
        r"1496 contexts in \d+\.\ds: 0 mismatches, 51 unpriceable\n"
        r"444 reused covers: 0 mismatches\n", out
    ), out


def _dropping_the_head(real):
    return lambda inst, flow, stops, taken, head=None: real(inst, flow, stops, taken)


def _raising_for_a_head(real):
    def cover(inst, flow, stops, taken, head=None):
        if head is not None:
            raise InfeasibleError(0, 0, inst.k)
        return real(inst, flow, stops, taken)
    return cover


@pytest.mark.parametrize("mutant", [_dropping_the_head, _raising_for_a_head])
def test_the_cross_check_reports_a_head_priced_wrong(monkeypatch, capsys, mutant):
    # the check must be able to fail: a solver whose ``_cover`` prices a
    # touched pair without its head, or raises for one, gives mismatches on
    # the script's first seeds, and the script exits 1
    monkeypatch.setattr(greedy, "_cover", mutant(greedy._cover))
    assert load_script(CROSS_CHECK, monkeypatch).main(["--seeds", "5"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^MISMATCH seed=\d+ (core|head)=", out, re.M), out
    assert not re.search(r"contexts in .*: 0 mismatches", out), out
