import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec import flows
from rkec.flows import Residual, require_feasible, solution_of
from rkec.generate import GenParams, _acceptable
from rkec.instance import Edge, InfeasibleError, Instance, selection_from_units

from conftest import small_random_instance
from oracles import instance_arcs, minimal_sets, oracle_min_cut
from reference import (
    flow_state, instance_view, max_flow_paths, max_flow_value, maximum_flow, positive_units,
)


def closest_sink_cut(arcs, s, t):
    """Maximum flow value and the closest sink side of its residual."""
    flow = maximum_flow(arcs, s, t)
    return flow.value, flow.closest_sink_side()


def test_single_path():
    v = [(0, 1, 1), (1, 2, 1)]
    assert max_flow_value(v, 0, 2) == 1


def test_parallel_capacity():
    v = [(0, 1, 3)]
    assert max_flow_value(v, 0, 1) == 3
    assert closest_sink_cut(v, 0, 1) == (3, frozenset({1}))


def test_empty_view():
    v = []
    assert max_flow_value(v, 0, 2) == 0
    assert closest_sink_cut(v, 0, 2) == (0, frozenset({2}))


def test_same_node_rejected():
    with pytest.raises(ValueError):
        max_flow_value([], 1, 1)


def test_closest_cut_simple_chain():
    # r -> a -> t: both {t} and {a, t} are minimum cuts; the closest one wins
    v = [(0, 1, 1), (1, 2, 1)]
    value, side = closest_sink_cut(v, 0, 2)
    assert (value, side) == (1, frozenset({2}))


def test_closest_cut_matches_enumeration_fixture():
    arcs = [(0, 1, 1), (1, 2, 1)]
    value, side = closest_sink_cut(arcs, 0, 2)
    oracle_value, oracle_sides = oracle_min_cut(arcs, 3, 0, 2)
    assert value == oracle_value
    assert side in oracle_sides
    assert [side] == minimal_sets(oracle_sides)


def _random_view(rng, n):
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                arcs.append((u, v, rng.randint(1, 3)))
    return arcs


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_duality_and_minimality_against_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arcs = _random_view(rng, n)
    s, t = rng.sample(range(n), 2)
    value, side = closest_sink_cut(arcs, s, t)
    oracle_value, oracle_sides = oracle_min_cut(arcs, n, t=t, s=s)
    assert value == max_flow_value(arcs, s, t)
    assert value == oracle_value
    # the returned side is the unique minimal minimum cut
    assert minimal_sets(oracle_sides) == [side]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_incremental_flow_matches_a_fresh_view(seed):
    # arcs join one at a time, each by a bounded grow; the residual must
    # then agree with a maximum flow computed from scratch
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arcs = _random_view(rng, n)
    rng.shuffle(arcs)
    s, t = rng.sample(range(n), 2)
    limit = rng.randint(1, 4)
    flow = Residual(s, t)
    for i, arc in enumerate(arcs, start=1):
        flow.grow([arc], limit)
        v = arcs[:i]
        value = max_flow_value(v, s, t)
        assert (flow.value >= limit) == (value >= limit)
        if flow.value < limit:
            assert flow.value == value
            assert flow.closest_sink_side() == closest_sink_cut(v, s, t)[1]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_rollback_restores_the_marked_flow(seed):
    # random bounded grows after a mark, then a rollback: the residual must
    # equal its state at the mark, and grow on like a residual built fresh
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    s, t = rng.sample(range(n), 2)
    arcs = _random_view(rng, n)

    def fresh():
        return maximum_flow(arcs, s, t)

    # growing the list in one call or one arc at a time (each grow bounded,
    # then one unbounded) gives the enumerated minimum cut and its closest
    # sink side
    one_at_a_time = Residual(s, t)
    for arc in arcs:
        one_at_a_time.grow([arc], rng.choice([None, 1, 2]))
    one_at_a_time.grow(())
    value, sides = oracle_min_cut(arcs, n, t=t, s=s)
    for flow in (fresh(), one_at_a_time):
        assert flow.value == value
        assert [flow.closest_sink_side()] == minimal_sets(sides)

    flow = Residual(s, t)
    flow.grow(arcs, rng.choice([None, 1, 2]))
    mark = flow.mark()
    # a rollback may leave the rows of nodes only its arcs touched empty
    at_mark = flow.to[:], {v: row[:] for v, row in flow.adj.items() if row}, flow.cap[:], flow.value
    for _ in range(rng.randint(0, 6)):
        extra = [(*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        flow.grow(extra, rng.randint(0, 5))
    flow.rollback(mark)
    rows = {v: row for v, row in flow.adj.items() if row}
    assert (flow.to, rows, flow.cap, flow.value) == at_mark
    assert flow.grow(()) == fresh().value
    assert flow.closest_sink_side() == fresh().closest_sink_side()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_reach_reads_what_a_grow_would_find(seed):
    # on a maximum flow, unit arcs join a side one at a time: the side
    # extended in place equals a read from nothing through every arc so
    # far, the source joins exactly when a grow by those arcs finds a path,
    # and until then the side is the grown flow's closest sink side
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    s, t = rng.sample(range(n), 2)
    arcs = _random_view(rng, n)
    flow = maximum_flow(arcs, s, t)
    at_rest = flow_state(flow)
    side, extra = set(), []
    added = flow.reach(side)
    assert added[0] == t and sorted(added) == sorted(side)
    assert frozenset(side) == flow.closest_sink_side()
    for _ in range(rng.randint(1, 6)):
        extra.append(tuple(rng.sample(range(n), 2)))
        before = set(side)
        added = flow.reach(side, extra)
        assert set(added) == side - before and len(added) == len(set(added))
        fresh = set()
        flow.reach(fresh, extra)
        grown = maximum_flow(arcs + [(a, b, 1) for a, b in extra], s, t)
        assert (s in side) == (s in fresh) == (grown.value > flow.value)
        if s in side:
            break
        assert side == fresh == grown.closest_sink_side()
    assert flow_state(flow) == at_rest


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_a_stop_reads_as_an_arc_from_the_source(seed):
    # a stop stands for an arc from the source at spare capacity: on a
    # maximum flow, a read through extra arcs with stops finds the source
    # exactly when a grow by those arcs and a source arc onto each stop finds
    # a path, and otherwise it is the grown flow's closest sink side
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    s, t = rng.sample(range(n), 2)
    arcs = _random_view(rng, n)
    flow = maximum_flow(arcs, s, t)
    at_rest = flow_state(flow)
    stops = frozenset(v for v in range(n) if v != s and rng.random() < 0.3)
    extra = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    side = set()
    flow.reach(side, extra, stops)
    grown = maximum_flow(
        arcs + [(a, b, 1) for a, b in extra] + [(s, v, 1) for v in sorted(stops)], s, t
    )
    assert (s in side) == (grown.value > flow.value)
    if s not in side:
        assert side == grown.closest_sink_side()
    assert flow_state(flow) == at_rest


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_determinism(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arcs = _random_view(rng, n)
    s, t = rng.sample(range(n), 2)
    first = closest_sink_cut(arcs, s, t)
    for _ in range(3):
        assert closest_sink_cut(arcs, s, t) == first


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_path_decomposition_is_valid(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arcs = _random_view(rng, n)
    s, t = rng.sample(range(n), 2)
    value = max_flow_value(arcs, s, t)
    paths = max_flow_paths(arcs, s, t)
    assert len(paths) == value
    capacity = {}
    for tail, head, cap in arcs:
        capacity[(tail, head)] = capacity.get((tail, head), 0) + cap
    used = {}
    for path in paths:
        assert path[0] == s and path[-1] == t
        for a, b in zip(path, path[1:]):
            used[(a, b)] = used.get((a, b), 0) + 1
    for arc, count in used.items():
        assert count <= capacity.get(arc, 0)


def test_instance_view_groups_units(instance_a):
    v = instance_view(instance_a, [(1, 0), (2, 0)])
    assert max_flow_value(v, 0, 2) == 1
    assert max_flow_value(v, 0, 3) == 0


def test_instance_view_zero_cost_graph_empty(instance_a):
    v = instance_view(instance_a, ())
    assert max_flow_value(v, 0, 2) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_instance_view_matches_oracle(seed):
    inst = small_random_instance(random.Random(seed))
    every = positive_units(inst)
    units = every[: len(every) // 2]
    arcs = instance_arcs(inst, units)
    v = instance_view(inst, units)
    for t in inst.terminals:
        assert max_flow_value(v, inst.root, t) == oracle_min_cut(arcs, inst.node_count, inst.root, t)[0]


@pytest.mark.parametrize("short", [0, 1, 2, 3, None])
def test_short_terminal_stops_at_the_first_short_terminal(monkeypatch, short):
    # terminal ``short`` (0-based, id order) gets one root edge, the others
    # three; with need = 2 exactly the residuals up to it may be built, and
    # none may carry more than need paths
    terminals = [1, 2, 3, 4]
    edges = tuple(
        Edge(3 * t + j, 0, t, Fraction(1))
        for i, t in enumerate(terminals)
        for j in range(1 if i == short else 3)
    )
    inst = Instance(5, 0, frozenset(terminals), edges, 2)
    built = []

    class CountingResidual(flows.Residual):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(flows, "Residual", CountingResidual)
    expected = None if short is None else (terminals[short], 1)
    assert flows.short_terminal(inst, selection_from_units(positive_units(inst)), 2) == expected
    assert [flow.sink for flow in built] == (terminals if short is None else terminals[: short + 1])
    assert all(flow.value <= 2 for flow in built)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_short_terminal_is_the_first_terminal_below_need(seed, data):
    inst = small_random_instance(random.Random(seed))
    every = positive_units(inst)
    units = data.draw(st.lists(st.sampled_from(every), unique=True) if every else st.just([]))
    need = data.draw(st.integers(0, inst.k + 1))
    selected = selection_from_units(units)
    conn = solution_of(inst, selected).connectivity
    expected = next(((t, v) for t, v in conn.items() if v < need), None)
    assert flows.short_terminal(inst, selected, need) == expected


def test_feasibility_checks_build_no_unit():
    # terminal 2 is unreachable and edge 0 -> 1 has 10^9 copies: the checks
    # over every positive edge read it as one arc at its multiplicity, so
    # neither builds a unit
    inst = Instance(3, 0, frozenset({2}), (Edge(1, 0, 1, Fraction(1), 10**9),), 1)
    with pytest.raises(InfeasibleError) as exc:
        require_feasible(inst)
    assert (exc.value.terminal, exc.value.achieved) == (2, 0)
    assert not _acceptable(inst, GenParams(3, 1, 1))
