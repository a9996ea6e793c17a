import random
from fractions import Fraction

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec import flows
from rkec.flows import (
    Network, Residual, add_arcs, require_feasible, root_flows, solution_of, working_arcs,
)
from rkec.generate import GenParams, _acceptable, default_corpus_params, generate_instance
from rkec.instance import Edge, InfeasibleError, Instance, selection_from_units
from rkec.solver import solve

from conftest import small_random_instance
from oracles import instance_arcs, minimal_sets, oracle_min_cut
from reference import (
    flow_state, grow_by, instance_view, max_flow_paths, max_flow_value, maximum_flow,
    positive_units,
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
    flow = Residual(Network(), s, t)
    for i, arc in enumerate(arcs, start=1):
        grow_by(flow, [arc], limit)
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
    one_at_a_time = Residual(Network(), s, t)
    for arc in arcs:
        grow_by(one_at_a_time, [arc], rng.choice([None, 1, 2]))
    one_at_a_time.grow()
    value, sides = oracle_min_cut(arcs, n, t=t, s=s)
    for flow in (fresh(), one_at_a_time):
        assert flow.value == value
        assert [flow.closest_sink_side()] == minimal_sets(sides)

    def held(flow):
        # a rollback may leave the rows of nodes only its arcs touched empty
        to, rows, initial, cap, value = flow_state(flow)
        return to, {v: row for v, row in rows.items() if row}, initial, cap, value

    flow = Residual(Network(), s, t)
    grow_by(flow, arcs, rng.choice([None, 1, 2]))
    mark = flow.mark()
    at_mark = held(flow)
    for _ in range(rng.randint(0, 6)):
        extra = [(*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        grow_by(flow, extra, rng.randint(0, 5))
    flow.rollback(mark)
    assert held(flow) == at_mark
    assert flow.grow() == fresh().value
    assert flow.closest_sink_side() == fresh().closest_sink_side()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_flows_over_one_network_behave_like_fresh_ones(seed):
    # several flows share one network through random shared adds, bounded
    # and unbounded grows of one flow at a time (so the others fall behind
    # the network's arcs), reads and marks and rollbacks of them all: a read
    # of any flow, left behind or not, finds the source exactly when a fresh
    # maximum flow over the network's arcs carries more, and otherwise that
    # flow's closest sink side; a rollback gives every flow back its
    # capacities and value and the network its arcs; and grown without a
    # limit at the end, each flow equals a fresh one in value and side
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    s = rng.randrange(n)
    sinks = rng.sample([v for v in range(n) if v != s], rng.randint(1, min(3, n - 1)))
    network = Network()
    shared = [Residual(network, s, t) for t in sinks]
    arcs = []  # the network's arcs, as triples
    marks = []  # (arcs, each flow's mark, each flow's state) at each mark

    def fresh(flow):
        return maximum_flow(arcs, s, flow.sink)

    for _ in range(rng.randint(1, 14)):
        step = rng.randrange(5)
        flow = rng.choice(shared)
        if step == 0:
            extra = [
                (*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
            ]
            add_arcs(shared, extra)
            arcs += extra
        elif step == 1:
            limit = rng.choice([None, 0, 1, 2, 3])
            value = flow.grow(limit)
            best = fresh(flow).value
            # a path may carry more than one unit past the limit
            assert value == best or (limit is not None and limit <= value < best)
        elif step == 2:
            side = set()
            flow.reach(side)
            best = fresh(flow)
            assert (s in side) == (flow.value < best.value)
            if s not in side:
                assert side == best.closest_sink_side()
        elif step == 3:
            marks.append((arcs[:], [f.mark() for f in shared], [flow_state(f) for f in shared]))
        elif marks:
            arcs, at_mark, states = marks.pop()
            for f, mark in zip(shared, at_mark):
                f.rollback(mark)
            for f, state in zip(shared, states):
                to, _, initial, cap, value = flow_state(f)
                assert (to, initial, cap, value) == (state[0], state[2], state[3], state[4])
    for flow in shared:
        best = fresh(flow)
        assert flow.grow() == best.value
        assert flow.closest_sink_side() == best.closest_sink_side()


def test_a_flow_holding_arcs_its_network_dropped_refuses_to_run():
    # flows marked together are rolled back together: one left out of the
    # rollback still carries the popped arc, and its next grow or read
    # raises, with an ``if`` that ``python -O`` keeps
    network = Network()
    first, second = Residual(network, 0, 1), Residual(network, 0, 2)
    marks = first.mark(), second.mark()
    add_arcs([first, second], [(0, 1, 1), (0, 2, 1)])
    assert (first.grow(), second.grow()) == (1, 1)
    first.rollback(marks[0])
    assert (network.to, first.cap, first.value) == ([], [], 0)
    for run in (second.grow, lambda: second.reach(set())):
        with pytest.raises(AssertionError, match="a flow holds arcs its network has dropped"):
            run()
    second.rollback(marks[1])
    assert (second.grow(), second.closest_sink_side()) == (0, frozenset({2}))


def test_flows_of_different_networks_take_no_arcs_together():
    pair = [Residual(Network(), 0, 1), Residual(Network(), 0, 1)]
    with pytest.raises(ValueError, match="different networks"):
        add_arcs(pair, [(0, 1, 1)])


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


def networkx_flow_value(arcs, s: int, t: int) -> int:
    """Maximum s->t flow value over ``arcs`` by networkx, an oracle that
    shares no code with ``rkec.flows``: parallel arcs become one arc of
    their summed capacity, and loops and empty arcs are left out."""
    graph = networkx.DiGraph()
    graph.add_nodes_from((s, t))
    for tail, head, cap in arcs:
        if cap > 0 and tail != head:
            if graph.has_edge(tail, head):
                graph[tail][head]["capacity"] += cap
            else:
                graph.add_edge(tail, head, capacity=cap)
    return networkx.maximum_flow_value(graph, s, t)


def _oracle_instance(seed):
    """A small random quasi-bipartite or augmentation instance."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        params = GenParams(
            nodes=rng.randint(5, 9), terminals=rng.randint(1, 3), k=rng.randint(1, 3),
            density=Fraction(1, 2), root_bias=Fraction(2), seed=seed,
        )
    else:
        params = GenParams(
            nodes=rng.randint(5, 8), terminals=rng.randint(2, 3), k=3, density=Fraction(2, 5),
            seed=seed, mode="augmentation", base_level=rng.randint(1, 2),
        )
    return generate_instance(params)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_root_flows_match_an_independent_max_flow(seed, data):
    # on random instances and selections, each terminal's uncapped root flow
    # has networkx's maximum flow value, and a capped one reads as the least
    # of that and its limit: exact below the limit, and never above the
    # maximum (a path over a parallel free edge may carry two units past it)
    inst = _oracle_instance(seed)
    selected = {
        e.id: data.draw(st.integers(0, e.mult), label=f"copies of edge {e.id}")
        for e in inst.positive_edges
    }
    limit = data.draw(st.integers(0, inst.k + 1), label="limit")
    arcs = working_arcs(inst, selected)
    expected = {t: networkx_flow_value(arcs, inst.root, t) for t in inst.terminals}
    assert {t: flow.value for t, flow in root_flows(inst, selected)} == expected
    for t, flow in root_flows(inst, selected, limit):
        assert min(flow.value, limit) == min(expected[t], limit)
        assert flow.value <= expected[t]


@pytest.mark.parametrize("params", [
    pytest.param([default_corpus_params(seed) for seed in range(1, 51)], id="corpus-1-50"),
    pytest.param(
        [GenParams(120, 40, 3, density=Fraction(3, 10), root_bias=2, seed=1)], id="ladder-120-40-3"
    ),
])
def test_solution_connectivity_matches_an_independent_max_flow(params):
    # the connectivity a solution reports, for the greedy's selection and
    # for the first half of its records' units, is networkx's maximum flow
    for p in params:
        inst = generate_instance(p)
        report = solve(inst)
        records = report.solution.audit
        half = [u for rec in records[: len(records) // 2] for u in rec.added_units]
        for selected in (report.solution.selected, selection_from_units(half)):
            arcs = working_arcs(inst, selected)
            expected = {t: networkx_flow_value(arcs, inst.root, t) for t in inst.terminals}
            assert solution_of(inst, selected).connectivity == expected
