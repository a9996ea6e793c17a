import functools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkec import exact
from rkec.exact import brute_force_opt, cheapest_completion, dual_ascent, free_copies
from rkec.flows import require_feasible, root_flows, short_terminal, solution_of
from rkec.generate import GenParams, _acceptable, default_corpus_params, generate_instance
from rkec.instance import Edge, InfeasibleError, Instance, SizeRefusalError, selection_from_units
from rkec.solver import solve
from rkec.verify import audit_run

from conftest import small_random_instance
from oracles import (
    CertificateError,
    ExplicitSetFunction,
    brute_force_ring_cover,
    enumerate_explicit,
    enumerate_rooted,
    nested_chain_certificate,
    oracle_opt_cost,
)
from reference import enumerated_opt, flow_state, positive_units


def test_fixture_optimum(instance_a):
    sol = brute_force_opt(instance_a)
    assert sol.total_cost == 4
    assert sol.selected == {1: 1, 2: 1, 3: 1}
    assert sol.feasible and sol.connectivity == {2: 1, 3: 1}


def test_fixture_optimum_matches_independent_oracle(instance_a):
    assert brute_force_opt(instance_a).total_cost == oracle_opt_cost(instance_a)


def test_zero_cost_graph_already_feasible():
    inst = Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(0)),), 1)
    sol = brute_force_opt(inst)
    assert sol.total_cost == 0 and sol.selected == {}


def test_single_expensive_edge():
    inst = Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(7)),), 1)
    assert brute_force_opt(inst).total_cost == 7


def test_size_refusal(instance_a):
    with pytest.raises(SizeRefusalError):
        brute_force_opt(instance_a, max_units=3)


def test_infeasible_instance_reports_witness():
    inst = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(1)),), 1)
    with pytest.raises(InfeasibleError) as exc:
        brute_force_opt(inst)
    assert exc.value.terminal == 2 and exc.value.achieved == 0


def test_preselected_units_are_free(instance_a):
    # only terminal 3 is open; cheapest completion is the relay arc onto it
    cost, counts = cheapest_completion(instance_a, {1: 1, 2: 1})
    assert Fraction(cost, instance_a.cost_scale) == 1
    assert counts == {3: 1}


def test_a_feasible_start_needs_no_completion(instance_a):
    # every terminal already reaches k: the search root is its only leaf
    assert cheapest_completion(instance_a, {1: 1, 2: 1, 3: 1}) == (0, {})
    free = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(0)), Edge(2, 1, 2, Fraction(0))), 1)
    assert cheapest_completion(free, {}) == (0, {})
    assert brute_force_opt(free).total_cost == 0


def test_a_completion_that_every_free_copy_leaves_short_raises():
    # terminal 2 is unreachable: with edge 1 preselected or free, no
    # completion exists, and the search's dual ascent finds no edge to raise
    # and raises the instance's InfeasibleError, with terminal 2 as witness
    inst = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(1)),), 1)
    for pre in ({}, {1: 1}):
        with pytest.raises(InfeasibleError) as exc:
            cheapest_completion(inst, pre)
        assert (exc.value.terminal, exc.value.achieved) == (2, 0)


def assert_optimal_completion(inst, pre, found, optimum):
    """``found``, a (cost, counts) pair as ``cheapest_completion`` returns
    it, is an optimal completion of the selection ``pre``: it costs
    ``optimum`` (in cost units), also recomputed from its counts, buys only
    copies ``pre`` leaves free, and with ``pre`` brings every terminal to k.
    Which optimal completion it is, is not fixed."""
    cost, counts = found
    chosen = Counter(counts)
    free = Counter({e.id: e.mult - pre.get(e.id, 0) for e in inst.positive_edges})
    assert cost == optimum == sum(inst.scaled_cost(e) * c for e, c in chosen.items())
    assert chosen <= free
    assert short_terminal(inst, Counter(pre) + chosen, inst.k) is None


def assert_search_equals_plain_enumeration(inst, preselected=frozenset()):
    slow = enumerated_opt(inst, preselected)
    if slow is None:
        with pytest.raises(InfeasibleError):
            require_feasible(inst)
        return
    pre = selection_from_units(preselected)
    optimum = slow.total_cost * inst.cost_scale
    assert_optimal_completion(inst, pre, cheapest_completion(inst, pre), optimum)
    if not preselected:
        opt = brute_force_opt(inst)
        assert opt.feasible and opt.total_cost == slow.total_cost


def reachable_k(inst, terminals):
    """The instance on ``terminals`` with k lowered to what all the units
    reach, so that most draws have an optimum."""
    inst = Instance(inst.node_count, inst.root, terminals, inst.edges, inst.k)
    reach = min(solution_of(inst, selection_from_units(positive_units(inst))).connectivity.values())
    return Instance(inst.node_count, inst.root, terminals, inst.edges,
                    max(1, min(inst.k, reach)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_pruned_search_equals_plain_enumeration(seed):
    # a random preselected part is the state the density replay starts from
    rng = random.Random(seed)
    inst = small_random_instance(rng, max_nodes=5, max_k=3)
    inst = reachable_k(inst, inst.terminals)
    preselected = frozenset(u for u in sorted(positive_units(inst)) if rng.random() < 0.3)
    if len(positive_units(inst)) - len(preselected) > 12:
        return
    assert_search_equals_plain_enumeration(inst, preselected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
@example(480)  # summing overlapping closest cuts finds cost 115/12, not 91/12
@example(734)  # ... and 17/3, not 5
def test_packed_bound_search_equals_plain_enumeration(seed):
    # two or three terminals and k <= 3, so that the search chooses among
    # several deficient closest cuts where it branches
    rng = random.Random(seed)
    inst = small_random_instance(rng, max_nodes=6, max_k=3)
    n = inst.node_count
    inst = reachable_k(inst, frozenset(rng.sample(range(1, n), rng.randint(2, min(3, n - 1)))))
    if len(positive_units(inst)) > 12:
        return
    assert_search_equals_plain_enumeration(inst)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_parallel_copies_search_equals_plain_enumeration(seed):
    # every positive edge has two or three copies, so at nearly every node a
    # branch excludes every copy of its earlier siblings' edges; the search
    # must still find an optimal completion, copy for copy
    rng = random.Random(seed)
    inst = small_random_instance(rng, max_nodes=4, max_k=3)
    edges = tuple(
        Edge(e.id, e.tail, e.head, e.cost, rng.randint(2, 3)) if e.cost > 0 else e
        for e in inst.edges
    )
    inst = Instance(inst.node_count, inst.root, inst.terminals, edges, inst.k)
    inst = reachable_k(inst, inst.terminals)
    preselected = frozenset(u for u in sorted(positive_units(inst)) if rng.random() < 0.3)
    if len(positive_units(inst)) - len(preselected) > 12:
        return
    slow = enumerated_opt(inst, preselected)
    if slow is None:
        return
    pre = selection_from_units(preselected)
    optimum = slow.total_cost * inst.cost_scale
    assert_optimal_completion(inst, pre, cheapest_completion(inst, pre), optimum)


def twinned(inst, rng):
    """``inst`` with each positive edge given one to three copies and a twin:
    the same arc, cost and copies under a larger id, so that every optimum
    has a copy of the same cost with a larger key."""
    offset = max((e.id for e in inst.edges), default=0) + 1
    edges = list(inst.edges)
    for e in inst.edges:
        if e.cost > 0:
            mult = rng.randint(1, 3)
            edges[edges.index(e)] = Edge(e.id, e.tail, e.head, e.cost, mult)
            edges.append(Edge(e.id + offset, e.tail, e.head, e.cost, mult))
    return Instance(inst.node_count, inst.root, inst.terminals, tuple(edges), inst.k), offset


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_a_feasible_incumbent_leaves_the_search_unchanged(seed):
    # started from a feasible completion, the search returns the cost it
    # returns by default, from the dual ascent's tight edges, and a feasible
    # completion of that cost within the free copies, for three incumbents:
    # the optimum and one more copy (not optimal), the optimum moved onto
    # the twins as far as their free copies go (optimal, with another key),
    # and every free copy (parallel copies of edges with more than one)
    rng = random.Random(seed)
    inst, offset = twinned(small_random_instance(rng, max_nodes=4, max_k=3), rng)
    inst = reachable_k(inst, inst.terminals)
    units = positive_units(inst)
    if not units or len(units) > 20:
        return
    pre = selection_from_units(u for u in units if rng.random() < 0.3)
    free = +Counter({e.id: e.mult - pre.get(e.id, 0) for e in inst.positive_edges})
    if short_terminal(inst, {e.id: e.mult for e in inst.positive_edges}, inst.k) is not None:
        # no completion, so no feasible incumbent: the search raises the
        # instance's InfeasibleError, with the witness terminal
        with pytest.raises(InfeasibleError) as exc:
            cheapest_completion(inst, pre)
        with pytest.raises(InfeasibleError) as witness:
            require_feasible(inst)
        assert (exc.value.terminal, exc.value.achieved) == (
            witness.value.terminal, witness.value.achieved
        )
        return
    cost, counts = cheapest_completion(inst, pre)
    opt = Counter(counts)
    spare = sorted((free - opt).elements())
    extra = opt + Counter([rng.choice(spare)]) if spare else None
    moved = Counter()
    for eid in opt:
        twin = eid + offset if eid < offset else eid - offset
        low, high = sorted((eid, twin))
        pair = opt[low] + opt[high]
        moved[high] = min(pair, free[high])
        moved[low] = pair - moved[high]
    moved = +moved
    for incumbent in (extra, moved, free):
        if incumbent is not None:
            assert_optimal_completion(inst, pre, cheapest_completion(inst, pre, incumbent), cost)
    if not pre:
        optimum = brute_force_opt(inst)
        for incumbent in (extra, free):
            if incumbent is not None:
                start = solution_of(inst, incumbent)
                assert brute_force_opt(inst, incumbent=start).total_cost == optimum.total_cost
        # an optimal incumbent comes back as it is, with no second rebuild
        start = solution_of(inst, moved)
        assert brute_force_opt(inst, incumbent=start) is start


def as_zero_cost(inst, preselected):
    """``inst`` with the ``preselected`` copies (edge id -> count) split off
    as zero-cost edges of their own: its optimum is the cheapest completion
    of those copies in ``inst``."""
    offset = max((e.id for e in inst.edges), default=0) + 1
    edges = []
    for e in inst.edges:
        taken = preselected.get(e.id, 0)
        if taken:
            edges.append(Edge(e.id + offset, e.tail, e.head, Fraction(0), taken))
        if e.mult > taken:
            edges.append(Edge(e.id, e.tail, e.head, e.cost, e.mult - taken))
    return Instance(inst.node_count, inst.root, inst.terminals, tuple(edges), inst.k)


def ascent_bound(inst, preselected):
    """The dual ascent's bound on completing ``preselected`` and its tight
    copies (edge id -> copies), run to level 0 from the search's root
    flows."""
    root = [f for _, f in root_flows(inst, preselected, inst.k) if f.value < inst.k]
    return dual_ascent(inst, root, free_copies(inst, preselected))


@pytest.mark.parametrize("seed", [1, 5, 7, 10, 107, 232, 424])
def test_the_ascent_leaves_its_flows_as_it_found_them(seed):
    # the ascent grows the flows it is given by its tight edges and rolls
    # them back before it returns: network (arcs and adjacency rows, the
    # rows of nodes only its arcs touched popped too), capacities and value
    # as they were.  Corpus seeds 5 and 10 are augmentation instances
    inst = generate_instance(default_corpus_params(seed))
    root = [f for _, f in root_flows(inst, {}, inst.k) if f.value < inst.k]
    before = [flow_state(flow) for flow in root]
    _, tight = dual_ascent(inst, root, free_copies(inst, {}))
    assert tight and [flow_state(flow) for flow in root] == before


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_the_ascent_bound_is_at_most_the_oracle_optimum(seed):
    # weak duality, against the subset-scanning oracle, which shares no flow
    # code with the ascent: random instances with twinned parallel edges,
    # or augmentation-mode ones on a planted zero-cost skeleton, each with
    # some copies preselected.  The ascent's tight copies, the search's
    # default incumbent, are a completion: within the free copies, every
    # terminal at k with them, and no cheaper than the bound
    rng = random.Random(seed)
    if rng.random() < 0.5:
        inst, _ = twinned(small_random_instance(rng, max_nodes=4, max_k=3), rng)
        inst = reachable_k(inst, inst.terminals)
    else:
        k, n = rng.randint(2, 3), rng.randint(3, 5)
        inst = generate_instance(GenParams(
            n, rng.randint(1, min(3, n - 1)), k, density=Fraction(1, 3), seed=seed,
            mode="augmentation", base_level=rng.randint(1, k - 1), max_units=10,
        ))
    units = positive_units(inst)
    pre = selection_from_units(u for u in sorted(units) if rng.random() < 0.3)
    if len(units) - sum(pre.values()) > 10:
        return
    optimum = oracle_opt_cost(as_zero_cost(inst, pre))
    if optimum is None:  # no completion: even every copy leaves a terminal short
        with pytest.raises(InfeasibleError):
            require_feasible(inst)
        return
    bound, tight = ascent_bound(inst, pre)
    assert bound <= optimum * inst.cost_scale
    free = Counter({e.id: e.mult - pre.get(e.id, 0) for e in inst.positive_edges})
    assert Counter(tight) <= free
    assert short_terminal(inst, Counter(pre) + Counter(tight), inst.k) is None
    assert bound <= sum(inst.scaled_cost(e) * c for e, c in tight.items())


def test_size_caps_count_units_without_building_them():
    # one edge of 30 copies against caps of 22: every cap refuses it from
    # the multiplicities alone, and no unit is ever built
    inst = Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(1), 30),), 1)
    report = solve(inst)
    assert inst.positive_unit_count == 30
    with pytest.raises(SizeRefusalError):
        brute_force_opt(inst)
    audit = audit_run(inst, report, density_max_units=22)
    assert audit.density_checked is False and audit.density_violations == []
    assert not _acceptable(inst, GenParams(2, 1, 1, max_units=22))


@pytest.mark.parametrize("seed", [1, 7, 107, 232, 424])
def test_search_builds_two_residuals_per_terminal(seed, residual_builds):
    # the search root and ``solution_of``, with no feasibility pre-check;
    # the dual ascent and every search node grow the root flows in place
    # and roll them back, so they build none (started from the ascent's
    # tight copies, seed 424 builds the most children in the corpus, 86, and
    # seed 107 builds 54)
    inst = generate_instance(default_corpus_params(seed))
    residual_builds.clear()
    assert brute_force_opt(inst).feasible
    assert len(residual_builds) <= 2 * len(inst.terminals)


@functools.cache
def corpus_incumbents():
    """(instance, the greedy's selection) of each of the 500 corpus seeds."""
    return [
        (inst, solve(inst).solution.selected)
        for inst in (generate_instance(default_corpus_params(seed)) for seed in range(1, 501))
    ]


def test_search_work_over_the_corpus(monkeypatch):
    # a work pin, not output: the children the search builds (one
    # ``add_arcs`` each) over the 500 corpus seeds, started from the greedy's
    # selection as ``verify --brute`` starts it, and from the dual ascent's
    # tight copies as ``rkec brute`` starts it; each branch is cut by its own
    # bound and by the dual ascent's before it is built.  The ascent's steps (one
    # ``add_arcs`` each, of the edges the step made tight) of the searches
    # from the greedy's selection are counted apart
    built = Counter()
    add_arcs = exact.add_arcs

    def counted(flows, arcs):
        built[sys._getframe(1).f_code.co_name] += 1
        add_arcs(flows, arcs)

    monkeypatch.setattr(exact, "add_arcs", counted)
    greedy = every = ascent = 0
    for inst, incumbent in corpus_incumbents():
        built.clear()
        cost = cheapest_completion(inst, {}, incumbent)[0]
        greedy, ascent = greedy + built["search"], ascent + built["dual_ascent"]
        built.clear()
        assert cheapest_completion(inst, {})[0] == cost
        every += built["search"]
    assert (greedy, every, ascent) == (759, 4_521, 2_284)


def test_the_ascent_bound_is_sound_over_the_corpus():
    # LB <= the optimum the search finds from the ascent's tight copies, on
    # every corpus instance; ceil(LB) is that optimum on 494 and reaches the
    # greedy's cost on 446, where the search from the greedy's selection
    # ends at its root
    closed = tight = 0
    for inst, incumbent in corpus_incumbents():
        optimum = cheapest_completion(inst, {})[0]
        bound = math.ceil(ascent_bound(inst, {})[0])
        assert bound <= optimum
        tight += bound == optimum
        closed += bound >= sum(inst.scaled_cost(e) * c for e, c in incumbent.items())
    assert (closed, tight) == (446, 494)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_optimum_matches_independent_oracle(seed):
    inst = small_random_instance(random.Random(seed), max_nodes=5, max_k=1)
    if len(positive_units(inst)) > 10:
        return
    oracle = oracle_opt_cost(inst)
    if oracle is None:
        with pytest.raises(InfeasibleError):
            brute_force_opt(inst)
    else:
        assert brute_force_opt(inst).total_cost == oracle


# ---------------------------------------------------------------------------
# family enumeration


def test_enumerated_family_fixture(instance_a):
    family = enumerate_rooted(instance_a, ())
    assert family.level == 1
    # every terminal-containing subset of {1, 2, 3} is deficient
    assert len(family.members) == 6
    assert sorted(map(sorted, family.cores)) == [[2], [3]]
    ring = family.ring_view(frozenset({2}))
    assert ring.is_ring
    assert sorted(ring.maximal) == [1, 2]
    assert family.check_t_intersecting()
    assert family.every_member_contains_core()


def test_enumerated_family_after_optimum(instance_a):
    family = enumerate_rooted(instance_a, [(1, 0), (2, 0), (3, 0)])
    assert family.level == 0 and family.members == [] and family.cores == []


def test_explicit_single_set_family():
    fn = ExplicitSetFunction(3, frozenset({1}), ((frozenset({1}), 1),))
    family = enumerate_explicit(fn)
    assert family.members == [frozenset({1})]
    ring = family.ring_view(frozenset({1}))
    assert ring.is_ring and ring.maximal == frozenset({1})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_residual_family_stays_t_intersecting(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(positive_units(inst))
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    assert family.check_t_intersecting()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_rings_and_maximal_sets(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(positive_units(inst))
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    maximal = {}
    for core in family.cores:
        ring = family.ring_view(core)
        assert ring.is_ring
        maximal[core] = ring.maximal
    cores = list(maximal)
    for i, a in enumerate(cores):
        for b in cores[i + 1:]:
            assert not (maximal[a] & maximal[b] & inst.terminals)


# ---------------------------------------------------------------------------
# exact ring covers


def ring_members_fixture():
    # members over {1, 2}: {1} and {1, 2}
    return [frozenset({1}), frozenset({1, 2})]


def test_ring_cover_head_covers_everything():
    members = ring_members_fixture()
    cost, legs = brute_force_ring_cover(members, (0, 1), [])
    assert cost == 0 and legs == ()


def test_ring_cover_needs_two_edges():
    members = ring_members_fixture()
    candidates = [
        ("a", 2, 1, Fraction(1)),  # enters {1} only
        ("b", 0, 1, Fraction(3)),  # enters both
        ("c", 0, 2, Fraction(1)),  # enters {1,2} only
    ]
    cost, legs = brute_force_ring_cover(members, None, candidates)
    assert cost == 2 and legs == ("a", "c")


def test_ring_cover_unpriceable():
    members = [frozenset({1}), frozenset({1, 2})]
    candidates = [("c", 0, 2, Fraction(1))]  # nothing enters {1}
    assert brute_force_ring_cover(members, (1, 2), candidates) is None


def test_instance_a_ring_cover(instance_a):
    family = enumerate_rooted(instance_a, ())
    ring = family.ring_view(frozenset({2}))
    head = instance_a.edge_by_id[1]
    candidates = [
        (e.id, e.tail, e.head, e.cost) for e in instance_a.positive_edges if e.id != 1
    ]
    cost, legs = brute_force_ring_cover(ring.members, (head.tail, head.head), candidates)
    assert cost == 1 and legs == (2,)


# ---------------------------------------------------------------------------
# structure certificates


def test_chain_certificate_simple():
    members = ring_members_fixture()
    cover = {"a": (2, 1), "c": (0, 2)}
    cert = nested_chain_certificate(members, cover)
    assert list(cert.sets) == [frozenset({1}), frozenset({1, 2})]
    assert list(cert.edges) == ["a", "c"]


def test_chain_certificate_rejects_redundant_cover():
    members = ring_members_fixture()
    cover = {"a": (2, 1), "b": (0, 1), "c": (0, 2)}  # b has no private witness
    with pytest.raises(CertificateError):
        nested_chain_certificate(members, cover)
