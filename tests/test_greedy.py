import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkec import greedy, rings
from rkec.deficiency import CoreInfo
from rkec.flows import Residual, root_flows, short_terminal
from rkec.greedy import (
    _best_prefix,
    candidate_heads,
    cheapest_star,
    cover_levels,
    pricing_context,
)
from rkec.generate import GenParams, generate_instance
from rkec.instance import Edge, InfeasibleError, Instance, selection_from_units
from rkec.rings import RingCover, min_violated_set

from conftest import small_random_instance
from reference import (
    best_star,
    build_ring_context,
    check_reused_covers,
    check_state,
    entered_steps,
    flow_state,
    free_leg_candidates,
    fresh_cover,
    head_floors,
    node_floors,
    positive_units,
    price_star_edges,
    rooted_cores,
    rooted_max_level,
)


def test_candidate_heads_skip_selected(instance_a):
    # in (scaled cost, id) order: edges 2 and 3 cost 1, edge 1 costs 2
    assert [e.id for e in candidate_heads(instance_a, {})] == [2, 3, 1, 4, 5]
    assert [e.id for e in candidate_heads(instance_a, selection_from_units([(1, 0)]))] == [
        2, 3, 4, 5
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_candidate_heads_are_the_free_copies_in_cost_order(seed):
    # the solver's heads are the instance's edges that the reference finds a
    # free copy of, sorted by (scaled cost, id), over random selections of
    # random instances
    rng = random.Random(seed)
    inst = small_random_instance(rng)
    units = list(positive_units(inst))
    for _ in range(3):
        state = [u for u in units if rng.random() < 0.4]
        expected = sorted(free_leg_candidates(inst, state), key=lambda e: (inst.scaled_cost(e), e))
        assert candidate_heads(inst, selection_from_units(state)) == tuple(
            inst.edge_by_id[e] for e in expected
        )


def test_cheapest_star_keeps_the_parameters_the_trace_reads():
    # perfbench's star observer reads cheapest_star's first three arguments
    # positionally as (inst, taken, cores) and passes the selection on to
    # candidate_heads
    params = list(inspect.signature(cheapest_star).parameters)
    assert params == ["inst", "taken", "cores", "flows", "covers"]


def test_fixture_prices(instance_a):
    cores = rooted_cores(instance_a, ())
    by_rep = {c.representative: c for c in cores}
    prices = price_star_edges(instance_a, (), cores)
    expected = {
        (1, 2): Fraction(1),
        (1, 3): Fraction(1),
        (4, 2): Fraction(0),
        (2, 3): Fraction(3),
    }
    for (head, rep), cost in expected.items():
        assert prices[(head, by_rep[rep])].cost == cost


def test_fixture_best_star(instance_a):
    cores = rooted_cores(instance_a, ())
    prices = price_star_edges(instance_a, (), cores)
    star = best_star(instance_a, prices)
    assert instance_a.cost_scale == 1
    assert star.head == 1
    assert Fraction(star.total, star.leaves) == 2
    assert star.total == 4
    assert sorted(sorted(core.members) for core, _ in star.chosen) == [[2], [3]]


def _fake_cover(cost):
    return RingCover(legs=(), cost=cost, first={}, prefix=(0,))


def test_best_star_prefix_tie_prefers_more_leaves():
    # head cost 2, leg costs 1, 3, 5: densities 3, 3, 11/3; tie goes to two leaves
    inst = Instance(
        5, 0, frozenset({1, 2, 3}),
        (Edge(9, 0, 4, Fraction(2)),), 1,
    )
    cores = [CoreInfo(frozenset({t}), t) for t in (1, 2, 3)]
    prices = {
        (9, cores[0]): _fake_cover(1),
        (9, cores[1]): _fake_cover(3),
        (9, cores[2]): _fake_cover(5),
    }
    star = best_star(inst, prices)
    assert inst.cost_scale == 1
    assert Fraction(star.total, star.leaves) == 3 and star.leaves == len(star.chosen) == 2


def test_best_star_needs_a_priced_pair(instance_a):
    with pytest.raises(ValueError):
        best_star(instance_a, {})


def test_best_star_single_core_arithmetic():
    inst = Instance(
        4, 0, frozenset({1}),
        (Edge(1, 0, 2, Fraction(4)), Edge(2, 0, 3, Fraction(2))), 1,
    )
    core = CoreInfo(frozenset({1}), 1)
    prices = {
        (1, core): _fake_cover(0),
        (2, core): _fake_cover(1),
    }
    star = best_star(inst, prices)
    assert inst.cost_scale == 1
    assert star.head == 2 and Fraction(star.total, star.leaves) == 3


def test_zero_cost_edges_never_priced(instance_a_k2):
    heads = candidate_heads(instance_a_k2, {})
    assert heads and all(instance_a_k2.scaled_cost(h.id) > 0 for h in heads)


def _added(records):
    return [u for rec in records for u in rec.added_units]


def carried_flows(inst, units):
    """The root flows the greedy carries at ``units``: one per terminal,
    augmented up to k."""
    return dict(root_flows(inst, selection_from_units(units), inst.k))


def test_cover_levels_fixture_trace(instance_a):
    records = cover_levels(instance_a)
    assert rooted_cores(instance_a, _added(records)) == []
    assert len(records) == 1
    rec = records[0]
    assert rec.cores_before == 2 and rec.cores_after == 0
    assert rec.star_center == 1 and rec.leaf_count == 2
    assert rec.added_cost == 4
    assert sorted(_added(records)) == [(1, 0), (2, 0), (3, 0)]


def test_cover_levels_k2_variant_matches_fixture(instance_a, instance_a_k2):
    plain = cover_levels(instance_a)
    augmented = cover_levels(instance_a_k2)
    assert [r.added_cost for r in plain] == [r.added_cost for r in augmented]
    assert sorted(u[0] for u in _added(plain)) == sorted(u[0] for u in _added(augmented))


def test_an_uncoverable_level_raises_infeasible():
    # terminal 2 has no incoming edge at all, but terminal 1 keeps a core
    # open: the greedy's first ring at {2} is uncoverable
    inst = Instance(3, 0, frozenset({1, 2}), (Edge(1, 0, 1, Fraction(1)),), 1)
    with pytest.raises(InfeasibleError) as exc:
        cover_levels(inst)
    assert (exc.value.terminal, exc.value.achieved, exc.value.required) == (2, 0, 1)


def test_the_fallback_of_an_uncoverable_ring_on_a_feasible_instance_raises(instance_a):
    # an uncoverable ring on a feasible instance contradicts the argument in
    # ``greedy._cover``: the greedy must fail loudly, not report the instance
    # infeasible, and still roll back every carried flow
    flows = carried_flows(instance_a, ())
    before = {t: flow_state(flow) for t, flow in flows.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "primal_dual_ring_cover", lambda *args: None)
        with pytest.raises(AssertionError, match="uncoverable on a feasible instance"):
            cheapest_star(instance_a, {}, rooted_cores(instance_a, ()), flows, {})
    assert {t: flow_state(flow) for t, flow in flows.items()} == before


def _augmentation_instance(seed):
    """Instance whose free skeleton leaves every terminal two paths short."""
    rng = random.Random(seed)
    return generate_instance(GenParams(
        nodes=rng.randint(5, 7),
        terminals=rng.randint(2, 3),
        k=3,
        density=Fraction(2, 5),
        seed=seed,
        mode="augmentation",
        base_level=1,
        max_units=16,
    ))


def _star_states(inst):
    """(units, cores, level) at a phase's first star and, when the phase goes
    on, right after that star is bought (chosen by the reference oracle)."""
    cores = rooted_cores(inst, ())
    if not cores:
        return []
    level = rooted_max_level(inst, ())
    states = [((), cores, level)]
    try:
        first = best_star(inst, price_star_edges(inst, (), cores))
    except ValueError:  # no pair is priceable
        return states
    units = tuple((eid, 0) for eid in sorted(first.edges()))  # each edge's first copy
    after = rooted_cores(inst, units)
    if after and rooted_max_level(inst, units) == level:
        states.append((units, after, level))
    return states


def _assert_lazy_matches_full(inst):
    """Check every star state of ``inst``; returns (level, mid-phase) of each."""
    checked = []
    for units, cores, level in _star_states(inst):
        checked.append((level, bool(units)))
        _assert_lazy_matches_full_at(inst, units, cores)
    return checked


def _assert_unpriceable(inst, units, cores, exc):
    """What star pricing raising ``exc`` at a state must mean: the instance
    is infeasible, ``exc`` names its first short terminal, and some core's
    no-head ring, built afresh, is uncoverable."""
    short = short_terminal(inst, selection_from_units(positive_units(inst)), inst.k)
    assert short is not None
    assert (exc.terminal, exc.achieved, exc.required) == (*short, inst.k)
    assert any(fresh_cover(inst, units, cores, core, None) is None for core in cores)


def _assert_lazy_matches_full_at(inst, units, cores):
    """Compare ``cheapest_star`` with the reference at one state; returns
    the star, or None when the state's pricing raises ``InfeasibleError``."""
    taken = selection_from_units(units)
    try:
        lazy = cheapest_star(inst, taken, cores, carried_flows(inst, units), {})
    except InfeasibleError as exc:
        _assert_unpriceable(inst, units, cores, exc)
        return None
    full = best_star(inst, price_star_edges(inst, units, cores))
    assert lazy.head == full.head
    assert lazy.total * full.leaves == full.total * lazy.leaves  # the density
    assert lazy.total == full.total
    assert lazy.leaves == full.leaves
    assert [(core, cover.legs, cover.cost) for core, cover in lazy.chosen] == [
        (core, cover.legs, cover.cost) for core, cover in full.chosen
    ]
    return lazy


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_lazy_selection_equals_full_pricing(seed):
    _assert_lazy_matches_full(small_random_instance(random.Random(seed)))


def test_lazy_selection_equals_full_pricing_at_level_two():
    checked = []
    for seed in range(1, 13):
        checked += _assert_lazy_matches_full(_augmentation_instance(seed))
    # the seeds must reach level 2 both at a first star and mid-phase
    assert (2, False) in checked and (2, True) in checked


def _wide_instance(seed):
    """An instance shaped like the benchmark's ``wide`` pool: many cores per
    star, most heads entering none of their shared dual chains."""
    return generate_instance(GenParams(
        nodes=24, terminals=12, k=1, density=Fraction(3, 10), seed=seed,
    ))


def _untouched_visited_heads(inst, units, cores, star):
    """Heads that touch no core and that ``cheapest_star`` must reach: their
    cost alone is no worse than ``star``'s density times the core count."""
    heads = free_leg_candidates(inst, units)
    pricing = pricing_context(
        inst, carried_flows(inst, units), selection_from_units(units), cores, {}
    )
    return [
        head for head in heads
        if not pricing.head_bound(inst.arc(head))[0]
        and inst.scaled_cost(head) * star.leaves <= star.total * len(cores)
    ]


def test_sparse_pricing_equals_full_pricing_on_many_cores():
    # every head after the first that touches no core must lose to it, by
    # the per-head bound or its tie-break; seeing that needs stars with
    # several cores and several heads entering none of their chains, which
    # small instances seldom give
    untouched = []
    for seed in (1, 2, 3):
        inst = _wide_instance(seed)
        for units, cores, _ in _star_states(inst):
            assert len(cores) >= 2
            star = _assert_lazy_matches_full_at(inst, units, cores)
            untouched.append(len(_untouched_visited_heads(inst, units, cores, star)))
    assert max(untouched) >= 2, untouched


def _counting_pricing(mp, calls):
    """Count, into ``calls``, the primal-dual runs ("pd"), violated-set
    reads ("mvs"), and the covers reused from an earlier star ("reused")
    with the reverse-delete trials their primal-dual ran ("reused_mvs"):
    one per pick but the last, max(steps - 1, 0)."""

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    def reusing(real):
        def call(*args):
            cover = real(*args)
            if cover is not None:
                calls["reused"] += 1
                calls["reused_mvs"] += max(len(cover.prefix) - 2, 0)
            return cover
        return call

    calls.update(pd=0, mvs=0, reused=0, reused_mvs=0)
    mp.setattr(greedy, "primal_dual_ring_cover", counting("pd", greedy.primal_dual_ring_cover))
    mp.setattr(rings, "min_violated_set", counting("mvs", rings.min_violated_set))
    mp.setattr(greedy, "_reused", reusing(greedy._reused))


def test_a_wide_solve_prices_the_same_pairs():
    # neither sparse lookup nor reuse may change which (head, core) pairs
    # are priced: the shared no-head covers plus the touched pairs that
    # survive the bound, 288 over one solve of each wide pool instance, 199
    # run a primal-dual and 89 reuse a cover carried from an earlier star;
    # nor which reverse-delete trials those covers stand for, one per pick
    # but a cover's last, 323: 221 run and 102 ran for the reused covers
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        _counting_pricing(mp, calls)
        for seed in range(1, 7):
            cover_levels(_wide_instance(seed))
    assert calls == {"pd": 199, "mvs": 221, "reused": 89, "reused_mvs": 102}


def test_ring_reads_neither_grow_nor_undo_a_flow():
    # a ring is read off its carried flow as it stands, by reachability
    # alone: over one solve of each wide pool instance, nothing inside a
    # star's pricing (``cheapest_star``), ring reads or not, grows, marks or
    # rolls back a flow, and each primal-dual and violated-set read leaves
    # its flow's arcs, capacities and value exactly as it found them
    reads = {"star": 0, "pd": 0, "mvs": 0}
    inside, calls = [], []

    def reading(name, real):
        def call(inst, flow, *args):
            before = flow_state(flow)
            reads[name] += 1
            inside.append(name)
            try:
                result = real(inst, flow, *args)
            finally:
                inside.pop()
            assert flow_state(flow) == before
            return result
        return call

    def counted(name, real):
        def call(self, *args):
            if inside:
                calls.append((inside[-1], name))
            return real(self, *args)
        return call

    def starring(real):
        def call(*args):
            reads["star"] += 1
            inside.append("star")
            try:
                return real(*args)
            finally:
                inside.pop()
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "cheapest_star", starring(greedy.cheapest_star))
        mp.setattr(greedy, "primal_dual_ring_cover", reading("pd", greedy.primal_dual_ring_cover))
        mp.setattr(rings, "min_violated_set", reading("mvs", rings.min_violated_set))
        for name in ("grow", "mark", "rollback"):
            mp.setattr(Residual, name, counted(name, getattr(Residual, name)))
        for seed in range(1, 7):
            cover_levels(_wide_instance(seed))
    assert reads["star"] > 0 and (reads["pd"], reads["mvs"]) == (199, 221)
    assert calls == []


def test_a_ladder_solve_skips_the_heads_that_only_tie():
    # with small integer costs many heads' bounds only tie the best star;
    # pricing every such head took 1,122 pairs over one solve of the
    # (120, 40, 3) ladder instance, where skipping those that lose the
    # tie-break leaves 394: 195 primal-dual runs and 199 covers reused
    inst = generate_instance(GenParams(120, 40, 3, density=Fraction(3, 10), root_bias=2, seed=1))
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        _counting_pricing(mp, calls)
        cover_levels(inst)
    assert (calls["pd"], calls["reused"]) == (195, 199)


def _price_in_full(inst, pricing, flows, taken, head):
    """``head``'s exact star: its pairs as the solver prices them
    (``head_pairs``), then ``_scan_head``."""
    touched = pricing.head_bound(inst.arc(head))[0]
    ranked = greedy.head_pairs(inst, flows, taken, pricing, head, touched, {})
    return greedy._scan_head(head, inst.scaled_cost(head), ranked)


def _assert_tied_skips_lose(inst, units, cores):
    """Price in full every head ``cheapest_star`` skips at one state on a
    bound that only ties the best star: none may beat the best star it was
    skipped against.  Returns how many such skips (node bound, head bound)
    there were; a state whose pricing raises is checked with
    ``_assert_unpriceable``."""
    taken = selection_from_units(units)
    flows = carried_flows(inst, units)
    real, ties = greedy._loses, []

    def loses(total, j, head, best):
        skip = real(total, j, head, best)
        if skip and total * best.leaves == best.total * j:
            ties.append((total, j, head, best))
        return skip

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_loses", loses)
        try:
            cheapest_star(inst, taken, cores, flows, {})
        except InfeasibleError as exc:
            _assert_unpriceable(inst, units, cores, exc)
            return 0, 0
    pricing = pricing_context(inst, flows, taken, cores, {})
    heads = candidate_heads(inst, taken)
    sites = [0, 0]
    for total, j, head, best in ties:
        node, cost = inst.arc(head)[1], inst.scaled_cost(head)
        # a head bound equal to its node bound never runs: the node bound,
        # tested first, would have lost the same way
        at_node = (total, j) == _best_prefix(cost, pricing.head_bound((None, node))[1])
        sites[not at_node] += 1
        # a node that loses is dead: its later heads are skipped unseen
        skipped = [
            e.id for e in heads
            if e.head == node and (inst.scaled_cost(e.id), e.id) >= (cost, head)
        ] if at_node else [head]
        for other in skipped:
            assert not _price_in_full(inst, pricing, flows, taken, other).beats(best)
    return tuple(sites)


def test_heads_skipped_on_a_tie_lose_to_the_best_star_on_wide_states():
    # the tie clauses of ``_loses`` are exact: a head whose bound equals the
    # best density with fewer leaves, or as many and a larger head id, loses
    # when priced in full, and so does every later head into a node whose
    # node bound lost that way
    sites = [0, 0]
    for seed in (1, 2, 3):
        inst = _wide_instance(seed)
        for units, cores, _ in _star_states(inst):
            for i, count in enumerate(_assert_tied_skips_lose(inst, units, cores)):
                sites[i] += count
    assert min(sites) > 0, sites


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
@example(0, True)  # a later head with a smaller id ties the best star's leaves and wins
def test_heads_skipped_on_a_tie_lose_to_the_best_star(seed, augmentation):
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, cores in _random_states(inst, rng):
        _assert_tied_skips_lose(inst, units, cores)


def _priced_states(inst, rng):
    """(units, cores, taken, flows, pricing) for each of ``_random_states``
    whose ``pricing_context`` returns; a state where it raises is checked
    with ``_assert_unpriceable`` instead.  ``flows`` are the carried flows
    the context read its rings off."""
    for units, cores in _random_states(inst, rng):
        taken = selection_from_units(units)
        flows = carried_flows(inst, units)
        try:
            pricing = pricing_context(inst, flows, taken, cores, {})
        except InfeasibleError as exc:
            _assert_unpriceable(inst, units, cores, exc)
            continue
        yield units, cores, taken, flows, pricing


def _random_states(inst, rng, count=3):
    units = list(positive_units(inst))
    for _ in range(count):
        sample = tuple(u for u in units if rng.random() < 0.3)
        cores = rooted_cores(inst, sample)
        if cores:
            yield sample, cores


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
@example(2, False)  # one of its states raises InfeasibleError
def test_cheapest_star_leaves_the_carried_flows_as_it_found_them(seed, augmentation):
    # each core's ring is read off its representative's carried flow as it
    # stands, with nothing to roll back: every flow is left as it was,
    # whether the star returns or raises
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, cores in _random_states(inst, rng):
        flows = carried_flows(inst, units)
        before = {t: flow_state(flow) for t, flow in flows.items()}
        try:
            cheapest_star(inst, selection_from_units(units), cores, flows, {})
        except InfeasibleError:
            pass
        assert {t: flow_state(flow) for t, flow in flows.items()} == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_irrelevant_heads_keep_the_shared_price(seed, augmentation):
    # the reuse rule: a head touches a core exactly when the head arc
    # enters a raised set of the core's shared no-head dual; an untouched
    # core prices to the very shared cover (legs, cost and dual chain) a
    # ring flow built from scratch gives
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, cores, _, _, pricing in _priced_states(inst, rng):
        assert [core for core, _ in pricing.ranked] == sorted(
            cores, key=lambda core: (fresh_cover(inst, units, cores, core, None).cost,
                                     core.representative))
        for head in free_leg_candidates(inst, units):
            arc = inst.arc(head)
            touched = [core for (core, _), _ in pricing.head_bound(arc)[0]]
            assert len(touched) == len(set(touched))
            for core, shared in pricing.ranked:
                if entered_steps(arc, shared):
                    assert core in touched
                    continue
                assert core not in touched
                assert fresh_cover(inst, units, cores, core, head) == shared


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
@example(2, False)  # one of its states raises InfeasibleError
def test_every_head_prices_like_a_fresh_ring_and_the_exact_oracle(seed, augmentation):
    # the one ring-pricing check, ``reference.check_state`` (the cross-check
    # script's), over every free head of random states: the solver's prices
    # against ring flows built afresh and the exact oracle
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, _ in _random_states(inst, rng):
        assert check_state(inst, units)[2] == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_a_node_floor_bounds_every_head_into_the_node(seed, augmentation):
    # the node bound: a core whose chain holds v sits at prefix[first[v]]
    # in the node floors, at most its floor under any head into v that
    # touches it; so the node floors lie elementwise below any such head's
    # bound list, and their best prefix density bounds the head's from below
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, _, _, _, pricing in _priced_states(inst, rng):
        for head in free_leg_candidates(inst, units):
            arc = inst.arc(head)
            node = arc[1]
            floors = pricing.head_bound((None, node))[1]
            touched, costs = pricing.head_bound(arc)
            for (_, shared), floor in touched:
                assert shared.prefix[shared.first[node]] <= floor
            assert len(floors) == len(costs)
            assert all(a <= b for a, b in zip(floors, costs))
            head_cost = inst.scaled_cost(head)
            node_total, node_j = _best_prefix(head_cost, floors)
            total, j = _best_prefix(head_cost, costs)
            assert node_total * j <= total * node_j
            if node not in {v for _, shared in pricing.ranked for v in shared.first}:
                assert floors == [shared.cost for _, shared in pricing.ranked]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_head_bound_equals_its_floors_built_step_by_step(seed, augmentation):
    # one scan gives a head's touched pairs and its bound's floors, read
    # off an index interval of each shared dual, and a tail on no chain
    # gives the node bound: list for list what finding each raised set the
    # head arc enters, summing those steps and inserting each floor, or
    # reading each chain at the node's first step, gives.  That a floor
    # bounds the head's price from below is checked pair by pair by
    # ``reference.check_state``
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for units, _, _, _, pricing in _priced_states(inst, rng):
        for head in free_leg_candidates(inst, units):
            arc = inst.arc(head)
            assert pricing.head_bound(arc) == head_floors(pricing, arc)
        for node in range(inst.node_count):
            assert pricing.head_bound((None, node)) == head_floors(pricing, (None, node))
            assert pricing.head_bound((None, node))[1] == node_floors(pricing, node)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
@example(204, False)  # a carried cover read a stop that changed by the next star
@example(2036, True)  # ... and one at level two
def test_a_reused_cover_equals_a_fresh_one(seed, augmentation):
    # every ring cover a solve carries to a later star and would reuse there
    # is, footprint and all, the one the primal-dual prices afresh at that
    # star on the carried flows, stops and selection
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    assert check_reused_covers(inst)[1] == []


def _best_prefix_by_full_scan(head_cost, costs):
    # the scan over every prefix that the early exit replaces, in rationals
    best = None
    running = 0
    for j, cost in enumerate(costs, start=1):
        running += cost
        key = (Fraction(head_cost + running, j), -j, head_cost + running)
        if best is None or key < best:
            best = key
    return best[2], -best[1]


_costs = st.integers(min_value=0, max_value=60)


@settings(max_examples=300, deadline=None)
@given(_costs.filter(bool), st.lists(_costs, min_size=1, max_size=12))
def test_best_prefix_early_exit_equals_the_full_scan(head_cost, costs):
    costs = sorted(costs)
    assert _best_prefix(head_cost, costs) == _best_prefix_by_full_scan(head_cost, costs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_phase_invariants(seed):
    # a phase is a run of consecutive records at one level
    inst = small_random_instance(random.Random(seed))
    cores = rooted_cores(inst, ())
    if not cores:
        return
    try:
        records = cover_levels(inst)
    except InfeasibleError:
        return
    units: list = []
    seen = set()
    for level, phase in itertools.groupby(records, key=lambda rec: rec.phase_level):
        # each phase starts from the cores of the state the last one left
        phase = list(phase)
        assert cores and level == rooted_max_level(inst, units)
        assert phase[0].cores_before == len(cores)
        for rec in phase:
            assert rec.cores_after < rec.cores_before
            assert rec.cores_before - rec.cores_after >= math.ceil(rec.leaf_count / 2)
            assert not (set(rec.added_units) & seen)
            seen.update(rec.added_units)
            units.extend(rec.added_units)
        assert rooted_max_level(inst, units) < level
        cores = rooted_cores(inst, units)
    assert cores == []


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_star_coverage_soundness(seed):
    # after buying the chosen star, no leaf's ring keeps a violated set
    inst = small_random_instance(random.Random(seed))
    if rooted_max_level(inst, ()) == 0:
        return
    cores = rooted_cores(inst, ())
    try:
        star = cheapest_star(inst, {}, cores, carried_flows(inst, ()), {})
    except InfeasibleError:
        return
    bought = star.edges()
    for core, _ in star.chosen:
        flow = build_ring_context(inst, (), cores, core)
        bought_edges = [star.head, *(bought - {star.head})]
        assert min_violated_set(inst, flow, frozenset(), bought_edges) is None


def _carried_and_fresh_cores(inst):
    """Every ``cores_of`` read of a ``cover_levels`` run, (level, cores),
    each with the units bought by then."""
    reads, bought = [], [()]
    real_cores, real_star = greedy.cores_of, greedy.cheapest_star

    def reading(inst, flows):
        reads.append(real_cores(inst, flows))
        return reads[-1]

    def buying(inst, taken, cores, flows, covers):
        star = real_star(inst, taken, cores, flows, covers)
        bought.append(bought[-1] + tuple((eid, taken[eid]) for eid in sorted(star.edges())))
        return star

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "cores_of", reading)
        mp.setattr(greedy, "cheapest_star", buying)
        try:
            cover_levels(inst)
        except InfeasibleError:
            pass
    assert len(reads) == len(bought)
    return zip(reads, bought)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_carried_cores_equal_fresh_cores(seed, augmentation):
    # the greedy grows one root flow per terminal by each star it buys; the
    # cores it reads off them must be the cores of the selection built afresh
    rng = random.Random(seed)
    inst = _augmentation_instance(seed) if augmentation else small_random_instance(rng)
    for read, units in _carried_and_fresh_cores(inst):
        assert read == (rooted_max_level(inst, units), rooted_cores(inst, units))
