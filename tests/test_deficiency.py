import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec.deficiency import (
    ExplicitSetFunction,
    explicit_cores,
    explicit_max_level,
    rooted_cores,
    tabulate_rooted,
)
from rkec.exact import enumerate_rooted
from rkec.instance import ParseError

from conftest import small_random_instance
from reference import rooted_max_level


def test_fixture_level_and_cores(instance_a):
    assert rooted_max_level(instance_a, ()) == 1
    cores = rooted_cores(instance_a, ())
    assert [(sorted(c.members), c.representative, c.deficiency) for c in cores] == [
        ([2], 2, 1),
        ([3], 3, 1),
    ]


def test_partial_selection_leaves_one_core(instance_a):
    units = [(1, 0), (2, 0)]  # root relay plus the arc onto terminal 2
    assert rooted_max_level(instance_a, units) == 1
    cores = rooted_cores(instance_a, units)
    assert [sorted(c.members) for c in cores] == [[3]]


def test_full_selection_closes_all(instance_a):
    units = instance_a.positive_units
    assert rooted_max_level(instance_a, units) == 0
    assert rooted_cores(instance_a, units) == []


def test_k2_variant_cores(instance_a_k2):
    assert rooted_max_level(instance_a_k2, ()) == 1
    cores = rooted_cores(instance_a_k2, ())
    assert [(sorted(c.members), c.deficiency) for c in cores] == [([2], 1), ([3], 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_monotone_level_and_t_disjoint_cores(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(inst.positive_units)
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    level_all = rooted_max_level(inst, sample)
    assert level_all <= rooted_max_level(inst, ())
    cores = rooted_cores(inst, sample)
    assert (level_all >= 1) == bool(cores)
    for i, a in enumerate(cores):
        assert a.representative in a.members & inst.terminals
        assert inst.root not in a.members
        for b in cores[i + 1:]:
            assert not (a.members & b.members & inst.terminals)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_cores_match_enumeration(seed, data):
    # the closest-cut construction must return exactly the minimal members of
    # the enumerated max-level family
    inst = small_random_instance(random.Random(seed))
    units = list(inst.positive_units)
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    cores = rooted_cores(inst, sample)
    assert rooted_max_level(inst, sample) == family.level
    assert [c.members for c in cores] == sorted(family.cores, key=lambda m: min(m & inst.terminals))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_every_member_contains_a_core(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(inst.positive_units)
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    assert family.every_member_contains_core()


# ---------------------------------------------------------------------------
# explicit backend


def test_zero_function_has_no_cores():
    fn = ExplicitSetFunction(3, frozenset({1}), ())
    assert explicit_max_level(fn, ()) == 0
    assert explicit_cores(fn, ()) == []


def test_singleton_function():
    fn = ExplicitSetFunction(4, frozenset({2}), ((frozenset({2}), 1),))
    cores = explicit_cores(fn, ())
    assert len(cores) == 1 and cores[0].members == frozenset({2})
    assert cores[0].representative == 2


def test_residual_arcs_lower_level():
    fn = ExplicitSetFunction(3, frozenset({1, 2}), (
        (frozenset({1}), 2),
        (frozenset({2}), 1),
        (frozenset({1, 2}), 2),
    ))
    assert explicit_max_level(fn, ()) == 2
    assert explicit_max_level(fn, [(0, 1)]) == 1
    cores = explicit_cores(fn, [(0, 1)])
    assert {c.members for c in cores} == {frozenset({1}), frozenset({2})}


def test_constructor_rejects_supermodularity_violation():
    # {1,2} and {1,3} share terminal 1 but their meet and join carry too little
    with pytest.raises(ParseError, match="supermodular"):
        ExplicitSetFunction(4, frozenset({1}), (
            (frozenset({1, 2}), 2),
            (frozenset({1, 3}), 2),
            (frozenset({1}), 1),
            (frozenset({1, 2, 3}), 2),
        ))


def test_constructor_rejects_terminal_free_positive_set():
    with pytest.raises(ParseError, match="no terminal"):
        ExplicitSetFunction(3, frozenset({1}), ((frozenset({2}), 1),))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_cross_backend_equivalence(seed, data):
    # tabulating the rooted function and querying the explicit backend must
    # reproduce the rooted backend exactly, under any sampled selection
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    units = list(inst.positive_units)
    sample = sorted(data.draw(st.sets(st.sampled_from(units)) if units else st.just(set())))
    fn = tabulate_rooted(inst, sample)
    # remaining selections act as arcs on top of the tabulated state
    rest = [u for u in units if u not in sample]
    extra = sorted(data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set())))
    arcs = [inst.unit_arc(u) for u in extra]
    combined = sample + extra
    assert explicit_max_level(fn, arcs) == rooted_max_level(inst, combined)
    rooted = rooted_cores(inst, combined)
    explicit = explicit_cores(fn, arcs)
    assert [(c.members, c.representative) for c in rooted] == [
        (c.members, c.representative) for c in explicit
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_residual_stays_supermodular(seed, data):
    # the residual of a valid table must re-pass the constructor check
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    fn = tabulate_rooted(inst, ())
    units = list(inst.positive_units)
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    arcs = [inst.unit_arc(u) for u in sample]
    residual = fn.residual(arcs)  # constructor re-checks
    assert explicit_max_level(residual, ()) == explicit_max_level(fn, arcs)
