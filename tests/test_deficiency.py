import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec.deficiency import cores_of
from rkec.instance import ParseError

from conftest import small_random_instance
from oracles import ExplicitSetFunction, enumerate_explicit, enumerate_rooted, tabulate_rooted
from reference import positive_units, rooted_cores, rooted_max_level, run_optimized


def test_fixture_level_and_cores(instance_a):
    assert rooted_max_level(instance_a, ()) == 1
    cores = rooted_cores(instance_a, ())
    assert [(sorted(c.members), c.representative) for c in cores] == [([2], 2), ([3], 3)]


def test_partial_selection_leaves_one_core(instance_a):
    units = [(1, 0), (2, 0)]  # root relay plus the arc onto terminal 2
    assert rooted_max_level(instance_a, units) == 1
    cores = rooted_cores(instance_a, units)
    assert [sorted(c.members) for c in cores] == [[3]]


def test_full_selection_closes_all(instance_a):
    units = positive_units(instance_a)
    assert rooted_max_level(instance_a, units) == 0
    assert rooted_cores(instance_a, units) == []


def test_k2_variant_cores(instance_a_k2):
    assert rooted_max_level(instance_a_k2, ()) == 1
    cores = rooted_cores(instance_a_k2, ())
    assert [sorted(c.members) for c in cores] == [[2], [3]]


_OFF_LEVEL = """
from fractions import Fraction
from rkec.deficiency import cores_of
from rkec.flows import add_arcs, root_flows
from rkec.instance import Edge, Instance

# terminals 1 and 2 reach each other for free, so {1, 2} is the one core
inst = Instance(3, 0, frozenset({1, 2}), (
    Edge(1, 1, 2, Fraction(0)), Edge(2, 2, 1, Fraction(0)), Edge(3, 0, 1, Fraction(1)),
), 1)
flows = dict(root_flows(inst, {}, inst.k))
mark = flows[2].mark()
add_arcs(flows.values(), [(0, 1, 1)])  # edge 3
flows[1].grow(inst.k)  # terminal 1's flow gains a path over it
flows[2].rollback(mark)  # terminal 2's flow alone is rolled back, and the arc goes
"""


def test_a_core_whose_representative_is_off_the_level_is_refused():
    # a core's ring is read off its representative's flow, which must sit at
    # k - level; here terminal 2's flow reads the core {1, 2} at level 1, but
    # its representative 1 still carries a path over an arc that terminal
    # 2's rollback took out of the network the two share.  ``cores_of`` must
    # raise, with an ``if`` that ``python -O`` keeps
    namespace = {}
    exec(_OFF_LEVEL, namespace)
    with pytest.raises(AssertionError, match="core representative 1 has flow 1, not 0"):
        cores_of(namespace["inst"], namespace["flows"])

    proc = run_optimized(_OFF_LEVEL + """
assert False, "asserts must be stripped in this interpreter"
try:
    cores_of(inst, flows)
except AssertionError as exc:
    print("raised:", exc)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: core representative 1 has flow 1, not 0\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_monotone_level_and_t_disjoint_cores(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(positive_units(inst))
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
    units = list(positive_units(inst))
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    cores = rooted_cores(inst, sample)
    assert rooted_max_level(inst, sample) == family.level
    assert [c.members for c in cores] == family.cores


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_every_member_contains_a_core(seed, data):
    inst = small_random_instance(random.Random(seed))
    units = list(positive_units(inst))
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    family = enumerate_rooted(inst, sample)
    assert family.every_member_contains_core()


# ---------------------------------------------------------------------------
# explicit backend


def test_zero_function_has_no_cores():
    family = enumerate_explicit(ExplicitSetFunction(3, frozenset({1}), ()))
    assert family.level == 0
    assert family.cores == []


def test_singleton_function():
    fn = ExplicitSetFunction(4, frozenset({2}), ((frozenset({2}), 1),))
    cores = enumerate_explicit(fn).cores
    assert len(cores) == 1 and cores[0] == frozenset({2})
    assert min(cores[0] & fn.terminals) == 2


def test_residual_arcs_lower_level():
    fn = ExplicitSetFunction(3, frozenset({1, 2}), (
        (frozenset({1}), 2),
        (frozenset({2}), 1),
        (frozenset({1, 2}), 2),
    ))
    assert enumerate_explicit(fn).level == 2
    family = enumerate_explicit(fn, [(0, 1, 1)])
    assert family.level == 1
    assert set(family.cores) == {frozenset({1}), frozenset({2})}


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
    units = list(positive_units(inst))
    sample = sorted(data.draw(st.sets(st.sampled_from(units)) if units else st.just(set())))
    fn = tabulate_rooted(inst, sample)
    # remaining selections act as arcs on top of the tabulated state
    rest = [u for u in units if u not in sample]
    extra = sorted(data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set())))
    arcs = [(*inst.arc(eid), 1) for eid, _ in extra]
    combined = sample + extra
    explicit = enumerate_explicit(fn, arcs)
    assert explicit.level == rooted_max_level(inst, combined)
    rooted = rooted_cores(inst, combined)
    assert [(c.members, c.representative) for c in rooted] == [
        (m, min(m & inst.terminals)) for m in explicit.cores
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_residual_stays_supermodular(seed, data):
    # the residual of a valid table must re-pass the constructor check
    inst = small_random_instance(random.Random(seed), max_nodes=5)
    fn = tabulate_rooted(inst, ())
    units = list(positive_units(inst))
    sample = data.draw(st.sets(st.sampled_from(units)) if units else st.just(set()))
    arcs = [(*inst.arc(eid), 1) for eid, _ in sample]
    residual = fn.residual(arcs)  # constructor re-checks
    assert enumerate_explicit(residual).level == enumerate_explicit(fn, arcs).level
