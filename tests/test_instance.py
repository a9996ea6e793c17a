import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec.instance import (
    Edge,
    Instance,
    IterationRecord,
    ParseError,
    Solution,
    dump_json,
    frac_from_obj,
    instance_to_json,
    load_object,
    parse_instance,
    selection_from_units,
    solution_from_doc,
    solution_to_doc,
    validate_quasi_bipartite,
)

from conftest import INSTANCE_A_JSON, small_random_instance
from reference import positive_units


def test_parse_fixture(instance_a):
    inst = parse_instance(INSTANCE_A_JSON)
    assert inst == instance_a
    assert len(inst.edges) == 5
    assert len(inst.terminals) == 2


def test_parse_zero_cost_feasible_identity():
    doc = {"n": 2, "root": 0, "terminals": [1], "k": 1,
           "edges": [{"id": 1, "tail": 0, "head": 1, "cost": "0", "mult": 1}]}
    inst = parse_instance(json.dumps(doc))
    assert inst.zero_edges and not inst.positive_edges


def test_parse_rejects_edge_into_root():
    doc = {"n": 4, "root": 0, "terminals": [2], "k": 1,
           "edges": [{"id": 1, "tail": 2, "head": 0, "cost": "1", "mult": 1}]}
    with pytest.raises(ParseError, match="enters root"):
        parse_instance(json.dumps(doc))


def test_parse_drops_self_loops():
    doc = {"n": 3, "root": 0, "terminals": [2], "k": 1,
           "edges": [{"id": 1, "tail": 2, "head": 2, "cost": "1", "mult": 1},
                     {"id": 2, "tail": 0, "head": 2, "cost": "1", "mult": 1}]}
    inst = parse_instance(json.dumps(doc))
    assert [e.id for e in inst.edges] == [2]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(terminals=[0]), "root must not be a terminal"),
    (lambda d: d["edges"][0].update(cost="-1"), "negative cost"),
    (lambda d: d["edges"][0].update(id=2), "duplicate edge id"),
    (lambda d: d.update(k=0), "k must be positive"),
    (lambda d: d.update(terminals=[]), "nonempty"),
    # JSON true/false are not the integers 1/0, wherever the instance wants one
    (lambda d: d.update(n=True), "integers"),
    (lambda d: d.update(root=False), "integers"),
    (lambda d: d.update(k=True), "integers"),
    (lambda d: d.update(terminals=[True, 2, 3]), "integers"),
    (lambda d: d["edges"][0].update(id=True), "integers"),
    (lambda d: d["edges"][0].update(tail=False), "integers"),
    (lambda d: d["edges"][0].update(head=True), "integers"),
    (lambda d: d["edges"][0].update(mult=True), "integers"),
])
def test_parse_invariant_errors(mutate, message):
    doc = json.loads(INSTANCE_A_JSON)
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        parse_instance(json.dumps(doc))


def test_parse_malformed_document():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_instance("{nope")
    with pytest.raises(ParseError, match="missing field"):
        parse_instance("{}")
    with pytest.raises(ParseError, match="rational"):
        parse_instance(INSTANCE_A_JSON.replace('"2"', '"2/x"'))


def test_rational_round_trip():
    for text in ["0", "7", "3/2", "22/7"]:
        assert str(frac_from_obj(text)) == text
    assert frac_from_obj(5) == Fraction(5)
    assert frac_from_obj("2.5") == Fraction(5, 2)
    with pytest.raises(ParseError):
        frac_from_obj(1.5)


@pytest.mark.parametrize("text", ["1e3", "1E3", "2.5e-1"])
def test_exponent_strings_are_not_rationals(text):
    # Fraction expands an exponent into 10**exp itself, however long it takes
    with pytest.raises(ParseError, match="not a rational"):
        frac_from_obj(text)


def test_instance_round_trip(instance_a):
    again = parse_instance(instance_to_json(instance_a))
    assert again == instance_a
    assert instance_to_json(again) == instance_to_json(instance_a)


def test_quasi_bipartite_fixture(instance_a):
    assert validate_quasi_bipartite(instance_a).ok


def test_quasi_bipartite_offender():
    edges = (Edge(1, 1, 4, Fraction(3)), Edge(2, 0, 2, Fraction(1)))
    inst = Instance(5, 0, frozenset({2}), edges, 1)
    report = validate_quasi_bipartite(inst)
    assert not report.ok and report.offending == (1,)


def test_quasi_bipartite_zero_cost_exemption():
    edges = (Edge(1, 1, 4, Fraction(0)), Edge(2, 0, 2, Fraction(1)))
    inst = Instance(5, 0, frozenset({2}), edges, 1)
    assert validate_quasi_bipartite(inst).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_quasi_bipartite_monotone_under_deletion(seed, data):
    # deleting positive-cost edges never turns a true report false
    inst = small_random_instance(random.Random(seed))
    if not validate_quasi_bipartite(inst).ok:
        return
    keep = data.draw(st.sets(st.sampled_from([e.id for e in inst.edges])
                             if inst.edges else st.nothing()))
    pruned = Instance(
        inst.node_count, inst.root, inst.terminals,
        tuple(e for e in inst.edges if e.cost == 0 or e.id in keep),
        inst.k,
    )
    assert validate_quasi_bipartite(pruned).ok


def test_positive_units_expand_multiplicity():
    edges = (Edge(1, 0, 1, Fraction(3), 2), Edge(2, 0, 1, Fraction(0), 3))
    inst = Instance(2, 0, frozenset({1}), edges, 1)
    assert positive_units(inst) == ((1, 0), (1, 1))
    assert inst.selection_cost(selection_from_units(positive_units(inst))) == 6


def test_solution_round_trip(instance_a):
    record = IterationRecord(1, 2, 0, 1, 2, Fraction(4), ((1, 0), (2, 0), (3, 0)))
    sol = Solution(
        selected={1: 1, 2: 1, 3: 1},
        total_cost=Fraction(4),
        connectivity={2: 1, 3: 1},
        feasible=True,
        audit=[record],
    )
    text = dump_json(solution_to_doc(sol))
    again = solution_from_doc(load_object(text, "solution document"))
    assert again == sol
    assert dump_json(solution_to_doc(again)) == text


def test_empty_solution_document():
    sol = Solution({}, Fraction(0), {2: 0}, False)
    doc = json.loads(dump_json(solution_to_doc(sol)))
    assert doc["selected"] == [] and doc["total_cost"] == "0"


def test_selection_from_units():
    assert selection_from_units([(3, 0), (1, 0), (3, 1)]) == {1: 1, 3: 2}


_json_text = st.text(st.one_of(
    st.characters(), st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\u2028", "é", "😀"])))
_json_scalars = st.one_of(
    st.none(), st.booleans(), _json_text,
    st.integers(), st.integers(-(10**400), 10**400),
    st.floats(),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(_json_text, inner),
        st.just([]), st.just({}), st.just(()),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_dump_json_writes_what_json_dumps_writes(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}], {(1,): 0}])
def test_dump_json_refuses_a_key_that_is_not_a_string(doc):
    with pytest.raises(TypeError):
        dump_json(doc)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x", object()])
def test_dump_json_refuses_a_value_it_cannot_write(value):
    with pytest.raises(TypeError):
        dump_json({"a": [value]})
