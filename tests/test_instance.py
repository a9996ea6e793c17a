import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkec import instance
from rkec.generate import GenParams, generate_instance
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
from rkec.solver import report_from_doc, report_to_doc, solve

from conftest import INSTANCE_A_JSON, small_random_instance
from reference import (
    frac_by_fraction,
    load_script,
    parse_instance_per_edge,
    per_edge_costs,
    per_edge_views,
    positive_units,
)

ROOT = Path(__file__).resolve().parents[1]


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
    (lambda d: d.update(n=0), "node count must be positive"),
    (lambda d: d.update(root=4), "root 4 out of range"),
    (lambda d: d.update(terminals=[2, 4]), "terminal 4 out of range"),
    (lambda d: d["edges"][0].update(mult=0), "edge 1 has non-positive multiplicity"),
    (lambda d: d["edges"].append(5), "edge record must be an object"),
    (lambda d: d["edges"][0].pop("id"), "edge record missing field 'id'"),
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
    assert validate_quasi_bipartite(instance_a)


def test_quasi_bipartite_offender():
    edges = (Edge(1, 1, 4, Fraction(3)), Edge(2, 0, 2, Fraction(1)))
    inst = Instance(5, 0, frozenset({2}), edges, 1)
    assert validate_quasi_bipartite(inst) is False


def test_quasi_bipartite_zero_cost_exemption():
    edges = (Edge(1, 1, 4, Fraction(0)), Edge(2, 0, 2, Fraction(1)))
    inst = Instance(5, 0, frozenset({2}), edges, 1)
    assert validate_quasi_bipartite(inst)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_quasi_bipartite_monotone_under_deletion(seed, data):
    # deleting positive-cost edges never turns a true report false
    inst = small_random_instance(random.Random(seed))
    if not validate_quasi_bipartite(inst):
        return
    keep = data.draw(st.sets(st.sampled_from([e.id for e in inst.edges])
                             if inst.edges else st.nothing()))
    pruned = Instance(
        inst.node_count, inst.root, inst.terminals,
        tuple(e for e in inst.edges if e.cost == 0 or e.id in keep),
        inst.k,
    )
    assert validate_quasi_bipartite(pruned)


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
@example([float("nan"), float("inf"), -float("inf")])  # written NaN, Infinity, -Infinity
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


# one value spelled many ways, integer costs and the other rationals the
# drawn documents share, so most documents repeat a cost text
_COSTS = ["2", "2/1", "4/2", " 2", "+2", "2.0", "-0", "0/3", "0/5", "0", "1", "1/2",
          "3/4", "5/6", "0.25", 2, 0, 1]
# what a field's value is swapped for: a value no field takes (``true``, a
# float, an exponent, no number, a zero denominator, a negative cost), an
# integer, or _MISSING, which deletes the key
_MISSING = object()
_SWAPS = [True, False, 1.0, "1e3", "x", "1/0", "-1/3", "-1", None, [1], 0, 1, -1, 5, _MISSING]


@st.composite
def _instance_docs(draw):
    """Instance documents over nodes 0..4 with root 0, one in two of them
    with one field of the document or of an edge record swapped (an edge's
    cost five times as often as any other field)."""
    ids = draw(st.lists(st.integers(1, 12), max_size=12, unique=True))
    doc = {
        "n": 5, "root": 0,
        "terminals": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)),
        "k": draw(st.integers(1, 2)),
        "edges": [
            {"id": eid, "tail": draw(st.integers(0, 4)), "head": draw(st.integers(1, 4)),
             "cost": draw(st.sampled_from(_COSTS)), "mult": draw(st.integers(1, 2))}
            for eid in ids
        ],
    }
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc, *doc["edges"]]))
        keys = sorted(target) if target is doc else [*target, "cost", "cost", "cost", "cost"]
        key, value = draw(st.sampled_from(keys)), draw(st.sampled_from(_SWAPS))
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
    return doc


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def _assert_views_are_per_edge(inst: Instance, reference: Instance) -> None:
    """Every view ``inst`` built in its one walk, and every row it builds on
    first use, is what ``reference``'s edges give read one at a time."""
    scale, zero, positive, scaled = per_edge_costs(reference)
    assert (inst.cost_scale, inst.zero_edges, inst.positive_edges) == (scale, zero, positive)
    assert {e.id: inst.scaled_cost(e.id) for e in inst.edges} == scaled
    assert inst.positive_unit_count == sum(e.mult for e in positive)
    by_id, entering, by_cost, arcs = per_edge_views(reference)
    assert inst.edge_by_id == by_id
    assert inst.positive_entering == entering
    assert list(inst.positive_by_cost) == by_cost
    assert {e.id: inst.arc(e.id) for e in inst.edges} == arcs


def _edge_doc(*costs) -> dict:
    """Root 0 and terminal 1 joined by one edge per cost, ids from 1."""
    return {"n": 2, "root": 0, "terminals": [1], "k": 1,
            "edges": [{"id": i, "tail": 0, "head": 1, "cost": c}
                      for i, c in enumerate(costs, 1)]}


@settings(max_examples=300, deadline=None)
@given(_instance_docs())
@example(_edge_doc("2", "2/1", "4/2", " 2", "+2", "2.0", "-0", "0/3"))
@example(_edge_doc("1", 1, True))
@example(_edge_doc(1, "1", 1.0))
@example(_edge_doc("1/2", "1e3"))
@example(_edge_doc("1/2", "x"))
@example(_edge_doc("1/3", "1/0"))
@example(_edge_doc("1/3", "-1/3"))
def test_parse_matches_the_per_edge_parser(doc):
    # a cost text parsed once and shared gives the instance, or the refusal,
    # that parsing it for every edge gave
    text = json.dumps(doc)
    fast, slow = _parsed(parse_instance, text), _parsed(parse_instance_per_edge, text)
    assert type(fast) is type(slow) and fast == slow
    if isinstance(fast, Instance):
        _assert_views_are_per_edge(fast, slow)
        assert instance_to_json(fast) == instance_to_json(slow)


def test_every_generated_instance_round_trips(monkeypatch):
    # the 500 corpus instances and the ladder of scripts/bench.py, and the
    # midsize and wide pools of perfbench
    bench = load_script(ROOT / "scripts" / "bench.py", monkeypatch)
    params = [p for _, row in bench.rows() for p in row]
    pools = load_script(ROOT / "perfbench" / "workloads.py", monkeypatch).WORKLOADS
    params += [*pools["midsize"].params, *pools["wide"].params]
    assert len(params) == 500 + 3 + 8 + 6
    for p in params:
        inst = generate_instance(p)
        again = parse_instance(instance_to_json(inst))
        assert again == inst
        _assert_views_are_per_edge(again, inst)


@pytest.fixture
def frac_calls(monkeypatch) -> list:
    """Every value ``instance.frac_from_obj`` parses while the test runs."""
    calls = []
    parse = instance.frac_from_obj

    def counted(obj):
        calls.append(obj)
        return parse(obj)

    monkeypatch.setattr(instance, "frac_from_obj", counted)
    return calls


@pytest.mark.parametrize("params", [
    GenParams(nodes=24, terminals=12, k=1, density=Fraction(3, 10), seed=1),
    GenParams(120, 40, 3, density=Fraction(3, 10), root_bias=2, seed=1),
], ids=["wide-1", "ladder-120-40-3"])
def test_parse_reads_each_cost_text_once(params, frac_calls):
    text = instance_to_json(generate_instance(params))
    costs = [rec["cost"] for rec in json.loads(text)["edges"]]
    parse_instance(text)
    assert len(costs) > 10 * len(set(costs))
    assert sorted(frac_calls) == sorted(set(costs))


def test_a_report_reads_each_cost_text_once(frac_calls):
    inst = generate_instance(GenParams(nodes=24, terminals=12, k=1, density=Fraction(3, 10), seed=1))
    doc = json.loads(dump_json(report_to_doc(solve(inst))))
    costs = [doc["solution"]["total_cost"], *(r["added_cost"] for r in doc["solution"]["audit"])]
    frac_calls.clear()
    report_from_doc(doc)
    assert len(costs) > len(set(costs))
    assert sorted(frac_calls) == sorted(set(costs))


class _Incomparable(Fraction):
    """A cost that refuses every comparison."""

    def _refuse(self, other):
        raise AssertionError("a cost was compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = Fraction.__hash__


def test_an_instance_compares_no_costs():
    costs = [_Incomparable(0), _Incomparable(3, 2), _Incomparable(5, 3), _Incomparable(0, 7)]
    edges = tuple(Edge(i, 0, 1, c) for i, c in enumerate(costs, 1))
    inst = Instance(2, 0, frozenset({1}), edges, 1)
    assert [e.id for e in inst.zero_edges] == [1, 4]
    assert [e.id for e in inst.positive_edges] == [2, 3]
    assert inst.cost_scale == 6
    assert [inst.scaled_cost(i) for i in (1, 2, 3, 4)] == [0, 9, 10, 0]


@pytest.mark.parametrize("cost", [Fraction(-1), Fraction(-1, 3), -1])
def test_a_built_instance_refuses_a_negative_cost(cost):
    # the generator's path: an Instance built from Edges, with no document
    with pytest.raises(ParseError, match="edge 2 has negative cost"):
        Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(1)), Edge(2, 0, 1, cost)), 1)


@pytest.mark.parametrize("edge, message", [
    (Edge(2, 1, 0, Fraction(1)), "edge 2 enters root"),
    (Edge(2, 1, 1, Fraction(1)), "edge 2 is a self-loop"),
], ids=["enters-root", "self-loop"])
def test_a_built_instance_refuses_an_edge_the_parser_never_passes(edge, message):
    # a document's edge into the root is refused and its self-loop dropped
    # before an Instance is built, so only a direct build reaches these
    with pytest.raises(ParseError, match=message):
        Instance(2, 0, frozenset({1}), (Edge(1, 0, 1, Fraction(1)), edge), 1)


def test_signed_and_unreduced_zeros_are_free():
    inst = parse_instance(json.dumps(_edge_doc("-0", "0/5", "1", "-0.0")))
    assert [e.id for e in inst.zero_edges] == [1, 2, 4]
    assert [e.id for e in inst.positive_edges] == [3]
    assert inst.cost_scale == 1


# every field each type has, and the views an instance fills or builds
_FIELDS = {
    "edge": ("id", "tail", "head", "cost", "mult"),
    "instance": ("node_count", "root", "terminals", "edges", "k", "edge_by_id", "zero_edges",
                 "positive_edges", "positive_unit_count", "cost_scale", "positive_by_cost",
                 "positive_entering"),
    "record": ("phase_level", "cores_before", "cores_after", "star_center", "leaf_count",
               "added_cost", "added_units"),
}


def test_edges_instances_and_records_refuse_every_assignment(instance_a):
    # whatever types they are, a built edge, instance or iteration record
    # keeps every field it was built with
    record = IterationRecord(1, 2, 0, 1, 2, Fraction(4), ((1, 0), (2, 0)))
    objects = {"edge": instance_a.edges[0], "instance": instance_a, "record": record}
    for kind, obj in objects.items():
        for name in _FIELDS[kind]:
            before = getattr(obj, name)
            with pytest.raises((AttributeError, TypeError)):
                setattr(obj, name, before)
            with pytest.raises((AttributeError, TypeError)):
                setattr(obj, name, None)
            assert getattr(obj, name) is before


# the pieces of a cost text: ASCII, Arabic-Indic and fullwidth decimal
# digits, a superscript digit that is no decimal, signs, space, "_", ".",
# "/" and exponent letters, and runs of digits on both sides of str's
# 4,300-digit limit
_PIECES = st.one_of(
    st.sampled_from(["0", "1", "7", "\u0663", "\uff12", "\u00b2", "-", "+", " ", "_", ".", "/",
                     "e", "E"]),
    st.text("0123456789", min_size=1, max_size=4),
    st.builds(str.__mul__, st.sampled_from(["1", "9", "\u0663"]), st.integers(4_295, 4_310)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES, max_size=6).map("".join))
@example("\u0663/\uff12")
@example("\u00b2")
@example("1/0")
@example("0/0")
@example("007/014")
@example("1" * 4_301)
@example("1" * 4_300 + "/" + "3" * 4_300)
@example("2/" + "3" * 4_301)
@example("")
def test_the_rational_fast_path_reads_what_fraction_reads(text):
    # decimal integers and "p/q" texts skip Fraction's parser: the same
    # value, or the same refusal, as reading every text with it
    fast, slow = _parsed(frac_from_obj, text), _parsed(frac_by_fraction, text)
    assert type(fast) is type(slow) and fast == slow
