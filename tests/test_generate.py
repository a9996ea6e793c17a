from fractions import Fraction

import pytest

from rkec.flows import working_arcs
from rkec.generate import GenParams, default_corpus_params, generate_instance
from rkec.instance import instance_to_json, selection_from_units, validate_quasi_bipartite

from reference import maximum_flow, positive_units


def instance_view(inst, units):
    return inst.node_count, working_arcs(inst, selection_from_units(units))


def max_flow_value(view, s, t):
    return maximum_flow(*view, s, t).value


def params(**overrides):
    base = dict(nodes=6, terminals=2, k=1, density=Fraction(1, 2), seed=1)
    base.update(overrides)
    return GenParams(**base)


def test_deterministic_for_fixed_seed():
    a = generate_instance(params())
    b = generate_instance(params())
    assert instance_to_json(a) == instance_to_json(b)


def test_different_seeds_differ():
    a = generate_instance(params(seed=1))
    b = generate_instance(params(seed=2))
    assert instance_to_json(a) != instance_to_json(b)


def test_parameter_validation():
    with pytest.raises(ValueError):
        params(terminals=6)  # must stay below the node count
    with pytest.raises(ValueError):
        params(k=0)
    with pytest.raises(ValueError):
        params(density=Fraction(0))
    with pytest.raises(ValueError):
        params(mode="augmentation")  # needs base_level >= 1
    with pytest.raises(ValueError):
        params(mode="augmentation", k=1, base_level=1)  # base_level < k


def test_generated_instances_are_quasi_bipartite_and_feasible():
    for seed in range(1, 30):
        inst = generate_instance(params(seed=seed))
        assert validate_quasi_bipartite(inst).ok
        full = instance_view(inst, positive_units(inst))
        assert all(
            max_flow_value(full, inst.root, t) >= inst.k for t in inst.terminals
        )


def test_augmentation_mode_plants_free_connectivity():
    p = params(k=2, mode="augmentation", base_level=1, seed=3)
    inst = generate_instance(p)
    base = instance_view(inst, ())
    assert all(max_flow_value(base, inst.root, t) >= 1 for t in inst.terminals)
    assert validate_quasi_bipartite(inst).ok


def test_unit_cap_respected():
    p = params(seed=5, max_units=10)
    inst = generate_instance(p)
    assert len(positive_units(inst)) <= 10


def test_corpus_params_stay_inside_caps():
    for seed in range(1, 200):
        p = default_corpus_params(seed)
        assert p.nodes <= 10 and p.terminals <= 4 and p.k <= 3
        assert p.max_units == 22
        inst = generate_instance(p)
        assert len(positive_units(inst)) <= 22
        assert validate_quasi_bipartite(inst).ok
