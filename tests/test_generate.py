import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkec.generate import GenParams, _draw, _threshold, default_corpus_params, generate_instance
from rkec.instance import instance_to_json, validate_quasi_bipartite

from reference import instance_view, max_flow_value, positive_units


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
    with pytest.raises(ValueError, match="need at least a root and one terminal"):
        params(nodes=1, terminals=1)
    with pytest.raises(ValueError, match="cost range"):
        params(cost_lo=5, cost_hi=4)
    with pytest.raises(ValueError, match="unknown mode 'tree'"):
        params(mode="tree")
    with pytest.raises(ValueError, match="base_level only applies to augmentation mode"):
        params(base_level=1)


def test_generated_instances_are_quasi_bipartite_and_feasible():
    for seed in range(1, 30):
        inst = generate_instance(params(seed=seed))
        assert validate_quasi_bipartite(inst)
        full = instance_view(inst, positive_units(inst))
        assert all(
            max_flow_value(full, inst.root, t) >= inst.k for t in inst.terminals
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_augmentation_mode_plants_free_connectivity(data):
    # no draw is re-checked for its skeleton, so every draw, one the
    # generator rejects as well, must give each terminal base_level root
    # paths over its zero-cost edges alone
    nodes = data.draw(st.integers(2, 12), label="nodes")
    k = data.draw(st.integers(2, 5), label="k")
    p = GenParams(
        nodes=nodes,
        terminals=data.draw(st.integers(1, nodes - 1), label="terminals"),
        k=k,
        density=Fraction(data.draw(st.integers(1, 10), label="density_tenths"), 10),
        mode="augmentation",
        base_level=data.draw(st.integers(1, k - 1), label="base_level"),
    )
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    for _ in range(3):
        inst = _draw(rng, p)
        free = instance_view(inst, ())
        assert all(max_flow_value(free, inst.root, t) >= p.base_level for t in inst.terminals)
        assert validate_quasi_bipartite(inst)


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
        assert validate_quasi_bipartite(inst)


# sha256 of ``instance_to_json`` over default_corpus_params(1..500) and the
# three ``scripts/bench.py`` ladder instances, concatenated in that order;
# taken while ``_draw`` still compared each draw with a ``Fraction``
GENERATED_SHA256 = "6f91a6514c8455fe18fd00d770823957e973a8bb7be3acbb28a84df378573a95"


def test_generated_instances_keep_their_bytes():
    digest = hashlib.sha256()
    for seed in range(1, 501):
        digest.update(instance_to_json(generate_instance(default_corpus_params(seed))).encode())
    for n, t, k in ((120, 40, 3), (200, 60, 3), (300, 90, 3)):
        ladder = GenParams(n, t, k, density=Fraction(3, 10), root_bias=2, seed=1)
        digest.update(instance_to_json(generate_instance(ladder)).encode())
    assert digest.hexdigest() == GENERATED_SHA256


def _assert_threshold_is_exact(p, seed):
    t = _threshold(p)
    assert Fraction(t) >= p > Fraction(math.nextafter(t, 0))
    for x in (random.Random(seed).random(), t, math.nextafter(t, 0), math.nextafter(t, 1)):
        assert (x >= t) == (x >= p)
        assert (x < t) == (x < p)


NAMED_PROBABILITIES = [Fraction(1, 2), Fraction(1, 4), Fraction(1),
                       Fraction(1, 10), Fraction(3, 10), Fraction(9, 20)]


def test_threshold_is_exact_at_the_generator_probabilities():
    for d in NAMED_PROBABILITIES:
        for p in (d, min(d * 2, Fraction(1))):
            for seed in range(20):
                _assert_threshold_is_exact(p, seed)


_ratios = st.integers(1, 10**6).flatmap(
    lambda b: st.builds(Fraction, st.integers(1, b), st.just(b)))
_densities = st.one_of(_ratios, st.sampled_from(NAMED_PROBABILITIES))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_densities, _densities.map(lambda d: min(d * 2, Fraction(1)))),
       st.integers(0, 2**32))
def test_threshold_is_exact(p, seed):
    _assert_threshold_is_exact(p, seed)
