import random
from fractions import Fraction

import pytest

from cayspec.colour import (
    class_weight_vector,
    colour_from_multiset,
    colour_from_values,
    distance_layering,
)
from cayspec.groups import make_cyclic, make_dihedral, power_map
from conftest import d8_alpha, multiset_colour, random_class_function


def d5_multiset(counts):
    G = make_dihedral(5)
    return G, colour_from_multiset(
        G, {G.element_index(name): m for name, m in counts.items()}
    )


def power_pullback(f, k):
    # The colour g -> f(g**k), rebuilt by the constructor that checks it.
    pm = power_map(f.group, k)
    return colour_from_values(f.group, {g: f.values[gk] for g, gk in enumerate(pm)})


def test_alpha_is_accepted():
    G, alpha = d8_alpha()
    assert alpha.values[G.element_index("a^3")] == Fraction(3, 5)
    assert alpha.values[0] == 0


def test_zero_assignment_accepted():
    G = make_cyclic(6)
    f = colour_from_values(G, {})
    assert all(v == 0 for v in f.values)


def test_non_class_function_rejected():
    G = make_dihedral(4)
    with pytest.raises(ValueError, match="^conjugate elements a and a\\^3 carry different values 1 and 0$"):
        colour_from_values(G, {G.element_index("a"): 1})


def test_non_symmetric_rejected():
    G = make_cyclic(5)
    with pytest.raises(ValueError, match=r"^f\(1\) = 1 but f\(4\) = 0$"):
        colour_from_values(G, {1: 1})


def test_multiset_s1():
    G, f = d5_multiset({"a^2": 2, "a^3": 2, "b": 1, "b*a": 1, "b*a^2": 1, "b*a^3": 1, "b*a^4": 1})
    assert f.values[G.element_index("a^2")] == 2
    assert f.values[G.element_index("b*a^3")] == 1
    assert sum(f.values) == 9  # the valency


def test_multiset_s2():
    G, f = d5_multiset({"a": 2, "a^2": 2, "a^3": 2, "a^4": 2})
    assert f.values[G.element_index("a^4")] == 2


def test_empty_multiset_gives_zero_colour():
    G = make_cyclic(4)
    f = colour_from_multiset(G, {})
    assert not any(f.values)


def test_multiset_validation():
    G = make_dihedral(4)
    with pytest.raises(ValueError, match="^the identity cannot appear"):
        colour_from_multiset(G, {0: 1, 1: 1, 3: 1})
    with pytest.raises(ValueError, match="^negative multiplicity at a$"):
        colour_from_multiset(G, {1: -1, 3: -1})
    with pytest.raises(ValueError, match="^element index 8 out of range$"):
        colour_from_multiset(G, {8: 1})
    # A multiplicity of 0 at the identity is no copy of it.
    assert colour_from_multiset(G, {0: 0}) == colour_from_multiset(G, {})
    Z5 = make_cyclic(5)
    with pytest.raises(ValueError, match=r"^f\(1\) = 1 but f\(4\) = 0$"):
        colour_from_multiset(Z5, {1: 1})
    with pytest.raises(ValueError, match="^conjugate elements b and b\\*a\\^2"):
        colour_from_multiset(G, {G.element_index("b"): 1})


def test_multiset_roundtrip():
    G, f = d5_multiset({"a^2": 2, "a^3": 2, "b": 1, "b*a": 1, "b*a^2": 1, "b*a^3": 1, "b*a^4": 1})
    recovered = colour_from_multiset(
        G, {g: int(v) for g, v in enumerate(f.values) if v}
    )
    assert recovered == f
    elements = [g for g, v in enumerate(f.values) for _ in range(int(v))]
    assert multiset_colour(G, elements) == f


def test_distance_complete_graph():
    G = make_dihedral(3)
    layering = distance_layering(multiset_colour(G, range(1, G.order)))
    assert layering.diameter == 1
    assert all(layering.colour.values[g] == 1 for g in range(1, G.order))


def test_distance_pentagon():
    Z5 = make_cyclic(5)
    layering = distance_layering(multiset_colour(Z5, [1, 4]))
    assert layering.layers == ((0,), (1, 4), (2, 3))
    assert layering.diameter == 2
    assert [int(layering.colour.values[g]) for g in range(5)] == [0, 1, 2, 2, 1]


def test_distance_disconnected():
    Z6 = make_cyclic(6)
    with pytest.raises(ValueError, match="^connection set does not reach: 1, 3, 5$"):
        distance_layering(multiset_colour(Z6, [2, 4]))


def test_distance_needs_simple_set():
    Z5 = make_cyclic(5)
    with pytest.raises(ValueError, match="needs a simple connection set"):
        distance_layering(colour_from_multiset(Z5, {1: 2, 4: 2}))


def test_distance_layer_invariants():
    G = make_dihedral(6)
    S = multiset_colour(
        G, [G.element_index(n) for n in ("a", "a^5", "b", "b*a^2", "b*a^4")]
    )
    layering = distance_layering(S)
    ell = layering.colour
    assert all(ell.values[g] == ell.values[G.inv(g)] for g in range(G.order))
    assert sorted(g for layer in layering.layers for g in layer) == list(range(G.order))
    assert layering.layers[1] == tuple(g for g, v in enumerate(S.values) if v)


@pytest.mark.parametrize("elements", [[1, 999], [2, 998, 5, 995]], ids=["cycle", "two-steps"])
def test_distance_layers_match_the_per_level_scan(elements):
    # One pass buckets the elements by distance; the scan it replaced read
    # all n distances once per level, in increasing element order.
    G = make_cyclic(1000)
    layering = distance_layering(multiset_colour(G, elements))
    dist = [int(v) for v in layering.colour.values]
    assert layering.layers == tuple(
        tuple(g for g in range(G.order) if dist[g] == level)
        for level in range(layering.diameter + 1)
    )
    assert layering.diameter == (500 if elements == [1, 999] else 101)


def test_pullback_identity_and_inverse():
    _, alpha = d8_alpha()
    assert power_pullback(alpha, 1) == alpha
    assert power_pullback(alpha, -1) == alpha


def test_pullback_alpha_units():
    _, alpha = d8_alpha()
    assert power_pullback(alpha, 3) != alpha
    assert power_pullback(alpha, 7) == alpha


def test_pullback_composes():
    rng = random.Random(7)
    G = make_dihedral(6)
    f = random_class_function(G, rng)
    for h in (2, 3, 5):
        for k in (2, 7):
            assert power_pullback(power_pullback(f, h), k) == power_pullback(f, h * k)


def test_pullback_stays_class_function():
    rng = random.Random(11)
    for G in (make_dihedral(7), make_cyclic(12)):
        f = random_class_function(G, rng)
        for h in range(-3, 8):
            power_pullback(f, h)  # constructor re-validates both invariants


def test_class_weight_vector():
    G = make_cyclic(3)
    zero = colour_from_values(G, {})
    assert class_weight_vector(zero) == (0, 0, 0)
    D5, f = d5_multiset({"a": 2, "a^2": 2, "a^3": 2, "a^4": 2})
    assert class_weight_vector(f) == (0, 4, 4, 0)


def test_class_weight_vector_separates_functions():
    rng = random.Random(3)
    G = make_dihedral(6)
    for _ in range(20):
        f = random_class_function(G, rng)
        g = random_class_function(G, rng)
        assert (class_weight_vector(f) == class_weight_vector(g)) == (f == g)
