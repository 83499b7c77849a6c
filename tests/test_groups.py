import tracemalloc

import pytest

from cayspec.errors import ClosureCapExceeded
from cayspec.groups import (
    conjugacy_classes,
    is_normal_subset,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power,
    power_map,
)


def class_names(G):
    return [tuple(G.names[g] for g in cls) for cls in conjugacy_classes(G).classes]


def test_cyclic_trivial():
    G = make_cyclic(1)
    assert G.order == 1
    assert len(conjugacy_classes(G).classes) == 1


def test_cyclic_classes_are_singletons():
    G = make_cyclic(5)
    assert len(conjugacy_classes(G).classes) == 5


def test_cyclic_arithmetic():
    G = make_cyclic(4)
    assert G.mul(1, 3) == 0
    assert G.inv(1) == 3


def test_dihedral_4_classes():
    G = make_dihedral(4)
    assert class_names(G) == [
        ("1",),
        ("a", "a^3"),
        ("a^2",),
        ("b", "b*a^2"),
        ("b*a", "b*a^3"),
    ]


def test_dihedral_5_classes():
    G = make_dihedral(5)
    assert class_names(G) == [
        ("1",),
        ("a", "a^4"),
        ("a^2", "a^3"),
        ("b", "b*a", "b*a^2", "b*a^3", "b*a^4"),
    ]


def test_dihedral_defining_relation():
    G = make_dihedral(8)
    product = G.mul(G.element_index("a"), G.element_index("b*a^0"))
    assert G.names[product] == "b*a^7"


def test_dihedral_name_aliases():
    G = make_dihedral(8)
    assert G.element_index("a^0") == 0
    assert G.element_index("a^1") == G.element_index("a")
    assert G.element_index("ba^3") == G.element_index("b*a^3")
    assert G.element_index(" b*a ") == G.element_index("b*a")
    with pytest.raises(KeyError):
        G.element_index("c")


def test_product_klein_four():
    G = make_product(make_cyclic(2), make_cyclic(2))
    assert G.order == 4
    assert all(G.inv(g) == g for g in range(4))


def element_order(G, g):
    """The least k >= 1 with g**k the identity, by repeated multiplication."""
    k, x = 1, g
    while x != 0:
        x = G.mul(x, g)
        k += 1
    return k


def test_product_z2_z3_orders():
    G = make_product(make_cyclic(2), make_cyclic(3))
    Z6 = make_cyclic(6)
    orders = sorted(element_order(G, g) for g in range(G.order))
    assert orders == sorted(element_order(Z6, g) for g in range(6))
    assert set(orders) == {1, 2, 3, 6}


def test_product_order_multiplies():
    G = make_product(make_dihedral(3), make_cyclic(4))
    assert G.order == 24
    assert G.names[0] == "(1,0)"


def test_generators_transposition():
    G = make_from_generators([(1, 0)])
    assert G.order == 2


def test_generators_dihedral_on_square():
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    assert G.order == 8
    assert any(
        G.mul(i, j) != G.mul(j, i) for i in range(8) for j in range(8)
    )


def test_generators_empty_gives_trivial_group():
    G = make_from_generators([])
    assert G.order == 1


def test_generators_cap():
    with pytest.raises(ClosureCapExceeded):
        make_from_generators([(1, 2, 3, 4, 0)], cap=3)


def test_permutation_action_path():
    G = make_from_generators([(1, 2, 3, 4, 5, 0)])
    H = make_cyclic(6)
    assert G.order == 6
    for i in range(6):
        assert G.inv(i) == next(j for j in range(6) if G.mul(i, j) == 0)
    cyclic_classes = [len(c) for c in conjugacy_classes(H).classes]
    perm_classes = [len(c) for c in conjugacy_classes(G).classes]
    assert perm_classes == cyclic_classes


def test_generated_group_memory_is_linear_in_its_order():
    # S6 multiplies by composing permutations: building it holds the 720
    # permutations, their names and their index, not a 720 x 720 table.
    tracemalloc.start()
    try:
        G = make_from_generators([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 720
    assert peak < 2 * 2**20


def _scan_classes(G):
    # Reference partition: close each orbit under conjugation by every element.
    n = G.order
    class_of = [-1] * n
    classes = []
    for g in range(n):
        if class_of[g] != -1:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            h = frontier.pop()
            for x in range(n):
                c = G.mul(G.mul(x, h), G.inv(x))
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        for h in orbit:
            class_of[h] = len(classes)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def _rotation(m, k):
    return tuple((i + k) % m for i in range(m))


def _dihedral_perm(m, g):
    # a^k is i -> i+k and b*a^k is i -> -(i+k), so b is i -> -i mod m.
    eps, k = divmod(g, m)
    return tuple((-(i + k) if eps else i + k) % m for i in range(m))


def _product_perm(g):
    # (x, y, z) in Z2 x Z2 x Z3 shifts the blocks {0,1}, {2,3}, {4,5,6}.
    xy, z = divmod(g, 3)
    x, y = divmod(xy, 2)
    return _rotation(2, x) + tuple(2 + p for p in _rotation(2, y)) + tuple(
        4 + p for p in _rotation(3, z)
    )


def _z2_d3_perm(g):
    # (x, d) in Z2 x D3 shifts {0,1} by x and moves {2,3,4} as d does on Z3.
    x, d = divmod(g, 6)
    return _rotation(2, x) + tuple(2 + p for p in _dihedral_perm(3, d))


PRODUCT_223 = make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(3))


@pytest.mark.parametrize(
    "G, perm_of, gens",
    [
        (make_cyclic(9), lambda g: _rotation(9, g), [_rotation(9, 1)]),
        (
            make_dihedral(5),
            lambda g: _dihedral_perm(5, g),
            [_rotation(5, 1), _dihedral_perm(5, 5)],
        ),
        (
            PRODUCT_223,
            _product_perm,
            [_product_perm(6), _product_perm(3), _product_perm(1)],
        ),
        (
            make_product(make_cyclic(2), make_dihedral(3)),
            _z2_d3_perm,
            [_z2_d3_perm(6), _z2_d3_perm(1), _z2_d3_perm(3)],
        ),
    ],
    ids=["Z9", "D5", "Z2xZ2xZ3", "Z2xD3"],
)
def test_arithmetic_families_match_permutation_reference(G, perm_of, gens):
    R = make_from_generators(gens)
    assert R.order == G.order
    index = {p: i for i, p in enumerate(R._perms)}
    phi = [index[perm_of(g)] for g in range(G.order)]
    assert sorted(phi) == list(range(R.order))
    for i in range(G.order):
        assert phi[G.inv(i)] == R.inv(phi[i])
        for j in range(G.order):
            assert phi[G.mul(i, j)] == R.mul(phi[i], phi[j])
    for h in range(-G.order, 2 * G.order):
        pm = power_map(G, h)
        for g in range(G.order):
            ref = 0
            for _ in range(h % R.order):
                ref = R.mul(ref, phi[g])
            assert phi[pm[g]] == ref
    mapped = {frozenset(phi[g] for g in cls) for cls in conjugacy_classes(G).classes}
    assert mapped == {frozenset(cls) for cls in _scan_classes(R)}


@pytest.mark.parametrize(
    "G",
    [
        make_from_generators([(1, 2, 3, 0), (1, 0, 2, 3)]),
        make_from_generators([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),
        make_dihedral(6),
        PRODUCT_223,
        make_product(make_cyclic(2), make_dihedral(3)),
    ],
    ids=["S4", "A5", "D6", "Z2xZ2xZ3", "Z2xD3"],
)
def test_generator_classes_match_full_scan(G):
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in (G.mul(x, s) for s in G.generators):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert len(reached) == G.order  # the generators generate G
    assert conjugacy_classes(G).classes == _scan_classes(G)


def test_power_examples():
    D8 = make_dihedral(8)
    assert power(D8, D8.element_index("a"), 16) == 0
    Z10 = make_cyclic(10)
    assert power(Z10, 3, -1) == 7
    D5 = make_dihedral(5)
    assert power(D5, D5.element_index("b"), 2) == 0


@pytest.mark.parametrize(
    "G",
    [make_cyclic(7), make_dihedral(4), make_product(make_cyclic(2), make_cyclic(4))],
    ids=["Z7", "D4", "Z2xZ4"],
)
def test_group_axioms_exhaustive(G):
    n = G.order
    for i in range(n):
        assert G.mul(0, i) == i
        assert G.mul(i, G.inv(i)) == 0
        for j in range(n):
            for k in range(n):
                assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))


@pytest.mark.parametrize(
    "G", [make_dihedral(6), make_cyclic(12)], ids=["D6", "Z12"]
)
def test_class_partition_invariants(G):
    part = conjugacy_classes(G)
    assert sum(len(c) for c in part.classes) == G.order
    assert part.classes[0] == (0,)
    for cls in part.classes:
        members = set(cls)
        for g in range(G.order):
            assert {G.mul(G.mul(g, h), G.inv(g)) for h in cls} == members


@pytest.mark.parametrize("G", [make_dihedral(5), make_cyclic(9)], ids=["D5", "Z9"])
def test_element_orders_divide_group_order(G):
    for g in range(G.order):
        ord_g = element_order(G, g)
        assert power(G, g, ord_g) == 0
        assert G.order % ord_g == 0


def test_normal_subset_checks():
    D4 = make_dihedral(4)
    part = conjugacy_classes(D4)
    union = list(part.classes[1]) + list(part.classes[3])
    assert is_normal_subset(D4, union)
    assert not is_normal_subset(D4, [D4.element_index("a")])
    Z6 = make_cyclic(6)
    assert is_normal_subset(Z6, [1, 3, 3, 5])
