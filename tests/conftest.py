"""Shared corpora and helpers for the test suite."""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable

import pytest

import cayspec.units as units_mod
from cayspec.colour import ColourFunction, colour_from_multiset, colour_from_values
from cayspec.exactnum import Cyclotomic
from cayspec.groups import Group, conjugacy_classes, make_cyclic, make_dihedral, make_product

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def instance_path(name: str) -> str:
    return str(INSTANCE_DIR / name)


def symmetric_bundles(G: Group) -> list[tuple[int, ...]]:
    """Orbits of elements under conjugation and inversion together.

    A symmetric class function is exactly a function constant on these,
    identity bundle included.
    """
    part = conjugacy_classes(G)
    used: set[int] = set()
    bundles = []
    for ci, cls in enumerate(part.classes):
        if ci in used:
            continue
        inverse_ci = part.class_of[G.inv(cls[0])]
        used.add(ci)
        used.add(inverse_ci)
        bundles.append(tuple(sorted(set(cls) | set(part.classes[inverse_ci]))))
    return bundles


def rational(n: int, value) -> Cyclotomic:
    """The rational value as a cyclotomic value of conductor n, built like
    every other value, by `Cyclotomic.from_exponents`: a value compares equal
    only to a value, never to an int or a Fraction."""
    return Cyclotomic.from_exponents(n, {0: value})


def _scaled(value) -> tuple[int, dict[int, int]]:
    # (D, counts): a value is D^-1 times the sum of k * z^e over its integer
    # counts, read off its power-basis coefficients; a rational is exponent 0.
    coeffs = value.coeffs if isinstance(value, Cyclotomic) else (Fraction(value),)
    nonzero = [(e, c) for e, c in enumerate(coeffs) if c]
    D = lcm(*(c.denominator for _, c in nonzero))
    return D, {e: c.numerator * (D // c.denominator) for e, c in nonzero}


def _conductor(values) -> int:
    (n,) = {v.conductor for v in values if isinstance(v, Cyclotomic)}
    return n


def reference_sum(*values) -> Cyclotomic:
    """The sum of cyclotomic values of one conductor and rationals: their
    power-basis coefficients added exponent by exponent over one common
    denominator, reduced once by `Cyclotomic.from_exponents`."""
    scaled = [_scaled(value) for value in values]
    D = lcm(*(d for d, _ in scaled))
    total: Counter = Counter()
    for d, counts in scaled:
        for e, k in counts.items():
            total[e] += k * (D // d)
    return Cyclotomic.from_exponents(_conductor(values), total, D)


def reference_product(*values) -> Cyclotomic:
    """The product of cyclotomic values of one conductor and rationals: their
    power-basis coefficients convolved, exponents added modulo the conductor,
    reduced once by `Cyclotomic.from_exponents`."""
    n = _conductor(values)
    D, total = 1, {0: 1}
    for value in values:
        d, factor = _scaled(value)
        nxt: Counter = Counter()
        for e, a in total.items():
            for f, b in factor.items():
                nxt[(e + f) % n] += a * b
        D, total = D * d, nxt
    return Cyclotomic.from_exponents(n, total, D)


def character_values(table) -> list[list[Cyclotomic]]:
    """The table's values, row by row and class by class, each the sum of the
    roots of unity whose exponents its rule gives."""
    n = table.group.order
    classes = range(len(table.partition.classes))
    return [
        [Cyclotomic.from_exponents(n, Counter(table.exponents(r, c))) for c in classes]
        for r in range(len(table.labels))
    ]


@pytest.fixture
def reads(monkeypatch) -> Counter:
    """Calls of `units.read_fixing_subgroup`, counted by label: the function
    is wrapped at every name a cayspec module binds it to."""
    counts: Counter = Counter()
    real = units_mod.read_fixing_subgroup

    def counted(tables, extended, values, label, *label_args):
        counts[label] += 1
        return real(tables, extended, values, label, *label_args)

    bound = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("cayspec") and vars(module).get("read_fixing_subgroup") is real
    ]
    assert {module.__name__ for module in bound} >= {"cayspec.galois", "cayspec.search"}
    for module in bound:
        monkeypatch.setattr(module, "read_fixing_subgroup", counted)
    return counts


def random_class_function(G: Group, rng: random.Random) -> ColourFunction:
    """A random symmetric class function with small rational values."""
    assignment = {}
    for bundle in symmetric_bundles(G):
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        for g in bundle:
            assignment[g] = value
    return colour_from_values(G, assignment)


def oracle_groups() -> list[Group]:
    """Cyclic and dihedral groups of order at most 24."""
    groups = [make_cyclic(n) for n in range(3, 25)]
    groups += [make_dihedral(m) for m in range(2, 13)]
    return groups


@pytest.fixture(scope="session")
def oracle_corpus() -> list[ColourFunction]:
    """At least 200 random symmetric class functions over the oracle groups."""
    rng = random.Random(20260808)
    corpus = []
    for G in oracle_groups():
        for _ in range(7):
            corpus.append(random_class_function(G, rng))
    assert len(corpus) >= 200
    return corpus


def d8_alpha():
    """The order-16 dihedral example with fractional rotation colours."""
    G = make_dihedral(8)
    reflections = {
        G.element_index(name): 4 if k % 2 == 0 else 7
        for k, name in enumerate(
            ["b", "b*a", "b*a^2", "b*a^3", "b*a^4", "b*a^5", "b*a^6", "b*a^7"]
        )
    }
    alpha = colour_from_values(
        G,
        {
            G.element_index("a"): 1,
            G.element_index("a^7"): 1,
            G.element_index("a^2"): Fraction(1, 2),
            G.element_index("a^6"): Fraction(1, 2),
            G.element_index("a^3"): Fraction(3, 5),
            G.element_index("a^5"): Fraction(3, 5),
            **reflections,
        },
    )
    return G, alpha


def d8_beta():
    """The order-16 dihedral example with integer colours and integral spectrum."""
    G = make_dihedral(8)
    reflections = {
        G.element_index(name): 4 if k % 2 == 0 else 8
        for k, name in enumerate(
            ["b", "b*a", "b*a^2", "b*a^3", "b*a^4", "b*a^5", "b*a^6", "b*a^7"]
        )
    }
    beta = colour_from_values(
        G,
        {
            **{G.element_index(nm): 1 for nm in ("a", "a^3", "a^5", "a^7")},
            G.element_index("a^2"): 3,
            G.element_index("a^6"): 3,
            **reflections,
        },
    )
    return G, beta


def multiset_colour(G: Group, elements: Iterable[int]) -> ColourFunction:
    """The multiplicity colour of a connection multiset listed element by
    element, an element repeated once per copy."""
    return colour_from_multiset(G, Counter(elements))


def d5_s1():
    """Doubled rotations a^2, a^3 plus all reflections on the order-10 dihedral."""
    G = make_dihedral(5)
    S = colour_from_multiset(
        G,
        {
            G.element_index("a^2"): 2,
            G.element_index("a^3"): 2,
            **{
                G.element_index(nm): 1
                for nm in ("b", "b*a", "b*a^2", "b*a^3", "b*a^4")
            },
        },
    )
    return G, S


def d5_s2():
    """Every nontrivial rotation doubled on the order-10 dihedral."""
    G = make_dihedral(5)
    S = colour_from_multiset(
        G, {G.element_index(nm): 2 for nm in ("a", "a^2", "a^3", "a^4")}
    )
    return G, S


def product_of_cyclics(*orders: int) -> Group:
    group = make_cyclic(orders[0])
    for n in orders[1:]:
        group = make_product(group, make_cyclic(n))
    return group


def search_corpus_groups() -> list[Group]:
    """The built-in families of order 3 through 16 used by the search criteria."""
    groups = [make_cyclic(n) for n in range(3, 17)]
    groups += [make_dihedral(m) for m in range(2, 9)]
    groups += [
        product_of_cyclics(2, 2),
        product_of_cyclics(2, 3),
        product_of_cyclics(2, 4),
        product_of_cyclics(2, 5),
        product_of_cyclics(2, 6),
        product_of_cyclics(2, 7),
        product_of_cyclics(2, 8),
        product_of_cyclics(3, 3),
        product_of_cyclics(3, 4),
        product_of_cyclics(3, 5),
        product_of_cyclics(4, 4),
        product_of_cyclics(2, 2, 2),
        product_of_cyclics(2, 2, 3),
        product_of_cyclics(2, 2, 4),
    ]
    return groups
