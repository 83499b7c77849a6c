"""Colour and connection functions on a group.

A colour function assigns an exact rational to every element, is symmetric
under inversion, and is constant on conjugacy classes.  The multiplicity
function of a connection multiset and the word-length function of a
connection set are the two special constructors.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from cayspec.exactnum import as_fraction
from cayspec.groups import Group, conjugacy_classes


class ColourFunction(NamedTuple):
    """A symmetric class function with exact rational values, one per element.

    Equal when the groups are the same object and the values agree.
    """

    group: Group
    values: tuple[Fraction, ...]

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def __repr__(self):
        nonzero = {
            self.group.names[g]: str(v) for g, v in enumerate(self.values) if v
        }
        return f"ColourFunction({nonzero})"


def colour_from_values(
    G: Group, assignment: Mapping[int, Union[int, str, Fraction]]
) -> ColourFunction:
    """Validate and build a colour function; unmentioned elements default to 0.

    Raises ValueError naming an element pair that breaks normality or symmetry.
    """
    values = [Fraction(0)] * G.order
    for g, v in assignment.items():
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range")
        values[g] = as_fraction(v)
    for cls in conjugacy_classes(G).classes:
        first = values[cls[0]]
        for g in cls[1:]:
            if values[g] != first:
                raise ValueError(
                    f"conjugate elements {G.names[cls[0]]} and {G.names[g]} "
                    f"carry different values {first} and {values[g]}"
                )
    for g in range(G.order):
        if values[g] != values[G.inv(g)]:
            raise ValueError(
                f"f({G.names[g]}) = {values[g]} but "
                f"f({G.names[G.inv(g)]}) = {values[G.inv(g)]}"
            )
    return ColourFunction(G, tuple(values))


def colour_from_multiset(G: Group, counts: Mapping[int, int]) -> ColourFunction:
    """The multiplicity colour of a connection multiset, counts[g] copies of g.

    A normal Cayley multigraph Cay(G, S) is the colour graph of this function.
    Refuses an index out of range, a negative multiplicity and the identity;
    colour_from_values checks inverse-closure and normality.
    """
    for g, m in counts.items():
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range")
        if m < 0:
            raise ValueError(f"negative multiplicity at {G.names[g]}")
    if counts.get(0):
        raise ValueError("the identity cannot appear in a connection multiset")
    return colour_from_values(G, counts)


class DistanceLayering(NamedTuple):
    """Word-length function of a connection set together with its layer partition."""

    colour: ColourFunction
    layers: tuple[tuple[int, ...], ...]
    diameter: int


def distance_layering(f: ColourFunction) -> DistanceLayering:
    """Breadth-first distances from the identity in the Cayley graph of the
    connection set on which f is 1.

    Requires a simple connecting set, so every value 0 or 1; layer 0 is the
    identity and layer 1 is the set itself.
    """
    G = f.group
    if any(v not in (0, 1) for v in f.values):
        raise ValueError("distance analysis needs a simple connection set")
    support = tuple(g for g, v in enumerate(f.values) if v)
    dist = [-1] * G.order
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for s in support:
            w = G.mul(s, v)
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    unreached = [G.names[g] for g, d in enumerate(dist) if d == -1]
    if unreached:
        raise ValueError(f"connection set does not reach: {', '.join(unreached)}")
    diameter = max(dist)
    buckets: list[list[int]] = [[] for _ in range(diameter + 1)]
    for g, d in enumerate(dist):
        buckets[d].append(g)
    layers = tuple(map(tuple, buckets))
    colour = colour_from_values(G, {g: Fraction(d) for g, d in enumerate(dist)})
    return DistanceLayering(colour=colour, layers=layers, diameter=diameter)


def class_weight_vector(f: ColourFunction) -> tuple[Fraction, ...]:
    """Per conjugacy class, class size times the value on it, in canonical order.

    Two class functions are equal exactly when these vectors are equal.
    """
    part = conjugacy_classes(f.group)
    return tuple(
        Fraction(len(cls)) * f.values[rep]
        for cls, rep in zip(part.classes, part.representatives)
    )
