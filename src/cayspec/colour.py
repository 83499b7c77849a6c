"""Colour and connection functions on a group.

A colour function assigns an exact rational to every element, is symmetric
under inversion, and is constant on conjugacy classes.  Connection multisets
and graph-distance functions are the two special constructors.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from cayspec.errors import Disconnected, NotClassFunction, NotNormal, NotSymmetric
from cayspec.exactnum import as_fraction
from cayspec.groups import Group, conjugacy_classes, is_normal_subset, multiplicities, power_map


class ColourFunction(NamedTuple):
    """A symmetric class function with exact rational values, one per element.

    Equal when the groups are the same object and the values agree.
    """

    group: Group
    values: tuple[Fraction, ...]

    def value(self, g: int) -> Fraction:
        return self.values[g]

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

    Raises NotSymmetric or NotClassFunction naming a violating element pair.
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
                raise NotClassFunction(
                    f"conjugate elements {G.names[cls[0]]} and {G.names[g]} "
                    f"carry different values {first} and {values[g]}"
                )
    for g in range(G.order):
        if values[g] != values[G.inv(g)]:
            raise NotSymmetric(
                f"f({G.names[g]}) = {values[g]} but "
                f"f({G.names[G.inv(g)]}) = {values[G.inv(g)]}"
            )
    return ColourFunction(G, tuple(values))


class ConnectionMultiset:
    """An inverse-closed multiset of non-identity elements."""

    __slots__ = ("group", "multiplicity")

    def __init__(self, group: Group, multiplicity: tuple[int, ...]):
        if len(multiplicity) != group.order:
            raise ValueError("multiplicity vector length must equal the group order")
        if multiplicity[0] != 0:
            raise ValueError("the identity cannot appear in a connection multiset")
        for g, m in enumerate(multiplicity):
            if m < 0:
                raise ValueError(f"negative multiplicity at {group.names[g]}")
            if m != multiplicity[group.inv(g)]:
                raise NotSymmetric(
                    f"multiplicity {m} at {group.names[g]} but "
                    f"{multiplicity[group.inv(g)]} at its inverse"
                )
        self.group = group
        self.multiplicity = multiplicity

    @classmethod
    def from_elements(cls, G: Group, elements: Iterable[int]) -> "ConnectionMultiset":
        return cls(G, multiplicities(G, elements))

    @classmethod
    def from_counts(cls, G: Group, counts: Mapping[int, int]) -> "ConnectionMultiset":
        return cls(G, multiplicities(G, counts))

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, m in enumerate(self.multiplicity) if m)

    def valency(self) -> int:
        return sum(self.multiplicity)

    def is_simple(self) -> bool:
        return all(m <= 1 for m in self.multiplicity)

    def shadow(self) -> "ConnectionMultiset":
        """The simple set obtained by dropping repeated elements."""
        return ConnectionMultiset(
            self.group, tuple(1 if m else 0 for m in self.multiplicity)
        )

    def elements(self) -> tuple[int, ...]:
        out = []
        for g, m in enumerate(self.multiplicity):
            out.extend([g] * m)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, ConnectionMultiset):
            return NotImplemented
        return self.group is other.group and self.multiplicity == other.multiplicity

    def __hash__(self):
        return hash((id(self.group), self.multiplicity))

    def __repr__(self):
        return f"ConnectionMultiset({[self.group.names[g] for g in self.elements()]})"


def colour_from_multiset(S: ConnectionMultiset) -> ColourFunction:
    """The multiplicity function of a normal connection multiset, as a colour."""
    if not is_normal_subset(S.group, dict(enumerate(S.multiplicity))):
        raise NotNormal("connection multiset is not closed under conjugation")
    return ColourFunction(S.group, tuple(Fraction(m) for m in S.multiplicity))


class DistanceLayering(NamedTuple):
    """Word-length function of a connection set together with its layer partition."""

    colour: ColourFunction
    layers: tuple[tuple[int, ...], ...]
    diameter: int


def distance_layering(S: ConnectionMultiset) -> DistanceLayering:
    """Breadth-first distances from the identity in the Cayley graph of S.

    Requires a simple, normal, connecting set; layer 0 is the identity and
    layer 1 is S itself.
    """
    G = S.group
    if not S.is_simple():
        raise ValueError("distance layering needs a simple connection set")
    if not is_normal_subset(G, dict(enumerate(S.multiplicity))):
        raise NotNormal("connection set is not closed under conjugation")
    support = S.support()
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
        raise Disconnected(
            f"connection set does not reach: {', '.join(unreached)}", unreached
        )
    diameter = max(dist)
    layers = tuple(
        tuple(g for g in range(G.order) if dist[g] == level)
        for level in range(diameter + 1)
    )
    colour = colour_from_values(G, {g: Fraction(d) for g, d in enumerate(dist)})
    return DistanceLayering(colour=colour, layers=layers, diameter=diameter)


def power_pullback(f: ColourFunction, k: int) -> ColourFunction:
    """The colour g -> f(g**k); stays a symmetric class function."""
    pm = power_map(f.group, k)
    return colour_from_values(f.group, {g: f.values[gk] for g, gk in enumerate(pm)})


def class_weight_vector(f: ColourFunction) -> tuple[Fraction, ...]:
    """Per conjugacy class, class size times the value on it, in canonical order.

    Two class functions are equal exactly when these vectors are equal.
    """
    part = conjugacy_classes(f.group)
    return tuple(
        Fraction(len(cls)) * f.values[rep]
        for cls, rep in zip(part.classes, part.representatives)
    )
