"""Units modulo n: their subgroups, and the engine that reads fixing subgroups.

Every subgroup of units, the full group included, is one `UnitSubgroup`
value.  Every fixing subgroup comes from one routine and is checked by one
other.  `FixingTables`, built once per group, reads a class function on its
class bundles, which each power map g -> g**h permutes (pi_h): the fixing
subgroup of a bundle vector v is {h : v o pi_h = v} (`fixing_units`).  The
check shares only the group engine: on the values per element, the
generators of the subgroup must fix them under `power_map` and one
representative of each non-trivial coset must move them (`check_coset_form`).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Sequence

from cayspec.errors import InternalInconsistency, NotAUnit
from cayspec.groups import Group, class_bundles, power, power_map


class UnitSubgroup:
    """A subgroup of the units modulo n, with a best-effort short generator list.

    Immutable, and equal and hashed by value: `unit_group` shares one
    instance between all its callers, and `FixingTables.coset_forms` caches
    one instance per fixing subgroup.
    """

    __slots__ = ("modulus", "members", "generators")

    def __init__(self, modulus: int, members: tuple[int, ...], generators: tuple[int, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"UnitSubgroup is immutable: cannot set {name!r}")

    def __reduce__(self):
        return UnitSubgroup, (self.modulus, self.members, self.generators)

    def __eq__(self, other):
        if not isinstance(other, UnitSubgroup):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.members == other.members
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.modulus, self.members, self.generators))

    def __repr__(self):
        return (
            f"UnitSubgroup(modulus={self.modulus!r}, members={self.members!r}, "
            f"generators={self.generators!r})"
        )

    def __contains__(self, h: int) -> bool:
        return h in self.members

    def __len__(self) -> int:
        return len(self.members)


def _closure(n: int, gens: Sequence[int]) -> set[int]:
    if n == 1:
        return {1}
    out = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % n
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _find_generators(n: int, members: tuple[int, ...]) -> tuple[tuple[int, ...], set[int]]:
    """Generators taken from members in order, each one not yet reached, and
    the closure they generate: the member set itself exactly when the members
    form a subgroup."""
    target = set(members)
    gens: list[int] = []
    have = {1}
    for h in members:
        if h in have:
            continue
        gens.append(h)
        have = _closure(n, gens)
        if have == target:
            break
    return tuple(gens), have


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitSubgroup:
    """The multiplicative group of units modulo n, as a subgroup of itself.

    For n = 1 the single residue class is labelled 1 so that the group is
    non-empty and its size matches phi(1).
    """
    if n == 1:
        return UnitSubgroup(1, (1,), ())
    members = tuple(h for h in range(1, n) if gcd(h, n) == 1)
    return UnitSubgroup(n, members, _find_generators(n, members)[0])


def unit_subgroup(n: int, members: Sequence[int]) -> UnitSubgroup:
    """Wrap a member list as a subgroup, validating units and closure: the
    members form a subgroup exactly when the generators found among them
    generate no other unit."""
    ms = tuple(sorted(set(members)))
    units = set(unit_group(n).members)
    for h in ms:
        if h not in units:
            raise NotAUnit(f"{h} is not a unit modulo {n}")
    gens, closure = _find_generators(n, ms)
    escaped = closure.difference(ms)
    if escaped:
        raise ValueError(f"member list not a subgroup: {min(escaped)} escapes")
    return UnitSubgroup(n, ms, gens)


def close_generators(n: int, gens: Sequence[int]) -> UnitSubgroup:
    """The subgroup of units modulo n generated by the given unit labels."""
    for g in gens:
        if gcd(g, n) != 1:
            raise NotAUnit(f"{g} is not a unit modulo {n}")
    if n == 1:
        return UnitSubgroup(1, (1,), ())
    reduced = [g % n for g in gens]
    return unit_subgroup(n, sorted(_closure(n, reduced)))


def _getter(indices: Sequence[int]):
    """itemgetter that returns a tuple for any number of indices, one included."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


class FixingTables:
    """What every fixing subgroup of the group is read from, built once.

    With B class bundles, index B stands for the identity, and a class
    function is read as an extended vector: its value on each bundle, then
    its value at the identity.  `read_off` maps an extended vector to its
    per-element tuple.  For h = units[i], pi_h sends each bundle to the
    bundle that g -> g**h maps it onto (the identity stays put), and
    `pullbacks[i]` maps an extended vector v to v o pi_h.  `coset_forms`
    caches, per fixing subgroup, the validated subgroup, (h, pullback on
    elements) for its generators, and the same for one representative of
    each non-trivial coset in the units.
    """

    def __init__(self, G: Group):
        n = G.order
        bundles = class_bundles(G)
        B = len(bundles)
        bundle_of = [B] * n
        for b, bundle in enumerate(bundles):
            for g in bundle:
                bundle_of[g] = b
        units = unit_group(n).members
        # A power map with unit exponent sends classes to classes and
        # inverses to inverses, so one element shows where a bundle goes.
        pullbacks = [
            _getter([bundle_of[power(G, bundle[0], h)] for bundle in bundles] + [B])
            for h in units
        ]
        self.group = G
        self.bundles = bundles
        self.bundle_of = tuple(bundle_of)
        self.read_off = _getter(bundle_of)
        self.units = units
        self.pullbacks = tuple(pullbacks)
        self.coset_forms: dict[tuple[int, ...], tuple] = {}


def fixing_tables(G: Group) -> FixingTables:
    """The group's fixing tables, built on first use and cached on the group."""
    if G._fixing_tables is None:
        G._fixing_tables = FixingTables(G)
    return G._fixing_tables


def fixing_units(tables: FixingTables, extended: tuple) -> tuple[int, ...]:
    """The units h with v o pi_h = v for the extended vector v, ascending."""
    return tuple(
        h
        for h, pullback in zip(tables.units, tables.pullbacks)
        if pullback(extended) == extended
    )


def coset_form(tables: FixingTables, members: tuple[int, ...]) -> tuple:
    """(subgroup, generators, coset representatives) of a fixing set, each
    unit paired with its pullback on elements, validating on first sight that
    the members form a subgroup."""
    form = tables.coset_forms.get(members)
    if form is None:
        G = tables.group
        n = G.order
        try:
            H = unit_subgroup(n, members)
        except ValueError as err:
            raise InternalInconsistency(
                f"bundle route: fixing set {members} is not a subgroup of the "
                f"units modulo {n} ({err})"
            ) from None
        covered = set(members)
        reps = []
        for u in tables.units:
            if u not in covered:
                reps.append(u)
                covered.update(u * h % n for h in members)
        form = tables.coset_forms[members] = (H,) + tuple(
            tuple((h, _getter(power_map(G, h))) for h in units)
            for units in (H.generators, reps)
        )
    return form


def check_coset_form(
    tables: FixingTables,
    label: str,
    members: tuple[int, ...],
    extended: tuple,
    values: tuple,
) -> UnitSubgroup:
    """Check on elements that members is the fixing subgroup of a vector.

    `values` is the vector per element; the generators of the subgroup must
    fix it under the power map and one representative of each non-trivial
    coset must move it, which together pin the subgroup down.  Returns the
    validated subgroup.
    """
    G = tables.group
    H, generators, reps = coset_form(tables, members)
    for h, pullback in generators:
        if pullback(values) != values:
            pm = power_map(G, h)
            g = next(g for g, gh in enumerate(pm) if values[gh] != values[g])
            raise InternalInconsistency(
                f"{label}: the bundle route fixes it by unit {h}, "
                f"the element route moves it at {G.names[g]} "
                f"({values[g]} there, {values[pm[g]]} at {G.names[g]}**{h})"
            )
    for h, pullback in reps:
        if pullback(values) == values:
            moved = tables.pullbacks[tables.units.index(h)](extended)
            b = next(b for b, m in enumerate(moved) if m != extended[b])
            raise InternalInconsistency(
                f"{label}: the bundle route moves it by unit {h} "
                f"at {G.names[tables.bundles[b][0]]}, the element route finds it "
                f"fixed at every element"
            )
    return H
