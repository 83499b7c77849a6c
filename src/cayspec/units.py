"""Units modulo n: their subgroups, and the engine that reads fixing subgroups.

Every subgroup of units, the full group included, is one `UnitSubgroup`
value.  Every fixing subgroup comes from one call, `read_fixing_subgroup`.
`FixingTables`, built once per group, reads a class function on its class
bundles, which each power map g -> g**h permutes (pi_h): the fixing subgroup
of a bundle vector v is {h : v o pi_h = v}, and the least image v o pi_h
keys v's unit orbit.  The same call checks the subgroup on the values per
element, sharing only the group engine with the bundle route: the
generators of the subgroup must fix them under `power_map` and one
representative of each non-trivial coset must move them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from cayspec.errors import InternalInconsistency
from cayspec.groups import Group, class_bundles, power, power_map


class UnitSubgroup(NamedTuple):
    """A subgroup of the units modulo n, with a best-effort short generator list.

    A value, built in this module alone: `unit_group` lists the units and
    shares one instance between all its callers, `close_generators` closes a
    generator list, and `coset_form` checks a fixing set and caches one
    instance per fixing subgroup in `FixingTables.coset_forms`.  Its order
    is `len(H.members)`; `len(H)` counts the three fields.
    """

    modulus: int
    members: tuple[int, ...]
    generators: tuple[int, ...]


def _closure(n: int, gens: Sequence[int]) -> set[int]:
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


def close_generators(n: int, gens: Sequence[int]) -> UnitSubgroup:
    """The subgroup of units modulo n generated by the given unit labels."""
    for g in gens:
        if gcd(g, n) != 1:
            raise ValueError(f"{g} is not a unit modulo {n}")
    if n == 1:
        return unit_group(1)
    members = tuple(sorted(_closure(n, [g % n for g in gens])))
    return UnitSubgroup(n, members, _find_generators(n, members)[0])


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
    `pullbacks[pullback_of[i]]` maps an extended vector v to v o pi_h.  Units
    with the same pi_h share one pullback (pi_h = pi_-h always, as bundles
    are inverse-closed), so `pullbacks` holds each distinct one once.
    `coset_forms` caches, per fixing subgroup, the validated subgroup and its
    coset tests (see `coset_form`).
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
        distinct: dict[tuple[int, ...], int] = {}
        pullback_of = tuple(
            distinct.setdefault(
                tuple([bundle_of[power(G, bundle[0], h)] for bundle in bundles] + [B]),
                len(distinct),
            )
            for h in units
        )
        self.group = G
        self.bundles = bundles
        self.bundle_of = tuple(bundle_of)
        self.read_off = _getter(bundle_of)
        self.units = units
        self.pullbacks = tuple(map(_getter, distinct))
        self.pullback_of = pullback_of
        self.coset_forms: dict[tuple[int, ...], tuple] = {}


def fixing_tables(G: Group) -> FixingTables:
    """The group's fixing tables, built on first use and cached on the group."""
    if G._fixing_tables is None:
        G._fixing_tables = FixingTables(G)
    return G._fixing_tables


def coset_form(tables: FixingTables, members: tuple[int, ...]) -> tuple:
    """(subgroup, tests) of a fixing set, validating on first sight that the
    members form a subgroup: a test (h, pullback on elements, True) for each
    generator h, which must fix, then (h, pullback, False) for one
    representative h of each non-trivial coset, which must move."""
    form = tables.coset_forms.get(members)
    if form is None:
        G = tables.group
        n = G.order
        gens, closure = _find_generators(n, members)
        escaped = closure.difference(members)
        if escaped:
            raise InternalInconsistency(
                f"bundle route: fixing set {members} is not a subgroup of the units "
                f"modulo {n} (member list not a subgroup: {min(escaped)} escapes)"
            )
        H = UnitSubgroup(n, members, gens)
        covered = set(members)
        reps = []
        for u in tables.units:
            if u not in covered:
                reps.append(u)
                covered.update(u * h % n for h in members)
        form = tables.coset_forms[members] = H, tuple(
            (h, _getter(power_map(G, h)), must_fix)
            for units, must_fix in ((H.generators, True), (reps, False))
            for h in units
        )
    return form


def coset_split(tables: FixingTables, members: tuple[int, ...], fixes) -> Optional[tuple]:
    """Where the validated subgroup H with these members and the stabilizer of
    some values, tested by `fixes(h, pullback)`, part: (h, True) for a generator
    of H that moves them, (h, False) for a coset representative that fixes
    them; None, as each generator fixes and each representative moves them, pins it to H."""
    _, tests = coset_form(tables, members)
    return next(((h, must_fix) for h, p, must_fix in tests if fixes(h, p) != must_fix), None)


def read_fixing_subgroup(
    tables: FixingTables, extended: tuple, values: tuple, label: str, *label_args
) -> tuple[UnitSubgroup, tuple]:
    """The fixing subgroup of the extended vector v, {h : v o pi_h = v},
    checked on `values`, v per element, in coset form; and the key of v's
    unit orbit, the least image v o pi_h.  Both come from one pass over the
    distinct pullbacks.  A failed check names the vector by
    `label.format(*label_args)`.
    """
    images = [pullback(extended) for pullback in tables.pullbacks]
    fixed = list(map(extended.__eq__, images))
    members = tuple(compress(tables.units, map(fixed.__getitem__, tables.pullback_of)))
    return _check_coset_form(tables, members, extended, values, label, label_args), min(images)


def _check_coset_form(
    tables: FixingTables,
    members: tuple[int, ...],
    extended: tuple,
    values: tuple,
    label: str,
    label_args: tuple,
) -> UnitSubgroup:
    """Check by `coset_split` that members is the fixing subgroup of `values`,
    a vector per element, and return it validated.  A failure names the vector
    by `label.format(*label_args)`, formatted only then."""
    G = tables.group
    split = coset_split(tables, members, lambda h, pullback: pullback(values) == values)
    if split is None:
        return coset_form(tables, members)[0]
    h, moves = split
    if moves:
        pm = power_map(G, h)
        g = next(g for g, gh in enumerate(pm) if values[gh] != values[g])
        raise InternalInconsistency(
            f"{label.format(*label_args)}: the bundle route fixes it by unit {h}, "
            f"the element route moves it at {G.names[g]} "
            f"({values[g]} there, {values[pm[g]]} at {G.names[g]}**{h})"
        )
    moved = tables.pullbacks[tables.pullback_of[tables.units.index(h)]](extended)
    b = next(b for b, m in enumerate(moved) if m != extended[b])
    raise InternalInconsistency(
        f"{label.format(*label_args)}: the bundle route moves it by unit {h} "
        f"at {G.names[tables.bundles[b][0]]}, the element route finds it "
        f"fixed at every element"
    )
