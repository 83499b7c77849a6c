"""Splitting fields, algebraic degrees, and integrality of Cayley colour graphs.

Everything here runs on one identity: the subgroup of units fixing a colour
function under power pullbacks is exactly the subgroup of the cyclotomic
Galois group fixing every eigenvalue.  Degrees therefore come from subgroup
orders, with no eigenvalue computation required.

Every fixing subgroup comes from one routine and is checked by one other.
`FixingTables`, built once per group, reads a class function on its class
bundles, which each power map g -> g**h permutes (pi_h): the fixing subgroup
of a bundle vector v is {h : v o pi_h = v}.  The check shares only the group
engine: on the values per element, the generators of the subgroup must fix
them under `power_map` and one representative of each non-trivial coset must
move them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from cayspec.colour import (
    ColourFunction,
    ConnectionMultiset,
    DistanceLayering,
    colour_from_multiset,
    distance_layering,
)
from cayspec.errors import HypothesisFails, InternalInconsistency, NotAUnit
from cayspec.exactnum import (
    Cyclotomic,
    euler_phi,
    galois_apply,
    minimal_polynomial,
    unit_group,
)
from cayspec.groups import Group, class_bundles, power, power_map
from cayspec.spectra import (
    Spectrum,
    character_table,
    has_character_table,
    spectrum_exact,
    spectrum_numeric,
)

INTEGER_ROUNDING_TOL = 1e-6


class UnitSubgroup:
    """A subgroup of the units modulo n, with a best-effort short generator list.

    Immutable, and equal and hashed by value: `FixingTables.coset_forms`
    caches one instance per fixing subgroup.
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


def _find_generators(n: int, members: tuple[int, ...]) -> tuple[int, ...]:
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
    return tuple(gens)


def unit_subgroup(n: int, members: Sequence[int]) -> UnitSubgroup:
    """Wrap a member list as a subgroup, validating units and closure."""
    ms = tuple(sorted(set(members)))
    full = set(unit_group(n).units)
    for h in ms:
        if h not in full:
            raise NotAUnit(f"{h} is not a unit modulo {n}")
    if 1 not in ms:
        raise ValueError("a subgroup of units must contain 1")
    if n > 1:
        for a in ms:
            for b in ms:
                if (a * b) % n not in ms:
                    raise ValueError(f"member list not closed: {a}*{b} escapes")
    return UnitSubgroup(n, ms, _find_generators(n, ms))


def close_generators(n: int, gens: Sequence[int]) -> UnitSubgroup:
    """The subgroup of units modulo n generated by the given unit labels."""
    for g in gens:
        if gcd(g, n) != 1:
            raise NotAUnit(f"{g} is not a unit modulo {n}")
    if n == 1:
        return UnitSubgroup(1, (1,), ())
    reduced = [g % n for g in gens]
    return unit_subgroup(n, sorted(_closure(n, reduced)))


def full_unit_subgroup(n: int) -> UnitSubgroup:
    return unit_subgroup(n, unit_group(n).units)


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
        units = unit_group(n).units
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


def _fixing_units(tables: FixingTables, extended: tuple) -> tuple[int, ...]:
    """The units h with v o pi_h = v for the extended vector v, ascending."""
    return tuple(
        h
        for h, pullback in zip(tables.units, tables.pullbacks)
        if pullback(extended) == extended
    )


def _coset_form(tables: FixingTables, members: tuple[int, ...]) -> tuple:
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


def _check_coset_form(
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
    H, generators, reps = _coset_form(tables, members)
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


def fixing_subgroup(f: ColourFunction) -> UnitSubgroup:
    """All units h (mod the group order) with f(g**h) = f(g) for every g.

    Read off f's values on the class bundles, and checked on f's values per
    element in coset form; this is the subgroup whose fixed field is the
    splitting field of the colour graph.
    """
    tables = fixing_tables(f.group)
    values = f.values
    extended = tuple(values[bundle[0]] for bundle in tables.bundles) + (values[0],)
    members = _fixing_units(tables, extended)
    return _check_coset_form(tables, "colour function", members, extended, values)


def algebraic_degree(f: ColourFunction) -> int:
    """Degree of the splitting field over the rationals: phi(n) / |fixing subgroup|."""
    n = f.group.order
    return euler_phi(n) // len(fixing_subgroup(f))


class FieldReport(NamedTuple):
    """A splitting field described by its fixing subgroup of units.

    The primitive element is best-effort: present only when a candidate with
    Galois orbit of exactly the right size was found, in which case its
    minimal polynomial certifies the degree.
    """

    modulus: int
    fixing_subgroup: UnitSubgroup
    degree: int
    primitive_element: Optional[Cyclotomic]
    minimal_poly: Optional[tuple[Fraction, ...]]


def _gauss_period(n: int, members: Sequence[int], k: int) -> Cyclotomic:
    counts: dict[int, int] = {}
    for h in members:
        e = (k * h) % n
        counts[e] = counts.get(e, 0) + 1
    return Cyclotomic.from_exponents(n, counts)


def _primitive_search(
    tables: FixingTables, H: UnitSubgroup, degree: int
) -> tuple[Optional[Cyclotomic], Optional[tuple[Fraction, ...]]]:
    """The first candidate whose stabilizer is exactly H, and its minimal polynomial.

    Candidates are the periods of H, sum of z^(k*h) over h in H for
    k = 1..n-1, built as they are reached, and then small integer
    combinations of two periods.  Each is fixed by H by construction, so its
    stabilizer is H exactly when the generators of H fix it and no
    representative of a non-trivial coset of H does.
    """
    n = H.modulus
    if degree == 1:
        one = Cyclotomic.one(n)
        return one, minimal_polynomial(one)
    _, generators, reps = _coset_form(tables, H.members)

    def candidates():
        periods = []
        for k in range(1, n):
            periods.append(_gauss_period(n, H.members, k))
            yield periods[-1]
        for i in range(len(periods)):
            for j in range(i + 1, len(periods)):
                for c in range(1, 9):
                    yield periods[i] + periods[j] * c

    for x in candidates():
        if all(galois_apply(h, x) == x for h, _ in generators) and all(
            galois_apply(h, x) != x for h, _ in reps
        ):
            poly = minimal_polynomial(x)
            if len(poly) - 1 != degree:
                raise InternalInconsistency(
                    f"coset route: {x} has stabilizer {H.members}, but its Galois "
                    f"orbit has {len(poly) - 1} elements, not {degree}"
                )
            return x, poly
    return None, None


def _field_of(tables: FixingTables, H: UnitSubgroup) -> FieldReport:
    n = H.modulus
    degree = euler_phi(n) // len(H)
    primitive, poly = _primitive_search(tables, H, degree)
    return FieldReport(
        modulus=n,
        fixing_subgroup=H,
        degree=degree,
        primitive_element=primitive,
        minimal_poly=poly,
    )


def splitting_field(f: ColourFunction) -> FieldReport:
    """Fixing subgroup, degree, and a best-effort primitive element for f.

    Candidate primitive elements are the subgroup periods sum of z^(k*h) for
    k = 1..n-1 and then small integer combinations of two periods; the first
    candidate whose Galois orbit has exactly `degree` distinct images wins.
    """
    return _field_of(fixing_tables(f.group), fixing_subgroup(f))


def _stabilizer_split(f: ColourFunction, spectrum: Spectrum) -> Optional[str]:
    """Where the eigenvalue stabilizers and the fixing subgroup H of f part,
    or None when they agree; checked in coset form: the generators of H fix
    every distinct eigenvalue, and one representative of each non-trivial
    coset of H moves at least one.  H is a validated subgroup, so this pins
    the intersection of the stabilizers down."""
    H = fixing_subgroup(f)
    _, generators, reps = _coset_form(fixing_tables(f.group), H.members)
    values = [value for value, _ in spectrum.pairs]
    for h, _ in generators:
        for value in values:
            if galois_apply(h, value) != value:
                return f"unit {h} fixes the colour function but moves the eigenvalue {value}"
    for h, _ in reps:
        if all(galois_apply(h, value) == value for value in values):
            return f"unit {h} moves the colour function but fixes every eigenvalue"
    return None


def verify_fixing_subgroup_equals_stabilizers(
    f: ColourFunction, spectrum: Spectrum
) -> bool:
    """Whether the eigenvalue stabilizers intersect in exactly the fixing
    subgroup of f: the paper's main identity."""
    return _stabilizer_split(f, spectrum) is None


def check_fixing_subgroup_equals_stabilizers(
    f: ColourFunction, spectrum: Spectrum
) -> None:
    """Raise InternalInconsistency, naming the unit at which they part, unless
    the eigenvalue stabilizers intersect in exactly the fixing subgroup of f."""
    split = _stabilizer_split(f, spectrum)
    if split is not None:
        raise InternalInconsistency(f"stabilizer identity: {split}")


def is_algebraically_integral_over(f: ColourFunction, H_K: UnitSubgroup) -> bool:
    """True iff every eigenvalue lies in the fixed field of H_K.

    Equivalent, and implemented as: H_K lies inside the fixing subgroup of f.
    """
    if H_K.modulus != f.group.order:
        raise ValueError(
            f"subgroup modulus {H_K.modulus} does not match group order {f.group.order}"
        )
    return set(H_K.members) <= set(fixing_subgroup(f).members)


class IntegralityVerdict(NamedTuple):
    rational: bool
    integral: Optional[bool]
    method: str


def integrality_verdict(
    f: ColourFunction,
    spectrum: Optional[Spectrum] = None,
    numeric: Optional[Sequence[float]] = None,
) -> IntegralityVerdict:
    """Rationality from the fixing subgroup; integrality from the best route open.

    With an exact spectrum the eigenvalues are inspected directly (and, for
    integer-valued f vanishing at the identity, cross-checked against the
    algebraic-integer argument).  Without one, that argument or rounding the
    numeric spectrum decides; a caller that already holds
    `spectrum_numeric(f)` passes it as `numeric`, so the matrix is not
    diagonalized twice.
    """
    n = f.group.order
    H = fixing_subgroup(f)
    rational = len(H) == len(unit_group(n).units)
    integer_case = f.is_integer_valued() and f.values[0] == 0
    if not rational:
        return IntegralityVerdict(False, False, "fixing subgroup is proper")
    if spectrum is not None:
        all_integer = all(
            v.is_rational() and v.rational_value().denominator == 1
            for v, _ in spectrum.pairs
        )
        if integer_case and not all_integer:
            raise InternalInconsistency(
                "integer colours with zero identity value must yield integer eigenvalues"
            )
        return IntegralityVerdict(True, all_integer, "exact spectrum")
    if integer_case:
        return IntegralityVerdict(True, True, "algebraic-integer argument")
    if numeric is None:
        numeric = spectrum_numeric(f)
    all_integer = all(abs(v - round(v)) <= INTEGER_ROUNDING_TOL for v in numeric)
    return IntegralityVerdict(True, all_integer, "numeric rounding")


def multiset_fixing_subgroup(S: ConnectionMultiset) -> UnitSubgroup:
    """Units whose power map preserves S as a multiset: the fixing subgroup
    of its multiplicity colour function (NotNormal for non-normal S)."""
    return fixing_subgroup(colour_from_multiset(S))


def distance_fixing_subgroup(
    S: ConnectionMultiset,
) -> tuple[DistanceLayering, UnitSubgroup]:
    """Layering of a connected normal Cayley graph and the fixing subgroup of
    its word-length colour, which preserves every distance layer."""
    layering = distance_layering(S)
    return layering, fixing_subgroup(layering.colour)


class DistanceReport(NamedTuple):
    """Distance splitting field of a connected normal Cayley graph."""

    layering: DistanceLayering
    field: FieldReport
    spectrum: Optional[Spectrum]


def _check_layer_sum_form(
    spectrum: Spectrum, table, layering: DistanceLayering
) -> None:
    # Distance eigenvalues restated as weighted layer character sums must
    # reproduce the character-sum route exactly.  The sum runs element by
    # element over the layers, never through the class weights the other
    # route uses.
    n = table.group.order
    for row_index, (label, deg, lam) in enumerate(spectrum.per_irreducible):
        scale = [Fraction(level, deg) for level in range(len(layering.layers))]
        layered = Cyclotomic.linear_combination(
            n,
            [
                (scale[level], table.value(row_index, g))
                for level, layer in enumerate(layering.layers)
                if level
                for g in layer
            ],
        )
        if layered != lam:
            raise InternalInconsistency(
                f"layered distance eigenvalue of {label} is {layered}, "
                f"the character sum gives {lam}"
            )


def distance_report(S: ConnectionMultiset) -> DistanceReport:
    """Distance degree and splitting field via layers, with all cross-checks.

    The field comes from the fixing subgroup of the word-length colour; exact
    distance spectra are produced whenever the family has a character table,
    validated against the layered character-sum form.
    """
    layering, H = distance_fixing_subgroup(S)
    G = S.group
    field = _field_of(fixing_tables(G), H)
    spectrum = None
    if has_character_table(G):
        table = character_table(G)
        spectrum = spectrum_exact(layering.colour, table)
        _check_layer_sum_form(spectrum, table, layering)
    return DistanceReport(layering=layering, field=field, spectrum=spectrum)


def transfer_check(
    alpha: ColourFunction, beta: ColourFunction, H_K: UnitSubgroup
) -> bool:
    """Integrality over the fixed field of H_K transfers between two colours
    whose fixed-member sets inside H_K, H_K meet H_alpha and H_K meet H_beta,
    coincide.

    Both sides of the biconditional are computed; their common value is
    returned.  Raises HypothesisFails when the member sets differ.
    """
    if alpha.group is not beta.group:
        raise ValueError("transfer check needs colours on the same group")
    if H_K.modulus != alpha.group.order:
        raise ValueError("subgroup modulus does not match the group order")
    K = set(H_K.members)
    fixed_alpha = K & set(fixing_subgroup(alpha).members)
    fixed_beta = K & set(fixing_subgroup(beta).members)
    if fixed_alpha != fixed_beta:
        raise HypothesisFails(
            "the two colours fix different subsets of the given subgroup"
        )
    alpha_side = is_algebraically_integral_over(alpha, H_K)
    beta_side = is_algebraically_integral_over(beta, H_K)
    if alpha_side != beta_side:
        raise InternalInconsistency("integrality transfer biconditional failed")
    return alpha_side
