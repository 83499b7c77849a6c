"""Splitting fields, algebraic degrees, and integrality of Cayley colour graphs.

Everything here runs on one identity: the subgroup of units fixing a colour
function under power pullbacks is exactly the subgroup of the cyclotomic
Galois group fixing every eigenvalue.  Degrees therefore come from subgroup
orders, with no eigenvalue computation required; where exact spectra are
available the identity itself is verified by two independent code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

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
    galois_orbit,
    minimal_polynomial,
    stabilizer,
    unit_group,
)
from cayspec.groups import Group, power_map
from cayspec.spectra import (
    Spectrum,
    character_table,
    has_character_table,
    spectrum_exact,
    spectrum_numeric,
)

INTEGER_ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class UnitSubgroup:
    """A subgroup of the units modulo n, with a best-effort short generator list."""

    modulus: int
    members: tuple[int, ...]
    generators: tuple[int, ...]

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


def _pullback_fixed(f: ColourFunction, h: int) -> bool:
    vals = f.values
    return all(vals[gh] == v for gh, v in zip(power_map(f.group, h), vals))


def fixing_subgroup(f: ColourFunction) -> UnitSubgroup:
    """All units h (mod the group order) with f(g**h) = f(g) for every g.

    Found by exhaustive scan; this is the subgroup whose fixed field is the
    splitting field of the colour graph.
    """
    n = f.group.order
    members = [h for h in unit_group(n).units if _pullback_fixed(f, h)]
    return unit_subgroup(n, members)


def algebraic_degree(f: ColourFunction) -> int:
    """Degree of the splitting field over the rationals: phi(n) / |fixing subgroup|."""
    n = f.group.order
    return euler_phi(n) // len(fixing_subgroup(f))


@dataclass(frozen=True)
class FieldReport:
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
    rational: bool
    integral: Optional[bool]


def _gauss_period(n: int, members: Sequence[int], k: int) -> Cyclotomic:
    counts: dict[int, int] = {}
    for h in members:
        e = (k * h) % n
        counts[e] = counts.get(e, 0) + 1
    return Cyclotomic.from_exponents(n, counts)


def _primitive_search(
    n: int, members: Sequence[int], degree: int
) -> tuple[Optional[Cyclotomic], Optional[tuple[Fraction, ...]]]:
    if degree == 1:
        one = Cyclotomic.one(n)
        return one, minimal_polynomial(one)
    periods = [_gauss_period(n, members, k) for k in range(1, n)]

    def candidates():
        yield from periods
        for i in range(len(periods)):
            for j in range(i + 1, len(periods)):
                for c in range(1, 9):
                    yield periods[i] + periods[j] * c

    for x in candidates():
        if len(galois_orbit(x)) == degree:
            poly = minimal_polynomial(x)
            if len(poly) - 1 != degree:
                raise InternalInconsistency(
                    "orbit size and minimal polynomial degree disagree"
                )
            return x, poly
    return None, None


def splitting_field(f: ColourFunction) -> FieldReport:
    """Fixing subgroup, degree, and a best-effort primitive element for f.

    Candidate primitive elements are the subgroup periods sum of z^(k*h) for
    k = 1..n-1 and then small integer combinations of two periods; the first
    candidate whose Galois orbit has exactly `degree` distinct images wins.
    """
    G = f.group
    n = G.order
    H = fixing_subgroup(f)
    degree = euler_phi(n) // len(H)
    rational = degree == 1
    if not rational:
        integral: Optional[bool] = False
    elif f.is_integer_valued() and f.values[0] == 0:
        # Rational eigenvalues of an integer matrix are algebraic integers.
        integral = True
    else:
        integral = None
    primitive, poly = _primitive_search(n, H.members, degree)
    return FieldReport(
        modulus=n,
        fixing_subgroup=H,
        degree=degree,
        primitive_element=primitive,
        minimal_poly=poly,
        rational=rational,
        integral=integral,
    )


def verify_fixing_subgroup_equals_stabilizers(
    f: ColourFunction, spectrum: Spectrum
) -> bool:
    """Check, by two independent routes, that eigenvalue stabilizers cut out
    exactly the fixing subgroup of f."""
    n = f.group.order
    intersection = set(unit_group(n).units)
    for value, _ in spectrum.pairs:
        intersection &= set(stabilizer(value).units)
    return tuple(sorted(intersection)) == fixing_subgroup(f).members


def is_algebraically_integral_over(f: ColourFunction, H_K: UnitSubgroup) -> bool:
    """True iff every eigenvalue lies in the fixed field of H_K.

    Equivalent, and implemented as: f is fixed by the power pullback of every
    member of H_K.
    """
    if H_K.modulus != f.group.order:
        raise ValueError(
            f"subgroup modulus {H_K.modulus} does not match group order {f.group.order}"
        )
    return all(_pullback_fixed(f, h) for h in H_K.members)


@dataclass(frozen=True)
class IntegralityVerdict:
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
    """Units whose power map preserves S as a multiset.

    Computed directly on multiplicities and cross-checked against the fixing
    subgroup of the multiplicity colour function; a mismatch is a bug.
    """
    G = S.group
    n = G.order
    f = colour_from_multiset(S)  # raises NotNormal for non-normal multisets
    direct = []
    for h in unit_group(n).units:
        pm = power_map(G, h)
        image = [0] * n
        for g, m in enumerate(S.multiplicity):
            if m:
                image[pm[g]] += m
        if tuple(image) == S.multiplicity:
            direct.append(h)
    via_colour = fixing_subgroup(f)
    if tuple(direct) != via_colour.members:
        raise InternalInconsistency(
            "multiset route and colour-function route disagree on the fixing subgroup"
        )
    return via_colour


def _layer_fixing_members(G: Group, layers: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = G.order
    members = []
    layer_sets = [frozenset(layer) for layer in layers[1:]]
    for h in unit_group(n).units:
        pm = power_map(G, h)
        if all(frozenset(pm[g] for g in layer) == layer for layer in layer_sets):
            members.append(h)
    return tuple(members)


def distance_fixing_subgroup(
    S: ConnectionMultiset,
) -> tuple[DistanceLayering, UnitSubgroup]:
    """Layer-preserving subgroup of a connected normal Cayley graph.

    Computed directly on the distance layers and cross-checked against the
    fixing subgroup of the word-length colour; returns both the layering and
    the subgroup.
    """
    layering = distance_layering(S)
    direct = _layer_fixing_members(S.group, layering.layers)
    via_colour = fixing_subgroup(layering.colour)
    if direct != via_colour.members:
        raise InternalInconsistency(
            "layer route and pullback route disagree on the fixing subgroup"
        )
    return layering, via_colour


@dataclass(frozen=True)
class DistanceReport:
    """Distance splitting field of a connected normal Cayley graph."""

    layering: DistanceLayering
    fixing_subgroup: UnitSubgroup
    field: FieldReport
    spectrum: Optional[Spectrum]
    degree: int
    distance_integral: bool


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

    The layer-preserving subgroup is computed directly on the distance layers
    and must agree with the fixing subgroup of the word-length colour; exact
    distance spectra are produced whenever the family has a character table,
    validated against the layered character-sum form.
    """
    layering, _ = distance_fixing_subgroup(S)
    G = S.group
    field = splitting_field(layering.colour)
    spectrum = None
    if has_character_table(G):
        table = character_table(G)
        spectrum = spectrum_exact(layering.colour, table)
        _check_layer_sum_form(spectrum, table, layering)
    return DistanceReport(
        layering=layering,
        fixing_subgroup=field.fixing_subgroup,
        field=field,
        spectrum=spectrum,
        degree=field.degree,
        distance_integral=field.degree == 1,
    )


def transfer_check(
    alpha: ColourFunction, beta: ColourFunction, H_K: UnitSubgroup
) -> bool:
    """Integrality over the fixed field of H_K transfers between two colours
    whose fixed-member sets inside H_K coincide.

    Both sides of the biconditional are computed; their common value is
    returned.  Raises HypothesisFails when the member sets differ.
    """
    if alpha.group is not beta.group:
        raise ValueError("transfer check needs colours on the same group")
    if H_K.modulus != alpha.group.order:
        raise ValueError("subgroup modulus does not match the group order")
    fixed_alpha = tuple(h for h in H_K.members if _pullback_fixed(alpha, h))
    fixed_beta = tuple(h for h in H_K.members if _pullback_fixed(beta, h))
    if fixed_alpha != fixed_beta:
        raise HypothesisFails(
            "the two colours fix different subsets of the given subgroup"
        )
    alpha_side = is_algebraically_integral_over(alpha, H_K)
    beta_side = is_algebraically_integral_over(beta, H_K)
    if alpha_side != beta_side:
        raise InternalInconsistency("integrality transfer biconditional failed")
    return alpha_side
