"""Splitting fields, algebraic degrees, and integrality of Cayley colour graphs.

Everything here runs on one identity: the subgroup of units fixing a colour
function under power pullbacks is exactly the subgroup of the cyclotomic
Galois group fixing every eigenvalue.  Degrees therefore come from subgroup
orders, with no eigenvalue computation required.

Every fixing subgroup is read off the group's class bundles by the engine in
`cayspec.units` and checked there on the values per element in coset form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from cayspec.colour import (
    ColourFunction,
    ConnectionMultiset,
    DistanceLayering,
    colour_from_multiset,
    distance_layering,
)
from cayspec.errors import HypothesisFails, InternalInconsistency
from cayspec.exactnum import Cyclotomic, euler_phi, galois_apply, minimal_polynomial
from cayspec.spectra import (
    Spectrum,
    character_table,
    has_character_table,
    spectrum_exact,
    spectrum_numeric,
)
from cayspec.units import (
    FixingTables,
    UnitSubgroup,
    check_coset_form,
    coset_form,
    fixing_tables,
    fixing_units,
)

INTEGER_ROUNDING_TOL = 1e-6


def fixing_subgroup(f: ColourFunction) -> UnitSubgroup:
    """All units h (mod the group order) with f(g**h) = f(g) for every g.

    Read off f's values on the class bundles, and checked on f's values per
    element in coset form; this is the subgroup whose fixed field is the
    splitting field of the colour graph.
    """
    tables = fixing_tables(f.group)
    values = f.values
    extended = tuple(values[bundle[0]] for bundle in tables.bundles) + (values[0],)
    members = fixing_units(tables, extended)
    return check_coset_form(tables, "colour function", members, extended, values)


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
    _, generators, reps = coset_form(tables, H.members)

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
    _, generators, reps = coset_form(fixing_tables(f.group), H.members)
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
    H = fixing_subgroup(f)
    rational = len(H) == euler_phi(f.group.order)
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
