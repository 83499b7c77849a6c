"""Splitting fields, algebraic degrees, and integrality of Cayley colour graphs.

Everything here runs on one identity: the subgroup of units fixing a colour
function under power pullbacks is exactly the subgroup of the cyclotomic
Galois group fixing every eigenvalue.  Degrees therefore come from subgroup
orders, with no eigenvalue computation required.

Every fixing subgroup is read off the group's class bundles, and checked on
the values per element in coset form, by one call into `cayspec.units`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from cayspec.colour import ColourFunction, DistanceLayering, distance_layering
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import Cyclotomic, euler_phi, galois_apply, minimal_polynomial
from cayspec.spectra import (
    Spectrum,
    adjacency_minimal_polynomial,
    character_table,
    has_character_table,
    spectrum_exact,
)
from cayspec.units import (
    FixingTables,
    UnitSubgroup,
    coset_split,
    fixing_tables,
    read_fixing_subgroup,
)


def fixing_subgroup(f: ColourFunction) -> UnitSubgroup:
    """All units h (mod the group order) with f(g**h) = f(g) for every g.

    Read off f's values on the class bundles, and checked on f's values per
    element in coset form; this is the subgroup whose fixed field is the
    splitting field of the colour graph.
    """
    tables = fixing_tables(f.group)
    values = f.values
    extended = tuple(values[bundle[0]] for bundle in tables.bundles) + (values[0],)
    return read_fixing_subgroup(tables, extended, values, "colour function")[0]


class FieldReport(NamedTuple):
    """A splitting field described by its fixing subgroup of units, with a
    primitive element whose minimal polynomial certifies the degree."""

    fixing_subgroup: UnitSubgroup
    degree: int
    primitive_element: Cyclotomic
    minimal_poly: tuple[Fraction, ...]


def _gauss_period(n: int, members: Sequence[int], k: int) -> dict[int, int]:
    # The exponent counts of eta_k = sum of z^(k*h) over h in H.
    counts: dict[int, int] = {}
    for h in members:
        e = (k * h) % n
        counts[e] = counts.get(e, 0) + 1
    return counts


def _primitive_search(
    tables: FixingTables, H: UnitSubgroup, degree: int
) -> tuple[Cyclotomic, tuple[Fraction, ...]]:
    """The first period eta_k = sum of z^(k*h) over h in H, k = 1..n-1, whose
    stabilizer is exactly H (H fixes each period, so the coset form decides),
    and its minimal polynomial.

    The search ends by k = n/f, for f the least divisor of n such that H holds
    every unit = 1 (mod f), the conductor; f = 1 is degree 1.  Proof: let Hf
    be H mod f in A = (Z/f)^x, so H is its full preimage and eta_{n/f} is a
    positive multiple of T = sum of w^a over a in Hf, w = z^(n/f).  The
    rational relations among the w^a (a in A) are spanned by the sums over
    cosets of U_p = {a = 1 (mod f/p)}, of order p, one per prime p with
    p^2 | f (compare dimensions prime by prime); so a coefficient vector on
    A is a relation iff its Fourier transform vanishes on each character
    non-trivial on every U_p.  The transform of 1_{aHf} - 1_{Hf} is
    (chi(a) - 1)|Hf| on the annihilator Q of Hf, 0 elsewhere: a fixes T iff
    chi(a) = 1 for each such chi in Q.  As f is least, no U_p lies in Hf, so
    the chi in Q trivial on U_p form a subgroup B_p of index p; the primes
    differ, so Q/(meet of the B_p) is cyclic, and the chi outside every B_p,
    the preimages of its generators, generate Q.  So a lies in Hf.
    """
    n = H.modulus
    if degree == 1:
        # 1 is rational: its minimal polynomial is t - 1.
        return Cyclotomic.from_exponents(n, {0: 1}), (Fraction(-1), Fraction(1))
    for k in range(1, n):
        counts = _gauss_period(n, H.members, k)
        x = Cyclotomic.from_exponents(n, counts)
        if _coset_split(tables, H.members, (x,)) is None:
            poly = minimal_polynomial(n, counts)
            if len(poly) - 1 != degree:
                raise InternalInconsistency(
                    f"coset route: {x} has stabilizer {H.members}, but its Galois "
                    f"orbit has {len(poly) - 1} elements, not {degree}"
                )
            return x, poly
    raise InternalInconsistency(
        f"primitive search: no period of H = {H.members} modulo {n} "
        f"has stabilizer exactly H"
    )


def _field_of(tables: FixingTables, H: UnitSubgroup) -> FieldReport:
    degree = euler_phi(H.modulus) // len(H.members)
    primitive, poly = _primitive_search(tables, H, degree)
    return FieldReport(
        fixing_subgroup=H,
        degree=degree,
        primitive_element=primitive,
        minimal_poly=poly,
    )


def splitting_field(f: ColourFunction) -> FieldReport:
    """Fixing subgroup, degree, and a primitive element for f: the first
    period sum of z^(k*h) over h in H, for k = 1..n-1, whose stabilizer is
    exactly H (one always is; see `_primitive_search`)."""
    return _field_of(fixing_tables(f.group), fixing_subgroup(f))


def _coset_split(tables: FixingTables, members: tuple[int, ...], values) -> Optional[str]:
    """Where the stabilizer of the values and H part, by `units.coset_split`, or None."""
    split = coset_split(tables, members, lambda h, _: all(galois_apply(h, v) == v for v in values))
    if split is None:
        return None
    h, moves = split
    if not moves:
        return f"unit {h} moves the colour function but fixes every eigenvalue"
    value = next(v for v in values if galois_apply(h, v) != v)
    return f"unit {h} fixes the colour function but moves the eigenvalue {value}"


def checked_spectrum(f: ColourFunction, H: UnitSubgroup) -> Optional[Spectrum]:
    """The exact spectrum of f, or None when its family has no character
    table.  Raises InternalInconsistency, naming the unit at which they part,
    unless the eigenvalue stabilizers intersect in exactly H, the fixing
    subgroup of f as the caller read it: the paper's main identity."""
    if not has_character_table(f.group):
        return None
    spectrum = spectrum_exact(f, character_table(f.group))
    values = [value for value, _ in spectrum.pairs]
    split = _coset_split(fixing_tables(f.group), H.members, values)
    if split is not None:
        raise InternalInconsistency(f"stabilizer identity: {split}")
    return spectrum


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
    integral: bool
    method: str


def integrality_verdict(
    f: ColourFunction, H: UnitSubgroup, spectrum: Optional[Spectrum] = None
) -> IntegralityVerdict:
    """Rationality from H, the fixing subgroup of f as the caller read it;
    integrality from the exact spectrum or, without one, the adjacency
    minimal polynomial: for rational f its roots are rational, so by Gauss's
    lemma all are integers exactly when its coefficients are.  Either route
    must find integer-valued f vanishing at the identity integral."""
    if len(H.members) != euler_phi(f.group.order):
        return IntegralityVerdict(False, False, "fixing subgroup is proper")
    if spectrum is not None:
        method = "exact spectrum"
        integral = all(
            v.is_rational() and v.rational_value().denominator == 1
            for v, _ in spectrum.pairs
        )
    else:
        method = "adjacency minimal polynomial"
        integral = all(c.denominator == 1 for c in adjacency_minimal_polynomial(f))
    if not integral and f.is_integer_valued() and f.values[0] == 0:
        raise InternalInconsistency(
            f"{method}: integer colours with zero identity value must yield integer eigenvalues"
        )
    return IntegralityVerdict(True, integral, method)


def multiset_fixing_subgroup(f: ColourFunction) -> UnitSubgroup:
    """Units whose power map preserves a connection multiset: the fixing
    subgroup of its multiplicity colour f."""
    return fixing_subgroup(f)


def distance_fixing_subgroup(
    f: ColourFunction,
) -> tuple[DistanceLayering, UnitSubgroup]:
    """Layering of the connected normal Cayley graph on which f is 1, and the
    fixing subgroup of its word-length colour, which preserves every layer."""
    layering = distance_layering(f)
    return layering, fixing_subgroup(layering.colour)


class DistanceReport(NamedTuple):
    """Distance splitting field of a connected normal Cayley graph."""

    layering: DistanceLayering
    field: FieldReport
    spectrum: Optional[Spectrum]


def _check_layer_sum_form(spectrum: Spectrum, layering: DistanceLayering) -> None:
    # Distance eigenvalues restated as weighted layer character sums must
    # reproduce the character-sum route exactly.  The sum runs element by
    # element over the layers, with the integer level as the weight, never
    # through the class weights the other route uses; the two share only the
    # table's exponent rule and `Cyclotomic.from_exponents`.
    table = character_table(layering.colour.group)
    n = table.group.order
    class_of = table.partition.class_of
    exponents = table.exponents
    for r, (label, degree, lam) in enumerate(spectrum.per_irreducible):
        counts: dict[int, int] = {}
        for level, layer in enumerate(layering.layers):
            if level:
                for g in layer:
                    for e in exponents(r, class_of[g]):
                        counts[e] = counts.get(e, 0) + level
        layered = Cyclotomic.from_exponents(n, counts, degree)
        if layered != lam:
            raise InternalInconsistency(
                f"layered distance eigenvalue of {label} is {layered}, "
                f"the character sum gives {lam}"
            )


def distance_report(f: ColourFunction) -> DistanceReport:
    """Distance degree and splitting field of the simple connection set on
    which f is 1, via layers, with all cross-checks.

    The field comes from H', the fixing subgroup of the word-length colour,
    which must equal the set's own fixing subgroup H: the graph is normal, so
    its degree is its distance degree.  Exact distance spectra are produced
    whenever the family has a character table, checked against H' and
    against the layered character-sum form.
    """
    layering, H_prime = distance_fixing_subgroup(f)
    H = fixing_subgroup(f)
    if H.members != H_prime.members:
        raise InternalInconsistency(
            f"distance degree: the set is fixed by units {H.members}, "
            f"its word-length colour by {H_prime.members}"
        )
    field = _field_of(fixing_tables(f.group), H_prime)
    spectrum = checked_spectrum(layering.colour, H_prime)
    if spectrum is not None:
        _check_layer_sum_form(spectrum, layering)
    return DistanceReport(layering=layering, field=field, spectrum=spectrum)
