"""Exact spectra of Cayley colour graphs via character sums, plus a numeric oracle.

Character tables are built for the cyclic, product-of-cyclic and dihedral
families; each distinct character value is built once and shared by every
cell that takes it, and each table knows how the Galois group permutes its
rows.  The eigenvalue of each irreducible row is the class-weighted character
sum divided by the row degree, carried with multiplicity degree squared: it
is built as one rational combination of residues for one row per Galois
orbit, and as that value's Galois image for the other rows.  Its realness is
tested exactly, as invariance under complex conjugation.  The oracle
diagonalizes the explicit adjacency matrix with cyclic Jacobi rotations and
never touches the character machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence

from cayspec._kernels import symmetric_eigenvalues
from cayspec.colour import ColourFunction, class_weight_vector
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import Cyclotomic, galois_apply
from cayspec.groups import Group, ConjugacyClassPartition, conjugacy_classes
from cayspec.units import unit_group

MATCH_TOL = 1e-8
# Largest group order whose n x n adjacency matrix the Jacobi oracle is asked
# to diagonalize; its cost grows about as n^3.  `spectrum` on a 4-valent
# circulant (shared 2-core x86, Python 3.11.7) took 2.9 s at n = 128, 11.4 s
# at n = 192 and 29.4 s at n = 256; n = 1000 did not finish in 60 s.
NUMERIC_ORDER_LIMIT = 192


class CharacterRow(NamedTuple):
    """One irreducible character: its degree and one exact value per class."""

    label: str
    degree: int
    values: tuple[Cyclotomic, ...]


class CharacterTable(NamedTuple):
    """All irreducible characters of a group, with values in the order-|G| field.

    `row_orbits` holds the orbits of the rows under the Galois group, each as
    (row, h) pairs, representative first with h = 1: sigma_h, which sends z to
    z^h, maps the representative's row to that row.
    """

    group: Group
    partition: ConjugacyClassPartition
    rows: tuple[CharacterRow, ...]
    row_orbits: tuple[tuple[tuple[int, int], ...], ...]

    def value(self, row: int, element: int) -> Cyclotomic:
        return self.rows[row].values[self.partition.class_of[element]]


def _finish_table(
    G: Group, rows: list[CharacterRow], row_image: Callable[[int, int], int]
) -> CharacterTable:
    """Validate the rows and group them into Galois orbits, where row_image(h, r)
    is the index of the row that sigma_h maps row r to."""
    part = conjugacy_classes(G)
    if len(rows) != len(part.classes):
        raise InternalInconsistency(
            f"{len(rows)} irreducibles against {len(part.classes)} classes"
        )
    if sum(r.degree**2 for r in rows) != G.order:
        raise InternalInconsistency("degree squares do not sum to the group order")
    units = unit_group(G.order).members
    placed = [False] * len(rows)
    orbits = []
    for r in range(len(rows)):
        if placed[r]:
            continue
        orbit = []
        for h in units:
            image = row_image(h, r)
            if not placed[image]:
                placed[image] = True
                orbit.append((image, h))
        orbits.append(tuple(orbit))
    return CharacterTable(
        group=G,
        partition=part,
        rows=tuple(rows),
        row_orbits=tuple(orbits),
    )


def _mixed_radix(index: int, orders: Sequence[int]) -> list[int]:
    coords = [0] * len(orders)
    for pos in range(len(orders) - 1, -1, -1):
        index, coords[pos] = divmod(index, orders[pos])
    return coords


def char_table_abelian(G: Group) -> CharacterTable:
    """Tensor-product characters of a cyclic group or a product of cyclic groups.

    A cyclic group of order n is the one-factor case: row j takes k to
    z^(jk).  Values are expressed as powers of the order-|G| root of unity
    through the embedding z_m = z_N^(N/m).  sigma_h maps the row with
    coordinates u to the row with coordinates h*u, reduced modulo each factor.
    """
    orders = G.cyclic_orders
    if orders is None:
        raise ValueError("character table needs a product of cyclic groups")
    N = G.order
    part = conjugacy_classes(G)
    rep_coords = [_mixed_radix(rep, orders) for rep in part.representatives]
    roots = [Cyclotomic.from_exponents(N, {e: 1}) for e in range(N)]
    rows = []
    row_coords = [_mixed_radix(j, orders) for j in range(N)]
    for j, u in enumerate(row_coords):
        values = tuple(
            roots[sum((N // m) * ui * xi for m, ui, xi in zip(orders, u, coords)) % N]
            for coords in rep_coords
        )
        rows.append(CharacterRow(label=f"chi{j}", degree=1, values=values))

    def row_image(h: int, j: int) -> int:
        index = 0
        for m, ui in zip(orders, row_coords[j]):
            index = index * m + h * ui % m
        return index

    return _finish_table(G, rows, row_image)


def char_table_dihedral(G: Group) -> CharacterTable:
    """Linear plus two-dimensional characters of the dihedral group of order 2m.

    The linear rows are rational, so every sigma_h fixes them; sigma_h maps
    dim2_j, whose values are z^(2kj) + z^(-2kj), to dim2_{hj mod m} up to sign.
    """
    if G.family != "dihedral":
        raise ValueError(f"expected a dihedral group, got {G.family}")
    m = G.order // 2
    n = G.order
    part = conjugacy_classes(G)

    def decode(i: int) -> tuple[int, int]:
        return divmod(i, m)

    signs = {1: Cyclotomic.one(n), -1: Cyclotomic.from_rational(n, -1)}
    zero = Cyclotomic.zero(n)
    cosines: dict[int, Cyclotomic] = {}

    def two_cos(a: int) -> Cyclotomic:
        # z^a + z^-a, built once per a up to sign; a and -a can coincide mod n
        a = min(a % n, -a % n)
        if a not in cosines:
            exps = {a: 2} if a == -a % n else {a: 1, n - a: 1}
            cosines[a] = Cyclotomic.from_exponents(n, exps)
        return cosines[a]

    def lin_row(label: str, on_rot, on_ref) -> CharacterRow:
        values = []
        for rep in part.representatives:
            eps, k = decode(rep)
            values.append(signs[on_rot(k) if eps == 0 else on_ref(k)])
        return CharacterRow(label=label, degree=1, values=tuple(values))

    rows = [
        lin_row("lin0", lambda k: 1, lambda k: 1),
        lin_row("lin1", lambda k: 1, lambda k: -1),
    ]
    if m % 2 == 0:
        rows.append(lin_row("lin2", lambda k: (-1) ** k, lambda k: (-1) ** k))
        rows.append(lin_row("lin3", lambda k: (-1) ** k, lambda k: (-1) ** (k + 1)))
    h_max = (m - 1) // 2 if m % 2 else m // 2 - 1
    for h in range(1, h_max + 1):
        values = tuple(
            zero if eps == 1 else two_cos(2 * k * h)
            for eps, k in map(decode, part.representatives)
        )
        rows.append(CharacterRow(label=f"dim2_{h}", degree=2, values=values))
    linear = len(rows) - h_max

    def row_image(h: int, r: int) -> int:
        if r < linear:
            return r
        j = h * (r - linear + 1) % m
        return linear + min(j, m - j) - 1

    return _finish_table(G, rows, row_image)


def has_character_table(G: Group) -> bool:
    """Whether the family has an exact table: dihedral, cyclic or a product of cyclics."""
    return G.family == "dihedral" or G.cyclic_orders is not None


def character_table(G: Group) -> CharacterTable:
    """Dispatch on the group family; cached on the group object."""
    if G._char_table is None:
        if not has_character_table(G):
            raise ValueError(f"no exact character table for family {G.family!r}")
        build = char_table_dihedral if G.family == "dihedral" else char_table_abelian
        G._char_table = build(G)
    return G._char_table


class Spectrum(NamedTuple):
    """Exact eigenvalues with multiplicities, distinct and sorted descending.

    per_irreducible keeps the unmerged one-eigenvalue-per-character list
    as (label, degree, value) triples.
    """

    pairs: tuple[tuple[Cyclotomic, int], ...]
    per_irreducible: tuple[tuple[str, int, Cyclotomic], ...]

    def embeddings(self) -> list[float]:
        """Multiplicity-expanded real embeddings, sorted descending."""
        out: list[float] = []
        for value, mult in self.pairs:
            out.extend([value.real_embedding()] * mult)
        out.sort(reverse=True)
        return out

    def frobenius_norm(self) -> float:
        return sum(v.real_embedding() ** 2 * m for v, m in self.pairs) ** 0.5


def spectrum_exact(f: ColourFunction, table: CharacterTable) -> Spectrum:
    """One eigenvalue per irreducible with multiplicity its degree squared.

    The eigenvalue of a row of degree d is sum over classes of
    ((class size) * f / d) * (character value).  It is built as one rational
    combination of canonical residues for the first row of each Galois orbit
    of rows; since f is rational, sigma_h of that value is the eigenvalue of
    the row sigma_h maps the first row to.  Equal values across rows are
    merged.  Each distinct eigenvalue must be fixed by complex conjugation
    (z -> z^(n-1)), an exact realness test.
    """
    if table.group is not f.group:
        raise ValueError("colour function and character table disagree on the group")
    n = f.group.order
    weights = class_weight_vector(f)
    values: list[Optional[Cyclotomic]] = [None] * len(table.rows)
    for (first, _), *rest in table.row_orbits:
        row = table.rows[first]
        lam = values[first] = Cyclotomic.linear_combination(
            n,
            [(w / row.degree, chi) for w, chi in zip(weights, row.values) if w],
        )
        for r, h in rest:
            values[r] = galois_apply(h, lam)
    per_irr = []
    merged: dict[Cyclotomic, int] = {}
    for row, lam in zip(table.rows, values):
        count = merged.get(lam)
        if count is None:
            if galois_apply(n - 1, lam) != lam:
                raise InternalInconsistency(
                    f"eigenvalue {lam} of {row.label} is not real: "
                    "complex conjugation moves it"
                )
            count = 0
        per_irr.append((row.label, row.degree, lam))
        merged[lam] = count + row.degree**2
    pairs = tuple(
        sorted(
            merged.items(),
            key=lambda item: (-item[0].real_embedding(), item[0].coeffs),
        )
    )
    if sum(m for _, m in pairs) != n:
        raise InternalInconsistency("spectrum multiplicities do not sum to |G|")
    return Spectrum(pairs=pairs, per_irreducible=tuple(per_irr))


def adjacency_matrix(f: ColourFunction) -> list[list[Fraction]]:
    """The symmetric matrix with entry (g, h) equal to f(g * h^-1)."""
    G = f.group
    return [
        [f.values[G.mul(g, G.inv(h))] for h in range(G.order)]
        for g in range(G.order)
    ]


def adjacency_minimal_polynomial(f: ColourFunction) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of the adjacency matrix, coefficients low to high:
    that of F = sum of f(x)*x on the centre of Q[G], whose eigenvalues are the
    distinct adjacency eigenvalues (Burnside; Dixon, Numer. Math. 10, 1967).
    With D the lcm of f's denominators, 1, DF, (DF)^2, ... are integer class
    vectors, (DF v)[E] = sum of D*f(x) * v[class of x^-1 z_E] with z_E in class
    E; exact elimination stops at the first dependence, and t -> D*t rescales it.
    """
    G = f.group
    part = conjugacy_classes(G)
    support = [x for x, value in enumerate(f.values) if value]
    D = lcm(*(f.values[x].denominator for x in support))
    index = [
        [(part.class_of[G.mul(G.inv(x), z)], (f.values[x] * D).numerator) for x in support]
        for z in part.representatives
    ]
    k = len(index)
    vector = [1] + [0] * (k - 1)
    basis = []  # (pivot, row scaled to 1 there)
    while True:
        m = len(basis)
        # The Krylov vector DF^m, then its combination of DF^0..DF^m.
        row = [Fraction(v) for v in vector] + [Fraction(j == m) for j in range(k + 1)]
        for pivot, b in basis:
            c = row[pivot]
            row = [r - c * x for r, x in zip(row, b)]
        pivot = next((i for i in range(k) if row[i]), None)
        if pivot is None:
            return tuple(a / D ** (m - j) for j, a in enumerate(row[k : k + m + 1]))
        basis.append((pivot, [r / row[pivot] for r in row]))
        vector = [sum(w * vector[d] for d, w in pairs) for pairs in index]


def spectrum_numeric(f: ColourFunction) -> list[float]:
    """Adjacency eigenvalues in double precision, sorted descending.

    Independent of the character-sum route: diagonalizes the explicit matrix
    with cyclic Jacobi rotations.  Orders above NUMERIC_ORDER_LIMIT are
    refused before the matrix is built.
    """
    n = f.group.order
    if n > NUMERIC_ORDER_LIMIT:
        raise ValueError(f"group order {n} exceeds the numeric oracle limit {NUMERIC_ORDER_LIMIT}")
    return symmetric_eigenvalues(adjacency_matrix(f))


class SpectrumComparison(NamedTuple):
    matches: bool
    max_deviation: float
    threshold: float


def compare_spectra(exact: Spectrum, numeric: Sequence[float]) -> SpectrumComparison:
    """Match multiplicity-expanded exact embeddings against numeric eigenvalues.

    Both lists are sorted descending and paired off; the verdict is true when
    the largest gap stays below MATCH_TOL * (1 + Frobenius norm).
    """
    expanded = exact.embeddings()
    numeric_sorted = sorted(numeric, reverse=True)
    if len(expanded) != len(numeric_sorted):
        raise ValueError(
            f"{len(expanded)} exact eigenvalues against {len(numeric_sorted)} numeric"
        )
    threshold = MATCH_TOL * (1.0 + exact.frobenius_norm())
    max_dev = max([0.0] + [abs(e - v) for e, v in zip(expanded, numeric_sorted)])
    return SpectrumComparison(
        matches=max_dev <= threshold, max_deviation=max_dev, threshold=threshold
    )
