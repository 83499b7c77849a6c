"""Exact spectra of Cayley colour graphs via character sums, plus a numeric oracle.

Character tables are built for the cyclic, product-of-cyclic and dihedral
families as exponent rules: every character value is a sum of |G|-th roots of
unity, and a family's rule gives the exponents of those roots for a row and a
class, so no value is stored.  The eigenvalue of each irreducible row is the
class-weighted character sum divided by the row degree, carried with
multiplicity degree squared: it is built on its own for every row, from the
exponent counts over the classes f weights, as one canonical residue.  Its
realness is tested exactly, as invariance under complex conjugation.  The
oracle diagonalizes the explicit adjacency matrix with cyclic Jacobi rotations
and never touches the character machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from cayspec._kernels import symmetric_eigenvalues
from cayspec.colour import ColourFunction, class_weight_vector
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import Cyclotomic, galois_apply
from cayspec.groups import Group, ConjugacyClassPartition, conjugacy_classes

MATCH_TOL = 1e-8
# Largest group order whose n x n adjacency matrix the Jacobi oracle is asked
# to diagonalize; its cost grows about as n^3.  `spectrum` on a 4-valent
# circulant (shared 2-core x86, Python 3.11.7) took 2.9 s at n = 128, 11.4 s
# at n = 192 and 29.4 s at n = 256; n = 1000 did not finish in 60 s.
NUMERIC_ORDER_LIMIT = 192


class CharacterTable(NamedTuple):
    """All irreducible characters of a group, as one exponent rule.

    Row r is the character `labels[r]` of degree `degrees[r]`; its value on
    class c is the sum of z^e over the exponents e in `exponents(r, c)`, a
    multiset, with z = exp(2*pi*i/|G|).
    """

    group: Group
    partition: ConjugacyClassPartition
    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    exponents: Callable[[int, int], Sequence[int]]


def _mixed_radix(index: int, orders: Sequence[int]) -> list[int]:
    coords = [0] * len(orders)
    for pos in range(len(orders) - 1, -1, -1):
        index, coords[pos] = divmod(index, orders[pos])
    return coords


def char_table_abelian(G: Group) -> CharacterTable:
    """Tensor-product characters of a cyclic group or a product of cyclic groups.

    A cyclic group of order n is the one-factor case: row j takes k to
    z^(jk).  Through the embedding z_m = z_N^(N/m), the row with coordinates
    u takes the element with coordinates x to the one exponent
    sum of (N/m_i) * u_i * x_i mod N.
    """
    orders = G.cyclic_orders
    if orders is None:
        raise ValueError("character table needs a product of cyclic groups")
    N = G.order
    part = conjugacy_classes(G)
    rep_coords = [
        [(N // m) * x for m, x in zip(orders, _mixed_radix(rep, orders))]
        for rep in part.representatives
    ]
    row_coords = [_mixed_radix(j, orders) for j in range(N)]

    def exponents(r: int, c: int) -> tuple[int]:
        return (sum(map(mul, row_coords[r], rep_coords[c])) % N,)

    return CharacterTable(G, part, tuple(f"chi{j}" for j in range(N)), (1,) * N, exponents)


def char_table_dihedral(G: Group) -> CharacterTable:
    """Linear plus two-dimensional characters of the dihedral group of order 2m.

    A linear row is +1 or -1 on each class, the exponent 0 or m.  dim2_h is
    z^(2kh) + z^(-2kh) on a^k and 0 on the reflections.
    """
    if G.family != "dihedral":
        raise ValueError(f"expected a dihedral group, got {G.family}")
    m = G.order // 2
    n = G.order
    part = conjugacy_classes(G)
    # Index k is a^k and m+k is b*a^k: reps[c] is (eps, k) for class c.
    reps = [divmod(rep, m) for rep in part.representatives]
    # Linear row r is (-1)^(s*k + t*eps) for (s, t) = linear[r].
    linear = [(0, 0), (0, 1)] + ([(1, 0), (1, 1)] if m % 2 == 0 else [])
    h_max = (m - 1) // 2

    def exponents(r: int, c: int) -> tuple[int, ...]:
        eps, k = reps[c]
        if r < len(linear):
            s, t = linear[r]
            return ((s * k + t * eps) % 2 * m,)
        if eps:
            return ()
        a = 2 * k * (r - len(linear) + 1) % n
        return (a, -a % n)

    labels = [f"lin{i}" for i in range(len(linear))]
    labels += [f"dim2_{h}" for h in range(1, h_max + 1)]
    return CharacterTable(G, part, tuple(labels), (1,) * len(linear) + (2,) * h_max, exponents)


def has_character_table(G: Group) -> bool:
    """Whether the family has an exact table: dihedral, cyclic or a product of cyclics."""
    return G.family == "dihedral" or G.cyclic_orders is not None


def character_table(G: Group) -> CharacterTable:
    """Dispatch on the group family, check the row count and the degrees;
    cached on the group object."""
    if G._char_table is None:
        if not has_character_table(G):
            raise ValueError(f"no exact character table for family {G.family!r}")
        build = char_table_dihedral if G.family == "dihedral" else char_table_abelian
        table = build(G)
        if len(table.labels) != len(table.partition.classes):
            raise InternalInconsistency(
                f"{len(table.labels)} irreducibles against {len(table.partition.classes)} classes"
            )
        if sum(d**2 for d in table.degrees) != G.order:
            raise InternalInconsistency("degree squares do not sum to the group order")
        G._char_table = table
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


class _DescendingKey(NamedTuple):
    """Sorts values by descending real embedding, and values whose embeddings
    tie by their exact coefficients, built only for a tie."""

    embedding: float
    value: Cyclotomic

    def __lt__(self, other: "_DescendingKey") -> bool:
        if self.embedding != other.embedding:
            return self.embedding > other.embedding
        return self.value.coeffs < other.value.coeffs


def spectrum_exact(f: ColourFunction, table: CharacterTable) -> Spectrum:
    """One eigenvalue per irreducible with multiplicity its degree squared.

    The eigenvalue of a row of degree d is sum over classes of
    ((class size) * f / d) * (character value).  With the class weights
    scaled by D, the lcm of their denominators, to integers k_c, each row's
    eigenvalue is built on its own: the sum over the classes f weights of
    k_c * z^e for e in the rule's exponents, divided by D * d.  Equal values
    across rows are merged.  Each distinct eigenvalue must be fixed by complex
    conjugation (z -> z^(n-1)), an exact realness test.
    """
    if table.group is not f.group:
        raise ValueError("colour function and character table disagree on the group")
    n = f.group.order
    support = [(c, w) for c, w in enumerate(class_weight_vector(f)) if w]
    D = lcm(*(w.denominator for _, w in support))
    scaled = [(c, w.numerator * (D // w.denominator)) for c, w in support]
    exponents = table.exponents
    per_irr = []
    merged: dict[Cyclotomic, int] = {}
    for r, (label, degree) in enumerate(zip(table.labels, table.degrees)):
        counts: dict[int, int] = {}
        for c, k in scaled:
            for e in exponents(r, c):
                counts[e] = counts.get(e, 0) + k
        lam = Cyclotomic.from_exponents(n, counts, D * degree)
        count = merged.get(lam)
        if count is None:
            if galois_apply(n - 1, lam) != lam:
                raise InternalInconsistency(
                    f"eigenvalue {lam} of {label} is not real: complex conjugation moves it"
                )
            count = 0
        per_irr.append((label, degree, lam))
        merged[lam] = count + degree**2
    pairs = tuple(
        sorted(merged.items(), key=lambda item: _DescendingKey(item[0].real_embedding(), item[0]))
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
