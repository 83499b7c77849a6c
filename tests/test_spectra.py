import math
import random
from fractions import Fraction

import pytest

import cayspec.spectra as spectra_mod
from cayspec.cli import load_instance, main
from cayspec.colour import (
    class_weight_vector,
    colour_from_values,
)
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import Cyclotomic, galois_apply
from cayspec.groups import (
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
)
from cayspec.spectra import (
    adjacency_matrix,
    adjacency_minimal_polynomial,
    char_table_abelian,
    char_table_dihedral,
    character_table,
    compare_spectra,
    has_character_table,
    spectrum_exact,
    spectrum_numeric,
)
from cayspec.units import unit_group
from conftest import (
    INSTANCE_DIR,
    character_values,
    d5_s1,
    d5_s2,
    d8_alpha,
    d8_beta,
    instance_path,
    multiset_colour,
    random_class_function,
    reference_product,
    reference_sum,
)

# D3 x Z2: D3 moves {0, 1, 2}, Z2 swaps {3, 4}.
D3_Z2_GENERATORS = [(1, 2, 0, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3)]


def check_row_orthogonality(table):
    G = table.group
    n = G.order
    part = table.partition
    sizes = [len(c) for c in part.classes]
    inv_class = [
        part.class_of[G.inv(rep)] for rep in part.representatives
    ]
    values = character_values(table)
    for i, row_i in enumerate(values):
        for j, row_j in enumerate(values):
            total = reference_sum(
                *(reference_product(row_i[ci], row_j[inv_class[ci]], size)
                  for ci, size in enumerate(sizes))
            )
            assert total == (n if i == j else 0)


def check_column_orthogonality(table):
    G = table.group
    n = G.order
    part = table.partition
    inv_class = [part.class_of[G.inv(rep)] for rep in part.representatives]
    values = character_values(table)
    for ci in range(len(part.classes)):
        for cj in range(len(part.classes)):
            total = reference_sum(*(reference_product(row[ci], row[inv_class[cj]]) for row in values))
            expected = n // len(part.classes[ci]) if ci == cj else 0
            assert total == expected


def test_cyclic_trivial_table():
    table = char_table_abelian(make_cyclic(1))
    assert (table.labels, table.degrees) == (("chi0",), (1,))
    assert character_values(table) == [[1]]


def test_cyclic_table_values():
    table = char_table_abelian(make_cyclic(4))
    assert table.exponents(1, 1) == (1,)
    assert table.exponents(2, 2) == (0,)  # z^(2*2) = z^4 = 1
    values = character_values(table)
    assert values[1][1] == Cyclotomic.from_exponents(4, {1: 1})
    assert values[2][2] == 1


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclic_orthogonality(n):
    check_row_orthogonality(char_table_abelian(make_cyclic(n)))


def test_abelian_product_table():
    G = make_product(make_cyclic(2), make_cyclic(2))
    table = char_table_abelian(G)
    assert len(table.labels) == 4
    values = {value for row in character_values(table) for value in row}
    assert values == {Cyclotomic.one(4), Cyclotomic.from_rational(4, -1)}


def test_abelian_character_count_and_orthogonality():
    G = make_product(make_cyclic(2), make_cyclic(3))
    table = char_table_abelian(G)
    assert len(table.labels) == G.order
    check_row_orthogonality(table)
    check_column_orthogonality(table)


def test_abelian_rejects_nonabelian_factor():
    G = make_from_generators(D3_Z2_GENERATORS)
    with pytest.raises(ValueError, match="^character table needs a product of cyclic groups$"):
        char_table_abelian(G)


def test_dihedral_tables():
    D8 = make_dihedral(8)
    table = char_table_dihedral(D8)
    degrees = sorted(table.degrees)
    assert degrees == [1, 1, 1, 1, 2, 2, 2]
    assert sum(d * d for d in degrees) == 16

    D5 = make_dihedral(5)
    table5 = char_table_dihedral(D5)
    assert sorted(table5.degrees) == [1, 1, 2, 2]


def test_dihedral_sign_character_on_reflections():
    for m in (3, 4, 5, 8):
        G = make_dihedral(m)
        table = char_table_dihedral(G)
        assert table.labels[1] == "lin1"
        sign_row = character_values(table)[1]
        part = table.partition
        for ci, rep in enumerate(part.representatives):
            if rep >= m:
                assert table.exponents(1, ci) == (m,)
                assert sign_row[ci] == -1


@pytest.mark.parametrize("m", range(1, 11))
def test_dihedral_orthogonality(m):
    table = char_table_dihedral(make_dihedral(m))
    check_row_orthogonality(table)
    check_column_orthogonality(table)


def abelian_reference(G, orders):
    # Row j is the tensor product of z_m^(u_k x_k) over the factors, with
    # u = digits of j and x = digits of the element, most significant first.
    def digits(i):
        out = []
        for m in reversed(orders):
            i, d = divmod(i, m)
            out.append(d)
        return out[::-1]

    N = G.order
    return {
        f"chi{j}": lambda g, u=digits(j): Cyclotomic.from_exponents(
            N, {sum(N // m * uk * xk for m, uk, xk in zip(orders, u, digits(g))): 1}
        )
        for j in range(N)
    }


def dihedral_reference(m):
    n = 2 * m

    def rot(k, h):
        # two separate roots, so coinciding exponents are added, not merged
        return reference_sum(
            Cyclotomic.from_exponents(n, {2 * k * h: 1}),
            Cyclotomic.from_exponents(n, {-2 * k * h: 1}),
        )

    def linear(on_rot, on_ref):
        return lambda g: Cyclotomic.from_rational(
            n, on_rot(g % m) if g < m else on_ref(g % m)
        )

    ref = {
        "lin0": linear(lambda k: 1, lambda k: 1),
        "lin1": linear(lambda k: 1, lambda k: -1),
    }
    if m % 2 == 0:
        ref["lin2"] = linear(lambda k: (-1) ** k, lambda k: (-1) ** k)
        ref["lin3"] = linear(lambda k: (-1) ** k, lambda k: -((-1) ** k))
    for h in range(1, (m - 1) // 2 + 1):
        ref[f"dim2_{h}"] = lambda g, h=h: Cyclotomic.from_rational(n, 0) if g >= m else rot(g, h)
    return ref


@pytest.mark.parametrize(
    "group, orders",
    [
        (lambda: make_cyclic(12), (12,)),
        (lambda: make_product(make_cyclic(4), make_cyclic(6)), (4, 6)),
        (lambda: make_product(make_cyclic(3), make_cyclic(8)), (3, 8)),
        (lambda: make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(3)),
         (2, 2, 3)),
        (lambda: make_dihedral(1), None),
        (lambda: make_dihedral(2), None),
        (lambda: make_dihedral(5), None),
        (lambda: make_dihedral(6), None),
        (lambda: make_dihedral(8), None),
    ],
    ids=[
        "cyclic:12", "product:4,6", "product:3,8", "product:2,2,3",
        "dihedral:1", "dihedral:2", "dihedral:5", "dihedral:6", "dihedral:8",
    ],
)
def test_shared_value_tables_match_reference(group, orders):
    # The exponent rule and from_exponents are all that spectrum_exact and the
    # layered distance check share: the rule's values must match a reference
    # built element by element.
    G = group()
    table = character_table(G)
    ref = dihedral_reference(G.order // 2) if orders is None else abelian_reference(G, orders)
    assert sorted(table.labels) == sorted(ref)
    for label, row in zip(table.labels, character_values(table)):
        for ci, cls in enumerate(table.partition.classes):
            for g in cls:
                assert row[ci] == ref[label](g), (label, g)


def test_spectrum_exact_rejects_non_real_eigenvalue():
    # A z_5 exponent added to the trivial row on a weighted class makes its
    # value 1 + z_5 there, and chi0's eigenvalue 2 + z_5.
    Z5 = make_cyclic(5)
    f = multiset_colour(Z5, [1, 4])
    table = character_table(Z5)
    weighted = next(ci for ci, rep in enumerate(table.partition.representatives) if rep == 1)

    def exponents(r, c):
        return table.exponents(r, c) + ((1,) if (r, c) == (0, weighted) else ())

    with pytest.raises(InternalInconsistency, match="of chi0 is not real"):
        spectrum_exact(f, table._replace(exponents=exponents))
    spectrum_exact(f, table)


def reference_spectrum(f, table):
    # One character sum per row, as a rational combination of the row's
    # values built by the reference sum and product, and one realness test
    # per row.
    n = f.group.order
    weights = class_weight_vector(f)
    per_irr = []
    merged = {}
    for label, degree, row in zip(table.labels, table.degrees, character_values(table)):
        lam = Cyclotomic.from_rational(n, 0)
        for w, chi in zip(weights, row):
            if w:
                lam = reference_sum(lam, reference_product(chi, w / degree))
        assert galois_apply(n - 1, lam) == lam
        per_irr.append((label, degree, lam))
        merged[lam] = merged.get(lam, 0) + degree**2
    pairs = tuple(
        sorted(merged.items(), key=lambda item: (-item[0].real_embedding(), item[0].coeffs))
    )
    return pairs, tuple(per_irr)


def orbit_groups():
    c = make_cyclic
    return [
        c(1), c(2), c(12), c(64),
        make_product(c(4), c(6)),
        make_product(c(3), c(8)),
        make_product(make_product(c(2), c(2)), c(3)),
    ] + [make_dihedral(m) for m in (1, 2, 3, 4, 5, 6, 8, 16)]


def group_id(G):
    if G.cyclic_orders is None:
        return f"dihedral{G.order // 2}"
    return "x".join(map(str, G.cyclic_orders))


@pytest.mark.parametrize("G", orbit_groups(), ids=group_id)
def test_spectrum_orbits_match_per_row_reference(G):
    # Every row's eigenvalue is built on its own, so the spectrum of a
    # rational colour must come out as whole Galois orbits, each value with
    # the multiplicity of its conjugates.
    table = character_table(G)
    units = unit_group(G.order).members
    rng = random.Random(G.order)
    colours = [random_class_function(G, rng) for _ in range(3)]
    colours.append(colour_from_values(G, {g: 1 for g in range(1, G.order)}))
    for f in colours:
        spec = spectrum_exact(f, table)
        assert (spec.pairs, spec.per_irreducible) == reference_spectrum(f, table)
        if G.order <= 32:
            for h in units:
                assert {galois_apply(h, v): m for v, m in spec.pairs} == dict(spec.pairs)


def test_orbit_images_checked_by_the_numeric_oracle(monkeypatch, capsys):
    # On D8 dim2_3, the image of dim2_1 under sigma_3, wrongly given dim2_1's
    # exponents: its eigenvalue takes dim2_1's sqrt 2 term unchanged.  The
    # stabilizer identity cannot see it, as H still fixes every value and
    # each non-trivial coset representative still moves sqrt 2; the Jacobi
    # cross-check must refuse the spectrum (exit 3).
    real = spectra_mod.char_table_dihedral

    def faulted(G):
        table = real(G)
        first, third = table.labels.index("dim2_1"), table.labels.index("dim2_3")

        def exponents(r, c):
            return table.exponents(first if r == third else r, c)

        return table._replace(exponents=exponents)

    monkeypatch.setattr(spectra_mod, "char_table_dihedral", faulted)
    assert main(["spectrum", instance_path("d8_alpha.txt")]) == 3
    assert "spectrum.match = false" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda t: t._replace(labels=t.labels[:-1], degrees=t.degrees[:-1]),
         "^5 irreducibles against 6 classes$"),
        (lambda t: t._replace(degrees=(2,) + t.degrees[1:]),
         "^degree squares do not sum to the group order$"),
    ],
    ids=["row count", "degrees"],
)
def test_character_table_checks_its_rows(monkeypatch, damage, message):
    real = spectra_mod.char_table_abelian
    monkeypatch.setattr(spectra_mod, "char_table_abelian", lambda G: damage(real(G)))
    G = make_cyclic(6)
    with pytest.raises(InternalInconsistency, match=message):
        character_table(G)
    assert G._char_table is None


def test_character_table_dispatch_unsupported():
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    with pytest.raises(ValueError, match="^no exact character table for family 'generated'$"):
        character_table(G)


def test_has_character_table_is_a_family_test():
    # The predicate reads the family and builds no table; character_table
    # builds one exactly where it holds.
    groups = [
        make_cyclic(6),
        make_dihedral(5),
        make_product(make_cyclic(2), make_cyclic(3)),
        make_from_generators(D3_Z2_GENERATORS),
        make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)]),
    ]
    assert [has_character_table(G) for G in groups] == [True, True, True, False, False]
    assert all(G._char_table is None for G in groups)
    for G in groups:
        if has_character_table(G):
            assert sum(d**2 for d in character_table(G).degrees) == G.order
        else:
            with pytest.raises(ValueError, match="^no exact character table for family 'generated'$"):
                character_table(G)


def test_spectrum_zero_colour():
    G = make_dihedral(4)
    f = colour_from_values(G, {})
    spec = spectrum_exact(f, character_table(G))
    assert spec.pairs == ((Cyclotomic.from_rational(8, 0), 8),)


def test_spectrum_alpha_pairs():
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    surd = Cyclotomic.from_exponents(16, {2: Fraction(2, 5), 14: Fraction(2, 5)})
    expected = {
        Cyclotomic.from_rational(16, Fraction(241, 5)): 1,
        Cyclotomic.from_rational(16, Fraction(49, 5)): 1,
        Cyclotomic.from_rational(16, Fraction(-71, 5)): 1,
        Cyclotomic.from_rational(16, Fraction(-199, 5)): 1,
        Cyclotomic.from_rational(16, -1): 4,
        surd: 4,
        reference_product(surd, -1): 4,
    }
    assert dict(spec.pairs) == expected


def test_spectrum_beta_pairs():
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    assert {(str(v), m) for v, m in spec.pairs} == {
        ("58", 1),
        ("18", 1),
        ("-14", 1),
        ("-38", 1),
        ("-6", 4),
        ("0", 8),
    }


def test_spectrum_s2_pairs():
    G, S2 = d5_s2()
    spec = spectrum_exact(S2, character_table(G))
    assert dict(spec.pairs) == {
        Cyclotomic.from_rational(10, 8): 2,
        Cyclotomic.from_rational(10, -2): 8,
    }


def test_spectrum_sorted_descending():
    G, S1 = d5_s1()
    spec = spectrum_exact(S1, character_table(G))
    embeddings = [v.real_embedding() for v, _ in spec.pairs]
    assert embeddings == sorted(embeddings, reverse=True)


def test_embedding_ties_break_on_exact_coefficients(monkeypatch):
    # Rounded to whole numbers, distinct eigenvalues tie; the order must be
    # that of the key (-embedding, coeffs).
    real = Cyclotomic.real_embedding
    monkeypatch.setattr(Cyclotomic, "real_embedding", lambda x: float(round(real(x))))
    rng = random.Random(5)
    ties = 0
    for G in (make_cyclic(30), make_dihedral(12), make_product(make_cyclic(4), make_cyclic(6))):
        for _ in range(3):
            spectrum = spectrum_exact(random_class_function(G, rng), character_table(G))
            values = [v for v, _ in spectrum.pairs]
            assert values == sorted(values, key=lambda v: (-v.real_embedding(), v.coeffs))
            ties += len(values) - len({v.real_embedding() for v in values})
    assert ties > 20


def test_untied_spectra_read_no_coefficients(monkeypatch, capsys):
    # The exact coefficients only break ties between equal embeddings.
    reads = []
    coeffs = Cyclotomic.coeffs
    monkeypatch.setattr(Cyclotomic, "coeffs", property(lambda x: reads.append(x) or coeffs.fget(x)))
    for name in ("z5_pentagon.txt", "d8_alpha.txt"):
        assert main(["spectrum", instance_path(name)]) == 0
    assert reads == [] and "exact" in capsys.readouterr().out


def test_adjacency_matrix_properties():
    G = make_cyclic(6)
    zero = colour_from_values(G, {})
    assert all(not any(row) for row in adjacency_matrix(zero))

    Gd, f = d5_s1()
    rows = adjacency_matrix(f)
    bag = sorted(f.values)
    for row in rows:
        assert sorted(row) == bag
        assert sum(row) == 9


def test_numeric_pentagon_closed_form():
    Z5 = make_cyclic(5)
    f = multiset_colour(Z5, [1, 4])
    numeric = spectrum_numeric(f)
    expected = sorted(
        (2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True
    )
    assert numeric == pytest.approx(expected, abs=1e-8)


def test_numeric_matches_exact_for_alpha():
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    comparison = compare_spectra(spec, spectrum_numeric(alpha))
    assert comparison.matches


def test_compare_flags_perturbation():
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    numeric = spectrum_numeric(beta)
    numeric[0] += 1e-3
    comparison = compare_spectra(spec, numeric)
    assert not comparison.matches
    assert comparison.max_deviation == pytest.approx(1e-3, rel=1e-6)


def trace_identities(f, spec):
    n = f.group.order
    total = Cyclotomic.from_rational(n, 0)
    total_sq = Cyclotomic.from_rational(n, 0)
    for _, degree, lam in spec.per_irreducible:
        total = reference_sum(total, reference_product(lam, degree**2))
        total_sq = reference_sum(total_sq, reference_product(lam, lam, degree**2))
    assert total == n * f.values[0]
    assert total_sq == Cyclotomic.from_rational(
        n, Fraction(n) * sum(v * v for v in f.values)
    )


def test_trace_and_frobenius_identities_sampled():
    rng = random.Random(99)
    for G in (make_cyclic(8), make_dihedral(6), make_product(make_cyclic(2), make_cyclic(4))):
        table = character_table(G)
        for _ in range(5):
            f = random_class_function(G, rng)
            trace_identities(f, spectrum_exact(f, table))


def test_exact_vs_numeric_sampled():
    rng = random.Random(123)
    for G in (make_cyclic(11), make_dihedral(5)):
        table = character_table(G)
        for _ in range(10):
            f = random_class_function(G, rng)
            spec = spectrum_exact(f, table)
            assert compare_spectra(spec, spectrum_numeric(f)).matches


def test_spectrum_multiplicity_total():
    rng = random.Random(4)
    for G in (make_dihedral(7), make_cyclic(9)):
        f = random_class_function(G, rng)
        spec = spectrum_exact(f, character_table(G))
        assert sum(m for _, m in spec.pairs) == G.order
        assert all(abs(v.to_complex().imag) < 1e-9 for v, _ in spec.pairs)


def table_family_colours(corpus):
    """The oracle corpus, the conftest examples and the colours of instances/*."""
    colours = list(corpus) + [d8_alpha()[1], d8_beta()[1]]
    colours += [d5_s1()[1], d5_s2()[1]]
    for path in sorted(INSTANCE_DIR.glob("*.txt")):
        colours.append(load_instance(str(path)).colour)
    return colours


def test_adjacency_minimal_polynomial_has_the_distinct_eigenvalues_as_roots(oracle_corpus):
    # The class-algebra route shares no arithmetic with the character sums:
    # its degree must be the number of distinct eigenvalues, and it must
    # vanish exactly, by Horner's rule, at each of them.
    for f in table_family_colours(oracle_corpus):
        poly = adjacency_minimal_polynomial(f)
        spec = spectrum_exact(f, character_table(f.group))
        assert (len(poly) - 1, poly[-1]) == (len(spec.pairs), 1), f
        for value, _ in spec.pairs:
            total = Cyclotomic.from_rational(value.conductor, 0)
            for c in reversed(poly):
                total = reference_sum(reference_product(total, value), c)
            assert not total, (f, value)


def test_adjacency_minimal_polynomial_of_a_generated_group():
    # S3 has eigenvalues 3a + 2b, 2b - 3a and -b for f = a on the
    # transpositions and b on the 3-cycles.
    G = make_from_generators([(1, 2, 0), (1, 0, 2)])
    a, b = Fraction(1, 10**7), Fraction(2, 3)
    f = colour_from_values(G, {g: a if G.inv(g) == g else b for g in range(1, 6)})
    expected = [3 * a + 2 * b, 2 * b - 3 * a, -b]
    poly = adjacency_minimal_polynomial(f)
    assert len(poly) == 4
    for root in expected:
        assert sum(c * root**j for j, c in enumerate(poly)) == 0
