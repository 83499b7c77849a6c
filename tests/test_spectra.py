import math
import random
from fractions import Fraction

import pytest

import cayspec.spectra as spectra_mod
from cayspec.cli import main
from cayspec.colour import (
    ConnectionMultiset,
    class_weight_vector,
    colour_from_multiset,
    colour_from_values,
)
from cayspec.errors import InternalInconsistency, UnsupportedFamily
from cayspec.exactnum import Cyclotomic, galois_apply
from cayspec.groups import (
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
)
from cayspec.spectra import (
    adjacency_matrix,
    char_table_abelian,
    char_table_dihedral,
    character_table,
    compare_spectra,
    spectrum_exact,
    spectrum_numeric,
)
from cayspec.units import unit_group
from conftest import d5_s1, d5_s2, d8_alpha, d8_beta, instance_path, random_class_function


def check_row_orthogonality(table):
    G = table.group
    n = G.order
    part = table.partition
    sizes = [len(c) for c in part.classes]
    inv_class = [
        part.class_of[G.inv(rep)] for rep in part.representatives
    ]
    for i, row_i in enumerate(table.rows):
        for j, row_j in enumerate(table.rows):
            total = Cyclotomic.zero(n)
            for ci in range(len(sizes)):
                total = total + row_i.values[ci] * row_j.values[inv_class[ci]] * sizes[ci]
            assert total == (n if i == j else 0)


def check_column_orthogonality(table):
    G = table.group
    n = G.order
    part = table.partition
    inv_class = [part.class_of[G.inv(rep)] for rep in part.representatives]
    for ci in range(len(part.classes)):
        for cj in range(len(part.classes)):
            total = Cyclotomic.zero(n)
            for row in table.rows:
                total = total + row.values[ci] * row.values[inv_class[cj]]
            expected = n // len(part.classes[ci]) if ci == cj else 0
            assert total == expected


def test_cyclic_trivial_table():
    table = char_table_abelian(make_cyclic(1))
    assert len(table.rows) == 1
    assert table.rows[0].values[0] == 1


def test_cyclic_table_values():
    table = char_table_abelian(make_cyclic(4))
    assert table.rows[1].values[1] == Cyclotomic.from_exponents(4, {1: 1})
    assert table.rows[2].values[2] == 1  # z^(2*2) = z^4 = 1


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclic_orthogonality(n):
    check_row_orthogonality(char_table_abelian(make_cyclic(n)))


def test_abelian_product_table():
    G = make_product(make_cyclic(2), make_cyclic(2))
    table = char_table_abelian(G)
    assert len(table.rows) == 4
    values = {row.values[g] for row in table.rows for g in range(4)}
    assert values == {Cyclotomic.one(4), Cyclotomic.from_rational(4, -1)}


def test_abelian_character_count_and_orthogonality():
    G = make_product(make_cyclic(2), make_cyclic(3))
    table = char_table_abelian(G)
    assert len(table.rows) == G.order
    check_row_orthogonality(table)
    check_column_orthogonality(table)


def test_abelian_rejects_nonabelian_factor():
    G = make_product(make_dihedral(3), make_cyclic(2))
    with pytest.raises(UnsupportedFamily):
        char_table_abelian(G)


def test_dihedral_tables():
    D8 = make_dihedral(8)
    table = char_table_dihedral(D8)
    degrees = sorted(row.degree for row in table.rows)
    assert degrees == [1, 1, 1, 1, 2, 2, 2]
    assert sum(d * d for d in degrees) == 16

    D5 = make_dihedral(5)
    table5 = char_table_dihedral(D5)
    assert sorted(row.degree for row in table5.rows) == [1, 1, 2, 2]


def test_dihedral_sign_character_on_reflections():
    for m in (3, 4, 5, 8):
        G = make_dihedral(m)
        table = char_table_dihedral(G)
        sign_row = table.rows[1]
        part = table.partition
        for ci, rep in enumerate(part.representatives):
            if rep >= m:
                assert sign_row.values[ci] == -1


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
        return Cyclotomic.from_exponents(n, {2 * k * h: 1}) + Cyclotomic.from_exponents(
            n, {-2 * k * h: 1}
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
        ref[f"dim2_{h}"] = lambda g, h=h: Cyclotomic.zero(n) if g >= m else rot(g, h)
    return ref


@pytest.mark.parametrize(
    "group, orders",
    [
        (lambda: make_cyclic(12), (12,)),
        (lambda: make_product(make_cyclic(4), make_cyclic(6)), (4, 6)),
        (lambda: make_product(make_cyclic(3), make_cyclic(8)), (3, 8)),
        (lambda: make_dihedral(5), None),
        (lambda: make_dihedral(6), None),
        (lambda: make_dihedral(8), None),
    ],
    ids=["cyclic:12", "product:4,6", "product:3,8", "dihedral:5", "dihedral:6", "dihedral:8"],
)
def test_shared_value_tables_match_reference(group, orders):
    G = group()
    table = character_table(G)
    ref = dihedral_reference(G.order // 2) if orders is None else abelian_reference(G, orders)
    assert sorted(row.label for row in table.rows) == sorted(ref)
    for row in table.rows:
        for ci, cls in enumerate(table.partition.classes):
            for g in cls:
                assert row.values[ci] == ref[row.label](g), (row.label, g)
    # every cell refers to one of a few shared values
    if orders is None:
        two_dim = {id(v) for row in table.rows if row.degree == 2 for v in row.values}
        assert len(two_dim) <= G.order // 4 + 2
    else:
        assert len({id(v) for row in table.rows for v in row.values}) <= G.order


def test_spectrum_exact_rejects_non_real_eigenvalue():
    # The trivial row with z_5 swapped in on a weighted class gives 1 + z_5.
    Z5 = make_cyclic(5)
    f = colour_from_multiset(ConnectionMultiset.from_elements(Z5, [1, 4]))
    table = character_table(Z5)
    weighted = next(ci for ci, rep in enumerate(table.partition.representatives) if rep == 1)
    values = list(table.rows[0].values)
    values[weighted] = Cyclotomic.from_exponents(5, {1: 1})
    rows = (table.rows[0]._replace(values=tuple(values)),) + table.rows[1:]
    with pytest.raises(InternalInconsistency, match="chi0 is not real"):
        spectrum_exact(f, table._replace(rows=rows))
    spectrum_exact(f, table)


def reference_spectrum(f, table):
    # The per-row loop the Galois orbits replaced: one character sum and one
    # realness test per row.
    n = f.group.order
    weights = class_weight_vector(f)
    per_irr = []
    merged = {}
    for row in table.rows:
        lam = Cyclotomic.linear_combination(
            n, [(w / row.degree, chi) for w, chi in zip(weights, row.values) if w]
        )
        assert galois_apply(n - 1, lam) == lam
        per_irr.append((row.label, row.degree, lam))
        merged[lam] = merged.get(lam, 0) + row.degree**2
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
    ] + [make_dihedral(m) for m in (3, 4, 5, 6, 8, 16)]


def group_id(G):
    if G.cyclic_orders is None:
        return f"dihedral{G.order // 2}"
    return "x".join(map(str, G.cyclic_orders))


@pytest.mark.parametrize("G", orbit_groups(), ids=group_id)
def test_spectrum_orbits_match_per_row_reference(G):
    table = character_table(G)
    rows = [r for orbit in table.row_orbits for r, _ in orbit]
    assert sorted(rows) == list(range(len(table.rows)))
    if G.order <= 32:
        # Each orbit is the whole Galois orbit of its first row, and sigma_h
        # maps the first row's values to row r's.
        units = unit_group(G.order).members
        for (first, _), *rest in table.row_orbits:
            values = table.rows[first].values
            fixing = [h for h in units if tuple(galois_apply(h, v) for v in values) == values]
            assert (len(rest) + 1) * len(fixing) == len(units)
            for r, h in rest:
                assert table.rows[r].values == tuple(galois_apply(h, v) for v in values)
    rng = random.Random(G.order)
    colours = [random_class_function(G, rng) for _ in range(3)]
    colours.append(colour_from_values(G, {g: 1 for g in range(1, G.order)}))
    for f in colours:
        spec = spectrum_exact(f, table)
        assert (spec.pairs, spec.per_irreducible) == reference_spectrum(f, table)


def test_orbit_images_checked_by_the_numeric_oracle(monkeypatch, capsys):
    # Every row's eigenvalue wrongly its orbit representative's own value:
    # on D8 dim2_3 takes dim2_1's sqrt 2 term unchanged, and the Jacobi
    # cross-check must refuse the spectrum (exit 3).
    monkeypatch.setattr(spectra_mod, "galois_apply", lambda h, x: x)
    assert main(["spectrum", instance_path("d8_alpha.txt")]) == 3
    assert "spectrum.match = false" in capsys.readouterr().out


def test_character_table_dispatch_unsupported():
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    with pytest.raises(UnsupportedFamily):
        character_table(G)


def test_spectrum_zero_colour():
    G = make_dihedral(4)
    f = colour_from_values(G, {})
    spec = spectrum_exact(f, character_table(G))
    assert spec.pairs == ((Cyclotomic.zero(8), 8),)


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
        -surd: 4,
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
    spec = spectrum_exact(colour_from_multiset(S2), character_table(G))
    assert dict(spec.pairs) == {
        Cyclotomic.from_rational(10, 8): 2,
        Cyclotomic.from_rational(10, -2): 8,
    }


def test_spectrum_sorted_descending():
    G, S1 = d5_s1()
    spec = spectrum_exact(colour_from_multiset(S1), character_table(G))
    embeddings = [v.real_embedding() for v, _ in spec.pairs]
    assert embeddings == sorted(embeddings, reverse=True)


def test_adjacency_matrix_properties():
    G = make_cyclic(6)
    zero = colour_from_values(G, {})
    assert all(not any(row) for row in adjacency_matrix(zero))

    Gd, S1 = d5_s1()
    f = colour_from_multiset(S1)
    rows = adjacency_matrix(f)
    bag = sorted(f.values)
    for row in rows:
        assert sorted(row) == bag
        assert sum(row) == 9


def test_numeric_pentagon_closed_form():
    Z5 = make_cyclic(5)
    f = colour_from_multiset(ConnectionMultiset.from_elements(Z5, [1, 4]))
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
    assert comparison.worst_pair is not None
    assert comparison.max_deviation == pytest.approx(1e-3, rel=1e-6)


def trace_identities(f, spec):
    n = f.group.order
    total = Cyclotomic.zero(n)
    total_sq = Cyclotomic.zero(n)
    for _, degree, lam in spec.per_irreducible:
        total = total + lam * degree**2
        total_sq = total_sq + lam * lam * degree**2
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
