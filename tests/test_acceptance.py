"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is exact and every stated time budget is asserted.
"""

import time
from fractions import Fraction

import pytest

from cayspec.cli import main
from cayspec.colour import colour_from_multiset
from cayspec.exactnum import Cyclotomic, divisors, euler_phi
from cayspec.galois import (
    checked_spectrum,
    distance_fixing_subgroup,
    fixing_subgroup,
    integrality_verdict,
    multiset_fixing_subgroup,
    splitting_field,
)
from cayspec.groups import class_bundles, make_cyclic, make_dihedral
from cayspec.search import classify
from cayspec.spectra import (
    character_table,
    compare_spectra,
    spectrum_exact,
    spectrum_numeric,
)
from conftest import (
    character_values,
    d5_s1,
    d5_s2,
    d8_alpha,
    d8_beta,
    product_of_cyclics,
    rational,
    reference_product,
    reference_sum,
    search_corpus_groups,
)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"
        return elapsed


def report(number: int, text: str, elapsed: float):
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {text}")


def test_criterion_01_alpha_example():
    budget = Budget(1.0)
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    surd = Cyclotomic.from_exponents(16, {2: Fraction(2, 5), 14: Fraction(2, 5)})
    assert dict(spec.pairs) == {
        rational(16, Fraction(241, 5)): 1,
        rational(16, Fraction(49, 5)): 1,
        rational(16, Fraction(-71, 5)): 1,
        rational(16, Fraction(-199, 5)): 1,
        rational(16, -1): 4,
        surd: 4,
        reference_product(surd, -1): 4,
    }
    assert surd.real_embedding() == pytest.approx(0.5656854249, abs=1e-10)
    H = fixing_subgroup(alpha)
    assert H.members == (1, 7, 9, 15)
    field = splitting_field(alpha)
    assert field.degree == 2
    assert field.primitive_element == Cyclotomic.from_exponents(16, {2: 2, 14: 2})
    assert field.minimal_poly == (Fraction(-8), Fraction(0), Fraction(1))
    report(1, "fractional dihedral-16 example reproduced exactly", budget.check())


def test_criterion_02_beta_example():
    budget = Budget(1.0)
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    assert dict(spec.pairs) == {
        rational(16, 58): 1,
        rational(16, 18): 1,
        rational(16, -14): 1,
        rational(16, -38): 1,
        rational(16, -6): 4,
        rational(16, 0): 8,
    }
    verdict = integrality_verdict(beta, fixing_subgroup(beta), spec)
    assert verdict.rational and verdict.integral
    report(2, "integer dihedral-16 example integral with exact spectrum", budget.check())


def test_criterion_03_s1_example():
    budget = Budget(1.0)
    G, f = d5_s1()
    spec = spectrum_exact(f, character_table(G))
    # sqrt(5) inside the conductor-10 field: 1 + 2*(z^2 + z^8)
    sqrt5 = Cyclotomic.from_exponents(10, {0: 1, 2: 2, 8: 2})
    assert sqrt5.real_embedding() == pytest.approx(5**0.5, abs=1e-12)
    minus_one = rational(10, -1)
    assert dict(spec.pairs) == {
        rational(10, 9): 1,
        minus_one: 1,
        reference_sum(minus_one, sqrt5): 4,
        reference_sum(minus_one, reference_product(sqrt5, -1)): 4,
    }
    assert multiset_fixing_subgroup(f).members == (1, 9)
    assert euler_phi(10) // len(fixing_subgroup(f).members) == 2
    report(3, "doubled-rotations multiset example with surd eigenvalues", budget.check())


def test_criterion_04_s2_example():
    budget = Budget(1.0)
    G, f = d5_s2()
    spec = spectrum_exact(f, character_table(G))
    assert dict(spec.pairs) == {
        rational(10, 8): 2,
        rational(10, -2): 8,
    }
    assert integrality_verdict(f, fixing_subgroup(f), spec).integral
    report(4, "doubled all-rotations multiset example integral", budget.check())


def test_criterion_05_stabilizer_identity(oracle_corpus):
    budget = Budget(30.0)
    for f in oracle_corpus:
        assert checked_spectrum(f, fixing_subgroup(f)) is not None
    report(
        5,
        f"stabilizer intersection equals fixing subgroup on {len(oracle_corpus)} "
        "random class functions",
        budget.check(),
    )


def test_criterion_06_exact_vs_numeric(oracle_corpus):
    budget = Budget(60.0)
    for f in oracle_corpus:
        spec = spectrum_exact(f, character_table(f.group))
        numeric = spectrum_numeric(f)
        assert compare_spectra(spec, numeric).matches
    report(
        6,
        f"Jacobi oracle matches exact spectra on {len(oracle_corpus)} instances",
        budget.check(),
    )


def test_criterion_07_trace_and_frobenius(oracle_corpus):
    budget = Budget(60.0)
    for f in oracle_corpus:
        n = f.group.order
        spec = spectrum_exact(f, character_table(f.group))
        total = rational(n, 0)
        total_sq = rational(n, 0)
        for _, degree, lam in spec.per_irreducible:
            total = reference_sum(total, reference_product(lam, degree**2))
            total_sq = reference_sum(total_sq, reference_product(lam, lam, degree**2))
        assert total == rational(n, n * f.values[0])
        assert total_sq == rational(
            n, Fraction(n) * sum(v * v for v in f.values)
        )
    report(7, "trace and Frobenius identities exact on the corpus", budget.check())


def character_invariant_groups():
    groups = [make_cyclic(n) for n in list(range(1, 17)) + [20, 24, 40]]
    groups += [make_dihedral(m) for m in list(range(1, 13)) + [20]]
    groups += [
        product_of_cyclics(2, 2),
        product_of_cyclics(2, 3),
        product_of_cyclics(2, 4),
        product_of_cyclics(3, 3),
        product_of_cyclics(4, 4),
        product_of_cyclics(2, 2, 2),
        product_of_cyclics(2, 3, 4),
        product_of_cyclics(2, 2, 2, 2),
        product_of_cyclics(2, 3, 5),
    ]
    assert all(G.order <= 40 for G in groups)
    return groups


def test_criterion_08_character_table_invariants():
    budget = Budget(120.0)
    count = 0
    for G in character_invariant_groups():
        table = character_table(G)
        n = G.order
        part = table.partition
        assert sum(d**2 for d in table.degrees) == n
        sizes = [len(c) for c in part.classes]
        inv_class = [part.class_of[G.inv(rep)] for rep in part.representatives]
        values = character_values(table)
        for i, row_i in enumerate(values):
            for j, row_j in enumerate(values):
                total = reference_sum(
                    *(reference_product(row_i[ci], row_j[inv_class[ci]], size)
                      for ci, size in enumerate(sizes))
                )
                assert total == rational(n, n if i == j else 0)
        for ci in range(len(part.classes)):
            for cj in range(len(part.classes)):
                total = reference_sum(
                    *(reference_product(row[ci], row[inv_class[cj]]) for row in values)
                )
                assert total == rational(n, n // sizes[ci] if ci == cj else 0)
        count += 1
    report(8, f"orthogonality exact for {count} tables of order <= 40", budget.check())


def test_criterion_09_d4_negative_search(capsys):
    budget = Budget(1.0)
    assert main(["search", "--group", "dihedral:4", "--degree", "2"]) == 1
    assert (
        main(["search", "--group", "dihedral:4", "--degree", "2", "--connected"]) == 1
    )
    capsys.readouterr()
    elapsed = budget.check()
    with capsys.disabled():
        report(9, "no 2-integral normal Cayley graph at dihedral order 8", elapsed)


def test_criterion_10_degree_divides_and_witnesses():
    budget = Budget(60.0)
    checked = 0
    for G in search_corpus_groups():
        half = euler_phi(G.order) // 2
        result = classify(G)
        for record in result.records:
            assert half % record.degree == 0
            checked += 1
    for n in (5, 8, 11, 12, 16):
        result = classify(make_cyclic(n))
        degrees = {r.degree for r in result.records}
        for d in divisors(euler_phi(n) // 2):
            assert d in degrees, f"no circulant of order {n} with degree {d}"
    report(10, f"degree divides half the totient on {checked} sets, witnesses found", budget.check())


def test_criterion_11_degree_equals_distance_degree():
    budget = Budget(120.0)
    total_connected = 0
    for G in search_corpus_groups():
        records = classify(G, require_connected=True).records
        mismatched = [r for r in records if r.distance_degree != r.degree]
        assert not mismatched, f"counterexamples on order {G.order}: {mismatched}"
        total_connected += len(records)
    report(
        11,
        f"degree equals distance degree on {total_connected} connected graphs",
        budget.check(),
    )


def multiset_corpus():
    return [
        (make_dihedral(5), 2),
        (make_dihedral(4), 2),
        (make_cyclic(5), 3),
        (make_cyclic(6), 3),
        (make_cyclic(8), 2),
    ]


def test_criterion_12_dual_route_cross_checks():
    budget = Budget(120.0)
    # Simple sets: classify checks every fixing subgroup of the bundle route
    # (multiplicity and word-length vectors) on elements in coset form and
    # raises on any disagreement, so a completed pass is the verification.
    for G in search_corpus_groups():
        classify(G)
    # Multisets: same identities, plus explicit shadow containment.
    pairs_checked = 0
    for G, cap in multiset_corpus():
        result = classify(G, cap)
        bundles = class_bundles(G)
        for record, vector in zip(result.records, result.vectors()):
            if all(m <= 1 for m in vector):
                continue
            counts = [0] * G.order
            for bundle, m in zip(bundles, vector):
                for g in bundle:
                    counts[g] = m
            multi = multiset_fixing_subgroup(colour_from_multiset(G, dict(enumerate(counts))))
            shadow = multiset_fixing_subgroup(
                colour_from_multiset(G, {g: min(m, 1) for g, m in enumerate(counts)})
            )
            assert set(multi.members) <= set(shadow.members)
            phi = euler_phi(G.order)
            assert (phi // len(multi.members)) % (phi // len(shadow.members)) == 0
            pairs_checked += 1
        for record, vector in zip(result.records, result.vectors()):
            if record.distance_degree is not None:
                counts = [0] * G.order
                for bundle, m in zip(bundles, vector):
                    for g in bundle:
                        counts[g] = min(m, 1)
                distance_fixing_subgroup(colour_from_multiset(G, dict(enumerate(counts))))
    report(
        12,
        f"dual-route subgroup identities agree; {pairs_checked} shadow containments",
        budget.check(),
    )
