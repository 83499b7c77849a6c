import pickle
import random
from fractions import Fraction
from operator import itemgetter

import pytest

import cayspec.galois as galois_mod
import cayspec.search as search_mod
import cayspec.spectra as spectra_mod
import cayspec.units as units_mod
from cayspec.cli import main
from cayspec.colour import ConnectionMultiset, colour_from_multiset, colour_from_values
from cayspec.errors import HypothesisFails, InternalInconsistency, NotAUnit
from cayspec.exactnum import (
    Cyclotomic,
    euler_phi,
    galois_apply,
    galois_orbit,
    minimal_polynomial,
)
from cayspec.galois import (
    _gauss_period,
    _primitive_search,
    algebraic_degree,
    distance_report,
    fixing_subgroup,
    integrality_verdict,
    is_algebraically_integral_over,
    multiset_fixing_subgroup,
    splitting_field,
    transfer_check,
    verify_fixing_subgroup_equals_stabilizers,
)
from cayspec.groups import make_cyclic, make_dihedral, make_from_generators
from cayspec.search import SearchSpec, SetRecord, classify
from cayspec.spectra import Spectrum, character_table, spectrum_exact
from cayspec.units import UnitSubgroup, close_generators, fixing_tables, unit_group, unit_subgroup
from conftest import d5_s1, d5_s2, d8_alpha, d8_beta, instance_path, random_class_function


def test_unit_subgroup_validation():
    H = unit_subgroup(16, [1, 7, 9, 15])
    assert H.members == (1, 7, 9, 15)
    with pytest.raises(NotAUnit):
        unit_subgroup(16, [1, 2])
    with pytest.raises(ValueError):
        unit_subgroup(16, [1, 3])  # 3*3 = 9 escapes
    with pytest.raises(ValueError):
        unit_subgroup(16, [3, 9, 11])  # missing 1
    with pytest.raises(ValueError, match="7 escapes"):
        unit_subgroup(8, [1, 3, 5])  # every square is 1; only 3*5 = 7 escapes


def test_records_are_values():
    # Equal fields give equal, equally hashed values; fields cannot be
    # assigned; SetRecords cross to `--jobs` workers by pickle.
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    record = classify(SearchSpec(make_cyclic(6))).records[2]
    H = unit_subgroup(16, [1, 7, 9, 15])
    cases = [
        (unit_group(16), close_generators(16, unit_group(16).generators), "members"),
        (H, UnitSubgroup(16, (1, 7, 9, 15), (7, 9)), "members"),
        (record, SetRecord(*record), "degree"),
        (spec, Spectrum(*spec), "pairs"),
    ]
    for value, copy, field in cases:
        assert value == copy and value is not copy
        assert hash(value) == hash(copy)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert H != unit_subgroup(16, [1, 15])
    assert len(unit_group(16)) == 8 and 7 in unit_group(16) and 2 not in unit_group(16)
    assert len(H) == 4 and 9 in H and 3 not in H
    assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(H)) == H
    assert pickle.loads(pickle.dumps(unit_group(16))) == unit_group(16)


def test_close_generators():
    assert close_generators(16, [7, 9]).members == (1, 7, 9, 15)
    assert close_generators(16, [3]).members == (1, 3, 9, 11)
    assert close_generators(16, []).members == (1,)
    with pytest.raises(NotAUnit):
        close_generators(16, [6])


def test_generators_regenerate_members():
    for n, members in ((16, (1, 7, 9, 15)), (10, (1, 9)), (5, (1, 2, 3, 4))):
        H = unit_subgroup(n, members)
        assert close_generators(n, H.generators).members == members


def test_fixing_subgroup_alpha():
    _, alpha = d8_alpha()
    assert fixing_subgroup(alpha).members == (1, 7, 9, 15)


def test_fixing_subgroup_constant():
    G = make_dihedral(6)
    f = colour_from_values(G, {g: 5 for g in range(G.order)})
    assert fixing_subgroup(f).members == unit_group(12).members


def test_fixing_subgroup_s1():
    _, S1 = d5_s1()
    f = colour_from_multiset(S1)
    assert fixing_subgroup(f).members == (1, 9)


def test_algebraic_degree_examples():
    _, alpha = d8_alpha()
    assert algebraic_degree(alpha) == 2
    _, S1 = d5_s1()
    assert algebraic_degree(colour_from_multiset(S1)) == 2
    Z7 = make_cyclic(7)
    complete = colour_from_multiset(
        ConnectionMultiset.from_elements(Z7, range(1, 7))
    )
    assert algebraic_degree(complete) == 1


def test_fixing_subgroup_contains_negation():
    rng = random.Random(17)
    for G in (make_cyclic(9), make_dihedral(7), make_cyclic(12)):
        n = G.order
        f = random_class_function(G, rng)
        H = fixing_subgroup(f)
        assert 1 in H.members
        assert n - 1 in H.members
        assert (euler_phi(n) // 2) % algebraic_degree(f) == 0


def test_splitting_field_alpha():
    _, alpha = d8_alpha()
    report = splitting_field(alpha)
    assert report.degree == 2
    assert report.fixing_subgroup.members == (1, 7, 9, 15)
    # the first subgroup period vanishes, the second certifies the field
    assert not _gauss_period(16, (1, 7, 9, 15), 1)
    assert report.primitive_element == Cyclotomic.from_exponents(16, {2: 2, 14: 2})
    assert report.minimal_poly == (Fraction(-8), Fraction(0), Fraction(1))
    verdict = integrality_verdict(alpha)
    assert verdict.rational is False and verdict.integral is False


def test_splitting_field_s1():
    _, S1 = d5_s1()
    report = splitting_field(colour_from_multiset(S1))
    assert report.degree == 2
    assert len(report.minimal_poly) - 1 == 2


def test_splitting_field_constant():
    G = make_cyclic(6)
    f = colour_from_values(G, {g: 2 for g in range(6)})
    report = splitting_field(f)
    assert report.degree == 1
    assert report.fixing_subgroup.members == unit_group(6).members
    assert report.primitive_element == Cyclotomic.one(6)


def test_field_report_invariants():
    rng = random.Random(23)
    for G in (make_cyclic(10), make_dihedral(6)):
        for _ in range(5):
            f = random_class_function(G, rng)
            report = splitting_field(f)
            n = G.order
            assert report.degree * len(report.fixing_subgroup) == euler_phi(n)
            if report.primitive_element is not None:
                assert len(report.minimal_poly) - 1 == report.degree
                for h in report.fixing_subgroup.members:
                    assert galois_apply(h, report.primitive_element) == report.primitive_element


def test_eigenvalues_fixed_by_fixing_subgroup():
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    H = fixing_subgroup(alpha)
    for value, _ in spec.pairs:
        for h in H.members:
            assert galois_apply(h, value) == value


def test_stabilizer_identity_alpha():
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    assert verify_fixing_subgroup_equals_stabilizers(alpha, spec)


def test_stabilizer_identity_rational_spectrum():
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    assert verify_fixing_subgroup_equals_stabilizers(beta, spec)


def test_stabilizer_identity_refuses_a_wrong_subgroup(monkeypatch):
    # H = {1} leaves unit 7 as a coset representative, and 7 fixes every
    # eigenvalue; H = all units has generator 3, which moves the surds.
    G, alpha = d8_alpha()
    spec = spectrum_exact(alpha, character_table(G))
    assert verify_fixing_subgroup_equals_stabilizers(alpha, spec)
    for wrong in ((1,), unit_group(16).members):
        monkeypatch.setattr(
            galois_mod, "fixing_subgroup", lambda f, wrong=wrong: unit_subgroup(16, wrong)
        )
        assert verify_fixing_subgroup_equals_stabilizers(alpha, spec) is False


def test_stabilizer_identity_random():
    rng = random.Random(31)
    count = 0
    for G in [make_cyclic(n) for n in range(3, 13)] + [
        make_dihedral(m) for m in range(2, 7)
    ]:
        table = character_table(G)
        for _ in range(4):
            f = random_class_function(G, rng)
            assert verify_fixing_subgroup_equals_stabilizers(
                f, spectrum_exact(f, table)
            )
            count += 1
    assert count >= 50


def test_integral_over_trivial_subgroup():
    rng = random.Random(41)
    G = make_dihedral(5)
    f = random_class_function(G, rng)
    assert is_algebraically_integral_over(f, close_generators(10, []))


def test_integral_over_examples():
    _, alpha = d8_alpha()
    assert is_algebraically_integral_over(alpha, unit_subgroup(16, (1, 7, 9, 15)))
    assert not is_algebraically_integral_over(alpha, unit_group(16))
    _, beta = d8_beta()
    assert is_algebraically_integral_over(beta, unit_group(16))


def test_integrality_verdicts():
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    verdict = integrality_verdict(beta, spec)
    assert verdict.rational and verdict.integral

    G2, S2 = d5_s2()
    f2 = colour_from_multiset(S2)
    verdict2 = integrality_verdict(f2, spectrum_exact(f2, character_table(G2)))
    assert verdict2.integral

    _, alpha = d8_alpha()
    assert not integrality_verdict(alpha).rational


def test_integrality_without_characters():
    # A nonabelian generated group has no exact table; the subgroup argument
    # and numeric rounding must still decide.
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    complete = colour_from_values(G, {g: 1 for g in range(1, G.order)})
    verdict = integrality_verdict(complete)
    assert verdict.rational and verdict.integral
    assert verdict.method == "algebraic-integer argument"

    halves = colour_from_values(
        G, {g: Fraction(1, 2) for g in range(1, G.order)}
    )
    verdict_halves = integrality_verdict(halves)
    assert verdict_halves.rational
    assert verdict_halves.integral is False
    assert verdict_halves.method == "numeric rounding"


def test_multiset_fixing_subgroup_examples():
    _, S1 = d5_s1()
    assert multiset_fixing_subgroup(S1).members == (1, 9)
    _, S2 = d5_s2()
    assert multiset_fixing_subgroup(S2).members == unit_group(10).members
    Z5 = make_cyclic(5)
    power_closed = ConnectionMultiset.from_elements(Z5, [1, 2, 3, 4])
    assert multiset_fixing_subgroup(power_closed).members == unit_group(5).members


# Requests whose fixing subgroups are {1, -1}, with the errors each fault
# must raise: (argv, identity pullbacks, swapped pullback of -1).
FAULT_CASES = [
    (
        ["degree", instance_path("d5_s1.txt")],
        "colour function: the bundle route fixes it by unit 3, "
        "the element route moves it at a (0 there, 2 at a**3)",
        "colour function: the bundle route moves it by unit 9 at a, "
        "the element route finds it fixed",
    ),
    (
        ["distance", instance_path("z5_pentagon.txt")],
        "colour function: the bundle route fixes it by unit 2, "
        "the element route moves it at 1 (1 there, 2 at 1**2)",
        "colour function: the bundle route moves it by unit 4 at 1, "
        "the element route finds it fixed",
    ),
    (
        ["check", instance_path("d5_s1.txt"), "--subgroup", "3"],
        "colour function: the bundle route fixes it by unit 3, "
        "the element route moves it at a (0 there, 2 at a**3)",
        "colour function: the bundle route moves it by unit 9 at a, "
        "the element route finds it fixed",
    ),
    (
        ["search", "--group", "cyclic:5"],
        "set 0, multiplicity vector: the bundle route fixes it by unit 2, "
        "the element route moves it at 1 (1 there, 0 at 1**2)",
        "set 0, multiplicity vector: the bundle route moves it by unit 4 at 1, "
        "the element route finds it fixed",
    ),
]


def test_dual_routes_raise_on_injected_mismatch(monkeypatch, capsys):
    # Every command reads its fixing subgroups off the shared bundle
    # pullbacks and checks them on elements in coset form; a fault in the
    # pullbacks must exit 3 and name the unit and the element.
    FixingTables = units_mod.FixingTables

    class IdentityPermutations(FixingTables):
        # Every pi_h wrongly the identity: the bundle route fixes every unit.
        def __init__(self, G):
            super().__init__(G)
            identity = itemgetter(*range(len(self.bundles) + 1))
            self.pullbacks = tuple(identity for _ in self.units)

    class SwappedInversion(FixingTables):
        # pi_-1 wrongly swaps the first two bundles: inversion, which fixes
        # every bundle, drops out, so its coset must not be found fixed.
        def __init__(self, G):
            super().__init__(G)
            swap = itemgetter(1, 0, *range(2, len(self.bundles) + 1))
            self.pullbacks = self.pullbacks[:-1] + (swap,)

    for argv, identity_error, swap_error in FAULT_CASES:
        for tables, expected in (
            (IdentityPermutations, identity_error),
            (SwappedInversion, swap_error),
        ):
            monkeypatch.setattr(units_mod, "FixingTables", tables)
            assert main(argv) == 3, (argv, tables)
            err = capsys.readouterr().err
            assert err.startswith("internal inconsistency: "), err
            assert expected in err, err


def test_layer_sum_form_raises_on_injected_mismatch(monkeypatch, capsys):
    # One per-irreducible eigenvalue shifted by 1: the layered character sum
    # must notice, name the row and both values, and the CLI must exit 3.
    real = galois_mod.spectrum_exact

    def shifted(f, table):
        spec = real(f, table)
        (label, deg, lam), *rest = spec.per_irreducible
        return spec._replace(per_irreducible=((label, deg, lam + 1), *rest))

    monkeypatch.setattr(galois_mod, "spectrum_exact", shifted)
    pentagon = ConnectionMultiset.from_elements(make_cyclic(5), [1, 4])
    with pytest.raises(InternalInconsistency) as info:
        distance_report(pentagon)
    assert "chi0 is 6, the character sum gives 7" in str(info.value)
    assert main(["distance", instance_path("z5_pentagon.txt")]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_orbit_image_units_checked_by_the_layer_sum(monkeypatch, capsys):
    # Each orbit image built with the square of the right unit: on Z5 chi2
    # gets sigma_4 of chi1's eigenvalue, which is chi1's own, and the layered
    # character sum must refuse it (exit 3).
    real = spectra_mod.galois_apply
    monkeypatch.setattr(
        spectra_mod, "galois_apply", lambda h, x: real(h * h % x.conductor, x)
    )
    pentagon = ConnectionMultiset.from_elements(make_cyclic(5), [1, 4])
    with pytest.raises(InternalInconsistency, match="layered distance eigenvalue of chi2"):
        distance_report(pentagon)
    assert main(["distance", instance_path("z5_pentagon.txt")]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def reference_primitive_search(n, members, degree):
    # The search the coset test replaced: every period built up front, each
    # candidate accepted on the size of its whole Galois orbit.
    if degree == 1:
        return Cyclotomic.one(n)
    periods = [_gauss_period(n, members, k) for k in range(1, n)]

    def candidates():
        yield from periods
        for i in range(len(periods)):
            for j in range(i + 1, len(periods)):
                for c in range(1, 9):
                    yield periods[i] + periods[j] * c

    return next((x for x in candidates() if len(galois_orbit(x)) == degree), None)


@pytest.mark.parametrize("G", [make_cyclic(16), make_cyclic(24), make_dihedral(15), make_cyclic(60)],
                         ids=lambda G: f"{G.family}{G.order}")
def test_primitive_search_matches_orbit_reference(G):
    n = G.order
    tables = fixing_tables(G)
    units = unit_group(n).members
    subgroups = {close_generators(n, [u]).members for u in units}
    subgroups |= {close_generators(n, [u, n - 1]).members for u in units}
    for members in sorted(subgroups):
        H = unit_subgroup(n, members)
        degree = euler_phi(n) // len(H)
        x, poly = _primitive_search(tables, H, degree)
        assert x is not None
        assert x == reference_primitive_search(n, members, degree), members
        assert poly == minimal_polynomial(x)


def test_shadow_containment_raises_on_injected_mismatch(monkeypatch):
    # A multiset whose fixing subgroup escapes its shadow's must be refused,
    # by the containment check itself: the bundle route here claims every
    # unit fixes {1, 4} taken twice (set 1), while its shadow {1, 4} is
    # fixed by the units 1 and 4 only.
    real = search_mod.fixing_units

    def escaping(tables, extended):
        return tables.units if extended == (2, 0, 0) else real(tables, extended)

    monkeypatch.setattr(search_mod, "fixing_units", escaping)
    spec = SearchSpec(make_cyclic(5), mode="multisets", multiplicity_cap=2)
    with pytest.raises(InternalInconsistency, match="set 1: multiset fixing subgroup escapes"):
        classify(spec)


def test_distance_report_complete_graph():
    G = make_dihedral(4)
    S = ConnectionMultiset.from_elements(G, range(1, 8))
    report = distance_report(S)
    assert report.layering.diameter == 1
    adj_spec = spectrum_exact(colour_from_multiset(S), character_table(G))
    assert report.spectrum.pairs == adj_spec.pairs
    assert report.field.degree == algebraic_degree(colour_from_multiset(S))


def test_distance_report_pentagon():
    Z5 = make_cyclic(5)
    report = distance_report(ConnectionMultiset.from_elements(Z5, [1, 4]))
    assert [int(v) for v in report.layering.colour.values] == [0, 1, 2, 2, 1]
    assert report.field.fixing_subgroup.members == (1, 4)
    assert report.field.degree == 2


def test_transfer_check_reflexive():
    G, alpha = d8_alpha()
    for gens in ([], [7], [7, 9], [3], [15]):
        H_K = close_generators(16, gens)
        transfer_check(alpha, alpha, H_K)


def test_transfer_check_scaling_preserves_degree():
    G, alpha = d8_alpha()
    doubled = colour_from_values(
        G, {g: 2 * v for g, v in enumerate(alpha.values)}
    )
    assert transfer_check(alpha, doubled, unit_group(16)) is False
    assert transfer_check(alpha, doubled, unit_subgroup(16, (1, 7, 9, 15))) is True
    assert algebraic_degree(alpha) == algebraic_degree(doubled)


def test_transfer_check_hypothesis_fails():
    G, alpha = d8_alpha()
    constant = colour_from_values(G, {g: 1 for g in range(16)})
    with pytest.raises(HypothesisFails):
        transfer_check(alpha, constant, unit_group(16))


def test_transfer_check_random_pairs():
    # transfer_check itself asserts the biconditional; here we only feed it
    # pairs and subgroups, skipping those that violate its hypothesis.
    rng = random.Random(53)
    G = make_dihedral(8)
    n = G.order
    subgroups = []
    for h in unit_group(n).members:
        H = close_generators(n, [h])
        if H.members not in [s.members for s in subgroups]:
            subgroups.append(H)
    checked = 0
    for _ in range(40):
        alpha = random_class_function(G, rng)
        beta = random_class_function(G, rng)
        for H_K in subgroups:
            try:
                transfer_check(alpha, beta, H_K)
                checked += 1
            except HypothesisFails:
                pass
    assert checked >= 20
