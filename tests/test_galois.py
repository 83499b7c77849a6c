import pickle
import random
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import pytest

import cayspec.galois as galois_mod
import cayspec.search as search_mod
import cayspec.units as units_mod
from cayspec.cli import load_instance, main
from cayspec.colour import ColourFunction, colour_from_values
from cayspec.errors import InternalInconsistency
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
    checked_spectrum,
    distance_report,
    fixing_subgroup,
    integrality_verdict,
    is_algebraically_integral_over,
    multiset_fixing_subgroup,
    splitting_field,
)
from cayspec.groups import (
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power_map,
)
from cayspec.search import SetRecord, classify
from cayspec.spectra import Spectrum, character_table, spectrum_exact
from cayspec.units import UnitSubgroup, close_generators, fixing_tables, unit_group, unit_subgroup
from conftest import (
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


def period(n, members, k):
    """The Gauss period sum of z^(k*h) over h in members, from its exponent counts."""
    return Cyclotomic.from_exponents(n, _gauss_period(n, members, k))


def test_unit_subgroup_validation():
    H = unit_subgroup(16, [1, 7, 9, 15])
    assert H.members == (1, 7, 9, 15)
    with pytest.raises(ValueError, match="^2 is not a unit modulo 16$"):
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
    record = classify(make_cyclic(6)).records[2]
    H = unit_subgroup(16, [1, 7, 9, 15])
    cases = [
        (unit_group(16), close_generators(16, unit_group(16).generators), "members"),
        (H, UnitSubgroup(16, (1, 7, 9, 15), (7, 9)), "members"),
        (record, SetRecord(*record), "degree"),
        (spec, Spectrum(*spec), "pairs"),
        (alpha, ColourFunction(G, tuple(alpha.values)), "values"),
    ]
    for value, copy, field in cases:
        assert value == copy and value is not copy
        assert hash(value) == hash(copy)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert H != unit_subgroup(16, [1, 15])
    # A colour is equal only on the same group object.
    assert alpha != ColourFunction(d8_alpha()[0], alpha.values)
    units = unit_group(16).members
    assert len(units) == 8 and 7 in units and 2 not in units
    assert len(H.members) == 4 and 9 in H.members and 3 not in H.members
    assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(H)) == H
    assert pickle.loads(pickle.dumps(unit_group(16))) == unit_group(16)


def test_close_generators():
    assert close_generators(16, [7, 9]).members == (1, 7, 9, 15)
    assert close_generators(16, [3]).members == (1, 3, 9, 11)
    assert close_generators(16, []).members == (1,)
    with pytest.raises(ValueError, match="^6 is not a unit modulo 16$"):
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
    _, f = d5_s1()
    assert fixing_subgroup(f).members == (1, 9)


def algebraic_degree(f):
    """phi(n) / |H_f|: the degree of the splitting field of f."""
    return euler_phi(f.group.order) // len(fixing_subgroup(f).members)


def test_algebraic_degree_examples():
    _, alpha = d8_alpha()
    assert algebraic_degree(alpha) == 2
    _, S1 = d5_s1()
    assert algebraic_degree(S1) == 2
    Z7 = make_cyclic(7)
    complete = multiset_colour(Z7, range(1, 7))
    assert algebraic_degree(complete) == 1
    assert splitting_field(complete).degree == 1


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
    assert not period(16, (1, 7, 9, 15), 1)
    assert report.primitive_element == Cyclotomic.from_exponents(16, {2: 2, 14: 2})
    assert report.minimal_poly == (Fraction(-8), Fraction(0), Fraction(1))
    verdict = integrality_verdict(alpha, fixing_subgroup(alpha))
    assert verdict.rational is False and verdict.integral is False


def test_splitting_field_s1():
    _, S1 = d5_s1()
    report = splitting_field(S1)
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
            assert report.degree * len(report.fixing_subgroup.members) == euler_phi(n)
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
    assert checked_spectrum(alpha, fixing_subgroup(alpha)) == spec


def test_stabilizer_identity_rational_spectrum():
    G, beta = d8_beta()
    spec = spectrum_exact(beta, character_table(G))
    assert checked_spectrum(beta, fixing_subgroup(beta)) == spec


def test_stabilizer_identity_refuses_a_wrong_subgroup():
    # H = {1} leaves unit 7 as a coset representative, and 7 fixes every
    # eigenvalue; H = all units has generator 3, which moves the surds.
    _, alpha = d8_alpha()
    assert checked_spectrum(alpha, fixing_subgroup(alpha)) is not None
    for wrong, split in (((1,), "unit 7 moves"), (unit_group(16).members, "unit 3 fixes")):
        with pytest.raises(InternalInconsistency, match=f"^stabilizer identity: {split} "):
            checked_spectrum(alpha, unit_subgroup(16, wrong))


def test_stabilizer_identity_random():
    rng = random.Random(31)
    count = 0
    for G in [make_cyclic(n) for n in range(3, 13)] + [
        make_dihedral(m) for m in range(2, 7)
    ]:
        for _ in range(4):
            f = random_class_function(G, rng)
            assert checked_spectrum(f, fixing_subgroup(f)) is not None
            count += 1
    assert count >= 50


@pytest.mark.parametrize(
    "G",
    [
        make_cyclic(30),
        make_cyclic(60),
        make_dihedral(15),
        make_product(make_cyclic(6), make_cyclic(10)),
    ],
    ids=["Z30", "Z60", "D15", "Z6xZ10"],
)
def test_galois_twist(G):
    # f o pi_u, g -> f(g**u), has the fixing subgroup of f, and as a row's
    # sum of f(g**u) chi(g) is the sum of f(g) chi(g**v), v = u^-1, its
    # spectrum is sigma_v of f's, multiplicities kept.
    n = G.order
    rng = random.Random(n)
    units = unit_group(n).members
    for _ in range(9):
        f = random_class_function(G, rng)
        u = rng.choice(units)
        pm = power_map(G, u)
        twisted = colour_from_values(G, {g: f.values[pm[g]] for g in range(n)})
        H = fixing_subgroup(f)
        assert fixing_subgroup(twisted).members == H.members
        v = pow(u, -1, n)
        expected = {galois_apply(v, value): m for value, m in checked_spectrum(f, H).pairs}
        assert dict(checked_spectrum(twisted, H).pairs) == expected


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
    verdict = integrality_verdict(beta, fixing_subgroup(beta), spec)
    assert verdict.rational and verdict.integral

    G2, f2 = d5_s2()
    spec2 = spectrum_exact(f2, character_table(G2))
    verdict2 = integrality_verdict(f2, fixing_subgroup(f2), spec2)
    assert verdict2.integral

    _, alpha = d8_alpha()
    assert not integrality_verdict(alpha, fixing_subgroup(alpha)).rational


def test_integrality_without_characters():
    # A nonabelian generated group has no exact table; the adjacency minimal
    # polynomial decides, and the integer rule checks it.
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    complete = colour_from_values(G, {g: 1 for g in range(1, G.order)})
    verdict = integrality_verdict(complete, fixing_subgroup(complete))
    assert verdict.rational and verdict.integral
    assert verdict.method == "adjacency minimal polynomial"

    halves = colour_from_values(
        G, {g: Fraction(1, 2) for g in range(1, G.order)}
    )
    verdict_halves = integrality_verdict(halves, fixing_subgroup(halves))
    assert verdict_halves.rational
    assert verdict_halves.integral is False
    assert verdict_halves.method == "adjacency minimal polynomial"


def test_integer_rule_checks_both_integrality_routes(monkeypatch, capsys):
    # An integer colour vanishing at the identity has integer eigenvalues; a
    # route that finds otherwise must exit 3 and name itself.
    monkeypatch.setattr(
        galois_mod, "adjacency_minimal_polynomial", lambda f: (Fraction(1, 2), Fraction(1))
    )
    G = make_from_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
    complete = colour_from_values(G, {g: 1 for g in range(1, G.order)})
    with pytest.raises(InternalInconsistency, match="^adjacency minimal polynomial: integer"):
        integrality_verdict(complete, fixing_subgroup(complete))

    real = galois_mod.spectrum_exact

    def halved(f, table):
        spec = real(f, table)
        return spec._replace(pairs=tuple((reference_sum(v, Fraction(1, 2)), m) for v, m in spec.pairs))

    monkeypatch.setattr(galois_mod, "spectrum_exact", halved)
    assert main(["degree", instance_path("d8_beta.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: exact spectrum: integer colours"), err


def test_multiset_fixing_subgroup_examples():
    _, S1 = d5_s1()
    assert multiset_fixing_subgroup(S1).members == (1, 9)
    _, S2 = d5_s2()
    assert multiset_fixing_subgroup(S2).members == unit_group(10).members
    Z5 = make_cyclic(5)
    power_closed = multiset_colour(Z5, [1, 2, 3, 4])
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
        return spec._replace(per_irreducible=((label, deg, reference_sum(lam, 1)), *rest))

    monkeypatch.setattr(galois_mod, "spectrum_exact", shifted)
    pentagon = multiset_colour(make_cyclic(5), [1, 4])
    with pytest.raises(InternalInconsistency) as info:
        distance_report(pentagon)
    assert "chi0 is 6, the character sum gives 7" in str(info.value)
    assert main(["distance", instance_path("z5_pentagon.txt")]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def reference_primitive_search(n, members, degree):
    # The search the coset test replaced: every period built up front, each
    # candidate accepted on the size of its whole Galois orbit.
    if degree == 1:
        return Cyclotomic.one(n)
    periods = [period(n, members, k) for k in range(1, n)]

    def candidates():
        yield from periods
        for i in range(len(periods)):
            for j in range(i + 1, len(periods)):
                for c in range(1, 9):
                    yield reference_sum(periods[i], reference_product(periods[j], c))

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
        degree = euler_phi(n) // len(H.members)
        x, poly = _primitive_search(tables, H, degree)
        assert x is not None
        assert x == reference_primitive_search(n, members, degree), members
        assert poly == minimal_polynomial(n, dict(enumerate(x.coeffs)))


def unit_subgroups(n):
    """Every subgroup of the units modulo n, each found by joining one unit to
    a subgroup already found, starting from the trivial one."""
    units = unit_group(n).members
    found = {(1,): close_generators(n, [])}
    frontier = [found[(1,)]]
    while frontier:
        H = frontier.pop()
        for u in units:
            if u not in H.members:
                K = close_generators(n, list(H.generators) + [u])
                if K.members not in found:
                    found[K.members] = K
                    frontier.append(K)
    return list(found.values())


def conductor(n, members):
    """The least divisor f of n such that every unit = 1 (mod f) is in H."""
    units = unit_group(n).members
    return next(
        f for f in range(1, n + 1)
        if n % f == 0 and all(u in members for u in units if u % f == 1 % f)
    )


def test_primitive_search_finds_a_single_period_for_every_subgroup():
    # The theorem behind the search: with f the conductor of the fixed field
    # of H, the period eta_{n/f} is fixed by exactly H (proof in the
    # docstring of `_primitive_search`), so the search stops at some k <= n/f
    # and never runs out.  Checked here by the Galois action itself, unit by
    # unit, not by the coset form the search uses.
    swept = 0
    for n in range(3, 61):
        tables = fixing_tables(make_cyclic(n))
        units = unit_group(n).members
        for H in unit_subgroups(n):
            swept += 1
            degree = euler_phi(n) // len(H.members)
            f = conductor(n, H.members)
            x, _ = _primitive_search(tables, H, degree)
            if degree == 1:
                assert f == 1
                assert x == 1
                continue
            eta = period(n, H.members, n // f)
            assert tuple(u for u in units if galois_apply(u, eta) == eta) == H.members, (n, H.members)
            periods = {period(n, H.members, k) for k in range(1, n // f + 1)}
            assert x in periods, (n, H.members)
    assert swept == 520


def test_shadow_containment_raises_on_injected_mismatch(monkeypatch):
    # A candidate whose fixing subgroup escapes its shadow's must be refused,
    # by the containment check itself, for multisets and sets alike: the
    # orbit facts here claim that only the unit 1 fixes the shadow {1, 4} of
    # the candidate, {1, 4} taken twice (set 1 at cap 2) or once (set 0 at
    # cap 1), while the units 1 and 4 fix the candidate itself.
    real = search_mod._Search.orbit
    for cap, index in ((2, 1), (1, 0)):

        def shrunk(self, key, H, i):
            facts = real(self, key, H, i)
            return (frozenset({1}), facts[1]) if i == index else facts

        monkeypatch.setattr(search_mod._Search, "orbit", shrunk)
        with pytest.raises(
            InternalInconsistency, match=f"set {index}: multiset fixing subgroup escapes"
        ):
            classify(make_cyclic(5), cap)


def test_distance_report_complete_graph():
    G = make_dihedral(4)
    S = multiset_colour(G, range(1, 8))
    report = distance_report(S)
    assert report.layering.diameter == 1
    adj_spec = spectrum_exact(S, character_table(G))
    assert report.spectrum.pairs == adj_spec.pairs
    assert report.field.degree == algebraic_degree(S)


def test_distance_report_pentagon():
    Z5 = make_cyclic(5)
    report = distance_report(multiset_colour(Z5, [1, 4]))
    assert [int(v) for v in report.layering.colour.values] == [0, 1, 2, 2, 1]
    assert report.field.fixing_subgroup.members == (1, 4)
    assert report.field.degree == 2


def eigenvalues_fixed_by(spectrum, H_K) -> bool:
    """Whether every generator of H_K fixes every exact eigenvalue: integrality
    over the fixed field of H_K, decided without a fixing subgroup."""
    return all(
        galois_apply(h, value) == value for h in H_K.generators for value, _ in spectrum.pairs
    )


def colour_fixed_by(G, L, rng):
    """A random colour summed over the power maps of the units in L, so that
    L fixes it and the fixing subgroups of a sample vary."""
    f = random_class_function(G, rng)
    maps = [power_map(G, h) for h in L.members]
    return colour_from_values(G, {g: sum(f.values[pm[g]] for pm in maps) for g in range(G.order)})


def test_transfer_check_scaling_preserves_degree():
    # Scaling leaves one fixing subgroup, so the transfer hypothesis holds
    # for alpha and twice alpha under every H_K; their exact eigenvalues
    # must then be fixed by the same subgroups of units.
    G, alpha = d8_alpha()
    doubled = colour_from_values(G, {g: 2 * v for g, v in enumerate(alpha.values)})
    assert fixing_subgroup(doubled) == fixing_subgroup(alpha)
    assert algebraic_degree(alpha) == algebraic_degree(doubled)
    table = character_table(G)
    s_alpha, s_doubled = spectrum_exact(alpha, table), spectrum_exact(doubled, table)
    for H_K, verdict in ((unit_group(16), False), (unit_subgroup(16, (1, 7, 9, 15)), True)):
        assert eigenvalues_fixed_by(s_alpha, H_K) is verdict
        assert eigenvalues_fixed_by(s_doubled, H_K) is verdict


def test_transfer_check_random_pairs():
    # The paper's transfer: when H_K meets H_alpha and H_beta in the same
    # set, alpha is integral over the fixed field of H_K exactly when beta
    # is.  Only the hypothesis reads fixing subgroups; each side is decided
    # on the exact eigenvalues.
    rng = random.Random(53)
    checked, verdicts = 0, set()
    for G in (make_dihedral(8), make_cyclic(16)):
        n = G.order
        table = character_table(G)
        subgroups = {close_generators(n, [h]) for h in unit_group(n).members}
        subgroups = sorted(subgroups | {unit_group(n)}, key=lambda H: H.members)
        colours = [colour_fixed_by(G, rng.choice(subgroups), rng) for _ in range(12)]
        sample = [(set(fixing_subgroup(f).members), spectrum_exact(f, table)) for f in colours]
        for (H_alpha, s_alpha), (H_beta, s_beta) in combinations(sample, 2):
            for H_K in subgroups:
                K = set(H_K.members)
                if K & H_alpha != K & H_beta:
                    continue
                verdict = eigenvalues_fixed_by(s_alpha, H_K)
                assert eigenvalues_fixed_by(s_beta, H_K) == verdict, (G, H_K)
                verdicts.add(verdict)
                checked += 1
    assert checked >= 20
    assert verdicts == {True, False}


def test_primitive_search_running_out_is_an_inconsistency(monkeypatch):
    # The theorem says a period always has stabilizer exactly H; if the coset
    # test rejected every one, the search must say so, naming n and H.
    f = load_instance(instance_path("z5_pentagon.txt")).colour
    monkeypatch.setattr(galois_mod, "_coset_split", lambda tables, members, values: "split")
    with pytest.raises(InternalInconsistency, match=r"H = \(1, 4\) modulo 5"):
        splitting_field(f)


def test_degree_reads_rows_times_support_classes_from_the_rule(monkeypatch, capsys, tmp_path):
    # The circulant {1, 1999} on cyclic 2,000 weights two classes, so its
    # exact spectrum reads each of the 2,000 rows on those two classes only:
    # 4,000 cells, where a stored table held 2,000 x 2,000.
    real = galois_mod.character_table
    cells = []

    def counted(G):
        table = real(G)

        def exponents(r, c):
            cells.append((r, c))
            return table.exponents(r, c)

        return table._replace(exponents=exponents)

    monkeypatch.setattr(galois_mod, "character_table", counted)
    n = 2000
    path = tmp_path / "circulant.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    assert main(["degree", str(path)]) == 0
    assert "degree = 400" in capsys.readouterr().out
    assert len(cells) == len(set(cells)) == 4000
    assert {c for _, c in cells} == {1, n - 1}


def test_degree_builds_no_value_per_power(monkeypatch, capsys, tmp_path):
    # The same circulant has degree d = 400.  Its minimal polynomial builds
    # two values, the period for its Galois orbit and the one reduced Horner
    # value, as powers and Horner steps stay in the group ring; products of
    # values built 3d more (7,201 in all).
    built = [0]
    real = Cyclotomic.__init__

    def counted(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    n = 2000
    path = tmp_path / "circulant.txt"
    path.write_text(f"[group]\nkind = cyclic\nn = {n}\n\n[connection]\nelements = 1, {n - 1}\n")
    assert main(["degree", str(path)]) == 0
    assert "degree = 400" in capsys.readouterr().out
    assert built[0] <= 6_003


def test_distance_refuses_an_unchecked_spectrum(monkeypatch, capsys):
    # z5 added to the first distance eigenvalue of the pentagon: unit 4, the
    # generator of H' = {1, 4}, moves it, so the stabilizer identity fails
    # before the layered character sum runs.
    real = galois_mod.spectrum_exact

    def moved(f, table):
        spec = real(f, table)
        (value, mult), *rest = spec.pairs
        z5 = Cyclotomic.from_exponents(5, {1: 1})
        return spec._replace(pairs=((reference_sum(value, z5), mult), *rest))

    monkeypatch.setattr(galois_mod, "spectrum_exact", moved)
    assert main(["distance", instance_path("z5_pentagon.txt")]) == 3
    assert capsys.readouterr() == (
        "",
        "internal inconsistency: stabilizer identity: unit 4 fixes the colour "
        "function but moves the eigenvalue 6 + z5^1\n",
    )


def test_distance_degree_equals_degree(monkeypatch, capsys):
    # A word-length colour of 1 on every non-identity element is fixed by
    # every unit, while the pentagon's set {1, 4} is fixed by {1, 4} alone:
    # the degree of a normal Cayley graph is its distance degree.
    real = galois_mod.distance_layering

    def flattened(f):
        layering = real(f)
        G = f.group
        colour = colour_from_values(G, {g: 1 for g in range(1, G.order)})
        return layering._replace(colour=colour)

    monkeypatch.setattr(galois_mod, "distance_layering", flattened)
    assert main(["distance", instance_path("z5_pentagon.txt")]) == 3
    assert capsys.readouterr() == (
        "",
        "internal inconsistency: distance degree: the set is fixed by units (1, 4), "
        "its word-length colour by (1, 2, 3, 4)\n",
    )
