import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayspec.exactnum as ex
from cayspec.cli import main
from cayspec.errors import CoefficientBudgetExceeded, InternalInconsistency, NotAUnit
from cayspec.exactnum import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    galois_apply,
    galois_orbit,
    minimal_polynomial,
    stabilizer,
)
from cayspec.units import unit_group
from conftest import instance_path


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_euler_phi_values():
    assert euler_phi(16) == 8
    assert euler_phi(10) == 4
    assert euler_phi(1) == 1
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclotomic_product_is_x_n_minus_1(n):
    prod = [1]
    for d in ex.divisors(n):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_from_exponents_reductions():
    assert Cyclotomic.from_exponents(4, {2: 1}) == -1
    assert Cyclotomic.from_exponents(16, {8: 1}) == -1
    assert Cyclotomic.from_exponents(9, {0: 1}) == 1


def test_galois_apply_fixes_rationals():
    x = Cyclotomic.from_rational(12, Fraction(7, 3))
    for h in unit_group(12).members:
        assert galois_apply(h, x) == x


def test_galois_apply_exponent_arithmetic():
    x = Cyclotomic.from_exponents(16, {1: 1, 15: 1})
    assert galois_apply(7, x) == -x


def test_galois_apply_is_homomorphism():
    x = Cyclotomic.from_exponents(15, {1: 2, 7: Fraction(1, 3)})
    for h in (2, 4, 7):
        for k in (2, 8, 11):
            lhs = galois_apply(h, galois_apply(k, x))
            rhs = galois_apply((h * k) % 15, x)
            assert lhs == rhs


def test_galois_apply_rejects_non_units():
    with pytest.raises(NotAUnit):
        galois_apply(4, Cyclotomic.from_exponents(16, {1: 1}))


def test_stabilizer_examples():
    assert stabilizer(Cyclotomic.from_rational(16, 3)).members == unit_group(16).members
    sqrt2 = Cyclotomic.from_exponents(16, {2: 1, 14: 1})
    assert stabilizer(sqrt2).members == (1, 7, 9, 15)
    assert stabilizer(Cyclotomic.from_exponents(5, {1: 1})).members == (1,)


def test_minimal_polynomial_examples():
    sqrt2 = Cyclotomic.from_exponents(16, {2: 1, 14: 1})
    assert minimal_polynomial(sqrt2) == (Fraction(-2), Fraction(0), Fraction(1))
    rational = Cyclotomic.from_rational(8, Fraction(3, 5))
    assert minimal_polynomial(rational) == (Fraction(-3, 5), Fraction(1))


def reference_orbit(x):
    # The list scan galois_orbit replaced: each image against every earlier one.
    seen = []
    for h in unit_group(x.conductor).members:
        img = galois_apply(h, x)
        if img not in seen:
            seen.append(img)
    return tuple(seen)


def reference_minimal_polynomial(x):
    # The orbit-product expansion the trace route replaced: prod (t - v) over
    # the Galois orbit, d(d+1)/2 products.
    n = x.conductor
    coeffs = [Cyclotomic.one(n)]
    for v in reference_orbit(x):
        nxt = [Cyclotomic.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        coeffs = nxt
    assert all(c.is_rational() for c in coeffs)
    return tuple(c.rational_value() for c in coeffs)


def minpoly_cases(n):
    """Rational values, and values with negative and fractional coefficients.

    Above phi(n) = 16 the values are combinations of periods of the subgroup
    {1, u, -u, -1}, with u^2 = 1, which keeps the orbits, and the reference
    expansion, small.
    """
    rng = random.Random(n)

    def coeff():
        return Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([1, 2, 3, 9]))

    cases = [Cyclotomic.from_rational(n, Fraction(-7, 3)), Cyclotomic.from_rational(n, 0)]
    units = unit_group(n).members
    if len(units) <= 16:
        for size in (1, 2, 4):
            cases.append(Cyclotomic.from_exponents(n, {rng.randrange(n): coeff() for _ in range(size)}))
        return cases
    u = next(u for u in units[1:-1] if u * u % n == 1)
    H = (1, u, n - u, n - 1)
    for size in (1, 2, 3):
        exps = {}
        for k in rng.sample(range(1, n), size):
            c = coeff()
            for h in H:
                exps[k * h % n] = exps.get(k * h % n, 0) + c
        cases.append(Cyclotomic.from_exponents(n, exps))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 10, 15, 16, 21, 48, 60, 105, 128])
def test_minimal_polynomial_matches_orbit_product(n):
    for x in minpoly_cases(n):
        assert galois_orbit(x) == reference_orbit(x)
        assert minimal_polynomial(x) == reference_minimal_polynomial(x), x


def test_horner_check_sees_wrong_traces(monkeypatch, capsys):
    # Ramanujan sums off by one: the power sums, and so the polynomial, are
    # wrong, and the Horner evaluation at x must refuse it (exit 3).
    real = ex._ramanujan_sums
    monkeypatch.setattr(ex, "_ramanujan_sums", lambda n: tuple(c + 1 for c in real(n)))
    sqrt2 = Cyclotomic.from_exponents(16, {2: 1, 14: 1})
    with pytest.raises(InternalInconsistency, match="trace route: .* Horner"):
        minimal_polynomial(sqrt2)
    assert main(["degree", instance_path("d5_s1.txt")]) == 3
    assert "trace route" in capsys.readouterr().err


def horner(coeffs, x):
    n = x.conductor
    acc = Cyclotomic.zero(n)
    for c in reversed(coeffs):
        acc = acc * x + Cyclotomic.from_rational(n, c)
    return acc


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def cyclotomics(conductor):
    phi = euler_phi(conductor)
    return st.dictionaries(
        st.integers(min_value=0, max_value=conductor - 1), small_rationals, max_size=3
    ).map(lambda d: Cyclotomic.from_exponents(conductor, d))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 8, 12]).flatmap(
    lambda n: st.tuples(cyclotomics(n), cyclotomics(n), cyclotomics(n))
))
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([7, 9, 16]).flatmap(
    lambda n: st.tuples(st.just(n), cyclotomics(n))
))
def test_orbit_stabilizer_and_minpoly_root(pair):
    n, x = pair
    orbit = galois_orbit(x)
    stab = stabilizer(x)
    assert len(orbit) * len(stab) == euler_phi(n)
    poly = minimal_polynomial(x)
    assert len(poly) - 1 == len(orbit)
    assert not horner(poly, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 12]).flatmap(
    lambda n: st.tuples(cyclotomics(n), cyclotomics(n))
))
def test_to_complex_respects_addition(pair):
    x, y = pair
    lhs = (x + y).to_complex()
    rhs = x.to_complex() + y.to_complex()
    assert abs(lhs - rhs) < 1e-12


def test_to_complex_basics():
    assert Cyclotomic.one(6).to_complex() == pytest.approx(1 + 0j)
    i_val = Cyclotomic.from_exponents(4, {1: 1}).to_complex()
    assert i_val.real == pytest.approx(0, abs=1e-12)
    assert i_val.imag == pytest.approx(1, abs=1e-12)


def test_unit_group_sizes():
    assert unit_group(1).members == (1,)
    assert unit_group(2).members == (1,)
    for n in range(1, 40):
        assert len(unit_group(n).members) == euler_phi(n)


def test_coefficient_budget_guardrail(monkeypatch):
    big = Fraction(2**64, 3)
    one = Cyclotomic.one(8)
    constructions = (
        lambda: Cyclotomic.from_rational(8, big),
        lambda: Cyclotomic.linear_combination(8, [(big, one)]),
        lambda: one * big,
        lambda: big * one,
    )
    monkeypatch.setattr(ex, "COEFFICIENT_BIT_BUDGET", 16)
    for build in constructions:
        with pytest.raises(CoefficientBudgetExceeded):
            build()


def reference_combination(n, terms):
    # The fold the sparse path replaced: one full product per term.
    return sum(
        (Cyclotomic.from_rational(n, c) * x for c, x in terms), Cyclotomic.zero(n)
    )


COMBINATION_COEFFS = (0, 1, -3, Fraction(5, 7), Fraction(-2, 9), 4, Fraction(0, 5))


@pytest.mark.parametrize("n", [1, 2, 15, 21, 48, 60, 128])
def test_linear_combination_matches_reference_fold(n):
    rng = random.Random(n)
    values = [Cyclotomic.from_exponents(n, {e: 1}) for e in rng.sample(range(n), min(n, 4))]
    # dense residues: many exponents, including ones at or above phi(n)
    for _ in range(3):
        exps = {rng.randrange(n): rng.choice(COMBINATION_COEFFS[1:]) for _ in range(6)}
        values.append(Cyclotomic.from_exponents(n, exps))
    values.append(Cyclotomic.zero(n))
    terms = [(rng.choice(COMBINATION_COEFFS), x) for x in values for _ in range(2)]
    assert Cyclotomic.linear_combination(n, terms) == reference_combination(n, terms)
    assert Cyclotomic.linear_combination(n, []) == Cyclotomic.zero(n)
    for c in COMBINATION_COEFFS:
        for x in values:
            expected = reference_combination(n, [(c, x)])
            assert x * c == expected
            assert c * x == expected


def test_linear_combination_rejects_mixed_conductors():
    with pytest.raises(ValueError):
        Cyclotomic.linear_combination(12, [(1, Cyclotomic.one(12)), (2, Cyclotomic.one(6))])
    with pytest.raises(ValueError):
        Cyclotomic.linear_combination(12, [(1, Cyclotomic.one(6))])
    with pytest.raises(TypeError):
        Cyclotomic.linear_combination(12, [(0.5, Cyclotomic.one(12))])


def test_format_polynomial():
    assert ex.format_polynomial((Fraction(-8), Fraction(0), Fraction(1))) == "t^2 - 8"
    assert ex.format_polynomial((Fraction(-3, 5), Fraction(1))) == "t - 3/5"
    assert ex.format_polynomial((Fraction(0),)) == "0"
