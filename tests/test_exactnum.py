import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayspec.exactnum as ex
from cayspec.cli import main
from cayspec.errors import InternalInconsistency
from cayspec.exactnum import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    galois_apply,
    galois_orbit,
    minimal_polynomial,
)
from cayspec.units import close_generators, unit_group
from conftest import INSTANCE_DIR, instance_path, rational, reference_product, reference_sum


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def stabilizer(x):
    # All units h with galois_apply(h, x) == x, found by scanning every unit;
    # they form a subgroup, so closing them adds no unit.
    n = x.conductor
    fixing = tuple(h for h in unit_group(n).members if galois_apply(h, x) == x)
    H = close_generators(n, fixing)
    assert H.members == fixing
    return H


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


def reference_divexact(num, den):
    # Exact division of integer polynomials (coefficients low to high).
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(num[i + len(den) - 1], den[-1])
        assert rem == 0
        if q[i]:
            for j, dj in enumerate(den):
                num[i + j] -= q[i] * dj
    assert not any(num[: len(den) - 1])
    return q


@lru_cache(maxsize=None)
def reference_cyclotomic(n):
    # The recursion the Moebius product replaced: x^n - 1 divided exactly by
    # Phi_d for each proper divisor d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in (d for d in range(1, n) if n % d == 0):
        poly = reference_divexact(poly, reference_cyclotomic(d))
    return tuple(poly)


@pytest.mark.parametrize(
    "ns", [range(1, 1201), (1155, 2310, 4620, 5000, 10_000)], ids=["to-1200", "large"]
)
def test_cyclotomic_polynomial_matches_recursive_reference(ns):
    for n in ns:
        assert cyclotomic_polynomial(n) == reference_cyclotomic(n), n


def test_cyclotomic_polynomial_builds_no_other_divisor():
    cyclotomic_polynomial.cache_clear()
    assert len(cyclotomic_polynomial(4620)) == euler_phi(4620) + 1
    assert cyclotomic_polynomial.cache_info().currsize == 1


def test_cyclotomic_division_is_checked(monkeypatch):
    # With mu(6) read as -1, x^6 - 1 is divided by x - 1, x^2 - 1 and x^3 - 1,
    # and x^2 - 1 does not divide 1 + x + ... + x^5.
    real = ex._mobius
    monkeypatch.setattr(ex, "_mobius", lambda m: -1 if m == 6 else real(m))
    cyclotomic_polynomial.cache_clear()
    message = "^x\\^2 - 1 does not divide the product for Phi_6$"
    with pytest.raises(InternalInconsistency, match=message):
        cyclotomic_polynomial(6)


@lru_cache(maxsize=None)
def reference_mobius(m):
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def test_ramanujan_sums_match_per_index_formula():
    # Entry i is mu(n/g) * phi(n) / phi(n/g), g = gcd(i, n), worked out for each i.
    for n in range(1, 1500):
        expected = tuple(
            reference_mobius(n // gcd(i, n)) * (euler_phi(n) // euler_phi(n // gcd(i, n)))
            for i in range(n)
        )
        assert ex._ramanujan_sums(n) == expected, n


def dense_power_residues(n):
    """The canonical residues of z^0, ..., z^(n-1) as dense coefficient lists,
    each the shift of the one before with its top coefficient folded back by
    Phi_n: the table the residues of the product of n's primes replaced."""
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    support = [(i, c) for i, c in enumerate(modulus[:phi]) if c]
    row = [1] + [0] * (phi - 1)
    for _ in range(n):
        yield row
        lead = row[-1]
        row = [0] + row[:-1]
        for i, c in support:
            row[i] -= lead * c


@pytest.mark.parametrize(
    "ns", [range(1, 400), (1000, 2000, 5000, 10_000)], ids=["to-399", "large"]
)
def test_fold_matches_the_dense_shift(ns):
    for n in ns:
        phi = euler_phi(n)
        for e, row in enumerate(dense_power_residues(n)):
            assert ex._fold(n, [0] * phi, [(e, 1)]) == row, (n, e)


def test_power_residues_shift_only_the_rows_of_the_product_of_the_primes(monkeypatch):
    # 10,000 = 2^4 * 5^4: the dense shift runs over the ten rows of Phi_10,
    # read with stride 1,000 for all 10,000 rows.
    asked = []
    real = ex.cyclotomic_polynomial
    monkeypatch.setattr(ex, "cyclotomic_polynomial", lambda n: asked.append(n) or real(n))
    ex._power_residues.cache_clear()
    rows = ex._power_residues(10_000)
    assert asked == [10] and len(rows) == 10_000
    assert rows[5000] == ((0, -1),) and rows[1234] == ((1234, 1),)


def test_from_exponents_reductions():
    assert Cyclotomic.from_exponents(4, {2: 1}) == rational(4, -1)
    assert Cyclotomic.from_exponents(16, {8: 1}) == rational(16, -1)
    assert Cyclotomic.from_exponents(9, {9: 1}) == rational(9, 1)


def test_rationals_build_no_power_residues(monkeypatch):
    # z^0 = 1 needs no table of reduced powers, whose build at a conductor such
    # as 2,880 takes a good part of a second: a degree-1 field prints 1.
    monkeypatch.setattr(ex, "_power_residues", lambda n: pytest.fail(f"table built for {n}"))
    x = rational(2880, Fraction(-3, 4))
    assert str(rational(2880, 1)) == "1"
    assert reference_sum(reference_product(x, 2), 1) == rational(2880, Fraction(-1, 2))
    assert not reference_sum(x, Fraction(3, 4))


def test_galois_apply_fixes_rationals():
    x = rational(12, Fraction(7, 3))
    for h in unit_group(12).members:
        assert galois_apply(h, x) == x


def test_galois_apply_exponent_arithmetic():
    x = Cyclotomic.from_exponents(16, {1: 1, 15: 1})
    assert galois_apply(7, x) == reference_product(x, -1)


def test_galois_apply_is_homomorphism():
    x = Cyclotomic.from_exponents(15, {1: 2, 7: Fraction(1, 3)})
    for h in (2, 4, 7):
        for k in (2, 8, 11):
            lhs = galois_apply(h, galois_apply(k, x))
            rhs = galois_apply((h * k) % 15, x)
            assert lhs == rhs


def test_galois_apply_rejects_non_units():
    with pytest.raises(ValueError, match="^4 is not a unit modulo 16$"):
        galois_apply(4, Cyclotomic.from_exponents(16, {1: 1}))


def test_stabilizer_examples():
    assert stabilizer(rational(16, 3)).members == unit_group(16).members
    sqrt2 = Cyclotomic.from_exponents(16, {2: 1, 14: 1})
    assert stabilizer(sqrt2).members == (1, 7, 9, 15)
    assert stabilizer(Cyclotomic.from_exponents(5, {1: 1})).members == (1,)


def exponent_counts(x):
    """A value's power-basis coefficients as the exponent counts
    `minimal_polynomial` takes."""
    return dict(enumerate(x.coeffs))


def test_minimal_polynomial_examples():
    sqrt2 = {2: 1, 14: 1}
    assert minimal_polynomial(16, sqrt2) == (Fraction(-2), Fraction(0), Fraction(1))
    rational = {0: Fraction(3, 5)}
    assert minimal_polynomial(8, rational) == (Fraction(-3, 5), Fraction(1))


@pytest.mark.parametrize("n", [7, 16, 60, 105])
def test_minimal_polynomial_reads_exponents_modulo_n_over_one_denominator(n):
    # Exponents 1 and n + 1 are one exponent, n - 1 is -1, and halves are
    # scaled to integers over D = 2: all three counts are z + z^-1.
    halves = {1: Fraction(1, 2), n + 1: Fraction(1, 2), -1: 1}
    assert minimal_polynomial(n, halves) == minimal_polynomial(n, {1: 1, n - 1: 1})


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
    coeffs = [rational(n, 1)]
    for v in reference_orbit(x):
        nxt = [rational(n, 0) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = reference_sum(nxt[i + 1], c)
            nxt[i] = reference_sum(nxt[i], reference_product(c, v, -1))
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

    cases = [rational(n, Fraction(-7, 3)), rational(n, 0)]
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
        assert minimal_polynomial(n, exponent_counts(x)) == reference_minimal_polynomial(x), x


def test_horner_check_sees_wrong_traces(monkeypatch, capsys):
    # Ramanujan sums off by one: the power sums, and so the polynomial, are
    # wrong, and the Horner evaluation at x must refuse it (exit 3).
    real = ex._ramanujan_sums
    monkeypatch.setattr(ex, "_ramanujan_sums", lambda n: tuple(c + 1 for c in real(n)))
    with pytest.raises(InternalInconsistency, match="trace route: .* Horner"):
        minimal_polynomial(16, {2: 1, 14: 1})
    assert main(["degree", instance_path("d5_s1.txt")]) == 3
    assert "trace route" in capsys.readouterr().err


def horner(coeffs, x):
    n = x.conductor
    acc = rational(n, 0)
    for c in reversed(coeffs):
        acc = reference_sum(reference_product(acc, x), c)
    return acc


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def cyclotomics(conductor):
    phi = euler_phi(conductor)
    return st.dictionaries(
        st.integers(min_value=0, max_value=conductor - 1), small_rationals, max_size=3
    ).map(lambda d: Cyclotomic.from_exponents(conductor, d))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([7, 9, 16]).flatmap(
    lambda n: st.tuples(st.just(n), cyclotomics(n))
))
def test_orbit_stabilizer_and_minpoly_root(pair):
    n, x = pair
    orbit = galois_orbit(x)
    stab = stabilizer(x)
    assert len(orbit) * len(stab.members) == euler_phi(n)
    poly = minimal_polynomial(n, exponent_counts(x))
    assert len(poly) - 1 == len(orbit)
    assert not horner(poly, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 12]).flatmap(
    lambda n: st.tuples(cyclotomics(n), cyclotomics(n))
))
def test_to_complex_respects_addition(pair):
    x, y = pair
    lhs = reference_sum(x, y).to_complex()
    rhs = x.to_complex() + y.to_complex()
    assert abs(lhs - rhs) < 1e-12


def reference_str(x):
    # The rendering with one Fraction per term that __str__ replaced.
    if x.is_rational():
        return str(x.rational_value())
    parts = []
    for i, c in enumerate(x.coeffs):
        if c:
            mag = abs(c)
            z = f"z{x.conductor}^{i}"
            term = str(mag) if i == 0 else (z if mag == 1 else f"{mag}*{z}")
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + term)
    return " ".join(parts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 8, 12, 15]).flatmap(cyclotomics))
def test_str_matches_fraction_rendering(x):
    assert str(x) == reference_str(x)


def test_to_complex_basics():
    assert rational(6, 1).to_complex() == pytest.approx(1 + 0j)
    i_val = Cyclotomic.from_exponents(4, {1: 1}).to_complex()
    assert i_val.real == pytest.approx(0, abs=1e-12)
    assert i_val.imag == pytest.approx(1, abs=1e-12)


def test_unit_group_sizes():
    assert unit_group(1).members == (1,)
    assert unit_group(2).members == (1,)
    for n in range(1, 40):
        assert len(unit_group(n).members) == euler_phi(n)


def over_budget(bits):
    return f"^canonical residue exceeds the {bits}-bit coefficient budget$"


def test_coefficient_budget_guardrail(monkeypatch):
    big = Fraction(2**64, 3)
    one = rational(8, 1)
    z = Cyclotomic.from_exponents(8, {1: 1})
    constructions = (
        lambda: Cyclotomic.from_exponents(8, {0: big}),
        lambda: Cyclotomic.from_exponents(8, {5: big, 3: 1}),
        lambda: reference_product(one, big),
        lambda: reference_sum(one, big),
        lambda: reference_product(z, big),
    )
    monkeypatch.setattr(ex, "COEFFICIENT_BIT_BUDGET", 16)
    for build in constructions:
        with pytest.raises(ValueError, match=over_budget(16)):
            build()


def test_group_ring_powers_are_held_to_the_budget(monkeypatch, capsys, tmp_path):
    # z + z^-1 at n = 64 is built in 34 bits, but its 16th power in the group
    # ring holds binomial coefficients up to C(16, 8): the trace route must
    # refuse it with the residue message, and the CLI exit 2 on it.
    import cayspec.galois as galois_mod

    monkeypatch.setattr(ex, "COEFFICIENT_BIT_BUDGET", 100)
    Cyclotomic.from_exponents(64, {1: 1, 63: 1})
    with pytest.raises(ValueError, match=over_budget(100)):
        minimal_polynomial(64, {1: 1, 63: 1})
    refusals = []

    def recorded(n, exponent_coeffs):
        try:
            return minimal_polynomial(n, exponent_coeffs)
        except ValueError as error:
            refusals.append(str(error))
            raise

    monkeypatch.setattr(galois_mod, "minimal_polynomial", recorded)
    path = tmp_path / "circulant.txt"
    path.write_text("[group]\nkind = cyclic\nn = 64\n\n[connection]\nelements = 1, 63\n")
    assert main(["degree", str(path)]) == 2
    message = "canonical residue exceeds the 100-bit coefficient budget"
    assert refusals == [message]
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_values_equal_only_values_of_their_conductor():
    # Equality and hashing read (conductor, D, terms) alone, for a rational
    # value too: it equals no int or Fraction, and no value of another
    # conductor.
    x = rational(7, Fraction(3, 2))
    assert hash(x) == hash((7, 2, ((0, 3),)))
    assert x != Fraction(3, 2) and Fraction(3, 2) != x
    assert rational(9, 0) != 0 and not rational(9, 0)
    assert len({rational(5, 1), 1}) == 2
    assert rational(5, 1) != rational(10, 1)
    assert x.is_rational() and x.rational_value() == Fraction(3, 2)


def test_equal_values_share_one_stored_form():
    z = {e: Cyclotomic.from_exponents(8, {e: 1}) for e in range(8)}
    half = Fraction(1, 2)
    rational_routes = [
        Cyclotomic.from_exponents(8, {0: Fraction(2, 4)}),
        rational(8, half),
        Cyclotomic.from_exponents(8, {0: Fraction(1, 6), 8: Fraction(1, 3)}),
        reference_sum(reference_product(z[0], Fraction(1, 6)), reference_product(z[0], Fraction(1, 3))),
        reference_product(
            Cyclotomic.from_exponents(8, {1: Fraction(3, 4)}),
            Cyclotomic.from_exponents(8, {7: Fraction(2, 3)}),
        ),
        galois_apply(3, Cyclotomic.from_exponents(8, {4: Fraction(-3, 6)})),
    ]
    # z/2 + z^3/3; exponent 9 is exponent 1, and z -> z^3 swaps z and z^3.
    value_routes = [
        Cyclotomic.from_exponents(8, {1: Fraction(1, 4), 9: Fraction(1, 4), 3: Fraction(2, 6)}),
        reference_sum(reference_product(z[1], half), reference_product(z[3], Fraction(1, 3))),
        reference_product(Cyclotomic.from_exponents(8, {0: half, 2: Fraction(1, 3)}), z[1]),
        galois_apply(3, Cyclotomic.from_exponents(8, {3: half, 1: Fraction(1, 3)})),
    ]
    for routes, denominator, terms in [
        (rational_routes, 2, ((0, 1),)),
        (value_routes, 6, ((1, 3), (3, 2))),
    ]:
        for x in routes:
            assert (x.denominator, x.terms) == (denominator, terms), x
            assert x == routes[0] and hash(x) == hash(routes[0])
    x = value_routes[0]
    zero = reference_sum(x, reference_product(x, -1))
    assert (zero.denominator, zero.terms) == (1, ())
    assert zero == rational(8, 0) and not zero


def reference_coeffs(n, exponent_coeffs):
    """Dense Fraction coefficients of sum c_e z^e, reduced by long division."""
    poly = [Fraction(0)] * n
    for e, c in exponent_coeffs.items():
        poly[e % n] += Fraction(c)
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    for top in range(n - 1, phi - 1, -1):
        lead = poly[top]
        for i, m in enumerate(modulus):
            poly[top - phi + i] -= lead * m
    return tuple(poly[:phi])


def budget_cases():
    rng = random.Random(12)
    for n in (5, 12, 21, 60):
        for size in (1, 3, 6):
            exps = {
                rng.randrange(n): Fraction(rng.randrange(-2**40, 2**40), rng.choice([1, 2, 3, 5, 12]))
                for _ in range(size)
            }
            yield n, exps


@pytest.mark.parametrize("n, exps", list(budget_cases()))
def test_coeffs_view_and_budget_never_looser(monkeypatch, n, exps):
    x = Cyclotomic.from_exponents(n, exps)
    assert x.coeffs == reference_coeffs(n, exps)
    # The count of the dense Fraction form: numerator plus denominator bits of
    # each reduced coefficient, 1 bit for each zero.
    dense_bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in x.coeffs)
    monkeypatch.setattr(ex, "COEFFICIENT_BIT_BUDGET", dense_bits - 1)
    with pytest.raises(ValueError, match=over_budget(dense_bits - 1)):
        Cyclotomic.from_exponents(n, exps)
    with pytest.raises(ValueError, match=over_budget(dense_bits - 1)):
        reference_sum(x, 0)
    with pytest.raises(ValueError, match=over_budget(dense_bits - 1)):
        reference_product(x, 1)


def reference_fold(n, pairs):
    """Reduced Fraction coefficients of sum c * z^e over the (e, c) pairs, by
    the long division of `reference_coeffs`."""
    exps = {}
    for e, c in pairs:
        exps[e % n] = exps.get(e % n, 0) + Fraction(c)
    return reference_coeffs(n, exps)


COMBINATION_COEFFS = st.sampled_from(
    [0, 1, -3, Fraction(5, 7), Fraction(-2, 9), 4, Fraction(0, 5)]
)


@pytest.mark.parametrize("n", [1, 2, 15, 21, 48, 60, 128])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_linear_combination_matches_reference_fold(n, data):
    # Values from from_exponents, with exponents up to 2n (many at or above
    # phi(n)), combined by the reference sum and product and by galois_apply,
    # against the reference fold.
    exps = st.dictionaries(
        st.integers(min_value=-n, max_value=2 * n), COMBINATION_COEFFS, max_size=6
    )
    a, b = data.draw(exps), data.draw(exps)
    c = data.draw(COMBINATION_COEFFS)
    h = data.draw(st.sampled_from(unit_group(n).members))
    x, y = Cyclotomic.from_exponents(n, a), Cyclotomic.from_exponents(n, b)
    assert x.coeffs == reference_fold(n, a.items())
    assert reference_sum(x, y).coeffs == reference_fold(n, [*a.items(), *b.items()])
    assert reference_sum(x, c).coeffs == reference_fold(n, [*a.items(), (0, c)])
    product = [(e + f, u * v) for e, u in a.items() for f, v in b.items()]
    assert reference_product(x, y).coeffs == reference_fold(n, product)
    scaled = [(e, u * c) for e, u in a.items()]
    assert reference_product(x, c).coeffs == reference_fold(n, scaled)
    assert reference_sum(reference_product(x, c), y).coeffs == reference_fold(n, [*scaled, *b.items()])
    assert galois_apply(h, x).coeffs == reference_fold(n, [(e * h, u) for e, u in a.items()])
    assert Cyclotomic.from_exponents(n, {}) == rational(n, 0) and not rational(n, 0)


def test_linear_combination_rejects_mixed_conductors():
    # Values have no arithmetic, so no two conductors can meet; a float
    # coefficient is refused where a value is built.
    with pytest.raises(TypeError, match="^refusing to coerce a float to an exact rational$"):
        Cyclotomic.from_exponents(12, {0: 1, 5: 0.5})


def test_format_polynomial():
    assert ex.format_polynomial((Fraction(-8), Fraction(0), Fraction(1))) == "t^2 - 8"
    assert ex.format_polynomial((Fraction(-3, 5), Fraction(1))) == "t - 3/5"
    assert ex.format_polynomial((Fraction(0),)) == "0"


# Methods that operator syntax reaches: binary arithmetic, plain, reflected
# and in-place; unary arithmetic; comparisons; hashing and truth testing.
BINARY_OPERATORS = (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
    "lshift", "rshift", "and", "xor", "or",
)
OPERATOR_DUNDERS = {f"__{side}{op}__" for op in BINARY_OPERATORS for side in ("", "r", "i")}
OPERATOR_DUNDERS |= {
    f"__{op}__"
    for op in ("neg", "pos", "abs", "invert", "eq", "ne", "lt", "le", "gt", "ge", "hash", "bool")
}

# Operators that no command reaches on the shipped instances, each kept for a
# reason; any other unreached operator should be deleted.  Tests state sums and
# products through `conftest.reference_sum` and `reference_product`.
UNREACHED_OPERATORS: set[str] = set()


def shipped_requests():
    """Each command each shipped instance accepts: spectrum, degree and check
    on every one, and distance on the connection instances, which refuses a
    multiset."""
    for path in sorted(INSTANCE_DIR.glob("*.txt")):
        yield from (["spectrum", str(path)], ["degree", str(path)], ["check", str(path)])
        if "[connection]" in path.read_text():
            yield ["distance", str(path)]


def test_every_operator_is_reached_on_the_shipped_instances(monkeypatch, capsys):
    defined = OPERATOR_DUNDERS & set(vars(Cyclotomic))
    reached = set()
    for name in defined:

        def counted(*args, name=name, real=vars(Cyclotomic)[name]):
            reached.add(name)
            return real(*args)

        monkeypatch.setattr(Cyclotomic, name, counted)
    for argv in shipped_requests():
        code = main(argv)
        err = capsys.readouterr().err
        refused = argv[0] == "distance" and "needs a simple connection set" in err
        assert code == 0 or (code == 2 and refused), (argv, err)
    assert UNREACHED_OPERATORS <= defined
    assert reached == defined - UNREACHED_OPERATORS
